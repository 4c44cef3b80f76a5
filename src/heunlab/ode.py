"""Second-order linear ODEs and their exact transformations.

Everything here manipulates equations of the monic form

    v'' + p1(z) v' + p2(z) v = 0

with rational-function coefficients.  The module provides the derivative
equation (the ODE satisfied by v = u' when u solves a given equation),
gauge transforms (a power prefactor times a rational change of variable),
singularity enumeration with the regular/irregular classification, and
exact equality of equations.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .algebra import (
    RationalExpr,
    identity_test,
    rational_roots,
    substitute,
    var,
)


class OdeError(Exception):
    """Base class for ODE-transformation errors."""


class NoDerivativeEquation(OdeError):
    """The derivative of a solution satisfies a first-order equation only."""


class LinearODE2(NamedTuple):
    """The equation v'' + p1 v' + p2 v = 0 in the variable ``var``."""

    p1: RationalExpr
    p2: RationalExpr
    var: str = "z"

    def parameter_names(self) -> set[str]:
        return (self.p1.names() | self.p2.names()) - {self.var}


def derivative_equation(ode: LinearODE2) -> LinearODE2:
    """ODE satisfied by v = u' when u solves the input equation.

    Derivation: differentiate u'' + p1 u' + p2 u = 0 once,

        v'' + p1 v' + (p1' + p2) v + p2' u = 0,

    and eliminate u with u = -(v' + p1 v)/p2 from the original equation:

        v'' + (p1 - p2'/p2) v' + (p2 + p1' - p1 p2'/p2) v = 0.

    This requires p2 != 0; otherwise v already satisfies the first-order
    equation v' + p1 v = 0 and there is no canonical second-order form.
    """
    if ode.p2.is_zero():
        raise NoDerivativeEquation(
            "p2 is identically zero; v = u' satisfies a first-order equation")
    z = ode.var
    log_dp2 = ode.p2.derivative(z) / ode.p2
    q1 = ode.p1 - log_dp2
    q2 = ode.p2 + ode.p1.derivative(z) - ode.p1 * log_dp2
    return LinearODE2(q1, q2, z)


class GaugeSpec(NamedTuple):
    """Change of unknown w(z) = phi(z)^sigma * v(m(z)).

    The change of variable m is a rational function of the equation's
    variable, for instance z / (z - 1).  The exponent sigma may be a free
    parameter; only the logarithmic derivative sigma * phi'/phi ever enters
    the transformed coefficients, so the result is rational in z and
    polynomial in sigma.
    """

    m: RationalExpr
    phi: RationalExpr
    sigma: RationalExpr


def gauge_mobius_transform(ode: LinearODE2, g: GaugeSpec) -> LinearODE2:
    """ODE satisfied by w(z) = phi(z)^sigma v(m(z)) when v solves ``ode``.

    With L = sigma phi'/phi and any rational change of variable m,

        w'  = phi^sigma [ L (v.m) + m' (v'.m) ]
        w'' = phi^sigma [ (L' + L^2)(v.m) + (2 L m' + m'')(v'.m)
                          + m'^2 (v''.m) ]

    so substituting v'' = -p1 v' - p2 v at m(z) and requiring the bracket
    coefficients of (v.m) and (v'.m) to vanish yields

        q1 = m' (p1.m) - 2 L - m''/m'
        q2 = m'^2 (p2.m) - L' - L^2 - q1 L.

    A constant m (m' = 0) raises :class:`OdeError`, a zero prefactor
    ``ValueError``.
    """
    z = ode.var
    mp = g.m.derivative(z)
    if mp.is_zero():
        raise OdeError("the change of variable is constant")
    if g.phi.is_zero():
        raise ValueError("gauge prefactor must not be identically zero")
    mpp = mp.derivative(z)
    L = g.sigma * g.phi.derivative(z) / g.phi
    p1m = substitute(ode.p1, {z: g.m})
    p2m = substitute(ode.p2, {z: g.m})
    q1 = mp * p1m - 2 * L - mpp / mp
    q2 = mp * mp * p2m - L.derivative(z) - L * L - q1 * L
    return LinearODE2(q1, q2, z)


# ---------------------------------------------------------------------------
# Singular points
# ---------------------------------------------------------------------------

INFINITY = "inf"


class SingularPoint(NamedTuple):
    """One singularity of a linear ODE.

    ``location`` is the exact rational finite point, or the string ``"inf"``
    for the point at infinity.
    """

    location: Fraction | str
    kind: str  # "regular" | "irregular"


def finite_poles(coeffs: tuple[RationalExpr, ...], name: str) -> dict[Fraction, list[int]]:
    """The poles in ``name`` of the coefficients, with their order in each.

    Keyed by the exact rational pole, in increasing order.  Each denominator
    gives up every rational root (``rational_roots``), so each point is
    listed once, with its order in every coefficient.  A denominator with a
    factor that has no rational root raises :class:`OdeError`: the equations
    of the package have only rational singular points.
    """
    n = len(coeffs)
    orders: dict[Fraction, list[int]] = {}
    for i, p in enumerate(coeffs):
        if p.den.is_const():
            continue
        roots, rest = rational_roots(p.den.primitive_int_coeffs(name))
        if len(rest) > 1:
            raise OdeError(f"the denominator {p.den} has a factor with no rational root")
        for r, k in roots.items():
            orders.setdefault(r, [0] * n)[i] += k
    return {r: orders[r] for r in sorted(orders)}


def singular_points(ode: LinearODE2) -> list[SingularPoint]:
    """Singularities of the equation, classified regular/irregular.

    A finite point is regular-singular when p1 has a pole of order at most 1
    and p2 of order at most 2 there.  Every finite point is an exact
    rational, in increasing order, then comes infinity; a denominator with a
    factor that has no rational root raises :class:`OdeError`
    (:func:`finite_poles`).

    The point at infinity is read off the degree excess deg N - deg D of
    coefficients p = N/D, since p(1/w) has w-valuation deg D - deg N; a zero
    coefficient counts as minus infinity.  In the chart w = 1/z the equation
    reads y'' + (2/w - p1(1/w)/w^2) y' + p2(1/w)/w^4 y = 0 (Ince, Ordinary
    Differential Equations, ch. XV), so infinity is ordinary exactly when
    p1 - 2/z has excess at most -2 and p2 at most -4.  A singular infinity is
    regular (Fuchs) when p1 = O(1/z) and p2 = O(1/z^2), that is when p1 has
    excess at most -1 and p2 at most -2.  So v'' = 0 has a regular singular
    point at infinity (its solution z is not analytic there), and
    v'' + (2/z) v' = 0, whose solutions are 1 and 1/z, has none.
    """
    extra = ode.parameter_names()
    if extra:
        raise ValueError(
            f"coefficients still involve parameters {sorted(extra)}; bind them")

    points = [SingularPoint(x, "regular" if k1 <= 1 and k2 <= 2 else "irregular")
              for x, (k1, k2) in finite_poles((ode.p1, ode.p2), ode.var).items()]
    kind = infinity_kind(ode)
    if kind is not None:
        points.append(SingularPoint(INFINITY, kind))
    return points


def infinity_kind(ode: LinearODE2) -> str | None:
    """Kind of the point at infinity, None when it is an ordinary point.

    Applies the degree rule stated in :func:`singular_points`.
    """
    z = ode.var
    e2 = _degree_excess(ode.p2, z)
    if e2 < -3 and _degree_excess(ode.p1 - 2 / var(z), z) < -1:
        return None
    e1 = _degree_excess(ode.p1, z)
    return "regular" if e1 <= -1 and e2 <= -2 else "irregular"


def _degree_excess(p: RationalExpr, name: str) -> float:
    """deg N - deg D in ``name`` for p = N/D; minus infinity when p = 0."""
    if p.is_zero():
        return -math.inf
    return p.num.degree_in(name) - p.den.degree_in(name)


def ode_equal(a: LinearODE2, b: LinearODE2) -> bool:
    """Exact equality of two equations' coefficient pairs."""
    if a.var != b.var:
        raise ValueError("equations use different independent variables")
    return identity_test(a.p1, b.p1) and identity_test(a.p2, b.p2)


def coefficient_diff(a: LinearODE2, b: LinearODE2) -> dict[str, RationalExpr]:
    """Per-coefficient canonical differences, for failure reporting."""
    return {"p1": a.p1 - b.p1, "p2": a.p2 - b.p2}
