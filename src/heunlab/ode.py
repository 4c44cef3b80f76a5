"""Second-order linear ODEs and their exact transformations.

Everything here manipulates equations of the monic form

    v'' + p1(z) v' + p2(z) v = 0

with rational-function coefficients.  The module provides the derivative
equation (the ODE satisfied by v = u' when u solves a given equation),
power-prefactor Moebius changes of variable, singularity enumeration with
the regular/irregular classification, and exact equality of equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    MultiPoly,
    RationalExpr,
    as_rational,
    exact_div,
    identity_test,
    poly_gcd,
    substitute,
    var,
)


class OdeError(Exception):
    """Base class for ODE-transformation errors."""


class NoDerivativeEquation(OdeError):
    """The derivative of a solution satisfies a first-order equation only."""


class DegenerateMobius(OdeError):
    """The Moebius map has vanishing determinant."""


@dataclass(frozen=True)
class LinearODE2:
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


@dataclass(frozen=True)
class Mobius:
    """The map m(z) = (a z + b)/(c z + d) with constant coefficients."""

    a: RationalExpr
    b: RationalExpr
    c: RationalExpr
    d: RationalExpr

    @staticmethod
    def of(a, b, c, d) -> "Mobius":
        return Mobius(as_rational(a), as_rational(b), as_rational(c), as_rational(d))

    def det(self) -> RationalExpr:
        return self.a * self.d - self.b * self.c

    def check(self) -> None:
        if self.det().is_zero():
            raise DegenerateMobius("a d - b c = 0")

    def expr(self, name: str = "z") -> RationalExpr:
        z = var(name)
        return (self.a * z + self.b) / (self.c * z + self.d)


@dataclass(frozen=True)
class GaugeSpec:
    """Change of unknown w(z) = phi(z)^sigma * v(m(z)).

    The exponent sigma may be a free parameter; only the logarithmic
    derivative sigma * phi'/phi ever enters the transformed coefficients, so
    the result is rational in z and polynomial in sigma.
    """

    mobius: Mobius
    phi: RationalExpr
    sigma: RationalExpr

    def check(self) -> None:
        self.mobius.check()
        if self.phi.is_zero():
            raise ValueError("gauge prefactor must not be identically zero")


def gauge_mobius_transform(ode: LinearODE2, g: GaugeSpec) -> LinearODE2:
    """ODE satisfied by w(z) = phi(z)^sigma v(m(z)) when v solves ``ode``.

    With L = sigma phi'/phi and m the Moebius map,

        w'  = phi^sigma [ L (v.m) + m' (v'.m) ]
        w'' = phi^sigma [ (L' + L^2)(v.m) + (2 L m' + m'')(v'.m)
                          + m'^2 (v''.m) ]

    so substituting v'' = -p1 v' - p2 v at m(z) and requiring the bracket
    coefficients of (v.m) and (v'.m) to vanish yields

        q1 = m' (p1.m) - 2 L - m''/m'
        q2 = m'^2 (p2.m) - L' - L^2 - q1 L.
    """
    g.check()
    z = ode.var
    m = g.mobius.expr(z)
    mp = m.derivative(z)
    mpp = mp.derivative(z)
    L = g.sigma * g.phi.derivative(z) / g.phi
    p1m = substitute(ode.p1, {z: m})
    p2m = substitute(ode.p2, {z: m})
    q1 = mp * p1m - 2 * L - mpp / mp
    q2 = mp * mp * p2m - L.derivative(z) - L * L - q1 * L
    return LinearODE2(q1, q2, z)


# ---------------------------------------------------------------------------
# Singular points
# ---------------------------------------------------------------------------

INFINITY = "inf"


@dataclass(frozen=True)
class SingularPoint:
    """One singularity of a linear ODE.

    ``location`` is an exact rational for resolved finite points, the string
    ``"inf"`` for the point at infinity, or a MultiPoly denominator factor
    for loci this module does not resolve over the rationals.
    """

    location: object
    kind: str  # "regular" | "irregular"


def _divisors(n: int, limit: int = 10 ** 6) -> list[int] | None:
    """All positive divisors of n, or None when n has a factor we refuse to find."""
    n = abs(n)
    if n == 0:
        return None
    factors: dict[int, int] = {}
    m = n
    p = 2
    while p * p <= m and p <= limit:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        if m > limit * limit:
            return None
        factors[m] = factors.get(m, 0) + 1
    divs = [1]
    for prime, mult in factors.items():
        divs = [d * prime ** k for d in divs for k in range(mult + 1)]
    return sorted(set(divs))


def _rational_roots(coeffs: list[int]) -> tuple[dict[Fraction, int], list[int]]:
    """Rational roots with multiplicities, plus the rootless cofactor.

    ``coeffs`` are primitive integer coefficients, low to high, as
    ``MultiPoly.primitive_int_coeffs`` reads them.  A root p/q in lowest terms
    has p dividing the lowest nonzero coefficient and q the leading one, and
    then q z - p divides the polynomial in Z[z] (Gauss's lemma), so each
    candidate is divided out exactly in integers.  Returns (roots, leftover):
    leftover is the primitive integer list of the cofactor, constant when the
    polynomial splits over Q, and the whole input, zero roots removed, when a
    coefficient has a prime factor that ``_divisors`` refuses to find.
    """
    roots: dict[Fraction, int] = {}
    zeros = next(k for k, c in enumerate(coeffs) if c)
    if zeros:
        roots[Fraction(0)] = zeros
    work = coeffs[zeros:]
    if len(work) == 1:
        return roots, work
    p_divs = _divisors(work[0])
    q_divs = _divisors(work[-1])
    if p_divs is None or q_divs is None:
        return roots, work
    candidates = sorted(
        {Fraction(sp * p, q) for p in p_divs for q in q_divs for sp in (1, -1)})
    for r in candidates:
        while len(work) > 1:
            quot = _divide_linear(work, r.denominator, r.numerator)
            if quot is None:
                break
            roots[r] = roots.get(r, 0) + 1
            work = quot
    return roots, work


def _divide_linear(coeffs: list[int], q: int, p: int) -> list[int] | None:
    """The quotient of the polynomial by q z - p when it is exact in Z[z], else None."""
    quot = [0] * (len(coeffs) - 1)
    carry = coeffs[-1]
    for k in range(len(coeffs) - 2, -1, -1):
        b, r = divmod(carry, q)
        if r:
            return None
        quot[k] = b
        carry = coeffs[k] + p * b
    return None if carry else quot


def squarefree_decomposition(p: MultiPoly, name: str) -> list[tuple[MultiPoly, int]]:
    """Yun's algorithm: p = const * prod a_k^k with squarefree coprime a_k."""
    out: list[tuple[MultiPoly, int]] = []
    if p.degree_in(name) == 0:
        return out
    dp = p.derivative(name)
    g = poly_gcd(p, dp)
    c = exact_div(p, g)
    d = exact_div(dp, g) - c.derivative(name)
    k = 1
    while c.degree_in(name) > 0:
        a = poly_gcd(c, d)
        if a.degree_in(name) > 0:
            out.append((a, k))
        c = exact_div(c, a)
        d = exact_div(d, a) - c.derivative(name)
        k += 1
    return out


def _pole_orders(expr: RationalExpr, name: str) -> dict[object, int]:
    """Orders of the finite poles of a univariate rational expression.

    Keyed by the exact rational pole, or by a squarefree factor of the
    denominator that does not split over Q.
    """
    den = expr.den
    if den.is_const():
        return {}
    roots, leftover = _rational_roots(den.primitive_int_coeffs(name))
    if len(leftover) > 1:
        rest = MultiPoly((name,), {(k,): c for k, c in enumerate(leftover) if c})
        roots.update(squarefree_decomposition(rest, name))
    return roots


def singular_points(ode: LinearODE2) -> list[SingularPoint]:
    """Singularities of the equation, classified regular/irregular.

    A finite point is regular-singular when p1 has a pole of order at most 1
    and p2 of order at most 2 there.  Every pole is resolved exactly where
    the denominator splits over Q; other factors come back unresolved.

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
    z = ode.var
    extra = ode.parameter_names()
    if extra:
        raise ValueError(
            f"coefficients still involve parameters {sorted(extra)}; bind them")

    o1, o2 = _pole_orders(ode.p1, z), _pole_orders(ode.p2, z)
    # Rational points in increasing order, then the unresolved factors of p1,
    # then those of p2 alone.
    poles = {**o1, **o2}
    rational = sorted(r for r in poles if isinstance(r, Fraction))
    factors = [f for f in poles if not isinstance(f, Fraction)]
    orders = {x: (o1.get(x, 0), o2.get(x, 0)) for x in rational + factors}
    points = [SingularPoint(x, "regular" if k1 <= 1 and k2 <= 2 else "irregular")
              for x, (k1, k2) in orders.items()]
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
