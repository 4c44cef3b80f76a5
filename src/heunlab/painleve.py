"""Painleve isomonodromy systems: linear equations, Hamiltonians, identities.

For each of the five kinds P2, P3', P4, P5, P6 this module builds

* the second-order linear equation whose deformations in t produce the kind,
* the Hamiltonian governing the deformation flow in (lambda, mu),
* the nonlinear second-order right-hand side satisfied by lambda(t),
* the bridge from the linear data's parameters to the nonlinear constants,

and verifies, purely symbolically, that eliminating mu from the Hamiltonian
flow reproduces the nonlinear equation.

Two printed-source discrepancies are modelled explicitly rather than silently
fixed:

* ``h2_literal`` switches the P2 Hamiltonian's mu-coefficient from the
  working lambda^2 + t/2 to the literal lambda^2 + 1/t, which breaks the
  elimination identity (the failure is itself a reproducible check);
* ``p5_literal`` switches the sign of the last P5 right-hand-side term back
  to the literal printed one, which likewise breaks the elimination identity.
  The working convention subtracts delta5 * lambda(lambda+1)/(lambda-1).

The constructors ``hamiltonian``, ``painleve_rhs``, ``kappa_constant`` and
``build_painleve_linear`` keep what they build at symbolic parameters
(``params is None``) for the life of the process, through
:func:`symbolic_cache`: a repeat call returns the same object, shared by every
caller and read-only (an immutable expression or a ``NamedTuple`` of them).
A call with a params mapping never reaches a cache and builds afresh.
``painleve_rhs`` and ``bridge`` take no params: a caller binds them with
``substitute``.
"""

from __future__ import annotations

import functools
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .algebra import (
    RationalExpr,
    as_rational,
    const,
    find_witness,
    substitute,
    var,
)
from .ode import LinearODE2
from .report import CaseRecord


class InvalidSpec(Exception):
    """Painleve linear-equation parameters violate the kind's invariants."""


class PainleveKind(Enum):
    P2 = "p2"
    P3P = "p3prime"
    P4 = "p4"
    P5 = "p5"
    P6 = "p6"


#: Parameter keys of the linear data, per kind.
KIND_PARAMS = {
    PainleveKind.P6: ("kappa0", "kappa1", "theta", "kappainf"),
    PainleveKind.P5: ("kappa0", "theta", "kappainf", "eta"),
    PainleveKind.P4: ("kappa0", "thetainf"),
    PainleveKind.P3P: ("eta0", "etainf", "theta0", "thetainf"),
    PainleveKind.P2: ("alpha2",),
}

#: Fixed singular locus (in lambda) of the linear equation, per kind.
LAMBDA_LOCUS = {
    PainleveKind.P6: ("0", "1", "t"),
    PainleveKind.P5: ("0", "1"),
    PainleveKind.P4: ("0",),
    PainleveKind.P3P: ("0",),
    PainleveKind.P2: (),
}

#: Fixed singular t-values of the deformation flow, per kind: the poles in t
#: of each kind's Hamiltonian flow and Riccati right-hand side, which the
#: integrators read off those expressions.  Kept for the message with which
#: ``build_painleve_linear`` refuses them.
FLOW_T_SINGULARITIES = {
    PainleveKind.P6: (Fraction(0), Fraction(1)),
    PainleveKind.P5: (Fraction(0),),
    PainleveKind.P4: (),
    PainleveKind.P3P: (Fraction(0),),
    PainleveKind.P2: (),
}

#: The fixed singular t-values of the literal P2 flow (``h2_literal``): its 1/t.
H2_LITERAL_T_SINGULARITIES = (Fraction(0),)


def symbolic_cache(build):
    """Keep ``build``'s results at symbolic parameters for the life of the process.

    A call without a ``params`` mapping is answered from a ``functools.cache``
    keyed by every argument, read off ``build``'s code object: the positional
    ones by position and the keyword-only ones by keyword, in the order of
    ``build``'s signature and with its defaults filled in.  So two spellings of
    one call share an entry.  A call with ``params``, or one that does not
    fit the signature, runs ``build`` itself (which raises the ``TypeError``).
    ``cache_info`` and ``cache_clear`` are those of the cache.
    """
    code = build.__code__
    n_pos = code.co_argcount
    names = code.co_varnames[:n_pos + code.co_kwonlyargcount]
    positional, keyword, every = names[:n_pos], names[n_pos:], set(names)
    defaults = dict(zip(positional[n_pos - len(build.__defaults__ or ()):],
                        build.__defaults__ or ()))
    defaults.update(build.__kwdefaults__ or {})
    cached = functools.cache(build)

    @functools.wraps(build)
    def constructor(*args, **kwargs):
        given = dict(zip(positional, args))
        call = {**defaults, **given, **kwargs}
        if (call.get("params") is not None or len(args) > n_pos
                or given.keys() & kwargs.keys() or call.keys() != every):
            return build(*args, **kwargs)
        return cached(*(call[n] for n in positional), **{n: call[n] for n in keyword})

    constructor.cache_info = cached.cache_info
    constructor.cache_clear = cached.cache_clear
    return constructor


def _fill_params(kind: PainleveKind, params) -> dict[str, RationalExpr]:
    if params is None:
        return {k: var(k) for k in KIND_PARAMS[kind]}
    out = {}
    for k in KIND_PARAMS[kind]:
        if k not in params:
            raise InvalidSpec(f"{kind.value} needs parameter {k}")
        out[k] = as_rational(params[k])
    return out


class HamiltonianSystem(NamedTuple):
    """Hamiltonian with its flow fields dlam/dt = dH/dmu, dmu/dt = -dH/dlam."""

    H: RationalExpr
    dH_dmu: RationalExpr
    dH_dlam: RationalExpr


@symbolic_cache
def kappa_constant(kind: PainleveKind, params=None) -> RationalExpr:
    """The kappa constant entering the P6/P5 linear data and Hamiltonians."""
    p = _fill_params(kind, params)
    if kind is PainleveKind.P6:
        s = p["kappa0"] + p["kappa1"] + p["theta"] - 1
        return s * s / 4 - p["kappainf"] ** 2 / 4
    if kind is PainleveKind.P5:
        s = p["kappa0"] + p["theta"]
        return s * s / 4 - p["kappainf"] ** 2 / 4
    raise InvalidSpec(f"kappa is defined for P6 and P5, not {kind.value}")


def _kappa_of(kind: PainleveKind, params) -> RationalExpr | None:
    """The kind's kappa constant for P6 and P5, None for the kinds without one."""
    if kind in (PainleveKind.P6, PainleveKind.P5):
        return kappa_constant(kind, params)
    return None


def _hamiltonian_at(kind: PainleveKind, p: dict[str, RationalExpr],
                    kap: RationalExpr | None, lam: RationalExpr, mu: RationalExpr,
                    t: RationalExpr, h2_literal: bool) -> RationalExpr:
    """The kind's Hamiltonian at the given parameters, kappa constant and state."""
    if kind is PainleveKind.P6:
        k0, k1, th = p["kappa0"], p["kappa1"], p["theta"]
        poly = (lam * (lam - 1) * (lam - t) * mu ** 2
                - (k0 * (lam - 1) * (lam - t) + k1 * lam * (lam - t)
                   + (th - 1) * lam * (lam - 1)) * mu
                + kap * (lam - t))
        return poly / (t * (t - 1))
    if kind is PainleveKind.P5:
        k0, th, eta = p["kappa0"], p["theta"], p["eta"]
        poly = (lam * (lam - 1) ** 2 * mu ** 2
                - (k0 * (lam - 1) ** 2 + th * lam * (lam - 1) - eta * t * lam) * mu
                + kap * (lam - 1))
        return poly / t
    if kind is PainleveKind.P4:
        k0, thinf = p["kappa0"], p["thetainf"]
        return (2 * lam * mu ** 2 - (lam ** 2 + 2 * t * lam + 2 * k0) * mu
                + thinf * lam)
    if kind is PainleveKind.P3P:
        e0, einf, t0, tinf = p["eta0"], p["etainf"], p["theta0"], p["thetainf"]
        poly = (lam ** 2 * mu ** 2 - (einf * lam ** 2 + t0 * lam - e0 * t) * mu
                + einf * (t0 + tinf) * lam / 2)
        return poly / t
    a2 = p["alpha2"]
    mu_coef = lam ** 2 + (1 / t if h2_literal else t / 2)
    return mu ** 2 / 2 - mu_coef * mu - (a2 + const(1, 2)) * lam


@symbolic_cache
def hamiltonian(kind: PainleveKind, params=None, *,
                h2_literal: bool = False) -> HamiltonianSystem:
    """The kind's Hamiltonian and its exact flow fields."""
    H = _hamiltonian_at(kind, _fill_params(kind, params), _kappa_of(kind, params),
                        var("lambda"), var("mu"), var("t"), h2_literal)
    return HamiltonianSystem(H, H.derivative("mu"), H.derivative("lambda"))


@symbolic_cache
def build_painleve_linear(kind: PainleveKind, params=None, *, lam=None, mu=None, t=None,
                          h2_literal: bool = False) -> LinearODE2:
    """The linear equation whose deformation in t produces the kind.

    Parameters and the state (lam, mu, t) left out stay symbolic, named
    after their keys and ``lambda``, ``mu``, ``t``.  A t on the flow's fixed
    singular set, where the construction would divide by zero, raises
    :class:`InvalidSpec`.  A lambda on the kind's fixed singular locus only
    merges two poles of the linear equation, so it is allowed.

    Each coefficient of P6, P5 and P3' is a sum of partial fractions over
    the poles 0, 1, t and lambda; it is built as one numerator over the
    product of its pole factors and canonicalised by a single division, so
    merged poles and vanishing residues cancel there.  P4 and P2, with one
    pole or none besides lambda, sum their terms as written.
    """
    p = _fill_params(kind, params)
    lam = var("lambda") if lam is None else as_rational(lam)
    mu = var("mu") if mu is None else as_rational(mu)
    t = var("t") if t is None else as_rational(t)
    fixed = FLOW_T_SINGULARITIES[kind]
    if h2_literal and kind is PainleveKind.P2:
        fixed = H2_LITERAL_T_SINGULARITIES
    if t.is_const() and t.const_value() in fixed:
        raise InvalidSpec(f"t must avoid {' and '.join(map(str, fixed))}")
    z = var("z")
    kap = _kappa_of(kind, params)
    H = _hamiltonian_at(kind, p, kap, lam, mu, t, h2_literal)
    # P6, P5 and P3' write each coefficient as one numerator over the
    # product of its pole factors, a = z, b = z - 1, c = z - t, d = z - lambda,
    # so that the partial fractions in each comment cost one division.
    if kind is PainleveKind.P6:
        # p1 = (1-k0)/a + (1-k1)/b + (1-th)/c - 1/d,
        # p2 = kap/(ab) - t(t-1)H/(abc) + lam(lam-1)mu/(abd).
        k0, k1, th = p["kappa0"], p["kappa1"], p["theta"]
        a, b, c, d = z, z - 1, z - t, z - lam
        ab, cd = a * b, c * d
        poles = ab * cd
        p1 = ((1 - k0) * b * cd + (1 - k1) * a * cd + (1 - th) * ab * d - ab * c) / poles
        p2 = (kap * cd - t * (t - 1) * H * d + lam * (lam - 1) * mu * c) / poles
    elif kind is PainleveKind.P5:
        # p1 = (1-k0)/a + eta t/b^2 + (1-th)/b - 1/d,
        # p2 = kap/(ab) - tH/(ab^2) + lam(lam-1)mu/(abd).
        k0, th, eta = p["kappa0"], p["theta"], p["eta"]
        a, b, d = z, z - 1, z - lam
        bd = b * d
        poles = a * b * bd
        p1 = ((1 - k0) * b * bd + eta * t * a * d + (1 - th) * a * bd - a * b * b) / poles
        p2 = (kap * bd - t * H * d + lam * (lam - 1) * mu * b) / poles
    elif kind is PainleveKind.P4:
        k0, thinf = p["kappa0"], p["thetainf"]
        p1 = (1 - k0) / z - (z + 2 * t) / 2 - 1 / (z - lam)
        p2 = thinf / 2 - H / (2 * z) + lam * mu / (z * (z - lam))
    elif kind is PainleveKind.P3P:
        # p1 = e0 t/a^2 + (1-t0)/a - einf - 1/d,
        # p2 = einf(t0+tinf)/(2a) - tH/a^2 + lam mu/(ad).
        e0, einf, t0, tinf = p["eta0"], p["etainf"], p["theta0"], p["thetainf"]
        a, d = z, z - lam
        ad = a * d
        poles = a * ad
        p1 = (e0 * t * d + (1 - t0) * ad - einf * a * ad - a * a) / poles
        p2 = (einf * (t0 + tinf) / 2 * ad - t * H * d + lam * mu * a) / poles
    else:  # P2
        a2 = p["alpha2"]
        p1 = -2 * z ** 2 - t - 1 / (z - lam)
        p2 = -(2 * a2 + 1) * z - 2 * H + mu / (z - lam)
    return LinearODE2(p1, p2, "z")


def bridge(kind: PainleveKind) -> dict[str, RationalExpr]:
    """Constants of the nonlinear equation, from the linear data's parameters."""
    p = _fill_params(kind, None)
    if kind is PainleveKind.P6:
        return {
            "alpha6": p["kappainf"] ** 2 / 2,
            "beta6": -(p["kappa0"] ** 2) / 2,
            "gamma6": p["kappa1"] ** 2 / 2,
            "delta6": (1 - p["theta"] ** 2) / 2,
            "kappa": kappa_constant(kind),
        }
    if kind is PainleveKind.P5:
        return {
            "alpha5": p["kappainf"] ** 2 / 2,
            "beta5": -(p["kappa0"] ** 2) / 2,
            "gamma5": (1 + p["theta"]) * p["eta"],
            "delta5": p["eta"] ** 2 / 2,
            "kappa": kappa_constant(kind),
        }
    if kind is PainleveKind.P4:
        return {
            "alpha4": -p["kappa0"] + 2 * p["thetainf"] + 1,
            "beta4": -2 * p["kappa0"] ** 2,
        }
    if kind is PainleveKind.P3P:
        return {
            "alpha3": -4 * p["etainf"] * p["thetainf"],
            "beta3": 4 * p["eta0"] * (1 + p["theta0"]),
            "gamma3": 4 * p["etainf"] ** 2,
            "delta3": -4 * p["eta0"] ** 2,
        }
    return {"alpha2": p["alpha2"]}


@symbolic_cache
def painleve_rhs(kind: PainleveKind, *, p5_literal: bool = False) -> RationalExpr:
    """Right-hand side of d^2 lambda / dt^2 for the kind.

    The indeterminate ``lambdap`` stands for dlambda/dt.  For P5 the default
    convention enters the last constant with a minus sign (the literal
    printed sign fails the elimination identity; see
    :func:`verify_elimination`).
    """
    lam = var("lambda")
    lp = var("lambdap")
    t = var("t")
    br = bridge(kind)
    if kind is PainleveKind.P6:
        a6, b6, g6, d6 = br["alpha6"], br["beta6"], br["gamma6"], br["delta6"]
        return (
            (1 / lam + 1 / (lam - 1) + 1 / (lam - t)) / 2 * lp ** 2
            - (1 / t + 1 / (t - 1) + 1 / (lam - t)) * lp
            + lam * (lam - 1) * (lam - t) / (t ** 2 * (t - 1) ** 2)
            * (a6 + b6 * t / lam ** 2 + g6 * (t - 1) / (lam - 1) ** 2
               + d6 * t * (t - 1) / (lam - t) ** 2))
    if kind is PainleveKind.P5:
        a5, b5, g5, d5 = br["alpha5"], br["beta5"], br["gamma5"], br["delta5"]
        sign = 1 if p5_literal else -1
        return (
            (1 / (2 * lam) + 1 / (lam - 1)) * lp ** 2
            - lp / t
            + (lam - 1) ** 2 / t ** 2 * (a5 * lam + b5 / lam)
            + g5 * lam / t
            + sign * d5 * lam * (lam + 1) / (lam - 1))
    if kind is PainleveKind.P4:
        a4, b4 = br["alpha4"], br["beta4"]
        return (lp ** 2 / (2 * lam) + const(3, 2) * lam ** 3 + 4 * t * lam ** 2
                + 2 * (t ** 2 - a4) * lam + b4 / lam)
    if kind is PainleveKind.P3P:
        a3, b3, g3, d3 = br["alpha3"], br["beta3"], br["gamma3"], br["delta3"]
        return (lp ** 2 / lam - lp / t
                + (a3 * lam ** 2 + g3 * lam ** 3) / (4 * t ** 2)
                + b3 / (4 * t) + d3 / (4 * lam))
    a2 = br["alpha2"]
    return 2 * lam ** 3 + t * lam + a2


def painleve_rhs_p3_standard() -> RationalExpr:
    """Right-hand side of the standard (un-rescaled) third Painleve equation."""
    lam = var("lambda")
    lp = var("lambdap")
    t = var("t")
    br = bridge(PainleveKind.P3P)
    a3, b3, g3, d3 = br["alpha3"], br["beta3"], br["gamma3"], br["delta3"]
    return (lp ** 2 / lam - lp / t + (a3 * lam ** 2 + b3) / t
            + g3 * lam ** 3 + d3 / lam)


# ---------------------------------------------------------------------------
# Symbolic verification of the elimination identities
# ---------------------------------------------------------------------------


def lambda_second_derivative_along_flow(ham: HamiltonianSystem) -> RationalExpr:
    """d^2 lambda / dt^2 along the Hamiltonian flow, as a function of (lambda, mu, t).

    Differentiates lambda' = dH/dmu once more along the flow:

        lambda'' = d/dt(dH/dmu) + d/dlam(dH/dmu) * dH/dmu
                   - d/dmu(dH/dmu) * dH/dlam.
    """
    f = ham.dH_dmu
    return (f.derivative("t")
            + f.derivative("lambda") * ham.dH_dmu
            - f.derivative("mu") * ham.dH_dlam)


def verify_elimination(kind: PainleveKind, *, h2_literal: bool = False,
                       p5_literal: bool = False) -> CaseRecord:
    """Check that eliminating mu from the flow yields the nonlinear equation.

    Fully symbolic: both sides become rational functions of
    (lambda, mu, t, parameters) once lambda' is replaced by dH/dmu in the
    right-hand side, and the two are compared exactly.
    """
    ham = hamiltonian(kind, h2_literal=h2_literal)
    lhs = lambda_second_derivative_along_flow(ham)
    rhs = substitute(painleve_rhs(kind, p5_literal=p5_literal),
                     {"lambdap": ham.dH_dmu})
    diff = lhs - rhs
    return CaseRecord(passed=diff.is_zero(), witness=find_witness(diff, seed=17))


def verify_p3_substitution() -> CaseRecord:
    """Check that lambda(t) -> lambda(t^2)/t turns P3 into the P3' form.

    Treats lambda as a formal jet: with w the new function of tau = s^2 and s
    the old variable, the substitutions

        lambda   = w / s
        lambda'  = 2 w' - w / s^2
        lambda'' = 4 s w'' - 2 w'/s + 2 w/s^3

    follow from the chain rule.  Substituting them into the standard P3
    residual must give exactly 4 s times the P3' residual at tau = s^2.
    """
    s = var("t")
    w, wp, wpp = var("jw"), var("jwp"), var("jwpp")
    lam_sub = w / s
    lamp_sub = 2 * wp - w / s ** 2
    lampp_sub = 4 * s * wpp - 2 * wp / s + 2 * w / s ** 3
    res3 = var("lambdapp") - painleve_rhs_p3_standard()
    transported = substitute(res3, {
        "lambda": lam_sub, "lambdap": lamp_sub, "lambdapp": lampp_sub})
    res3p = substitute(
        var("lambdapp") - painleve_rhs(PainleveKind.P3P),
        {"lambda": w, "lambdap": wp, "lambdapp": wpp, "t": s ** 2})
    diff = transported - 4 * s * res3p
    return CaseRecord(passed=diff.is_zero(), witness=find_witness(diff, seed=23))
