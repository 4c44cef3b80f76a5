"""The five Heun equations, their derivative equations, and degenerations.

Parameter conventions follow the standard Heun notation: gamma, delta,
epsilon are the local exponent parameters, alpha/beta the growth parameters
(beta only for the general family), q the accessory parameter and t the
movable singular point of the general equation.

The derivative equations are transcribed closed forms.  They are verified
elsewhere against :func:`heunlab.ode.derivative_equation`, which re-derives
the equation for u' from scratch, so closed form and oracle stay independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .algebra import (
    Coercible,
    DegenerateSubstitution,
    RationalExpr,
    as_rational,
    const,
    exact_div,
    identity_test,
    poly_sqrt,
    substitute,
    var,
)
from .ode import LinearODE2, derivative_equation, infinity_kind, ode_equal
from .report import CaseRecord


class HeunError(Exception):
    """Base class for Heun-constructor errors."""


class FuchsianViolation(HeunError):
    """General-family parameters break 1 + alpha + beta = gamma + delta + epsilon."""


class SingularConfluence(HeunError):
    """The movable singular point collides with 0 or 1."""


class DegenerateDerivativeForm(HeunError):
    """The closed derivative form degenerates (its extra denominator vanishes)."""


class CaseMismatch(HeunError):
    """A degeneration case was requested whose condition the spec violates."""


class HeunFamily(Enum):
    GENERAL = "general"
    CONFLUENT = "confluent"
    DOUBLE_CONFLUENT = "doubleconfluent"
    BI_CONFLUENT = "biconfluent"
    TRI_CONFLUENT = "triconfluent"


#: Parameter keys used by each family, in canonical order.
FAMILY_PARAMS = {
    HeunFamily.GENERAL: ("gamma", "delta", "epsilon", "alpha", "beta", "q", "t"),
    HeunFamily.CONFLUENT: ("gamma", "delta", "epsilon", "alpha", "q"),
    HeunFamily.DOUBLE_CONFLUENT: ("gamma", "delta", "epsilon", "alpha", "q"),
    HeunFamily.BI_CONFLUENT: ("gamma", "delta", "epsilon", "alpha", "q"),
    HeunFamily.TRI_CONFLUENT: ("gamma", "delta", "epsilon", "alpha", "q"),
}


@dataclass(frozen=True)
class HeunSpec:
    """One member of a Heun family: the family tag plus its parameters."""

    family: HeunFamily
    gamma: RationalExpr
    delta: RationalExpr
    epsilon: RationalExpr
    alpha: RationalExpr
    q: RationalExpr
    beta: RationalExpr | None = None
    t: RationalExpr | None = None

    @staticmethod
    def of(family: HeunFamily, **params: Coercible) -> "HeunSpec":
        allowed = FAMILY_PARAMS[family]
        unknown = set(params) - set(allowed)
        if unknown:
            raise ValueError(f"{family.value} family does not use {sorted(unknown)}")
        missing = set(allowed) - set(params)
        if missing:
            raise ValueError(f"missing parameters {sorted(missing)}")
        vals = {k: as_rational(v) for k, v in params.items()}
        return HeunSpec(
            family=family,
            gamma=vals["gamma"],
            delta=vals["delta"],
            epsilon=vals["epsilon"],
            alpha=vals["alpha"],
            q=vals["q"],
            beta=vals.get("beta"),
            t=vals.get("t"),
        )

    @staticmethod
    def symbolic(family: HeunFamily) -> "HeunSpec":
        """Fully symbolic spec with parameters named after their keys."""
        return HeunSpec.of(family, **{k: var(k) for k in FAMILY_PARAMS[family]})

    def params(self) -> dict[str, RationalExpr]:
        out = {"gamma": self.gamma, "delta": self.delta, "epsilon": self.epsilon,
               "alpha": self.alpha, "q": self.q}
        if self.family is HeunFamily.GENERAL:
            out["beta"] = self.beta
            out["t"] = self.t
        return out

    def alphabeta(self) -> RationalExpr:
        """The coefficient product entering the general equation; alpha otherwise."""
        if self.family is HeunFamily.GENERAL:
            return self.alpha * self.beta
        return self.alpha

    def to_params_text(self) -> str:
        lines = []
        for k, v in self.params().items():
            if not v.is_const():
                raise ValueError(f"parameter {k} is symbolic; cannot serialize")
            lines.append(f"{k} = {v.const_value()}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_params(family: HeunFamily, mapping: Mapping[str, Coercible]) -> "HeunSpec":
        wanted = {k: mapping[k] for k in FAMILY_PARAMS[family]}
        return HeunSpec.of(family, **wanted)


def fuchsian_epsilon(alpha, beta, gamma, delta) -> RationalExpr:
    """Exponent parameter forced by 1 + alpha + beta = gamma + delta + epsilon."""
    return 1 + as_rational(alpha) + as_rational(beta) - as_rational(gamma) - as_rational(delta)


def fuchsian_holds(spec: HeunSpec) -> bool:
    if spec.family is not HeunFamily.GENERAL:
        return True
    lhs = 1 + spec.alpha + spec.beta
    rhs = spec.gamma + spec.delta + spec.epsilon
    return identity_test(lhs, rhs)


def _check_general(spec: HeunSpec, enforce_fuchsian: bool) -> None:
    if spec.beta is None or spec.t is None:
        raise ValueError("general family requires beta and t")
    if spec.t.is_const() and spec.t.const_value() in (0, 1):
        raise SingularConfluence(
            f"t = {spec.t.const_value()} collides with a fixed singular point")
    if enforce_fuchsian and not fuchsian_holds(spec):
        raise FuchsianViolation(
            "1 + alpha + beta = gamma + delta + epsilon fails for these parameters")


def build_heun(spec: HeunSpec, *, enforce_fuchsian: bool = True) -> LinearODE2:
    """The equation of the named family with the spec's parameters."""
    z = var("z")
    g, d, e, a, q = spec.gamma, spec.delta, spec.epsilon, spec.alpha, spec.q
    fam = spec.family
    if fam is HeunFamily.GENERAL:
        _check_general(spec, enforce_fuchsian)
        b, t = spec.beta, spec.t
        p1 = g / z + d / (z - 1) + e / (z - t)
        p2 = (a * b * z - q) / (z * (z - 1) * (z - t))
    elif fam is HeunFamily.CONFLUENT:
        p1 = g / z + d / (z - 1) + e
        p2 = (a * z - q) / (z * (z - 1))
    elif fam is HeunFamily.DOUBLE_CONFLUENT:
        p1 = g / z ** 2 + d / z + e
        p2 = (a * z - q) / z ** 2
    elif fam is HeunFamily.BI_CONFLUENT:
        p1 = g / z + d + e * z
        p2 = (a * z - q) / z
    else:  # tri-confluent
        p1 = g + d * z + e * z ** 2
        p2 = a * z - q
    return LinearODE2(p1, p2, "z")


def build_heun_derivative(spec: HeunSpec, *, enforce_fuchsian: bool = True) -> LinearODE2:
    """Closed-form equation satisfied by the derivative of a Heun solution.

    Each family picks up one extra singularity at the root of a*z - q (or
    alpha*beta*z - q for the general family); the constructors below are the
    literal closed forms, independent of the generic derivative-equation
    transformation that serves as their oracle.
    """
    z = var("z")
    g, d, e, q = spec.gamma, spec.delta, spec.epsilon, spec.q
    ab = spec.alphabeta()
    if ab.is_zero() and q.is_zero():
        raise DegenerateDerivativeForm(
            "alpha (or alpha*beta) and q are both zero; the extra denominator vanishes")
    fam = spec.family
    if fam is HeunFamily.GENERAL:
        _check_general(spec, enforce_fuchsian)
        t = spec.t
        p1 = (g + 1) / z + (d + 1) / (z - 1) + (e + 1) / (z - t) - ab / (ab * z - q)
        fz = (z * (ab * z - 2 * q) * (ab + g + d + e)
              + (q ** 2 + q * (g + t * (g + d) + e) - ab * g * t))
        p2 = fz / (z * (z - 1) * (z - t) * (ab * z - q))
    elif fam is HeunFamily.CONFLUENT:
        a = spec.alpha
        p1 = (g + 1) / z + (d + 1) / (z - 1) + e - a / (a * z - q)
        gz = (a + e) * (a * z ** 2 - 2 * q * z) + (q ** 2 - (g + d - e) * q + a * g)
        p2 = gz / (z * (z - 1) * (a * z - q))
    elif fam is HeunFamily.DOUBLE_CONFLUENT:
        a = spec.alpha
        p1 = g / z ** 2 + (d + 2) / z + e - a / (a * z - q)
        hz = (a + e) * (a * z ** 2 - 2 * q * z) + (q ** 2 - d * q - a * g)
        p2 = hz / (z ** 2 * (a * z - q))
    elif fam is HeunFamily.BI_CONFLUENT:
        a = spec.alpha
        p1 = (g + 1) / z + d + e * z - a / (a * z - q)
        kz = (a + e) * z * (a * z - 2 * q) + (q ** 2 - d * q - a * g)
        p2 = kz / (z * (a * z - q))
    else:  # tri-confluent
        a = spec.alpha
        p1 = g + d * z + e * z ** 2 - a / (a * z - q)
        pz = (a + e) * (a * z ** 2 - 2 * q * z) + (q ** 2 - d * q - a * g)
        p2 = pz / (a * z - q)
    return LinearODE2(p1, p2, "z")


def verify_derivative(family: HeunFamily) -> CaseRecord:
    """The closed derivative form equals its oracle at fully symbolic parameters.

    For the general family epsilon is bound by the Fuchsian relation, so that
    the check covers every admissible parameter set.
    """
    if family is HeunFamily.GENERAL:
        a, b, g, d = (var(n) for n in ("alpha", "beta", "gamma", "delta"))
        spec = HeunSpec.of(family, alpha=a, beta=b, gamma=g, delta=d,
                           epsilon=fuchsian_epsilon(a, b, g, d),
                           q=var("q"), t=var("t"))
    else:
        spec = HeunSpec.symbolic(family)
    return CaseRecord(passed=ode_equal(build_heun_derivative(spec),
                                       derivative_equation(build_heun(spec))))


# ---------------------------------------------------------------------------
# Degenerations of the general derivative equation
# ---------------------------------------------------------------------------


class DegenerationCase(Enum):
    Q_ZERO = "q=0"
    Q_AB = "q=ab"
    Q_ABT = "q=abt"
    AB_ZERO = "ab=0"


@dataclass(frozen=True)
class DegenerationResult:
    """Outcome of cancelling the extra singularity of the derivative equation."""

    ode: LinearODE2
    singular_set_certified: bool
    shifted: HeunSpec | None  # populated when the result matches the 4-point template


def _case_condition(spec: HeunSpec, case: DegenerationCase) -> RationalExpr:
    ab = spec.alphabeta()
    if case is DegenerationCase.Q_ZERO:
        return spec.q
    if case is DegenerationCase.Q_AB:
        return spec.q - ab
    if case is DegenerationCase.Q_ABT:
        return spec.q - ab * spec.t
    return ab


def degeneration_case(spec: HeunSpec, case: DegenerationCase) -> DegenerationResult:
    """Derivative equation after the extra singularity cancels.

    Checks the case condition on the spec, builds the derivative equation
    (the cancellation of the a*b*z - q factor happens in exact arithmetic),
    certifies that the surviving singular set is {0, 1, t, infinity}, and
    attempts to read the result back as a 4-point equation of the original
    family shape.  When the cancelled equation carries a double pole at the
    merged point it no longer fits that shape and ``shifted`` stays None.
    """
    if spec.family is not HeunFamily.GENERAL:
        raise ValueError("degeneration cases are defined for the general family")
    cond = _case_condition(spec, case)
    if not cond.is_zero():
        raise CaseMismatch(f"condition {case.value} fails for these parameters")
    ode = build_heun_derivative(spec)
    certified = _certify_singular_set(ode, spec.t)
    shifted = _match_general_template(ode, spec.t)
    return DegenerationResult(ode, certified, shifted)


def _strip_factors(poly, factors) -> object:
    done = False
    while not done:
        done = True
        for f in factors:
            quo = exact_div(poly, f)
            if quo is not None:
                poly = quo
                done = False
    return poly


def _certify_singular_set(ode: LinearODE2, t: RationalExpr) -> bool:
    """Exact certificate that the finite poles lie in {0, 1, t} and infinity is singular."""
    z = var("z")
    factors = [(z).num, (z - 1).num, (z - t).num]
    seen_any = False
    for coeff in (ode.p1, ode.p2):
        den = coeff.den
        rest = _strip_factors(den, factors)
        if rest.degree_in("z") != 0:
            return False
        if den.degree_in("z") > 0:
            seen_any = True
    if not seen_any:
        return False
    # Each of 0, 1, t must actually occur as a pole of some coefficient.
    for f in factors:
        if all(exact_div(coeff.den, f) is None for coeff in (ode.p1, ode.p2)):
            return False
    return infinity_kind(ode) is not None


def _match_general_template(ode: LinearODE2, t: RationalExpr) -> HeunSpec | None:
    """Read a 4-singular-point equation back as a general-family spec.

    Requires p1 = g/z + d/(z-1) + e/(z-t) and p2 = (A z - B)/(z(z-1)(z-t));
    the alpha/beta split then comes from the Fuchsian sum relation and the
    product A, which only succeeds when the discriminant is a perfect square.
    """
    z = var("z")
    g = _residue_at(ode.p1, const(0))
    d = _residue_at(ode.p1, const(1))
    e = _residue_at(ode.p1, t)
    if g is None or d is None or e is None:
        return None
    rebuilt = g / z + d / (z - 1) + e / (z - t)
    if not identity_test(ode.p1, rebuilt):
        return None
    num = ode.p2 * z * (z - 1) * (z - t)
    if not num.is_polynomial() or num.degree_in("z") > 1:
        return None
    A = num.derivative("z")
    B = -(num - A * var("z"))
    if A.degree_in("z") or B.degree_in("z"):
        return None
    s = g + d + e - 1  # alpha + beta under the Fuchsian relation
    disc = (s * s - 4 * A)
    if not disc.is_polynomial():
        return None
    root = poly_sqrt(disc.num)
    if root is None:
        return None
    root_expr = RationalExpr(root)
    alpha = (s + root_expr) / 2
    beta = (s - root_expr) / 2
    return HeunSpec.of(
        HeunFamily.GENERAL, gamma=g, delta=d, epsilon=e,
        alpha=alpha, beta=beta, q=B, t=t)


def _residue_at(expr: RationalExpr, point: RationalExpr) -> RationalExpr | None:
    """Residue of a simple pole at z = point, None if the pole is not simple."""
    z = var("z")
    prod = expr * (z - point)
    try:
        return substitute(prod, {"z": point})
    except DegenerateSubstitution:
        return None
