"""The five reductions of Heun derivative equations to Painleve linear data.

Each :class:`MatchingCase` packages one reduction: which Heun family feeds
which Painleve kind, the parameter dictionary, the gauge transform (only the
fifth kind uses one), the deformation-variable constraint eliminating mu, the
first-order equation lambda then satisfies, and the parameter condition under
which that first-order reduction is consistent with the full flow.

Three verifiers certify the claims exactly:

* :func:`verify_matching` pushes the Heun derivative equation through the
  gauge and parameter map and compares it coefficient by coefficient with
  the Painleve linear equation under the mu constraint;
* :func:`verify_riccati` substitutes the constraint into the flow and checks
  both the first-order equation and the exact factorisation of the
  consistency defect through the stated condition;
* :func:`verify_obstruction` substitutes the classical-solution condition
  into the parameter map and checks that the accessory data collapses
  (alpha, or alpha*beta, and q vanish), which is why classical deformations
  cannot be reached from Heun derivative equations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    RationalExpr,
    const,
    exact_div,
    find_witness,
    identity_test,
    poly_gcd,
    substitute,
    var,
)
from .heun import HeunFamily, HeunSpec, build_heun_derivative, fuchsian_holds
from .ode import GaugeSpec, Mobius, coefficient_diff, gauge_mobius_transform
from .painleve import (
    PainleveKind,
    PainleveLinearSpec,
    build_painleve_linear,
    hamiltonian,
    kappa_constant,
)
from .report import CaseRecord


class UnknownCase(Exception):
    """No reduction is defined for the requested kind."""


@dataclass(frozen=True)
class MatchingCase:
    """One reduction from a Heun derivative equation to Painleve linear data."""

    heun_family: HeunFamily
    painleve_kind: PainleveKind
    sign_branch: int
    param_map: dict[str, RationalExpr]
    gauge: GaugeSpec | None
    mu_constraint: RationalExpr
    riccati_rhs: RationalExpr
    condition: RationalExpr
    obstruction: tuple[tuple[str, RationalExpr], ...]
    classical_branches: tuple[dict[str, RationalExpr], ...]
    riccati_claim: RationalExpr | None = None


def matching_case(kind: PainleveKind, branch: int = 1) -> MatchingCase:
    """The literal reduction data for one kind and square-root branch."""
    if branch not in (1, -1):
        raise UnknownCase(f"branch must be +1 or -1, got {branch}")
    s = const(branch)
    lam, t = var("lambda"), var("t")
    if kind is PainleveKind.P6:
        k0, k1, th, kinf = (var(n) for n in ("kappa0", "kappa1", "theta", "kappainf"))
        K = k0 + k1 + th
        ab = K + kappa_constant(kind)
        beta = (s * kinf - 1 - K) / 2
        alpha = (-s * kinf - 1 - K) / 2
        mu_c = k0 / lam + k1 / (lam - 1) + th / (lam - t)
        rhs = ((1 + K) * lam ** 2 - (1 + k0 + th + (k0 + k1) * t) * lam + k0 * t) / (t * (t - 1))
        claim = (k0 * t - (1 + k0 + (k0 + k1) * t + th) * lam
                 + (1 + k0 + k1 + th) * lam ** 2) / (t * (t - 1))
        return MatchingCase(
            heun_family=HeunFamily.GENERAL,
            painleve_kind=kind,
            sign_branch=branch,
            param_map={
                "gamma": -k0, "delta": -k1, "epsilon": -th,
                "alpha": alpha, "beta": beta, "q": ab * lam, "t": t,
            },
            gauge=None,
            mu_constraint=mu_c,
            riccati_rhs=rhs,
            riccati_claim=claim,
            condition=ab,
            obstruction=(("alpha*beta", ab), ("q", ab * lam)),
            classical_branches=(
                {"kappa0": kinf - th - k1 - 1},
                {"kappa0": -kinf - th - k1 - 1},
            ),
        )
    if kind is PainleveKind.P5:
        k0, th, kinf, eta = (var(n) for n in ("kappa0", "theta", "kappainf", "eta"))
        sigma = -(k0 + s * kinf + th) / 2
        alpha = t * eta * (2 + k0 + s * kinf + th) / 2
        # The square-root sign in the mu constraint is anti-correlated with
        # the one in sigma: only that pairing makes the equations match.
        mu_c = k0 / lam - t * eta / (lam - 1) ** 2 + (th - k0 - s * kinf) / (2 * (lam - 1))
        rhs = (-s * kinf * lam ** 2 - (k0 + t * eta - s * kinf) * lam + k0) / t
        # Printed first-order display (a factor of lambda is dropped in the
        # middle term); kept as a claim so the defect itself is on record.
        claim = (-s * kinf * lam ** 2 + (s * kinf - k0 - t * eta) + k0) / t
        gauge = GaugeSpec(
            mobius=Mobius.of(1, 0, 1, -1),           # z -> z/(z-1)
            phi=1 - var("z") / (var("z") - 1),        # simplifies to -1/(z-1)
            sigma=sigma,
        )
        return MatchingCase(
            heun_family=HeunFamily.CONFLUENT,
            painleve_kind=kind,
            sign_branch=branch,
            param_map={
                "gamma": -k0, "delta": k0 + th + 2 * sigma, "epsilon": -t * eta,
                "alpha": alpha, "q": alpha * lam / (lam - 1),
            },
            gauge=gauge,
            mu_constraint=mu_c,
            riccati_rhs=rhs,
            riccati_claim=claim,
            condition=eta * (2 + k0 + s * kinf + th),
            obstruction=(("alpha", alpha), ("q", alpha * lam / (lam - 1))),
            classical_branches=(
                {"eta": const(0)},
                {"kappainf": -s * (2 + k0 + th)},
            ),
        )
    if kind is PainleveKind.P4:
        k0, thinf = var("kappa0"), var("thetainf")
        alpha = (thinf + 1) / 2
        mu_c = t + k0 / lam + lam / 2
        return MatchingCase(
            heun_family=HeunFamily.BI_CONFLUENT,
            painleve_kind=kind,
            sign_branch=branch,
            param_map={
                "gamma": -k0, "delta": -t, "epsilon": const(-1, 2),
                "alpha": alpha, "q": alpha * lam,
            },
            gauge=None,
            mu_constraint=mu_c,
            riccati_rhs=lam ** 2 + 2 * t * lam + 2 * k0,
            condition=thinf + 1,
            obstruction=(("alpha", alpha), ("q", alpha * lam)),
            classical_branches=({"thetainf": const(-1)},),
        )
    if kind is PainleveKind.P3P:
        e0, einf, t0, tinf = (var(n) for n in ("eta0", "etainf", "theta0", "thetainf"))
        alpha = einf * (t0 + tinf + 2) / 2
        mu_c = einf - t * e0 / lam ** 2 + (t0 + 1) / lam
        return MatchingCase(
            heun_family=HeunFamily.DOUBLE_CONFLUENT,
            painleve_kind=kind,
            sign_branch=branch,
            param_map={
                "gamma": t * e0, "delta": -1 - t0, "epsilon": -einf,
                "alpha": alpha, "q": alpha * lam,
            },
            gauge=None,
            mu_constraint=mu_c,
            riccati_rhs=(einf * lam ** 2 + (t0 + 2) * lam - t * e0) / t,
            condition=einf * (t0 + tinf + 2),
            obstruction=(("alpha", alpha), ("q", alpha * lam)),
            classical_branches=(
                {"etainf": const(0)},
                {"thetainf": -t0 - 2},
            ),
        )
    if kind is PainleveKind.P2:
        a2 = var("alpha2")
        alpha = 1 - 2 * a2
        mu_c = 2 * lam ** 2 + t
        return MatchingCase(
            heun_family=HeunFamily.TRI_CONFLUENT,
            painleve_kind=kind,
            sign_branch=branch,
            param_map={
                "gamma": -t, "delta": const(0), "epsilon": const(-2),
                "alpha": alpha, "q": alpha * lam,
            },
            gauge=None,
            mu_constraint=mu_c,
            riccati_rhs=lam ** 2 + t / 2,
            condition=2 * a2 - 1,
            obstruction=(("alpha", alpha), ("q", alpha * lam)),
            classical_branches=({"alpha2": const(1, 2)},),
        )
    raise UnknownCase(f"no matching case for {kind}")


def sign_branches(kind: PainleveKind) -> tuple[int, ...]:
    """Both square-root signs where the reduction involves one, else +1 only."""
    return (1, -1) if kind in (PainleveKind.P6, PainleveKind.P5) else (1,)


def verify_matching(case: MatchingCase, *, h2_literal: bool = False) -> CaseRecord:
    """Exact coefficient equality of the mapped Heun side and Painleve side.

    The Heun side is the derivative equation built at the mapped parameters,
    then gauge-transformed.
    """
    spec = HeunSpec.from_params(case.heun_family, case.param_map)
    mapped = build_heun_derivative(spec, enforce_fuchsian=False)
    if case.gauge is not None:
        mapped = gauge_mobius_transform(mapped, case.gauge)
    pspec = PainleveLinearSpec.of(case.painleve_kind, mu=case.mu_constraint)
    pode = build_painleve_linear(pspec, h2_literal=h2_literal)
    diff = coefficient_diff(mapped, pode)
    passed = diff["p1"].is_zero() and diff["p2"].is_zero()
    details: dict = {"branch": case.sign_branch}
    if case.heun_family is HeunFamily.GENERAL:
        details["fuchsian_relation_holds"] = fuchsian_holds(spec)
    witness = None
    if not passed:
        bad = "p1" if not diff["p1"].is_zero() else "p2"
        witness = {"coefficient": bad, **(find_witness(diff[bad], seed=29) or {})}
    return CaseRecord(passed=passed, witness=witness, details=details)


def verify_riccati(case: MatchingCase) -> CaseRecord:
    """First-order reduction: substitution identity plus consistency defect.

    (a) Substituting the mu constraint into dH/dmu must reproduce the stated
        first-order right-hand side identically.
    (b) Differentiating the constraint along the flow and comparing with
        -dH/dlam leaves a defect that must be a nonzero multiple of the
        stated parameter condition and of nothing smaller: its numerator is
        exactly divisible by the condition and the cofactor shares no
        further factor with it.
    """
    ham = hamiltonian(case.painleve_kind)
    mu_c = case.mu_constraint
    lam_dot = substitute(ham.dH_dmu, {"mu": mu_c})
    sub_identity = identity_test(lam_dot, case.riccati_rhs)
    claim_matches = None
    if case.riccati_claim is not None:
        claim_matches = identity_test(lam_dot, case.riccati_claim)
    mu_dot_constraint = mu_c.derivative("lambda") * lam_dot + mu_c.derivative("t")
    mu_dot_flow = -substitute(ham.dH_dlam, {"mu": mu_c})
    defect = mu_dot_constraint - mu_dot_flow
    cond_num = case.condition.num
    quotient = None if defect.is_zero() else exact_div(defect.num, cond_num)
    divisible = quotient is not None
    minimal = divisible and poly_gcd(quotient, cond_num).is_const()
    passed = sub_identity and (not defect.is_zero()) and divisible and minimal
    details = {
        "branch": case.sign_branch,
        "substitution_identity": sub_identity,
        "defect_nonzero": not defect.is_zero(),
        "defect_divisible_by_condition": divisible,
        "cofactor_coprime_to_condition": minimal,
    }
    if claim_matches is not None:
        details["printed_display_matches_flow"] = claim_matches
    witness = None if passed else find_witness(defect, seed=31)
    return CaseRecord(passed=passed, witness=witness, details=details)


def verify_obstruction(case: MatchingCase) -> CaseRecord:
    """Classical-solution condition forces the accessory data to collapse."""
    details: dict = {"branch": case.sign_branch}
    passed = True
    for i, bindings in enumerate(case.classical_branches):
        tag = ", ".join(f"{k} -> {v}" for k, v in bindings.items())
        all_vanish = True
        for name, expr in case.obstruction:
            vanished = substitute(expr, bindings).is_zero()
            all_vanish = all_vanish and vanished
        details[f"branch {i} ({tag})"] = all_vanish
        passed = passed and all_vanish
    return CaseRecord(passed=passed, details=details)
