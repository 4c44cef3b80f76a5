"""The table of claims that ``verify`` checks, and the runner that checks them.

Each :class:`Claim` names one record of the report: its case id, the suite it
belongs to, the claim text, and a check that returns one record per
square-root branch it ran.  :func:`run_claims` selects entries, calls their
checks, times each call and folds its branch records into the one record the
report shows.

Printed-source variants carry the flag that turns them on; their failure is
the prediction.  A claim with ``unless`` set gives way to the variant of that
flag.  Building the table does no algebra: every check is a thunk.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

from .heun import HeunFamily, HeunSpec, verify_derivative
from .matching import (
    matching_case,
    sign_branches,
    verify_matching,
    verify_obstruction,
    verify_riccati,
)
from .numeric import (
    ComplexPath,
    IntegrationConfig,
    integrate_hamiltonian,
    integrate_riccati,
    painleve_residual,
    verify_derivative_numeric,
)
from .painleve import PainleveKind, verify_elimination, verify_p3_substitution
from .report import CaseRecord

#: The suites of ``--suite all``; ``numeric`` runs on its own.
SYMBOLIC_SUITES = ("derivative", "matching", "riccati", "obstruction", "elimination")

#: Printed-source flags of ``verify``, as attribute names of its arguments.
FLAGS = ("paper_literal_h2", "paper_literal_p5", "family_slip_check")

#: A check gets the square-root branches to run (empty for a claim without
#: branches) and a dict shared by the checks of one run.
Check = Callable[[tuple[int, ...], dict], list[CaseRecord]]


@dataclass(frozen=True)
class Claim:
    case: str
    suite: str
    claim: str
    check: Check
    branches: tuple[int, ...] = ()
    flag: str | None = None
    unless: str | None = None


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _numeric(residual: float, passed: bool) -> CaseRecord:
    return CaseRecord(passed=passed, residual=residual, mode="numeric")


DERIVATIVE_WITNESSES = {
    HeunFamily.GENERAL: (
        dict(alpha=2, beta=1, gamma=1, delta=1, epsilon=2, q=1, t=2),
        (0.25 - 0.5j, 0.25 + 0.5j)),
    HeunFamily.CONFLUENT: (
        dict(gamma=1, delta=1, epsilon=1, alpha=2, q=1), (0.25 - 0.5j, 0.25 + 0.5j)),
    HeunFamily.DOUBLE_CONFLUENT: (
        dict(gamma=1, delta=1, epsilon=1, alpha=1, q=1), (0.5 + 0.25j, 1.5 + 0.25j)),
    HeunFamily.BI_CONFLUENT: (
        dict(gamma=1, delta=1, epsilon=1, alpha=1, q=1), (0.5 + 0.25j, 1.5 + 0.25j)),
    HeunFamily.TRI_CONFLUENT: (
        dict(gamma=-1, delta=0, epsilon=-2, alpha=1, q=Fraction(1, 2)), (-1.0, 0.0)),
}


def _derivative_witness(family: HeunFamily) -> Check:
    params, waypoints = DERIVATIVE_WITNESSES[family]

    def check(branches, shared):
        residual = verify_derivative_numeric(HeunSpec.of(family, **params),
                                             ComplexPath.of(*waypoints))
        return [_numeric(residual, residual <= 1e-8)]

    return check


HAMILTONIAN_WITNESSES = {
    PainleveKind.P2: ({"alpha2": Fraction(2)}, (0.25, 0.1), (0.0, 1.0)),
    PainleveKind.P4: ({"kappa0": Fraction(1, 4), "thetainf": Fraction(2, 3)},
                      (1.0, 0.5), (0.0, 1.0)),
    PainleveKind.P3P: ({"eta0": Fraction(1), "etainf": Fraction(1),
                        "theta0": Fraction(1, 3), "thetainf": Fraction(1, 2)},
                       (1.0, 1.0), (1.0, 2.0)),
    PainleveKind.P5: ({"kappa0": Fraction(1, 3), "theta": Fraction(1, 5),
                       "kappainf": Fraction(1, 2), "eta": Fraction(1)},
                      (2.0, 1 / 3), (1.0, 1.5)),
    PainleveKind.P6: ({"kappa0": Fraction(1, 3), "kappa1": Fraction(1, 5),
                       "theta": Fraction(1, 7), "kappainf": Fraction(1, 2)},
                      (0.5, 0.0), (2.0, 2.2)),
}

HAMILTONIAN_CONFIG = IntegrationConfig(max_step=1 / 1024)


def _hamiltonian_witness(kind: PainleveKind) -> Check:
    params, init, t_range = HAMILTONIAN_WITNESSES[kind]

    def check(branches, shared):
        traj = integrate_hamiltonian(kind, params, init, t_range, HAMILTONIAN_CONFIG)
        residual = painleve_residual(kind, traj, params)
        return [_numeric(residual, residual <= 1e-6)]

    return check


def _hamiltonian_p2_literal(branches, shared):
    params = {"alpha2": Fraction(2)}
    traj = integrate_hamiltonian(PainleveKind.P2, params, (0.25, 0.1), (1.0, 2.0),
                                 HAMILTONIAN_CONFIG, h2_literal=True)
    residual = painleve_residual(PainleveKind.P2, traj, params)
    # The failure is exhibited only by a residual above the bound (not NaN).
    return [_numeric(residual, not residual > 1e-2)]


def _riccati_p2_trajectory(shared: dict):
    """The p2 first-order trajectory, integrated once per run."""
    if "riccati-p2" not in shared:
        shared["riccati-p2"] = integrate_riccati(
            matching_case(PainleveKind.P2), {"alpha2": Fraction(1, 2)}, (0.0, 1.0),
            0.0, IntegrationConfig(max_step=1 / 512))
    return shared["riccati-p2"]


def _riccati_p2(alpha2: Fraction, passed: Callable[[float], bool]) -> Check:
    def check(branches, shared):
        residual = painleve_residual(PainleveKind.P2, _riccati_p2_trajectory(shared),
                                     {"alpha2": alpha2})
        return [_numeric(residual, passed(residual))]

    return check


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------

# Checks call the verifiers through their module-level names, looked up at
# call time, so that a wrapper installed on those names after import (as the
# benchmark's tracer does) sees every call.

_ELIMINATION = ("second derivative of lambda along the Hamiltonian flow equals "
                "the nonlinear right-hand side with lambda' eliminated")

CLAIMS: tuple[Claim, ...] = (
    *(Claim(f"derivative/{family.value}", "derivative",
            "closed-form equation for the derivative of a "
            f"{family.value} solution matches the re-derived equation "
            "at fully symbolic parameters",
            lambda _b, _s, family=family: [verify_derivative(family)])
      for family in HeunFamily),

    *(Claim(f"matching/{kind.value}", "matching",
            "the mapped Heun derivative equation equals the deformation linear "
            "equation (all square-root branches)",
            lambda bs, _s, kind=kind: [verify_matching(matching_case(kind, b))
                                       for b in bs],
            sign_branches(kind),
            unless="paper_literal_h2" if kind is PainleveKind.P2 else None)
      for kind in PainleveKind),
    Claim("matching/p2 [h2-literal]", "matching",
          "with the literal printed Hamiltonian the p2 matching breaks; the "
          "failure is the prediction",
          lambda bs, _s: [verify_matching(matching_case(PainleveKind.P2, b),
                                          h2_literal=True) for b in bs],
          sign_branches(PainleveKind.P2), flag="paper_literal_h2"),
    Claim("matching/p3prime [bi-confluent slip]", "matching",
          "the p3prime reduction does not fit the bi-confluent family, "
          "confirming the double-confluent binding",
          lambda _b, _s: [verify_matching(replace(matching_case(PainleveKind.P3P),
                                                  heun_family=HeunFamily.BI_CONFLUENT))],
          flag="family_slip_check"),

    *(Claim(f"riccati/{kind.value}", "riccati",
            "substituting the deformation-variable constraint into the flow "
            "gives the stated first-order equation; the consistency defect "
            "factors exactly through the parameter condition",
            lambda bs, _s, kind=kind: [verify_riccati(matching_case(kind, b))
                                       for b in bs],
            sign_branches(kind))
      for kind in PainleveKind),

    *(Claim(f"obstruction/{kind.value}", "obstruction",
            "the classical-solution condition forces alpha (or alpha*beta) "
            "and q to vanish",
            lambda bs, _s, kind=kind: [verify_obstruction(matching_case(kind, b))
                                       for b in bs],
            sign_branches(kind))
      for kind in PainleveKind),

    *(Claim(f"elimination/{kind.value}", "elimination", _ELIMINATION,
            lambda _b, _s, kind=kind: [verify_elimination(kind)],
            unless={PainleveKind.P2: "paper_literal_h2",
                    PainleveKind.P5: "paper_literal_p5"}.get(kind))
      for kind in PainleveKind),
    Claim("elimination/p2 [h2-literal]", "elimination", _ELIMINATION,
          lambda _b, _s: [verify_elimination(PainleveKind.P2, h2_literal=True)],
          flag="paper_literal_h2"),
    Claim("elimination/p5 [p5-literal]", "elimination", _ELIMINATION,
          lambda _b, _s: [verify_elimination(PainleveKind.P5, p5_literal=True)],
          flag="paper_literal_p5"),
    Claim("elimination/p3-substitution", "elimination",
          "rescaling lambda(t) to lambda(t^2)/t carries the standard third "
          "equation to its modified form",
          lambda _b, _s: [verify_p3_substitution()]),

    *(Claim(f"numeric/derivative-{family.value}", "numeric",
            "the integrated solution's derivative satisfies the closed-form "
            "equation to relative residual 1e-8",
            _derivative_witness(family))
      for family in HeunFamily),
    Claim("numeric/riccati-p2", "numeric",
          "the first-order trajectory satisfies the full nonlinear equation to "
          "residual 1e-6",
          _riccati_p2(Fraction(1, 2), lambda r: r <= 1e-6)),
    Claim("numeric/riccati-p2-perturbed", "numeric",
          "perturbing the condition parameter by 1/100 drives the residual "
          "above 1e-4",
          _riccati_p2(Fraction(51, 100), lambda r: r > 1e-4)),
    *(Claim(f"numeric/hamiltonian-{kind.value}", "numeric",
            "the flow's position component satisfies the nonlinear equation "
            "to residual 1e-6",
            _hamiltonian_witness(kind))
      for kind in PainleveKind),
    Claim("numeric/hamiltonian-p2-literal", "numeric",
          "with the literal printed Hamiltonian the flow's position misses the "
          "nonlinear equation by more than 1e-2; the failure is the prediction",
          _hamiltonian_p2_literal, flag="paper_literal_h2"),
)


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


def _fold(records: list[CaseRecord]) -> CaseRecord:
    """One record from the branch records: it holds when every branch does."""
    if len(records) == 1:
        return records[0]
    return CaseRecord(
        passed=all(r.passed for r in records),
        witness=next((r.witness for r in records if not r.passed), None),
        details={"branches": [r.details for r in records]})


def run_claims(suite: str, *, case: str | None = None,
               branches: tuple[int, ...] = (1, -1),
               flags: frozenset[str] = frozenset()) -> list[CaseRecord]:
    """Check every selected claim and return its record.

    ``suite`` is one suite name or ``all`` (the symbolic suites); ``case``
    keeps the claims whose id contains it.  A claim with branches runs on
    those of ``branches`` it has, and is skipped when it has none of them.
    Raises ValueError when nothing is selected.
    """
    suites = SYMBOLIC_SUITES if suite == "all" else (suite,)
    shared: dict = {}
    records = []
    for claim in CLAIMS:
        chosen = tuple(b for b in claim.branches if b in branches)
        if (claim.suite not in suites
                or (case is not None and case not in claim.case)
                or (claim.branches and not chosen)
                or (claim.flag is not None and claim.flag not in flags)
                or claim.unless in flags):
            continue
        start = time.perf_counter()
        outs = claim.check(chosen, shared)
        wall_time = time.perf_counter() - start
        records.append(replace(
            _fold(outs), case=claim.case, claim=claim.claim,
            predicted_failure=claim.flag is not None, wall_time=wall_time))
    if not records:
        raise ValueError(f"no claim of suite {suite!r} matches the --case and "
                         "--branch selection")
    return records
