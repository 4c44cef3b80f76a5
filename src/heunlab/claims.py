"""The table of claims that ``verify`` checks, and the runner that checks them.

Each :class:`Claim` names one record of the report: its case id, the claim
text, and a check that returns one record per square-root branch it ran.  The
case id is ``<suite>/<name>``: the suite a claim belongs to is read off it.
:func:`run_claims` selects entries, calls their checks, times each call and
folds its branch records into the one record the report shows.

A numeric claim is a residual and the bound it must meet; :func:`_residual`
makes its check, whose record carries the residual (and so is ``numeric``).

Printed-source variants carry the flag that turns them on; their failure is
the prediction.  A claim with ``unless`` set gives way to the variant of that
flag.  Building the table does no algebra: every check is a thunk.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Callable, NamedTuple

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
SYMBOLIC_SUITES = ("matching", "riccati", "obstruction", "elimination", "derivative")

#: Printed-source flags of ``verify``, as attribute names of its arguments.
FLAGS = ("paper_literal_h2", "paper_literal_p5", "family_slip_check")

#: A check gets the square-root branches to run (empty for a claim without
#: branches) and a dict shared by the checks of one run.
Check = Callable[[tuple[int, ...], dict], list[CaseRecord]]


class Claim(NamedTuple):
    case: str
    claim: str
    check: Check
    branches: tuple[int, ...] = ()
    flag: str | None = None
    unless: str | None = None


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _residual(measure: Callable[[dict], float],
              passed: Callable[[float], bool]) -> Check:
    """The check of a numeric claim: ``measure`` takes the run's shared dict
    and returns the residual, and ``passed`` says whether it meets the claim."""

    def check(branches, shared):
        residual = measure(shared)
        return [CaseRecord(passed=passed(residual), residual=residual)]

    return check


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


def _derivative_residual(family: HeunFamily) -> float:
    params, waypoints = DERIVATIVE_WITNESSES[family]
    return verify_derivative_numeric(HeunSpec.of(family, **params),
                                     ComplexPath.of(*waypoints))


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

#: The flow of the literal printed p2 Hamiltonian, in the same layout.
H2_LITERAL_WITNESS = ({"alpha2": Fraction(2)}, (0.25, 0.1), (1.0, 2.0))

HAMILTONIAN_CONFIG = IntegrationConfig(max_step=1 / 1024)


def _hamiltonian_residual(kind: PainleveKind, params: dict, init: tuple, t_range: tuple,
                          h2_literal: bool = False) -> float:
    traj = integrate_hamiltonian(kind, params, init, t_range, HAMILTONIAN_CONFIG,
                                 h2_literal=h2_literal)
    return painleve_residual(kind, traj, params)


def _riccati_p2_residual(shared: dict, alpha2: Fraction) -> float:
    """The residual at ``alpha2`` of the p2 first-order trajectory, which is
    integrated once per run."""
    if "riccati-p2" not in shared:
        shared["riccati-p2"] = integrate_riccati(
            matching_case(PainleveKind.P2), {"alpha2": Fraction(1, 2)}, (0.0, 1.0),
            0.0, IntegrationConfig(max_step=1 / 512))
    return painleve_residual(PainleveKind.P2, shared["riccati-p2"], {"alpha2": alpha2})


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------

# Checks call the verifiers through their module-level names, looked up at
# call time, so that a wrapper installed on those names after import (as the
# benchmark's tracer does) sees every call.

_ELIMINATION = ("second derivative of lambda along the Hamiltonian flow equals "
                "the nonlinear right-hand side with lambda' eliminated")

CLAIMS: tuple[Claim, ...] = (
    *(Claim(f"derivative/{family.value}",
            "closed-form equation for the derivative of a "
            f"{family.value} solution matches the re-derived equation "
            "at fully symbolic parameters",
            lambda _b, _s, family=family: [verify_derivative(family)])
      for family in HeunFamily),

    *(Claim(f"matching/{kind.value}",
            "the mapped Heun derivative equation equals the deformation linear "
            "equation (all square-root branches)",
            lambda bs, _s, kind=kind: [verify_matching(matching_case(kind, b))
                                       for b in bs],
            sign_branches(kind),
            unless="paper_literal_h2" if kind is PainleveKind.P2 else None)
      for kind in PainleveKind),
    Claim("matching/p2 [h2-literal]",
          "with the literal printed Hamiltonian the p2 matching breaks; the "
          "failure is the prediction",
          lambda bs, _s: [verify_matching(matching_case(PainleveKind.P2, b),
                                          h2_literal=True) for b in bs],
          sign_branches(PainleveKind.P2), flag="paper_literal_h2"),
    Claim("matching/p3prime [bi-confluent slip]",
          "the p3prime reduction does not fit the bi-confluent family, "
          "confirming the double-confluent binding",
          lambda _b, _s: [verify_matching(matching_case(PainleveKind.P3P)._replace(
              heun_family=HeunFamily.BI_CONFLUENT))],
          flag="family_slip_check"),

    *(Claim(f"riccati/{kind.value}",
            "substituting the deformation-variable constraint into the flow "
            "gives the stated first-order equation; the consistency defect "
            "factors exactly through the parameter condition",
            lambda bs, _s, kind=kind: [verify_riccati(matching_case(kind, b))
                                       for b in bs],
            sign_branches(kind))
      for kind in PainleveKind),

    *(Claim(f"obstruction/{kind.value}",
            "the classical-solution condition forces alpha (or alpha*beta) "
            "and q to vanish",
            lambda bs, _s, kind=kind: [verify_obstruction(matching_case(kind, b))
                                       for b in bs],
            sign_branches(kind))
      for kind in PainleveKind),

    *(Claim(f"elimination/{kind.value}", _ELIMINATION,
            lambda _b, _s, kind=kind: [verify_elimination(kind)],
            unless={PainleveKind.P2: "paper_literal_h2",
                    PainleveKind.P5: "paper_literal_p5"}.get(kind))
      for kind in PainleveKind),
    Claim("elimination/p2 [h2-literal]", _ELIMINATION,
          lambda _b, _s: [verify_elimination(PainleveKind.P2, h2_literal=True)],
          flag="paper_literal_h2"),
    Claim("elimination/p5 [p5-literal]", _ELIMINATION,
          lambda _b, _s: [verify_elimination(PainleveKind.P5, p5_literal=True)],
          flag="paper_literal_p5"),
    Claim("elimination/p3-substitution",
          "rescaling lambda(t) to lambda(t^2)/t carries the standard third "
          "equation to its modified form",
          lambda _b, _s: [verify_p3_substitution()]),

    *(Claim(f"numeric/derivative-{family.value}",
            "the integrated solution's derivative satisfies the closed-form "
            "equation to relative residual 1e-8",
            _residual(lambda _s, family=family: _derivative_residual(family),
                      lambda r: r <= 1e-8))
      for family in HeunFamily),
    Claim("numeric/riccati-p2",
          "the first-order trajectory satisfies the full nonlinear equation to "
          "residual 1e-6",
          _residual(lambda s: _riccati_p2_residual(s, Fraction(1, 2)),
                    lambda r: r <= 1e-6)),
    Claim("numeric/riccati-p2-perturbed",
          "perturbing the condition parameter by 1/100 drives the residual "
          "above 1e-4",
          _residual(lambda s: _riccati_p2_residual(s, Fraction(51, 100)),
                    lambda r: r > 1e-4)),
    *(Claim(f"numeric/hamiltonian-{kind.value}",
            "the flow's position component satisfies the nonlinear equation "
            "to residual 1e-6",
            _residual(lambda _s, kind=kind: _hamiltonian_residual(
                kind, *HAMILTONIAN_WITNESSES[kind]), lambda r: r <= 1e-6))
      for kind in PainleveKind),
    Claim("numeric/hamiltonian-p2-literal",
          "with the literal printed Hamiltonian the flow's position misses the "
          "nonlinear equation by more than 1e-2; the failure is the prediction",
          # The failure is exhibited only by a residual above the bound (not NaN).
          _residual(lambda _s: _hamiltonian_residual(
              PainleveKind.P2, *H2_LITERAL_WITNESS, h2_literal=True),
              lambda r: not r > 1e-2),
          flag="paper_literal_h2"),
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
        if (claim.case.split("/")[0] not in suites
                or (case is not None and case not in claim.case)
                or (claim.branches and not chosen)
                or (claim.flag is not None and claim.flag not in flags)
                or claim.unless in flags):
            continue
        start = time.perf_counter()
        outs = claim.check(chosen, shared)
        wall_time = time.perf_counter() - start
        records.append(_fold(outs)._replace(
            case=claim.case, claim=claim.claim,
            predicted_failure=claim.flag is not None, wall_time=wall_time))
    if not records:
        raise ValueError(f"no claim of suite {suite!r} matches the --case and "
                         "--branch selection")
    return records
