"""The records of the package: frozen ones refuse assignment, and no two
instances share a mutable container they did not both receive."""

from __future__ import annotations

from fractions import Fraction

import pytest

from heunlab.algebra import const, var
from heunlab.claims import Claim
from heunlab.heun import DegenerationResult, HeunFamily, HeunSpec
from heunlab.matching import matching_case
from heunlab.numeric import ComplexPath, IntegrationConfig, ODETrajectory
from heunlab.ode import GaugeSpec, LinearODE2, SingularPoint
from heunlab.painleve import PainleveKind, hamiltonian
from heunlab.report import CaseRecord, Report

#: A maker of each record, by name, and whether the record is mutable.
RECORDS = {
    "Claim": (lambda: Claim("suite/case", "text", lambda branches, shared: []), False),
    "HeunSpec": (lambda: HeunSpec.of(HeunFamily.CONFLUENT, gamma=1, delta=1,
                                     epsilon=1, alpha=1, q=1), False),
    "DegenerationResult": (lambda: DegenerationResult(
        LinearODE2(const(0), const(1)), True, None), False),
    "MatchingCase": (lambda: matching_case(PainleveKind.P2), False),
    "ComplexPath": (lambda: ComplexPath.of(0, 1), False),
    "IntegrationConfig": (IntegrationConfig, False),
    "LinearODE2": (lambda: LinearODE2(const(0), const(1)), False),
    "GaugeSpec": (lambda: GaugeSpec(var("z"), var("z"), const(1)), False),
    "SingularPoint": (lambda: SingularPoint(Fraction(0), "regular"), False),
    "HamiltonianSystem": (lambda: hamiltonian(PainleveKind.P2), False),
    "CaseRecord": (lambda: CaseRecord(passed=True), False),
    "ODETrajectory": (lambda: ODETrajectory([]), True),
    "Report": (lambda: Report("all", []), True),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_semantics(name):
    make, mutable = RECORDS[name]
    first, second = make(), make()
    fields = getattr(first, "_fields", None) or type(first).__slots__
    assert not hasattr(first, "__dict__")
    with pytest.raises(AttributeError):
        first.not_a_field = None
    for field in fields:
        value = getattr(first, field)
        if not mutable:
            with pytest.raises(AttributeError):
                setattr(first, field, value)
        if isinstance(value, (dict, list)):
            assert value is not getattr(second, field), field
