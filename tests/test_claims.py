"""Tests for the claim table and the records its runner emits."""

from __future__ import annotations

from heunlab import cli
from heunlab.claims import CLAIMS, FLAGS, run_claims


def test_case_ids_start_with_a_suite():
    suites = set(cli.SUITES) - {"all"}
    for claim in CLAIMS:
        suite, sep, _ = claim.case.partition("/")
        assert sep and suite in suites, claim.case


def test_numeric_records_carry_a_residual():
    # The symbolic records (exact, no residual) are pinned by the
    # verify_all_flags.json golden.
    records = run_claims("numeric", flags=frozenset(FLAGS))
    assert records
    for r in records:
        assert r.mode == "numeric", r.case
        assert r.residual is not None, r.case
