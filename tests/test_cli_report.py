"""Tests for the command-line runner and the report format."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from heunlab import __version__
from heunlab.cli import main, parse_params_text
from heunlab.report import CaseRecord, Report


#: Reports of ``verify`` saved byte for byte; a change to the records, their
#: order or their formatting shows up as a difference from these files.
GOLDEN = Path(__file__).parent / "golden"


def golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


GENERAL_PARAMS = "alpha = 2\nbeta = 1\ngamma = 1\ndelta = 1\nepsilon = 2\nq = 1\nt = 2\n"
HEUN_RUN = ["integrate", "--system", "heun", "--family", "general",
            "--path", "0.25-0.5j -> 0.25+0.5j", "--init", "1,0"]
# Starts on the singular point z = 0, which only --min-distance keeps it from.
HEUN_FROM_POLE = ["integrate", "--system", "heun", "--family", "general",
                  "--path", "0 -> 0.5j", "--init", "1,0"]


@pytest.fixture()
def general_params(tmp_path):
    p = tmp_path / "general.params"
    p.write_text(GENERAL_PARAMS)
    return str(p)


class TestParamsFile:
    def test_rationals_and_comments(self):
        out = parse_params_text("# comment\nalpha = -1/2\n\nq = 3\n")
        assert out["alpha"] == -0.5
        assert out["q"] == 3

    def test_decimals_rejected_for_exact_commands(self):
        with pytest.raises(ValueError):
            parse_params_text("alpha = 0.5\n")

    def test_decimals_allowed_for_numeric_commands(self):
        out = parse_params_text("alpha = 0.51\n", allow_decimal=True)
        assert out["alpha"].numerator == 51 and out["alpha"].denominator == 100

    def test_malformed_line(self):
        with pytest.raises(ValueError):
            parse_params_text("alpha 3\n")


class TestVerifyCommand:
    def test_all_suite_record_inventory(self, capsys):
        rc = main(["verify", "--suite", "all", "--format", "json"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out == golden("verify_all.json")
        data = json.loads(out)
        cases = [r["case"] for r in data["records"]]
        assert len(cases) == 26
        assert sum(c.startswith("matching/") for c in cases) == 5
        assert sum(c.startswith("riccati/") for c in cases) == 5
        assert sum(c.startswith("obstruction/") for c in cases) == 5
        assert sum(c.startswith("derivative/") for c in cases) == 5
        assert sum(c.startswith("elimination/") for c in cases) == 6
        assert "elimination/p3-substitution" in cases
        assert data["all_pass"] is True
        assert all(r["verdict"] == "pass" for r in data["records"])

    @pytest.mark.parametrize("name, argv", [
        ("matching_p2_h2_literal.json",
         ["--suite", "matching", "--case", "matching/p2", "--paper-literal-h2"]),
        ("elimination_p2_h2_literal.json",
         ["--suite", "elimination", "--case", "elimination/p2", "--paper-literal-h2"]),
        ("elimination_p5_p5_literal.json",
         ["--suite", "elimination", "--case", "elimination/p5", "--paper-literal-p5"]),
        ("matching_p3prime_slip.json",
         ["--suite", "matching", "--case", "matching/p3prime", "--family-slip-check"]),
    ])
    def test_predicted_failure_report_matches_golden(self, capsys, name, argv):
        rc = main(["verify", *argv, "--format", "json"])
        assert rc == 0
        assert capsys.readouterr().out == golden(name)

    @pytest.mark.parametrize("name, argv", [
        ("verify_numeric.json", ["--suite", "numeric", "--format", "json"]),
        ("verify_numeric_h2_literal.txt", ["--suite", "numeric", "--paper-literal-h2"]),
    ])
    def test_numeric_report_matches_golden(self, capsys, name, argv):
        # The JSON prints every residual at full precision, so this pins the
        # integrator and the residual meters to the last bit.
        rc = main(["verify", *argv])
        assert rc == 0
        assert capsys.readouterr().out == golden(name)

    def test_exit_status_pure_function_of_verdicts(self, capsys):
        rc = main(["verify", "--suite", "obstruction", "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert (rc == 0) == all(
            r["verdict"] in ("pass", "fail-as-predicted")
            for r in data["records"])

    def test_paper_literal_h2_fails_as_predicted(self, capsys):
        rc = main(["verify", "--suite", "elimination", "--paper-literal-h2",
                   "--format", "json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        p2 = next(r for r in data["records"] if r["case"].startswith("elimination/p2 "))
        assert p2["verdict"] == "fail-as-predicted"
        assert p2["witness"] is not None

    def test_case_filter(self, capsys):
        rc = main(["verify", "--suite", "matching", "--case", "p4",
                   "--format", "json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert [r["case"] for r in data["records"]] == ["matching/p4"]

    @pytest.mark.parametrize("argv, expected", [
        (["--suite", "numeric", "--case", "perturbed"],
         ["numeric/riccati-p2-perturbed"]),
        (["--suite", "matching", "--case", "slip", "--family-slip-check"],
         ["matching/p3prime [bi-confluent slip]"]),
        (["--suite", "matching", "--case", "h2-literal", "--paper-literal-h2"],
         ["matching/p2 [h2-literal]"]),
        (["--suite", "riccati", "--case", "no-such-claim"], None),
    ])
    def test_case_filter_matches_emitted_ids(self, capsys, argv, expected):
        """``--case`` selects by the id a record carries; an empty selection is
        a usage error, not an empty passing report."""
        if expected is None:
            with pytest.raises(SystemExit) as info:
                main(["verify", *argv, "--format", "json"])
            assert info.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            return
        rc = main(["verify", *argv, "--format", "json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert [r["case"] for r in data["records"]] == expected

    def test_branch_filter(self, capsys):
        rc = main(["verify", "--suite", "riccati", "--case", "p6",
                   "--branch", "-", "--format", "json"])
        assert rc == 0
        capsys.readouterr()
        # Kinds without a minus branch verify nothing there, so they are left
        # out instead of being reported as passing.
        rc = main(["verify", "--suite", "riccati", "--branch", "-", "--format", "json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert [r["case"] for r in data["records"]] == ["riccati/p5", "riccati/p6"]

    def test_reports_reproducible_for_same_seed(self, capsys):
        main(["verify", "--suite", "obstruction", "--format", "json"])
        first = capsys.readouterr().out
        main(["verify", "--suite", "obstruction", "--format", "json"])
        second = capsys.readouterr().out
        assert first == second

    def test_family_slip_check_record(self, capsys):
        rc = main(["verify", "--suite", "matching", "--case", "p3prime",
                   "--family-slip-check", "--format", "json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        slip = [r for r in data["records"] if "slip" in r["case"]]
        assert len(slip) == 1 and slip[0]["verdict"] == "fail-as-predicted"

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--suite", "bogus"])
        assert info.value.code == 2


class TestOtherCommands:
    def test_derive_text(self, capsys, general_params):
        rc = main(["derive", "--family", "general", "--params", general_params])
        assert rc == 0
        out = capsys.readouterr().out
        assert "p1 =" in out and "p2 =" in out

    def test_derive_json_to_file(self, capsys, tmp_path, general_params):
        assert main(["derive", "--family", "general", "--params", general_params]) == 0
        text = capsys.readouterr().out.splitlines()
        out = tmp_path / "derive.json"
        assert main(["derive", "--family", "general", "--params", general_params,
                     "--format", "json", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["family"] == "general" and data["equation"] == "derivative"
        assert text[1:] == [f"p1 = {data['p1']}", f"p2 = {data['p2']}"]

    def test_derive_fills_fuchsian_epsilon(self, capsys, tmp_path, general_params):
        # Without epsilon, the general family takes the Fuchsian value
        # alpha + beta + 1 - gamma - delta, which is 2 in GENERAL_PARAMS.
        p = tmp_path / "no-epsilon.params"
        p.write_text(GENERAL_PARAMS.replace("epsilon = 2\n", ""))
        assert main(["derive", "--family", "general", "--params", str(p)]) == 0
        filled = capsys.readouterr().out
        assert main(["derive", "--family", "general", "--params", general_params]) == 0
        assert filled == capsys.readouterr().out

    def test_derive_missing_param(self, tmp_path):
        p = tmp_path / "broken.params"
        p.write_text("alpha = 2\n")
        with pytest.raises(SystemExit) as info:
            main(["derive", "--family", "general", "--params", str(p)])
        assert info.value.code == 2

    def test_singularities(self, capsys, general_params):
        rc = main(["singularities", "--family", "general", "--params",
                   general_params, "--derivative"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1/2" in out and "inf" in out

    @pytest.mark.parametrize("kind, params, expected", [
        ("p2", "alpha2 = 1/2\n", ["3  [regular]", "inf  [irregular]"]),
        ("p3prime", "eta0 = 1/3\netainf = 1/5\ntheta0 = 1/7\nthetainf = 1/2\n",
         ["0  [irregular]", "3  [regular]", "inf  [irregular]"]),
        ("p4", "kappa0 = 1/3\nthetainf = 1/2\n",
         ["0  [regular]", "3  [regular]", "inf  [irregular]"]),
        ("p5", "kappa0 = 1/3\ntheta = 1/7\nkappainf = 1/2\neta = 1/5\n",
         ["0  [regular]", "1  [irregular]", "3  [regular]", "inf  [regular]"]),
        ("p6", "kappa0 = 1/3\nkappa1 = 1/5\ntheta = 1/7\nkappainf = 1/2\n",
         ["0  [regular]", "1  [regular]", "2  [regular]", "3  [regular]",
          "inf  [regular]"]),
    ])
    def test_singularities_kind(self, capsys, tmp_path, kind, params, expected):
        p = tmp_path / "state.params"
        p.write_text(params + "lambda = 3\nmu = 2\nt = 2\n")
        assert main(["singularities", "--kind", kind, "--params", str(p)]) == 0
        assert capsys.readouterr().out.splitlines() == expected

    def test_integrate_csv(self, capsys, general_params):
        rc = main(["integrate", "--system", "heun", "--family", "general",
                   "--params", general_params,
                   "--path", "0.25-0.5j -> 0.25+0.5j", "--init", "1,0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("s,re_x,im_x")

    def test_integrate_degenerate_constant_solution(self, capsys, tmp_path):
        # ab = 0 and q = 0: u = 1 solves the equation, so the integrator
        # makes exact steps all the way.
        p = tmp_path / "ab0.params"
        p.write_text("alpha = 0\nbeta = 1\ngamma = 1\ndelta = 1\nepsilon = 0\n"
                     "q = 0\nt = 2\n")
        rc = main(["integrate", "--system", "heun", "--family", "general",
                   "--params", str(p),
                   "--path", "0.25-0.5j -> 0.25+0.5j", "--init", "1,0"])
        assert rc == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows[-1].split(",")[:3] == ["1.0", "0.25", "0.5"]
        assert all(row.split(",")[3:] == ["1.0", "0.0", "0.0", "0.0"] for row in rows)

    def test_integrate_riccati_json(self, capsys, tmp_path):
        p = tmp_path / "p2.params"
        p.write_text("alpha2 = 1/2\n")
        rc = main(["integrate", "--system", "riccati", "--kind", "p2",
                   "--params", str(p), "--t-range", "0:1",
                   "--lambda0", "0", "--format", "json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["pole_truncated"] is False


class TestIntegrateCsvPinned:
    """The CSV of one small ``integrate`` run per system, pinned by its sha256.

    Any change to a sample, to the steps taken or to the number format shows
    as a different digest.
    """

    @pytest.mark.parametrize("params, argv, digest", [
        (GENERAL_PARAMS, HEUN_RUN,
         "328c047c33dc3b7f1386ce7e932da919775d3afb256af1b196b7c4879482be91"),
        ("alpha2 = 1/2\n", ["integrate", "--system", "riccati", "--kind", "p2",
                            "--t-range", "0:1", "--lambda0", "0"],
         "939adfc5915a6a62681d33078c24d7b2295b571de0c456dc7ec913071a9025cf"),
        ("kappa0 = 1/3\nkappa1 = 1/5\ntheta = 1/7\nkappainf = 1/2\n",
         ["integrate", "--system", "hamiltonian", "--kind", "p6", "--t-range", "2:2.2",
          "--init", "0.5,0", "--max-step", "0.01"],
         "10964af12ece73f1a9f55be7b86efc1f8b0c983aec3020ca4dfbdea9db6704b7"),
    ], ids=["heun", "riccati", "hamiltonian"])
    def test_csv_digest(self, capsys, tmp_path, params, argv, digest):
        p = tmp_path / "run.params"
        p.write_text(params)
        assert main([*argv, "--params", str(p)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestExitContract:
    """Bad input ends in exit status 2 and one ``error:`` line, never a traceback."""

    @pytest.mark.parametrize("params, argv, message", [
        ("alpha = 2\nbeta = 1\ngamma = 1\ndelta = 1\nepsilon = 2\nq = 1\nt = 1\n",
         ["derive", "--family", "general"], "collides"),
        ("lambda = 1\n", ["singularities", "--kind", "p2"], "missing alpha2"),
        (GENERAL_PARAMS, ["integrate", "--system", "heun", "--family", "general"],
         "--path"),
        (GENERAL_PARAMS, ["integrate", "--system", "heun", "--family", "general",
                          "--path", "0.5 -> 1.5"], "singular point"),
        ("alpha2 = 1\n", ["integrate", "--system", "riccati", "--kind", "p2",
                          "--t-range", "0:1"], "does not vanish"),
        ("alpha2 = 2\n", ["integrate", "--system", "hamiltonian", "--kind", "p2",
                          "--t-range", "0:1", "--init", "1"], "--init"),
        ("alpha2 = 1/2\n", ["integrate", "--system", "riccati", "--kind", "p2",
                            "--t-range", "0"], "--t-range"),
        ("alpha2 = 1/2\n", ["integrate", "--system", "riccati", "--kind", "p6",
                            "--t-range", "2:3"], "missing kappa0"),
        ("alpha2 = 1/2\n", ["integrate", "--system", "hamiltonian", "--kind", "p6",
                            "--t-range", "2:3"], "missing kappa0"),
        ("kappa0 = 1/3\nkappa1 = 1/5\ntheta = 1/7\nkappainf = 1/2\nlambda = 3\nmu = 2\n",
         ["singularities", "--kind", "p6"], "parameter file is missing t"),
        (GENERAL_PARAMS, [*HEUN_RUN, "--init", "0,0", "--abs-tol", "0"], "--abs-tol"),
        (GENERAL_PARAMS, [*HEUN_RUN, "--abs-tol=-1e-12"], "--abs-tol"),
        (GENERAL_PARAMS, [*HEUN_RUN, "--abs-tol", "nan"], "--abs-tol"),
        (GENERAL_PARAMS, [*HEUN_RUN, "--rel-tol=-1e-10"], "--rel-tol"),
        (GENERAL_PARAMS, [*HEUN_RUN, "--max-step", "0"], "--max-step"),
        (GENERAL_PARAMS, [*HEUN_RUN, "--max-step", "-0.5"], "--max-step"),
        (GENERAL_PARAMS, [*HEUN_FROM_POLE, "--min-distance", "0"], "--min-distance"),
        (GENERAL_PARAMS, [*HEUN_FROM_POLE, "--min-distance=-1"], "--min-distance"),
        (GENERAL_PARAMS, [*HEUN_FROM_POLE, "--min-distance", "nan"], "--min-distance"),
        ("alpha2 = 1/2\n", ["integrate", "--system", "riccati", "--kind", "p2",
                            "--t-range", "0:1", "--lambda0", "abc"], "--lambda0"),
        (GENERAL_PARAMS, [*HEUN_RUN, "--path", "0.25-0.5j -> abc"], "--path"),
        (GENERAL_PARAMS, [*HEUN_RUN, "--path", "0.25-0.5j -> nan -> 0.25+0.5j"], "--path"),
        (GENERAL_PARAMS, [*HEUN_RUN, "--init", "nan,0"], "--init"),
        ("alpha2 = 1/2\n", ["integrate", "--system", "riccati", "--kind", "p2",
                            "--t-range", "0:nan"], "--t-range"),
        (GENERAL_PARAMS, [*HEUN_RUN, "--abs-tol", "inf", "--rel-tol", "inf"], "--abs-tol"),
        (GENERAL_PARAMS, [*HEUN_RUN, "--rel-tol", "inf"], "--rel-tol"),
    ], ids=["singular-confluence", "missing-parameter", "missing-path",
            "path-through-singular-point", "condition-not-satisfied",
            "malformed-init", "malformed-t-range", "riccati-missing-parameter",
            "hamiltonian-missing-parameter", "missing-state", "abs-tol-zero",
            "abs-tol-negative", "abs-tol-nan", "rel-tol-negative", "max-step-zero",
            "max-step-negative", "min-distance-zero", "min-distance-negative",
            "min-distance-nan", "malformed-lambda0", "malformed-waypoint",
            "nan-waypoint", "nan-init", "nan-t-range", "abs-tol-inf", "rel-tol-inf"])
    def test_input_errors_exit_2(self, capsys, tmp_path, params, argv, message):
        p = tmp_path / "case.params"
        p.write_text(params)
        with pytest.raises(SystemExit) as info:
            main([*argv, "--params", str(p)])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


class TestIntegrateReadsKindParameters:
    """``integrate`` binds the kind's parameters only, never the state keys."""

    @pytest.mark.parametrize("params, argv", [
        ("alpha2 = 1/2\n", ["--system", "riccati", "--kind", "p2",
                            "--t-range", "0:1", "--lambda0", "0.1"]),
        ("kappa0 = 1/3\nkappa1 = 1/5\ntheta = 1/7\nkappainf = 1/2\n",
         ["--system", "hamiltonian", "--kind", "p6", "--t-range", "2:2.2",
          "--init", "0.5,0", "--max-step", "0.01"]),
    ], ids=["riccati-p2", "hamiltonian-p6"])
    def test_state_keys_leave_csv_unchanged(self, capsys, tmp_path, params, argv):
        csv = []
        for extra in ("", "lambda = 3\nmu = 2\nt = 1/2\n"):
            p = tmp_path / "kind.params"
            p.write_text(params + extra)
            assert main(["integrate", *argv, "--params", str(p)]) == 0
            csv.append(capsys.readouterr().out)
        assert csv[0] == csv[1]


class TestVerifyTimings:
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_timings_option(self, capsys, fmt):
        assert main(["verify", "--case", "elimination/p2", "--timings",
                     "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            (record,) = json.loads(out)["records"]
            assert record["case"] == "elimination/p2" and record["wall_time"] > 0
        else:
            line = out.splitlines()[1]
            assert line.startswith("  [ok ] elimination/p2  pass  ") and line.endswith("s")


class TestReportRoundTrip:
    def test_text_shows_witness_of_failure_only(self):
        witness = {"point": {"z": "2"}, "difference": "1/3"}
        r = Report(suite="x", records=[
            CaseRecord(passed=False, case="a", witness=witness, wall_time=0.25),
            CaseRecord(passed=False, case="b", witness=witness, predicted_failure=True),
        ])
        assert r.to_text().splitlines() == [
            f"heunlab {__version__} - suite: x",
            "  [FAIL] a  fail",
            f"         witness: {witness}",
            "  [ok ] b  fail-as-predicted",
            "FAILURES PRESENT",
        ]
        assert r.to_text(timings=True).splitlines()[1] == "  [FAIL] a  fail  0.250s"
        assert [rec.get("wall_time", "absent") for rec in json.loads(r.to_json())["records"]] \
            == ["absent", "absent"]
        assert [rec["wall_time"] for rec in json.loads(r.to_json(timings=True))["records"]] \
            == [0.25, None]

    def test_sorted_by_case_id(self):
        r = Report(suite="x", records=[CaseRecord(passed=True, case="b"),
                                       CaseRecord(passed=True, case="a")])
        assert [x.case for x in r.sorted_records()] == ["a", "b"]

    def test_exit_status(self):
        a = CaseRecord(passed=True, case="a")
        b = CaseRecord(passed=False, predicted_failure=True, case="b")
        c = CaseRecord(passed=False, case="c")
        assert Report(suite="x", records=[a]).exit_status() == 0
        assert b.verdict == "fail-as-predicted"
        assert Report(suite="x", records=[a, b]).exit_status() == 0
        assert c.verdict == "fail"
        assert Report(suite="x", records=[a, b, c]).exit_status() == 1
