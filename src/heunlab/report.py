"""Verification records and machine-readable reports.

A :class:`CaseRecord` is the outcome of one verified claim: whether it held,
the failure evidence (a witness point or coefficient difference), and for
numeric claims the measured residual.  Every verifier returns one, and a
report is a list of them, sorted by case identifier so that equal runs
produce byte-identical JSON.

A record marked ``predicted_failure`` belongs to a printed-source variant
whose *claim* is that it fails: its verdict is ``fail-as-predicted`` when the
check fails, which counts as success for the exit status.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import __version__


@dataclass(frozen=True)
class CaseRecord:
    passed: bool
    witness: dict | None = None
    residual: float | None = None
    details: dict = field(default_factory=dict)
    predicted_failure: bool = False
    mode: str = "exact"  # "exact" | "numeric"
    case: str = ""
    claim: str = ""
    wall_time: float | None = None

    @property
    def verdict(self) -> str:
        if self.predicted_failure:
            return "fail" if self.passed else "fail-as-predicted"
        return "pass" if self.passed else "fail"

    def ok(self) -> bool:
        return self.passed != self.predicted_failure


#: (passed, predicted_failure) of each verdict, for reading reports back.
_VERDICT_FIELDS = {
    "pass": (True, False),
    "fail": (False, False),
    "fail-as-predicted": (False, True),
}


@dataclass
class Report:
    suite: str
    records: list[CaseRecord] = field(default_factory=list)
    tool: str = "heunlab"
    version: str = __version__

    def add(self, record: CaseRecord) -> None:
        self.records.append(record)

    def sorted_records(self) -> list[CaseRecord]:
        return sorted(self.records, key=lambda r: r.case)

    def all_pass(self) -> bool:
        return all(r.ok() for r in self.records)

    def exit_status(self) -> int:
        return 0 if self.all_pass() else 1

    def to_json(self, *, timings: bool = False) -> str:
        records = []
        for r in self.sorted_records():
            item = {
                "case": r.case,
                "claim": r.claim,
                "mode": r.mode,
                "verdict": r.verdict,
                "witness": r.witness,
                "residual": r.residual,
            }
            if timings:
                item["wall_time"] = r.wall_time
            records.append(item)
        return json.dumps({
            "tool": self.tool,
            "version": self.version,
            "suite": self.suite,
            # Nothing is sampled at random; the key stays so that reports
            # keep their schema.
            "seed": 0,
            "all_pass": self.all_pass(),
            "records": records,
        }, indent=1)

    @staticmethod
    def from_json(text: str) -> "Report":
        data = json.loads(text)
        report = Report(suite=data["suite"], tool=data["tool"],
                        version=data["version"])
        for item in data["records"]:
            passed, predicted = _VERDICT_FIELDS[item["verdict"]]
            report.add(CaseRecord(
                passed=passed,
                predicted_failure=predicted,
                case=item["case"],
                claim=item["claim"],
                mode=item["mode"],
                witness=item.get("witness"),
                residual=item.get("residual"),
                wall_time=item.get("wall_time"),
            ))
        return report

    def to_text(self, *, timings: bool = False) -> str:
        lines = [f"{self.tool} {self.version} - suite: {self.suite}"]
        width = max((len(r.case) for r in self.records), default=4)
        for r in self.sorted_records():
            mark = "ok " if r.ok() else "FAIL"
            extra = ""
            if r.residual is not None:
                extra += f"  residual={r.residual:.3e}"
            if timings and r.wall_time is not None:
                extra += f"  {r.wall_time:.3f}s"
            lines.append(f"  [{mark}] {r.case.ljust(width)}  {r.verdict}{extra}")
            if r.witness and not r.ok():
                lines.append(f"         witness: {r.witness}")
        lines.append("all pass" if self.all_pass() else "FAILURES PRESENT")
        return "\n".join(lines) + "\n"
