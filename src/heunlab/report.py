"""Verification records and machine-readable reports.

A :class:`CaseRecord` is the outcome of one verified claim: whether it held,
the failure evidence (a witness point or coefficient difference), and for
numeric claims the measured residual.  A record's mode is read off that
residual: ``numeric`` when it has one, else ``exact``.  Every verifier returns
one, and a report is a list of them, sorted by case identifier so that equal
runs produce byte-identical JSON.

A record marked ``predicted_failure`` belongs to a printed-source variant
whose *claim* is that it fails: its verdict is ``fail-as-predicted`` when the
check fails, which counts as success for the exit status.

A :class:`Report` is output only: ``to_json`` and ``to_text`` write it,
headed by the package name and ``__version__``, and nothing reads it back.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from types import MappingProxyType
from typing import NamedTuple

from . import __version__


class CaseRecord(NamedTuple):
    passed: bool
    witness: dict | None = None
    residual: float | None = None
    #: Read-only when left out, so that no two records share a mutable dict.
    details: Mapping = MappingProxyType({})
    predicted_failure: bool = False
    case: str = ""
    claim: str = ""
    wall_time: float | None = None

    @property
    def mode(self) -> str:
        return "exact" if self.residual is None else "numeric"

    @property
    def verdict(self) -> str:
        if self.predicted_failure:
            return "fail" if self.passed else "fail-as-predicted"
        return "pass" if self.passed else "fail"

    def ok(self) -> bool:
        return self.passed != self.predicted_failure


class Report:
    __slots__ = ("suite", "records")

    def __init__(self, suite: str, records: list[CaseRecord]) -> None:
        self.suite = suite
        self.records = records

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
            "tool": "heunlab",
            "version": __version__,
            "suite": self.suite,
            # Nothing is sampled at random; the key stays so that reports
            # keep their schema.
            "seed": 0,
            "all_pass": self.all_pass(),
            "records": records,
        }, indent=1)

    def to_text(self, *, timings: bool = False) -> str:
        lines = [f"heunlab {__version__} - suite: {self.suite}"]
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
