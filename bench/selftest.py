"""Self-test of the checker and of the metric lists.

Run as ``python3 bench/run.py --self-test``.  For each workload it runs one
real pass and checks its outputs; then, for each tamper below, it changes
outputs of a copy of that pass the way a wrong program would and checks
again: ``failed_share`` must rise and the run must stop being correct.  It
also checks that every per-layer metric of BENCHMARK.json has its layer in
baseline.json, and the other way round.  Kept out of ``test_*.py`` names so
the package's pytest run does not collect it.
"""

from __future__ import annotations

import copy
import json
import os


def _index(ops, pred):
    return next(k for k, op in enumerate(ops) if pred(op))


def _claims_verdict(ops, results):
    i = _index(ops, lambda op: op["id"] == "matching/p6")
    results[i]["out"] = results[i]["out"].replace('"verdict": "pass"', '"verdict": "fail"')
    return "matching/p6 verdict pass -> fail"


def _numeric_suite(ops, results):
    i = _index(ops, lambda op: op["id"].startswith("verify --suite numeric"))
    report = json.loads(results[i]["out"])
    rec = next(r for r in report["records"] if r["case"] == "numeric/derivative-general")
    rec["residual"] = 2e-8
    results[i]["out"] = json.dumps(report)
    return "numeric/derivative-general residual -> 2e-8 (bound 1e-8)"


def _numeric_hamiltonian(ops, results):
    for kind in ("p2", "p3prime", "p4", "p5", "p6"):
        i = _index(ops, lambda op: op["id"] == f"hamiltonian-{kind}#0")
        results[i]["residual"] = max(1000 * results[i]["residual"], 2 * ops[i]["bound"])
    return "hamiltonian-{p2,p3prime,p4,p5,p6}#0 residual x1000"


def _numeric_csv(ops, results):
    i = _index(ops, lambda op: op["id"] == "derivative-general#0")
    results[i]["csv_rows"] -= 1
    return "derivative-general#0 CSV export one row short"


def _sweep_point(ops, results):
    i = _index(ops, lambda op: "singular_set" in op)
    lines = results[i]["out"].splitlines()
    results[i]["out"] = "\n".join(lines[:-1]) + "\n"
    return f"{ops[i]['id']}: last singular point dropped"


TAMPER = {"claims-symbolic": (_claims_verdict,),
          "witnesses-numeric": (_numeric_suite, _numeric_hamiltonian, _numeric_csv),
          "sweep-exact": (_sweep_point,)}


def _metric_lists(per_layer, baseline_path) -> bool:
    with open(baseline_path, encoding="utf-8") as fh:
        layers = json.load(fh)["metrics"]
    missing = sorted(set(per_layer) - set(layers))
    extra = sorted(set(layers) - set(per_layer))
    print(f"{'metric lists':18s} per-layer metrics without a layer: {missing or 'none'}; "
          f"layers of unknown metrics: {extra or 'none'}")
    return not missing and not extra


def main(run_cls, check_pass, per_layer) -> int:
    ok = _metric_lists(per_layer, os.path.join(os.path.dirname(__file__), "baseline.json"))
    for workload, tampers in TAMPER.items():
        run = run_cls(workload, 1)
        try:
            result = run.one("timed")[2]
        finally:
            run.close()
        before = check_pass(run.ops, result)
        for tamper in tampers:
            tampered = copy.deepcopy(result)
            what = tamper(run.ops, tampered["results"])
            after = check_pass(run.ops, tampered)
            share = [sum(not c.ok for c in cs) / len(cs) for cs in (before, after)]
            caught = share[0] == 0 and share[1] > 0
            ok = ok and caught
            print(f"{workload:18s} {what}: failed_share {share[0]:.4f} -> {share[1]:.4f} "
                  f"{'caught' if caught else 'MISSED'}")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1
