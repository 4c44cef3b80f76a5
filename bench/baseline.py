"""Measure the baseline of the checked-out program and store it in baseline.json.

Run from the repository root:

    python3 bench/baseline.py --seeds 101-110 --unused-seed 90210

For each seed it makes one timed run (``--trace 0``, ``run_seconds`` of
BENCHMARK.json) of every workload, the
workloads interleaved so that a slow phase of the machine does not fall on
one workload only, and times a fixed pure-Python loop before each round as a
gauge of the machine's own noise.  Then it makes one traced run
(``--trace 1``) per workload at seed 1, the main seed, and one timed run per workload
at the unused seed.  The result replaces the ``measured`` key of
baseline.json; the hand-kept keys stay as they are.  It takes about
3 x (seeds + 2) x seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

BASELINE = os.path.join(HERE, "baseline.json")
MAIN_SEED = 1
LOOP_N = 3_000_000


def fixed_loop() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOP_N):
        acc += i * i
    return time.perf_counter() - t0


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / statistics.median(values),
            "min": min(values), "max": max(values)}


def outcome(info: dict) -> dict:
    return {k: info.get(k) for k in ("correct", "attempted", "failed", "failed_share", "failed_ids", "worst_residual_ratio")}


def commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, check=True,
                             capture_output=True, text=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("101-110"))
    parser.add_argument("--unused-seed", type=int, default=90210)
    args = parser.parse_args(argv)
    spec = run.load_spec()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    end_to_end, per_layer = run.units(spec, "end_to_end"), run.units(spec, "per_layer")

    loops: list[float] = []
    timed: dict[str, list[tuple[dict, dict]]] = {w: [] for w in run.workloads.WORKLOADS}
    for seed in args.seeds:
        loops.append(fixed_loop())
        for w in run.workloads.WORKLOADS:
            timed[w].append(run.timed_run(w, seed, seconds))
            print(f"seed {seed} {w}: {timed[w][-1][0]}", file=sys.stderr)

    workloads = {}
    for w, runs in timed.items():
        metrics = {k: [m[k] for m, _ in runs] for k in end_to_end}
        stats = {k: spread(v) for k, v in metrics.items()}
        traced_metrics, traced_info = run.traced_run(w, MAIN_SEED, per_layer)
        _, unused_info = run.timed_run(w, args.unused_seed, seconds)
        workloads[w] = {
            "seeds": args.seeds,
            "end_to_end": {k: {"values": metrics[k], **stats[k],
                               "within_third_of_bound":
                                   stats[k]["iqr_over_median"] < bounds[k] / 3}
                           for k in end_to_end},
            "diagnostics": {k: spread([i[k] for _, i in runs])
                            for k in ("wall_s", "gauge_s", "setup_p50_s", "cpu_s",
                                      "query_p50_ms", "query_p90_ms")},
            "outcomes": [outcome(i) for _, i in runs],
            "main_seed": {"seed": MAIN_SEED, **outcome(traced_info),
                          "untraced_wall_s": traced_info["untraced_wall_s"],
                          "traced_wall_s": traced_info["traced_wall_s"],
                          "mismatched_counts": traced_info["mismatched_counts"]},
            "per_layer": traced_metrics,
            "unused_seed": {"seed": args.unused_seed, **outcome(unused_info)},
        }
        print(f"{w}: " + ", ".join(f"{k} median {s['median']:.4g} spread "
                                   f"{s['iqr_over_median']:.3f}" for k, s in stats.items()),
              file=sys.stderr)

    with open(BASELINE, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["measured"] = {
        "commit": commit(),
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "system": platform.system(), "machine": platform.machine()},
        "run_seconds": seconds,
        "fixed_loop_s": {"what": f"one pure-Python loop of {LOOP_N} multiply-adds, "
                                 "timed before each round of seeds",
                         "values": loops, **spread(loops)},
        "workloads": workloads,
    }
    with open(BASELINE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
