"""heunlab benchmark: end-to-end and per-layer measurement of three workloads.

Run from the repository root:

    python3 bench/run.py --workload claims-symbolic --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --self-test

Each pass is one closed-loop client in a fresh interpreter (``pass_main.py``),
started only after the previous pass ended; no threads, no concurrent passes.
Inputs are generated from ``--seed`` before any timing starts, every output is
checked against the answers in ``workloads.py``, and the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones from separate traced and profiled passes.
Scratch files, spans and per-run reports go to ``.bench_out/`` at the root.
See README.md in this directory for the metrics and the baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

sys.path.insert(0, HERE)
import workloads  # noqa: E402

#: Printed by every timed run but not gated: see README.md, "Metrics".
DIAGNOSTICS = {"wall_s": "s", "gauge_s": "s", "setup_p50_s": "s", "query_p50_ms": "ms",
               "query_p90_ms": "ms", "failed_share": "ratio",
               "worst_residual_ratio": "ratio", "cpu_s": "s"}

#: The reference speed that ``setup_s`` and ``wall_ref_s`` rescale to: a time
#: of the speed gauge in ``pass_main.py`` (Fraction arithmetic and dict and
#: tuple churn), near its usual time on the 2-CPU machine the baseline was
#: measured on.
GAUGE_REF_S = 0.0019

#: Metrics that read a claim op's span, by the op id they time.
CLAIM_OPS = {"claim.matching-p5.s": "matching/p5", "claim.matching-p6.s": "matching/p6",
             "claim.elimination-p6.s": "elimination/p6", "claim.riccati-p6.s": "riccati/p6"}

SETUP_SHARE = 0.1     # share of a timed run spent on import-only set-up probes
MIN_PASSES = 3        # timed passes per run, even past --seconds
PASS_TIMEOUT_S = 150  # one pass; the whole run must stay under 180 s


class BenchError(Exception):
    """The benchmark cannot run here (for example, no package source)."""


def load_spec() -> dict:
    """BENCHMARK.json: the gated metrics, their units and bounds, and the run length."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def units(spec: dict, key: str) -> dict[str, str]:
    """Metric name -> unit of the ``end_to_end`` or ``per_layer`` list of ``spec``."""
    return {m["name"]: m["unit"] for m in spec[key]}


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def spawn(run_dir: str, tag: str, mode: str, hash_seed: str | None = None):
    """Run one pass process; return (set-up s, set-up gauge s, result dict or None)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    result_path = os.path.join(run_dir, f"{tag}.result.json")
    log_path = os.path.join(run_dir, f"{tag}.stderr")
    argv = [sys.executable, os.path.join(HERE, "pass_main.py"),
            os.path.join(run_dir, "plan.json"), result_path, mode]
    with open(log_path, "w", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=log, env=env,
                                cwd=run_dir)
        try:
            line = proc.stdout.readline()
            setup = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"pass {tag} exceeded {PASS_TIMEOUT_S} s")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    if line.strip() != b"ready":
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"pass {tag} did not start (exit {proc.returncode}):\n{tail}")
    try:
        gauge = float(rest.split(maxsplit=1)[0])
    except (IndexError, ValueError):
        raise BenchError(f"pass {tag} printed no set-up gauge (exit {proc.returncode})")
    if proc.returncode != 0 or mode == "probe":
        return setup, gauge, None
    with open(result_path, encoding="utf-8") as fh:
        return setup, gauge, json.load(fh)


def check_pass(ops: list[dict], result: dict | None) -> list[workloads.Check]:
    if result is None:  # the pass died after start-up: every output is missing
        return [c for op in ops for c in workloads.check(op, {"error": "pass died"})]
    return [c for op, res in zip(ops, result["results"]) for c in workloads.check(op, res)]


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


class Run:
    """One measurement of one workload at one seed."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.dir = os.path.join(OUT, f"{workload}-seed{seed}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.ops = workloads.make_ops(workload, seed, self.dir)
        with open(os.path.join(self.dir, "plan.json"), "w", encoding="utf-8") as fh:
            json.dump(self.ops, fh)
        self.checks: list[workloads.Check] = []
        self.passes: list[dict] = []
        self.n = 0

    def one(self, mode: str, hash_seed: str | None = None):
        self.n += 1
        setup, gauge, result = spawn(self.dir, f"p{self.n}", mode, hash_seed)
        if mode != "probe":
            self.checks += check_pass(self.ops, result)
            if result is not None:
                self.passes.append(result)
        return setup, gauge, result

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def summary(self) -> dict:
        failed = [c for c in self.checks if not c.ok]
        ratios = [c.ratio for c in self.checks if c.ratio is not None]
        return {
            "correct": bool(self.checks) and not failed,
            "attempted": len(self.checks),
            "failed": len(failed),
            "failed_share": len(failed) / max(1, len(self.checks)),
            "failed_ids": sorted({c.id for c in failed}),
            "worst_residual_ratio": max(ratios) if ratios else None,
        }


def timed_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    run = Run(workload, seed)
    try:
        start = time.perf_counter()
        setups: list[tuple[float, float]] = []  # (set-up s, gauge s right after it)
        cycles: list[float] = []
        probe_s = 0.0
        while True:
            elapsed = time.perf_counter() - start
            if len(cycles) >= MIN_PASSES and elapsed + statistics.median(cycles) > seconds:
                break
            t0 = time.perf_counter()
            setups.append(run.one("timed")[:2])
            # Set-up probes are spread over the run, after each pass, so that
            # they see the same phases of the machine as the passes do.
            while probe_s < SETUP_SHARE * (time.perf_counter() - start):
                t1 = time.perf_counter()
                setups.append(run.one("probe")[:2])
                probe_s += time.perf_counter() - t1
            cycles.append(time.perf_counter() - t0)
        if not run.passes:
            raise BenchError("every pass died; see .bench_out for its stderr")
        latencies = [x for p in run.passes for x in p["latencies_s"]]
        p90 = statistics.quantiles(latencies, n=10)[-1]
        # Times at the reference speed, each by the gauge timed in the same
        # process: right after set-up, or while the pass ran.  See README.md,
        # "Noise".
        metrics = {
            "setup_s": statistics.median(t * GAUGE_REF_S / g for t, g in setups),
            "wall_ref_s": statistics.median(p["wall_s"] * GAUGE_REF_S / p["gauge_s"]
                                            for p in run.passes),
            "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in run.passes) / 1024,
        }
        info = run.summary()
        info.update({
            "wall_s": statistics.median(p["wall_s"] for p in run.passes),
            "gauge_s": statistics.median(p["gauge_s"] for p in run.passes),
            "setup_p50_s": statistics.median(t for t, _ in setups),
            "query_p50_ms": 1000 * statistics.median(latencies),
            "query_p90_ms": 1000 * p90,
            "passes": len(run.passes), "setup_samples": len(setups),
            "setup_samples_s": [[round(t, 5), round(g, 7)] for t, g in setups],
            "gauge_samples": sum(p["gauge_samples"] for p in run.passes),
            "queries": len(latencies),
            "beyond_p90": sum(x > p90 for x in latencies),
            "cpu_s": statistics.median(p["cpu_s"] for p in run.passes),
            "pass_walls": [round(p["wall_s"], 4) for p in run.passes],
            "pass_gauges": [round(p["gauge_s"], 7) for p in run.passes],
            "run_s": time.perf_counter() - start,
        })
        return metrics, info
    finally:
        run.close()


def traced_run(workload: str, seed: int, per_layer: dict[str, str]) -> tuple[dict, dict]:
    """Untraced, traced (two hash seeds) and profiled passes of one workload."""
    run = Run(workload, seed)
    try:
        start = time.perf_counter()
        plain = run.one("timed")[2]
        first = run.one("traced", "1")[2]
        second = run.one("traced", "2")[2]
        prof = run.one("profiled", "1")[2]
        if None in (plain, first, second, prof):
            raise BenchError("a traced pass died; see the failed checks")
        spans_dir = os.path.join(OUT, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        for k, p in enumerate((first, second), 1):
            # One pair of files per workload: the latest traced run replaces it.
            dest = os.path.join(spans_dir, f"{workload}-hash{k}.spans.csv")
            shutil.move(p["trace"]["spans_path"], dest)
            p["trace"]["spans_path"] = dest
        a, b = first["trace"], second["trace"]
        mismatched = sorted(k for k in set(a["counts"]) | set(b["counts"])
                            if a["counts"].get(k) != b["counts"].get(k))
        metrics = layer_metrics(a, b, prof["profile"], per_layer)
        ratios = [c.ratio for c in run.checks if c.ratio is not None]
        # A draw whose integration at the suite's cap raised counts as above.
        coarse = [(op, res) for op, res in zip(run.ops, first["results"])
                  if "suite_step" in op and "error" not in res]
        metrics.update({
            "numeric.worst_residual_ratio": max(ratios) if ratios else 0.0,
            "numeric.suite_step_above_bound": sum(
                not res.get("suite_step_residual", float("inf")) <= op["bound"]
                for op, res in coarse),
            "cpu_s": plain["cpu_s"],
            "trace.overhead_s": statistics.median((first["wall_s"], second["wall_s"]))
            - plain["wall_s"],
            "trace.count_mismatches": len(mismatched),
            "trace.spans": a["spans"],
        })
        info = run.summary()
        info.update({"mismatched_counts": mismatched, "untraced_wall_s": plain["wall_s"],
                     "traced_wall_s": [first["wall_s"], second["wall_s"]],
                     "spans_files": [first["trace"]["spans_path"],
                                     second["trace"]["spans_path"]],
                     "unwrapped": a["missing"], "run_s": time.perf_counter() - start})
        return metrics, info
    finally:
        run.close()


def layer_metrics(a: dict, b: dict, prof: dict, per_layer: dict[str, str]) -> dict:
    """Per-layer metrics: counts from trace ``a``, times as the mean of ``a`` and ``b``."""
    counts = a["counts"]

    def secs(table: str, key: str) -> float:
        return (a[table].get(key, 0.0) + b[table].get(key, 0.0)) / 2

    out = {}
    for name in per_layer:
        base, _, field = name.rpartition(".")
        if field == "calls" and base != "profile.fractions":
            out[name] = counts.get(name, 0)
        elif field == "s" and name in CLAIM_OPS:
            out[name] = secs("op_s", CLAIM_OPS[name])
        elif field == "s" and base == "verify.degeneration":
            out[name] = secs("s", "heun.degeneration_case")
        elif field in ("s", "self_s") and name != "cpu_s":
            out[name] = secs("s" if field == "s" else "self_s", base)
    gcd = counts.get("algebra.poly_gcd.calls", 0)
    div = counts.get("algebra.exact_div.calls", 0)
    out["algebra.poly_gcd.nontrivial_ratio"] = (
        counts.get("algebra.poly_gcd.nontrivial", 0) / gcd if gcd else 0.0)
    out["algebra.poly_gcd.max_operand_terms"] = counts.get("algebra.poly_gcd.max_operand_terms", 0)
    out["algebra.exact_div.hit_ratio"] = (
        counts.get("algebra.exact_div.hits", 0) / div if div else 0.0)
    for key in ("numeric.accepted_steps", "numeric.coeff_evals", "numeric.pole_truncated"):
        out[key] = counts.get(key, 0)
    for group, share in prof["self_share"].items():
        out[f"profile.{group}.self_share"] = share
    out["profile.fractions.calls"] = prof["fractions_calls"]
    return out


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def emit(workload: str, seed: int, trace: bool, metrics: dict, info: dict,
         units: dict[str, str]) -> dict:
    """Print the metrics table and save the run report; return the result object."""
    print(f"# {workload}  seed={seed}  trace={int(trace)}")
    for name, unit in units.items():
        print(f"{name:42s} {metrics[name]:.6g} {unit}")
    for name, unit in DIAGNOSTICS.items():
        if info.get(name) is not None:
            print(f"{name:42s} {info[name]:.6g} {unit}")
    for key, value in info.items():
        if key not in DIAGNOSTICS and key != "setup_samples_s":
            print(f"# {key}: {value}")
    report = {"workload": workload, "seed": seed, "trace": int(trace),
              "metrics": metrics, "info": info}
    reports = os.path.join(OUT, "reports")
    os.makedirs(reports, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(reports, f"{workload}-seed{seed}-trace{int(trace)}-{stamp}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return {"correct": info["correct"], "attempted": info["attempted"],
            "failed": info["failed"],
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that the checker catches one tampered output "
                             "per workload")
    args = parser.parse_args(argv)
    try:
        if not os.path.isdir(os.path.join(SRC, "heunlab")):
            raise BenchError(f"no package source at {SRC}")
        try:
            spec = load_spec()
        except OSError as exc:
            raise BenchError(f"cannot read BENCHMARK.json: {exc}")
        per_layer = units(spec, "per_layer")
        if args.self_test:
            import selftest
            return selftest.main(Run, check_pass, per_layer)
        if args.workload is None:
            parser.error("--workload is required")
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            if args.trace:
                metrics, info = traced_run(name, args.seed, per_layer)
            else:
                metrics, info = timed_run(name, args.seed, args.seconds)
            results[name] = emit(name, args.seed, bool(args.trace), metrics, info,
                                 per_layer if args.trace else units(spec, "end_to_end"))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
