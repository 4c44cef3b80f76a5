"""One benchmark pass in a fresh interpreter: import, signal ready, run the ops.

Usage: python3 pass_main.py PLAN RESULT MODE

MODE is ``probe`` (exit right after the import), ``timed``, ``traced`` or
``profiled``.  The parent times the interval from spawning this process to
the ``ready`` line as set-up.  A speed gauge (fixed allocation-heavy Python) is
timed right after set-up and, in a timed pass, every 50 ms while the ops
run, so that the parent can rescale set-up and pass times to a reference
machine speed.  The package's source directory must be on PYTHONPATH.
Results go to the RESULT file as JSON; stdout carries only the ready line
and the set-up gauge, because the package's own output is captured per op.
"""

import sys
import time


def _degeneration(op):
    from heunlab.algebra import var
    from heunlab.heun import (
        DegenerationCase,
        HeunFamily,
        HeunSpec,
        degeneration_case,
        fuchsian_epsilon,
    )
    case = DegenerationCase(op["case"])
    if op["params"] is None:
        a, b, g, d, q, t = (var(n) for n in ("alpha", "beta", "gamma", "delta", "q", "t"))
        p = {"alpha": a, "beta": b, "gamma": g, "delta": d, "t": t,
             "q": {"q=0": 0, "q=ab": a * b, "q=abt": a * b * t, "ab=0": q}[op["case"]]}
        if op["case"] == "ab=0":
            p["alpha"] = 0
        p["epsilon"] = fuchsian_epsilon(p["alpha"], p["beta"], p["gamma"], p["delta"])
    else:
        p = {k: Fraction(v) for k, v in op["params"].items()}
    res = degeneration_case(HeunSpec.of(HeunFamily.GENERAL, **p), case)
    out = {"certified": res.singular_set_certified, "shifted": None}
    s = res.shifted
    if s is not None:
        if op["params"] is None:
            out["shifted"] = True
        else:
            out["shifted"] = {
                "gamma": str(s.gamma.const_value()), "delta": str(s.delta.const_value()),
                "epsilon": str(s.epsilon.const_value()), "t": str(s.t.const_value()),
                "alphabeta": [str(x) for x in sorted(
                    (s.alpha.const_value(), s.beta.const_value()))],
                "q": str(s.q.const_value())}
    return out


def _export(traj, path):
    text = traj.to_csv()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    lines = text.splitlines()
    n = len(traj.samples[0].y) if traj.samples else 0
    header = ["s", "re_x", "im_x"] + [f"{p}_y{i}" for i in range(n) for p in ("re", "im")]
    return {"csv_rows": len(lines) - 1, "samples": len(traj.samples),
            "csv_ok": lines[0].split(",") == header}


def _derivative_residual(base, derived, traj):
    """Largest relative residual of v = u' in the derivative equation.

    The same meter as ``verify_derivative_numeric``, kept here so that the
    witness can go through the public ``integrate_linear`` and ``to_csv``:
    u'' and u''' come from differentiating the base equation, never from
    finite differences.
    """
    from heunlab.numeric import compile_scalar
    z = base.var
    p1, p2, dp1, dp2, q1, q2 = (compile_scalar(e, (z,)) for e in (
        base.p1, base.p2, base.p1.derivative(z), base.p2.derivative(z),
        derived.p1, derived.p2))
    worst = 0.0
    for smp in traj.samples:
        x, (u, up) = smp.x, smp.y
        upp = -p1(x) * up - p2(x) * u
        uppp = -(dp1(x) * up + p1(x) * upp + dp2(x) * u + p2(x) * up)
        terms = (uppp, q1(x) * upp, q2(x) * up)
        worst = max(worst, abs(sum(terms)) / (sum(abs(c) for c in terms) + 1e-300))
    return worst


def _numeric(op):
    from heunlab import numeric
    from heunlab.heun import HeunFamily, HeunSpec, build_heun, build_heun_derivative
    from heunlab.matching import matching_case
    from heunlab.painleve import PainleveKind
    params = {k: Fraction(v) for k, v in op["params"].items()}
    if op["type"] == "derivative":
        spec = HeunSpec.of(HeunFamily(op["family"]), **params)
        path = numeric.ComplexPath.of(*(complex(*p) for p in op["path"]))
        init = tuple(complex(*v) for v in op["init"])
        base = build_heun(spec)
        traj = numeric.integrate_linear(base, path, init, numeric.IntegrationConfig())
        out = _export(traj, op["csv"])
        out["residual"] = _derivative_residual(base, build_heun_derivative(spec), traj)
        return out
    kind = PainleveKind(op["kind"])
    cfg = numeric.IntegrationConfig(max_step=op["max_step"])
    t_range = tuple(op["t_range"])
    if op["type"] == "riccati":
        traj = numeric.integrate_riccati(matching_case(kind), params, t_range,
                                         op["lambda0"], cfg)
    else:
        traj = numeric.integrate_hamiltonian(kind, params, tuple(op["init"]), t_range, cfg)
    out = _export(traj, op["csv"])
    out["residual"] = numeric.painleve_residual(kind, traj, params)
    return out


def run_op(op):
    if op["type"] == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                rc = heunlab.cli.main(op["argv"])
            except SystemExit as exc:  # argparse and usage errors exit
                rc = exc.code if isinstance(exc.code, int) else 1
        return {"rc": rc, "out": buf.getvalue()}
    if op["type"] == "degeneration":
        return _degeneration(op)
    return _numeric(op)


def suite_step(ops, results):
    """Measure each draw that names the suite's step cap again at that cap.

    Runs after the traced pass, so it adds nothing to any time; the parent
    counts the draws above their bound there (the meter-resolution finding).
    """
    for op, res in zip(ops, results):
        if "suite_step" in op and "error" not in res:
            try:
                res["suite_step_residual"] = _numeric(
                    dict(op, max_step=op["suite_step"]))["residual"]
            except Exception as exc:
                res["suite_step_error"] = f"{type(exc).__name__}: {exc}"


def run_ops(ops, tracer=None):
    """Run every op in order; return per-op results and latencies."""
    results, latencies = [], []
    for op in ops:
        if tracer is not None:
            tracer.begin_op(op["id"])
        t0 = time.perf_counter()
        try:
            res = run_op(op)
        except Exception as exc:  # a raising op is a failed check, not a crash
            res = {"error": f"{type(exc).__name__}: {exc}"}
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end_op()
        results.append(res)
    return results, latencies


GAUGE_START = 5        # samples right after set-up
GAUGE_EVERY_S = 0.05   # sampling interval while the ops of a timed pass run


def gauge():
    """Time fixed allocation-heavy Python: how fast the machine runs such code now.

    Exact ``Fraction`` arithmetic on growing integers, then small tuples
    churned through a dict, about 2 ms together: the kind of work the exact
    kernel does.  A tight integer loop slowed down less than the package in
    the machine's slow phases, so rescaling by it left part of them in.
    """
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 120):
        acc = acc * Fraction(3, 4) + Fraction(1, i % 17 + 1)
    table = {}
    for i in range(3000):
        key = (i % 101, i % 7)
        table[key] = table.get(key, ())[:3] + (i,)
    return time.perf_counter() - t0


class Sampler:
    """Takes a gauge sample every ``GAUGE_EVERY_S`` of wall time while it is entered.

    The SIGALRM handler runs between bytecodes of the main thread, so the
    samples see how fast the machine runs during the pass, including slow
    phases that begin and end inside one long op.
    """

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(gauge())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_EVERY_S, GAUGE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main(argv):
    plan_path, result_path, mode = argv
    # The gauge right after set-up, for the parent to rescale the set-up time.
    print(repr(statistics.median(gauge() for _ in range(GAUGE_START))), flush=True)
    if mode == "probe":
        return 0
    with open(plan_path, encoding="utf-8") as fh:
        ops = json.load(fh)
    tracer = profiler = None
    if mode == "traced":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    elif mode == "profiled":
        import cProfile
        profiler = cProfile.Profile()
    sampler = Sampler()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    with sampler if mode == "timed" else contextlib.nullcontext():
        results, latencies = run_ops(ops, tracer)
    if profiler is not None:
        profiler.disable()
    # Pass times leave out the gauge samples taken during the pass.
    sampled = sum(sampler.samples)
    wall = time.perf_counter() - t0 - sampled
    cpu = time.process_time() - cpu0 - sampled
    gauge_s = statistics.mean(sampler.samples) if sampler.samples else gauge()
    out = {"wall_s": wall, "cpu_s": cpu, "gauge_s": gauge_s, "gauge_samples": len(sampler.samples),
           "latencies_s": latencies, "results": results,
           "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        out["trace"] = tracer.report(os.path.splitext(result_path)[0] + ".spans.csv")
    if profiler is not None:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing
        out["profile"] = tracing.profile_shares(profiler)
    if mode == "traced":
        suite_step(ops, results)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    # Set-up, as the parent times it, ends once this import is done; the
    # benchmark's own imports come after the ready line.
    import heunlab.cli  # noqa: F401

    sys.stdout.write("ready\n")
    sys.stdout.flush()

    import contextlib
    import io
    import json
    import os
    import resource
    import signal
    import statistics
    from fractions import Fraction

    sys.exit(main(sys.argv[1:]))
