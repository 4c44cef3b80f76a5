"""Per-layer spans and work counts, recorded from outside the package.

``Tracer.install`` wraps the public functions each layer exposes.  A function
imported by name into other modules is patched in every ``heunlab`` module
that holds it, and a method under every name its class binds it to (such as
``__radd__ = __add__``).  Each wrapped call records a span (id, name, start,
end, parent span, op id) in memory; ``report`` writes the spans out once the
pass ends and returns the per-metric totals:

* ``calls`` counts every call;
* ``s`` is the inclusive time of outermost calls (a recursive call inside a
  span of the same name adds nothing);
* ``self_s`` is the time not covered by child spans.

Nothing inside the package is changed on disk; the wrappers live only in the
traced process.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

#: (module, attribute, metric) of wrapped module-level functions.
FUNCTIONS = (
    ("algebra", "poly_gcd", "algebra.poly_gcd"),
    ("algebra", "_gcd_by_interpolation", "algebra.gcd_interpolation"),
    ("algebra", "_gcd_prs", "algebra.gcd_prs"),
    ("algebra", "exact_div", "algebra.exact_div"),
    ("algebra", "identity_test", "algebra.identity_test"),
    ("ode", "derivative_equation", "ode.derivative_equation"),
    ("ode", "gauge_mobius_transform", "ode.gauge_mobius_transform"),
    ("ode", "singular_points", "ode.singular_points"),
    ("ode", "coefficient_diff", "ode.coefficient_diff"),
    ("heun", "build_heun_derivative", "heun.build_heun_derivative"),
    ("heun", "degeneration_case", "heun.degeneration_case"),
    ("painleve", "hamiltonian", "painleve.hamiltonian"),
    ("painleve", "painleve_rhs", "painleve.painleve_rhs"),
    ("painleve", "build_painleve_linear", "painleve.build_painleve_linear"),
    ("painleve", "verify_elimination", "verify.elimination"),
    ("painleve", "verify_p3_substitution", "verify.elimination"),
    ("matching", "verify_matching", "verify.matching"),
    ("matching", "verify_riccati", "verify.riccati"),
    ("matching", "verify_obstruction", "verify.obstruction"),
    ("cli", "run_derivative_suite", "verify.derivative"),
    ("numeric", "integrate_linear", "numeric.integrate"),
    ("numeric", "integrate_riccati", "numeric.integrate"),
    ("numeric", "integrate_hamiltonian", "numeric.integrate"),
    ("numeric", "verify_derivative_numeric", "numeric.integrate"),
    ("numeric", "compile_scalar", "numeric.compile_scalar"),
    ("numeric", "ode_singularities", "numeric.ode_singularities"),
    ("numeric", "painleve_residual", "numeric.painleve_residual"),
    ("numeric", "_integrate_segments", None),  # counts only, no span
    ("cli", "main", "cli.main"),
)

#: (module, class, method, metric) of wrapped methods.
METHODS = (
    ("algebra", "MultiPoly", "eval_exact", "algebra.eval_exact"),
    ("algebra", "RationalExpr", "substitute", "algebra.substitute"),
    *(("algebra", "RationalExpr", m, "algebra.rational_ops") for m in (
        "__add__", "__sub__", "__rsub__", "__mul__", "__truediv__",
        "__rtruediv__", "__pow__", "derivative")),
    ("ode", "LinearODE2", "substitute_params", "ode.substitute_params"),
    ("numeric", "ODETrajectory", "to_csv", "numeric.to_csv"),
    ("report", "Report", "to_json", "report.to_json"),
)


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.max_terms = 0
        self.incl: defaultdict = defaultdict(float)
        self.op_s: defaultdict = defaultdict(float)
        self.self_t: defaultdict = defaultdict(float)
        self.depth: Counter = Counter()
        self.stack: list[list] = []  # [span id, child time]
        self.spans: list[tuple] = []
        self.next_id = 0
        self.op: str | None = None
        self.missing: list[str] = []

    # ---- spans -------------------------------------------------------------

    def begin_op(self, op_id: str) -> None:
        self.op = op_id
        self.stack.append([self.next_id, 0.0])
        self.next_id += 1
        self._op_start = time.perf_counter()

    def end_op(self) -> None:
        self._exit("op", self._op_start)

    def _exit(self, name: str, start: float) -> None:
        end = time.perf_counter()
        sid, child = self.stack.pop()
        parent = self.stack[-1] if self.stack else None
        dur = end - start
        if parent is not None:
            parent[1] += dur
        if name == "op":
            self.op_s[self.op] += dur
        else:
            if self.depth[name] == 0:
                self.incl[name] += dur
            self.self_t[name] += dur - child
        self.spans.append((sid, name, start, end, parent[0] if parent else -1, self.op))

    def span(self, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            tracer.stack.append([tracer.next_id, 0.0])
            tracer.next_id += 1
            tracer.depth[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.depth[name] -= 1
                tracer._exit(name, start)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def hook(self, fn, on_result):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(args, result)
            return result

        return wrapper

    # ---- work counts at the same boundaries ---------------------------------

    def _gcd_result(self, args, result) -> None:
        if not result.is_const():
            self.counts["algebra.poly_gcd.nontrivial"] += 1
        terms = max(len(getattr(a, "terms", ())) for a in args[:2])
        self.max_terms = max(self.max_terms, terms)

    def _div_result(self, args, result) -> None:
        if result is not None:
            self.counts["algebra.exact_div.hits"] += 1

    def _segments_result(self, args, traj) -> None:
        self.counts["numeric.accepted_steps"] += max(0, len(traj.samples) - 1)
        self.counts["numeric.pole_truncated"] += int(traj.pole_truncated)

    def _compiled_result(self, args, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*a):
            counts["numeric.coeff_evals"] += 1
            return fn(*a)

        return counted

    # ---- installation ------------------------------------------------------

    def install(self) -> None:
        import heunlab.cli  # noqa: F401  (loads every layer)

        mods = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                if name.startswith("heunlab.")}
        hooks = {"algebra.poly_gcd": self._gcd_result,
                 "algebra.exact_div": self._div_result}
        for mod_name, attr, metric in FUNCTIONS:
            original = getattr(mods.get(mod_name), attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            if attr == "_integrate_segments":
                wrapped = self.hook(original, self._segments_result)
            elif attr == "compile_scalar":
                inner = self.span(metric, original)

                @functools.wraps(original)
                def wrapped(*a, _inner=inner, **k):
                    return self._compiled_result(a, _inner(*a, **k))
            else:
                wrapped = self.span(metric, original, hooks.get(metric))
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        for mod_name, cls_name, meth, metric in METHODS:
            cls = getattr(mods.get(mod_name), cls_name, None)
            original = vars(cls).get(meth) if cls is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{cls_name}.{meth}")
                continue
            wrapped = self.span(metric, original)
            for key, value in list(vars(cls).items()):
                if value is original:
                    setattr(cls, key, wrapped)

    # ---- output ------------------------------------------------------------

    def report(self, spans_path: str) -> dict:
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,op\n")
            for sid, name, start, end, parent, op in self.spans:
                fh.write(f'{sid},{name},{start:.9f},{end:.9f},{parent},"{op}"\n')
        counts = {f"{k}.calls": v for k, v in self.calls.items()}
        counts.update(self.counts)
        counts["algebra.poly_gcd.max_operand_terms"] = self.max_terms
        return {
            "counts": counts,
            "s": dict(self.incl),
            "self_s": dict(self.self_t),
            "op_s": dict(self.op_s),
            "spans": len(self.spans),
            "spans_path": spans_path,
            "missing": self.missing,
        }


#: Files whose self time the profile pass groups, by layer.
PROFILE_GROUPS = {
    "algebra": "heunlab/algebra.py",
    "ode": "heunlab/ode.py",
    "numeric": "heunlab/numeric.py",
    "fractions": "/fractions.py",
}


def profile_shares(profiler) -> dict:
    """Self-time share per layer file, and the call count into ``fractions``."""
    import pstats

    stats = pstats.Stats(profiler).stats
    total = sum(tt for _, _, tt, _, _ in stats.values()) or 1.0
    shares = dict.fromkeys(PROFILE_GROUPS, 0.0)
    fraction_calls = 0
    for (path, _, _), (_, nc, tt, _, _) in stats.items():
        path = path.replace("\\", "/")
        for group, suffix in PROFILE_GROUPS.items():
            if path.endswith(suffix):
                shares[group] += tt / total
                if group == "fractions":
                    fraction_calls += nc
    return {"self_share": shares, "fractions_calls": fraction_calls}
