"""Floating-point companion: integrate the equations and measure residuals.

The symbolic modules prove identities; this one witnesses them numerically.
It integrates second-order linear equations along polyline paths in the
complex plane, first-order (Riccati-type) reductions and Hamiltonian flows
over ranges of the deformation parameter, and measures residuals of the
nonlinear equations along trajectories with finite differences.

Integrator: the Dormand-Prince embedded 5(4) pair with PI step-size control.
All state is held as plain complex scalars (the systems here have one or two
components), so no array machinery is needed.  A field is one generated
function ``field(x, y0, ..., y{n-1})`` that returns the tuple dy/dx, its
exact coefficients compiled into straight-line code, one statement per sum
of terms.  The stepper is generated from the tableau for each state size n,
on the first integration of that size: its state components and stage values
are scalar locals, each stage calls the field once, and its stage sums round
bit for bit as the tableau rows summed term by term would.

A trajectory is a list of samples (s, x, y): the arc length along the path,
the independent variable and the state at each accepted step.  The settings
of one integration are its tolerances, the distance the path keeps from every
singular point and an optional step cap (:class:`IntegrationConfig`); the step
budget and the modulus taken for a pole are module constants.
"""

from __future__ import annotations

import bisect
import cmath
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import RationalExpr, const, substitute
from .heun import HeunSpec, build_heun, build_heun_derivative
from .matching import MatchingCase
from .ode import INFINITY, LinearODE2, singular_points
from .painleve import (
    FLOW_T_SINGULARITIES,
    KIND_PARAMS,
    LAMBDA_LOCUS,
    PainleveKind,
    hamiltonian,
    painleve_rhs,
)


class NumericError(Exception):
    """Base class for numeric-lab errors."""


class PathTooClose(NumericError):
    """The path violates the configured distance to a singular point."""


class StiffnessAbort(NumericError):
    """Step size underflow or step budget exhausted."""


class InsufficientSamples(NumericError):
    """Too few samples for the requested finite-difference order."""


class ConditionNotSatisfied(NumericError):
    """Numeric parameters do not satisfy the reduction's exact condition."""


@dataclass(frozen=True)
class ComplexPath:
    """Polyline through the given waypoints in the complex plane."""

    waypoints: tuple[complex, ...]

    @staticmethod
    def of(*points) -> "ComplexPath":
        pts = tuple(complex(p) for p in points)
        if not all(cmath.isfinite(p) for p in pts):
            raise ValueError(f"waypoints must be finite, got {pts}")
        if len(pts) < 2:
            raise ValueError("a path needs at least two waypoints")
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise ValueError("consecutive waypoints must be distinct")
        return ComplexPath(pts)

    def segments(self) -> list[tuple[complex, complex]]:
        return list(zip(self.waypoints, self.waypoints[1:]))

    def length(self) -> float:
        return sum(abs(b - a) for a, b in self.segments())

    def min_distance_to(self, point: complex) -> float:
        return min(_segment_distance(a, b, point) for a, b in self.segments())


def _segment_distance(a: complex, b: complex, p: complex) -> float:
    d = b - a
    denom = abs(d) ** 2
    s = ((p - a).real * d.real + (p - a).imag * d.imag) / denom
    s = min(1.0, max(0.0, s))
    return abs(a + s * d - p)


#: Accepted and rejected steps one integration may take in all.
_MAX_STEPS = 200_000
#: A state component larger than this in modulus is taken for a pole.
_POLE_THRESHOLD = 1e8


@dataclass(frozen=True)
class IntegrationConfig:
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    min_distance: float = 1e-2  # from the path to every singular point
    max_step: float | None = None  # in units of the independent variable

    def __post_init__(self) -> None:
        # Written as negated comparisons so that a NaN is refused too.
        if not 0 < self.abs_tol < math.inf:
            raise ValueError(f"abs_tol must be positive and finite, got {self.abs_tol}")
        if not 0 <= self.rel_tol < math.inf:
            raise ValueError(
                f"rel_tol must be non-negative and finite, got {self.rel_tol}")
        if not self.min_distance > 0:
            raise ValueError(
                f"min_distance must be positive, got {self.min_distance}")
        if self.max_step is not None and not self.max_step > 0:
            raise ValueError(f"max_step must be positive, got {self.max_step}")


@dataclass(frozen=True)
class Sample:
    s: float                      # cumulative parameter along the path
    x: complex                    # independent variable value
    y: tuple[complex, ...]        # state


@dataclass
class ODETrajectory:
    samples: list[Sample]
    pole_truncated: bool = False
    max_error_estimate: float = 0.0
    meta: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        n = len(self.samples[0].y) if self.samples else 0
        header = ["s", "re_x", "im_x"]
        for i in range(n):
            header += [f"re_y{i}", f"im_y{i}"]
        lines = [",".join(header)]
        for smp in self.samples:
            row = [repr(smp.s), repr(smp.x.real), repr(smp.x.imag)]
            for y in smp.y:
                row += [repr(y.real), repr(y.imag)]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({
            "pole_truncated": self.pole_truncated,
            "max_error_estimate": self.max_error_estimate,
            "meta": self.meta,
            "samples": [
                {"s": smp.s,
                 "x": [smp.x.real, smp.x.imag],
                 "y": [[y.real, y.imag] for y in smp.y]}
                for smp in self.samples
            ],
        }, indent=1)


# Dormand-Prince 5(4) tableau.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
          187 / 2100, 1 / 40)
_DP_E = tuple(b5 - b4 for b5, b4 in zip(_DP_B5, _DP_B4))


#: Generated steppers by state size, each built on first use.
_STEPPERS: dict = {}


def _integrate_segments(field_fn, path: ComplexPath, y0: tuple[complex, ...],
                        cfg: IntegrationConfig) -> ODETrajectory:
    """Adaptive integration along a polyline; field_fn(x, *y) -> dy/dx.

    The field takes the independent variable and one argument per state
    component and returns a tuple.  The step runs in a stepper generated for
    the state's size (see ``_build_stepper``), built on the first integration
    of that size and kept for the next.
    """
    n = len(y0)
    stepper = _STEPPERS.get(n)
    if stepper is None:
        stepper = _STEPPERS[n] = _build_stepper(n)
    return stepper(field_fn, path, y0, cfg)


def _build_stepper(n: int):
    """Generate the Dormand-Prince stepper for states of ``n`` components.

    The stages are written out from the tableau with every state component
    and every stage value a scalar local, and each stage calls the field
    once.  Each stage sum starts from ``0 +`` and keeps the tableau's zero
    entries, as a ``sum`` over the tableau row would, so every rounding and
    the sign of every zero are those of the row-by-row form.  The last row
    of ``_DP_A`` is the fifth-order weights (first same as last): the new
    state reuses that stage's sum, and the last stage's value is the next
    step's first.
    """
    ms = range(n)
    env = {"Sample": Sample, "ODETrajectory": ODETrajectory,
           "StiffnessAbort": StiffnessAbort, "sqrt": math.sqrt,
           "_MAX_STEPS": _MAX_STEPS, "_POLE_THRESHOLD": _POLE_THRESHOLD}
    env.update({f"c{i + 1}": c for i, c in enumerate(_DP_C)})
    env.update({f"a{i + 1}{j + 1}": v for i, row in enumerate(_DP_A)
                for j, v in enumerate(row)})
    env.update({f"b{j + 1}": v for j, v in enumerate(_DP_B5)})
    env.update({f"e{j + 1}": v for j, v in enumerate(_DP_E)})

    def stage_sum(coeff: str, row, m: int) -> str:
        # coeff names the row's entries: coeff + "1", coeff + "2", ...
        return " + ".join(["0", *(f"{coeff}{j + 1} * k{j + 1}_{m}"
                                  for j in range(len(row)))])

    def call(i: int, x: str, args) -> list[str]:
        ks = [f"k{i}_{m}" for m in ms]
        return [f"{', '.join(ks)}, = field_fn({x}, {', '.join(args)})",
                *(f"{k} = seg * {k}" for k in ks)]

    last = len(_DP_A)
    step = []
    for i in range(2, last):
        step += call(i, f"a + (s + c{i} * h) * seg",
                     [f"y{m} + h * ({stage_sum(f'a{i}', _DP_A[i - 1], m)})" for m in ms])
    step += [f"q{m} = {stage_sum(f'a{last}', _DP_A[-1], m)}" for m in ms]
    step += call(last, f"a + (s + c{last} * h) * seg", [f"y{m} + h * q{m}" for m in ms])
    for m in ms:
        tail = [f"b{j + 1} * k{j + 1}_{m}" for j in range(len(_DP_A[-1]), len(_DP_B5))]
        step.append(f"z{m} = y{m} + h * ({' + '.join([f'q{m}', *tail])})")
    for m in ms:
        # v if v > u else u is max(u, v), without the call
        step += [f"u = abs(y{m})", f"v = abs(z{m})",
                 f"d{m} = abs(h * ({stage_sum('e', _DP_E, m)}))"
                 f" / (atol + rtol * (v if v > u else u))"]
    # a tuple display over the components, a trailing comma for n = 1
    ys = "".join(["(", *(f"y{m}, " for m in ms), ")"])
    source = f"""\
def stepper(field_fn, path, state, cfg):
    atol, rtol, max_step = cfg.abs_tol, cfg.rel_tol, cfg.max_step
    samples = []
    {', '.join(f"y{m}" for m in ms)}, = [complex(v) for v in state]
    s_off = 0.0
    steps = 0
    max_err = 0.0
    truncated = False
    for a, b in path.segments():
        seg = b - a
        seg_len = abs(seg)
        s = 0.0
        h = 1e-3
        if max_step is not None:
            h = min(h, max_step / seg_len)
        err_old = 1e-4
        # Stages are d y / d s = seg * d y / d x along the segment.
{_indent(call(1, "a + s * seg", [f"y{m}" for m in ms]), 8)}
        if not samples:
            samples.append(Sample(0.0, a, {ys}))
        while s < 1.0:
            if steps >= _MAX_STEPS:
                raise StiffnessAbort("step budget exhausted")
            steps += 1
            h = min(h, 1.0 - s)
            if h < 1e-13:
                raise StiffnessAbort(f"step size underflow at s = {{s:.6f}}")
{_indent(step, 12)}
            err = sqrt(({' + '.join(['0', *(f'd{m} * d{m}' for m in ms)])}) / {n})
            if err <= 1.0:
                s += h
{_indent([f"y{m} = z{m}" for m in ms], 16)}
{_indent([f"k1_{m} = k{last}_{m}" for m in ms], 16)}
                max_err = max(max_err, err)
                samples.append(Sample(s_off + s * seg_len, a + s * seg, {ys}))
                if {' or '.join(f"abs(y{m}) > _POLE_THRESHOLD" for m in ms)}:
                    samples.pop()
                    truncated = True
                    break
                fac = 0.9 * err ** -0.14 * err_old ** 0.08 if err > 0 else 5.0
                err_old = max(err, 1e-10)
            else:
                fac = max(0.2, 0.9 * err ** -0.2)
            h *= min(5.0, max(0.2, fac))
            if max_step is not None:
                h = min(h, max_step / seg_len)
        if truncated:
            break
        s_off += seg_len
    return ODETrajectory(samples, pole_truncated=truncated,
                         max_error_estimate=max_err)
"""
    exec(source, env)
    return env["stepper"]


def _indent(lines: list[str], width: int) -> str:
    return "\n".join(" " * width + line for line in lines)


# ---------------------------------------------------------------------------
# Compiling exact coefficients into fast numeric callables
# ---------------------------------------------------------------------------


#: Terms per generated statement.  One statement is one left-nested sum, and
#: the compiler's recursion limit bounds how many terms that sum may hold.
_TERMS_PER_STATEMENT = 200


def _emit_quotient(expr: RationalExpr, arg: dict[str, str],
                   env: dict) -> tuple[list[str], str]:
    """Generated lines that evaluate ``expr``, and the quotient that ends it.

    ``arg`` maps each indeterminate to the name it has in the generated
    code.  The lines leave the numerator in ``num`` and the denominator in
    ``den`` (a constant denominator stays a name in ``env``); each is a sum of
    the polynomial's terms, in order, onto ``0j``, each term its coefficient
    times ``x ** k`` for every nonzero exponent.  The coefficients reach the
    generated code as objects in ``env``, never as printed numbers.
    """
    extra = expr.names() - set(arg)
    if extra:
        raise ValueError(f"expression still involves {sorted(extra)}")

    def assign(target: str, p) -> list[str]:
        terms = []
        for e, c in p.terms.items():
            key = f"c{len(env)}"
            env[key] = complex(c)
            terms.append(key + "".join(
                f" * {arg[n]} ** {k}" for n, k in zip(p.names, e) if k))
        lines, acc = [], "0j"
        for i in range(0, len(terms), _TERMS_PER_STATEMENT):
            chunk = terms[i:i + _TERMS_PER_STATEMENT]
            lines.append(f"{target} = {' + '.join([acc, *chunk])}")
            acc = target
        return lines or [f"{target} = 0j"]

    lines = assign("num", expr.num)
    if expr.den.is_const():
        den = f"c{len(env)}"
        env[den] = complex(expr.den.const_value())
        return lines, f"num / {den}"
    return lines + assign("den", expr.den), "num / den"


def compile_scalar(expr: RationalExpr, names: tuple[str, ...]):
    """Compile a rational expression into a complex-valued function.

    The expression may only involve the given indeterminates; parameters must
    already be bound exactly.  The function takes one positional argument per
    name and returns ``num / den`` evaluated by generated straight-line code
    (``_emit_quotient``).
    """
    arg = {n: f"x{i}" for i, n in enumerate(names)}
    env: dict = {}
    lines, quotient = _emit_quotient(expr, arg, env)
    source = "\n".join([f"def scalar({', '.join(arg.values())}):",
                        _indent([*lines, f"return {quotient}"], 4)])
    exec(source, env)
    return env["scalar"]


def _compile_field(n: int, arg: dict[str, str], values: dict[str, RationalExpr],
                   result: str):
    """Compile a vector field into one function ``field(x, y0, ..., y{n-1})``.

    Each entry of ``values`` binds a name to the quotient of its expression,
    evaluated exactly as ``compile_scalar`` evaluates it; ``arg`` maps the
    expressions' indeterminates to ``x`` and the state names.  The function
    returns ``result``, a tuple over those names and the state.
    """
    env: dict = {}
    body = []
    for name, expr in values.items():
        lines, quotient = _emit_quotient(expr, arg, env)
        body += [*lines, f"{name} = {quotient}"]
    params = ", ".join(["x", *(f"y{m}" for m in range(n))])
    source = "\n".join([f"def field({params}):",
                        _indent([*body, f"return {result}"], 4)])
    exec(source, env)
    return env["field"]


def _linear_field(ode: LinearODE2):
    """The field of v'' + p1 v' + p2 v = 0 in the state (v, v')."""
    return _compile_field(2, {ode.var: "x"}, {"P1": ode.p1, "P2": ode.p2},
                          "(y1, -P1 * y1 - P2 * y0)")


def _riccati_field(rhs: RationalExpr):
    """The field of lambda' = rhs(lambda, t) in the state (lambda,)."""
    return _compile_field(1, {"lambda": "y0", "t": "x"}, {"R": rhs}, "(R,)")


def _hamiltonian_field(dh_dmu: RationalExpr, dh_dlam: RationalExpr):
    """The flow lambda' = dH/dmu, mu' = -dH/dlambda in the state (lambda, mu)."""
    return _compile_field(2, {"lambda": "y0", "mu": "y1", "t": "x"},
                          {"DMU": dh_dmu, "DLAM": dh_dlam}, "(DMU, -DLAM)")


# ---------------------------------------------------------------------------
# Singularity geometry
# ---------------------------------------------------------------------------


def _roots_of_poly(mp, name: str) -> list[complex]:
    """All complex roots of a univariate polynomial, Durand-Kerner iteration."""
    deg = mp.degree_in(name)
    if deg == 0:
        return []
    coeffs = [complex(c) for c in mp.primitive_int_coeffs(name)]
    lead = coeffs[-1]
    coeffs = [c / lead for c in coeffs]
    roots = [(0.4 + 0.9j) ** k for k in range(deg)]
    for _ in range(200):
        shift = 0.0
        new = []
        for i_r, r in enumerate(roots):
            p = 0j
            for c in reversed(coeffs):
                p = p * r + c
            q = 1.0 + 0j
            for j_r, other in enumerate(roots):
                if j_r != i_r:
                    q *= (r - other)
            step = p / q if q != 0 else 0j
            new.append(r - step)
            shift = max(shift, abs(step))
        roots = new
        if shift < 1e-13:
            break
    return roots


def ode_singularities(ode: LinearODE2) -> list[complex]:
    """Finite singular points as complex numbers (resolved or approximated)."""
    out: list[complex] = []
    for p in singular_points(ode):
        if p.location == INFINITY:
            continue
        if isinstance(p.location, Fraction):
            out.append(complex(p.location))
        else:
            out.extend(_roots_of_poly(p.location, ode.var))
    return out


def _check_path_distance(path: ComplexPath, points: list[complex],
                         min_dist: float) -> None:
    for p in points:
        d = path.min_distance_to(p)
        if d < min_dist:
            raise PathTooClose(
                f"path passes within {d:.3g} of the singular point {p}")


# ---------------------------------------------------------------------------
# Linear equations
# ---------------------------------------------------------------------------


def integrate_linear(ode: LinearODE2, path: ComplexPath,
                     init: tuple[complex, complex],
                     cfg: IntegrationConfig = IntegrationConfig()) -> ODETrajectory:
    """Integrate v'' + p1 v' + p2 v = 0 along a path avoiding singularities."""
    _check_path_distance(path, ode_singularities(ode), cfg.min_distance)
    return _integrate_segments(_linear_field(ode), path, init, cfg)


def verify_derivative_numeric(spec: HeunSpec, path: ComplexPath,
                              cfg: IntegrationConfig = IntegrationConfig()) -> float:
    """Numeric witness that u' solves the closed-form derivative equation.

    Integrates the base equation for u from u = u' = 1 at the path's start,
    forms the derivative-equation residual pointwise using v = u', v' = u''
    and v'' = u''' (both obtained by differentiating the base equation, never
    by finite differences), and returns the maximum relative residual along
    the path.
    """
    base = build_heun(spec)
    derived = build_heun_derivative(spec)
    # The base equation's singular points are checked by integrate_linear.
    _check_path_distance(path, ode_singularities(derived), cfg.min_distance)
    traj = integrate_linear(base, path, (1.0, 1.0), cfg)
    z = base.var
    p1 = compile_scalar(base.p1, (z,))
    p2 = compile_scalar(base.p2, (z,))
    dp1 = compile_scalar(base.p1.derivative(z), (z,))
    dp2 = compile_scalar(base.p2.derivative(z), (z,))
    q1 = compile_scalar(derived.p1, (z,))
    q2 = compile_scalar(derived.p2, (z,))
    worst = 0.0
    for smp in traj.samples:
        u, up = smp.y
        upp = -p1(smp.x) * up - p2(smp.x) * u
        uppp = -(dp1(smp.x) * up + p1(smp.x) * upp + dp2(smp.x) * u + p2(smp.x) * up)
        terms = (uppp, q1(smp.x) * upp, q2(smp.x) * up)
        scale = sum(abs(c) for c in terms) + 1e-300
        worst = max(worst, abs(sum(terms)) / scale)
    return worst


# ---------------------------------------------------------------------------
# Riccati reductions and Hamiltonian flows
# ---------------------------------------------------------------------------


def _t_path(t_range: tuple[complex, complex]) -> ComplexPath:
    return ComplexPath.of(t_range[0], t_range[1])


def _check_t_range(kind: PainleveKind, path: ComplexPath, cfg: IntegrationConfig,
                   extra: tuple[Fraction, ...] = ()) -> None:
    fixed = list(FLOW_T_SINGULARITIES[kind]) + list(extra)
    _check_path_distance(path, [complex(v) for v in fixed], cfg.min_distance)


def _check_lambda0(kind: PainleveKind, lam0: complex, path: ComplexPath,
                   cfg: IntegrationConfig) -> None:
    for s in LAMBDA_LOCUS[kind]:
        if s == "t":
            if path.min_distance_to(lam0) < cfg.min_distance:
                raise PathTooClose(
                    "initial position sits on the moving singular value t")
        elif abs(lam0 - complex(Fraction(s))) < cfg.min_distance:
            raise PathTooClose(f"initial position too close to {s}")


def integrate_riccati(case: MatchingCase, params: dict[str, Fraction],
                      t_range: tuple[complex, complex], lam0: complex,
                      cfg: IntegrationConfig = IntegrationConfig()) -> ODETrajectory:
    """Integrate the case's first-order reduction with the condition enforced.

    ``params`` must satisfy the case's parameter condition exactly; only the
    kind's parameter keys are read from it.  Blow-up of the solution (a
    movable pole) truncates the trajectory and sets the pole flag instead of
    failing.
    """
    bind = {k: const(params[k]) for k in KIND_PARAMS[case.painleve_kind]}
    cond = substitute(case.condition, bind)
    if not cond.is_zero():
        raise ConditionNotSatisfied(
            f"condition {case.condition} = {cond} does not vanish at {params}")
    path = _t_path(t_range)
    _check_t_range(case.painleve_kind, path, cfg)
    _check_lambda0(case.painleve_kind, complex(lam0), path, cfg)
    field_fn = _riccati_field(substitute(case.riccati_rhs, bind))
    traj = _integrate_segments(field_fn, path, (complex(lam0),), cfg)
    traj.meta["kind"] = case.painleve_kind.value
    return traj


def integrate_hamiltonian(kind: PainleveKind, params: dict[str, Fraction],
                          init: tuple[complex, complex],
                          t_range: tuple[complex, complex],
                          cfg: IntegrationConfig = IntegrationConfig(),
                          *, h2_literal: bool = False) -> ODETrajectory:
    """Integrate the Hamiltonian flow in (lambda, mu) over a t-range.

    Only the kind's parameter keys are read from ``params``.
    """
    ham = hamiltonian(kind, params, h2_literal=h2_literal)
    path = _t_path(t_range)
    extra = (Fraction(0),) if (h2_literal and kind is PainleveKind.P2) else ()
    _check_t_range(kind, path, cfg, extra)
    traj = _integrate_segments(_hamiltonian_field(ham.dH_dmu, ham.dH_dlam),
                               path, init, cfg)
    traj.meta["kind"] = kind.value
    return traj


# ---------------------------------------------------------------------------
# Residual of the nonlinear equation along a trajectory
# ---------------------------------------------------------------------------


def _neville(xs: list[float], ys: list[complex], x: float) -> complex:
    """Value at x of the polynomial through the points, by Neville's tableau.

    Six points, every window of a trajectory with six or more samples, take
    the unrolled tableau: the same operations in the same order as the loop
    (columns j = 1..5, rows from the last down to j).
    """
    if len(xs) != 6:
        p = list(ys)
        n = len(p)
        for j in range(1, n):
            for i in range(n - 1, j - 1, -1):
                p[i] = ((x - xs[i - j]) * p[i] - (x - xs[i]) * p[i - 1]) / (xs[i] - xs[i - j])
        return p[-1]
    x0, x1, x2, x3, x4, x5 = xs
    p0, p1, p2, p3, p4, p5 = ys
    d0, d1, d2, d3, d4, d5 = x - x0, x - x1, x - x2, x - x3, x - x4, x - x5
    p5 = (d4 * p5 - d5 * p4) / (x5 - x4)
    p4 = (d3 * p4 - d4 * p3) / (x4 - x3)
    p3 = (d2 * p3 - d3 * p2) / (x3 - x2)
    p2 = (d1 * p2 - d2 * p1) / (x2 - x1)
    p1 = (d0 * p1 - d1 * p0) / (x1 - x0)
    p5 = (d3 * p5 - d5 * p4) / (x5 - x3)
    p4 = (d2 * p4 - d4 * p3) / (x4 - x2)
    p3 = (d1 * p3 - d3 * p2) / (x3 - x1)
    p2 = (d0 * p2 - d2 * p1) / (x2 - x0)
    p5 = (d2 * p5 - d5 * p4) / (x5 - x2)
    p4 = (d1 * p4 - d4 * p3) / (x4 - x1)
    p3 = (d0 * p3 - d3 * p2) / (x3 - x0)
    p5 = (d1 * p5 - d5 * p4) / (x5 - x1)
    p4 = (d0 * p4 - d4 * p3) / (x4 - x0)
    return (d0 * p5 - d5 * p4) / (x5 - x0)


def painleve_residual(kind: PainleveKind, traj: ODETrajectory,
                      params: dict[str, Fraction]) -> float:
    """Maximum residual of the nonlinear equation along a trajectory.

    The lambda component is resampled on a locally uniform grid by sliding
    6-point polynomial interpolation of the adaptive output, and first and
    second derivatives come from 5-point central finite differences, so the
    meter never consults the equations that generated the trajectory.
    """
    if len(traj.samples) < 5:
        raise InsufficientSamples(
            f"need at least 5 samples, got {len(traj.samples)}")
    rhs = compile_scalar(painleve_rhs(kind, params), ("lambda", "lambdap", "t"))
    ss = [smp.s for smp in traj.samples]
    lams = [smp.y[0] for smp in traj.samples]
    t0 = traj.samples[0].x
    t1 = traj.samples[-1].x
    direction = (t1 - t0) / (ss[-1] - ss[0])
    n_grid = min(4097, max(513, 2 * len(ss)))
    h = (ss[-1] - ss[0]) / (n_grid - 1)
    grid = [ss[0] + i * h for i in range(n_grid)]
    last = len(ss) - 6
    vals = []
    for x in grid:
        lo = max(0, min(bisect.bisect_left(ss, x) - 3, last))
        vals.append(_neville(ss[lo:lo + 6], lams[lo:lo + 6], x))
    h12, h12h = 12 * h, 12 * h * h
    dir2 = direction * direction
    worst = 0.0
    for i in range(2, n_grid - 2):
        lam = vals[i]
        d1 = (-vals[i + 2] + 8 * vals[i + 1] - 8 * vals[i - 1] + vals[i - 2]) / h12
        d2 = (-vals[i + 2] + 16 * vals[i + 1] - 30 * vals[i] + 16 * vals[i - 1]
              - vals[i - 2]) / h12h
        lam_t = d1 / direction
        lam_tt = d2 / dir2
        t_here = t0 + (grid[i] - ss[0]) * direction
        res = abs(lam_tt - rhs(lam, lam_t, t_here))
        worst = max(worst, res)
    return worst
