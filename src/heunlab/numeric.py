"""Floating-point companion: integrate the equations and measure residuals.

The symbolic modules prove identities; this one witnesses them numerically.
It integrates second-order linear equations along polyline paths in the
complex plane, first-order (Riccati-type) reductions and Hamiltonian flows
over ranges of the deformation parameter, and measures residuals of the
nonlinear equations along trajectories with finite differences.

Integrator: the Dormand-Prince embedded 5(4) pair with PI step-size control.
All state is held as plain complex scalars (the systems here have one or two
components), so no array machinery is needed.  One generator (``_compile``)
turns exact expressions into straight-line code, one statement per sum of
terms: a field is one function ``field(x, y0, ..., y{n-1})`` that returns the
tuple dy/dx.  Each sum takes its terms in the kernel's graded-lex order, the
highest first, so a compiled function depends only on the expression's
value.  The stepper is generated from the tableau for each state size n and
number type, on first use: its state components and stage values are scalar
locals, each stage calls the field once, and its stage sums round bit for bit
as the tableau rows summed term by term would.

Real-axis runs.  Both generators take the number type as a parameter, and
emit a complex form and a float form of the same code.  A complex run that
starts on the real axis keeps every imaginary part a zero while its values
are finite (+0.0 in the state, whose sums start from ``0j``), and complex
``+ - * /`` and ``abs`` then round each real part exactly as the float
operation does: the imaginary parts only add or subtract zeros, which can
change the sign of an exact zero and nothing else.  The one operation that
rounds otherwise is ``complex ** k``, which CPython computes by binary
powering from the low bit up (``c_powu``): the float form writes out that
chain of products, where libm's ``pow`` would round differently.  An
integration whose waypoints and initial values all have imaginary part +0.0
therefore runs in the float form, and gives every sample, error estimate and
flag that the complex form gives.  Where the two could part, the float run
hands the whole integration to the complex form, which then gives its own
result, message or exception: on an ``ArithmeticError``, a non-finite error
estimate or denominator, an accepted state component that is zero or not
finite, and a step budget run out or a step size underflowed.
``_integrate_segments`` alone makes that choice: a field maker returns a
compiler of forms (``field(float)``), and a run compiles the field and gets
the stepper only in the form it runs.  A trajectory of the float form
records it (``ODETrajectory.on_real_axis``): its CSV rows write each
imaginary part as the literal ``0.0``, and ``painleve_residual`` meters in
floats exactly the trajectories that record it.

A trajectory is a list of samples (s, x, y): the arc length along the path,
the independent variable and the state at each accepted step.  The settings
of one integration are its tolerances, the distance the path keeps from every
singular point and an optional step cap (:class:`IntegrationConfig`); the step
budget and the modulus taken for a pole are module constants.  The singular
points an integration keeps clear of are the poles of the expressions it
integrates, read off their denominators by ``ode.finite_poles``.  Each is an
exact rational, rounded once to a complex; an expression with a pole that is
not rational is refused there (``OdeError``), so no pole is approximated and
the distance check cannot miss one.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from fractions import Fraction
from typing import NamedTuple

from .algebra import RationalExpr, _grlex, substitute
from .heun import HeunSpec, build_heun, build_heun_derivative
from .matching import MatchingCase
from .ode import LinearODE2, finite_poles
from .painleve import LAMBDA_LOCUS, PainleveKind, _fill_params, hamiltonian, painleve_rhs


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


class ComplexPath(NamedTuple):
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
            if not cmath.isfinite(b - a):
                raise ValueError(f"the segment {a} -> {b} spans more than the float range")
        return ComplexPath(pts)

    def segments(self) -> list[tuple[complex, complex]]:
        return list(zip(self.waypoints, self.waypoints[1:]))

    def min_distance_to(self, point: complex) -> float:
        return min(_segment_distance(a, b, point) for a, b in self.segments())


def _segment_distance(a: complex, b: complex, p: complex) -> float:
    # (p - a) / d projects p onto the segment's line without squaring |d|,
    # which overflows on far or long segments.
    d = b - a
    s = min(1.0, max(0.0, ((p - a) / d).real))
    try:
        return abs(a + s * d - p)
    except OverflowError:  # farther than the largest float
        return math.inf


#: Accepted and rejected steps one integration may take in all.
_MAX_STEPS = 200_000
#: A state component larger than this in modulus is taken for a pole.
_POLE_THRESHOLD = 1e8


class _Tolerances(NamedTuple):
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    min_distance: float = 1e-2  # from the path to every singular point
    max_step: float | None = None  # in units of the independent variable


class IntegrationConfig(_Tolerances):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "IntegrationConfig":
        self = super().__new__(cls, *args, **kwargs)
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
        return self

    @classmethod
    def _make(cls, iterable) -> "IntegrationConfig":
        # ``_replace`` builds through ``_make``: so it validates too.
        return cls(*iterable)


class Sample(NamedTuple):
    s: float                      # cumulative parameter along the path
    x: complex                    # independent variable value
    y: tuple[complex, ...]        # state


class ODETrajectory:
    __slots__ = ("samples", "pole_truncated", "max_error_estimate", "meta", "on_real_axis")

    def __init__(self, samples: list[Sample], pole_truncated: bool = False,
                 max_error_estimate: float = 0.0, meta: dict | None = None) -> None:
        self.samples = samples
        self.pole_truncated = pole_truncated
        self.max_error_estimate = max_error_estimate
        self.meta = {} if meta is None else meta
        #: Every imaginary part of the samples is +0.0: set by the float
        #: stepper alone.
        self.on_real_axis = False

    def to_csv(self) -> str:
        """One row per sample, each part the ``repr`` of its float; every
        sample has the state size of the first, which the header names."""
        n = len(self.samples[0].y) if self.samples else 0
        return _generate_csv_writer(n, self.on_real_axis)(self.samples)

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


@functools.cache
def _generate_csv_writer(n: int, real: bool):
    """The CSV text of a list of samples of ``n`` components; the real form
    writes the literal ``0.0``, the ``repr`` of +0.0, for each imaginary part."""
    ys = [f"y{m}" for m in range(n)]
    header = ",".join(["s", "re_x", "im_x", *(f"{p}_{y}" for y in ys for p in ("re", "im"))])
    row = ",".join(["{s!r}", *(f"{{{v}.real!r}}," + ("0.0" if real else f"{{{v}.imag!r}}")
                               for v in ["x", *ys])])
    source = f"""\
def write(samples):
    rows = [f"{row}" for s, x, ({"".join(f"{y}, " for y in ys)}) in samples]
    return "\\n".join(["{header}", *rows, ""])
"""
    env: dict = {}
    exec(source, env)
    return env["write"]


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


#: The zero of each number type, as the generated code writes it.
_ZERO = {complex: "0j", float: "0.0"}


class _HandOff(Exception):
    """The float form cannot vouch for its run; the complex form reruns it."""


def _on_real_axis(*values: complex) -> bool:
    """Whether every value's imaginary part is +0.0, which the complex form
    keeps (a -0.0 may not stay -0.0, and the float form could not say)."""
    return all(v.imag == 0.0 and math.copysign(1.0, v.imag) > 0 for v in values)


def _integrate_segments(compile_field, path: ComplexPath, y0: tuple[complex, ...],
                        cfg: IntegrationConfig) -> ODETrajectory:
    """Adaptive integration along a polyline of the field that
    ``compile_field(number)`` compiles, ``(x, *y) -> dy/dx`` in ``number``.

    When every waypoint and initial value has imaginary part +0.0, the float
    form runs first; if it hands off, the complex form runs the whole
    integration again.  Each form's field and stepper are built only when it
    runs, and a float overflow in either becomes a :class:`NumericError`.
    """
    try:
        state = [complex(v) for v in y0]
        if _on_real_axis(*path.waypoints, *state):
            try:
                return _generate_stepper(len(state), float)(
                    compile_field(float), [p.real for p in path.waypoints],
                    [v.real for v in state], cfg)
            except (ArithmeticError, StiffnessAbort, _HandOff):
                pass  # the complex form runs the whole integration again
        return _generate_stepper(len(state), complex)(compile_field(complex),
                                                      path.waypoints, state, cfg)
    except OverflowError as exc:
        raise NumericError(f"float overflow while integrating: {exc}") from None


@functools.cache
def _generate_stepper(n: int, number: type):
    """Generate the Dormand-Prince stepper in ``number`` for states of ``n``
    components: the complex form and the float form, from one template.

    Every state component and stage value is a scalar local, and each stage
    calls the field once.  Each stage sum starts from the zero of its number
    type and keeps the tableau's zero entries, as a ``sum`` over the row
    would, so every rounding and the sign of every zero are the row-by-row
    form's.  The last row of ``_DP_A`` is the fifth-order weights (first same
    as last): the new state reuses that stage's sum, and the last stage's
    value is the next step's first.

    The weights are bound in the number type, as ``complex(v)`` in the
    complex form: CPython before 3.14 promotes a float or int operand of a
    complex operation to ``complex(v, 0.0)`` first, so each product and sum
    is the one the float weight and the ``sum``'s int start give (3.14
    computes mixed operations on the parts; the differential tests would
    show it).  Each ``min`` and ``max`` of the step-size control is written
    as the comparison the builtin makes, NaN included.  A NaN error estimate
    rejects the step and shrinks h fivefold; when h underflows after one,
    the error says that the field is not finite.

    The float form (see the module docstring) hands off (``_HandOff``) where
    the forms could part: on an error estimate that is not finite and on an
    accepted state component that is zero or not finite.  It builds each
    sample's values as ``complex(v, 0.0)`` and sets the trajectory's
    ``on_real_axis``.  Both forms build a ``Sample`` by ``tuple.__new__``,
    without the frame of its Python ``__new__``.  The stepper is
    ``stepper(field_fn, points, state, cfg)`` over the waypoints and the
    initial state in its number type; it binds ``_MAX_STEPS`` when built.
    """
    real = number is float
    ms = range(n)
    env = {"Sample": Sample, "new": tuple.__new__, "ODETrajectory": ODETrajectory,
           "StiffnessAbort": StiffnessAbort, "_HandOff": _HandOff,
           "sqrt": math.sqrt, "isfinite": math.isfinite, "inf": math.inf,
           "_MAX_STEPS": _MAX_STEPS, "_POLE_THRESHOLD": _POLE_THRESHOLD}
    env.update({f"c{i + 1}": c for i, c in enumerate(_DP_C)})
    env.update({f"a{i + 1}{j + 1}": number(v) for i, row in enumerate(_DP_A)
                for j, v in enumerate(row)})
    env.update({f"b{j + 1}": number(v) for j, v in enumerate(_DP_B5)})
    env.update({f"e{j + 1}": number(v) for j, v in enumerate(_DP_E)})
    zero = _ZERO[number]

    def stage_sum(coeff: str, row, m: int) -> str:
        # coeff names the row's entries: coeff + "1", coeff + "2", ...
        return " + ".join([zero, *(f"{coeff}{j + 1} * k{j + 1}_{m}"
                                   for j in range(len(row)))])

    def call(i: int, x: str, args) -> list[str]:
        ks = [f"k{i}_{m}" for m in ms]
        return [f"{', '.join(ks)}, = field_fn({x}, {', '.join(args)})",
                *(f"{k} = seg * {k}" for k in ks)]

    def boxed(value: str) -> str:
        return f"complex({value}, 0.0)" if real else value

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
        # v if v > u else u is max(u, v) without the call, as every
        # comparison below stands for the min or max that it replaces
        step += [f"u = abs(y{m})", f"v = abs(z{m})",
                 f"d{m} = abs(h * ({stage_sum('e', _DP_E, m)}))"
                 f" / (atol + rtol * (v if v > u else u))"]
    step.append(f"err = sqrt(({' + '.join(['0', *(f'd{m} * d{m}' for m in ms)])}) / {n})")
    if real:
        step += ["if not err < inf:", "    raise _HandOff"]
    accept = [f"y{m} = z{m}" for m in ms]
    if real:
        accept += [f"if not ({' and '.join(f'y{m} and isfinite(y{m})' for m in ms)}):",
                   "    raise _HandOff"]
    # a tuple display over the components, a trailing comma for n = 1
    ys = "".join(["(", *(f"{boxed(f'y{m}')}, " for m in ms), ")"])
    source = f"""\
def stepper(field_fn, points, state, cfg):
    atol, rtol, max_step = cfg.abs_tol, cfg.rel_tol, cfg.max_step
    samples = []
    {', '.join(f"y{m}" for m in ms)}, = state
    s_off = 0.0
    steps = 0
    max_err = err = 0.0
    truncated = False
    for a, b in zip(points, points[1:]):
        seg = b - a
        seg_len = abs(seg)
        s = 0.0
        h = 1e-3
        cap = None if max_step is None else max_step / seg_len
        if cap is not None and cap < h:
            h = cap
        err_old = 1e-4
        # Stages are d y / d s = seg * d y / d x along the segment.
{_indent(call(1, "a + s * seg", [f"y{m}" for m in ms]), 8)}
        if not samples:
            samples.append(new(Sample, (0.0, {boxed("a")}, {ys})))
        while s < 1.0:
            if steps >= _MAX_STEPS:
                raise StiffnessAbort("step budget exhausted")
            steps += 1
            rest = 1.0 - s
            if rest < h:
                h = rest
            if h < 1e-13:
                raise StiffnessAbort(f"step size underflow at s = {{s:.6f}}"
                                     + ("; the field is not finite" if err != err else ""))
{_indent(step, 12)}
            if err <= 1.0:
                s += h
{_indent(accept, 16)}
{_indent([f"k1_{m} = k{last}_{m}" for m in ms], 16)}
                if err > max_err:
                    max_err = err
                samples.append(new(Sample, (s_off + s * seg_len,
                                            {boxed("a + s * seg")}, {ys})))
                if {' or '.join(f"abs(y{m}) > _POLE_THRESHOLD" for m in ms)}:
                    samples.pop()
                    truncated = True
                    break
                fac = 0.9 * err ** -0.14 * err_old ** 0.08 if err > 0 else 5.0
                err_old = 1e-10 if 1e-10 > err else err
            else:
                fac = 0.9 * err ** -0.2
            # the factor of either branch clamped to [0.2, 5.0]
            fac = fac if fac > 0.2 else 0.2
            h *= fac if fac < 5.0 else 5.0
            if cap is not None and cap < h:
                h = cap
        if truncated:
            break
        s_off += seg_len
    traj = ODETrajectory(samples, pole_truncated=truncated, max_error_estimate=max_err)
    traj.on_real_axis = {real}
    return traj
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


def _emit_quotient(expr: RationalExpr, arg: dict[str, str], env: dict,
                   powers: set[str], number: type) -> tuple[list[str], str]:
    """Generated lines that evaluate ``expr``, and the quotient that ends it.

    ``arg`` maps each indeterminate to the name it has in the generated
    code, and ``number`` is the number type the code computes in.  The lines
    leave the numerator in ``num`` and the denominator in ``den`` (a constant
    denominator stays a name in ``env``); each is a sum of the polynomial's
    terms onto the zero of ``number``, each term its coefficient times the
    power ``x ** k`` of every nonzero exponent.  The terms come in graded-lex
    order (``algebra._grlex``), the highest first, the order ``str`` prints:
    the order in which the term map holds them never reaches the sum.  The
    coefficients reach the generated code as objects of ``number`` in
    ``env``, never as printed numbers.

    Each distinct power is computed once per generated function, in the
    local ``x_k`` right before the first statement that uses it; ``powers``
    names the locals that earlier lines of the function have assigned.  Only
    a power (``OverflowError``) and a quotient (``ZeroDivisionError``) can
    raise, so placing a statement's new powers right before it, not all at
    the top, keeps the first operation that fails that of the in-place form.

    The float form writes each power as the product chain of ``c_powu``
    (``_float_power``), which never raises, and raises ``FloatingPointError``
    on a denominator that is not finite: a quotient by it can be finite in
    floats where the complex form has NaN parts or has raised.
    """
    extra = expr.names() - set(arg)
    if extra:
        raise ValueError(f"expression still involves {sorted(extra)}")
    zero = _ZERO[number]

    def power(x: str, k: int, first: list[str]) -> str:
        if number is float:
            return _float_power(x, k, powers, first)
        local = f"{x}_{k}"
        if local not in powers:
            powers.add(local)
            first.append(f"{local} = {x} ** {k}")
        return local

    def assign(target: str, p) -> list[str]:
        terms, new = [], []  # new[i]: the powers that term i uses first
        for e in sorted(p.terms, key=_grlex, reverse=True):
            key = f"c{len(env)}"
            env[key] = number(p.terms[e] / p.den)
            factors, first = [key], []
            for n, k in zip(p.names, e):
                if k:
                    factors.append(power(arg[n], k, first))
            terms.append(" * ".join(factors))
            new.append(first)
        lines, acc = [], zero
        for i in range(0, len(terms), _TERMS_PER_STATEMENT):
            chunk = slice(i, i + _TERMS_PER_STATEMENT)
            lines += [line for first in new[chunk] for line in first]
            lines.append(f"{target} = {' + '.join([acc, *terms[chunk]])}")
            acc = target
        return lines or [f"{target} = {zero}"]

    lines = assign("num", expr.num)
    if expr.den.is_const():
        den = f"c{len(env)}"
        env[den] = number(expr.den.const_value())
        return lines, f"num / {den}"
    lines += assign("den", expr.den)
    if number is float:
        lines += ["if den - den:", "    raise FloatingPointError"]  # inf or NaN
    return lines, "num / den"


def _float_power(x: str, k: int, powers: set[str], lines: list[str]) -> str:
    """The name that holds ``x ** k`` in the float form, rounded as CPython's
    ``complex ** k`` rounds the real part of an operand on the real axis.

    ``c_powu`` forms the squares ``p = x, x ** 2, x ** 4, ...`` and
    multiplies ``r = 1`` by the square of each set bit of ``k``, the lowest
    bit first.  ``1 * p`` is ``p``, so ``x ** k`` is ``x ** (k - top) *
    x ** top`` with ``top`` the highest set bit, and ``x ** top`` is the
    square of ``x ** (top // 2)``: ``x ** 3`` is ``x * (x * x)`` and
    ``x ** 4`` is ``(x * x) * (x * x)``.  Each power missing from ``powers``
    is assigned, after its factors, in ``lines``.
    """
    if k == 1:
        return x
    local = f"{x}_{k}"
    if local not in powers:
        top = 1 << (k.bit_length() - 1)
        if k == top:
            left = right = _float_power(x, top // 2, powers, lines)
        else:
            left = _float_power(x, k - top, powers, lines)
            right = _float_power(x, top, powers, lines)
        powers.add(local)
        lines.append(f"{local} = {left} * {right}")
    return local


def _compile(params: tuple[str, ...], arg: dict[str, str],
             values: dict[str, RationalExpr], result: str, number: type = complex):
    """One function of ``params`` that returns ``result``, computed in
    ``number``.

    Each entry of ``values`` binds a name to the quotient of its expression
    (``_emit_quotient``), whose indeterminates ``arg`` maps to parameters.
    """
    env: dict = {}
    powers: set[str] = set()
    body = []
    for name, expr in values.items():
        lines, quotient = _emit_quotient(expr, arg, env, powers, number)
        body += [*lines, f"{name} = {quotient}"]
    source = "\n".join([f"def compiled({', '.join(params)}):",
                        _indent([*body, f"return {result}"], 4)])
    exec(source, env)
    return env["compiled"]


def compile_scalar(expr: RationalExpr, names: tuple[str, ...], number: type = complex):
    """Compile a rational expression into a function computed in ``number``.

    The expression may only involve the given indeterminates; parameters must
    already be bound exactly.  The function takes one positional argument per
    name and returns ``num / den`` evaluated by generated straight-line code.
    Its float form (``number=float``) takes and returns floats, and raises an
    ``ArithmeticError`` where the complex form's result could differ.
    """
    arg = {n: f"x{i}" for i, n in enumerate(names)}
    return _compile(tuple(arg.values()), arg, {"value": expr}, "value", number)


def _linear_field(ode: LinearODE2):
    """The field of v'' + p1 v' + p2 v = 0 in the state (v, v')."""
    return functools.partial(_compile, ("x", "y0", "y1"), {ode.var: "x"},
                             {"P1": ode.p1, "P2": ode.p2}, "(y1, -P1 * y1 - P2 * y0)")


def _riccati_field(rhs: RationalExpr):
    """The field of lambda' = rhs(lambda, t) in the state (lambda,)."""
    return functools.partial(_compile, ("x", "y0"), {"lambda": "y0", "t": "x"},
                             {"R": rhs}, "(R,)")


def _hamiltonian_field(dh_dmu: RationalExpr, dh_dlam: RationalExpr):
    """The flow lambda' = dH/dmu, mu' = -dH/dlambda in the state (lambda, mu)."""
    return functools.partial(_compile, ("x", "y0", "y1"),
                             {"lambda": "y0", "mu": "y1", "t": "x"},
                             {"DMU": dh_dmu, "DLAM": dh_dlam}, "(DMU, -DLAM)")


# ---------------------------------------------------------------------------
# Singularity geometry
# ---------------------------------------------------------------------------


def _poles(exprs: tuple[RationalExpr, ...], x: str) -> list[complex]:
    """The poles in ``x`` of the expressions, in the order of ``finite_poles``.

    A pole past the float range is a :class:`NumericError`; ``finite_poles``
    refuses a pole that is not rational (``OdeError``).
    """
    try:
        return [complex(p) for p in finite_poles(exprs, x)]
    except OverflowError as exc:
        raise NumericError(f"float overflow at a singular point: {exc}") from None


def ode_singularities(ode: LinearODE2) -> list[complex]:
    """Finite singular points as complex numbers, in increasing order."""
    return _poles((ode.p1, ode.p2), ode.var)


def _check_path_distance(path: ComplexPath, points: list[complex],
                         min_dist: float) -> None:
    for p in points:
        d = path.min_distance_to(p)
        # Negated, so that a NaN distance is refused too.
        if not d >= min_dist:
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
    # the coefficients in the order the formulas first use them
    coefficients = _compile(("x",), {z: "x"}, {
        "A1": base.p1, "A2": base.p2, "D1": base.p1.derivative(z),
        "D2": base.p2.derivative(z), "Q1": derived.p1, "Q2": derived.p2,
    }, "A1, A2, D1, D2, Q1, Q2")
    worst = 0.0
    for smp in traj.samples:
        u, up = smp.y
        a1, a2, d1, d2, q1, q2 = coefficients(smp.x)
        upp = -a1 * up - a2 * u
        uppp = -(d1 * up + a1 * upp + d2 * u + a2 * up)
        terms = (uppp, q1 * upp, q2 * up)
        scale = sum(abs(c) for c in terms) + 1e-300
        worst = max(worst, abs(sum(terms)) / scale)
    return worst


# ---------------------------------------------------------------------------
# Riccati reductions and Hamiltonian flows
# ---------------------------------------------------------------------------


def _check_lambda0(kind: PainleveKind, lam0: complex, path: ComplexPath,
                   cfg: IntegrationConfig) -> None:
    for s in LAMBDA_LOCUS[kind]:
        if s == "t":
            if not path.min_distance_to(lam0) >= cfg.min_distance:
                raise PathTooClose(
                    "initial position sits on the moving singular value t")
        elif not abs(lam0 - complex(Fraction(s))) >= cfg.min_distance:
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
    bind = _fill_params(case.painleve_kind, params)
    cond = substitute(case.condition, bind)
    if not cond.is_zero():
        raise ConditionNotSatisfied(
            f"condition {case.condition} = {cond} does not vanish at {params}")
    path = ComplexPath.of(*t_range)
    # The rhs before binding: the condition may cancel a fixed singular value.
    _check_path_distance(path, _poles((case.riccati_rhs,), "t"), cfg.min_distance)
    _check_lambda0(case.painleve_kind, complex(lam0), path, cfg)
    traj = _integrate_segments(_riccati_field(substitute(case.riccati_rhs, bind)), path,
                               (complex(lam0),), cfg)
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
    path = ComplexPath.of(*t_range)
    _check_path_distance(path, _poles((ham.dH_dmu, ham.dH_dlam), "t"), cfg.min_distance)
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

    A trajectory of five samples, too few for a 6-point window, interpolates
    through all five.  The value of t at each grid point is read off the
    straight line from the first sample's x to the last one's, in proportion
    to arc length: on a path with corners it is not the path's own x.

    A trajectory that records the real axis (``on_real_axis``) is metered in
    floats first (see the module docstring), and handed off to the complex
    form on an ``ArithmeticError`` or a point residual that is not finite.
    Any other trajectory is metered in the complex form, which gives the
    same result by the bit-for-bit rule, only slower.
    """
    samples = traj.samples
    if len(samples) < 5:
        raise InsufficientSamples(f"need at least 5 samples, got {len(samples)}")
    expr = substitute(painleve_rhs(kind), _fill_params(kind, params))
    names = ("lambda", "lambdap", "t")
    ss = [smp.s for smp in samples]
    t0, t1 = samples[0].x, samples[-1].x
    if traj.on_real_axis:
        try:
            worst, finite = _meter(compile_scalar(expr, names, float), ss,
                                   [smp.y[0].real for smp in samples], t0.real, t1.real, float)
        except ArithmeticError:
            finite = False
        if finite:
            return worst
    return _meter(compile_scalar(expr, names), ss, [smp.y[0] for smp in samples],
                  t0, t1, complex)[0]


def _meter(rhs, ss: list[float], lams: list, t0, t1, number: type) -> tuple[float, bool]:
    """The largest point residual, and whether every point residual is finite
    (a NaN one is no maximum), computed in ``number``.

    The window of each grid point x starts at
    ``max(0, min(bisect_left(ss, x) - 3, len(ss) - 6))``.  The arc lengths
    ``ss`` of a trajectory never decrease, and neither does the grid, so the
    window's start only walks forward and is found by stepping it, not by a
    search.  The stencil keeps its five values in locals, and its constants
    are the ``number`` values that an int or float operand of the complex
    states is promoted to.
    """
    direction = (t1 - t0) / (ss[-1] - ss[0])
    n_grid = min(4097, max(513, 2 * len(ss)))
    h = (ss[-1] - ss[0]) / (n_grid - 1)
    grid = [ss[0] + i * h for i in range(n_grid)]
    # ss[lo + 3] < x while lo + 3 < bisect_left(ss, x)
    last = len(ss) - 6
    lo = 0
    xs, ys = ss[:6], lams[:6]
    vals = []
    for x in grid:
        if lo < last and ss[lo + 3] < x:
            lo += 1
            while lo < last and ss[lo + 3] < x:
                lo += 1
            xs, ys = ss[lo:lo + 6], lams[lo:lo + 6]
        vals.append(_neville(xs, ys, x))
    h12, h12h = number(12 * h), number(12 * h * h)
    c8, c16, c30 = number(8), number(16), number(30)
    dir2 = direction * direction
    s0 = ss[0]
    worst = 0.0
    finite = True
    vm2, vm1, lam, v1 = vals[:4]
    for v2, x in zip(vals[4:], grid[2:]):
        d1 = (-v2 + c8 * v1 - c8 * vm1 + vm2) / h12
        d2 = (-v2 + c16 * v1 - c30 * lam + c16 * vm1 - vm2) / h12h
        lam_t = d1 / direction
        lam_tt = d2 / dir2
        res = abs(lam_tt - rhs(lam, lam_t, t0 + (x - s0) * direction))
        if not res <= worst:  # a new maximum, or NaN
            if res == res:
                worst = res
            else:
                finite = False
        vm2, vm1, lam, v1 = vm1, lam, v1, v2
    return worst, finite and worst < math.inf
