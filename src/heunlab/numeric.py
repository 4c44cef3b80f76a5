"""Floating-point companion: integrate the equations and measure residuals.

The symbolic modules prove identities; this one witnesses them numerically.
It integrates second-order linear equations along polyline paths in the
complex plane, first-order (Riccati-type) reductions and Hamiltonian flows
over ranges of the deformation parameter, and measures residuals of the
nonlinear equations along trajectories with finite differences.

Integrator: the Dormand-Prince embedded 5(4) pair with PI step-size control.
All state is held as plain complex scalars (the systems here have one or two
components), so no array machinery is needed.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import RationalExpr, substitute
from .heun import HeunSpec, build_heun, build_heun_derivative
from .matching import MatchingCase
from .ode import INFINITY, LinearODE2, singular_points
from .painleve import (
    FLOW_T_SINGULARITIES,
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


@dataclass(frozen=True)
class IntegrationConfig:
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_steps: int = 200_000
    min_singularity_distance: float = 1e-2
    max_step: float | None = None  # in units of the independent variable
    pole_threshold: float = 1e8


@dataclass(frozen=True)
class Sample:
    s: float                      # cumulative parameter along the path
    x: complex                    # independent variable value
    y: tuple[complex, ...]        # state
    dy: tuple[complex, ...]       # state derivative d y / d x


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


def _integrate_segments(field_fn, path: ComplexPath, y0: tuple[complex, ...],
                        cfg: IntegrationConfig) -> ODETrajectory:
    """Adaptive integration along a polyline; field_fn(x, y) -> dy/dx."""
    samples: list[Sample] = []
    y = tuple(complex(v) for v in y0)
    s_off = 0.0
    steps = 0
    max_err = 0.0
    truncated = False
    k1 = None
    for a, b in path.segments():
        seg = b - a
        seg_len = abs(seg)

        def f(s: float, ys: tuple[complex, ...]) -> tuple[complex, ...]:
            dy = field_fn(a + s * seg, ys)
            return tuple(seg * c for c in dy)

        s = 0.0
        h = min(1e-3, 1.0)
        if cfg.max_step is not None:
            h = min(h, cfg.max_step / seg_len)
        err_old = 1e-4
        k1 = f(s, y)
        if not samples:
            samples.append(Sample(0.0, a, y, tuple(c / seg for c in k1)))
        while s < 1.0:
            if steps >= cfg.max_steps:
                raise StiffnessAbort("step budget exhausted")
            steps += 1
            h = min(h, 1.0 - s)
            if h < 1e-13:
                raise StiffnessAbort(f"step size underflow at s = {s:.6f}")
            k = [k1]
            for i in range(1, 7):
                yi = tuple(
                    yv + h * sum(_DP_A[i][j] * k[j][m] for j in range(i))
                    for m, yv in enumerate(y))
                k.append(f(s + _DP_C[i] * h, yi))
            y_new = tuple(
                yv + h * sum(_DP_B5[j] * k[j][m] for j in range(7))
                for m, yv in enumerate(y))
            err_terms = [
                abs(h * sum(_DP_E[j] * k[j][m] for j in range(7)))
                / (cfg.abs_tol + cfg.rel_tol * max(abs(y[m]), abs(y_new[m])))
                for m in range(len(y))
            ]
            err = math.sqrt(sum(e * e for e in err_terms) / len(err_terms))
            if err <= 1.0:
                s += h
                y = y_new
                k1 = k[6]  # first-same-as-last
                max_err = max(max_err, err)
                x_here = a + s * seg
                samples.append(Sample(
                    s_off + s * seg_len, x_here, y,
                    tuple(c / seg for c in k1)))
                if any(abs(c) > cfg.pole_threshold for c in y):
                    samples.pop()
                    truncated = True
                    break
                fac = 0.9 * (err ** -0.14 if err > 0 else 5.0) * err_old ** 0.08
                err_old = max(err, 1e-10)
            else:
                fac = max(0.2, 0.9 * err ** -0.2)
            h *= min(5.0, max(0.2, fac))
            if cfg.max_step is not None:
                h = min(h, cfg.max_step / seg_len)
        if truncated:
            break
        s_off += seg_len
    return ODETrajectory(samples, pole_truncated=truncated,
                         max_error_estimate=max_err)


# ---------------------------------------------------------------------------
# Compiling exact coefficients into fast numeric callables
# ---------------------------------------------------------------------------


def compile_scalar(expr: RationalExpr, names: tuple[str, ...]):
    """Compile a rational expression into a complex-valued function.

    The expression may only involve the given indeterminates; parameters must
    already be bound exactly.
    """
    extra = expr.names() - set(names)
    if extra:
        raise ValueError(f"expression still involves {sorted(extra)}")
    pos = {n: i for i, n in enumerate(names)}

    def compile_poly(p):
        idx = [pos[n] for n in p.names]
        terms = [(complex(c), tuple(zip(idx, e))) for e, c in p.terms.items()]

        def ev(args: tuple[complex, ...]) -> complex:
            total = 0j
            for c, packed in terms:
                v = c
                for i, k in packed:
                    if k:
                        v *= args[i] ** k
                total += v
            return total

        return ev

    num = compile_poly(expr.num)
    den = compile_poly(expr.den)
    if expr.den.is_const():
        d = complex(expr.den.const_value())

        def fast(*args: complex) -> complex:
            return num(args) / d

        return fast

    def full(*args: complex) -> complex:
        return num(args) / den(args)

    return full


def _bind_params(expr: RationalExpr, params: dict[str, Fraction]) -> RationalExpr:
    return substitute(expr, {k: RationalExpr.const(Fraction(v)) for k, v in params.items()})


# ---------------------------------------------------------------------------
# Singularity geometry
# ---------------------------------------------------------------------------


def _roots_of_poly(mp, name: str) -> list[complex]:
    """All complex roots of a univariate polynomial, Durand-Kerner iteration."""
    deg = mp.degree_in(name)
    if deg == 0:
        return []
    coeffs = [0j] * (deg + 1)
    i = mp.names.index(name)
    for e, c in mp.terms.items():
        coeffs[e[i]] += complex(c)
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
    _check_path_distance(path, ode_singularities(ode), cfg.min_singularity_distance)
    p1 = compile_scalar(ode.p1, (ode.var,))
    p2 = compile_scalar(ode.p2, (ode.var,))

    def fieldfn(x: complex, y: tuple[complex, ...]) -> tuple[complex, ...]:
        v, vp = y
        return (vp, -p1(x) * vp - p2(x) * v)

    return _integrate_segments(fieldfn, path, init, cfg)


def verify_derivative_numeric(spec: HeunSpec, path: ComplexPath,
                              cfg: IntegrationConfig = IntegrationConfig(),
                              init: tuple[complex, complex] = (1.0, 1.0)) -> float:
    """Numeric witness that u' solves the closed-form derivative equation.

    Integrates the base equation for u, forms the derivative-equation
    residual pointwise using v = u', v' = u'' and v'' = u''' (both obtained
    by differentiating the base equation, never by finite differences), and
    returns the maximum relative residual along the path.
    """
    base = build_heun(spec)
    derived = build_heun_derivative(spec)
    # The base equation's singular points are checked by integrate_linear.
    _check_path_distance(path, ode_singularities(derived), cfg.min_singularity_distance)
    traj = integrate_linear(base, path, init, cfg)
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
    _check_path_distance(path, [complex(v) for v in fixed],
                         cfg.min_singularity_distance)


def _check_lambda0(kind: PainleveKind, lam0: complex, path: ComplexPath,
                   cfg: IntegrationConfig) -> None:
    for s in LAMBDA_LOCUS[kind]:
        if s == "t":
            if path.min_distance_to(lam0) < cfg.min_singularity_distance:
                raise PathTooClose(
                    "initial position sits on the moving singular value t")
        elif abs(lam0 - complex(Fraction(s))) < cfg.min_singularity_distance:
            raise PathTooClose(f"initial position too close to {s}")


def integrate_riccati(case: MatchingCase, params: dict[str, Fraction],
                      t_range: tuple[complex, complex], lam0: complex,
                      cfg: IntegrationConfig = IntegrationConfig()) -> ODETrajectory:
    """Integrate the case's first-order reduction with the condition enforced.

    ``params`` must satisfy the case's parameter condition exactly; blow-up of
    the solution (a movable pole) truncates the trajectory and sets the pole
    flag instead of failing.
    """
    cond = _bind_params(case.condition, params)
    if not cond.is_zero():
        raise ConditionNotSatisfied(
            f"condition {case.condition} = {cond} does not vanish at {params}")
    path = _t_path(t_range)
    _check_t_range(case.painleve_kind, path, cfg)
    _check_lambda0(case.painleve_kind, complex(lam0), path, cfg)
    rhs = compile_scalar(_bind_params(case.riccati_rhs, params), ("lambda", "t"))

    def fieldfn(x: complex, y: tuple[complex, ...]) -> tuple[complex, ...]:
        return (rhs(y[0], x),)

    traj = _integrate_segments(fieldfn, path, (complex(lam0),), cfg)
    traj.meta["kind"] = case.painleve_kind.value
    return traj


def integrate_hamiltonian(kind: PainleveKind, params: dict[str, Fraction],
                          init: tuple[complex, complex],
                          t_range: tuple[complex, complex],
                          cfg: IntegrationConfig = IntegrationConfig(),
                          *, h2_literal: bool = False) -> ODETrajectory:
    """Integrate the Hamiltonian flow in (lambda, mu) over a t-range."""
    ham = hamiltonian(kind, h2_literal=h2_literal)
    path = _t_path(t_range)
    extra = (Fraction(0),) if (h2_literal and kind is PainleveKind.P2) else ()
    _check_t_range(kind, path, cfg, extra)
    dmu = compile_scalar(_bind_params(ham.dH_dmu, params), ("lambda", "mu", "t"))
    dlam = compile_scalar(_bind_params(ham.dH_dlam, params), ("lambda", "mu", "t"))

    def fieldfn(x: complex, y: tuple[complex, ...]) -> tuple[complex, ...]:
        lam, mu = y
        return (dmu(lam, mu, x), -dlam(lam, mu, x))

    traj = _integrate_segments(fieldfn, path, init, cfg)
    traj.meta["kind"] = kind.value
    return traj


# ---------------------------------------------------------------------------
# Residual of the nonlinear equation along a trajectory
# ---------------------------------------------------------------------------


def _neville(xs: list[float], ys: list[complex], x: float) -> complex:
    p = list(ys)
    n = len(p)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            p[i] = ((x - xs[i - j]) * p[i] - (x - xs[i]) * p[i - 1]) / (xs[i] - xs[i - j])
    return p[-1]


def painleve_residual(kind: PainleveKind, traj: ODETrajectory,
                      params: dict[str, Fraction], *,
                      p5_literal: bool = False) -> float:
    """Maximum residual of the nonlinear equation along a trajectory.

    The lambda component is resampled on a locally uniform grid by sliding
    6-point polynomial interpolation of the adaptive output, and first and
    second derivatives come from 5-point central finite differences, so the
    meter never consults the equations that generated the trajectory.
    """
    if len(traj.samples) < 5:
        raise InsufficientSamples(
            f"need at least 5 samples, got {len(traj.samples)}")
    rhs = compile_scalar(_bind_params(painleve_rhs(kind, p5_literal=p5_literal), params),
                         ("lambda", "lambdap", "t"))
    ss = [smp.s for smp in traj.samples]
    lams = [smp.y[0] for smp in traj.samples]
    t0 = traj.samples[0].x
    t1 = traj.samples[-1].x
    direction = (t1 - t0) / (ss[-1] - ss[0])
    n_grid = min(4097, max(513, 2 * len(ss)))
    h = (ss[-1] - ss[0]) / (n_grid - 1)
    grid = [ss[0] + i * h for i in range(n_grid)]

    def interp(x: float) -> complex:
        j = bisect.bisect_left(ss, x)
        lo = max(0, min(j - 3, len(ss) - 6))
        return _neville(ss[lo:lo + 6], lams[lo:lo + 6], x)

    vals = [interp(x) for x in grid]
    worst = 0.0
    for i in range(2, n_grid - 2):
        lam = vals[i]
        d1 = (-vals[i + 2] + 8 * vals[i + 1] - 8 * vals[i - 1] + vals[i - 2]) / (12 * h)
        d2 = (-vals[i + 2] + 16 * vals[i + 1] - 30 * vals[i] + 16 * vals[i - 1]
              - vals[i - 2]) / (12 * h * h)
        lam_t = d1 / direction
        lam_tt = d2 / (direction * direction)
        t_here = t0 + (grid[i] - ss[0]) * direction
        res = abs(lam_tt - rhs(lam, lam_t, t_here))
        worst = max(worst, res)
    return worst
