"""Differential tests: the numeric hot paths against their plain references.

``numeric._integrate_segments`` runs the Dormand-Prince step as straight-line
code and ``numeric.compile_scalar`` generates one expression per polynomial.
Both must perform the same floating-point operations in the same order as
the plain forms kept below (a list of stages summed with ``sum`` and a
term-by-term loop over the terms in graded-lex order, the highest first), so
every value is compared bit for bit: with ``==`` and through ``repr``, which
also tells the sign of a zero.
"""

from __future__ import annotations

import bisect
import dis
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from heunlab import claims, numeric
from heunlab.algebra import MultiPoly, RationalExpr, const, substitute, var
from heunlab.heun import HeunFamily, HeunSpec, build_heun, build_heun_derivative
from heunlab.matching import matching_case
from heunlab.numeric import (
    ComplexPath,
    IntegrationConfig,
    ODETrajectory,
    Sample,
    StiffnessAbort,
    _MAX_STEPS,
    _POLE_THRESHOLD,
    _neville,
    compile_scalar,
    integrate_hamiltonian,
    integrate_linear,
    integrate_riccati,
)
from heunlab.ode import LinearODE2
from heunlab.painleve import KIND_PARAMS, PainleveKind, hamiltonian, painleve_rhs

# ---------------------------------------------------------------------------
# Reference stepper: the Dormand-Prince 5(4) pair with a growing list of
# stages, each stage sum formed by ``sum`` over the tableau row.
# ---------------------------------------------------------------------------

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


def reference_integrate_segments(field_fn, path, y0, cfg):
    samples = []
    y = tuple(complex(v) for v in y0)
    s_off = 0.0
    steps = 0
    max_err = 0.0
    truncated = False
    for a, b in path.segments():
        seg = b - a
        seg_len = abs(seg)

        def f(s, ys):
            dy = field_fn(a + s * seg, *ys)
            return tuple(seg * c for c in dy)

        s = 0.0
        h = 1e-3
        if cfg.max_step is not None:
            h = min(h, cfg.max_step / seg_len)
        err_old = 1e-4
        k1 = f(s, y)
        if not samples:
            samples.append(Sample(0.0, a, y))
        while s < 1.0:
            if steps >= _MAX_STEPS:
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
                k1 = k[6]
                max_err = max(max_err, err)
                samples.append(Sample(s_off + s * seg_len, a + s * seg, y))
                if any(abs(c) > _POLE_THRESHOLD for c in y):
                    samples.pop()
                    truncated = True
                    break
                fac = 0.9 * err ** -0.14 * err_old ** 0.08 if err > 0 else 5.0
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


def _general_witness(path=None, init=(1.0, 1.0)):
    params, waypoints = claims.DERIVATIVE_WITNESSES[HeunFamily.GENERAL]
    spec = HeunSpec.of(HeunFamily.GENERAL, **params)
    return lambda: integrate_linear(build_heun(spec), path or ComplexPath.of(*waypoints),
                                    init)


def _hamiltonian_witness(kind):
    params, init, t_range = claims.HAMILTONIAN_WITNESSES[kind]
    return lambda: integrate_hamiltonian(kind, params, init, t_range,
                                         claims.HAMILTONIAN_CONFIG)


def _riccati_p2(lam0, cfg=IntegrationConfig(max_step=1 / 512)):
    return lambda: integrate_riccati(matching_case(PainleveKind.P2),
                                     {"alpha2": F(1, 2)}, (0.0, 1.0), lam0, cfg)


TRAJECTORIES = {
    **{f"hamiltonian-{k.value}": _hamiltonian_witness(k) for k in PainleveKind},
    "hamiltonian-p2-literal": lambda: integrate_hamiltonian(
        PainleveKind.P2, {"alpha2": F(2)}, (0.25, 0.1), (1.0, 2.0),
        claims.HAMILTONIAN_CONFIG, h2_literal=True),
    "riccati-p2": _riccati_p2(0.0),
    "derivative-general": _general_witness(),
    # two segments: the step restarts at the corner
    "derivative-general-dogleg": _general_witness(
        ComplexPath.of(0.25 - 0.5j, 0.1 - 0.2j, 0.25 + 0.5j), (1.0, 0.5)),
    # a movable pole truncates the trajectory
    "riccati-p2-pole": _riccati_p2(2.0, IntegrationConfig()),
    # v'' = 0: every step is exact, and the state holds signed zeros
    "exact-steps": lambda: integrate_linear(
        LinearODE2(const(0), const(0)), ComplexPath.of(0, 1j, 2 - 1j),
        (1.0, complex(-0.0, -0.0))),
}


def _assert_same_trajectory(got: ODETrajectory, ref: ODETrajectory) -> None:
    assert len(got.samples) == len(ref.samples)
    for a, b in zip(got.samples, ref.samples):
        assert a == b
        assert repr(a) == repr(b)
    assert got.pole_truncated == ref.pole_truncated
    assert repr(got.max_error_estimate) == repr(ref.max_error_estimate)


class TestStepper:
    @pytest.mark.parametrize("name", list(TRAJECTORIES))
    def test_matches_reference_bit_for_bit(self, monkeypatch, name):
        got = TRAJECTORIES[name]()
        monkeypatch.setattr(numeric, "_integrate_segments",
                            lambda compile_field, *args:
                            reference_integrate_segments(compile_field(complex), *args))
        ref = TRAJECTORIES[name]()
        assert len(ref.samples) > 5
        _assert_same_trajectory(got, ref)

    def test_pole_case_truncates(self):
        assert TRAJECTORIES["riccati-p2-pole"]().pole_truncated


# ---------------------------------------------------------------------------
# Reference evaluator: the polynomial's terms summed one by one, each the
# coefficient times the powers of its variables.
# ---------------------------------------------------------------------------


def reference_compile_scalar(expr, names):
    pos = {n: i for i, n in enumerate(names)}

    def compile_poly(p):
        idx = [pos[n] for n in p.names]
        # graded lex, the highest term first
        order = sorted(p.terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True)
        terms = [(complex(F(c, p.den)), tuple(zip(idx, e))) for e, c in order]

        def ev(args):
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
        return lambda *args: num(args) / d
    return lambda *args: num(args) / den(args)


lam, mu, t, z = var("lambda"), var("mu"), var("t"), var("z")

P6 = {"kappa0": F(1, 3), "kappa1": F(1, 5), "theta": F(1, 7), "kappainf": F(1, 2)}

EXPRESSIONS = {
    "zero": (const(0), ("z",)),
    "constant": (const(F(-3, 7)), ("z",)),
    "constant-denominator": ((3 * z ** 3 - z + F(1, 2)) / 5, ("z",)),
    "rational": ((z ** 2 - 2 * z + 3) / (z * (z - 1) * (z - 2)), ("z",)),
    "mu-absent": ((lam ** 3 * t - F(5, 2) * lam * t ** 2 + 1) / (lam * (lam - t)),
                  ("lambda", "mu", "t")),
    "p6-rhs": (substitute(painleve_rhs(PainleveKind.P6), P6), ("lambda", "lambdap", "t")),
    # longer than one generated statement holds, and than the compiler could
    # take as one expression
    "3000-terms": (RationalExpr(MultiPoly(("z",), {(k,): F(1, k + 1)
                                                   for k in range(3000)})), ("z",)),
    "450-term-denominator": (
        RationalExpr(MultiPoly.const(1),
                     MultiPoly(("z", "t"), {(k, k % 3): F(k % 7 - 3, k + 1)
                                            for k in range(450)})), ("t", "z")),
    # numerators and a common denominator of 400 digits, each read as one float
    "400-digit-coefficients": (
        RationalExpr(MultiPoly(("z",), {(0,): F(10 ** 400 + 7, 3 * 10 ** 399 + 1),
                                        (1,): F(-(10 ** 399), 7 * 10 ** 398 + 3),
                                        (2,): F(1, 10 ** 400)})), ("z",)),
}


def _points(n_args: int, seed: int) -> list[tuple[complex, ...]]:
    rng = random.Random(seed)
    pts = [tuple(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(n_args))
           for _ in range(50)]
    # signed zeros, real arguments, and an infinity, where x ** 1 is not x
    pts.append((complex(-0.0, -0.0),) * n_args)
    pts.append(tuple(complex(0.25 * (i + 1), -0.0) for i in range(n_args)))
    pts.append(tuple(0.5 + i for i in range(n_args)))
    pts.append((complex(math.inf, 0.0),) * n_args)
    return pts


class TestCompiledEvaluator:
    @pytest.mark.parametrize("name", list(EXPRESSIONS))
    def test_matches_reference_bit_for_bit(self, name):
        expr, names = EXPRESSIONS[name]
        got = compile_scalar(expr, names)
        ref = reference_compile_scalar(expr, names)
        compared = 0
        for point in _points(len(names), seed=len(name)):
            try:
                want = ref(*point)
            except ArithmeticError as exc:  # overflow in a power, a zero denominator
                with pytest.raises(type(exc)):
                    got(*point)
                continue
            assert repr(got(*point)) == repr(want)
            compared += 1
        assert compared >= 3

    def test_unbound_name_rejected(self):
        with pytest.raises(ValueError):
            compile_scalar(lam * mu, ("lambda",))


def reversed_terms(p):
    """An equal MultiPoly whose term map holds its terms in reverse order."""
    return MultiPoly(p.names, {e: F(c, p.den) for e, c in reversed(p.terms.items())})


def _twin(expr):
    """The value of ``expr`` with both term maps in reverse order."""
    twin = RationalExpr(reversed_terms(expr.num), reversed_terms(expr.den))
    assert twin == expr
    if len(expr.num.terms) > 1:
        assert list(twin.num.terms) != list(expr.num.terms)
    return twin


def _results(fn, points):
    """The repr of each point's value, or the type of the error it raised."""
    out = []
    for point in points:
        try:
            out.append(repr(fn(*point)))
        except ArithmeticError as exc:
            out.append(type(exc))
    return out


class TestSummationOrder:
    """Equal values compile to the same function, bit for bit, in both forms,
    whatever order their term maps hold the terms in."""

    @staticmethod
    def check(a, b, names, seed, n_points):
        rng = random.Random(seed)
        on_axis = [tuple(rng.uniform(-3, 3) for _ in names) for _ in range(n_points)]
        for number, points in ((complex, _points(len(names), seed)[-n_points:]),
                               (float, on_axis)):
            assert (_results(compile_scalar(a, names, number), points)
                    == _results(compile_scalar(b, names, number), points))

    @pytest.mark.parametrize("name", list(EXPRESSIONS))
    def test_reversed_terms(self, name):
        expr, names = EXPRESSIONS[name]
        self.check(expr, _twin(expr), names, seed=len(name), n_points=50)

    def test_p6_rhs_bound_by_substitution(self):
        # Bound at these parameter sets, the rhs holds its terms in several
        # orders: both it and its reversed twin must give the one function.
        rng = random.Random(0)
        rhs = painleve_rhs(PainleveKind.P6)
        for n in range(150):
            params = {k: F(rng.randint(-8, 8), rng.randint(1, 6))
                      for k in KIND_PARAMS[PainleveKind.P6]}
            bound = substitute(rhs, params)
            self.check(bound, _twin(bound), ("lambda", "lambdap", "t"), seed=n, n_points=8)


# A coefficient is held as an int numerator over its polynomial's common
# denominator, and compiled as ``c / den``.  Int true division is correctly
# rounded, as ``float(Fraction)`` is, whether or not the pair is reduced.
huge = st.integers(-10 ** 400, 10 ** 400)


class TestCoefficientRead:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.one_of(st.integers(-10 ** 6, 10 ** 6), huge),
           st.one_of(st.integers(1, 10 ** 6), huge.filter(lambda d: d > 0)),
           st.one_of(st.just(1), st.integers(2, 10 ** 6), huge.filter(lambda k: k > 0)))
    def test_int_division_is_the_fraction_float(self, c, den, k):
        # k * c / (k * den) is an unreduced pair of the same value.
        for num, d in ((c, den), (k * c, k * den)):
            try:
                want = float(F(num, d))
            except OverflowError:
                with pytest.raises(OverflowError):
                    num / d
                continue
            assert repr(num / d) == repr(want)

    def test_overflow(self):
        for num, d in ((10 ** 400, 3), (-(10 ** 400) * 7, 7)):
            with pytest.raises(OverflowError):
                float(F(num, d))
            with pytest.raises(OverflowError):
                num / d


# ---------------------------------------------------------------------------
# Compiled fields: one generated function per field against the closures over
# reference evaluators that the integrators used to build.
# ---------------------------------------------------------------------------


def reference_linear_field(ode):
    p1 = reference_compile_scalar(ode.p1, (ode.var,))
    p2 = reference_compile_scalar(ode.p2, (ode.var,))

    def fieldfn(x, y):
        v, vp = y
        return (vp, -p1(x) * vp - p2(x) * v)

    return fieldfn


def reference_riccati_field(rhs_expr):
    rhs = reference_compile_scalar(rhs_expr, ("lambda", "t"))

    def fieldfn(x, y):
        return (rhs(y[0], x),)

    return fieldfn


def reference_hamiltonian_field(dh_dmu, dh_dlam):
    dmu = reference_compile_scalar(dh_dmu, ("lambda", "mu", "t"))
    dlam = reference_compile_scalar(dh_dlam, ("lambda", "mu", "t"))

    def fieldfn(x, y):
        lam, mu = y
        return (dmu(lam, mu, x), -dlam(lam, mu, x))

    return fieldfn


coefficients = st.builds(F, st.integers(-12, 12).filter(bool),
                         st.sampled_from([1, 1, 2, 3, 7, 10]))


@st.composite
def rationals(draw, names):
    """A rational expression in ``names``: the numerator may vanish, and the
    denominator is a constant or a polynomial of up to four terms."""

    def poly(min_terms):
        exps = draw(st.lists(st.tuples(*(st.integers(0, 3) for _ in names)),
                             min_size=min_terms, max_size=4, unique=True))
        return MultiPoly(names, {e: draw(coefficients) for e in exps})

    den = poly(1) if draw(st.booleans()) else MultiPoly.const(draw(coefficients))
    return RationalExpr(poly(0), den)


# Real and imaginary parts: signed zeros, small integers and halves, where
# powers and products round exactly and the sign of a zero shows, infinities,
# where x ** 1 is not x, and any other float in range.
parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, math.inf, -math.inf]),
                  st.floats(-4, 4, allow_nan=False))
complexes = st.builds(complex, parts, parts)

FIELD_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                          database=None)


def _assert_same_field(got, ref, x, ys):
    try:
        want = ref(x, ys)
    except ArithmeticError as exc:  # a denominator vanishing at the point
        with pytest.raises(type(exc)):
            got(x, *ys)
        return
    assert repr(got(x, *ys)) == repr(want)


class TestCompiledField:
    @FIELD_SETTINGS
    @given(rationals(("z",)), rationals(("z",)), complexes, complexes, complexes)
    def test_linear(self, p1, p2, x, v, vp):
        ode = LinearODE2(p1, p2)
        _assert_same_field(numeric._linear_field(ode)(complex), reference_linear_field(ode),
                           x, (v, vp))

    @FIELD_SETTINGS
    @given(rationals(("lambda", "t")), complexes, complexes)
    def test_riccati(self, rhs, x, lam0):
        _assert_same_field(numeric._riccati_field(rhs)(complex), reference_riccati_field(rhs),
                           x, (lam0,))

    @FIELD_SETTINGS
    @given(rationals(("lambda", "mu", "t")), rationals(("lambda", "mu", "t")),
           complexes, complexes, complexes)
    def test_hamiltonian(self, dh_dmu, dh_dlam, x, lam0, mu0):
        _assert_same_field(numeric._hamiltonian_field(dh_dmu, dh_dlam)(complex),
                           reference_hamiltonian_field(dh_dmu, dh_dlam), x, (lam0, mu0))

    def test_unbound_name_rejected(self):
        with pytest.raises(ValueError):
            numeric._riccati_field(lam * mu)(complex)


# ---------------------------------------------------------------------------
# Neville's tableau: the six-point form against the loop.
# ---------------------------------------------------------------------------


def reference_neville(xs, ys, x):
    p = list(ys)
    n = len(p)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            p[i] = ((x - xs[i - j]) * p[i] - (x - xs[i]) * p[i - 1]) / (xs[i] - xs[i - j])
    return p[-1]


@pytest.mark.parametrize("n", [5, 6])
def test_neville_matches_reference(n):
    rng = random.Random(n)
    for _ in range(200):
        xs = sorted(rng.uniform(0, 1) for _ in range(n))
        ys = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
        x = rng.uniform(xs[0], xs[-1])
        assert repr(_neville(xs, ys, x)) == repr(reference_neville(xs, ys, x))


# ---------------------------------------------------------------------------
# Each power once per generated function: the work count, and the order in
# which a generated function raises.
# ---------------------------------------------------------------------------


def _binary_ops(fn, op: str) -> int:
    return sum(1 for ins in dis.get_instructions(fn)
               if ins.opname == "BINARY_OP" and ins.argrepr == op)


def _power_ops(fn) -> int:
    return _binary_ops(fn, "**")


def _power_pairs(*exprs) -> set:
    pairs = set()
    for expr in exprs:
        for p in (expr.num, expr.den):
            for e in p.terms:
                pairs.update((n, k) for n, k in zip(p.names, e) if k)
    return pairs


class TestPowerCounts:
    @pytest.mark.parametrize("kind, powers", [
        (PainleveKind.P2, 4), (PainleveKind.P4, 5), (PainleveKind.P3P, 5),
        (PainleveKind.P5, 6), (PainleveKind.P6, 7)])
    def test_hamiltonian_field(self, kind, powers):
        params = claims.HAMILTONIAN_WITNESSES[kind][0]
        ham = hamiltonian(kind, params)
        fieldfn = numeric._hamiltonian_field(ham.dH_dmu, ham.dH_dlam)(complex)
        assert _power_ops(fieldfn) == len(_power_pairs(ham.dH_dmu, ham.dH_dlam)) == powers

    # The float form writes each power as products: every power k > 1 of
    # the complex form (x ** 1 is x) costs the products of its chain.
    @pytest.mark.parametrize("kind, products", [
        (PainleveKind.P2, 6), (PainleveKind.P4, 12), (PainleveKind.P3P, 14),
        (PainleveKind.P5, 25), (PainleveKind.P6, 37)])
    def test_hamiltonian_field_on_floats(self, kind, products):
        params = claims.HAMILTONIAN_WITNESSES[kind][0]
        ham = hamiltonian(kind, params)
        fieldfn = numeric._hamiltonian_field(ham.dH_dmu, ham.dH_dlam)(float)
        assert _power_ops(fieldfn) == 0
        assert _binary_ops(fieldfn, "*") == products

    def test_p6_rhs(self):
        rhs = substitute(painleve_rhs(PainleveKind.P6), P6)
        scalar = compile_scalar(rhs, ("lambda", "lambdap", "t"))
        assert _power_ops(scalar) == len(_power_pairs(rhs)) == 13

    # (inf + 0j) ** 2 is nan + nanj, but (1e200 + 0j) ** 2 overflows: had the
    # power of mu been hoisted above the quotient 1 / lambda, it would raise.
    @pytest.mark.parametrize("mu0", [complex(math.inf, 0.0), complex(1e200, 0.0)])
    def test_zero_denominator_raises_before_a_later_power(self, mu0):
        dh_dmu, dh_dlam = 1 / lam, mu ** 2
        x, ys = complex(0.5, 0.0), (0j, mu0)
        if mu0.real < math.inf:
            with pytest.raises(OverflowError):
                mu0 ** 2
        with pytest.raises(ZeroDivisionError):
            reference_hamiltonian_field(dh_dmu, dh_dlam)(x, ys)
        with pytest.raises(ZeroDivisionError):
            numeric._hamiltonian_field(dh_dmu, dh_dlam)(complex)(x, *ys)


# ---------------------------------------------------------------------------
# Residual meter: the walking window against a binary search at every grid
# point, with the reference evaluator and the Neville loop.
# ---------------------------------------------------------------------------


def reference_painleve_residual(kind, traj, params):
    if len(traj.samples) < 5:
        raise numeric.InsufficientSamples(
            f"need at least 5 samples, got {len(traj.samples)}")
    rhs = reference_compile_scalar(substitute(painleve_rhs(kind), params),
                                   ("lambda", "lambdap", "t"))
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
        vals.append(reference_neville(ss[lo:lo + 6], lams[lo:lo + 6], x))
    h12, h12h = 12 * h, 12 * h * h
    dir2 = direction * direction
    worst = 0.0
    for i in range(2, n_grid - 2):
        lam_i = vals[i]
        d1 = (-vals[i + 2] + 8 * vals[i + 1] - 8 * vals[i - 1] + vals[i - 2]) / h12
        d2 = (-vals[i + 2] + 16 * vals[i + 1] - 30 * vals[i] + 16 * vals[i - 1]
              - vals[i - 2]) / h12h
        lam_t = d1 / direction
        lam_tt = d2 / dir2
        t_here = t0 + (grid[i] - ss[0]) * direction
        res = abs(lam_tt - rhs(lam_i, lam_t, t_here))
        worst = max(worst, res)
    return worst


def _five_samples():
    return ODETrajectory([Sample(i / 4, complex(1 + i / 4), (complex(0.5 + i / 8, -i / 16),))
                          for i in range(5)])


def _samples_on_the_grid():
    # at the step cap 1/4096 over a t-range of length 1 every sample is a
    # point of the 4097-point grid, where bisect_left finds the sample itself
    params, init, t_range = claims.HAMILTONIAN_WITNESSES[PainleveKind.P4]
    return integrate_hamiltonian(PainleveKind.P4, params, init, t_range,
                                 IntegrationConfig(max_step=1 / 4096))


def _irregular_samples_on_the_grid():
    # 250 of the 513 grid points, unevenly spaced: at each of them a window
    # that starts one sample late interpolates a value a rounding apart
    rng = random.Random(0)
    h = 0.3 / 512
    ss = [0.0, *(k * h for k in sorted(rng.sample(range(1, 512), 250))), 0.3]
    return ODETrajectory([Sample(s, complex(1 + s), (complex(math.cos(3 * s), math.sin(2 * s)),))
                          for s in ss])


def _two_segments():
    # the p2 flow along a dogleg in t: the window walks across the corner
    params, init, _ = claims.HAMILTONIAN_WITNESSES[PainleveKind.P2]
    ham = hamiltonian(PainleveKind.P2, params)
    return numeric._integrate_segments(
        numeric._hamiltonian_field(ham.dH_dmu, ham.dH_dlam),
        ComplexPath.of(0.0, 0.5 + 0.25j, 1.0), init, claims.HAMILTONIAN_CONFIG)


RESIDUAL_CASES = {
    **{f"hamiltonian-{k.value}": (TRAJECTORIES[f"hamiltonian-{k.value}"], k,
                                  claims.HAMILTONIAN_WITNESSES[k][0])
       for k in PainleveKind},
    "hamiltonian-p2-literal": (TRAJECTORIES["hamiltonian-p2-literal"], PainleveKind.P2,
                               {"alpha2": F(2)}),
    "riccati-p2": (TRAJECTORIES["riccati-p2"], PainleveKind.P2, {"alpha2": F(1, 2)}),
    "riccati-p2-pole": (TRAJECTORIES["riccati-p2-pole"], PainleveKind.P2,
                        {"alpha2": F(1, 2)}),
    "five-samples": (_five_samples, PainleveKind.P2, {"alpha2": F(2)}),
    "samples-on-the-grid": (_samples_on_the_grid, PainleveKind.P4,
                            claims.HAMILTONIAN_WITNESSES[PainleveKind.P4][0]),
    "irregular-samples-on-the-grid": (_irregular_samples_on_the_grid, PainleveKind.P2,
                                      {"alpha2": F(2)}),
    "two-segments": (_two_segments, PainleveKind.P2,
                     claims.HAMILTONIAN_WITNESSES[PainleveKind.P2][0]),
}


class TestResidualMeter:
    @pytest.mark.parametrize("name", list(RESIDUAL_CASES))
    def test_matches_reference_bit_for_bit(self, name):
        make, kind, params = RESIDUAL_CASES[name]
        traj = make()
        got = numeric.painleve_residual(kind, traj, params)
        assert repr(got) == repr(reference_painleve_residual(kind, traj, params))
        # a copy without the record (on_real_axis) is metered in the complex form
        copy = ODETrajectory(traj.samples)
        assert repr(numeric.painleve_residual(kind, copy, params)) == repr(got)

    def test_recorded_cases(self):
        assert {name for name, (make, _, _) in RESIDUAL_CASES.items()
                if make().on_real_axis} == {
            *(f"hamiltonian-{k.value}" for k in PainleveKind), "hamiltonian-p2-literal",
            "riccati-p2", "riccati-p2-pole", "samples-on-the-grid"}

    def test_samples_on_the_grid(self):
        traj = _samples_on_the_grid()
        assert [smp.s for smp in traj.samples] == [i / 4096 for i in range(4097)]

    def test_two_segments_have_a_corner(self):
        traj = _two_segments()
        assert any(smp.x == 0.5 + 0.25j for smp in traj.samples)


# ---------------------------------------------------------------------------
# The derivative witness's meter, each coefficient evaluated where it is used.
# ---------------------------------------------------------------------------


def reference_derivative_residual(spec, traj):
    base, derived = build_heun(spec), build_heun_derivative(spec)
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


@pytest.mark.parametrize("family", list(HeunFamily))
def test_derivative_witness_matches_reference(family):
    params, waypoints = claims.DERIVATIVE_WITNESSES[family]
    spec = HeunSpec.of(family, **params)
    path = ComplexPath.of(*waypoints)
    traj = integrate_linear(build_heun(spec), path, (1.0, 1.0))
    got = numeric.verify_derivative_numeric(spec, path)
    assert repr(got) == repr(reference_derivative_residual(spec, traj))


# ---------------------------------------------------------------------------
# The float form against the complex form.  A run on the real axis in floats
# must give every sample, flag, error estimate and exception of the complex
# form, bit for bit, or hand the run off to it.  Either form's own outcome is
# compared by repr; the complex form alone runs with the real-axis test
# switched off.
# ---------------------------------------------------------------------------


class TestFloatPowerChain:
    """``x ** k`` in the float form is ``c_powu``'s chain of products."""

    @pytest.mark.parametrize("k", range(1, 17))
    def test_chain_is_the_complex_power(self, k):
        chain = compile_scalar(z ** k, ("z",), float)
        assert _power_ops(chain) == 0
        rng = random.Random(f"chain:{k}")
        xs = [0.0, -0.0, 1.0, -1.0, 5e-324, 1.7976931348623157e308]
        xs += [rng.uniform(-4, 4) for _ in range(200)]
        # magnitudes whose k-th power reaches overflow and underflow
        xs += [rng.choice((-1, 1)) * math.ldexp(rng.uniform(0.5, 1),
                                                rng.randint(-1074 // k, 1024 // k))
               for _ in range(200)]
        for x in xs:
            got = chain(x)
            try:
                want = (complex(x) ** k).real
            except OverflowError:
                want = math.inf
            if math.isfinite(want):
                # bit for bit, but for the sign of an exact zero
                assert got == want and (repr(got) == repr(want) or want == 0), x
            else:  # the complex power overflows, or its parts turn NaN
                assert not math.isfinite(got), x


def _outcome(run):
    """Every sample by repr, the flag and the error estimate, or the exception."""
    try:
        traj = run()
    except Exception as exc:
        return type(exc), str(exc)
    return ([repr(smp) for smp in traj.samples], traj.pole_truncated,
            repr(traj.max_error_estimate))


def _outcome_of(run):
    """The repr of the value, or the exception."""
    try:
        return repr(run())
    except Exception as exc:
        return type(exc), str(exc)


def _complex_only(monkeypatch):
    """Switch the float form off: every run takes the complex form."""
    monkeypatch.setattr(numeric, "_on_real_axis", lambda *values: False)


def _both_forms(forms, compile_field, path, init, cfg):
    """The outcome with the float form allowed and the forms it ran, and
    the outcome of the complex form alone."""
    forms.clear()
    got = _outcome(lambda: numeric._integrate_segments(compile_field, path, init, cfg))
    ran = list(forms)
    forms.clear()
    with pytest.MonkeyPatch.context() as monkeypatch:
        _complex_only(monkeypatch)
        want = _outcome(lambda: numeric._integrate_segments(compile_field, path, init, cfg))
    assert forms == ["complex"]
    return got, ran, want


def _assert_forms_agree(forms, field_fn, path, init, cfg):
    got, ran, want = _both_forms(forms, field_fn, path, init, cfg)
    assert got == want
    on_axis = all(repr(complex(v).imag) == "0.0" for v in (*path.waypoints, *init))
    assert ran in ([["float"], ["float", "complex"]] if on_axis else [["complex"]])


def _complex_meter(kind, traj, params):
    rhs = compile_scalar(substitute(painleve_rhs(kind), params), ("lambda", "lambdap", "t"))
    return numeric._meter(rhs, [smp.s for smp in traj.samples],
                          [smp.y[0] for smp in traj.samples],
                          traj.samples[0].x, traj.samples[-1].x, complex)[0]


# Real parts where rounding and signed zeros show; now and then an imaginary
# part of -0.0, which must keep the run in the complex form.
axis_parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                       st.floats(-3, 3, allow_nan=False))
axis_values = st.builds(complex, axis_parts, st.sampled_from([0.0] * 7 + [-0.0]))
configs = st.sampled_from([IntegrationConfig(), IntegrationConfig(abs_tol=1e-8, rel_tol=1e-6),
                           IntegrationConfig(max_step=1 / 64)])


@st.composite
def axis_paths(draw):
    points = draw(st.lists(axis_values, min_size=2, max_size=3))
    assume(all(a != b for a, b in zip(points, points[1:])))
    return ComplexPath.of(*points)


@st.composite
def hamiltonian_flows(draw):
    """A witness flow with its parameters moved by multiples of 1/8."""
    kind = draw(st.sampled_from(list(PainleveKind)))
    params = {k: v + F(draw(st.integers(-8, 8)), 8)
              for k, v in claims.HAMILTONIAN_WITNESSES[kind][0].items()}
    ham = hamiltonian(kind, params)
    return kind, params, numeric._hamiltonian_field(ham.dH_dmu, ham.dH_dlam)


FORM_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestFloatForm:
    @pytest.fixture(autouse=True)
    def _step_budget(self, monkeypatch, stepper_forms):
        # A smaller budget keeps a stiff draw short and hands it off all the same.
        monkeypatch.setattr(numeric, "_MAX_STEPS", 3000)

    @FORM_SETTINGS
    @given(rationals(("z",)), rationals(("z",)), axis_paths(), axis_values, axis_values,
           configs)
    def test_linear(self, stepper_forms, p1, p2, path, v, vp, cfg):
        field_fn = numeric._linear_field(LinearODE2(p1, p2))
        _assert_forms_agree(stepper_forms, field_fn, path, (v, vp), cfg)

    @FORM_SETTINGS
    @given(rationals(("lambda", "t")), axis_paths(), axis_values, configs)
    def test_riccati(self, stepper_forms, rhs, path, lam0, cfg):
        _assert_forms_agree(stepper_forms, numeric._riccati_field(rhs), path, (lam0,), cfg)

    @FORM_SETTINGS
    @given(hamiltonian_flows(), axis_values, axis_values, st.floats(0.9, 2.1),
           st.one_of(st.floats(0.05, 0.5), st.floats(-0.5, -0.05)), configs)
    def test_hamiltonian(self, stepper_forms, flow, lam0, mu0, t0, dt, cfg):
        kind, params, field_fn = flow
        path = ComplexPath.of(t0, t0 + dt)
        _assert_forms_agree(stepper_forms, field_fn, path, (lam0, mu0), cfg)
        # the meter of the trajectory, in floats where it is real
        try:
            traj = numeric._integrate_segments(field_fn, path, (lam0, mu0), cfg)
        except Exception:
            return
        assert (_outcome_of(lambda: numeric.painleve_residual(kind, traj, params))
                == _outcome_of(lambda: _complex_meter(kind, traj, params)))


def _hamiltonian_case(kind, t_range, init=None):
    params, witness_init, _ = claims.HAMILTONIAN_WITNESSES[kind]
    ham = hamiltonian(kind, params)
    return (numeric._hamiltonian_field(ham.dH_dmu, ham.dH_dlam), ComplexPath.of(*t_range),
            init or witness_init, claims.HAMILTONIAN_CONFIG)


def _nan_past_half(x, y):
    # NaN past x = 1/2, in either number type
    return (y * math.nan if x.real > 0.5 else y,)


HAND_OFF_CASES = {
    # a power overflows, and the complex form raises
    "overflowing-t-range": lambda: _hamiltonian_case(
        PainleveKind.P6, (1e200, 2e200), (0.5, 0.0)),
    # the error estimate turns NaN: the complex form rejects the step until
    # the step size underflows
    "nan-field": lambda: (lambda number: _nan_past_half, ComplexPath.of(0, 1), (1.0,),
                          IntegrationConfig()),
    # v'' = 0 from v' = 0: every accepted v' is zero
    "accepted-zero-state": lambda: (
        numeric._linear_field(LinearODE2(const(0), const(0))), ComplexPath.of(0, 1),
        (1.0, 0.0), IntegrationConfig()),
    "step-budget": lambda: _hamiltonian_case(PainleveKind.P2, (0.0, 1.0)),
    "negative-zero-waypoint": lambda: _hamiltonian_case(
        PainleveKind.P2, (0.0, complex(1.0, -0.0))),
    "negative-zero-initial-value": lambda: _hamiltonian_case(
        PainleveKind.P2, (0.0, 1.0), (complex(0.25, -0.0), 0.1)),
    # a movable pole truncates the run in the float form itself
    "movable-pole": lambda: (
        numeric._riccati_field(substitute(matching_case(PainleveKind.P2).riccati_rhs,
                                          {"alpha2": const(F(1, 2))})),
        ComplexPath.of(0.0, 1.0), (2.0,), IntegrationConfig()),
}


class TestHandOff:
    """Each case that hands a run off, or keeps it in the complex form."""

    @pytest.mark.parametrize("case, forms", [
        ("overflowing-t-range", ["float", "complex"]),
        ("nan-field", ["float", "complex"]),
        ("accepted-zero-state", ["float", "complex"]),
        ("step-budget", ["float", "complex"]),
        ("negative-zero-waypoint", ["complex"]),
        ("negative-zero-initial-value", ["complex"]),
        ("movable-pole", ["float"]),
    ])
    def test_forms(self, monkeypatch, stepper_forms, case, forms):
        if case == "step-budget":
            monkeypatch.setattr(numeric, "_MAX_STEPS", 50)
        got, ran, want = _both_forms(stepper_forms, *HAND_OFF_CASES[case]())
        assert ran == forms
        assert got == want
        if case == "movable-pole":
            assert got[1] is True
        elif case in ("overflowing-t-range", "nan-field", "step-budget"):
            assert issubclass(got[0], numeric.NumericError)

    # The meter runs in floats exactly when the trajectory records the real
    # axis, as the float stepper sets it on every trajectory it gives.
    @pytest.mark.parametrize("lam, recorded, forms", [
        (complex(math.inf, 0.0), True, [float, complex]),  # a non-finite point residual
        (0j, True, [float, complex]),                      # 1 / lambda: a zero division
        (complex(0.5, -0.0), False, [complex]),            # not on the real axis
        (complex(0.5, 0.0), True, [float]),
        (complex(0.5, 0.0), False, [complex]),             # real, but not recorded
    ], ids=["infinite-value", "zero-trajectory", "negative-zero", "real",
            "real-unrecorded"])
    def test_meter(self, monkeypatch, lam, recorded, forms):
        params = claims.HAMILTONIAN_WITNESSES[PainleveKind.P6][0]
        samples = [Sample(i / 8, complex(2 + i / 8), (complex(0.5 + i / 64),))
                   for i in range(8)]
        if lam == 0:
            samples = [smp._replace(y=(lam,)) for smp in samples]
        else:
            samples[4] = samples[4]._replace(y=(lam,))
        traj = ODETrajectory(samples)
        traj.on_real_axis = recorded
        compile_ = numeric.compile_scalar
        ran = []

        def spy(expr, names, number=complex):
            ran.append(number)
            return compile_(expr, names, number)

        monkeypatch.setattr(numeric, "compile_scalar", spy)
        got = _outcome_of(lambda: numeric.painleve_residual(PainleveKind.P6, traj, params))
        assert ran == forms
        assert got == _outcome_of(lambda: _complex_meter(PainleveKind.P6, traj, params))


# ---------------------------------------------------------------------------
# CSV export: every field is the repr of its float, signed zeros, infinities
# and NaN included, so that a faster row builder must keep the bytes.
# ---------------------------------------------------------------------------


def reference_to_csv(traj):
    n = len(traj.samples[0].y) if traj.samples else 0
    header = ["s", "re_x", "im_x"]
    for i in range(n):
        header += [f"re_y{i}", f"im_y{i}"]
    lines = [",".join(header)]
    for smp in traj.samples:
        row = [repr(smp.s), repr(smp.x.real), repr(smp.x.imag)]
        for y in smp.y:
            row += [repr(y.real), repr(y.imag)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _assert_same_csv(got: str, want: str) -> None:
    """The row count, then the first row that differs, with its index.

    ``assert got == want`` on two long texts makes pytest build a diff of
    them on failure, which runs for minutes when every row differs.
    """
    got_rows, want_rows = got.split("\n"), want.split("\n")
    assert len(got_rows) == len(want_rows), "the row counts differ"
    for i, (a, b) in enumerate(zip(got_rows, want_rows)):
        if a != b:
            pytest.fail(f"row {i} differs: {a!r} != {b!r}")


SPECIAL_PARTS = [0.0, -0.0, math.inf, -math.inf, math.nan, 1 / 3, -1e-300, 2.5e300]


class TestCsv:
    @pytest.mark.parametrize("n", [1, 2])
    def test_special_values(self, n):
        rng = random.Random(n)
        samples = []
        for i in range(40):
            parts = [rng.choice(SPECIAL_PARTS) for _ in range(3 + 2 * n)]
            ys = tuple(complex(parts[3 + 2 * m], parts[4 + 2 * m]) for m in range(n))
            samples.append(Sample(parts[0], complex(parts[1], parts[2]), ys))
        traj = ODETrajectory(samples)
        _assert_same_csv(traj.to_csv(), reference_to_csv(traj))

    def test_empty(self):
        traj = ODETrajectory([])
        _assert_same_csv(traj.to_csv(), reference_to_csv(traj))

    @pytest.mark.parametrize("name", [*TRAJECTORIES, *HAND_OFF_CASES])
    def test_trajectories(self, monkeypatch, stepper_forms, name):
        """Each run with the float form allowed, then in the complex form
        alone: the record is set exactly when the float form gave the
        result, and a copy without it writes the same bytes."""
        run = TRAJECTORIES.get(name) or (
            lambda: numeric._integrate_segments(*HAND_OFF_CASES[name]()))
        for complex_only in (False, True):
            if complex_only:
                _complex_only(monkeypatch)
            stepper_forms.clear()
            try:
                traj = run()
            except numeric.NumericError:
                assert name in ("overflowing-t-range", "nan-field")
                continue
            assert traj.on_real_axis is (stepper_forms[-1] == "float")
            assert all(type(smp) is Sample for smp in traj.samples)
            text = traj.to_csv()
            _assert_same_csv(text, reference_to_csv(traj))
            _assert_same_csv(ODETrajectory(traj.samples).to_csv(), text)
