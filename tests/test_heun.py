"""Tests for the Heun family constructors and degenerations."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from heunlab.algebra import const, identity_test, substitute, var
from heunlab.heun import (
    CaseMismatch,
    DegenerateDerivativeForm,
    DegenerationCase,
    FuchsianViolation,
    HeunFamily,
    HeunSpec,
    SingularConfluence,
    _certify_singular_set,
    build_heun,
    build_heun_derivative,
    degeneration_case,
    fuchsian_epsilon,
    fuchsian_holds,
)
from heunlab.ode import (
    INFINITY,
    LinearODE2,
    derivative_equation,
    ode_equal,
    singular_points,
)

z = var("z")

STANDARD_GENERAL = dict(alpha=2, beta=1, gamma=1, delta=1, epsilon=2, q=1, t=2)


def general_spec(**over):
    params = {**STANDARD_GENERAL, **over}
    return HeunSpec.of(HeunFamily.GENERAL, **params)


def random_spec(family: HeunFamily, rng: random.Random) -> HeunSpec:
    def r():
        return const(rng.randint(1, 7), rng.randint(1, 3))

    if family is HeunFamily.GENERAL:
        alpha, beta, gamma, delta = r(), r(), r(), r()
        eps = fuchsian_epsilon(alpha, beta, gamma, delta)
        return HeunSpec.of(
            HeunFamily.GENERAL, alpha=alpha, beta=beta, gamma=gamma,
            delta=delta, epsilon=eps, q=r(), t=r() + 2)
    return HeunSpec.of(family, gamma=r(), delta=r(), epsilon=r(), alpha=r(), q=r())


class TestBuildHeun:
    def test_standard_general_coefficients(self):
        ode = build_heun(general_spec())
        assert identity_test(ode.p1, 1 / z + 1 / (z - 1) + 2 / (z - 2))
        assert identity_test(ode.p2, (2 * z - 1) / (z * (z - 1) * (z - 2)))

    def test_triconfluent_polynomial_coefficients(self):
        spec = HeunSpec.of(HeunFamily.TRI_CONFLUENT,
                           gamma=var("gamma"), delta=var("delta"),
                           epsilon=var("epsilon"), alpha=var("alpha"), q=var("q"))
        ode = build_heun(spec)
        g, d, e, a, q = (var(n) for n in ("gamma", "delta", "epsilon", "alpha", "q"))
        assert identity_test(ode.p1, g + d * z + e * z ** 2)
        assert identity_test(ode.p2, a * z - q)

    def test_fuchsian_violation(self):
        with pytest.raises(FuchsianViolation):
            build_heun(general_spec(epsilon=5))

    def test_fuchsian_enforcement_toggle(self):
        ode = build_heun(general_spec(epsilon=5), enforce_fuchsian=False)
        assert ode.p1 is not None

    def test_singular_confluence(self):
        with pytest.raises(SingularConfluence):
            build_heun(general_spec(t=1, epsilon=2))

    def test_four_regular_singular_points(self):
        pts = singular_points(build_heun(general_spec()))
        locs = {p.location for p in pts}
        assert locs == {Fraction(0), Fraction(1), Fraction(2), INFINITY}
        assert all(p.kind == "regular" for p in pts)


class TestFuchsianEpsilon:
    def test_unit_case(self):
        assert fuchsian_epsilon(1, 1, 1, 1) == const(1)

    def test_example(self):
        assert fuchsian_epsilon(2, 1, 1, 1) == const(2)

    def test_symbolic(self):
        a, b, g, d = (var(n) for n in "abgd")
        assert fuchsian_epsilon(a, b, g, d) == 1 + a + b - g - d

    def test_composes_into_valid_spec(self):
        rng = random.Random(11)
        for _ in range(10):
            spec = random_spec(HeunFamily.GENERAL, rng)
            assert fuchsian_holds(spec)
            build_heun(spec)


class TestDerivativeClosedForms:
    def test_five_singular_points_of_general_derivative(self):
        spec = general_spec()
        pts = singular_points(build_heun_derivative(spec))
        locs = {p.location for p in pts}
        # extra singularity at q/(alpha beta) = 1/2
        assert locs == {Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), INFINITY}
        assert all(p.kind == "regular" for p in pts)

    def test_degenerate_form_rejected(self):
        with pytest.raises(DegenerateDerivativeForm):
            build_heun_derivative(general_spec(alpha=0, beta=1, q=0, epsilon=0))

    @pytest.mark.parametrize("family", list(HeunFamily))
    def test_matches_oracle_symbolically(self, family):
        if family is HeunFamily.GENERAL:
            a, b, g, d = (var(n) for n in ("alpha", "beta", "gamma", "delta"))
            spec = HeunSpec.of(
                HeunFamily.GENERAL, alpha=a, beta=b, gamma=g, delta=d,
                epsilon=fuchsian_epsilon(a, b, g, d), q=var("q"), t=var("t"))
        else:
            spec = HeunSpec.symbolic(family)
        closed = build_heun_derivative(spec)
        oracle = derivative_equation(build_heun(spec))
        assert ode_equal(closed, oracle)

    @pytest.mark.parametrize("family", list(HeunFamily))
    def test_matches_oracle_on_random_numeric_specs(self, family):
        rng = random.Random(hash(family.value) & 0xFFFF)
        for _ in range(20):
            spec = random_spec(family, rng)
            if spec.alphabeta().is_zero() and spec.q.is_zero():
                continue
            assert ode_equal(build_heun_derivative(spec),
                             derivative_equation(build_heun(spec)))

    def test_extra_pole_residue_is_minus_one(self):
        # Partial-fraction coefficient of 1/(z - q/(ab)) in p1 of the general
        # derivative equation.
        spec = general_spec()
        ode = build_heun_derivative(spec)
        pole = spec.q / spec.alphabeta()
        res = substitute(ode.p1 * (z - pole), {"z": pole})
        assert res == const(-1)

    def test_extra_numerator_against_term_by_term_oracle(self):
        # Independent oracle: evaluate the closed-form numerator of the
        # general derivative equation with plain Fraction arithmetic, term by
        # term, and compare with the polynomial algebra at random points.
        rng = random.Random(2468)
        spec = general_spec()
        ode = build_heun_derivative(spec)
        ab, g, d, e = Fraction(2), Fraction(1), Fraction(1), Fraction(2)
        q, t = Fraction(1), Fraction(2)
        for _ in range(10):
            z0 = Fraction(rng.randint(3, 10 ** 6))
            oracle = (z0 * (ab * z0 - 2 * q) * (ab + g + d + e)
                      + (q * q + q * (g + t * (g + d) + e) - ab * g * t))
            oracle /= z0 * (z0 - 1) * (z0 - t) * (ab * z0 - q)
            assert ode.p2.eval_exact({"z": z0}) == oracle

    def test_singular_points_invariant_under_fuchsian_substitution(self):
        base = dict(alpha=2, beta=1, gamma=1, delta=1, q=1, t=2)
        direct = HeunSpec.of(HeunFamily.GENERAL, epsilon=2, **base)
        derived = HeunSpec.of(
            HeunFamily.GENERAL,
            epsilon=fuchsian_epsilon(base["alpha"], base["beta"],
                                     base["gamma"], base["delta"]),
            **base)
        assert singular_points(build_heun(direct)) == singular_points(build_heun(derived))


class TestDegenerations:
    def test_case_mismatch(self):
        with pytest.raises(CaseMismatch):
            degeneration_case(general_spec(), DegenerationCase.Q_ZERO)

    def test_q_zero(self):
        spec = general_spec(q=0)
        res = degeneration_case(spec, DegenerationCase.Q_ZERO)
        assert res.singular_set_certified
        pts = singular_points(res.ode)
        assert {p.location for p in pts} == {Fraction(0), Fraction(1), Fraction(2), INFINITY}
        assert all(p.kind == "regular" for p in pts)
        # Merged double pole at 0: not of the original 4-point shape.
        assert res.shifted is None

    def test_q_equal_ab(self):
        spec = general_spec(q=2)  # alpha*beta = 2
        res = degeneration_case(spec, DegenerationCase.Q_AB)
        assert res.singular_set_certified
        pts = singular_points(res.ode)
        assert {p.location for p in pts} == {Fraction(0), Fraction(1), Fraction(2), INFINITY}

    def test_q_equal_abt(self):
        spec = general_spec(q=4)  # alpha*beta*t = 4
        res = degeneration_case(spec, DegenerationCase.Q_ABT)
        assert res.singular_set_certified

    def test_ab_zero_matches_template(self):
        spec = general_spec(alpha=0, epsilon=0)  # Fuchsian: 1+0+1 = 1+1+0
        res = degeneration_case(spec, DegenerationCase.AB_ZERO)
        assert res.singular_set_certified
        shifted = res.shifted
        assert shifted is not None
        assert shifted.gamma == spec.gamma + 1
        assert shifted.delta == spec.delta + 1
        assert shifted.epsilon == spec.epsilon + 1
        assert fuchsian_holds(shifted)
        # The re-read spec reproduces the cancelled equation exactly.
        assert ode_equal(build_heun(shifted), res.ode)

    def test_symbolic_degeneration_certificate(self):
        # q = 0 with symbolic remaining parameters still certifies {0, 1, t, inf}.
        a, b, g, d = (var(n) for n in ("alpha", "beta", "gamma", "delta"))
        spec = HeunSpec.of(
            HeunFamily.GENERAL, alpha=a, beta=b, gamma=g, delta=d,
            epsilon=fuchsian_epsilon(a, b, g, d), q=0, t=var("t"))
        res = degeneration_case(spec, DegenerationCase.Q_ZERO)
        assert res.singular_set_certified

    def test_denominators_divide_singular_polynomial(self):
        # In all four cases the surviving denominators only carry {0, 1, t}.
        cases = [
            (general_spec(q=0), DegenerationCase.Q_ZERO),
            (general_spec(q=2), DegenerationCase.Q_AB),
            (general_spec(q=4), DegenerationCase.Q_ABT),
            (general_spec(alpha=0, epsilon=0), DegenerationCase.AB_ZERO),
        ]
        for spec, case in cases:
            res = degeneration_case(spec, case)
            for coeff in (res.ode.p1, res.ode.p2):
                roots = {p.location for p in singular_points(res.ode)} - {INFINITY}
                assert roots <= {Fraction(0), Fraction(1), Fraction(2)}


class TestSingularSetCertificate:
    """The certificate accepts exactly the singular set {0, 1, t, infinity}."""

    def test_accepts_four_point_equation(self):
        t = var("t")
        ode = LinearODE2(1 / z + 1 / (z - 1) + 1 / (z - t), 1 / (z * (z - 1) * (z - t)))
        assert _certify_singular_set(ode, t)

    @pytest.mark.parametrize("ode, t", [
        (build_heun_derivative(general_spec()), const(2)),
        (LinearODE2(1 / z + 1 / (z - 1), 1 / (z * (z - 1))), var("t")),
        (LinearODE2(const(1), const(1)), var("t")),
        (LinearODE2(const(0), 1 / (z ** 2 * (z - 1) * (z - var("t")))), var("t")),
    ], ids=["extra-point-survives", "no-pole-at-t", "no-finite-pole",
            "ordinary-infinity"])
    def test_refuses(self, ode, t):
        assert not _certify_singular_set(ode, t)


class TestSerialization:
    def test_params_roundtrip(self):
        spec = general_spec()
        text = spec.to_params_text()
        mapping = {}
        for line in text.splitlines():
            k, v = (part.strip() for part in line.split("="))
            mapping[k] = const(Fraction(v))
        again = HeunSpec.from_params(HeunFamily.GENERAL, mapping)
        assert again == spec
