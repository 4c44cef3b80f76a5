"""Tests for ODE representation and transformations."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from heunlab.algebra import MultiPoly, const, substitute, var
from heunlab.ode import (
    INFINITY,
    DegenerateMobius,
    GaugeSpec,
    LinearODE2,
    Mobius,
    NoDerivativeEquation,
    SingularPoint,
    coefficient_diff,
    derivative_equation,
    gauge_mobius_transform,
    ode_equal,
    singular_points,
)

z = var("z")


class TestDerivativeEquation:
    def test_harmonic_oscillator_self_similar(self):
        ode = LinearODE2(const(0), const(1))
        d = derivative_equation(ode)
        assert d.p1.is_zero()
        assert d.p2 == const(1)

    def test_p2_zero_rejected(self):
        with pytest.raises(NoDerivativeEquation):
            derivative_equation(LinearODE2(1 / z, const(0)))

    def test_known_first_order_reduction(self):
        # u'' - u = 0: derivative solves the same equation.
        ode = LinearODE2(const(0), const(-1))
        assert ode_equal(derivative_equation(ode), ode)

    def test_commutes_with_parameter_substitution(self):
        a, b = var("a"), var("b")
        ode = LinearODE2(a / z, (b * z - a) / (z * (z - 1)))

        def bound(eq, bind):
            return LinearODE2(substitute(eq.p1, bind), substitute(eq.p2, bind))

        rng = random.Random(4)
        for _ in range(6):
            bind = {"a": const(rng.randint(1, 9)), "b": const(rng.randint(1, 9))}
            lhs = derivative_equation(bound(ode, bind))
            rhs = bound(derivative_equation(ode), bind)
            assert ode_equal(lhs, rhs)


class TestMobiusGauge:
    def test_identity_gauge_is_noop(self):
        ode = LinearODE2(1 / z, (2 * z - 1) / (z * (z - 1)))
        identity = GaugeSpec(Mobius.of(1, 0, 0, 1), const(1), const(0))
        out = gauge_mobius_transform(ode, identity)
        assert ode_equal(out, ode)

    def test_degenerate_mobius_rejected(self):
        g = GaugeSpec(Mobius.of(1, 2, 2, 4), const(1), const(0))
        with pytest.raises(DegenerateMobius):
            gauge_mobius_transform(LinearODE2(const(0), const(1)), g)

    def test_gauge_then_inverse_restores(self):
        sigma = var("sigma")
        m = Mobius.of(0, 1, 1, 0)  # z -> 1/z (an involution)
        g = GaugeSpec(m, 1 / (z - 1), sigma)
        ode = LinearODE2(1 / z, (2 * z - 1) / (z * (z - 1)))
        once = gauge_mobius_transform(ode, g)
        # w(z) = phi(z)^sigma v(1/z) gives back v(z) = phi(1/z)^-sigma w(1/z).
        inverse = GaugeSpec(m, z / (1 - z), -sigma)
        back = gauge_mobius_transform(once, inverse)
        assert ode_equal(back, ode)

    def test_group_action_shared_exponent(self):
        sigma = var("sigma")
        g1 = GaugeSpec(Mobius.of(1, 1, 0, 1), z + 2, sigma)
        g2 = GaugeSpec(Mobius.of(2, 0, 0, 1), z - 3, sigma)
        ode = LinearODE2(1 / z, (z + 1) / (z * (z - 5)))
        stepwise = gauge_mobius_transform(gauge_mobius_transform(ode, g1), g2)
        # (z - 3)^sigma (2z + 2)^sigma v(2z + 1): g1 at 2z, times g2's prefactor.
        g2_after_g1 = GaugeSpec(Mobius.of(2, 1, 0, 1), (z - 3) * (2 * z + 2), sigma)
        combined = gauge_mobius_transform(ode, g2_after_g1)
        assert ode_equal(stepwise, combined)

    def test_pure_mobius_composition(self):
        g1 = GaugeSpec(Mobius.of(1, 2, 0, 1), const(1), const(0))
        g2 = GaugeSpec(Mobius.of(0, 1, 1, 0), const(1), const(0))
        ode = LinearODE2(1 / z, (z + 1) / (z * (z - 5)))
        stepwise = gauge_mobius_transform(gauge_mobius_transform(ode, g1), g2)
        # v(1/z + 2) = v((2z + 1)/z).
        g2_after_g1 = GaugeSpec(Mobius.of(2, 1, 1, 0), const(1), const(0))
        combined = gauge_mobius_transform(ode, g2_after_g1)
        assert ode_equal(stepwise, combined)


class TestSingularPoints:
    def test_no_coefficients_no_singularities(self):
        # No finite singular point; infinity is regular singular, because
        # the solution z of v'' = 0 is not analytic there.
        assert singular_points(LinearODE2(const(0), const(0))) == [
            SingularPoint(INFINITY, "regular")]

    def test_regular_points_of_simple_fuchsian(self):
        # gamma/z + delta/(z-1) style equation with poles at 0, 1 and infinity.
        p1 = 1 / z + 1 / (z - 1)
        p2 = (2 * z - 1) / (z * z * (z - 1))
        pts = singular_points(LinearODE2(p1, p2))
        finite = {p.location for p in pts if p.location != INFINITY}
        assert finite == {Fraction(0), Fraction(1)}
        assert all(p.kind == "regular" for p in pts)
        assert any(p.location == INFINITY for p in pts)

    def test_irregular_detection(self):
        # p1 with a double pole at 0 makes it irregular.
        pts = singular_points(LinearODE2(1 / (z * z), const(0)))
        at0 = [p for p in pts if p.location == Fraction(0)]
        assert at0 and at0[0].kind == "irregular"

    def test_unresolved_quadratic_factor(self):
        pts = singular_points(LinearODE2(1 / (z * z - 2), const(0)))
        assert any(isinstance(p.location, MultiPoly) for p in pts)

    def test_infinity_irregular_for_constant_p1(self):
        # v'' + v' = 0 has an irregular point at infinity (exponential growth).
        pts = singular_points(LinearODE2(const(1), const(0)))
        assert [p.kind for p in pts if p.location == INFINITY] == ["irregular"]

    def test_symbolic_mode_reports_denominators(self):
        t = var("t")
        ode = LinearODE2(1 / (z - t), const(0))
        with pytest.raises(ValueError):
            singular_points(ode)

    @pytest.mark.parametrize("p1, p2, expected", [
        (2 / z, const(0), []),
        (3 / z, 1 / z ** 4, ["regular"]),
        (const(0), 1 / z ** 2, ["regular"]),
        (const(0), 1 / z ** 3, ["regular"]),
        (const(0), 1 / z, ["irregular"]),
        (const(1), const(0), ["irregular"]),
        (1 / z ** 2, const(0), ["regular"]),
        (const(0), 1 / z ** 4, ["regular"]),
        (const(0), const(0), ["regular"]),
        (1 / z + 1 / (z - 1), 1 / (z ** 2 * (z - 1) * (z - 2)), []),
    ], ids=["2/z,0", "3/z,1/z^4", "0,1/z^2", "0,1/z^3", "0,1/z", "1,0",
            "1/z^2,0", "0,1/z^4", "0,0", "1/z+1/(z-1),1/(z^2(z-1)(z-2))"])
    def test_infinity_degree_rule_boundaries(self, p1, p2, expected):
        # In the chart w = 1/z, infinity is ordinary exactly when
        # p1 = 2/z + O(1/z^2) and p2 = O(1/z^4); a singular infinity is
        # regular when p1 = O(1/z) and p2 = O(1/z^2).
        pts = singular_points(LinearODE2(p1, p2))
        assert [p.kind for p in pts if p.location == INFINITY] == expected


class TestOdeEqual:
    def test_equal_and_perturbed(self):
        ode = LinearODE2(1 / z, (2 * z - 1) / (z * (z - 1)))
        assert ode_equal(ode, ode)
        other = LinearODE2(1 / z, (2 * z - 2) / (z * (z - 1)))
        assert not ode_equal(ode, other)
        diff = coefficient_diff(ode, other)
        assert diff["p1"].is_zero() and not diff["p2"].is_zero()

    def test_var_mismatch(self):
        with pytest.raises(ValueError):
            ode_equal(LinearODE2(const(0), const(1)),
                      LinearODE2(const(0), const(1), var="t"))
