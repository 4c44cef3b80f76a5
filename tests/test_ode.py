"""Tests for ODE representation and transformations."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heunlab import ode
from heunlab.algebra import MultiPoly, _int_primitive, const, substitute, var
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

    def test_unresolved_factors_in_p2_only(self):
        # z^2 - 2 and z^2 + 1 do not split over Q and are poles of p2 alone:
        # of order 3 (irregular) and 2 (regular).  They follow the rational
        # points, in the order of p2's squarefree decomposition.
        q, r = (z * z - 2).num, (z * z + 1).num
        pts = singular_points(LinearODE2(1 / z, 1 / ((z * z + 1) ** 2 * (z * z - 2) ** 3)))
        assert pts == [SingularPoint(Fraction(0), "regular"),
                       SingularPoint(r, "regular"),
                       SingularPoint(q, "irregular"),
                       SingularPoint(INFINITY, "regular")]

    def test_unresolved_factor_in_both_coefficients(self):
        q = (z * z - 2).num
        pts = singular_points(LinearODE2(1 / (z * z - 2), 1 / (z * z - 2) ** 2))
        assert pts == [SingularPoint(q, "regular"), SingularPoint(INFINITY, "regular")]
        pts = singular_points(LinearODE2(1 / (z * z - 2) ** 2, 1 / (z * z - 2)))
        assert pts[0] == SingularPoint(q, "irregular")

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


def reference_rational_roots(coeffs: list[Fraction]) -> tuple[dict[Fraction, int], list[Fraction]]:
    """Rational roots by Fraction synthetic division: the form that
    ``ode._rational_roots`` replaced with exact integer division."""
    work = list(coeffs)
    while len(work) > 1 and work[-1] == 0:
        work.pop()
    roots: dict[Fraction, int] = {}
    while len(work) > 1 and work[0] == 0:
        roots[Fraction(0)] = roots.get(Fraction(0), 0) + 1
        work = work[1:]
    if len(work) == 1:
        return roots, work
    den_lcm = 1
    for c in work:
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    iw = [int(c * den_lcm) for c in work]
    g = 0
    for c in iw:
        g = math.gcd(g, c)
    iw = [c // g for c in iw]
    p_divs = ode._divisors(iw[0])
    q_divs = ode._divisors(iw[-1])
    if p_divs is None or q_divs is None:
        return roots, work
    candidates = sorted(
        {Fraction(sp * p, q) for p in p_divs for q in q_divs for sp in (1, -1)})
    frac = [Fraction(c) for c in iw]
    for r in candidates:
        while len(frac) > 1:
            deg = len(frac) - 1
            quot = [Fraction(0)] * deg
            quot[deg - 1] = frac[deg]
            for k in range(deg - 1, 0, -1):
                quot[k - 1] = frac[k] + r * quot[k]
            rem = frac[0] + r * quot[0]
            if rem != 0:
                break
            roots[r] = roots.get(r, 0) + 1
            frac = quot
    return roots, frac


def dense_fractions(p: MultiPoly) -> list[Fraction]:
    out = [Fraction(0)] * (p.degree_in("z") + 1)
    for e, c in p.terms.items():
        out[sum(e)] = c
    return out


def primitive(coeffs: list[Fraction]) -> list[int]:
    den = math.lcm(*(c.denominator for c in coeffs))
    return _int_primitive([int(c * den) for c in coeffs])


ZP = z.num
# Two products of primes above the trial-division limit of ode._divisors.
PAST_DIVISORS_LIMIT = [1000003 ** 2, 1000003 * 1000033]
IRREDUCIBLE_QUADRATICS = [ZP * ZP + 1, ZP * ZP - 2, ZP * ZP + ZP + 1,
                          (ZP * ZP).scale(3) + ZP + 1, (ZP * ZP).scale(5) - 7]


@st.composite
def root_products(draw):
    """A rational multiple of a product of (q z - p)^k, z^k and irreducible
    quadratics."""
    p = MultiPoly.const(draw(st.sampled_from(
        [Fraction(1), Fraction(-2), Fraction(3, 7), Fraction(-5, 12)])))
    for _ in range(draw(st.integers(1, 3))):
        shape = draw(st.sampled_from(["linear", "linear", "zero", "quadratic", "big"]))
        if shape == "zero":
            factor = ZP
        elif shape == "quadratic":
            factor = draw(st.sampled_from(IRREDUCIBLE_QUADRATICS))
        else:
            num = draw(st.sampled_from(PAST_DIVISORS_LIMIT) if shape == "big"
                       else st.integers(-6, 6).filter(bool))
            factor = ZP.scale(draw(st.integers(1, 6))) - MultiPoly.const(num)
        p = p * factor ** draw(st.integers(1, 3))
    return p


class TestRationalRootsDifferential:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(root_products())
    def test_matches_fraction_reference(self, p):
        roots, leftover = ode._rational_roots(p.primitive_int_coeffs("z"))
        ref_roots, ref_leftover = reference_rational_roots(dense_fractions(p))
        assert list(roots.items()) == list(ref_roots.items())
        assert leftover == primitive(ref_leftover)

    def test_past_divisors_limit_keeps_the_polynomial(self):
        # 1000003^2 has no divisor list, so only the root 0 is split off.
        p = (ZP * (ZP - MultiPoly.const(1000003)) ** 2)
        roots, leftover = ode._rational_roots(p.primitive_int_coeffs("z"))
        assert roots == {Fraction(0): 1}
        assert leftover == [1000003 ** 2, -2 * 1000003, 1]

    def test_splits_with_repeated_roots(self):
        p = (ZP.scale(3) - MultiPoly.const(2)) ** 2 * (ZP + MultiPoly.const(1)) * ZP ** 3
        roots, leftover = ode._rational_roots(p.primitive_int_coeffs("z"))
        assert roots == {Fraction(0): 3, Fraction(-1): 1, Fraction(2, 3): 2}
        assert leftover == [1]
