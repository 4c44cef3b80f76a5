"""Tests for ODE representation and transformations."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heunlab import ode
from heunlab.algebra import MultiPoly, RationalExpr, const, rational_roots, substitute, var
from heunlab.numeric import ode_singularities
from heunlab.ode import (
    INFINITY,
    GaugeSpec,
    LinearODE2,
    NoDerivativeEquation,
    OdeError,
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
        identity = GaugeSpec(z, const(1), const(0))
        out = gauge_mobius_transform(ode, identity)
        assert ode_equal(out, ode)

    def test_degenerate_mobius_rejected(self):
        # (z + 2)/(2 z + 4) is the constant 1/2.
        g = GaugeSpec((z + 2) / (2 * z + 4), const(1), const(0))
        with pytest.raises(OdeError, match="^the change of variable is constant$"):
            gauge_mobius_transform(LinearODE2(const(0), const(1)), g)

    def test_zero_prefactor_rejected(self):
        g = GaugeSpec(z, const(0), const(1))
        with pytest.raises(ValueError, match="prefactor"):
            gauge_mobius_transform(LinearODE2(const(0), const(1)), g)

    def test_gauge_then_inverse_restores(self):
        sigma = var("sigma")
        m = 1 / z  # an involution
        g = GaugeSpec(m, 1 / (z - 1), sigma)
        ode = LinearODE2(1 / z, (2 * z - 1) / (z * (z - 1)))
        once = gauge_mobius_transform(ode, g)
        # w(z) = phi(z)^sigma v(1/z) gives back v(z) = phi(1/z)^-sigma w(1/z).
        inverse = GaugeSpec(m, z / (1 - z), -sigma)
        back = gauge_mobius_transform(once, inverse)
        assert ode_equal(back, ode)

    def test_group_action_shared_exponent(self):
        sigma = var("sigma")
        g1 = GaugeSpec(z + 1, z + 2, sigma)
        g2 = GaugeSpec(2 * z, z - 3, sigma)
        ode = LinearODE2(1 / z, (z + 1) / (z * (z - 5)))
        stepwise = gauge_mobius_transform(gauge_mobius_transform(ode, g1), g2)
        # (z - 3)^sigma (2z + 2)^sigma v(2z + 1): g1 at 2z, times g2's prefactor.
        g2_after_g1 = GaugeSpec(2 * z + 1, (z - 3) * (2 * z + 2), sigma)
        combined = gauge_mobius_transform(ode, g2_after_g1)
        assert ode_equal(stepwise, combined)

    def test_pure_mobius_composition(self):
        g1 = GaugeSpec(z + 2, const(1), const(0))
        g2 = GaugeSpec(1 / z, const(1), const(0))
        ode = LinearODE2(1 / z, (z + 1) / (z * (z - 5)))
        stepwise = gauge_mobius_transform(gauge_mobius_transform(ode, g1), g2)
        # v(1/z + 2) = v((2z + 1)/z).
        g2_after_g1 = GaugeSpec((2 * z + 1) / z, const(1), const(0))
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
        # z^2 - 2 has no rational root: its poles +-sqrt(2) are not listed
        # unresolved, the equation is refused.
        with pytest.raises(OdeError, match="has a factor with no rational root$"):
            singular_points(LinearODE2(1 / (z * z - 2), const(0)))

    @pytest.mark.parametrize("p1, p2", [
        (1 / z, 1 / ((z * z + 1) ** 2 * (z * z - 2) ** 3)),
        (1 / (z * z - 2), 1 / (z * z - 2) ** 2),
        (1 / (z * z - 2) ** 2, 1 / (z * z - 2)),
        (1 / ((z * z - 2) * (z * z - 3)), 1 / (z * z - 2) ** 3),
    ], ids=["in-p2-only", "in-both-coefficients",
            "in-both-coefficients-swapped", "factors-that-differ"])
    def test_irrational_poles_refused(self, p1, p2):
        # z^2 - 2, z^2 + 1 and z^2 - 3 have no rational root: a denominator
        # with such a factor is refused, beside a rational pole too, and the
        # numeric lab gets no approximate pole in its place.
        eq = LinearODE2(p1, p2)
        with pytest.raises(OdeError, match="has a factor with no rational root$"):
            singular_points(eq)
        with pytest.raises(OdeError, match="has a factor with no rational root$"):
            ode_singularities(eq)

    def test_root_resolved_in_one_denominator_only(self):
        # f's root 2/1000003 has a denominator above 10^6 and is a pole of p1
        # alone: it is listed with order 0 in p2, and each root of z^2 - 9, a
        # pole of both, once, with its order in each.
        f = 1000003 * z - 2
        eq = LinearODE2(1 / (f * (z * z - 9)), 1 / (z * z - 9) ** 3)
        assert list(ode.finite_poles((eq.p1, eq.p2), "z").items()) == [
            (Fraction(-3), [1, 3]), (Fraction(2, 1000003), [1, 0]), (Fraction(3), [1, 3])]
        assert singular_points(eq) == [SingularPoint(Fraction(-3), "irregular"),
                                       SingularPoint(Fraction(2, 1000003), "regular"),
                                       SingularPoint(Fraction(3), "irregular"),
                                       SingularPoint(INFINITY, "regular")]

    def test_root_resolved_through_the_other_denominator(self):
        # p1's f g and p2's f^3 share f, whose root has a denominator above
        # 10^6.  Each denominator yields it, and it is listed once, with its
        # order 1 in p1 and 3 in p2; g's root is a pole of p1 alone.
        f, g = 1000003 * z - 2, 1000033 * z - 3
        pts = singular_points(LinearODE2(1 / (f * g), 1 / f ** 3))
        assert pts == [SingularPoint(Fraction(2, 1000003), "irregular"),
                       SingularPoint(Fraction(3, 1000033), "regular"),
                       SingularPoint(INFINITY, "regular")]
        assert ode_singularities(LinearODE2(1 / f, 1 / f ** 3)) == [complex(Fraction(2, 1000003))]

    def test_large_integer_root_resolved(self):
        # The root 1000003^2 of p2's squarefree (z - 1)(z - 1000003^2) is
        # found beside 1, which is listed once, with its order in each.
        n2 = 1000003 ** 2
        eq = LinearODE2(1 / (z - 1), 1 / ((z - 1) * (z - n2)))
        assert list(ode.finite_poles((eq.p1, eq.p2), "z").items()) == [
            (Fraction(1), [1, 1]), (Fraction(n2), [0, 1])]
        assert singular_points(eq) == [SingularPoint(Fraction(1), "regular"),
                                       SingularPoint(Fraction(n2), "regular"),
                                       SingularPoint(INFINITY, "regular")]

    def test_finite_poles_key_order(self):
        # p1 yields 3 and +-1/2; p2 yields -1, 2/1000003 and +-2.  The keys
        # are the poles of both, ascending, each with its order in each.
        f = 1000003 * z - 2
        p1 = 1 / ((z - 3) * (4 * z * z - 1))
        p2 = 1 / ((z + 1) * (z * z - 4) ** 2 * f ** 3)
        want = [Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(2, 1000003),
                Fraction(1, 2), Fraction(2), Fraction(3)]
        assert list(ode.finite_poles((p1, p2), "z").items()) == list(zip(want, [
            [0, 2], [0, 1], [1, 0], [0, 3], [1, 0], [0, 2], [1, 0]]))
        assert ode_singularities(LinearODE2(p1, p2)) == [complex(w) for w in want]

    def test_each_denominator_searched_once(self, monkeypatch):
        # The squarefree factor of p2's (z - N^2)^2 is p1's z - N^2: each
        # denominator is searched once, and the root N^2 is listed once.
        n2 = 1000003 ** 2
        calls = []
        search = ode.rational_roots
        monkeypatch.setattr(ode, "rational_roots", lambda c: calls.append(c) or search(c))
        pts = singular_points(LinearODE2(1 / (z - n2), 1 / (z - n2) ** 2))
        assert pts == [SingularPoint(Fraction(n2), "regular"),
                       SingularPoint(INFINITY, "regular")]
        assert calls == [[-n2, 1], [n2 ** 2, -2 * n2, 1]]

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


#: Every prime that divides a coefficient ``root_products`` draws.
ROOT_PRIMES = [2, 3, 5, 7, 11, 13, 1000003, 1000033]


def divisors(n: int) -> list[int]:
    """The positive divisors of n != 0, a product of powers of ROOT_PRIMES."""
    n = abs(n)
    divs = [1]
    for p in ROOT_PRIMES:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        divs = [d * p ** j for d in divs for j in range(k + 1)]
    assert n == 1
    return divs


def reference_rational_roots(coeffs: list[Fraction]) -> tuple[dict[Fraction, int], list[Fraction]]:
    """Rational roots by Fraction synthetic division over every candidate
    p/q with p dividing the lowest and q the leading coefficient: the
    rational root theorem, in place of the p-adic search of
    ``rational_roots``."""
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
    candidates = sorted({Fraction(sp * p, q) for p in divisors(iw[0])
                         for q in divisors(iw[-1]) for sp in (1, -1)})
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
        out[sum(e)] = Fraction(c, p.den)
    return out


def primitive(coeffs: list[Fraction]) -> list[int]:
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    g = math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)
    return [c // g for c in ints]


ZP = z.num
#: Two integers with prime factors above 10^6.
LARGE = [1000003 ** 2, 1000003 * 1000033]
IRREDUCIBLE_QUADRATICS = [ZP * ZP + 1, ZP * ZP - 2, ZP * ZP + ZP + 1,
                          ZP * ZP * 3 + ZP + 1, ZP * ZP * 5 - 7]


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
            num = draw(st.sampled_from(LARGE) if shape == "big"
                       else st.integers(-6, 6).filter(bool))
            factor = ZP * draw(st.integers(1, 6)) - MultiPoly.const(num)
        p = p * factor ** draw(st.integers(1, 3))
    return p


#: Leading coefficients with many small prime factors: 720720 and 2^5 3^3 5 ... 23.
SMOOTH = [720720, 2 ** 5 * 3 ** 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23]


@st.composite
def large_root_products(draw):
    """An integer multiple of a product of (b z - a)^k and of irreducible
    quadratics, as a primitive int list: |a| <= 2^200 and 0 < b <= 2^120,
    or a and b drawn from LARGE."""
    lin = st.tuples(st.integers(-2 ** 200, 2 ** 200) | st.sampled_from(LARGE),
                    st.integers(1, 2 ** 120) | st.sampled_from([1, *LARGE]))
    p = MultiPoly.const(draw(st.sampled_from([1, *SMOOTH])))
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            a, b = draw(lin)
            factor = ZP * b - MultiPoly.const(a)
        else:
            factor = draw(st.sampled_from(IRREDUCIBLE_QUADRATICS))
        p = p * factor ** draw(st.integers(1, 3))
    return p.primitive_int_coeffs("z")


class TestRationalRootsDifferential:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(root_products())
    def test_matches_fraction_reference(self, p):
        roots, leftover = rational_roots(p.primitive_int_coeffs("z"))
        ref_roots, ref_leftover = reference_rational_roots(dense_fractions(p))
        assert roots == ref_roots
        assert leftover == primitive(ref_leftover)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(large_root_products())
    def test_matches_sympy_factor_list(self, coeffs):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("z")
        _, factors = sympy.factor_list(sympy.Poly(coeffs[::-1], x))
        want, rest = {}, sympy.Poly(1, x)
        for f, k in factors:
            if f.degree() == 1:
                b, a = map(int, f.all_coeffs())
                want[Fraction(-a, b)] = k
            else:
                rest *= f ** k
        roots, leftover = rational_roots(coeffs)
        assert roots == want
        assert leftover == primitive([Fraction(int(c)) for c in rest.all_coeffs()[::-1]])

    def test_many_candidates(self):
        # The ends 720720 = 2^4 3^2 5 7 11 13 and 5040 = 2^4 3^2 5 7 have 240
        # and 60 divisors, so 3,240 signed coprime pairs p/q are candidates
        # of the reference.
        p = (ZP ** 2 * (ZP * 16 - MultiPoly.const(13))
             * (ZP * 9 + MultiPoly.const(11)) * (ZP * 5 - MultiPoly.const(7))
             * (ZP * ZP * 7 + ZP + MultiPoly.const(720)))
        coeffs = p.primitive_int_coeffs("z")
        assert (coeffs[2], coeffs[-1]) == (720720, 5040)
        roots, leftover = rational_roots(coeffs)
        ref_roots, ref_leftover = reference_rational_roots(dense_fractions(p))
        assert roots == ref_roots == {
            Fraction(0): 2, Fraction(-11, 9): 1, Fraction(13, 16): 1,
            Fraction(7, 5): 1}
        assert leftover == primitive(ref_leftover) == [720, 1, 7]

    def test_large_repeated_root(self):
        # The root 1000003 is found with its multiplicity 2, beside 0.
        p = (ZP * (ZP - MultiPoly.const(1000003)) ** 2)
        roots, leftover = rational_roots(p.primitive_int_coeffs("z"))
        assert roots == {Fraction(0): 1, Fraction(1000003): 2}
        assert leftover == [1]

    def test_splits_with_repeated_roots(self):
        p = (ZP * 3 - MultiPoly.const(2)) ** 2 * (ZP + MultiPoly.const(1)) * ZP ** 3
        roots, leftover = rational_roots(p.primitive_int_coeffs("z"))
        assert roots == {Fraction(0): 3, Fraction(-1): 1, Fraction(2, 3): 2}
        assert leftover == [1]

    @pytest.mark.parametrize("roots", [
        # 1 and 3 meet mod 2, and 1, 4 and 7 mod 3: the search runs mod 5.
        [Fraction(1), Fraction(3), Fraction(4), Fraction(7)],
        # Every prime up to 23 divides the leading coefficient: the search runs mod 29.
        [Fraction(1, 2 ** 5 * 3 ** 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23), Fraction(-2)],
        # 210 and 420 meet mod 2, 3, 5 and 7: the search runs mod 11.
        [Fraction(210), Fraction(420)],
    ], ids=["meet-mod-2-and-3", "smooth-lead", "meet-mod-small-primes"])
    def test_primes_that_merge_roots_are_skipped(self, roots):
        p = MultiPoly.const(1)
        for r in roots:
            p = p * (ZP * r.denominator - MultiPoly.const(r.numerator))
        assert rational_roots(p.primitive_int_coeffs("z")) == ({r: 1 for r in roots}, [1])


#: Denominator factors of the pole-search oracle test: z, small linear
#: factors, irreducible quadratics, and linear factors with a coefficient
#: whose prime factors are above 10^6.
POLE_FACTORS = ([ZP, ZP - 1, ZP + 2, ZP * 2 - 3, ZP * 3 + 1] + IRREDUCIBLE_QUADRATICS
                + [ZP - LARGE[0], ZP * LARGE[1] - 1])


@st.composite
def pole_coefficients(draw, n):
    """n coefficients 1/D, each D a product of POLE_FACTORS powers."""
    def den():
        d = MultiPoly.const(1)
        for f in draw(st.lists(st.sampled_from(POLE_FACTORS), max_size=3)):
            d = d * f ** draw(st.integers(1, 3))
        return d
    return tuple(1 / RationalExpr(den()) for _ in range(n))


class TestFinitePolesOracle:
    """The pole search behind ``singular_points``, against sympy's factor_list.

    The search refuses the coefficients exactly when sympy finds an
    irreducible factor of degree above 1 in some denominator over Q.
    Otherwise a key of ``finite_poles`` is a rational root, each root is
    a distinct linear factor of sympy's, and each carries its orders, one
    per coefficient, from the factorisations of every denominator.
    """

    @staticmethod
    def check(coeffs):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("z")

        def irreducibles(coeffs):
            _, factors = sympy.factor_list(sympy.Poly(coeffs[::-1], x))
            for f, k in factors:
                c = f.all_coeffs()
                yield tuple(-v if c[0] < 0 else v for v in c), k

        want: dict[tuple, list[int]] = {}
        for i, p in enumerate(coeffs):
            if not p.den.is_const():
                for f, k in irreducibles(p.den.primitive_int_coeffs("z")):
                    want.setdefault(f, [0] * len(coeffs))[i] += k
        if any(len(f) > 2 for f in want):
            with pytest.raises(OdeError, match="has a factor with no rational root$"):
                ode.finite_poles(coeffs, "z")
            return
        poles = ode.finite_poles(coeffs, "z")
        assert list(poles) == sorted(poles)
        got: dict[tuple, list[int]] = {}
        for key, ks in poles.items():
            assert isinstance(key, Fraction)
            [(f, k)] = irreducibles([-key.numerator, key.denominator])
            assert k == 1 and f not in got
            got[f] = ks
        assert got == want

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(pole_coefficients(2))
    # -2 is a pole of both, and p2's other root has a denominator above 10^6.
    @example((1 / (z + 2), 1 / ((z + 2) * (1000003 * 1000033 * z - 1))))
    def test_orders_match_sympy_factor_list(self, coeffs):
        self.check(coeffs)

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(pole_coefficients(3))
    # -2 is a pole of all three, beside two roots with prime factors above 10^6.
    @example((1 / (z + 2), 1 / ((z + 2) * (1000003 * 1000033 * z - 1)),
              1 / ((z + 2) ** 2 * (z - 1000003 ** 2))))
    def test_three_coefficients(self, coeffs):
        self.check(coeffs)
