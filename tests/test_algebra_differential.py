"""Differential tests: the integer gcd images and exact division against
their ``Fraction`` references.

``algebra._image_coeff_list`` evaluates a polynomial's univariate image in
ints after clearing denominators once, and ``algebra.exact_div`` divides
integer-primitive parts and rescales the quotient.  The references below are
the plain rational forms they replace: a univariate view whose coefficient
polynomials are evaluated with ``MultiPoly.eval_exact``, and a graded-lex
division over ``Fraction``.  Images must agree as lists (or both be None);
quotients must agree with ``==`` and in the order of their terms, which
``numeric.compile_scalar`` follows.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from heunlab import algebra
from heunlab.algebra import MultiPoly, UnknownVariable

# ---------------------------------------------------------------------------
# References: the rational-arithmetic forms of the three routines.
# ---------------------------------------------------------------------------


def reference_image_coeff_list(p, name, point):
    view = algebra._univar_view(p, name)
    out = [Fraction(0)] * (p.degree_in(name) + 1)
    try:
        for k, c in view.items():
            out[k] = c.eval_exact(point)
    except UnknownVariable:
        return None
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    if all(c == 0 for c in out):
        return None
    den_lcm = 1
    for c in out:
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    return algebra._int_primitive([int(c * den_lcm) for c in out])


def reference_int_coeff_list(p, name):
    deg = p.degree_in(name)
    coeffs = [Fraction(0)] * (deg + 1)
    if name in p.names:
        i = p.names.index(name)
        for e, c in p.terms.items():
            coeffs[e[i]] = c
    else:
        coeffs[0] = p.const_value()
    den_lcm = 1
    for c in coeffs:
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    return algebra._int_primitive([int(c * den_lcm) for c in coeffs])


def reference_exact_div(p, d):
    if d.is_const():
        return p.scale(1 / d.const_value())
    names = MultiPoly._union_names(p, d)
    rem = dict(p._aligned_to(names))
    dt = d._aligned_to(names)
    de = max(dt, key=lambda e: (sum(e), e))
    dc = dt[de]
    quot = {}
    while rem:
        re = max(rem, key=lambda e: (sum(e), e))
        qe = tuple(a - b for a, b in zip(re, de))
        if any(k < 0 for k in qe):
            return None
        qc = rem[re] / dc
        quot[qe] = qc
        for e, c in dt.items():
            ne = tuple(a + b for a, b in zip(qe, e))
            v = rem.get(ne, Fraction(0)) - qc * c
            if v:
                rem[ne] = v
            else:
                rem.pop(ne, None)
    return MultiPoly(names, quot)


def reference_canon_primitive(p):
    if p.is_zero():
        return p
    num_gcd, den_lcm = 0, 1
    for c in p.terms.values():
        num_gcd = math.gcd(num_gcd, abs(c.numerator))
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    c = Fraction(num_gcd, den_lcm)
    if p.leading()[1] < 0:
        c = -c
    return p.scale(1 / c)


def same_poly(a, b):
    """Equal values, and the terms in the same order."""
    return a == b and list(a.terms) == list(b.terms)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

NAMES = ("x", "y", "z")
NONZERO_SMALL = st.sampled_from([-3, -2, -1, 1, 2, 3])
X, Y, Z = (MultiPoly.variable(n) for n in NAMES)

# Rational coefficients with mixed denominators, zero excluded.
coefficients = st.builds(
    Fraction,
    st.sampled_from([-12, -7, -5, -3, -2, -1, 1, 2, 3, 5, 7, 12]),
    st.sampled_from([1, 1, 1, 2, 3, 4, 6, 9, 10]),
)


@st.composite
def polys(draw, max_terms=5, max_deg=3):
    exps = draw(st.lists(
        st.tuples(*(st.integers(0, max_deg) for _ in NAMES)),
        min_size=1, max_size=max_terms, unique=True))
    return MultiPoly(NAMES, {e: draw(coefficients) for e in exps})


# Small linear factors shared between operands, e.g. y + 3 or 2x - z + 1.
@st.composite
def linear_factors(draw):
    p = MultiPoly.const(draw(st.integers(-4, 4)))
    for v in draw(st.lists(st.sampled_from([X, Y, Z]), min_size=1, max_size=2, unique=True)):
        p = p + v.scale(draw(NONZERO_SMALL))
    return p


@st.composite
def products(draw, max_factors=3):
    p = MultiPoly.const(draw(coefficients))
    for _ in range(draw(st.integers(1, max_factors))):
        p = p * draw(linear_factors())
    return p


# Sample points: small ints, so that images often vanish or lose degree, and
# sometimes a variable left unbound.
@st.composite
def points(draw, main):
    out = {}
    for n in NAMES:
        if n != main and draw(st.integers(0, 5)):
            out[n] = draw(st.integers(-3, 3))
    return out


# Derandomized and without an example database, so every run draws the same
# examples.
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestImageCoeffList:
    @SETTINGS
    @given(st.data())
    def test_matches_reference(self, data):
        p = data.draw(st.one_of(polys(), products()))
        name = data.draw(st.sampled_from(NAMES))
        point = data.draw(points(name))
        assert algebra._image_coeff_list(p, name, point) == \
            reference_image_coeff_list(p, name, point)

    @SETTINGS
    @given(st.data())
    def test_vanishing_and_degree_loss(self, data):
        # p = (y - v) * (f + x^k * g) with y = v zeroes the whole image; the
        # top x-coefficient (y - v) * g alone loses the leading degree.
        v = data.draw(st.integers(-3, 3))
        f, g = data.draw(polys()), data.draw(polys())
        k = data.draw(st.integers(0, 4))
        shift = Y - MultiPoly.const(v)
        point = {"y": v, "z": data.draw(st.integers(-3, 3))}
        for p in (shift * (f + X ** k * g), f + shift * X ** 4 * g):
            assert algebra._image_coeff_list(p, "x", point) == \
                reference_image_coeff_list(p, "x", point)
        assert algebra._image_coeff_list(shift * f, "x", point) is None

    def test_zero_and_constant(self):
        zero = MultiPoly.const(0)
        assert algebra._image_coeff_list(zero, "x", {}) is None
        for c in (Fraction(-3, 4), Fraction(5)):
            p = MultiPoly.const(c)
            assert algebra._image_coeff_list(p, "x", {}) == \
                reference_image_coeff_list(p, "x", {}) == [1]

    def test_unbound_variable(self):
        p = X * Y + Z
        assert algebra._image_coeff_list(p, "x", {"y": 2}) is None
        assert reference_image_coeff_list(p, "x", {"y": 2}) is None
        # The main variable's own value, if present, is ignored.
        assert algebra._image_coeff_list(p, "x", {"x": 5, "y": 2, "z": 1}) == \
            reference_image_coeff_list(p, "x", {"x": 5, "y": 2, "z": 1}) == [1, 2]

    @SETTINGS
    @given(st.data())
    def test_univariate_matches_int_coeff_list(self, data):
        # _gcd_univar reads its inputs through _image_coeff_list(p, name, {}).
        name = data.draw(st.sampled_from(NAMES))
        v = MultiPoly.variable(name)
        p = MultiPoly.const(data.draw(coefficients))
        for _ in range(data.draw(st.integers(1, 4))):
            p = p * v + MultiPoly.const(data.draw(st.integers(-5, 5)))
        assert algebra._image_coeff_list(p, name, {}) == reference_int_coeff_list(p, name)


class TestImageGcd:
    @SETTINGS
    @given(st.data())
    def test_none_exactly_when_no_image_keeps_its_degree(self, data):
        # Each input's top x-coefficient is lc(g) or (y - v) * lc(g), so at
        # y = v an input may keep its degree or lose it; the helper reads an
        # image gcd only where one of them keeps it.
        v = data.draw(st.integers(-3, 3))
        point = {"y": v, "z": data.draw(st.integers(-3, 3))}
        shift = Y - MultiPoly.const(v)

        def operand():
            f, g = data.draw(polys()), data.draw(polys())
            return f + X ** 4 * g * (shift if data.draw(st.booleans()) else MultiPoly.const(1))

        a, b = operand(), operand()
        keeps = []
        for p in (a, b):
            view = algebra._univar_view(p, "x")
            keeps.append(view[max(view)].eval_exact(point) != 0)
        ia, ib = (reference_image_coeff_list(p, "x", point) for p in (a, b))
        got = algebra._image_gcd(a, b, "x", point, a.degree_in("x"), b.degree_in("x"))
        if ia is None or ib is None or not any(keeps):
            assert got is None
        else:
            assert got == algebra._int_gcd_lists(ia, ib)

    def test_degree_loss_cases(self):
        # a = x + y and b = y*x^2 + 1 at y = 0: only a keeps its degree.
        a, b = X + Y, Y * X ** 2 + MultiPoly.const(1)
        assert algebra._image_gcd(a, b, "x", {"y": 0}, 1, 2) == [1]
        # Both lose it: no bound can be read there.
        assert algebra._image_gcd(Y * X + MultiPoly.const(1), b, "x", {"y": 0}, 1, 2) is None
        # An image that vanishes, or an unbound variable, reads nothing.
        assert algebra._image_gcd(Y * X, a, "x", {"y": 0}, 1, 1) is None
        assert algebra._image_gcd(a, b, "x", {}, 1, 2) is None


class TestExactDiv:
    @SETTINGS
    @given(polys(), st.one_of(polys(), products()))
    def test_exact_quotient(self, q, d):
        p = q * d
        got = algebra.exact_div(p, d)
        assert same_poly(got, reference_exact_div(p, d))
        assert got == q

    @SETTINGS
    @given(st.one_of(polys(), products()), st.one_of(polys(), products()))
    def test_arbitrary_pairs(self, p, d):
        got = algebra.exact_div(p, d)
        ref = reference_exact_div(p, d)
        assert (got is None) == (ref is None)
        if got is not None:
            assert same_poly(got, ref)

    @SETTINGS
    @given(products(), products(), polys(max_terms=2))
    def test_near_multiples(self, shared, q, r):
        # (shared * q + r) / shared is inexact unless r is a multiple.
        p = shared * q + r
        got = algebra.exact_div(p, shared)
        ref = reference_exact_div(p, shared)
        assert (got is None) == (ref is None)
        if got is not None:
            assert same_poly(got, ref)

    def test_non_unit_content(self):
        # (2x + 2) | (x + 1)(y + 3): the quotient (y + 3)/2 is not integral,
        # yet the primitive parts divide exactly.
        d = X.scale(2) + MultiPoly.const(2)
        p = (X + MultiPoly.const(1)) * (Y + MultiPoly.const(3))
        got = algebra.exact_div(p, d)
        assert same_poly(got, reference_exact_div(p, d))
        assert got == (Y + MultiPoly.const(3)).scale(Fraction(1, 2))
        # Rational content on both sides.
        p2 = p.scale(Fraction(3, 7))
        d2 = d.scale(Fraction(5, 4))
        assert same_poly(algebra.exact_div(p2, d2), reference_exact_div(p2, d2))

    def test_leading_coefficient_traps(self):
        # The divisor's primitive leading coefficient 2 fails to divide a
        # remainder's leading coefficient, so the integer division stops
        # there; the rational division reaches the same verdict later.
        cases = [
            (X ** 2 + MultiPoly.const(1), X.scale(2) + MultiPoly.const(1)),
            (X * Y + MultiPoly.const(1), X.scale(2) + Y),
            ((X.scale(2) + MultiPoly.const(1)) * (X + Y) + MultiPoly.const(1),
             X.scale(2) + MultiPoly.const(1)),
            # The first quotient coefficient is integral, a later one is not.
            (X.scale(4) * X + X.scale(3) + Y, X.scale(2) + MultiPoly.const(1)),
        ]
        for p, d in cases:
            assert algebra.exact_div(p, d) is None
            assert reference_exact_div(p, d) is None
        # A rational multiple of a multiple of the divisor still divides.
        d = X.scale(2) + MultiPoly.const(1)
        p = (d * (X + Y)).scale(Fraction(1, 3))
        assert same_poly(algebra.exact_div(p, d), reference_exact_div(p, d))

    def test_constant_and_zero(self):
        p = X * Y.scale(Fraction(2, 3))
        assert algebra.exact_div(MultiPoly.const(0), X) == MultiPoly.const(0)
        c = MultiPoly.const(Fraction(3, 5))
        assert same_poly(algebra.exact_div(p, c), reference_exact_div(p, c))


class TestCanonPrimitive:
    @SETTINGS
    @given(st.one_of(polys(), products()))
    def test_matches_reference(self, p):
        assert same_poly(algebra._canon_primitive(p), reference_canon_primitive(p))
