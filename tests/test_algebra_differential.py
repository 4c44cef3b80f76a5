"""Differential tests: the integer kernel against its ``Fraction`` references.

``MultiPoly.primitive_int_coeffs`` reads a univariate polynomial's integer
coefficient list from its numerators, and ``algebra.exact_div`` divides
integer-primitive parts and rescales the quotient.  The references below are
the plain rational forms they replace: a coefficient list over ``Fraction``
cleared of denominators, and a graded-lex division over ``Fraction``.  Lists
must agree; quotients must agree with ``==`` and in the order of their terms,
which ``numeric.compile_scalar`` follows.

A ``MultiPoly`` holds int numerators over one positive denominator; the
references read each coefficient as ``Fraction(c, p.den)`` and align
exponents themselves.  ``TestIntegerForm`` checks that every kernel result
is in canonical integer form and equals the same operation done on
``Fraction`` coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from heunlab import algebra
from heunlab.algebra import MultiPoly, PoleAtPoint, RationalExpr

# ---------------------------------------------------------------------------
# References: the rational-arithmetic forms of the three routines.
# ---------------------------------------------------------------------------


def reference_int_coeff_list(p, name):
    deg = p.degree_in(name)
    coeffs = [Fraction(0)] * (deg + 1)
    if name in p.names:
        i = p.names.index(name)
        for e, c in p.terms.items():
            coeffs[e[i]] = Fraction(c, p.den)
    else:
        coeffs[0] = p.const_value()
    den_lcm = 1
    for c in coeffs:
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    ints = [int(c * den_lcm) for c in coeffs]
    g = math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)
    return [c // g for c in ints]


def fraction_terms(p, names):
    """p's coefficients as Fractions, exponents re-indexed over ``names``."""
    pos = [names.index(n) for n in p.names]
    out = {}
    for e, c in p.terms.items():
        ne = [0] * len(names)
        for j, k in zip(pos, e):
            ne[j] = k
        out[tuple(ne)] = Fraction(c, p.den)
    return out


def reference_exact_div(p, d):
    if d.is_const():
        return p * (1 / d.const_value())
    names = MultiPoly._union_names(p, d)
    rem = fraction_terms(p, names)
    dt = fraction_terms(d, names)
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
    for c in fraction_terms(p, p.names).values():
        num_gcd = math.gcd(num_gcd, abs(c.numerator))
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    c = Fraction(num_gcd, den_lcm)
    if p.leading()[1] < 0:
        c = -c
    return p * (1 / c)


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
        p = p + v * draw(NONZERO_SMALL)
    return p


@st.composite
def products(draw, max_factors=3):
    p = MultiPoly.const(draw(coefficients))
    for _ in range(draw(st.integers(1, max_factors))):
        p = p * draw(linear_factors())
    return p


# Derandomized and without an example database, so every run draws the same
# examples.
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestImageCoeffList:
    """``MultiPoly.primitive_int_coeffs``, the image coefficient list of a
    univariate polynomial, against its ``Fraction`` reference."""

    def test_zero_and_constant(self):
        with pytest.raises(ValueError):
            MultiPoly.const(0).primitive_int_coeffs("x")
        for c in (Fraction(-3, 4), Fraction(5)):
            p = MultiPoly.const(c)
            assert p.primitive_int_coeffs("x") == reference_int_coeff_list(p, "x") == [1]

    @SETTINGS
    @given(st.data())
    def test_univariate_matches_int_coeff_list(self, data):
        name = data.draw(st.sampled_from(NAMES))
        v = MultiPoly.variable(name)
        p = MultiPoly.const(data.draw(coefficients))
        for _ in range(data.draw(st.integers(1, 4))):
            p = p * v + MultiPoly.const(data.draw(st.integers(-5, 5)))
        assert p.primitive_int_coeffs(name) == reference_int_coeff_list(p, name)


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
        d = X * 2 + MultiPoly.const(2)
        p = (X + MultiPoly.const(1)) * (Y + MultiPoly.const(3))
        got = algebra.exact_div(p, d)
        assert same_poly(got, reference_exact_div(p, d))
        assert got == (Y + MultiPoly.const(3)) * Fraction(1, 2)
        # Rational content on both sides.
        p2 = p * Fraction(3, 7)
        d2 = d * Fraction(5, 4)
        assert same_poly(algebra.exact_div(p2, d2), reference_exact_div(p2, d2))

    def test_leading_coefficient_traps(self):
        # The divisor's primitive leading coefficient 2 fails to divide a
        # remainder's leading coefficient, so the integer division stops
        # there; the rational division reaches the same verdict later.
        cases = [
            (X ** 2 + MultiPoly.const(1), X * 2 + MultiPoly.const(1)),
            (X * Y + MultiPoly.const(1), X * 2 + Y),
            ((X * 2 + MultiPoly.const(1)) * (X + Y) + MultiPoly.const(1),
             X * 2 + MultiPoly.const(1)),
            # The first quotient coefficient is integral, a later one is not.
            (X * 4 * X + X * 3 + Y, X * 2 + MultiPoly.const(1)),
        ]
        for p, d in cases:
            assert algebra.exact_div(p, d) is None
            assert reference_exact_div(p, d) is None
        # A rational multiple of a multiple of the divisor still divides.
        d = X * 2 + MultiPoly.const(1)
        p = d * (X + Y) * Fraction(1, 3)
        assert same_poly(algebra.exact_div(p, d), reference_exact_div(p, d))

    def test_constant_and_zero(self):
        p = X * Y * Fraction(2, 3)
        assert algebra.exact_div(MultiPoly.const(0), X) == MultiPoly.const(0)
        c = MultiPoly.const(Fraction(3, 5))
        assert same_poly(algebra.exact_div(p, c), reference_exact_div(p, c))


class TestCanonPrimitive:
    @SETTINGS
    @given(st.one_of(polys(), products()))
    def test_matches_reference(self, p):
        assert same_poly(algebra._canon_primitive(p), reference_canon_primitive(p))


# ---------------------------------------------------------------------------
# The integer form: every kernel result is canonical int numerators over one
# positive denominator, equal to its Fraction-built twin and to the result of
# the same operation done on Fraction coefficients.
# ---------------------------------------------------------------------------


def assert_canonical(p):
    assert p.den > 0
    assert all(type(c) is int and c != 0 for c in p.terms.values())
    if p.terms:
        assert math.gcd(p.den, *p.terms.values()) == 1
    else:
        assert (p.names, p.den) == ((), 1)
    assert list(p.names) == sorted(p.names)
    assert all(any(e[i] for e in p.terms) for i in range(len(p.names)))
    assert same_poly(MultiPoly(p.names, fraction_terms(p, p.names)), p)


def union(a, b):
    return tuple(sorted(set(a.names) | set(b.names)))


def reference_add(a, b):
    names = union(a, b)
    out = fraction_terms(a, names)
    for e, c in fraction_terms(b, names).items():
        out[e] = out.get(e, 0) + c
    return MultiPoly(names, out)


def reference_mul(a, b):
    names = union(a, b)
    out = {}
    for ea, ca in fraction_terms(a, names).items():
        for eb, cb in fraction_terms(b, names).items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return MultiPoly(names, out)


def reference_derivative(p, name):
    if name not in p.names:
        return MultiPoly.const(0)
    i = p.names.index(name)
    return MultiPoly(p.names, {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                               for e, c in fraction_terms(p, p.names).items() if e[i]})


maybe_zero = st.one_of(polys(), products(), st.just(MultiPoly.const(0)))


class TestIntegerForm:
    @SETTINGS
    @given(maybe_zero, maybe_zero, coefficients)
    def test_arithmetic(self, a, b, c):
        fa = fraction_terms(a, a.names)
        for got, ref in ((a + b, reference_add(a, b)),
                         (a - b, reference_add(a, -b)),
                         (-a, MultiPoly(a.names, {e: -v for e, v in fa.items()})),
                         (a * b, reference_mul(a, b)),
                         (a * c, MultiPoly(a.names, {e: v * c for e, v in fa.items()}))):
            assert_canonical(got)
            assert same_poly(got, ref)

    @SETTINGS
    @given(maybe_zero, st.sampled_from(NAMES))
    def test_derivative_and_univar_view(self, p, name):
        got = p.derivative(name)
        assert_canonical(got)
        assert same_poly(got, reference_derivative(p, name))
        view = algebra._univar_view(p, name)
        v = MultiPoly.variable(name)
        for coeff in view.values():
            assert_canonical(coeff)
            assert name not in coeff.names
        assert sum((coeff * v ** k for k, coeff in view.items()), MultiPoly.const(0)) == p

    @SETTINGS
    @given(polys(), st.one_of(polys(), products()), polys(max_terms=2))
    def test_exact_div_and_canon_primitive(self, q, d, r):
        exact = q * d
        for p in (exact, exact + r):
            got = algebra.exact_div(p, d)
            assert got is not None or p is not exact
            if got is not None:
                assert_canonical(got)
                assert same_poly(got, reference_exact_div(p, d))
            got = algebra._canon_primitive(p)
            assert_canonical(got)
            assert same_poly(got, reference_canon_primitive(p))

    @SETTINGS
    @given(polys(), polys(), st.one_of(polys(), products()), st.sampled_from(NAMES))
    def test_substitute(self, p, u, v, name):
        value = algebra.RationalExpr(u, v)
        got = algebra.RationalExpr(p).substitute({name: value})
        assert_canonical(got.num)
        assert_canonical(got.den)
        assert got.den.leading()[1] == 1
        # Substituting and evaluating agree with evaluating the value first.
        point = {"x": Fraction(2), "y": Fraction(-3), "z": Fraction(5, 2)}
        try:
            inner = value.eval_exact(point)
            want = p.eval_exact({**point, name: inner})
        except PoleAtPoint:
            return
        assert got.eval_exact(point) == want


# ---------------------------------------------------------------------------
# Constant folding: RationalExpr arithmetic between two values without a name.
# ---------------------------------------------------------------------------

_BIG = 2 ** 64
_ints = st.one_of(st.sampled_from([0, 1, -1, _BIG + 1, -(_BIG * 3 + 7)]),
                  st.integers(-(2 ** 70), 2 ** 70))
_fractions = st.builds(Fraction, _ints,
                       st.one_of(st.sampled_from([1, 2, _BIG + 3]), st.integers(1, 2 ** 70)))


def _parts(e):
    return (e.num.names, e.num.terms, e.num.den), (e.den.names, e.den.terms, e.den.den)


class TestConstantFold:
    """Each folded result is, part for part, ``RationalExpr.const`` of the
    ``Fraction`` result: the form the polynomial path gave."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_fractions, _fractions)
    def test_matches_fraction_arithmetic(self, a, b):
        x, y = RationalExpr.const(a), RationalExpr.const(b)
        results = [(x + y, a + b), (x - y, a - b), (x * y, a * b)]
        if b:
            results.append((x / y, a / b))
        for k in range(-3, 4):
            if a or k >= 0:
                results.append((x ** k, a ** k))
        for got, want in results:
            assert _parts(got) == _parts(RationalExpr.const(want))

    def test_zero_division_still_raises(self):
        for op in (lambda: RationalExpr.const(3) / RationalExpr.const(0),
                   lambda: RationalExpr.const(0) ** -1):
            with pytest.raises(algebra.DivisionByZero):
                op()
