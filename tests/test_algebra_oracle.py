"""``poly_gcd`` and ``exact_div`` against sympy, an independent oracle.

``poly_gcd`` picks one of three strategies: trial division, the univariate
integer PRS (``_gcd_univar``) and evaluation-interpolation.  Each strategy
gets inputs built to reach it, a spy confirms that it decided, and the result
must equal ``sympy.gcd`` up to a nonzero constant while being
integer-primitive with a positive leading coefficient.  Interpolation also
gets pairs aimed at the sample points of its degree bound, which make that
bound too high, and must raise ``AlgebraError`` rather than answer when every
attempt fails.  ``exact_div`` must return None exactly when ``sympy.div``
leaves a remainder, and sympy's quotient otherwise.  Univariate products of
degree 12 to 30 with shared factors go through both.
"""

from __future__ import annotations

import collections
import contextlib
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from heunlab import algebra
from heunlab.algebra import AlgebraError, MultiPoly, RationalExpr, exact_div, poly_gcd

sympy = pytest.importorskip("sympy")

NAMES = ("x", "y", "z")
NONZERO_SMALL = st.sampled_from([-3, -2, -1, 1, 2, 3])
NONZERO_COEFF = st.sampled_from([-6, -4, -3, -2, -1, 1, 2, 3, 4, 6])
X, Y, Z = (MultiPoly.variable(n) for n in NAMES)
SYMBOLS = sympy.symbols(NAMES)
SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.filter_too_much])


def to_sympy(p: MultiPoly):
    syms = [sympy.Symbol(n) for n in p.names]
    return sympy.Add(*(
        sympy.Rational(c, p.den)
        * sympy.Mul(*(s ** k for s, k in zip(syms, e)))
        for e, c in p.terms.items()))


STRATEGIES = ("_gcd_univar", "_image_gcd_degree", "_gcd_by_interpolation")


@contextlib.contextmanager
def spying(**replacements):
    """Count calls to the gcd strategies, optionally replacing some of them."""
    calls = collections.Counter()
    saved = {n: getattr(algebra, n) for n in STRATEGIES}

    def spy(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    try:
        for n, fn in saved.items():
            setattr(algebra, n, spy(n, replacements.get(n, fn)))
        yield calls
    finally:
        for n, fn in saved.items():
            setattr(algebra, n, fn)


def strategy_of(calls) -> str:
    if calls["_gcd_by_interpolation"]:
        return "interpolation"
    if calls["_image_gcd_degree"]:
        return "degree-bound"
    if calls["_gcd_univar"]:
        return "univar"
    return "trial"


def check_against_sympy(a: MultiPoly, b: MultiPoly, g: MultiPoly) -> None:
    expected = sympy.gcd(to_sympy(a), to_sympy(b))
    ratio = sympy.cancel(to_sympy(g) / expected)
    assert ratio.is_number and ratio != 0, (g, expected)
    coeffs = [Fraction(c, g.den) for c in g.terms.values()]
    assert all(c.denominator == 1 for c in coeffs)
    assert math.gcd(*(c.numerator for c in coeffs)) == 1
    assert g.leading()[1] > 0


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

small = st.integers(-5, 5)


@st.composite
def univariate(draw, name="x", min_deg=1, max_deg=3):
    v = MultiPoly.variable(name)
    p = MultiPoly.const(draw(st.integers(1, 4)))
    for _ in range(draw(st.integers(min_deg, max_deg))):
        p = p * v + MultiPoly.const(draw(small))
    return p


@st.composite
def linear_factors(draw):
    p = MultiPoly.const(draw(st.integers(-4, 4)))
    for v in draw(st.lists(st.sampled_from([X, Y, Z]), min_size=1, max_size=3, unique=True)):
        p = p + v.scale(draw(NONZERO_SMALL))
    return p


@st.composite
def products(draw, min_factors=1, max_factors=3):
    p = MultiPoly.const(1)
    for _ in range(draw(st.integers(min_factors, max_factors))):
        p = p * draw(linear_factors())
    return p


@st.composite
def polys(draw, max_terms=4, max_deg=2):
    exps = draw(st.lists(
        st.tuples(*(st.integers(0, max_deg) for _ in NAMES)),
        min_size=1, max_size=max_terms, unique=True))
    return MultiPoly(NAMES, {e: draw(NONZERO_COEFF) for e in exps})


@st.composite
def multivariate_pairs(draw):
    shared = draw(products())
    r1 = draw(polys()) + MultiPoly.const(draw(st.integers(1, 3)))
    r2 = draw(polys()) + MultiPoly.const(draw(st.integers(1, 3)))
    return shared * r1, shared * r2


def degree_bound_samples() -> list[int]:
    """The values of y at which ``_image_gcd_degree`` bounds a degree in x."""
    seen = []
    image = algebra._image_coeff_list

    def spy(p, name, point):
        seen.append(point["y"])
        return image(p, name, point)

    algebra._image_coeff_list = spy
    try:
        algebra._image_gcd_degree(X + Y, X + Y, "x")
    finally:
        algebra._image_coeff_list = image
    return sorted(set(seen))


@st.composite
def unlucky_pairs(draw):
    """s*a and s*b with b = a + c * prod(y - y_i) over the sampled y_i.

    At each sample point b's image in x equals a's, so the degree bound in x
    reads the whole degree of s*a, while gcd(s*a, s*b) is usually just s.
    """
    exps = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                         min_size=1, max_size=4, unique=True))
    a = MultiPoly(("x", "y"), {e: draw(NONZERO_COEFF) for e in exps})
    a = a + X.scale(draw(NONZERO_SMALL)) ** draw(st.integers(1, 3))
    spoiler = MultiPoly.const(draw(NONZERO_SMALL))
    for v in degree_bound_samples():
        spoiler = spoiler * (Y - v)
    shared = MultiPoly.const(1)
    for _ in range(draw(st.integers(0, 2))):
        shared = shared * (X.scale(draw(NONZERO_SMALL)) + Y.scale(draw(small))
                           + MultiPoly.const(draw(small)))
    return shared * a, shared * (a + spoiler)


class TestGcdOracle:
    @SETTINGS
    @given(products(), polys())
    def test_trial_division(self, d, q):
        a = d * q
        assume(not a.is_const() and a != d and len(a.terms) >= len(d.terms))
        with spying() as calls:
            g = poly_gcd(a, d)
        assert strategy_of(calls) == "trial"
        check_against_sympy(a, d, g)

    @SETTINGS
    @given(univariate(min_deg=0, max_deg=2), univariate(), univariate())
    def test_univariate(self, shared, r1, r2):
        a, b = shared * r1, shared * r2
        with spying() as calls:
            g = poly_gcd(a, b)
        assume(strategy_of(calls) == "univar")
        check_against_sympy(a, b, g)

    @SETTINGS
    @given(multivariate_pairs())
    def test_interpolation(self, pair):
        a, b = pair
        with spying() as calls:
            g = poly_gcd(a, b)
        assume(strategy_of(calls) == "interpolation")
        check_against_sympy(a, b, g)

    @SETTINGS
    @given(unlucky_pairs())
    def test_unlucky_sample_points(self, pair):
        a, b = pair
        with spying() as calls:
            g = poly_gcd(a, b)
        assume(strategy_of(calls) == "interpolation")
        check_against_sympy(a, b, g)

    @SETTINGS
    @given(multivariate_pairs())
    def test_failed_interpolation_raises(self, pair):
        a, b = pair
        with spying(_gcd_by_interpolation=lambda *args: None) as calls:
            try:
                poly_gcd(a, b)
            except AlgebraError:
                assert calls["_gcd_by_interpolation"] == 3
            else:
                assert not calls["_gcd_by_interpolation"]
        assume(calls["_gcd_by_interpolation"])


class TestExactDivOracle:
    @staticmethod
    def check(p: MultiPoly, d: MultiPoly) -> None:
        q, r = sympy.div(to_sympy(p), to_sympy(d), *SYMBOLS, domain=sympy.QQ)
        got = exact_div(p, d)
        if r == 0:
            assert got is not None and sympy.expand(to_sympy(got) - q) == 0
        else:
            assert got is None

    @SETTINGS
    @given(products(), polys())
    def test_multiples(self, d, q):
        self.check(d * q, d)

    @SETTINGS
    @given(products(), polys(), polys(max_terms=2))
    def test_near_multiples(self, d, q, r):
        self.check(d * q + r, d)

    @SETTINGS
    @given(polys(), products(max_factors=2))
    def test_arbitrary_pairs(self, p, d):
        self.check(p, d)
        self.check(p.scale(2) + d, d.scale(3))


# ---------------------------------------------------------------------------
# High-degree univariate inputs
# ---------------------------------------------------------------------------

univariate_factors = st.one_of(
    st.tuples(st.integers(1, 4), small).map(
        lambda t: X.scale(t[0]) + MultiPoly.const(t[1])),
    st.tuples(NONZERO_SMALL, small, small).map(
        lambda t: (X * X).scale(t[0]) + X.scale(t[1]) + MultiPoly.const(t[2])),
)


@st.composite
def high_degree_univariate(draw):
    """(s, s*r1, s*r2): products in x of degree 12 to 30 sharing the factor s.

    The factors are linear and quadratic with small coefficients, so roots,
    repeated factors and irreducible quadratics all occur.
    """
    shared = MultiPoly.const(draw(st.integers(1, 4)))
    for _ in range(draw(st.integers(1, 6))):
        shared = shared * draw(univariate_factors)
    out = [shared]
    for _ in range(2):
        p = shared
        target = draw(st.integers(12, 29))
        while p.degree_in("x") < target:
            p = p * draw(univariate_factors)
        out.append(p)
    return tuple(out)


class TestHighDegreeUnivariate:
    @SETTINGS
    @given(high_degree_univariate())
    def test_gcd(self, triple):
        _, a, b = triple
        with spying() as calls:
            g = poly_gcd(a, b)
        assume(strategy_of(calls) == "univar")
        check_against_sympy(a, b, g)

    @SETTINGS
    @given(high_degree_univariate())
    def test_exact_div(self, triple):
        shared, a, b = triple
        TestExactDivOracle.check(a, shared)
        TestExactDivOracle.check(a, b)
        TestExactDivOracle.check(a + X ** 3, shared)


# ---------------------------------------------------------------------------
# Canonical form of rational functions
# ---------------------------------------------------------------------------


@st.composite
def small_polys(draw, names):
    exps = draw(st.lists(
        st.tuples(*(st.integers(0, 2) for _ in names)),
        min_size=1, max_size=3, unique=True))
    return MultiPoly(names, {e: draw(NONZERO_COEFF) for e in exps})


def poly_sympy(p: MultiPoly):
    return to_sympy(p) if p.terms else sympy.Integer(0)


def rational_sympy(e: RationalExpr):
    return poly_sympy(e.num) / poly_sympy(e.den)


#: Factors shared between operands, so that sums and quotients cancel.
#: Their leading coefficients are not all 1.
SHARED = (X, Y, X + 1, X.scale(2) - 1, X - Y, Y.scale(3) + 2)


@st.composite
def rationals(draw, max_ops=3):
    """A rational function in two or three variables and the same in sympy.

    Built from a small polynomial by up to ``max_ops`` of +, -, * and / (on
    either side) with further small polynomials, each step done in both
    systems.  Every operand is a small polynomial times one of ``SHARED``.
    """
    names = draw(st.sampled_from([NAMES[:2], NAMES]))
    p = draw(small_polys(names)) * draw(st.sampled_from(SHARED))
    expr, sym = RationalExpr(p), to_sympy(p)
    for _ in range(draw(st.integers(1, max_ops))):
        q = draw(small_polys(names)) * draw(st.sampled_from(SHARED))
        rq, sq = RationalExpr(q), to_sympy(q)
        op = draw(st.sampled_from(["+", "-", "*", "/", "\\"]))
        if op == "\\" and expr.is_zero():
            op = "*"
        expr, sym = {
            "+": lambda: (expr + rq, sym + sq),
            "-": lambda: (expr - rq, sym - sq),
            "*": lambda: (expr * rq, sym * sq),
            "/": lambda: (expr / rq, sym / sq),
            "\\": lambda: (rq / expr, sq / sym),
        }[op]()
    return expr, sym


class TestCanonicalFormOracle:
    """Each ``RationalExpr`` is sympy's value in lowest terms, monic below."""

    @SETTINGS
    @given(rationals())
    def test_value_matches_sympy(self, pair):
        expr, sym = pair
        assert sympy.cancel(rational_sympy(expr) - sym) == 0

    @SETTINGS
    @given(rationals())
    def test_lowest_terms_and_monic_denominator(self, pair):
        expr, _ = pair
        assert sympy.gcd(poly_sympy(expr.num), poly_sympy(expr.den)).is_number
        assert expr.den.leading()[1] == 1

    @SETTINGS
    @given(rationals(max_ops=2), rationals(max_ops=2))
    def test_inverse_operations_restore_structure(self, pa, pb):
        (a, _), (b, _) = pa, pb
        # RationalExpr equality compares the canonical num and den term maps.
        assert (a + b) - b == a
        if not b.is_zero():
            assert (a * b) / b == a
