"""``poly_gcd`` and ``exact_div`` against sympy, an independent oracle.

``poly_gcd`` runs the heuristic gcd and falls back to the primitive PRS when
six evaluation points fail.  Every input family must give ``sympy.gcd`` up
to a nonzero constant, integer-primitive with a positive leading
coefficient: pairs where one input divides the other, univariate pairs
(whose images are ints), multivariate pairs (whose images are gcds one
variable down), pairs built to agree at four fixed integer points, pairs
whose larger input vanishes at the evaluation points that the smaller one's
norm fixes, and univariate products of degree 12 to 30.  One pinned pair
needs a second evaluation point, and a spy confirms the retry; another fails
at all six points, and so does every pair when each candidate is forced to
fail, and the PRS must still give the gcd; and every evaluation point tried
satisfies the bound of the theorem that certifies the result.  ``exact_div`` must return None exactly when
``sympy.div`` leaves a remainder, and sympy's quotient otherwise.  A
``RationalExpr`` built by ``+ - * /``, by ``derivative`` or by
``substitute`` must be sympy's value in lowest terms over a monic
denominator.  ``poly_cofactors`` must return that gcd with both exact
quotients, for zero, constant, equal and disjoint inputs, inputs with
monomial factors, integer contents and rational denominators, and when the
PRS decides.  ``substitute``, which multiplies each group of terms with the
same exponents in the bound names once, must agree with a term-by-term
substitution written here.
"""

from __future__ import annotations

import contextlib
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from heunlab import algebra
from heunlab.algebra import (
    DegenerateSubstitution,
    MultiPoly,
    RationalExpr,
    exact_div,
    poly_cofactors,
    poly_gcd,
)

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


def poly_in_x(coeffs: list[int]) -> MultiPoly:
    """The polynomial in x with the int coefficient list ``coeffs``, low to high."""
    return MultiPoly(("x",), {(k,): c for k, c in enumerate(coeffs) if c})


@contextlib.contextmanager
def candidates(replacement=None):
    """Record each evaluation point of the heuristic gcd as (a, b, x, xi).

    Both per-point functions are spied: ``_heu_candidate`` at the levels
    with more than one name, and ``_heu_candidate_dense`` at the univariate
    level, whose int lists are recorded as polynomials in x.  An optional
    ``replacement`` computes the candidate instead, from and to polynomials
    at both levels.
    """
    calls = []
    original = algebra._heu_candidate
    original_dense = algebra._heu_candidate_dense

    def spy(a, b, x, xi):
        calls.append((a, b, x, xi))
        return (replacement or original)(a, b, x, xi)

    def spy_dense(a, b, xi):
        pa, pb = poly_in_x(a), poly_in_x(b)
        calls.append((pa, pb, "x", xi))
        if replacement is None:
            return original_dense(a, b, xi)
        return replacement(pa, pb, "x", xi).primitive_int_coeffs("x")

    algebra._heu_candidate = spy
    algebra._heu_candidate_dense = spy_dense
    try:
        yield calls
    finally:
        algebra._heu_candidate = original
        algebra._heu_candidate_dense = original_dense


def dense_candidate(a: MultiPoly, b: MultiPoly, x: str, xi: int) -> MultiPoly:
    """The candidate of a recorded univariate call, as a polynomial in x."""
    return poly_in_x(algebra._heu_candidate_dense(algebra._int_coeffs(a),
                                                  algebra._int_coeffs(b), xi))


def norm(p: MultiPoly) -> int:
    return max(abs(c) for c in p.terms.values())


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
        p = p + v * draw(NONZERO_SMALL)
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


#: b agrees with a at these values of y in the pairs below.
AGREEMENT_POINTS = (-696, -101, 246, 876)


@st.composite
def unlucky_pairs(draw):
    """s*a and s*b with b = a + c * prod(y - y_i) over ``AGREEMENT_POINTS``.

    At each y_i, b's image in x equals a's, so an image gcd taken there has
    the whole degree of s*a, while gcd(s*a, s*b) is usually just s.
    """
    exps = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                         min_size=1, max_size=4, unique=True))
    a = MultiPoly(("x", "y"), {e: draw(NONZERO_COEFF) for e in exps})
    a = a + (X * draw(NONZERO_SMALL)) ** draw(st.integers(1, 3))
    spoiler = MultiPoly.const(draw(NONZERO_SMALL))
    for v in AGREEMENT_POINTS:
        spoiler = spoiler * (Y - v)
    shared = MultiPoly.const(1)
    for _ in range(draw(st.integers(0, 2))):
        shared = shared * (X * draw(NONZERO_SMALL) + Y * draw(small)
                           + MultiPoly.const(draw(small)))
    return shared * a, shared * (a + spoiler)


#: Pairs whose every candidate is forced to fail in
#: ``test_failed_candidates_fall_back_to_prs``, so that the PRS decides.
prs_pairs = st.one_of(multivariate_pairs(),
                      st.tuples(univariate(), univariate(), univariate()).map(
                          lambda t: (t[0] * t[1], t[0] * t[2])))


def xi_points(n: int) -> list[int]:
    """The six evaluation points for stripped inputs whose smaller norm is n."""
    out = [2 * n + 29]
    for _ in range(5):
        out.append(out[-1] * 73794 // 27011)
    return out


def stripped_norm(p: MultiPoly) -> int:
    """The max-norm of p without its integer content; monomials change none."""
    return norm(p) // math.gcd(*p.terms.values())


#: Univariate polynomials in x with a nonzero constant term.
constant_term_univariate = univariate(max_deg=2).filter(lambda p: p.eval_exact({"x": 0}) != 0)


@st.composite
def vanishing_pairs(draw):
    """(a, b, xi0): a vanishes at some of the points fixed by b's norm.

    b = s*r2, and a = s*r1*f*prod(x - xi_k) over a nonempty subset of
    ``xi_points(|b|)``, where f is 1 or a factor in y.  Every factor has a
    nonzero constant term, so a's stripped norm is at least the product of
    its roots xi_k, more than b's, and xi0 = 2*|b| + 29 is the first point.
    The image of a is then zero at each chosen point, and the first
    candidate is b's own primitive part.
    """
    s = draw(st.sampled_from([MultiPoly.const(1), X + 1, X * 2 - 3]))
    r1 = draw(constant_term_univariate)
    r2 = draw(constant_term_univariate)
    f = draw(st.sampled_from([MultiPoly.const(1), Y + 2, X * Y - 1]))
    b = s * r2
    points = xi_points(stripped_norm(b))
    chosen = draw(st.lists(st.sampled_from(points), min_size=1, max_size=6, unique=True))
    a = s * r1 * f
    for xi in chosen:
        a = a * (X - xi)
    return a, b, points[0]


class TestGcdOracle:
    @SETTINGS
    @given(products(), polys())
    def test_trial_division(self, d, q):
        # One input divides the other.
        a = d * q
        check_against_sympy(a, d, poly_gcd(a, d))

    @SETTINGS
    @given(univariate(min_deg=0, max_deg=2), univariate(), univariate())
    def test_univariate(self, shared, r1, r2):
        a, b = shared * r1, shared * r2
        check_against_sympy(a, b, poly_gcd(a, b))

    @SETTINGS
    @given(multivariate_pairs())
    def test_multivariate(self, pair):
        a, b = pair
        check_against_sympy(a, b, poly_gcd(a, b))

    @SETTINGS
    @given(unlucky_pairs())
    def test_unlucky_sample_points(self, pair):
        a, b = pair
        check_against_sympy(a, b, poly_gcd(a, b))

    def test_second_point(self):
        # gcd = 5x^2 + 1.  At the first point, xi = 2 * 5 + 29 = 39 (the
        # stripped a is 5x^3 + 5x^2 + x + 1), the cofactor images 40 and 7568
        # share 8, so the first candidate x^3 + x^2 + 8 divides neither input
        # and the next point, 39 * 73794 // 27011 = 106, gives the gcd.
        a = MultiPoly(("x",), {(4,): -30, (3,): -30, (2,): -6, (1,): -6})
        b = MultiPoly(("x",), {(4,): 25, (3,): -5, (2,): 15, (1,): -1, (0,): 2})
        with candidates() as calls:
            g = poly_gcd(a, b)
        assert [xi for *_, xi in calls] == [39, 106]
        assert str(dense_candidate(*calls[0])) == "x^3 + x^2 + 8"
        assert str(g) == "5*x^2 + 1"
        check_against_sympy(a, b, g)

    @SETTINGS
    @given(vanishing_pairs())
    def test_larger_input_vanishing_at_the_points(self, triple):
        a, b, xi0 = triple
        with candidates() as calls:
            g = poly_gcd(a, b)
        assert calls[0][3] == xi0
        check_against_sympy(a, b, g)

    def test_every_point_fails(self):
        # b = x + 2 fixes the points 33, 90, 245, 669, 1827 and 4991, and a
        # vanishes at each: every image gcd is b's image, the candidate
        # x + 2 never divides a, and the PRS finds the inputs coprime.
        a = MultiPoly.const(1)
        for r in (33, 90, 245, 669, 1827, 4991):
            a = a * (X - r)
        b = X + 2
        with candidates() as calls:
            g = poly_gcd(a, b)
        assert [xi for *_, xi in calls] == [33, 90, 245, 669, 1827, 4991]
        assert g == MultiPoly.const(1)
        assert sympy.gcd(to_sympy(a), to_sympy(b)) == 1
        assert RationalExpr(b) / RationalExpr(a) == RationalExpr(b, a)
        h = X * X + 1
        check_against_sympy(a * h, b * h, poly_gcd(a * h, b * h))

    @SETTINGS
    @given(prs_pairs)
    def test_failed_candidates_fall_back_to_prs(self, pair):
        # a * b has a higher degree than a in the shared variable, so this
        # candidate divides neither input at any point, at any level: every
        # heuristic gcd tries six points, then the PRS decides.
        a, b = pair
        with candidates(lambda a, b, x, xi: a * b) as calls:
            g = poly_gcd(a, b)
        assert len(calls) % algebra._XI_POINTS == 0
        check_against_sympy(a, b, g)

    @SETTINGS
    @given(st.one_of(multivariate_pairs(), unlucky_pairs(),
                     st.tuples(univariate(), univariate()).map(lambda t: (t[0] * t[1], t[1]))))
    def test_points_meet_the_certifying_bound(self, pair):
        # The theorem that certifies a candidate needs
        # xi >= 2 * min(|a|, |b|) + 2 for the stripped inputs: no integer
        # content and no monomial factor.
        with candidates() as calls:
            poly_gcd(*pair)
        for a, b, x, xi in calls:
            for p in (a, b):
                assert math.gcd(*p.terms.values()) == 1 and p.den == 1
                assert all(min(col) == 0 for col in zip(*p.terms))
                assert x in p.names
            assert xi >= 2 * min(norm(a), norm(b)) + 2


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
        self.check(p * 2 + d, d * 3)


# ---------------------------------------------------------------------------
# Cofactors
# ---------------------------------------------------------------------------


def check_cofactors(a: MultiPoly, b: MultiPoly) -> None:
    """poly_cofactors(a, b) is (g, a/g, b/g) for poly_gcd's g, sympy's gcd up to a unit."""
    g, qa, qb = poly_cofactors(a, b)
    assert g * qa == a and g * qb == b
    assert g == poly_gcd(a, b)
    if a.is_zero() and b.is_zero():
        assert g.is_zero()
    else:
        check_against_sympy(a, b, g)


C = MultiPoly.const
#: Rational scalars with and without an integer content or a denominator.
SCALES = st.sampled_from([Fraction(1), Fraction(6), Fraction(-4), Fraction(1, 3),
                          Fraction(-5, 12)])


@st.composite
def cofactor_pairs(draw):
    """Multivariate or univariate pairs with a shared factor, each input
    times its own monomial and rational scalar."""
    if draw(st.booleans()):
        a, b = draw(multivariate_pairs())
        names = (X, Y)
    else:
        s, r1, r2 = draw(univariate(min_deg=0, max_deg=2)), draw(univariate()), draw(univariate())
        a, b = s * r1, s * r2
        names = (X,)

    def scaled(p):
        for v in names:
            p = p * v ** draw(st.integers(0, 2))
        return p * draw(SCALES)

    return scaled(a), scaled(b)


class TestCofactorOracle:
    @pytest.mark.parametrize("a, b", [
        (C(0), C(0)), (C(0), X * 2 + 4), (X * Y - 3, C(0)), (C(0), C(Fraction(-3, 2))),
        (C(6), X + 1), (X * Y + 2, C(Fraction(1, 3))), (C(4), C(6)),
        (X * 2 - 4, X * 2 - 4), (X * Y * Fraction(2, 3) - 1, X * Y * Fraction(2, 3) - 1),
        (X * Y + 2, (X * Y + 2) * Fraction(1, 3)), (X - 5, (X - 5) * Fraction(-1, 2)),
        (X + 1, Y * 2 - 3), (X * 4, Y * 6),
        (X ** 3 * Y, X * Y ** 2 * 5), (X ** 2 * Y * (X + Y) * 6, X * Y ** 3 * (X - Y) * 4),
        (X ** 3 * (X + 1), X ** 2 * (X + 1) ** 2 * 3),
        ((X + 1) * 6, (X + 1) * (X - 2) * 4), ((X * Y + 1) * 10, (X * Y + 1) * (Y + 2) * 15),
        ((X + 1) * Fraction(1, 2), (X + 1) * (X - 3) * Fraction(2, 9)),
        ((X * Y - Z) * (X + Fraction(1, 3)), (X * Y - Z) * Fraction(5, 6)),
    ])
    def test_edge_cases(self, a, b):
        check_cofactors(a, b)
        check_cofactors(b, a)

    @SETTINGS
    @given(cofactor_pairs())
    def test_scaled_pairs(self, pair):
        check_cofactors(*pair)

    @SETTINGS
    @given(prs_pairs)
    def test_prs_fallback(self, pair):
        with candidates(lambda a, b, x, xi: a * b) as calls:
            check_cofactors(*pair)
        assert len(calls) % algebra._XI_POINTS == 0


# ---------------------------------------------------------------------------
# High-degree univariate inputs
# ---------------------------------------------------------------------------

univariate_factors = st.one_of(
    st.tuples(st.integers(1, 4), small).map(
        lambda t: X * t[0] + MultiPoly.const(t[1])),
    st.tuples(NONZERO_SMALL, small, small).map(
        lambda t: X * X * t[0] + X * t[1] + MultiPoly.const(t[2])),
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
        check_against_sympy(a, b, poly_gcd(a, b))

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
SHARED = (X, Y, X + 1, X * 2 - 1, X - Y, Y * 3 + 2)


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


@st.composite
def bindings(draw):
    """Up to three names bound to constants or to quotients of two ``SHARED`` factors.

    Each value comes with its sympy form.
    """
    out = {}
    for name in draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True)):
        if draw(st.booleans()):
            c = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
            out[name] = RationalExpr.const(c), sympy.Rational(c)
        else:
            u, v = draw(st.sampled_from(SHARED)), draw(st.sampled_from(SHARED))
            out[name] = RationalExpr(u, v), to_sympy(u) / to_sympy(v)
    return out


def check_canonical(expr: RationalExpr, sym) -> None:
    """expr is sympy's value sym in lowest terms over a monic denominator."""
    assert sympy.cancel(rational_sympy(expr) - sym) == 0
    assert sympy.gcd(poly_sympy(expr.num), poly_sympy(expr.den)).is_number
    assert expr.den.leading()[1] == 1


class TestCanonicalFormOracle:
    """Each ``RationalExpr`` is sympy's value in lowest terms, monic below.

    Values come from ``+ - * /``, and from the two paths that build one
    numerator and one denominator and canonicalise them once: the quotient
    rule of ``derivative`` and the common denominator of ``substitute``.
    """

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

    @SETTINGS
    @given(rationals(max_ops=2), st.sampled_from(NAMES))
    def test_derivative(self, pair, name):
        expr, sym = pair
        check_canonical(expr.derivative(name), sympy.diff(sym, sympy.Symbol(name)))

    @SETTINGS
    @given(rationals(max_ops=2), bindings())
    def test_substitute(self, pair, bound):
        expr, _ = pair
        subs = {sympy.Symbol(n): s for n, (_, s) in bound.items()}
        num, den = (sympy.cancel(poly_sympy(p).subs(subs, simultaneous=True))
                    for p in (expr.num, expr.den))
        values = {n: e for n, (e, _) in bound.items()}
        if den == 0:
            with pytest.raises(DegenerateSubstitution):
                expr.substitute(values)
        else:
            check_canonical(expr.substitute(values), num / den)


# ---------------------------------------------------------------------------
# Substitution against a term-by-term reference
# ---------------------------------------------------------------------------


def substitute_termwise(p: MultiPoly, values: dict[str, RationalExpr]) -> RationalExpr:
    """p with ``values`` bound, one term at a time, by ``RationalExpr`` arithmetic."""
    total = RationalExpr.const(0)
    for e, c in p.terms.items():
        term = RationalExpr.const(Fraction(c, p.den))
        for n, k in zip(p.names, e):
            term = term * values.get(n, RationalExpr.variable(n)) ** k
        total = total + term
    return total


SWAP = {"x": RationalExpr(Y), "y": RationalExpr(X)}


@st.composite
def substitutions(draw):
    """``bindings`` without their sympy forms, or the swap of x and y,
    possibly with z bound too."""
    if draw(st.booleans()):
        return {n: e for n, (e, _) in draw(bindings()).items()}
    out = dict(SWAP)
    if draw(st.booleans()):
        out["z"] = RationalExpr(draw(st.sampled_from(SHARED)), draw(st.sampled_from(SHARED)))
    return out


class TestSubstituteDifferential:
    """``substitute`` groups the terms of a polynomial by their exponents in
    the bound names; a term-by-term substitution must give the same value."""

    @staticmethod
    def check(expr: RationalExpr, values: dict[str, RationalExpr]) -> None:
        num, den = (substitute_termwise(p, values) for p in (expr.num, expr.den))
        if den.is_zero():
            with pytest.raises(DegenerateSubstitution):
                expr.substitute(values)
        else:
            assert expr.substitute(values) == num / den

    @SETTINGS
    @given(rationals(max_ops=2), SCALES, substitutions())
    def test_matches_termwise(self, pair, scale, values):
        self.check(pair[0] * RationalExpr.const(scale), values)

    def test_swap_with_unbound_names_and_rational_coefficients(self):
        p = (X ** 2 * Y * 3 + Y * Fraction(1, 2) - X * 5 + X * Z * Fraction(2, 7)
             + C(Fraction(7, 3)))
        expected = (Y ** 2 * X * 3 + X * Fraction(1, 2) - Y * 5 + Y * Z * Fraction(2, 7)
                    + C(Fraction(7, 3)))
        expr = RationalExpr(p, X * Y - Z)
        self.check(expr, SWAP)
        assert expr.substitute(SWAP) == RationalExpr(expected, X * Y - Z)

    def test_binding_that_zeroes_a_denominator(self):
        expr = RationalExpr(X + 1, X * Y - Y * Y + Z)
        values = {"x": RationalExpr(Y), "z": RationalExpr.const(0)}
        self.check(expr, values)
        with pytest.raises(DegenerateSubstitution):
            expr.substitute(values)
