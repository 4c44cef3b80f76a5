"""Tests for the exact rational-arithmetic kernel."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from heunlab import algebra
from heunlab.algebra import (
    DegenerateSubstitution,
    DivisionByZero,
    MultiPoly,
    PoleAtPoint,
    RationalExpr,
    UnknownVariable,
    const,
    exact_div,
    find_witness,
    identity_test,
    poly_gcd,
    poly_sqrt,
    substitute,
    var,
)

z = var("z")
t = var("t")
x = var("x")


def rnd_poly(rng: random.Random, names=("x", "y"), max_deg=3, max_terms=4) -> RationalExpr:
    p = RationalExpr.const(0)
    for _ in range(rng.randint(1, max_terms)):
        term = const(rng.randint(-9, 9))
        for n in names:
            term = term * var(n) ** rng.randint(0, max_deg)
        p = p + term
    return p


def rnd_rational(rng: random.Random) -> RationalExpr:
    num = rnd_poly(rng)
    den = rnd_poly(rng)
    while den.is_zero():
        den = rnd_poly(rng)
    return num / den


class TestBasicArithmetic:
    def test_common_denominator_add(self):
        assert z / (z - 1) + 1 / (z - 1) == (z + 1) / (z - 1)

    def test_multiplicative_inverse(self):
        assert x * (1 / x) == const(1)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            const(1) / const(0)

    def test_binomial_square_canonical(self):
        assert (z + 1) ** 2 == z ** 2 + 2 * z + 1

    def test_cancellation(self):
        e = (z ** 2 - 1) / (z - 1)
        assert e == z + 1
        assert e.is_polynomial()

    def test_denominator_monic(self):
        e = const(1) / (2 * z - 4)
        assert e.den == (z - 2).num
        assert e.num.const_value() == Fraction(1, 2)

    def test_nested_fraction(self):
        e = (1 / z + 1 / (z - 1)) / (1 / (z * (z - 1)))
        assert e == 2 * z - 1

    def test_negative_power(self):
        e = (2 * z) / (z - 1)
        inv = e ** -2
        assert inv == (z - 1) ** 2 / (4 * z ** 2)
        assert inv.den == (z ** 2).num  # monic after the swap
        assert inv * e ** 2 == const(1)
        with pytest.raises(DivisionByZero):
            const(0) ** -1

    def test_primitive_int_coeffs(self):
        p = (z ** 3 / 6 - z / 4 + const(1, 2)).num
        assert p.primitive_int_coeffs("z") == [6, -3, 0, 2]
        assert (-p).primitive_int_coeffs("z") == [6, -3, 0, 2]
        assert const(-3).num.primitive_int_coeffs("z") == [1]
        for bad in ((z * t).num, const(0).num):
            with pytest.raises(ValueError):
                bad.primitive_int_coeffs("z")


class TestDifferentiate:
    def test_simple_pole(self):
        lam = var("lambda")
        e = 1 / (z - lam)
        assert e.derivative("z") == -1 / (z - lam) ** 2

    def test_constant_in_var(self):
        assert (t ** 3 + 2).derivative("z").is_zero()

    def test_unknown_variable_name(self):
        with pytest.raises(UnknownVariable):
            z.derivative("not a name!")

    def test_quotient_rule(self):
        e = (z ** 2 + 1) / (z - 3)
        d = e.derivative("z")
        expect = ((2 * z) * (z - 3) - (z ** 2 + 1)) / (z - 3) ** 2
        assert d == expect


class TestSubstitute:
    def test_accessory_parameter_shift(self):
        alpha, beta, lam, q = var("alpha"), var("beta"), var("lambda"), var("q")
        e = alpha * beta * z - q
        out = substitute(e, {"q": alpha * beta * lam})
        assert out == alpha * beta * (z - lam)

    def test_identity_bindings(self):
        e = (z ** 2 + t) / (z - t)
        assert substitute(e, {"z": z, "t": t}) == e

    def test_degenerate(self):
        with pytest.raises(DegenerateSubstitution):
            substitute(1 / z, {"z": const(0)})

    def test_simultaneous_not_sequential(self):
        # x -> y, y -> x swaps; sequential application would collapse both to x.
        y = var("y")
        e = x - y
        out = substitute(e, {"x": y, "y": x})
        assert out == y - x

    def test_rational_binding(self):
        out = substitute(z ** 2, {"z": 1 / (t - 1)})
        assert out == 1 / (t - 1) ** 2


class TestEval:
    def test_plain_value(self):
        e = (z ** 2 - 1) / (z - 1)
        assert e.eval_exact({"z": Fraction(3)}) == 4

    def test_pole(self):
        with pytest.raises(PoleAtPoint):
            (1 / z).eval_exact({"z": Fraction(0)})

    def test_missing_value(self):
        with pytest.raises(UnknownVariable):
            (z + t).eval_exact({"z": Fraction(1)})


class TestIdentity:
    def test_syntactic_equal(self):
        a = (z + 1) ** 2
        assert identity_test(a, a)

    def test_expanded_square(self):
        a = (z + 1) ** 2
        b = z ** 2 + 2 * z + 1
        assert identity_test(a, b)

    def test_witnessed_difference(self):
        a = z ** 2
        b = z ** 2 + z
        assert not identity_test(a, b)
        witness = find_witness(a - b, seed=3)
        point = {k: Fraction(v) for k, v in witness["point"].items()}
        assert set(point) == {"z"}
        assert Fraction(witness["difference"]) == (a - b).eval_exact(point) != 0


class TestAlgebraLaws:
    """Ring/field laws and calculus rules on random inputs."""

    def test_field_laws(self):
        rng = random.Random(99)
        for _ in range(25):
            a, b, c = (rnd_rational(rng) for _ in range(3))
            assert identity_test((a + b) + c, a + (b + c))
            assert identity_test(a * (b + c), a * b + a * c)
            assert identity_test(a + (-a), const(0))
            if not b.is_zero():
                assert identity_test((a / b) * b, a)

    def test_canonicalization_idempotent(self):
        rng = random.Random(7)
        for _ in range(25):
            e = rnd_rational(rng)
            again = RationalExpr(e.num, e.den)
            assert again.num == e.num and again.den == e.den

    def test_product_rule_and_linearity(self):
        rng = random.Random(31)
        for _ in range(15):
            a = rnd_rational(rng)
            b = rnd_rational(rng)
            da, db = a.derivative("x"), b.derivative("x")
            assert identity_test((a * b).derivative("x"), da * b + a * db)
            assert identity_test((a + b).derivative("x"), da + db)

    def test_substitution_commutes_with_arithmetic(self):
        rng = random.Random(55)
        u = (t + 2) / (t - 5)
        for _ in range(15):
            a = rnd_rational(rng)
            b = rnd_rational(rng)
            bind = {"x": u}
            assert identity_test(
                substitute(a + b, bind), substitute(a, bind) + substitute(b, bind))
            assert identity_test(
                substitute(a * b, bind), substitute(a, bind) * substitute(b, bind))


class TestPolyHelpers:
    def test_gcd_of_shared_linear_factors(self):
        a = ((z - 1) * (z - 2) * (z + 5)).num
        b = ((z - 2) * (z + 5) * (z + 7)).num
        g = poly_gcd(a, b)
        assert exact_div(a, g) is not None
        assert exact_div(b, g) is not None
        assert g == ((z - 2) * (z + 5)).num

    def test_gcd_multivariate(self):
        lam = var("lambda")
        a = ((z - lam) ** 2 * (z + 1)).num
        b = ((z - lam) * (z - 3)).num
        g = poly_gcd(a, b)
        assert g == (lam - z).num
        assert exact_div(a, g) is not None and exact_div(b, g) is not None

    def test_gcd_coprime(self):
        assert poly_gcd((z + 1).num, (z + 2).num).is_const()

    def test_exact_div_fails_cleanly(self):
        assert exact_div((z ** 2 + 1).num, (z + 1).num) is None

    def test_sqrt(self):
        g, d, e = var("g"), var("d"), var("e")
        disc = ((g + d + e - 2) ** 2).num
        assert poly_sqrt(disc) is not None
        assert poly_sqrt((z ** 2 + 1).num) is None
        r = poly_sqrt(((z + t) ** 4).num)
        assert r == ((z + t) ** 2).num

    def test_gcd_maximality_on_structured_products(self):
        # The gcd engine is the keystone of every canonical form: stress it
        # with known shared factors (products of the same linear pieces the
        # denominators in this package are built from) and certify both
        # divisibility and maximality.
        rng = random.Random(4242)
        names = ("z", "t", "lambda", "mu")
        for _ in range(25):
            def small_linear():
                e = const(rng.randint(-3, 3))
                for n in rng.sample(names, rng.randint(1, 2)):
                    e = e + rng.randint(-2, 2) * var(n)
                return e if not e.is_zero() else var("z") - 1

            shared = const(1)
            for _ in range(rng.randint(1, 3)):
                shared = shared * small_linear()
            r1 = rnd_poly(rng, names=("z", "t"), max_deg=2, max_terms=3) + 1
            r2 = rnd_poly(rng, names=("lambda", "mu"), max_deg=2, max_terms=3) + 1
            a = (shared * r1).num
            b = (shared * r2).num
            g = poly_gcd(a, b)
            qa = exact_div(a, g)
            qb = exact_div(b, g)
            assert qa is not None and qb is not None
            assert exact_div(g, poly_gcd(shared.num, g)) is not None
            assert exact_div(g, shared.num) is not None  # shared | gcd
            assert poly_gcd(qa, qb).is_const()           # nothing left over

    def test_unlucky_degree_bound_is_lowered(self):
        # b agrees with a at y = -101, -696, 246, 876, so images in x taken
        # at those values have the false gcd degree 1.  The gcd is constant,
        # and it is h once both inputs are multiplied by h.
        y = var("y")
        a = x - y ** 5
        b = a - (y + 101) * (y + 696) * (y - 246) * (y - 876)
        assert poly_gcd(a.num, b.num).is_const()
        h = x * y + 3
        assert poly_gcd((a * h).num, (b * h).num) == h.num

    def test_str_roundtrip_smoke(self):
        e = (z ** 2 - t) / (3 * z * (z - 1))
        s = str(e)
        assert "z" in s and "/" in s


class TestKernelWorkCounts:
    """Work of the gcd kernel on the two largest claims and on two claims
    made mostly of substitutions and derivatives, pinned exactly.

    The gcd is deterministic, so the number of calls to each routine repeats
    to the unit.  A change that moves any of them changes what the kernel
    computes, not only how fast: it shows here even when wall time is too
    noisy to show it.  ``_heu_gcd`` counts the heuristic gcds at every
    level of its recursion with more than one name, and ``_heu_candidate``
    their evaluation points; ``_heu_gcd_dense`` and ``_heu_candidate_dense``
    count the same at the univariate level, on int lists, where the
    top-level gcds in one name and the last level of each recursion run.
    p5 has four gcds that need a second point, all of them inner gcds of
    images with more than one name; p6 and riccati/p6 have none, and
    elimination/p3-substitution runs no heuristic gcd at all.
    ``exact_div`` counts the certificates of nonconstant candidates with
    more than one name along with every other exact division;
    ``_div_dense`` counts the long divisions of the univariate level, its
    certificates and the univariate ``exact_div`` calls alike; the
    quotients of each certificate are the cofactors, so no canonical pair
    divides again.  ``poly_cofactors`` counts every gcd, the image gcds of
    the recursion among them; calls with a constant operand return at once,
    but they count too.  ``MultiPoly.__mul__`` counts the products, where
    the substitutions show: each group of terms with the same exponents in
    the bound names is multiplied by its powers once.  The constructor
    caches start empty (``cold_constructors``), so the counts include
    building the cases and do not depend on the tests before.
    """

    COUNTED = ("poly_cofactors", "exact_div", "_heu_gcd", "_heu_candidate",
               "_heu_gcd_dense", "_heu_candidate_dense", "_div_dense",
               "MultiPoly.__mul__")
    COUNTS = {
        "matching/p5": {"poly_cofactors": 542, "exact_div": 68,
                        "_heu_gcd": 84, "_heu_candidate": 88,
                        "_heu_gcd_dense": 22, "_heu_candidate_dense": 22,
                        "_div_dense": 60, "MultiPoly.__mul__": 728},
        "matching/p6": {"poly_cofactors": 304, "exact_div": 52,
                        "_heu_gcd": 48, "_heu_candidate": 48,
                        "_heu_gcd_dense": 3, "_heu_candidate_dense": 3,
                        "_div_dense": 7, "MultiPoly.__mul__": 317},
        "riccati/p6": {"poly_cofactors": 193, "exact_div": 24,
                       "_heu_gcd": 43, "_heu_candidate": 43,
                       "_heu_gcd_dense": 2, "_heu_candidate_dense": 2,
                       "_div_dense": 10, "MultiPoly.__mul__": 240},
        "elimination/p3-substitution": {"poly_cofactors": 111, "exact_div": 0,
                                        "_heu_gcd": 0, "_heu_candidate": 0,
                                        "_heu_gcd_dense": 0, "_heu_candidate_dense": 0,
                                        "_div_dense": 0, "MultiPoly.__mul__": 345},
    }

    @pytest.mark.parametrize("case", sorted(COUNTS))
    def test_claim(self, monkeypatch, capsys, cold_constructors, case):
        from heunlab.cli import main
        counts = dict.fromkeys(self.COUNTED, 0)

        def spy(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        for name in self.COUNTED:
            owner, _, attr = name.rpartition(".")
            target = getattr(algebra, owner) if owner else algebra
            monkeypatch.setattr(target, attr, spy(name, getattr(target, attr)))
        assert main(["verify", "--suite", "all", "--case", case]) == 0
        capsys.readouterr()
        assert counts == self.COUNTS[case]


class TestImmutability:
    def test_shared_values_unchanged_by_use(self):
        e = (z + 1) / (z - 1)
        n0, d0 = e.num, e.den
        _ = e + e
        _ = e * e
        _ = e.derivative("z")
        _ = substitute(e, {"z": t})
        assert e.num == n0 and e.den == d0


class TestHashContract:
    """Equal values hash equal, however they were built.

    ``painleve.symbolic_cache`` keys constructors by their arguments, and
    ``verify_matching`` passes ``mu`` as a ``RationalExpr``, so a value must
    find an equal one built another way as a dict key.
    """

    @staticmethod
    def check(a, b):
        assert a == b and hash(a) == hash(b)
        assert {a: "a"}[b] == "a" and {b: "b"}[a] == "b"

    def test_multipoly_names_in_another_order(self):
        a = MultiPoly(("x", "y"), {(2, 1): 3, (1, 0): Fraction(1, 2), (0, 0): -1})
        b = MultiPoly(("y", "x"), {(0, 0): -1, (0, 1): Fraction(1, 2), (1, 2): 3})
        assert list(a.terms) != list(b.terms)
        self.check(a, b)

    def test_rational_by_substitution_and_directly(self):
        by_subst = substitute((z ** 2 + x) / (z - 1), {"z": (t + 1) / t, "x": t - 2})
        direct = RationalExpr(MultiPoly(("t",), {(3,): 1, (2,): -1, (1,): 2, (0,): 1}),
                              MultiPoly(("t",), {(1,): 1}))
        self.check(by_subst, direct)
