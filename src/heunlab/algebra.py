"""Exact multivariate polynomials and rational functions over big rationals.

This is the arithmetic kernel for the whole package: every differential
equation, Hamiltonian, parameter map and verification identity is carried by
:class:`RationalExpr`, a quotient of two :class:`MultiPoly` values kept in
canonical form.

Representation.  A ``MultiPoly`` is a sparse map from exponent vectors to
``fractions.Fraction`` coefficients together with the tuple of indeterminate
names the exponent positions refer to.  Canonical invariants:

* no stored coefficient is zero;
* the name tuple is sorted and contains only names that actually occur
  (so equal polynomials are structurally equal dicts);
* the zero polynomial has an empty term map and no names.

A ``RationalExpr`` ``num/den`` keeps ``gcd(num, den)`` trivial and scales the
denominator so that its graded-lexicographic leading coefficient is 1.  Two
values are equal exactly when their canonical forms coincide term by term.

The gcd and exact division work over the integers underneath the rational
surface: the gcd's univariate images are evaluated in ints at integer sample
points after clearing denominators, and exact division divides
integer-primitive parts (Gauss's lemma), rescaling the quotient once.  Each
rule has one home:

* ``_image_coeff_list`` reads every univariate image, and
  ``MultiPoly.primitive_int_coeffs`` is the same read-out at no sample point,
  the one form in which a univariate polynomial leaves the kernel;
* ``_image_gcd`` takes every image gcd and applies Brown's rule there: an
  image gcd counts only where one image keeps its input's degree;
* the interpolation gcd's certificate, exact division of both inputs,
  returns its quotients, and ``poly_gcd`` reuses them;
* ``_cancel`` and ``_rescale`` make every canonical pair.

The monomial order used everywhere is graded lexicographic over the sorted
name tuple (``_grlex``): compare total degree first, then the exponent
vectors.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable, Mapping, Union

Exponents = tuple[int, ...]
Coercible = Union["RationalExpr", "MultiPoly", Fraction, int]


class AlgebraError(Exception):
    """Base class for arithmetic-kernel errors."""


class DivisionByZero(AlgebraError):
    """Division by the zero expression."""


class UnknownVariable(AlgebraError):
    """An operation referenced an indeterminate it cannot resolve."""


class DegenerateSubstitution(AlgebraError):
    """A substitution made a denominator identically zero."""


class PoleAtPoint(AlgebraError):
    """Exact evaluation hit a vanishing denominator."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _grlex(e: Exponents) -> tuple[int, Exponents]:
    """Sort key of the graded lexicographic monomial order."""
    return sum(e), e


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not name or not name.replace("_", "a").isalnum():
        raise UnknownVariable(f"not a valid indeterminate name: {name!r}")
    return name


class MultiPoly:
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ("names", "terms", "_hash")

    def __init__(self, names: Iterable[str], terms: Mapping[Exponents, Fraction]):
        names = tuple(names)
        # Drop zero coefficients, then prune indeterminates that no longer occur
        # and sort the registry so equal polynomials compare structurally equal.
        nz = {e: _as_fraction(c) for e, c in terms.items() if c != 0}
        if nz:
            used = [i for i in range(len(names)) if any(e[i] for e in nz)]
        else:
            used = []
        order = sorted(used, key=lambda i: names[i])
        self.names: tuple[str, ...] = tuple(names[i] for i in order)
        self.terms: dict[Exponents, Fraction] = {
            tuple(e[i] for i in order): c for e, c in nz.items()
        }
        self._hash = None

    # ---- constructors -------------------------------------------------

    @staticmethod
    def const(c) -> "MultiPoly":
        c = _as_fraction(c)
        return MultiPoly((), {(): c}) if c else _ZERO

    @staticmethod
    def variable(name: str) -> "MultiPoly":
        return MultiPoly((_check_name(name),), {(1,): Fraction(1)})

    # ---- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.names

    def const_value(self) -> Fraction:
        if self.names:
            raise ValueError("not a constant polynomial")
        return self.terms.get((), Fraction(0))

    def degree_in(self, name: str) -> int:
        if name not in self.names:
            return 0
        i = self.names.index(name)
        return max(e[i] for e in self.terms)

    def primitive_int_coeffs(self, name: str) -> list[int]:
        """Primitive integer coefficients ``[c0, c1, ..., cd]`` of a polynomial in ``name`` alone.

        The dense list, low to high, of the polynomial scaled to coprime
        integers with ``cd > 0``: the one form in which a univariate
        polynomial leaves the kernel, the same list the univariate gcd reads
        (``_image_coeff_list`` at the empty point).
        """
        if self.is_zero() or self.names not in ((), (name,)):
            raise ValueError(f"{self} is not a nonzero polynomial in {name} alone")
        return _image_coeff_list(self, name, {})

    def leading(self) -> tuple[Exponents, Fraction]:
        """Leading (exponents, coefficient) under graded lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex)
        return e, self.terms[e]

    # ---- alignment of indeterminate registries -------------------------

    def _aligned_to(self, names: tuple[str, ...]) -> dict[Exponents, Fraction]:
        if names == self.names:
            return self.terms
        pos = {n: i for i, n in enumerate(names)}
        idx = [pos[n] for n in self.names]
        out: dict[Exponents, Fraction] = {}
        width = len(names)
        for e, c in self.terms.items():
            ne = [0] * width
            for j, k in zip(idx, e):
                ne[j] = k
            out[tuple(ne)] = c
        return out

    @staticmethod
    def _union_names(a: "MultiPoly", b: "MultiPoly") -> tuple[str, ...]:
        if a.names == b.names:
            return a.names
        return tuple(sorted(set(a.names) | set(b.names)))

    # ---- arithmetic -----------------------------------------------------

    def __add__(self, other) -> "MultiPoly":
        other = _as_poly(other)
        names = MultiPoly._union_names(self, other)
        ta = self._aligned_to(names)
        tb = other._aligned_to(names)
        out = dict(ta)
        for e, c in tb.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MultiPoly(names, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.names, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "MultiPoly":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "MultiPoly":
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return _ZERO
        if other.is_const():
            return self.scale(other.const_value())
        if self.is_const():
            return other.scale(self.const_value())
        names = MultiPoly._union_names(self, other)
        ta = self._aligned_to(names)
        tb = other._aligned_to(names)
        out: dict[Exponents, Fraction] = {}
        for ea, ca in ta.items():
            for eb, cb in tb.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                v = out.get(e)
                out[e] = ca * cb if v is None else v + ca * cb
        return MultiPoly(names, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = MultiPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, c) -> "MultiPoly":
        c = _as_fraction(c)
        if c == 0:
            return _ZERO
        return MultiPoly(self.names, {e: k * c for e, k in self.terms.items()})

    # ---- calculus and evaluation ----------------------------------------

    def derivative(self, name: str) -> "MultiPoly":
        _check_name(name)
        if name not in self.names:
            return _ZERO
        i = self.names.index(name)
        out: dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = e[:i] + (e[i] - 1,) + e[i + 1:]
                out[ne] = out.get(ne, Fraction(0)) + c * e[i]
        return MultiPoly(self.names, out)

    def eval_exact(self, point: Mapping[str, Fraction]) -> Fraction:
        missing = [n for n in self.names if n not in point]
        if missing:
            raise UnknownVariable(f"no value supplied for {missing}")
        vals = [_as_fraction(point[n]) for n in self.names]
        total = Fraction(0)
        cache: list[dict[int, Fraction]] = [dict() for _ in self.names]
        for e, c in self.terms.items():
            term = c
            for i, k in enumerate(e):
                if k:
                    p = cache[i].get(k)
                    if p is None:
                        p = vals[i] ** k
                        cache[i][k] = p
                    term *= p
            total += term
        return total

    # ---- structure -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.names == other.names and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.names, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self):
        return f"MultiPoly({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_grlex, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                n if k == 1 else f"{n}^{k}"
                for n, k in zip(self.names, e)
                if k
            )
            if not mono:
                parts.append(("+ " if c >= 0 else "- ") + str(abs(c)))
            elif abs(c) == 1:
                parts.append(("+ " if c >= 0 else "- ") + mono)
            else:
                parts.append(("+ " if c >= 0 else "- ") + f"{abs(c)}*{mono}")
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]


_ZERO = object.__new__(MultiPoly)
_ZERO.names = ()
_ZERO.terms = {}
_ZERO._hash = None
_ONE = MultiPoly((), {(): Fraction(1)})


def _as_poly(x) -> MultiPoly:
    if isinstance(x, MultiPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return MultiPoly.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to MultiPoly")


# ---------------------------------------------------------------------------
# Exact division, gcd, square roots
# ---------------------------------------------------------------------------


def exact_div(p: MultiPoly, d: MultiPoly) -> MultiPoly | None:
    """Return ``p / d`` when the division is exact, else ``None``.

    Single-divisor division under graded lex, run in ints on the
    integer-primitive parts ``p/cont(p)`` and ``d/cont(d)``; the quotient is
    scaled once by ``cont(p)/cont(d)`` at the end.  By Gauss's lemma the
    primitive quotient has integer coefficients whenever it exists, so the
    division is inexact as soon as the divisor's leading coefficient fails to
    divide the running remainder's, and likewise as soon as the divisor's
    leading monomial fails to divide the remainder's (leading terms multiply
    monotonically in a graded order).  Either way we abort immediately.
    """
    d = _as_poly(d)
    if d.is_zero():
        raise DivisionByZero("exact_div by the zero polynomial")
    if p.is_zero():
        return _ZERO
    if d.is_const():
        return p.scale(1 / d.const_value())
    names = MultiPoly._union_names(p, d)
    rem, cp = _int_terms(p._aligned_to(names))
    dt, cd = _int_terms(d._aligned_to(names))
    de = max(dt, key=_grlex)
    dc = dt[de]
    quot: dict[Exponents, int] = {}
    while rem:
        re = max(rem, key=_grlex)
        qe = tuple(a - b for a, b in zip(re, de))
        if any(k < 0 for k in qe):
            return None
        qc, r = divmod(rem[re], dc)
        if r:
            return None
        quot[qe] = qc
        for e, c in dt.items():
            ne = tuple(a + b for a, b in zip(qe, e))
            v = rem.get(ne, 0) - qc * c
            if v:
                rem[ne] = v
            else:
                rem.pop(ne, None)
    scale = cp / cd
    return MultiPoly(names, {e: q * scale for e, q in quot.items()})


def _int_terms(terms: Mapping[Exponents, Fraction]) -> tuple[dict[Exponents, int], Fraction]:
    """Coprime integer coefficients and the content c > 0 with terms = c * ints.

    c is the gcd of the numerators over the lcm of the denominators.
    """
    num = math.gcd(*(c.numerator for c in terms.values()))
    den = math.lcm(*(c.denominator for c in terms.values()))
    ints = {e: c.numerator // num * (den // c.denominator) for e, c in terms.items()}
    return ints, Fraction(num, den)


def _canon_primitive(p: MultiPoly) -> MultiPoly:
    """Integer-primitive scalar multiple of p with positive leading coefficient."""
    if p.is_zero():
        return _ZERO
    ints, _ = _int_terms(p.terms)
    sign = -1 if p.leading()[1] < 0 else 1
    return MultiPoly(p.names, {e: Fraction(sign * k) for e, k in ints.items()})


def _univar_view(p: MultiPoly, name: str) -> dict[int, MultiPoly]:
    """View p as a univariate polynomial in ``name`` with MultiPoly coefficients."""
    if name not in p.names:
        return {0: p} if not p.is_zero() else {}
    i = p.names.index(name)
    rest = p.names[:i] + p.names[i + 1:]
    buckets: dict[int, dict[Exponents, Fraction]] = {}
    for e, c in p.terms.items():
        k = e[i]
        buckets.setdefault(k, {})[e[:i] + e[i + 1:]] = c
    return {k: MultiPoly(rest, t) for k, t in buckets.items()}


def _primitive_part(p: MultiPoly, name: str) -> MultiPoly:
    """p divided by its content, the gcd of its coefficients in ``name``."""
    coeffs = list(_univar_view(p, name).values())
    cont = coeffs[0]
    for c in coeffs[1:]:
        if cont.is_const():
            break
        cont = poly_gcd(cont, c)
    cont = _canon_primitive(cont)
    pp = exact_div(p, cont)
    assert pp is not None
    return pp


def _int_primitive(v: list[int]) -> list[int]:
    g = 0
    for x in v:
        g = math.gcd(g, x)
    if g == 0:
        return [0]
    if v[-1] < 0:
        g = -g
    return [x // g for x in v]


def _int_prem(f: list[int], g: list[int]) -> list[int]:
    """Integer pseudo-remainder of dense coefficient lists (low-to-high)."""
    r = list(f)
    dg = len(g) - 1
    lg = g[-1]
    while len(r) - 1 >= dg and any(r):
        while len(r) > 1 and r[-1] == 0:
            r.pop()
        dr = len(r) - 1
        if dr < dg:
            break
        lr = r[-1]
        shift = dr - dg
        r = [c * lg for c in r]
        for k, c in enumerate(g):
            r[k + shift] -= lr * c
        while len(r) > 1 and r[-1] == 0:
            r.pop()
        if len(r) - 1 < dg:
            break
    return r


def _int_gcd_lists(f: list[int], g: list[int]) -> list[int]:
    if len(f) < len(g):
        f, g = g, f
    while any(g):
        r = _int_primitive(_int_prem(f, g))
        f, g = g, r
        if len(f) == 1:
            break
    return f


def _image_gcd(a: MultiPoly, b: MultiPoly, name: str, point: Mapping[str, int],
               da: int, db: int) -> list[int] | None:
    """Integer gcd of the univariate images of a and b in ``name`` at ``point``.

    ``da`` and ``db`` are the degrees of a and b in ``name``.  The image gcd
    bounds the degree of the true gcd's image only where one image keeps its
    input's degree (Brown, JACM 1971), so the result is None unless one does,
    and also when either image is missing or zero (see ``_image_coeff_list``).
    """
    ia = _image_coeff_list(a, name, point)
    ib = _image_coeff_list(b, name, point)
    if ia is None or ib is None:
        return None
    if len(ia) - 1 != da and len(ib) - 1 != db:
        return None
    return _int_gcd_lists(ia, ib)


def _gcd_univar(a: MultiPoly, b: MultiPoly, name: str) -> MultiPoly:
    """Fast primitive PRS for two univariate polynomials over the rationals."""
    f = _image_gcd(a, b, name, {}, a.degree_in(name), b.degree_in(name))
    if len(f) == 1:
        return _ONE
    out = MultiPoly((name,), {(k,): Fraction(c) for k, c in enumerate(f) if c})
    return _canon_primitive(out)


def _image_gcd_degree(a: MultiPoly, b: MultiPoly, name: str) -> int:
    """Upper bound for the degree of gcd(a, b) in ``name``.

    Substitutes fixed pseudo-random integers for every other indeterminate and
    takes the gcd of the two univariate images.  Whenever the substitution
    preserves the degree of one input it also preserves the degree of the true
    gcd's image, which divides the image gcd, so the returned degree is never
    smaller than the true one.  In particular a return of 0 proves the gcd is
    free of ``name``.  When no sample point is conclusive the bound is the
    smaller input degree.
    """
    others = sorted((set(a.names) | set(b.names)) - {name})
    da, db = a.degree_in(name), b.degree_in(name)
    rng = random.Random(20250808)
    best = min(da, db)
    for _ in range(4):
        point = {n: rng.randint(-997, 997) for n in others}
        g = _image_gcd(a, b, name, point, da, db)
        if g is None:
            continue
        best = min(best, len(g) - 1)
        if best == 0:
            return 0
        if not others:
            break
    return best


def _image_coeff_list(p: MultiPoly, name: str, point: Mapping[str, int]) -> list[int] | None:
    """Primitive integer coefficients of p's univariate image in ``name``.

    Every other indeterminate of p takes its integer value from ``point``.
    The image is computed over the integers: the coefficients' denominators
    are cleared once by their lcm, the sample values are raised to powers in
    ints (one cache per indeterminate), and each term lands in the bucket of
    its exponent of ``name``.  Returned low-to-high, trimmed, divided by its
    content and with a positive leading entry; None when an indeterminate has
    no value in ``point`` or the image is zero.
    """
    names = p.names
    main = names.index(name) if name in names else -1
    others = [j for j in range(len(names)) if j != main]
    if any(names[j] not in point for j in others):
        return None
    vals = [point.get(n, 0) for n in names]
    powers: list[dict[int, int]] = [{} for _ in names]
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    out = [0] * (p.degree_in(name) + 1)
    for e, c in p.terms.items():
        term = c.numerator * (den // c.denominator)
        for j in others:
            k = e[j]
            if k:
                pw = powers[j].get(k)
                if pw is None:
                    pw = powers[j][k] = vals[j] ** k
                term *= pw
        out[e[main] if main >= 0 else 0] += term
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    if out == [0]:
        return None
    return _int_primitive(out)


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Greatest common divisor over the rationals.

    Returned integer-primitive with positive leading coefficient; constants
    count as units, so coprime inputs give 1.

    Three strategies, cheapest first: trial exact divisions (denominators in
    this package are mostly nested products of the same linear factors); the
    univariate integer PRS when both inputs are in one shared variable; and,
    otherwise, per variable image-gcd degree bounds, which prove coprimality
    outright when all zero, followed by evaluation-interpolation over just the
    variables the gcd actually involves, certified by exact division.  The
    images that the degree bounds and the interpolation read are computed over
    the integers, at integer sample points (see ``_image_coeff_list``).

    A degree bound read at unlucky points is too high.  Interpolation lowers
    it by Brown's rule as soon as an image of lower degree shows up, and the
    attempt is repeated without counting against the three salted attempts;
    since each lowering reduces a finite sum of degrees, this ends.  Three
    attempts that fail without lowering anything raise ``AlgebraError``
    rather than return an uncertified gcd.
    """
    a = _as_poly(a)
    b = _as_poly(b)
    if a.is_zero():
        return _canon_primitive(b)
    if b.is_zero():
        return _canon_primitive(a)
    if a.is_const() or b.is_const():
        return _ONE
    common = set(a.names) & set(b.names)
    if not common:
        return _ONE
    if a == b:
        return _canon_primitive(a)
    # Fast paths: one side divides the other.
    if len(a.terms) >= len(b.terms) and exact_div(a, b) is not None:
        return _canon_primitive(b)
    if len(b.terms) >= len(a.terms) and exact_div(b, a) is not None:
        return _canon_primitive(a)
    common_sorted = sorted(common)
    if len(common_sorted) == 1 and set(a.names) == common and set(b.names) == common:
        return _gcd_univar(a, b, common_sorted[0])
    # Expected gcd degree per variable; all zero proves the inputs coprime.
    exp_deg = {n: _image_gcd_degree(a, b, n) for n in common_sorted}
    salt = 0
    while salt < 3:
        support = [n for n in common_sorted if exp_deg[n]]
        if not support:
            return _ONE
        bound = exp_deg[support[0]]
        found = _gcd_by_interpolation(a, b, support, exp_deg, salt)
        if found is not None:
            # g is primitive in the main variable: a common factor free of
            # it is still in both quotients.
            g, qa, qb = found
            return _canon_primitive(g * poly_gcd(qa, qb))
        if exp_deg[support[0]] == bound:
            salt += 1
    raise AlgebraError("gcd interpolation failed on three salted attempts")


def _gcd_by_interpolation(a: MultiPoly, b: MultiPoly, support: list[str],
                          exp_deg: dict[str, int], salt: int
                          ) -> tuple[MultiPoly, MultiPoly, MultiPoly] | None:
    """Interpolation gcd candidate over the gcd's support variables, verified.

    Every variable outside ``support`` is frozen at a random integer (the gcd
    provably does not involve it).  Univariate integer gcd images in the
    first support variable are normalised so their leading coefficient is the
    image of gcd(lc(a), lc(b)); the interpolated object is then a polynomial
    multiple of the gcd whose extra factor is free of the main variable, so
    taking the primitive part in the main variable isolates the gcd
    candidate.  The candidate g is accepted only when it exactly divides both
    inputs, and ``(g, a/g, b/g)`` is returned: the quotients of that
    certificate, so that the caller need not divide again.

    Images of higher degree in the main variable than ``exp_deg`` expects are
    skipped as unlucky.  An image of lower degree proves the expectation too
    high (Brown's rule): it is lowered in ``exp_deg`` and the attempt ends.
    """
    x = support[0]
    yvars = support[1:]
    all_names = sorted(set(a.names) | set(b.names))
    frozen_names = [n for n in all_names if n not in support]
    rng = random.Random(0x5EED + 7919 * salt)
    frozen = {n: rng.randint(-997, 997) for n in frozen_names}
    da, db = a.degree_in(x), b.degree_in(x)
    lc_a = _univar_view(a, x).get(da, _ONE)
    lc_b = _univar_view(b, x).get(db, _ONE)
    # Normalising factor: any polynomial multiple of the gcd's leading
    # x-coefficient works; gcd(lc_a, lc_b) keeps interpolation degrees low.
    gamma_poly = poly_gcd(lc_a, lc_b)

    # Interpolation degree bound per remaining variable: the normalised image
    # is (gamma/lc(gcd)) * gcd, so its y-degree is bounded by the gamma degree
    # plus the expected gcd degree.
    bounds = {y: gamma_poly.degree_in(y) + exp_deg[y] for y in yvars}
    dx = exp_deg[x]

    def univar_image(point: dict[str, int]) -> MultiPoly | None:
        g = _image_gcd(a, b, x, point, da, db)
        if g is None:
            return None
        dg = len(g) - 1
        # One input keeps its degree here, so dg bounds the gcd's degree.
        if dg < dx:
            exp_deg[x] = dg
        if dg != dx:
            return None
        gamma = gamma_poly.eval_exact(point)
        if gamma == 0:
            return None
        scale = Fraction(gamma, g[-1])
        return MultiPoly((x,), {(k,): c * scale for k, c in enumerate(g) if c})

    def interpolate(remaining: tuple[str, ...], point: dict[str, int]) -> MultiPoly | None:
        if not remaining:
            return univar_image(point)
        y = remaining[-1]
        inner = remaining[:-1]
        npts = bounds[y] + 1
        nodes: list[int] = []
        values: list[MultiPoly] = []
        trial = 0
        while len(nodes) < npts and trial < 4 * npts + 12 and exp_deg[x] == dx:
            node = rng.randint(-499, 499) + trial
            trial += 1
            if node in nodes:
                continue
            point[y] = node
            val = interpolate(inner, point)
            del point[y]
            if val is None:
                continue
            nodes.append(node)
            values.append(val)
        if len(nodes) < npts:
            return None
        # Newton divided differences with polynomial values.
        dd = list(values)
        for j in range(1, npts):
            for i in range(npts - 1, j - 1, -1):
                dd[i] = (dd[i] - dd[i - 1]).scale(
                    Fraction(1, 1) / (nodes[i] - nodes[i - j]))
        yv = MultiPoly.variable(y)
        poly = _ZERO
        basis = _ONE
        for k in range(npts):
            poly = poly + dd[k] * basis
            basis = basis * (yv - MultiPoly.const(nodes[k]))
        return poly

    cand = interpolate(tuple(yvars), dict(frozen))
    if cand is None or cand.is_zero():
        return None
    pp = _canon_primitive(_primitive_part(cand, x))
    qa = exact_div(a, pp)
    qb = None if qa is None else exact_div(b, pp)
    if qb is None:
        return None
    return pp, qa, qb


def poly_sqrt(p: MultiPoly) -> MultiPoly | None:
    """Exact square root of a polynomial, or None if p is not a perfect square.

    Peels the root off term by term in decreasing graded-lex order: if
    ``p = r**2`` and ``s`` is the partial sum of r's highest terms, the next
    term of r is ``leading(p - s**2) / (2 leading(s))``.  A step budget plus a
    final verification make the routine safe on non-squares.
    """
    if p.is_zero():
        return _ZERO
    le, lc = p.leading()
    if any(k % 2 for k in le) or lc < 0:
        return None
    ln, ld = math.isqrt(lc.numerator), math.isqrt(lc.denominator)
    if ln * ln != lc.numerator or ld * ld != lc.denominator:
        return None
    root = MultiPoly(p.names, {tuple(k // 2 for k in le): Fraction(ln, ld)})
    rem = p - root * root
    budget = 16 * len(p.terms) + 64
    while not rem.is_zero():
        budget -= 1
        if budget < 0:
            return None
        names = MultiPoly._union_names(rem, root)
        rt = rem._aligned_to(names)
        qt = root._aligned_to(names)
        re = max(rt, key=_grlex)
        qe = max(qt, key=_grlex)
        de = tuple(a - b for a, b in zip(re, qe))
        if any(k < 0 for k in de):
            return None
        cand = MultiPoly(names, {de: rt[re] / (2 * qt[qe])})
        root = root + cand
        rem = p - root * root
    return root if (root * root) == p else None


# ---------------------------------------------------------------------------
# Rational expressions
# ---------------------------------------------------------------------------


class RationalExpr:
    """Quotient of two MultiPoly values, always held in canonical form."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=_ONE, *, _canonical: bool = False):
        num = _as_poly(num)
        den = _as_poly(den)
        if not _canonical:
            if den.is_zero():
                raise DivisionByZero("denominator is the zero polynomial")
            # A constant denominator shares no factor with the numerator.
            if not den.is_const():
                num, den = _cancel(num, den)
            num, den = _rescale(num, den)
        self.num, self.den = num, den
        self._hash = None

    # ---- constructors ----------------------------------------------------

    @staticmethod
    def const(c) -> "RationalExpr":
        return RationalExpr(MultiPoly.const(c), _ONE, _canonical=True)

    @staticmethod
    def variable(name: str) -> "RationalExpr":
        return RationalExpr(MultiPoly.variable(name), _ONE, _canonical=True)

    # ---- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise ValueError("not a constant expression")
        return self.num.const_value() / self.den.const_value()

    def names(self) -> set[str]:
        return set(self.num.names) | set(self.den.names)

    def degree_in(self, name: str) -> int:
        return max(self.num.degree_in(name), self.den.degree_in(name))

    def is_polynomial(self) -> bool:
        return self.den.is_const()

    # ---- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "RationalExpr":
        other = as_rational(other)
        if self.den == other.den:
            # The sum of the numerators can share a factor with the denominator.
            return RationalExpr(self.num + other.num, self.den)
        # Otherwise the pairs built below are already reduced: no factor of
        # self.den/g or other.den/g divides the new numerator, and h removes
        # what it shares with g.
        g = poly_gcd(self.den, other.den)
        if g.is_const():
            num = self.num * other.den + other.num * self.den
            return RationalExpr._monic(num, self.den * other.den)
        db = exact_div(self.den, g)
        dd = exact_div(other.den, g)
        num = self.num * dd + other.num * db
        h = poly_gcd(num, g)
        if not h.is_const():
            num = exact_div(num, h)
            g = exact_div(g, h)
        return RationalExpr._monic(num, g * db * dd)

    __radd__ = __add__

    def __neg__(self) -> "RationalExpr":
        return RationalExpr(-self.num, self.den, _canonical=True)

    def __sub__(self, other) -> "RationalExpr":
        return self + (-as_rational(other))

    def __rsub__(self, other) -> "RationalExpr":
        return as_rational(other) + (-self)

    def __mul__(self, other) -> "RationalExpr":
        other = as_rational(other)
        # Cross-cancel so the product of reduced fractions is already reduced.
        n1, d2 = _cancel(self.num, other.den)
        n2, d1 = _cancel(other.num, self.den)
        return RationalExpr._monic(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalExpr":
        other = as_rational(other)
        if other.is_zero():
            raise DivisionByZero("division by the zero expression")
        return self * RationalExpr._monic(other.den, other.num)

    def __rtruediv__(self, other) -> "RationalExpr":
        return as_rational(other) / self

    def __pow__(self, n: int) -> "RationalExpr":
        if not isinstance(n, int):
            raise ValueError("only integer powers are supported")
        if n < 0:
            if self.is_zero():
                raise DivisionByZero("negative power of zero")
            return RationalExpr._monic(self.den ** (-n), self.num ** (-n))
        return RationalExpr._monic(self.num ** n, self.den ** n)

    @staticmethod
    def _monic(num: MultiPoly, den: MultiPoly) -> "RationalExpr":
        """An already-reduced pair, rescaled so the denominator is monic."""
        return RationalExpr(*_rescale(num, den), _canonical=True)

    # ---- calculus ---------------------------------------------------------------

    def derivative(self, name: str) -> "RationalExpr":
        _check_name(name)
        dn = self.num.derivative(name)
        dd = self.den.derivative(name)
        if dd.is_zero():
            return RationalExpr(dn, self.den)
        # Factor out gcd(den, den') up front: it carries every repeated factor
        # of the denominator, keeping the quotient-rule result small.
        g = poly_gcd(self.den, dd)
        e = exact_div(self.den, g)
        w = exact_div(dd, g)
        return RationalExpr(dn * e - self.num * w, g * e * e)

    def substitute(self, bindings: Mapping[str, Coercible]) -> "RationalExpr":
        clean = {_check_name(k): as_rational(v) for k, v in bindings.items()}
        num = _subst_poly(self.num, clean)
        den = _subst_poly(self.den, clean)
        if den.is_zero():
            raise DegenerateSubstitution(
                "substitution made a denominator identically zero")
        return num / den

    def eval_exact(self, point: Mapping[str, Fraction]) -> Fraction:
        d = self.den.eval_exact(point)
        if d == 0:
            raise PoleAtPoint(f"denominator vanishes at {dict(point)!r}")
        return self.num.eval_exact(point) / d

    # ---- structure -----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, MultiPoly)):
            other = as_rational(other)
        if not isinstance(other, RationalExpr):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __repr__(self):
        return f"RationalExpr({self})"

    def __str__(self):
        if self.den == _ONE:
            return str(self.num)
        n = str(self.num)
        d = str(self.den)
        if len(self.num.terms) > 1:
            n = f"({n})"
        if len(self.den.terms) > 1:
            d = f"({d})"
        return f"{n}/{d}"


def _rescale(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """num/den scaled so that the denominator's leading coefficient is 1."""
    if num.is_zero():
        return _ZERO, _ONE
    lc = den.leading()[1]
    if lc == 1:
        return num, den
    return num.scale(1 / lc), den.scale(1 / lc)


def _cancel(a: MultiPoly, b: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """Divide out gcd(a, b); inputs arbitrary polynomials."""
    if a.is_zero():
        return _ZERO, _ONE if b.is_zero() else b
    g = poly_gcd(a, b)
    if g.is_const():
        return a, b
    return exact_div(a, g), exact_div(b, g)


def _subst_poly(p: MultiPoly, bindings: Mapping[str, "RationalExpr"]) -> "RationalExpr":
    """Simultaneous substitution into a polynomial; result is rational."""
    active = [n for n in p.names if n in bindings]
    if not active:
        return RationalExpr(p, _ONE, _canonical=True)
    idx = {n: p.names.index(n) for n in active}
    degs = {n: max(e[idx[n]] for e in p.terms) for n in active}
    # Common-denominator form: each bound variable x -> u/v contributes
    # u^e * v^(D - e) to the numerator term and v^D to the global denominator.
    num_pows: dict[str, list[MultiPoly]] = {}
    den_pows: dict[str, list[MultiPoly]] = {}
    for n in active:
        u, v = bindings[n].num, bindings[n].den
        D = degs[n]
        nps = [_ONE]
        vps = [_ONE]
        for _ in range(D):
            nps.append(nps[-1] * u)
            vps.append(vps[-1] * v)
        num_pows[n] = nps
        den_pows[n] = vps
    total = _ZERO
    keep = [i for i, n in enumerate(p.names) if n not in bindings]
    keep_names = tuple(p.names[i] for i in keep)
    for e, c in p.terms.items():
        mono = MultiPoly(keep_names, {tuple(e[i] for i in keep): c})
        term = mono
        for n in active:
            k = e[idx[n]]
            term = term * num_pows[n][k] * den_pows[n][degs[n] - k]
        total = total + term
    # Divide by one binding denominator at a time: each reduction is then a
    # gcd against a small structured factor instead of one big product.
    # (Canonical binding denominators are either 1 or monic non-constant.)
    result = RationalExpr(total, _ONE, _canonical=True)
    for n in active:
        v = bindings[n].den
        if v.is_const():
            continue
        for _ in range(degs[n]):
            result = result / RationalExpr(v, _ONE, _canonical=True)
    return result


def as_rational(x: Coercible) -> RationalExpr:
    if isinstance(x, RationalExpr):
        return x
    if isinstance(x, MultiPoly):
        return RationalExpr(x)
    if isinstance(x, (int, Fraction)):
        return RationalExpr.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to RationalExpr")


def var(name: str) -> RationalExpr:
    """The indeterminate ``name`` as a rational expression."""
    return RationalExpr.variable(name)


def const(num, den: int = 1) -> RationalExpr:
    """Exact rational constant, e.g. ``const(1, 2)`` for one half."""
    return RationalExpr.const(Fraction(num, den))


# ---------------------------------------------------------------------------
# Module-level operation surface
# ---------------------------------------------------------------------------


def substitute(e: Coercible, bindings: Mapping[str, Coercible]) -> RationalExpr:
    return as_rational(e).substitute(bindings)


def identity_test(a: Coercible, b: Coercible) -> bool:
    """Decide whether two rational expressions are identically equal.

    Cross-multiplies and tests the difference polynomial for zero, which is
    sound and complete.
    """
    a = as_rational(a)
    b = as_rational(b)
    return (a.num * b.den - b.num * a.den).is_zero()


def find_witness(diff: Coercible, *, seed: int = 0) -> dict | None:
    """Search the integer box [-50, 50] for a point where ``diff`` is nonzero.

    Tries 400 seeded points and returns the report-ready witness
    ``{"point": {name: value}, "difference": value}`` with values as strings,
    or None when every one is a zero or a pole; attached to failed identity
    verdicts as a concrete counterexample.
    """
    d = as_rational(diff)
    if d.is_zero():
        return None
    names = sorted(d.names())
    if not names:
        return {"point": {}, "difference": str(d.const_value())}
    rng = random.Random(seed)
    for _ in range(400):
        point = {n: Fraction(rng.randint(-50, 50)) for n in names}
        try:
            v = d.eval_exact(point)
        except PoleAtPoint:
            continue
        if v != 0:
            return {"point": {k: str(x) for k, x in point.items()},
                    "difference": str(v)}
    return None
