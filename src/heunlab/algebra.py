"""Exact multivariate polynomials and rational functions over big rationals.

This is the arithmetic kernel for the whole package: every differential
equation, Hamiltonian, parameter map and verification identity is carried by
:class:`RationalExpr`, a quotient of two :class:`MultiPoly` values kept in
canonical form.

Representation.  A ``MultiPoly`` is a sparse map ``terms`` from exponent
vectors to ``int`` numerators over one positive ``int`` denominator ``den``,
together with the tuple of indeterminate names the exponent positions refer
to.  Canonical invariants:

* no stored coefficient is zero, and ``gcd(den, *terms.values()) == 1``;
* the name tuple is sorted and contains only names that actually occur
  (so equal polynomials are structurally equal);
* the zero polynomial has an empty term map, no names and ``den == 1``.

Sums bring both operands over the lcm of their denominators, products
multiply the denominators, and one normaliser (``_normal``) drops zero
coefficients and divides out the content gcd, so arithmetic makes no
``Fraction``.  ``MultiPoly(names, terms)`` also accepts ``Fraction``
coefficients; the readers that hand single values out (``leading``,
``const_value``, ``eval_exact``, ``str``) return ``Fraction`` values.

A ``RationalExpr`` ``num/den`` keeps ``gcd(num, den)`` trivial and scales the
denominator so that its graded-lexicographic leading coefficient is 1.  Two
values are equal exactly when their canonical forms coincide term by term.

The gcd and exact division read the integer numerators directly: the gcd
evaluates them at integer points, and exact division divides by the
integer-primitive part of the divisor (Gauss's lemma), taking each leading
term of its remainder from a heap, and rescales the quotient once.  Two
polynomials in the same single name take the univariate level instead: the
same rules on dense int coefficient lists, low to high.  Each rule has one
home:

* ``poly_cofactors`` runs the heuristic gcd, with the primitive PRS as its
  certified fallback, and ``poly_gcd`` is its first value: ``_strip`` removes
  every integer content and monomial factor it sees, ``_eval_at`` takes
  every image, ``_heu_candidate`` reads every candidate off an image gcd's
  digits (``_xi_digits``), and ``_heu_gcd`` accepts a candidate only when
  ``exact_div`` divides both inputs by it, and hands the pair to the
  primitive PRS (``_prs_gcd``) when six candidates fail;
* the univariate level, where the top-level gcds of one name and the last
  level of every multivariate recursion end: ``_gcd_dense``,
  ``_heu_candidate_dense`` and the long division ``_div_dense``, which both
  the gcd's certificate and ``exact_div`` run;
* ``rational_roots`` finds every rational root of a univariate int list by
  lifting its roots mod a small prime p-adically, and confirms each one by
  ``_div_dense``;
* ``_int_coeffs`` is the one reader of a univariate polynomial's int
  numerators into a dense list, and ``MultiPoly.primitive_int_coeffs``,
  built on it, is the one form in which a univariate polynomial leaves the
  kernel;
* ``poly_cofactors`` and ``_rescale`` make every canonical pair, from the
  quotients that certified the gcd; a substitution (``_subst_poly``),
  which groups terms by their exponents in the bound names, and a
  derivative build one numerator and one denominator and canonicalise them
  once, by ``RationalExpr(num, den)``.

The monomial order used everywhere is graded lexicographic over the sorted
name tuple (``_grlex``): compare total degree first, then the exponent
vectors.  The order in which a term map holds its terms is no part of the
value: every reader that needs an order, ``str`` and the numeric compiler
among them, sorts the terms by this one.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from fractions import Fraction
from functools import reduce
from operator import add, sub
from typing import Iterable, Iterator, Mapping, Union

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


def _as_exact(x):
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _grlex(e: Exponents) -> tuple[int, Exponents]:
    """Sort key of the graded lexicographic monomial order."""
    return sum(e), e


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not name or not name.replace("_", "a").isalnum():
        raise UnknownVariable(f"not a valid indeterminate name: {name!r}")
    return name


class MultiPoly:
    """Sparse multivariate polynomial with exact rational coefficients.

    ``terms`` maps exponent vectors to nonzero ``int`` numerators over the one
    positive denominator ``den``; ``MultiPoly(names, terms)`` also accepts
    ``Fraction`` coefficients and brings them to that form.
    """

    __slots__ = ("names", "terms", "den")

    def __init__(self, names: Iterable[str], terms: Mapping[Exponents, int | Fraction]):
        names = tuple(names)
        for c in terms.values():
            _as_exact(c)
        den = math.lcm(*(c.denominator for c in terms.values()))
        ints = {e: c.numerator * (den // c.denominator) for e, c in terms.items()}
        order = sorted(range(len(names)), key=names.__getitem__)
        if order != list(range(len(names))):
            names = tuple(names[i] for i in order)
            ints = {tuple(e[i] for i in order): c for e, c in ints.items()}
        self.names, self.terms, self.den = _normal(names, ints, den)

    # ---- constructors -------------------------------------------------

    @staticmethod
    def const(c) -> "MultiPoly":
        c = _as_exact(c)
        return _new((), {(): c.numerator}, c.denominator) if c else _ZERO

    @staticmethod
    def variable(name: str) -> "MultiPoly":
        return _new((_check_name(name),), {(1,): 1}, 1)

    # ---- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.names

    def const_value(self) -> Fraction:
        if self.names:
            raise ValueError("not a constant polynomial")
        return Fraction(self.terms.get((), 0), self.den)

    def degree_in(self, name: str) -> int:
        if name not in self.names:
            return 0
        i = self.names.index(name)
        return max(e[i] for e in self.terms)

    def primitive_int_coeffs(self, name: str) -> list[int]:
        """Primitive integer coefficients ``[c0, c1, ..., cd]`` of a polynomial in ``name`` alone.

        The dense list, low to high, of the polynomial scaled to coprime
        integers with ``cd > 0``: the one form in which a univariate
        polynomial leaves the kernel.
        """
        if self.is_zero() or self.names not in ((), (name,)):
            raise ValueError(f"{self} is not a nonzero polynomial in {name} alone")
        return _int_coeffs(_canon_primitive(self))

    def leading(self) -> tuple[Exponents, Fraction]:
        """Leading (exponents, coefficient) under graded lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex)
        return e, Fraction(self.terms[e], self.den)

    # ---- alignment of indeterminate registries -------------------------

    def _aligned_to(self, names: tuple[str, ...]) -> dict[Exponents, int]:
        """The integer numerators with exponents re-indexed over ``names``."""
        if names == self.names:
            return self.terms
        pos = {n: i for i, n in enumerate(names)}
        idx = [pos[n] for n in self.names]
        out: dict[Exponents, int] = {}
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
        den = math.lcm(self.den, other.den)
        ma, mb = den // self.den, den // other.den
        out = dict(ta) if ma == 1 else {e: c * ma for e, c in ta.items()}
        for e, c in tb.items():
            out[e] = out.get(e, 0) + c * mb
        return _make(names, out, den)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return _new(self.names, {e: -c for e, c in self.terms.items()}, self.den)

    def __sub__(self, other) -> "MultiPoly":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "MultiPoly":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "MultiPoly":
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return _ZERO
        if other.is_const():
            return self._scaled(other.terms[()], other.den)
        if self.is_const():
            return other._scaled(self.terms[()], self.den)
        names = MultiPoly._union_names(self, other)
        ta = self._aligned_to(names)
        tb = other._aligned_to(names)
        out: dict[Exponents, int] = {}
        for ea, ca in ta.items():
            for eb, cb in tb.items():
                e = tuple(map(add, ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        # Over an integral domain no indeterminate of a product vanishes.
        return _make(names, out, self.den * other.den, prune=False)

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

    def _scaled(self, n: int, d: int) -> "MultiPoly":
        """self * n/d for ints n and d != 0.

        With n/d in lowest terms, the content gcd of the product is
        gcd(n, den) * gcd(d, terms), so both are divided out up front.
        """
        if not n or not self.terms:
            return _ZERO
        g = math.gcd(n, d)
        if d < 0:
            g = -g
        n, d = n // g, d // g
        g = math.gcd(n, self.den)
        den = self.den // g
        n //= g
        h = math.gcd(d, *self.terms.values()) if d != 1 else 1
        if h == 1 and n == 1:
            terms = self.terms
        else:
            terms = {e: c // h * n for e, c in self.terms.items()}
        return _new(self.names, terms, den * (d // h))

    # ---- calculus and evaluation ----------------------------------------

    def derivative(self, name: str) -> "MultiPoly":
        _check_name(name)
        if name not in self.names:
            return _ZERO
        i = self.names.index(name)
        out: dict[Exponents, int] = {}
        for e, c in self.terms.items():
            k = e[i]
            if k:
                out[e[:i] + (k - 1,) + e[i + 1:]] = c * k
        return _make(self.names, out, self.den)

    def eval_exact(self, point: Mapping[str, Fraction]) -> Fraction:
        """The value at ``point``, summed exactly term by term."""
        missing = [n for n in self.names if n not in point]
        if missing:
            raise UnknownVariable(f"no value supplied for {missing}")
        vals = [_as_exact(point[n]) for n in self.names]
        return Fraction(sum(c * math.prod(map(pow, vals, e))
                            for e, c in self.terms.items()), self.den)

    # ---- structure -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.names == other.names and self.den == other.den
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.names, self.den, frozenset(self.terms.items())))

    def __repr__(self):
        return f"MultiPoly({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_grlex, reverse=True):
            c = Fraction(self.terms[e], self.den)
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


def _normal(names: tuple[str, ...], terms: dict[Exponents, int], den: int,
            prune: bool = True) -> tuple[tuple[str, ...], dict[Exponents, int], int]:
    """The canonical parts of ``terms / den`` over sorted ``names``, den > 0.

    Drops zero coefficients and divides out gcd(den, *terms); with ``prune``,
    also drops the names that no term uses any more.
    """
    terms = {e: c for e, c in terms.items() if c}
    if not terms:
        return (), {}, 1
    g = math.gcd(den, *terms.values())
    if g != 1:
        den //= g
        terms = {e: c // g for e, c in terms.items()}
    if prune:
        used = [any(col) for col in zip(*terms)]
        if not all(used):
            keep = [i for i, u in enumerate(used) if u]
            names = tuple(names[i] for i in keep)
            terms = {tuple(e[i] for i in keep): c for e, c in terms.items()}
    return names, terms, den


def _new(names: tuple[str, ...], terms: dict[Exponents, int], den: int) -> MultiPoly:
    """A MultiPoly from parts already in canonical form."""
    p = object.__new__(MultiPoly)
    p.names, p.terms, p.den = names, terms, den
    return p


def _make(names: tuple[str, ...], terms: dict[Exponents, int], den: int,
          prune: bool = True) -> MultiPoly:
    """The canonical MultiPoly of ``terms / den`` (see ``_normal``)."""
    return _new(*_normal(names, terms, den, prune))


_ZERO = _new((), {}, 1)
_ONE = _new((), {(): 1}, 1)


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

    Single-divisor division under graded lex, run in ints on p's numerators
    and the integer-primitive part of d's; the quotient is rescaled once at
    the end.  By Gauss's lemma that quotient has integer coefficients
    whenever it exists, so the division is inexact as soon as the divisor's
    leading coefficient fails to divide the running remainder's, and likewise
    as soon as the divisor's leading monomial fails to divide the remainder's
    (leading terms multiply monotonically in a graded order).  Either way we
    abort immediately.

    When p and d are polynomials in one name, the division is the long
    division of their dense int lists, from the top (``_div_dense``).
    Otherwise the remainder is a dict keyed by packed exponent vectors (total
    degree, then the exponents, as the digits of one int in a base above p's
    total degree, so that int order is graded lex order and packing is
    additive), and its keys sit in a heap that yields the leading term
    without a rescan; a key whose term cancelled is skipped when it surfaces
    (Johnson, SIGSAM Bulletin 8, 1974; Monagan and Pearce, CASC 2007).
    Either way quotient terms come out in decreasing graded-lex order.
    """
    d = _as_poly(d)
    if d.is_zero():
        raise DivisionByZero("exact_div by the zero polynomial")
    if p.is_zero():
        return _ZERO
    if d.is_const():
        return p._scaled(d.den, d.terms[()])
    names = MultiPoly._union_names(p, d)
    if len(names) == 1:
        dl = _int_coeffs(d)
        cd = math.gcd(*dl)
        q = _div_dense(_int_coeffs(p), [c // cd for c in dl])
        if q is None:
            return None
        quot = {(k,): q[k] for k in range(len(q) - 1, -1, -1) if q[k]}
    else:
        cd = math.gcd(*d.terms.values())
        quot = _div_heap(p._aligned_to(names), d._aligned_to(names), cd)
        if quot is None:
            return None
    # p/d = (p's numerators / (d's / cd)) * d.den / (p.den * cd)
    if d.den != 1:
        quot = {e: q * d.den for e, q in quot.items()}
    return _make(names, quot, p.den * cd)


def _div_heap(pt: dict[Exponents, int], dt: dict[Exponents, int],
              cd: int) -> dict[Exponents, int] | None:
    """The quotient terms of pt / (dt / cd) over Z, highest first, or None if inexact.

    Both term maps are aligned to one name tuple, and cd is the integer
    content of dt.
    """
    # Every exponent of every remainder term is at most p's total degree.
    base = max(map(sum, pt)) + 1

    def pack(e: Exponents) -> int:
        k = sum(e)
        for x in e:
            k = k * base + x
        return k

    rem = {pack(e): c for e, c in pt.items()}
    heap = [-k for k in rem]
    heapq.heapify(heap)
    de = max(dt, key=_grlex)
    dc = dt[de] // cd
    dkey = pack(de)
    tail = [(pack(e), c // cd) for e, c in dt.items() if e != de]
    width = len(de)
    quot: dict[Exponents, int] = {}
    while heap:
        key = -heapq.heappop(heap)
        c = rem.pop(key, 0)
        if not c:
            continue
        re = [0] * width
        rest = key
        for i in range(width - 1, -1, -1):
            rest, re[i] = divmod(rest, base)
        qe = tuple(map(sub, re, de))
        if any(k < 0 for k in qe):
            return None
        qc, r = divmod(c, dc)
        if r:
            return None
        quot[qe] = qc
        qkey = key - dkey
        for k, c in tail:
            nk = qkey + k
            t = qc * c
            v = rem.get(nk)
            if v is None:
                rem[nk] = -t
                heapq.heappush(heap, -nk)
            elif v != t:
                rem[nk] = v - t
            else:
                del rem[nk]
    return quot


def _div_dense(p: list[int], d: list[int]) -> list[int] | None:
    """The quotient of p by d over Z when it is exact, else None.

    Dense int lists, low to high, with a nonzero last entry: the long
    division runs from the top and stops at the first quotient coefficient
    that is not an integer.
    """
    m = len(d) - 1
    top = len(p) - 1 - m
    if top < 0:
        return None
    rem = list(p)
    lead = d[m]
    tail = [(j, c) for j, c in enumerate(d[:m]) if c]
    quot = [0] * (top + 1)
    for k in range(top, -1, -1):
        c = rem[k + m]
        if c:
            qc, r = divmod(c, lead)
            if r:
                return None
            quot[k] = qc
            for j, dj in tail:
                rem[k + j] -= qc * dj
    return None if any(rem[:m]) else quot


def rational_roots(coeffs: list[int]) -> tuple[dict[Fraction, int], list[int]]:
    """Every rational root with its multiplicity, plus the cofactor that has none.

    ``coeffs`` are the primitive integer coefficients of a polynomial f, low
    to high, as ``MultiPoly.primitive_int_coeffs`` reads them.  The roots are
    found by p-adic expansion (Loos, SIAM J. Comput. 12, 1983), so no integer
    is factored.  Let s = f / gcd(f, f') be the squarefree part of f with the
    root 0 removed, and p the smallest prime that does not divide lc(s) and
    at which every root of s mod p is simple.  A root a/b of s in lowest
    terms has |a| <= |s(0)| and 0 < b <= lc(s), with p not dividing b, so it
    reduces to a simple root mod p and is that root's one p-adic lift.
    Newton's iteration lifts each root mod p until the modulus exceeds
    2 |s(0)| lc(s), and then half-extended Euclid reads a/b off uniquely
    (``_padic_candidates``).  Each candidate is confirmed, as often as it
    divides, by the exact long division of f by b z - a (``_div_dense``).
    Returns (roots, leftover): leftover is the primitive int list of the
    cofactor, constant when f splits over Q.  The roots are in no particular
    order.
    """
    roots: dict[Fraction, int] = {}
    zeros = next(k for k, c in enumerate(coeffs) if c)
    if zeros:
        roots[Fraction(0)] = zeros
    work = coeffs[zeros:]
    if len(work) == 1:
        return roots, work
    g, s, _ = _gcd_dense(work, [k * c for k, c in enumerate(work)][1:])
    for a, b in _padic_candidates(s):
        # A root of multiplicity k in f is one of multiplicity k - 1 in g.
        k = 0
        while k < len(g) and (quot := _div_dense(work, [-a, b])) is not None:
            k += 1
            work = quot
        if k:
            roots[Fraction(a, b)] = k
    return roots, work


def _padic_candidates(s: list[int]) -> Iterator[tuple[int, int]]:
    """The pairs (a, b) with |a| <= |s(0)| and 0 < b <= lc(s) that may be
    roots a/b of the squarefree int list s, s(0) != 0, as ``rational_roots``
    reads them off; a linear s gives its root directly."""
    low, lead = abs(s[0]), abs(s[-1])
    if len(s) == 2:
        yield (-s[0], s[1]) if s[1] > 0 else (s[0], -s[1])
        return
    for p in (n for n in itertools.count(2)
              if all(n % d for d in range(2, math.isqrt(n) + 1))):
        if lead % p:
            evals = [_eval_mod(s, r, p) for r in range(p)]
            if all(d for v, d in evals if not v):
                break
    bound = 2 * low * lead
    for r, (v, _) in enumerate(evals):
        if v:
            continue
        m = p
        while m <= bound:
            m *= m
            v, d = _eval_mod(s, r, m)
            r = (r - v * pow(d, -1, m)) % m
        # Half-extended Euclid on (m, r): the first remainder a <= |s(0)|.
        a0, a, b0, b = m, r, 0, 1
        while a > low:
            q = a0 // a
            a0, a, b0, b = a, a0 - q * a, b, b0 - q * b
        if b < 0:
            a, b = -a, -b
        if b <= lead:
            yield a, b


def _eval_mod(f: list[int], x: int, m: int) -> tuple[int, int]:
    """f(x) and f'(x) mod m, by Horner's rule."""
    v = d = 0
    for c in reversed(f):
        d = (d * x + v) % m
        v = (v * x + c) % m
    return v, d


def _canon_primitive(p: MultiPoly) -> MultiPoly:
    """Integer-primitive scalar multiple of p with positive leading coefficient."""
    if p.is_zero():
        return _ZERO
    g = math.gcd(*p.terms.values())
    if p.terms[max(p.terms, key=_grlex)] < 0:
        g = -g
    if g == 1 and p.den == 1:
        return p
    return _new(p.names, {e: c // g for e, c in p.terms.items()}, 1)


def _int_coeffs(p: MultiPoly) -> list[int]:
    """The int numerators ``[c0, ..., cd]`` of a nonzero p in at most one name.

    The dense list, low to high; p's denominator is not read.
    """
    if not p.names:
        return [p.terms[()]]
    out = [0] * (max(e[0] for e in p.terms) + 1)
    for (k,), c in p.terms.items():
        out[k] = c
    return out


def _poly_of(names: tuple[str, ...], coeffs: list[int], den: int = 1) -> MultiPoly:
    """The polynomial in the one name of ``names`` with coefficients ``coeffs`` / ``den``.

    ``coeffs`` is a nonzero dense int list, low to high.
    """
    return _make(names, {(k,): c for k, c in enumerate(coeffs)}, den)


def _univar_view(p: MultiPoly, name: str) -> dict[int, MultiPoly]:
    """View p as a univariate polynomial in ``name`` with MultiPoly coefficients."""
    if name not in p.names:
        return {0: p} if not p.is_zero() else {}
    i = p.names.index(name)
    rest = p.names[:i] + p.names[i + 1:]
    buckets: dict[int, dict[Exponents, int]] = {}
    for e, c in p.terms.items():
        k = e[i]
        buckets.setdefault(k, {})[e[:i] + e[i + 1:]] = c
    return {k: _make(rest, t, p.den) for k, t in buckets.items()}


#: The heuristic gcd's evaluation points (Char, Geddes & Gonnet, 1989): the
#: first lies this far above twice the smaller norm of the two inputs, each
#: failed point is multiplied by 73794/27011, and six points are tried.
_XI_OFFSET = 29
_XI_GROWTH = (73794, 27011)
_XI_POINTS = 6

def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Greatest common divisor over the rationals: ``poly_cofactors(a, b)[0]``."""
    return poly_cofactors(a, b)[0]


def poly_cofactors(a: MultiPoly, b: MultiPoly) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """``(g, a/g, b/g)`` for the greatest common divisor g over the rationals.

    g is integer-primitive with a positive leading coefficient; constants
    count as units, so coprime inputs give 1 and cofactors a and b.

    After the trivial cases the heuristic gcd (GCDHEU: Char, Geddes and
    Gonnet, J. Symbolic Comput. 7, 1989; Geddes, Czapor and Labahn,
    *Algorithms for Computer Algebra*, section 7.7) decides, on the inputs'
    integer numerators.  It strips the integer content and the monomial
    factor x^m of each input, evaluates the first shared variable x at an
    integer xi and takes the gcd gamma of the two images recursively, down to
    constants.  The symmetric xi-adic digits of gamma are the
    coefficients of a candidate in x.  By the CGG theorem, when
    xi >= 2 * min(|a|, |b|) + 2 in the max-norm of the stripped inputs, the
    candidate's primitive part is their gcd as soon as it divides both; the
    first point here is 2 * min(|a|, |b|) + 29, and every candidate is
    checked by exact division, so each result is certified; its quotients,
    times the contents and monomial factors stripped, are the cofactors.  A
    candidate that fails moves xi to xi * 73794 // 27011.  Six points can
    all fail, for instance when the larger input vanishes at each of them;
    the primitive PRS in x then decides (``_prs_gcd``), and exact division
    gives the cofactors.  So every result is the gcd, and ``poly_cofactors``
    never raises ``AlgebraError``.

    Two polynomials in the same single name, at the top or as the images at
    the last level of the recursion, run this algorithm on dense int lists
    (``_gcd_dense``): Horner images, the same digits, points and PRS, and
    the long division ``_div_dense`` as the certificate.
    """
    a = _as_poly(a)
    b = _as_poly(b)
    zero = a.is_zero() or b.is_zero()
    if not zero and (a.is_const() or b.is_const() or not set(a.names) & set(b.names)):
        return _ONE, a, b
    if zero or a == b:
        g = _canon_primitive(b if a.is_zero() else a)
        # Each input is zero or a constant multiple of g: compare one term.
        e = next(iter(g.terms), None)
        return g, *(q if q.is_zero() else _ONE._scaled(q.terms[e], q.den * g.terms[e])
                    for q in (a, b))
    if len(a.names) == 1 and a.names == b.names:
        g, qa, qb = _gcd_dense(_int_coeffs(a), _int_coeffs(b))
        if len(g) == 1:
            return _ONE, a, b
        return _poly_of(a.names, g), _poly_of(a.names, qa, a.den), _poly_of(a.names, qb, b.den)
    ca, ma, sa = _strip(a)
    cb, mb, sb = _strip(b)
    mono = {n: min(k, mb[n]) for n, k in ma.items() if n in mb}
    shared = [n for n in sa.names if n in sb.names]
    core, qa, qb = _heu_gcd(sa, sb, shared[0]) if shared else (_ONE, sa, sb)
    if not mono and core.is_const():
        return _ONE, a, b
    names = tuple(sorted(mono))
    # Each cofactor takes back its content, its denominator and the part of
    # its monomial factor that g does not take.
    return (_new(names, {tuple(mono[n] for n in names): 1}, 1) * core if mono else core,
            *(q._scaled(c, p.den) if m == mono else
              q * _make(tuple(m), {tuple(k - mono.get(n, 0) for n, k in m.items()): c}, p.den)
              for q, m, c, p in ((qa, ma, ca, a), (qb, mb, cb, b))))


def _strip(p: MultiPoly) -> tuple[int, dict[str, int], MultiPoly]:
    """The integer content of p's numerators, its monomial factor and the rest.

    The monomial is a map from each name to the power of it that divides p;
    the rest is primitive over the integers, with denominator 1.
    """
    c = math.gcd(*p.terms.values())
    low = [min(col) for col in zip(*p.terms)]
    mono = {n: k for n, k in zip(p.names, low) if k}
    if not mono:
        if c == 1 and p.den == 1:
            return c, mono, p
        return c, mono, _new(p.names, {e: v // c for e, v in p.terms.items()}, 1)
    return c, mono, _make(p.names, {tuple(map(sub, e, low)): v // c
                                    for e, v in p.terms.items()}, 1)


def _heu_gcd(a: MultiPoly, b: MultiPoly, x: str) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """gcd and cofactors of two primitive polynomials free of monomial factors, sharing ``x``.

    The heuristic gcd at up to six points, then the primitive PRS.
    """
    norm = min(max(map(abs, a.terms.values())), max(map(abs, b.terms.values())))
    xi = 2 * norm + _XI_OFFSET
    for _ in range(_XI_POINTS):
        g = _heu_candidate(a, b, x, xi)
        if g.is_const():
            return g, a, b
        if (qa := exact_div(a, g)) is not None and (qb := exact_div(b, g)) is not None:
            return g, qa, qb
        xi = xi * _XI_GROWTH[0] // _XI_GROWTH[1]
    g = _prs_gcd(a, b, x)
    return g, exact_div(a, g), exact_div(b, g)


def _gcd_dense(a: list[int], b: list[int]) -> tuple[list[int], list[int], list[int]]:
    """The primitive gcd of two nonzero int lists, and both cofactors over Z.

    The univariate level of ``poly_cofactors``, on dense lists, low to high:
    it strips each integer content and power of the name, as ``_strip`` does,
    and runs the heuristic gcd at up to six points, as ``_heu_gcd`` does,
    then the primitive PRS.
    """
    ca, cb = math.gcd(*a), math.gcd(*b)
    ma = next(k for k, c in enumerate(a) if c)
    mb = next(k for k, c in enumerate(b) if c)
    a = [c // ca for c in a[ma:]]
    b = [c // cb for c in b[mb:]]
    core, qa, qb = _heu_gcd_dense(a, b) if len(a) > 1 and len(b) > 1 else ([1], a, b)
    m = min(ma, mb)
    return [0] * m + core, [0] * (ma - m) + [ca * c for c in qa], [0] * (mb - m) + [cb * c for c in qb]


def _heu_gcd_dense(a: list[int], b: list[int]) -> tuple[list[int], list[int], list[int]]:
    """``_heu_gcd`` of two primitive int lists with nonzero constant terms."""
    norm = min(max(map(abs, a)), max(map(abs, b)))
    xi = 2 * norm + _XI_OFFSET
    for _ in range(_XI_POINTS):
        g = _heu_candidate_dense(a, b, xi)
        if len(g) == 1:
            return g, a, b
        if (qa := _div_dense(a, g)) is not None and (qb := _div_dense(b, g)) is not None:
            return g, qa, qb
        xi = xi * _XI_GROWTH[0] // _XI_GROWTH[1]
    # The PRS runs on polynomials; which name they are in is immaterial.
    g = _int_coeffs(_prs_gcd(_poly_of(("x",), a), _poly_of(("x",), b), "x"))
    return g, _div_dense(a, g), _div_dense(b, g)


def _prs_gcd(a: MultiPoly, b: MultiPoly, x: str) -> MultiPoly:
    """gcd of a and b by the primitive PRS in x over Z[other names].

    Certified for every input, and slower than a successful heuristic gcd:
    the gcd of the contents in x (taken by ``poly_gcd`` one variable down)
    times the last nonzero pseudo-remainder made primitive in x (Collins,
    JACM 1967; Geddes, Czapor and Labahn, section 7.3).
    """
    ca, a = _content_in(a, x)
    cb, b = _content_in(b, x)
    while b.degree_in(x):
        r = _prem(a, b, x)
        if r.is_zero():
            break
        a, b = b, _content_in(r, x)[1]
    return _canon_primitive(poly_gcd(ca, cb) * b)


def _content_in(p: MultiPoly, x: str) -> tuple[MultiPoly, MultiPoly]:
    """p's content in x, the gcd of its coefficients in x, and p divided by it.

    Both are integer-primitive; the quotient is 1 when p is free of x.
    """
    cont = _canon_primitive(reduce(poly_gcd, _univar_view(p, x).values()))
    return cont, _canon_primitive(exact_div(p, cont))


def _prem(f: MultiPoly, g: MultiPoly, x: str) -> MultiPoly:
    """Pseudo-remainder of f by g in x: lc(g)^k * f reduced below g's degree in x."""
    dg = g.degree_in(x)
    lg = _univar_view(g, x)[dg]
    v = MultiPoly.variable(x)
    while not f.is_zero() and f.degree_in(x) >= dg:
        df = f.degree_in(x)
        f = f * lg - _univar_view(f, x)[df] * g * v ** (df - dg)
    return f


def _heu_candidate(a: MultiPoly, b: MultiPoly, x: str, xi: int) -> MultiPoly:
    """The primitive part of the polynomial in x whose xi-adic digits give gcd(a(xi), b(xi)).

    The image gcd over Z, the primitive gcd times the gcd of the images'
    contents, has each coefficient in the other names written in base xi
    (``_xi_digits``); digit k is the coefficient of x^k.
    """
    ia, ib = _eval_at(a, x, xi), _eval_at(b, x, xi)
    gamma = poly_cofactors(ia, ib)[0]._scaled(math.gcd(*ia.terms.values(), *ib.terms.values()), 1)
    names = tuple(sorted(gamma.names + (x,)))
    i = names.index(x)
    out: dict[Exponents, int] = {}
    for e, c in gamma.terms.items():
        for k, d in enumerate(_xi_digits(c, xi)):
            if d:
                out[e[:i] + (k,) + e[i:]] = d
    return _canon_primitive(_make(names, out, 1))


def _heu_candidate_dense(a: list[int], b: list[int], xi: int) -> list[int]:
    """``_heu_candidate`` at the univariate level: int lists, low to high.

    The images are ints, taken by Horner's rule, and the candidate's
    coefficients are the xi-adic digits of their gcd, made primitive.  The
    gcd is positive: the input whose largest coefficient N is the smaller
    has every root below 1 + N in modulus (Cauchy's bound), and xi >= 2 N +
    ``_XI_OFFSET`` lies above it, so that input's image is nonzero.  So the
    last entry is positive too: the balanced digits below the top one, d_m,
    sum to at most (xi/2)(xi^m - 1)/(xi - 1) < xi^m in modulus, so d_m has
    the sign of the gcd.
    """
    va = vb = 0
    for c in reversed(a):
        va = va * xi + c
    for c in reversed(b):
        vb = vb * xi + c
    out = _xi_digits(math.gcd(va, vb), xi)
    g = math.gcd(*out)
    return [c // g for c in out]


def _xi_digits(c: int, xi: int) -> list[int]:
    """The digits of c in base xi, low to high, each in (-xi/2, xi/2].

    The last digit is nonzero, and 0 has no digits.
    """
    half = xi // 2
    out = []
    while c:
        d = c % xi
        if d > half:
            d -= xi
        out.append(d)
        c = (c - d) // xi
    return out


def _eval_at(p: MultiPoly, x: str, xi: int) -> MultiPoly:
    """p's integer numerators at x = xi, over denominator 1."""
    i = p.names.index(x)
    powers = [1]
    for _ in range(max(e[i] for e in p.terms)):
        powers.append(powers[-1] * xi)
    out: dict[Exponents, int] = {}
    for e, c in p.terms.items():
        r = e[:i] + e[i + 1:]
        out[r] = out.get(r, 0) + c * powers[e[i]]
    return _make(p.names[:i] + p.names[i + 1:], out, 1)


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
        cand = MultiPoly(names, {de: Fraction(rt[re] * root.den, 2 * qt[qe] * rem.den)})
        root = root + cand
        rem = p - root * root
    return root if (root * root) == p else None


# ---------------------------------------------------------------------------
# Rational expressions
# ---------------------------------------------------------------------------


class RationalExpr:
    """Quotient of two MultiPoly values, always held in canonical form.

    ``+``, ``*``, ``/`` and ``**`` between two values without a name fold in
    integers: they compute on the two ``(numerator, denominator)`` int pairs
    and build the canonical constant directly, with the same ``num`` and
    ``den`` that the polynomial path gives, and no product, gcd or rescale.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=_ONE, *, _canonical: bool = False):
        num = _as_poly(num)
        den = _as_poly(den)
        if not _canonical:
            if den.is_zero():
                raise DivisionByZero("denominator is the zero polynomial")
            # A constant denominator shares no factor with the numerator.
            if not den.is_const():
                _, num, den = poly_cofactors(num, den)
            num, den = _rescale(num, den)
        self.num, self.den = num, den

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
        a, b = _const_pair(self), _const_pair(other)
        if a and b:
            return _const_expr(a[0] * b[1] + b[0] * a[1], a[1] * b[1])
        if self.den == other.den:
            # The sum of the numerators can share a factor with the denominator.
            return RationalExpr(self.num + other.num, self.den)
        # Otherwise the pairs built below are already reduced: no factor of
        # self.den/g or other.den/g divides the new numerator, and the second
        # gcd removes what it shares with g.
        g, db, dd = poly_cofactors(self.den, other.den)
        _, num, g = poly_cofactors(self.num * dd + other.num * db, g)
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
        a, b = _const_pair(self), _const_pair(other)
        if a and b:
            return _const_expr(a[0] * b[0], a[1] * b[1])
        # Cross-cancel so the product of reduced fractions is already reduced.
        _, n1, d2 = poly_cofactors(self.num, other.den)
        _, n2, d1 = poly_cofactors(other.num, self.den)
        return RationalExpr._monic(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalExpr":
        other = as_rational(other)
        if other.is_zero():
            raise DivisionByZero("division by the zero expression")
        a, b = _const_pair(self), _const_pair(other)
        if a and b:
            return _const_expr(a[0] * b[1], a[1] * b[0])
        return self * RationalExpr._monic(other.den, other.num)

    def __rtruediv__(self, other) -> "RationalExpr":
        return as_rational(other) / self

    def __pow__(self, n: int) -> "RationalExpr":
        if not isinstance(n, int):
            raise ValueError("only integer powers are supported")
        a = _const_pair(self)
        if n < 0:
            if self.is_zero():
                raise DivisionByZero("negative power of zero")
            if a:
                return _const_expr(a[1] ** -n, a[0] ** -n)
            return RationalExpr._monic(self.den ** (-n), self.num ** (-n))
        if a:
            return _const_expr(a[0] ** n, a[1] ** n)
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
        return RationalExpr(dn * self.den - self.num * dd, self.den * self.den)

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
        return hash((self.num, self.den))

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


def _const_pair(e: RationalExpr) -> tuple[int, int] | None:
    """The ints ``(n, d)`` with ``e == n/d``, ``d > 0``, or None if ``e`` has a name."""
    if e.num.names or e.den.names:
        return None
    return e.num.terms.get((), 0), e.num.den


def _const_expr(n: int, d: int) -> RationalExpr:
    """The canonical constant ``n/d`` for ints ``n`` and ``d != 0``."""
    if d < 0:
        n, d = -n, -d
    g = math.gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    return RationalExpr(_new((), {(): n}, d) if n else _ZERO, _ONE, _canonical=True)


def _rescale(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """num/den scaled so that the denominator's leading coefficient is 1."""
    if num.is_zero():
        return _ZERO, _ONE
    lead = den.terms[max(den.terms, key=_grlex)]
    if lead == den.den:
        return num, den
    return num._scaled(den.den, lead), den._scaled(den.den, lead)


def _subst_poly(p: MultiPoly, bindings: Mapping[str, "RationalExpr"]) -> "RationalExpr":
    """Simultaneous substitution into a polynomial; result is rational.

    Common-denominator form: each bound variable x -> u/v of degree D in p
    contributes u^e * v^(D - e) to a numerator term and v^D to the one
    denominator, and ``RationalExpr(num, den)`` canonicalises the pair once.
    Each group of terms with the same exponents in the bound names is
    multiplied by those powers once.
    """
    bound = [i for i, n in enumerate(p.names) if n in bindings]
    if not bound:
        return RationalExpr(p, _ONE, _canonical=True)
    keep = [i for i, n in enumerate(p.names) if n not in bindings]
    groups = {}
    for e, c in p.terms.items():
        groups.setdefault(tuple(e[i] for i in bound), {})[tuple(e[i] for i in keep)] = c
    # For each bound name, u^k * v^(D - k) for k = 0..D.
    pows = []
    den = _ONE
    for j, i in enumerate(bound):
        r = bindings[p.names[i]]
        nps = [_ONE]
        vps = [_ONE]
        for _ in range(max(ks[j] for ks in groups)):
            nps.append(nps[-1] * r.num)
            vps.append(vps[-1] * r.den)
        pows.append([u * v for u, v in zip(nps, reversed(vps))])
        den = den * vps[-1]
    total = _ZERO
    keep_names = tuple(p.names[i] for i in keep)
    # The sum is taken over p's integer numerators and divided by p.den once.
    for ks, terms in groups.items():
        term = _make(keep_names, terms, 1)
        for pw, k in zip(pows, ks):
            term = term * pw[k]
        total = total + term
    return RationalExpr(total._scaled(1, p.den), den)


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
