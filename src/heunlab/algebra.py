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

The monomial order used everywhere is graded lexicographic over the sorted
name tuple: compare total degree first, then the exponent vectors.
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
    def zero() -> "MultiPoly":
        return _ZERO

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

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, name: str) -> int:
        if name not in self.names:
            return 0
        i = self.names.index(name)
        return max(e[i] for e in self.terms)

    def leading(self) -> tuple[Exponents, Fraction]:
        """Leading (exponents, coefficient) under graded lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=lambda e: (sum(e), e))
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
            c = other.const_value()
            return MultiPoly(self.names, {e: k * c for e, k in self.terms.items()})
        if self.is_const():
            c = self.const_value()
            return MultiPoly(other.names, {e: k * c for e, k in other.terms.items()})
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

    def eval_complex(self, point: Mapping[str, complex]) -> complex:
        missing = [n for n in self.names if n not in point]
        if missing:
            raise UnknownVariable(f"no value supplied for {missing}")
        vals = [complex(point[n]) for n in self.names]
        total = 0j
        for e, c in self.terms.items():
            term = complex(c)
            for i, k in enumerate(e):
                if k:
                    term *= vals[i] ** k
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
        for e in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
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

    Single-divisor division under graded lex.  Whenever the divisor's leading
    monomial fails to divide the running remainder's, the division cannot be
    exact (leading terms multiply monotonically in a graded order), so we
    abort immediately.
    """
    d = _as_poly(d)
    if d.is_zero():
        raise DivisionByZero("exact_div by the zero polynomial")
    if p.is_zero():
        return _ZERO
    if d.is_const():
        return p.scale(1 / d.const_value())
    names = MultiPoly._union_names(p, d)
    rem = dict(p._aligned_to(names))
    dt = d._aligned_to(names)
    de = max(dt, key=lambda e: (sum(e), e))
    dc = dt[de]
    quot: dict[Exponents, Fraction] = {}
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


def _int_content(p: MultiPoly) -> Fraction:
    """Rational c > 0 such that p/c has coprime integer coefficients."""
    num_gcd = 0
    den_lcm = 1
    for c in p.terms.values():
        num_gcd = math.gcd(num_gcd, abs(c.numerator))
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    return Fraction(num_gcd, den_lcm) if num_gcd else Fraction(1)


def _canon_primitive(p: MultiPoly) -> MultiPoly:
    """Integer-primitive scalar multiple of p with positive leading coefficient."""
    if p.is_zero():
        return _ZERO
    c = _int_content(p)
    if p.leading()[1] < 0:
        c = -c
    return p.scale(1 / c)


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


def _from_univar(name: str, coeffs: Mapping[int, MultiPoly]) -> MultiPoly:
    out = _ZERO
    x = MultiPoly.variable(name)
    for k, c in coeffs.items():
        out = out + c * x ** k
    return out


def _content_pp(p: MultiPoly, name: str) -> tuple[MultiPoly, MultiPoly]:
    """(content, primitive part) of p with respect to ``name``."""
    coeffs = list(_univar_view(p, name).values())
    cont = coeffs[0]
    for c in coeffs[1:]:
        if cont.is_const():
            break
        cont = poly_gcd(cont, c)
    cont = _canon_primitive(cont)
    pp = exact_div(p, cont)
    assert pp is not None
    return cont, pp


def _prem(f: dict[int, MultiPoly], g: dict[int, MultiPoly], name: str) -> MultiPoly:
    """Pseudo-remainder of f by g, both univariate views in ``name``."""
    df = max(f)
    dg = max(g)
    lg = g[dg]
    r = dict(f)
    while r and max(r) >= dg:
        dr = max(r)
        lr = r[dr]
        shift = dr - dg
        nr: dict[int, MultiPoly] = {}
        for k, c in r.items():
            nr[k] = c * lg
        for k, c in g.items():
            kk = k + shift
            v = nr.get(kk, _ZERO) - lr * c
            nr[kk] = v
        r = {k: c for k, c in nr.items() if not c.is_zero()}
    return _from_univar(name, r)


def _int_coeff_list(p: MultiPoly, name: str) -> list[int]:
    """Primitive integer coefficient list of a univariate polynomial."""
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
    ints = [int(c * den_lcm) for c in coeffs]
    return _int_primitive(ints)


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


def _gcd_univar(a: MultiPoly, b: MultiPoly, name: str) -> MultiPoly:
    """Fast primitive PRS for two univariate polynomials over the rationals."""
    f = _int_gcd_lists(_int_coeff_list(a, name), _int_coeff_list(b, name))
    if len(f) == 1:
        return _ONE
    out = MultiPoly((name,), {(k,): Fraction(c) for k, c in enumerate(f) if c})
    return _canon_primitive(out)


def _image_gcd_degree(a: MultiPoly, b: MultiPoly, name: str) -> int | None:
    """Upper bound for the degree of gcd(a, b) in ``name``; None if inconclusive.

    Substitutes fixed pseudo-random integers for every other indeterminate and
    takes the gcd of the two univariate images.  Whenever the substitution
    preserves the degree of one input it also preserves the degree of the true
    gcd's image, which divides the image gcd, so the returned degree is never
    smaller than the true one.  In particular a return of 0 proves the gcd is
    free of ``name``.
    """
    others = sorted((set(a.names) | set(b.names)) - {name})
    da, db = a.degree_in(name), b.degree_in(name)
    rng = random.Random(20250808)
    best: int | None = None
    for _ in range(4):
        point = {n: Fraction(rng.randint(-997, 997)) for n in others}
        ia = _image_coeff_list(a, name, point)
        ib = _image_coeff_list(b, name, point)
        if ia is None or ib is None:
            continue
        if len(ia) - 1 != da and len(ib) - 1 != db:
            continue
        d = len(_int_gcd_lists(ia, ib)) - 1
        best = d if best is None else min(best, d)
        if best == 0:
            return 0
        if not others:
            break
    return best


def _image_coeff_list(p: MultiPoly, name: str, point: dict[str, Fraction]) -> list[int] | None:
    """Primitive integer coefficients of p's univariate image at ``point``."""
    view = _univar_view(p, name)
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
    return _int_primitive([int(c * den_lcm) for c in out])


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Greatest common divisor over the rationals.

    Returned integer-primitive with positive leading coefficient; constants
    count as units, so coprime inputs give 1.

    Strategy, cheapest first: trial exact divisions (denominators in this
    package are mostly nested products of the same linear factors); per
    variable image-gcd degrees, which prove coprimality outright when all
    zero; evaluation-interpolation over just the variables the gcd actually
    involves, certified by exact division; and a primitive PRS as the sound
    fallback when interpolation keeps hitting unlucky points.
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
    support = [n for n in common_sorted if exp_deg[n] != 0]
    if not support:
        return _ONE
    for salt in range(3):
        g = _gcd_by_interpolation(a, b, support, exp_deg, salt)
        if g is not None:
            if g.is_const():
                return _ONE
            qa = exact_div(a, g)
            qb = exact_div(b, g)
            leftover = poly_gcd(qa, qb)
            return _canon_primitive(g * leftover)
    return _gcd_prs(a, b, support, exp_deg)


def _gcd_by_interpolation(a: MultiPoly, b: MultiPoly, support: list[str],
                          exp_deg: dict[str, int | None], salt: int) -> MultiPoly | None:
    """Interpolation gcd candidate over the gcd's support variables, verified.

    Every variable outside ``support`` is frozen at a random integer (the gcd
    provably does not involve it).  Univariate integer gcd images in the
    first support variable are normalised so their leading coefficient is the
    image of gcd(lc(a), lc(b)); the interpolated object is then a polynomial
    multiple of the gcd whose extra factor is free of the main variable, so
    taking the primitive part in the main variable isolates the gcd
    candidate.  The candidate is accepted only when it exactly divides both
    inputs.
    """
    x = support[0]
    yvars = support[1:]
    all_names = sorted(set(a.names) | set(b.names))
    frozen_names = [n for n in all_names if n not in support]
    rng = random.Random(0x5EED + 7919 * salt)
    frozen = {n: Fraction(rng.randint(-997, 997)) for n in frozen_names}
    da, db = a.degree_in(x), b.degree_in(x)
    lc_a = _univar_view(a, x).get(da, _ONE)
    lc_b = _univar_view(b, x).get(db, _ONE)
    # Normalising factor: any polynomial multiple of the gcd's leading
    # x-coefficient works; gcd(lc_a, lc_b) keeps interpolation degrees low.
    gamma_poly = poly_gcd(lc_a, lc_b)

    # Interpolation degree bound per remaining variable: the normalised image
    # is (gamma/lc(gcd)) * gcd, so its y-degree is bounded by the gamma degree
    # plus the expected gcd degree (input degree when no estimate exists).
    bounds = {}
    for y in yvars:
        est = exp_deg.get(y)
        if est is None:
            est = min(a.degree_in(y), b.degree_in(y))
        bounds[y] = gamma_poly.degree_in(y) + est
    expected_dx = exp_deg.get(x)
    state = {"dx": expected_dx}

    def univar_image(point: dict[str, Fraction]) -> MultiPoly | None:
        ia = _image_coeff_list(a, x, point)
        ib = _image_coeff_list(b, x, point)
        if ia is None or ib is None:
            return None
        if len(ia) - 1 != da and len(ib) - 1 != db:
            return None
        g = _int_gcd_lists(ia, ib)
        dg = len(g) - 1
        if state["dx"] is None:
            state["dx"] = dg
        if dg != state["dx"]:
            return None
        gamma = gamma_poly.eval_exact(point)
        if gamma == 0:
            return None
        scale = Fraction(gamma, g[-1])
        return MultiPoly((x,), {(k,): c * scale for k, c in enumerate(g) if c})

    def interpolate(remaining: tuple[str, ...], point: dict[str, Fraction]) -> MultiPoly | None:
        if not remaining:
            return univar_image(point)
        y = remaining[-1]
        inner = remaining[:-1]
        npts = bounds[y] + 1
        nodes: list[Fraction] = []
        values: list[MultiPoly] = []
        trial = 0
        while len(nodes) < npts and trial < 4 * npts + 12:
            node = Fraction(rng.randint(-499, 499) + trial)
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
    cont, pp = _content_pp(cand, x)
    pp = _canon_primitive(pp)
    if exact_div(a, pp) is None or exact_div(b, pp) is None:
        return None
    return pp


def _gcd_prs(a: MultiPoly, b: MultiPoly, support: list[str],
             exp_deg: dict[str, int | None]) -> MultiPoly:
    """Primitive PRS fallback, with early division-verified termination."""
    name = min(support, key=lambda n: (
        exp_deg[n] if exp_deg[n] is not None else 1 << 30,
        min(a.degree_in(n), b.degree_in(n)),
        n,
    ))
    expected = exp_deg[name]
    ca, pa = _content_pp(a, name)
    cb, pb = _content_pp(b, name)
    cg = poly_gcd(ca, cb)
    pa = _canon_primitive(pa)
    pb = _canon_primitive(pb)
    f = _univar_view(pa, name)
    g = _univar_view(pb, name)
    if max(f) < max(g):
        f, g = g, f
    last_tried = None
    while True:
        dg = max(g)
        if expected is not None and dg <= expected and dg != last_tried:
            # Every PRS member is a multiple of the gcd; the one at the
            # expected degree usually is the gcd, so try it by division.
            last_tried = dg
            cand = _from_univar(name, g)
            _, cand = _content_pp(cand, name)
            cand = _canon_primitive(cand)
            if exact_div(pa, cand) is not None and exact_div(pb, cand) is not None:
                return _canon_primitive(cg * cand)
        r = _prem(f, g, name)
        if r.is_zero():
            gp = _from_univar(name, g)
            break
        if r.degree_in(name) == 0:
            gp = _ONE
            break
        _, r = _content_pp(r, name)
        f, g = g, _univar_view(_canon_primitive(r), name)
    if gp.is_const():
        return _canon_primitive(cg)
    _, gp = _content_pp(gp, name)
    return _canon_primitive(cg * gp)


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
        re = max(rt, key=lambda e: (sum(e), e))
        qe = max(qt, key=lambda e: (sum(e), e))
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
        if _canonical:
            self.num, self.den = num, den
        else:
            self.num, self.den = _normalize(num, den)
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
            return RationalExpr(self.num + other.num, self.den)
        g = poly_gcd(self.den, other.den)
        if g.is_const():
            num = self.num * other.den + other.num * self.den
            return RationalExpr(num, self.den * other.den)
        db = exact_div(self.den, g)
        dd = exact_div(other.den, g)
        num = self.num * dd + other.num * db
        h = poly_gcd(num, g)
        if not h.is_const():
            num = exact_div(num, h)
            g = exact_div(g, h)
        return RationalExpr(num, g * db * dd)

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
        return self * RationalExpr(other.den, other.num)

    def __rtruediv__(self, other) -> "RationalExpr":
        return as_rational(other) / self

    def __pow__(self, n: int) -> "RationalExpr":
        if not isinstance(n, int):
            raise ValueError("only integer powers are supported")
        if n < 0:
            if self.is_zero():
                raise DivisionByZero("negative power of zero")
            return RationalExpr(self.den ** (-n), self.num ** (-n))
        return RationalExpr._monic(self.num ** n, self.den ** n)

    @staticmethod
    def _monic(num: MultiPoly, den: MultiPoly) -> "RationalExpr":
        """Rescale an already-reduced pair so the denominator is monic."""
        if num.is_zero():
            return RationalExpr(_ZERO, _ONE, _canonical=True)
        lc = den.leading()[1]
        if lc != 1:
            num = num.scale(1 / lc)
            den = den.scale(1 / lc)
        return RationalExpr(num, den, _canonical=True)

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

    def eval_complex(self, point: Mapping[str, complex]) -> complex:
        d = self.den.eval_complex(point)
        if d == 0:
            raise PoleAtPoint(f"denominator vanishes at {dict(point)!r}")
        return self.num.eval_complex(point) / d

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


def _normalize(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    if den.is_zero():
        raise DivisionByZero("denominator is the zero polynomial")
    if num.is_zero():
        return _ZERO, _ONE
    if den.is_const():
        return num.scale(1 / den.const_value()), _ONE
    g = poly_gcd(num, den)
    if not g.is_const():
        num = exact_div(num, g)
        den = exact_div(den, g)
        if den.is_const():
            return num.scale(1 / den.const_value()), _ONE
    lc = den.leading()[1]
    if lc != 1:
        num = num.scale(1 / lc)
        den = den.scale(1 / lc)
    return num, den


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


def differentiate(e: Coercible, name: str) -> RationalExpr:
    return as_rational(e).derivative(name)


def substitute(e: Coercible, bindings: Mapping[str, Coercible]) -> RationalExpr:
    return as_rational(e).substitute(bindings)


def eval_rational(e: Coercible, point: Mapping[str, Fraction]) -> Fraction:
    return as_rational(e).eval_exact(point)


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
