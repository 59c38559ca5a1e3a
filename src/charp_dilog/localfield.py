"""Rational functions F_q(s), Laurent germs, 1-forms and residues.

The coefficient world for the comparison 1-form: every identity checked in
this package is algebraic, so the computable subfield of rational functions
stands in for the Laurent-series field.  A :class:`RatFn` keeps a raw
numerator list and its denominator as powers of the polynomials it was built
from, held as tuples of raws, so arithmetic needs no gcd and builds no
:class:`~charp_dilog.gf.Poly`; Euclid runs only where a normal form is
taken, in the public constructor and in :meth:`RatFn.reduced`.
:func:`expand_at` turns a rational function into a :class:`LaurentLocal`,
its Laurent germ at a point, exact below a tracked absolute precision;
:class:`LaurentRing` is the coefficient ring of such germs, so truncations
and forms can be built from them.  A germ never guesses: reading a
coefficient at or beyond its precision raises
:class:`InsufficientPrecision`, and a caller that needs more precision
expands the rational source again, deeper.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

from .gf import (CtxMismatch, DivisionByZero, Fq, FqElem, Poly, RingElem, ZeroPolynomial,
                 _pth_root_poly, _radd, _rderiv, _rmul, _rsub, is_irreducible, multiplicity, power,
                 residue_field)
from .tpoly import Trunc, _series_div


class LocalFieldError(Exception):
    """Base class for local-field errors."""


class ZeroArgument(LocalFieldError):
    """The operation is undefined for the zero function."""


class InsufficientPrecision(LocalFieldError):
    """A coefficient beyond the tracked precision was requested."""


class _Infinity:
    """The point at infinity on the s-line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"


INF = _Infinity()


class RatFn:
    """A rational function over F_q, held on raw data as n * prod_j B_j^(-e_j).

    n is a trimmed raw coefficient list, the bases B_j are monic polynomials
    as tuples of raws (the denominators a value was built from, and numerators
    that :meth:`inverse` moved down), the e_j nonzero integers.  A sum raises
    both operands to the larger exponent of each base, a common multiple known
    without a gcd; products, quotients and powers add, negate or scale
    exponents; :meth:`derivative` raises each base by one power.  All of it
    runs on ``gf._rmul``, ``_radd``/``_rsub`` and ``gf.power``.  A :class:`Poly`
    is built only where a value leaves the class: ``num`` and ``den`` (the
    products, formed on first read), :meth:`ord_at`, and the normal form
    (gcd-reduced, monic denominator) of the public constructor and
    :meth:`reduced`, where alone Euclid runs.  Equality, hashing, orders and
    repr depend on the value alone.
    """

    __slots__ = ("field", "_n", "_f", "_num", "_den", "_normal")

    def __init__(self, num: Poly, den: Poly | None = None):
        den = Poly(num.field, [1]) if den is None else den
        if den.field != num.field:
            raise CtxMismatch("numerator and denominator over different fields")
        if den.is_zero:
            raise ZeroPolynomial("zero denominator")
        self._normal_form(*_reduce_fraction(num, den))

    def _normal_form(self, num: Poly, den: Poly) -> "RatFn":
        self.field, self._num, self._den, self._normal = num.field, num, den, True
        self._n, self._f = list(num.coeffs), {den.coeffs: 1} if den.degree > 0 else {}
        return self

    @classmethod
    def _make(cls, field: Fq, n: list, f: dict) -> "RatFn":
        """n * prod B^(-e) over the monic bases f = {B: e}; n is trimmed in place."""
        self = object.__new__(cls)
        while n and field._raw_is_zero(n[-1]):
            n.pop()
        if not n or not all(f.values()):
            f = {b: e for b, e in f.items() if e and n}
        self.field, self._n, self._f = field, n, f
        self._num, self._den, self._normal = None, None, not f  # no base: a normal form
        return self

    @property
    def num(self) -> Poly:
        if self._num is None:
            field = self.field
            self._num = math.prod((Poly._from_raw(field, list(b)) ** -e for b, e in self._f.items()
                                   if e < 0), start=Poly._from_raw(field, self._n))
        return self._num

    @property
    def den(self) -> Poly:
        if self._den is None:
            powers = [Poly._from_raw(self.field, list(b)) ** e for b, e in self._f.items() if e > 0]
            self._den = functools.reduce(operator.mul, powers) if powers else Poly(self.field, [1])
        return self._den

    def reduced(self) -> "RatFn":
        """The normalized representative (gcd-reduced, monic denominator)."""
        if self._normal:
            return self
        return object.__new__(RatFn)._normal_form(*_reduce_fraction(self.num, self.den))

    # -- constructors -------------------------------------------------------

    @classmethod
    def gen(cls, field: Fq) -> "RatFn":
        """The coordinate function s."""
        return cls._make(field, [field._raw_from_int(0), field._raw_from_int(1)], {})

    @classmethod
    def const(cls, c: FqElem) -> "RatFn":
        return cls._make(c.field, [c.raw], {})

    @classmethod
    def from_int(cls, field: Fq, n: int) -> "RatFn":
        return cls.const(field.from_int(n))

    # -- predicates -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._n

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other) -> "RatFn":
        if isinstance(other, RatFn):
            if other.field != self.field:
                raise CtxMismatch("rational functions over different fields")
            return other
        if isinstance(other, (int, FqElem)):
            return RatFn.const(self.field(other))
        if isinstance(other, Poly):
            return RatFn(other)
        return NotImplemented

    def _over(self, f: dict) -> list:
        """n times the powers that take this value's bases to the multiple f."""
        mul, one, n = functools.partial(_rmul, self.field), [self.field._raw_from_int(1)], self._n
        for b, e in f.items():
            if d := e - self._f.get(b, 0):
                n = mul(n, power(b, d, one, mul))
        return n

    def _sum(self, other, minus: bool = False):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        f = {b: max(e, 0) for b, e in self._f.items()}
        for b, e in other._f.items():
            f[b] = max(self._f.get(b, 0), e)
        a, b = self._over(f), other._over(f)
        return RatFn._make(self.field, (_rsub if minus else _radd)(self.field, a, b), f)

    __add__ = __radd__ = _sum
    __sub__ = functools.partialmethod(_sum, minus=True)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        out = RatFn._make(self.field, _rsub(self.field, (), self._n), self._f)
        out._normal = self._normal
        return out

    def __mul__(self, other):
        if isinstance(other, (int, FqElem)):
            c = self.field._raw_of(other)
            return RatFn._make(self.field, [self.field._raw_mul(c, x) for x in self._n], self._f)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        f = dict(self._f)
        for b, e in other._f.items():
            f[b] = f.get(b, 0) + e
        return RatFn._make(self.field, _rmul(self.field, self._n, other._n), f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def inverse(self) -> "RatFn":
        if self.is_zero:
            raise DivisionByZero("inverting the zero rational function")
        f = {b: -e for b, e in self._f.items()}
        lead_inv = self.field._raw_inv(self._n[-1])
        if len(self._n) > 1:
            b = tuple(_rmul(self.field, [lead_inv], self._n))
            f[b] = f.get(b, 0) + 1
        return RatFn._make(self.field, [lead_inv], f)

    def __pow__(self, n: int) -> "RatFn":
        if n < 0:
            return self.inverse() ** (-n)
        one = [self.field._raw_from_int(1)]
        raws = power(self._n, n, one, functools.partial(_rmul, self.field))
        return RatFn._make(self.field, raws, {b: e * n for b, e in self._f.items()})

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._normal and other._normal:
            return self._n == other._n and self._f == other._f
        return (self - other).is_zero

    def __hash__(self) -> int:
        r = self.reduced()
        return hash((r.num, r.den))

    # -- calculus -------------------------------------------------------------

    def derivative(self) -> "RatFn":
        """(n' prod B_j - n sum_j e_j B_j' prod_{k != j} B_k) / prod B_j^(e_j + 1)."""
        field, mul = self.field, functools.partial(_rmul, self.field)
        num, done = _rderiv(field, self._n), None
        for b, e in self._f.items():
            db = _rderiv(field, b, e)
            num = _rsub(field, mul(num, b), mul(self._n, db if done is None else mul(db, done)))
            done = b if done is None else mul(done, b)
        return RatFn._make(field, num, {b: e + 1 for b, e in self._f.items()})

    def dlog(self) -> "OneForm":
        if self.is_zero:
            raise ZeroArgument("dlog of zero")
        return OneForm(self.derivative() / self)

    # -- point data -----------------------------------------------------------

    def ord_at(self, point) -> int:
        """Order of vanishing at a finite point (FqElem or monic irreducible Poly) or INF."""
        if self.is_zero:
            raise ZeroArgument("the zero function has no order")
        if point is INF:
            return sum(e * (len(b) - 1) for b, e in self._f.items()) - len(self._n) + 1
        if isinstance(point, FqElem):
            point = Poly(point.field, [-point, 1])
        elif not (point.is_monic and is_irreducible(point)):
            raise ValueError(f"a closed point is a monic irreducible polynomial, not {point!r}")
        r = self.reduced()
        return multiplicity(r.num.embedded(point.field), point)[0] - \
            multiplicity(r.den.embedded(point.field), point)[0]

    def __repr__(self) -> str:
        r = self.reduced()
        if r.den.degree == 0:
            return f"({r.num})"
        return f"({r.num})/({r.den})"


def _reduce_fraction(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    field = num.field
    g = num.gcd(den)  # den made monic when num is zero
    if g.degree > 0:
        num = num // g
        den = den // g
    den, lead = den.monic()
    if lead != field.one:
        num = num * lead.inverse()
    return num, den


class RatFnRing:
    """Coefficient-ring handle for rational functions over a fixed F_q; each
    element is its own raw for :class:`~charp_dilog.tpoly.Trunc`, and the
    ``_raw_*`` kernel is :class:`RatFn` arithmetic."""

    __slots__ = ("field",)

    def __init__(self, field: Fq):
        self.field = field

    @property
    def characteristic(self) -> int:
        return self.field.p

    @property
    def zero(self) -> RatFn:
        return RatFn.from_int(self.field, 0)

    @property
    def one(self) -> RatFn:
        return RatFn.from_int(self.field, 1)

    @property
    def gen(self) -> RatFn:
        return RatFn.gen(self.field)

    def from_int(self, n: int) -> RatFn:
        return RatFn.from_int(self.field, n)

    _raw_from_int = from_int

    def embed(self, c: FqElem) -> RatFn:
        """A coefficient-field element as a constant function."""
        return RatFn.const(self.field(c))

    def _raw_of(self, x) -> RatFn:
        """A coefficient of a Trunc over this ring: an int, a function over the
        field, or a field element as a constant."""
        if isinstance(x, RatFn):
            if x.field != self.field:
                raise CtxMismatch(f"function over {x.field} used in {self}")
            return x
        if isinstance(x, (int, FqElem)):
            return self.embed(x)
        raise TypeError(f"cannot coerce {x!r} into {self}")

    _wrap = staticmethod(tuple)
    _raw_add = staticmethod(operator.add)
    _raw_sub = staticmethod(operator.sub)
    _raw_neg = staticmethod(operator.neg)
    _raw_mul = staticmethod(operator.mul)
    _raw_inv = staticmethod(operator.methodcaller("inverse"))
    _raw_is_zero = staticmethod(operator.attrgetter("is_zero"))

    @staticmethod
    def _raw_dot(xs: Sequence, ys: Sequence) -> RatFn:
        return functools.reduce(operator.add, map(operator.mul, xs, ys))

    def _raw_mul_low(self, a: Sequence, b: Sequence, n: int) -> list:
        """The low n coefficients of a product: coefficient k is zero plus the
        nonzero a_i b_(k-i) in order of i, so its factored form is that sum's."""
        out = [self.zero] * n
        for i, x in enumerate(a[:n]):
            if not x.is_zero:
                for j, y in enumerate(b[:n - i]):
                    if not y.is_zero:
                        out[i + j] += x * y
        return out

    def random_element(self, rng, deg: int = 2) -> RatFn:
        """A numerator, then a nonzero denominator, each of degree at most ``deg``."""
        num = Poly(self.field, [self.field.random_element(rng) for _ in range(deg + 1)])
        while True:
            den = Poly(self.field, [self.field.random_element(rng) for _ in range(deg + 1)])
            if not den.is_zero:
                return RatFn(num, den)

    def __eq__(self, other) -> bool:
        return isinstance(other, RatFnRing) and other.field == self.field

    def __hash__(self) -> int:
        return hash(("ratfn", self.field))

    def __repr__(self) -> str:
        return f"{self.field}(s)"


@dataclass(frozen=True)
class OneForm:
    """A Kaehler differential f * ds on the s-line; f is a rational function, or
    a :class:`LaurentLocal` germ of one at a point."""

    fn: "RatFn | LaurentLocal"

    def __add__(self, other: "OneForm") -> "OneForm":
        return OneForm(self.fn + other.fn)

    def __sub__(self, other: "OneForm") -> "OneForm":
        return OneForm(self.fn - other.fn)

    @property
    def is_zero(self) -> bool:
        return self.fn.is_zero

    def __repr__(self) -> str:
        return f"{self.fn} ds"


@dataclass(frozen=True, slots=True)
class LaurentRing:
    """Coefficient ring of Laurent germs at one point (local parameter s - center,
    or 1/s at INF) with tracked absolute precision, as in Caruso, "Computations
    with p-adic numbers" (arXiv:1701.06794).

    A raw ``(val, prec, coeffs)`` holds the field raws of exponents val, val + 1,
    ...; other exponents below ``prec`` are zero, the rest unknown.  So val is a
    lower bound of the valuation, and a germ is its precision and its known
    coefficients: two germs are equal when those are.  A sum keeps the lower
    precision; a product is one field product, or a scaling by an exact constant,
    known below min(val_a + prec_b, val_b + prec_a, below) for an optional cut,
    as is a product of two truncations of germs (:meth:`_raw_mul_low`, uncut); an
    inverse keeps the relative precision once the valuation is among the known
    coefficients (else :class:`InsufficientPrecision`); d/ds loses one.
    Constants are exact (``prec`` infinite); only ``(inf, inf, ())`` is zero.
    """

    field: Fq
    center: object

    characteristic = property(lambda self: self.field.p)
    zero = property(lambda self: LaurentLocal(self, _ZERO))
    one = property(lambda self: self.from_int(1))

    def from_int(self, n: int) -> "LaurentLocal":
        return LaurentLocal(self, self._raw_from_int(n))

    def _operand(self, x):
        """A germ of this ring, or an int or field element as a constant."""
        if isinstance(x, LaurentLocal):
            if x.ring is not self and x.ring != self:
                raise CtxMismatch(f"germ of {x.ring} used in {self}")
            return x.raw
        c = self.field._operand(x)
        return c if c is NotImplemented else self._constant(c)

    def _raw_of(self, x):
        """A Trunc coefficient: what ``_operand`` takes."""
        if (raw := self._operand(x)) is NotImplemented:
            raise TypeError(f"cannot coerce {x!r} into {self}")
        return raw

    def _wrap(self, raws) -> tuple:
        return tuple([LaurentLocal(self, r) for r in raws])

    def _constant(self, c):
        return _ZERO if self.field._raw_is_zero(c) else (0, math.inf, (c,))

    def _raw_from_int(self, n: int):
        return self._constant(self.field._raw_from_int(n))

    @staticmethod
    def _raw_is_zero(a) -> bool:
        return a[0] == math.inf

    def _raw_add(self, a, b, minus: bool = False):
        if b[0] == math.inf:
            return a
        if a[0] == math.inf:
            return self._raw_neg(b) if minus else b
        (va, na, ca), (vb, nb, cb) = a, b
        val, prec = min(va, vb), min(na, nb)
        zero = self.field._raw_from_int(0)
        out = (_rsub if minus else _radd)(self.field, [zero] * (va - val) + list(ca),
                                          [zero] * (vb - val) + list(cb))
        if prec == math.inf:
            return self._constant(out[0])
        return val, prec, tuple(out[:max(0, prec - val)])

    _raw_sub = functools.partialmethod(_raw_add, minus=True)

    def _raw_neg(self, a):
        return a[:2] + (tuple(map(self.field._raw_neg, a[2])),)

    def _raw_mul(self, a, b, below: float = math.inf):
        if a[0] == math.inf or b[0] == math.inf:
            return _ZERO
        (va, na, ca), (vb, nb, cb) = (b, a) if a[1] == math.inf else (a, b)  # a constant second
        prec = min(va + nb, vb + na, below)
        size = min(prec - va - vb, len(ca) + len(cb) - 1)
        out = (() if size <= 0 else [self.field._raw_mul(cb[0], x) for x in ca[:size]]
               if nb == math.inf else self.field._raw_mul_low(ca, cb, size))
        return va + vb, prec, tuple(out)

    def _raw_dot(self, xs: Sequence, ys: Sequence):
        return functools.reduce(self._raw_add, map(self._raw_mul, xs, ys))

    def _raw_mul_low(self, a: Sequence, b: Sequence, n: int) -> list:
        """The low n coefficients of a product of germ lists, by bivariate
        Kronecker substitution (von zur Gathen & Gerhard, Modern Computer
        Algebra, 8.4): germ i goes into slot i at offset i*w + val - (least
        val), w the sum of the two lists' s-spans minus one, so each germ
        product lands in its own slot of one ``_raw_mul_low`` of the field.
        Output slot k is known below the least prec of its germ products and
        read from their least val, a lower bound as after any sum; a slot of
        exact constants only is their sum."""
        inf, field = math.inf, self.field
        a, b = a[:n], b[:n]
        # (val, relative precision, length) of each germ, None for the zero germ
        meta_a = [None if v == inf else (v, p - v, len(c)) for v, p, c in a]
        meta_b = [None if v == inf else (v, p - v, len(c)) for v, p, c in b]
        live_a, live_b = [m for m in meta_a if m], [m for m in meta_b if m]
        if not live_a or not live_b:
            return [_ZERO] * n
        low_a, low_b = min(live_a)[0], min(live_b)[0]
        w = (max(1, *(v - low_a + length for v, _, length in live_a))
             + max(1, *(v - low_b + length for v, _, length in live_b)) - 1)
        pad = [field._raw_from_int(0)] * w

        def pack(gs, low):
            flat = []
            for v, _, c in gs:
                flat += pad if v == inf else pad[:v - low] + list(c) + pad[:w - v + low - len(c)]
            return flat

        prod = field._raw_mul_low(pack(a, low_a), pack(b, low_b), n * w)
        out = []
        for k in range(n):
            val = prec = inf
            top = -inf  # where the products' data ends
            for i in range(max(0, k + 1 - len(b)), min(k + 1, len(a))):
                x, y = meta_a[i], meta_b[k - i]
                if x and y:
                    v = x[0] + y[0]
                    val, prec = min(val, v), min(prec, v + min(x[1], y[1]))
                    top = max(top, v + x[2] + y[2] - 1)
            start = k * w - low_a - low_b
            if prec == inf:  # exact constants only, or no product at all
                out.append(_ZERO if val == inf else self._constant(prod[start]))
            else:
                out.append((val, prec, tuple(prod[start + val:start + max(val, min(prec, top))])))
        return out

    def _raw_inv(self, a):
        val, prec, c = a
        if val == math.inf:
            raise DivisionByZero("inverting the zero germ")
        k = next((i for i, x in enumerate(c) if not self.field._raw_is_zero(x)), None)
        if k is None:
            raise InsufficientPrecision(f"valuation unknown below precision {prec}")
        val += k
        # the relative precision; an exact germ is a constant
        size = 1 if prec == math.inf else prec - val
        unit = list(c[k:k + size]) + [self.field._raw_from_int(0)] * (size + k - len(c))
        one = [self.field._raw_from_int(1)]
        return -val, prec - 2 * val, tuple(_series_div(self.field, one, unit))


_ZERO = (math.inf, math.inf, ())


class LaurentLocal(RingElem):
    """A Laurent germ at a point, an element of a :class:`LaurentRing` (whose
    docstring gives the raw and the precision rules).  ``coeff(e)`` is zero
    below ``val`` and raises :class:`InsufficientPrecision` from ``prec`` on;
    from :func:`expand_at`, ``val`` is the exact valuation, after a sum or a
    product of truncations a lower bound.  Germs compare by value."""

    __slots__ = ()

    field = property(lambda self: self.ring.field)
    val = property(lambda self: self.raw[0])
    prec = property(lambda self: self.raw[1])

    def coeff(self, e: int) -> FqElem:
        val, prec, c = self.raw
        if e >= prec:
            raise InsufficientPrecision(f"coefficient {e} beyond precision {prec}")
        return FqElem(self.field, c[e - val]) if 0 <= e - val < len(c) else self.field.zero

    def derivative(self) -> "LaurentLocal":
        """d/ds, which is d/du for the local parameter u = s - center."""
        if self.ring.center is INF:
            raise ValueError("d/ds of a germ at infinity is not d/du")
        val, prec, c = self.raw
        if prec == math.inf:
            return self.ring.zero
        f = self.field
        out = tuple([f._raw_mul(f._raw_from_int(e), x) for e, x in enumerate(c, start=val)])
        return LaurentLocal(self.ring, (val - 1, prec - 1, out))

    def __eq__(self, other) -> bool:
        """Equal precision and no nonzero known coefficient in the difference,
        whatever the raws' val: a germ known to finite precision equals no
        exact germ, and only the zero germ is an exact zero."""
        if not isinstance(other, LaurentLocal):
            return NotImplemented
        return (self.ring == other.ring and self.prec == other.prec
                and all(map(self.field._raw_is_zero, self.ring._raw_sub(self.raw, other.raw)[2])))


def expand_at(f: RatFn, center, order: int) -> LaurentLocal:
    """Laurent-expand f in the local parameter at ``center``, exactly through ``order``.

    The local parameter is s - center at a finite point and 1/s at INF.
    ``center`` may lie in an extension of f's coefficient field; the expansion
    is then computed over that extension.  The germ's ``val`` is f's exact
    valuation there, and its precision is order + 1.
    """
    if f.is_zero:
        raise ZeroArgument("expanding the zero function")
    if center is INF:
        num, den = f.num.reversed(), f.den.reversed()
        shift = f.den.degree - f.num.degree
        field = f.field
    else:
        field = center.field
        num = f.num.shifted(center)
        den = f.den.shifted(center)
        shift = 0
    ring = LaurentRing(field, center)
    vn = _trailing_zeros(num)
    vd = _trailing_zeros(den)
    val = vn - vd + shift
    n_terms = order - val + 1
    if n_terms <= 0:
        return LaurentLocal(ring, (val, order + 1, ()))
    # the quotient of the two windows, on raw coefficients: one series
    # division, mod (local parameter)^n_terms
    b = list(den.coeffs[vd:vd + n_terms])
    b += [field._raw_from_int(0)] * (n_terms - len(b))
    out = _series_div(field, num.coeffs[vn:vn + n_terms], b)
    return LaurentLocal(ring, (val, order + 1, tuple(out)))


# Doublings germs_at_zero allows; the deepest read in the verification suites
# and tests takes 3, from precision 2
_MAX_DOUBLINGS = 6


def germs_at_zero(field: Fq, prec: int, compute: Callable):
    """compute(germ), where ``germ`` maps a rational function over ``field``, or
    a :class:`~charp_dilog.tpoly.Trunc` of them, to its germ at s = 0 below
    absolute precision ``prec``; while compute reads past what its germs know,
    it runs again on germs of twice the precision, so the value is exact.
    After ``_MAX_DOUBLINGS`` doublings the last :class:`InsufficientPrecision`
    propagates, so a computation that reads too far at every precision
    fails.  ``germ.ring`` is the :class:`LaurentRing` of the germs."""
    ring = LaurentRing(field, field.zero)

    def germ(x):
        if isinstance(x, Trunc):
            return Trunc._of(ring, x.m, [germ(c).raw for c in x.coeffs])
        return ring.zero if x.is_zero else expand_at(x, ring.center, prec - 1)
    germ.ring = ring

    for _ in range(_MAX_DOUBLINGS):
        try:
            return compute(germ)
        except InsufficientPrecision:
            prec *= 2
    return compute(germ)


def _trailing_zeros(f: Poly) -> int:
    for i, c in enumerate(f.coeffs):
        if not f.field._raw_is_zero(c):
            return i
    raise ZeroPolynomial("zero polynomial has no valuation")


def cartier(omega: OneForm) -> OneForm:
    """The Cartier operator on rational 1-forms.

    Writing f = sum_i (h_i/den)^p s^i with 0 <= i < p, the image is
    (h_{p-1}/den) ds.  Its kernel on the rational function field is exactly
    the space of exact forms, so this is the computable exactness test.
    """
    f = omega.fn
    field = f.field
    p = field.p
    if f.is_zero:
        return omega
    big = f.num * f.den ** (p - 1)
    root = _pth_root_poly(Poly._from_raw(field, list(big.coeffs[p - 1:])))
    return OneForm(RatFn(root, f.den))


def is_exact_form(omega: OneForm) -> bool:
    """Whether the form is a derivative of a rational function (Cartier kernel)."""
    return cartier(omega).is_zero


def residue_at(omega: OneForm, point) -> FqElem:
    """The residue of f ds at a point of the s-line.

    ``point`` is a finite field element, a monic irreducible polynomial over
    the coefficient field (a closed point; the residue is computed in its
    residue field at the root u), or INF (where the local parameter is
    u = 1/s and ds = -u^{-2} du).  f is a rational function, or a
    :class:`LaurentLocal` germ at the point whose residue coefficient is read;
    a germ that does not know it raises :class:`InsufficientPrecision`.
    """
    f = omega.fn
    if isinstance(point, Poly):
        if not (point.is_monic and is_irreducible(point)):
            raise ValueError(f"a closed point is a monic irreducible polynomial, not {point!r}")
        point = residue_field(point)[1]
    elif point is not INF and not isinstance(point, FqElem):
        raise TypeError(f"not a point: {point!r}")
    if isinstance(f, RatFn):
        if f.is_zero:
            return (f.field if point is INF else point.field).zero
        f = expand_at(f, point, 1 if point is INF else -1)
    elif f.ring != LaurentRing(f.field, point):
        raise CtxMismatch(f"a germ of {f.ring} has no residue at {point!r}")
    return -f.coeff(1) if point is INF else f.coeff(-1)
