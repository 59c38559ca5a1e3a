"""Rational functions F_q(s), Laurent germs, 1-forms and residues.

The coefficient world for the comparison 1-form: every identity checked in
this package is algebraic, so the computable subfield of rational functions
stands in for the Laurent-series field.  :func:`expand_at` turns a rational
function into a :class:`LaurentLocal`, its Laurent germ at a point, exact
below a tracked absolute precision; :class:`LaurentRing` is the coefficient
ring of such germs, so truncations and forms can be built from them.  A germ
never guesses: reading a coefficient at or beyond its precision raises
:class:`InsufficientPrecision`, and a caller that needs more precision
expands the rational source again, deeper.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from .gf import (CtxMismatch, DivisionByZero, Fq, FqElem, Poly, ZeroPolynomial, _radd, _rsub,
                 multiplicity, residue_field, schoolbook)
from .tpoly import ElementKernel, _series_inverse


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
    """A rational function num/den over F_q.

    The public constructor normalizes (gcd-reduced, monic denominator).
    Arithmetic is lazy: results may carry an unreduced representation until
    :meth:`reduced` is called; value semantics (equality, zero tests,
    expansions, residues) are unaffected, and order/degree readers normalize
    on demand.
    """

    __slots__ = ("field", "num", "den", "_normal")

    def __init__(self, num: Poly, den: Poly | None = None):
        field = num.field
        if den is None:
            den = Poly(field, [1])
        if den.field != field:
            raise CtxMismatch("numerator and denominator over different fields")
        if den.is_zero:
            raise ZeroPolynomial("zero denominator")
        num, den = _reduce_fraction(num, den)
        self.field = field
        self.num = num
        self.den = den
        self._normal = True

    # lazy results normalize once their representation crosses this size, which
    # bounds degree growth through long operation chains at a few gcds
    _REDUCE_DEGREE = 48

    @classmethod
    def _raw(cls, num: Poly, den: Poly) -> "RatFn":
        self = object.__new__(cls)
        normal = False
        if den.degree > cls._REDUCE_DEGREE or num.degree > 4 * cls._REDUCE_DEGREE:
            num, den = _reduce_fraction(num, den)
            normal = True
        self.field = num.field
        self.num = num
        self.den = den
        self._normal = normal
        return self

    def reduced(self) -> "RatFn":
        """The normalized representative (gcd-reduced, monic denominator)."""
        if self._normal:
            return self
        num, den = _reduce_fraction(self.num, self.den)
        out = RatFn._raw(num, den)
        out._normal = True
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def gen(cls, field: Fq) -> "RatFn":
        """The coordinate function s."""
        return cls(Poly.x(field))

    @classmethod
    def const(cls, c: FqElem) -> "RatFn":
        return cls(Poly.constant(c))

    @classmethod
    def from_int(cls, field: Fq, n: int) -> "RatFn":
        return cls(Poly(field, [n]))

    # -- predicates -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other) -> "RatFn":
        if isinstance(other, RatFn):
            if other.field != self.field:
                raise CtxMismatch("rational functions over different fields")
            return other
        if isinstance(other, int):
            return RatFn.from_int(self.field, other)
        if isinstance(other, FqElem):
            return RatFn.const(self.field(other))
        if isinstance(other, Poly):
            return RatFn(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den is other.den or self.den == other.den:
            return RatFn._raw(self.num + other.num, self.den)
        return RatFn._raw(self.num * other.den + other.num * self.den,
                          self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den is other.den or self.den == other.den:
            return RatFn._raw(self.num - other.num, self.den)
        return RatFn._raw(self.num * other.den - other.num * self.den,
                          self.den * other.den)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        out = RatFn._raw(-self.num, self.den)
        out._normal = self._normal
        return out

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.num.is_zero or other.num.is_zero:
            return RatFn(Poly(self.field))
        return RatFn._raw(self.num * other.num, self.den * other.den)

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
        return RatFn._raw(self.den, self.num)

    def __pow__(self, n: int) -> "RatFn":
        if n < 0:
            return self.inverse() ** (-n)
        return RatFn._raw(self.num ** n, self.den ** n)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._normal and other._normal:
            return self.num == other.num and self.den == other.den
        return (self.num * other.den - other.num * self.den).is_zero

    def __hash__(self) -> int:
        r = self.reduced()
        return hash((r.num, r.den))

    # -- calculus -------------------------------------------------------------

    def derivative(self) -> "RatFn":
        num = self.num.derivative() * self.den - self.num * self.den.derivative()
        return RatFn._raw(num, self.den * self.den)

    def dlog(self) -> "OneForm":
        if self.is_zero:
            raise ZeroArgument("dlog of zero")
        return OneForm(self.derivative() / self)

    # -- point data -----------------------------------------------------------

    def evaluate(self, x: FqElem) -> FqElem:
        r = self.reduced()
        d = r.den.evaluate(x)
        if d.is_zero:
            raise DivisionByZero(f"pole at {x!r}")
        return r.num.evaluate(x) / d

    def ord_at(self, point) -> int:
        """Order of vanishing at a finite point (FqElem or monic irreducible Poly) or INF."""
        if self.is_zero:
            raise ZeroArgument("the zero function has no order")
        if point is INF:
            return self.den.degree - self.num.degree
        r = self.reduced()
        if isinstance(point, FqElem):
            point = Poly(point.field, [-point, 1])
        return multiplicity(r.num.embedded(point.field), point)[0] - \
            multiplicity(r.den.embedded(point.field), point)[0]

    def embedded(self, field: Fq) -> "RatFn":
        if field == self.field:
            return self
        r = self.reduced()
        return RatFn(r.num.embedded(field), r.den.embedded(field))

    def __repr__(self) -> str:
        if self.den.degree == 0:
            return f"({self.num})"
        return f"({self.num})/({self.den})"


def _reduce_fraction(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    field = num.field
    if num.is_zero:
        return num, Poly(field, [1])
    g = num.gcd(den)
    if g.degree > 0:
        num = num // g
        den = den // g
    den, lead = den.monic()
    if lead != field.one:
        num = num * lead.inverse()
    return num, den


class RatFnRing(ElementKernel):
    """Coefficient-ring handle for rational functions over a fixed F_q; each
    element is its own raw for :class:`~charp_dilog.tpoly.Trunc`."""

    __slots__ = ("field",)

    def __init__(self, field: Fq):
        self.field = field

    @property
    def characteristic(self) -> int:
        return self.field.p

    @property
    def zero(self) -> RatFn:
        return RatFn(Poly(self.field))

    @property
    def one(self) -> RatFn:
        return RatFn(Poly(self.field, [1]))

    @property
    def gen(self) -> RatFn:
        return RatFn.gen(self.field)

    def from_int(self, n: int) -> RatFn:
        return RatFn.from_int(self.field, n)

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
        if isinstance(x, int):
            return self.from_int(x)
        if isinstance(x, FqElem):
            return self.embed(x)
        raise TypeError(f"cannot coerce {x!r} into {self}")

    def random_element(self, rng, num_deg: int = 2, den_deg: int = 2) -> RatFn:
        num = Poly(self.field, [self.field.random_element(rng) for _ in range(num_deg + 1)])
        while True:
            den = Poly(self.field, [self.field.random_element(rng) for _ in range(den_deg + 1)])
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

    def __neg__(self) -> "OneForm":
        return OneForm(-self.fn)

    def scaled(self, c) -> "OneForm":
        return OneForm(self.fn * c)

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
    ...; other exponents below ``prec`` are zero, the rest unknown.  A sum keeps
    the lower precision; a product is one field product, known below
    min(val_a + prec_b, val_b + prec_a); an inverse keeps the relative precision
    once the valuation is among the known coefficients (else
    :class:`InsufficientPrecision`); d/ds loses one.  Constants are exact
    (``prec`` infinite); only ``(inf, inf, ())`` is zero.
    """

    field: Fq
    center: object

    characteristic = property(lambda self: self.field.p)
    zero = property(lambda self: LaurentLocal(self, _ZERO))
    one = property(lambda self: self.from_int(1))

    def from_int(self, n: int) -> "LaurentLocal":
        return LaurentLocal(self, self._raw_from_int(n))

    def _raw_of(self, x):
        """A germ of this ring, or an int or field element as a constant."""
        if isinstance(x, LaurentLocal):
            if x.ring is not self and x.ring != self:
                raise CtxMismatch(f"germ of {x.ring} used in {self}")
            return x.raw
        return self._constant(self.field._raw_of(x))

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

    def _raw_mul(self, a, b):
        if a[0] == math.inf or b[0] == math.inf:
            return _ZERO
        (va, na, ca), (vb, nb, cb) = a, b
        prec = min(va + nb, vb + na)
        size = min(prec - va - vb, len(ca) + len(cb) - 1)
        out = self.field._raw_mul_low(ca, cb, size) if size > 0 else ()
        return va + vb, prec, tuple(out)

    def _raw_dot(self, xs: Sequence, ys: Sequence):
        return functools.reduce(self._raw_add, map(self._raw_mul, xs, ys))

    _raw_mul_low = schoolbook

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
        return -val, prec - 2 * val, tuple(_series_inverse(self.field, unit))


_ZERO = (math.inf, math.inf, ())


def _germ_op(kernel: str):
    """A binary operator of germs through the ring kernel; ints and field
    elements are constants, and anything else raises."""
    def op(self, other):
        raw = getattr(self.ring, kernel)(self.raw, self.ring._raw_of(other))
        return LaurentLocal(self.ring, raw)
    return op


class LaurentLocal:
    """A Laurent germ at a point, an element of a :class:`LaurentRing` (whose
    docstring gives the raw and the precision rules).  ``coeff(e)`` is zero
    below ``val`` and raises :class:`InsufficientPrecision` from ``prec`` on;
    from :func:`expand_at`, ``val`` is the exact valuation."""

    __slots__ = ("ring", "raw")

    def __init__(self, ring: LaurentRing, raw):
        self.ring = ring
        self.raw = raw

    field = property(lambda self: self.ring.field)
    val = property(lambda self: self.raw[0])
    prec = property(lambda self: self.raw[1])
    coeffs = property(lambda self: self.field._wrap(self.raw[2]))
    is_zero = property(lambda self: self.raw[0] == math.inf)

    def coeff(self, e: int) -> FqElem:
        val, prec, c = self.raw
        if e >= prec:
            raise InsufficientPrecision(f"coefficient {e} beyond precision {prec}")
        return FqElem(self.field, c[e - val]) if 0 <= e - val < len(c) else self.field.zero

    __add__ = __radd__ = _germ_op("_raw_add")
    __sub__ = _germ_op("_raw_sub")
    __mul__ = __rmul__ = _germ_op("_raw_mul")

    def __neg__(self):
        return LaurentLocal(self.ring, self.ring._raw_neg(self.raw))

    def inverse(self) -> "LaurentLocal":
        return LaurentLocal(self.ring, self.ring._raw_inv(self.raw))

    def __truediv__(self, other):
        return self * LaurentLocal(self.ring, self.ring._raw_of(other)).inverse()

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
        """Equal raws: a germ known to finite precision equals no exact germ."""
        if not isinstance(other, LaurentLocal):
            return NotImplemented
        return self.ring == other.ring and self.raw == other.raw


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
    # the quotient of the two windows, on raw coefficients: numerator times
    # the series inverse of the denominator, mod (local parameter)^n_terms
    b = list(den.coeffs[vd:vd + n_terms])
    b += [field._raw_from_int(0)] * (n_terms - len(b))
    inv = _series_inverse(field, b)
    out = field._raw_mul_low(list(num.coeffs[vn:vn + n_terms]), inv, n_terms)
    return LaurentLocal(ring, (val, order + 1, tuple(out)))


def _trailing_zeros(f: Poly) -> int:
    for i in range(f.degree + 1):
        if not f.coeff(i).is_zero:
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
    root_pow = field.order // p
    out = []
    for k in range((big.degree - (p - 1)) // p + 1):
        out.append(big.coeff(p * k + p - 1) ** root_pow)
    return OneForm(RatFn(Poly(field, out), f.den))


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
