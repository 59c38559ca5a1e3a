"""Rational functions F_q(s), local Laurent expansions, 1-forms and residues.

The coefficient world for the comparison 1-form: every identity checked in
this package is algebraic, so the computable subfield of rational functions
stands in for the Laurent-series field, with :class:`LaurentLocal` as the
expansion backend.  Expansions are exact through a tracked exponent bound and
are re-derived from the rational source whenever more precision is needed, so
residues only ever read provably exact coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf import (CtxMismatch, DivisionByZero, Fq, FqElem, Poly, ZeroPolynomial, multiplicity,
                 residue_field)
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
    """A Kaehler differential f * ds on the s-line."""

    fn: RatFn

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


@dataclass(frozen=True)
class LaurentLocal:
    """A finite stretch of a Laurent expansion with a tracked precision bound.

    Coefficients cover exponents ``val`` .. ``val + len(coeffs) - 1`` and are
    exact; exponents below ``val`` are exactly zero; exponents at or beyond
    ``prec`` are unknown and raise :class:`InsufficientPrecision`.
    """

    field: Fq
    center: object
    val: int
    coeffs: tuple
    prec: int

    def coeff(self, e: int) -> FqElem:
        if e >= self.prec:
            raise InsufficientPrecision(f"coefficient {e} beyond precision {self.prec}")
        if e < self.val:
            return self.field.zero
        i = e - self.val
        if i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero


def expand_at(f: RatFn, center, order: int) -> LaurentLocal:
    """Laurent-expand f in the local parameter at ``center``, exactly through ``order``.

    The local parameter is s - center at a finite point and 1/s at INF.
    ``center`` may lie in an extension of f's coefficient field; the expansion
    is then computed over that extension.
    """
    if f.is_zero:
        raise ZeroArgument("expanding the zero function")
    if center is INF:
        num, den = f.num.reversed(), f.den.reversed()
        shift = f.den.degree - f.num.degree
        field = f.field
    else:
        field = center.field
        num = f.num.embedded(field).shifted(center)
        den = f.den.embedded(field).shifted(center)
        shift = 0
    vn = _trailing_zeros(num)
    vd = _trailing_zeros(den)
    val = vn - vd + shift
    n_terms = order - val + 1
    if n_terms <= 0:
        return LaurentLocal(field, center, val, (), order + 1)
    # the quotient of the two windows, on raw coefficients: numerator times
    # the series inverse of the denominator, mod (local parameter)^n_terms
    b = list(den.coeffs[vd:vd + n_terms])
    b += [field._raw_from_int(0)] * (n_terms - len(b))
    inv = _series_inverse(field, b)
    out = field._raw_mul_low(list(num.coeffs[vn:vn + n_terms]), inv, n_terms)
    return LaurentLocal(field, center, val, field._wrap(out), order + 1)


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
    u = 1/s and ds = -u^{-2} du).
    """
    f = omega.fn
    if point is INF:
        if f.is_zero:
            return f.field.zero
        target = f.num.degree - f.den.degree + 1
        if target < 0:
            return f.field.zero
        g = RatFn(f.num.reversed(), f.den.reversed())
        exp = expand_at(g, f.field.zero, target)
        return -exp.coeff(target)
    if isinstance(point, Poly):
        theta = residue_field(point)[1]
    elif isinstance(point, FqElem):
        theta = point
    else:
        raise TypeError(f"not a point: {point!r}")
    if f.is_zero:
        return theta.field.zero
    return expand_at(f, theta, -1).coeff(-1)
