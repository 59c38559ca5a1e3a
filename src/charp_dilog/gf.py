"""Exact arithmetic in F_p (p >= 5) and small extensions F_q = F_p[u]/(m(u)).

Fields are value-like handles; elements carry their field and refuse to mix
with elements of another field.  Extensions are built as towers over an
arbitrary base field, which keeps relative traces and residue-field
constructions straightforward.  Raw element data is an int for a prime field
and a tuple of base-field raws for an extension; :class:`FqElem` is a thin
wrapper over that data.

Polynomial multiplication, division and gcd over a prime field (``base is
None``) run on plain int lists: one lead inverse per division, one ``% p``
per coefficient update, and Kronecker substitution for long products.

An extension of a prime field keeps its raws as int tuples: element products
are int schoolbook products reduced by the modulus with one ``% p`` per
coefficient, and polynomial products map to one prime-field product by
Kronecker substitution.  Deeper towers recurse through the base field.

Beyond those int kernels, each operation has one generic routine for every
field and ring: :func:`power` (square-and-multiply for any product),
:func:`schoolbook` (the low coefficients of a product over any ``_raw_*``
kernel), :func:`multiplicity` (how often one polynomial divides another) and
:func:`trace_to` (the trace down a tower of fields).
"""

from __future__ import annotations

import itertools
import operator
import sys
from array import array
from typing import Iterator, Sequence


class GFError(Exception):
    """Base class for finite-field arithmetic errors."""


class BadPrime(GFError):
    """The characteristic must be a prime >= 5."""


class CtxMismatch(GFError):
    """Operands belong to different field contexts."""


class DivisionByZero(GFError):
    """Division by, or inversion of, zero."""


class ZeroPolynomial(GFError):
    """Operation undefined for the zero polynomial."""


class NotInSubfield(GFError):
    """A trace, which must be Galois-fixed, left the subfield it belongs to."""


# Miller-Rabin with these bases is exact below the bound (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n < _MR_EXACT_BELOW:
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        for a in _MR_BASES:
            x = pow(a, d, n)
            if x == 1 or x == n - 1:
                continue
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        return True
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Fq:
    """A finite field: F_p when ``base`` is None, else ``base[u]/(modulus)``.

    ``modulus`` is a monic irreducible polynomial over the base field, given
    as a coefficient sequence (constant term first, leading 1 last).  Fields
    compare by value, so two independently constructed copies of the same
    field are interchangeable.
    """

    __slots__ = ("p", "base", "modulus", "degree", "degree_abs", "order", "_zero", "_one")

    def __init__(self, p: int, modulus: Sequence | None = None, base: "Fq | None" = None):
        if base is None:
            if not is_prime(p) or p < 5:
                raise BadPrime(f"p = {p} is not a prime >= 5")
            self.p = p
            self.base = None
            if modulus is not None:
                raise ValueError("a prime field takes no modulus")
            self.modulus = None
            self.degree = 1
            self.degree_abs = 1
            self.order = p
        else:
            if p != base.p:
                raise CtxMismatch("extension characteristic differs from base")
            if modulus is None:
                raise ValueError("an extension field needs a modulus")
            raw = tuple(base(c).raw for c in modulus)
            if len(raw) < 3:
                raise ValueError("extension modulus must have degree >= 2")
            if raw[-1] != base.one.raw:
                raise ValueError("extension modulus must be monic")
            self.p = p
            self.base = base
            self.modulus = raw
            self.degree = len(raw) - 1
            self.degree_abs = self.degree * base.degree_abs
            self.order = base.order ** self.degree
            if not _modulus_is_irreducible(base, raw):
                raise ValueError("extension modulus is not irreducible")
        self._zero = FqElem(self, self._raw_from_int(0))
        self._one = FqElem(self, self._raw_from_int(1))

    # -- ring-handle protocol used by tpoly.Trunc -------------------------

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def zero(self) -> "FqElem":
        return self._zero

    @property
    def one(self) -> "FqElem":
        return self._one

    def from_int(self, n: int) -> "FqElem":
        return FqElem(self, self._raw_from_int(n))

    # tpoly.Trunc stores the raws of its coefficients and computes with the
    # ``_raw_*`` kernel; ``_raw_of`` unwraps an element (or an int) once, and
    # ``_wrap`` turns raws back into elements at the API boundary.

    def _raw_of(self, x):
        return self(x).raw

    def _raw_mul_low(self, a: list, b: list, n: int) -> list:
        """The low n coefficients of the product of two raw coefficient lists."""
        return _rmul(self, a, b, n)

    def _wrap(self, raws) -> tuple["FqElem", ...]:
        return tuple([FqElem(self, r) for r in raws])

    # -- construction and coercion ----------------------------------------

    def __call__(self, x) -> "FqElem":
        if isinstance(x, FqElem):
            if x.field != self:
                raise CtxMismatch(f"element of {x.field} used in {self}")
            return x
        if isinstance(x, int):
            return self.from_int(x)
        if self.base is not None and isinstance(x, (tuple, list)):
            return self.from_coeffs(x)
        raise TypeError(f"cannot coerce {x!r} into {self}")

    def from_coeffs(self, coeffs: Sequence) -> "FqElem":
        """Build an extension element from base-field coefficients (low first)."""
        if self.base is None:
            raise ValueError("prime-field elements are built from ints")
        raws = [self.base(c).raw for c in coeffs]
        if len(raws) > self.degree:
            raise ValueError("too many coefficients")
        raws += [self.base._raw_from_int(0)] * (self.degree - len(raws))
        return FqElem(self, tuple(raws))

    def gen(self) -> "FqElem":
        """The residue class of u in base[u]/(m(u))."""
        if self.base is None:
            raise ValueError("a prime field has no extension generator")
        return self.from_coeffs([0, 1])

    def embed(self, x: "FqElem") -> "FqElem":
        """Embed a base-field element (or an element of self) into self."""
        if x.field == self:
            return x
        if self.base is None or x.field != self.base:
            raise CtxMismatch(f"cannot embed element of {x.field} into {self}")
        return self.from_coeffs([x])

    def elements(self) -> Iterator["FqElem"]:
        """Iterate over every element of the field (small fields only)."""
        if self.base is None:
            for n in range(self.p):
                yield FqElem(self, n)
        else:
            for combo in itertools.product([e.raw for e in self.base.elements()],
                                           repeat=self.degree):
                yield FqElem(self, combo)

    def random_element(self, rng) -> "FqElem":
        if self.base is None:
            return FqElem(self, rng.randrange(self.p))
        return FqElem(self, tuple(self.base.random_element(rng).raw
                                  for _ in range(self.degree)))

    # -- raw kernel --------------------------------------------------------

    def _raw_from_int(self, n: int):
        if self.base is None:
            return n % self.p
        zero = self.base._raw_from_int(0)
        return (self.base._raw_from_int(n),) + (zero,) * (self.degree - 1)

    def _raw_add(self, a, b):
        base = self.base
        if base is None:
            return (a + b) % self.p
        if base.base is None:
            p = self.p
            return tuple([(x + y) % p for x, y in zip(a, b)])
        return tuple([base._raw_add(x, y) for x, y in zip(a, b)])

    def _raw_sub(self, a, b):
        base = self.base
        if base is None:
            return (a - b) % self.p
        if base.base is None:
            p = self.p
            return tuple([(x - y) % p for x, y in zip(a, b)])
        return tuple([base._raw_sub(x, y) for x, y in zip(a, b)])

    def _raw_neg(self, a):
        base = self.base
        if base is None:
            return (-a) % self.p
        if base.base is None:
            p = self.p
            return tuple([(-x) % p for x in a])
        return tuple([base._raw_neg(x) for x in a])

    def _raw_mul(self, a, b):
        base = self.base
        if base is None:
            return (a * b) % self.p
        if base.base is None:
            return self._raw_dot((a,), (b,))
        return _tower_mul(self, a, b)

    def _raw_dot(self, xs: Sequence, ys: Sequence):
        """The sum of the products of paired raws, reduced once at the end.

        Over an extension of a prime field the products are int schoolbook
        products in u, summed before one reduction by the modulus."""
        base = self.base
        if base is None:
            return sum(map(operator.mul, xs, ys)) % self.p
        if base.base is None:
            d = self.degree
            acc = [0] * (2 * d - 1)
            for x, y in zip(xs, ys):
                for i, xi in enumerate(x):
                    if xi:
                        acc[i:i + d] = [s + xi * yj for s, yj in zip(acc[i:i + d], y)]
            return self._reduce_ints(acc)
        acc = self._raw_from_int(0)
        for x, y in zip(xs, ys):
            acc = self._raw_add(acc, self._raw_mul(x, y))
        return acc

    def _reduce_ints(self, acc: list) -> tuple:
        """Reduce 2d - 1 int coefficients in u by the monic modulus, with one
        ``% p`` per output coefficient (extensions of a prime field only)."""
        d, mod = self.degree, self.modulus
        for k in range(2 * d - 2, d - 1, -1):
            top = acc[k]
            if top:
                acc[k - d:k] = [s - top * c for s, c in zip(acc[k - d:k], mod)]
        p = self.p
        return tuple([c % p for c in acc[:d]])

    def _raw_is_zero(self, a) -> bool:
        base = self.base
        if base is None:
            return a == 0
        if base.base is None:
            return not any(a)
        return all(base._raw_is_zero(x) for x in a)

    def _raw_inv(self, a):
        if self._raw_is_zero(a):
            raise DivisionByZero(f"inverting zero in {self}")
        if self.base is None:
            return pow(a, self.p - 2, self.p)
        # extended Euclid for a against the modulus, over the base field
        base = self.base
        zero, one = base._raw_from_int(0), base._raw_from_int(1)
        r0, r1 = list(self.modulus), _rtrim(base, list(a))
        s0, s1 = [zero], [one]
        while len(r1) > 1:
            q, r = _rdivmod(base, r0, r1)
            r0, r1 = r1, _rtrim(base, r)
            s0, s1 = s1, _rtrim(base, _rsub(base, s0, _rmul(base, q, s1)))
        lead_inv = base._raw_inv(r1[0])
        inv = [base._raw_mul(lead_inv, c) for c in s1]
        inv += [zero] * (self.degree - len(inv))
        return tuple(inv[: self.degree])

    def _raw_pow(self, a, n: int):
        if n < 0:
            return self._raw_pow(self._raw_inv(a), -n)
        if self.base is None:
            return pow(a, n, self.p)
        return power(a, n, self._raw_from_int(1), self._raw_mul)

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Fq):
            return NotImplemented
        return (self.p == other.p and self.modulus == other.modulus
                and self.base == other.base)

    def __hash__(self) -> int:
        return hash((self.p, self.modulus, None if self.base is None else hash(self.base)))

    def __repr__(self) -> str:
        if self.base is None:
            return f"F_{self.p}"
        return f"{self.base}[u]/{_modulus_str(self)}"


def _tower_mul(field: Fq, a: tuple, b: tuple) -> tuple:
    """Extension-field product through the base field's raw kernel: schoolbook,
    then reduction by the monic modulus.  Any base works; ``Fq._raw_mul`` uses
    it when the base is itself an extension, and the tests compare the int
    path against it."""
    base, d = field.base, field.degree
    rem = _rdivmod(base, schoolbook(base, a, b, 2 * d - 1), field.modulus)[1][:d]
    return tuple(rem + [base._raw_from_int(0)] * (d - len(rem)))


def power(x, n: int, one, mul):
    """x^n for n >= 0 by square-and-multiply with the product ``mul``; ``one``
    is returned for n = 0 and is never multiplied, and nothing is squared
    after the top bit of n, so n >= 1 costs bitlen(n) + popcount(n) - 2
    products."""
    result = one if n == 0 else None
    while n:
        if n & 1:
            result = x if result is None else mul(result, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return result


def schoolbook(ring, a: Sequence, b: Sequence, n: int) -> list:
    """The low n coefficients of the product of two raw coefficient lists over
    any ``_raw_*`` kernel; zero operands on either side are skipped and the
    partial products are added in index order."""
    is_zero, add, mul = ring._raw_is_zero, ring._raw_add, ring._raw_mul
    out = [ring._raw_from_int(0)] * n
    for i, x in enumerate(a[:n]):
        if is_zero(x):
            continue
        for j, y in enumerate(b[:n - i]):
            if not is_zero(y):
                out[i + j] = add(out[i + j], mul(x, y))
    return out


def _modulus_str(field: Fq) -> str:
    terms = []
    for i, c in enumerate(field.modulus):
        if field.base._raw_is_zero(c):
            continue
        terms.append(f"{c}*u^{i}" if i else f"{c}")
    return "(" + "+".join(terms) + ")"


# raw polynomial helpers over a field (dense low-first lists of raws),
# used by the extension-field kernel before Poly exists

def _rtrim(field: Fq, c: list) -> list:
    while c and field._raw_is_zero(c[-1]):
        c.pop()
    return c or [field._raw_from_int(0)]


def _radd(field: Fq, a: Sequence, b: Sequence) -> list:
    if field.base is None:
        p = field.p
        return [(x + y) % p for x, y in itertools.zip_longest(a, b, fillvalue=0)]
    add = field._raw_add
    zero = field._raw_from_int(0)
    return [add(x, y) for x, y in itertools.zip_longest(a, b, fillvalue=zero)]


def _rsub(field: Fq, a: Sequence, b: Sequence) -> list:
    if field.base is None:
        p = field.p
        return [(x - y) % p for x, y in itertools.zip_longest(a, b, fillvalue=0)]
    sub = field._raw_sub
    zero = field._raw_from_int(0)
    return [sub(x, y) for x, y in itertools.zip_longest(a, b, fillvalue=zero)]


# (limb bytes, array typecode) for unsigned limbs of 16, 32 and 64 bits
_LIMBS = tuple((array(code).itemsize, code) for code in "HIQ")


def _rmul_packed(a: list, b: list, p: int) -> list:
    """Prime-field polynomial product by Kronecker substitution.

    A product coefficient is a sum of at most min(len a, len b) terms below
    (p-1)^2, so limbs of 2*bitlen(p-1) + bitlen(min(len a, len b)) bits hold
    it without carry.  Limbs of up to 64 bits pack and unpack through
    ``array``; wider ones through byte slices.
    """
    n = len(a) + len(b) - 1
    bits = 2 * (p - 1).bit_length() + min(len(a), len(b)).bit_length()
    width = (bits + 7) // 8
    for size, code in _LIMBS:
        if width <= size:
            abuf, bbuf = array(code, a), array(code, b)
            if sys.byteorder == "big":
                abuf.byteswap()
                bbuf.byteswap()
            prod = int.from_bytes(abuf, "little") * int.from_bytes(bbuf, "little")
            out = array(code, prod.to_bytes(size * n, "little"))
            if sys.byteorder == "big":
                out.byteswap()
            return [c % p for c in out]
    abuf = b"".join(c.to_bytes(width, "little") for c in a)
    bbuf = b"".join(c.to_bytes(width, "little") for c in b)
    prod = int.from_bytes(abuf, "little") * int.from_bytes(bbuf, "little")
    raw = prod.to_bytes(width * n, "little")
    return [int.from_bytes(raw[width * i: width * i + width], "little") % p for i in range(n)]


def _rmul(field: Fq, a: list, b: list, n: int | None = None) -> list:
    """The product of two nonempty raw coefficient lists; with ``n``, only its
    low n coefficients, zero-padded to length n (the inputs may then carry
    trailing zeros)."""
    if n is None:
        size = len(a) + len(b) - 1
    else:
        a, b, size = _rtrim(field, list(a[:n])), _rtrim(field, list(b[:n])), n
    base = field.base
    if base is None:
        p = field.p
        if len(a) + len(b) > 16:
            out = _rmul_packed(a, b, p)
            return out if n is None else out[:n] + [0] * (n - len(out))
        acc = [0] * size
        nb = len(b)
        for i, x in enumerate(a):
            if x:
                acc[i:i + nb] = [s + x * y for s, y in zip(acc[i:i + nb], b)]
        return [c % p for c in acc]
    if base.base is None:
        # Kronecker substitution u -> X, x -> X^w: a product of u-degree at
        # most 2d - 2 < w, so block k of the F_p product is coefficient k
        w = 2 * field.degree - 1
        pad = (0,) * (field.degree - 1)
        flat = _rmul(base, [c for x in a for c in x + pad], [c for y in b for c in y + pad],
                     size * w)
        return [field._reduce_ints(flat[k * w:k * w + w]) for k in range(size)]
    return schoolbook(field, a, b, size)


def _prime_reduce(rem: list, b: list, p: int, quot: list | None = None) -> list:
    """Reduce ``rem`` modulo ``b`` over F_p in place and return the trimmed remainder.

    ``b`` has a nonzero lead.  When ``quot`` is given, quotient coefficient
    k is stored in ``quot[k]``.
    """
    db = len(b) - 1
    lead_inv = pow(b[-1], -1, p)
    low = b[:-1]
    for k in range(len(rem) - 1 - db, -1, -1):
        c = rem[k + db] * lead_inv % p
        if c:
            if quot is not None:
                quot[k] = c
            rem[k:k + db] = [(r - c * y) % p for r, y in zip(rem[k:k + db], low)]
    del rem[db:]
    while rem and not rem[-1]:
        rem.pop()
    return rem


def _rdivmod(field: Fq, a: list, b: list) -> tuple[list, list]:
    zero = field._raw_from_int(0)
    b = list(b)
    while len(b) > 1 and field._raw_is_zero(b[-1]):
        b.pop()
    if field._raw_is_zero(b[-1]):
        raise DivisionByZero(f"inverting zero in {field}")
    rem = list(a)
    if len(rem) < len(b):
        return [zero], rem
    quot = [zero] * (len(rem) - len(b) + 1)
    if field.base is None:
        return quot, _prime_reduce(rem, b, field.p, quot)
    lead_inv = field._raw_inv(b[-1])
    for k in range(len(rem) - len(b), -1, -1):
        c = field._raw_mul(rem[k + len(b) - 1], lead_inv)
        if field._raw_is_zero(c):
            continue
        quot[k] = c
        for j, y in enumerate(b):
            rem[k + j] = field._raw_sub(rem[k + j], field._raw_mul(c, y))
    return quot, rem


def _modulus_is_irreducible(base: Fq, modulus: tuple) -> bool:
    poly = Poly(base, [FqElem(base, c) for c in modulus])
    return is_irreducible(poly)


class FqElem:
    """An element of an :class:`Fq`, carrying its field by value."""

    __slots__ = ("field", "raw")

    def __init__(self, field: Fq, raw):
        self.field = field
        self.raw = raw

    @property
    def is_zero(self) -> bool:
        return self.field._raw_is_zero(self.raw)

    def coeffs(self) -> tuple["FqElem", ...]:
        """Coefficients over the base field (extension elements only)."""
        if self.field.base is None:
            raise ValueError("a prime-field element has no base coefficients")
        return tuple(FqElem(self.field.base, c) for c in self.raw)

    def lift_int(self) -> int:
        """The canonical integer representative (prime-field elements only)."""
        if self.field.base is not None:
            raise ValueError("only prime-field elements lift to ints")
        return self.raw

    def _coerce(self, other) -> "FqElem":
        if isinstance(other, FqElem):
            if other.field != self.field:
                raise CtxMismatch(f"mixing {self.field} and {other.field}")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FqElem(self.field, self.field._raw_add(self.raw, other.raw))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FqElem(self.field, self.field._raw_sub(self.raw, other.raw))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FqElem(self.field, self.field._raw_sub(other.raw, self.raw))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FqElem(self.field, self.field._raw_mul(self.raw, other.raw))

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

    def __neg__(self):
        return FqElem(self.field, self.field._raw_neg(self.raw))

    def __pow__(self, n: int):
        return FqElem(self.field, self.field._raw_pow(self.raw, n))

    def inverse(self) -> "FqElem":
        return FqElem(self.field, self.field._raw_inv(self.raw))

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.field.from_int(other)
        if not isinstance(other, FqElem):
            return NotImplemented
        return self.field == other.field and self.raw == other.raw

    def __hash__(self) -> int:
        return hash((self.field, self.raw))

    def __repr__(self) -> str:
        return str(self.raw)


def frobenius(x: FqElem, power: int = 1) -> FqElem:
    """The absolute Frobenius x -> x^(p^power)."""
    return x ** (x.field.p ** power)


def trace_to(x: FqElem, field: Fq) -> FqElem:
    """The trace of x down its tower to ``field``, as iterated relative
    traces; x itself when it already lies in ``field``."""
    while x.field != field:
        if x.field.base is None:
            raise CtxMismatch(f"{field} is not a subfield below {x.field}")
        x = trace_to_base(x)
    return x


def trace_to_prime(x: FqElem) -> FqElem:
    """Absolute trace to F_p, as iterated relative traces down the tower."""
    while x.field.base is not None:
        x = trace_to_base(x)
    return x


def trace_to_base(x: FqElem) -> FqElem:
    """Relative trace of an extension element down to its base field."""
    field = x.field
    if field.base is None:
        raise ValueError("a prime-field element has no base field")
    acc = x
    y = x
    for _ in range(field.degree - 1):
        y = frobenius(y, field.base.degree_abs)
        acc = acc + y
    if not all(field.base._raw_is_zero(c) for c in acc.raw[1:]):
        raise NotInSubfield(f"trace of {x} in {field} is not in {field.base}")
    return FqElem(field.base, acc.raw[0])


class Poly:
    """A dense univariate polynomial over an :class:`Fq` (low coefficients first)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Fq, coeffs=()):
        raws = [field(c).raw for c in coeffs]
        while raws and field._raw_is_zero(raws[-1]):
            raws.pop()
        self.field = field
        self.coeffs = tuple(raws)

    @classmethod
    def _from_raw(cls, field: Fq, raws: list) -> "Poly":
        self = object.__new__(cls)
        while raws and field._raw_is_zero(raws[-1]):
            raws.pop()
        self.field = field
        self.coeffs = tuple(raws)
        return self

    @classmethod
    def x(cls, field: Fq) -> "Poly":
        return cls(field, [0, 1])

    @classmethod
    def constant(cls, c: FqElem) -> "Poly":
        return cls(c.field, [c])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> FqElem:
        if 0 <= i < len(self.coeffs):
            return FqElem(self.field, self.coeffs[i])
        return self.field.zero

    def leading(self) -> FqElem:
        if self.is_zero:
            raise ZeroPolynomial("the zero polynomial has no leading coefficient")
        return FqElem(self.field, self.coeffs[-1])

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one.raw

    def _check(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.field != self.field:
                raise CtxMismatch("polynomials over different fields")
            return other
        if isinstance(other, (int, FqElem)):
            return Poly(self.field, [other])
        return NotImplemented

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return Poly._from_raw(self.field, _radd(self.field, self.coeffs, other.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return Poly._from_raw(self.field, _rsub(self.field, self.coeffs, other.coeffs))

    def __rsub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        f = self.field
        if f.base is None:
            p = f.p
            return Poly._from_raw(f, [p - c if c else 0 for c in self.coeffs])
        return Poly._from_raw(f, [f._raw_neg(c) for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, FqElem)):
            c = self.field(other)
            f = self.field
            return Poly._from_raw(f, [f._raw_mul(c.raw, x) for x in self.coeffs])
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        f = self.field
        if self.is_zero or other.is_zero:
            return Poly(f)
        return Poly._from_raw(f, _rmul(f, list(self.coeffs), list(other.coeffs)))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return power(self, n, Poly(self.field, [1]), operator.mul)

    def __divmod__(self, other) -> tuple["Poly", "Poly"]:
        other = self._check(other)
        if other.is_zero:
            raise ZeroPolynomial("division by the zero polynomial")
        f = self.field
        q, r = _rdivmod(f, list(self.coeffs) or [f._raw_from_int(0)], list(other.coeffs))
        return Poly._from_raw(f, q), Poly._from_raw(f, r)

    def __floordiv__(self, other) -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "Poly":
        return divmod(self, other)[1]

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, FqElem)):
            other = Poly(self.field, [other])
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def monic(self) -> tuple["Poly", FqElem]:
        """Return (self / lead, lead)."""
        lead = self.leading()
        if lead == self.field.one:
            return self, lead
        inv = lead.inverse()
        f = self.field
        return Poly._from_raw(f, [f._raw_mul(inv.raw, c) for c in self.coeffs]), lead

    def derivative(self) -> "Poly":
        f = self.field
        if len(self.coeffs) <= 1:
            return Poly(f)
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(f._raw_mul(f._raw_from_int(i), self.coeffs[i]))
        return Poly._from_raw(f, out)

    def evaluate(self, x: FqElem) -> FqElem:
        f = x.field
        acc = f._raw_from_int(0)
        if self.field != f:
            if f.base != self.field:
                raise CtxMismatch("evaluation point in an unrelated field")
            coeffs = [f.embed(FqElem(self.field, c)).raw for c in self.coeffs]
        else:
            coeffs = list(self.coeffs)
        for c in reversed(coeffs):
            acc = f._raw_add(f._raw_mul(acc, x.raw), c)
        return FqElem(f, acc)

    def shifted(self, theta: FqElem) -> "Poly":
        """The composition self(x + theta), over theta's field: a Taylor shift
        on raw coefficients, a_j += theta a_{j+1} for j = d-1..i, i = 0..d-1."""
        f = theta.field
        g = self.embedded(f)
        if f._raw_is_zero(theta.raw):
            return g
        c, t = list(g.coeffs), theta.raw
        add, mul = f._raw_add, f._raw_mul
        for i in range(len(c) - 1):
            for j in range(len(c) - 2, i - 1, -1):
                c[j] = add(c[j], mul(t, c[j + 1]))
        return Poly._from_raw(f, c)

    def reversed(self) -> "Poly":
        """Coefficients reversed: x^deg * self(1/x)."""
        return Poly._from_raw(self.field, list(reversed(self.coeffs)))

    def embedded(self, field: Fq) -> "Poly":
        """The same polynomial with coefficients pushed into an extension."""
        if field == self.field:
            return self
        return Poly(field, [field.embed(FqElem(self.field, c)) for c in self.coeffs])

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, self._check(other)
        f = self.field
        if f.base is None:
            p = f.p
            ra, rb = list(a.coeffs), list(b.coeffs)
            while rb:
                ra, rb = rb, _prime_reduce(ra, rb, p)
            if ra:
                lead_inv = pow(ra[-1], -1, p)
                ra = [c * lead_inv % p for c in ra]
            return Poly._from_raw(f, ra)
        while not b.is_zero:
            a, b = b, a % b
        if a.is_zero:
            return a
        return a.monic()[0]

    def xgcd(self, other: "Poly") -> tuple["Poly", "Poly", "Poly"]:
        """Return (g, s, t) with g = gcd monic and s*self + t*other = g."""
        f = self.field
        a, b = self, self._check(other)
        s0, s1 = Poly(f, [1]), Poly(f)
        t0, t1 = Poly(f), Poly(f, [1])
        while not b.is_zero:
            q, r = divmod(a, b)
            a, b = b, r
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        if a.is_zero:
            return a, s0, t0
        monic, lead = a.monic()
        inv = lead.inverse()
        return monic, s0 * inv, t0 * inv

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if self.field._raw_is_zero(c):
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{i}")
        return " + ".join(terms)


def poly_powmod(base: Poly, n: int, mod: Poly) -> Poly:
    return power(base % mod, n, Poly(base.field, [1]), lambda a, b: a * b % mod)


def is_irreducible(f: Poly) -> bool:
    """Rabin irreducibility test over F_q."""
    d = f.degree
    if d <= 0:
        return False
    if d == 1:
        return True
    q = f.field.order
    x = Poly.x(f.field)
    xq = poly_powmod(x, q ** d, f)
    if xq != x % f:
        return False
    for r in _prime_divisors(d):
        h = poly_powmod(x, q ** (d // r), f) - x
        if f.gcd(h).degree != 0:
            return False
    return True


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _pth_root_poly(f: Poly) -> Poly:
    """The p-th root of a polynomial with zero derivative (so f = g(x^p))."""
    field = f.field
    p = field.p
    root_pow = field.order // p  # c -> c^(q/p) is the inverse of Frobenius
    out = []
    for i in range(0, f.degree + 1, p):
        out.append(f.coeff(i) ** root_pow)
    return Poly(field, out)


def _distinct_degree(f: Poly) -> list[tuple[Poly, int]]:
    """Split a squarefree monic f into products of irreducibles of one degree."""
    field = f.field
    q = field.order
    out = []
    x = Poly.x(field)
    h = x
    d = 0
    while f.degree > 0 and f.degree >= 2 * (d + 1):
        d += 1
        h = poly_powmod(h, q, f)
        g = f.gcd(h - x)
        if g.degree > 0:
            out.append((g, d))
            f = f // g
            h = h % f
    if f.degree > 0:
        out.append((f, f.degree))
    return out


def _equal_degree(f: Poly, d: int, rng) -> list[Poly]:
    """Cantor-Zassenhaus splitting of a product of degree-d irreducibles (q odd)."""
    if f.degree == d:
        return [f]
    field = f.field
    exponent = (field.order ** d - 1) // 2
    while True:
        a = Poly(field, [field.random_element(rng) for _ in range(f.degree)])
        if a.degree < 1:
            continue
        g = f.gcd(a)
        if 0 < g.degree < f.degree:
            break
        b = poly_powmod(a, exponent, f) - 1
        g = f.gcd(b)
        if 0 < g.degree < f.degree:
            break
    return _equal_degree(g, d, rng) + _equal_degree(f // g, d, rng)


def factor_squarefree_irreducibles(f: Poly, seed: int = 0) -> list[tuple[Poly, int]]:
    """Factor f into monic irreducibles with multiplicities.

    The product of the factors times f's leading coefficient equals f.  The
    equal-degree stage draws its splitting polynomials from a generator
    seeded by ``seed``, so runs are reproducible.
    """
    import random as _random

    if f.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    rng = _random.Random(("edf", seed, f.field.order, f.coeffs).__repr__())
    factors: dict[Poly, int] = {}
    _factor_monic(f.monic()[0], factors, rng)
    def key(g: Poly):
        return (g.degree, [_raw_key(g.field, c) for c in g.coeffs])
    return sorted(factors.items(), key=lambda it: key(it[0]))


def _raw_key(field: Fq, raw):
    if field.base is None:
        return raw
    return tuple(_raw_key(field.base, c) for c in raw)


def _factor_monic(f: Poly, out: dict[Poly, int], rng, mult: int = 1) -> None:
    if f.degree <= 0:
        return
    fp = f.derivative()
    if fp.is_zero:
        _factor_monic(_pth_root_poly(f), out, rng, mult * f.field.p)
        return
    squarefree = f // f.gcd(fp)
    rem = f
    for sf, d in _distinct_degree(squarefree):
        for g in _equal_degree(sf, d, rng):
            m, rem = multiplicity(rem, g)
            out[g] = out.get(g, 0) + m * mult
    # what remains collects the factors with multiplicity divisible by p
    if rem.degree > 0:
        _factor_monic(_pth_root_poly(rem), out, rng, mult * f.field.p)


def multiplicity(f: Poly, g: Poly) -> tuple[int, Poly]:
    """The largest n with g^n dividing f, and the cofactor f / g^n, for g of
    positive degree."""
    if f.is_zero:
        raise ZeroPolynomial("multiplicity in the zero polynomial")
    n = 0
    while True:
        q, r = divmod(f, g)
        if not r.is_zero:
            return n, f
        f, n = q, n + 1


def roots_in_field(f: Poly) -> list[FqElem]:
    """All roots of f lying in its coefficient field (without multiplicity)."""
    out = []
    for g, _ in factor_squarefree_irreducibles(f):
        if g.degree == 1:
            out.append(-g.coeff(0))
    return out


def residue_field(pi: Poly) -> tuple[Fq, FqElem]:
    """The residue field of the closed point cut out by a monic irreducible pi,
    with the root of pi there: the coefficient field and -pi(0) for degree 1,
    else field[u]/(pi) and the class of u."""
    field = pi.field
    if pi.degree == 1:
        return field, -pi.coeff(0)
    ext = Fq(field.p, modulus=[pi.coeff(i) for i in range(pi.degree + 1)], base=field)
    return ext, ext.gen()
