"""Exact arithmetic in F_p (p >= 5) and small extensions F_q = F_p[u]/(m(u)).

Fields are value-like handles; elements carry their field and refuse to mix
with elements of another field.  Extensions are built as towers over an
arbitrary base field, which keeps relative traces and residue-field
constructions straightforward.  Raw element data is an int for a prime field
and a tuple of base-field raws for an extension; :class:`FqElem` holds the
field and that data, and its operators are those of :class:`RingElem`, the
one element class over a ring's ``_raw_*`` kernel that Laurent germs share.

Every field has one division with remainder, ``_rreduce``, behind divmod,
gcd and the extension inverse: int lists with one ``% p`` per update over
F_p (``base is None``), the ``_raw_*`` kernel over an extension.  Every field
has one product path: one Kronecker-packed int product over F_p at every
size; over an extension, both lists flatten into base-field lists, multiply
once (a tower recurses down to F_p) and ``Fq._reduce`` reduces each block by
the monic modulus, as in a tower's element product.  It needs no inverse and
stays apart from ``_rreduce``, which measured slower on every product.

Beyond those kernels, each operation has one generic routine for every
field and ring: :func:`power` (square-and-multiply), :func:`horner`
(polynomial evaluation: a scalar step of ``_raw_mul`` and ``_raw_add`` at
n = 1, one ``_raw_mul_low`` per coefficient above), :func:`multiplicity` and
:func:`trace_to` (the trace down a tower).
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
    """Whether n is prime; n at or above the proven bound raises ``BadPrime``."""
    if n >= _MR_EXACT_BELOW:
        raise BadPrime(f"p = {n} is not below {_MR_EXACT_BELOW}, "
                       "the bound under which primality is proven")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
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


# (limb bytes, array typecode) for unsigned limbs of 16, 32 and 64 bits
_LIMBS = tuple((array(code).itemsize, code) for code in "HIQ")


def _rmul_packed(a: Sequence[int], b: Sequence[int], p: int) -> list:
    """Polynomial product over F_p by Kronecker substitution, at every size.

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


def _rmul(field: Fq, a: Sequence, b: Sequence, n: int | None = None) -> list:
    """The product of two raw coefficient lists ([] if one is empty), or with
    ``n`` its low n coefficients padded with zero raws: one :func:`_rmul_packed`
    call over F_p; over an extension, u -> X and x -> X^w flatten both lists
    into one product over the base field, whose block k reduces to coefficient k."""
    if n is not None:
        if n < 0:
            raise ValueError(f"the low n coefficients of a product need n >= 0, not {n}")
        a, b = a[:n], b[:n]
    if not a or not b:
        return [] if n is None else [field._raw_from_int(0)] * n
    size = len(a) + len(b) - 1
    base = field.base
    if base is None:
        out = _rmul_packed(a, b, field.p)
    else:
        # a product of u-degree at most 2d - 2 < w fits its block
        w, pad = 2 * field.degree - 1, (base._raw_from_int(0),) * (field.degree - 1)
        fa, fb = [c for x in a for c in x + pad], [c for y in b for c in y + pad]
        flat = _rmul_packed(fa, fb, field.p) if base.base is None else _rmul(base, fa, fb)
        out = [field._reduce(flat[k * w:k * w + w])
               for k in range(size if n is None else min(size, n))]
    if n is None:
        return out
    return out[:n] if len(out) >= n else out + [field._raw_from_int(0)] * (n - len(out))


class Fq:
    """A finite field: F_p when ``base`` is None, else ``base[u]/(modulus)``.

    ``modulus`` is a monic irreducible polynomial over the base field, given
    as a coefficient sequence (constant term first, leading 1 last); the
    distinct-degree test of :func:`is_irreducible` rejects a reducible one,
    unless :func:`residue_field` passes ``_irreducible`` for a modulus its
    caller already knows is irreducible.
    Fields compare by value, so two independently constructed copies of the
    same field are interchangeable.
    """

    __slots__ = ("p", "base", "modulus", "degree", "degree_abs", "order", "_zero", "_one")

    def __init__(self, p: int, modulus: Sequence | None = None, base: "Fq | None" = None,
                 *, _irreducible: bool = False):
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
            if not _irreducible and not is_irreducible(Poly._from_raw(base, list(raw))):
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

    # tpoly.Trunc and the element operators compute with the ``_raw_*`` kernel;
    # ``_raw_of`` unwraps a Trunc coefficient, ``_operand`` the other operand of
    # an element operator (see RingElem), and ``_wrap`` turns raws back into
    # elements at the API boundary.

    def _raw_of(self, x):
        return self(x).raw

    def _operand(self, x):
        if isinstance(x, FqElem):
            if x.ring is not self and x.ring != self:
                raise CtxMismatch(f"mixing {self} and {x.ring}")
            return x.raw
        return self._raw_from_int(x) if isinstance(x, int) else NotImplemented

    _raw_mul_low = _rmul  # (a, b, n): the low n coefficients of a product

    def _wrap(self, raws) -> tuple["FqElem", ...]:
        return tuple([FqElem(self, r) for r in raws])

    # -- construction and coercion ----------------------------------------

    def __call__(self, x) -> "FqElem":
        if self.base is not None and isinstance(x, (tuple, list)):
            return self.from_coeffs(x)
        if (raw := self._operand(x)) is NotImplemented:
            raise TypeError(f"cannot coerce {x!r} into {self}")
        return x if isinstance(x, FqElem) else FqElem(self, raw)

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
        return self._reduce(_rmul(base, a, b))

    def _raw_dot(self, xs: Sequence, ys: Sequence):
        """The sum of the products of paired raws, reduced once at the end.

        Over an extension of a prime field the products are term-by-term int
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
                        for j, yj in enumerate(y, start=i):
                            acc[j] += xi * yj
            return self._reduce(acc)
        acc = self._raw_from_int(0)
        for x, y in zip(xs, ys):
            acc = self._raw_add(acc, self._raw_mul(x, y))
        return acc

    def _reduce(self, acc: list) -> tuple:
        """Reduce 2d - 1 coefficients in u by the monic modulus in place: ints
        with one ``% p`` each over F_p, the base field's kernel over a tower."""
        d, mod, base = self.degree, self.modulus, self.base
        if base.base is None:
            for k in range(2 * d - 2, d - 1, -1):
                top = acc[k]
                if top:
                    acc[k - d:k] = [s - top * c for s, c in zip(acc[k - d:k], mod)]
            p = self.p
            return tuple([c % p for c in acc[:d]])
        is_zero, sub, mul = base._raw_is_zero, base._raw_sub, base._raw_mul
        for k in range(2 * d - 2, d - 1, -1):
            top = acc[k]
            if not is_zero(top):
                acc[k - d:k] = [sub(s, mul(top, c)) for s, c in zip(acc[k - d:k], mod)]
        return tuple(acc[:d])

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
        # extended Euclid against the modulus over the base (s stays trimmed: q's lead is nonzero)
        base = self.base
        zero, one = base._raw_from_int(0), base._raw_from_int(1)
        r0, r1 = list(self.modulus), list(a)
        while base._raw_is_zero(r1[-1]):
            r1.pop()
        s0, s1 = [zero], [one]
        while len(r1) > 1:
            q = [zero] * (len(r0) - len(r1) + 1)
            r0, r1 = r1, _rreduce(base, r0, r1, q)
            s0, s1 = s1, _rsub(base, s0, _rmul(base, q, s1))
        lead_inv = base._raw_inv(r1[0])
        inv = [base._raw_mul(lead_inv, c) for c in s1]
        inv += [zero] * (self.degree - len(inv))
        return tuple(inv[: self.degree])

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


def horner(ring, coeffs: Sequence[Sequence], x: Sequence, n: int) -> list:
    """sum_k coeffs[k] x^k mod t^n by Horner's rule on raw coefficient lists
    of any ``_raw_*`` kernel; a coefficient may be shorter than n, and no
    coefficients give n zero raws.  At n = 1 each list is read as its one
    scalar, and a step is one ``_raw_mul`` and one ``_raw_add`` instead of a
    product of one-coefficient lists."""
    if not coeffs:
        return [ring._raw_from_int(0)] * n
    add = ring._raw_add
    if n == 1:
        mul, x0, acc = ring._raw_mul, x[0], coeffs[-1][0]
        for c in reversed(coeffs[:-1]):
            acc = add(mul(acc, x0), c[0])
        return [acc]
    mul_low = ring._raw_mul_low
    acc = list(coeffs[-1][:n])
    acc += [ring._raw_from_int(0)] * (n - len(acc))
    for c in reversed(coeffs[:-1]):
        acc = mul_low(acc, x, n)
        acc[:len(c)] = [add(a, b) for a, b in zip(acc, c)]
    return acc


def _modulus_str(field: Fq) -> str:
    terms = []
    for i, c in enumerate(field.modulus):
        if field.base._raw_is_zero(c):
            continue
        terms.append(f"{c}*u^{i}" if i else f"{c}")
    return "(" + "+".join(terms) + ")"


# raw polynomial helpers over a field (dense low-first lists of raws),
# used by the extension-field kernel before Poly exists

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


def _rderiv(field: Fq, a: Sequence, k: int = 1) -> list:
    """k times the derivative of a raw coefficient list."""
    return [field._raw_mul(field._raw_from_int(i * k), x) for i, x in enumerate(a[1:], 1)]


def _rreduce(field: Fq, rem: list, b: Sequence, quot: list | None = None) -> list:
    """Reduce ``rem`` modulo ``b`` (nonzero lead) in place and return the
    trimmed remainder, with quotient coefficient k in ``quot[k]`` if ``quot``
    is given: ints with one ``% p`` per update over F_p, the ``_raw_*``
    kernel over an extension."""
    db, low = len(b) - 1, b[:-1]
    if field.base is None:
        p, zero = field.p, 0
        lead_inv = pow(b[-1], -1, p)
        for k in range(len(rem) - 1 - db, -1, -1):
            c = rem[k + db] * lead_inv % p
            if c:
                if quot is not None:
                    quot[k] = c
                rem[k:k + db] = [(r - c * y) % p for r, y in zip(rem[k:k + db], low)]
    else:
        is_zero, sub, mul = field._raw_is_zero, field._raw_sub, field._raw_mul
        zero, lead_inv = field._raw_from_int(0), field._raw_inv(b[-1])
        for k in range(len(rem) - 1 - db, -1, -1):
            c = mul(rem[k + db], lead_inv)
            if not is_zero(c):
                if quot is not None:
                    quot[k] = c
                rem[k:k + db] = [sub(r, mul(c, y)) for r, y in zip(rem[k:k + db], low)]
    del rem[db:]
    while rem and rem[-1] == zero:
        rem.pop()
    return rem


def _binary(kernel: str, swap: bool = False):
    """The :class:`RingElem` operator that runs the ring's ``kernel`` on the
    two raws, the other operand's first when ``swap``."""
    def op(self, other):
        if (b := self.ring._operand(other)) is NotImplemented:
            return b
        run = getattr(self.ring, kernel)
        return type(self)(self.ring, run(b, self.raw) if swap else run(self.raw, b))
    return op


class RingElem:
    """An element of a ring with a ``_raw_*`` kernel: the ring and one raw.

    Every operator runs the ring's kernel.  The ring's ``_operand(x)`` gives
    the raw of an element of the ring or of an int (a germ ring also takes a
    field element as a constant), raises :class:`CtxMismatch` for another
    ring's element, and gives NotImplemented for anything else, so that
    operand's reflected operator runs.  Division is a product by the inverse,
    and a power runs :func:`power` (on the inverse for a negative exponent)."""

    __slots__ = ("ring", "raw")

    def __init__(self, ring, raw):
        self.ring = ring
        self.raw = raw

    @property
    def is_zero(self) -> bool:
        return self.ring._raw_is_zero(self.raw)

    __add__ = __radd__ = _binary("_raw_add")
    __sub__, __rsub__ = _binary("_raw_sub"), _binary("_raw_sub", swap=True)
    __mul__ = __rmul__ = _binary("_raw_mul")

    def __truediv__(self, other):
        if (b := self.ring._operand(other)) is NotImplemented:
            return b
        return self * type(self)(self.ring, b).inverse()

    def __rtruediv__(self, other):
        if (b := self.ring._operand(other)) is NotImplemented:
            return b
        return type(self)(self.ring, b) * self.inverse()

    def __neg__(self):
        return type(self)(self.ring, self.ring._raw_neg(self.raw))

    def __pow__(self, n: int):
        ring = self.ring
        x = self.raw if n >= 0 else ring._raw_inv(self.raw)
        return type(self)(ring, power(x, abs(n), ring._raw_from_int(1), ring._raw_mul))

    def inverse(self):
        return type(self)(self.ring, self.ring._raw_inv(self.raw))


class FqElem(RingElem):
    """An element of an :class:`Fq`, carrying its field by value."""

    __slots__ = ()
    field = RingElem.ring  # the ring slot under its field name
    # the benchmark's ``gf.FqElem.ops`` counter wraps these names in this class's own dict
    __add__ = __radd__ = RingElem.__add__
    __sub__, __rsub__ = RingElem.__sub__, RingElem.__rsub__
    __mul__ = __rmul__ = RingElem.__mul__
    inverse = RingElem.inverse

    def coeffs(self) -> tuple["FqElem", ...]:
        """Coefficients over the base field (extension elements only)."""
        if self.field.base is None:
            raise ValueError("a prime-field element has no base coefficients")
        return tuple(FqElem(self.field.base, c) for c in self.raw)

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
        return Poly._from_raw(f, [f._raw_neg(c) for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, FqElem)):
            f, c = self.field, self.field(other).raw
            return Poly._from_raw(f, [f._raw_mul(c, x) for x in self.coeffs])
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return Poly._from_raw(self.field, _rmul(self.field, self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        one = Poly._from_raw(self.field, [self.field._raw_from_int(1)]) if n == 0 else None
        return power(self, n, one, operator.mul)

    def __divmod__(self, other) -> tuple["Poly", "Poly"]:
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroPolynomial("division by the zero polynomial")
        f = self.field
        if self.degree < other.degree:
            return Poly(f), self
        quot = [f._raw_from_int(0)] * (len(self.coeffs) - other.degree)
        rem = _rreduce(f, list(self.coeffs), other.coeffs, quot)
        return Poly._from_raw(f, quot), Poly._from_raw(f, rem)

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
        # equal polynomials have equal coefficients; the field would only cost a call
        return hash(self.coeffs)

    def monic(self) -> tuple["Poly", FqElem]:
        """Return (self / lead, lead)."""
        lead = self.leading()
        if lead == self.field.one:
            return self, lead
        inv = lead.inverse()
        f = self.field
        return Poly._from_raw(f, [f._raw_mul(inv.raw, c) for c in self.coeffs]), lead

    def derivative(self) -> "Poly":
        return Poly._from_raw(self.field, _rderiv(self.field, self.coeffs))

    def evaluate(self, x: FqElem) -> FqElem:
        f = x.field
        if f != self.field and f.base != self.field:
            raise CtxMismatch("evaluation point in an unrelated field")
        coeffs = [[c] for c in self.embedded(f).coeffs]
        return FqElem(f, horner(f, coeffs, [x.raw], 1)[0])

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
        """The monic gcd (zero for two zeros), by Euclid on raw lists."""
        b = self._check(other)
        if b is NotImplemented:
            raise TypeError(f"gcd of a polynomial and {type(other).__name__}")
        f = self.field
        # the longer first (a stable sort), so no step divides by a lead it never uses
        ra, rb = sorted((list(self.coeffs), list(b.coeffs)), key=len, reverse=True)
        while rb:
            ra, rb = rb, _rreduce(f, ra, rb)
        if ra:
            lead_inv, mul = f._raw_inv(ra[-1]), f._raw_mul
            ra = [mul(lead_inv, c) for c in ra]
        return Poly._from_raw(f, ra)

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
    """Whether f is irreducible over F_q: degree 1, or a distinct-degree split
    that is the one entry (f, deg f)."""
    if f.degree == 1:
        return True
    split = _distinct_degree(f)
    return len(split) == 1 and split[0][1] == f.degree


def _pth_root_poly(f: Poly) -> Poly:
    """sum_k c_(pk)^(1/p) x^k: it reads only f's coefficients at multiples of
    p, so it is the p-th root of f when f has zero derivative (f = g(x^p))."""
    field = f.field
    p = field.p
    root_pow = field.order // p  # c -> c^(q/p) is the inverse of Frobenius
    out = []
    for i in range(0, f.degree + 1, p):
        out.append(f.coeff(i) ** root_pow)
    return Poly(field, out)


def _distinct_degree(f: Poly) -> list[tuple[Poly, int]]:
    """Split a squarefree monic f into products of irreducibles of one degree:
    step d divides out gcd(f, x^(q^d) - x) while 2d is at most the degree left.
    Any f of degree n > 1 is irreducible iff the split is the one entry (f, n)
    (Ben-Or's test): a least factor degree k <= n/2 makes the first entry (g, k)."""
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
    if f.degree == 1:
        return [(f.monic()[0], 1)]
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
    else field[u]/(pi) and the class of u.

    pi is not tested here; its irreducibility is known where it enters: a
    factor from :func:`factor_squarefree_irreducibles` is irreducible by
    construction, a ``LiftedPoint`` tests its reduction when it is built, and
    ``localfield.residue_at`` tests the polynomial it is given.  This is the
    only caller of the extension constructor that skips the distinct-degree
    test.
    """
    field = pi.field
    if pi.degree == 1:
        return field, -pi.coeff(0)
    ext = Fq(field.p, modulus=pi.coeffs, base=field, _irreducible=True)
    return ext, ext.gen()
