"""Truncated polynomial rings R[t]/(t^m), 2 <= m <= p.

Provides exact arithmetic over an abstract coefficient ring, the truncated
exponential and branch logarithm with their coefficient functionals, the
canonical unit decomposition, and Newton/Hensel lifting of simple roots.

A coefficient ring is any handle exposing ``characteristic``, ``zero``,
``one``, ``from_int`` and ``is_unit`` whose elements support +, -, *, and
``inverse()``; :class:`charp_dilog.gf.Fq` and
:class:`charp_dilog.localfield.RatFnRing` both qualify.

A ring handle that also has ``_raw_mul_low`` (an :class:`~charp_dilog.gf.Fq`)
gets the raw path: +, -, negation, ``scaled``, products and inverses unwrap
each coefficient's ``.raw`` once, compute with the field's ``_raw_*`` kernel
(products through the field's one polynomial multiply, truncated), and wrap
the result once with the ring's ``_wrap``.  Other rings run the same
algorithms on ring elements.

The branch logarithm comes from the logarithmic derivative: with
theta = t d/dt, theta(log u) = theta(u) / u, and theta scales the coefficient
of t^n by n, which is invertible for 0 < n < m <= p.  That costs one inverse
and one product, O(m^2).

Polynomials in z over F_q[t]/(t^m) are evaluated by one Horner kernel on
raw coefficient lists, with products through ``_raw_mul_low``.  Hensel
lifting is Newton iteration with precision doubling on those lists (von zur
Gathen & Gerhard, Modern Computer Algebra, 3rd ed., 9.4): the precisions are
2, 3, ..., m, each the ceiling of half the next, and g = 1/P'(x) follows by
its own Newton step g <- g (2 - P'(x) g) instead of a series inverse.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

from .gf import _rsub


class TruncError(Exception):
    """Base class for truncated-ring errors."""


class ModulusMismatch(TruncError):
    """Operands live in truncated rings with different data."""


class NonUnitConstantTerm(TruncError):
    """The constant term must be a unit of the coefficient ring."""


class NonzeroConstantTerm(TruncError):
    """The argument must lie in the ideal (t)."""


class IndexOutOfRange(TruncError):
    """Coefficient index outside 1 <= i < m, or a negative power of t."""


class HenselFailure(TruncError):
    """No simple root to lift (not a root mod t, or derivative not a unit there)."""


def _inverses(p: int, n: int) -> list[int]:
    """Inverses of 1..n-1 modulo p, for n <= p (index 0 holds 0)."""
    inv = [0, 1][:n]
    for i in range(2, n):
        # p = (p // i) i + (p % i) gives 1/i = -(p // i) / (p % i), with p % i < i
        inv.append(-(p // i) * inv[p % i] % p)
    return inv


def inv_factorials(p: int, n: int | None = None) -> list[int]:
    """Inverses of k! modulo p for 0 <= k < n, for n <= p (default n = p)."""
    if n is None:
        n = p
    out = [1] * n
    fact = 1
    for k in range(1, n):
        fact = fact * k % p
    inv = pow(fact, -1, p)
    for k in range(n - 1, 0, -1):
        out[k] = inv
        inv = inv * k % p
    return out


def _computes_raw(ring) -> bool:
    return hasattr(ring, "_raw_mul_low")


def _series_inverse(a: Sequence, inv, dot, mul, neg) -> list:
    """Coefficients of 1/a modulo t^len(a), from a_0 b_n + ... + a_n b_0 = 0 (n > 0)."""
    out = [inv(a[0])]
    minus = neg(out[0])
    for n in range(1, len(a)):
        out.append(mul(minus, dot(a[1:n + 1], out[::-1])))
    return out


def _dot(xs: Sequence, ys: Sequence):
    return functools.reduce(operator.add, map(operator.mul, xs, ys))


class Trunc:
    """An element of R[t]/(t^m), held as exactly m coefficients (low first)."""

    __slots__ = ("ring", "m", "coeffs")

    def __init__(self, ring, m: int, coeffs: Sequence):
        if not 2 <= m <= ring.characteristic:
            raise ModulusMismatch(f"modulus m = {m} outside 2 <= m <= p")
        coeffs = [ring.from_int(c) if isinstance(c, int) else c for c in coeffs]
        if len(coeffs) > m:
            raise ValueError("more coefficients than the modulus allows")
        coeffs += [ring.zero] * (m - len(coeffs))
        self.ring = ring
        self.m = m
        self.coeffs = tuple(coeffs)

    @classmethod
    def _of(cls, ring, m: int, coeffs: Sequence) -> "Trunc":
        """Build without checks: ``coeffs`` holds exactly m elements of ``ring``."""
        self = object.__new__(cls)
        self.ring = ring
        self.m = m
        self.coeffs = tuple(coeffs)
        return self

    def _raws(self) -> list:
        return [c.raw for c in self.coeffs]

    def _wrap(self, raws: Sequence) -> "Trunc":
        return Trunc._of(self.ring, self.m, self.ring._wrap(raws))

    @classmethod
    def constant(cls, ring, m: int, c) -> "Trunc":
        return cls(ring, m, [c])

    @classmethod
    def zero(cls, ring, m: int) -> "Trunc":
        return cls(ring, m, [])

    @classmethod
    def one(cls, ring, m: int) -> "Trunc":
        return cls(ring, m, [ring.one])

    @classmethod
    def t(cls, ring, m: int) -> "Trunc":
        return cls(ring, m, [ring.zero, ring.one])

    @property
    def c0(self):
        return self.coeffs[0]

    @property
    def is_zero(self) -> bool:
        zero = self.ring.zero
        return all(c == zero for c in self.coeffs)

    @property
    def is_unit(self) -> bool:
        return self.ring.is_unit(self.coeffs[0])

    def _check(self, other) -> "Trunc":
        if isinstance(other, Trunc):
            if other.ring != self.ring or other.m != self.m:
                raise ModulusMismatch("mixing truncated rings")
            return other
        if isinstance(other, int):
            return Trunc.constant(self.ring, self.m, self.ring.from_int(other))
        return Trunc.constant(self.ring, self.m, other)

    def __add__(self, other):
        other = self._check(other)
        ring = self.ring
        if _computes_raw(ring):
            add = ring._raw_add
            return self._wrap([add(a.raw, b.raw) for a, b in zip(self.coeffs, other.coeffs)])
        return Trunc._of(ring, self.m, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        ring = self.ring
        if _computes_raw(ring):
            sub = ring._raw_sub
            return self._wrap([sub(a.raw, b.raw) for a, b in zip(self.coeffs, other.coeffs)])
        return Trunc._of(ring, self.m, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        ring = self.ring
        if _computes_raw(ring):
            neg = ring._raw_neg
            return self._wrap([neg(a.raw) for a in self.coeffs])
        return Trunc._of(ring, self.m, [-a for a in self.coeffs])

    def __mul__(self, other):
        other = self._check(other)
        ring = self.ring
        if _computes_raw(ring):
            return self._wrap(ring._raw_mul_low(self._raws(), other._raws(), self.m))
        zero = ring.zero
        out = [zero] * self.m
        for i, a in enumerate(self.coeffs):
            if a == zero:
                continue
            for j in range(self.m - i):
                b = other.coeffs[j]
                if b == zero:
                    continue
                out[i + j] = out[i + j] + a * b
        return Trunc._of(ring, self.m, out)

    __rmul__ = __mul__

    def scaled(self, c) -> "Trunc":
        """Multiply every coefficient by a ring scalar."""
        ring = self.ring
        if _computes_raw(ring):
            mul, r = ring._raw_mul, ring(c).raw
            return self._wrap([mul(a.raw, r) for a in self.coeffs])
        return Trunc._of(ring, self.m, [a * c for a in self.coeffs])

    def inverse(self) -> "Trunc":
        if not self.is_unit:
            raise NonUnitConstantTerm("inverting a non-unit of R[t]/(t^m)")
        ring = self.ring
        if _computes_raw(ring):
            return self._wrap(_series_inverse(self._raws(), ring._raw_inv, ring._raw_dot,
                                              ring._raw_mul, ring._raw_neg))
        return Trunc._of(ring, self.m, _series_inverse(self.coeffs, lambda c: c.inverse(), _dot,
                                                       operator.mul, operator.neg))

    def __truediv__(self, other):
        other = self._check(other)
        return self * other.inverse()

    def __pow__(self, n: int) -> "Trunc":
        if n < 0:
            return self.inverse() ** (-n)
        result = Trunc.one(self.ring, self.m)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trunc):
            return NotImplemented
        return self.ring == other.ring and self.m == other.m and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.m, self.coeffs))

    def reduce_to(self, m2: int) -> "Trunc":
        """Truncate to R[t]/(t^m2) for m2 <= m (the a|_{t^m2} operation)."""
        if m2 > self.m:
            raise ModulusMismatch("reduce_to cannot raise the modulus")
        return Trunc(self.ring, m2, self.coeffs[:m2])

    def extended(self, m2: int, tail: Sequence = ()) -> "Trunc":
        """Lift into R[t]/(t^m2), m2 >= m, appending the given tail coefficients."""
        if m2 < self.m:
            raise ModulusMismatch("extended cannot lower the modulus")
        tail = list(tail)
        if len(tail) > m2 - self.m:
            raise ValueError("lift tail too long")
        return Trunc(self.ring, m2, list(self.coeffs) + tail)

    def random_extended(self, m2: int, rng) -> "Trunc":
        """Lift into R[t]/(t^m2) with tail coefficients drawn in order from rng."""
        return self.extended(m2, [self.ring.random_element(rng) for _ in range(m2 - self.m)])

    def shifted(self, j: int) -> "Trunc":
        """Multiply by t^j for j >= 0 (zero when j >= m)."""
        if j < 0:
            raise IndexOutOfRange(f"t^{j} is not in R[t]/(t^{self.m})")
        return Trunc._of(self.ring, self.m, ([self.ring.zero] * j + list(self.coeffs))[:self.m])

    def congruent(self, other: "Trunc", m2: int) -> bool:
        """Whether self and other agree modulo t^m2."""
        return self.coeffs[:m2] == other.coeffs[:m2]

    def map_coeffs(self, fn: Callable, ring=None) -> "Trunc":
        return Trunc(ring if ring is not None else self.ring, self.m,
                     [fn(c) for c in self.coeffs])

    def embedded(self, ring) -> "Trunc":
        """The same element with coefficients pushed into an extension field."""
        if ring == self.ring:
            return self
        return Trunc._of(ring, self.m, [ring.embed(c) for c in self.coeffs])

    def __repr__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == self.ring.zero:
                continue
            parts.append(f"({c})" + ("" if i == 0 else f"*t^{i}" if i > 1 else "*t"))
        return " + ".join(parts) if parts else "0"


def trunc_exp(alpha: Trunc) -> Trunc:
    """The truncated exponential sum_{n<p} alpha^n / n! for alpha in (t)."""
    ring = alpha.ring
    if alpha.coeffs[0] != ring.zero:
        raise NonzeroConstantTerm("exponent must have zero constant term")
    # alpha^n vanishes mod t^m for n >= m
    inv_fact = inv_factorials(ring.characteristic, alpha.m)
    result = Trunc.one(ring, alpha.m)
    power = Trunc.one(ring, alpha.m)
    for n in range(1, alpha.m):
        power = power * alpha
        result = result + power.scaled(ring.from_int(inv_fact[n]))
    return result


def _weighted(x: Trunc, weights: Sequence[int]) -> Trunc:
    """Multiply the coefficient of t^n by the integer weights[n]."""
    ring = x.ring
    if _computes_raw(ring):
        mul, from_int = ring._raw_mul, ring._raw_from_int
        return x._wrap([mul(c.raw, from_int(w)) for c, w in zip(x.coeffs, weights)])
    return Trunc._of(ring, x.m, [c * ring.from_int(w) for c, w in zip(x.coeffs, weights)])


def log_circ(u: Trunc) -> Trunc:
    """The branch logarithm log(u / u(0)), defined for units when m <= p.

    theta(log u) = theta(u) / u for theta = t d/dt, and theta^-1 divides the
    coefficient of t^n by n (0 < n < m <= p), so l_n = [t^n](theta(u) / u) / n.
    """
    if not u.is_unit:
        raise NonUnitConstantTerm("log of a non-unit")
    m = u.m
    euler = _weighted(u, range(m))
    return _weighted(euler * u.inverse(), _inverses(u.ring.characteristic, m))


def ell_i(u: Trunc, i: int):
    """The i-th t-coefficient of log_circ(u), for 1 <= i < m."""
    if not 1 <= i < u.m:
        raise IndexOutOfRange(f"ell_{i} undefined on R[t]/(t^{u.m})")
    return log_circ(u).coeffs[i]


def ell_all(u: Trunc) -> tuple:
    """All coefficients (ell_1(u), ..., ell_{m-1}(u)) in one pass."""
    return log_circ(u).coeffs[1:]


@dataclass(frozen=True)
class UnitDecomp:
    """A unit written as a0 * e(exps[0] t) * e(exps[1] t^2) * ...  exactly."""

    ring: object
    m: int
    a0: object
    exps: tuple


def unit_decompose(u: Trunc) -> UnitDecomp:
    if not u.is_unit:
        raise NonUnitConstantTerm("decomposing a non-unit")
    return UnitDecomp(u.ring, u.m, u.coeffs[0], ell_all(u))


def unit_recompose(d: UnitDecomp) -> Trunc:
    ring = d.ring
    acc = Trunc.constant(ring, d.m, d.a0)
    for i, alpha in enumerate(d.exps, start=1):
        if alpha == ring.zero:
            continue
        arg = Trunc(ring, d.m, [ring.zero] * i + [alpha])
        acc = acc * trunc_exp(arg)
    return acc


# -- polynomials in z over R[t]/(t^m) (lists, low first) ---------------------

def rp_mul(a: Sequence, b: Sequence, zero) -> list:
    if not a or not b:
        return []
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _horner(ring, coeffs: Sequence[list], x: list, n: int) -> list:
    """sum_k coeffs[k] x^k mod t^n on raw coefficient lists over an Fq; a
    coefficient may be shorter than n (a scalar is a list of length one)."""
    add, mul_low = ring._raw_add, ring._raw_mul_low
    acc = list(coeffs[-1][:n])
    acc += [ring._raw_from_int(0)] * (n - len(acc))
    for c in reversed(coeffs[:-1]):
        acc = mul_low(acc, x, n)
        acc[:len(c)] = [add(a, b) for a, b in zip(acc, c)]
    return acc


def rp_eval(coeffs: Sequence, x: Trunc, zero):
    """sum_k coeffs[k] x^k; a coefficient is a Trunc like x or a ring scalar."""
    ring = x.ring
    if not coeffs:
        return zero
    if _computes_raw(ring):
        raws = [x._check(c)._raws() if isinstance(c, Trunc) else [ring(c).raw] for c in coeffs]
        return x._wrap(_horner(ring, raws, x._raws(), x.m))
    acc = zero
    for c in reversed(list(coeffs)):
        acc = acc * x + c
    return acc


def newton_root(ring, coeffs: Sequence[list], x0, m: int) -> list:
    """The root of P(z) = sum_k coeffs[k] z^k in F_q[t]/(t^m) that is x0 mod t,
    on raw data of the Fq ``ring``.  Raises :class:`HenselFailure` unless x0 is
    a simple root mod t, or if the lift fails the check P(x) = 0 mod t^m."""
    mul_low, from_int, is_zero = ring._raw_mul_low, ring._raw_from_int, ring._raw_is_zero
    dcoeffs = [[ring._raw_mul(from_int(k), c) for c in coeffs[k]]
               for k in range(1, len(coeffs))] or [[from_int(0)]]
    d0 = _horner(ring, dcoeffs, [x0], 1)[0]
    if is_zero(d0) or not is_zero(_horner(ring, coeffs, [x0], 1)[0]):
        raise HenselFailure("the starting point is not a simple root mod t")
    precisions = [m]
    while precisions[-1] > 2:
        precisions.append((precisions[-1] + 1) // 2)
    x, g = [x0], [ring._raw_inv(d0)]
    for k in reversed(precisions):
        # x is a root and g = 1/P'(x) mod t^j at the previous precision j >= k/2
        x = _rsub(ring, x, mul_low(g, _horner(ring, coeffs, x, k), k))
        if k < m:
            e = mul_low(_horner(ring, dcoeffs, x, k), g, k)
            g = mul_low(g, _rsub(ring, [from_int(2)], e), k)
    if not all(map(is_zero, _horner(ring, coeffs, x, m))):
        raise HenselFailure("Newton iteration failed to converge")
    return x


def hensel_root_zpoly(coeffs: Sequence[Trunc], x0) -> Trunc:
    """Lift a simple root x0 (mod t, a field element) of a polynomial whose
    z-coefficients are Truncs over one Fq: unwrap once, lift, wrap once."""
    first = coeffs[0]
    raws = [first._check(c)._raws() for c in coeffs]
    return first._wrap(newton_root(first.ring, raws, first.ring(x0).raw, first.m))
