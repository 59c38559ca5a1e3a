"""Truncated polynomial rings R[t]/(t^m), 2 <= m <= p.

Provides exact arithmetic over an abstract coefficient ring, the truncated
exponential and branch logarithm with their coefficient functionals, the
canonical unit decomposition (recomposed by one exponential), and
Newton/Hensel lifting of simple roots.

A :class:`Trunc` stores the raw data of its coefficients, and every
operation runs one algorithm through its coefficient ring's ``_raw_*``
kernel, read through the one ring protocol, :class:`charp_dilog.gf.Ring`.
It keeps :mod:`charp_dilog.gf`'s operand rule and equality law: an operand
is a Trunc over the same ring with the same m, or a scalar the ring's
``_operand`` reads, and ``r-``, ``/``, ``r/``, ``==`` come from
``gf.Arithmetic``.  There are three rings, each with its own product.
:class:`charp_dilog.gf.Fq` keeps an int or an int tuple per coefficient and
multiplies through the field's one polynomial multiply.
:class:`charp_dilog.localfield.LaurentRing` keeps a germ per coefficient and
multiplies two truncations by one packed product of the germ field.
:class:`charp_dilog.localfield.RatFnRing` keeps each rational function as its
own raw and multiplies by its own loop over the coefficient products.  The
elements of the first two share one class over their kernels,
:class:`charp_dilog.gf.RingElem`.  Powers go through :func:`charp_dilog.gf.power`.

The branch logarithm comes from the logarithmic derivative: with
theta = t d/dt, theta(u) = u theta(log u), and theta scales the coefficient
of t^n by n, which is invertible for 0 < n < m <= p.  A recurrence on
w_n = n l_n gives it in one pass, O(m^2) (Brent & Kung, J. ACM 25, 1978).

Polynomials in z over R[t]/(t^m) are multiplied by one ``_raw_mul_low``
and evaluated by :func:`charp_dilog.gf.horner` on raw coefficient lists; the
truncated exponential is that evaluation of the inverse factorials at alpha.
Hensel lifting on those lists takes one of three routes: -c0/c for a linear
P = c0 + c z whose c is constant in t; up to a measured crossover m0, one
t-coefficient at a time from scalar dots (relaxed lifting); above it, Newton
iteration with precision doubling (von zur Gathen & Gerhard, Modern Computer
Algebra, 3rd ed., 9.4), where g = 1/P'(x) follows by its own Newton step.
"""

from __future__ import annotations

import operator
from typing import Callable, Sequence

from .gf import Arithmetic, CtxMismatch, Fq, Record, _lifted, _rsub, horner, power


class TruncError(Exception):
    """Base class for truncated-ring errors."""


class ModulusMismatch(TruncError, CtxMismatch):
    """Operands live in truncated rings with different data: different rings."""


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
    """Inverses of k! modulo p for 0 <= k < n, for n <= p (default n = p): the
    running product of the inverses of 1..n-1, as 1/k! = 1/(k-1)! * 1/k."""
    n = p if n is None else n
    out = [1][:n]
    for inv in _inverses(p, n)[1:]:
        out.append(out[-1] * inv % p)
    return out


def _series_div(ring, num: Sequence, den: Sequence) -> list:
    """Raws of num/den mod t^len(den), from d_0 q_n + ... + d_n q_0 = num_n (0 past num)."""
    inv, first, split = ring._raw_inv(den[0]), num[0], len(num)
    # q_0 = num_0 / d_0 needs no product for an inverse (num_0 = 1)
    rev = [inv if first == ring._raw_from_int(1) else ring._raw_mul(first, inv)]
    minus, tail = ring._raw_neg(inv), den[1:]
    for n in range(1, len(den)):
        acc = ring._raw_dot(tail, rev)  # d_1 q_{n-1} + ... + d_n q_0: a dot stops at rev's end
        rev.insert(0, ring._raw_mul(minus, ring._raw_sub(acc, num[n]) if n < split else acc))
    return rev[::-1]


class Trunc(Arithmetic):
    """An element of R[t]/(t^m), held as exactly m raws of its ring (low first)."""

    __slots__ = ("ring", "m", "raws")

    def __init__(self, ring, m: int, coeffs: Sequence):
        if not 2 <= m <= ring.characteristic:
            raise ModulusMismatch(f"modulus m = {m} outside 2 <= m <= p")
        raws = [ring._raw_of(c) for c in coeffs]
        if len(raws) > m:
            raise ValueError("more coefficients than the modulus allows")
        raws += [ring._raw_from_int(0)] * (m - len(raws))
        self.ring = ring
        self.m = m
        self.raws = tuple(raws)

    @classmethod
    def _of(cls, ring, m: int, raws: Sequence) -> "Trunc":
        """Build without checks: ``raws`` holds exactly m raws of ``ring``."""
        self = object.__new__(cls)
        self.ring = ring
        self.m = m
        self.raws = tuple(raws)
        return self

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
    def coeffs(self) -> tuple:
        return self.ring._wrap(self.raws)

    @property
    def c0(self):
        return self.ring._element(self.raws[0])

    @property
    def is_zero(self) -> bool:
        return all(map(self.ring._raw_is_zero, self.raws))

    @property
    def is_unit(self) -> bool:
        return not self.ring._raw_is_zero(self.raws[0])

    def _lift(self, x):
        """A truncation over this ring with this m, or what the ring's ``_operand``
        reads as a constant (see :class:`~charp_dilog.gf.Arithmetic`)."""
        if isinstance(x, Trunc):
            if x.ring != self.ring or x.m != self.m:
                raise ModulusMismatch("mixing truncated rings")
            return x
        ring = self.ring
        if (c := ring._operand(x)) is NotImplemented:
            return c
        return Trunc._of(ring, self.m, [c] + [ring._raw_from_int(0)] * (self.m - 1))

    @_lifted
    def __add__(self, other):
        add = self.ring._raw_add
        return Trunc._of(self.ring, self.m, [add(a, b) for a, b in zip(self.raws, other.raws)])

    __radd__ = __add__

    @_lifted
    def __sub__(self, other):
        sub = self.ring._raw_sub
        return Trunc._of(self.ring, self.m, [sub(a, b) for a, b in zip(self.raws, other.raws)])

    def __neg__(self):
        return Trunc._of(self.ring, self.m, [self.ring._raw_neg(a) for a in self.raws])

    @_lifted
    def __mul__(self, other):
        return Trunc._of(self.ring, self.m,
                         self.ring._raw_mul_low(self.raws, other.raws, self.m))

    __rmul__ = __mul__

    def scaled(self, c) -> "Trunc":
        """Multiply every coefficient by a ring scalar."""
        ring = self.ring
        mul, r = ring._raw_mul, ring._raw_of(c)
        return Trunc._of(ring, self.m, [mul(a, r) for a in self.raws])

    def inverse(self) -> "Trunc":
        if not self.is_unit:
            raise NonUnitConstantTerm("inverting a non-unit of R[t]/(t^m)")
        one = [self.ring._raw_from_int(1)]
        return Trunc._of(self.ring, self.m, _series_div(self.ring, one, self.raws))

    def __pow__(self, n: int) -> "Trunc":
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, Trunc.one(self.ring, self.m), operator.mul)

    def _key(self):  # a constant's term's key, else the raws as the ring keys them
        if all(map(self.ring._raw_is_zero, self.raws[1:])):
            return self.c0._key()
        return self.ring._raws_key(self.raws)

    def _equal(self, other) -> bool:  # as the keys compare
        return self.ring._raws_key(self.raws) == self.ring._raws_key(other.raws)

    def reduce_to(self, m2: int) -> "Trunc":
        """Truncate to R[t]/(t^m2) for m2 <= m (the a|_{t^m2} operation)."""
        if not 2 <= m2 <= self.m:
            raise ModulusMismatch(f"reduce_to needs 2 <= m2 <= {self.m}, not {m2}")
        return Trunc._of(self.ring, m2, self.raws[:m2])

    def extended(self, m2: int) -> "Trunc":
        """Lift into R[t]/(t^m2), m2 >= m, with zero tail coefficients."""
        if m2 < self.m:
            raise ModulusMismatch("extended cannot lower the modulus")
        return Trunc(self.ring, m2, self.coeffs)

    def random_extended(self, m2: int, rng) -> "Trunc":
        """Lift into R[t]/(t^m2), m <= m2 <= p, with tail raws drawn in order from rng."""
        if not self.m <= m2 <= self.ring.characteristic:
            raise ModulusMismatch(f"random_extended needs {self.m} <= m2 <= p, not {m2}")
        draw = self.ring._random_raw
        return Trunc._of(self.ring, m2, [*self.raws, *(draw(rng) for _ in range(m2 - self.m))])

    def shifted(self, j: int) -> "Trunc":
        """Multiply by t^j for j >= 0 (zero when j >= m)."""
        if j < 0:
            raise IndexOutOfRange(f"t^{j} is not in R[t]/(t^{self.m})")
        zeros = [self.ring._raw_from_int(0)] * j
        return Trunc._of(self.ring, self.m, (zeros + list(self.raws))[:self.m])

    def congruent(self, other: "Trunc", m2: int) -> bool:
        """Whether self and other, over one ring, agree modulo t^m2: whether their
        first m2 coefficients are equal, as two truncations are."""
        if other.ring != self.ring or not 1 <= m2 <= min(self.m, other.m):
            raise ModulusMismatch(f"congruence mod t^{m2} needs one ring and 1 <= m2 <= min(m)")
        ring = self.ring
        return Trunc._of(ring, m2, self.raws[:m2])._equal(Trunc._of(ring, m2, other.raws[:m2]))

    def map_coeffs(self, fn: Callable, ring) -> "Trunc":
        return Trunc(ring, self.m, [fn(c) for c in self.coeffs])

    def embedded(self, ring) -> "Trunc":
        """The same element with coefficients pushed into an extension field;
        into an Fq directly over this ring, a raw c becomes (c, 0, ..., 0)."""
        if ring == self.ring:
            return self
        if not isinstance(ring, Fq) or ring.base != self.ring:
            return self.map_coeffs(ring.embed, ring)
        return Trunc._of(ring, self.m, [(c,) + ring._pad for c in self.raws])

    def __repr__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == self.ring.zero:
                continue
            parts.append(f"({c})" + ("" if i == 0 else f"*t^{i}" if i > 1 else "*t"))
        return " + ".join(parts) if parts else "0"


def trunc_exp(alpha: Trunc) -> Trunc:
    """The truncated exponential sum_{n<p} alpha^n / n! for alpha in (t)."""
    if not alpha.ring._raw_is_zero(alpha.raws[0]):
        raise NonzeroConstantTerm("exponent must have zero constant term")
    # alpha^n vanishes mod t^m for n >= m
    return rp_eval(inv_factorials(alpha.ring.characteristic, alpha.m), alpha)


def log_circ(u: Trunc) -> Trunc:
    """The branch logarithm log(u / u(0)), defined for units when m <= p.

    theta(u) = u theta(log u) for theta = t d/dt gives, with w_k = k l_k,
    w_n = (n u_n - sum_{0<k<n} w_k u_{n-k}) / u_0, and l_n = w_n / n
    (0 < n < m <= p).  ``ws`` holds w_{n-1}, ..., w_1 and the weight -n, so
    one dot with u_1, ..., u_n gives -u_0 w_n.
    """
    if not u.is_unit:
        raise NonUnitConstantTerm("log of a non-unit")
    ring, a = u.ring, u.raws
    mul, dot, from_int = ring._raw_mul, ring._raw_dot, ring._raw_from_int
    minus, ws, out, tail = ring._raw_neg(ring._raw_inv(a[0])), [None], [from_int(0)], a[1:]
    for n, inv_n in enumerate(_inverses(ring.characteristic, u.m)[1:], start=1):
        ws[-1] = from_int(-n)
        ws.insert(0, mul(minus, dot(ws, tail)))
        out.append(mul(ws[0], from_int(inv_n)))
    return Trunc._of(ring, u.m, out)


def ell_i(u: Trunc, i: int):
    """The i-th t-coefficient of log_circ(u), for 1 <= i < m."""
    if not 1 <= i < u.m:
        raise IndexOutOfRange(f"ell_{i} undefined on R[t]/(t^{u.m})")
    return log_circ(u).coeffs[i]


def ell_all(u: Trunc) -> tuple:
    """All coefficients (ell_1(u), ..., ell_{m-1}(u)) in one pass."""
    return log_circ(u).coeffs[1:]


class UnitDecomp(Record):
    """A unit written as a0 * e(exps[0] t) * e(exps[1] t^2) * ...  exactly."""

    __slots__ = ("ring", "m", "a0", "exps")


def unit_decompose(u: Trunc) -> UnitDecomp:
    if not u.is_unit:
        raise NonUnitConstantTerm("decomposing a non-unit")
    return UnitDecomp(u.ring, u.m, u.c0, ell_all(u))


def unit_recompose(d: UnitDecomp) -> Trunc:
    """a0 e(sum_i exps[i-1] t^i): one exponential, since e(x) e(y) = e(x + y)
    mod t^m for x, y in (t) when m <= p."""
    return trunc_exp(Trunc(d.ring, d.m, [d.ring.zero, *d.exps])).scaled(d.a0)


# -- polynomials in z over R[t]/(t^m) (lists, low first) ---------------------

def _raws_like(x: Trunc, c) -> tuple:
    """The m raws of c read as an operand of x: a Trunc like x, or a scalar of its ring."""
    if (y := x._lift(c)) is NotImplemented:
        raise TypeError(f"{c!r} is not an operand of {x.ring}[t]/(t^{x.m})")
    return y.raws


def rp_mul(a: Sequence, b: Sequence) -> list:
    """The product of two polynomials in z with Trunc coefficients like ``a[0]``:
    z -> t^w, w = 2m - 1, gives each coefficient a block of one ``_raw_mul_low``."""
    if not a or not b:
        return []
    ring, m, size = a[0].ring, a[0].m, len(a) + len(b) - 1
    w, pad = 2 * m - 1, [ring._raw_from_int(0)] * (m - 1)
    fa, fb = ([c for x in xs for c in [*_raws_like(a[0], x), *pad]] for xs in (a, b))
    flat = ring._raw_mul_low(fa, fb, size * w)
    return [Trunc._of(ring, m, flat[k * w:k * w + m]) for k in range(size)]


def rp_eval(coeffs: Sequence, x: Trunc) -> Trunc:
    """sum_k coeffs[k] x^k by :func:`~charp_dilog.gf.horner`; a coefficient is
    a Trunc like x or a ring scalar."""
    ring = x.ring
    raws = [_raws_like(x, c) if isinstance(c, Trunc) else [ring._raw_of(c)] for c in coeffs]
    return Trunc._of(ring, x.m, horner(ring, raws, x.raws, x.m))


_RELAXED_MAX_M = 23  # m0, from the crossover curve of scripts/hensel_crossover.py


def newton_root(ring, coeffs: Sequence[list], x0, m: int) -> list:
    """The root of P(z) = sum_k coeffs[k] z^k in F_q[t]/(t^m) that is x0 mod t,
    on raw data of the Fq ``ring``: -c0/c for P = c0 + c z with c constant in t
    (no nonzero raw past its first), else :func:`_relaxed_root` for m <= m0 =
    ``_RELAXED_MAX_M`` and :func:`_ladder_root` above.  Raises :class:`HenselFailure`
    unless x0 is a simple root mod t, or if the lift fails the check P(x) = 0 mod t^m."""
    from_int, is_zero, mul = ring._raw_from_int, ring._raw_is_zero, ring._raw_mul
    d0 = horner(ring, [[mul(from_int(k), c[0])] for k, c in enumerate(coeffs) if k], [x0], 1)[0]
    if is_zero(d0) or not is_zero(horner(ring, coeffs, [x0], 1)[0]):
        raise HenselFailure("the starting point is not a simple root mod t")
    inv = ring._raw_inv(d0)
    if len(coeffs) == 2 and all(map(is_zero, coeffs[1][1:])):  # x = -c0/c, padded to m raws
        x = _rsub(ring, [from_int(0)] * m, [mul(inv, a) for a in coeffs[0][:m]])
    else:
        x = (_relaxed_root if m <= _RELAXED_MAX_M else _ladder_root)(ring, coeffs, x0, inv, m)
    if not all(map(is_zero, horner(ring, coeffs, x, m))):
        raise HenselFailure("Newton iteration failed to converge")
    return x


def _ladder_root(ring, coeffs: Sequence[list], x0, inv, m: int) -> list:
    """Newton iteration with precision doubling, inv = 1/P'(x0) mod t: O(deg log m) products."""
    mul_low, from_int = ring._raw_mul_low, ring._raw_from_int
    dcoeffs = [[ring._raw_mul(from_int(k), c) for c in coeffs[k]] for k in range(1, len(coeffs))]
    precisions = [m]
    while precisions[-1] > 2:
        precisions.append((precisions[-1] + 1) // 2)
    x, g = [x0], [inv]
    for k in reversed(precisions):
        # x is a root and g = 1/P'(x) mod t^j at the previous precision j >= k/2
        x = _rsub(ring, x, mul_low(g, horner(ring, coeffs, x, k), k))
        if k < m:
            e = mul_low(horner(ring, dcoeffs, x, k), g, k)
            g = mul_low(g, _rsub(ring, [from_int(2)], e), k)
    return x


def _relaxed_root(ring, coeffs: Sequence[list], x0, inv, m: int) -> list:
    """One t-coefficient at a time (relaxed lifting; van der Hoeven, J. Symb. Comp. 34, 2002):
    [t^k] P(x) is its value at x_k = 0 plus P'(x0)(0) x_k, inv = 1/P'(x0) mod t.  ``pows[i-1]``
    holds [t^n] x^i, n = k..0, one ``_raw_dot`` a step: O(deg m^2) products, none packed."""
    zero, add, mul, dot = ring._raw_from_int(0), ring._raw_add, ring._raw_mul, ring._raw_dot
    pows = [[power(x0, i, None, mul)] for i in range(1, len(coeffs))]
    slopes = [mul(ring._raw_from_int(i), r[0]) for i, r in enumerate(pows[:-1], start=2)]
    minus, x = ring._raw_neg(inv), [x0]
    for k in range(1, m):
        pows[0].insert(0, zero)  # x_k, unknown yet
        for r, below in zip(pows[1:], pows):  # sum_{a<k} x_a [t^(k-a)] x^(i-1)
            r.insert(0, dot(x, below))
        acc = coeffs[0][k] if k < len(coeffs[0]) else zero
        for row, r in zip(coeffs[1:], pows):
            acc = add(acc, dot(row, r))
        x.append(mul(minus, acc))
        pows[0][0] = x[-1]
        for r, slope in zip(pows[1:], slopes):  # [t^k] x^i gains i x_0^(i-1) x_k
            r[0] = add(r[0], mul(slope, x[-1]))
    return x


def hensel_root_zpoly(coeffs: Sequence[Trunc], x0) -> Trunc:
    """Lift a simple root x0 (mod t, a field element) of a polynomial whose
    z-coefficients are Truncs over one Fq: unwrap once, lift, wrap once."""
    if not coeffs:
        raise HenselFailure("the zero polynomial has no simple root")
    first = coeffs[0]
    raws = [_raws_like(first, c) for c in coeffs]
    return Trunc._of(first.ring, first.m,
                     newton_root(first.ring, raws, first.ring._raw_of(x0), first.m))
