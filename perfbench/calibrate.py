"""A fixed pure-Python kernel that measures how fast the interpreter runs right now.

Shared machines drift: on a 2-core VM the same ops ran 20-45% slower for
stretches of tens of seconds while nothing in the process changed.  The
runner times this kernel after every op and scales each op time by
``REFERENCE_S / <kernel time around the op>``, so the reported figures are
times at one reference machine speed and a slower stretch cancels out.

The kernel is a frozen miniature of the library's hot path (field elements
as small wrapper objects, schoolbook polynomial products and Euclid's
remainders), so it slows down under the same contention as the ops do.  It
shares no code with ``charp_dilog``: a change to the library never moves it.
Changing the kernel or REFERENCE_S changes every scaled figure, so it is a
benchmark change of its own.
"""

from __future__ import annotations

from time import perf_counter

# Kernel time on the machine the benchmark was defined on (2-vCPU Xeon VM,
# CPython 3.11), so scaled figures read close to that machine's milliseconds.
REFERENCE_S = 1.25e-3

_P = 10007


class _Field:
    __slots__ = ("p",)

    def __init__(self, p):
        self.p = p

    def __eq__(self, other):
        return self.p == other.p


class _Elem:
    __slots__ = ("field", "v")

    def __init__(self, field, v):
        self.field = field
        self.v = v

    def _coerce(self, other):
        if isinstance(other, _Elem):
            if other.field != self.field:
                raise ValueError("mixed fields")
            return other
        return _Elem(self.field, other % self.field.p)

    def __add__(self, other):
        other = self._coerce(other)
        return _Elem(self.field, (self.v + other.v) % self.field.p)

    def __sub__(self, other):
        other = self._coerce(other)
        return _Elem(self.field, (self.v - other.v) % self.field.p)

    def __mul__(self, other):
        other = self._coerce(other)
        return _Elem(self.field, self.v * other.v % self.field.p)

    def inverse(self):
        return _Elem(self.field, pow(self.v, self.field.p - 2, self.field.p))


_F = _Field(_P)
_A = [_Elem(_F, (i * 7919 + 13) % _P) for i in range(13)]
_B = [_Elem(_F, (i * 104729 + 7) % _P) for i in range(12)]


def _mul(a, b):
    out = [_Elem(_F, 0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _rem(a, b):
    r = list(a)
    lead_inv = b[-1].inverse()
    while len(r) >= len(b):
        c = r[-1] * lead_inv
        k = len(r) - len(b)
        for j, y in enumerate(b):
            r[k + j] = r[k + j] - c * y
        r.pop()
        while r and r[-1].v == 0:
            r.pop()
    return r


def kernel():
    """Euclid's algorithm on two fixed products over F_10007."""
    a, b = _mul(_A, _B), _mul(_B, _B)
    while b:
        a, b = b, _rem(a, b)
    return a


def kernel_s() -> float:
    """Seconds one kernel run takes now."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0
