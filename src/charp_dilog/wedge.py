"""Formal wedge presentations of unit groups and the functionals on them.

A :class:`WedgeK` is a formal integer combination of k-tuples of units; no
quotient is taken.  Every consumer here is alternating and multilinear, so
distinct presentations of the same exterior-power class evaluate equally,
which is exactly what the test suite checks.

Also home to the goodness decomposition f = u * s_tilde^n at a local point
and the induced residue map from triples of good elements to wedges of units
of the residue ring.  :func:`res_local` takes rational truncations; it finds
the uniformizer's Hensel root globally, then splits and reduces on germs at
s = 0 (the reduction is one Horner evaluation at the root), starting at
absolute precision m + max |n| and doubling on demand.  The global route is
the test oracle ``res_local_global`` in ``tests/oracles.py``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .gf import Poly
from .localfield import RatFn, expand_at, germs_at_zero
from .tpoly import ModulusMismatch, Trunc, _horner, hensel_root_zpoly, log_circ


class WedgeError(Exception):
    """Base class for wedge-functional errors."""


class ModulusTooSmall(WedgeError):
    """The functional needs a deeper truncation than the entries carry."""


class NotGood(WedgeError):
    """The element admits no u * s_tilde^n decomposition at the point."""


@dataclass(frozen=True)
class WedgeK:
    """Formal sum of integer-weighted k-tuples of group elements."""

    terms: tuple

    def __add__(self, other: "WedgeK") -> "WedgeK":
        return WedgeK(self.terms + other.terms)

    def map_entries(self, fn: Callable) -> "WedgeK":
        return WedgeK(tuple((k, tuple(fn(e) for e in entries)) for k, entries in self.terms))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{k}*(" + " ^ ".join(map(repr, entries)) + ")"
                          for k, entries in self.terms)


def wedge(*entries, coeff: int = 1) -> WedgeK:
    """A single weighted wedge term."""
    return WedgeK(((coeff, tuple(entries)),))


def _wedge_sum(w: WedgeK, ring, pair_value: Callable):
    """sum_k k * pair_value(a, b) over the terms; the zero of ``ring`` when empty."""
    value = None
    for k, (a, b) in w.terms:
        term = a.ring.from_int(k) * pair_value(a, b)
        value = term if value is None else value + term
    if value is None:
        if ring is None:
            raise ValueError("empty wedge needs an explicit ring for its zero")
        return ring.zero
    return value


def _ell_pair(a: Trunc, b: Trunc):
    if a.m < 3:
        raise ModulusTooSmall("ell needs modulus m >= 3")
    r = a.ring
    la, lb = log_circ(a).raws, log_circ(b).raws
    # l_2(a) l_1(b) - l_2(b) l_1(a) as one dot product of raw log coefficients
    return r._wrap([r._raw_dot((la[2], r._raw_neg(lb[2])), (lb[1], la[1]))])[0]


def _ell_p_pair(a: Trunc, b: Trunc):
    # i -> p - i turns the second half of (1/2) sum_i i (l_{p-i}(a) l_i(b) -
    # l_{p-i}(b) l_i(a)) into the first in characteristic p, so the value is
    # sum_i i l_{p-i}(a) l_i(b): one dot product of raw log coefficients
    r = a.ring
    p = r.characteristic
    if a.m != p:
        raise ModulusMismatch("ell_p needs modulus m = p")
    la, lb = log_circ(a).raws, log_circ(b).raws
    mul, from_int = r._raw_mul, r._raw_from_int
    weighted = [mul(from_int(i), la[p - i]) for i in range(1, p)]
    return r._wrap([r._raw_dot(weighted, lb[1:])])[0]


def ell(w: WedgeK, ring=None):
    """The functional ell_2 ^ ell_1 on wedges of units of R[t]/(t^m), m >= 3."""
    return _wedge_sum(w, ring, _ell_pair)


def ell_p(w: WedgeK, ring=None):
    """The functional (1/2) sum_i i * (ell_{p-i} ^ ell_i) on wedges of units of R_p,
    where (ell_j ^ ell_i)(a, b) = ell_j(a) ell_i(b) - ell_j(b) ell_i(a)."""
    return _wedge_sum(w, ring, _ell_p_pair)


@dataclass(frozen=True)
class GoodElem:
    """A local decomposition f = u * s_tilde^n with u a unit at the point."""

    n: int
    u: object


def _order(g, below: float = math.inf) -> float:
    """The order at s = 0 of a rational function or a germ, capped at ``below``.
    A germ's is read from its known coefficients, as ``val`` is only a lower
    bound after a sum; an unknown deciding coefficient raises
    :class:`~charp_dilog.localfield.InsufficientPrecision`."""
    if isinstance(g, RatFn):
        return below if g.is_zero else min(g.ord_at(g.field.zero), below)
    e = g.val
    while e < below and g.coeff(e).is_zero:
        e += 1
    return min(e, below)


def _check_uniformizer(s_tilde: Trunc) -> None:
    if _order(s_tilde.c0, 2) != 1:
        raise ValueError("reduction of the uniformizer must vanish to order one at s = 0")
    if any(_order(c, 0) < 0 for c in s_tilde.coeffs):
        raise ValueError("uniformizer has a coefficient with a pole at the point")


def goodness_split(f: Trunc, s_tilde: Trunc) -> GoodElem:
    """Split f = u * s_tilde^n at the point s = 0 of the local model.

    Entries are truncations whose coefficients are Laurent germs at s = 0;
    ``s_tilde`` is a uniformizer (reduction vanishing to first order at the
    point, no coefficient with a pole).  Raises :class:`NotGood` when no
    decomposition with a regular unit exists.
    """
    _check_uniformizer(s_tilde)
    if f.c0.is_zero:
        raise NotGood("not a unit of the localized ring")
    n = _order(f.c0)
    u = f * s_tilde ** (-n)
    if _order(u.c0, 1) != 0 or any(_order(c, 0) < 0 for c in u.coeffs[1:]):
        raise NotGood(f"no unit decomposition with exponent {n}")
    return GoodElem(n, u)


def res_good(goods: Sequence[GoodElem], reduce_fn: Callable) -> WedgeK:
    """The residue of a triple of good elements, as a wedge over the residue ring.

    For f = u s^a, g = v s^b, h = w s^c the value is
    a*(v~ ^ w~) - b*(u~ ^ w~) + c*(u~ ^ v~), where ~ is the reduction at the
    lifted point supplied by ``reduce_fn``; the convention is pinned by the
    projective-line computation in the acceptance suite.
    """
    if len(goods) != 3:
        raise ValueError("res_good takes a triple")
    a, b, c = (g.n for g in goods)
    reduced = [None, None, None]

    def red(i: int):
        if reduced[i] is None:
            reduced[i] = reduce_fn(goods[i].u)
        return reduced[i]

    terms = []
    if a != 0:
        terms.append((a, (red(1), red(2))))
    if b != 0:
        terms.append((-b, (red(0), red(2))))
    if c != 0:
        terms.append((c, (red(0), red(1))))
    return WedgeK(tuple(terms))


# -- local evaluation at a lifted point -------------------------------------

def local_point(s_tilde: Trunc) -> Trunc:
    """The Hensel root sigma(t) of the uniformizer: s_tilde(sigma(t), t) = 0.

    The root lies in (t) of F_q[t]/(t^m); it is the coordinate of the lifted
    point defined by the uniformizer, so reductions at the point are
    evaluations at this root.  With D the lcm of the coefficients'
    denominators, D(0) != 0 (no coefficient has a pole at the point), so
    D * s_tilde is a polynomial in z with the same simple root at 0, whose
    Hensel lift is unique.
    """
    _check_uniformizer(s_tilde)
    field, m = s_tilde.ring.field, s_tilde.m
    fracs = [c.reduced() for c in s_tilde.coeffs]
    den = functools.reduce(lambda d, f: d * (f.den // d.gcd(f.den)), fracs, Poly(field, [1]))
    nums = [(f.num * (den // f.den)).coeffs for f in fracs]
    zero = field._raw_from_int(0)
    coeffs = [Trunc._of(field, m, [c[k] if k < len(c) else zero for c in nums])
              for k in range(max(map(len, nums)))]
    return hensel_root_zpoly(coeffs, field.zero)


def reduce_at(u: Trunc, root: Trunc) -> Trunc:
    """The reduction of a unit of germs at the point s = root(t), the
    identification of the point's function ring with F_q[t]/(t^m) that is the
    identity mod (t).  As root lies in (t), only the first m - j terms of the
    coefficient u_j of t^j count: the value is sum_k root^k sum_{j<m-k} [s^k]u_j t^j."""
    m, field = u.m, root.ring
    rows = [[c.coeff(k).raw for c in u.coeffs[:m - k]] for k in range(m)]
    return Trunc._of(field, m, _horner(field, rows, root.raws, m))


def res_local(triple: Sequence[Trunc], s_tilde: Trunc) -> WedgeK:
    """Residue of a wedge of three s_tilde-good local elements at the point;
    entries and uniformizer have rational coefficients, and the exponents n
    that set the starting precision are exact from any expansion."""
    root = local_point(s_tilde)
    shift = max((abs(expand_at(f.c0, root.ring.zero, 0).val) for f in triple
                 if not f.c0.is_zero), default=0)

    def residue(germ):
        unif = germ(s_tilde)
        goods = [goodness_split(germ(f), unif) for f in triple]
        return res_good(goods, lambda u: reduce_at(u, root))
    return germs_at_zero(root.ring, s_tilde.m + shift, residue)
