"""Formal wedge presentations of unit groups and the functionals on them.

A :class:`WedgeK` is a formal integer combination of k-tuples of units; no
quotient is taken.  Every consumer here is alternating and multilinear, so
distinct presentations of the same exterior-power class evaluate equally,
which is exactly what the test suite checks.

Also home to the goodness decomposition f = u * s_tilde^n at a local point
and the induced residue map from triples of good elements to wedges of units
of the residue ring.  :func:`res_local` takes rational truncations and does
everything else on germs at s = 0, starting at absolute precision m + max |n|
and doubling on demand: the Hensel root of the germ uniformizer, the splits,
and the reductions (one Horner evaluation at the root each).  The global
route is the test oracle ``res_local_global`` in ``tests/oracles.py``.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

from .gf import Record
from .localfield import RatFn, expand_at, germs_at_zero
from .tpoly import ModulusMismatch, Trunc, horner, log_circ, newton_root


class WedgeError(Exception):
    """Base class for wedge-functional errors."""


class ModulusTooSmall(WedgeError):
    """The functional needs a deeper truncation than the entries carry."""


class NotGood(WedgeError):
    """The element admits no u * s_tilde^n decomposition at the point."""


class WedgeK(Record):
    """Formal sum of integer-weighted k-tuples of group elements."""

    __slots__ = ("terms",)

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


def _wedge_sum(terms, ring, value: Callable):
    """sum_k k * value(*entries) over (k, entries) terms, k taken into the
    first entry's ring; the zero of ``ring`` when there are none."""
    total = None
    for k, entries in terms:
        term = entries[0].ring.from_int(k) * value(*entries)
        total = term if total is None else total + term
    if total is None:
        if ring is None:
            raise ValueError("empty sum needs an explicit ring for its zero")
        return ring.zero
    return total


def _logs(w: WedgeK) -> Callable:
    """The log_circ raws of a unit of w: those of each distinct unit, by id,
    are taken once, in a memo that lives for one functional call."""
    units = {id(u): u for _, entries in w.terms for u in entries}
    memo = {key: log_circ(u).raws for key, u in units.items()}
    return lambda u: memo[id(u)]


def _ell_pair(a: Trunc, b: Trunc, logs):
    if a.m < 3 or b.m < 3:
        raise ModulusTooSmall("ell needs modulus m >= 3")
    r = a.ring
    if b.ring != r:
        raise ModulusMismatch("ell pairs units of one coefficient ring")
    la, lb = logs(a), logs(b)
    # l_2(a) l_1(b) - l_2(b) l_1(a) as one dot product of raw log coefficients
    return r._element(r._raw_dot((la[2], r._raw_neg(lb[2])), (lb[1], la[1])))


def _ell_p_pair(a: Trunc, b: Trunc, logs):
    # i -> p - i turns the second half of (1/2) sum_i i (l_{p-i}(a) l_i(b) -
    # l_{p-i}(b) l_i(a)) into the first in characteristic p, so the value is
    # sum_i i l_{p-i}(a) l_i(b): one dot product of raw log coefficients
    r = a.ring
    p = r.characteristic
    if a.m != p or b.m != p or b.ring != r:
        raise ModulusMismatch("ell_p pairs units of one coefficient ring with modulus m = p")
    la, lb = logs(a), logs(b)
    mul, from_int = r._raw_mul, r._raw_from_int
    weighted = [mul(from_int(i), la[p - i]) for i in range(1, p)]
    return r._element(r._raw_dot(weighted, lb[1:]))


def ell(w: WedgeK, ring=None):
    """The functional ell_2 ^ ell_1 on wedges of units of R[t]/(t^m), m >= 3."""
    return _wedge_sum(w.terms, ring, functools.partial(_ell_pair, logs=_logs(w)))


def ell_p(w: WedgeK, ring=None):
    """The functional (1/2) sum_i i * (ell_{p-i} ^ ell_i) on wedges of units of R_p,
    where (ell_j ^ ell_i)(a, b) = ell_j(a) ell_i(b) - ell_j(b) ell_i(a)."""
    return _wedge_sum(w.terms, ring, functools.partial(_ell_p_pair, logs=_logs(w)))


class GoodElem(Record):
    """A local decomposition f = u * s_tilde^n with u a unit at the point."""

    __slots__ = ("n", "u")


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


def res_good(goods: Sequence[GoodElem]) -> WedgeK:
    """The residue of a triple of good elements, as a wedge over the residue ring.

    For f = u s^a, g = v s^b, h = w s^c, units already reduced at the lifted
    point, the value is a*(v ^ w) - b*(u ^ w) + c*(u ^ v); the convention is
    pinned by the projective-line computation in the acceptance suite.
    """
    if len(goods) != 3:
        raise ValueError("res_good takes a triple")
    (a, u), (b, v), (c, w) = ((g.n, g.u) for g in goods)
    terms = []
    if a != 0:
        terms.append((a, (v, w)))
    if b != 0:
        terms.append((-b, (u, w)))
    if c != 0:
        terms.append((c, (u, v)))
    return WedgeK(tuple(terms))


# -- local evaluation at a lifted point -------------------------------------

def _rows(u: Trunc) -> list:
    """[s^k]u_j for j < m - k, k < m: the raws of a truncation of germs at
    s = 0 that count at a point sigma in (t), where sigma^k lies in (t^k)."""
    m = u.m
    return [[c.coeff(k).raw for c in u.coeffs[:m - k]] for k in range(m)]


def local_point(unif: Trunc) -> Trunc:
    """The Hensel root sigma(t) in (t) of a germ uniformizer, unif(sigma(t), t) = 0:
    the coordinate of the lifted point, so reductions there are evaluations at
    it.  It is the simple root at 0 of sum_k rows[k] z^k, unique mod t^m."""
    field, m = unif.ring.field, unif.m
    return Trunc._of(field, m, newton_root(field, _rows(unif), field._raw_from_int(0), m))


def reduce_at(u: Trunc, root: Trunc) -> Trunc:
    """The reduction of a unit of germs at the point s = root(t), the
    identification of the point's function ring with F_q[t]/(t^m) that is the
    identity mod (t): sum_k root^k sum_{j<m-k} [s^k]u_j t^j.  The root lies
    over the germs' field with their modulus."""
    if root.m != u.m or root.ring != u.ring.field:
        raise ModulusMismatch("reduce_at needs a root over the germs' field with their modulus")
    return Trunc._of(root.ring, u.m, horner(root.ring, _rows(u), root.raws, u.m))


def res_local(triple: Sequence[Trunc], s_tilde: Trunc) -> WedgeK:
    """Residue of a wedge of three s_tilde-good local elements at the point;
    entries and uniformizer have rational coefficients, and the exponents n
    that set the starting precision are exact from any expansion.  Each split
    unit is reduced at the root by :func:`reduce_at` before :func:`res_good`."""
    _check_uniformizer(s_tilde)
    field = s_tilde.ring.field
    shift = max((abs(expand_at(f.c0, field.zero, 0).val) for f in triple
                 if not f.c0.is_zero), default=0)

    def residue(germ):
        unif = germ(s_tilde)
        root = local_point(unif)
        goods = [goodness_split(germ(f), unif) for f in triple]
        return res_good([GoodElem(g.n, reduce_at(g.u, root)) for g in goods])
    return germs_at_zero(field, s_tilde.m + shift, residue)
