"""The two regulators on triples of good functions on the projective line.

Inputs live over k[t]/(t^2): a shared table of lifted closed points (monic
polynomials with irreducible reduction, plus the point at infinity handled in
the coordinate w = 1/z) and three functions given in factored form, each a
unit of k[t]/(t^2) times a product of table polynomials with integer
exponents.  Such functions are good at every point by construction, so a
seeded coefficientwise lift to depth m is a global good lifting, the defect
term vanishes, and the value is the traced sum over singular points of the
wedge functional applied to the residue at the lifted point.

The deep-lift route (depth p with the characteristic-p functional) is the
main construction; the depth-3 route with the ell functional is the ordinary
infinitesimal dilogarithm.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .gf import CtxMismatch, Fq, FqElem, MutableRecord, Poly, Record, is_irreducible, residue_field, trace_to
from .rng import spawn
from .tpoly import Trunc, hensel_root_zpoly, rp_eval
from .wedge import GoodElem, ell, ell_p, res_good
from . import bloch


class RegulatorError(Exception):
    """Base class for regulator errors."""


class DegenerateConfiguration(RegulatorError):
    """The three points must have pairwise distinct reductions with s outside {0, 1}."""


INFINITY = "inf"


class LiftedPoint(Record):
    """A table entry: a monic polynomial over k[t]/(t^2) with irreducible
    reduction (a smooth lifting of its closed point), or the point at infinity."""

    __slots__ = ("poly",)

    def __init__(self, poly: tuple[Trunc, ...] | None):
        super().__init__(poly)
        # the one irreducibility test of a table point: residue_field trusts it
        if self.poly is not None and not is_irreducible(self.reduction(self.poly[0].ring)):
            raise ValueError("point reduction must be irreducible")

    @property
    def is_infinity(self) -> bool:
        return self.poly is None

    @property
    def degree(self) -> int:
        return 1 if self.is_infinity else len(self.poly) - 1

    def reduction(self, field: Fq) -> Poly:
        return Poly(field, [c.c0 for c in self.poly])

    def __repr__(self) -> str:
        if self.is_infinity:
            return "inf"
        return "point(" + ", ".join(repr(c) for c in self.poly) + ")"


def finite_point(field: Fq, coeffs: Sequence[Trunc]) -> LiftedPoint:
    """Build and validate a finite table point from monic k_2 coefficients."""
    coeffs = tuple(coeffs)
    if len(coeffs) < 2:
        raise ValueError("a point polynomial has degree >= 1")
    for c in coeffs:
        if c.m != 2 or c.ring != field:
            raise CtxMismatch("point coefficients must live in k[t]/(t^2) over the base")
    if coeffs[-1] != Trunc.one(field, 2):
        raise ValueError("point polynomials are monic")
    return LiftedPoint(coeffs)


class GoodFunction(Record):
    """unit * prod table_point^exponent, a function good at every point."""

    __slots__ = ("unit", "factors")

    def exponent_of(self, idx: int) -> int:
        return sum(e for i, e in self.factors if i == idx)


class RegulatorInput(Record):
    """Three good functions over one point table on the projective line."""

    __slots__ = ("field", "points", "f", "g", "h")

    def __init__(self, field: Fq, points: tuple, f: GoodFunction, g: GoodFunction, h: GoodFunction):
        super().__init__(field, points, f, g, h)
        reductions = set()
        for pt in self.points:
            if pt.is_infinity:
                continue
            red = pt.reduction(self.field)
            key = (red.degree, red.coeffs)
            if key in reductions:
                raise ValueError("table points must have distinct reductions")
            reductions.add(key)
        for fn in (self.f, self.g, self.h):
            if fn.unit.m != 2 or fn.unit.ring != self.field:
                raise CtxMismatch("function units live in k[t]/(t^2) over the base field")
            if not fn.unit.is_unit:
                raise ValueError("function constant must be a unit")
            for idx, _ in fn.factors:
                if not 0 <= idx < len(self.points):
                    raise ValueError("factor references a missing table point")
                if self.points[idx].is_infinity:
                    raise ValueError("factored form uses finite points only")

    def functions(self) -> tuple[GoodFunction, GoodFunction, GoodFunction]:
        return (self.f, self.g, self.h)

    def degree_of(self, fn: GoodFunction) -> int:
        return sum(e * self.points[i].degree for i, e in fn.factors)


class _Lift(MutableRecord):
    """A seeded coefficientwise lift of the table and units to depth m."""

    __slots__ = ("points", "units")


def _lift_input(inp: RegulatorInput, m: int, seed: int | None) -> _Lift:
    """Coefficientwise lift to depth m: seeded random tails, or zero tails when
    the seed is None (the trivial lift)."""
    if seed is None:
        lift = lambda c: c.extended(m)
    else:
        rng = spawn(seed, "regulator-lift", m)
        lift = lambda c: c.random_extended(m, rng)
    one = Trunc.one(inp.field, m)
    points = []
    for pt in inp.points:
        if pt.is_infinity:
            points.append(None)
            continue
        points.append([lift(c) for c in pt.poly[:-1]] + [one])
    units = [lift(fn.unit) for fn in inp.functions()]
    return _Lift(points, units)


def _point_field_and_root(inp: RegulatorInput, lift: _Lift, idx: int):
    """The residue field of a finite table point and the Hensel root of its lift."""
    kprime, root0 = residue_field(inp.points[idx].reduction(inp.field))
    zhat = hensel_root_zpoly([c.embedded(kprime) for c in lift.points[idx]], root0)
    return kprime, zhat


def _value_at_point(inp: RegulatorInput, lift: _Lift, which: int, idx: int,
                    kprime: Fq, zhat: Trunc) -> Trunc:
    """The unit part of function ``which`` at table point ``idx``, reduced at the
    lifted point (evaluated at the Hensel root)."""
    fn = inp.functions()[which]
    val = lift.units[which].embedded(kprime)
    for i, e in fn.factors:
        if i == idx:
            continue
        coeffs = [c.embedded(kprime) for c in lift.points[i]]
        val = val * rp_eval(coeffs, zhat) ** e
    return val


def _singular_support(inp: RegulatorInput) -> tuple[list[int], bool]:
    finite = sorted({i for fn in inp.functions() for i, e in fn.factors if e != 0})
    at_infinity = any(inp.degree_of(fn) != 0 for fn in inp.functions())
    return finite, at_infinity


def _residue_value(inp: RegulatorInput, lift: _Lift, idx: int, kprime: Fq,
                   zhat: Trunc, functional: Callable) -> FqElem:
    """The functional applied to the residue at one finite table point, in the
    point's residue field."""
    goods = [GoodElem(fn.exponent_of(idx), _value_at_point(inp, lift, which, idx, kprime, zhat))
             for which, fn in enumerate(inp.functions())]
    return functional(res_good(goods), ring=kprime)


def _residue_value_infinity(inp: RegulatorInput, lift: _Lift,
                            functional: Callable) -> FqElem:
    """The contribution at infinity, in the coordinate w = 1/z with uniformizer w.

    Reversed monic factors evaluate to 1 at w = 0, so the reduced unit parts
    are just the lifted constants, with exponents minus the degrees.
    """
    goods = [GoodElem(-inp.degree_of(fn), lift.units[which])
             for which, fn in enumerate(inp.functions())]
    return functional(res_good(goods), ring=inp.field)


def regulate(inp: RegulatorInput, lift_seed: int | None, deep: bool = True):
    """The regulator and its per-point breakdown [(point, value), ...].

    Traced residues of a seeded global good lifting: to depth p with the
    ell_p functional when ``deep``, else to depth 3 with ell.  A ``lift_seed``
    of None takes the trivial (zero-tail) lift.
    """
    functional = ell_p if deep else ell
    lift = _lift_input(inp, inp.field.p if deep else 3, lift_seed)
    finite, at_inf = _singular_support(inp)
    breakdown = []
    for idx in finite:
        kprime, zhat = _point_field_and_root(inp, lift, idx)
        v = _residue_value(inp, lift, idx, kprime, zhat, functional)
        breakdown.append((idx, trace_to(v, inp.field)))
    if at_inf:
        breakdown.append((INFINITY, _residue_value_infinity(inp, lift, functional)))
    total = inp.field.zero
    for _, v in breakdown:
        total = total + v
    return total, breakdown


def rho_K(inp: RegulatorInput, lift_seed: int | None) -> FqElem:
    """The deep regulator: traced residues of a seeded global good lifting to depth p."""
    return regulate(inp, lift_seed)[0]


def rho(inp: RegulatorInput, lift_seed: int | None) -> FqElem:
    """The depth-3 regulator with the ell functional."""
    return regulate(inp, lift_seed, deep=False)[0]


# -- the closed form ----------------------------------------------------------

def theorem1_closed_form(alpha: Trunc, beta: Trunc, gamma: Trunc) -> FqElem:
    """Value on (z - alpha) ^ (z - beta) ^ (z - gamma): li2p of the cross-ratio
    (gamma - beta)/(alpha - beta)."""
    for x in (alpha, beta, gamma):
        if x.m != 2:
            raise ValueError("configuration points live in k[t]/(t^2)")
    if not (alpha - beta).is_unit:
        raise DegenerateConfiguration("alpha and beta coincide modulo t")
    try:
        cross_ratio = bloch.symbol((gamma - beta) / (alpha - beta))
    except bloch.NotFlat:
        raise DegenerateConfiguration("the cross-ratio s must avoid 0 and 1") from None
    return bloch.li2p(cross_ratio)


def linear_input(field: Fq, alpha: Trunc, beta: Trunc, gamma: Trunc) -> RegulatorInput:
    """The input (z - alpha) ^ (z - beta) ^ (z - gamma) in factored form."""
    one2 = Trunc.one(field, 2)
    pts = tuple(finite_point(field, [-x, one2]) for x in (alpha, beta, gamma))
    return RegulatorInput(
        field, pts,
        GoodFunction(one2, ((0, 1),)),
        GoodFunction(one2, ((1, 1),)),
        GoodFunction(one2, ((2, 1),)),
    )


def rescaled_t(inp: RegulatorInput, lam: FqElem) -> RegulatorInput:
    """The input with t replaced by lam * t throughout the depth-2 data."""

    def scale(x: Trunc) -> Trunc:
        return Trunc(x.ring, 2, [x.coeffs[0], x.coeffs[1] * lam])

    pts = tuple(LiftedPoint(None) if pt.is_infinity
                else LiftedPoint(tuple(scale(c) for c in pt.poly))
                for pt in inp.points)
    fns = [GoodFunction(scale(fn.unit), fn.factors) for fn in inp.functions()]
    return RegulatorInput(inp.field, pts, *fns)
