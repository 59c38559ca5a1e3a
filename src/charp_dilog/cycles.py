"""Parametrized admissible curves in the triple product of punctured lines.

A cycle is given by three coordinate functions of a parameter z, rational
with coefficients in k[t]/(t^p).  Boundary faces sit where a coordinate
degenerates to 0 or infinity at t = 0: each simple face root deforms by
Hensel lifting, the surviving pair of coordinates is evaluated there, and the
signed traced wedge functionals of those pairs give the two invariants.  Only
the reduction modulo t^2 of an admissible cycle matters to them, which is the
modulus property the acceptance suite pins down.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import zip_longest
from typing import NamedTuple, Sequence

from .gf import Fq, FqElem, Poly, factor_squarefree_irreducibles, residue_field, trace_to
from .regulator import _lift_input
from .tpoly import Trunc, _series_div, hensel_root_zpoly, rp_eval, rp_mul
from .wedge import ell, ell_p, wedge


class CycleError(Exception):
    """Base class for cycle errors."""


class NotAdmissible(CycleError):
    """The cycle fails the admissibility checks; ``report`` lists the failures."""

    def __init__(self, report: AdmissibilityReport):
        super().__init__("; ".join(f"{f.code}[y{f.coordinate + 1}]: {f.detail}"
                                   for f in report.failures))
        self.report = report


INF_FACE = "inf"
ZERO_FACE = "0"
PARAM_INF = "z=inf"


def face_sign(i_one_based: int, at_infinity: bool) -> int:
    """The boundary sign for face (i, a): (-1)^i at a = infinity, its negative at a = 0."""
    s = -1 if i_one_based % 2 else 1
    return s if at_infinity else -s


@dataclass(frozen=True)
class Coordinate:
    """One coordinate function: num(z)/den(z) with truncated coefficients."""

    num: tuple
    den: tuple

    def reductions(self, field: Fq) -> tuple[Poly, Poly]:
        return (Poly(field, [c.c0 for c in self.num]),
                Poly(field, [c.c0 for c in self.den]))


@dataclass(frozen=True)
class ParamCycle:
    """A parametrized cycle: three coordinates over k[t]/(t^p)."""

    field: Fq
    coords: tuple


def make_cycle(field: Fq, coords: Sequence[tuple[Sequence[Trunc], Sequence[Trunc]]]) -> ParamCycle:
    if len(coords) != 3:
        raise ValueError("a cycle has three coordinates")
    if not all(num and den for num, den in coords):
        raise ValueError("a coordinate needs a nonempty numerator and denominator")
    return ParamCycle(field, tuple(Coordinate(tuple(num), tuple(den)) for num, den in coords))


@dataclass(frozen=True)
class Failure:
    code: str
    coordinate: int
    detail: str


class Face(NamedTuple):
    """A simple face the check found; a finite one keeps pi as ``where``, the
    z-coefficients whose reduction pi divides, and (residue field, root of pi)."""

    coordinate: int
    label: str
    where: object = PARAM_INF
    coeffs: tuple = ()
    root: tuple = ()


@dataclass
class AdmissibilityReport:
    failures: list = dc_field(default_factory=list)
    faces: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _lead_is_unit(coeffs: Sequence[Trunc]) -> bool:
    return bool(coeffs) and not coeffs[-1].c0.is_zero


def admissibility_check(cycle: ParamCycle) -> AdmissibilityReport:
    """Structured finite-reduction and proper-intersection checks at t = 0.

    Verifies that no coordinate degenerates identically to 0, 1 or infinity,
    that leading coefficients stay units (so the behaviour at the parameter
    point at infinity is read off degrees honestly), that every face root is
    simple (including at infinity, where the degree gap plays that role), and
    that at each face root the other two coordinates avoid 0, 1 and infinity.
    Each simple face goes into ``report.faces``, in the order ``boundary``
    lists its points.
    """
    report = AdmissibilityReport()
    field = cycle.field
    reds = [c.reductions(field) for c in cycle.coords]
    for i, (num, den) in enumerate(reds):
        if num.is_zero:
            report.failures.append(Failure("ZeroCoordinate", i, "reduction is identically 0"))
            continue
        if den.is_zero:
            report.failures.append(Failure("InfiniteCoordinate", i, "reduction is identically infinite"))
            continue
        if num == den:
            report.failures.append(Failure("ConstantOneCoordinate", i, "reduction is identically 1"))
            continue
        if not _lead_is_unit(cycle.coords[i].num) or not _lead_is_unit(cycle.coords[i].den):
            report.failures.append(Failure("LeadingCoefficientDegenerates", i,
                                           "leading z-coefficient vanishes mod t"))
            continue
        if num.gcd(den).degree > 0:
            report.failures.append(Failure("BasePoint", i,
                                           "numerator and denominator share a root mod t"))
            continue
    if report.failures:
        return report
    for i in range(3):
        num, den = reds[i]
        coord = cycle.coords[i]
        for target, coeffs, label in ((num, coord.num, ZERO_FACE), (den, coord.den, INF_FACE)):
            for pi, mult in factor_squarefree_irreducibles(target):
                if mult > 1:
                    report.failures.append(Failure("NonSimpleRoot", i,
                                                   f"face {label} root {pi!r} has multiplicity {mult}"))
                    continue
                root = residue_field(pi)
                report.faces.append(Face(i, label, pi, coeffs, root))
                _check_other_coords(report, reds, i, root[1], label)
        gap = den.degree - num.degree
        if gap != 0:
            label = ZERO_FACE if gap > 0 else INF_FACE
            if abs(gap) > 1:
                report.failures.append(Failure("NonSimpleRoot", i,
                                               f"face {label} at the parameter infinity has multiplicity {abs(gap)}"))
            else:
                report.faces.append(Face(i, label))
                _check_other_coords_at_param_inf(report, reds, i)
    return report


def _check_other_coords(report, reds, i, theta, label):
    for j in range(3):
        if j == i:
            continue
        numj, denj = reds[j]
        nv = numj.evaluate(theta)
        dv = denj.evaluate(theta)
        if dv.is_zero or nv.is_zero or nv == dv:
            report.failures.append(Failure("FaceValueCollision", j,
                                           f"coordinate hits 0, 1 or infinity over face ({i + 1}, {label})"))


def _check_other_coords_at_param_inf(report, reds, i):
    for j in range(3):
        if j == i:
            continue
        numj, denj = reds[j]
        if numj.degree != denj.degree:
            report.failures.append(Failure("FaceValueCollision", j,
                                           "coordinate degenerates at the parameter infinity"))
            continue
        if numj.leading() == denj.leading():
            report.failures.append(Failure("FaceValueCollision", j,
                                           "coordinate hits 1 at the parameter infinity"))


@dataclass(frozen=True)
class BoundaryPoint:
    """A signed face point with the surviving coordinate pair evaluated at it."""

    kprime: Fq
    pair: tuple
    sign: int
    face: tuple
    where: object


def boundary(cycle: ParamCycle, deep: bool = True) -> list[BoundaryPoint]:
    """The signed boundary points with Hensel-deformed positions, one for each
    face that ``admissibility_check`` found: to depth p when ``deep``, else to
    depth 3, all that the ell functional reads.

    For face (i, 0) the root of the i-th numerator's reduction is lifted to a
    root of the full numerator over t; for (i, inf) the denominator plays that
    role; the parameter point at infinity contributes through the degree gap,
    where the deformed point is constant and the surviving values are ratios
    of leading coefficients.
    """
    report = admissibility_check(cycle)
    if not report.ok:
        raise NotAdmissible(report)
    m = cycle.field.p if deep else 3
    return [_boundary_point(cycle, face, m) for face in report.faces]


def _boundary_point(cycle: ParamCycle, face: Face, m: int) -> BoundaryPoint:
    others = [c for j, c in enumerate(cycle.coords) if j != face.coordinate]
    kprime = cycle.field if face.where is PARAM_INF else face.root[0]
    cut = lambda c: c.reduce_to(m).embedded(kprime)
    div = lambda num, den: Trunc._of(kprime, m, _series_div(kprime, num.raws, den.raws))
    if face.where is PARAM_INF:
        pair = [div(cut(c.num[-1]), cut(c.den[-1])) for c in others]
    else:
        z0 = hensel_root_zpoly([cut(c) for c in face.coeffs], face.root[1])
        at = lambda coeffs: rp_eval([cut(x) for x in coeffs], z0)
        pair = [div(at(c.num), at(c.den)) for c in others]
    i = face.coordinate + 1
    return BoundaryPoint(kprime, tuple(pair), face_sign(i, face.label == INF_FACE),
                         (i, face.label), face.where)


def zero_cycle_value(points: Sequence[BoundaryPoint], field: Fq, deep: bool = True) -> FqElem:
    """Signed traced functional values of the boundary pairs: ell_p when
    ``deep``, else ell."""
    functional = ell_p if deep else ell
    total = field.zero
    for pt in points:
        v = trace_to(functional(wedge(*pt.pair), ring=pt.kprime), field)
        total = total + (v if pt.sign == 1 else -v)
    return total


def rho_cycle(cycle: ParamCycle) -> FqElem:
    """The ell-invariant of an admissible cycle (boundary pairs read mod t^3)."""
    return zero_cycle_value(boundary(cycle, deep=False), cycle.field, deep=False)


def rho_K_cycle(cycle: ParamCycle) -> FqElem:
    """The deep invariant of an admissible cycle."""
    return zero_cycle_value(boundary(cycle), cycle.field)


def modulus_compare(z1: ParamCycle, z2: ParamCycle, m: int) -> bool:
    """Whether the two parametrizations agree coefficientwise modulo t^m,
    after normalizing representatives (monic denominators)."""
    if z1.field != z2.field:
        return False
    for i, (c1, c2) in enumerate(zip(z1.coords, z2.coords)):
        (n1, d1), (n2, d2) = _normalized(c1, i), _normalized(c2, i)
        pairs = [*zip_longest(n1, n2, fillvalue=n1[0] - n1[0]),
                 *zip_longest(d1, d2, fillvalue=d1[0] - d1[0])]
        if not all(a.congruent(b, m) for a, b in pairs):
            return False
    return True


def _normalized(coord: Coordinate, i: int) -> tuple[list, list]:
    lead = coord.den[-1]
    if not lead.is_unit:
        raise NotAdmissible(AdmissibilityReport([Failure(
            "LeadingCoefficientDegenerates", i,
            "cannot normalize: denominator leading coefficient is not a unit")]))
    inv = lead.inverse()
    return [c * inv for c in coord.num], [c * inv for c in coord.den]


def graph_cycle(inp, lift_seed: int) -> ParamCycle:
    """The parametrized graph of a regulator input's three functions.

    Uses the same seeded depth-p lift as the deep regulator, so the cycle
    reduces to the given depth-2 data; its invariant matches the regulator
    value up to one global sign fixed once by the acceptance suite.
    """
    field = inp.field
    p = field.p
    lift = _lift_input(inp, p, lift_seed)
    one = Trunc.one(field, p)
    coords = []
    for which, fn in enumerate(inp.functions()):
        num = [lift.units[which]]
        den = [one]
        for idx, e in fn.factors:
            base = lift.points[idx]
            for _ in range(abs(e)):
                if e > 0:
                    num = rp_mul(num, base)
                else:
                    den = rp_mul(den, base)
        coords.append((num, den))
    return make_cycle(field, coords)
