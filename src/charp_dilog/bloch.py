"""Bloch-group symbols, the five-term relation, and the additive dilogarithms.

A symbol is a formal integer combination of flat generators [x], those with
x(1-x) a unit; flatness is checked once, when a symbol is built.  Two
dilogarithms live on symbols over R[t]/(t^2): the additive one with its closed
form -a^3 / (2 s^2 (1-s)^2), and, over a finite field, the characteristic-p
one built from the degree-(p-1) truncated logarithm polynomial.  Each also
factors through the boundary map delta composed with a wedge functional after
lifting to a deeper truncation.  A lift keeps the constant term, so it stays
flat; the lift does not matter, and the lift-based routes here draw their
higher coefficients at random from a seeded generator so the tests exercise
that independence for free.
"""

from __future__ import annotations

from .gf import Record
from .rng import spawn
from .tpoly import Trunc, _inverses
from .wedge import WedgeK, _wedge_sum, ell, ell_p, wedge


class BlochError(Exception):
    """Base class for Bloch-symbol errors."""


class NotFlat(BlochError):
    """A generator x must satisfy x(1-x) a unit."""


class DifferenceNotUnit(BlochError):
    """The five-term relation needs x - y to be a unit."""


class BlochSym(Record):
    """A formal integer combination of flat generators [x]."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple):
        super().__init__(terms)
        for _, x in terms:
            if not flat_check(x):
                raise NotFlat(f"x(1-x) is not a unit for x = {x!r}")

    def __add__(self, other: "BlochSym") -> "BlochSym":
        return BlochSym(self.terms + other.terms)

    def __repr__(self) -> str:
        return " + ".join(f"{k}*[{x!r}]" for k, x in self.terms) if self.terms else "0"


def symbol(x: Trunc) -> BlochSym:
    return BlochSym(((1, x),))


def flat_check(x: Trunc) -> bool:
    """Whether x(1-x) is a unit: its constant term x0(1-x0) is nonzero exactly
    when x0 avoids 0 and 1."""
    ring, x0 = x.ring, x.raws[0]
    return not (ring._raw_is_zero(x0) or ring._raw_is_zero(ring._raw_sub(x0, ring._raw_from_int(1))))


def five_term(x: Trunc, y: Trunc) -> BlochSym:
    """The five-term combination [x]-[y]+[y/x]-[(1-1/x)/(1-1/y)]+[(1-x)/(1-y)]."""
    pair = ((1, x), (-1, y))
    BlochSym(pair)  # a non-flat x or y raises NotFlat here, not a division error below
    if not (x - y).is_unit:
        raise DifferenceNotUnit("five-term relation needs x - y a unit")
    one = Trunc.one(x.ring, x.m)
    return BlochSym(pair + ((1, y / x),
                            (-1, (one - x.inverse()) / (one - y.inverse())),
                            (1, (one - x) / (one - y))))


def delta(b: BlochSym) -> WedgeK:
    """The boundary [x] -> (1-x) ^ x into the wedge square of the units."""
    out = WedgeK(())
    for k, x in b.terms:
        out = out + wedge(Trunc.one(x.ring, x.m) - x, x, coeff=k)
    return out


def pounds1(s):
    """The truncated-logarithm polynomial sum_{1<=i<=p-1} s^i / i at an element
    s of a finite field, by Horner on raws through the field's kernel.  Not
    through gf.horner: its p coefficient lists took 25.9 against 21.6 ms over
    F_p at p = 49,999."""
    ring = s.field
    p, x = ring.characteristic, ring._raw_of(s)
    add, mul, from_int = ring._raw_add, ring._raw_mul, ring._raw_from_int
    inv = _inverses(p, p)
    acc = from_int(0)
    for i in range(p - 1, 0, -1):
        acc = mul(add(acc, from_int(inv[i])), x)
    return ring._element(acc)


def _generators(b: BlochSym, name: str):
    """b's terms as one-entry wedge terms; its generators live over R[t]/(t^2)."""
    for k, x in b.terms:
        if x.m != 2:
            raise NotFlat(f"{name} generators live over R[t]/(t^2)")
        yield k, (x,)


def _li2_value(x: Trunc):
    ring = x.ring
    s, a = x.coeffs
    p = ring.characteristic
    denom = s * (ring.one - s)
    return -(a * a * a) * ring.from_int(pow(2, p - 2, p)) * (denom * denom).inverse()


def _li2p_value(x: Trunc):
    ring = x.ring
    s, a = x.coeffs
    return (a * (s * (ring.one - s)).inverse()) ** ring.characteristic * pounds1(s)


def li2(b: BlochSym):
    """The additive dilogarithm on symbols over R[t]/(t^2): -a^3/(2 s^2 (1-s)^2)."""
    return _wedge_sum(_generators(b, "li2"), None, _li2_value)


def li2p(b: BlochSym):
    """The characteristic-p dilogarithm over a finite field: (a/(s(1-s)))^p * pounds1(s)."""
    if not all(hasattr(x.ring, "order") for _, x in b.terms):  # a finite field has an order
        raise TypeError("li2p needs generators over a finite field, where pounds1 sums s^i/i")
    return _wedge_sum(_generators(b, "li2p"), None, _li2p_value)


def _via_lift(b: BlochSym, seed: int, deep: bool):
    """The dilogarithm as the wedge functional of delta of a random lift:
    ell_p at depth p when ``deep``, else ell at depth 3."""
    name = "li2p" if deep else "li2"
    fn = ell_p if deep else ell
    rng = spawn(seed, name + "-lift")
    return _wedge_sum(_generators(b, name), None, lambda x: fn(delta(symbol(
        x.random_extended(x.ring.characteristic if deep else 3, rng)))))


def li2_via_lift(b: BlochSym, seed: int):
    """li2 through an arbitrary lift to R[t]/(t^3) and the ell functional."""
    return _via_lift(b, seed, deep=False)


def li2p_via_lift(b: BlochSym, seed: int):
    """li2p through an arbitrary lift to R[t]/(t^p) and the ell_p functional."""
    return _via_lift(b, seed, deep=True)
