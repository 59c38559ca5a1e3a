"""Bloch-group symbols, the five-term relation, and the additive dilogarithms.

Two dilogarithms live on symbols over R[t]/(t^2): the additive one with its
closed form -a^3 / (2 s^2 (1-s)^2), and the characteristic-p one built from
the degree-(p-1) truncated logarithm polynomial.  Each also factors through
the boundary map delta composed with a wedge functional after lifting to a
deeper truncation; the lift does not matter, and the lift-based routes here
draw their higher coefficients at random from a seeded generator so the tests
exercise that independence for free.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rng import spawn
from .tpoly import Trunc
from .wedge import WedgeK, ell, ell_p, wedge


class BlochError(Exception):
    """Base class for Bloch-symbol errors."""


class NotFlat(BlochError):
    """A generator x must satisfy x(1-x) a unit."""


class DifferenceNotUnit(BlochError):
    """The five-term relation needs x - y to be a unit."""


class LiftNotFlat(BlochError):
    """A random lift landed outside the flat locus (re-lift)."""


@dataclass(frozen=True)
class BlochSym:
    """A formal integer combination of flat generators [x]."""

    terms: tuple

    def __add__(self, other: "BlochSym") -> "BlochSym":
        return BlochSym(self.terms + other.terms)

    def __sub__(self, other: "BlochSym") -> "BlochSym":
        return self + other.scaled(-1)

    def scaled(self, c: int) -> "BlochSym":
        if c == 0:
            return BlochSym(())
        return BlochSym(tuple((c * k, x) for k, x in self.terms))

    def __repr__(self) -> str:
        return " + ".join(f"{k}*[{x!r}]" for k, x in self.terms) if self.terms else "0"


def symbol(x: Trunc, coeff: int = 1) -> BlochSym:
    if not flat_check(x):
        raise NotFlat(f"x(1-x) is not a unit for x = {x!r}")
    return BlochSym(((coeff, x),))


def flat_check(x: Trunc) -> bool:
    """Whether x(1-x) is a unit, i.e. x avoids 0 and 1 modulo the maximal ideal."""
    one = Trunc.one(x.ring, x.m)
    return (x * (one - x)).is_unit


def five_term(x: Trunc, y: Trunc) -> BlochSym:
    """The five-term combination [x]-[y]+[y/x]-[(1-1/x)/(1-1/y)]+[(1-x)/(1-y)]."""
    if not flat_check(x):
        raise NotFlat("x is not flat")
    if not flat_check(y):
        raise NotFlat("y is not flat")
    if not (x - y).is_unit:
        raise DifferenceNotUnit("five-term relation needs x - y a unit")
    one = Trunc.one(x.ring, x.m)
    args = [
        (1, x),
        (-1, y),
        (1, y / x),
        (-1, (one - x.inverse()) / (one - y.inverse())),
        (1, (one - x) / (one - y)),
    ]
    out = BlochSym(())
    for c, arg in args:
        out = out + symbol(arg, c)
    return out


def delta(b: BlochSym) -> WedgeK:
    """The boundary [x] -> (1-x) ^ x into the wedge square of the units."""
    out = WedgeK(())
    for k, x in b.terms:
        if not flat_check(x):
            raise NotFlat(f"generator {x!r} is not flat")
        one = Trunc.one(x.ring, x.m)
        out = out + wedge(one - x, x, coeff=k)
    return out


def pounds1(s):
    """The truncated-logarithm polynomial sum_{1<=i<=p-1} s^i / i.

    Accepts any element carrying a ``field`` with characteristic p (a field
    scalar or a rational function) and returns the same kind of element.
    """
    p = s.field.p
    acc = None
    power = s
    for i in range(1, p):
        term = power * pow(i, p - 2, p)
        acc = term if acc is None else acc + term
        if i < p - 1:
            power = power * s
    return acc


def _symbol_sum(b: BlochSym, ring, name: str, closed_form):
    """sum_k k * closed_form(ring, s, a) over generators s + a t of R[t]/(t^2)."""
    value = None if ring is None else ring.zero
    for k, x in b.terms:
        if x.m != 2:
            raise NotFlat(f"{name} generators live over R[t]/(t^2)")
        if not flat_check(x):
            raise NotFlat(f"generator {x!r} is not flat")
        ring = x.ring
        term = ring.from_int(k) * closed_form(ring, x.coeffs[0], x.coeffs[1])
        value = term if value is None else value + term
    return value


def _li2_closed_form(ring, s, a):
    p = ring.characteristic
    half_inv = ring.from_int(pow(2, p - 2, p))
    denom = s * (ring.one - s)
    return -(a * a * a) * half_inv * (denom * denom).inverse()


def _li2p_closed_form(ring, s, a):
    ratio = a * (s * (ring.one - s)).inverse()
    return ratio ** ring.characteristic * pounds1(s)


def li2(b: BlochSym, ring=None):
    """The additive dilogarithm on symbols over R[t]/(t^2): -a^3/(2 s^2 (1-s)^2)."""
    return _symbol_sum(b, ring, "li2", _li2_closed_form)


def li2p(b: BlochSym, ring=None):
    """The characteristic-p dilogarithm: (a/(s(1-s)))^p * pounds1(s)."""
    return _symbol_sum(b, ring, "li2p", _li2p_closed_form)


def _via_lift(b: BlochSym, seed: int, deep: bool):
    """The dilogarithm as the wedge functional of delta of a random lift:
    ell_p at depth p when ``deep``, else ell at depth 3."""
    name = "li2p" if deep else "li2"
    fn = ell_p if deep else ell
    rng = spawn(seed, name + "-lift")
    value = None
    for k, x in b.terms:
        if x.m != 2:
            raise NotFlat(f"{name} generators live over R[t]/(t^2)")
        lifted = x.random_extended(x.ring.characteristic if deep else 3, rng)
        if not flat_check(lifted):
            raise LiftNotFlat("random lift left the flat locus")
        term = x.ring.from_int(k) * fn(delta(symbol(lifted)))
        value = term if value is None else value + term
    return value


def li2_via_lift(b: BlochSym, seed: int = 0):
    """li2 through an arbitrary lift to R[t]/(t^3) and the ell functional."""
    return _via_lift(b, seed, deep=False)


def li2p_via_lift(b: BlochSym, seed: int = 0):
    """li2p through an arbitrary lift to R[t]/(t^p) and the ell_p functional."""
    return _via_lift(b, seed, deep=True)
