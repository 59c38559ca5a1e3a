"""The one equality and hash law of every arithmetic class (``gf.Arithmetic``).

``==`` between library values never raises and is symmetric; values of
different rings (field, m, center or kind) compare False; a scalar compares
as the constant that the class reads it as; equal values hash equal, ints in
[0, p) included, so ``x in {y}`` agrees with ``x == y``.  Germs keep their
precision rule: a germ equals no scalar, and germs and truncations of germs
hash nothing.
"""

import itertools
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from charp_dilog.gf import CtxMismatch, Fq, FqElem, Poly
from charp_dilog.localfield import INF, LaurentLocal, LaurentRing, RatFn, RatFnRing
from charp_dilog.tpoly import Trunc

F5, F7 = Fq(5), Fq(7)
F25 = Fq(5, modulus=[2, 0, 1], base=F5)
FIELDS = (F5, F7, F25)
KINDS = ("int", "element", "poly", "trunc", "function", "germ", "germ trunc", "function trunc")
GERM_CENTERS = (0, 1)


def _germ(ring, val, prec, coeffs):
    return LaurentLocal(ring, (val, prec, tuple(ring.field(c).raw for c in coeffs)))


# probes of the rules this law replaced: F5(1) == 1 but 1 was not in {F5(1)};
# Poly(F5, [2]) == F5(2) hashed apart; a Poly or RatFn met another field's
# value with CtxMismatch; two truncations of equal germs compared their raws
GERMS5 = LaurentRing(F5, F5.zero)
PROBES = (
    (F5(1), 1),
    (Poly(F5, [2]), F5(2)),
    (Poly(F5, [1]), F7(1)),
    (RatFn.gen(F5), RatFn.gen(F7)),
    (F5(1), F7(1)),
    (Trunc(GERMS5, 2, [_germ(GERMS5, 0, 4, [0, 1])]), Trunc(GERMS5, 2, [_germ(GERMS5, 1, 4, [1])])),
)


def _field_of(v):
    if isinstance(v, Trunc):
        return v.ring if isinstance(v.ring, Fq) else v.ring.field
    return v.field


def _is_germy(v):
    return isinstance(v, LaurentLocal) or (isinstance(v, Trunc) and isinstance(v.ring, LaurentRing))


@st.composite
def _scalar(draw, field):
    """A field element, often in the prime subfield."""
    c = draw(st.integers(0, field.p - 1))
    if field.base is not None and draw(st.booleans()):
        return field.from_coeffs([c, draw(st.integers(0, field.p - 1))])
    return field(c)


@st.composite
def _coeffs(draw, elem, top):
    """Up to ``top`` coefficients from ``elem``, often a constant."""
    n = draw(st.sampled_from([0, 1, 1, 1, top]))
    return [draw(elem) for _ in range(n)]


@st.composite
def _function(draw, field):
    num = Poly(field, draw(_coeffs(_scalar(field), 3)))
    den = Poly(field, draw(_coeffs(_scalar(field), 2)))
    return RatFn(num, den) if not den.is_zero else RatFn(num)


@st.composite
def _germ_of(draw, ring):
    """A germ at finite precision, an exact constant or zero."""
    shape = draw(st.sampled_from(["finite", "finite", "exact", "zero"]))
    if shape == "zero":
        return ring.zero
    if shape == "exact":
        c = draw(_scalar(ring.field))
        return ring.zero if c.is_zero else LaurentLocal(ring, (0, math.inf, (c.raw,)))
    val, prec = draw(st.integers(0, 1)), draw(st.integers(2, 3))
    return _germ(ring, val, prec, draw(_coeffs(_scalar(ring.field), 3)))


@st.composite
def _value(draw, field, kind):
    if kind == "int":
        return draw(st.integers(0, field.p - 1))
    if kind == "element":
        return draw(_scalar(field))
    if kind == "poly":
        return Poly(field, draw(_coeffs(_scalar(field), 3)))
    if kind == "function":
        return draw(_function(field))
    m = draw(st.integers(2, 3))
    if kind == "trunc":
        return Trunc(field, m, draw(_coeffs(_scalar(field), m)))
    if kind == "function trunc":
        return Trunc(RatFnRing(field), m, draw(_coeffs(_function(field), m)))
    ring = LaurentRing(field, field(draw(st.sampled_from(GERM_CENTERS))))
    if kind == "germ":
        return draw(_germ_of(ring))
    return Trunc(ring, m, draw(_coeffs(_germ_of(ring), m)))


def _variant(v):
    """The same value by another route: a function times and over a factor, a
    germ's raw with a leading zero, a truncation rebuilt from its coefficients."""
    if isinstance(v, RatFn):
        g = RatFn.gen(v.field) + 1
        return v * g / g
    if isinstance(v, LaurentLocal):
        val, prec, c = v.raw
        if prec == math.inf:
            return v
        return LaurentLocal(v.ring, (val - 1, prec, (v.field.zero.raw,) + c))
    if isinstance(v, Trunc):
        return Trunc(v.ring, v.m, [_variant(c) for c in v.coeffs])
    if isinstance(v, Poly):
        return Poly(v.field, [FqElem(v.field, c) for c in v.coeffs])
    return v


def _as_kind(c, kind, m):
    """The field element c as a constant of ``kind``; an int stands for c only in
    the prime subfield, and c stands for itself otherwise."""
    field, germs = c.field, LaurentRing(c.field, c.field.zero)
    if kind == "int":
        return c.raw if field.base is None else c.raw[0] if c.raw[1] == 0 else c
    if kind == "element":
        return c
    if kind == "germ":
        return germs.zero if c.is_zero else LaurentLocal(germs, (0, math.inf, (c.raw,)))
    ring = {"trunc": field, "function trunc": RatFnRing(field), "germ trunc": germs}.get(kind)
    if ring is not None:
        return Trunc(ring, m, [c])
    return Poly(field, [c]) if kind == "poly" else _variant(RatFn.const(c))


@st.composite
def _pairs(draw):
    field = draw(st.sampled_from(FIELDS))
    how = draw(st.sampled_from(["variant", "same field", "any field", "one constant"]))
    if how == "one constant":  # one scalar as two kinds, so that they meet as equals
        c, m = draw(_scalar(field)), draw(st.integers(2, 3))
        return tuple(_as_kind(c, draw(st.sampled_from(KINDS)), m) for _ in range(2))
    x = draw(_value(field, draw(st.sampled_from(KINDS))))
    if how == "variant":
        return x, _variant(x)
    if how == "any field":
        field = draw(st.sampled_from(FIELDS))
    return x, draw(_value(field, draw(st.sampled_from(KINDS))))


def _hash(v):
    try:
        return hash(v)
    except TypeError:
        return None


@settings(max_examples=300)
@given(pair=_pairs())
@example(pair=PROBES[0])
@example(pair=PROBES[1])
@example(pair=PROBES[2])
@example(pair=PROBES[3])
@example(pair=PROBES[4])
@example(pair=PROBES[5])
def test_one_equality_and_hash_law(pair):
    x, y = pair
    eq = x == y
    assert isinstance(eq, bool) and (y == x) is eq and (x != y) is not eq and (y != x) is not eq
    hx, hy = _hash(x), _hash(y)
    for v, h in ((x, hx), (y, hy)):
        assert (h is None) is _is_germy(v), v  # germs, and truncations of germs, hash nothing
    # the law covers an int in [0, p) of the other value's field
    ints = [v for v in pair if isinstance(v, int)]
    covered = len(ints) != 1 or ints[0] < _field_of(y if ints[0] is x else x).p
    if hx is not None and hy is not None and covered:
        assert (x in {y}) is eq and (y in {x}) is eq
        if eq:
            assert hx == hy
    for a, b in ((x, y), (y, x)):  # _equal agrees with the keys, where a reads b
        if isinstance(a, (int, LaurentLocal)):
            continue
        try:
            lifted = a._lift(b)
        except CtxMismatch:
            continue
        if lifted is not NotImplemented:
            assert (a._key() == lifted._key()) is eq
    if not ints and _field_of(x) != _field_of(y):
        assert not eq  # values of different fields
    if isinstance(x, Trunc) and isinstance(y, Trunc) and (x.m != y.m or x.ring != y.ring):
        assert not eq
    if isinstance(x, LaurentLocal) and isinstance(y, LaurentLocal) and x.ring != y.ring:
        assert not eq  # germs at different points
    if any(isinstance(v, LaurentLocal) for v in pair) and any(
            isinstance(v, (int, FqElem)) for v in pair):
        assert not eq  # a germ equals no scalar
    assert x == _variant(x) and _variant(x) == x


def test_probes_of_the_old_rules_give_the_laws_answers():
    one_in_five, poly_const, poly_f7, gens, elems, germ_truncs = PROBES
    assert one_in_five[0] == 1 and 1 in {F5(1)} and hash(F5(1)) == 1
    a, b = poly_const
    assert a == b and b == a and hash(a) == hash(b) == hash(2)
    for x, y in (poly_f7, gens, elems):
        assert not (x == y) and not (y == x) and x != y
    a, b = germ_truncs
    assert a.coeffs[0].raw != b.coeffs[0].raw and a.coeffs[0] == b.coeffs[0]
    assert a == b and b == a and a.congruent(b, 1) and b.congruent(a, 2)
    for t in germ_truncs:
        with pytest.raises(TypeError):
            hash(t)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_a_constant_truncation_equals_its_scalar(field):
    # Trunc + 1 reads 1 as the constant truncation, and so does ==; it hashes
    # as the scalar, and a truncation with a nonzero t-coefficient equals none
    c = field.gen() if field.base is not None else field(3)
    for m in (2, 3):
        t = Trunc(field, m, [c])
        assert t == c and c == t and hash(t) == hash(c) and t in {c}
        assert Trunc(field, m, [2]) == 2 and hash(Trunc(field, m, [2])) == hash(2)
        assert Trunc(field, m, [2, 1]) != 2 and Trunc(field, m, [2, 1]) != Trunc(field, m, [2])
        assert Trunc(field, m, []) == 0 and hash(Trunc(field, m, [])) == 0
    assert Trunc(field, 2, [1]) != Trunc(field, 3, [1])
    ring = RatFnRing(field)
    s = ring.gen
    assert Trunc(ring, 2, [s]) == s and hash(Trunc(ring, 2, [s])) == hash(s)
    assert Trunc(ring, 2, [ring.one]) == 1 and hash(Trunc(ring, 2, [ring.one])) == 1


def test_rings_compare_by_value_and_never_raise():
    # a ring's value is its gf.Ring._key: rings built apart compare and hash
    # as one, and rings of different kinds never compare equal
    f25 = Fq(5, modulus=[2, 0, 1], base=Fq(5))
    same = ((f25, F25), (LaurentRing(F5, 0), LaurentRing(F5, F5(0))),
            (LaurentRing(F5, INF), LaurentRing(Fq(5), INF)), (RatFnRing(F5), RatFnRing(Fq(5))))
    for a, b in same:
        assert a is not b and a == b and b == a and not a != b and hash(a) == hash(b), (a, b)
    kinds = (Fq(5), RatFnRing(Fq(5)), LaurentRing(Fq(5), 0))
    # v^2 - u over F_5[u]/(u^2 - 2) and over F_5[u]/(u^2 - 3): one modulus raw, two bases
    towers = [Fq(5, modulus=[(0, -1), 0, 1], base=Fq(5, modulus=[-c, 0, 1], base=F5)) for c in (2, 3)]
    assert towers[0].modulus == towers[1].modulus
    apart = [tuple(towers), *itertools.permutations(kinds, 2), (F5, F7), (F5, F25), (RatFnRing(F5), RatFnRing(F7)),
             (LaurentRing(F5, 0), LaurentRing(F5, 1)), (LaurentRing(F5, 0), LaurentRing(F5, INF)),
             (LaurentRing(F5, 0), LaurentRing(F25, 0))]
    for a, b in apart:
        assert not a == b and a != b, (a, b)
    others = (0, 1, 5, None, "F_5", F5(0), F5(1), Poly(F5, [1]), RatFn.gen(F5), Trunc(F5, 2, [1]),
              GERMS5.one, Trunc(GERMS5, 2, [1]))
    for ring in (*kinds, F25, LaurentRing(F5, INF)):
        for x in others:
            assert not ring == x and not x == ring and ring != x and x != ring, (ring, x)
