import pytest

from charp_dilog import bloch
from charp_dilog.bloch import (
    BlochSym,
    DifferenceNotUnit,
    NotFlat,
    delta,
    five_term,
    flat_check,
    li2,
    li2_via_lift,
    li2p,
    li2p_via_lift,
    pounds1,
    symbol,
)
from charp_dilog.gf import Fq
from charp_dilog.localfield import RatFn, RatFnRing
from charp_dilog.rng import spawn
from charp_dilog.sampling import rand_flat_pair
from charp_dilog.tpoly import Trunc
from charp_dilog.wedge import WedgeK, ell, ell_p

from oracles import pounds1_direct


def test_flat_examples(F5):
    assert flat_check(Trunc.constant(F5, 2, F5(2)))
    assert not flat_check(Trunc(F5, 2, [1, 3]))
    R = RatFnRing(F5)
    s = R.gen
    assert flat_check(Trunc(R, 2, [s, RatFn.const(F5(2))]))


@pytest.mark.parametrize("m", ["2", "p"])
@pytest.mark.parametrize("name", ["F5", "F25"])
def test_flat_check_matches_the_product_route(request, name, m):
    # x(1-x) is a unit exactly when its constant term x0(1-x0) is nonzero
    field = request.getfixturevalue(name)
    m = 2 if m == "2" else field.p
    rng = spawn(6, "flat-product", name, m)
    one = Trunc.one(field, m)
    for x0 in field.elements():
        x = Trunc(field, m, [x0] + [field.random_element(rng) for _ in range(m - 1)])
        assert flat_check(x) == (x * (one - x)).is_unit


def test_flat_check_matches_the_product_route_over_ratfn_ring(F5):
    R = RatFnRing(F5)
    s = R.gen
    for m in (2, 5):
        one = Trunc.one(R, m)
        for x0 in (R.zero, R.one, s, R.one - s, s * s, R.one / s, RatFn.const(F5(3))):
            x = Trunc(R, m, [x0, s + R.one])
            assert flat_check(x) == (x * (one - x)).is_unit
        assert not flat_check(Trunc(R, m, [(s + R.one) / (s + R.one), s]))


def test_non_flat_generator_is_rejected_when_the_symbol_is_built(F5, F25):
    for field in (F5, F25):
        for x0 in (0, 1):
            x = Trunc(field, 2, [x0, 3])
            with pytest.raises(NotFlat):
                BlochSym(((1, x),))
            with pytest.raises(NotFlat):
                symbol(Trunc(field, 2, [2, 1])) + BlochSym(((4, x),))


def test_five_term_guards(F5):
    x = Trunc(F5, 2, [2, 1])
    with pytest.raises(DifferenceNotUnit):
        five_term(x, Trunc(F5, 2, [2, 3]))
    # a non-flat x or y is NotFlat, not a division error from the derived generators
    for x0 in (0, 1):
        bad = Trunc(F5, 2, [x0, 1])
        with pytest.raises(NotFlat):
            five_term(bad, x)
        with pytest.raises(NotFlat):
            five_term(x, bad)


def test_five_term_arguments_flat(F7):
    rng = spawn(0, "ft-flat")
    for _ in range(100):
        x, y = rand_flat_pair(F7, rng)
        sym = five_term(x, y)
        assert len(sym.terms) == 5
        assert [k for k, _ in sym.terms] == [1, -1, 1, -1, 1]
        assert all(flat_check(arg) for _, arg in sym.terms)


def test_delta_linearity(F5):
    x = Trunc(F5, 2, [2, 1])
    two = symbol(x) + symbol(x)
    d = delta(two)
    assert len(d.terms) == 2
    one = Trunc.one(F5, 2)
    assert all(entries == (one - x, x) for _, entries in d.terms)


def test_pounds1_direct_sum_oracle(F5, F7, F25):
    for field in (F5, F7, F25):
        for x in field.elements():
            assert pounds1(x) == pounds1_direct(x)
        assert pounds1(field.zero).is_zero
        assert pounds1(field.one).is_zero  # sum of inverses of 1..p-1 vanishes


def test_li2_zero_when_tangent_vanishes(F5):
    assert li2(symbol(Trunc(F5, 2, [3, 0]))).is_zero
    assert li2p(symbol(Trunc(F5, 2, [3, 0]))).is_zero


@pytest.mark.parametrize("p", [5, 7])
def test_closed_forms_match_lift_routes(p):
    field = Fq(p)
    rng = spawn(1, "dual", p)
    for trial in range(60):
        x, _ = rand_flat_pair(field, rng)
        b = symbol(x)
        assert li2(b) == li2_via_lift(b, seed=trial)
        assert li2p(b) == li2p_via_lift(b, seed=trial)


def test_lift_route_is_lift_independent(F5):
    rng = spawn(2, "lift-indep")
    x, _ = rand_flat_pair(F5, rng)
    b = symbol(x)
    values2 = {li2_via_lift(b, seed=s).raw for s in range(5)}
    valuesp = {li2p_via_lift(b, seed=s).raw for s in range(5)}
    assert len(values2) == 1 and len(valuesp) == 1


def test_li2p_equals_ell_p_delta_of_flat_lift(F5):
    # the factorization through the boundary map, at one explicit lift
    x = Trunc(F5, 2, [2, 3])
    lifted = Trunc(F5, 5, [*x.coeffs, F5(1), F5(4), F5(2)])
    assert ell_p(delta(symbol(lifted))) == li2p(symbol(x))


def test_dilogarithms_additive(F5):
    rng = spawn(3, "add")
    x, y = rand_flat_pair(F5, rng)
    s = symbol(x) + symbol(y)
    assert li2(s) == li2(symbol(x)) + li2(symbol(y))
    assert li2p(s) == li2p(symbol(x)) + li2p(symbol(y))
    assert li2(BlochSym(((-1, x),))) == -li2(symbol(x))


def test_scaling_law_on_generators(F5):
    # t -> lam t multiplies li2 by lam^3 and li2p by lam^p
    rng = spawn(4, "scale")
    p = 5
    for _ in range(40):
        x, _ = rand_flat_pair(F5, rng)
        for lam_raw in range(1, p):
            lam = F5(lam_raw)
            scaled = Trunc(F5, 2, [x.coeffs[0], x.coeffs[1] * lam])
            assert li2(symbol(scaled)) == lam ** 3 * li2(symbol(x))
            assert li2p(symbol(scaled)) == lam ** p * li2p(symbol(x))


def test_five_term_vanishing_over_ratfn_ring(F5, monkeypatch):
    # the relation also dies over a rational coefficient field
    R = RatFnRing(F5)
    s = R.gen
    x = Trunc(R, 2, [s, R.one])
    y = Trunc(R, 2, [s * s, RatFn.const(F5(3))])
    sym = five_term(x, y)
    assert li2(sym).is_zero
    # li2p's pounds1 runs over a finite field only, and li2p says so before any arithmetic
    monkeypatch.setattr(bloch, "_li2p_value", lambda x: pytest.fail("li2p computed a value"))
    with pytest.raises(TypeError, match="li2p needs generators over a finite field"):
        li2p(sym)


def _value(fn, arg):
    # the lift routes take the seed of their lift
    return fn(arg, 0) if fn in (li2_via_lift, li2p_via_lift) else fn(arg)


@pytest.mark.parametrize("fn", [li2, li2p, li2_via_lift, li2p_via_lift])
def test_dilogarithms_take_generators_over_depth_two(F5, fn):
    # a flat generator of R[t]/(t^3) is no argument of the dilogarithms
    deep = symbol(Trunc(F5, 2, [2, 1])) + symbol(Trunc(F5, 3, [2, 1, 1]))
    with pytest.raises(NotFlat, match="live over"):
        _value(fn, deep)


@pytest.mark.parametrize("fn", [li2, li2p, li2_via_lift, li2p_via_lift, ell, ell_p])
def test_empty_sum_without_a_ring_raises(fn):
    # an empty symbol or wedge has no entry to take the ring of its zero from
    with pytest.raises(ValueError):
        _value(fn, WedgeK(()) if fn in (ell, ell_p) else BlochSym(()))
