import itertools
import math
import operator

import pytest

from charp_dilog import gf, localfield
from charp_dilog.gf import (
    Fq,
    Poly,
    factor_squarefree_irreducibles,
    is_irreducible,
    residue_field,
    trace_to_base,
)
from charp_dilog.gf import CtxMismatch, DivisionByZero
from charp_dilog.localfield import (
    INF,
    InsufficientPrecision,
    LaurentLocal,
    LaurentRing,
    OneForm,
    RatFn,
    RatFnRing,
    ZeroArgument,
    _ZERO,
    cartier,
    expand_at,
    germs_at_zero,
    is_exact_form,
    residue_at,
)
from charp_dilog.omega import res_omega_pair
from charp_dilog.rng import spawn
from charp_dilog.sampling import rand_good_lifting_pair
from charp_dilog.tpoly import NonUnitConstantTerm, Trunc
from charp_dilog.wedge import ell_p, res_local, wedge

from oracles import EagerFraction, germ_dot_fold, schoolbook


@pytest.fixture
def R5(F5):
    return RatFnRing(F5)


def test_derive_examples(R5, F5):
    s = R5.gen
    assert (s * s).derivative() == 2 * s
    assert RatFn.const(F5(3)).dlog().is_zero
    assert (s ** 5).derivative().is_zero  # d(s^p) = 0 in characteristic p


def test_dlog_additive(R5):
    rng = spawn(0, "dlog")
    for _ in range(50):
        f = R5.random_element(rng)
        g = R5.random_element(rng)
        if f.is_zero or g.is_zero:
            continue
        assert (f * g).dlog().fn == (f.dlog() + g.dlog()).fn


def test_dlog_zero_argument(R5):
    with pytest.raises(ZeroArgument):
        R5.zero.dlog()


def test_expand_basic(R5, F5):
    s = R5.gen
    e = expand_at(s.inverse(), F5.zero, 3)
    assert e.val == -1 and e.coeff(-1) == F5.one and e.prec == 4
    e = expand_at((R5.one - s).inverse(), F5.zero, 2)
    assert [e.coeff(i) for i in range(3)] == [F5.one, F5.one, F5.one]


def test_expand_at_infinity_substitution_oracle(R5, F5):
    # s/(s+1) at infinity: substitute w = 1/s by hand: 1/(1+w) = 1 - w + w^2 - ...
    s = R5.gen
    f = s / (s + 1)
    e = expand_at(f, INF, 2)
    assert [e.coeff(i) for i in range(3)] == [F5.one, -F5.one, F5.one]


def test_expand_precision_guard(R5, F5):
    e = expand_at(R5.gen, F5.zero, 2)
    with pytest.raises(InsufficientPrecision):
        e.coeff(3)
    assert e.coeff(0).is_zero  # exactly zero below the valuation


def test_residue_examples(R5, F5):
    s = R5.gen
    assert residue_at(s.dlog(), F5.zero) == F5.one
    assert residue_at(OneForm(R5.one), F5.zero).is_zero
    assert residue_at(OneForm(R5.one), INF).is_zero
    # ds has residue 0 at every point including infinity; 1/s^2 ds too
    assert residue_at(OneForm(s ** -2), F5.zero).is_zero
    assert residue_at(OneForm(s ** -2), INF).is_zero
    # ds/s at infinity: -du/u, residue -1
    assert residue_at(s.dlog(), INF) == -F5.one


def test_residue_at_higher_degree_point(F5):
    R = RatFnRing(F5)
    pi = Poly(F5, [1, 0, 1])  # irreducible over F_5? 1 + s^2... no: has roots +-2
    pi = Poly(F5, [2, 0, 1])  # s^2 + 2 is irreducible over F_5
    f = RatFn(Poly(F5, [1]), pi)
    r = residue_at(OneForm(f), pi)
    assert r.field.degree == 2
    # res of dlog(pi) at pi is ord = 1 in the residue field
    assert residue_at(RatFn(pi).dlog(), pi) == r.field.one


def test_residue_of_dlog_is_order(R5, F5):
    rng = spawn(1, "dlog-ord")
    for _ in range(100):
        f = R5.random_element(rng, 3)
        if f.is_zero:
            continue
        fr = f.reduced()
        support = set()
        for poly in (fr.num, fr.den):
            if poly.degree >= 1:
                for pi, _ in factor_squarefree_irreducibles(poly):
                    support.add(pi)
        for pi in support:
            res = residue_at(f.dlog(), pi)
            n = f.ord_at(pi)
            assert res == res.field.from_int(n)


def test_global_residue_theorem(R5, F5):
    rng = spawn(2, "global-res")
    for _ in range(100):
        num = Poly(F5, [F5.random_element(rng) for _ in range(7)])
        den = Poly(F5, [F5.random_element(rng) for _ in range(9)])
        if num.is_zero or den.degree < 1:
            continue
        form = OneForm(RatFn(num, den))
        total = F5.zero
        for pi, _ in factor_squarefree_irreducibles(form.fn.reduced().den):
            r = residue_at(form, pi)
            total = total + (r if r.field == F5 else trace_to_base(r))
        total = total + residue_at(form, INF)
        assert total.is_zero


def test_partial_fraction_reassembly(R5, F5):
    # split denominators: recombining principal parts and the polynomial part
    # reproduces the function exactly
    rng = spawn(3, "parfrac")
    s = R5.gen
    for _ in range(40):
        roots = []
        for c in F5.elements():
            if rng.random() < 0.5:
                roots.append(c)
        if not roots:
            roots = [F5.one]
        num = Poly(F5, [F5.random_element(rng) for _ in range(len(roots) + 2)])
        den = Poly(F5, [1])
        for r in roots:
            den = den * Poly(F5, [-r, 1])
        if num.is_zero:
            continue
        f = RatFn(num, den)
        polypart, rem = divmod(f.reduced().num, f.reduced().den)
        rebuilt = RatFn(polypart)
        for r in roots:
            e = expand_at(f, r, -1)
            for k in range(e.val, 0):
                rebuilt = rebuilt + e.coeff(k) * (s - r) ** k
        assert rebuilt == f


def test_cartier_kernel_is_exact(R5, F5):
    rng = spawn(4, "cartier")
    s = R5.gen
    assert not is_exact_form(OneForm(s ** 4))       # s^(p-1) ds is not a derivative
    assert not is_exact_form(s.dlog())              # logarithmic form
    for _ in range(40):
        g = R5.random_element(rng, 3)
        assert is_exact_form(OneForm(g.derivative()))
    # Cartier fixes dlog forms
    for _ in range(20):
        f = R5.random_element(rng, 2)
        if f.is_zero:
            continue
        assert cartier(f.dlog()).fn == f.dlog().fn


def test_lazy_reduction_invariants(R5, F5):
    s = R5.gen
    a = (s + 1) * (s + 2) / ((s + 2) * (s + 3))
    b = (s + 1) / (s + 3)
    assert a == b
    assert a.reduced().num == b.reduced().num
    assert a.ord_at(F5(-2)) == 0
    assert hash(a) == hash(b)


def test_order_is_taken_only_at_a_closed_point(R5, F5):
    # s^2 is not irreducible, s^2 + 1 = (s + 2)(s + 3) over F_5, 2s + 1 is not monic
    f = R5.gen ** 3
    for pi in ([0, 0, 1], [1, 0, 1], [1, 2]):
        with pytest.raises(ValueError, match="irreducible"):
            f.ord_at(Poly(F5, pi))
    assert f.ord_at(Poly(F5, [0, 1])) == f.ord_at(F5.zero) == 3
    assert f.ord_at(INF) == -3


def test_constants_are_built_without_a_gcd(monkeypatch, F5, F25):
    # c/1 is already in normal form: no constructor of a constant, and no
    # int or field-element operand, runs Euclid
    calls = []
    gcd = Poly.gcd
    monkeypatch.setattr(Poly, "gcd", lambda a, b: calls.append(1) or gcd(a, b))
    for field in (F5, F25):
        ring = RatFnRing(field)
        s, c = ring.gen, field.from_int(2) if field.base is None else field.gen()
        values = [RatFn.const(c), RatFn.from_int(field, 3), ring.zero, ring.one, ring.embed(c),
                  ring.from_int(-2), s + 1, 2 - s, s * c, 3 * s, s / 4, c / s]
        assert values[2].is_zero and values[3] == 1 and values[-1] * s == c
        assert values[4] == values[0] and values[5] == -2 and values[6] - 1 == s
    assert calls == []


def test_repr_is_the_reduced_form(R5, F5):
    # the printed text depends on the value, not on the route that built it
    s = R5.gen
    a = RatFn(Poly(F5, [1, 2]), Poly(F5, [3, 0, 1]))
    b = RatFn(Poly(F5, [4]), Poly(F5, [1, 1]))
    for x in (a + b, a * b - a, (a + b).derivative(), (s + 1) * (s + 2) / ((s + 2) * (s + 3))):
        assert repr(x) == repr(x.reduced())
        assert repr(x - x) == "(0)"
    assert repr((s + 1) * (s + 2) / ((s + 2) * (s + 3))) == repr((s + 1) / (s + 3))


def _random_poly(field, rng, degree, monic=False):
    while True:
        coeffs = [field.random_element(rng) for _ in range(degree)]
        f = Poly(field, coeffs + [field.one if monic else field.random_element(rng)])
        if not f.is_zero:
            return f


def _factored_values(field, rng):
    """Nonzero values over the bases B, B*C and C, which share factors, with
    their sums, products, quotients and derivatives, so most are not normal
    forms and some carry a factor that cancels."""
    B, C = (_random_poly(field, rng, rng.randrange(1, 3), monic=True) for _ in range(2))
    a, b, c = (RatFn(_random_poly(field, rng, rng.randrange(0, 3)), d) for d in (B, B * C, C * C))
    values = [a, b, c, a + b, b - c, a * b, a.derivative() + c, RatFn(B) * a, (a - b) ** 2]
    values += [x / y for x, y in ((b + c, a + 1), (a, b + c)) if not y.is_zero]
    return [x for x in values if not x.is_zero]


def _same(x, oracle):
    r = x.reduced()
    return (r.num, r.den) == (oracle.num, oracle.den)


@pytest.mark.parametrize("fname", ["F5", "F7", "F25"])
def test_factored_values_obey_the_field_axioms(request, fname):
    field = request.getfixturevalue(fname)
    rng = spawn(30, "ratfn-axioms", fname)
    zero, one = RatFnRing(field).zero, RatFnRing(field).one
    for _ in range(4):
        values = _factored_values(field, rng)
        for x in values:
            assert x + zero == x and x * one == x and (x - x).is_zero and -(-x) == x
            assert x + (-x) == zero and x * x.inverse() == one and x / x == one
        for x, y, z in zip(values, values[1:] + values[:1], values[2:] + values[:2]):
            ex, ey = EagerFraction(x), EagerFraction(y)
            assert x + y == y + x and x * y == y * x
            assert (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert _same(x + y, ex + ey) and _same(x - y, ex - ey) and _same(x * y, ex * ey)
            assert _same(x / y, ex / ey)


@pytest.mark.parametrize("fname", ["F5", "F7", "F25"])
def test_factored_derivative_rules(request, fname):
    field = request.getfixturevalue(fname)
    rng = spawn(31, "ratfn-derivative", fname)
    for _ in range(4):
        values = _factored_values(field, rng)
        for x, y in zip(values, values[1:] + values[:1]):
            dx, dy = x.derivative(), y.derivative()
            assert _same(dx, EagerFraction(x).derivative())
            assert (x * y).derivative() == dx * y + x * dy
            assert (x / y).derivative() == (dx * y - x * dy) / y ** 2


@pytest.mark.parametrize("fname", ["F5", "F7", "F25"])
def test_factored_inverse_and_negative_powers(request, fname):
    field = request.getfixturevalue(fname)
    rng = spawn(32, "ratfn-inverse", fname)
    one = RatFnRing(field).one
    for _ in range(4):
        for x in _factored_values(field, rng):
            inv = x.inverse()
            assert _same(inv, EagerFraction(x).inverse()) and inv.inverse() == x
            for k in (1, 2, 3):
                assert x ** -k == (x ** k).inverse() == one / x ** k
                assert x ** -k * x ** k == one
                assert _same(x ** -k, EagerFraction(x) ** -k)
            assert x ** 0 == one


@pytest.mark.parametrize("fname", ["F5", "F7", "F25"])
def test_zero_and_constant_operands_match_the_eager_oracle(request, fname):
    # _factored_values holds no zero: here zeros and constants, in normal
    # form and carrying bases (x/x), meet the factored values
    field = request.getfixturevalue(fname)
    rng = spawn(35, "ratfn-zero", fname)
    zero = RatFnRing(field).zero
    for _ in range(3):
        values = _factored_values(field, rng)
        c = field.random_element(rng)
        c = RatFn.const(field.one if c.is_zero else c)
        for x in values + [c]:
            ex, ez, ec = EagerFraction(x), EagerFraction(zero), EagerFraction(c)
            built_zero, unit = x - x, x / x
            assert built_zero.is_zero and _same(built_zero, ex - ex)
            cases = [(zero * x, ez * ex), (x * 0, ex * 0), (x * built_zero, ex * ez),
                     (x + zero, ex + ez), (zero + x, ez + ex), (zero - x, ez - ex),
                     (x + built_zero, ex), (zero / x, ez / ex),
                     (c.derivative(), ec.derivative()), (zero.derivative(), ez.derivative()),
                     (unit.derivative(), EagerFraction(unit).derivative()),
                     ((unit * c).derivative(), ez), (unit * c + x, ec + ex),
                     (zero ** 0, ez ** 0), (zero ** 3, ez ** 3),
                     (built_zero ** 0, ez ** 0), (built_zero ** 3, ez ** 3), (unit ** 0, ex ** 0)]
            for value, oracle in cases:
                assert _same(value, oracle) and value == RatFn(oracle.num, oracle.den)
            with pytest.raises(DivisionByZero):
                built_zero.inverse()


@pytest.mark.parametrize("fname", ["F7", "F49"])
def test_ratfn_truncation_product_matches_schoolbook(request, fname):
    # RatFnRing's product adds the same partial products in the same order as
    # the schoolbook oracle, so every coefficient keeps its factored form;
    # operands have zero entries and unequal lengths, and n runs past the
    # product length
    field = request.getfixturevalue(fname)
    ring = RatFnRing(field)
    rng = spawn(27, "ratfn-truncation-product", fname)
    for trial in range(12):
        values = _factored_values(field, rng) + [ring.zero] * 3
        a = [rng.choice(values) for _ in range(rng.randrange(1, 6))]
        b = [rng.choice(values) for _ in range(rng.randrange(1, 6))]
        for n in range(1, len(a) + len(b) + 2):
            got, want = ring._raw_mul_low(a, b, n), schoolbook(ring, a, b, n)
            assert ([(x._n, list(x._f.items())) for x in got]
                    == [(y._n, list(y._f.items())) for y in want])


def test_germs_at_zero_gives_up_after_its_doublings(F5):
    # a computation that reads past its germs at every precision raises after
    # the first attempt and _MAX_DOUBLINGS more, each at twice the precision;
    # one that needs the last precision still gets its value
    last = 3 * 2 ** localfield._MAX_DOUBLINGS

    def reads(e, precs):
        def compute(germ):
            x = germ(RatFn.gen(F5))
            precs.append(x.prec)
            return x.coeff(e)
        return compute

    precs = []
    with pytest.raises(InsufficientPrecision):
        germs_at_zero(F5, 3, reads(last, precs))
    assert precs == [3 * 2 ** k for k in range(localfield._MAX_DOUBLINGS + 1)]
    precs.clear()
    assert germs_at_zero(F5, 3, reads(last - 1, precs)).is_zero and precs[-1] == last


@pytest.mark.parametrize("fname", ["F5", "F7", "F25"])
def test_factored_equality_and_hash_follow_the_reduced_form(request, fname):
    field = request.getfixturevalue(fname)
    rng = spawn(33, "ratfn-equality", fname)
    for _ in range(4):
        values = _factored_values(field, rng)
        for x in values:
            r = x.reduced()
            assert x == r and r == x and hash(x) == hash(r) and r.reduced() is r
            assert x != x + 1
        for x, y in itertools.product(values, repeat=2):
            rx, ry = x.reduced(), y.reduced()
            assert (x == y) == ((rx.num, rx.den) == (ry.num, ry.den))
            if x == y:
                assert hash(x) == hash(y)


@pytest.mark.parametrize("fname", ["F5", "F7", "F25"])
def test_expand_at_of_a_factored_value_equals_its_reduced_form(request, fname):
    # centres include the roots of the bases, where a factored value's
    # numerator and denominator can vanish together
    field = request.getfixturevalue(fname)
    rng = spawn(34, "ratfn-expand", fname)
    centers = [field.zero, field.one, field.random_element(rng), INF]
    for _ in range(4):
        values = _factored_values(field, rng)
        roots = [c for x in values for c in field.elements() if x.den.evaluate(c).is_zero]
        for x in values:
            for center in centers + roots[:4]:
                for order in (-1, 2, 5):
                    assert expand_at(x, center, order).raw == \
                        expand_at(x.reduced(), center, order).raw


def _check_times_denominator(f, center, order):
    """Expansion of f times that of its denominator equals the numerator's,
    for every coefficient that f's expansion through ``order`` determines."""
    ef = expand_at(f, center, order)
    num, den = RatFn(f.num), RatFn(f.den)
    vd = expand_at(den, center, 0).val
    top = order + vd
    ed = expand_at(den, center, top - ef.val)
    en = expand_at(num, center, top)
    for k in range(ef.val + vd, top + 1):
        acc = ef.field.zero
        for i in range(ef.val, k - vd + 1):
            acc = acc + ef.coeff(i) * ed.coeff(k - i)
        assert acc == en.coeff(k)
    return ef


@pytest.mark.parametrize("degree", [1, 2])
def test_expand_at_times_denominator_is_numerator(F7, degree):
    # centres in F_7 (degree 1) or in a quadratic residue field; denominators
    # carry the point's polynomial to some power so poles occur
    rng = spawn(11, "expand-product", degree)
    p = F7.p
    while True:
        pi = Poly(F7, [F7.random_element(rng) for _ in range(degree)] + [1])
        if is_irreducible(pi):
            break
    field, theta = residue_field(pi)
    checked = 0
    while checked < 30:
        num = Poly(F7, [F7.random_element(rng) for _ in range(rng.randrange(1, 7))])
        den = Poly(F7, [F7.random_element(rng) for _ in range(rng.randrange(1, 4))])
        if num.is_zero or den.is_zero:
            continue
        f = RatFn(num, den * pi ** rng.randrange(3))
        for center in (theta, field.random_element(rng), INF):
            val = expand_at(f, center, 0).val
            one = _check_times_denominator(f, center, val)
            assert len(one.raw[2]) == 1 and not one.coeff(val).is_zero
            e = _check_times_denominator(f, center, val + rng.randrange(2 * p + 1))
            assert e.field == (F7 if center is INF else field)
        checked += 1


def _germ(ring, val, prec, coeffs):
    return LaurentLocal(ring, (val, prec, tuple(c % ring.field.p for c in coeffs)))


def _known(g):
    return [g.coeff(e).raw for e in range(g.val, g.prec)]


def test_germ_precision_rules(F7):
    ring = LaurentRing(F7, F7.zero)
    a = _germ(ring, -1, 3, [1, 2, 3, 4])    # s^-1 + 2 + 3s + 4s^2 + O(s^3)
    b = _germ(ring, 2, 5, [1, 1, 0])        # s^2 + s^3 + O(s^5)
    prod = a * b                            # known below min(-1 + 5, 2 + 3)
    assert (prod.val, prod.prec) == (1, 4) and _known(prod) == [1, 3, 5]
    total = a + b                           # known below the lower precision
    assert (total.val, total.prec) == (-1, 3) and _known(total) == [1, 2, 3, 5]
    da = a.derivative()                     # d/ds loses one
    assert (da.val, da.prec) == (-2, 2) and _known(da) == [6, 0, 3, 1]
    c = _germ(ring, -1, 3, [0, 0, 2, 1])    # 2s + s^2 + O(s^3): valuation 1
    inv = c.inverse()                       # relative precision 2 is kept
    assert (inv.val, inv.prec) == (-1, 1) and _known(inv) == [4, 5]
    unit = _germ(ring, 1, 3, [2, 1]) * inv  # the same germ, with its valuation
    assert (unit.val, unit.prec) == (0, 2) and _known(unit) == [1, 0]
    for g, e in ((a, 3), (prod, 4), (da, 2), (inv, 1)):
        with pytest.raises(InsufficientPrecision):
            g.coeff(e)
    with pytest.raises(InsufficientPrecision):
        _germ(ring, 0, 3, [0, 0, 0]).inverse()  # the valuation is not among the known
    with pytest.raises(DivisionByZero):
        ring.zero.inverse()


def test_only_the_exact_zero_germ_is_zero(F7):
    ring = LaurentRing(F7, F7.zero)
    s = RatFn.gen(F7)
    one = expand_at(s / s, F7.zero, 4)
    assert one != ring.one and not (one - one).is_zero  # a germ is never a guess
    assert (ring.one - ring.one).is_zero and (ring.zero * one).is_zero
    assert ring.from_int(3).prec == math.inf and (ring.from_int(3) * one).prec == 5
    assert ring.from_int(3).derivative().is_zero
    with pytest.raises(CtxMismatch):
        one + expand_at(s, F7.one, 4)       # germs at different points do not mix


def test_germs_compare_by_value(F7):
    # a germ is its precision and its known coefficients, so the raw's val,
    # its leading zeros and its coefficients from prec on do not count
    ring = LaurentRing(F7, F7.zero)
    same = [_germ(ring, 0, 3, [0, 1]), _germ(ring, 1, 3, [1]), _germ(ring, 1, 3, [1, 0]),
            _germ(ring, -2, 3, [0, 0, 0, 1, 0]), _germ(ring, 1, 3, [1, 0, 5, 6])]
    assert all(g == h for g in same for h in same)
    assert _germ(ring, 1, 2, [1, 5]) == _germ(ring, 1, 2, [1]) == _germ(ring, 0, 2, [0, 1, 3])
    assert _germ(ring, 2, 3, []) == _germ(ring, 0, 3, [0, 0, 0]) == _germ(ring, 5, 3, [4])
    assert _germ(ring, 1, 3, [1]) != _germ(ring, 1, 4, [1])   # another precision
    assert _germ(ring, 1, 3, [1]) != _germ(ring, 1, 3, [2])
    assert _germ(ring, 1, 3, [1]) != _germ(ring, 1, 3, [1, 1])
    # a finite germ never equals an exact one, and the zero germ equals only itself
    assert _germ(ring, 0, 3, [1]) != ring.one and ring.one != _germ(ring, 0, 3, [1])
    assert ring.one == ring.from_int(1) != ring.from_int(2)
    assert ring.zero == ring.zero == LaurentLocal(ring, _ZERO)
    assert ring.zero != _germ(ring, 0, 3, []) and _germ(ring, 5, 3, []) != ring.zero
    assert ring.zero != ring.one and ring.one != ring.zero
    # germs at different points, and non-germs, are never equal
    assert _germ(ring, 1, 3, [1]) != _germ(LaurentRing(F7, F7.one), 1, 3, [1])
    assert ring.one != 1 and ring.one != F7.one


def _operand_kinds(field):
    """What a scalar meets, each as (value, the constant of a scalar c, the
    (operator, scalar first) pairs its type lacks): germs at finite and exact
    precision, a rational function, a polynomial, and truncations over the
    field (one with a non-unit constant term) and over the germs."""
    s, a = RatFn.gen(field), field.gen() if field.base is not None else field(2)
    f, ring = (s + a) / (s * s + 3), LaurentRing(field, field.zero)
    germ = expand_at(f, field.zero, 3)
    exact = LaurentLocal(ring, (0, math.inf, (a.raw,)))

    def germ_of(c):   # the constant germ, by its raw
        c = field(c)
        return ring.zero if c.is_zero else LaurentLocal(ring, (0, math.inf, (c.raw,)))

    return {
        "germ": (germ, germ_of, set()),
        "exact germ": (exact, germ_of, set()),
        "function": (f, lambda c: RatFn.const(field(c)), set()),
        "polynomial": (Poly(field, [1, a, 3]), lambda c: Poly(field, [c]),
                       {("/", True), ("/", False)}),
        "truncation": (Trunc(field, 3, [2, a, 5]), lambda c: Trunc(field, 3, [c]), set()),
        "non-unit truncation": (Trunc(field, 3, [0, a, 5]), lambda c: Trunc(field, 3, [c]), set()),
        "germ truncation": (Trunc(ring, 3, [germ, exact, 1]), lambda c: Trunc(ring, 3, [c]), set()),
    }


@pytest.mark.parametrize("fname", ["F7", "F49"])
def test_scalars_meet_each_kind_as_its_constants(fname, request):
    # a field element or an int, in either order, against each kind gives that
    # kind's type and the value of the same operation on the scalar made a
    # constant of the kind (germs included: c - g, c / g and g ** n run through
    # the germ ring), or the same error; an operator the kind lacks raises
    # TypeError; a germ equals no scalar
    field = request.getfixturevalue(fname)
    ops = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
    scalars = (field(3), 3, field.zero, 0, field.gen() if field.base is not None else field(6))
    for name, (value, const, lacks) in _operand_kinds(field).items():
        for c in scalars:
            k = const(c)
            for sym, op in ops.items():
                for first in (True, False):
                    args, ref = ((c, value), (k, value)) if first else ((value, c), (value, k))
                    if (sym, first) in lacks:
                        with pytest.raises(TypeError):
                            op(*args)
                        continue
                    try:
                        want = op(*ref)
                    except (DivisionByZero, NonUnitConstantTerm) as exc:
                        with pytest.raises(type(exc)):
                            op(*args)
                        continue
                    got = op(*args)
                    assert type(got) is type(value) and got == want, (name, c, sym, first)
            germ = isinstance(value, LaurentLocal)
            assert (c == value) is (value == c) is (False if germ else k == value), (name, c)
        assert value ** 3 == value * value * value and value ** 0 == const(1), name
        with pytest.raises(TypeError):
            value ** field(3)
        if isinstance(value, LaurentLocal):
            assert value ** -2 == (value * value).inverse()


@pytest.mark.parametrize("fname", ["F7", "F49"])
def test_elements_take_only_ints_and_elements_as_operands(fname, request):
    # one operand rule for every arithmetic class: field elements, germs,
    # polynomials, functions and truncations over the field, the germs and
    # the functions take a tuple or list that looks like a raw, a float or a
    # string as no operand, in either order; a function and a polynomial are
    # no operands of each other, over one field or two
    field = request.getfixturevalue(fname)
    s = RatFn.gen(field)
    germ = expand_at((s + 2) / (s + 3), field.zero, 3)
    a = field.gen() if field.base is not None else field(5)
    values = (field(3), a, germ, germ.ring.one, Poly(field, [1, a]), s + a,
              Trunc(field, 3, [2, a]), Trunc(germ.ring, 3, [germ, 1]),
              Trunc(RatFnRing(field), 3, [s, a]))
    ops = (operator.add, operator.sub, operator.mul, operator.truediv)
    for x in values:
        for bad in ((1, 2), [0, 1], 1.5, "1"):
            for op in ops:
                for args in ((x, bad), (bad, x)):
                    with pytest.raises(TypeError):
                        op(*args)
    for poly in (Poly(field, [1, 2]), Poly(Fq(5), [1, 2])):
        for op in ops:
            for args in ((s, poly), (poly, s)):
                with pytest.raises(TypeError):
                    op(*args)


def test_residue_of_a_germ(R5, F5):
    rng = spawn(5, "germ-residue")
    for _ in range(30):
        f = R5.random_element(rng, 3) / R5.gen ** rng.randrange(3)
        if f.is_zero:
            continue
        for point in (F5.zero, F5.one, INF):
            germ = expand_at(f, point, 2)
            assert residue_at(OneForm(germ), point) == residue_at(OneForm(f), point)
        with pytest.raises(CtxMismatch):
            residue_at(OneForm(expand_at(f, F5.zero, 2)), F5.one)
        with pytest.raises(InsufficientPrecision):
            residue_at(OneForm(expand_at(f, F5.zero, -2)), F5.zero)


def _germ_fields() -> dict:
    f5 = Fq(5)
    return {"F5": f5, "F7": Fq(7), "F25": Fq(5, modulus=[2, 0, 1], base=f5),
            "F2^61-1": Fq(2 ** 61 - 1)}


GERM_FIELDS = _germ_fields()


def _top(field):
    """The raw whose ints are all p - 1."""
    return field.p - 1 if field.base is None else (_top(field.base),) * field.degree


def _rand_germ_raw(field, rng, top: bool, constants: tuple):
    """A germ raw: the zero germ, an exact constant, or a finite germ with any
    valuation in -3..3, a precision from two below to five above it and up to
    five coefficients, none in three draws of eight."""
    kind = rng.randrange(6)
    if kind == 0:
        return _ZERO
    if kind == 1:
        return (0, math.inf, (constants[rng.randrange(len(constants))],))
    val = rng.randrange(-3, 4)
    draw = (lambda: _top(field)) if top else (lambda: field.random_element(rng).raw)
    length = max(0, rng.randrange(-2, 6))
    return val, val + rng.randrange(-2, 6), tuple(draw() for _ in range(length))


def _assert_same_germs(ring, got, want):
    """Equal germ values, with the zero germ in the same slots."""
    assert ring._wrap(got) == ring._wrap(want), (got, want)
    assert [g == _ZERO for g in got] == [g == _ZERO for g in want], (got, want)


@pytest.mark.parametrize("name", ["F7", "F49"])
def test_exact_constant_germ_product_matches_the_packed_product(request, name):
    # a product with an exact one-coefficient constant scales the other
    # operand's coefficients; it gives the packed product's val, prec and
    # coefficients, on either side, under a cut at s^below, and between two
    # constants
    field = request.getfixturevalue(name)
    ring = LaurentRing(field, field.zero)
    rng = spawn(26, "constant-germ-product", name)

    def packed(a, b, below):
        (va, na, ca), (vb, nb, cb) = a, b
        prec = min(va + nb, vb + na, below)
        size = min(prec - va - vb, len(ca) + len(cb) - 1)
        return va + vb, prec, tuple(field._raw_mul_low(ca, cb, size) if size > 0 else ())

    scaled = 0
    for trial in range(600):
        c = field.random_element(rng)
        if c.is_zero:
            continue
        c = (0, math.inf, (c.raw,))
        x = _rand_germ_raw(field, rng, trial % 5 == 0, (c[2][0], field.one.raw))
        below = rng.choice([math.inf, rng.randrange(-4, 6)])
        if x == _ZERO:
            assert ring._raw_mul(c, x, below) == ring._raw_mul(x, c, below) == _ZERO
            continue
        want = packed(x, c, below)
        assert ring._raw_mul(c, x, below) == ring._raw_mul(x, c, below) == want, (c, x, below)
        scaled += len(want[2]) > 1
    assert scaled > 50


@pytest.mark.parametrize("name", sorted(GERM_FIELDS))
def test_packed_germ_product_matches_schoolbook(name):
    # the packed product of germ lists gives schoolbook's values, and the zero
    # germ where schoolbook does.  The exact constants are 1 and -1, so
    # constants often cancel inside one coefficient; n runs from 1 (shorter
    # than the operands) to past the product length
    field = GERM_FIELDS[name]
    ring = LaurentRing(field, field.zero)
    one, zero = field.one.raw, field.zero.raw
    constants = (one, field._raw_neg(one))
    rng = spawn(17, "packed-germs", name)
    for trial in range(2000):
        top = trial % 5 == 0
        a = [_rand_germ_raw(field, rng, top, constants) for _ in range(rng.randrange(1, 7))]
        b = [_rand_germ_raw(field, rng, top, constants) for _ in range(rng.randrange(1, 7))]
        n = rng.randrange(1, len(a) + len(b) + 2)
        _assert_same_germs(ring, ring._raw_mul_low(a, b, n), schoolbook(ring, a, b, n))
    # two constants cancel in coefficient 1, which is the zero germ, and in
    # coefficient 2, which then has the finite product's value
    c, minus = (0, math.inf, (one,)), (0, math.inf, (constants[1],))
    finite = (2, 5, (one,))
    a, b = [c, c, finite], [c, minus, c]
    _assert_same_germs(ring, ring._raw_mul_low(a, b, 3), schoolbook(ring, a, b, 3))
    _assert_same_germs(ring, ring._raw_mul_low(a, b, 3)[1:], [_ZERO, finite])
    # a product of two germs with no coefficients ends one past its slot of
    # the packed product: (3, 5, ()) (3, 3, ()) + (1, 4, (x,)) (2, 6, ()) is
    # zero below 6; and where the next slot holds data, reading on would
    # return it
    x = _top(field)
    a, b = [(3, 5, ()), (1, 4, (x,))], [(2, 6, ()), (3, 3, ())]
    _assert_same_germs(ring, ring._raw_mul_low(a, b, 2), schoolbook(ring, a, b, 2))
    _assert_same_germs(ring, ring._raw_mul_low(a, b, 2)[1:], [(3, 6, (zero,) * 3)])
    _assert_same_germs(ring, ring._raw_mul_low([_ZERO, c], b, 2), [_ZERO, (2, 6, ())])
    a, b = [(1, 6, ()), (0, 9, (x,)), (0, 9, (x,))], [(0, 9, (x,)), (1, 6, ()), _ZERO]
    _assert_same_germs(ring, ring._raw_mul_low(a, b, 3), schoolbook(ring, a, b, 3))
    assert LaurentLocal(ring, ring._raw_mul_low(a, b, 3)[1]).coeff(1).is_zero
    # slot 0's one product has no coefficients and its window ends before the
    # packed product starts; a negative end would read from the far end
    a = [(0, 3, ()), (0, 5, (x,)), (0, 5, (x,))]
    _assert_same_germs(ring, ring._raw_mul_low(a, a, 5), schoolbook(ring, a, a, 5))


@pytest.mark.parametrize("p", [5, 7])
def test_germ_truncation_products_are_one_packed_call(monkeypatch, p):
    # on the residue pairing of congruent liftings, every product of germ
    # truncations over F_p is one _rmul_packed call
    field = Fq(p)
    ring = RatFnRing(field)
    packed, germ_product = gf._rmul_packed, LaurentRing._raw_mul_low
    calls, per_product = [], []

    def spy_product(self, a, b, n):
        before = len(calls)
        out = germ_product(self, a, b, n)
        per_product.append((self.field, len(calls) - before))
        return out

    monkeypatch.setattr(gf, "_rmul_packed", lambda a, b, q: calls.append(q) or packed(a, b, q))
    monkeypatch.setattr(LaurentRing, "_raw_mul_low", spy_product)
    rng = spawn(17, "one-germ-product", p)
    for _ in range(2):
        qt, qh, st, sh = rand_good_lifting_pair(ring, rng)
        ell_p(res_local(qt, st), ring=field)
        ell_p(res_local(qh, sh), ring=field)
        res_omega_pair(wedge(*qt), wedge(*qh), ring)
    assert per_product and set(per_product) == {(field, 1)}


def _dot_fields() -> dict:
    # F_25 by u^2 + u + 2 (m1 != 0) and F_625 over it (a tower); 251 and
    # 2^32 - 5 sit at a limb edge, as for the one product
    f5 = Fq(5)
    f25 = Fq(5, modulus=[2, 1, 1], base=f5)
    for c in f25.elements():
        try:
            f625 = Fq(5, modulus=[c, f25.one, f25.one], base=f25)
            break
        except ValueError:
            continue
    return {"F5": f5, "F7": Fq(7), "F25": f25, "F625": f625, "F251": Fq(251),
            "F2^32-5": Fq(2 ** 32 - 5)}


DOT_FIELDS = _dot_fields()


def _dot_shapes(field, xs, ys) -> set:
    """The cases of the fold that a germ dot's pairs reach."""
    inf, top, shapes, consts, prefix = math.inf, _top(field), set(), [], None
    for x, y in zip(xs, ys):
        for g in (x, y):
            shapes |= {"zero"} if g == _ZERO else set() if g[2] else {"empty"}
            shapes |= {"prec <= val"} if g[1] <= g[0] < inf else set()
            shapes |= {"negative val"} if g[0] < 0 else set()
            shapes |= {"all p - 1"} if g[1] < inf and g[2] and set(g[2]) == {top} else set()
        if _ZERO in (x, y):
            continue
        if x[1] == y[1] == inf:
            shapes |= {"constant after inexact"} if prefix is not None else set()
            consts.append((x[2][0], y[2][0]))
        elif prefix is None:  # the first inexact product, after the constant prefix
            prefix = consts
            if prefix and field._raw_is_zero(field._raw_dot(*zip(*prefix))):
                shapes.add("cancelling prefix")
    return shapes


def _rand_dot(field, rng, top: bool):
    """Germ lists of one to eight pairs (the second list may be one longer, as
    a dot stops at the shorter); one dot in four starts with exact constants
    c, -c times 1, whose products cancel."""
    one, c = field.one.raw, field.zero.raw
    while field._raw_is_zero(c):
        c = field.random_element(rng).raw
    constants = (one, field._raw_neg(one), c, field._raw_neg(c))
    k = rng.randrange(1, 9)
    xs = [_rand_germ_raw(field, rng, top, constants) for _ in range(k)]
    ys = [_rand_germ_raw(field, rng, top, constants) for _ in range(k + rng.randrange(2))]
    if rng.randrange(4) == 0:
        exact = [(0, math.inf, (x,)) for x in (c, field._raw_neg(c), one)]
        xs, ys = exact[:2] + xs, [exact[2]] * 2 + ys
    return xs, ys


@pytest.mark.parametrize("name", sorted(DOT_FIELDS))
def test_germ_dot_matches_the_fold(name):
    # the packed germ dot gives the fold of one product and one sum at a
    # time raw for raw: val, prec, length and coefficients, the zero germ and
    # exact constants included, on 1..8 pairs
    field = DOT_FIELDS[name]
    ring = LaurentRing(field, field.zero)
    rng = spawn(40, "germ-dot", name)
    shapes = set()
    for trial in range(1500):
        xs, ys = _rand_dot(field, rng, trial % 5 == 0)
        assert ring._raw_dot(xs, ys) == germ_dot_fold(ring, xs, ys), (xs, ys)
        shapes |= _dot_shapes(field, xs, ys)
    assert shapes == {"zero", "empty", "prec <= val", "negative val", "all p - 1",
                      "constant after inexact", "cancelling prefix"}, shapes
    # a cancelling prefix is forgotten, so val is the inexact product's; a
    # constant after an inexact product lowers val to 0; a product with no
    # coefficients ends the data where it starts
    one, minus = (0, math.inf, (field.one.raw,)), (0, math.inf, (field._raw_neg(field.one.raw),))
    x, top = (2, 6, (_top(field),) * 2), _top(field)
    cases = [([one, one, x], [one, minus, one]), ([x, one], [one, minus]),
             ([(0, 9, (top,)), (1, 9, ())], [(0, 9, (top,)), (3, 9, ())])]
    for xs, ys in cases:
        assert ring._raw_dot(xs, ys) == germ_dot_fold(ring, xs, ys), (xs, ys)
    assert ring._raw_dot(*cases[0])[0] == 2 and ring._raw_dot(*cases[1])[0] == 0
    assert len(ring._raw_dot(*cases[2])[2]) == 4


@pytest.mark.parametrize("name", sorted(DOT_FIELDS))
def test_germ_dot_holds_the_largest_sums(name):
    # eight products of germs whose ints are all p - 1, at lengths where the
    # limb is just wide enough for one product's sums: the limbs hold eight
    field = DOT_FIELDS[name]
    ring = LaurentRing(field, field.zero)
    top = _top(field)
    for length in (1, 2, 255, 341, 1023):
        germs = [(0, length, (top,) * length)] * 8
        assert ring._raw_dot(germs, germs) == germ_dot_fold(ring, germs, germs), length


@pytest.mark.parametrize("p", [5, 7])
def test_germ_dots_are_one_packed_call(monkeypatch, p):
    # on the residue pairing of congruent liftings, every germ dot over F_p
    # (log_circ, the series division of Trunc.inverse and omega_p) with an
    # inexact product is one packed accumulation and no product; a dot of
    # exact constants only is their field dot, packing nothing
    field = Fq(p)
    ring = RatFnRing(field)
    dot, per_dot, calls = LaurentRing._raw_dot, [], []
    packed, product = localfield._rdot, gf._rmul_packed

    def spy_dot(self, xs, ys):
        before = len(calls)
        out = dot(self, xs, ys)
        inexact = any(x[1] < math.inf or y[1] < math.inf for x, y in zip(xs, ys)
                      if _ZERO not in (x, y))
        per_dot.append((inexact, tuple(calls[before:])))
        return out

    monkeypatch.setattr(localfield, "_rdot", lambda *args: calls.append("dot") or packed(*args))
    monkeypatch.setattr(gf, "_rmul_packed", lambda *args: calls.append("mul") or product(*args))
    monkeypatch.setattr(LaurentRing, "_raw_dot", spy_dot)
    rng = spawn(40, "one-germ-dot", p)
    for _ in range(2):
        qt, qh, st, sh = rand_good_lifting_pair(ring, rng)
        ell_p(res_local(qt, st), ring=field)
        ell_p(res_local(qh, sh), ring=field)
        res_omega_pair(wedge(*qt), wedge(*qh), ring)
    assert len(per_dot) > 100 and set(per_dot) == {(True, ("dot",)), (False, ())}, set(per_dot)
