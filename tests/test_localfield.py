import pytest

from charp_dilog.gf import (
    Poly,
    factor_squarefree_irreducibles,
    is_irreducible,
    residue_field,
    trace_to_base,
)
from charp_dilog.localfield import (
    INF,
    InsufficientPrecision,
    OneForm,
    RatFn,
    RatFnRing,
    ZeroArgument,
    cartier,
    expand_at,
    is_exact_form,
    residue_at,
)
from charp_dilog.rng import spawn


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
        f = R5.random_element(rng, 3, 3)
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
        g = R5.random_element(rng, 3, 3)
        assert is_exact_form(OneForm(g.derivative()))
    # Cartier fixes dlog forms
    for _ in range(20):
        f = R5.random_element(rng, 2, 2)
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
            assert len(one.coeffs) == 1 and not one.coeff(val).is_zero
            e = _check_times_denominator(f, center, val + rng.randrange(2 * p + 1))
            assert e.field == (F7 if center is INF else field)
        checked += 1
