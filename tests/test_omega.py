import itertools
import math

import pytest

from charp_dilog import localfield, omega
from charp_dilog.gf import Fq
from charp_dilog.localfield import (LaurentLocal, LaurentRing, OneForm, RatFn, RatFnRing, expand_at,
                                   germs_at_zero, residue_at)
from charp_dilog.omega import (
    CaseTableGap,
    Letter,
    NotCongruentModT2,
    NotDivisible,
    antider_primitive,
    letters_of_unit,
    omega_char0_defect,
    omega_p,
    res_invariance_check,
    res_omega_pair,
    s_coeff,
    sigma_image_letters,
    sigma_letters,
)
from charp_dilog.rng import spawn
from charp_dilog.sampling import (
    rand_good_lifting_pair,
    rand_letter_wedge_entries,
    rand_ratfn,
    rand_sigma_weights,
)
from charp_dilog.suites import _exactness_tuples
from charp_dilog.tpoly import Trunc, trunc_exp
from charp_dilog.wedge import WedgeK, wedge
from oracles import (EagerFraction, EagerRing, omega_p_by_triples, res_omega_difference_global,
                     sigma_image_letters_global, sigma_image_letters_taylor, sigma_image_of_s,
                     substitute_s)


@pytest.fixture
def R5(F5):
    return RatFnRing(F5)


def eletter(ring, a, payload):
    p = ring.characteristic
    if a == 0:
        return Trunc.constant(ring, p, payload)
    return trunc_exp(Trunc(ring, p, [ring.zero] * a + [payload]))


def unit_of(ring, letters):
    """The unit of R[t]/(t^p) that a letter list multiplies out to."""
    u = Trunc.one(ring, ring.characteristic)
    for letter in letters:
        u = u * eletter(ring, letter.a, letter.payload)
    return u


def test_three_units_vanish(R5):
    rng = spawn(0, "units")
    us = [eletter(R5, 0, rand_ratfn(R5, rng, nonzero=True)) for _ in range(3)]
    assert omega_p(wedge(*us), R5).is_zero


def test_rule_iii_value(R5, F5):
    # e(alpha t^a) ^ e(beta t^b) ^ h -> alpha b beta dh/h for a + b = p, a > b
    rng = spawn(1, "rule3")
    for a in (3, 4):
        b = 5 - a
        alpha = rand_ratfn(R5, rng)
        beta = rand_ratfn(R5, rng)
        h = rand_ratfn(R5, rng, nonzero=True)
        form = omega_p(wedge(eletter(R5, a, alpha), eletter(R5, b, beta),
                             eletter(R5, 0, h)), R5)
        expected = alpha * b * beta * (h.derivative() / h)
        assert form.fn == expected


def test_rule_v_vi_values(R5):
    rng = spawn(2, "rule56")
    alpha, beta, gamma = (rand_ratfn(R5, rng) for _ in range(3))
    # a > b >= c > 0: (3, 1, 1)
    form = omega_p(wedge(eletter(R5, 3, alpha), eletter(R5, 1, beta),
                         eletter(R5, 1, gamma)), R5)
    expected = alpha * (beta * gamma.derivative() - gamma * beta.derivative())
    assert form.fn == expected
    # a = b > c: (2, 2, 1)
    form = omega_p(wedge(eletter(R5, 2, alpha), eletter(R5, 2, beta),
                         eletter(R5, 1, gamma)), R5)
    expected = gamma * (2 * alpha * beta.derivative() - 2 * beta * alpha.derivative())
    assert form.fn == expected


def test_exponent_sum_must_hit_p(R5):
    rng = spawn(3, "offsum")
    form = omega_p(wedge(eletter(R5, 1, rand_ratfn(R5, rng)),
                         eletter(R5, 1, rand_ratfn(R5, rng)),
                         eletter(R5, 1, rand_ratfn(R5, rng))), R5)
    assert form.is_zero


def test_remark_triple_vanishes(R5, F5):
    s = R5.gen
    one = R5.one
    st = Trunc(R5, 5, [s, -one])
    a = Trunc.constant(R5, 5, one + s ** 4)
    b = Trunc.constant(R5, 5, one + s)
    sa = Trunc.constant(R5, 5, s)
    form = omega_p(WedgeK(((1, (st, a, b)), (-1, (sa, a, b)))), R5)
    assert form.is_zero
    assert residue_at(form, F5.zero).is_zero


def test_alternating_and_multilinear(R5):
    rng = spawn(4, "alt")
    for _ in range(10):
        x = eletter(R5, rng.randrange(1, 5), rand_ratfn(R5, rng))
        y = eletter(R5, rng.randrange(0, 5), rand_ratfn(R5, rng, nonzero=True))
        z = eletter(R5, rng.randrange(0, 5), rand_ratfn(R5, rng, nonzero=True))
        assert omega_p(wedge(x, x, y), R5).is_zero
        assert (omega_p(wedge(x, y, z), R5) + omega_p(wedge(y, x, z), R5)).is_zero
        both = omega_p(wedge(x * y, y, z), R5)
        split = omega_p(WedgeK(((1, (x, y, z)), (1, (y, y, z)))), R5)
        assert (both - split).is_zero


def test_representation_independence(R5):
    # the same unit entered as one truncation or as prepared letters
    rng = spawn(5, "repr")
    for _ in range(10):
        u = eletter(R5, 2, rand_ratfn(R5, rng)) * eletter(R5, 3, rand_ratfn(R5, rng))
        v = eletter(R5, 1, rand_ratfn(R5, rng))
        w = eletter(R5, 0, rand_ratfn(R5, rng, nonzero=True))
        as_trunc = omega_p(wedge(u, v, w), R5)
        as_letters = omega_p(wedge(letters_of_unit(u), letters_of_unit(v),
                                   letters_of_unit(w)), R5)
        assert (as_trunc - as_letters).is_zero


def test_pair_form(R5):
    rng = spawn(6, "pair")
    x = eletter(R5, 2, rand_ratfn(R5, rng))
    y = eletter(R5, 1, rand_ratfn(R5, rng))
    z = eletter(R5, 0, rand_ratfn(R5, rng, nonzero=True))
    # the pair form, first entries' form minus second entries', on the pair
    # (x v, x) in the first slot is the form on v there
    v = eletter(R5, 3, rand_ratfn(R5, rng))
    form = omega_p(wedge(x * v, y, z), R5) - omega_p(wedge(x, y, z), R5)
    assert (form - omega_p(wedge(v, y, z), R5)).is_zero


def test_pair_form_on_displayed_counterexample(R5, F5):
    # the depth-one pair: the pair form vanishes while the deep residue gap is 1
    s = R5.gen
    one = R5.one
    moved = Trunc(R5, 5, [s, -one])
    plain = Trunc.constant(R5, 5, s)
    a = Trunc.constant(R5, 5, one + s ** 4)
    b = Trunc.constant(R5, 5, one + s)
    form = omega_p(wedge(moved, a, b), R5) - omega_p(wedge(plain, a, b), R5)
    assert form.is_zero
    from charp_dilog.wedge import ell_p, res_local
    gap = ell_p(res_local([moved, a, b], moved), ring=F5) - \
        ell_p(res_local([plain, a, b], plain), ring=F5)
    assert gap == F5.one


def test_sigma_identity_for_large_weight(R5):
    rng = spawn(7, "sig-w")
    letters = [Letter(2, rand_ratfn(R5, rng))]
    assert sigma_letters(rand_ratfn(R5, rng), 5, letters, 5) == letters


def test_sigma_rejects_nonpositive_weight(R5):
    for w in (0, -1):
        with pytest.raises(ValueError):
            sigma_letters(R5.gen, w, [Letter(2, R5.gen)], 5)


def test_sigma_rejects_a_p_that_is_not_the_characteristic(R5):
    # at p = 7 over F_5 the ladder ran to exponent 6 with zero payloads
    x = R5.gen + 1
    with pytest.raises(ValueError, match="characteristic"):
        sigma_letters(x, 1, [Letter(0, R5.gen)], 7)
    assert [letter.a for letter in sigma_letters(x, 1, [Letter(0, R5.gen)], 5)] == [0, 1, 2, 3, 4]


def test_sigma_on_coordinate_matches_displayed_formula(R5, F5):
    # sigma(s) = s * prod e(x^i (1/s)^(i-1) / i! t^(iw)) truncated
    x = RatFn.const(F5(2))
    w = 1
    s = R5.gen
    u = Trunc.constant(R5, 5, s)
    moved = unit_of(R5, sigma_letters(x, w, letters_of_unit(u), 5))
    direct = substitute_s(u, sigma_image_of_s(R5, [x] + [R5.zero] * 3))
    assert moved == direct
    assert moved.c0 == s
    assert moved.coeffs[1] == x  # s + x t to first order


def test_sigma_closed_form_equals_substitution(R5):
    rng = spawn(8, "sig-sub")
    for _ in range(15):
        x = rand_ratfn(R5, rng)
        w = rng.randrange(1, 5)
        u = Trunc(R5, 5, [rand_ratfn(R5, rng, nonzero=True)] +
                  [rand_ratfn(R5, rng) for _ in range(4)])
        xs = [R5.zero] * 4
        xs[w - 1] = x
        moved = unit_of(R5, sigma_letters(x, w, letters_of_unit(u), 5))
        assert moved == substitute_s(u, sigma_image_of_s(R5, xs))


def test_sigma_letters_form_matches_substitution(R5):
    rng = spawn(9, "sig-let")
    for _ in range(15):
        x = rand_ratfn(R5, rng)
        w = rng.randrange(1, 5)
        a = rng.randrange(0, 5)
        payload = rand_ratfn(R5, rng, nonzero=(a == 0))
        xs = [R5.zero] * 4
        xs[w - 1] = x
        direct = substitute_s(eletter(R5, a, payload), sigma_image_of_s(R5, xs))
        via_letters = omega_p(wedge(sigma_letters(x, w, [Letter(a, payload)], 5),
                                    [Letter(1, R5.one)], [Letter(4, R5.gen)]), R5)
        via_trunc = omega_p(wedge(direct, eletter(R5, 1, R5.one), eletter(R5, 4, R5.gen)), R5)
        assert (via_letters - via_trunc).is_zero


def test_sigma_image_letters_match_substitution(R5):
    rng = spawn(10, "sig-img")
    for _ in range(10):
        entries = rand_letter_wedge_entries(R5, rng)
        xs = rand_sigma_weights(R5, rng)
        image = sigma_image_of_s(R5, xs)
        for ls in entries:
            direct = substitute_s(unit_of(R5, ls), image)
            via = sigma_image_letters_global(xs, ls, R5)
            assert (omega_p(wedge(via, [Letter(1, R5.one)], [Letter(4, R5.gen)]), R5)
                    - omega_p(wedge(direct, eletter(R5, 1, R5.one),
                                    eletter(R5, 4, R5.gen)), R5)).is_zero


def _assert_same_letters(got, want):
    """The germ letters ``got`` have the exponents of ``want``, and each pair
    agrees on every coefficient that both know, of which there is one at least."""
    assert [g.a for g in got] == [w.a for w in want]
    for g, w in zip(got, want):
        exps = range(min(g.payload.val, w.payload.val), min(g.payload.prec, w.payload.prec))
        assert exps and [g.payload.coeff(k) for k in exps] == [w.payload.coeff(k) for k in exps]


@pytest.mark.parametrize("p", [5, 7, 11, 53])
def test_germ_sigma_image_letters_match_the_global_letters(p):
    # substituting s + delta into the payloads on germs at s = 0 gives, letter
    # by letter, the Taylor ladder's letters on the same germs and the germs of
    # the letters that substituting into the global rational payloads gives;
    # p = 53 takes one draw, as its second alone costs the oracles about 2.5 s
    # (2-vCPU VM, Python 3.11)
    ring = RatFnRing(Fq(p))
    zero = ring.field.zero
    rng = spawn(20, "germ-sigma", p)
    letters = 0
    for _ in range(1 if p > 11 else 10):
        entries = rand_letter_wedge_entries(ring, rng)
        xs = rand_sigma_weights(ring, rng)

        def moved(germ):
            image, delta = (germ(Trunc(ring, p, [c0, *xs])) for c0 in (ring.gen, ring.zero))
            return [(sigma_image_letters(image, ls, germ),
                     sigma_image_letters_taylor(delta, ls, germ)) for ls in entries]

        for ls, (via, taylor) in zip(entries, germs_at_zero(ring.field, p + 1, moved)):
            expected = sigma_image_letters_global(xs, ls, ring)
            assert [g.a for g in via] == [e.a for e in expected]
            germs = [Letter(e.a, expand_at(e.payload, zero, min(g.payload.prec, 3 * p) - 1))
                     for g, e in zip(via, expected)]
            _assert_same_letters(via, taylor)
            _assert_same_letters(via, germs)
            letters += len(via)
    assert letters > 20


@pytest.mark.parametrize("p", [5, 7])
def test_germ_sigma_image_letters_double_past_a_deep_pole(monkeypatch, p):
    # a payload with a pole of order p + 2 at s = 0 leaves the moved letters
    # known only below s^-2 at the first precision p + 1: the residue of their
    # form is read again from germs of twice the precision, and it equals the
    # residue of the form on the globally substituted letters; exponents that
    # sum to p keep that residue nonzero
    ring = RatFnRing(Fq(p))
    rng = spawn(21, "deep-sigma", p)
    deep = ring.gen ** (-(p + 2))
    orders = []
    monkeypatch.setattr(localfield, "expand_at",
                        lambda f, c, n: orders.append(n) or expand_at(f, c, n))
    values = []
    for _ in range(8):
        a = rng.randrange(1, p - 1)
        b = rng.randrange(1, p - a)
        payloads = [rand_ratfn(ring, rng, nonzero=True) * deep, rand_ratfn(ring, rng, nonzero=True),
                    rand_ratfn(ring, rng, nonzero=True)]
        entries = [[Letter(e, x)] for e, x in zip((a, b, p - a - b), payloads)]
        xs = rand_sigma_weights(ring, rng)

        def residue(germ):
            image = germ(Trunc(ring, p, [ring.gen, *xs]))
            moved = wedge(*[sigma_image_letters(image, ls, germ) for ls in entries])
            return residue_at(omega_p(moved, germ.ring), germ.ring.center)

        orders.clear()
        values.append(germs_at_zero(ring.field, p + 1, residue))
        assert sorted(set(orders)) == [p, 2 * p + 1]
        moved = wedge(*[sigma_image_letters_global(xs, ls, ring) for ls in entries])
        assert values[-1] == residue_at(omega_p(moved, ring), ring.field.zero)
    assert sum(not v.is_zero for v in values) > len(values) // 2


def test_s_coeff_safety_and_antisymmetry():
    p = 5
    # k = c = 0 vanishes
    assert s_coeff(2, 3, 0, 1, 2, 0, 1, p) == 0
    for a, b, c in itertools.product(range(p), repeat=3):
        rest = p - (a + b + c)
        if rest <= 0 or rest % 1 != 0:
            continue
        q = rest
        if q % p == 0:
            continue
        for i in range(q + 1):
            for j in range(q + 1 - i):
                k = q - i - j
                v1 = s_coeff(a, b, c, i, j, k, 1, p)
                v2 = s_coeff(b, a, c, j, i, k, 1, p)
                assert (v1 + v2) % p == 0
                if c == 0 and k == 0:
                    assert v1 == 0
                if a == 0 and i == 0:
                    assert v1 == 0
                if b == 0 and j == 0:
                    assert v1 == 0


def test_s_coeff_main_branch():
    # a + iw strictly dominant: the displayed quotient
    p = 7
    val = s_coeff(4, 1, 0, 0, 1, 1, 1, p)
    from charp_dilog.tpoly import inv_factorials
    inv_fact = inv_factorials(p)
    assert val == (1 * 1 - 0 * 1) * inv_fact[0] * inv_fact[1] * inv_fact[1] % p


def test_antider_guards(R5, F5):
    x = RatFn.const(F5(2))
    with pytest.raises(NotDivisible):
        antider_primitive(1, 1, 1, 3, x, x, x, x)  # w does not divide p-(a+b+c)
    with pytest.raises(NotDivisible):
        antider_primitive(0, 0, 0, 1, x, x, x, x)  # q = p: no displayed primitive


def test_exactness_identity_spot_checks(R5):
    rng = spawn(11, "exact")
    for (a, b, c, w) in ((1, 0, 0, 1), (0, 1, 1, 1), (2, 1, 0, 2), (1, 1, 1, 2), (4, 0, 0, 1)):
        x = rand_ratfn(R5, rng)
        pa = rand_ratfn(R5, rng, nonzero=(a == 0))
        pb = rand_ratfn(R5, rng, nonzero=(b == 0))
        pc = rand_ratfn(R5, rng, nonzero=(c == 0))
        q3 = wedge([Letter(a, pa)], [Letter(b, pb)], [Letter(c, pc)])
        moved = q3.map_entries(lambda ls: sigma_letters(x, w, ls, 5))
        lhs = omega_p(moved, R5) - omega_p(q3, R5)
        prim = antider_primitive(a, b, c, w, x, pa, pb, pc)
        assert (lhs - OneForm(prim.derivative())).is_zero


@pytest.mark.parametrize("p", [5, 7])
def test_exactness_forms_match_the_eager_oracle(p):
    # on the exactness sampler's draws, the forms and the primitive come out
    # as the normal forms that reducing after every operation gives, and the
    # identity holds on both routes
    ring = RatFnRing(Fq(p))
    oracle_ring = EagerRing(ring.field)
    tuples = _exactness_tuples(p)
    for trial in range(30):
        rng = spawn(40, "exactness-eager", p, trial)
        a, b, c, w = tuples[rng.randrange(len(tuples))]
        x = rand_ratfn(ring, rng)
        pa, pb, pc = (rand_ratfn(ring, rng, nonzero=(e == 0)) for e in (a, b, c))
        routes = []
        for x_, (pa_, pb_, pc_), ring_ in ((x, (pa, pb, pc), ring),
                                           (EagerFraction(x), map(EagerFraction, (pa, pb, pc)),
                                            oracle_ring)):
            q3 = wedge([Letter(a, pa_)], [Letter(b, pb_)], [Letter(c, pc_)])
            moved = q3.map_entries(lambda ls: sigma_letters(x_, w, ls, p))
            forms = [omega_p(moved, ring_).fn, omega_p(q3, ring_).fn,
                     antider_primitive(a, b, c, w, x_, pa_, pb_, pc_)]
            assert (forms[0] - forms[1] - forms[2].derivative()).is_zero
            routes.append(forms)
        for value, oracle in zip(*routes):
            assert (value.num, value.den) == (oracle.num, oracle.den)


def test_res_invariance_examples(R5, F5):
    rng = spawn(12, "inv")
    entries = rand_letter_wedge_entries(R5, rng)
    # identity sigma
    assert res_invariance_check([R5.zero] * 4, wedge(*entries), R5)
    # a coefficient with a pole at the origin is allowed
    xs = [R5.gen.inverse(), R5.zero, R5.one, R5.zero]
    assert res_invariance_check(xs, wedge(*entries), R5)


@pytest.mark.parametrize("p", [5, 7])
def test_special_residue_formula_with_displayed_value(p):
    # q' = (s - x t^w) ^ e(alpha t^a) ^ e(beta t^b) against q = s ^ ... with
    # w >= 2 and constant x: the deep-value difference equals the residue of
    # the form difference, and both equal x^q sum_{i+j=q} (b + w j) alpha_i beta_j
    # when w | p - (a + b) with 0 < a + b < p
    from charp_dilog.gf import Poly
    from charp_dilog.wedge import ell_p, res_local

    field = Fq(p)
    ring = RatFnRing(field)
    s = ring.gen
    rng = spawn(17, "special", p)
    for trial in range(30):
        w = rng.randrange(2, p)
        a = rng.randrange(1, p)
        b = rng.randrange(1, p)
        x = field.random_element(rng)
        alpha = RatFn(Poly(field, [field.random_element(rng) for _ in range(4)]))
        beta = RatFn(Poly(field, [field.random_element(rng) for _ in range(4)]))
        s_hat = Trunc.constant(ring, p, s)
        s_moved = Trunc(ring, p, [s] + [ring.zero] * (w - 1) + [RatFn.const(-x)])
        qm = [s_moved, eletter(ring, a, alpha), eletter(ring, b, beta)]
        qh = [s_hat, eletter(ring, a, alpha), eletter(ring, b, beta)]
        lhs = ell_p(res_local(qm, s_moved), ring=field) - \
            ell_p(res_local(qh, s_hat), ring=field)
        diff = omega_p(wedge(*qm), ring) - omega_p(wedge(*qh), ring)
        rhs = residue_at(diff, field.zero)
        assert lhs == rhs
        rest = p - (a + b)
        if 0 < a + b < p and rest % w == 0:
            q = rest // w
            expected = field.zero
            for j in range(q + 1):
                i = q - j
                expected = expected + field.from_int(b + w * j) * \
                    alpha.num.coeff(i) * beta.num.coeff(j)
            assert lhs == x ** q * expected


def test_res_omega_pair_trivial_and_guard(R5):
    rng = spawn(13, "pair-res")
    qt, qh, _, _ = rand_good_lifting_pair(R5, rng)
    assert res_omega_pair(wedge(*qt), wedge(*qt), R5).is_zero
    bumped = list(qt)
    bumped[0] = bumped[0] + Trunc(R5, 5, [R5.zero, R5.one])
    with pytest.raises(NotCongruentModT2):
        res_omega_pair(wedge(*bumped), wedge(*qh), R5)


def test_res_omega_pair_rejects_letter_list_entries(R5):
    # a letter list has no class mod t^2: the pairing names it in a TypeError,
    # while the form difference itself accepts the same wedge
    s = R5.gen
    w = wedge([Letter(1, s)], [Letter(2, s + 1)], [Letter(2, s * s + 2)])
    assert omega.res_omega_difference(w, w, R5).is_zero
    with pytest.raises(TypeError, match=r"Letter\(a=1"):
        res_omega_pair(w, w, R5)
    unit = Trunc.one(R5, 5)
    with pytest.raises(TypeError, match=r"Letter\(a=2"):
        res_omega_pair(wedge(unit, unit, unit), wedge(unit, unit, [Letter(2, s)]), R5)


@pytest.mark.parametrize("p", [5, 7])
def test_germ_route_matches_the_global_form(p):
    # the residue from germs at s = 0 equals the residue of the global rational
    # form, on congruent liftings and on reparametrized letter wedges with
    # poles at the origin
    ring = RatFnRing(Fq(p))
    rng = spawn(18, "germ-route", p)
    for _ in range(12):
        qt, qh, _, _ = rand_good_lifting_pair(ring, rng)
        expected = res_omega_difference_global(wedge(*qt), wedge(*qh), ring)
        assert res_omega_pair(wedge(*qt), wedge(*qh), ring) == expected
    for _ in range(12):
        w3 = wedge(*rand_letter_wedge_entries(ring, rng))
        xs = rand_sigma_weights(ring, rng)
        moved = w3.map_entries(lambda ls: sigma_image_letters_global(xs, ls, ring))
        expected = res_omega_difference_global(moved, w3, ring)
        assert omega.res_omega_difference(moved, w3, ring) == expected


@pytest.mark.parametrize("p", [5, 7])
def test_germ_route_doubles_past_a_deep_pole(monkeypatch, p):
    # a letter with a pole of order p + 2 at s = 0 needs more than the first
    # p + 1 terms of its germs: the expansions are redone at twice the
    # precision, and the residue still equals the global form's
    ring = RatFnRing(Fq(p))
    rng = spawn(18, "deep-pole", p)
    deep = ring.gen ** (-(p + 2))
    orders = []
    monkeypatch.setattr(localfield, "expand_at",
                        lambda f, c, n: orders.append(n) or expand_at(f, c, n))

    def deep_wedge():
        entries = rand_letter_wedge_entries(ring, rng)
        entries[0] = [Letter(letter.a, letter.payload * deep) for letter in entries[0]]
        return wedge(*entries)

    doubled = []
    for _ in range(12):
        w1, w2 = deep_wedge(), deep_wedge()
        orders.clear()
        value = omega.res_omega_difference(w1, w2, ring)
        assert value == res_omega_difference_global(w1, w2, ring)
        if max(orders) > p:
            assert max(orders) == 2 * (p + 1) - 1
            doubled.append(value)
    assert any(not v.is_zero for v in doubled)


@pytest.mark.parametrize("p", [5, 7])
def test_omega_p_on_germs_is_the_rational_form_below_s0(monkeypatch, p):
    # on germs, omega_p cuts its products at s^0: the form is known below s^0,
    # where it equals the expansion of the rational form.  Germs that start at
    # precision 2 are too short for [s^-1] of some wedges, and reading the
    # residue doubles them (the expansion orders show it)
    ring = RatFnRing(Fq(p))
    rng = spawn(26, "bounded-omega", p)
    orders = []
    monkeypatch.setattr(localfield, "expand_at",
                        lambda f, c, n: orders.append(n) or expand_at(f, c, n))
    wedges = [[letters_of_unit(u) for u in rand_good_lifting_pair(ring, rng)[0]] for _ in range(6)]
    wedges += [rand_letter_wedge_entries(ring, rng) for _ in range(12)]
    doubled = nonzero = 0
    for entries in wedges:
        def form(germ):
            cut = omega_p(wedge(*[[Letter(x.a, germ(x.payload)) for x in ls] for ls in entries]),
                          germ.ring).fn
            residue_at(OneForm(cut), germ.ring.center)
            return cut

        orders.clear()
        cut = germs_at_zero(ring.field, 2, form)
        doubled += max(orders, default=1) > 1
        full = omega_p(wedge(*entries), ring).fn
        if full.is_zero:
            assert cut.is_zero or cut == LaurentLocal(cut.ring, (0, 0, ()))
            continue
        nonzero += 1
        assert cut == expand_at(full, ring.field.zero, -1)
    assert doubled and nonzero > len(wedges) // 3


@pytest.mark.parametrize("p", [5, 7])
def test_omega_p_visits_contributing_triples_once_with_one_product_per_first_letter(
        monkeypatch, p):
    # omega_p runs the triple formula once per triple whose exponents sum to
    # p, in the order of the three letter loops, and per distinct first letter
    # F of the formula's F.payload * g forms g by one dot of its pairs and
    # makes one last product, cut at s^0
    ring = RatFnRing(Fq(p))
    rng = spawn(26, "triple-visits", p)
    seen, firsts, cuts, dots = [], [], [], []
    factors, mul, dot = omega._omega_factors, LaurentRing._raw_mul, LaurentRing._raw_dot

    def spy_factors(*args):
        seen.append(tuple(map(id, args[:3])))
        first, pairs = factors(*args)
        firsts.append(id(first))
        return first, pairs

    def spy_mul(self, a, b, below=math.inf):
        if below < math.inf:
            cuts.append(below)
        return mul(self, a, b, below)

    def spy_dot(self, xs, ys):
        dots.append(len(cuts))
        return dot(self, xs, ys)
    monkeypatch.setattr(omega, "_omega_factors", spy_factors)
    monkeypatch.setattr(LaurentRing, "_raw_mul", spy_mul)
    monkeypatch.setattr(LaurentRing, "_raw_dot", spy_dot)
    shared = 0
    for _ in range(4):
        entries = [letters_of_unit(u) for u in rand_good_lifting_pair(ring, rng)[0]]

        def check(germ):
            lists = [[Letter(x.a, germ(x.payload)) for x in ls] for ls in entries]
            seen.clear(), firsts.clear(), cuts.clear(), dots.clear()
            omega_p(wedge(*lists), germ.ring)
            assert seen == [tuple(map(id, t)) for t in itertools.product(*lists)
                            if sum(x.a for x in t) == p]
            assert cuts == [0] * len(set(firsts))
            assert dots == list(range(len(cuts)))  # each dot right before its cut product
            return len(seen) - len(cuts)
        shared += germs_at_zero(ring.field, p + 1, check)
    assert shared > 0


@pytest.mark.parametrize("p", [5, 7])
def test_omega_p_matches_the_per_triple_route(monkeypatch, p):
    # one dot per first letter gives the per-triple route's form: the same
    # germ raws, cut at s^0, and the same normal form over F_q(s).  Germs that
    # start at precision 2 are too short for some wedges, and the residue read
    # doubles them (the expansion orders show it)
    ring = RatFnRing(Fq(p))
    rng = spawn(40, "per-triple-route", p)
    orders = []
    monkeypatch.setattr(localfield, "expand_at",
                        lambda f, c, n: orders.append(n) or expand_at(f, c, n))
    units = [rand_good_lifting_pair(ring, rng)[0] for _ in range(6)]
    wedges = [[letters_of_unit(u) for u in entries] for entries in units]
    wedges += [rand_letter_wedge_entries(ring, rng) for _ in range(12)]
    doubled = nonzero = 0
    for entries in wedges:
        def forms(germ):
            w = wedge(*[[Letter(x.a, germ(x.payload)) for x in ls] for ls in entries])
            got, want = omega_p(w, germ.ring).fn, omega_p_by_triples(w, germ.ring).fn
            residue_at(OneForm(want), germ.ring.center)
            return got, want

        orders.clear()
        got, want = germs_at_zero(ring.field, 2, forms)
        doubled += max(orders, default=1) > 1
        assert got.raw == want.raw
        w = wedge(*entries)
        full, oracle = omega_p(w, ring).fn, omega_p_by_triples(w, ring).fn
        assert (full.num, full.den) == (oracle.num, oracle.den)
        nonzero += not full.is_zero
    for entries in units:
        w = wedge(*entries)
        full, oracle = omega_p(w, ring).fn, omega_p_by_triples(w, ring).fn
        assert (full.num, full.den) == (oracle.num, oracle.den)
    assert doubled and nonzero > len(wedges) // 3


def test_res_omega_pair_runs_no_gcd(monkeypatch, R5):
    from charp_dilog.gf import Poly

    qt, qh, _, _ = rand_good_lifting_pair(R5, spawn(19, "no-gcd"))
    calls = []
    gcd = Poly.gcd
    monkeypatch.setattr(Poly, "gcd", lambda a, b: calls.append(1) or gcd(a, b))
    res_omega_pair(wedge(*qt), wedge(*qh), R5)
    assert calls == []
    res_omega_difference_global(wedge(*qt), wedge(*qh), R5)
    assert calls  # the counter does see the global route's normalizations


def test_res_omega_pair_chain_additivity(R5):
    # three liftings congruent mod t^2: pairwise residues telescope
    rng = spawn(14, "chain")
    base, _, _, _ = rand_good_lifting_pair(R5, rng)
    def bump(entries, seed):
        r = spawn(seed, "bump")
        out = []
        for e in entries:
            tail = [R5.zero, R5.zero] + [rand_ratfn(R5, r, deg=1) for _ in range(3)]
            out.append(e * trunc_exp(Trunc(R5, 5, [R5.zero, R5.zero] +
                                           [rand_ratfn(R5, r, deg=1) for _ in range(3)])))
        return out
    q1 = base
    q2 = bump(base, 1)
    q3 = bump(base, 2)
    r12 = res_omega_pair(wedge(*q1), wedge(*q2), R5)
    r23 = res_omega_pair(wedge(*q2), wedge(*q3), R5)
    r13 = res_omega_pair(wedge(*q1), wedge(*q3), R5)
    assert r13 == r12 + r23


def test_char0_defect_trivial_and_antisymmetric(F5):
    R = RatFnRing(F5)
    rng = spawn(15, "defect")
    triple = []
    for _ in range(3):
        triple.append(Trunc(R, 3, [rand_ratfn(R, rng, nonzero=True),
                                   rand_ratfn(R, rng), rand_ratfn(R, rng)]))
    assert omega_char0_defect(triple, triple).is_zero
    other = [t * trunc_exp(Trunc(R, 3, [R.zero, R.zero, rand_ratfn(R, rng)]))
             for t in triple]
    d1 = omega_char0_defect(triple, other)
    d2 = omega_char0_defect(other, triple)
    assert (d1 + d2).is_zero
    with pytest.raises(NotCongruentModT2):
        omega_char0_defect(triple, [other[0] * Trunc(R, 3, [R.one, R.one]),
                                    other[1], other[2]])


@pytest.mark.parametrize("p", [5, 7])
def test_char0_defect_residue_identity(p):
    # the depth-3 analogue of the deep pairing: residue of the defect form
    # equals the difference of ell values of the residues of good liftings
    from charp_dilog.wedge import ell, res_local

    field = Fq(p)
    ring = RatFnRing(field)
    rng = spawn(16, "defect-res", p)
    for trial in range(25):
        qt5, qh5, s_tilde5, s_hat5 = rand_good_lifting_pair(ring, rng)
        qt = [Trunc(ring, 3, t.coeffs[:3]) for t in qt5]
        qh = [Trunc(ring, 3, t.coeffs[:3]) for t in qh5]
        s_tilde = Trunc(ring, 3, s_tilde5.coeffs[:3])
        s_hat = Trunc(ring, 3, s_hat5.coeffs[:3])
        lhs = ell(res_local(qt, s_tilde), ring=field) - ell(res_local(qh, s_hat), ring=field)
        form = omega_char0_defect(qt, qh)
        assert lhs == residue_at(form, field.zero)


def test_letter_formula_rejects_excluded_ties(R5):
    # the exponents come from an odd prime p, so a = b > c = 0 (2a = p) and
    # a = b = c (3a = p) cannot occur; forced through p, both raise typed errors
    x = R5.gen + 1
    with pytest.raises(CaseTableGap):
        omega._omega_factors(Letter(2, x), Letter(0, x), Letter(2, x), 4, omega._dpayload)
    with pytest.raises(CaseTableGap):
        omega._omega_factors(Letter(3, x), Letter(3, x), Letter(3, x), 9, omega._dpayload)


def test_antiderivative_rejects_undefined_payload(monkeypatch, R5):
    # a constant letter (a = 0) has no zeroth payload derivative; the case
    # table gives it coefficient 0, and a table that does not is caught
    monkeypatch.setattr(omega, "s_coeff", lambda *args: 1)
    s = R5.gen
    with pytest.raises(CaseTableGap):
        antider_primitive(0, 1, 1, 3, s, s + 1, s + 2, s + 3)
