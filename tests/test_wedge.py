import hashlib
import sys

import pytest

from charp_dilog import localfield
from charp_dilog.gf import Fq, Poly
from charp_dilog.localfield import RatFn, RatFnRing, expand_at, germs_at_zero
from charp_dilog.rng import spawn
from charp_dilog.sampling import (
    quadratic_extension,
    rand_good_lifting_pair,
    rand_regular_unit_ratfn,
)
from charp_dilog.tpoly import ModulusMismatch, Trunc, log_circ, trunc_exp
from charp_dilog.wedge import (
    GoodElem,
    ModulusTooSmall,
    NotGood,
    WedgeK,
    ell,
    ell_p,
    goodness_split,
    local_point,
    reduce_at,
    res_good,
    res_local,
    wedge,
)

from oracles import (ell_p_antisymmetric, goodness_split_global, goodness_split_zpoly,
                     local_point_oracle, rand_trunc, ratfn_at_trunc, res_local_global, substitute)


def test_ell_alternating_and_constant_kill(F5):
    x = rand_trunc(F5, 3, spawn(0, "w"), unit=True)
    assert ell(wedge(x, x)).is_zero
    c = Trunc.constant(F5, 3, F5(2))
    one_plus_t = Trunc(F5, 3, [1, 1])
    assert ell(wedge(one_plus_t, c)).is_zero


def test_ell_example(F5):
    a = Trunc(F5, 3, [1, 0, 1])
    b = Trunc(F5, 3, [1, 1])
    assert ell(wedge(a, b)) == F5.one


def test_ell_needs_depth_three(F5):
    with pytest.raises(ModulusTooSmall):
        ell(wedge(Trunc(F5, 2, [1, 1]), Trunc(F5, 2, [1, 2])))
    with pytest.raises(ModulusTooSmall):
        ell(wedge(Trunc(F5, 3, [1, 1]), Trunc(F5, 2, [1, 2])))


def test_ell_p_modulus_guard(F5):
    with pytest.raises(ModulusMismatch):
        ell_p(wedge(Trunc(F5, 3, [1, 1]), Trunc(F5, 3, [1, 2])))


def test_functionals_reject_a_unit_of_another_ring_or_modulus(F5, F7):
    # the logs of a mismatched unit were read as if they were a's: ell_p
    # returned 1 beside an m = 3 unit, and 0 beside a unit over F_7
    a = Trunc(F5, 5, [1, 2, 3, 4, 1])
    for b in (Trunc(F5, 3, [1, 1, 2]), Trunc(F7, 5, [1, 2, 3, 4, 1])):
        for w in (wedge(a, b), wedge(b, a)):
            with pytest.raises(ModulusMismatch):
                ell_p(w)
    with pytest.raises(ModulusMismatch):
        ell(wedge(a, Trunc(F7, 5, [1, 2, 3, 4, 1])))
    # ell reads l_1 and l_2 alone, which any m >= 3 carries
    assert ell(wedge(a, Trunc(F5, 3, [1, 1, 2]))) == ell(wedge(a, Trunc(F5, 5, [1, 1, 2])))


def test_reduce_at_rejects_a_root_of_another_modulus_or_field(R5, F5, F7):
    # an m = 3 root left the t^3 and t^4 coefficients of an m = 5 reduction wrong
    s_tilde = Trunc(R5, 5, [R5.gen, -R5.one])
    u = Trunc.constant(R5, 5, R5.one + R5.gen)

    def reductions(germ):
        unit, root = germ(u), local_point(germ(s_tilde))
        for bad in (root.reduce_to(3), Trunc(F7, 5, [0, 1])):
            with pytest.raises(ModulusMismatch):
                reduce_at(unit, bad)
        return reduce_at(unit, root)
    assert germs_at_zero(F5, 5, reductions) == Trunc(F5, 5, [1, 1])


@pytest.mark.parametrize("p", [5, 7])
def test_ell_p_remark_value(p):
    field = Fq(p)
    a = Trunc(field, p, [1] + [0] * (p - 2) + [1])
    b = Trunc(field, p, [1, 1])
    assert ell_p(wedge(a, b)) == field.one


def test_ell_p_alternating_and_sign(F5):
    rng = spawn(1, "alt")
    for _ in range(50):
        x = rand_trunc(F5, 5, rng, unit=True)
        y = rand_trunc(F5, 5, rng, unit=True)
        assert ell_p(wedge(x, x)).is_zero
        assert ell_p(wedge(x, y)) == -ell_p(wedge(y, x))


def test_ell_p_bilinear(F5):
    rng = spawn(2, "bilin")
    for _ in range(50):
        x1 = rand_trunc(F5, 5, rng, unit=True)
        x2 = rand_trunc(F5, 5, rng, unit=True)
        y = rand_trunc(F5, 5, rng, unit=True)
        assert ell_p(wedge(x1 * x2, y)) == ell_p(wedge(x1, y)) + ell_p(wedge(x2, y))


def test_ell_and_ell_p_log_each_distinct_unit_once_per_call(monkeypatch, F7):
    # on a wedge whose units recur across terms, as res_good builds them, one
    # call takes log_circ once per distinct unit; the memo ends with the call,
    # and the value is the sum of the terms taken one call each
    calls = []
    monkeypatch.setattr(sys.modules["charp_dilog.wedge"], "log_circ",
                        lambda u: calls.append(id(u)) or log_circ(u))
    rng = spawn(26, "log-once")
    x, y, z = (rand_trunc(F7, 7, rng, unit=True) for _ in range(3))
    w = WedgeK(((2, (y, z)), (-1, (x, z)), (3, (x, y))))
    for functional in (ell, ell_p):
        calls.clear()
        value = functional(w)
        assert sorted(calls) == sorted(map(id, (x, y, z)))
        calls.clear()
        terms = [F7.from_int(k) * functional(wedge(*entries)) for k, entries in w.terms]
        assert value == sum(terms, F7.zero) and len(calls) == 6


@pytest.mark.parametrize("p, ring_kind, pairs", [
    (5, "prime", 12), (7, "prime", 12), (11, "prime", 8),
    (5, "quadratic", 8), (7, "quadratic", 8), (11, "quadratic", 6),
    (5, "ratfn", 6), (7, "ratfn", 6),
])
def test_ell_p_one_sum_matches_the_antisymmetric_definition(p, ring_kind, pairs):
    field = Fq(p)
    ring = {"prime": field, "quadratic": quadratic_extension(field),
            "ratfn": RatFnRing(field)}[ring_kind]
    rng = spawn(14, "ell-p-one-sum", p, ring_kind)
    for _ in range(pairs):
        a = rand_trunc(ring, p, rng, unit=True)
        b = rand_trunc(ring, p, rng, unit=True)
        assert ell_p(wedge(a, b)) == ell_p_antisymmetric(a, b)


def test_ell_p_exponential_pair_oracle(F7):
    # value on e(alpha t^a) ^ e(beta t^b) with a + b = p, a > b, directly from
    # the defining sum, against the letter computation b * alpha * beta
    rng = spawn(3, "pair")
    p = 7
    for _ in range(30):
        a = rng.randrange(4, p)
        b = p - a
        if not a > b > 0:
            continue
        alpha = F7.random_element(rng)
        beta = F7.random_element(rng)
        ea = trunc_exp(Trunc(F7, p, [F7.zero] * a + [alpha]))
        eb = trunc_exp(Trunc(F7, p, [F7.zero] * b + [beta]))
        assert ell_p(wedge(ea, eb)) == F7.from_int(b) * alpha * beta


def test_functional_equality_across_presentations(F5):
    # distinct presentations of one wedge class evaluate equally
    rng = spawn(4, "pres")
    for _ in range(25):
        x = rand_trunc(F5, 5, rng, unit=True)
        y = rand_trunc(F5, 5, rng, unit=True)
        z = rand_trunc(F5, 5, rng, unit=True)
        one_term = wedge(x * z, y)
        split = WedgeK(((1, (x, y)), (1, (z, y))))
        assert ell_p(one_term) == ell_p(split)


@pytest.fixture
def R5(F5):
    return RatFnRing(F5)


def _split_at_zero(f, s_tilde):
    field = s_tilde.ring.field
    return germs_at_zero(field, s_tilde.m + 1, lambda germ: goodness_split(germ(f), germ(s_tilde)))


def _root_at_zero(s_tilde, prec=None):
    # the Hensel root of a rational uniformizer, found on its germ at s = 0
    field = s_tilde.ring.field
    return germs_at_zero(field, prec or s_tilde.m, lambda germ: local_point(germ(s_tilde)))


def _assert_germ_unit_is_constant(u, value, p):
    # every known coefficient of every u_j is that of the constant value at
    # j = 0 and of zero above; u_0 is known to at least order p
    assert u.m == p and u.coeffs[0].prec >= p
    for j, c in enumerate(u.coeffs):
        exps = range(min(c.val, 0), min(c.prec, 2 * p))
        expected = value if j == 0 else c.field.zero
        assert [c.coeff(k) for k in exps] == [expected if k == 0 else c.field.zero for k in exps]


def test_goodness_split_examples(R5, F5):
    p = 5
    s = R5.gen
    s_tilde = Trunc.constant(R5, p, s)
    root = _root_at_zero(s_tilde)
    assert root == Trunc.zero(F5, p)
    g = _split_at_zero(s_tilde, s_tilde)
    assert g.n == 1 and reduce_at(g.u, root) == Trunc.one(F5, p)
    _assert_germ_unit_is_constant(g.u, F5.one, p)
    c = Trunc.constant(R5, p, RatFn.const(F5(3)))
    g = _split_at_zero(c, s_tilde)
    assert g.n == 0 and reduce_at(g.u, root) == Trunc.constant(F5, p, F5(3))
    _assert_germ_unit_is_constant(g.u, F5(3), p)


def test_goodness_split_not_good(R5):
    p = 5
    s = R5.gen
    s_tilde = Trunc.constant(R5, p, s)
    bad = Trunc(R5, p, [s, R5.one])  # s + t: unit coefficient has a pole after peeling
    with pytest.raises(NotGood):
        _split_at_zero(bad, s_tilde)
    with pytest.raises(NotGood):
        goodness_split_global(bad, s_tilde)


def test_goodness_split_zpoly_example(F5):
    # f = (z - gamma)^2 * v with uniformizer z - gamma, via polynomial division
    m = 5
    one = Trunc.one(F5, m)
    gamma = Trunc(F5, m, [2, 1])
    s_tilde = [-gamma, one]
    v = [Trunc(F5, m, [1, 3]), one]  # z + (1 + 3t)
    from charp_dilog.tpoly import rp_mul
    f = rp_mul(rp_mul(s_tilde, s_tilde), v)
    g = goodness_split_zpoly(f, s_tilde)
    assert g.n == 2
    assert g.u == v


def test_goodness_split_zpoly_not_good(F5):
    m = 5
    one = Trunc.one(F5, m)
    s_tilde = [Trunc.zero(F5, m), one]  # z
    f = [Trunc.t(F5, m), one]  # z + t: not good at z = 0
    with pytest.raises(NotGood):
        goodness_split_zpoly(f, s_tilde)


def _moved(s_tilde, p, *key):
    # s_tilde + c t + d t^2 with c != 0: its root has a t-term
    ring, shift = s_tilde.ring, spawn(22, "res-local-moved", p, *key)
    c, d = (ring.field.from_int(shift.randrange(1, p)) for _ in range(2))
    return s_tilde + Trunc(ring, p, [0, c, d])


@pytest.mark.parametrize("p", [5, 7])
def test_local_point_matches_substitution_newton(p):
    # the Newton root of the germ uniformizer's rows as a polynomial in z
    # equals the Newton root that substitutes into the rational coefficients
    # of the uniformizer at every step
    ring = RatFnRing(Fq(p))
    rng = spawn(p, "local-point")
    for k in range(6):
        _, _, s_tilde, s_hat = rand_good_lifting_pair(ring, rng)
        # a unit multiple whose coefficients have distinct denominators
        w = Trunc(ring, p, [rand_regular_unit_ratfn(ring, rng) for _ in range(p)])
        moved = _moved(s_tilde, p, "local-point", k)
        for unif in (s_tilde, s_hat, w * s_tilde, moved):
            root = _root_at_zero(unif)
            assert root == local_point_oracle(unif)
            assert root.c0.is_zero
        assert not root.coeffs[1].is_zero  # the moved uniformizer's, the last


@pytest.mark.parametrize("p", [5, 7])
def test_local_point_doubles_from_a_short_start(monkeypatch, p):
    # from absolute precision 2 the germ uniformizer cannot give its rows
    # [s^k] for k >= 2: reading them raises, the precision doubles until the
    # rows are known, and the root is the substitution root
    ring = RatFnRing(Fq(p))
    rng = spawn(23, "local-point-doubling", p)
    orders = []
    monkeypatch.setattr(localfield, "expand_at",
                        lambda f, c, n: orders.append(n) or expand_at(f, c, n))
    for k in range(3):
        _, _, s_tilde, _ = rand_good_lifting_pair(ring, rng)
        for unif in (s_tilde, _moved(s_tilde, p, "local-point-doubling", k)):
            orders.clear()
            assert _root_at_zero(unif, prec=2) == local_point_oracle(unif)
            assert min(orders) == 1 and max(orders) >= p - 1
            assert set(orders) <= {2 ** j - 1 for j in range(1, 6)}


# sha256 of repr() of four rand_good_lifting_pair draws from spawn(25,
# "sampler-pin", p); the draws and the returned values must not change
SAMPLER_DIGESTS = {
    5: "4a20ed51976ae183ff2d8e088328349de03c8b2a85745c50b792b4480b22db3c",
    7: "2e1761fc2c2e7c409b2de115e8a414093cd1e426576fb5b844fa14b5f50e1586",
}


# sha256 of repr() of the (_n, list(_f.items())) of every coefficient of the
# same draws: the factored forms, which set the cost of expanding them
FORM_DIGESTS = {
    5: "219c96e46971a22555193a3abaa8942928f530522576c8bcfcf2ab63c9f109be",
    7: "780ab290de8e7212c63bab1b5c010057bf6dc4e36da7b63b8566c92be707c65e",
}


@pytest.mark.parametrize("p", [5, 7])
def test_good_lifting_pair_factored_forms_are_pinned(p):
    ring = RatFnRing(Fq(p))
    rng = spawn(25, "sampler-pin", p)
    forms = []
    for _ in range(4):
        qt, qh, st, sh = rand_good_lifting_pair(ring, rng)
        forms += [[(c._n, list(c._f.items())) for c in x.coeffs] for x in (*qt, *qh, st, sh)]
    assert hashlib.sha256(repr(forms).encode()).hexdigest() == FORM_DIGESTS[p]


@pytest.mark.parametrize("p", [5, 7])
def test_good_lifting_pair_values_and_inverses(monkeypatch, p):
    # one series inverse for u^(-1), and one for s_tilde^n per negative n:
    # u^(-n) is a power of u itself, not an inverse of u^(-1), and s_hat^n is
    # the constant s^n
    ring = RatFnRing(Fq(p))
    rng = spawn(25, "sampler-pin", p)
    calls = []
    inverse = Trunc.inverse
    monkeypatch.setattr(Trunc, "inverse", lambda self: calls.append(1) or inverse(self))
    draws = []
    for _ in range(4):
        calls.clear()
        draws.append(rand_good_lifting_pair(ring, rng))
        # qhat = uhat * s^n with uhat(0) a unit at s = 0, so n is its order there
        negative = sum(e.c0.ord_at(ring.field.zero) < 0 for e in draws[-1][1])
        assert len(calls) == 1 + negative
    assert hashlib.sha256(repr(draws).encode()).hexdigest() == SAMPLER_DIGESTS[p]


def test_res_good_drops_double_units(R5, F5):
    goods = [GoodElem(0, "u1"), GoodElem(0, "u2"), GoodElem(0, "u3")]
    assert res_good(goods).terms == ()


@pytest.mark.parametrize("p", [5, 7])
def test_res_local_reduces_each_split_unit_once(monkeypatch, p):
    # res_local reduces all three split units before res_good, also one whose
    # two partner exponents are 0, which no term of the residue reads: a draw
    # that needs no doubling makes one local_point and three reduce_at calls
    ring = RatFnRing(Fq(p))
    rng = spawn(29, "reduce-each-unit", p)
    module = sys.modules["charp_dilog.wedge"]
    calls = []
    for name in ("local_point", "reduce_at"):
        monkeypatch.setattr(module, name, lambda *args, fn=getattr(module, name), name=name:
                            calls.append(name) or fn(*args))
    single = unread = 0
    for _ in range(12):
        qt, qh, s_tilde, s_hat = rand_good_lifting_pair(ring, rng)
        # qhat = uhat * s^n with uhat(0) a unit at s = 0, and qtilde shares the n
        ns = [e.c0.ord_at(ring.field.zero) for e in qh]
        for triple, unif in ((qt, s_tilde), (qh, s_hat)):
            calls.clear()
            res_local(triple, unif)
            if calls.count("local_point") == 1:
                assert calls.count("reduce_at") == 3
                single += 1
                unread += ns.count(0) == 2
    assert single and unread


def test_res_local_projective_line_computation(R5, F5):
    # the triple (1-z) ^ z ^ (z - s~) with s~ = s0 + a s0(1-s0) t: at the moving
    # point the residue is (1-s~) ^ s~ and its deep value is the closed form;
    # at the three constant points the deep value vanishes
    p = 5
    z = R5.gen
    one = R5.one
    s0, a = F5(3), F5(2)
    eps = a * s0 * (F5.one - s0)
    f = Trunc.constant(R5, p, one - z)
    g = Trunc.constant(R5, p, z)
    h = Trunc(R5, p, [z - RatFn.const(s0), RatFn.const(-eps)])  # z - s~
    # recenter at the moving point so it sits at the model's origin
    f0, g0, h0 = (_recentered(u, s0, R5) for u in (f, g, h))
    res = res_local([f0, g0, h0], h0)
    assert len(res.terms) == 1 and res.terms[0][0] == 1
    u1, u2 = res.terms[0][1]
    s_tilde_kp = Trunc(F5, p, [s0, eps])
    assert u1 == Trunc.one(F5, p) - s_tilde_kp and u2 == s_tilde_kp
    value = ell_p(res, ring=F5)
    from charp_dilog.bloch import li2p, pounds1, symbol
    assert value == li2p(symbol(Trunc(F5, 2, [s0, eps])))
    assert value == a ** p * pounds1(s0)
    # the fixed points 0 and 1 contribute nothing
    for unif in (Trunc.constant(R5, p, z), Trunc.constant(R5, p, z - one)):
        shifted = [u for u in (f, g, h)]
        if unif.c0 == z - one:
            shifted = [_recentered(u, F5.one, R5) for u in shifted]
            unif = Trunc.constant(R5, p, z)
        assert ell_p(res_local(shifted, unif), ring=F5).is_zero


def _recentered(u, theta, ring):
    # substitute z -> z + theta so the point of interest sits at the origin
    shift = Trunc.constant(ring, ring.characteristic, ring.gen + RatFn.const(theta))
    acc = Trunc.zero(ring, u.m)
    for j, cj in enumerate(u.coeffs):
        if not cj.is_zero:
            acc = acc + ratfn_at_trunc(cj, shift).shifted(j)
    return acc


def test_res_local_uniformizer_independence(R5, F5):
    # any unit rescaling of the uniformizer leaves the ell_p value unchanged
    rng = spawn(5, "unif")
    p = 5
    s = R5.gen
    for _ in range(20):
        s_tilde = Trunc(R5, p, [s] + [RatFn.const(F5.random_element(rng)) for _ in range(p - 1)])
        w = Trunc(R5, p, [rand_regular_unit_ratfn(R5, rng)] +
                  [RatFn.const(F5.random_element(rng)) for _ in range(p - 1)])
        s_other = w * s_tilde
        triple = []
        for _ in range(3):
            n = rng.randrange(-1, 2)
            u = Trunc(R5, p, [rand_regular_unit_ratfn(R5, rng)] +
                      [RatFn.const(F5.random_element(rng)) for _ in range(p - 1)])
            triple.append(u * s_tilde ** n)
        v1 = ell_p(res_local(triple, s_tilde), ring=F5)
        v2 = ell_p(res_local(triple, s_other), ring=F5)
        assert v1 == v2


@pytest.mark.parametrize("p", [5, 7])
def test_res_local_matches_the_global_split_and_reduction(p):
    # the splits and reductions on germs at s = 0 give the same wedge terms,
    # exponents and reduced units, as the splits of the global rational
    # functions with every coefficient substituted at the root; the sampled
    # uniformizers have no t-term, so their roots lie in (t^2), and a third
    # uniformizer s_tilde + c t + d t^2 with c != 0, drawn apart from the
    # sampler, has a root with a t-term
    ring = RatFnRing(Fq(p))
    rng = spawn(20, "res-local-germs", p)
    nonzero = 0
    for k in range(8):
        qt, qh, s_tilde, s_hat = rand_good_lifting_pair(ring, rng)
        moved = _moved(s_tilde, p, k)
        ns = [goodness_split_global(e, s_tilde).n for e in qt]
        q_moved = [e * s_tilde ** (-n) * moved ** n for e, n in zip(qt, ns)]
        assert not _root_at_zero(moved).coeffs[1].is_zero
        for triple, unif in ((qt, s_tilde), (qh, s_hat), (q_moved, moved)):
            res = res_local(triple, unif)
            assert res.terms == res_local_global(triple, unif).terms
            nonzero += not ell_p(res, ring=ring.field).is_zero
    assert nonzero > 12


@pytest.mark.parametrize("p", [5, 7])
def test_split_and_reduction_double_from_a_short_start(monkeypatch, p):
    # from absolute precision 2 the germs cannot carry the units to precision
    # m: the split and the reduction run again on deeper expansions, seen in
    # the requested orders, and end on the global route's wedge terms
    ring = RatFnRing(Fq(p))
    rng = spawn(21, "res-local-doubling", p)
    orders = []
    monkeypatch.setattr(localfield, "expand_at",
                        lambda f, c, n: orders.append(n) or expand_at(f, c, n))
    for _ in range(4):
        qt, _, s_tilde, _ = rand_good_lifting_pair(ring, rng)

        def residue(germ):
            unif = germ(s_tilde)
            root = local_point(unif)
            goods = [goodness_split(germ(f), unif) for f in qt]
            return res_good([GoodElem(g.n, reduce_at(g.u, root)) for g in goods])

        orders.clear()
        res = germs_at_zero(ring.field, 2, residue)
        assert res.terms == res_local_global(qt, s_tilde).terms
        assert min(orders) == 1 and max(orders) >= p
        assert set(orders) <= {2 ** k - 1 for k in range(1, 8)}


def test_germ_split_and_reduction_run_no_gcd(monkeypatch):
    p = 7
    ring = RatFnRing(Fq(p))
    qt, _, s_tilde, _ = rand_good_lifting_pair(ring, spawn(22, "no-gcd"))
    calls = []
    gcd = Poly.gcd
    monkeypatch.setattr(Poly, "gcd", lambda a, b: calls.append(1) or gcd(a, b))

    def reductions(germ):
        unif = germ(s_tilde)
        root = local_point(unif)
        return [reduce_at(goodness_split(germ(f), unif).u, root) for f in qt]

    reduced = germs_at_zero(ring.field, 2 * p, reductions)
    assert calls == []
    root = local_point_oracle(s_tilde)
    assert reduced == [substitute(goodness_split_global(f, s_tilde).u.coeffs, root) for f in qt]
    assert calls  # the counter does see the global route's normalizations
