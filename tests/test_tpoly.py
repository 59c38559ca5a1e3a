import pytest
from hypothesis import given, strategies as st

from charp_dilog import tpoly
from charp_dilog.gf import (CtxMismatch, Fq, Poly, Ring, _rderiv, horner, is_irreducible,
                            is_prime, residue_field)
from charp_dilog.localfield import InsufficientPrecision, RatFn, RatFnRing, germs_at_zero
from charp_dilog.rng import spawn
from charp_dilog.sampling import quadratic_extension, rand_good_lifting_pair, rand_ratfn
from charp_dilog.tpoly import (
    HenselFailure,
    IndexOutOfRange,
    ModulusMismatch,
    NonUnitConstantTerm,
    NonzeroConstantTerm,
    Trunc,
    _series_div,
    ell_i,
    hensel_root_zpoly,
    log_circ,
    rp_eval,
    rp_mul,
    trunc_exp,
    unit_decompose,
    unit_recompose,
)

from oracles import (div_via_inverse, hensel_root_oracle, log_via_inverse, rand_trunc,
                     random_extended_via_elements, schoolbook, series_inverse, trunc_horner)


def test_ring_examples(F5):
    one = Trunc.one(F5, 2)
    t = Trunc.t(F5, 2)
    assert (one + t) * (one - t) == one
    r3 = Trunc(F5, 3, [1, 1])
    assert r3.inverse() == Trunc(F5, 3, [1, -1, 1])
    x = Trunc(F5, 3, [2, 3, 4])
    assert x.reduce_to(2) == Trunc(F5, 2, [2, 3])


def test_modulus_bounds(F5):
    with pytest.raises(ModulusMismatch):
        Trunc(F5, 6, [])
    with pytest.raises(ModulusMismatch):
        Trunc(F5, 1, [])
    with pytest.raises(ModulusMismatch):
        Trunc(F5, 2, [1]) + Trunc(F5, 3, [1])
    for m2 in (1, 4):
        with pytest.raises(ModulusMismatch):
            Trunc(F5, 3, [1]).reduce_to(m2)


def test_congruence_needs_one_ring_and_a_modulus_in_range(F5):
    # equal raws over two different quadratic extensions are not congruent
    k1, k2 = (Fq(5, modulus=[c, 0, 1], base=F5) for c in (2, 3))
    a, b = Trunc(k1, 3, [k1.gen(), 1]), Trunc(k2, 3, [k2.gen(), 1])
    assert a.raws == b.raws
    with pytest.raises(ModulusMismatch):
        a.congruent(b, 2)
    x, y = Trunc(F5, 3, [1, 2, 3]), Trunc(F5, 2, [1, 2])
    assert x.congruent(y, 2) and x.congruent(x, 3)
    for m2 in (0, 3):
        with pytest.raises(ModulusMismatch):
            x.congruent(y, m2)


def test_foreign_coefficients_are_rejected(F5, F25):
    # a coefficient from another field, or no field element at all, is caught
    # when the Trunc is built, not later in its arithmetic
    with pytest.raises(CtxMismatch):
        Trunc(F5, 3, [F25.gen()])
    with pytest.raises(CtxMismatch):
        Trunc(F25, 3, [F5.one])
    with pytest.raises(CtxMismatch):
        Trunc(F5, 3, [1]) + F25.gen()
    with pytest.raises(TypeError):
        Trunc(F5, 3, ["a"])
    with pytest.raises(TypeError):
        Trunc(F5, 3, [1]).scaled("a")


def test_ratfn_ring_takes_only_its_own_coefficients(F5, F25):
    # ints, functions over the field and field elements (as constants) build;
    # anything else is rejected when the Trunc is built
    R5 = RatFnRing(F5)
    x = Trunc(R5, 3, [1, F5(2), RatFn.gen(F5)])
    assert x.coeffs == (R5.one, RatFn.const(F5(2)), R5.gen)
    with pytest.raises(TypeError):
        Trunc(R5, 3, ["a"])
    with pytest.raises(TypeError):
        Trunc(R5, 3, [1]).scaled("a")
    with pytest.raises(CtxMismatch):
        Trunc(R5, 3, [F25.gen()])
    with pytest.raises(CtxMismatch):
        Trunc(R5, 3, [RatFn.gen(F25)])


def test_inverse_needs_unit(F5):
    with pytest.raises(NonUnitConstantTerm):
        Trunc.t(F5, 3).inverse()


@pytest.mark.parametrize("p", [5, 7, 11, 4001])
def test_inv_factorials_invert_the_factorials(p):
    # the running product of the inverses of 1..n-1 gives 1/k! for k < n
    for n in (2, p):
        inv = tpoly.inv_factorials(p, n)
        assert len(inv) == n
        fact = 1
        for k, c in enumerate(inv):
            fact = fact * max(k, 1) % p
            assert c * fact % p == 1, (p, n, k)
    assert tpoly.inv_factorials(p) == tpoly.inv_factorials(p, p)


def test_exp_requires_zero_constant(F5):
    with pytest.raises(NonzeroConstantTerm):
        trunc_exp(Trunc.one(F5, 3))


def test_exp_of_t_in_r5_direct_sum_oracle(F5):
    # sum_{n<5} t^n/n! with 1/2 = 3, 1/6 = 1, 1/24 = 4 mod 5
    assert trunc_exp(Trunc.t(F5, 5)) == Trunc(F5, 5, [1, 1, 3, 1, 4])


def test_exp_is_homomorphism(F7):
    rng = spawn(0, "exp-hom")
    m = 7
    for _ in range(200):
        a = Trunc(F7, m, [F7.zero] + [F7.random_element(rng) for _ in range(m - 1)])
        b = Trunc(F7, m, [F7.zero] + [F7.random_element(rng) for _ in range(m - 1)])
        assert trunc_exp(a) * trunc_exp(b) == trunc_exp(a + b)


def test_log_examples(F5):
    c = Trunc.constant(F5, 3, F5(4))
    assert log_circ(c).is_zero
    assert log_circ(Trunc(F5, 3, [1, 1])) == Trunc(F5, 3, [0, 1, F5(2).inverse() * F5(-1)])


def test_log_is_homomorphism(F5):
    rng = spawn(1, "log-hom")
    for _ in range(200):
        u = rand_trunc(F5, 5, rng, unit=True)
        v = rand_trunc(F5, 5, rng, unit=True)
        assert log_circ(u * v) == log_circ(u) + log_circ(v)


def test_exp_log_inverse_pair(F7):
    rng = spawn(2, "exp-log")
    m = 7
    for _ in range(100):
        a = Trunc(F7, m, [F7.zero] + [F7.random_element(rng) for _ in range(m - 1)])
        assert log_circ(trunc_exp(a)) == a
        u = rand_trunc(F7, m, rng, unit=True)
        v = trunc_exp(log_circ(u))
        assert v.scaled(u.c0) == u


def test_ell_examples(F5, F7):
    assert ell_i(Trunc(F5, 3, [1, 1]), 1) == F5.one
    assert ell_i(Trunc(F5, 3, [1, 1]), 2) == -F5(2).inverse()
    for field in (F5, F7):
        p = field.p
        u = Trunc(field, p, [field.one] + [field.zero] * (p - 2) + [field.one])
        assert ell_i(u, p - 1) == field.one
    with pytest.raises(IndexOutOfRange):
        ell_i(Trunc(F5, 3, [1, 1]), 3)


@pytest.mark.parametrize("p", [5, 7])
def test_decompose_recompose_roundtrip(p):
    field = Fq(p)
    rng = spawn(3, "decomp", p)
    for _ in range(500):
        u = rand_trunc(field, p, rng, unit=True)
        d = unit_decompose(u)
        assert unit_recompose(d) == u
        assert d.a0 == u.c0
        assert unit_decompose(unit_recompose(d)) == d


def test_decompose_examples(F5):
    c = Trunc.constant(F5, 4, F5(3))
    d = unit_decompose(c)
    assert d.a0 == F5(3) and all(e.is_zero for e in d.exps)
    beta = F5(2)
    u = Trunc.constant(F5, 4, F5(3)) * trunc_exp(Trunc(F5, 4, [0, 0, beta]))
    d = unit_decompose(u)
    assert d.a0 == F5(3)
    assert list(d.exps) == [F5.zero, beta, F5.zero]


def test_reduce_commutes_with_ops(F7):
    rng = spawn(4, "reduce-comm")
    for _ in range(100):
        a = Trunc(F7, 6, [F7.random_element(rng) for _ in range(6)])
        b = Trunc(F7, 6, [F7.random_element(rng) for _ in range(6)])
        for m2 in (2, 3, 5):
            assert (a + b).reduce_to(m2) == a.reduce_to(m2) + b.reduce_to(m2)
            assert (a * b).reduce_to(m2) == a.reduce_to(m2) * b.reduce_to(m2)


@given(st.integers(2, 7))
def test_shift_truncates(m):
    F7 = Fq(7)
    t = Trunc.t(F7, m) if m >= 2 else None
    one = Trunc.one(F7, m)
    assert one.shifted(m).is_zero
    assert one.shifted(1) == (t if m >= 2 else one)


@given(st.integers(2, 7), st.integers(0, 9))
def test_shift_is_multiplication_by_t_power(m, j):
    F7 = Fq(7)
    x = Trunc(F7, m, [3, 1, 4, 1, 5, 2, 6][:m])
    t_power = Trunc.one(F7, m)
    for _ in range(j):
        t_power = t_power * Trunc.t(F7, m)
    assert x.shifted(j) == x * t_power
    assert x.shifted(j).is_zero == (j >= m)


def test_negative_shift_raises(F7):
    with pytest.raises(IndexOutOfRange):
        Trunc.one(F7, 3).shifted(-1)


def test_hensel_root_lifts_simple_roots(F5):
    rng = spawn(5, "hensel")
    m = 5
    for _ in range(50):
        # polynomial with a simple root at a random point mod t
        r0 = F5.random_element(rng)
        other = r0 + F5.one + F5.from_int(rng.randrange(4))
        coeffs = [Trunc(F5, m, [(-r0)]) + Trunc.t(F5, m).scaled(F5.random_element(rng)),
                  Trunc.one(F5, m)]
        # (z - r0 - eps t)(z - other)
        lin2 = [Trunc.constant(F5, m, -other), Trunc.one(F5, m)]
        poly = rp_mul(coeffs, lin2)
        root = hensel_root_zpoly(poly, r0)
        assert rp_eval(poly, root).is_zero
        assert root.c0 == r0


def test_rp_mul_evaluates_to_the_product(F7):
    # a product of polynomials in z with Trunc coefficients, zero coefficients
    # included, evaluates to the product of the values at any point
    rng = spawn(14, "rp-mul")
    m = 4
    zero = Trunc.zero(F7, m)
    for _ in range(20):
        a, b = ([rand_trunc(F7, m, rng) if rng.random() < 0.7 else zero
                 for _ in range(rng.randrange(1, 5))] for _ in range(2))
        x = rand_trunc(F7, m, rng)
        product = rp_mul(a, b)
        assert len(product) == len(a) + len(b) - 1
        assert rp_eval(product, x) == rp_eval(a, x) * rp_eval(b, x)
    assert rp_mul([], [zero]) == []


def test_hensel_rejects_double_roots(F5):
    m = 5
    one = Trunc.one(F5, m)
    # (z - 1)^2 has no simple root at 1
    poly = [one, Trunc.constant(F5, m, F5(-2)), one]
    with pytest.raises(HenselFailure):
        hensel_root_zpoly(poly, F5.one)
    # (z - 1)^2 + t: P'(1) = 0 mod t, and no lift exists at all
    with pytest.raises(HenselFailure):
        hensel_root_zpoly([one + Trunc.t(F5, m)] + poly[1:], F5.one)


def test_rp_eval_raw_horner_matches_trunc_arithmetic(F7, F49):
    rng = spawn(7, "rp-eval")
    for field in (F7, F49):
        for m in (2, 4, 7):
            x = rand_trunc(field, m, rng)
            # Trunc and scalar coefficients mixed, as in ratfn_at_trunc
            coeffs = [rand_trunc(field, m, rng) if rng.randrange(2) else field.random_element(rng)
                      for _ in range(rng.randrange(1, 6))]
            assert rp_eval(coeffs, x) == trunc_horner(coeffs, x)
    with pytest.raises(ModulusMismatch):
        rp_eval([Trunc.one(F7, 3), Trunc.one(F7, 4)], Trunc.t(F7, 4))


def test_hensel_rejects_non_roots(F5):
    m = 5
    one = Trunc.one(F5, m)
    # z - 1 has the simple root 1, which one Newton step from 0 would reach
    with pytest.raises(HenselFailure):
        hensel_root_zpoly([-one, one], F5.zero)
    with pytest.raises(HenselFailure):
        hensel_root_zpoly([Trunc(F5, m, [1, 1]), one, one], F5.one)  # P(1) = 3, P'(1) = 3
    with pytest.raises(HenselFailure):
        hensel_root_zpoly([Trunc.t(F5, m)], F5.zero)  # constant in z
    with pytest.raises(HenselFailure):
        hensel_root_zpoly([], F5.zero)  # no z-coefficients at all


def _hensel_fields():
    F5, F11 = Fq(5), Fq(11)
    F25 = Fq(5, modulus=[2, 0, 1], base=F5)
    # u has order 8 in F_25^x, so it is a non-square and z^2 - u is irreducible
    F625 = Fq(5, modulus=[-F25.gen(), 0, 1], base=F25)
    return [F5, Fq(7), F11, Fq(11, modulus=[1, 0, 1], base=F11), F25, F625]


def _depths(p):
    return sorted({m for m in (2, 3, 4, 5, 7, p) if m <= p})


def _unit_not_one(field, rng):
    while True:
        c = field.random_element(rng)
        if not c.is_zero and c != field.one:
            return c


def _linear(field, m, c, r0, rng):
    """c0 + c z with c in F_q and a random c0 in F_q[t]/(t^m) whose root mod t is r0."""
    c0 = rand_trunc(field, m, rng)
    return [c0 - Trunc.constant(field, m, c0.c0 + c * r0), Trunc.constant(field, m, c)]


def test_hensel_matches_full_precision_newton_in_the_coefficient_field():
    for field in _hensel_fields():
        rng = spawn(field.order, "hensel-oracle")
        for m in _depths(field.p):
            # c constant in t: the closed form -c0/c, with c = 1 and another unit
            linear = spawn(field.order, "hensel-oracle-linear", m)
            for c in (field.one, _unit_not_one(field, linear)):
                r0 = field.random_element(linear)
                coeffs = _linear(field, m, c, r0, linear)
                assert hensel_root_zpoly(coeffs, r0) == hensel_root_oracle(coeffs, r0)
            # c(0) = 0 and no t-terms: no simple root, before any closed form
            with pytest.raises(HenselFailure):
                hensel_root_zpoly([Trunc.zero(field, m), Trunc.zero(field, m)], field.zero)
            for degree in range(1, 5):
                for _ in range(3):
                    r0 = field.random_element(rng)
                    coeffs = [rand_trunc(field, m, rng) for _ in range(degree + 1)]
                    # shift the constant term so that P(r0) = 0 mod t
                    at_r0 = trunc_horner(coeffs, Trunc.constant(field, m, r0)).c0
                    coeffs[0] = coeffs[0] - Trunc.constant(field, m, at_r0)
                    deriv = [c.scaled(field.from_int(k)) for k, c in enumerate(coeffs)][1:]
                    if trunc_horner(deriv, Trunc.constant(field, m, r0)).c0.is_zero:
                        with pytest.raises(HenselFailure):
                            hensel_root_zpoly(coeffs, r0)
                        continue
                    root = hensel_root_zpoly(coeffs, r0)
                    assert root == hensel_root_oracle(coeffs, r0)
                    assert root.c0 == r0 and trunc_horner(coeffs, root).is_zero


def test_linear_root_with_a_constant_coefficient_runs_no_ladder(monkeypatch):
    # three routes: c0 + c z with c constant in t is -c0/c, whose only products
    # are those of the final check P(x) = 0 mod t^m; any other P takes the
    # recurrence up to m0, with no product before that check either, and the
    # Newton ladder, whose products come before it, above m0
    F7, F11 = Fq(7), Fq(11)
    F121 = Fq(11, modulus=[1, 0, 1], base=F11)
    F625 = _hensel_fields()[-1]
    m0 = tpoly._RELAXED_MAX_M
    Fp = _field_above(m0 + 1)
    horner_ns, products = [], []

    def spy_horner(ring, coeffs, x, n):
        horner_ns.append(n)
        return horner(ring, coeffs, x, n)

    def spy_mul_low(self, a, b, n):
        products.append(len(horner_ns))
        return mul_low(self, a, b, n)

    def lift(coeffs, r0):
        """The horner precisions and the products (by the horner calls before
        each) of one lift."""
        horner_ns.clear()
        products.clear()
        root = hensel_root_zpoly(coeffs, r0)
        seen = list(horner_ns), list(products)
        assert rp_eval(coeffs, root).is_zero and root.c0 == r0
        return seen

    mul_low = Fq._raw_mul_low
    monkeypatch.setattr(tpoly, "horner", spy_horner)
    monkeypatch.setattr(Fq, "_raw_mul_low", spy_mul_low)
    for field in (F7, F121, F625, Fp, quadratic_extension(Fp)):
        rng = spawn(field.order, "closed-form")
        for m in sorted(m for m in {2, 5, field.p, m0, m0 + 1} if m <= field.p):
            for c in (field.one, _unit_not_one(field, rng)):
                r0 = field.random_element(rng)
                coeffs = _linear(field, m, c, r0, rng)
                # P'(x0) and P(x0) at t = 0, then the final check, which makes every product
                assert lift(coeffs, r0) == ([1, 1, m], [3]), (field, m)
                # rows shorter than m, as wedge._rows gives them: still m raws
                short = [coeffs[0].raws[:1], coeffs[1].raws[:1]]
                assert (tpoly.newton_root(field, short, field._raw_of(r0), m)
                        == list(Trunc.constant(field, m, r0).raws))
                # c = c(0) + t, and a quadratic: no closed form
                coeffs[1] = coeffs[1] + Trunc.t(field, m)
                for poly in (coeffs, rp_mul(coeffs, [Trunc.one(field, m), Trunc.t(field, m)])):
                    ns, prods = lift(poly, r0)
                    if m <= m0:
                        assert ns == [1, 1, m] and set(prods) == {3}, (field, m, ns, prods)
                    else:
                        assert ns[-1] == m and len(ns) > 3 and prods[0] < len(ns), (field, m, ns)


def test_hensel_matches_full_precision_newton_in_residue_fields():
    # P = pi * cofactor mod t with pi irreducible of degree 2: the root lives
    # in the residue field of pi, as at the regulator's and the cycles' points
    for field in _hensel_fields()[:5]:
        rng = spawn(field.order, "hensel-residue")
        for m in _depths(field.p):
            for degree in range(2, 5):
                while True:
                    pi = Poly(field, [field.random_element(rng), field.random_element(rng), 1])
                    if is_irreducible(pi):
                        break
                cofactor = Poly(field, [field.random_element(rng)
                                        for _ in range(degree - 2)] + [1])
                if (cofactor % pi).is_zero:
                    cofactor = Poly(field, [1])
                reduction = pi * cofactor
                coeffs = [Trunc(field, m, [reduction.coeff(k)] +
                                [field.random_element(rng) for _ in range(m - 1)])
                          for k in range(reduction.degree + 1)]
                kprime, r0 = residue_field(pi)
                coeffs = [c.embedded(kprime) for c in coeffs]
                root = hensel_root_zpoly(coeffs, r0)
                assert root == hensel_root_oracle(coeffs, r0)
                assert root.c0 == r0 and trunc_horner(coeffs, root).is_zero


def _field_above(m):
    """The first prime field with p >= m, so that Truncs reach precision m."""
    return Fq(next(p for p in range(max(m, 5), 2 * m + 5) if is_prime(p)))


def _rooted_rows(field, m, degree, rng):
    """Raw rows of a random P of the degree over F_q[t]/(t^m), shifted so that
    a random r0 is a root mod t, with r0."""
    r0 = field.random_element(rng)
    rows = [[field.random_element(rng).raw for _ in range(m)] for _ in range(degree + 1)]
    rows[0][0] = field._raw_sub(rows[0][0], horner(field, rows, [r0.raw], 1)[0])
    return rows, r0


def test_recurrence_ladder_and_oracle_agree_across_the_crossover():
    # the coefficient recurrence, the Newton ladder and full-precision Newton
    # give one root over F_p, F_p^2 and the F_625 tower, at degrees 1 to 6
    # (a linear P has a c that is not constant in t) and on both sides of m0;
    # where r0 is no simple root, newton_root raises
    m0 = tpoly._RELAXED_MAX_M
    Fp = _field_above(m0 + 1)
    for field in (Fp, quadratic_extension(Fp), _hensel_fields()[-1]):
        rng = spawn(field.order, "hensel-crossover")
        for m in (2, 3, 5, 7, m0, m0 + 1):
            for degree in range(1, 7):
                rows, r0 = _rooted_rows(field, m, degree, rng)
                slope = horner(field, [[c] for c in _rderiv(field, [row[0] for row in rows])],
                               [r0.raw], 1)[0]
                if field._raw_is_zero(slope):
                    with pytest.raises(HenselFailure):
                        tpoly.newton_root(field, rows, r0.raw, m)
                    continue
                inv = field._raw_inv(slope)
                ladder = tpoly._ladder_root(field, rows, r0.raw, inv, m)
                relaxed = tpoly._relaxed_root(field, rows, r0.raw, inv, m)
                assert relaxed == ladder, (field, m, degree)
                assert tpoly.newton_root(field, rows, r0.raw, m) == ladder
                if m <= field.p:
                    coeffs = [Trunc._of(field, m, row) for row in rows]
                    assert hensel_root_oracle(coeffs, r0).raws == tuple(ladder), (field, m, degree)


def test_hensel_failures_keep_their_type_on_both_sides_of_the_crossover():
    # not a root, a double root, constant in z, no coefficients, and a linear
    # P whose c vanishes at t = 0, at m0 (the recurrence) and m0 + 1 (the ladder)
    m0 = tpoly._RELAXED_MAX_M
    field = _field_above(m0 + 1)
    for m in (m0, m0 + 1):
        one, t = Trunc.one(field, m), Trunc.t(field, m)
        double = [one, Trunc.constant(field, m, -2), one]  # (z - 1)^2
        cases = [([Trunc(field, m, [1, 1]), one, one], field.one),  # P(1) = 3
                 (double, field.one), ([one + t] + double[1:], field.one),
                 ([t], field.zero), ([t, t], field.zero), ([t, t, one], field.zero)]
        for coeffs, r0 in cases:
            with pytest.raises(HenselFailure):
                hensel_root_zpoly(coeffs, r0)
        with pytest.raises(HenselFailure):
            tpoly.newton_root(field, [], field._raw_from_int(0), m)
        with pytest.raises(HenselFailure):
            hensel_root_zpoly([], field.zero)


def test_random_extended_draws_raws_as_the_element_route_does(F5, F7, F49):
    # the same lift and the same rng state afterwards as the route that draws
    # elements and coerces every coefficient again, over F_p, F_p^2 and F_q(s);
    # m2 stays within m <= m2 <= p
    for ring in (F5, F7, F49, RatFnRing(F5)):
        for m, m2 in ((2, 2), (2, ring.characteristic), (3, 4)):
            x = rand_trunc(ring, m, spawn(35, "lift-base", m))
            new_rng, old_rng = spawn(35, "lift", m2), spawn(35, "lift", m2)
            assert x.random_extended(m2, new_rng) == random_extended_via_elements(x, m2, old_rng)
            assert new_rng.random() == old_rng.random()
        x = Trunc.one(ring, 3)
        for m2 in (2, ring.characteristic + 1):
            with pytest.raises(ModulusMismatch):
                x.random_extended(m2, spawn(35, "bad-lift"))


# -- the raw path against the generic loop and the series definition ----------

class GenericRing(Ring):
    """An Fq whose raws are its elements, so Trunc computes on FqElem
    coefficients with element loops and the schoolbook product instead of
    the field's raw kernel: the ring protocol's defaults over three hooks."""

    def __init__(self, field):
        self.field = field

    def _raw_from_int(self, n):
        return self.field.from_int(n)

    def _operand(self, x):
        raw = self.field._operand(x)
        return raw if raw is NotImplemented else self.field._element(raw)

    _raw_mul_low = schoolbook


def log_series_oracle(u):
    """log(u/u(0)) = sum_{n<m} (-1)^(n+1) z^n / n with z = u/u(0) - 1."""
    ring, m = u.ring, u.m
    z = u.scaled(u.c0.inverse()) - Trunc.one(ring, m)
    result = Trunc.zero(ring, m)
    power = Trunc.one(ring, m)
    for n in range(1, m):
        power = power * z
        coeff = ring.from_int(pow(n, -1, ring.characteristic) * (-1) ** (n + 1))
        result = result + power.scaled(coeff)
    return result


def _tower_rings():
    f5 = Fq(5)
    f25 = Fq(5, modulus=[2, 0, 1], base=f5)
    # u^2 - g is irreducible over F_25 for g a non-square
    g = next(x for x in f25.elements() if not x.is_zero and x ** 12 != f25.one)
    f11 = Fq(11)
    return {"F5": f5, "F7": Fq(7), "F11": f11,
            "F121": Fq(11, modulus=[1, 0, 1], base=f11),
            "F625": Fq(5, modulus=[-g, 0, 1], base=f25)}


RINGS = _tower_rings()


@pytest.mark.parametrize("name", list(RINGS))
def test_raw_path_matches_generic_loop(name):
    field = RINGS[name]
    generic = GenericRing(field)
    rng = spawn(9, "raw-trunc", name)
    for m in sorted({2, 3, field.p}):
        for trial in range(12):
            a = [field.random_element(rng) for _ in range(m)]
            b = [field.random_element(rng) for _ in range(m)]
            if trial % 4 == 1:
                b[1:] = [field.zero] * (m - 1)   # a constant factor
            elif trial % 4 == 2:
                a[m // 2:] = [field.zero] * (m - m // 2)   # trailing zeros
            x, y = Trunc(field, m, a), Trunc(field, m, b)
            gx, gy = Trunc(generic, m, a), Trunc(generic, m, b)
            assert (x * y).coeffs == (gx * gy).coeffs
            assert (x + y).coeffs == (gx + gy).coeffs
            assert (x - y).coeffs == (gx - gy).coeffs
            assert (-x).coeffs == (-gx).coeffs
            c = field.random_element(rng)
            assert x.scaled(c).coeffs == gx.scaled(c).coeffs
            if x.is_unit:
                inv = x.inverse()
                assert inv.coeffs == gx.inverse().coeffs
                assert x * inv == Trunc.one(field, m)
                log = log_circ(x)
                assert log == log_series_oracle(x)
                assert log.coeffs == log_circ(gx).coeffs
                assert log.coeffs == log_series_oracle(gx).coeffs


LOG_RINGS = [*RINGS, "F5(s)"]


def _log_ring(name):
    return RatFnRing(RINGS["F5"]) if name == "F5(s)" else RINGS[name]


@pytest.mark.parametrize("name", LOG_RINGS)
def test_log_matches_the_inverse_route(name):
    # the one-pass recurrence against theta(u) times u.inverse(), then 1/n
    ring = _log_ring(name)
    rng = spawn(42, "log-via-inverse", name)
    for m in sorted({2, 3, ring.characteristic}):
        for _ in range(2 if name == "F5(s)" else 8):
            u = rand_trunc(ring, m, rng, unit=True)
            assert log_circ(u) == log_via_inverse(u)


def _germ_units(p, rng):
    """Truncations of functions over F_p with a nonzero constant term: the
    entries and uniformizers of good lifting pairs, and random functions
    (some with a pole at s = 0)."""
    ring = RatFnRing(Fq(p))
    qtilde, qhat, s_tilde, s_hat = rand_good_lifting_pair(ring, rng)
    units = [x for x in [*qtilde, *qhat, s_tilde, s_hat] if not x.c0.is_zero]
    for pole in (False, True):
        head = rand_ratfn(ring, rng, nonzero=True, pole_at_zero=pole)
        units.append(Trunc(ring, p, [head, *(rand_ratfn(ring, rng) for _ in range(p - 1))]))
    return ring, units


def _logs_on_germs(field, prec, u):
    """Both routes' logs of u's germ at s = 0 through germs_at_zero from
    precision ``prec``, each with the number of precisions it tried."""
    out = []
    for log in (log_circ, log_via_inverse):
        tries = []

        def compute(germ):
            tries.append(germ)
            return log(germ(u))
        out.append((germs_at_zero(field, prec, compute), len(tries)))
    return out


@pytest.mark.parametrize("p", [5, 7])
def test_log_on_germs_matches_the_inverse_route(p):
    # every coefficient agrees in value and precision, and both routes ask
    # germs_at_zero for the same precision doublings
    rng = spawn(43, "log-germs", p)
    ring, units = _germ_units(p, rng)
    for u in units:
        for prec in (2, p + 1, 3 * p):
            (ours, tries), (ref, ref_tries) = _logs_on_germs(ring.field, prec, u)
            assert tries == ref_tries
            assert ours.coeffs == ref.coeffs
            assert [c.prec for c in ours.coeffs] == [c.prec for c in ref.coeffs]


def test_low_precision_germ_log_doubles_the_same_way(F5):
    # a constant term of valuation 3 is unknown below precision 3: both routes
    # raise there, so germs_at_zero retries both at precision 4
    ring = RatFnRing(F5)
    u = Trunc(ring, 5, [ring.gen ** 3 + ring.gen ** 4, 1, ring.gen, 0, 2])
    germ = germs_at_zero(F5, 2, lambda g: g)
    for log in (log_circ, log_via_inverse):
        with pytest.raises(InsufficientPrecision):
            log(germ(u))
    (ours, tries), (ref, ref_tries) = _logs_on_germs(F5, 2, u)
    assert tries == ref_tries == 2
    assert ours.coeffs == ref.coeffs and ours.coeffs[1].prec == ref.coeffs[1].prec


@pytest.mark.parametrize("name", [*LOG_RINGS, "germs"])
def test_series_div_matches_inverse_then_product(name):
    # num/den by one recurrence against the inverse recurrence times num, with
    # num shorter than den, and with num = [1] against the inverse alone
    p = 7 if name == "germs" else _log_ring(name).characteristic
    rng = spawn(44, "series-div", name)
    for m in sorted({2, 3, p}):
        for trial in range(2 if name == "F5(s)" else 6):
            if name == "germs":
                ring, units = _germ_units(p, rng)
                u = units[trial % len(units)]
                germ = germs_at_zero(ring.field, p + 1, lambda g: g)
                ring, den = germ.ring, germ(u).raws[:m]
                num = [germ(c).raw for c in rand_trunc(RatFnRing(ring.field), m, rng).coeffs]
            else:
                ring = _log_ring(name)
                den = rand_trunc(ring, m, rng, unit=True).raws
                num = rand_trunc(ring, m, rng).raws
            one = [ring._raw_from_int(1)]
            for k in range(1, m + 1):
                got = _series_div(ring, num[:k], den)
                want = div_via_inverse(ring, num[:k], den)
                assert ring._wrap(got) == ring._wrap(want)
            assert ring._wrap(_series_div(ring, one, den)) == ring._wrap(series_inverse(ring, den))


def test_log_over_ratfn_ring_matches_series(F5):
    ring = RatFnRing(F5)
    rng = spawn(10, "ratfn-log")
    for m in (3, 5):
        for _ in range(3):
            u = rand_trunc(ring, m, rng, unit=True)
            assert log_circ(u) == log_series_oracle(u)


def test_log_and_exp_at_huge_prime():
    # the inverse and factorial tables are sized by m, not by p
    field = Fq(2 ** 61 - 1)
    rng = spawn(11, "huge-p")
    for _ in range(20):
        u = rand_trunc(field, 3, rng, unit=True)
        log = log_circ(u)
        assert log == log_series_oracle(u)
        assert trunc_exp(log).scaled(u.c0) == u


def test_embedded_keeps_its_own_ring(F5, F25):
    rng = spawn(13, "embedded")
    x = Trunc(F5, 3, [F5.random_element(rng) for _ in range(3)])
    assert x.embedded(F5) is x
    assert x.embedded(Fq(5)) is x
    y = x.embedded(F25)
    assert y.ring == F25 and list(y.coeffs) == [F25.embed(c) for c in x.coeffs]
    assert y.embedded(F25) is y


def test_embedded_is_the_coefficientwise_embedding(F5, F25):
    # raws go straight to (c, 0, ..., 0) in an Fq directly over the ring; any
    # other ring, or a field that does not extend it, goes through ring.embed
    rng = spawn(24, "embedded-raw")
    F625 = Fq(5, modulus=[-F25.gen(), 0, 1], base=F25)
    for ring, target in ((F5, F25), (F25, F625), (F5, RatFnRing(F5))):
        x = Trunc(ring, 4, [ring.random_element(rng) for _ in range(4)])
        assert x.embedded(target) == x.map_coeffs(target.embed, target)
    foreign = Fq(5, modulus=[3, 0, 1], base=F5)
    for x, target in ((Trunc(F25, 3, [F25.gen()]), foreign), (Trunc(F5, 3, [2]), F625),
                      (Trunc(Fq(7), 3, [2]), F25)):
        with pytest.raises(CtxMismatch):
            x.embedded(target)
