import pytest
from hypothesis import given, strategies as st

from charp_dilog.gf import CtxMismatch, Fq, Poly, is_irreducible, residue_field
from charp_dilog.localfield import RatFn, RatFnRing
from charp_dilog.rng import spawn
from charp_dilog.sampling import rand_trunc
from charp_dilog.tpoly import (
    ElementKernel,
    HenselFailure,
    IndexOutOfRange,
    ModulusMismatch,
    NonUnitConstantTerm,
    NonzeroConstantTerm,
    Trunc,
    ell_i,
    hensel_root_zpoly,
    log_circ,
    rp_eval,
    rp_mul,
    trunc_exp,
    unit_decompose,
    unit_recompose,
)

from oracles import hensel_root_oracle, trunc_horner


def rand_unit(ring, m, rng):
    while True:
        u = Trunc(ring, m, [ring.random_element(rng) for _ in range(m)])
        if u.is_unit:
            return u


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
        u = rand_unit(F5, 5, rng)
        v = rand_unit(F5, 5, rng)
        assert log_circ(u * v) == log_circ(u) + log_circ(v)


def test_exp_log_inverse_pair(F7):
    rng = spawn(2, "exp-log")
    m = 7
    for _ in range(100):
        a = Trunc(F7, m, [F7.zero] + [F7.random_element(rng) for _ in range(m - 1)])
        assert log_circ(trunc_exp(a)) == a
        u = rand_unit(F7, m, rng)
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
        u = rand_unit(field, p, rng)
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
        poly = rp_mul(coeffs, lin2, Trunc.zero(F5, m))
        root = hensel_root_zpoly(poly, r0)
        assert rp_eval(poly, root, Trunc.zero(F5, m)).is_zero
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
        product = rp_mul(a, b, zero)
        assert len(product) == len(a) + len(b) - 1
        assert rp_eval(product, x, zero) == rp_eval(a, x, zero) * rp_eval(b, x, zero)
    assert rp_mul([], [zero], zero) == []


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
            assert rp_eval(coeffs, x, Trunc.zero(field, m)) == trunc_horner(coeffs, x)
    with pytest.raises(ModulusMismatch):
        rp_eval([Trunc.one(F7, 3), Trunc.one(F7, 4)], Trunc.t(F7, 4), Trunc.zero(F7, 4))


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


def _hensel_fields():
    F5, F11 = Fq(5), Fq(11)
    F25 = Fq(5, modulus=[2, 0, 1], base=F5)
    # u has order 8 in F_25^x, so it is a non-square and z^2 - u is irreducible
    F625 = Fq(5, modulus=[-F25.gen(), 0, 1], base=F25)
    return [F5, Fq(7), F11, Fq(11, modulus=[1, 0, 1], base=F11), F25, F625]


def _depths(p):
    return sorted({m for m in (2, 3, 4, 5, 7, p) if m <= p})


def test_hensel_matches_full_precision_newton_in_the_coefficient_field():
    for field in _hensel_fields():
        rng = spawn(field.order, "hensel-oracle")
        for m in _depths(field.p):
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


# -- the raw path against the generic loop and the series definition ----------

class GenericRing(ElementKernel):
    """An Fq behind the element kernel, so Trunc computes on FqElem
    coefficients with the element loops instead of the field's raw kernel."""

    def __init__(self, field):
        self.characteristic = field.characteristic
        self.zero, self.one = field.zero, field.one
        self.from_int = field.from_int


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


def test_log_over_ratfn_ring_matches_series(F5):
    ring = RatFnRing(F5)
    rng = spawn(10, "ratfn-log")
    for m in (3, 5):
        for _ in range(3):
            u = rand_unit(ring, m, rng)
            assert log_circ(u) == log_series_oracle(u)


def test_log_and_exp_at_huge_prime():
    # the inverse and factorial tables are sized by m, not by p
    field = Fq(2 ** 61 - 1)
    rng = spawn(11, "huge-p")
    for _ in range(20):
        u = rand_unit(field, 3, rng)
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
