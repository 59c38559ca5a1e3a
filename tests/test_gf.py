import pytest
from hypothesis import given, strategies as st

from charp_dilog import gf
from charp_dilog.gf import (
    BadPrime,
    CtxMismatch,
    DivisionByZero,
    Fq,
    NotInSubfield,
    Poly,
    ZeroPolynomial,
    factor_squarefree_irreducibles,
    frobenius,
    is_irreducible,
    multiplicity,
    trace_to,
    trace_to_base,
    trace_to_prime,
)
from charp_dilog.rng import spawn
from charp_dilog.tpoly import Trunc

from oracles import trace_orbit


def test_prime_guard():
    with pytest.raises(BadPrime):
        Fq(4)
    with pytest.raises(BadPrime):
        Fq(3)
    Fq(5)


def test_inverse_identity(F5):
    assert F5.one.inverse() == F5.one


def test_inverse_of_two_over_f5(F5):
    assert F5(2).inverse() == F5(3)


def test_inverse_matches_power_oracle(F25):
    # independent oracle: a^(q-2) inverts in F_q^x
    rng = spawn(0, "inv-oracle")
    for _ in range(50):
        a = F25.random_element(rng)
        if a.is_zero:
            continue
        assert a.inverse() == a ** (F25.order - 2)
        assert a * a.inverse() == F25.one


def test_extension_inverse_euclid(F5, F25):
    u = F25.gen()
    assert u * u.inverse() == F25.one
    # u^2 = -2 = 3, so 1/u = u/3 = 2u
    assert u.inverse() == F25.from_coeffs([0, 2])


def test_ctx_mismatch(F5, F7):
    with pytest.raises(CtxMismatch):
        F5(2) + F7(2)


def test_division_by_zero(F5):
    with pytest.raises(DivisionByZero):
        F5.zero.inverse()


@given(st.integers(0, 24), st.integers(0, 24), st.integers(0, 24))
def test_field_axioms_f25(a, b, c):
    F5 = Fq(5)
    F25 = Fq(5, modulus=[2, 0, 1], base=F5)
    elems = list(F25.elements())
    x, y, z = elems[a], elems[b], elems[c]
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert x + (y + z) == (x + y) + z


def test_frobenius_fixes_exactly_prime_subfield(F25, F49):
    for field in (F25, F49):
        prime_count = 0
        for x in field.elements():
            fixed = frobenius(x) == x
            if fixed:
                prime_count += 1
        assert prime_count == field.p


def test_trace_examples(F25, F5):
    assert trace_to_prime(F25.one) == F5(2)
    # base-field element c traces to deg * c
    c = F25.embed(F5(3))
    assert trace_to_prime(c) == F5(6)
    # trace(u) = u + u^5; u^5 = u^4 * u = (u^2)^2 u = 9u = 4u, so trace = 5u = 0
    assert trace_to_prime(F25.gen()) == F5.zero


def test_trace_additive_and_frobenius_stable(F49):
    rng = spawn(1, "trace")
    for _ in range(40):
        x = F49.random_element(rng)
        y = F49.random_element(rng)
        assert trace_to_prime(x + y) == trace_to_prime(x) + trace_to_prime(y)
        assert trace_to_prime(frobenius(x)) == trace_to_prime(x)


def _f625(F25):
    """F_625 as a quadratic extension of F_25."""
    for c in F25.elements():
        try:
            return Fq(5, modulus=[c, F25.one, F25.one], base=F25)
        except ValueError:
            continue
    raise AssertionError("no irreducible u^2 + u + c over F_25")


def test_trace_through_a_tower(F25, F5):
    tower = _f625(F25)
    assert tower.degree_abs == 4
    rng = spawn(5, "tower")
    for _ in range(10):
        x = tower.random_element(rng)
        assert trace_to_base(x).field == F25
        assert trace_to_prime(x) == trace_orbit(x)
        assert trace_to_prime(x).field == F5


def test_trace_to_goes_down_the_tower(F5, F7, F25):
    tower = _f625(F25)
    rng = spawn(13, "trace-to")
    for _ in range(10):
        x = tower.random_element(rng)
        assert trace_to(x, tower) is x
        assert trace_to(x, F25) == trace_to_base(x)
        assert trace_to(x, F5) == trace_to_base(trace_to_base(x)) == trace_orbit(x)
        y = F25.random_element(rng)
        assert trace_to(y, F25) is y
        assert trace_to(y, F5) == trace_orbit(y)
    for x, field in ((F25.gen(), F7), (F25.gen(), tower), (F5.one, F25)):
        with pytest.raises(CtxMismatch):
            trace_to(x, field)


def test_multiplicity(F5, F25):
    for field, g in ((F5, Poly(F5, [2, 0, 1])), (F25, Poly(F25, [-F25.gen(), 1]))):
        x = Poly.x(field)
        cofactor = (x + 1) * (x + 3)
        assert multiplicity(g ** 3 * cofactor, g) == (3, cofactor)
        assert multiplicity(cofactor, g) == (0, cofactor)
        assert multiplicity(g, g) == (1, Poly(field, [1]))
    with pytest.raises(ZeroPolynomial):
        multiplicity(Poly(F5), Poly.x(F5))


def _count_calls(monkeypatch, owner, name):
    calls = []
    orig = getattr(owner, name)

    def counted(*args):
        calls.append(None)
        return orig(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7, 12, 24, 31, 100])
def test_power_makes_the_fewest_square_and_multiply_products(monkeypatch, F5, F25, n):
    # no product with one and no square after the top bit of n
    bases = [Trunc(F5, 4, [2, 1, 3]), Poly(F5, [1, 2]), F25.gen() + 1]
    expected = []
    for x in bases:
        acc = x ** 0
        for _ in range(n):
            acc = acc * x
        expected.append(acc)
    calls = [_count_calls(monkeypatch, Trunc, "__mul__"),
             _count_calls(monkeypatch, Poly, "__mul__"),
             _count_calls(monkeypatch, Fq, "_raw_mul")]
    products = n.bit_length() + bin(n).count("1") - 2 if n else 0
    for x, want, counted in zip(bases, expected, calls):
        assert x ** n == want
        assert len(counted) == products


def test_relative_trace(F25):
    rng = spawn(2, "rel-trace")
    for _ in range(20):
        x = F25.random_element(rng)
        assert trace_to_base(x).field == F25.base
        assert F25.embed(trace_to_base(x)) == x + x ** 5


def test_poly_divmod_and_gcd(F5):
    x = Poly.x(F5)
    f = (x + 1) * (x + 2) ** 2
    g = (x + 2) * (x + 3)
    assert f.gcd(g) == x + 2
    q, r = divmod(f, g)
    assert q * g + r == f


def test_factor_z2_plus_1_over_f5(F5):
    x = Poly.x(F5)
    factors = factor_squarefree_irreducibles(x * x + 1)
    assert factors == [(x + 2, 1), (x + 3, 1)]


def test_factor_z_over_f7(F7):
    x = Poly.x(F7)
    assert factor_squarefree_irreducibles(x) == [(x, 1)]


def test_factor_z2_plus_1_over_f7_irreducible(F7):
    x = Poly.x(F7)
    f = x * x + 1
    # no root among the 7 candidates
    assert all(not f.evaluate(c).is_zero for c in F7.elements())
    assert factor_squarefree_irreducibles(f) == [(f, 1)]
    assert is_irreducible(f)


def test_factor_zero_polynomial(F5):
    with pytest.raises(ZeroPolynomial):
        factor_squarefree_irreducibles(Poly(F5))


@pytest.mark.parametrize("p", [5, 7, 11])
def test_factor_remultiplies(p):
    field = Fq(p)
    rng = spawn(3, "factor", p)
    for trial in range(200):
        deg = rng.randrange(1, 7)
        coeffs = [field.random_element(rng) for _ in range(deg)] + [field.one]
        f = Poly(field, coeffs)
        product = Poly(field, [f.leading()])
        for g, mult in factor_squarefree_irreducibles(f, seed=trial):
            assert g.is_monic and is_irreducible(g)
            product = product * g ** mult
        assert product == f


def test_factor_deterministic(F5):
    x = Poly.x(F5)
    f = (x ** 2 + 2) * (x ** 2 + 3) * (x + 1) ** 2
    assert factor_squarefree_irreducibles(f, seed=7) == \
        factor_squarefree_irreducibles(f, seed=7)


def test_factor_over_extension(F25):
    x = Poly.x(F25)
    u = F25.gen()
    f = (x + u) * (x + u ** 3) ** 2
    got = dict(factor_squarefree_irreducibles(f))
    assert got == {x + u: 1, x + u ** 3: 2}


def _schoolbook(a: Poly, b: Poly) -> Poly:
    field = a.field
    if a.is_zero or b.is_zero:
        return Poly(field)
    return Poly(field, [sum((a.coeff(i) * b.coeff(k - i) for i in range(k + 1)),
                            start=field.zero)
                        for k in range(a.degree + b.degree + 1)])


@pytest.mark.parametrize("p", [5, 7, 4294967311, 2 ** 61 - 1])
def test_packed_multiplication_matches_schoolbook(p):
    field = Fq(p)
    rng = spawn(4, "packed", p)
    for _ in range(20):
        a = Poly(field, [field.random_element(rng) for _ in range(rng.randrange(1, 40))])
        b = Poly(field, [field.random_element(rng) for _ in range(rng.randrange(1, 40))])
        assert a * b == _schoolbook(a, b)
    # every coefficient p - 1: the largest convolution sums a limb must hold
    top = Poly(field, [p - 1] * 17)
    assert top * top == _schoolbook(top, top)


def _rand_poly(field, rng, degree):
    return Poly(field, [field.random_element(rng) for _ in range(degree)] + [field.one])


@pytest.mark.parametrize("name, max_deg", [("F7", 200), ("F11", 200), ("F49", 40)])
def test_divmod_gcd_differential(request, name, max_deg):
    field = request.getfixturevalue(name)
    # the generic _raw_* loop over a quadratic extension is the oracle for
    # the prime-field int kernel (u^2 + 1 is irreducible for p = 3 mod 4)
    ext = Fq(field.p, modulus=[1, 0, 1], base=field) if field.base is None else None
    rng = spawn(6, "kernel-differential", name)
    for trial in range(20):
        common = _rand_poly(field, rng, rng.randrange(0, max_deg // 3))
        a = common * _rand_poly(field, rng, rng.randrange(0, 2 * max_deg // 3)) * field(3)
        b = common * _rand_poly(field, rng, rng.randrange(0, 2 * max_deg // 3))
        if trial == 0:
            a = Poly(field)
        q, r = divmod(a, b)
        assert q * b + r == a and r.degree < b.degree
        g = a.gcd(b)
        assert g.is_monic and (a % g).is_zero and (b % g).is_zero
        assert (g % common).is_zero if trial else g == b.monic()[0]
        assert g == a.xgcd(b)[0] == b.gcd(a)
        assert (a // g) * g == a and (b // g) * g == b
        if ext is not None and trial < 5:
            ea, eb = a.embedded(ext), b.embedded(ext)
            assert divmod(ea, eb) == (q.embedded(ext), r.embedded(ext))
            assert ea.gcd(eb) == g.embedded(ext)
            assert ea * eb == (a * b).embedded(ext)


@pytest.mark.parametrize("p", [7, 11])
def test_gcd_and_factor_match_sympy(p):
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor, gf_gcd

    field = Fq(p)
    rng = spawn(7, "sympy-oracle", p)
    for _ in range(10):
        common = _rand_poly(field, rng, rng.randrange(0, 6))
        a = common * _rand_poly(field, rng, rng.randrange(0, 30))
        b = common * _rand_poly(field, rng, rng.randrange(0, 30))
        high_a, high_b = list(reversed(a.coeffs)), list(reversed(b.coeffs))
        assert list(reversed(a.gcd(b).coeffs)) == gf_gcd(high_a, high_b, p, ZZ)
        f = a * b
        ours = {tuple(reversed(g.coeffs)): m for g, m in factor_squarefree_irreducibles(f)}
        lead, theirs = gf_factor(list(reversed(f.coeffs)), p, ZZ)
        assert lead == f.leading().lift_int()
        assert ours == {tuple(g): m for g, m in theirs}


def test_trace_outside_subfield_raises(monkeypatch, F25):
    # with Frobenius replaced by the identity, trace(u) = deg * u is not fixed
    monkeypatch.setattr(gf, "frobenius", lambda x, power=1: x)
    with pytest.raises(NotInSubfield):
        trace_to_prime(F25.gen())
    with pytest.raises(NotInSubfield):
        trace_to_base(F25.gen())


@pytest.mark.parametrize("p, modulus", [(5, [2, 0, 1]), (11, [1, 0, 1]),
                                        (5, [1, 1, 0, 1]), (7, [2, 0, 0, 1])])
def test_extension_int_kernel_matches_tower_loop(p, modulus):
    # over a prime base the raw kernel works on int tuples; the recursive
    # loop through the base field's kernel is the oracle
    field = Fq(p, modulus=modulus, base=Fq(p))
    base = field.base
    rng = spawn(12, "ext-int-kernel", p, len(modulus))
    elems = [field.random_element(rng).raw for _ in range(40)]
    elems += [field.zero.raw, field.one.raw, tuple([p - 1] * field.degree)]
    for a in elems:
        for b in elems[::7]:
            assert field._raw_mul(a, b) == gf._tower_mul(field, a, b)
            assert field._raw_add(a, b) == tuple(base._raw_add(x, y) for x, y in zip(a, b))
            assert field._raw_sub(a, b) == tuple(base._raw_sub(x, y) for x, y in zip(a, b))
        assert field._raw_neg(a) == tuple(base._raw_neg(x) for x in a)
        assert field._raw_is_zero(a) == all(base._raw_is_zero(x) for x in a)
        if not field._raw_is_zero(a):
            assert field._raw_mul(a, field._raw_inv(a)) == field.one.raw


@pytest.mark.parametrize("name", ["F7", "F11", "F49"])
def test_poly_add_sub_neg(request, name):
    field = request.getfixturevalue(name)
    ext = Fq(field.p, modulus=[1, 0, 1], base=field) if field.base is None else None
    rng = spawn(13, "poly-add", name)
    for _ in range(30):
        a = Poly(field, [field.random_element(rng) for _ in range(rng.randrange(0, 12))])
        b = Poly(field, [field.random_element(rng) for _ in range(rng.randrange(0, 12))])
        if rng.randrange(3) == 0:
            b = a + Poly(field, [field.random_element(rng) for _ in range(3)])  # cancels on top
        total, diff = a + b, a - b
        for k in range(max(len(a.coeffs), len(b.coeffs))):
            assert total.coeff(k) == a.coeff(k) + b.coeff(k)
            assert diff.coeff(k) == a.coeff(k) - b.coeff(k)
        assert total.degree <= max(a.degree, b.degree) and diff.degree <= max(a.degree, b.degree)
        assert -a + a == Poly(field) and diff + b == a and (-diff) == b - a
        if ext is not None:
            ea, eb = a.embedded(ext), b.embedded(ext)
            assert (ea + eb, ea - eb, -ea) == (total.embedded(ext), diff.embedded(ext),
                                               (-a).embedded(ext))


@pytest.mark.parametrize("name", ["F7", "F49", "F121", "F625"])
def test_product_kernel_matches_schoolbook(request, name):
    # prime (int or packed), extension over a prime field (Kronecker through
    # the prime kernel) and a tower (the _raw_* loop); n keeps the low n
    if name == "F121":
        field = Fq(11, modulus=[1, 0, 1], base=Fq(11))
    elif name == "F625":
        f25 = Fq(5, modulus=[2, 0, 1], base=Fq(5))
        field = Fq(5, modulus=[f25.from_coeffs([1, 1]), 0, 1], base=f25)
    else:
        field = request.getfixturevalue(name)
    rng = spawn(14, "product-kernel", name)
    for _ in range(25):
        a = Poly(field, [field.random_element(rng) for _ in range(rng.randrange(1, 14))])
        b = Poly(field, [field.random_element(rng) for _ in range(rng.randrange(1, 14))])
        full = _schoolbook(a, b)
        assert a * b == full
        if a.is_zero or b.is_zero:
            continue
        for n in (1, 3, 11):
            low = gf._rmul(field, list(a.coeffs) + [field.zero.raw] * 2, list(b.coeffs), n)
            assert low == [full.coeff(k).raw for k in range(n)]


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_residue_field_holds_a_root(F5, degree):
    rng = spawn(12, "residue-field", degree)
    for _ in range(5):
        while True:
            pi = Poly(F5, [F5.random_element(rng) for _ in range(degree)] + [1])
            if is_irreducible(pi):
                break
        field, root = gf.residue_field(pi)
        assert field.order == 5 ** degree
        assert root.field == field
        assert pi.evaluate(root).is_zero


def _composed(f, theta):
    """f(x + theta) by substitution: sum_k a_k (x + theta)^k with Poly arithmetic."""
    field = theta.field
    lin = Poly(field, [theta, 1])
    acc = Poly(field)
    for k in range(f.degree + 1):
        acc = acc + lin ** k * field.embed(f.coeff(k))
    return acc


@pytest.mark.parametrize("name", ["F7", "F49"])
def test_taylor_shift_matches_substitution(request, F7, F49, name):
    field = request.getfixturevalue(name)
    rng = spawn(13, "taylor-shift", name)
    for trial in range(40):
        f = Poly(field, [field.random_element(rng) for _ in range(rng.randrange(0, 12))])
        # theta = 0 in its own field is the identity, without a single product
        assert f.shifted(field.zero) is f
        for theta in (field.random_element(rng), F49.zero, F49.random_element(rng)):
            assert f.shifted(theta) == _composed(f, theta)
