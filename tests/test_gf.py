import itertools
import operator

import pytest
from hypothesis import given, strategies as st

from charp_dilog import gf
from charp_dilog.cli import main
from charp_dilog.gf import (
    BadPrime,
    CtxMismatch,
    DivisionByZero,
    Fq,
    FqElem,
    NotInSubfield,
    Poly,
    ZeroPolynomial,
    factor_squarefree_irreducibles,
    frobenius,
    horner,
    is_irreducible,
    multiplicity,
    trace_to,
    trace_to_base,
)
from charp_dilog.localfield import RatFn, expand_at
from charp_dilog.rng import spawn
from charp_dilog.sampling import quadratic_extension, rand_nonzero
from charp_dilog.tpoly import Trunc

from oracles import (euclid_inverse, is_irreducible_by_trial_division, poly_embedded_via_elements,
                     schoolbook, tower_mul, trace_orbit)


def test_prime_guard():
    with pytest.raises(BadPrime):
        Fq(4)
    with pytest.raises(BadPrime):
        Fq(3)
    Fq(5)


def test_prime_guard_stops_at_the_proven_miller_rabin_bound(capsys):
    # the fixed Miller-Rabin bases are proven only below the bound, which is
    # itself a strong pseudoprime to all of them; no p at or above it is tried
    bound = gf._MR_EXACT_BELOW
    for p in (bound, 3317044064679887385962123):
        with pytest.raises(BadPrime, match=str(bound)):
            Fq(p)
        with pytest.raises(BadPrime, match=str(bound)):
            gf.is_prime(p)
    assert Fq(3317044064679887385961813).p == 3317044064679887385961813  # largest prime below
    assert main(["li2", "--p", "3317044064679887385962123", "--s", "2", "--a", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and str(bound) in captured.err


@pytest.mark.parametrize("n", [2021, 3215031751, 3825123056546413051])
def test_miller_rabin_rejects_composites_with_no_factor_among_the_bases(n):
    # 43 * 47, a strong pseudoprime to the bases 2, 3, 5, 7, and one to every
    # base from 2 to 23: no trial by a base divides them, so Miller-Rabin decides
    assert all(n % q for q in gf._MR_BASES)
    assert not gf.is_prime(n)


def test_is_prime_matches_trial_division_above_the_bases():
    def by_trial_division(n):
        return all(n % d for d in range(2, int(n ** 0.5) + 1))

    rng = spawn(5, "is-prime")
    sample = [*range(42, 3000), *(rng.randrange(10 ** 6, 10 ** 7) for _ in range(300))]
    wrong = [n for n in sample if gf.is_prime(n) != by_trial_division(n)]
    assert not wrong, wrong
    assert any(all(n % q for q in gf._MR_BASES) and not gf.is_prime(n) for n in sample)


def test_inverse_identity(F5):
    assert F5.one.inverse() == F5.one


def test_inverse_of_two_over_f5(F5):
    assert F5(2).inverse() == F5(3)


def test_inverse_matches_power_oracle(F25, F49):
    # independent oracle: a^(q-2) by gf.power inverts in F_q^x; Fq._raw_inv takes
    # the norm over F_25 and F_49, and runs the extended Euclid over F_25 for the
    # tower F_625
    for field in (F25, F49, _f625(F25)):
        for a in field.elements():
            if not a.is_zero:
                assert a.inverse() == a ** (field.order - 2)
                assert a * a.inverse() == field.one


@pytest.mark.parametrize("operand", ["x", 1.5])
def test_a_non_polynomial_operand_is_a_type_error(F5, operand):
    f = Poly(F5, [1, 2, 1])
    for op in (divmod, operator.mod, operator.floordiv, Poly.gcd):
        with pytest.raises(TypeError):
            op(f, operand)


def test_extension_inverse_euclid(F5, F25):
    u = F25.gen()
    assert u * u.inverse() == F25.one
    # u^2 = -2 = 3, so 1/u = u/3 = 2u
    assert u.inverse() == F25.from_coeffs([0, 2])


def test_ctx_mismatch(F5, F7, F25, F49):
    # every operator, in both orders, refuses to mix fields (an element of the
    # base field included) and germs at different points or over different fields
    s = RatFn.gen(F7)
    f = (s + 2) / (s + 3)
    germ, at_one = expand_at(f, F7.zero, 3), expand_at(f, F7.one, 3)
    over_f49 = expand_at(f, F49.gen(), 3)
    pairs = [(F5(2), F7(2)), (F25.gen(), F5(2)), (germ, at_one), (germ, over_f49),
             (germ, F5(2)), (germ, F49.gen()), (over_f49, F7(2)), (over_f49, germ.ring.one)]
    for x, y in pairs:
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            for a, b in ((x, y), (y, x)):
                with pytest.raises(CtxMismatch):
                    op(a, b)


def test_division_by_zero(F5, F25):
    # a zero field element or the zero germ has no inverse and no negative
    # power and divides nothing; an int or field-element zero divides nothing
    s = RatFn.gen(F5)
    germ = expand_at((s + 2) / (s + 3), F5.zero, 3)
    for zero, unit, numerators in ((F5.zero, F5(2), (F5(2), 1)),
                                   (F25.zero, F25.gen(), (F25.gen(), 1)),
                                   (germ.ring.zero, germ, (germ, F5(2), 1))):
        with pytest.raises(DivisionByZero):
            zero.inverse()
        with pytest.raises(DivisionByZero):
            zero ** -1
        with pytest.raises(DivisionByZero):
            unit / 0
        for num in numerators:
            with pytest.raises(DivisionByZero):
                num / zero
    with pytest.raises(DivisionByZero):
        germ / F5.zero


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
            fixed = frobenius(x, 1) == x
            if fixed:
                prime_count += 1
        assert prime_count == field.p


def test_trace_examples(F25, F5):
    assert trace_to(F25.one, F5) == F5(2)
    # base-field element c traces to deg * c
    c = F25.embed(F5(3))
    assert trace_to(c, F5) == F5(6)
    # trace(u) = u + u^5; u^5 = u^4 * u = (u^2)^2 u = 9u = 4u, so trace = 5u = 0
    assert trace_to(F25.gen(), F5) == F5.zero


def test_trace_additive_and_frobenius_stable(F7, F49):
    rng = spawn(1, "trace")
    for _ in range(40):
        x = F49.random_element(rng)
        y = F49.random_element(rng)
        assert trace_to(x + y, F7) == trace_to(x, F7) + trace_to(y, F7)
        assert trace_to(frobenius(x, 1), F7) == trace_to(x, F7)


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
        assert trace_to(x, F5) == trace_orbit(x)
        assert trace_to(x, F5).field == F5


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


def test_linear_factor_is_the_full_factorization(F5, F25):
    # a linear f is returned as its own monic factor, as the general route
    # (squarefree, distinct- and equal-degree stages) finds it
    rng = spawn(26, "linear-factor")
    sample = [Poly(F5, [b, a]) for a in range(1, 5) for b in range(5)]
    sample += [Poly(F25, [F25.random_element(rng), rand_nonzero(F25, rng)]) for _ in range(20)]
    for f in sample:
        assert f.degree == 1
        full = {}
        gf._factor_monic(f.monic()[0], full, rng)
        assert factor_squarefree_irreducibles(f) == list(full.items())


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
        for g, mult in factor_squarefree_irreducibles(f):
            assert g.is_monic and is_irreducible(g)
            product = product * g ** mult
        assert product == f


def _rand_irreducible(field, rng, avoid):
    """A random monic irreducible of degree 1 or 2 over the field, not in ``avoid``."""
    while True:
        g = _rand_poly(field, rng, rng.randrange(1, 3))
        if g not in avoid and is_irreducible(g):
            return g


@pytest.mark.parametrize("name", ["F5", "F7", "F25"])
def test_factor_takes_pth_roots(request, name):
    # f = g^p h^e k with e in {1, p, p + 1, 2p}: the derivative drops every
    # factor whose multiplicity p divides, so those come back through the
    # p-th root of a polynomial in x^p; over F_25 the root takes c to c^5,
    # which is not the identity on the coefficients
    field = request.getfixturevalue(name)
    p = field.p
    rng = spawn(17, "pth-root", name)
    for e in (1, p, p + 1, 2 * p):
        for trial in range(3):
            g = _rand_irreducible(field, rng, [])
            h = _rand_irreducible(field, rng, [g])
            k = _rand_irreducible(field, rng, [g, h])
            lead = rand_nonzero(field, rng)
            f = g ** p * h ** e * k * lead
            factors = factor_squarefree_irreducibles(f)
            assert dict(factors) == {g: p, h: e, k: 1}
            product = Poly(field, [1])
            for factor, mult in factors:
                assert factor.is_monic and is_irreducible(factor)
                product = product * factor ** mult
            assert product == f * lead.inverse()


@pytest.mark.parametrize("name", ["F5", "F7", "F25"])
def test_factor_of_a_polynomial_in_x_to_the_p(request, name):
    # (g h)^e with e = p or p^2 is a polynomial in x^p, whose derivative is
    # zero, so factoring starts with its p-th root; e = p + 1 is the contrast
    field = request.getfixturevalue(name)
    p = field.p
    rng = spawn(23, "x-to-the-p", name)
    for e in (p, p + 1, p * p):
        g = _rand_irreducible(field, rng, [])
        h = _rand_irreducible(field, rng, [g])
        lead = rand_nonzero(field, rng)
        f = (g * h) ** e * lead
        assert f.derivative().is_zero == (e % p == 0)
        factors = factor_squarefree_irreducibles(f)
        assert dict(factors) == {g: e, h: e}
        product = Poly(field, [1])
        for factor, mult in factors:
            assert factor.is_monic and is_irreducible_by_trial_division(factor)
            product = product * factor ** mult
        assert product == f.monic()[0]


def test_factor_deterministic(F5):
    x = Poly.x(F5)
    f = (x ** 2 + 2) * (x ** 2 + 3) * (x + 1) ** 2
    assert factor_squarefree_irreducibles(f) == \
        factor_squarefree_irreducibles(f)


# factor_squarefree_irreducibles of (x^2 - u)(x^2 + u + 1)(x + u)(x - 1),
# (x^4 - u)(x + u^2)^2 and x^6 + u x^3 + 1, as (coefficient raws, multiplicity),
# taken when factors were sorted by a key built from the raws level by level
FACTOR_ORDER_PINS = {
    "F25": [
        [(((0, 1), (1, 0)), 1), (((4, 0), (1, 0)), 1), (((0, 4), (0, 0), (1, 0)), 1),
         (((1, 1), (0, 0), (1, 0)), 1)],
        [(((3, 0), (1, 0)), 2), (((0, 4), (0, 0), (0, 0), (0, 0), (1, 0)), 1)],
        [(((1, 3), (0, 0), (0, 0), (1, 0)), 1), (((4, 3), (0, 0), (0, 0), (1, 0)), 1)],
    ],
    "F625": [
        [((((0, 0), (1, 0)), ((1, 0), (0, 0))), 1), ((((4, 0), (0, 0)), ((1, 0), (0, 0))), 1),
         ((((0, 0), (4, 0)), ((0, 0), (0, 0)), ((1, 0), (0, 0))), 1),
         ((((1, 0), (1, 0)), ((0, 0), (0, 0)), ((1, 0), (0, 0))), 1)],
        [((((0, 4), (4, 0)), ((1, 0), (0, 0))), 2),
         ((((0, 0), (4, 0)), ((0, 0), (0, 0)), ((0, 0), (0, 0)), ((0, 0), (0, 0)),
           ((1, 0), (0, 0))), 1)],
        [((((1, 0), (0, 0)), ((2, 0), (4, 3)), ((1, 0), (0, 0))), 1),
         ((((2, 1), (0, 0)), ((4, 3), (4, 2)), ((1, 0), (0, 0))), 1),
         ((((2, 4), (0, 0)), ((4, 2), (2, 0)), ((1, 0), (0, 0))), 1)],
    ],
}


@pytest.mark.parametrize("name", sorted(FACTOR_ORDER_PINS))
def test_factors_sort_by_degree_then_coefficient_raws(F25, name):
    # a raw compares as its value (an int over F_p, a tuple of base raws
    # above), so the raws themselves order the factors of one degree; three
    # of these six orders differ from the order the factors were found in
    field = F25 if name == "F25" else _f625(F25)
    assert field.modulus == (((0, 1), (1, 0), (1, 0)) if name == "F625" else (2, 0, 1))
    x, u = Poly.x(field), field.gen()
    polys = [(x ** 2 - u) * (x ** 2 + u + 1) * (x + u) * (x - 1),
             (x ** 4 - u) * (x + u ** 2) ** 2, x ** 6 + u * x ** 3 + 1]
    got = [[(g.coeffs, m) for g, m in factor_squarefree_irreducibles(f)] for f in polys]
    assert got == FACTOR_ORDER_PINS[name]


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
    return Poly(field, [sum((a.coeff(i) * b.coeff(k - i)
                             for i in range(max(0, k - b.degree), min(k, a.degree) + 1)),
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


def test_is_irreducible_matches_trial_division(F5, F7, F25):
    # is_irreducible reads the distinct-degree split that factorization runs,
    # so the factor tests no longer check one against the other; the oracle
    # divides by every monic candidate and takes no power and no gcd
    exhaustive = [Poly(field, [*tail, lead]) for field, top in ((F5, 4), (F7, 3))
                  for d in range(top + 1) for lead in (1, 2)
                  for tail in itertools.product(range(field.p), repeat=d)]
    rng = spawn(30, "irreducible-oracle")
    groups = [
        exhaustive + [Poly(F5), Poly(F7)],
        [_rand_poly(F5, rng, rng.randrange(5, 7)) for _ in range(300)],
        [_rand_poly(F25, rng, rng.randrange(1, 4)) for _ in range(300)],
        # degree 2 and 3 over the tower: trial division is a root search
        [_rand_poly(_f625(F25), rng, rng.randrange(2, 4)) for _ in range(30)],
    ]
    for group in groups:
        answers = [is_irreducible(f) for f in group]
        assert answers == [is_irreducible_by_trial_division(f) for f in group]
        assert True in answers and False in answers


@pytest.mark.parametrize("name, max_deg",
                         [("F7", 200), ("F11", 200), ("F49", 40), ("F625", 24)])
def test_divmod_gcd_differential(request, name, max_deg):
    # over the tower F_625 the remainders run the _raw_* branch, whose lead
    # inverses run the remainder kernel again over F_25 and F_5
    field = (_f625(request.getfixturevalue("F25")) if name == "F625"
             else request.getfixturevalue(name))
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
        assert g == b.gcd(a)
        assert (a // g) * g == a and (b // g) * g == b
        if ext is not None and trial < 5:
            ea, eb = a.embedded(ext), b.embedded(ext)
            assert divmod(ea, eb) == (q.embedded(ext), r.embedded(ext))
            assert ea.gcd(eb) == g.embedded(ext)
            assert ea * eb == (a * b).embedded(ext)


def test_gcd_takes_the_same_lead_inverses_in_either_order(F49, monkeypatch):
    # Euclid starts from the longer operand, so a shorter first operand costs
    # no remainder step that divides nothing but inverts the divisor's lead
    calls = []
    raw_inv = Fq._raw_inv

    def spy(field, a):
        calls.append(field)
        return raw_inv(field, a)

    monkeypatch.setattr(Fq, "_raw_inv", spy)
    rng = spawn(41, "gcd-order")
    for _ in range(5):
        common = _rand_poly(F49, rng, 1)
        a, b = common, common * _rand_poly(F49, rng, 2)
        counts = []
        for x, y in ((a, b), (b, a)):
            calls.clear()
            counts.append((x.gcd(y), len(calls)))
        assert counts[0] == counts[1] and counts[0][0] == a


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
        assert lead == f.leading().raw
        assert ours == {tuple(g): m for g, m in theirs}


def test_trace_outside_subfield_raises(monkeypatch, F5, F25):
    # with Frobenius replaced by the identity, trace(u) = deg * u is not fixed
    monkeypatch.setattr(gf, "frobenius", lambda x, power=1: x)
    with pytest.raises(NotInSubfield):
        trace_to(F25.gen(), F5)
    with pytest.raises(NotInSubfield):
        trace_to_base(F25.gen())


# u^2 - u + 5 is the first u^2 - u + c over F_{2^61-1} that is_irreducible accepts
@pytest.mark.parametrize("p, modulus", [(5, [2, 0, 1]), (11, [1, 0, 1]),
                                        (5, [1, 1, 0, 1]), (7, [2, 0, 0, 1]),
                                        (5, [2, 1, 1]), (2 ** 61 - 1, [5, 2 ** 61 - 2, 1])])
def test_extension_int_kernel_matches_tower_loop(p, modulus):
    # over a prime base the raw kernel works on int tuples (in closed form in
    # degree 2, where u^2 = -m1 u - m0); schoolbook through the base field's
    # kernel and a long division is the oracle
    field = Fq(p, modulus=modulus, base=Fq(p))
    base = field.base
    rng = spawn(12, "ext-int-kernel", p, len(modulus))
    top = tuple([p - 1] * field.degree)
    elems = [field.random_element(rng).raw for _ in range(40)]
    elems += [field.zero.raw, field.one.raw, top]
    for a in elems:
        for b in elems[::7]:
            assert field._raw_mul(a, b) == tower_mul(field, a, b)
            assert field._raw_add(a, b) == tuple(base._raw_add(x, y) for x, y in zip(a, b))
            assert field._raw_sub(a, b) == tuple(base._raw_sub(x, y) for x, y in zip(a, b))
        assert field._raw_neg(a) == tuple(base._raw_neg(x) for x in a)
        assert field._raw_is_zero(a) == all(base._raw_is_zero(x) for x in a)
        if not field._raw_is_zero(a):
            assert field._raw_mul(a, field._raw_inv(a)) == field.one.raw
    # a dot product of 1 to 20 pairs is the sum of the tower loop's products;
    # 20 pairs of all-(p-1) raws give the largest unreduced sums
    draws = [([top] * 20, [top] * 20)]
    for _ in range(60):
        k = rng.randrange(1, 21)
        draws.append(([rng.choice(elems) for _ in range(k)], [rng.choice(elems) for _ in range(k)]))
    for xs, ys in draws:
        want = field.zero.raw
        for x, y in zip(xs, ys):
            want = field._raw_add(want, tower_mul(field, x, y))
        assert field._raw_dot(xs, ys) == want


# u^2 + 2 (m1 = 0) and u^2 + u + 2 (m1 != 0) over F_5, u^2 + 1 over F_11, and
# u^2 - u + 5 over F_{2^61-1} (200 random units)
@pytest.mark.parametrize("p, modulus, draws", [(5, [2, 0, 1], 0), (5, [2, 1, 1], 0),
                                               (11, [1, 0, 1], 0), (2 ** 61 - 1, [5, 2 ** 61 - 2, 1], 200)])
def test_quadratic_inverse_by_the_norm_matches_the_euclid(p, modulus, draws):
    # over F_p in degree 2 the inverse is the conjugate over the norm; the
    # extended Euclid it replaced and a^(q-2) by gf.power are the oracles
    field = Fq(p, modulus=modulus, base=Fq(p))
    if draws:
        rng = spawn(38, "norm-inverse", p)
        units = [x for x in (field.random_element(rng).raw for _ in range(draws)) if any(x)]
        units += [(1, 0), (0, 1), (p - 1, p - 1)]
    else:
        units = [a.raw for a in field.elements() if not a.is_zero]
        assert len(units) == field.order - 1
    for a in units:
        inv = field._raw_inv(a)
        assert inv == euclid_inverse(field, a)
        assert inv == gf.power(a, field.order - 2, field.one.raw, field._raw_mul)
    with pytest.raises(DivisionByZero):
        field._raw_inv(field.zero.raw)
    with pytest.raises(DivisionByZero):
        field.zero.inverse()


def test_quadratic_tower_inverse_keeps_the_euclid(F25):
    # degree 2 over F_25 is no quadratic field over F_p: its inverse stays the Euclid
    tower = _f625(F25)
    units = [a.raw for a in tower.elements() if not a.is_zero]
    assert len(units) == 624
    for a in units:
        assert tower._raw_inv(a) == euclid_inverse(tower, a)
    with pytest.raises(DivisionByZero):
        tower._raw_inv(tower.zero.raw)


def test_quadratic_extension_of_prime_and_extension_fields(F25):
    # over F_p, the first irreducible u^2 + b u + c in (c, b) order with c in
    # 0..p-1; over F_q, c runs over every element, because each c in 0..p-1
    # is a square in a field of even degree over F_p
    for p in (q for q in range(5, 54) if gf.is_prime(q)):
        field = Fq(p)
        want = next((c, b, 1) for c in range(p) for b in (0, 1)
                    if is_irreducible(Poly(field, [c, b, 1])))
        assert quadratic_extension(field).modulus == want
    for base in (F25, PRODUCT_FIELDS["F121"]):
        ext = quadratic_extension(base)
        assert (ext.base, ext.degree, ext.order) == (base, 2, base.order ** 2)


def test_tower_products_match_the_division_oracle(F25):
    # a tower's element, dot and polynomial products flatten into one product
    # over the base field and reduce by the monic modulus; the oracle is
    # schoolbook through the base kernel and a general division.  F_625
    # flattens to F_25 and F_5^8 to F_625, which recurses once more.
    f625 = _f625(F25)
    for field, count in ((f625, 30), (quadratic_extension(f625), 6)):
        zero = field.zero.raw
        rng = spawn(16, "tower-product", field.order)
        elems = [field.random_element(rng).raw for _ in range(count)]
        elems += [zero, field.one.raw, _top_raw(field)]
        for a in elems:
            for b in elems:
                assert field._raw_mul(a, b) == tower_mul(field, a, b)
        for _ in range(count):
            k = rng.randrange(1, 6)
            xs, ys = [rng.choice(elems) for _ in range(k)], [rng.choice(elems) for _ in range(k)]
            want = zero
            for x, y in zip(xs, ys):
                want = field._raw_add(want, tower_mul(field, x, y))
            assert field._raw_dot(xs, ys) == want
            # schoolbook rests on the element product checked above
            a, b = [rng.choice(elems) for _ in range(k)], [rng.choice(elems) for _ in range(6 - k)]
            assert gf._rmul(field, a, b) == schoolbook(field, a, b, 5)
            for n in (1, 3, 7):
                assert gf._rmul(field, a, b, n) == schoolbook(field, a, b, n)


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


def _product_fields() -> dict:
    # 251 and 2^32 - 5 sit at a limb edge: 2 bitlen(p - 1) fills 16 and 64
    # bits, so a sum of two or more top products needs the next limb size
    f5, f7 = Fq(5), Fq(7)
    f25 = Fq(5, modulus=[2, 0, 1], base=f5)
    return {"F5": f5, "F7": f7, "F25": f25, "F49": Fq(7, modulus=[1, 0, 1], base=f7),
            "F121": Fq(11, modulus=[1, 0, 1], base=Fq(11)),
            "F625": _f625(f25),
            "F251": Fq(251), "F2^32-5": Fq(2 ** 32 - 5), "F2^61-1": Fq(2 ** 61 - 1)}


PRODUCT_FIELDS = _product_fields()


def _top_raw(field: Fq):
    """The raw whose ints are all p - 1: the largest terms a packed limb sums."""
    return field.p - 1 if field.base is None else tuple([_top_raw(field.base)] * field.degree)


def _is_tower(field: Fq) -> bool:
    return field.base is not None and field.base.base is not None


def _check_products(field: Fq, a: list, b: list, want: list) -> None:
    """The product of a and b is ``want`` through ``_rmul`` and ``Poly``, and
    with n, on operands with trailing zeros, ``want`` padded to n."""
    zero, size = field.zero.raw, len(a) + len(b) - 1
    assert gf._rmul(field, a, b) == want
    poly = Poly(field, field._wrap(want))
    assert Poly(field, field._wrap(a)) * Poly(field, field._wrap(b)) == poly
    padded = want + [zero] * 3
    for n in (None, 1, size, size + 3):
        assert gf._rmul(field, a + [zero] * 2, b + [zero], n) == padded[:n]


@pytest.mark.parametrize("name", sorted(PRODUCT_FIELDS))
def test_product_kernel_matches_schoolbook(name):
    # prime (packed), extension over a prime field and a tower (flattened
    # into one product over the base), at every pair of lengths 1..17 on
    # random operands
    field = PRODUCT_FIELDS[name]
    rng = spawn(15, "one-product", name)
    for la, lb in itertools.product(range(1, 18), repeat=2):
        a, b = ([field.random_element(rng).raw for _ in range(k)] for k in (la, lb))
        full = _schoolbook(Poly(field, field._wrap(a)), Poly(field, field._wrap(b)))
        _check_products(field, a, b, [full.coeff(k).raw for k in range(la + lb - 1)])


@pytest.mark.parametrize("name", sorted(PRODUCT_FIELDS))
def test_product_kernel_holds_the_largest_sums(name):
    # operands whose ints are all p - 1 give the largest sums a packed limb
    # holds; coefficient k of their product is top^2 times its number of
    # terms, at every pair of lengths 1..17
    field = PRODUCT_FIELDS[name]
    top = _top_raw(field)
    top_sq = field._wrap([top])[0] ** 2
    for la, lb in itertools.product(range(1, 18), repeat=2):
        want = [(top_sq * (min(k, la - 1) - max(0, k - lb + 1) + 1)).raw
                for k in range(la + lb - 1)]
        _check_products(field, [top] * la, [top] * lb, want)


@pytest.mark.parametrize("name", sorted(name for name, field in PRODUCT_FIELDS.items()
                                        if not _is_tower(field)))
def test_prime_and_prime_extension_products_are_one_packed_call(monkeypatch, name):
    # no size takes a second route: every product over F_p or F_p[u]/(m),
    # also through the Trunc and germ entry point _raw_mul_low, is one
    # _rmul_packed call
    field = PRODUCT_FIELDS[name]
    calls = []
    packed = gf._rmul_packed
    monkeypatch.setattr(gf, "_rmul_packed", lambda a, b, p: calls.append(p) or packed(a, b, p))
    rng = spawn(15, "one-product-spy", name)
    for la, lb in itertools.product(range(1, 18), repeat=2):
        a = [field.random_element(rng).raw for _ in range(la)]
        b = [field.random_element(rng).raw for _ in range(lb)]
        for product in (lambda: gf._rmul(field, a, b), lambda: gf._rmul(field, a, b, 1),
                        lambda: field._raw_mul_low(a, b, la + lb - 1)):
            calls.clear()
            product()
            assert calls == [field.p]


@pytest.mark.parametrize("name", ["F7", "F49", "F625"])
def test_product_with_an_empty_operand_is_zero(name):
    # an empty list is the zero polynomial: the full product is [], and the
    # low n coefficients are n zero raws, on either side and through the
    # Trunc and germ entry point _raw_mul_low
    field = PRODUCT_FIELDS[name]
    rng = spawn(15, "empty-operand", name)
    a = [field.random_element(rng).raw for _ in range(3)]
    for x, y in (([], []), ([], a), (a, [])):
        assert gf._rmul(field, x, y) == []
        for n in (0, 1, 4):
            assert gf._rmul(field, x, y, n) == field._raw_mul_low(x, y, n) == [field.zero.raw] * n
    assert Poly(field, field._wrap(a)) * Poly(field) == Poly(field) * 0 == Poly(field)


@pytest.mark.parametrize("name", ["F7", "F49"])
def test_product_with_a_negative_length_raises(name):
    # a[:n] with n < 0 would drop coefficients from the end and return a
    # wrong product; n = 0 still asks for no coefficients
    field = PRODUCT_FIELDS[name]
    a, b = ([field._raw_from_int(c) for c in cs] for cs in ([1, 2, 3], [1, 1]))
    for n in (-1, -2):
        with pytest.raises(ValueError):
            gf._rmul(field, a, b, n)
        with pytest.raises(ValueError):
            field._raw_mul_low(a, b, n)
    assert gf._rmul(field, a, b, 0) == field._raw_mul_low(a, b, 0) == []


@pytest.mark.parametrize("name", ["F7", "F49", "F625"])
def test_horner_matches_the_sum_of_powers(name):
    # the scalar case (n = 1) and the truncated case both give sum_k c_k x^k:
    # against element arithmetic at n = 1, against Trunc arithmetic above it
    field = PRODUCT_FIELDS[name]
    rng = spawn(25, "horner", name)
    for size in (1, 2, 5):
        cs = [field.random_element(rng) for _ in range(size)]
        x = field.random_element(rng)
        want = sum((c * x ** k for k, c in enumerate(cs)), field.zero)
        assert gf.horner(field, [[c.raw] for c in cs], [x.raw], 1) == [want.raw]
        xt = Trunc(field, 3, [x, field.random_element(rng)])
        want = sum((xt ** k * c for k, c in enumerate(cs)), Trunc.zero(field, 3))
        assert gf.horner(field, [[c.raw] for c in cs], list(xt.raws), 3) == list(want.raws)
    for n in (1, 3):
        assert gf.horner(field, [], [field.one.raw] * n, n) == [field.zero.raw] * n


def test_poly_power_coerces_nothing_beyond_n_zero(F7, F49, monkeypatch):
    # the one is built only when it is returned, for n = 0, and not through
    # the public element constructor
    calls = []
    call = Fq.__call__
    monkeypatch.setattr(Fq, "__call__", lambda self, x: calls.append(x) or call(self, x))
    for field in (F7, F49):
        b = Poly._from_raw(field, [field.random_element(spawn(16, "pow", field.p)).raw,
                                   field.one.raw])
        assert b ** 0 == Poly._from_raw(field, [field.one.raw]) and b ** 1 is b
        assert b ** 3 == b * b * b
    assert calls == []


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


def test_evaluate_in_an_extension_embeds_raws_as_the_element_route_does(F5, F25):
    # a polynomial over k evaluated at a point of an extension directly over k:
    # the raws (c, 0, ..., 0) give the values of the wrapped-and-embedded route,
    # over F_25 and over the F_625 tower; a field that does not extend k is refused
    F625 = Fq(5, modulus=[-F25.gen(), 0, 1], base=F25)
    rng = spawn(34, "evaluate-embedded")
    for field, ext in ((F5, F25), (F25, F625)):
        for _ in range(30):
            f = Poly(field, [field.random_element(rng) for _ in range(rng.randrange(0, 7))])
            old = poly_embedded_via_elements(f, ext)
            assert f.embedded(ext) == old
            for theta in (ext.random_element(rng), ext.embed(field.random_element(rng))):
                assert f.evaluate(theta) == FqElem(ext, horner(ext, [[c] for c in old.coeffs],
                                                                [theta.raw], 1)[0])
    foreign = Fq(5, modulus=[3, 0, 1], base=F5)  # another F_25, not over F25
    for f, point in ((Poly(F5, [1, 2]), F625.gen()), (Poly(F25, [F25.gen()]), foreign.gen())):
        with pytest.raises(CtxMismatch):
            f.evaluate(point)
