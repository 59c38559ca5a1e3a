"""Independent reference routines that only the tests use.

Each one is the plain textbook form of an operation the library computes a
faster way, kept here so the fast route is always compared with it; beside
them, a sampler that only the tests draw from.
"""

import itertools

from charp_dilog.gf import FqElem, NotInSubfield, Poly, frobenius
from charp_dilog.localfield import RatFn, residue_at
from charp_dilog.omega import Letter, _derivative_ladder, letters_of_unit, omega_p
from charp_dilog.tpoly import HenselFailure, Trunc, ell_all, inv_factorials, rp_eval
from charp_dilog.wedge import GoodElem, NotGood, res_good


def rand_trunc(ring, m, rng, unit=False):
    """A random element of R[t]/(t^m), redrawn until it is a unit when ``unit``."""
    while True:
        x = Trunc(ring, m, [ring.random_element(rng) for _ in range(m)])
        if not unit or x.is_unit:
            return x


def schoolbook(ring, a, b, n):
    """The low n coefficients of the product of two raw coefficient lists over
    any ``_raw_*`` kernel, one partial product at a time; zero operands on
    either side are skipped and the partial products are added in index order."""
    is_zero, add, mul = ring._raw_is_zero, ring._raw_add, ring._raw_mul
    out = [ring._raw_from_int(0)] * n
    for i, x in enumerate(a[:n]):
        if is_zero(x):
            continue
        for j, y in enumerate(b[:n - i]):
            if not is_zero(y):
                out[i + j] = add(out[i + j], mul(x, y))
    return out


def series_inverse(ring, a):
    """Raws of 1/a modulo t^len(a), from a_0 b_n + ... + a_n b_0 = 0 (n > 0),
    the recurrence of an inverse alone."""
    out = [ring._raw_inv(a[0])]
    minus = ring._raw_neg(out[0])
    for n in range(1, len(a)):
        out.append(ring._raw_mul(minus, ring._raw_dot(a[1:n + 1], out[::-1])))
    return out


def div_via_inverse(ring, num, den):
    """Raws of num/den modulo t^len(den): num times the inverse of den."""
    return ring._raw_mul_low(list(num), series_inverse(ring, den), len(den))


def log_via_inverse(u):
    """log(u / u(0)) as theta(u) times u.inverse(), then 1/n on the coefficient
    of t^n (theta = t d/dt), in the ring's raw kernel."""
    ring, m, p = u.ring, u.m, u.ring.characteristic
    mul, from_int = ring._raw_mul, ring._raw_from_int
    theta = Trunc._of(ring, m, [mul(c, from_int(n)) for n, c in enumerate(u.raws)])
    quotient = (theta * u.inverse()).raws
    return Trunc._of(ring, m, [mul(c, from_int(pow(n, -1, p) if n else 0))
                               for n, c in enumerate(quotient)])


def trace_orbit(x):
    """Absolute trace to F_p as the sum of the Frobenius orbit of x."""
    field = x.field
    acc = y = x
    for _ in range(field.degree_abs - 1):
        y = frobenius(y, 1)
        acc = acc + y
    # the sum is Frobenius-fixed, so at every level of the tower it is a constant
    raw, f = acc.raw, field
    while f.base is not None:
        if not all(f.base._raw_is_zero(c) for c in raw[1:]):
            raise NotInSubfield(f"trace of {x} in {field} is not in F_{field.p}")
        raw, f = raw[0], f.base
    return FqElem(f, raw)


def tower_mul(field, a, b):
    """An extension-field element product through the base field's raw
    kernel: schoolbook in u, then textbook long division by the monic
    modulus, which subtracts top * u^(k-d) * m(u) whole."""
    base, d = field.base, field.degree
    c = schoolbook(base, a, b, 2 * d - 1)
    for k in range(2 * d - 2, d - 1, -1):
        top = c[k]
        for j, m in enumerate(field.modulus):
            c[k - d + j] = base._raw_sub(c[k - d + j], base._raw_mul(top, m))
    return tuple(c[:d])


def ell_p_antisymmetric(a, b):
    """(1/2) sum_{i=1}^{p-1} i (l_{p-i}(a) l_i(b) - l_{p-i}(b) l_i(a)), the
    definition of ell_p on a pair, term by term."""
    r = a.ring
    p = r.characteristic
    la, lb = ell_all(a), ell_all(b)
    acc = r.zero
    for i in range(1, p):
        acc = acc + r.from_int(i) * (la[p - i - 1] * lb[i - 1] - lb[p - i - 1] * la[i - 1])
    return r.from_int((p + 1) // 2) * acc


def is_irreducible_by_trial_division(f):
    """Whether f is irreducible over its field, by trial division alone: f of
    degree d >= 1 is irreducible iff no monic polynomial of degree 1 to d/2
    divides it.  x - c divides f iff f(c) = 0, so degree 1 is a root search.
    It takes no power and no gcd, and tries every candidate, so it suits
    only small q^(d/2)."""
    field = f.field
    elems = list(field.elements())
    if f.degree >= 2 and any(f.evaluate(c).is_zero for c in elems):
        return False
    for k in range(2, f.degree // 2 + 1):
        for tail in itertools.product(elems, repeat=k):
            if (f % Poly(field, [*tail, field.one])).is_zero:
                return False
    return f.degree >= 1


def trunc_horner(coeffs, x):
    """sum_k coeffs[k] x^k by Trunc arithmetic alone."""
    acc = Trunc.zero(x.ring, x.m)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_embedded_via_elements(f, field):
    """f over an extension of its field, each coefficient wrapped and embedded
    by ``field.embed``."""
    return Poly(field, [field.embed(FqElem(f.field, c)) for c in f.coeffs])


def random_extended_via_elements(x, m2, rng):
    """x lifted to R[t]/(t^m2) with tail elements drawn in order from rng,
    every coefficient coerced again by the Trunc constructor."""
    tail = [x.ring.random_element(rng) for _ in range(m2 - x.m)]
    return Trunc(x.ring, m2, list(x.coeffs) + tail)


def pounds1_direct(s):
    """sum_{1<=i<=p-1} s^i / i term by term, each 1/i by Fermat."""
    p = s.field.p
    acc = power = s
    for i in range(2, p):
        power = power * s
        acc = acc + power * pow(i, p - 2, p)
    return acc


def theorem1_a_p_formula(alpha, beta, gamma):
    """Theorem 1's value a^p * pounds1(s), where the cross-ratio
    (gamma - beta)/(alpha - beta) is s + a s(1-s) t."""
    field = alpha.ring
    r = (gamma - beta) / (alpha - beta)
    s = r.c0
    a = r.coeffs[1] / (s * (field.one - s))
    return a ** field.p * pounds1_direct(s)


def newton_fixed_steps(f, fprime, x0):
    """Solve f(x) = 0 in R[t]/(t^m) from a simple root mod t: a fixed number
    of Newton steps, each at full precision with a fresh series inverse."""
    x = x0
    if not fprime(x).is_unit:
        raise HenselFailure("derivative is not a unit at the starting point")
    for _ in range(max(1, (x0.m - 1).bit_length() + 1)):
        x = x - f(x) * fprime(x).inverse()
    if not f(x).is_zero:
        raise HenselFailure("Newton iteration failed to converge")
    return x


def hensel_root_oracle(coeffs, x0):
    """The Hensel lift of the root x0 of a polynomial with Trunc coefficients."""
    ring, m = coeffs[0].ring, coeffs[0].m
    dcoeffs = [c.scaled(ring.from_int(k)) for k, c in enumerate(coeffs)][1:]
    return newton_fixed_steps(lambda x: trunc_horner(coeffs, x),
                              lambda x: trunc_horner(dcoeffs, x),
                              Trunc.constant(ring, m, x0))


def ratfn_at_trunc(r, x):
    """Evaluate a rational function at a truncated-ring point: numerator and
    denominator by Horner, then one series inverse.

    The point ring is r's coefficient field, an extension built directly over
    it, or the rational functions over it; the denominator must be a unit at
    the point.
    """
    ring = x.ring
    r = r.reduced()
    num, den = ([ring.embed(f.coeff(i)) for i in range(f.degree + 1)] for f in (r.num, r.den))
    return rp_eval(num, x) * rp_eval(den, x).inverse()


def substitute(coeffs, x):
    """sum_j coeffs[j](x) t^j: a truncation with rational coefficients at the point x."""
    acc = Trunc.zero(x.ring, x.m)
    for j, cj in enumerate(coeffs):
        if not cj.is_zero:
            acc = acc + ratfn_at_trunc(cj, x).shifted(j)
    return acc


def goodness_split_global(f, s_tilde):
    """The split f = u * s_tilde^n over rational functions: n is the order of
    f(0) at s = 0, and u must have a unit constant term and no coefficient
    with a pole there."""
    zero = f.ring.field.zero
    if f.c0.is_zero:
        raise NotGood("not a unit of the localized ring")
    n = f.c0.ord_at(zero)
    u = f * s_tilde ** (-n)
    if u.c0.ord_at(zero) != 0 or any(not c.is_zero and c.ord_at(zero) < 0
                                     for c in u.coeffs[1:]):
        raise NotGood(f"no unit decomposition with exponent {n}")
    return GoodElem(n, u)


def res_local_global(triple, s_tilde):
    """The residue of a good triple with the splits and the reductions done on
    global rational functions: each unit coefficient is substituted at the
    root of the uniformizer, found by substitution too."""
    root = local_point_oracle(s_tilde)
    goods = [goodness_split_global(f, s_tilde) for f in triple]
    return res_good([GoodElem(g.n, substitute(g.u.coeffs, root)) for g in goods])


def local_point_oracle(s_tilde):
    """The root of s_tilde(x, t) = 0 in (t), substituting x into every
    rational coefficient at every step."""
    derivs = [c.derivative() for c in s_tilde.coeffs]
    return newton_fixed_steps(lambda x: substitute(s_tilde.coeffs, x),
                              lambda x: substitute(derivs, x),
                              Trunc.zero(s_tilde.ring.field, s_tilde.m))


def rp_divmod_monic(a, b, zero):
    """Divide by a monic polynomial over any commutative ring."""
    rem = list(a)
    db = len(b) - 1
    if len(rem) <= db:
        return [], rem
    quot = [zero] * (len(rem) - db)
    for k in range(len(rem) - db - 1, -1, -1):
        c = rem[k + db]
        quot[k] = c
        for j in range(db + 1):
            rem[k + j] = rem[k + j] - c * b[j]
    return quot, rem[:db]


def goodness_split_zpoly(f, s_tilde):
    """Goodness split in the polynomial model: f, s_tilde are polynomials in z
    with truncated-ring coefficients, s_tilde monic with irreducible reduction.

    Returns the exponent and the polynomial unit part; :class:`NotGood` when
    the remaining cofactor is not invertible at the point.
    """
    ring = s_tilde[0].ring
    zero = Trunc.zero(ring, s_tilde[0].m)
    f = list(f)
    n = 0
    while True:
        q, r = rp_divmod_monic(f, list(s_tilde), zero)
        if q and all(c.is_zero for c in r):
            f = q
            n += 1
        else:
            break
    red = Poly(ring, [c.c0 for c in f])
    pt = Poly(ring, [c.c0 for c in s_tilde])
    if (red % pt).is_zero:
        raise NotGood("cofactor vanishes at the point")
    return GoodElem(n, f)


def substitute_s(u, image):
    """Apply the substitution s -> image (a truncation with constant term s).

    The direct bivariate route: every rational coefficient of u is evaluated
    at the image truncation; this is the automorphism itself, independent of
    the letter formulas, and doubles as their cross-check.
    """
    if image.c0 != u.ring.gen:
        raise ValueError("substitution must restrict to the identity modulo (t)")
    return substitute(u.coeffs, image)


def sigma_image_of_s(ring, xs):
    """The truncation s + sum_w xs[w-1] t^w defining a general reparametrization."""
    p = ring.characteristic
    coeffs = [ring.gen] + [xs[w - 1] if w - 1 < len(xs) else ring.zero for w in range(1, p)]
    return Trunc(ring, p, coeffs)


def sigma_image_letters_global(xs, entry, ring):
    """Letters of the image of an entry (a unit or a letter list) under
    s -> s + sum_w xs[w-1] t^w, each payload substituted as a global rational
    function: a constant-term unit through one branch logarithm, a pure
    exponential e(alpha t^a) read off sigma(alpha)."""
    p = ring.characteristic
    image = sigma_image_of_s(ring, xs)
    letters = letters_of_unit(entry) if isinstance(entry, Trunc) else entry
    out = []
    for letter in letters:
        # alpha(image) mod t^(p - a) reads image mod t^(p - a) alone
        moved = ratfn_at_trunc(letter.payload, image.reduce_to(max(2, p - letter.a)))
        if letter.a == 0:
            out.append(Letter(0, moved.c0))
            tail = enumerate(ell_all(moved), start=1)
        else:
            tail = enumerate(moved.coeffs[:p - letter.a], start=letter.a)
        out += [Letter(e, c) for e, c in tail if not c.is_zero]
    return out


def sigma_image_letters_taylor(delta, entry, germ):
    """Letters of the image of an entry under s -> s + delta, on germs at s = 0,
    by Taylor's formula: delta is a truncation of germs in (t), so delta^k lies
    in (t^k) and the formula is exact mod t^p.  e(alpha t^a) maps to
    e(sum_{k<p-a} alpha^(k)/k! delta^k t^a), and a constant h to
    h e(sum_{0<k<p} (h'/h)^(k-1)/k! delta^k), the derivative ladder of the
    closed form ``omega.sigma_letters``."""
    ring, p = delta.ring, delta.m
    inv_fact = inv_factorials(p)
    out = []
    for letter in letters_of_unit(entry) if isinstance(entry, Trunc) else entry:
        payload = germ(letter.payload)
        ladder = _derivative_ladder(letter.a, payload, p - 1 - letter.a)
        if letter.a == 0:
            out.append(Letter(0, payload))
            ladder[0] = ring.zero
        moved = rp_eval([d * inv_fact[k] for k, d in enumerate(ladder)], delta)
        out += [Letter(e, c) for e, c in enumerate(moved.coeffs[:p - letter.a], start=letter.a)
                if not c.is_zero]
    return out


def res_omega_difference_global(w1, w2, ring):
    """Residue at s = 0 of omega_p(w1) - omega_p(w2), with both forms built
    as global rational functions and the residue read from their difference."""
    return residue_at(omega_p(w1, ring) - omega_p(w2, ring), ring.field.zero)


class EagerFraction:
    """A rational function as num/den, gcd-reduced with a monic denominator
    after every operation: the textbook fraction arithmetic that RatFn's
    base powers avoid.  A RatFn, Poly, int or field element operand is
    converted first, so the generic routines of ``omega`` run on it."""

    def __init__(self, num, den=None):
        if isinstance(num, RatFn):
            num, den = num.num, num.den
        den = Poly(num.field, [1]) if den is None else den
        g = num.gcd(den)  # monic; den itself when num is zero
        den, lead = (den // g).monic()
        self.field, self.num, self.den = num.field, (num // g) * lead.inverse(), den

    def _lift(self, x):
        if isinstance(x, EagerFraction):
            return x
        return EagerFraction(x if isinstance(x, (RatFn, Poly)) else Poly(self.field, [x]))

    def __add__(self, other):
        o = self._lift(other)
        return EagerFraction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return EagerFraction(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __neg__(self):
        return EagerFraction(-self.num, self.den)

    def __mul__(self, other):
        o = self._lift(other)
        return EagerFraction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        return EagerFraction(self.num * o.den, self.den * o.num)

    def inverse(self):
        return EagerFraction(self.den, self.num)

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** -k
        return EagerFraction(self.num ** k, self.den ** k)

    def derivative(self):
        return EagerFraction(self.num.derivative() * self.den - self.num * self.den.derivative(),
                             self.den * self.den)

    @property
    def is_zero(self):
        return self.num.is_zero

    def reduced(self):
        return self


class EagerRing:
    """The coefficient-ring handle that ``omega_p`` reads, for EagerFraction."""

    def __init__(self, field):
        self.field, self.characteristic = field, field.p

    @property
    def zero(self):
        return EagerFraction(Poly(self.field))
