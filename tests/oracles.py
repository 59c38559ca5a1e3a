"""Independent reference routines that only the tests use.

Each one is the plain textbook form of an operation the library computes a
faster way, kept here so the fast route is always compared with it.
"""

from charp_dilog.gf import FqElem, NotInSubfield, Poly, frobenius
from charp_dilog.localfield import residue_at
from charp_dilog.omega import omega_p
from charp_dilog.tpoly import HenselFailure, Trunc, ell_all
from charp_dilog.wedge import GoodElem, NotGood, substitute


def trace_orbit(x):
    """Absolute trace to F_p as the sum of the Frobenius orbit of x."""
    field = x.field
    acc = y = x
    for _ in range(field.degree_abs - 1):
        y = frobenius(y)
        acc = acc + y
    # the sum is Frobenius-fixed, so at every level of the tower it is a constant
    raw, f = acc.raw, field
    while f.base is not None:
        if not all(f.base._raw_is_zero(c) for c in raw[1:]):
            raise NotInSubfield(f"trace of {x} in {field} is not in F_{field.p}")
        raw, f = raw[0], f.base
    return FqElem(f, raw)


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


def trunc_horner(coeffs, x):
    """sum_k coeffs[k] x^k by Trunc arithmetic alone."""
    acc = Trunc.zero(x.ring, x.m)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


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


def res_omega_difference_global(w1, w2, ring):
    """Residue at s = 0 of omega_p(w1) - omega_p(w2), with both forms built
    as global rational functions and the residue read from their difference."""
    return residue_at(omega_p(w1, ring) - omega_p(w2, ring), ring.field.zero)
