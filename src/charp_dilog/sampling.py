"""Seeded random generators for the verification suites and tests.

All draws go through generators from :func:`charp_dilog.rng.spawn`; samplers
take the generator explicitly so trials are reproducible in isolation.
"""

from __future__ import annotations

from typing import Sequence

from .cycles import admissibility_check, graph_cycle
from .gf import Fq, FqElem, Poly, is_irreducible
from .localfield import OneForm, RatFn, RatFnRing
from .omega import Letter
from .regulator import GoodFunction, RegulatorInput, finite_point
from .tpoly import Trunc


def quadratic_extension(field: Fq) -> Fq:
    """The first irreducible u^2 + c or u^2 + u + c, c in ``field.elements()`` order."""
    for c in field.elements():
        for b in (0, 1):
            try:
                return Fq(field.p, modulus=[c, b, 1], base=field)
            except ValueError:
                continue
    raise AssertionError("no quadratic extension found")


def rand_nonzero(field: Fq, rng) -> FqElem:
    while True:
        x = field.random_element(rng)
        if not x.is_zero:
            return x


def rand_ratfn(ring: RatFnRing, rng, deg: int = 2, nonzero: bool = False,
               pole_at_zero: bool = False) -> RatFn:
    """A random rational function; optionally force s into the denominator."""
    while True:
        r = ring.random_element(rng, deg, deg)
        if pole_at_zero:
            r = r / ring.gen
        if not nonzero or not r.is_zero:
            return r


def rand_regular_unit_ratfn(ring: RatFnRing, rng, deg: int = 2) -> RatFn:
    """A random rational function with neither zero nor pole at s = 0."""
    field = ring.field
    while True:
        num = Poly(field, [rand_nonzero(field, rng)] +
                   [field.random_element(rng) for _ in range(deg)])
        den = Poly(field, [rand_nonzero(field, rng)] +
                   [field.random_element(rng) for _ in range(deg)])
        r = RatFn(num, den)
        if not r.is_zero:
            return r


def rand_flat_pair(ring, m: int, rng) -> tuple[Trunc, Trunc]:
    """Admissible (x, y) for the five-term relation over a field coefficient ring."""
    while True:
        x0 = ring.random_element(rng)
        y0 = ring.random_element(rng)
        if x0.is_zero or y0.is_zero or x0 == ring.one or y0 == ring.one or x0 == y0:
            continue
        x = Trunc(ring, m, [x0] + [ring.random_element(rng) for _ in range(m - 1)])
        y = Trunc(ring, m, [y0] + [ring.random_element(rng) for _ in range(m - 1)])
        return x, y


def rand_theorem1_triple(field: Fq, rng) -> tuple[Trunc, Trunc, Trunc]:
    """(alpha, beta, gamma) over k[t]/(t^2) with pairwise distinct reductions."""
    while True:
        a0 = field.random_element(rng)
        b0 = field.random_element(rng)
        g0 = field.random_element(rng)
        if a0 == b0 or g0 == b0 or g0 == a0:
            continue
        mk = lambda c0: Trunc(field, 2, [c0, field.random_element(rng)])
        return mk(a0), mk(b0), mk(g0)


def rand_letter_wedge_entries(ring: RatFnRing, rng) -> list:
    """Three letter-list entries, at least one slot free of constant-term
    letters (the domain on which reparametrization invariance of residues
    holds; see the notes ledger).  Slots occasionally carry a second
    exponential letter so products are exercised too."""
    p = ring.characteristic
    while True:
        abc = [rng.randrange(p) for _ in range(3)]
        if sum(abc) >= 1:
            break
    entries = []
    for a in abc:
        payload = rand_ratfn(ring, rng, nonzero=True, pole_at_zero=rng.random() < 0.3)
        letters = [Letter(a, payload)]
        if rng.random() < 0.4:
            letters.append(Letter(rng.randrange(1, p),
                                  rand_ratfn(ring, rng, nonzero=True)))
        entries.append(letters)
    return entries


def rand_sigma_weights(ring: RatFnRing, rng) -> list[RatFn]:
    """Coefficients x_w for a general reparametrization, poles at s = 0 allowed."""
    p = ring.characteristic
    xs = []
    for _ in range(1, p):
        if rng.random() < 0.6:
            xs.append(rand_ratfn(ring, rng, deg=1, pole_at_zero=rng.random() < 0.3))
        else:
            xs.append(ring.zero)
    if all(x.is_zero for x in xs):
        xs[rng.randrange(p - 1)] = ring.one
    return xs


def rand_good_lifting_pair(ring: RatFnRing, rng):
    """Two good triples congruent mod t^2 over uniformizers s and
    s' = u*s + sum_{w>=2} x_w t^w, with independently perturbed deep tails.

    Returns (qtilde_entries, qhat_entries, s_tilde, s_hat) where qtilde is
    s'-good, qhat is s-good, and entries match modulo t^2.
    """
    field = ring.field
    p = ring.characteristic
    s = ring.gen
    s_hat = Trunc.constant(ring, p, s)
    # u in k[[s,t]]^x ; x_w in k for w >= 2
    u_coeffs = [rand_regular_unit_ratfn(ring, rng, deg=1)]
    for _ in range(p - 1):
        num = Poly(field, [field.random_element(rng) for _ in range(2)])
        u_coeffs.append(RatFn(num))
    u = Trunc(ring, p, u_coeffs)
    s_tilde_coeffs = [u_coeffs[0] * s]
    for w in range(1, p):
        xw = field.random_element(rng) if w >= 2 else field.zero
        s_tilde_coeffs.append(u_coeffs[w] * s + RatFn.const(xw))
    s_tilde = Trunc(ring, p, s_tilde_coeffs)

    u_inv = u.inverse()
    qhat, qtilde = [], []
    for _ in range(3):
        n = rng.randrange(-2, 3)
        uhat_coeffs = [rand_regular_unit_ratfn(ring, rng, deg=1)]
        for _ in range(p - 1):
            num = Poly(field, [field.random_element(rng) for _ in range(2)])
            uhat_coeffs.append(RatFn(num))
        uhat = Trunc(ring, p, uhat_coeffs)
        # v = uhat * u^{-n} + t^2 * (regular tail) keeps v * s'^n = uhat * s^n mod t^2
        tail = [ring.zero, ring.zero]
        for _ in range(p - 2):
            num = Poly(field, [field.random_element(rng) for _ in range(2)])
            tail.append(RatFn(num))
        v = uhat * (u if n < 0 else u_inv) ** abs(n) + Trunc(ring, p, tail)
        qhat.append(uhat * s_hat ** n)
        qtilde.append(v * s_tilde ** n)
    return qtilde, qhat, s_tilde, s_hat


def rand_oneform(ring: RatFnRing, rng):
    """A random 1-form f ds, numerator of degree at most 6 and denominator at
    most 8 (for the global residue test)."""
    field = ring.field
    while True:
        num = Poly(field, [field.random_element(rng) for _ in range(7)])
        den = Poly(field, [field.random_element(rng) for _ in range(9)])
        if num.is_zero or den.is_zero or den.degree < 1:
            continue
        return OneForm(RatFn(num, den))


def rand_unit_k2(field: Fq, rng) -> Trunc:
    while True:
        x = Trunc(field, 2, [field.random_element(rng), field.random_element(rng)])
        if x.is_unit:
            return x


def rand_moebius_input(field: Fq, rng, degrees: Sequence[int] = (1, 1, 1, 1, 1, 1),
                       trivial_units: bool = False) -> RegulatorInput:
    """Three degree-balanced good functions (num and den factors of equal total
    degree) over distinct table points; at most q rational points exist, so
    callers over small fields pass some degree-2 entries."""
    while True:
        reductions = set()
        pts = []
        ok = True
        for d in degrees:
            for _ in range(200):
                if d == 1:
                    r0 = field.random_element(rng)
                    red_key = (1, r0.raw)
                    if red_key in reductions:
                        continue
                    reductions.add(red_key)
                    r = Trunc(field, 2, [r0, field.random_element(rng)])
                    pts.append(finite_point(field, [-r, Trunc.one(field, 2)]))
                    break
                coeffs0 = [field.random_element(rng) for _ in range(d)]
                red = Poly(field, coeffs0 + [field.one])
                if not is_irreducible(red):
                    continue
                red_key = (d, tuple(c.raw for c in coeffs0))
                if red_key in reductions:
                    continue
                reductions.add(red_key)
                coeffs = [Trunc(field, 2, [c0, field.random_element(rng)]) for c0 in coeffs0]
                pts.append(finite_point(field, coeffs + [Trunc.one(field, 2)]))
                break
            else:
                ok = False
                break
        if not ok:
            continue
        n = len(degrees)
        fns = []
        one2 = Trunc.one(field, 2)
        for i in range(3):
            unit = one2 if trivial_units else rand_unit_k2(field, rng)
            num_idx = (2 * i) % n
            den_idx = (2 * i + 1) % n
            fns.append(GoodFunction(unit, ((num_idx, 1), (den_idx, -1))))
        try:
            return RegulatorInput(field, tuple(pts), *fns)
        except ValueError:
            continue


def rand_admissible_graph(field: Fq, rng, seed: int, trivial_units: bool = False):
    """A regulator input whose lifted graph cycle passes admissibility."""
    while True:
        degrees = (1, 1, 1, 1, 1, 1) if field.order > 6 else (1, 1, 1, 1, 2, 2)
        inp = rand_moebius_input(field, rng, degrees=degrees, trivial_units=trivial_units)
        cyc = graph_cycle(inp, lift_seed=seed)
        if admissibility_check(cyc).ok:
            return inp, cyc
