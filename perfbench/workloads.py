"""The four benchmark workloads: one exact identity check per op.

Each workload builds its fields, rings and anchors in ``setup``, draws op
``i``'s inputs in ``gen`` from ``charp_dilog.sampling`` with the generator
``rng.spawn(seed, <workload>, i)``, and runs the identity check in ``op``.
Only ``op`` is timed.  ``op`` returns whether the identity held and the
values it computed, which the runner hashes into the output digest.
``gen(ctx, seed, i)`` alone reproduces op ``i``'s inputs, so a failed op
replays in isolation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    p: int
    setup: Callable      # (lib) -> ctx
    gen: Callable        # (ctx, seed, i) -> input
    op: Callable         # (ctx, input) -> (ok, values)
    min_ops: int = 100   # at least ten latency samples beyond p90
    block: int = 1       # a timed run ends after a whole number of blocks of ops
    repeats: int = 1     # times each op runs in a timed run; the fastest counts


# -- residue-pairing ------------------------------------------------------------

def _pairing_setup(lib):
    field = lib.gf.Fq(7)
    return SimpleNamespace(lib=lib, field=field, ring=lib.localfield.RatFnRing(field))


def _pairing_gen(ctx, seed, i):
    rng = ctx.lib.rng.spawn(seed, "residue-pairing", i)
    return ctx.lib.sampling.rand_good_lifting_pair(ctx.ring, rng)


def _pairing_op(ctx, inp):
    lib, field = ctx.lib, ctx.field
    qtilde, qhat, s_tilde, s_hat = inp
    v_tilde = lib.wedge.ell_p(lib.wedge.res_local(qtilde, s_tilde), ring=field)
    v_hat = lib.wedge.ell_p(lib.wedge.res_local(qhat, s_hat), ring=field)
    rhs = lib.omega.res_omega_pair(lib.wedge.wedge(*qtilde), lib.wedge.wedge(*qhat), ctx.ring)
    return v_tilde - v_hat == rhs, (v_tilde, v_hat, rhs)


# -- exactness ------------------------------------------------------------------

def _admissible_tuples(p: int) -> list[tuple[int, int, int, int]]:
    """(a, b, c, w) with w dividing p - (a+b+c) > 0 and a quotient prime to p."""
    out = []
    for a, b, c in itertools.product(range(p), repeat=3):
        rest = p - (a + b + c)
        for w in range(1, p):
            if rest > 0 and rest % w == 0 and (rest // w) % p != 0:
                out.append((a, b, c, w))
    return out


def _exactness_setup(lib):
    field = lib.gf.Fq(7)
    return SimpleNamespace(lib=lib, field=field, ring=lib.localfield.RatFnRing(field),
                           tuples=_admissible_tuples(7))


def _exactness_gen(ctx, seed, i):
    # Op cost depends mostly on the tuple (p50 near 7 ms, p90 near 40 ms), so
    # each block of len(tuples) ops visits every tuple once, in a seeded order:
    # every run then sees the same tuple mix, and its p90 does not jump with
    # the share of expensive tuples that iid draws would give it.
    spawn, tuples = ctx.lib.rng.spawn, ctx.tuples
    block, slot = divmod(i, len(tuples))
    order = list(range(len(tuples)))
    spawn(seed, "exactness-order", block).shuffle(order)
    a, b, c, w = tuples[order[slot]]
    rng = spawn(seed, "exactness", i)
    rand_ratfn = ctx.lib.sampling.rand_ratfn
    x = rand_ratfn(ctx.ring, rng)
    pa = rand_ratfn(ctx.ring, rng, nonzero=(a == 0))
    pb = rand_ratfn(ctx.ring, rng, nonzero=(b == 0))
    pc = rand_ratfn(ctx.ring, rng, nonzero=(c == 0))
    return a, b, c, w, x, pa, pb, pc


def _exactness_op(ctx, inp):
    lib, ring = ctx.lib, ctx.ring
    omega, Letter = lib.omega, lib.omega.Letter
    a, b, c, w, x, pa, pb, pc = inp
    q3 = lib.wedge.wedge([Letter(a, pa)], [Letter(b, pb)], [Letter(c, pc)])
    moved = q3.map_entries(lambda ls: omega.sigma_letters(x, w, ls, ring.characteristic))
    lhs = omega.omega_p(moved, ring) - omega.omega_p(q3, ring)
    prim = omega.antider_primitive(a, b, c, w, x, pa, pb, pc)
    diff = lhs - lib.localfield.OneForm(prim.derivative())
    return diff.is_zero, (lhs.fn,)


# -- theorem1 -------------------------------------------------------------------

def _theorem1_setup(lib):
    base = lib.gf.Fq(11)
    return SimpleNamespace(lib=lib, base=base, quad=lib.sampling.quadratic_extension(base))


def _theorem1_gen(ctx, seed, i):
    # prime field and F_{p^2} in the theorem1 suite's 3:1 ratio
    field = ctx.quad if i % 4 == 3 else ctx.base
    rng = ctx.lib.rng.spawn(seed, "theorem1", i)
    alpha, beta, gamma = ctx.lib.sampling.rand_theorem1_triple(field, rng)
    return field, alpha, beta, gamma, i


def _theorem1_op(ctx, inp):
    regulator = ctx.lib.regulator
    field, alpha, beta, gamma, lift_seed = inp
    value = regulator.rho_K(regulator.linear_input(field, alpha, beta, gamma),
                            lift_seed=lift_seed)
    expected = regulator.theorem1_closed_form(alpha, beta, gamma)
    return value == expected, (value, expected)


# -- cycle-modulus ----------------------------------------------------------------

def _cycle_setup(lib):
    """The global sign between cycle and regulator invariants, from the anchor
    configuration of ``verify cross-module --seed 0``."""
    field = lib.gf.Fq(5)
    rng = lib.rng.spawn(0, "cross-module-anchor", 5)
    inp, cyc = lib.sampling.rand_admissible_graph(field, rng, seed=0, trivial_units=True)
    vr = lib.regulator.rho_K(inp, lift_seed=0)
    vc = lib.cycles.rho_K_cycle(cyc)
    if vc == vr:
        epsilon = 1
    elif vc == -vr:
        epsilon = -1
    else:
        raise RuntimeError(f"anchor cycle invariant {vc} is not ±{vr}")
    return SimpleNamespace(lib=lib, field=field, epsilon=epsilon)


def _perturb_mod_t2(lib, cyc, rng):
    """A copy of the cycle with one numerator coefficient moved by a nonzero
    multiple of t^2, so both cycles agree modulo t^2."""
    Trunc = lib.tpoly.Trunc
    which = rng.randrange(3)
    coords = []
    for i, co in enumerate(cyc.coords):
        num, den = list(co.num), list(co.den)
        if i == which:
            j = rng.randrange(len(num))
            moved = list(num[j].coeffs)
            moved[2] = moved[2] + lib.sampling.rand_nonzero(cyc.field, rng)
            num[j] = Trunc(num[j].ring, num[j].m, moved)
        coords.append((num, den))
    return lib.cycles.make_cycle(cyc.field, coords)


def _cycle_gen(ctx, seed, i):
    rng = ctx.lib.rng.spawn(seed, "cycle-modulus", i)
    inp, cyc = ctx.lib.sampling.rand_admissible_graph(ctx.field, rng, seed=i)
    return inp, cyc, _perturb_mod_t2(ctx.lib, cyc, rng), i


def _cycle_op(ctx, inp):
    regulator, cycles = ctx.lib.regulator, ctx.lib.cycles
    reg_input, cyc, moved, lift_seed = inp
    vr = regulator.rho_K(reg_input, lift_seed=lift_seed)
    deep = cycles.rho_K_cycle(cyc)
    deep_moved = cycles.rho_K_cycle(moved)
    plain = cycles.rho_cycle(cyc)
    plain_moved = cycles.rho_cycle(moved)
    same = cycles.modulus_compare(cyc, moved, 2)
    signed = vr if ctx.epsilon == 1 else -vr
    ok = same and deep == deep_moved and plain == plain_moved and deep == signed
    return ok, (vr, deep, deep_moved, plain, plain_moved, same)


WORKLOADS = {w.name: w for w in (
    # op cost varies with the sampled exponents (about 300-550 ms at p = 7), so
    # the run needs more ops before its median and p90 settle
    Workload("residue-pairing", 7, _pairing_setup, _pairing_gen, _pairing_op, min_ops=150),
    Workload("exactness", 7, _exactness_setup, _exactness_gen, _exactness_op,
             block=len(_admissible_tuples(7))),
    Workload("theorem1", 11, _theorem1_setup, _theorem1_gen, _theorem1_op, block=4),
    # every input has the same shape (six boundary points, two of degree 2),
    # so op times differ by machine noise only; the faster of two runs drops it
    Workload("cycle-modulus", 5, _cycle_setup, _cycle_gen, _cycle_op, repeats=2),
)}
