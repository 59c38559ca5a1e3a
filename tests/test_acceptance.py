"""Acceptance criteria, one test per criterion, at the stated trial counts.

Every comparison is exact equality over a finite field (zero tolerance).
Each test prints one `criterion N: PASS/FAIL` line so the suite doubles as a
checklist; run `pytest tests/test_acceptance.py -s` to see them all.
"""

import time

import pytest

from charp_dilog import regulator
from charp_dilog.gf import Fq, factor_squarefree_irreducibles, trace_to_base
from charp_dilog.localfield import INF, RatFnRing, residue_at
from charp_dilog.rng import spawn
from charp_dilog.sampling import quadratic_extension, rand_flat_pair, rand_oneform
from charp_dilog.suites import (
    run_cross_module,
    run_exactness,
    run_five_term,
    run_invariance,
    run_modulus,
    run_residue_formula,
    run_theorem1,
)
from charp_dilog import bloch


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {criterion}: {status}{suffix}")
    assert ok, f"criterion {criterion} failed{suffix}"


def test_criterion_1_theorem1_reproduction():
    """200 random triples per p in {5, 7, 11}, including residue-degree-2 cases;
    rho_K on linear factors equals the closed form exactly, under 30 s a prime."""
    ok = True
    details = []
    for p in (5, 7, 11):
        t0 = time.time()
        result = run_theorem1(p, trials=200, seed=2024)
        elapsed = time.time() - t0
        ok = ok and result.ok and elapsed < 30
        details.append(f"p={p}: {result.checks} checks in {elapsed:.1f}s")
    _report("1 (deep closed form)", ok, "; ".join(details))


def test_criterion_2_displayed_counterexample():
    """The three pinned values at p = 5 and p = 7: deep value 1 at the moved
    uniformizer, 0 at the plain one, and residue 0 of the form difference."""
    ok = True
    for p in (5, 7):
        result = run_residue_formula(p, trials=0, seed=0)
        ok = ok and result.ok and result.checks == 3
    _report("2 (depth-one counterexample)", ok)


def test_criterion_3_exactness_identity():
    """Exhaustive (a, b, c, w) sweep at p = 5 with 20 draws each; 500 samples at
    p = 7; the identity holds exactly; the q = p tuple has no primitive and is
    excluded (see notes/decisions ledger)."""
    t0 = time.time()
    r5 = run_exactness(5, trials=20, seed=7)
    r7 = run_exactness(7, trials=500, seed=7)
    elapsed = time.time() - t0
    ok = r5.ok and r7.ok and elapsed < 120
    _report("3 (exactness identity)", ok,
            f"{r5.checks}+{r7.checks} checks in {elapsed:.1f}s")


def test_criterion_4_residue_invariance():
    """100 general reparametrizations per p in {5, 7}, all weights, poles at the
    origin allowed: residues at s = 0 agree exactly."""
    ok = True
    for p in (5, 7):
        result = run_invariance(p, trials=100, seed=11)
        ok = ok and result.ok
    _report("4 (residue invariance)", ok)


def test_criterion_5_residue_pairing():
    """100 random pairs of good liftings congruent mod t^2, with uniformizer
    changes u s + sum x_w t^w: the functional difference equals the pairing."""
    ok = True
    for p in (5, 7):
        result = run_residue_formula(p, trials=100, seed=13)
        pairing_checks = [f for f in result.failures
                          if f.get("check") == "pairing-matches-functional-difference"]
        ok = ok and result.ok and not pairing_checks
    _report("5 (pairing vs functional difference)", ok)


def test_criterion_6_five_term_vanishing():
    """500 admissible pairs per p in {5, 7, 11} over both F_p[t]/(t^2) and
    F_{p^2}[t]/(t^2): both dilogarithms vanish exactly on the relation."""
    ok = True
    for p in (5, 7, 11):
        result = run_five_term(p, trials=500, seed=5)
        ok = ok and result.ok and result.checks == 2 * 2 * 500
    _report("6 (five-term vanishing)", ok)


def test_criterion_7_factorization_through_delta():
    """Closed forms agree with the boundary-map routes on 200 generators each,
    across 5 independent lifts; exact equality."""
    ok = True
    for p in (5, 7):
        field = Fq(p)
        for trial in range(200):
            rng = spawn(29, "delta-routes", p, trial)
            x, _ = rand_flat_pair(field, rng)
            sym = bloch.symbol(x)
            v2 = bloch.li2(sym)
            vp = bloch.li2p(sym)
            for lift_seed in range(5):
                ok = ok and bloch.li2_via_lift(sym, seed=lift_seed) == v2
                ok = ok and bloch.li2p_via_lift(sym, seed=lift_seed) == vp
            if not ok:
                break
    _report("7 (factorization through the boundary map)", ok)


def test_criterion_8_scaling_law():
    """t -> lam t multiplies the depth-3 regulator by lam^3 and the deep one by
    lam^p, on 50 random inputs per prime."""
    ok = True
    for p in (5, 7):
        field = Fq(p)
        for trial in range(50):
            rng = spawn(31, "scaling", p, trial)
            degrees = (1, 1, 1, 1, 1, 1) if p > 5 else (1, 1, 1, 1, 2, 2)
            from charp_dilog.sampling import rand_moebius_input
            inp = rand_moebius_input(field, rng, degrees=degrees, trivial_units=False)
            lam = field.from_int(rng.randrange(2, p))
            scaled = regulator.rescaled_t(inp, lam)
            ok = ok and regulator.rho(scaled, trial) == lam ** 3 * regulator.rho(inp, trial)
            ok = ok and regulator.rho_K(scaled, trial) == lam ** p * regulator.rho_K(inp, trial)
            if not ok:
                break
    _report("8 (scaling law)", ok)


def test_criterion_9_modulus_property():
    """50 admissible pairs congruent mod t^2 share both invariants; the
    order-t control batch disagrees at least once (the test has power)."""
    result = run_modulus(5, trials=50, seed=17)
    _report("9 (modulus property)", result.ok)


def test_criterion_10_cross_module_coherence():
    """The cycle invariant of the graph equals the regulator with one global
    sign, pinned on a closed-form-checked anchor, across 100 random inputs."""
    result = run_cross_module(5, trials=50, seed=19)
    result7 = run_cross_module(7, trials=50, seed=19)
    ok = result.ok and result7.ok
    sign_notes = set(result.notes) | set(result7.notes)
    _report("10 (cross-module coherence)", ok, "; ".join(sorted(sign_notes)))


def test_criterion_11_global_residue_theorem():
    """Traced residues of 100 random 1-forms, the point at infinity included,
    sum to zero exactly."""
    ok = True
    for p, ext in ((5, None), (5, "quad")):
        field = Fq(p)
        if ext == "quad":
            field = quadratic_extension(field)
        ring = RatFnRing(field)
        for trial in range(50):
            rng = spawn(37, "global-residue", p, str(ext), trial)
            form = rand_oneform(ring, rng)
            total = field.zero
            for pi, _ in factor_squarefree_irreducibles(form.fn.reduced().den):
                r = residue_at(form, pi)
                total = total + (r if r.field == field else trace_to_base(r))
            total = total + residue_at(form, INF)
            ok = ok and total.is_zero
    _report("11 (global residue theorem)", ok)
