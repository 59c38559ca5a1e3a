"""Seeded verification suites behind `verify`, one per pinned property family.

Each suite runs a fixed number of independently-seeded trials and returns a
structured result whose serialized form depends only on (suite, p, trials,
seed), never on wall time, so reports are byte-identical across runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from . import bloch, cycles, omega, regulator
from .gf import Fq, descend, factor_squarefree_irreducibles, roots_in_field, trace_to, trace_to_base
from .localfield import INF, OneForm, RatFnRing, is_exact_form, residue_at
from .omega import Letter
from .rng import spawn
from .sampling import (
    quadratic_extension,
    rand_admissible_graph,
    rand_flat_pair,
    rand_good_lifting_pair,
    rand_letter_wedge_entries,
    rand_nonzero,
    rand_oneform,
    rand_ratfn,
    rand_sigma_weights,
    rand_theorem1_triple,
)
from .tpoly import Trunc, hensel_root_zpoly
from .wedge import ell_p, res_local, wedge


class UnknownSuite(Exception):
    """No suite with the requested name."""


@dataclass
class SuiteResult:
    """Outcome of one suite run; deterministic given (name, p, trials, seed)."""

    name: str
    p: int
    trials: int
    seed: int
    checks: int = 0
    failures: list = dc_field(default_factory=list)
    notes: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        """A run passes when it made at least one check and none failed."""
        return self.checks > 0 and not self.failures

    def record(self, passed: bool, label: str, **context):
        self.checks += 1
        if not passed:
            entry = {"check": label}
            entry.update({k: repr(v) for k, v in context.items()})
            self.failures.append(entry)

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "suite": self.name,
            "p": self.p,
            "trials": self.trials,
            "seed": self.seed,
            "checks": self.checks,
            "passed": self.ok,
            "failures": self.failures,
            "notes": self.notes,
        }


def _fields_for(p: int) -> list[Fq]:
    base = Fq(p)
    return [base, quadratic_extension(base)]


def run_five_term(p: int, trials: int, seed: int) -> SuiteResult:
    """Both dilogarithms vanish exactly on five-term combinations."""
    result = SuiteResult("five-term", p, trials, seed)
    for fi, field in enumerate(_fields_for(p)):
        for trial in range(trials):
            rng = spawn(seed, "five-term", p, fi, trial)
            x, y = rand_flat_pair(field, rng)
            sym = bloch.five_term(x, y)
            result.record(bloch.li2(sym).is_zero, "li2-five-term", x=x, y=y)
            result.record(bloch.li2p(sym).is_zero, "li2p-five-term", x=x, y=y)
    return result


def _exactness_tuples(p: int) -> list[tuple[int, int, int, int]]:
    out = []
    for a, b, c in itertools.product(range(p), repeat=3):
        rest = p - (a + b + c)
        for w in range(1, p):
            if rest > 0 and rest % w == 0 and (rest // w) % p != 0:
                out.append((a, b, c, w))
    return out


def _moved_difference(ring: RatFnRing, a: int, b: int, c: int, w: int, x, pa, pb, pc) -> OneForm:
    """omega_p of the letter triple moved by s -> s + x t^w, less omega_p of the triple."""
    q3 = wedge([Letter(a, pa)], [Letter(b, pb)], [Letter(c, pc)])
    moved = q3.map_entries(lambda ls: omega.sigma_letters(x, w, ls, ring.characteristic))
    return omega.omega_p(moved, ring) - omega.omega_p(q3, ring)


def _exactness_check(ring: RatFnRing, a: int, b: int, c: int, w: int, rng, result,
                     cross_oracle: bool) -> None:
    x = rand_ratfn(ring, rng)
    pa = rand_ratfn(ring, rng, nonzero=(a == 0))
    pb = rand_ratfn(ring, rng, nonzero=(b == 0))
    pc = rand_ratfn(ring, rng, nonzero=(c == 0))
    lhs = _moved_difference(ring, a, b, c, w, x, pa, pb, pc)
    prim = omega.antider_primitive(a, b, c, w, x, pa, pb, pc)
    diff = lhs - OneForm(prim.derivative())
    result.record(diff.is_zero, "exactness-identity", tuple=(a, b, c, w),
                  x=x, alpha=pa, beta=pb, gamma=pc)
    if cross_oracle:
        result.record(is_exact_form(lhs), "exactness-cartier", tuple=(a, b, c, w))


def run_exactness(p: int, trials: int, seed: int) -> SuiteResult:
    """The reparametrization defect matches the differential of its primitive.

    Exhaustive over admissible (a, b, c, w) at p = 5 with `trials` draws each;
    at larger p, `trials` random (tuple, draw) samples.  The all-constant
    tuple with unit weight has no displayed primitive (the quotient q equals
    p) and is excluded; see the repository notes.
    """
    result = SuiteResult("exactness", p, trials, seed)
    ring = RatFnRing(Fq(p))
    tuples = _exactness_tuples(p)
    result.notes.append("degenerate tuple (0,0,0,w=1) excluded: q = p has no primitive")
    if p == 5:
        for t_idx, (a, b, c, w) in enumerate(tuples):
            for draw in range(trials):
                rng = spawn(seed, "exactness", p, t_idx, draw)
                _exactness_check(ring, a, b, c, w, rng, result, cross_oracle=(draw == 0))
        # vanishing cases: w fails to divide p-(a+b+c); the exponents already
        # sum to p; or the coefficient table is identically zero (equal a,b,c)
        for t_idx, (a, b, c, w) in enumerate(((2, 0, 0, 2), (2, 2, 1, 3),
                                              (1, 2, 2, 1), (1, 1, 1, 2))):
            rng = spawn(seed, "exactness-zero", p, t_idx)
            x = rand_ratfn(ring, rng)
            pa, pb, pc = (rand_ratfn(ring, rng) for _ in range(3))
            diff = _moved_difference(ring, a, b, c, w, x, pa, pb, pc)
            result.record(diff.is_zero, "exactness-vacuous", tuple=(a, b, c, w))
    else:
        for trial in range(trials):
            rng = spawn(seed, "exactness", p, trial)
            a, b, c, w = tuples[rng.randrange(len(tuples))]
            _exactness_check(ring, a, b, c, w, rng, result, cross_oracle=(trial % 25 == 0))
    return result


def run_invariance(p: int, trials: int, seed: int) -> SuiteResult:
    """Residues at s = 0 are unchanged by general reparametrizations."""
    result = SuiteResult("invariance", p, trials, seed)
    ring = RatFnRing(Fq(p))
    for trial in range(trials):
        rng = spawn(seed, "invariance", p, trial)
        entries = rand_letter_wedge_entries(ring, rng)
        xs = rand_sigma_weights(ring, rng)
        ok = omega.res_invariance_check(xs, wedge(*entries), ring)
        result.record(ok, "residue-invariance", entries=entries, xs=xs)
    return result


def depth_one_counterexample(p: int):
    """The displayed pair q' = (s - t) ^ (1 + s^(p-1)) ^ (1 + s) and
    q = s ^ (1 + s^(p-1)) ^ (1 + s), congruent mod t only: the deep value of
    the residue at each uniformizer, and the residue of the form difference."""
    field = Fq(p)
    ring = RatFnRing(field)
    s = ring.gen
    one = ring.one
    s_minus_t = Trunc(ring, p, [s, -one])
    s_plain = Trunc.constant(ring, p, s)
    a = Trunc.constant(ring, p, one + s ** (p - 1))
    b = Trunc.constant(ring, p, one + s)
    return (ell_p(res_local([s_minus_t, a, b], s_minus_t), ring=field),
            ell_p(res_local([s_plain, a, b], s_plain), ring=field),
            omega.res_omega_difference(wedge(s_minus_t, a, b), wedge(s_plain, a, b), ring))


def run_residue_formula(p: int, trials: int, seed: int) -> SuiteResult:
    """The residue pairing against the functional difference, the displayed
    counterexample values, and the global residue theorem."""
    result = SuiteResult("residue-formula", p, trials, seed)
    field = Fq(p)
    ring = RatFnRing(field)
    v1, v2, v3 = depth_one_counterexample(p)
    result.record(v1 == field.one, "counterexample-deep-value", value=v1)
    result.record(v2.is_zero, "counterexample-plain-value", value=v2)
    result.record(v3.is_zero, "counterexample-form-residue", value=v3)
    for trial in range(trials):
        rng = spawn(seed, "residue-pairs", p, trial)
        qtilde, qhat, s_tilde, s_hat = rand_good_lifting_pair(ring, rng)
        lhs = ell_p(res_local(qtilde, s_tilde), ring=field) - \
            ell_p(res_local(qhat, s_hat), ring=field)
        rhs = omega.res_omega_pair(wedge(*qtilde), wedge(*qhat), ring)
        result.record(lhs == rhs, "pairing-matches-functional-difference", trial=trial)
    for trial in range(trials):
        rng = spawn(seed, "global-residue", p, trial)
        form = rand_oneform(ring, rng)
        total = field.zero
        for pi, _ in factor_squarefree_irreducibles(form.fn.reduced().den):
            r = residue_at(form, pi)
            total = total + trace_to(r, field)
        total = total + residue_at(form, INF)
        result.record(total.is_zero, "global-residue-sum", form=form)
    return result


def run_theorem1(p: int, trials: int, seed: int) -> SuiteResult:
    """The deep regulator on linear-factor inputs equals the closed form,
    over the prime field, over its quadratic extension, and on quadratic-point
    configurations with a genuine trace."""
    result = SuiteResult("theorem1", p, trials, seed)
    base = Fq(p)
    quad = quadratic_extension(base)
    for trial in range(trials):
        rng = spawn(seed, "theorem1", p, trial)
        mode = trial % 10
        if mode < 6:
            field = base
        elif mode < 8:
            field = quad
        else:
            _quadratic_point_check(base, quad, rng, result, trial)
            continue
        alpha, beta, gamma = rand_theorem1_triple(field, rng)
        inp = regulator.linear_input(field, alpha, beta, gamma)
        value = regulator.rho_K(inp, lift_seed=trial)
        expected = regulator.theorem1_closed_form(alpha, beta, gamma)
        result.record(value == expected, "theorem1-closed-form",
                      alpha=alpha, beta=beta, gamma=gamma, value=value, expected=expected)
        if mode == 0:
            again = regulator.rho_K(inp, lift_seed=trial + 10 ** 6)
            result.record(value == again, "theorem1-lift-independence", alpha=alpha)
    return result


def _quadratic_point_check(base: Fq, quad: Fq, rng, result: SuiteResult, trial: int) -> None:
    """rho_K over the base field on an irreducible quadratic factor equals the
    traced closed form of its split configuration over the extension."""
    one2 = Trunc.one(base, 2)
    while True:
        g0 = quad.random_element(rng)
        if any(not c.is_zero for c in g0.coeffs()[1:]):
            break
    gamma = Trunc(quad, 2, [g0, quad.random_element(rng)])
    a0 = base.random_element(rng)
    while True:
        b0 = base.random_element(rng)
        if b0 != a0:
            break
    alpha = Trunc(base, 2, [a0, base.random_element(rng)])
    beta = Trunc(base, 2, [b0, base.random_element(rng)])
    conj = gamma.map_coeffs(lambda c: c ** base.order, quad)
    quad_poly_ext = [gamma * conj, -(gamma + conj), Trunc.one(quad, 2)]
    quad_poly = [c.map_coeffs(descend, base) for c in quad_poly_ext[:2]]
    quad_poly.append(one2)
    pts = (
        regulator.finite_point(base, quad_poly),
        regulator.finite_point(base, [-alpha, one2]),
        regulator.finite_point(base, [-beta, one2]),
    )
    inp = regulator.RegulatorInput(
        base, pts,
        regulator.GoodFunction(one2, ((0, 1),)),
        regulator.GoodFunction(one2, ((1, 1),)),
        regulator.GoodFunction(one2, ((2, 1),)),
    )
    value = regulator.rho_K(inp, lift_seed=trial)
    expected = trace_to_base(regulator.theorem1_closed_form(gamma, alpha.embedded(quad),
                                                            beta.embedded(quad)))
    result.record(value == expected, "theorem1-quadratic-trace",
                  gamma=gamma, value=value, expected=expected)


def run_modulus(p: int, trials: int, seed: int) -> SuiteResult:
    """Cycles congruent mod t^2 share both invariants; order-t perturbations
    (congruent mod t only) disagree somewhere in the batch, so the test has power.
    A batch of fewer than 8 trials tries more controls on fresh graphs, until
    one differs or 8 were tried, and records no check for them."""
    result = SuiteResult("modulus", p, trials, seed)
    field = Fq(p)
    controls_differ = 0
    for trial in range(trials):
        rng = spawn(seed, "modulus", p, trial)
        _, cyc = rand_admissible_graph(field, rng, seed=trial)
        pert2 = _perturb_cycle(cyc, order=2, rng=rng)
        result.record(cycles.modulus_compare(cyc, pert2, 2), "modulus-compare-t2", trial=trial)
        # each cycle's boundary is found once and serves both invariants
        pts, pts2 = cycles.boundary(cyc), cycles.boundary(pert2)
        deep, deep2 = (cycles.zero_cycle_value(b, field) for b in (pts, pts2))
        result.record(deep == deep2, "deep-invariant-depth2", trial=trial)
        plain, plain2 = (cycles.zero_cycle_value(b, field, deep=False) for b in (pts, pts2))
        result.record(plain == plain2, "ell-invariant-depth2", trial=trial)
        controls_differ += _control_differs(cyc, deep, rng)
    for j in range(trials, 8):
        if controls_differ:
            break
        rng = spawn(seed, "modulus-control", p, j)
        _, cyc = rand_admissible_graph(field, rng, seed=j)
        deep = cycles.zero_cycle_value(cycles.boundary(cyc), field)
        controls_differ += _control_differs(cyc, deep, rng)
    result.record(controls_differ >= 1, "control-batch-has-power",
                  controls_differ=controls_differ)
    return result


def _control_differs(cyc, deep, rng) -> bool:
    """Whether an admissible order-t perturbation of the cycle moves ``deep``."""
    pert1 = _perturb_cycle(cyc, order=1, rng=rng)
    try:
        pts1 = cycles.boundary(pert1)
    except cycles.NotAdmissible:
        return False
    return deep != cycles.zero_cycle_value(pts1, cyc.field)


def _perturb_cycle(cyc, order: int, rng):
    field = cyc.field
    coords = []
    which = rng.randrange(3)
    for i, co in enumerate(cyc.coords):
        num = list(co.num)
        den = list(co.den)
        if i == which:
            j = rng.randrange(len(num))
            c = num[j]
            moved = list(c.coeffs)
            moved[order] = moved[order] + rand_nonzero(field, rng)
            num[j] = Trunc(c.ring, c.m, moved)
        coords.append((num, den))
    return cycles.make_cycle(field, coords)


def run_cross_module(p: int, trials: int, seed: int) -> SuiteResult:
    """The cycle invariant of a graph equals the regulator up to one global sign,
    pinned on a configuration whose value reduces to closed forms."""
    result = SuiteResult("cross-module", p, trials, seed)
    field = Fq(p)
    rng = spawn(seed, "cross-module-anchor", p)
    inp, cyc = rand_admissible_graph(field, rng, seed=0, trivial_units=True)
    expected = _moebius_closed_form(inp)
    vr = regulator.rho_K(inp, lift_seed=0)
    result.record(vr == expected, "anchor-closed-form", value=vr, expected=expected)
    vc = cycles.rho_K_cycle(cyc)
    if vc == vr:
        epsilon = 1
    elif vc == -vr:
        epsilon = -1
    else:
        result.record(False, "anchor-sign", cycle=vc, regulator=vr)
        return result
    result.notes.append(f"global sign epsilon = {epsilon:+d}")
    for trial in range(trials):
        rng = spawn(seed, "cross-module", p, trial)
        inp, cyc = rand_admissible_graph(field, rng, seed=trial)
        vr = regulator.rho_K(inp, lift_seed=trial)
        vc = cycles.rho_K_cycle(cyc)
        ok = vc == (vr if epsilon == 1 else -vr)
        result.record(ok, "cross-module-sign", trial=trial, cycle=vc, regulator=vr)
    return result


def _moebius_closed_form(inp):
    """Expected deep-regulator value of a trivial-unit Moebius input, from the
    closed form, multilinearity, and Galois descent over the splitting field
    of the table (points of degree up to two)."""
    field = inp.field
    if any(pt.degree > 2 for pt in inp.points):
        raise ValueError("closed-form expansion implemented for degrees <= 2")
    split = field if all(pt.degree == 1 for pt in inp.points) else quadratic_extension(field)
    point_roots = []
    for pt in inp.points:
        if pt.degree == 1:
            point_roots.append([(-pt.poly[0]).embedded(split)])
        else:
            red = pt.reduction(field).embedded(split)
            coeffs = [c.embedded(split) for c in pt.poly]
            point_roots.append([hensel_root_zpoly(coeffs, r0)
                                for r0 in roots_in_field(red)])
    choices = []
    for fn in inp.functions():
        opts = []
        for i, e in fn.factors:
            if e not in (1, -1):
                raise ValueError("closed-form expansion implemented for exponents +-1")
            for root in point_roots[i]:
                opts.append((root, e))
        choices.append(opts)
    total = split.zero
    for (r1, s1) in choices[0]:
        for (r2, s2) in choices[1]:
            for (r3, s3) in choices[2]:
                value = regulator.theorem1_closed_form(r1, r2, r3)
                total = total + (value if s1 * s2 * s3 == 1 else -value)
    if split != field:
        total = descend(total)
    return total


SUITES = {
    "five-term": (run_five_term, 500),
    "exactness": (run_exactness, 20),
    "invariance": (run_invariance, 100),
    "residue-formula": (run_residue_formula, 100),
    "theorem1": (run_theorem1, 200),
    "modulus": (run_modulus, 50),
    "cross-module": (run_cross_module, 100),
}


def run_suite(name: str, p: int, trials: int | None, seed: int) -> SuiteResult:
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    fn, default_trials = SUITES[name]
    if name == "exactness" and trials is None and p != 5:
        trials = 500
    return fn(p, trials if trials is not None else default_trials, seed)
