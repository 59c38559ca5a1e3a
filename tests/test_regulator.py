from dataclasses import dataclass

import pytest

from charp_dilog import omega, regulator
from charp_dilog.gf import CtxMismatch, Fq, FqElem, Poly, trace_to
from charp_dilog.localfield import OneForm, RatFn, RatFnRing, residue_at
from charp_dilog.regulator import (
    DegenerateConfiguration,
    GoodFunction,
    LiftedPoint,
    RegulatorInput,
    finite_point,
    linear_input,
    regulate,
    rescaled_t,
    rho,
    rho_K,
    theorem1_closed_form,
)
from charp_dilog.rng import spawn
from charp_dilog.sampling import rand_moebius_input, rand_theorem1_triple, rand_unit_k2
from charp_dilog.tpoly import Trunc, rp_eval
from charp_dilog.wedge import ell_p, res_local, wedge

from oracles import theorem1_a_p_formula


def test_closed_form_guards(F5):
    a = Trunc(F5, 2, [1, 2])
    b = Trunc(F5, 2, [0, 1])
    with pytest.raises(DegenerateConfiguration):
        theorem1_closed_form(a, b, Trunc(F5, 2, [0, 3]))  # gamma = beta mod t
    with pytest.raises(DegenerateConfiguration):
        theorem1_closed_form(a, b, Trunc(F5, 2, [1, 3]))  # s = 1
    with pytest.raises(DegenerateConfiguration):
        theorem1_closed_form(a, Trunc(F5, 2, [1, 1]), Trunc(F5, 2, [2, 0]))


def test_closed_form_zero_when_all_rational(F5):
    # r1 = 0 forces a = 0
    a = Trunc(F5, 2, [1, 0])
    b = Trunc(F5, 2, [0, 0])
    g = Trunc(F5, 2, [3, 0])
    assert theorem1_closed_form(a, b, g).is_zero


def test_repeated_entry_vanishes(F5):
    rng = spawn(0, "rep")
    alpha, beta, _ = rand_theorem1_triple(F5, rng)
    pts = (finite_point(F5, [-alpha, Trunc.one(F5, 2)]),
           finite_point(F5, [-beta, Trunc.one(F5, 2)]))
    one2 = Trunc.one(F5, 2)
    f = GoodFunction(one2, ((0, 1),))
    h = GoodFunction(one2, ((1, 1),))
    inp = RegulatorInput(F5, pts, f, f, h)
    assert rho_K(inp, 3).is_zero
    assert rho(inp, 3).is_zero


@pytest.mark.parametrize("p", [5, 7, 11])
def test_theorem1_matches_closed_form(p):
    field = Fq(p)
    rng = spawn(1, "thm1", p)
    for trial in range(25):
        alpha, beta, gamma = rand_theorem1_triple(field, rng)
        inp = linear_input(field, alpha, beta, gamma)
        assert rho_K(inp, lift_seed=trial) == theorem1_closed_form(alpha, beta, gamma)


def test_theorem1_closed_form_matches_the_a_p_formula(F5, F25):
    # li2p of the cross-ratio against a^p * pounds1(s), summed term by term
    for field in (F5, F25):
        rng = spawn(7, "thm1-a-p", field.order)
        for _ in range(40):
            alpha, beta, gamma = rand_theorem1_triple(field, rng)
            assert theorem1_closed_form(alpha, beta, gamma) == theorem1_a_p_formula(alpha, beta, gamma)


def test_lift_seed_independence(F7):
    rng = spawn(2, "seeds")
    for trial in range(15):
        inp = rand_moebius_input(F7, rng, degrees=(1,) * 6, trivial_units=False)
        v = rho_K(inp, lift_seed=0)
        assert all(rho_K(inp, lift_seed=s) == v for s in (1, 2, 3))
        w = rho(inp, lift_seed=0)
        assert all(rho(inp, lift_seed=s) == w for s in (1, 2, 3))


def test_support_is_dividing_points_plus_infinity(F5):
    rng = spawn(3, "support")
    alpha, beta, gamma = rand_theorem1_triple(F5, rng)
    inp = linear_input(F5, alpha, beta, gamma)
    _, breakdown = regulate(inp, 0)
    labels = [idx for idx, _ in breakdown]
    assert labels == [0, 1, 2, "inf"]


def test_wedge_linearity_in_first_slot(F7):
    # rho_K(f1 f2 ^ g ^ h) = rho_K(f1 ^ g ^ h) + rho_K(f2 ^ g ^ h)
    rng = spawn(4, "linear")
    field = F7
    one2 = Trunc.one(field, 2)
    for trial in range(10):
        while True:
            roots = [field.random_element(rng) for _ in range(4)]
            if len({r.raw for r in roots}) == 4:
                break
        pts = tuple(finite_point(field, [-Trunc(field, 2, [r, field.random_element(rng)]),
                                         one2]) for r in roots)
        u1, u2 = rand_unit_k2(field, rng), rand_unit_k2(field, rng)
        g = GoodFunction(one2, ((2, 1),))
        h = GoodFunction(one2, ((3, 1),))
        f1 = GoodFunction(u1, ((0, 1),))
        f2 = GoodFunction(u2, ((1, 1),))
        f12 = GoodFunction(u1 * u2, ((0, 1), (1, 1)))
        total = rho_K(RegulatorInput(field, pts, f12, g, h), trial)
        parts = rho_K(RegulatorInput(field, pts, f1, g, h), trial) + \
            rho_K(RegulatorInput(field, pts, f2, g, h), trial)
        assert total == parts


def test_scaling_law(F5):
    rng = spawn(5, "scaling")
    for trial in range(10):
        inp = rand_moebius_input(F5, rng, degrees=(1, 1, 1, 1, 2, 2), trivial_units=False)
        v3 = rho(inp, lift_seed=trial)
        vp = rho_K(inp, lift_seed=trial)
        for lam_raw in (2, 3):
            lam = F5(lam_raw)
            scaled = rescaled_t(inp, lam)
            assert rho(scaled, lift_seed=trial) == lam ** 3 * v3
            assert rho_K(scaled, lift_seed=trial) == lam ** 5 * vp


# -- local re-lifting and the defect pairing ----------------------------------
# Re-lifting one point reactivates the defect pairing; the regulator's own
# helpers are called through the module so that a test can patch them.

@dataclass
class RelifReport:
    """Outcome of recomputing one point's contribution through another lifting."""

    value: FqElem
    defect: FqElem
    standard_value: FqElem
    point_value_alt: FqElem


def _realize_local(inp, lift, idx, kprime, zhat):
    """Realize the three lifted functions and the point's uniformizer in the
    local model at the point: coordinate s with z = zhat + s, coefficients
    rational functions over the residue field."""
    ring = RatFnRing(kprime)
    z = zhat.embedded(ring) + ring.gen
    realized_points = {}
    for i in {i for fn in inp.functions() for i, _ in fn.factors} | {idx}:
        coeffs = [c.embedded(kprime).embedded(ring) for c in lift.points[i]]
        realized_points[i] = rp_eval(coeffs, z)
    entries = []
    for which, fn in enumerate(inp.functions()):
        val = lift.units[which].embedded(kprime).embedded(ring)
        for i, e in fn.factors:
            val = val * realized_points[i] ** e
        entries.append(val)
    return entries, realized_points[idx]


def local_relift_report(inp, point_idx, alt_seed, lift_seed=0, perturb_t1=None):
    """Recompute the regulator replacing the lifting at one finite point.

    The alternative lifting agrees with the standard one modulo t^2 (both lift
    the same depth-2 data), so the defect pairing corrects the difference and
    the total is unchanged.  With ``perturb_t1`` the alternative point
    polynomial is moved at order t, which only preserves agreement modulo t;
    the correction then fails, which is exactly the depth-2 threshold.
    """
    p = inp.field.p
    std_total, breakdown = regulator.regulate(inp, lift_seed)
    std_lift = regulator._lift_input(inp, p, lift_seed)
    kprime, zhat_std = regulator._point_field_and_root(inp, std_lift, point_idx)
    ring = RatFnRing(kprime)
    entries_std, unif_std = _realize_local(inp, std_lift, point_idx, kprime, zhat_std)

    if perturb_t1 is None:
        alt_lift = regulator._lift_input(inp, p, alt_seed)
        kprime_alt, zhat_alt = regulator._point_field_and_root(inp, alt_lift, point_idx)
        if kprime != kprime_alt:
            raise CtxMismatch(f"alternative lifting reduces to {kprime_alt}, not {kprime}")
        point_value_alt = regulator._residue_value(inp, alt_lift, point_idx, kprime,
                                                   zhat_alt, ell_p)
        entries_alt, _ = _realize_local(inp, alt_lift, point_idx, kprime, zhat_alt)
        defect = omega.res_omega_pair(wedge(*entries_std), wedge(*entries_alt), ring)
    else:
        # move the uniformizer at order t only and reassemble the entries with
        # the same unit parts; the resulting data matches the standard one
        # modulo t alone, which is exactly where the correction breaks down
        unif_alt = unif_std + Trunc(ring, p, [ring.zero, RatFn.const(perturb_t1)])
        ns = [fn.exponent_of(point_idx) for fn in inp.functions()]
        entries_alt = [e * unif_std ** (-n) * unif_alt ** n for e, n in zip(entries_std, ns)]
        point_value_alt = ell_p(res_local(entries_alt, unif_alt), ring=kprime)
        defect = omega.res_omega_difference(wedge(*entries_std), wedge(*entries_alt), ring)

    std_point = dict(breakdown).get(point_idx, inp.field.zero)
    value = std_total - std_point + trace_to(point_value_alt + defect, inp.field)
    return RelifReport(value=value, defect=defect, standard_value=std_total,
                       point_value_alt=point_value_alt)


def test_relift_identity_is_trivial(F5):
    rng = spawn(6, "relift-id")
    alpha, beta, gamma = rand_theorem1_triple(F5, rng)
    inp = linear_input(F5, alpha, beta, gamma)
    rep = local_relift_report(inp, 0, alt_seed=42, lift_seed=42)
    assert rep.defect.is_zero
    assert rep.value == rep.standard_value


def test_relift_preserves_value_with_nonzero_defect(F7):
    rng = spawn(7, "relift")
    seen_nonzero = False
    for trial in range(10):
        alpha, beta, gamma = rand_theorem1_triple(F7, rng)
        inp = linear_input(F7, alpha, beta, gamma)
        rep = local_relift_report(inp, 2, alt_seed=trial + 100, lift_seed=trial)
        assert rep.value == rep.standard_value
        seen_nonzero = seen_nonzero or not rep.defect.is_zero
        assert local_relift_report(inp, 1, alt_seed=trial + 7, lift_seed=trial).value == \
            rep.standard_value
    assert seen_nonzero


def test_relift_at_degree_two_point(F5):
    # local re-lifting across a residue field extension
    rng = spawn(8, "relift-deg2")
    inp = rand_moebius_input(F5, rng, degrees=(2, 2, 1, 1, 1, 1), trivial_units=False)
    rep = local_relift_report(inp, 0, alt_seed=5, lift_seed=1)
    assert rep.value == rep.standard_value


@pytest.mark.parametrize("p", [5, 7])
def test_depth1_perturbation_breaks_the_correction(p):
    # the displayed counterexample staged on the projective line: relifting the
    # origin with z - t (matching only mod t) shifts the corrected total by 1
    field = Fq(p)
    one2 = Trunc.one(field, 2)
    zero2 = Trunc.zero(field, 2)
    from charp_dilog.gf import Poly, factor_squarefree_irreducibles

    cyclotomic = Poly(field, [1] + [0] * (p - 2) + [1])  # 1 + z^(p-1)
    pts = [finite_point(field, [zero2, one2])]           # the origin, lifted as z
    g_factors = []
    for pi, mult in factor_squarefree_irreducibles(cyclotomic):
        idx = len(pts)
        pts.append(finite_point(field, [Trunc.constant(field, 2, pi.coeff(i))
                                        for i in range(pi.degree + 1)]))
        g_factors.append((idx, mult))
    pts.append(finite_point(field, [one2, one2]))        # z + 1
    inp = RegulatorInput(
        field, tuple(pts),
        GoodFunction(one2, ((0, 1),)),
        GoodFunction(one2, tuple(g_factors)),
        GoodFunction(one2, ((len(pts) - 1, 1),)),
    )
    std = rho_K(inp, lift_seed=None)  # trivial tails: the displayed configuration
    assert rho_K(inp, lift_seed=3) == std
    rep = local_relift_report(inp, 0, alt_seed=0, lift_seed=None,
                              perturb_t1=-field.one)
    assert rep.point_value_alt == field.one
    assert rep.defect.is_zero
    assert rep.value == std + field.one
    assert rep.value != std


def test_input_validation(F5, F7):
    one2 = Trunc.one(F5, 2)
    pt = finite_point(F5, [one2, one2])
    with pytest.raises(ValueError):
        RegulatorInput(F5, (pt, pt),
                       GoodFunction(one2, ((0, 1),)),
                       GoodFunction(one2, ((1, 1),)),
                       GoodFunction(one2, ()))
    with pytest.raises(CtxMismatch):
        RegulatorInput(F5, (pt,),
                       GoodFunction(Trunc.one(F7, 2), ((0, 1),)),
                       GoodFunction(one2, ((0, 1),)),
                       GoodFunction(one2, ()))
    with pytest.raises(ValueError):
        finite_point(F5, [Trunc(F5, 2, [1, 0]), Trunc(F5, 2, [2, 0])])  # not monic


def test_a_reducible_point_is_rejected_where_it_enters(F5):
    # residue_field trusts its argument, so each way in tests it: the public
    # extension constructor, residue_at, and a table point built directly
    reducible = [1, 0, 1]  # u^2 + 1 = (u + 2)(u + 3) over F_5
    with pytest.raises(ValueError, match="irreducible"):
        Fq(5, modulus=reducible, base=F5)
    form = OneForm(RatFnRing(F5).one)
    for pi in (reducible, [1, 2]):  # 2s + 1 is irreducible but not monic
        with pytest.raises(ValueError, match="irreducible"):
            residue_at(form, Poly(F5, pi))
    with pytest.raises(ValueError, match="irreducible"):
        LiftedPoint(tuple(Trunc(F5, 2, [c]) for c in reducible))


def test_relift_rejects_a_different_residue_field(monkeypatch, F5):
    # both liftings reduce to the same point, so a different residue field
    # for the alternative one is a fault, reported as CtxMismatch
    rng = spawn(6, "relift-id")
    inp = linear_input(F5, *rand_theorem1_triple(F5, rng))
    real_field, real_lift = regulator._point_field_and_root, regulator._lift_input
    alt = {}

    def lift(inp, p, seed):
        out = real_lift(inp, p, seed)
        if seed == 99:
            alt["lift"] = out
        return out

    def field_and_root(inp, lift, idx):
        kprime, root = real_field(inp, lift, idx)
        if lift is alt.get("lift"):
            kprime = Fq(5, modulus=[2, 0, 1], base=F5)
        return kprime, root

    monkeypatch.setattr(regulator, "_lift_input", lift)
    monkeypatch.setattr(regulator, "_point_field_and_root", field_and_root)
    with pytest.raises(CtxMismatch):
        local_relift_report(inp, 0, alt_seed=99, lift_seed=0)
