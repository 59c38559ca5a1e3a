import json

import pytest

from charp_dilog import cli, cycles, gf, localfield, regulator, suites
from charp_dilog.cycles import (
    BoundaryPoint,
    NotAdmissible,
    PARAM_INF,
    admissibility_check,
    boundary,
    face_sign,
    graph_cycle,
    make_cycle,
    modulus_compare,
    rho_K_cycle,
    rho_cycle,
    zero_cycle_value,
)
from charp_dilog.gf import Fq, trace_to_base
from charp_dilog.regulator import rho_K
from charp_dilog.rng import spawn
from charp_dilog.sampling import quadratic_extension, rand_admissible_graph, rand_moebius_input
from charp_dilog.tpoly import ModulusMismatch, Trunc, rp_eval, rp_mul


def const_coord(field, p, value):
    return ([Trunc.constant(field, p, field(value))], [Trunc.one(field, p)])


def test_constant_cycle_admissible_empty_boundary(F7):
    p = 7
    cyc = make_cycle(F7, [const_coord(F7, p, v) for v in (2, 3, 4)])
    assert admissibility_check(cyc).ok
    assert boundary(cyc) == []
    assert rho_K_cycle(cyc).is_zero
    assert rho_cycle(cyc).is_zero


def test_double_root_rejected(F5):
    p = 5
    one = Trunc.one(F5, p)
    z = [Trunc.zero(F5, p), one]
    sq = rp_mul(z, z)  # y1 = z^2: double root at the zero face
    cyc = make_cycle(F5, [(sq, [one]), const_coord(F5, p, 2), const_coord(F5, p, 3)])
    report = admissibility_check(cyc)
    assert not report.ok
    assert any(f.code == "NonSimpleRoot" for f in report.failures)
    with pytest.raises(NotAdmissible):
        boundary(cyc)


def test_coordinate_identically_one_rejected(F5):
    p = 5
    one = Trunc.one(F5, p)
    cyc = make_cycle(F5, [([one], [one]), const_coord(F5, p, 2), const_coord(F5, p, 3)])
    report = admissibility_check(cyc)
    assert any(f.code == "ConstantOneCoordinate" for f in report.failures)


def _coordinate(num, den):
    """A coordinate of a cycle input file: z-coefficients as t-coefficient lists."""
    return {"num": num, "den": den}


# each input fails the check at t = 0 in one way; over F_5, with 2 and 3 as
# constant coordinates that fail nothing
ADMISSIBILITY_FAILURES = {
    # y1 = t reduces to 0, y1 = 1/t to infinity
    "ZeroCoordinate": ([_coordinate([[0, 1]], [[1]]), _coordinate([[2]], [[1]]),
                        _coordinate([[3]], [[1]])], [("ZeroCoordinate", 1)]),
    "InfiniteCoordinate": ([_coordinate([[1]], [[0, 1]]), _coordinate([[2]], [[1]]),
                            _coordinate([[3]], [[1]])], [("InfiniteCoordinate", 1)]),
    # y2 = (z + 1)/((z + 1)(z + 2)): numerator and denominator share the root -1
    "BasePoint": ([_coordinate([[2]], [[1]]), _coordinate([[1], [1]], [[2], [3], [1]]),
                   _coordinate([[3]], [[1]])], [("BasePoint", 2)]),
    # y1 = z and y2 = z + 2 each have a face at the parameter infinity, where the
    # other, of numerator degree 1 over denominator degree 0, survives
    "FaceValueCollision": ([_coordinate([[0], [1]], [[1]]), _coordinate([[2], [1]], [[1]]),
                            _coordinate([[3]], [[1]])],
                           [("FaceValueCollision", 2), ("FaceValueCollision", 1)]),
}


@pytest.mark.parametrize("code", list(ADMISSIBILITY_FAILURES))
def test_each_admissibility_failure_is_reported(code, tmp_path, capsys):
    coords, want = ADMISSIBILITY_FAILURES[code]
    doc = {"schema": 1, "p": 5, "ext": None, **dict(zip(("y1", "y2", "y3"), coords))}
    report = admissibility_check(cli._cycle_from_json(doc))
    assert [(f.code, f.coordinate + 1) for f in report.failures] == want
    if code == "FaceValueCollision":
        assert {f.detail for f in report.failures} == {
            "coordinate degenerates at the parameter infinity"}
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["cycle", "rho-k", "--input", str(path), "--format", "json"]) == 1
    rows = json.loads(capsys.readouterr().out)
    assert [(row["failure"], row["coordinate"]) for row in rows] == want


def test_boundary_of_coordinate_graph(F7):
    # Z = (z, g(z), h(z)) with g, h Moebius: faces y1 = 0 and y1 = infinity sit
    # at z = 0 and the parameter infinity, carrying the values of (g, h) there
    p = 7
    one = Trunc.one(F7, p)
    zero = Trunc.zero(F7, p)
    z = [zero, one]

    def moebius(a, b, c, d):
        return ([Trunc.constant(F7, p, F7(b)), Trunc.constant(F7, p, F7(a))],
                [Trunc.constant(F7, p, F7(d)), Trunc.constant(F7, p, F7(c))])

    g = moebius(1, 1, 2, 3)   # (z + 1)/(2z + 3)
    h = moebius(1, 3, 4, 2)   # (z + 3)/(4z + 2)
    cyc = make_cycle(F7, [(z, [one]), g, h])
    assert admissibility_check(cyc).ok
    pts = boundary(cyc)
    by_face = {(pt.face, repr(pt.where)) for pt in pts}
    assert ((1, "0"), "1*x") in by_face
    assert ((1, "inf"), repr(PARAM_INF)) in by_face
    zero_pt = next(pt for pt in pts if pt.face == (1, "0"))
    assert zero_pt.sign == face_sign(1, at_infinity=False) == 1
    # values of g and h at the lifted root z = 0
    assert zero_pt.pair[0] == Trunc.constant(F7, p, F7(1)) * Trunc.constant(F7, p, F7(3)).inverse()
    assert zero_pt.pair[1] == Trunc.constant(F7, p, F7(3)) * Trunc.constant(F7, p, F7(2)).inverse()
    inf_pt = next(pt for pt in pts if pt.face == (1, "inf"))
    assert inf_pt.sign == face_sign(1, at_infinity=True) == -1
    # ratios of leading coefficients
    assert inf_pt.pair[0] == Trunc.constant(F7, p, F7(1)) * Trunc.constant(F7, p, F7(2)).inverse()
    assert inf_pt.pair[1] == Trunc.constant(F7, p, F7(1)) * Trunc.constant(F7, p, F7(4)).inverse()


def test_hensel_deformation_exactness(F5):
    rng = spawn(0, "hensel-def")
    _, cyc = rand_admissible_graph(F5, rng, seed=0)
    for pt in boundary(cyc):
        if pt.where is PARAM_INF or pt.kprime != F5:
            continue
        i = pt.face[0] - 1
        num = list(cyc.coords[i].num) if pt.face[1] == "0" else list(cyc.coords[i].den)
        root0 = -pt.where.coeff(0)
        from charp_dilog.tpoly import hensel_root_zpoly
        root = hensel_root_zpoly(num, root0)
        assert rp_eval(num, root).is_zero


def test_single_split_point_value(F5, F7):
    # the displayed pair (1 + t^(p-1), 1 + t) with sign +1 has deep value 1
    for field in (F5, F7):
        p = field.p
        u = Trunc(field, p, [1] + [0] * (p - 2) + [1])
        v = Trunc(field, p, [1, 1])
        pt = BoundaryPoint(field, (u, v), 1, (1, "0"), None)
        assert zero_cycle_value([pt], field) == field.one
        assert zero_cycle_value([], field).is_zero


def test_conjugate_pair_traces(F5):
    # a closed point of degree two contributes the trace of its single-point value
    quad = quadratic_extension(F5)
    rng = spawn(1, "conj")
    p = 5
    u = Trunc(quad, p, [quad.random_element(rng) for _ in range(p)])
    v = Trunc(quad, p, [quad.random_element(rng) for _ in range(p)])
    while not (u.is_unit and v.is_unit):
        u = Trunc(quad, p, [quad.random_element(rng) for _ in range(p)])
        v = Trunc(quad, p, [quad.random_element(rng) for _ in range(p)])
    pt = BoundaryPoint(quad, (u, v), 1, (2, "0"), None)
    from charp_dilog.wedge import ell_p, wedge
    value = zero_cycle_value([pt], F5)
    single = ell_p(wedge(u, v), ring=quad)
    assert value == trace_to_base(single)
    conj = [x.map_coeffs(lambda c: c ** 5, quad) for x in (u, v)]
    split_sum = single + ell_p(wedge(*conj), ring=quad)
    assert quad.embed(value) == split_sum


def test_modulus_compare_examples(F5):
    rng = spawn(2, "mc")
    _, cyc = rand_admissible_graph(F5, rng, seed=1)
    for m in (2, 3, 5):
        assert modulus_compare(cyc, cyc, m)
    # representative normalization: scaling num and den by a common unit
    lam = Trunc(F5, 5, [2, 1, 0, 3])
    scaled = make_cycle(F5, [([c * lam for c in co.num], [c * lam for c in co.den])
                             for co in cyc.coords])
    for m in (2, 5):
        assert modulus_compare(cyc, scaled, m)
    bumped = _bump(cyc, order=2, field=F5)
    assert modulus_compare(cyc, bumped, 2)
    assert not modulus_compare(cyc, bumped, 3)


def _bump(cyc, order, field):
    coords = []
    for i, co in enumerate(cyc.coords):
        num = list(co.num)
        if i == 0:
            c = num[0]
            moved = list(c.coeffs)
            moved[order] = moved[order] + field.one
            num[0] = Trunc(c.ring, c.m, moved)
        coords.append((num, list(co.den)))
    return make_cycle(field, coords)


@pytest.mark.parametrize("p", [5, 7])
def test_depth2_congruent_cycles_share_invariants(p):
    field = Fq(p)
    rng = spawn(3, "t73", p)
    for trial in range(8):
        _, cyc = rand_admissible_graph(field, rng, seed=trial)
        bumped = _bump(cyc, order=2, field=field)
        assert rho_K_cycle(cyc) == rho_K_cycle(bumped)
        assert rho_cycle(cyc) == rho_cycle(bumped)


def _coordinate_graph(rng):
    # (z, g, h) over F_7 with the g, h of test_boundary_of_coordinate_graph and
    # random t-tails: it has a face at the parameter infinity, which no
    # sampled graph cycle has
    field = Fq(7)

    def coeff(c):
        return Trunc(field, 7, [c] + [field.random_element(rng) for _ in range(6)])

    g, h = ([[coeff(c) for c in pair] for pair in pairs]
            for pairs in (((1, 1), (3, 2)), ((3, 1), (2, 4))))
    return make_cycle(field, [([coeff(0), coeff(1)], [coeff(1)]), g, h])


@pytest.mark.parametrize("p", [5, 7])
def test_depth_three_boundary_is_the_deep_boundary_mod_t3(p):
    # ell reads the boundary pairs mod t^3, so rho_cycle lifts its points to
    # depth 3 only: they are the depth-p points cut at t^3, mod-t^2 moves too
    field = Fq(p)
    rng = spawn(23, "depth-three", p)
    samples = []
    for trial in range(6):
        _, cyc = rand_admissible_graph(field, rng, seed=trial)
        samples += [cyc, _bump(cyc, order=2, field=field)]
    if p == 7:
        samples += [_coordinate_graph(rng) for _ in range(3)]
    degrees, faces = set(), set()
    for c in samples:
        deep, shallow = boundary(c), boundary(c, deep=False)
        assert [(pt.kprime, pt.sign, pt.face, pt.where) for pt in shallow] == \
            [(pt.kprime, pt.sign, pt.face, pt.where) for pt in deep]
        assert [pt.pair for pt in shallow] == \
            [tuple(x.reduce_to(3) for x in pt.pair) for pt in deep]
        assert rho_cycle(c) == zero_cycle_value(deep, field, deep=False)
        degrees.update(pt.kprime.degree for pt in deep)
        faces.update(pt.face for pt in deep if pt.where is PARAM_INF)
    # the sampler draws quadratic table points at p = 5 only
    assert degrees == ({1, 2} if p == 5 else {1})
    assert faces == ({(1, "inf")} if p == 7 else set())
    with pytest.raises(ModulusMismatch):
        zero_cycle_value(shallow, field)


def test_boundary_and_regulate_run_no_irreducibility_test(monkeypatch):
    # each closed point they visit was tested where it entered, by the
    # factorization or by its LiftedPoint, so neither tests one again
    calls = []
    real = gf.is_irreducible

    def spy(f):
        calls.append(f)
        return real(f)

    for module in (gf, localfield, regulator):
        monkeypatch.setattr(module, "is_irreducible", spy)
    degrees = set()
    for p in (5, 7):
        rng = spawn(25, "tested-once", p)
        for trial in range(4):
            inp, cyc = rand_admissible_graph(Fq(p), rng, seed=trial)
            before = len(calls)
            for deep in (True, False):
                degrees.update(pt.kprime.degree for pt in boundary(cyc, deep))
                regulator.regulate(inp, lift_seed=trial, deep=deep)
            assert len(calls) == before
    # the spy does see the sampler's tests and its table points' own
    assert calls and degrees == {1, 2}


def test_depth1_perturbations_can_move_the_invariant(F5):
    rng = spawn(4, "t73-control")
    moved = 0
    for trial in range(12):
        _, cyc = rand_admissible_graph(F5, rng, seed=trial + 100)
        bumped = _bump(cyc, order=1, field=F5)
        if not admissibility_check(bumped).ok:
            continue
        if rho_K_cycle(cyc) != rho_K_cycle(bumped):
            moved += 1
    assert moved >= 1


@pytest.mark.parametrize("p", [5, 7])
def test_cross_module_sign(p):
    field = Fq(p)
    rng = spawn(5, "xmod", p)
    for trial in range(6):
        inp, cyc = rand_admissible_graph(field, rng, seed=trial)
        assert rho_K_cycle(cyc) == rho_K(inp, lift_seed=trial)


def test_boundary_matches_regulator_residues(F7):
    # the graph boundary at a finite zero reproduces the residue data the
    # regulator computes at the corresponding table point
    rng = spawn(6, "bd-res")
    inp, cyc = rand_admissible_graph(F7, rng, seed=2)
    from charp_dilog.regulator import regulate
    total, breakdown = regulate(inp, lift_seed=2)
    assert total == rho_K_cycle(cyc)


@pytest.mark.parametrize("which", ["num", "den"])
def test_make_cycle_rejects_an_empty_coordinate(F5, which):
    p = 5
    num, den = const_coord(F5, p, 2)
    empty = ([], den) if which == "num" else (num, [])
    with pytest.raises(ValueError, match="nonempty"):
        make_cycle(F5, [empty, const_coord(F5, p, 3), const_coord(F5, p, 4)])


def test_boundary_factors_each_reduction_once(monkeypatch, F5):
    # one walk over the faces: the check factors the six reductions and builds
    # one residue field per finite face root, and boundary reuses both
    _, cyc = rand_admissible_graph(F5, spawn(7, "one-walk"), seed=0)
    calls = {"factor": 0, "field": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(cycles, "factor_squarefree_irreducibles",
                        counting("factor", cycles.factor_squarefree_irreducibles))
    monkeypatch.setattr(cycles, "residue_field", counting("field", cycles.residue_field))
    pts = boundary(cyc)
    finite = [pt for pt in pts if pt.where is not PARAM_INF]
    assert finite
    assert calls == {"factor": 6, "field": len(finite)}


def test_modulus_suite_finds_each_boundary_once(monkeypatch):
    # run_modulus reads both invariants, and the control, from one boundary
    # per cycle: the sample, its mod-t^2 perturbation and its mod-t one
    seen = []
    found = cycles.boundary

    def counting(cycle):
        seen.append(cycle)
        return found(cycle)

    monkeypatch.setattr(cycles, "boundary", counting)
    result = suites.run_suite("modulus", 5, trials=3, seed=0)
    assert result.ok
    assert len(seen) == 3 * 3 and len({id(c) for c in seen}) == len(seen)


def test_not_admissible_carries_the_check_report(F5):
    # the candidates the sampler draws at p = 5; most fail the check
    rng = spawn(8, "rejected")
    rejected = 0
    for trial in range(30):
        inp = rand_moebius_input(F5, rng, degrees=(1, 1, 1, 1, 2, 2), trivial_units=False)
        cyc = graph_cycle(inp, lift_seed=trial)
        report = admissibility_check(cyc)
        if report.ok:
            continue
        rejected += 1
        with pytest.raises(NotAdmissible) as info:
            boundary(cyc)
        assert info.value.report.failures == report.failures
    assert rejected > 0


def test_modulus_compare_rejects_a_denominator_it_cannot_normalize(F5):
    p = 5
    one = Trunc.one(F5, p)
    den = [one, Trunc(F5, p, [0, 1])]  # leading z-coefficient t is not a unit
    cyc = make_cycle(F5, [([one], den), const_coord(F5, p, 2), const_coord(F5, p, 3)])
    with pytest.raises(NotAdmissible) as info:
        modulus_compare(cyc, cyc, 2)
    [failure] = info.value.report.failures
    assert (failure.code, failure.coordinate) == ("LeadingCoefficientDegenerates", 0)
