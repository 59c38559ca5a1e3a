"""The one record law (``gf.Record``) against the dataclass each record stood for.

Every record of the package names its fields in ``__slots__``, and
``tests/oracles.record_oracle`` builds from them the dataclass that the record
replaced.  On sample values the record and its oracle agree on ``==`` and the
hash (within one class, by the field tuple), on the repr, character for
character, and on assignment: a frozen record refuses it with the dataclass's
message, a mutable one takes it and hashes nothing.  A record with a display
form of its own keeps it.  Three records validate what they are built from.
"""

import pytest

from charp_dilog import bloch, cycles, localfield, regulator, suites, tpoly, wedge
from charp_dilog.gf import Fq, MutableRecord, Record
from charp_dilog.rng import spawn
from charp_dilog.sampling import rand_admissible_graph
from charp_dilog.tpoly import Trunc

from oracles import record_oracle

F5 = Fq(5)
ONE = Trunc.one(F5, 2)


def _t(*coeffs):
    return Trunc(F5, 2, list(coeffs))


def _point(c):
    return regulator.finite_point(F5, [_t(c, 1), ONE])


def _input(unit, c):
    pts = (_point(0), _point(1), _point(c), regulator.LiftedPoint(None))
    return (F5, pts, *(regulator.GoodFunction(unit, ((i, 1),)) for i in range(3)))


def _coordinate(c):
    return cycles.Coordinate((_t(c, 1), ONE), (ONE,))


# two field tuples per record, built afresh on each call, that differ in every
# field but a RegulatorInput's, whose second field is an equal copy of the first
SAMPLES = {
    bloch.BlochSym: lambda: [(((1, _t(2, 1)),),), (((1, _t(3, 4)), (-1, _t(2, 0))),)],
    localfield.OneForm: lambda: [(localfield.RatFn.gen(F5),), (localfield.RatFn.gen(F5) ** 2,)],
    regulator.LiftedPoint: lambda: [((_t(0, 1), ONE),), (None,)],
    regulator.GoodFunction: lambda: [(ONE, ((0, 1),)), (_t(2, 1), ((1, -1), (0, 2)))],
    regulator.RegulatorInput: lambda: [_input(ONE, 2), (Fq(5),) + _input(_t(2, 1), 3)[1:]],
    regulator._Lift: lambda: [([ONE], [ONE, ONE]), ([], [_t(0, 1)])],
    suites.SuiteResult: lambda: [("five-term", 5, 3, 0, 0, [], []), ("modulus", 7, 2, 1, 0, [], [])],
    tpoly.UnitDecomp: lambda: [(F5, 2, F5(1), (F5(0),)), (Fq(7), 3, F5(2), (F5(1), F5(3)))],
    wedge.WedgeK: lambda: [(((1, (_t(2, 1), _t(3, 1))),),), ((),)],
    wedge.GoodElem: lambda: [(1, _t(2, 1)), (-2, _t(3, 0))],
    cycles.Coordinate: lambda: [((ONE,), (_t(2, 1),)), ((_t(2, 1), ONE), (ONE, ONE))],
    cycles.ParamCycle: lambda: [(F5, tuple(map(_coordinate, (0, 1, 2)))),
                                (Fq(7), tuple(map(_coordinate, (3, 4, 1))))],
    cycles.Failure: lambda: [("BasePoint", 0, "share a root"), ("NonSimpleRoot", 2, "multiplicity 2")],
    cycles.AdmissibilityReport: lambda: [([cycles.Failure("BasePoint", 0, "x")], []), ([], [(0, "0")])],
    cycles.BoundaryPoint: lambda: [(F5, (ONE, _t(2, 1)), 1, (1, "0"), "z=inf"),
                                   (Fq(7), (_t(3, 1), ONE), -1, (2, "inf"), "pi")],
}
MUTABLE = {regulator._Lift, suites.SuiteResult, cycles.AdmissibilityReport}
# the records that show themselves in a form of their own, not Name(field=...)
DISPLAYED = {bloch.BlochSym, localfield.OneForm, regulator.LiftedPoint, wedge.WedgeK}
RECORDS = sorted(SAMPLES, key=lambda cls: f"{cls.__module__}.{cls.__name__}")


def _build(cls, values):
    """The record of a field tuple: a SuiteResult is built from its name, p,
    trials and seed, and starts with no checks and two fresh lists."""
    if cls is suites.SuiteResult:
        assert values[4:] == (0, [], [])
        return cls(*values[:4])
    return cls(*values)


def _mixes(cls):
    """The first sample, and the first sample with one field taken from the second,
    each beside an equal copy of the first built from fresh objects and whether the
    two field tuples are equal; a SuiteResult keeps its own checks and lists."""
    first, second = SAMPLES[cls]()
    again = SAMPLES[cls]()[0]
    mixes = [first[:i] + (second[i],) + first[i + 1:] for i in range(len(cls.__slots__))]
    if cls is suites.SuiteResult:
        mixes = mixes[:4]
    return [(values, again, values == again) for values in [first, *mixes]]


def test_every_record_has_samples():
    found = {cls for module in (bloch, cycles, localfield, regulator, suites, tpoly, wedge)
             for cls in vars(module).values()
             if isinstance(cls, type) and issubclass(cls, Record) and cls.__module__ == module.__name__}
    assert found == set(SAMPLES) and len(found) == 15
    assert {cls for cls in found if issubclass(cls, MutableRecord)} == MUTABLE


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equality_and_hash_match_the_dataclass(cls):
    oracle = record_oracle(cls)
    for values, other, same in _mixes(cls):
        rec, rec2 = _build(cls, values), _build(cls, other)
        want, want2 = oracle(*values), oracle(*other)
        assert (rec == rec2) is (want == want2) is same
        assert (rec != rec2) is (want != want2) is (not same)
        assert rec == _build(cls, values)
        if cls in MUTABLE:
            # unhashable as a record, not only through the lists it holds
            for name in cls.__slots__:
                if isinstance(getattr(rec, name), list):
                    setattr(rec, name, tuple(getattr(rec, name)))
                    setattr(want, name, tuple(getattr(want, name)))
            with pytest.raises(TypeError):
                hash(want)
            with pytest.raises(TypeError):
                hash(rec)
        else:
            assert hash(rec) == hash(want) == hash(tuple(values))
            assert (hash(rec) == hash(rec2)) is (hash(want) == hash(want2))
    rec = _build(cls, SAMPLES[cls]()[0])
    # another class, the oracle's instance and the bare field tuple are never equal
    strangers = [record_oracle(cls)(*SAMPLES[cls]()[0]), SAMPLES[cls]()[0], None, 0]
    strangers += [_build(other, SAMPLES[other]()[0]) for other in RECORDS if other is not cls]
    for stranger in strangers:
        assert rec != stranger and not rec == stranger and stranger != rec


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_repr_matches_the_dataclass(cls):
    for values in SAMPLES[cls]():
        rec = _build(cls, values)
        if cls in DISPLAYED:
            assert repr(rec) == vars(cls)["__repr__"](rec)
        else:
            assert repr(rec) == repr(record_oracle(cls)(*values))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_assignment_matches_the_dataclass(cls):
    values, new = SAMPLES[cls]()
    rec, want = _build(cls, values), record_oracle(cls)(*values)
    for name, value in zip(cls.__slots__, new):
        if cls in MUTABLE:
            setattr(rec, name, value)
            setattr(want, name, value)
            assert getattr(rec, name) is value
            continue
        for act in (lambda x: setattr(x, name, value), lambda x: delattr(x, name)):
            with pytest.raises(AttributeError) as got:
                act(rec)
            with pytest.raises(AttributeError) as expected:
                act(want)
            assert str(got.value) == str(expected.value)
    fields = tuple(getattr(want, name) for name in cls.__slots__)
    assert rec == _build(cls, fields) if cls is not suites.SuiteResult else rec._values() == fields


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_takes_exactly_its_fields(cls):
    values = SAMPLES[cls]()[0]
    if cls is suites.SuiteResult:
        values = values[:4]
    for wrong in (values[:-1], values + (None,)):
        with pytest.raises(TypeError):
            cls(*wrong)


def test_mutable_records_get_fresh_lists():
    a, b = (suites.SuiteResult("five-term", 5, 1, 0) for _ in range(2))
    a.record(False, "first")
    a.notes.append("a note")
    assert (a.checks, b.checks) == (1, 0) and b.failures == [] and b.notes == []
    assert a.failures is not b.failures and a.notes is not b.notes
    _, cyc = rand_admissible_graph(F5, spawn(39, "records"), seed=0)
    r1, r2 = cycles.admissibility_check(cyc), cycles.admissibility_check(cyc)
    assert r1.faces == r2.faces and r1.faces is not r2.faces and r1.failures is not r2.failures
    assert r1 == r2 and r1.ok


def test_validating_records_refuse_bad_fields():
    with pytest.raises(bloch.NotFlat):
        bloch.BlochSym(((1, _t(2, 1)), (1, _t(1, 3))))
    # z^2 + 1 has the roots 2 and 3 over F_5
    with pytest.raises(ValueError, match="point reduction must be irreducible"):
        regulator.LiftedPoint((ONE, _t(0, 1), ONE))
    field, pts, f, g, h = _input(ONE, 2)
    with pytest.raises(ValueError, match="table points must have distinct reductions"):
        regulator.RegulatorInput(field, (pts[0], _point(1), _point(1)), f, g, h)
    assert regulator.RegulatorInput(field, pts, f, g, h) == regulator.RegulatorInput(*_input(ONE, 2))
