"""The report of scripts/ab_pairs.py, on canned benchmark output (no run)."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "scripts" / "ab_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stdout(ops, p90, failed=0):
    # what perfbench/run.py prints: a context line, then the result line
    context = json.dumps({"context": {"workload": "theorem1", "seed": 0}})
    result = json.dumps({"correct": failed == 0, "attempted": 100, "failed": failed,
                         "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                                     "op_ms_p90": {"value": p90, "unit": "ms"}}})
    return f"{context}\n{result}\n"


def test_report_gives_medians_ratio_and_pair_wins():
    ab = _load_ab_pairs()
    results = {"parent": [ab.parse_result(_stdout(ops, p90))
                          for ops, p90 in ((280.0, 8.0), (290.0, 7.5), (300.0, 9.0))],
               "change": [ab.parse_result(_stdout(ops, p90))
                          for ops, p90 in ((336.0, 7.0), (280.0, 7.9), (348.0, 9.5))]}
    lines = ab.report([("theorem1", 0, results)],
                      [("ops_per_s", "higher"), ("op_ms_p90", "lower")])
    assert lines[0] == "theorem1 seed=0: 3 pairs, failed ops 0 -> 0"
    ops, p90 = lines[1], lines[2]
    assert "280/290/300 -> 336/280/348" in ops
    assert "median 290 -> 336 x1.159, parent IQR 20" in ops and "change better in 2/3" in ops
    assert "median 8 -> 7.9 x0.988" in p90 and "change better in 1/3" in p90


def test_report_counts_failed_ops_and_rejects_empty_output():
    ab = _load_ab_pairs()
    results = {"parent": [ab.parse_result(_stdout(10.0, 1.0))],
               "change": [ab.parse_result(_stdout(12.0, 1.0, failed=2))]}
    lines = ab.report([("exactness", 17, results)], [("op_ms_p90", "lower")])
    assert lines[0] == "exactness seed=17: 1 pairs, failed ops 0 -> 2"
    assert "parent IQR 0 " in lines[1] and "change better in 0/1" in lines[1]
    assert lines[2] == "  FAILED MORE: share of failed ops 0 -> 0.02"
    with pytest.raises(ValueError):
        ab.parse_result("\n")


def _run(ops, rss):
    return {"attempted": 100, "failed": 0,
            "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_report_marks_a_metric_worse_than_its_bound():
    # a change 27% faster whose peak RSS grew x1.16 against a bound of 0.1
    ab = _load_ab_pairs()
    metrics = [("ops_per_s", "higher", 0.2), ("peak_rss_mb", "lower", 0.1)]
    results = {"parent": [_run(290.3, 25.69)] * 3, "change": [_run(368.7, 29.86)] * 3}
    lines = ab.report([("exactness", 0, results)], metrics)
    assert "BOUND BREACH" not in lines[1]
    assert "x1.162" in lines[2] and lines[2].endswith("BOUND BREACH: worse by more than 0.1")
    # within both bounds; then a rate that fell past its bound
    results["change"] = [_run(240.0, 28.2)] * 3
    assert not any("BOUND BREACH" in line for line in ab.report([("exactness", 0, results)], metrics))
    results["change"] = [_run(230.0, 25.0)] * 3
    lines = ab.report([("exactness", 0, results)], metrics)
    assert lines[1].endswith("BOUND BREACH: worse by more than 0.2") and "BOUND" not in lines[2]


def test_report_marks_a_gain_by_the_pair_rule():
    # GAIN needs ten or more pairs, the change better in nine tenths of them
    # (ties count for neither side) and the medians apart by more than the
    # parent IQR, in the better direction
    ab = _load_ab_pairs()
    metrics = [("ops_per_s", "higher", 0.2), ("peak_rss_mb", "lower", 0.1)]
    parent = [68.0, 69.0, 70.0, 69.5, 68.5, 69.0, 70.5, 68.0, 69.0, 69.5]  # IQR 1.25
    faster = [75.0, 74.0, 76.0, 74.5, 75.5, 74.0, 76.5, 75.0, 74.0, 68.0]

    def line(change, rss=(25.0, 25.0)):
        results = {"parent": [_run(v, rss[0]) for v in parent],
                   "change": [_run(v, rss[1]) for v in change]}
        return ab.report([("residue-pairing", 0, results)], metrics)[1:]

    ops, rss = line(faster)
    assert "change better in 9/10)  GAIN" in ops and ops.endswith("GAIN")
    assert "better in 0/10" in rss and "GAIN" not in rss  # ties win nothing
    # 8/10 wins: no gain, whatever the medians
    assert "GAIN" not in line(faster[:8] + [60.0, 60.0])[0]
    # 10/10 wins by less than the parent IQR: no gain
    assert "GAIN" not in line([v + 0.5 for v in parent])[0]
    # a lower-is-better metric gains when it falls; nine pairs are too few
    ops, rss = line(faster, rss=(25.0, 22.0))
    assert rss.endswith("GAIN")
    assert ab.gains(9, 9, 69.0, 75.0, "higher", 1.0) is False
    assert ab.gains(9, 10, 69.0, 75.0, "higher", 1.0) is True
    assert ab.gains(10, 10, 75.0, 69.0, "lower", 1.0) is True
    assert ab.gains(10, 10, 69.0, 75.0, "lower", 1.0) is False


def test_report_marks_a_metric_the_spread_leaves_unresolved():
    # the parent IQR (4.0 against a median of 20.0) is wider than a 0.1
    # bound: unresolved, unless every change run beats every parent run
    ab = _load_ab_pairs()
    metrics = [("ops_per_s", "higher", 0.1), ("peak_rss_mb", "lower", 0.1)]
    parent = [_run(v, 25.0) for v in (16.0, 18.0, 20.0, 22.0, 24.0)]

    def lines(ops, rss=25.0):
        results = {"parent": parent, "change": [_run(v, rss) for v in ops]}
        return ab.report([("theorem1", 0, results)], metrics)[1:]

    ops, rss = lines([17.0, 19.0, 21.0, 23.0, 25.0])
    assert "parent IQR 6" in ops
    assert ops.endswith("UNRESOLVED: parent IQR wider than 0.1 of its median")
    assert "UNRESOLVED" not in rss  # no spread
    # every change run above the best parent run: resolved, here a gain in
    # direction only (five pairs are too few for GAIN)
    ops, _ = lines([24.5, 25.0, 26.0, 27.0, 30.0])
    assert "UNRESOLVED" not in ops and "GAIN" not in ops
    # a tie with the best parent run is not better
    assert lines([24.0, 25.0, 26.0, 27.0, 30.0])[0].endswith("of its median")
    # a lower-is-better metric: every change run below the lowest parent run
    assert ab.unresolved([16.0, 18.0, 20.0, 22.0, 24.0], [15.0] * 5, "lower", 4.0, 0.1) is False
    assert ab.unresolved([16.0, 18.0, 20.0, 22.0, 24.0], [15.0, 16.0], "lower", 4.0, 0.1) is True
    # an IQR within the bound is resolved whatever the runs
    assert ab.unresolved([19.0, 20.0, 21.0], [10.0] * 3, "higher", 2.0, 0.1) is False


def test_report_marks_a_larger_share_of_failed_ops():
    # the share is failed over attempted ops, summed over a side's runs: more
    # failed ops out of more attempted ones is not a larger share
    ab = _load_ab_pairs()

    def lines(parent, change):
        results = {side: [dict(_run(10.0, 25.0), attempted=a, failed=f) for a, f in runs]
                   for side, runs in (("parent", parent), ("change", change))}
        return ab.report([("cycle-modulus", 0, results)], [("ops_per_s", "higher", 0.2)])

    assert len(lines([(100, 0)] * 3, [(100, 0)] * 3)) == 2
    assert lines([(100, 1)], [(300, 2)])[0].endswith("failed ops 1 -> 2")
    assert len(lines([(100, 1)], [(300, 2)])) == 2
    assert lines([(100, 1), (100, 0)], [(100, 1), (50, 0)])[-1] == \
        "  FAILED MORE: share of failed ops 0.005 -> 0.00667"
