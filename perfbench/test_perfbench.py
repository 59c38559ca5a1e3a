"""Tests of the benchmark itself: seeded inputs, digests, clean and traced runs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
from spans import Tracer
from workloads import WORKLOADS


def _setup(name):
    workload = WORKLOADS[name]
    return workload, workload.setup(run.load_library())


def _inputs(name, seed, n=4):
    workload, ctx = _setup(name)
    return [repr(workload.gen(ctx, seed, i)) for i in range(n)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_inputs(name):
    assert _inputs(name, 0) == _inputs(name, 0)
    assert _inputs(name, 0) != _inputs(name, 1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_minimal_run_is_clean_and_reproducible(name):
    workload, ctx = _setup(name)
    first = run.run_loop(workload, ctx, run.DEFAULT_SEED, 0, run.DIGEST_OPS)
    assert first.failures == []
    assert first.attempted == run.DIGEST_OPS
    assert first.digest == run.recorded_digest(name)
    again = run.run_loop(workload, ctx, run.DEFAULT_SEED, 0, run.DIGEST_OPS)
    assert again.digest == first.digest


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_matches_and_reaches_every_boundary(name):
    workload, ctx = _setup(name)
    tracer = Tracer()
    tracer.install()
    traced = run.run_loop(workload, ctx, run.DEFAULT_SEED, 0, run.DIGEST_OPS, tracer=tracer)
    assert traced.failures == []
    assert traced.digest == run.recorded_digest(name)
    assert tracer.missing_calls(name) == []


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    end_to_end = set(run.latency_metrics([0.001, 0.002])) | {"setup_s", "peak_rss_mb"}
    assert {m["name"] for m in spec["end_to_end"]} == end_to_end
    per_layer = set(Tracer().layer_metrics()) | {"sampling.gen_s",
                                                            "trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "theorem1",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
