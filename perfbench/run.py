"""Benchmark of charp_dilog's exact identity checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One process, one thread, closed loop: each op
draws its inputs (untimed) and runs one identity check (timed).  The loop
stops at the first op after the summed op time reaches S seconds and the
workload's ``min_ops`` ops have run (see ``workloads.py`` for the per-workload
run shape).  Set-up (a fresh import of ``charp_dilog`` from ``src/``, fields,
rings and anchors) is repeated SETUP_REPEATS times and its median reported.

Times are scaled to one reference machine speed: the fixed kernel of
``calibrate.py`` runs after every op (and around every set-up), and each op
time is multiplied by ``REFERENCE_S`` over the mean kernel time just before
and after it.  The unscaled figures are in the context line.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.  With
``--trace 1`` ops 0 to TRACE_OPS-1 run once untraced as the reference, then
the boundary wrappers of ``spans.py`` are installed and the same ops run
again; the last line carries the per-layer metrics of the traced ops
(unscaled), and the traced over untraced op time is the tracing overhead.  A
traced run always runs TRACE_OPS ops, whatever ``--seconds`` says, so its
counts repeat exactly for a seed.  The line before the last holds the run's
context: versions, revision, sample count, output digest, tracing overhead
and every failed op with its ``rng.spawn`` label path, from which it
replays in isolation.

A failed op is a wrong identity or a raised exception.  The values of the
first DIGEST_OPS ops are hashed in op order; for the default seed the digest
must equal the one in ``digests.json``, and a traced run's digest must equal
its untraced reference, or one more op counts as failed.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LIB_MODULES = ("gf", "tpoly", "localfield", "wedge", "bloch", "omega", "regulator",
               "cycles", "sampling", "rng")

DIGEST_OPS = 16
TRACE_OPS = 32
SETUP_REPEATS = 9
MAX_LOOP_S = 120.0       # a much slower program still ends within the time limit
DEFAULT_SEED = 0

sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_S, kernel_s  # noqa: E402
from spans import PACKAGE, Tracer, TraceError  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here: the checkout has no charp_dilog sources."""


def load_library() -> SimpleNamespace:
    """Import charp_dilog afresh from the checkout's ``src/``."""
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise BenchError(f"{PACKAGE} was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in LIB_MODULES})


def set_up(workload):
    """Scaled and raw median set-up times over SETUP_REPEATS fresh imports, and
    the last context."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise BenchError(f"no {PACKAGE} sources under {SRC}")
    # byte-compile first, so each import reads the same cached bytecode
    compileall.compile_dir(str(SRC / PACKAGE), quiet=1)
    raw, scaled = [], []
    kernel_before = kernel_s()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        ctx = workload.setup(load_library())
        t = perf_counter() - t0
        kernel_after = kernel_s()
        raw.append(t)
        scaled.append(t * REFERENCE_S / ((kernel_before + kernel_after) / 2))
        kernel_before = kernel_after
    return statistics.median(scaled), statistics.median(raw), ctx


def canonical(value):
    """A representation of a result value that is equal exactly when the values are."""
    kind = type(value).__name__
    if kind == "FqElem":
        return value.raw
    if kind == "RatFn":
        r = value.reduced()
        return (r.num.coeffs, r.den.coeffs)
    if isinstance(value, (bool, int)):
        return value
    raise TypeError(f"no canonical form for {kind}")


def run_loop(workload, ctx, seed: int, seconds: float, min_ops: int, repeats: int = 1,
             block: int = 1, tracer=None):
    """Run ops 0, 1, ... until the summed op time reaches ``seconds``, at least
    ``min_ops`` ops ran and the number of ops is a multiple of ``block``.  Each
    op runs ``repeats`` times on its inputs and keeps its fastest time.
    Returns raw and scaled op durations, kernel times, generator time, failed
    ops and the digest of the first DIGEST_OPS results."""
    durations: list[float] = []
    scaled: list[float] = []
    kernels = [kernel_s()]
    failures: list[dict] = []
    digest = hashlib.sha256()
    gen_s = 0.0
    timed = 0.0
    i = 0
    loop_start = perf_counter()
    while ((timed < seconds or i < min_ops or i % block)
           and perf_counter() - loop_start < MAX_LOOP_S):
        label = [seed, workload.name, i]
        t0 = perf_counter()
        try:
            inp = workload.gen(ctx, seed, i)
        except Exception:
            failures.append({"spawn": label, "stage": "gen", "error": traceback.format_exc()})
            i += 1
            continue
        gen_s += perf_counter() - t0
        raw, fastest = [], []
        for _ in range(repeats):
            if tracer is not None:
                tracer.op = i
                tracer.on = True
            t1 = perf_counter()
            try:
                ok, values = workload.op(ctx, inp)
                error = None if ok else "identity failed"
            except Exception:
                ok, values, error = False, None, traceback.format_exc()
            finally:
                t2 = perf_counter()
                if tracer is not None:
                    tracer.on = False
            kernels.append(kernel_s())
            raw.append(t2 - t1)
            fastest.append((t2 - t1) * REFERENCE_S / ((kernels[-2] + kernels[-1]) / 2))
            if error is not None:
                failures.append({"spawn": label, "stage": "op", "error": error})
                break
        durations.append(min(raw))
        scaled.append(min(fastest))
        timed += sum(raw)
        if i < DIGEST_OPS:
            canon = None if values is None else [canonical(v) for v in values]
            digest.update(repr((i, canon)).encode())
        i += 1
    return SimpleNamespace(attempted=i, durations=durations, scaled=scaled, kernels=kernels,
                           gen_s=gen_s, failures=failures,
                           digest=digest.hexdigest() if i >= DIGEST_OPS else None)


def recorded_digest(workload: str):
    with open(HERE / "digests.json") as fh:
        return json.load(fh)[str(DEFAULT_SEED)][workload]


def git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def ops_per_s(durations) -> float:
    return len(durations) / sum(durations)


def latency_metrics(durations) -> dict:
    ms = [d * 1000.0 for d in durations]
    return {"ops_per_s": (ops_per_s(durations), "1/s"),
            "op_ms_p50": (statistics.median(ms), "ms"),
            "op_ms_p90": (statistics.quantiles(ms, n=10)[-1], "ms")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    try:
        setup_s, setup_raw_s, ctx = set_up(workload)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    context = {"workload": workload.name, "p": workload.p, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
               "git_revision": git_revision(), "setup_repeats": SETUP_REPEATS,
               "reference_kernel_s": REFERENCE_S}
    digests = []
    if args.trace:
        ref = run_loop(workload, ctx, args.seed, 0, TRACE_OPS)
        tracer = Tracer()
        try:
            tracer.install()
        except TraceError as exc:
            print(f"perfbench: tracing could not be installed: {exc}", file=sys.stderr)
            return 3
        run = run_loop(workload, ctx, args.seed, 0, TRACE_OPS, tracer=tracer)
        digests.append(("untraced reference", ref.digest))
        overhead = ops_per_s(ref.scaled) / ops_per_s(run.scaled)
        context["trace_overhead"] = overhead
        run.failures += ref.failures
    else:
        run = run_loop(workload, ctx, args.seed, args.seconds, workload.min_ops,
                       workload.repeats, workload.block)
    if args.seed == DEFAULT_SEED:
        digests.append(("recorded", recorded_digest(workload.name)))
    failed_ops = len({tuple(f["spawn"]) for f in run.failures})
    mismatches = [name for name, d in digests if d != run.digest]
    failed = failed_ops + len(mismatches)
    for f in run.failures:
        print(f"perfbench: failed op {f['spawn']} ({f['stage']}): {f['error']}", file=sys.stderr)
    for name in mismatches:
        print(f"perfbench: digest {run.digest} differs from the {name} digest", file=sys.stderr)

    context.update({"attempted": run.attempted, "samples": len(run.durations),
                    "failed": failed, "fail_ratio": failed / run.attempted,
                    "digest": run.digest, "digest_ops": DIGEST_OPS,
                    "digest_mismatches": mismatches, "failures": run.failures,
                    "kernel_s_median": statistics.median(run.kernels)})

    if args.trace:
        missing = tracer.missing_calls(workload.name)
        if missing:
            print(f"perfbench: boundaries with no calls on {workload.name}: "
                  f"{', '.join(missing)} (a wrapper missed a binding)", file=sys.stderr)
            return 3
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in tracer.layer_metrics().items()}
        metrics["sampling.gen_s"] = {"value": run.gen_s, "unit": "s"}
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = latency_metrics(run.scaled)
        values["setup_s"] = (setup_s, "s")
        values["peak_rss_mb"] = (peak_kib / 1024.0, "MB")
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
        context["unscaled"] = {name: v for name, (v, _) in latency_metrics(run.durations).items()}
        context["unscaled"]["setup_s"] = setup_raw_s
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
