#!/usr/bin/env python3
"""Reparametrization-exactness sweep with timing.

At p = 5 it runs the full (a, b, c, w) sweep (every admissible tuple with
0 < q < p) with --draws random rational draws per tuple; at any other prime
it checks --draws random (tuple, draw) samples.  It prints the check count
and the total wall time.

Usage: python3 scripts/exactness_sweep.py [--p 5] [--draws 20] [--seed 0]
"""

import argparse
import time

from charp_dilog.suites import run_exactness


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--p", type=int, default=5)
    parser.add_argument("--draws", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    t0 = time.time()
    result = run_exactness(args.p, trials=args.draws, seed=args.seed)
    elapsed = time.time() - t0
    status = "pass" if result.ok else "FAIL"
    print(f"p = {args.p}: {result.checks} checks in {elapsed:.1f}s: {status}")
    for note in result.notes:
        print(f"  note: {note}")
    for failure in result.failures:
        print(f"  counterexample: {failure}")
    return 0 if result.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
