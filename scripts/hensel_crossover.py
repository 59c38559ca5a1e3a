#!/usr/bin/env python3
"""Time the two Hensel routes of ``tpoly.newton_root`` against each other.

For F_p and its first quadratic extension, each polynomial degree and each
precision m, draws polynomials P(z) over F_q[t]/(t^m) with a simple root mod t
and lifts each root by the Newton ladder (``tpoly._ladder_root``) and by the
coefficient recurrence (``tpoly._relaxed_root``).  Prints the best time per
root of each route in microseconds and their ratio ladder / recurrence, so a
ratio above 1 means the recurrence is faster; ``tpoly._RELAXED_MAX_M`` is set
from where the ratio falls below 1.  Both routes must return the same root, or
the script exits 1.

Usage: python3 scripts/hensel_crossover.py [--p 41] [--degrees 2,6]
           [--ms 3-40] [--roots 4] [--repeat 5]
"""

import argparse
import time

from charp_dilog import tpoly
from charp_dilog.gf import Fq, horner
from charp_dilog.rng import spawn
from charp_dilog.sampling import quadratic_extension


def rooted_polys(field, degree, m, count, rng):
    """``count`` (raw rows, root, 1/P'(root) mod t) triples: a random P of the
    degree whose root mod t is random and simple."""
    out = []
    while len(out) < count:
        r0 = field.random_element(rng).raw
        rows = [[field.random_element(rng).raw for _ in range(m)] for _ in range(degree + 1)]
        rows[0][0] = field._raw_sub(rows[0][0], horner(field, rows, [r0], 1)[0])
        slope = horner(field, [[field._raw_mul(field._raw_from_int(k), row[0])]
                               for k, row in enumerate(rows)][1:], [r0], 1)[0]
        if not field._raw_is_zero(slope):
            out.append((rows, r0, field._raw_inv(slope)))
    return out


def best_per_root(route, field, cases, m, repeat):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        roots = [route(field, rows, r0, inv, m) for rows, r0, inv in cases]
        best = min(best, (time.perf_counter() - start) / len(cases))
    return best, roots


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--p", type=int, default=41)
    parser.add_argument("--degrees", default="2,6")
    parser.add_argument("--ms", default="3-40", help="a range lo-hi of precisions, each <= p")
    parser.add_argument("--roots", type=int, default=4)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    lo, hi = map(int, args.ms.split("-"))
    if not 2 <= lo <= hi <= args.p:
        parser.error(f"--ms needs 2 <= lo <= hi <= p, not {args.ms}")
    base = Fq(args.p)
    fields = [("F_p", base), ("F_p^2", quadratic_extension(base))]
    print(f"p = {args.p}, m0 = {tpoly._RELAXED_MAX_M}: microseconds per root, ladder / recurrence")
    print("field  degree   m    ladder  recurrence  ratio")
    for name, field in fields:
        for degree in map(int, args.degrees.split(",")):
            for m in range(lo, hi + 1):
                cases = rooted_polys(field, degree, m, args.roots,
                                     spawn(0, "hensel-crossover", name, degree, m))
                ladder, want = best_per_root(tpoly._ladder_root, field, cases, m, args.repeat)
                relaxed, got = best_per_root(tpoly._relaxed_root, field, cases, m, args.repeat)
                if got != want:
                    print(f"{name} degree {degree} m = {m}: the two routes disagree")
                    return 1
                print(f"{name:6} {degree:6} {m:3} {ladder * 1e6:9.1f} {relaxed * 1e6:11.1f}"
                      f"  x{ladder / relaxed:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
