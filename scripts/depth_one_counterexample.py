#!/usr/bin/env python3
"""Show why matching liftings modulo t alone is not enough.

Prints the three displayed quantities for the pair
q' = (s - t) ^ (1 + s^(p-1)) ^ (1 + s)   and   q = s ^ (1 + s^(p-1)) ^ (1 + s),
as ``suites.depth_one_counterexample`` computes them for the residue-formula
suite: the deep functional of the residue jumps by 1 while the residue of the
comparison-form difference stays 0, so no correction term can bridge a
depth-one mismatch.  Run with --p 5 or --p 7.
"""

import argparse

from charp_dilog.suites import depth_one_counterexample


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--p", type=int, default=5)
    args = parser.parse_args()
    v_moved, v_plain, res_form = depth_one_counterexample(args.p)

    print(f"p = {args.p}")
    print(f"  deep value at the moved uniformizer : {v_moved}")
    print(f"  deep value at the plain uniformizer : {v_plain}")
    print(f"  residue of the form difference      : {res_form}")
    print(f"  gap left uncorrected                : {v_moved - v_plain}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
