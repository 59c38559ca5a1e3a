#!/usr/bin/env python3
"""Sweep the deep regulator against its closed form on the projective line.

For each sampled configuration over k[t]/(t^2), prints alpha | beta | gamma,
the regulator value rho_K from traced residues of a seeded lift, and
Theorem 1's closed form ``theorem1_closed_form`` (li2p of the cross-ratio);
the two columns must agree identically.  The last line counts the trials
that agree.

Usage: python3 scripts/theorem1_table.py [--p 5] [--trials 12] [--seed 0]
"""

import argparse

from charp_dilog.gf import Fq
from charp_dilog.regulator import linear_input, rho_K, theorem1_closed_form
from charp_dilog.rng import spawn
from charp_dilog.sampling import rand_theorem1_triple


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--p", type=int, default=5)
    parser.add_argument("--trials", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    field = Fq(args.p)
    print(f"p = {args.p}:  alpha | beta | gamma  ->  regulator  closed-form")
    mismatches = 0
    for trial in range(args.trials):
        rng = spawn(args.seed, "theorem1-table", trial)
        alpha, beta, gamma = rand_theorem1_triple(field, rng)
        value = rho_K(linear_input(field, alpha, beta, gamma), lift_seed=trial)
        expected = theorem1_closed_form(alpha, beta, gamma)
        mark = "" if value == expected else "   <-- MISMATCH"
        mismatches += value != expected
        print(f"  {alpha!r} | {beta!r} | {gamma!r}  ->  {value}  {expected}{mark}")
    print(f"{args.trials - mismatches}/{args.trials} agree")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
