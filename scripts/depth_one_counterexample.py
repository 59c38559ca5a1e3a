#!/usr/bin/env python3
"""Show why matching liftings modulo t alone is not enough.

Computes the three displayed quantities for the pair
q' = (s - t) ^ (1 + s^(p-1)) ^ (1 + s)   and   q = s ^ (1 + s^(p-1)) ^ (1 + s):
the deep functional of the residue jumps by 1 while the residue of the
comparison-form difference stays 0, so no correction term can bridge a
depth-one mismatch.  Run with --p 5 or --p 7.
"""

import argparse

from charp_dilog.gf import Fq
from charp_dilog.localfield import RatFnRing
from charp_dilog.omega import res_omega_difference
from charp_dilog.tpoly import Trunc
from charp_dilog.wedge import ell_p, res_local, wedge


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--p", type=int, default=5)
    args = parser.parse_args()
    p = args.p

    field = Fq(p)
    ring = RatFnRing(field)
    s = ring.gen
    one = ring.one
    moved = Trunc(ring, p, [s, -one])
    plain = Trunc.constant(ring, p, s)
    a = Trunc.constant(ring, p, one + s ** (p - 1))
    b = Trunc.constant(ring, p, one + s)

    v_moved = ell_p(res_local([moved, a, b], moved), ring=field)
    v_plain = ell_p(res_local([plain, a, b], plain), ring=field)
    res_form = res_omega_difference(wedge(moved, a, b), wedge(plain, a, b), ring)

    print(f"p = {p}")
    print(f"  deep value at the moved uniformizer : {v_moved}")
    print(f"  deep value at the plain uniformizer : {v_plain}")
    print(f"  residue of the form difference      : {res_form}")
    print(f"  gap left uncorrected                : {v_moved - v_plain}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
