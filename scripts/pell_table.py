#!/usr/bin/env python3
"""Fundamental solutions of t^2 - D*u^2 = 1 for nonsquare D.

Usage: python scripts/pell_table.py [--max D] [--verify]

The notorious spikes (D = 61, 109, 181, ...) fall out of the same orbit
machinery as everything else; --verify re-checks each row against the
classical convergent recurrence.
"""

import argparse
import math
import sys

from quadform import pell_fundamental


def convergent_check(d, t, u):
    a0 = math.isqrt(d)
    p_prev, p_cur, q_prev, q_cur = 1, a0, 0, 1
    pp, qq, a = 0, 1, a0
    while p_cur * p_cur - d * q_cur * q_cur != 1:
        pp = a * qq - pp
        qq = (d - pp * pp) // qq
        a = (a0 + pp) // qq
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    return (p_cur, q_cur) == (t, u)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max", type=int, default=99, help="largest D (default 99)")
    ap.add_argument("--verify", action="store_true",
                    help="cross-check against the convergent recurrence")
    args = ap.parse_args()

    print(f"{'D':>5}  {'t':>24}  {'u':>24}")
    for d in range(2, args.max + 1):
        if math.isqrt(d) ** 2 == d:
            continue
        t, u = pell_fundamental(d)
        if t * t - d * u * u != 1:
            sys.exit(f"D={d}: t={t} u={u} does not solve t^2 - D*u^2 = 1")
        if args.verify and not convergent_check(d, t, u):
            sys.exit(f"D={d}: t={t} u={u} differs from the convergent recurrence")
        print(f"{d:>5}  {t:>24}  {u:>24}")


if __name__ == "__main__":
    main()
