#!/usr/bin/env python3
"""Worked examples: solve a*x^2 + 2b*x*y + c*y^2 = m end to end.

Usage: python scripts/solve_demo.py [--bound B]
"""

import argparse
import sys

from quadform import Form, enumerate_solutions, solve_proper

CASES = [
    (Form(1, 0, -2), 7),      # x^2 - 2y^2 = 7
    (Form(1, 0, -2), -1),     # x^2 - 2y^2 = -1
    (Form(1, 0, -2), 3),      # x^2 - 2y^2 = 3 (no solutions)
    (Form(1, 0, -13), 3),     # x^2 - 13y^2 = 3
    (Form(-2, 3, 2), 2),      # -2x^2 + 6xy + 2y^2 = 2
    (Form(1, 0, -61), 4),     # x^2 - 61y^2 = 4
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bound", type=int, default=1000,
                    help="report solutions with max(|x|,|y|) <= bound")
    args = ap.parse_args()

    for f, m in CASES:
        print(f"\n=== {f.a}*x^2 + {2 * f.b}*x*y + {f.c}*y^2 = {m}   (disc {f.disc})")
        report = solve_proper(f, m)
        if not report.classes:
            print("  no proper representations")
            continue
        for cls in report.classes:
            sols = enumerate_solutions(cls, args.bound)
            print(f"  class n={cls.n}: base {cls.base_solution}, "
                  f"automorph {cls.automorph}")
            print(f"    {len(sols)} solutions up to {args.bound}: "
                  + " ".join(str(s) for s in sols[:8])
                  + (" ..." if len(sols) > 8 else ""))
            wrong = [s for s in sols if f(*s) != m]
            if wrong:
                sys.exit(f"{f} at {wrong[0]} is {f(*wrong[0])}, not {m}")


if __name__ == "__main__":
    main()
