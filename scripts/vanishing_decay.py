#!/usr/bin/env python3
"""Sweep the approach distance for the odd-function composition sum on the
unit-product locus and print its decay.

The sum is evaluated at arguments (1+eps, s_2, ..., adjusted last) with the
product held at exactly 1; it should tend to zero as eps does.  The table
shows the values and successive ratios for both shipped odd functions.  The
theta instance vanishes identically on the locus, so its column shows pure
truncation dust.  A point where a prefix product lands on a zero of the
theta function (s^2 an integer power of q0) is reported as rejected.
"""

import argparse
from fractions import Fraction as F

from qwedge.qdiff import locus_point, phi_sum, phi_table


def run(n: int, q0: F, terms: int, eps_list: tuple[F, ...]) -> None:
    for kind in ("algebraic", "theta"):
        table = phi_table(kind, q0, terms)
        print(f"{kind}:")
        print(f"  {'eps':>8} {'|sum|':>12} {'ratio':>10}")
        prev = None
        for eps in eps_list:
            svals = locus_point(n, eps)
            try:
                value = abs(table.factor * phi_sum(table, svals))
            except ValueError as err:  # a point on a zero of f has no ratio
                print(f"  {str(eps):>8} rejected: {err}")
                break
            ratio = "" if not prev else f"{float(value / prev):10.4f}"
            print(f"  {str(eps):>8} {float(value):12.3e} {ratio:>10}")
            prev = value if value else None
        print()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--q0", type=F, default=F(1, 16))
    ap.add_argument("--terms", type=int, default=40)
    ap.add_argument("--eps", type=F, action="append", default=None,
                    help="approach distances; repeatable")
    args = ap.parse_args()
    eps = tuple(args.eps) if args.eps else (F(1, 10), F(1, 20), F(1, 40), F(1, 80))
    run(args.n, args.q0, args.terms, eps)


if __name__ == "__main__":
    main()
