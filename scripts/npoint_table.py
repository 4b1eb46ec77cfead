#!/usr/bin/env python3
"""Tabulate n-point correlation series and compare both evaluation routes.

For each point set the brute partition sum and the theta-derivative
determinant are expanded to the requested order; the table shows leading
coefficients, agreement, and the time each route took.  The default point
sets reach n = 8; those past n = 4 run at order 6 whatever --order says.
"""

import argparse
import time
from fractions import Fraction as F

from qwedge.correlators import EvalPoint, f_brute, u_series


DEFAULT_POINTS = (
    (F(2),),
    (F(2), F(3)),
    (F(2), F(5)),
    (F(2), F(3), F(5)),
)

# past n = 4 the default rows are the first n primes, n = 5..8, at an order low
# enough that n = 8 takes a fraction of a second per route
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)
WIDE_ORDER = 6


def run(rows: tuple[tuple[tuple[F, ...], int], ...], shown: int) -> None:
    """One table row per (point, order) in `rows`, with `shown` leading
    coefficients."""
    header = f"{'s':24} {'order':>5} {'brute':>8} {'det':>8}  agree  leading coefficients"
    print(header)
    print("-" * len(header))
    for svals, order in rows:
        point = EvalPoint(svals)
        t0 = time.perf_counter()
        lhs = f_brute(point, order)
        t1 = time.perf_counter()
        rhs = u_series(point, order)
        t2 = time.perf_counter()
        lead = ", ".join(str(lhs.coefficient(lhs.offset + k))
                         for k in range(min(shown, order + 1)))
        label = "(" + ",".join(str(s) for s in svals) + ")"
        print(f"{label:24} {order:5} {t1 - t0:7.2f}s {t2 - t1:7.2f}s  {lhs == rhs!s:5}  "
              f"q^{lhs.offset} * [{lead}, ...]")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--order", type=int, default=12)
    ap.add_argument("--shown", type=int, default=5)
    ap.add_argument("--points", action="append", default=None,
                    help="comma-separated s values; repeatable")
    args = ap.parse_args()
    if args.points:
        rows = tuple((tuple(F(x) for x in p.split(",")), args.order) for p in args.points)
    else:
        rows = tuple((p, args.order) for p in DEFAULT_POINTS) + tuple(
            (tuple(F(p) for p in PRIMES[:n]), WIDE_ORDER) for n in range(5, len(PRIMES) + 1))
    run(rows, args.shown)


if __name__ == "__main__":
    main()
