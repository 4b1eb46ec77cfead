#!/usr/bin/env python3
"""Scan q-brackets of shifted power-sum products and fit each one in the
quasimodular basis.

Every product prod_i (p_{k_i} - xi(-k_i)) over odd k_i should land in weight
sum(k_i + 1); the scan prints the fitted polynomial in G2, G4, G6 and flags
anything that fails to fit.
"""

import argparse
import itertools
import time

from qwedge.partitions import q_bracket
from qwedge.quasimodular import FitError, fit_series, shifted_hook_moment


def index_tuples(max_weight: int, max_factors: int):
    """Weakly increasing tuples of at most `max_factors` odd k with
    sum(k+1) <= max_weight."""
    odds = range(1, max_weight, 2)
    for n in range(1, max_factors + 1):
        for ks in itertools.combinations_with_replacement(odds, n):
            if sum(k + 1 for k in ks) <= max_weight:
                yield ks


def run(max_weight: int, max_factors: int, order: int, margin: int) -> None:
    print(f"{'ks':16} {'weight':>6} {'time':>7}  fit")
    print("-" * 64)
    for ks in index_tuples(max_weight, max_factors):
        w = sum(k + 1 for k in ks)
        t0 = time.perf_counter()
        series = q_bracket(shifted_hook_moment(ks), order)
        try:
            fit = str(fit_series(series, w, margin))
        except FitError as err:
            fit = f"NO FIT: {err}"
        dt = time.perf_counter() - t0
        print(f"{str(list(ks)):16} {w:6} {dt:6.2f}s  {fit}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-weight", type=int, default=12)
    ap.add_argument("--max-factors", type=int, default=3)
    ap.add_argument("--order", type=int, default=60)
    ap.add_argument("--margin", type=int, default=8)
    args = ap.parse_args()
    run(args.max_weight, args.max_factors, args.order, args.margin)


if __name__ == "__main__":
    main()
