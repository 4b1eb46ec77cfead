"""Integer partitions: enumeration, Frobenius coordinates, hook-power sums, q-brackets.

Partitions are tuples of weakly decreasing positive ints; () is the empty partition.
Sums over all partitions of a weight built row by row (`RowWeight`) run through
one engine, `slot_table`, a DP over part values.  Its rows run on integers,
each slot at a fixed scale chosen for the order, and each row count closes with
one rational vector that is linear in the slots; the closings share one
denominator, so no Fraction is formed per state.  `partition_sums` closes
every state into the coefficients of a QSeries; the numeric sums at a point q0
(`qdiff`) fold the powers of q0 over the sizes first and close once per row
count.  Enumeration stays for everything else and as the reference the tests
compare against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator

from .series import ZERO, QSeries, euler_product

Partition = tuple[int, ...]


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n in lexicographically descending order."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(n, max_part)
    for first in range(top, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def partitions_up_to(n: int) -> Iterator[Partition]:
    """All partitions of every size 0..n, sizes ascending."""
    for m in range(n + 1):
        yield from partitions_of(m)


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """p(n) by the pentagonal-number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        total += sign * partition_count(n - g1)
        if g2 <= n:
            total += sign * partition_count(n - g2)
        k += 1
    return total


def transpose(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > i) for i in range(lam[0]))


def frobenius(lam: Partition) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Arm/leg coordinates (m_1 > m_2 > ... | n_1 > n_2 > ...) along the diagonal:
    m_i = lam_i - i, n_i = lam'_i - i (1-indexed), for i up to the diagonal length.
    """
    lamt = transpose(lam)
    d = 0
    while d < len(lam) and lam[d] > d:
        d += 1
    arms = tuple(lam[i] - (i + 1) for i in range(d))
    legs = tuple(lamt[i] - (i + 1) for i in range(d))
    return arms, legs


def from_frobenius(arms: tuple[int, ...], legs: tuple[int, ...]) -> Partition:
    d = len(arms)
    if d != len(legs):
        raise ValueError("arm and leg lists must have equal length")
    rows = [arms[i] + (i + 1) for i in range(d)]
    # row i+1..: cells strictly below the diagonal, read off the legs
    cols = [legs[i] + (i + 1) for i in range(d)]
    extra: list[int] = []
    for r in range(d, max(cols, default=0)):
        width = sum(1 for c in cols if c > r)
        if width:
            extra.append(width)
    return tuple(rows) + tuple(extra)


def hook_power_sum(lam: Partition, r: int) -> Fraction:
    """p_r(lam) = sum_i (m_i + 1/2)^r + (-1)^{r+1} (n_i + 1/2)^r over Frobenius pairs.

    Computed in scaled integers: (2m+1)^r +/- (2n+1)^r over 2^r.
    """
    arms, legs = frobenius(lam)
    sign = 1 if r % 2 == 1 else -1
    total = 0
    for m, n in zip(arms, legs):
        total += (2 * m + 1) ** r + sign * (2 * n + 1) ** r
    return Fraction(total, 2 ** r)


class RowWeight:
    """A partition weight assembled row by row, for `slot_table`.

    The weight keeps a vector of `slots` integers.  `start(order)` fixes, for
    partitions of size at most `order`, a scale per slot: slot j holds its exact
    value times scale_j, and the scales are chosen so that every row keeps the
    slots integral.  `row(v, i, vec)` returns vec after row i (1-indexed) of part
    value v, as a new list, which the engine may add into.  The weight of a
    partition with `ell` rows is linear in the slots: the dot product of vec
    with `closing(ell)`, rational per-slot coefficients already divided by the
    slot scales (tails over the empty rows past ell go here), given as
    (nums, den): int numerators over one positive int denominator.  Calling the
    weight on a partition applies its rows in order, then closes, which is the
    per-partition reference.
    """

    slots = 1

    def start(self, order: int) -> None:
        """Fix the slot scales for partitions of size at most `order`."""

    def row(self, v: int, i: int, vec: list[int]) -> list[int]:
        raise NotImplementedError

    def closing(self, ell: int) -> tuple[list[int], int]:
        raise NotImplementedError

    def __call__(self, lam: Partition) -> Fraction:
        self.start(sum(lam))
        vec = [1] + [0] * (self.slots - 1)
        for i, part in enumerate(lam, 1):
            vec = self.row(part, i, vec)
        nums, den = self.closing(len(lam))
        return Fraction(sum(x * c for x, c in zip(vec, nums)), den)


def slot_table(weight: RowWeight, order: int) -> tuple[list[list], list[list[int]], int]:
    """(table, closings, den): the DP that every partition sum of `weight` to
    size `order` runs on, and the closings it is read through.

    table[s][r] sums the integer slot vectors of all partitions of size s with r
    rows (None where there is none).  The DP runs over part values v = order..1,
    largest first, so a part's row index is one more than the rows placed
    before it; ascending s updated in place lets a value repeat, and each merge
    adds the new row's vector into the state's own list.  Visits
    O(order^2 log order) states instead of every partition.  closings[r] is
    `weight.closing(r)` over den, the lcm of their denominators, so a state of r
    rows closes with one integer dot product.
    """
    weight.start(order)
    table: list[list] = [[[1] + [0] * (weight.slots - 1)]] + [[] for _ in range(order)]
    for v in range(order, 0, -1):
        for s in range(order - v + 1):
            dst = table[s + v]
            for r, vec in enumerate(table[s]):
                if vec is None:
                    continue
                out = weight.row(v, r + 1, vec)
                if len(dst) <= r + 1:
                    dst.extend([None] * (r + 2 - len(dst)))
                cur = dst[r + 1]
                if cur is None:
                    dst[r + 1] = out
                else:
                    for k, x in enumerate(out):
                        if x:
                            cur[k] += x
    closings = [weight.closing(ell) for ell in range(max(map(len, table)))]
    den = math.lcm(*(d for _, d in closings))
    return table, [[c * (den // d) for c in cl] for cl, d in closings], den


def partition_sums(weight: RowWeight, order: int) -> QSeries:
    """sum_m c_m q^m valid to q^order, c_m the sum of weight(lam) over the
    partitions of m: each state of `slot_table` closes with one integer dot
    product."""
    table, closings, den = slot_table(weight, order)
    nums = [sum(x * c for vec, cl in zip(states, closings) if vec is not None
                for x, c in zip(vec, cl) if x)
            for states in table]
    return QSeries.from_nums(nums, den)


def eps_closing(inside: list[int], outside: list[int]) -> list[int]:
    """comp[S] = prod of inside[j] over j in the bit mask S times prod of
    outside[j] over j not in S: the closing of Q[eps]/(eps_j^2) slots that take
    the eps_1..eps_r coefficient of vec * prod_j (outside[j] + inside[j] eps_j).
    The caller puts factor j over a denominator d_j and passes the numerators;
    comp is then over the product of the d_j."""
    comp = [1]
    for a, b in zip(inside, outside):
        comp = [x * b for x in comp] + [x * a for x in comp]
    return comp


def eps_row(vec: list, factors: list) -> list:
    """vec * prod_j (1 + factors[j] eps_j) in Q[eps]/(eps_j^2), zero slots skipped."""
    out = list(vec)
    for j, p in enumerate(factors):
        bit = 1 << j
        for mask in range(len(out)):
            if not mask & bit and out[mask]:
                out[mask | bit] += out[mask] * p
    return out


class HookMomentWeight(RowWeight):
    """prod_j (p_{k_j}(lam) - shifts[j]) with the row form of the hook moments,

        p_k(lam) = sum_i [(lam_i - i + 1/2)^k - (-i + 1/2)^k],

    in Q[eps_1..eps_r]/(eps_j^2): each row multiplies by prod_j (1 + g_j eps_j),
    g_j = (2(v - i) + 1)^k_j - (1 - 2i)^k_j, integers at scale 2^k_j per eps_j
    whatever the order; the closing takes the eps_1..eps_r coefficient after the
    shifts.  Empty rows add nothing, so there is no tail.
    """

    def __init__(self, ks: tuple[int, ...], shifts):
        self.ks = tuple(ks)
        self.slots = 1 << len(self.ks)
        # factor j over 2^k_j times the shift's denominator
        shifts = [Fraction(c) for c in shifts]
        self.comp = (eps_closing([c.denominator for c in shifts],
                                 [-c.numerator << k for c, k in zip(shifts, self.ks)]),
                     math.prod(c.denominator << k for c, k in zip(shifts, self.ks)))

    def row(self, v: int, i: int, vec: list[int]) -> list[int]:
        a, b = 2 * (v - i) + 1, 1 - 2 * i
        return eps_row(vec, [a ** k - b ** k for k in self.ks])

    def closing(self, ell: int) -> tuple[list[int], int]:
        return self.comp


def q_bracket(f: Callable[[Partition], Fraction], order: int) -> QSeries:
    """<f>_q = (q;q)_inf * sum_lam f(lam) q^{|lam|}, truncated at `order`.

    A RowWeight runs through `partition_sums`; any other callable is evaluated on
    every partition, which the tests keep as the reference.
    """
    if order < 0:
        raise ValueError(f"order {order} is negative; a q-bracket needs order >= 0")
    if isinstance(f, RowWeight):
        sums = partition_sums(f, order)
    else:
        sums = QSeries.from_coeffs([sum((f(lam) for lam in partitions_of(n)), ZERO)
                                    for n in range(order + 1)])
    return sums * euler_product(order)
