"""Set partitions and ordered set partitions of {1..n}, with the sign conventions
and special families used by the correlation-function expansions.

Blocks are tuples of sorted ints; a set partition is a tuple of blocks ordered by
smallest element; an ordered set partition (composition) is a tuple of blocks in
a significant order.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Callable, Iterator

from .reports import Report

Block = tuple[int, ...]
SetPartition = tuple[Block, ...]


def _first_blocks(items: tuple[int, ...]) -> Iterator[tuple[Block, tuple[int, ...]]]:
    """(B, rest) for each block B of `items` that holds the first item, the
    other members of B in the order of `itertools.combinations`, and `rest` the
    items outside B."""
    first, others = items[0], items[1:]
    for size in range(len(others) + 1):
        for chosen in itertools.combinations(others, size):
            yield (first,) + chosen, tuple(x for x in others if x not in chosen)


def set_partitions(items: tuple[int, ...]) -> Iterator[SetPartition]:
    """All set partitions, blocks canonically ordered by minimum element: the
    block of the first item, then a set partition of the rest.  The empty tuple
    yields the empty partition exactly once."""
    if not items:
        yield ()
        return
    for block, rest in _first_blocks(items):
        for sp in set_partitions(rest):
            yield (block,) + sp


def compositions(items: tuple[int, ...]) -> Iterator[tuple[Block, ...]]:
    """Ordered set partitions: every set partition times every ordering of its blocks."""
    for sp in set_partitions(items):
        yield from itertools.permutations(sp)


_MISSING = object()


def ordered_block_sum(n: int, leaf: Callable, close: Callable, names, known: dict):
    """Sum over the ordered set partitions (B_1, ..., B_r) of {1..n} of the chains

        leaf(|B_1|, P_0) close(P_1, .) leaf(|B_2|, P_1) ... close(P_{r-1}, .) leaf(|B_r|, P_{r-1}),

    where P_k = B_1 u ... u B_k is a bit mask (bit i - 1 for element i), so each
    block's factor depends only on its size and on the union before it.  The
    sum runs as one DP over masks in pull form: X[0] = 1, and for 0 < S

        acc[S] = sum over nonempty B inside S of X[S - B] * leaf(|B|, S - B),
        X[S] = close(S, acc[S]),

    each state X[S] asked for by the first acc that needs it.  `names[p]`
    names prefix p: prefixes with one name must have one X and the same
    leaf factors, and `known` holds X[p] under (names[p], 0) and the product
    X[p] * leaf(k, p) under (names[p], k), so a state or product already in
    `known` (from this sum or an earlier one over the same dict) is neither
    formed nor pulled again.  With distinct names and an empty dict every
    product X[P] * leaf(k, P) is formed once: n 2^{n-1} products and
    3^n - 2^n additions, where the chains number Fubini(n).

    Returns acc[full]; the last close is the caller's.  `close` must be linear,
    `leaf` returns None for a factor that is exactly zero, and the values need
    only `*` and `+`, so QSeries and Fraction both work.  Each acc[S] adds its
    terms in one call to the values' `sum_of` where their type has one
    (`QSeries.sum_of`: one common denominator, one reduction), else with `+`
    one by one.  None is returned when every chain had a zero factor.
    """
    if n < 1:
        raise ValueError(f"n = {n}: the block sum needs n >= 1")

    def pull(s: int):
        terms = []
        b = s
        while b:  # the nonempty submasks B of s, each with its prefix s - B
            term = product(s ^ b, b.bit_count())
            if term is not None:
                terms.append(term)
            b = (b - 1) & s
        if not terms:
            return None
        sum_of = getattr(type(terms[0]), "sum_of", None)
        return sum_of(terms) if sum_of else functools.reduce(operator.add, terms)

    def product(p: int, k: int):
        name = names[p]
        term = known.get((name, k), _MISSING)
        if term is _MISSING:
            if p:
                x = known.get((name, 0), _MISSING)
                if x is _MISSING:
                    acc = pull(p)
                    x = known[name, 0] = None if acc is None else close(p, acc)
                term = None if x is None else leaf(k, p)
                if term is not None:
                    term = x * term
            else:
                term = leaf(k, p)
            known[name, k] = term
        return term

    return pull((1 << n) - 1)


def subset_fold(values: tuple, start, op: Callable) -> list:
    """out[mask] = op(... op(start, values[i]) ..., values[j]) over the set bits
    i < ... < j of mask (bit i stands for values[i]), one op per mask."""
    out = [start] * (1 << len(values))
    for mask in range(1, len(out)):
        low = mask & -mask
        out[mask] = op(out[mask ^ low], values[low.bit_length() - 1])
    return out


def positions(mask: int) -> tuple[int, ...]:
    """The 1-indexed positions of the set bits of mask."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def first_subset(masks) -> int | None:
    """Of the masks, the one with the fewest elements and, among those, the
    first in lexicographic order of `positions` (the order of
    `itertools.combinations`); None for no mask.  A scan in mask order would
    name {1, 2, 3} (mask 7) before {1, 4} (mask 9)."""
    return min(masks, key=lambda p: (p.bit_count(), positions(p)), default=None)


def sign(n: int, num_blocks: int) -> int:
    """(-1)^{n + number of blocks}."""
    return -1 if (n + num_blocks) % 2 else 1


def near_singleton_partitions(items: tuple[int, ...]) -> Iterator[SetPartition]:
    """Set partitions with at most one non-singleton block, that block containing
    the smallest element.  For {1,2,3}: the all-singletons one, {12|3}, {13|2}, {123}.
    """
    if not items:
        yield ()
        return
    for block, rest in _first_blocks(items):
        yield (block,) + tuple((x,) for x in rest)


def stabilizer_multiplicity(blocks: SetPartition) -> Fraction:
    """1 / prod(multiplicity!) over repeated block contents, for weighted sums in
    which each multiset of blocks should count once.
    """
    counts: dict[Block, int] = {}
    for b in blocks:
        counts[b] = counts.get(b, 0) + 1
    denom = 1
    for c in counts.values():
        denom *= math.factorial(c)
    return Fraction(1, denom)


def signed_composition_sums(n_max: int) -> list[int]:
    """c_m = sum of (-1)^{blocks} over the ordered set partitions of an m-set, for
    m = 0..n_max, by the first-block recurrence c_0 = 1,
    c_m = -sum_{j=1..m} C(m, j) c_{m-j}: choose the j elements of the first
    block, then order-partition the rest.
    """
    c = [1]
    for m in range(1, n_max + 1):
        c.append(-sum(math.comb(m, j) * c[m - j] for j in range(1, m + 1)))
    return c


def block_counts(n_max: int) -> list[list[int]]:
    """rows[n][b] = the number of set partitions of an n-set into b blocks (the
    Stirling numbers of the second kind), for 0 <= b <= n <= n_max.

    Counted over restricted-growth strings by length: a string with b blocks
    extends in b ways that keep b blocks and in one way that opens block b + 1,
    so rows[n][b] = b rows[n-1][b] + rows[n-1][b-1], about n_max^2/2 counts in
    all.  The empty string is the one partition of the empty set.
    """
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [b * prev[b] + prev[b - 1] for b in range(1, n + 1)])
    return rows


def verify_counts(n_max: int = 8) -> Report:
    """Signed counting identities over set partitions and compositions of {1..n}:

    - sum over set partitions of (-1)^{n+blocks} * blocks!  == 1
    - sum over compositions   of (-1)^{n+blocks}            == 1  (same value, counted
      by the first-block recurrence instead of an enumeration)
    - sum over set partitions of (-1)^{n+blocks} * (blocks-1)! == 0 for n >= 2, == 1 at n = 1

    The first and third sums weigh a partition only by its number of blocks, so
    they run over `block_counts`, not over the Bell(n) partitions themselves.
    """
    statement = ("alternating block-count sums over set partitions and ordered set "
                 "partitions collapse to 0/1 constants")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    comps = signed_composition_sums(n_max)
    rows = block_counts(n_max)
    for n in range(1, n_max + 1):
        s1 = s3 = 0
        for ell, count in enumerate(rows[n][1:], 1):
            s1 += sign(n, ell) * count * math.factorial(ell)
            s3 += sign(n, ell) * count * math.factorial(ell - 1)
        s2 = sign(n, 0) * comps[n]
        if s1 != 1 or s2 != 1 or s3 != (1 if n == 1 else 0):
            return Report("counts", statement, {"n_max": n_max}, "fail",
                          first_mismatch={"n": n, "sum1": s1, "sum2": s2, "sum3": s3})
    return Report("counts", statement, {"n_max": n_max}, "pass", n_max,
                  details={"sum1": s1, "sum2": s2, "sum3": s3})

