"""Integer partitions: enumeration, Frobenius coordinates, hook-power sums, q-brackets.

Partitions are tuples of weakly decreasing positive ints; () is the empty partition.
Sums over all partitions of a weight built row by row (`RowWeight`) run through
one engine, `partition_sums`: a DP over part values that keeps one column of
states per row count and applies one row map per (part value, row index) to a
whole column.  A row map is data, a list of steps (src, dst, p) each meaning
"slot dst gains p times slot src", so the per-partition reference, the
per-state table and the packed layout all apply the same steps.  The slots are
integers at a fixed scale chosen for the order, and each column closes with
one rational vector over a shared denominator, so no Fraction is formed per
state.

The DP has two layouts, chosen by the bound the weight states.  A weight with
a field width (`HookMomentWeight`, whose slots are bounded by |p_k(mu)| <=
|mu|^k) is summed packed (`packed_sums`): each (row count, slot) column is one
int with a balanced field per size, so a step is one big-int multiply per
column, not one per state.  The point weights of `correlators` state none:
their slots carry (a b)^(2 order - 1) scales, 300 to 800 bits at n = 3 or 4
and order 14, so packing them saves no interpreter time and multiplies wider
ints; it measured as fast to 1.9 times slower even at the tightest width.
They keep one slot vector per state (`slot_table`, `state_sums`), which the
numeric sums at a point q0 (`qdiff`) also read.  Enumeration stays for
everything else and as the reference the tests compare against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .series import QSeries, euler_product

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
    if n <= 0:
        return int(n == 0)
    total, k = 0, 1
    while (g1 := k * (3 * k - 1) // 2) <= n:  # and g2 = k (3k + 1) / 2 = g1 + k
        sign = 1 if k % 2 else -1
        total += sign * partition_count(n - g1)
        if g1 + k <= n:
            total += sign * partition_count(n - g1 - k)
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
    d = sum(1 for i, part in enumerate(lam) if part > i)  # lam_i - i falls strictly
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
    extra = [w for r in range(d, max(cols, default=0)) if (w := sum(c > r for c in cols))]
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


Step = tuple[int, int, int]


def apply_steps(steps: list[Step], vec: list[int]) -> list[int]:
    """A copy of `vec` after each step (src, dst, p) in turn: slot dst gains p
    times slot src.  Zero sources are skipped."""
    out = list(vec)
    for src, dst, p in steps:
        if out[src]:
            out[dst] += out[src] * p
    return out


class RowWeight:
    """A partition weight assembled row by row, for the partition-sum engine.

    The weight keeps a vector of `slots` integers.  `start(order)` fixes, for
    partitions of size at most `order`, a scale per slot: slot j holds its exact
    value times scale_j, chosen so that every row keeps the slots integral.
    `row(v, i)` is the row map of row i (1-indexed) of part value v, as data: a
    list of steps (src, dst, p), applied in order by `apply_steps`, each meaning
    "slot dst gains p times slot src"; its factors are built once, when the
    list is.  The weight of a partition with `ell` rows is the dot product of
    its vector with `closing(ell)`: per-slot rationals already divided by the
    slot scales (tails over the empty rows past ell go here), as int numerators
    over one positive int denominator.  Calling the weight on a partition
    applies its row maps in order, then closes, which is the per-partition
    reference.

    `field_width(order)` states a width W, in bits, for the packed layout of
    `partition_sums`: every slot sum over a set of partitions of one size at
    most `order`, and every closed sum of one size over the common
    denominator, lies strictly inside +-2^(W - 2).  None, the default, states
    no bound, and the sums keep one slot vector per state.
    """

    slots = 1

    def start(self, order: int) -> None:
        """Fix the slot scales for partitions of size at most `order`."""

    def row(self, v: int, i: int) -> list[Step]:
        raise NotImplementedError

    def closing(self, ell: int) -> tuple[list[int], int]:
        raise NotImplementedError

    def field_width(self, order: int) -> int | None:
        return None

    def __call__(self, lam: Partition) -> Fraction:
        self.start(sum(lam))
        vec = [1] + [0] * (self.slots - 1)
        for i, part in enumerate(lam, 1):
            vec = apply_steps(self.row(part, i), vec)
        nums, den = self.closing(len(lam))
        return Fraction(sum(x * c for x, c in zip(vec, nums)), den)


def _closings(weight: RowWeight, order: int) -> tuple[list[list[int]], int]:
    """`weight.closing(r)` for r = 0..order over den, the lcm of their
    denominators, so that a state of r rows closes with one integer dot
    product."""
    closings = [weight.closing(ell) for ell in range(order + 1)]
    den = math.lcm(*(d for _, d in closings))
    return [[c * (den // d) for c in cl] for cl, d in closings], den


def slot_table(weight: RowWeight, order: int) -> tuple[list[list], list[list[int]], int]:
    """(cols, closings, den): the per-state DP of every partition sum of
    `weight` to size `order`, and the closings it is read through.

    cols[r][s] sums the integer slot vectors of all partitions of size s with r
    rows (None where there is none).  The DP runs over part values v = order..1,
    largest first, so a part's row index is one more than the rows before it.
    Pass v walks the columns r ascending while (r + 1) v <= order: a state of
    column r has r parts of at least v, so its size s is at least r v, and the
    steps of one map `weight.row(v, r + 1)` add every state with s <= order - v
    into column r + 1 at size s + v, which is walked next, so a value repeats.
    That is order // v maps per pass and O(order^2 log order) states, not every
    partition.  closings[r] is `weight.closing(r)` over den, the lcm of their
    denominators.  The numeric sums of `qdiff` read this table.
    """
    weight.start(order)
    cols = [[[1] + [0] * (weight.slots - 1)] + [None] * order]
    for v in range(order, 0, -1):
        for r in range(order // v):
            if len(cols) == r + 1:
                cols.append([None] * (order + 1))
            steps, src, dst = weight.row(v, r + 1), cols[r], cols[r + 1]
            for s in range(r * v, order - v + 1):
                if src[s] is None:
                    continue
                out, cur = apply_steps(steps, src[s]), dst[s + v]
                if cur is None:
                    dst[s + v] = out
                else:
                    for k, x in enumerate(out):
                        if x:
                            cur[k] += x
    return (cols, *_closings(weight, order))


def state_sums(weight: RowWeight, order: int) -> QSeries:
    """The partition sums of `weight` to q^order from `slot_table`: each state
    closes with one integer dot product, through the closing of its column."""
    cols, closings, den = slot_table(weight, order)
    nums = [0] * (order + 1)
    for col, cl in zip(cols, closings):
        for s, vec in enumerate(col):
            if vec is not None:
                nums[s] += sum(x * c for x, c in zip(vec, cl) if x)
    return QSeries.from_nums(nums, den)


def packed_sums(weight: RowWeight, order: int, width: int) -> QSeries:
    """The partition sums of `weight` to q^order in the packed layout: the DP of
    `slot_table` with each (row count r, slot) column held as one int whose
    `width`-bit balanced fields are the sizes 0..order (field s at bit
    width * s).  `width` must be one the weight states (`field_width`).

    A map's steps apply once per (v, r) to the whole column, after one cut of
    each slot to sizes 0..order - v: the balanced residue mod
    2^(width (order - v + 1)), exact because every field lies inside
    +-2^(width - 2), so their sum over the kept sizes lies inside the half
    modulus.  The shift by width * v adds part v to every size at once.  The
    columns close in packed form, and the total is unpacked once, field by
    field from the lowest; a nonzero remainder past size order means a field
    overflowed, and raises.
    """
    weight.start(order)
    closings, den = _closings(weight, order)
    cols = [[1] + [0] * (weight.slots - 1)]
    for v in range(order, 0, -1):
        bits, shift = width * (order - v + 1), width * v
        mask, half = (1 << bits) - 1, 1 << (bits - 1)
        for r in range(order // v):
            if len(cols) == r + 1:
                cols.append([0] * weight.slots)
            cut = [(y := x & mask) - (y & half) * 2 for x in cols[r]]
            dst = cols[r + 1]
            for k, x in enumerate(apply_steps(weight.row(v, r + 1), cut)):
                if x:
                    dst[k] += x << shift
    total = sum(x * c for col, cl in zip(cols, closings) for x, c in zip(col, cl) if x)
    nums, mask, half = [], (1 << width) - 1, 1 << (width - 1)
    for _ in range(order + 1):
        field = (total & mask) - (total & half) * 2
        nums.append(field)
        total = (total - field) >> width
    if total:
        raise ArithmeticError(f"a packed partition sum overflowed its {width}-bit fields "
                              f"at order {order}")
    return QSeries.from_nums(nums, den)


def partition_sums(weight: RowWeight, order: int) -> QSeries:
    """sum_m c_m q^m valid to q^order, c_m the sum of weight(lam) over the
    partitions of m.

    The layout follows the weight's stated bound: a weight with a field width
    (the hook moments, whose slots are small integers) is summed packed, one
    int per (row count, slot) column; one without (the point weights of
    `correlators`, whose slots carry (a b)^(2 order - 1) scales of hundreds of
    bits) keeps one slot vector per state, since packing those measured no
    faster and up to 1.9 times slower even at the tightest width.
    """
    width = weight.field_width(order)
    if width is None:
        return state_sums(weight, order)
    return packed_sums(weight, order, width)


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


@lru_cache(maxsize=None)
def _eps_pairs(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per j < n, the (S, S | j) for every mask S of n bits without j."""
    return tuple(tuple((mask, mask | 1 << j) for mask in range(1 << n) if not mask >> j & 1)
                 for j in range(n))


def eps_row(factors: list[int]) -> list[Step]:
    """The steps of the row map vec -> vec * prod_j (1 + factors[j] eps_j) in
    Q[eps]/(eps_j^2): for each j in turn, slot S | j gains slot S times
    factors[j] for every mask S without j.  Zero factors take no step."""
    return [(src, dst, p) for p, pairs in zip(factors, _eps_pairs(len(factors))) if p
            for src, dst in pairs]


class HookMomentWeight(RowWeight):
    """prod_j (p_{k_j}(lam) - shifts[j]) with the row form of the hook moments,

        p_k(lam) = sum_i [(lam_i - i + 1/2)^k - (-i + 1/2)^k],

    in Q[eps_1..eps_r]/(eps_j^2): each row multiplies by prod_j (1 + g_j eps_j),
    g_j = (2(v - i) + 1)^k_j - (1 - 2i)^k_j, integers at scale 2^k_j per eps_j
    whatever the order; the closing takes the eps_1..eps_r coefficient after the
    shifts.  Empty rows add nothing, so there is no tail.

    Slot S of a partition mu is prod_{j in S} 2^k_j p_{k_j}(mu), and
    |p_k(mu)| <= |mu|^k: in Frobenius form p_k is a sum of (m_i + 1/2)^k and
    -+(n_i + 1/2)^k whose bases add up to |mu|, and x^k is superadditive.
    Every state of the DP is a partition of size at most `order` (its empty
    rows add 0), so |slot| <= max(1, 2 order)^(sum k), and a sum over the
    partitions of one size, closed, is below p(order) times that times
    max|closing| times the slot count.  `field_width` states that bound, with
    a margin of order + 1, in bits plus two.
    """

    def __init__(self, ks: tuple[int, ...], shifts):
        self.ks, shifts = tuple(ks), [Fraction(c) for c in shifts]
        if len(shifts) != len(self.ks):
            raise ValueError(f"{len(self.ks)} moments ks but {len(shifts)} shifts")
        self.slots = 1 << len(self.ks)
        # factor j over 2^k_j times the shift's denominator
        self.comp = (eps_closing([c.denominator for c in shifts],
                                 [-c.numerator << k for c, k in zip(shifts, self.ks)]),
                     math.prod(c.denominator << k for c, k in zip(shifts, self.ks)))

    def row(self, v: int, i: int) -> list[Step]:
        a, b = 2 * (v - i) + 1, 1 - 2 * i
        return eps_row([a ** k - b ** k for k in self.ks])

    def closing(self, ell: int) -> tuple[list[int], int]:
        return self.comp

    def field_width(self, order: int) -> int:
        bound = (partition_count(order) * max(1, 2 * order) ** sum(self.ks)
                 * max(map(abs, self.comp[0])) * self.slots * (order + 1))
        return bound.bit_length() + 2


def q_bracket(weight: RowWeight, order: int) -> QSeries:
    """<f>_q = (q;q)_inf * sum_lam f(lam) q^{|lam|}, truncated at `order`, for the
    row weight f, whose partition sums run through `partition_sums`."""
    if order < 0:
        raise ValueError(f"order {order} is negative; a q-bracket needs order >= 0")
    return partition_sums(weight, order) * euler_product(order)
