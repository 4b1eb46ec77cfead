"""The row-DP partition-sum engine against enumeration of every partition.

Each reference below evaluates its weight on one partition at a time, from the
definition, and sums over `partitions_of`; the engine must agree exactly.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwedge.correlators import FWeight, HWeight, IndexWeight
from qwedge.partitions import (
    HookMomentWeight,
    hook_power_sum,
    packed_sums,
    partition_sums,
    partitions_of,
    partitions_up_to,
    q_bracket,
    slot_table,
    state_sums,
)
from qwedge.qdiff import DivergentPoint, f_numeric, h_numeric
from qwedge.quasimodular import shifted_hook_moment
from qwedge.series import QSeries, euler_product
from qwedge.special import xi_value

F = Fraction
Q9 = F(1, 9)

# ratios of consecutive primes: no subset product of them or their inverses is
# 1, and every subset product of the squares stays inside (1/9, 9)
PRIME_RATIOS = [F(7, 5), F(11, 7), F(13, 11), F(17, 13), F(19, 17), F(23, 19)]


def _enumerated(weight, order):
    return tuple(sum((weight(lam) for lam in partitions_of(m)), F(0))
                 for m in range(order + 1))


def _hook_product(ks):
    shifts = [xi_value(-k) for k in ks]

    def w(lam):
        total = F(1)
        for k, c in zip(ks, shifts):
            total *= hook_power_sum(lam, k) - c
        return total

    return w


def _f_reference(svals):
    """prod_k t_k^{1/2} (sum_{i <= l} t_k^{lambda_i - i} + t_k^{-l} / (t_k - 1))."""

    def w(lam):
        total = F(1)
        for s in svals:
            t = s * s
            acc = sum((t ** (part - i) for i, part in enumerate(lam, 1)), F(0))
            total *= s * (acc + t ** -len(lam) / (t - 1))
        return total

    return w


def _empty_h(svals):
    """sum over 1 <= m_1 < m_2 < ... of prod_k s_k^{1 - 2 m_k}, summed one
    geometric series at a time from the first variable."""
    if not svals:
        return F(1)
    y = F(1)
    for s in svals:
        y /= s * s
    return svals[0] * y / (1 - y) * _empty_h(svals[1:])


def _h_reference(svals):
    """Indices 1..l take the first j variables; the rest lie past the last row,
    where the sum is the empty-partition one shifted by l."""
    n = len(svals)

    def w(lam):
        ell = len(lam)
        total = F(0)
        for j in range(n + 1):
            shift = F(1)
            for s in svals[j:]:
                shift /= (s * s) ** ell
            tail = shift * _empty_h(svals[j:])
            for rows in itertools.combinations(range(1, ell + 1), j):
                head = F(1)
                for s, i in zip(svals, rows):
                    head *= s ** (2 * (lam[i - 1] - i) + 1)
                total += head * tail
        return total

    return w


points = st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(
        st.permutations(PRIME_RATIOS).map(lambda r: r[:n]),
        st.lists(st.booleans(), min_size=n, max_size=n),
    )
).map(lambda pr: tuple(1 / s if flip else s for s, flip in zip(*pr)))


@given(ks=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3),
       order=st.integers(min_value=0, max_value=10))
@settings(max_examples=40, deadline=None)
def test_hook_moment_brackets_match_enumeration(ks, order):
    ks = tuple(ks)
    weight = shifted_hook_moment(ks)
    assert isinstance(weight, HookMomentWeight)
    got = q_bracket(weight, order)
    want = QSeries.from_coeffs(_enumerated(_hook_product(ks), order)) * euler_product(order)
    assert (got.offset, got.step, got.coeffs) == (want.offset, want.step, want.coeffs)


@given(ks=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
       xi_shifts=st.booleans(), order=st.integers(min_value=0, max_value=40))
@example(ks=[6, 6, 6, 6], xi_shifts=True, order=40)
@example(ks=[1], xi_shifts=False, order=0)
@settings(max_examples=40, deadline=None)
def test_packed_hook_moment_sums_equal_the_per_state_table(ks, xi_shifts, order):
    """The packed layout against the per-state `slot_table`, at orders where a
    field too narrow for its sums would overflow: the same offset, numerators
    and denominator."""
    weight = HookMomentWeight(ks, [xi_value(-k) if xi_shifts else 0 for k in ks])
    packed = packed_sums(weight, order, weight.field_width(order))
    per_state = state_sums(weight, order)
    assert (packed.offset, packed.nums, packed.den) == \
        (per_state.offset, per_state.nums, per_state.den)


def test_hook_moments_are_bounded_by_the_size_to_the_power():
    """|p_k(lam)| <= |lam|^k, the bound the packed field width rests on, with
    equality at lam = (1), k = 1."""
    for lam in partitions_up_to(14):
        for k in range(1, 8):
            assert abs(hook_power_sum(lam, k)) <= sum(lam) ** k
    assert hook_power_sum((1,), 1) == 1


@pytest.mark.parametrize("ks", [(1, 3), (2, 3, 5), (1, 1, 1, 1)])
def test_stated_field_width_covers_the_per_state_table(ks):
    """Every slot sum that the per-state table holds at order 40, and every
    closed per-size sum over its denominator, lies inside +-2^(W - 2)."""
    weight = shifted_hook_moment(ks)
    limit = 1 << weight.field_width(40) - 2
    cols, closings, _ = slot_table(weight, 40)
    assert max(abs(x) for col in cols for vec in col if vec for x in vec) < limit
    closed = [0] * 41
    for col, cl in zip(cols, closings):
        for size, vec in enumerate(col):
            if vec:
                closed[size] += sum(x * c for x, c in zip(vec, cl))
    assert max(map(abs, closed)) < limit


def test_packed_sums_raise_when_a_field_overflows():
    # p(12) = 77 needs more than two bits a field
    with pytest.raises(ArithmeticError, match="overflowed its 2-bit fields"):
        packed_sums(HookMomentWeight((), ()), 12, 2)


def test_point_weights_state_no_field_width():
    svals = (F(7, 5), F(5, 11))
    for weight in (FWeight(svals), HWeight(svals), IndexWeight((1, 2), svals)):
        assert weight.field_width(14) is None


@given(svals=points, order=st.integers(min_value=0, max_value=10))
@settings(max_examples=30, deadline=None)
def test_f_and_h_sums_match_enumeration(svals, order):
    assert partition_sums(FWeight(svals), order).coeffs == _enumerated(_f_reference(svals), order)
    assert partition_sums(HWeight(svals), order).coeffs == _enumerated(_h_reference(svals), order)


def _numeric_reference(coeffs, q0, lo):
    """(value, drift) from the coefficients c_0..c_hi: sum_m c_m q0^m to each
    cutoff, size by size, times the Euler product cut at hi."""
    total = sum(c * q0 ** m for m, c in enumerate(coeffs))
    snapshot = sum(c * q0 ** m for m, c in enumerate(coeffs[:lo + 1]))
    euler = F(1)
    for m in range(1, len(coeffs)):
        euler *= 1 - q0 ** m
    return euler * total, abs(euler) * abs(total - snapshot)


@given(svals=st.one_of(st.just(()), points), q0=st.sampled_from([Q9, F(1, 16), F(4, 25)]),
       cut=st.tuples(st.integers(min_value=0, max_value=6),
                     st.integers(min_value=1, max_value=9)).filter(lambda c: c[0] < c[1]))
@example(svals=(F(7, 5), F(5, 11), F(13, 11)), q0=Q9, cut=(3, 6))
@example(svals=(F(7, 5), F(11, 7), F(13, 11)), q0=F(4, 25), cut=(0, 1))
@example(svals=(), q0=Q9, cut=(2, 7))
@example(svals=(F(7, 5), F(11, 7)), q0=F(1, 16), cut=(8, 9))
@settings(max_examples=25, deadline=None)
def test_numeric_sums_match_enumeration(svals, q0, cut):
    """The integer rows, the closings over one denominator and the q0-powers
    folded over the sizes of each row count against the Fraction references,
    one partition at a time.  A point with a subset product of t's outside
    (q0, 1/q0) must be rejected instead."""
    lo, hi = cut
    convergent = all(q0 < math.prod(s * s for s in sub) < 1 / q0
                     for r in range(1, len(svals) + 1)
                     for sub in itertools.combinations(svals, r))
    for weight, ref, numeric in ((FWeight, _f_reference, f_numeric),
                                 (HWeight, _h_reference, h_numeric)):
        coeffs = _enumerated(ref(svals), hi)
        assert partition_sums(weight(svals), hi).coeffs == coeffs
        if convergent:
            assert numeric(svals, q0, cut) == _numeric_reference(coeffs, q0, lo)
        else:
            with pytest.raises(DivergentPoint):
                numeric(svals, q0, cut)


@pytest.mark.parametrize("n, cut", [(1, (11, 14)), (2, (11, 14)), (3, (11, 14)),
                                    (1, (25, 30)), (2, (25, 30))])
def test_numeric_sums_equal_the_per_size_evaluation(n, cut):
    """At the cutoffs of the benchmark and of criterion 07, where enumeration is
    out of reach: the fold over sizes gives the Fractions of evaluating the
    series of `partition_sums` at q0 coefficient by coefficient."""
    svals = (F(3, 2), F(5, 4), F(4, 3))[:n]
    lo, hi = cut
    for weight, numeric in ((FWeight, f_numeric), (HWeight, h_numeric)):
        coeffs = partition_sums(weight(svals), hi).coeffs
        assert numeric(svals, Q9, cut) == _numeric_reference(coeffs, Q9, lo)


def test_weights_on_single_partitions_match_references():
    svals = (F(7, 5), F(5, 11), F(13, 11))
    f_ref, h_ref, hook_ref = _f_reference(svals), _h_reference(svals), _hook_product((1, 3))
    for lam in itertools.chain.from_iterable(partitions_of(m) for m in range(8)):
        assert FWeight(svals)(lam) == f_ref(lam)
        assert HWeight(svals)(lam) == h_ref(lam)
        assert shifted_hook_moment((1, 3))(lam) == hook_ref(lam)


def test_index_weight_reads_parts_by_row():
    s1, s2 = F(2), F(3)
    w = IndexWeight((1, 3), (s1, s2))
    # row 1 holds 4, row 3 is past the partition (4, 1) and reads a zero part
    assert w((4, 1)) == s1 ** (2 * (4 - 1) + 1) * s2 ** (2 * (0 - 3) + 1)
    with pytest.raises(ValueError):
        IndexWeight((0, 2), (s1, s2))


def test_partition_sums_of_the_empty_product_count_partitions():
    assert partition_sums(HookMomentWeight((), ()), 12).nums == \
        (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77)


def test_hook_moment_shifts_must_match_the_moments():
    with pytest.raises(ValueError, match="2 moments ks but 1 shifts"):
        HookMomentWeight((1, 2), (F(-1, 24),))
    with pytest.raises(ValueError, match="1 moments ks but 2 shifts"):
        HookMomentWeight((1,), (F(-1, 24), F(0)))


class _CountingHookMoment(HookMomentWeight):
    def __init__(self, ks, shifts):
        super().__init__(ks, shifts)
        self.asked = []

    def row(self, v, i):
        self.asked.append((v, i))
        return super().row(v, i)


@pytest.mark.parametrize("ks", [(1,), (1, 1), (2, 3)])
def test_engine_asks_one_row_map_per_value_and_row(ks):
    """The engine builds the factors of a row once per (part value, row index),
    not once per state: at order 24 that is sum_v floor(24 / v) = 84 maps."""
    weight = _CountingHookMoment(ks, [xi_value(-k) for k in ks])
    assert weight.field_width(24) is not None  # so the sum runs packed
    assert q_bracket(weight, 24) == q_bracket(shifted_hook_moment(ks), 24)
    assert len(weight.asked) == len(set(weight.asked)) <= 84
    assert all(v * i <= 24 for v, i in weight.asked)
