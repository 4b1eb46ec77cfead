"""Partition machinery against independent combinatorial facts."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwedge.partitions import (
    HookMomentWeight,
    frobenius,
    from_frobenius,
    hook_power_sum,
    partition_count,
    partitions_of,
    partitions_up_to,
    q_bracket,
    transpose,
)
from qwedge.series import QSeries, euler_product

F = Fraction

# first values of p(n), OEIS A000041
P_TABLE = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231, 297, 385, 490, 627]


def test_counts_match_table():
    for n, p in enumerate(P_TABLE):
        assert partition_count(n) == p
        assert sum(1 for _ in partitions_of(n)) == p


def test_cumulative_counts():
    assert sum(partition_count(n) for n in range(21)) == 2714
    assert sum(partition_count(n) for n in range(31)) == 28629
    assert sum(partition_count(n) for n in range(41)) == 215308


def test_enumeration_is_lex_descending():
    for n in range(9):
        lams = list(partitions_of(n))
        assert lams == sorted(lams, reverse=True)
        assert len(set(lams)) == len(lams)
        for lam in lams:
            assert sum(lam) == n
            assert all(a >= b for a, b in zip(lam, lam[1:]))


def test_generating_function():
    # sum_lam q^{|lam|} = 1/(q;q)_inf
    N = 12
    counts = QSeries.from_coeffs([F(partition_count(n)) for n in range(N + 1)])
    assert counts * euler_product(N) == QSeries.one(N)


def test_transpose_known():
    assert transpose((4, 4, 3, 2, 1)) == (5, 4, 3, 2)
    assert transpose(()) == ()
    assert transpose((5,)) == (1, 1, 1, 1, 1)


def test_frobenius_known_example():
    assert frobenius((4, 4, 3, 2, 1)) == ((3, 2, 0), (4, 2, 0))
    assert frobenius(()) == ((), ())
    assert frobenius((1,)) == ((0,), (0,))


def test_hook_power_sum_small():
    assert hook_power_sum((1,), 1) == 1          # (1/2)^1 + (1/2)^1
    assert hook_power_sum((1,), 2) == 0          # (1/2)^2 - (1/2)^2
    assert hook_power_sum((1,), 3) == F(1, 4)    # (1/2)^3 + (1/2)^3
    assert hook_power_sum((), 5) == 0
    # (2): Frobenius (1|0), p_1 = 3/2 + 1/2 = 2
    assert hook_power_sum((2,), 1) == 2
    # p_1(lam) = |lam|  (size in hook coordinates)
    for lam in partitions_up_to(9):
        assert hook_power_sum(lam, 1) == sum(lam)


def test_hook_power_sum_transpose_symmetry():
    # transposing swaps arms and legs, so p_r picks up (-1)^{r+1}
    for lam in partitions_up_to(8):
        mu = transpose(lam)
        for r in (1, 2, 3, 4):
            assert hook_power_sum(mu, r) == (-1) ** (r + 1) * hook_power_sum(lam, r)


partitions_strategy = st.integers(min_value=0, max_value=11).flatmap(
    lambda n: st.sampled_from(list(partitions_of(n))) if n else st.just(())
)


@given(partitions_strategy)
@settings(max_examples=100, deadline=None)
def test_frobenius_round_trip(lam):
    arms, legs = frobenius(lam)
    assert list(arms) == sorted(arms, reverse=True)
    assert list(legs) == sorted(legs, reverse=True)
    assert from_frobenius(arms, legs) == lam
    # diagonal identity: |lam| = sum(m_i + n_i + 1)
    assert sum(lam) == sum(a + b + 1 for a, b in zip(arms, legs))


@given(partitions_strategy)
@settings(max_examples=100, deadline=None)
def test_transpose_involution(lam):
    assert transpose(transpose(lam)) == lam


def enumerated_bracket(f, order):
    """<f>_q from the definition: f summed over every partition of each size,
    times (q;q)_inf."""
    sums = [sum((f(lam) for lam in partitions_of(n)), F(0)) for n in range(order + 1)]
    return QSeries.from_coeffs(sums) * euler_product(order)


def test_q_bracket_of_one_is_one():
    # <1> = (q;q)_inf * sum q^{|lam|} = 1 exactly
    assert enumerated_bracket(lambda lam: F(1), 10) == QSeries.one(10)
    # the engine's empty hook-moment product is the weight 1
    assert q_bracket(HookMomentWeight((), ()), 10) == QSeries.one(10)


def test_q_bracket_of_size():
    # <|lam|> = (q;q)_inf * sum |lam| q^{|lam|} = -D log(q;q)_inf... frozen directly:
    # sum |lam| q^{|lam|} = q + 4q^2 + 9q^3 + 20q^4; times (q;q)_inf:
    b = enumerated_bracket(lambda lam: F(sum(lam)), 4)
    assert list(b.coeffs) == [0, 1, 3, 4, 7]
    # |lam| is the unshifted hook moment p_1
    assert q_bracket(HookMomentWeight((1,), (F(0),)), 4) == b


@pytest.mark.parametrize("order", [-1, -3])
def test_q_bracket_rejects_negative_order(order):
    with pytest.raises(ValueError, match=rf"order {order} is negative"):
        q_bracket(HookMomentWeight((1,), (F(-1, 24),)), order)
