"""Set-partition families, signs, the composition recurrence, and integer
partitions as multiplicity maps (through the exp-derivative expansion)."""

import math
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwedge.partitions import partitions_of
from qwedge.setparts import (
    block_counts,
    compositions,
    first_subset,
    near_singleton_partitions,
    ordered_block_sum,
    positions,
    set_partitions,
    sign,
    signed_composition_sums,
    stabilizer_multiplicity,
    verify_counts,
)

F = Fraction


def _items(n):
    return tuple(range(1, n + 1))


def test_counts_against_bell_and_fubini():
    # Bell: 1, 1, 2, 5, 15, 52, 203, 877, 4140;  Fubini: 1, 1, 3, 13, 75, 541, ...
    bells = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    fubinis = [1, 1, 3, 13, 75, 541, 4683, 47293, 545835]
    for n in range(8):
        sps = list(set_partitions(_items(n)))
        assert len(sps) == len(set(sps)) == bells[n]
        assert sum(1 for _ in compositions(_items(n))) == fubinis[n]
    assert sum(1 for _ in set_partitions(_items(8))) == bells[8]


def test_blocks_are_canonical():
    for sp in set_partitions(_items(5)):
        flat = sorted(x for b in sp for x in b)
        assert flat == list(_items(5))
        mins = [b[0] for b in sp]
        assert mins == sorted(mins)
        for b in sp:
            assert list(b) == sorted(b)


def test_ordered_block_sum_counts_compositions():
    fubinis = [1, 1, 3, 13, 75, 541, 4683]
    for n in range(1, 7):
        names = range(1 << n)
        assert ordered_block_sum(n, lambda k, p: 1, lambda p, acc: acc, names, {}) \
            == fubinis[n]
        assert ordered_block_sum(n, lambda k, p: -1, lambda p, acc: acc, names, {}) \
            == signed_composition_sums(n)[n]


def test_ordered_block_sum_matches_the_chain_per_composition():
    # factors that tell every block size and every prefix mask apart
    def leaf(k, p):
        return None if k == 2 and p == 0 else F(k + 3, p + 2)

    def close(p, acc):
        return acc * F(p + 1, 5)

    for n in range(1, 6):
        expected = F(0)
        for gamma in compositions(_items(n)):
            term, prefix = F(1), 0
            for block in gamma:
                if prefix:
                    term = close(prefix, term)
                factor = leaf(len(block), prefix)
                term = 0 if factor is None else term * factor
                prefix |= sum(1 << (i - 1) for i in block)
            expected += term
        assert ordered_block_sum(n, leaf, close, range(1 << n), {}) == expected


def test_ordered_block_sum_reads_known_states_by_name():
    # factors that depend on a prefix only through its size: naming each
    # prefix by its size gives the same sum from one state per size
    calls = Counter()

    def leaf(k, p):
        calls["leaf"] += 1
        return F(k + 3, p.bit_count() + 2)

    def close(p, acc):
        calls["close"] += 1
        return acc * F(p.bit_count() + 1, 5)

    for n in range(1, 6):
        calls.clear()
        by_mask = ordered_block_sum(n, leaf, close, range(1 << n), {})
        assert calls["close"] == 2 ** n - 2
        calls.clear()
        known = {}
        by_size = ordered_block_sum(n, leaf, close, [p.bit_count() for p in range(1 << n)],
                                    known)
        assert by_size == by_mask
        assert calls["close"] == max(0, n - 1)
        assert calls["leaf"] == n * (n + 1) // 2
        # a second sum over the same dict forms nothing
        calls.clear()
        assert ordered_block_sum(n, leaf, close, [p.bit_count() for p in range(1 << n)],
                                 known) == by_mask
        assert not calls


def test_first_subset_is_smallest_then_lexicographic():
    # {1, 4} (mask 9) before {1, 2, 3} (mask 7), and {1, 4} before {2, 3} (mask 6)
    assert first_subset([7, 9, 6]) == 9
    assert positions(9) == (1, 4)
    assert first_subset([12, 10]) == 10
    assert first_subset(iter([])) is None


def test_ordered_block_sum_edges():
    assert ordered_block_sum(3, lambda k, p: None, lambda p, acc: acc, range(8), {}) is None
    with pytest.raises(ValueError, match="n >= 1"):
        ordered_block_sum(0, lambda k, p: 1, lambda p, acc: acc, range(1), {})


def test_near_singleton_family():
    got = set(near_singleton_partitions((1, 2, 3)))
    assert got == {
        ((1,), (2,), (3,)),
        ((1, 2), (3,)),
        ((1, 3), (2,)),
        ((1, 2, 3),),
    }
    # size is 2^{n-1}
    for n in range(6):
        assert sum(1 for _ in near_singleton_partitions(_items(n))) == max(1, 2 ** (n - 1))
    for sp in near_singleton_partitions(_items(5)):
        big = [b for b in sp if len(b) > 1]
        assert len(big) <= 1
        if big:
            assert 1 in big[0]


def test_signed_partition_sum_with_factorial():
    # sum over set partitions of (-1)^{n+l} l! = 1 for every n >= 1
    for n in range(1, 8):
        total = sum(sign(n, len(sp)) * math.factorial(len(sp))
                    for sp in set_partitions(_items(n)))
        assert total == 1


def test_signed_composition_sum():
    # sum over ordered set partitions of (-1)^{n+l} = 1 for every n >= 1
    for n in range(1, 8):
        total = sum(sign(n, len(c)) for c in compositions(_items(n)))
        assert total == 1


def test_composition_recurrence_matches_enumeration():
    # the first-block recurrence against the signed sum over the enumeration
    c = signed_composition_sums(7)
    for n in range(8):
        assert c[n] == sum((-1) ** len(comp) for comp in compositions(_items(n)))


def test_signed_factorial_decrement_sum():
    # sum over set partitions of (-1)^{n+l} (l-1)! = 0 for n >= 2 (and -1... at n=1 it is 1)
    assert sum(sign(1, len(sp)) * math.factorial(len(sp) - 1)
               for sp in set_partitions(_items(1))) == 1
    for n in range(2, 8):
        total = sum(sign(n, len(sp)) * math.factorial(len(sp) - 1)
                    for sp in set_partitions(_items(n)))
        assert total == 0


def test_hand_counted_n3():
    # l distribution over set partitions of 3: one l=1, three l=2, one l=3
    # (-1)^{3+l} l!: +1*... = 1 - 6 + 6 = 1; with (l-1)!: 1 - 3 + 2 = 0
    sps = list(set_partitions(_items(3)))
    by_len = sorted(len(sp) for sp in sps)
    assert by_len == [1, 2, 2, 2, 3]
    assert sum(sign(3, len(sp)) * math.factorial(len(sp)) for sp in sps) == 1
    assert sum(sign(3, len(sp)) * math.factorial(len(sp) - 1) for sp in sps) == 0


def test_stabilizer_multiplicity():
    assert stabilizer_multiplicity(((1,), (2,), (3,))) == 1
    assert stabilizer_multiplicity(((1,), (1,), (1,))) == F(1, 6)
    assert stabilizer_multiplicity(((1, 2), (1, 2), (3,))) == F(1, 2)


def exp_derivative_expansion(f_derivs, s):
    """Faa di Bruno: the s-th derivative of exp(f) over exp(f) is s! times the sum
    over {i: k_i} with sum i*k_i = s of prod_i (f^{(i)} / i!)^{k_i} / k_i!, so it
    is right exactly when the partitions of s, as Counters of their parts, list
    each such set once (`theta_odd_derivative_closed_form` sums over them).
    f_derivs[i] holds the i-th derivative of f; index 0 is unused."""
    total = F(0)
    for combo in map(Counter, partitions_of(s)):
        term = F(1)
        for i, k in combo.items():
            term *= (f_derivs[i] / math.factorial(i)) ** k / math.factorial(k)
        total += term
    return math.factorial(s) * total


def test_exp_derivative_expansion_low_orders():
    # d/dx exp(f) = f' exp(f); second: f'' + f'^2; third: f''' + 3 f'' f' + f'^3
    fd = [F(0), F(2), F(3), F(5), F(7)]  # f', f'', f''', f''''
    assert exp_derivative_expansion(fd, 0) == 1
    assert exp_derivative_expansion(fd, 1) == 2
    assert exp_derivative_expansion(fd, 2) == 3 + 4
    assert exp_derivative_expansion(fd, 3) == 5 + 3 * 3 * 2 + 8
    assert exp_derivative_expansion(fd, 4) == 7 + 4 * 5 * 2 + 3 * 9 + 6 * 3 * 4 + 16


def _exp_derivs_by_recursion(fd, s_max):
    """Oracle: E_0 = 1, E_{s+1} = E_s' + f' E_s as polynomials in a formal variable x,
    where f^{(i)}(x) is represented by its value list and differentiation shifts indices.

    Returns [E_0(pt), ..., E_{s_max}(pt)] evaluated at the point the fd values describe.
    We carry polynomials in the derivative values symbolically as dicts
    {multiindex: coeff} with multiindex = tuple of derivative orders used as factors.
    """
    one: dict[tuple[int, ...], Fraction] = {(): F(1)}

    def d_dx(poly):
        out: dict[tuple[int, ...], Fraction] = {}
        for mono, c in poly.items():
            for idx in range(len(mono)):
                key = tuple(sorted(mono[:idx] + (mono[idx] + 1,) + mono[idx + 1:]))
                out[key] = out.get(key, F(0)) + c
        return out

    def times_fprime(poly):
        out = {}
        for mono, c in poly.items():
            key = tuple(sorted(mono + (1,)))
            out[key] = out.get(key, F(0)) + c
        return out

    def evaluate(poly):
        total = F(0)
        for mono, c in poly.items():
            val = c
            for i in mono:
                val *= fd[i]
            total += val
        return total

    results = []
    cur = one
    for _ in range(s_max + 1):
        results.append(evaluate(cur))
        nxt = d_dx(cur)
        for mono, c in times_fprime(cur).items():
            nxt[mono] = nxt.get(mono, F(0)) + c
        cur = nxt
    return results


@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6),
                min_size=8, max_size=8))
@settings(max_examples=30, deadline=None)
def test_exp_derivative_expansion_matches_recursion(vals):
    fd = [F(0)] + vals
    oracle = _exp_derivs_by_recursion(fd, 6)
    for s in range(7):
        assert exp_derivative_expansion(fd, s) == oracle[s]


def test_verify_counts():
    rep = verify_counts(8)
    assert rep.ok
    assert rep.details == {"sum1": 1, "sum2": 1, "sum3": 0}
    assert verify_counts(1).details["sum3"] == 1


def test_block_counts_are_the_stirling_numbers():
    rows = block_counts(8)
    for n in range(9):
        by_blocks = Counter(len(sp) for sp in set_partitions(_items(n)))
        assert rows[n] == [by_blocks[b] for b in range(n + 1)]
    assert rows[8][3] == 966  # S(8, 3)


def test_verify_counts_at_n_40_is_fast():
    # Bell(40) is about 1.6e35 partitions; the block counts are 861 numbers
    start = time.perf_counter()
    rep = verify_counts(40)
    assert time.perf_counter() - start < 1.0
    assert rep.ok and rep.details == {"sum1": 1, "sum2": 1, "sum3": 0}


def test_verify_counts_rejects_empty_range():
    with pytest.raises(ValueError):
        verify_counts(0)
