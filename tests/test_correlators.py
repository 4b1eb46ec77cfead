"""Correlation series: brute partition sums against theta closed forms."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwedge.correlators import (
    DivisorHit,
    EvalPoint,
    FormalDivergence,
    HWeight,
    bracket_monomial_brute,
    bracket_monomial_product,
    f_brute,
    f_via_blocks,
    g_series,
    h_series,
    qgauss_product,
    qgauss_sum,
    t_series,
    t_series_via_u,
    theta_block_sum,
    u_series,
    verify_f_block_routes,
    verify_npoint,
    verify_poch_telescope,
    verify_qgauss,
)
from qwedge.qdiff import r_series
from qwedge.series import ONE, QSeries, q_pochhammer
from qwedge.setparts import compositions, near_singleton_partitions, set_partitions, sign
from qwedge.special import ThetaLattice, theta_deriv_series

F = Fraction


# -- evaluation points -------------------------------------------------------------


def test_evalpoint_rejects_divisor():
    with pytest.raises(DivisorHit) as exc:
        EvalPoint((F(2), F(1, 2)))
    assert exc.value.subset == (1, 2)
    with pytest.raises(DivisorHit) as exc:
        EvalPoint((F(1),))
    assert exc.value.subset == (1,)
    assert isinstance(exc.value, ValueError)  # callers that resample catch it
    with pytest.raises(ValueError):
        EvalPoint((F(-2),))


def test_evalpoint_names_the_smallest_divisor_subset_first():
    # {1, 4} and {2, 3} both multiply to 1, as does {1, 2, 3} at the second
    # point; the smallest, then lexicographically first, is named: a scan in
    # mask order would name (2, 3) (mask 6) and (1, 2, 3) (mask 7)
    for svals in ((2, 3, F(1, 3), F(1, 2)), (2, 3, F(1, 6), F(1, 2))):
        with pytest.raises(DivisorHit) as exc:
            EvalPoint(svals)
        assert exc.value.subset == (1, 4)
        assert str(exc.value) == "product of t over positions (1, 4) equals 1"
    # allow_full admits the full product alone
    EvalPoint((2, 3, F(1, 6)), allow_full=True)
    with pytest.raises(DivisorHit) as exc:
        EvalPoint((2, 3, F(1, 6)))
    assert exc.value.subset == (1, 2, 3)


def test_evalpoint_merged_and_permuted():
    p = EvalPoint((F(2), F(3), F(5)))
    assert p.permuted((2, 0, 1)).s == (F(5), F(2), F(3))
    merged = p.merged([(1, 2), (3,)])
    assert merged.s == (F(6), F(5))
    # the merged point's subset products are its parent's, as a fresh point forms them
    assert merged.products == EvalPoint((F(6), F(5))).products == [1, 6, 5, 30]
    assert merged == EvalPoint((F(6), F(5)))
    assert p.merged([(2,), (1, 3)]).products == EvalPoint((F(3), F(10))).products


def test_evalpoint_is_an_immutable_value():
    p = EvalPoint((2, F(3)))
    assert p == EvalPoint((F(2), F(3))) and p != EvalPoint((F(2), F(3)), allow_full=True)
    assert p != EvalPoint((F(3), F(2)))
    assert {p: 1}[EvalPoint((F(2), F(3)))] == 1
    assert hash(p) == hash(EvalPoint((2, 3)))
    with pytest.raises(AttributeError):
        p.s = (F(5),)
    with pytest.raises(AttributeError):
        p.allow_full = True
    with pytest.raises(AttributeError):
        del p.allow_full


# -- ordered index sums: the H weight against hand geometric series ----------------


def test_ordered_weight_empty_partition_one_variable():
    # sum_{i>=1} t^{1/2-i} = t^{1/2} / (t - 1); equals 2/3 at t = 4
    assert HWeight((F(2),))(()) == F(2, 3)
    assert HWeight((F(3),))(()) == F(3, 8)


def test_ordered_weight_single_row_one_variable():
    s = F(3)
    t = s * s
    expected = s + s / (t * (t - 1))
    assert HWeight((s,))((1,)) == expected


def test_ordered_weight_empty_partition_two_variables():
    s1, s2 = F(2), F(3)
    t1, t2 = s1 * s1, s2 * s2
    x, y = 1 / t1, 1 / t2
    # sum_{1<=i<j} x^i y^j = y/(1-y) * xy/(1-xy), all scaled by (t1 t2)^{1/2}
    expected = s1 * s2 * (y / (1 - y)) * (x * y / (1 - x * y))
    assert HWeight((s1, s2))(()) == expected


def test_ordered_weight_single_row_two_variables():
    s1, s2 = F(2), F(3)
    t1, t2 = s1 * s1, s2 * s2
    x, y = 1 / t1, 1 / t2
    head = s1 * (s2 / (t2 * (t2 - 1)))  # i=1 on the row of size 1
    tail = s1 * s2 * (y / (1 - y)) * ((x * y) ** 2 / (1 - x * y))  # both beyond
    assert HWeight((s1, s2))((1,)) == head + tail


def test_h_closing_is_the_geometric_tails_over_the_slot_scales():
    # suffix products of the t's on both sides of 1, so the d_m take both signs
    svals = (F(3, 2), F(5, 11), F(4, 3))
    n, order = len(svals), 6
    xs, cs = [F(1)] * (n + 1), [F(0)] * n
    for m in range(n - 1, -1, -1):
        xs[m] = xs[m + 1] / (svals[m] * svals[m])
        cs[m] = svals[m] * xs[m + 1] * (cs[m + 1] if m + 1 < n else 1) / (1 - xs[m])
    weight = HWeight(svals)
    weight.start(order)
    dens = set()
    for ell in range(order + 1):
        nums, den = weight.closing(ell)
        dens.add(den)
        for j in range(n + 1):
            tail = cs[j] * xs[j] ** (ell + 1) if j < n else F(1)
            assert F(nums[j], den) == tail / math.prod(weight.scales[:j]), (ell, j)
    assert len(dens) == 1  # one denominator for every row count


def test_h_single_variable_is_f():
    p = EvalPoint((F(2),))
    assert h_series(p, 12) == f_brute(p, 12)
    assert g_series(p, 10) == h_series(p, 10)


# -- theta closed forms ------------------------------------------------------------


def test_theta_at_four_leading_coefficient():
    th = theta_deriv_series(0, F(2), 10)
    assert th.offset == 0
    assert th.coefficient(0) == F(3, 2)


def test_f_single_point_inverts_theta():
    order = 20
    p = EvalPoint((F(2),))
    prod = f_brute(p, order) * theta_deriv_series(0, F(2), order)
    assert prod == QSeries.one(order)


def test_npoint_one_variable():
    for s in (F(2), F(3), F(5)):
        assert verify_npoint((s,), 14).ok


def test_npoint_two_variables():
    assert verify_npoint((F(2), F(3)), 10).ok


def test_npoint_three_variables():
    assert verify_npoint((F(2), F(3), F(5)), 6).ok


def test_u_two_variable_closed_form():
    order = 12
    p = EvalPoint((F(2), F(3)))
    lhs = u_series(p, order)
    th1 = theta_deriv_series(0, F(2), order)
    th2 = theta_deriv_series(0, F(3), order)
    d1 = theta_deriv_series(1, F(2), order)
    d2 = theta_deriv_series(1, F(3), order)
    th12 = theta_deriv_series(0, F(6), order)
    rhs = (d1 * th1.inv() + d2 * th2.inv()) * th12.inv()
    assert lhs == rhs


def test_t_series_matches_theta_times_u():
    p = EvalPoint((F(2), F(3)))
    assert t_series(p, 10) == t_series_via_u(p, 10)
    p3 = EvalPoint((F(2), F(3), F(5)))
    assert t_series(p3, 6) == t_series_via_u(p3, 6)


def test_t_series_with_shifts():
    p = EvalPoint((F(2), F(3)))
    for shifts in ((1, 0), (0, 1), (1, 1)):
        assert t_series(p, 8, shifts) == t_series_via_u(p, 8, shifts)


# The closed forms drop the (q)_inf^{-3} factor wherever it cancels.  These
# references keep it on every theta, so they pin the cancellation down to the
# offset and the truncation window, not only the common coefficients.


def _det(mat, order):
    """Cofactor expansion along the first column; None entries are exact zeros."""
    n = len(mat)
    if n == 1:
        return mat[0][0] if mat[0][0] is not None else QSeries.zero(order)
    total = None
    for i in range(n):
        entry = mat[i][0]
        if entry is None:
            continue
        term = entry * _det([row[1:] for r, row in enumerate(mat) if r != i], order)
        if i % 2:
            term = -term
        total = term if total is None else total + term
    return total if total is not None else QSeries.zero(order)


def _u_with_full_thetas(point, order, shifts):
    """The paper's determinant form, literally: one n x n determinant of
    Theta^{(j-i+1)}(prefix) / (j-i+1)! per ordering of the points, over the n
    prefix thetas."""
    n = point.n
    total = None
    for perm in itertools.permutations(range(n)):
        prefix_s = [point.s_prod(perm[:m]) for m in range(n + 1)]
        prefix_j = [sum(shifts[i] for i in perm[:m]) for m in range(n + 1)]
        mat = [[None if j < i - 1 else
                theta_deriv_series(j - i + 1, prefix_s[n - j], order, prefix_j[n - j])
                * F(1, math.factorial(j - i + 1))
                for j in range(1, n + 1)] for i in range(1, n + 1)]
        denom = QSeries.one(order)
        for m in range(1, n + 1):
            denom = denom * theta_deriv_series(0, prefix_s[m], order, prefix_j[m])
        term = _det(mat, order) * denom.inv()
        total = term if total is None else total + term
    return total


def _ratio_with_full_thetas(k, s, order, shift):
    return theta_deriv_series(k, s, order, shift) \
        * theta_deriv_series(0, s, order, shift).inv()


def _t_with_full_thetas(point, order, shifts):
    n = point.n
    total = QSeries.zero(order)
    for pi in set_partitions(tuple(range(1, n + 1))):
        for gamma in itertools.permutations(pi):
            if len(gamma[0]) % 2 == 0:
                continue
            term = theta_deriv_series(len(gamma[0]), F(1), order, 0)
            union = list(gamma[0])
            for block in gamma[1:]:
                s_arg = point.s_prod(i - 1 for i in union)
                j_arg = sum(shifts[i - 1] for i in union)
                term = term * _ratio_with_full_thetas(len(block), s_arg, order, j_arg)
                union.extend(block)
            total = total + (term if sign(n, len(gamma)) > 0 else -term)
    return total


def _r_with_full_thetas(point, s0, j0, order, shifts):
    n = point.n
    total = QSeries.zero(order)
    for gamma in compositions(tuple(range(1, n + 1))):
        term = None
        s_acc, j_acc = s0, j0
        for block in gamma:
            factor = _ratio_with_full_thetas(len(block), s_acc, order, j_acc)
            term = factor if term is None else term * factor
            for i in block:
                s_acc *= point.s[i - 1]
                j_acc += shifts[i - 1]
        total = total + (term if sign(n, len(gamma)) > 0 else -term)
    return total


def _same_series(a, b):
    return (a.offset, a.trunc_order, a.coeffs) == (b.offset, b.trunc_order, b.coeffs)


@pytest.mark.parametrize("n", [2, 3])
def test_closed_forms_cancel_the_euler_factor_exactly(n):
    point = EvalPoint((F(2), F(3), F(5))[:n])
    for shifts in ((1,) + (0,) * (n - 1), (0,) * (n - 1) + (2,)):
        for order in range(9):
            assert _same_series(u_series(point, order, shifts),
                                _u_with_full_thetas(point, order, shifts))
            assert _same_series(t_series(point, order, shifts),
                                _t_with_full_thetas(point, order, shifts))
            assert _same_series(r_series(point, F(7, 5), 1, order, shifts),
                                _r_with_full_thetas(point, F(7, 5), 1, order, shifts))


SHIFT_PATTERNS = (lambda n: (0,) * n, lambda n: (1,) + (0,) * (n - 1),
                  lambda n: tuple((-1) ** i * (i % 3) for i in range(n)))


def _block_sum_points(n):
    """A point, a permutation of it and its merge-with-the-first points: points
    that share prefix multisets."""
    point = EvalPoint((F(3, 2), F(5, 4), F(7, 5), F(11, 7))[:n])
    yield point
    yield point.permuted(tuple(reversed(range(n))))
    for pi in near_singleton_partitions(tuple(range(1, n + 1))):
        yield point.merged(pi)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_block_sums_on_a_shared_table_equal_fresh_ones(n):
    """The states a table keeps for one block sum serve the next exactly: each
    sum on one shared table equals, as stored, the sum on a table of its own."""
    for s0, j0 in ((ONE, 0), (F(7, 5), 1), (F(2, 9), -3)):
        for order in (0, 3):
            shared = ThetaLattice(order)
            for pattern in SHIFT_PATTERNS:
                for point in _block_sum_points(n):
                    shifts = pattern(point.n)
                    got = theta_block_sum(point, shifts, shared, s0, j0)
                    want = theta_block_sum(point, shifts, ThetaLattice(order), s0, j0)
                    assert (got.offset, got.den, got.nums) == \
                        (want.offset, want.den, want.nums), (point, shifts)
            assert shared.states


# numerators and denominators from disjoint sets of primes: no subset product of
# the s values is 1, and none is 5/7, which R_S0 would hit
NUMERATORS = (2, 3, 5, 7, 11, 13)
DENOMINATORS = (17, 19, 23, 29)
R_S0 = F(7, 5)


@st.composite
def theta_cases(draw):
    n = draw(st.integers(1, 4))
    nums = draw(st.lists(st.sampled_from(NUMERATORS), min_size=n, max_size=n,
                         unique=True))
    dens = draw(st.lists(st.sampled_from(DENOMINATORS), min_size=n, max_size=n))
    shifts = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    point = EvalPoint(tuple(F(a, b) for a, b in zip(nums, dens)))
    return point, shifts, draw(st.integers(0, 6)), draw(st.integers(0, 2))


@given(theta_cases())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_closed_forms_match_the_literal_sums_at_random_points(case):
    point, shifts, order, j0 = case
    assert _same_series(u_series(point, order, shifts),
                        _u_with_full_thetas(point, order, shifts))
    assert _same_series(t_series(point, order, shifts),
                        _t_with_full_thetas(point, order, shifts))
    assert _same_series(r_series(point, R_S0, j0, order, shifts),
                        _r_with_full_thetas(point, R_S0, j0, order, shifts))
    # the brute route, which shares nothing with the theta side
    assert f_brute(point, order) == u_series(point, order)


# -- bracket monomials: brute vs nested product ------------------------------------


def test_bracket_monomial_routes_one_index():
    p = EvalPoint((F(2),))
    for idx in ((1,), (2,), (4,)):
        brute = bracket_monomial_brute(idx, p, 12)
        prod = bracket_monomial_product(idx, p, 12)
        assert brute == prod, idx


def test_bracket_monomial_routes_two_indices():
    p = EvalPoint((F(2), F(3)))
    for idx in ((1, 2), (1, 3), (2, 5)):
        brute = bracket_monomial_brute(idx, p, 10)
        prod = bracket_monomial_product(idx, p, 10)
        assert brute == prod, idx


def test_bracket_monomial_rejects_bad_indices():
    p = EvalPoint((F(2), F(3)))
    with pytest.raises(ValueError):
        bracket_monomial_product((2, 2), p, 6)
    with pytest.raises(ValueError):
        bracket_monomial_product((0, 1), p, 6)


# -- F over set partitions ---------------------------------------------------------


def test_f_block_routes():
    assert verify_f_block_routes((F(2), F(3)), 10).ok
    assert verify_f_block_routes((F(2), F(3), F(5)), 6).ok


def test_f_via_blocks_matches_brute_directly():
    p = EvalPoint((F(2), F(5)))
    assert f_brute(p, 8) == f_via_blocks(p, 8)


# -- the basic hypergeometric sum --------------------------------------------------


def test_qgauss_generic_parameters():
    rep = verify_qgauss((F(1, 2), 1), (F(1, 3), 1), (F(1, 6), 3), order=16)
    assert rep.ok
    assert rep.order_checked == 16


def test_qgauss_terminating_numerator():
    rep = verify_qgauss((F(1), -2), (F(1, 5), 1), (F(1, 7), 2), order=14)
    assert rep.ok


def test_qgauss_terminating_with_constant_ratio():
    # z has q-exponent 0; only the terminating numerator keeps the sum finite
    rep = verify_qgauss((F(1), -1), (F(1, 2), 1), (F(1, 3), 0), order=12)
    assert rep.ok


def test_qgauss_degenerate_product_side():
    # c/a = 1 makes the product side an exact zero; the sum must cancel to zero too
    rep = verify_qgauss((F(1), 3), (F(1, 4), -1), (F(1), 3), order=12)
    assert rep.ok


def test_qgauss_divergent_raises():
    with pytest.raises(FormalDivergence):
        verify_qgauss((F(1, 2), 0), (F(1, 3), 0), (F(1, 5), 0), order=8)


def _qgauss_sum_per_term(a, b, c, order):
    """The 2-1 sum with the four Pochhammer products of each term built afresh,
    on the same working window: the reference for the term recurrence."""
    def neg_span(e):
        m = max(0, -e)
        return m * (m + 1) // 2

    def terminating(x):
        return x[0] == 1 and x[1] <= 0

    z = (c[0] / (a[0] * b[0]), c[1] - a[1] - b[1])
    work = order + sum(map(neg_span, (a[1], b[1], c[1], z[1], c[1] - a[1], c[1] - b[1])))
    if z[1] < 1:
        work += (1 - z[1]) * (2 + max(-a[1] if terminating(a) else 0,
                                      -b[1] if terminating(b) else 0))
    total = QSeries.zero(work)
    n = 0
    while True:
        low = n * z[1] + sum(min(0, a[1] + k) + min(0, b[1] + k) - min(0, c[1] + k)
                             for k in range(n))
        if low > order:
            break
        num = q_pochhammer(a[0], a[1], n, work) * q_pochhammer(b[0], b[1], n, work)
        if num.is_zero():
            break
        den = q_pochhammer(c[0], c[1], n, work) * q_pochhammer(1, 1, n, work)
        total = total + num * den.inv() * QSeries.monomial(z[0] ** n, z[1] * n, work)
        n += 1
    return total.truncate(max(0, int(order - total.offset)))


DEFAULT_QGAUSS = ((F(1, 2), 1), (F(1, 3), 1), (F(1, 6), 3))


@pytest.mark.parametrize("abc, order", [
    (DEFAULT_QGAUSS, 12), (DEFAULT_QGAUSS, 0), (DEFAULT_QGAUSS, 1),
    (DEFAULT_QGAUSS, 30), (DEFAULT_QGAUSS, 60),
    (((F(1), -2), (F(1, 5), 1), (F(1, 7), 2)), 14),  # terminating numerator
    (((F(1), -2), (F(1, 3), 1), (F(1, 6), -1)), 12),  # and c at q^-1, z at q^0
])
def test_qgauss_term_recurrence_matches_per_term_products(abc, order):
    got = qgauss_sum(*abc, order)
    want = _qgauss_sum_per_term(*abc, order)
    assert (got.offset, got.nums, got.den) == (want.offset, want.nums, want.den)
    assert got == qgauss_product(*abc, order)


# -- the telescoping Pochhammer sum ------------------------------------------------


def test_poch_telescope_even_grid():
    rep = verify_poch_telescope((F(1, 2), 0), F(1, 3), 1, a=0, b=4, order=12)
    assert rep.ok


def test_poch_telescope_half_integer_grid():
    rep = verify_poch_telescope((F(1, 5), 0), F(2), 0, a=1, b=5, order=12)
    assert rep.ok


def test_poch_telescope_negative_start():
    rep = verify_poch_telescope((F(1, 2), 3), F(1, 2), 1, a=-2, b=2, order=10)
    assert rep.ok


def test_poch_telescope_boundary_is_zero():
    rep = verify_poch_telescope((F(1, 3), 0), F(1, 2), 1, a=2, b=3, order=10)
    assert rep.ok
