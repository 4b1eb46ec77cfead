"""Difference equations, residues, and vanishing checks for correlation series.

Two kinds of evidence.  Exact: a q-shift of one variable is absorbed into the
theta factors as an exponent shift and both sides are compared coefficientwise.
Numeric: the partition sums are evaluated at a fixed 0 < q0 < 1 with the
truncation error bounded by the drift between two cutoffs; a check passes when
the two sides agree within a small multiple of the accumulated drift.

All arithmetic is exact rational; q0 must be a square so that half powers stay
in the field.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .correlators import (
    EvalPoint,
    FWeight,
    HWeight,
    block_products,
    close_u,
    t_series,
    theta_block_sum,
)
from .partitions import RowWeight, slot_table
from .reports import Report, pairs_report, series_report
from .series import ONE, ZERO, QSeries, rational_sqrt
from .setparts import (
    first_subset,
    near_singleton_partitions,
    positions,
    sign,
    stabilizer_multiplicity,
    subset_fold,
)
from .special import ThetaLattice, ThetaValues

F = Fraction

RESIDUE_EPS = (F(1, 100), F(1, 1000))  # approach distances of `verify_residue`
RESIDUE_TOL = F(1, 25)  # its relative tolerance
PHI_EPS = (F(1, 10), F(1, 100))  # approach distances of `verify_phi_vanish`
PHI_RATIO_BOUND = F(1, 5)  # the decay it asks between them


class DivergentPoint(ValueError):
    """Some subset product of the t values falls outside (q0, 1/q0), so the
    partition sum cannot stabilize at this point."""

    def __init__(self, subset: tuple[int, ...], product: Fraction):
        self.subset = subset
        self.product = product
        super().__init__(
            f"product of t over positions {subset} is {product}, outside the "
            "open interval (q0, 1/q0)")


class SimpleZeroViolated(ValueError):
    """The supplied odd function fails f(1) = 0 or f'(1) != 0."""


def _sqrt_or_raise(q0: Fraction) -> Fraction:
    r = rational_sqrt(q0)
    if r is None:
        raise ValueError(f"q0 = {q0} must be a square of a rational")
    return r


def check_convergent(svals: tuple[Fraction, ...], q0: Fraction) -> None:
    """Every nonempty subset product of the t's must lie strictly inside
    (q0, 1/q0); otherwise the coefficient growth beats the q0 powers.  The
    products come from one `subset_fold`, and the subset named is the
    smallest offending one, first in lexicographic order among those.
    """
    prods = subset_fold(tuple(s * s for s in svals), ONE, operator.mul)
    top = 1 / q0
    hit = first_subset(p for p in range(1, len(prods)) if not q0 < prods[p] < top)
    if hit is not None:
        raise DivergentPoint(positions(hit), prods[hit])


def _bracket_numeric(weight: RowWeight, q0: Fraction,
                     cutoffs: tuple[int, int]) -> tuple[Fraction, Fraction]:
    """(value, drift): sum weight(lam) * q0^|lam| over partitions up to the larger
    cutoff, times the Euler product cut there; drift is the movement since the
    smaller cutoff and serves as the truncation error estimate.

    With q0 = u/w, the slot vectors of each row-count column of `slot_table`
    are folded with u^s w^{hi - s} over their sizes s, those up to lo and those
    past it apart, so each column closes with two dot products instead of one
    per state.  The sums and the product are integers over den w^hi and
    w^{hi(hi+1)/2}; one Fraction is formed for each result.
    """
    lo, hi = min(cutoffs), max(cutoffs)
    if not 0 <= lo < hi:
        raise ValueError(f"cutoffs {list(cutoffs)} need 0 <= lower < upper")
    cols, closings, den = slot_table(weight, hi)
    u, w = q0.numerator, q0.denominator
    scales = [u ** s * w ** (hi - s) for s in range(hi + 1)]
    head = tail = 0
    for col, cl in zip(cols, closings):
        low = [0] * weight.slots  # sizes 0..lo, then lo+1..hi
        high = [0] * weight.slots
        for s, vec in enumerate(col):
            if vec is not None:
                acc, scale = high if s > lo else low, scales[s]
                for k, x in enumerate(vec):
                    if x:
                        acc[k] += x * scale
        head += sum(x * c for x, c in zip(low, cl) if x)
        tail += sum(x * c for x, c in zip(high, cl) if x)
    euler = math.prod(w ** m - u ** m for m in range(1, hi + 1))
    den *= w ** (hi + hi * (hi + 1) // 2)
    return F(euler * (head + tail), den), F(abs(euler) * abs(tail), den)


def _point_numeric(weight, svals, q0, cutoffs) -> tuple[Fraction, Fraction]:
    """(value, drift) of the q0-bracket of the row weight `weight(svals)`."""
    svals = tuple(F(x) for x in svals)
    q0 = F(q0)
    check_convergent(svals, q0)
    return _bracket_numeric(weight(svals), q0, cutoffs)


def f_numeric(svals: tuple[Fraction, ...], q0: Fraction,
              cutoffs: tuple[int, int] = (25, 30)) -> tuple[Fraction, Fraction]:
    """Numeric value of the full correlation sum F at t_k = svals[k]^2."""
    return _point_numeric(FWeight, svals, q0, cutoffs)


def h_numeric(svals: tuple[Fraction, ...], q0: Fraction,
              cutoffs: tuple[int, int] = (25, 30)) -> tuple[Fraction, Fraction]:
    """Numeric value of the strictly-increasing-index sum H."""
    return _point_numeric(HWeight, svals, q0, cutoffs)


def _merge_first(n: int):
    """(sign(n, |pi|), pi) over the merge-with-the-first set partitions pi of
    {1..n}: the expansion that a q-shift of the first variable produces."""
    for pi in near_singleton_partitions(tuple(range(1, n + 1))):
        yield sign(n, len(pi)), pi


def _numeric_report(identity: str, statement: str, params: dict, lhs, terms) -> Report:
    """A numeric difference equation lhs = sum of coef * value over the terms
    (coef, (value, drift)), with lhs a (value, drift) too.  It passes when the
    two sides differ by at most 3 times the drift of both, each term's drift
    weighted by |coef|: a heuristic bound, not a proven one."""
    value, drift = lhs
    rhs = sum(c * v for c, (v, _) in terms)
    bound = 3 * (drift + sum(abs(c) * e for c, (_, e) in terms))
    diff = abs(value - rhs)
    return Report(identity, statement, params, "pass" if diff <= bound else "fail",
                  tolerance_info={"difference": float(diff), "bound": float(bound),
                                  "lhs": float(value), "rhs": float(rhs),
                                  "bound_kind": "heuristic"})


def verify_diffeq_f(s_values, q0, cutoffs: tuple[int, int] = (25, 30)) -> Report:
    """Shifting the first variable by q0 re-expands F over merge-with-the-first
    set partitions, up to the common prefactor -q0^{1/2} t_1..t_n.
    """
    statement = ("the full correlation sum with the first variable q-shifted equals "
                 "its signed expansion over merge-with-the-first set partitions")
    svals = tuple(F(x) for x in s_values)
    q0 = F(q0)
    root = _sqrt_or_raise(q0)
    params = {"s": list(svals), "q0": q0, "cutoffs": list(cutoffs)}
    lhs = f_numeric((root * svals[0],) + svals[1:], q0, cutoffs)
    pref = root * math.prod(s * s for s in svals)
    terms = [(-pref * sgn, f_numeric(block_products(svals, pi), q0, cutoffs))
             for sgn, pi in _merge_first(len(svals))]
    return _numeric_report("diffeq-f", statement, params, lhs, terms)


def verify_diffeq_h(s_values, q0, k: int,
                    cutoffs: tuple[int, int] = (25, 30)) -> Report:
    """Shifting variable k of H by q0 produces the three-term recursion that
    merges k with a neighbor; the edge positions drop one term each.
    """
    statement = ("the ordered-index sum with variable k q-shifted satisfies the "
                 "three-term neighbor-merging recursion")
    svals = tuple(F(x) for x in s_values)
    q0 = F(q0)
    root = _sqrt_or_raise(q0)
    n = len(svals)
    if not 1 <= k <= n:
        raise ValueError(f"k must be between 1 and {n}")
    params = {"s": list(svals), "q0": q0, "k": k, "cutoffs": list(cutoffs)}
    lhs = h_numeric(svals[:k - 1] + (root * svals[k - 1],) + svals[k:], q0, cutoffs)
    terms = [(-root * math.prod(s * s for s in svals), h_numeric(svals, q0, cutoffs))]
    qtk = q0 * svals[k - 1] ** 2
    if k < n:  # k merged with k + 1
        merged = svals[:k - 1] + (root * svals[k - 1] * svals[k],) + svals[k + 1:]
        terms.append((qtk / (1 - qtk), h_numeric(merged, q0, cutoffs)))
    if k > 1:  # k - 1 merged with k
        merged = svals[:k - 2] + (root * svals[k - 2] * svals[k - 1],) + svals[k:]
        terms.append((-1 / (1 - qtk), h_numeric(merged, q0, cutoffs)))
    return _numeric_report("diffeq-h", statement, params, lhs, terms)


# -- exact difference equations through the theta factors ---------------------------


def _merged_block_sum(point: EvalPoint, lattice: ThetaLattice, s0: Fraction,
                      j0: int) -> QSeries:
    """The signed sum of `theta_block_sum` at t_0 = s0^2 q^{j0} over the points
    `_merge_first` merges from the point's positions, all unshifted."""
    terms = []
    for sgn, pi in _merge_first(point.n):
        merged = point.merged(pi)
        term = theta_block_sum(merged, (0,) * merged.n, lattice, s0, j0)
        terms.append(term if sgn > 0 else -term)
    return QSeries.sum_of(terms)


def verify_diffeq_t(s_values, order: int) -> Report:
    """Both theta-side series satisfy the same merge-with-the-first expansion,
    exactly: the block series without prefactor, the determinant series with
    -q^{1/2} t_1..t_n.  The two differ only in how they close the same block
    sum (`theta_block_sum`): each side's signed block sums are added first,
    then compared as they are (the (q)_inf^{-3} that `t_series` multiplies
    both sides by cancels) and closed as `u_series` closes them, since every
    merged point has the product t_1..t_n.  The block sums share one
    `ThetaLattice` and so every prefix state that their points have in common.
    """
    statement = ("q-shifting the first variable expands both theta-side series over "
                 "merge-with-the-first set partitions, exactly, coefficient by "
                 "coefficient")
    point = EvalPoint(tuple(F(x) for x in s_values))
    n = point.n
    params = {"s": list(point.s), "order": order}
    shifts = (1,) + (0,) * (n - 1)
    zeros = (0,) * n
    lattice = ThetaLattice(order)
    lhs = theta_block_sum(point, shifts, lattice)
    rhs = _merged_block_sum(point, lattice, ONE, 0)
    tfull = point.products[-1] ** 2
    rhs_u = QSeries.monomial(-tfull, F(1, 2), order) * close_u(rhs, point, zeros, lattice)
    return pairs_report("diffeq-t", statement, params, [
        ({"series": "block"}, lhs, rhs),
        ({"series": "determinant"}, close_u(lhs, point, shifts, lattice), rhs_u)])


def r_series(point: EvalPoint, s0: Fraction, j0: int, order: int,
             shifts: tuple[int, ...] | None = None,
             lattice: ThetaLattice | None = None) -> QSeries:
    """The composition sum of invariant theta-derivative ratios with an auxiliary
    variable t_0 = s0^2 q^{j0} joined to every prefix product:

        sum over ordered set partitions (B_1, ..., B_l) of (-1)^{n + l}
          prod_k Theta^{(|B_k|)}(t_0 t_P) / Theta(t_0 t_P),  P = B_1 u ... u B_{k-1}.

    The block factor is (-1)^{|B|-1} times the ratio at t_0 t_P; every ratio
    is one of lattice sums, since (q)_inf^{-3} cancels in it.  As one subset DP
    (`theta_block_sum` at t_0) it divides by Theta(t_0 t_P) once per prefix P,
    the empty prefix at the end.  Where s0 s_P = 1 that Theta vanishes at
    every shift, so such a proper prefix is rejected up front; the full
    product is never inverted and may be 1.
    """
    n = point.n
    if shifts is None:
        shifts = (0,) * n
    s0 = F(s0)
    # a merged point's prefixes are among its parent's, so checking the
    # parent's covers them; s0 = 0 is the lattice sums' to reject
    target = 1 / s0 if s0 else None
    for p, s in enumerate(point.products[:-1]):
        if s == target:
            raise ValueError(f"the spectator s0 = {s0} times s over positions "
                             f"{positions(p)} is 1, so Theta(t0 t_P) there has no "
                             "inverse")
    if lattice is None:
        lattice = ThetaLattice(order)
    return lattice.divide(theta_block_sum(point, shifts, lattice, s0, j0), s0, j0)


def verify_r_diffeq(s_values, s0, j0: int, order: int) -> Report:
    """The auxiliary-variable composition series obeys the same
    merge-with-the-first expansion as the correlation sums.  Every term of the
    expansion ends with Theta(t_0)^{-1}, so the right side adds the merged
    points' block sums first and divides once; the block sums share one
    `ThetaLattice` with the left side's `r_series`."""
    statement = ("the composition series with an auxiliary spectator variable "
                 "re-expands over merge-with-the-first set partitions under a "
                 "q-shift of the first variable")
    point = EvalPoint(tuple(F(x) for x in s_values))
    n = point.n
    s0 = F(s0)
    params = {"s": list(point.s), "s0": s0, "j0": j0, "order": order}
    shifts = (1,) + (0,) * (n - 1)
    lattice = ThetaLattice(order)
    lhs = r_series(point, s0, j0, order, shifts, lattice)
    rhs = lattice.divide(_merged_block_sum(point, lattice, s0, j0), s0, j0)
    return series_report("r-diffeq", statement, params, lhs, rhs)


def verify_t_vanish(s_values, order: int) -> Report:
    """When the product of all t's is exactly 1 (and n > 1), the block series
    vanishes identically."""
    statement = ("the block series is identically zero whenever the product of all "
                 "arguments equals one")
    svals = tuple(F(x) for x in s_values)
    if len(svals) < 2:
        raise ValueError("need at least two variables")
    if math.prod(svals) != 1:
        raise ValueError("the product of the s values must be exactly 1")
    point = EvalPoint(svals, allow_full=True)
    params = {"s": list(svals), "order": order}
    lhs = t_series(point, order)
    return series_report("t-vanish", statement, params, lhs, QSeries.zero(order))


# -- the cyclic rational-function identity ------------------------------------------


def _poch_value(c: Fraction, start: int, length: int, q0: Fraction) -> Fraction:
    """(c q^start; q)_length at q0, which must not vanish: it divides a chain."""
    out = math.prod((1 - c * q0 ** (start + j) for j in range(length)), start=ONE)
    if out == 0:
        raise ValueError(f"q0 = {q0} is a pole of the chain: the Pochhammer factor "
                         f"({c} q^{start}; q)_{length} vanishes")
    return out


def _chain_value(ivec: tuple[int, ...], tvals: tuple[Fraction, ...],
                 q0: Fraction, m: int) -> Fraction:
    """1 / [(q)_{i_1 - 1} (q^{i_1} T_1)_{i_2 - i_1} ... (q^{i_k} T_1..T_k)_{m - i_k}]."""
    k = len(ivec)
    den = _poch_value(ONE, 1, ivec[0] - 1, q0)
    prefix = ONE
    for r in range(1, k):
        prefix *= tvals[r - 1]
        den *= _poch_value(prefix, ivec[r - 1], ivec[r] - ivec[r - 1], q0)
    prefix *= tvals[k - 1]
    den *= _poch_value(prefix, ivec[k - 1], m - ivec[k - 1], q0)
    return 1 / den


def verify_cyclic_identity(m: int, k: int, q0=F(1, 4)) -> Report:
    """On the divisor q0^m t_1..t_k = 1, the cyclic sum of stabilizer-weighted
    Pochhammer chains is the constant m^{k-1}/(k-1)!; with half-power numerators
    it picks up the factor (-1)^{m-1} q0^{m^2/2}.
    """
    statement = ("cyclic sums of stabilizer-weighted Pochhammer chains on the "
                 "q-shifted unit-product divisor collapse to explicit constants")
    if m < 1 or k < 1:
        raise ValueError(f"m = {m}, k = {k}: the cyclic identity needs m >= 1 and k >= 1")
    q0 = F(q0)
    if q0 <= 0 or q0 == 1:
        raise ValueError(f"q0 = {q0}: the cyclic identity needs q0 > 0 and q0 != 1 "
                         "(q0 = 1 makes (q)_j vanish, q0 = 0 puts t_k at infinity)")
    root = _sqrt_or_raise(q0)
    odd_primes = [3, 5, 7, 11, 13, 17, 19, 23]
    if k - 1 > len(odd_primes):
        raise ValueError("k too large for the built-in point")
    svals = [F(p) for p in odd_primes[:k - 1]]
    last = root ** (-m)
    for s in svals:
        last /= s
    svals.append(last)
    svals = tuple(svals)
    params = {"m": m, "k": k, "q0": q0, "s": list(svals)}

    plain = ZERO
    half = ZERO
    for c in range(k):
        t_rot = tuple(svals[(c + j) % k] ** 2 for j in range(k))
        s_rot = tuple(svals[(c + j) % k] for j in range(k))
        for ivec in itertools.combinations_with_replacement(range(1, m + 1), k):
            w = stabilizer_multiplicity(ivec) * _chain_value(ivec, t_rot, q0, m)
            plain += w
            numer = math.prod(s ** (1 - 2 * i) for s, i in zip(s_rot, ivec))
            half += numer * w
    expect_plain = F(m ** (k - 1), math.factorial(k - 1))
    expect_half = (-1) ** (m - 1) * root ** (m * m) * expect_plain
    ok = plain == expect_plain and half == expect_half
    return Report("cyclic-identity", statement, params,
                  "pass" if ok else "fail",
                  details={"unweighted": str(plain), "half_power": str(half),
                           "expected_unweighted": str(expect_plain),
                           "expected_half_power": str(expect_half)})


# -- residues at the shifted unit-product divisors ----------------------------------


def _u_value(svals: tuple[Fraction, ...], table: ThetaValues) -> Fraction:
    """U at t_k = svals[k]^2 as `u_series` forms it; the factor cancels in U."""
    if not svals:
        return ONE
    point = EvalPoint(svals)
    zeros = (0,) * point.n
    return close_u(theta_block_sum(point, zeros, table), point, zeros, table)


def verify_residue(n: int, k: int, m: int, q0=F(1, 16), terms: int = 60) -> Report:
    """Near the divisor q0^m t_1..t_k = 1 the correlation value has a simple pole
    whose residue is an explicit constant times the value on the remaining
    variables.  Approach along t -> (1+eps)^2 for eps in `RESIDUE_EPS`,
    extrapolate linearly to 0 and compare within `RESIDUE_TOL`, relative.
    """
    statement = ("the residue at a q-shifted unit-product divisor equals an explicit "
                 "constant times the correlation value in the remaining variables")
    q0 = F(q0)
    root = _sqrt_or_raise(q0)
    if not 1 <= k <= n <= 2:
        raise ValueError("implemented for n <= 2 and 1 <= k <= n")
    if m == 0 and k >= 2:
        raise ValueError(f"m = 0 with k = {k}: the expected residue m^(k-1) is 0, "
                         "so no relative tolerance applies")
    table = ThetaValues(q0, terms)
    rest = (F(3),) * (n - k)
    params = {"n": n, "k": k, "m": m, "q0": q0, "terms": terms,
              "eps": list(RESIDUE_EPS), "tol": RESIDUE_TOL}

    def g_at(eps: Fraction) -> tuple[Fraction, Fraction]:
        # sqrt of q0^{-m} (1+eps)^2 over the others
        s1 = root ** (-m) * (1 + eps) / 3 ** (k - 1)
        svals = (s1,) + (F(3),) * (k - 1) + rest
        delta = (1 + eps) ** 2 - 1
        return delta, delta * _u_value(svals, table)

    (d1, g1), (d2, g2) = map(g_at, RESIDUE_EPS)
    estimate = (d1 * g2 - d2 * g1) / (d1 - d2)
    rest_val = _u_value(rest, table)
    rest_prod = math.prod((s * s for s in rest), start=ONE)
    sign = -1 if m % 2 else 1
    expected = sign * root ** (m * m) * m ** (k - 1) * rest_val / rest_prod ** m
    diff = abs(estimate - expected)
    bound = RESIDUE_TOL * abs(expected)
    return Report("residue", statement, params,
                  "pass" if diff <= bound else "fail",
                  tolerance_info={"estimate": float(estimate),
                                  "expected": float(expected),
                                  "relative_error": float(diff / abs(expected)),
                                  "tolerance": float(RESIDUE_TOL),
                                  "bound_kind": "heuristic"})


# -- the odd-function vanishing sum --------------------------------------------------


def phi_sum(table, svals: tuple[Fraction, ...]) -> Fraction:
    """Composition sum of invariant-derivative ratios of an odd function f:

        sum over ordered set partitions (B_1, ..., B_l), |B_1| odd, of
          (-1)^l f^{(|B_1|)}(1) prod_{k >= 2} f^{(|B_k|)}(x_P) / f(x_P),

    x_P the product of t over P = B_1 u ... u B_{k-1}; table.sum(k, s, 0) is
    (x d/dx)^k f and table.divide(y, s, 0) is y/f, at x = s^2.  It is (-1)^n
    `theta_block_sum`: each block's -1 here is (-1)^{|B|} times its sign
    (-1)^{|B|-1} there, and the even first blocks skipped there have
    f^{(|B|)}(1) = 0.  The product of all t may be 1, no other subset product.
    """
    point = EvalPoint(svals, allow_full=True)
    block = theta_block_sum(point, (0,) * point.n, table)
    return -block if point.n % 2 else block


def require_simple_zero(table, tiny: Fraction) -> None:
    """f = table.factor * table.sum(0, ., 0) must vanish at 1 (up to the numeric
    floor `tiny`) with f'(1) != 0."""
    if abs(table.factor * table.sum(0, ONE, 0)) > tiny:
        raise SimpleZeroViolated("f(1) is not zero")
    if abs(table.factor * table.sum(1, ONE, 0)) <= tiny:
        raise SimpleZeroViolated("f'(1) vanishes; the zero at 1 is not simple")


class _AlgebraicOdd:
    """The `phi_sum` table of f(x) = (x^{1/2} - x^{-1/2}) + (x^{3/2} - x^{-3/2})/7,
    exact and with no q.  A single half-power term is the q -> 0 limit of the
    theta factor and makes the whole sum collapse identically, hiding the decay.
    """

    factor = 1

    def __init__(self):
        self.states: dict = {}

    def sum(self, k: int, s: Fraction, shift: int = 0) -> Fraction:
        return (F(1, 2) ** k * (s - (-1) ** k / s)
                + F(1, 7) * F(3, 2) ** k * (s ** 3 - (-1) ** k / s ** 3))

    def divide(self, x: Fraction, s: Fraction, shift: int) -> Fraction:
        return x / self.sum(0, s, shift)


def phi_table(f_kind: str, q0: Fraction, terms: int):
    """The table of f: f and (x d/dx)^m f are table.factor times
    table.sum(m, ., 0), bare lattice sums of one `ThetaValues` for the theta
    kind.  Each chain of `phi_sum` has one more derivative than division, so
    the sum for f is table.factor * phi_sum(table, .)."""
    if f_kind == "algebraic":
        return _AlgebraicOdd()
    if f_kind == "theta":
        return ThetaValues(q0, terms)
    raise ValueError(f"unknown function kind {f_kind!r}")


def locus_point(n: int, eps: Fraction) -> tuple[Fraction, ...]:
    """n arguments multiplying to exactly 1: 1 + eps first, then the middles
    2, 3, 5 as far as n needs them, then the last that closes the product."""
    middles = (F(2), F(3), F(5))
    if n < 2:
        raise ValueError("need at least two variables")
    if n > 2 + len(middles):
        raise ValueError(f"n = {n}: the built-in point has at most "
                         f"{2 + len(middles)} variables")
    first = 1 + F(eps)
    last = 1 / first
    for s in middles[: n - 2]:
        last /= s
    return (first,) + middles[: n - 2] + (last,)


def verify_phi_vanish(f_kind: str, n: int, q0=F(1, 16), terms: int = 40) -> Report:
    """With all arguments multiplying to 1, the composition sum tends to zero as
    the first argument approaches 1; verified by the decay between the two
    approach distances `PHI_EPS`.
    """
    statement = ("the odd-function composition sum on the unit-product locus decays "
                 "to zero as the first argument approaches one")
    q0 = F(q0)
    points = [locus_point(n, e) for e in PHI_EPS]
    table = phi_table(f_kind, q0, terms)
    # the theta values are truncated at `terms` factors; the algebraic ones are exact
    floor = q0 ** terms if f_kind == "theta" else ZERO
    require_simple_zero(table, floor)
    params = {"f": f_kind, "n": n, "eps": list(PHI_EPS),
              "ratio_bound": PHI_RATIO_BOUND}
    if f_kind == "theta":
        params["q0"] = q0
        params["terms"] = terms

    values = [table.factor * phi_sum(table, p) for p in points]
    if values[0] == 0 and f_kind == "algebraic":
        # at n = 2 the two chains cancel, as f(1/x) = -f(x): zero at every
        # distance, with nothing to decay
        raise ValueError(f"n = {n}: the algebraic composition sum is exactly 0 at "
                         f"eps = {PHI_EPS[0]}, so no decay can be checked")
    # when the sum vanishes identically on the locus (the theta instance does)
    # only truncation dust remains; accept anything under the floor
    ok = (abs(values[1]) <= PHI_RATIO_BOUND * abs(values[0])
          or (abs(values[0]) <= floor and abs(values[1]) <= floor))
    return Report("phi-vanish", statement, params,
                  "pass" if ok else "fail",
                  tolerance_info={"wide": float(values[0]),
                                  "narrow": float(values[1]),
                                  "ratio_bound": float(PHI_RATIO_BOUND),
                                  "bound_kind": "heuristic"})
