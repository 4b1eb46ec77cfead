"""Multipoint correlation series over partitions and their theta closed forms.

Points are tuples of exact square roots s_k; the actual arguments are t_k = s_k^2,
so half-integer powers of the t's stay rational.  The brute route computes q-brackets
by summing row weights over partitions (`partitions.partition_sums`); the closed
route assembles determinants of invariant theta derivatives.  The two must agree, and every verifier here compares routes
rather than trusting either one.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .partitions import RowWeight, Step, eps_closing, eps_row, q_bracket
from .reports import FrozenRecord, Report, series_report
from .series import ONE, QSeries, euler_product, q_pochhammer
from .setparts import (first_subset, ordered_block_sum, positions, set_partitions,
                       subset_fold)
from .special import ThetaLattice

F = Fraction


class DivisorHit(ValueError):
    """A subset product of the t's equals 1, putting the point on the theta divisor."""

    def __init__(self, subset: tuple[int, ...]):
        self.subset = subset
        super().__init__(f"product of t over positions {subset} equals 1")


class EvalPoint(FrozenRecord):
    """n positive rationals s_k with t_k = s_k^2; no subset product of t's may be 1.

    allow_full admits points where the product over ALL variables is 1 (proper
    subsets are still checked); the symmetrized series are finite there.
    `products[mask]` is the product of s over the positions of mask, from one
    `subset_fold`: the divisor check and the theta block sums read it, and a
    merged point takes its products from its parent's.
    """

    __slots__ = ("s", "allow_full", "products")

    def __init__(self, s: tuple[Fraction, ...], allow_full: bool = False):
        s = tuple(F(x) for x in s)
        for x in s:
            if x <= 0:
                raise ValueError("square roots must be positive; pass |s|")
        products = subset_fold(s, ONE, operator.mul)
        top = len(products) - 1 if allow_full else len(products)
        hit = first_subset(p for p in range(1, top) if products[p] == 1)
        if hit is not None:
            raise DivisorHit(positions(hit))
        self._set(s=s, allow_full=allow_full, products=products)

    def _fields(self) -> tuple:
        return (self.s, self.allow_full)  # the products follow from s

    @property
    def n(self) -> int:
        return len(self.s)

    def permuted(self, perm) -> EvalPoint:
        return EvalPoint(tuple(self.s[i] for i in perm), self.allow_full)

    def merged(self, blocks) -> EvalPoint:
        """One s per block: the product of the block's s values (1-indexed
        blocks, disjoint).  A subset of the blocks stands for the union of
        their positions, so its product is one of this point's, already
        checked."""
        unions = subset_fold(tuple(sum(1 << (i - 1) for i in b) for b in blocks),
                             0, operator.or_)
        products = [self.products[u] for u in unions]
        point = object.__new__(EvalPoint)
        point._set(s=tuple(products[1 << k] for k in range(len(blocks))),
                   allow_full=self.allow_full, products=products)
        return point

    def s_prod(self, positions) -> Fraction:
        return math.prod((self.s[i] for i in positions), start=ONE)


def block_products(svals: tuple[Fraction, ...], blocks) -> tuple[Fraction, ...]:
    """The product of svals over each block of 1-indexed positions."""
    return tuple(math.prod(svals[i - 1] for i in b) for b in blocks)


# -- q-brackets of index monomials: brute and product form -----------------------


class _PointWeight(RowWeight):
    """A row weight at a point s_k = a_k / b_k that places at most one factor
    s_k^e per variable in a slot, e = 2(v - i) + 1.  At order N every row
    exponent lies in [3 - 2N, 2N - 1], so with M = 2N - 1 the factor is held as
    the integer s_k^e (a_k b_k)^M = a_k^{M + e} b_k^{M - e}: a slot holding the
    variables of a set carries the product of their `scales` (a_k b_k)^M.
    Each exponent's factors are computed once per order.
    """

    def __init__(self, svals: tuple[Fraction, ...]):
        self.svals = tuple(F(x) for x in svals)
        self.start(0)

    def start(self, order: int) -> None:
        self.span = max(2 * order - 1, 0)
        self.scales = [(s.numerator * s.denominator) ** self.span for s in self.svals]
        self._pow: dict[int, list[int]] = {}

    def powers(self, e: int) -> list[int]:
        p = self._pow.get(e)
        if p is None:
            m = self.span
            p = self._pow[e] = [s.numerator ** (m + e) * s.denominator ** (m - e)
                                for s in self.svals]
        return p


class IndexWeight(_PointWeight):
    """prod_k t_k^{lambda_{i_k} - i_k + 1/2} for fixed row indices i_k >= 1;
    an index past the last row sees lambda = 0, which the closing applies.  The
    one slot carries the scales of the indices placed so far, so the closing of
    ell rows divides by those of the indices up to ell."""

    def __init__(self, idx: tuple[int, ...], svals: tuple[Fraction, ...]):
        if any(i < 1 for i in idx):
            raise ValueError("row indices start at 1")
        super().__init__(svals)
        self.idx = tuple(idx)
        self.by_row: dict[int, list[int]] = {}
        for k, i in enumerate(self.idx):
            self.by_row.setdefault(i, []).append(k)

    def row(self, v: int, i: int) -> list[Step]:
        if i not in self.by_row:
            return []
        p = self.powers(2 * (v - i) + 1)
        # times w: the slot gains w - 1 times itself
        return [(0, 0, math.prod(p[k] for k in self.by_row[i]) - 1)]

    def closing(self, ell: int) -> tuple[list[int], int]:
        num, den = 1, 1
        for k, i in enumerate(self.idx):
            if i > ell:
                w = self.svals[k] ** (1 - 2 * i)
                num, den = num * w.numerator, den * w.denominator
            else:
                den *= self.scales[k]
        return [num], den


def bracket_monomial_brute(idx: tuple[int, ...], point: EvalPoint, order: int) -> QSeries:
    """<prod_k t_k^{lambda_{i_k} - i_k + 1/2}> as a sum over partitions."""
    return q_bracket(IndexWeight(idx, point.s), order)


def bracket_monomial_product(idx: tuple[int, ...], point: EvalPoint, order: int) -> QSeries:
    """Same bracket via the nested Pochhammer product:

    (q)_inf * prod_k t_k^{1/2 - i_k} /
      [(q)_{i_1 - 1} * prod_{k>=2} (q^{i_{k-1}} t_1..t_{k-1})_{i_k - i_{k-1}}
       * (q^{i_r} t_1..t_r)_inf]
    """
    r = len(idx)
    if any(b <= a for a, b in zip(idx, idx[1:])) or idx[0] < 1:
        raise ValueError("indices must be strictly increasing and start at 1 or later")
    num = euler_product(order)
    scalar = math.prod(point.s[k] ** (1 - 2 * i) for k, i in enumerate(idx))
    denom = q_pochhammer(ONE, 1, idx[0] - 1, order)
    for k in range(1, r):
        c = point.s_prod(range(k)) ** 2
        denom = denom * q_pochhammer(c, idx[k - 1], idx[k] - idx[k - 1], order)
    c_all = point.s_prod(range(r)) ** 2
    denom = denom * q_pochhammer(c_all, idx[-1], None, order)
    return (scalar * num) / denom


# -- ordered, symmetrized, and full correlation series ---------------------------


class HWeight(_PointWeight):
    """sum over 1 <= i_1 < ... < i_n of prod_k t_k^{lambda_{i_k} - i_k + 1/2}.

    Slot j sums the placements of the first j indices among the rows so far; a
    row of value v takes the next index (factor s_j^{2(v - i) + 1}) or none.
    The closing of slot j adds the geometric sum over the indices past the last
    row, c_j x_j^{ell + 1} with x_j = prod_{m >= j} t_m^{-1} and
    c_j = prod_{m >= j} s_m x_{m+1} / (1 - x_m).
    """

    def __init__(self, svals: tuple[Fraction, ...]):
        super().__init__(svals)
        n = len(self.svals)
        self.slots = n + 1
        # with s_m = a_m/b_m and suffix products A_m = a_m ... a_{n-1}, B_m likewise,
        # 1 - x_m = d_m / A_m^2 for d_m = A_m^2 - B_m^2, and each factor of c_j is
        # a_m^3 B_{m+1}^2 / (b_m d_m)
        self.diffs, self.b_after = [0] * n, [0] * n  # d_m, B_{m+1}^2
        big_a = big_b = 1
        for m in range(n - 1, -1, -1):
            self.b_after[m] = big_b * big_b
            big_a *= self.svals[m].numerator
            big_b *= self.svals[m].denominator
            self.diffs[m] = big_a * big_a - big_b * big_b
            if self.diffs[m] == 0:  # x_m = 1
                raise DivisorHit(tuple(range(m + 1, n + 1)))

    def row(self, v: int, i: int) -> list[Step]:
        return [(j, j + 1, p) for j, p in enumerate(self.powers(2 * (v - i) + 1))][::-1]

    def closing(self, ell: int) -> tuple[list[int], int]:
        # slot j over its scale g_0 ... g_{j-1}: c_j x_j^{ell+1} g_j ... g_{n-1}
        # = prod_{m >= j} a_m^{M+1-2 ell} b_m^{M+1+2 ell} B_{m+1}^2 / d_m, an integer
        # over the d_m (ell <= order, so M + 1 - 2 ell >= 0); over the common
        # denominator g_0 ... g_{n-1} |d_0 ... d_{n-1}| it takes |d_0 ... d_{j-1}|
        lo, hi = self.span + 1 - 2 * ell, self.span + 1 + 2 * ell
        tails, tail = [1], 1  # from the last slot down
        for s, b2, d in zip(reversed(self.svals), reversed(self.b_after),
                            reversed(self.diffs)):
            tail *= s.numerator ** lo * s.denominator ** hi * b2
            if d < 0:
                tail = -tail
            tails.append(tail)
        tails.reverse()
        out, head = [], 1  # head = |d_0 ... d_{j-1}|
        for t, d in zip(tails, self.diffs + [1]):
            out.append(t * head)
            head *= abs(d)
        return out, math.prod(self.scales) * head


def h_series(point: EvalPoint, order: int) -> QSeries:
    """H(t_1..t_n): the bracket of the strictly-increasing index sum."""
    if point.n == 0:
        return QSeries.one(order)
    return q_bracket(HWeight(point.s), order)


def g_series(point: EvalPoint, order: int) -> QSeries:
    """G = sum over permutations of H."""
    return QSeries.sum_of([h_series(point.permuted(perm), order)
                           for perm in itertools.permutations(range(point.n))])


class FWeight(_PointWeight):
    """prod_k t_k^{1/2} (sum_{i <= ell} t_k^{lambda_i - i} + t_k^{-ell} / (t_k - 1))
    in Q[eps_1..eps_n]/(eps_k^2): row i of value v multiplies by
    prod_k (1 + s_k^{2(v - i) + 1} eps_k), and the closing applies
    prod_k (1 + s_k^{1 - 2 ell} / (t_k - 1) eps_k) and takes the eps_1..eps_n
    coefficient.
    """

    def __init__(self, svals: tuple[Fraction, ...]):
        super().__init__(svals)
        for k, s in enumerate(self.svals, 1):
            if s == 1:  # t_k = 1: the closing divides by t_k - 1
                raise DivisorHit((k,))
        self.slots = 1 << len(self.svals)

    def row(self, v: int, i: int) -> list[Step]:
        return eps_row(self.powers(2 * (v - i) + 1))

    def closing(self, ell: int) -> tuple[list[int], int]:
        # with s = a/b, factor k over g_k |a^2 - b^2|: eps_k's 1/g_k is |a^2 - b^2|,
        # and s^{1 - 2 ell}/(t - 1) is a^{M + 1 - 2 ell} b^{M + 1 + 2 ell} up to the
        # sign of a^2 - b^2 (ell <= order, so M + 1 - 2 ell >= 0)
        m = self.span
        inside, outside, den = [], [], 1
        for s, g in zip(self.svals, self.scales):
            a, b = s.numerator, s.denominator
            d = a * a - b * b
            tail = a ** (m + 1 - 2 * ell) * b ** (m + 1 + 2 * ell)
            inside.append(abs(d))
            outside.append(tail if d > 0 else -tail)
            den *= g * abs(d)
        return eps_closing(inside, outside), den


def f_brute(point: EvalPoint, order: int) -> QSeries:
    """F as a bare q-bracket of the partition weights."""
    return q_bracket(FWeight(point.s), order)


def f_via_blocks(point: EvalPoint, order: int) -> QSeries:
    """Second route: F = sum over set partitions pi of G evaluated at the
    blockwise products.
    """
    items = tuple(range(1, point.n + 1))
    return QSeries.sum_of([g_series(point.merged(pi), order)
                           for pi in set_partitions(items)])


# -- theta closed forms ------------------------------------------------------------


def theta_block_sum(point: EvalPoint, shifts: tuple[int, ...], lattice: ThetaLattice,
                    s0: Fraction = ONE, j0: int = 0) -> QSeries:
    """Sum over ordered set partitions (B_1, ..., B_r) of {1..n} of

        prod_k (-1)^{|B_k| - 1} lattice_{|B_k|}(t_0 t_{P_{k-1}})
          * prod_{0 < k < r} lattice_0(t_0 t_{P_k})^{-1},

    P_k = B_1 u ... u B_k and t_0 = s0^2 q^{j0}; t_P carries the shifts of P.
    Any table with the `sum`, `divide` and `states` of `ThetaLattice` serves,
    such as a `ThetaValues` of numbers at one q0.  One DP over subset masks
    (`setparts.ordered_block_sum`): the block factor lattice_{|B|} is formed
    once per prefix P and size |B|, and each prefix's sum is divided by
    lattice_0 once.  No division is made at the empty or the full prefix,
    where the argument may be 1.  An even-size first block at argument 1 is
    skipped, since Theta^{(k)}(1) vanishes for even k.

    A prefix state is symmetric in the (s, shift) of its positions, so it is
    named by their multiset with (s0, j0) and kept in `lattice.states`: the
    sums of one check over points that share such a multiset, as a point and
    its merged points do, form each state and each product with a leaf once.
    """
    if s0 == 1:
        s_of = point.products
    else:
        s_of = [s0 * x for x in point.products]
    j_of = subset_fold(tuple(shifts), j0, operator.add)
    anchor = (s0.numerator, s0.denominator, j0)
    atoms = tuple((s.numerator, s.denominator, j) for s, j in zip(point.s, shifts))
    names = [(anchor, m) for m in subset_fold(atoms, (), _joined)]

    def leaf(k: int, p: int) -> QSeries | None:
        if k % 2 == 0 and j_of[p] == 0 and s_of[p] == 1:
            return None
        term = lattice.sum(k, s_of[p], j_of[p])
        return term if k % 2 else -term

    def close(p: int, acc: QSeries) -> QSeries:
        return lattice.divide(acc, s_of[p], j_of[p])

    return ordered_block_sum(point.n, leaf, close, names, lattice.states)


def _joined(multiset: tuple, atom: tuple) -> tuple:
    """The sorted tuple `multiset` with `atom` added."""
    return tuple(sorted(multiset + (atom,)))


def close_u(block: QSeries, point: EvalPoint, shifts: tuple[int, ...],
            lattice: ThetaLattice) -> QSeries:
    """U from the point's `theta_block_sum`: over Theta(t_1..t_n), whose
    (q)_inf^{-3} cancels against the block factors'."""
    return lattice.divide(block, point.products[-1], sum(shifts))


def u_series(point: EvalPoint, order: int,
             shifts: tuple[int, ...] | None = None) -> QSeries:
    """The determinant closed form for F.

    The paper's form sums, over the orderings of the points, an n x n
    determinant of theta derivatives Theta^{(j-i+1)}(prefix product) / (j-i+1)!
    divided by the n prefix thetas.  The matrix is upper Hessenberg; its
    subdiagonal Theta(prefix) entries cancel all but one denominator per
    interval block, and the |B|! orderings inside a block cancel the 1/|B|!.
    What remains is a sum over ordered set partitions with the block factor
    (-1)^{|B|-1} Theta^{(|B|)}(t_P) / Theta(t_{P u B}), P the union before the
    block: `theta_block_sum` closed with Theta(t_1..t_n)^{-1}.  Each term holds
    n theta factors above and below, so (q)_inf^{-3} cancels and all are
    lattice sums.

    shifts[k] multiplies t_k by q^{shifts[k]}, which the theta factors absorb as
    exponent shifts.
    """
    n = point.n
    if shifts is None:
        shifts = (0,) * n
    if n == 0:
        return QSeries.one(order)
    lattice = ThetaLattice(order)
    return close_u(theta_block_sum(point, shifts, lattice), point, shifts, lattice)


# -- verifiers ---------------------------------------------------------------------


def verify_npoint(s_values: tuple[Fraction, ...], order: int) -> Report:
    """Brute-force partition sums match the theta determinant for F."""
    statement = ("the n-point correlation series equals its determinant of "
                 "invariant theta derivatives")
    point = EvalPoint(tuple(F(x) for x in s_values))
    lhs = f_brute(point, order)
    rhs = u_series(point, order)
    return series_report("npoint", statement,
                         {"s": list(point.s), "order": order}, lhs, rhs)


def verify_f_block_routes(s_values: tuple[Fraction, ...], order: int) -> Report:
    """The bare bracket for F equals its expansion over set partitions of H-sums."""
    statement = ("the full correlation bracket decomposes over set partitions of "
                 "ordered-index sums")
    point = EvalPoint(tuple(F(x) for x in s_values))
    lhs = f_brute(point, order)
    rhs = f_via_blocks(point, order)
    return series_report("f-blocks", statement,
                         {"s": list(point.s), "order": order}, lhs, rhs)


class FormalDivergence(ValueError):
    """The hypergeometric ratio has non-positive valuation, so the sum never
    stabilizes coefficientwise."""


Monomial = tuple[Fraction, int]  # (coefficient, q-exponent)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return (a[0] * b[0], a[1] + b[1])


def _mono_div(a: Monomial, b: Monomial) -> Monomial:
    return (a[0] / b[0], a[1] - b[1])


def _neg_span(expo: int) -> int:
    """How far below q^0 a Pochhammer product starting at q^expo reaches:
    its factors q^expo, ..., q^{-1} add up to exponent -m(m+1)/2, m = -expo."""
    m = max(0, -expo)
    return m * (m + 1) // 2


def _is_terminating(mono: Monomial) -> bool:
    """(x)_n vanishes for large n iff x = q^{-k} with k >= 0."""
    return mono[0] == 1 and mono[1] <= 0


def _qgauss_window(a: Monomial, b: Monomial, c: Monomial, order: int) -> int:
    """The working order of both sides of `verify_qgauss`: negative-exponent
    Pochhammer factors eat into the valid window, so both work higher."""
    if order < 0:
        raise ValueError(f"order {order} is negative; the check needs order >= 0")
    z = _mono_div(c, _mono_mul(a, b))
    work = order + _neg_span(a[1]) + _neg_span(b[1]) + _neg_span(c[1]) \
        + _neg_span(z[1]) + _neg_span(c[1] - a[1]) + _neg_span(c[1] - b[1])
    if z[1] < 1:
        terms_bound = 2 + max(-a[1] if _is_terminating(a) else 0,
                              -b[1] if _is_terminating(b) else 0)
        work += (1 - z[1]) * terms_bound
    return work


def qgauss_sum(a: Monomial, b: Monomial, c: Monomial, order: int) -> QSeries:
    """sum_n (a)_n (b)_n / ((c)_n (q)_n) * z^n, z = c/ab, for monomials (coefficient,
    q-exponent), with the coefficients up to q^order.

    Term n is term n - 1 times (1 - a q^{n-1})(1 - b q^{n-1}) z / ((1 - c q^{n-1})
    (1 - q^n)): four one-factor Pochhammer products per term, the two in the
    denominator each the two-term divisor of one long division.  The sum stops at the first
    term that starts above q^order, or at the first zero term, after which a
    terminating numerator keeps every term zero.
    """
    z = _mono_div(c, _mono_mul(a, b))
    if z[1] < 1 and not (_is_terminating(a) or _is_terminating(b)):
        raise FormalDivergence(
            f"ratio c/(ab) has q-exponent {z[1]} < 1 and neither numerator terminates")
    work = _qgauss_window(a, b, c, order)
    term = QSeries.one(work)
    terms = [term]
    low, n = 0, 1  # low: the offset of term n
    while True:
        e = n - 1
        low += z[1] + min(0, a[1] + e) + min(0, b[1] + e) - min(0, c[1] + e)
        if low > order:
            break
        term = term * q_pochhammer(a[0], a[1] + e, 1, work) \
            * q_pochhammer(b[0], b[1] + e, 1, work)
        if term.is_zero():
            break  # a numerator terminated; all later terms vanish too
        term = term / q_pochhammer(c[0], c[1] + e, 1, work) \
            / q_pochhammer(ONE, n, 1, work)
        term = (term * z[0]).shift(z[1])
        terms.append(term)
        n += 1
    total = QSeries.sum_of(terms)
    # the term loop only guarantees coefficients up to `order`; cut the padding
    return total.truncate(max(0, int(order - total.offset)))


def qgauss_product(a: Monomial, b: Monomial, c: Monomial, order: int) -> QSeries:
    """(c/a)_inf (c/b)_inf / ((c)_inf (c/ab)_inf) with the coefficients up to q^order."""
    work = _qgauss_window(a, b, c, order)
    z = _mono_div(c, _mono_mul(a, b))
    num = q_pochhammer(*_mono_div(c, a), None, work) \
        * q_pochhammer(*_mono_div(c, b), None, work)
    den = q_pochhammer(*c, None, work) * q_pochhammer(*z, None, work)
    total = num / den
    return total.truncate(max(0, int(order - total.offset)))


def verify_qgauss(a: Monomial, b: Monomial, c: Monomial, order: int) -> Report:
    """The basic hypergeometric 2-1 sum against its infinite-product value:

    sum_n (a)_n (b)_n / ((c)_n (q)_n) * (c/ab)^n
        = (c/a)_inf (c/b)_inf / ((c)_inf (c/ab)_inf).

    The sum (`qgauss_sum`) and the product (`qgauss_product`) share no factor.
    """
    statement = ("the balanced 2-1 basic hypergeometric sum telescopes to a ratio "
                 "of four infinite products")
    a = (F(a[0]), int(a[1]))
    b = (F(b[0]), int(b[1]))
    c = (F(c[0]), int(c[1]))
    params = {"a": list(a), "b": list(b), "c": list(c), "order": order}
    lhs = qgauss_sum(a, b, c, order)
    rhs = qgauss_product(a, b, c, order)
    return series_report("qgauss", statement, params, lhs, rhs,
                         order_checked=min(order, int(min(lhs.upper, rhs.upper))))


def verify_poch_telescope(u: Monomial, v_root: Fraction, v_exp: int,
                          a: int, b: int, order: int) -> Report:
    """The finite telescoping sum behind the H difference equation:

    sum_{a<i<b} (qv)^{1/2-i} / [(q^a u)_{i-a} (q^i u v)_{b-i}]
      = [ (qv)^{3/2-b} / (q^a u)_{b-a-1} - (qv)^{1/2-a} / (q^{a+1} u v)_{b-a-1} ]
        / (1 - qv),
    with v = v_root^2 q^{v_exp} so half powers of qv stay exact.
    """
    statement = ("shifted Pochhammer reciprocals telescope into a two-term "
                 "difference over the full index range")
    u = (F(u[0]), int(u[1]))
    v_root = F(v_root)
    params = {"u": list(u), "v_root": v_root, "v_exp": v_exp, "a": a, "b": b,
              "order": order}
    if b <= a:
        raise ValueError("need a < b")
    if order < 0:
        raise ValueError(f"order {order} is negative; the check needs order >= 0")
    uv: Monomial = (u[0] * v_root * v_root, u[1] + v_exp)

    # monomial prefactors reach far below q^0; widen the window so every term
    # still covers exponents up to `order`
    extremes = [(1 + v_exp) * (1 - 2 * i) for i in range(a, b + 1)]
    extremes += [(1 + v_exp) * (3 - 2 * b), (1 + v_exp) * (1 - 2 * a)]
    work = order + max(0, max(-min(extremes) // 2 + 1, 0)) \
        + _neg_span(u[1] + a) + _neg_span(uv[1] + a + 1)

    def qv_half_power(two_e: int) -> QSeries:
        # (q v)^{two_e / 2} = v_root^{two_e} q^{(1 + v_exp) two_e / 2}
        return QSeries.monomial(v_root ** two_e, F((1 + v_exp) * two_e, 2), work)

    # the shifted zero sets the window when the range a < i < b is empty
    empty = QSeries.zero(work).shift(F((1 + v_exp) * (1 - 2 * (a + 1)), 2))
    lhs = QSeries.sum_of([empty] + [
        qv_half_power(1 - 2 * i) / (q_pochhammer(u[0], u[1] + a, i - a, work)
                                    * q_pochhammer(uv[0], uv[1] + i, b - i, work))
        for i in range(a + 1, b)])
    d1 = q_pochhammer(u[0], u[1] + a, b - a - 1, work)
    d2 = q_pochhammer(uv[0], uv[1] + a + 1, b - a - 1, work)
    bracket = qv_half_power(3 - 2 * b) / d1 - qv_half_power(1 - 2 * a) / d2
    rhs = bracket / q_pochhammer(v_root * v_root, 1 + v_exp, 1, work)
    return series_report("poch-telescope", statement, params, lhs, rhs,
                         order_checked=min(order, int(min(lhs.upper, rhs.upper))))
