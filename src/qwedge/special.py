"""Named series and constants: Bernoulli numbers, the zeta/xi ladder of special
values, eta, Eisenstein series, and the odd Jacobi theta with its invariant
derivatives.

All theta machinery works at multiplicative points x = s^2 * q^shift with s an exact
positive rational, so every series coefficient stays a Fraction.  The square root
x^{1/2} always means the positive branch s * q^{shift/2}.

Theta is a lattice sum times (q)_inf^{-3}, the `factor` of the table that holds
the sums: `ThetaLattice` as q-series, `ThetaValues` as numbers at one q0.  The
theta closed forms (correlators, qdiff) are ratios in which that factor
cancels, so they are assembled from the lattice sums and apply it at most once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .reports import Report, pairs_report, series_report
from .series import (ONE, ZERO, QSeries, SeriesError, euler_product, q_pochhammer,
                     rational_sqrt)

F = Fraction


@lru_cache(maxsize=None)
def bernoulli(m: int) -> Fraction:
    """B_m with B_1 = -1/2."""
    if m < 0:
        raise ValueError("negative index")
    if m == 0:
        return ONE
    # recurrence sum_{k=0}^{m} C(m+1,k) B_k = 0
    s = ZERO
    for k in range(m):
        s += math.comb(m + 1, k) * bernoulli(k)
    return -s / (m + 1)


def bernoulli_poly_at(m: int, x: Fraction) -> Fraction:
    """B_m(x) = sum_k C(m,k) B_k x^{m-k}."""
    return sum((math.comb(m, k) * bernoulli(k) * x ** (m - k) for k in range(m + 1)),
               start=ZERO)


def zeta_value(s: int) -> Fraction:
    """zeta at non-positive integers: zeta(0) = -1/2, zeta(1-m) = -B_m/m for m >= 2."""
    if s > 0:
        raise ValueError("only non-positive integer arguments are rational")
    if s == 0:
        return F(-1, 2)
    m = 1 - s
    return -bernoulli(m) / m


def xi_value(s: int) -> Fraction:
    """xi(s) = (2^s - 1) zeta(s) at non-positive integers; xi(0) = 0."""
    if s > 0:
        raise ValueError("only non-positive integer arguments are rational")
    return (F(1, 2 ** (-s)) - 1) * zeta_value(s) if s else ZERO


def xi_value_via_half_bernoulli(s: int) -> Fraction:
    """Independent route: xi(1-m) = -B_m(1/2)/m."""
    if s > 0:
        raise ValueError("only non-positive integer arguments are rational")
    m = 1 - s
    return -bernoulli_poly_at(m, F(1, 2)) / m


def xi_generating_series(order: int) -> QSeries:
    """-sum_n xi(-n) u^n / n!, the series the xi special values generate."""
    if order < 0:
        raise ValueError(f"order {order} is negative; the xi series needs order >= 0")
    return QSeries.from_coeffs(
        [-xi_value(-n) / math.factorial(n) for n in range(order + 1)])


def eta(order: int) -> QSeries:
    """q^{1/24} prod (1 - q^m), offset 1/24."""
    return euler_product(order).shift(F(1, 24))


def divisor_power_sum(n: int, r: int) -> int:
    return sum(d ** r for d in range(1, n + 1) if n % d == 0)


# Per-order constants, formed once per process and shared like `euler_product`'s:
# G_k by (k, order), G2^a G4^b G6^c by ((a, b, c), order), (q)_inf^{-3} by order.
_BY_ORDER: dict = {}


def eisenstein_g(k: int, order: int) -> QSeries:
    """G_k = -B_k/(2k) + sum_n sigma_{k-1}(n) q^n for even k >= 2."""
    found = _BY_ORDER.get((k, order))
    if found is None:
        if k < 2 or k % 2:
            raise ValueError("weight must be even and at least 2")
        coeffs = [-bernoulli(k) / (2 * k)]
        coeffs += [F(divisor_power_sum(n, k - 1)) for n in range(1, order + 1)]
        found = _BY_ORDER[k, order] = QSeries.from_coeffs(coeffs)
    return found


def eisenstein_monomial(abc: tuple[int, int, int], order: int) -> QSeries:
    """G2^a G4^b G6^c for abc = (a, b, c): one product of a generator with the
    monomial one degree lower, so the monomials of one order share factors."""
    found = _BY_ORDER.get((abc, order))
    if found is None:
        a, b, c = abc
        if a:
            k, lower = 2, (a - 1, b, c)
        elif b:
            k, lower = 4, (0, b - 1, c)
        elif c:
            k, lower = 6, (0, 0, c - 1)
        else:
            return _BY_ORDER.setdefault((abc, order), QSeries.one(order))
        gk = eisenstein_g(k, order)
        found = gk if lower == (0, 0, 0) else eisenstein_monomial(lower, order) * gk
        _BY_ORDER[abc, order] = found
    return found


def theta00(order: int) -> QSeries:
    """Jacobi's theta_3 in the nome, sum_n q^{n^2}."""
    coeffs = [ZERO] * (order + 1)
    coeffs[0] = ONE
    n = 1
    while n * n <= order:
        coeffs[n * n] = F(2)
        n += 1
    return QSeries(ZERO, coeffs)


# -- the odd theta function and its invariant derivatives ------------------------

def _lattice_walk(s: Fraction, lo: int, hi: int) -> tuple[list[int], int]:
    """The signed s-parts of the lattice terms n = lo..hi and their denominator:
    s^{2n+1} = a^{m+e_neg} b^{e_pos-m} / (a^e_neg b^e_pos) with s = a/b, m = 2n+1
    and e_neg, e_pos bounding -m and m over the n, the numerator taken with
    sign (-1)^n.  The parts run as one product over n ascending: times a^2
    and over b^2 per step.
    """
    a, b = s.numerator, s.denominator
    e_neg, e_pos = max(0, -(2 * lo + 1)), max(0, 2 * hi + 1)
    a2, b2 = a * a, b * b
    part = a ** (2 * lo + 1 + e_neg) * b ** (e_pos - 2 * lo - 1)
    parts = []
    for n in range(lo, hi + 1):
        parts.append(-part if n % 2 else part)
        if n < hi:
            part = part * a2 // b2
    return parts, a ** e_neg * b ** e_pos


class _ThetaTable:
    """The lattice sums lattice_k = sum_n (-1)^n (n+1/2)^k x^{n+1/2} q^{n(n+1)/2}
    at x = s^2 q^shift, each formed on first use and kept by (k, s, shift).
    The lattice is walked once per (s, shift), and every k at that argument is
    read from the walk as one dot product.  s enters the keys as its numerator
    and denominator, which hash faster than the Fraction.  Theta itself is
    `factor` times lattice_0, and `divide` divides by lattice_0 directly: no
    inverse is formed or kept.

    `states` keeps the prefix states and their products with a block factor
    that `correlators.theta_block_sum` forms on this table, by the multiset of
    the prefix's arguments, so the block sums of one check share them.

    A layout supplies `_walk(s, shift)` and `_read(walk, k)`, and may extend
    `divide(x, s, shift)` with the arguments it must reject.
    """

    def __init__(self):
        self._walks: dict[tuple, tuple] = {}
        self._sums: dict[tuple, object] = {}
        self.states: dict = {}

    def sum(self, k: int, s: Fraction, shift: int = 0):
        key = (k, s.numerator, s.denominator, shift)
        found = self._sums.get(key)
        if found is None:
            if k < 0:
                raise ValueError(f"derivative order k = {k} is negative; (x d/dx)^k "
                                 "Theta needs k >= 0")
            walk = self._walks.get(key[1:])
            if walk is None:
                if s <= 0:
                    raise ValueError("s must be a positive rational")
                walk = self._walks[key[1:]] = self._walk(s, shift)
            found = self._sums[key] = self._read(walk, k)
        return found

    def divide(self, x, s: Fraction, shift: int):
        """x / lattice_0 at s^2 q^shift, which is x / Theta there times `factor`."""
        return x / self.sum(0, s, shift)


def euler_inverse_cube(order: int) -> QSeries:
    """(q)_inf^{-3} to `order`, the `factor` of every `ThetaLattice` at that
    order, formed once per process."""
    found = _BY_ORDER.get(order)
    if found is None:
        found = _BY_ORDER[order] = euler_product(order).inv() ** 3
    return found


class ThetaLattice(_ThetaTable):
    """The lattice sums as q-series valid to relative `order`, and `factor`,
    `euler_inverse_cube(order)`.  Only O(sqrt(order)) coefficients of a sum
    are nonzero.  The sums depend on the points, so they stay one table per
    call: one per closed-form evaluation, or one per verifier call for the
    evaluations it compares; it holds them only as long as they keep it.
    """

    def __init__(self, order: int):
        super().__init__()
        self.order = order

    @property
    def factor(self) -> QSeries:
        return euler_inverse_cube(self.order)

    def _walk(self, s: Fraction, shift: int) -> tuple[list, int, Fraction]:
        """Triples (slot, 2n+1, signed s-part) and the s-parts' denominator and
        the offset of slot 0.  With i = n + shift the positive branch
        x^{n+1/2} = s^{2n+1} q^{shift(n+1/2)} puts term n at twice the
        q-exponent i(i+1) - shift^2, so the terms kept are i = -h-1..h, term i
        in slot i(i+1)/2, over the offset -shift^2/2."""
        if self.order < 0:
            raise ValueError(f"order {self.order} is negative; a theta series "
                             "needs order >= 0")
        h = (math.isqrt(8 * self.order + 1) - 1) // 2
        parts, den = _lattice_walk(s, -h - 1 - shift, h - shift)
        terms = [(i * (i + 1) // 2, 2 * (i - shift) + 1, part)
                 for i, part in zip(range(-h - 1, h + 1), parts)]
        return terms, den, F(-shift * shift, 2)

    def _read(self, walk: tuple[list, int, Fraction], k: int) -> QSeries:
        terms, den, offset = walk
        nums = [0] * (self.order + 1)
        for slot, m, part in terms:
            nums[slot] += m ** k * part
        return QSeries.from_nums(nums, 2 ** k * den, offset)


def theta_deriv_series(k: int, s: Fraction, order: int, shift: int = 0) -> QSeries:
    """(x d/dx)^k Theta at x = s^2 q^shift, as a q-series valid to relative `order`.

    Theta(x) = (q)_inf^{-3} sum_n (-1)^n q^{n(n+1)/2} x^{n+1/2}; the derivative
    inserts (n+1/2)^k into the lattice sum (`ThetaLattice.sum`).
    """
    lattice = ThetaLattice(order)
    return lattice.sum(k, F(s), shift) * lattice.factor


def lattice_product_series(s: Fraction, order: int, shift: int = 0) -> QSeries:
    """The lattice sum lattice_0 at x = s^2 q^shift in Jacobi's triple-product
    form, valid to relative `order`: (q)_inf (x^{1/2} - x^{-1/2}) (x q; q)_inf
    (q / x; q)_inf, with x^{1/2} = s q^{shift/2}.  Each factor holds `order`
    slots past its offset, and the offsets add up to the lattice sum's
    -shift^2/2.
    """
    s = F(s)
    if s <= 0:
        raise ValueError("s must be a positive rational")
    roots = QSeries.sum_of([QSeries.monomial(s, F(shift, 2), order),
                            QSeries.monomial(-1 / s, F(-shift, 2), order)])
    a = q_pochhammer(s * s, shift + 1, None, order)
    b = q_pochhammer(1 / (s * s), 1 - shift, None, order)
    return euler_product(order) * roots * a * b


class ThetaValues(_ThetaTable):
    """The lattice sums as exact numbers for one rational 0 < q0 < 1, cut to
    |n| <= `terms`, and the one factor (q0; q0)_terms^{-3} they share; a ratio
    of values is one of lattice sums.  The cut Euler product sets the error: a
    value is off by a relative 3 q0^{terms+1} or so, while the lattice tail is
    only O(q0^{terms^2/2}).

    s^2 q0^shift = (s q0^{shift/2})^2, so every walk runs at shift 0, where
    the powers q0^{n(n+1)/2} are taken over w^{T(T+1)/2} (q0 = u/w,
    T = `terms`) and formed once per table; an odd shift needs a rational
    q0^{1/2}.  All of it depends on q0, so create one per verifier call.
    """

    def __init__(self, q0: Fraction, terms: int):
        super().__init__()
        q0 = F(q0)
        if not 0 < q0 < 1:
            raise ValueError(f"q0 = {q0} is outside (0, 1), where the theta "
                             "lattice sum and the Euler product converge")
        if terms < 1:
            raise ValueError(f"terms = {terms} cuts the lattice sum and the Euler "
                             "product to nothing; need terms >= 1")
        self.q0, self.terms = q0, terms
        u, w = q0.numerator, q0.denominator
        top = terms * (terms + 1) // 2
        euler = math.prod(w ** m - u ** m for m in range(1, terms + 1))
        self.factor = F(w ** (3 * top), euler ** 3)
        # u^e w^{top-e} for e = n(n+1)/2, n = -terms..terms; n and -n-1 share e
        powers = [u ** e * w ** (top - e)
                  for e in (i * (i + 1) // 2 for i in range(terms + 1))]
        self._q_parts = powers[:terms][::-1] + powers
        self._q_den = w ** top

    def _walk(self, s: Fraction, shift: int) -> tuple[list, int]:
        """The pairs (2n+1, signed integer term) and their denominator without 2^k."""
        if shift % 2:
            root = rational_sqrt(self.q0)
            if root is None:
                raise SeriesError(f"{self.q0} has no rational square root for the "
                                  f"half-integer exponents of shift {shift}")
            s = s * root ** shift
        else:
            s = s * self.q0 ** (shift // 2)
        parts, den = _lattice_walk(s, -self.terms, self.terms)
        pairs = [(2 * n + 1, part * q_part) for n, part, q_part
                 in zip(range(-self.terms, self.terms + 1), parts, self._q_parts)]
        return pairs, den * self._q_den

    def _read(self, walk: tuple[list, int], k: int) -> Fraction:
        return F(sum(m ** k * t for m, t in walk[0]), 2 ** k * walk[1])

    def divide(self, x: Fraction, s: Fraction, shift: int) -> Fraction:
        """Theta vanishes wherever s^2 q0^shift is an integer power of q0, and a
        truncated sum there is only the cut's error, so such an s is rejected
        with a ValueError naming the power."""
        j = _power_of(s * s, self.q0)
        if j is not None:
            raise ValueError(f"s = {s} puts Theta on a zero: s^2 = q0^{j} with "
                             f"q0 = {self.q0}, so the value has no inverse")
        return super().divide(x, s, shift)


def _power_of(t: Fraction, q0: Fraction) -> int | None:
    """The integer j with t = q0^j, or None; 0 < q0 < 1 and t > 0."""
    if t == 1:
        return 0
    u, w = q0.numerator, q0.denominator  # w >= 2
    top, other = (t.denominator, t.numerator) if t < 1 else (t.numerator, t.denominator)
    if top % w:
        return None
    j, power = 1, w
    while power < top:
        j, power = j + 1, power * w
    if power != top or other != u ** j:
        return None
    return j if t < 1 else -j


def theta_odd_derivative_closed_forms(m_max: int, order: int) -> list[QSeries]:
    """For m = 0..m_max, (2m+1)! times the w^{2m} coefficient E_m of
    exp(sum_{i>=1} a_i w^{2i}), a_i = -2 G_{2i} / (2i)!, which equals the
    (2m+1)-st invariant theta derivative at x = 1.  The coefficients of the
    exponential obey E_0 = 1 and j E_j = sum_{i=1..j} i a_i E_{j-i}, so each
    E_j is formed once from the lower ones; the G_{2i} are `eisenstein_g`'s,
    formed once per order and process."""
    a = [None] + [eisenstein_g(2 * i, order) * F(-2, math.factorial(2 * i))
                  for i in range(1, m_max + 1)]
    E = [QSeries.one(order)]
    for j in range(1, m_max + 1):
        E.append(QSeries.sum_of([a[i] * E[j - i] * F(i, j) for i in range(1, j + 1)]))
    return [math.factorial(2 * m + 1) * e for m, e in enumerate(E)]


# -- identity verifiers -----------------------------------------------------------

def verify_theta_derivs(m_values=(1, 2, 3), order: int = 30) -> Report:
    """Invariant odd theta derivatives at 1 match their Eisenstein closed forms.

    One `ThetaLattice` serves all the m compared, and the closed forms up to
    the largest m come from one recurrence; the G_k and the factor
    (q)_inf^{-3} are the per-order constants, formed once per process.
    """
    statement = ("odd invariant derivatives of the theta function at x=1 equal "
                 "explicit polynomials in Eisenstein series")
    lattice = ThetaLattice(order)
    # the lattice sums go first: they reject a negative order or m, naming it
    lhs = [lattice.sum(2 * m + 1, ONE, 0) * lattice.factor for m in m_values]
    closed = theta_odd_derivative_closed_forms(max(m_values, default=0), order)
    pairs = [({"m": m}, x, closed[m]) for m, x in zip(m_values, lhs)]
    return pairs_report("theta-derivs", statement,
                        {"m_values": list(m_values), "order": order}, pairs, order)


def verify_theta_diffeq(m: int = 2, s: Fraction = F(3, 2), shift: int = 0,
                        order: int = 24) -> Report:
    """Theta(q^m x) = (-1)^m q^{-m^2/2} x^{-m} Theta(x) at x = s^2 q^shift,
    by two routes: the left side is the lattice sum at shift + m, the right
    side its triple-product form at shift (`lattice_product_series`).  The
    (q)_inf^{-3} of Theta is the same on both sides and cancels, so neither
    side forms it.  Both sides start at q^{-(shift+m)^2/2}, so both are formed
    that much past `order` (rounded up) and the check runs through q^order."""
    statement = "theta satisfies its first-order multiplicative difference equation"
    if m == 0:
        raise ValueError("m = 0 makes the difference equation Theta(x) = Theta(x)")
    if order < 0:
        raise ValueError(f"order {order} is negative; a theta series needs order >= 0")
    s = F(s)
    if s == 1:
        raise ValueError(f"s = 1 puts x = q^{shift} and q^m x on zeros of Theta, so "
                         "both sides are identically zero")
    work = order + ((shift + m) ** 2 + 1) // 2
    lhs = ThetaLattice(work).sum(0, s, shift + m)
    rhs = lattice_product_series(s, work, shift).shift(-F(m * m, 2) - shift * m)
    rhs = (-1 if m % 2 else 1) * s ** (-2 * m) * rhs
    return series_report("theta-diffeq", statement,
                         {"m": m, "s": s, "shift": shift, "order": order}, lhs, rhs)


def verify_xi_generating(order: int = 20) -> Report:
    """-sum_n xi(-n) u^n / n! = 1/(2 sinh(u/2)) - 1/u as a series in u."""
    statement = ("the xi special values are generated by the reciprocal of "
                 "2*sinh(u/2), with the pole removed")
    lhs = xi_generating_series(order)
    # 2 sinh(u/2) = u * A(u), A = sum u^{2k} / (4^k (2k+1)!)
    acoeffs = [ZERO] * (order + 2)
    for k in range(0, (order + 2) // 2 + 1):
        if 2 * k <= order + 1:
            acoeffs[2 * k] = F(1, 4 ** k * math.factorial(2 * k + 1))
    a = QSeries.from_coeffs(acoeffs)
    rhs = (a.inv() - QSeries.one(order + 1)).shift(-1)
    return series_report("xi-generating", statement, {"order": order}, lhs, rhs,
                         order_checked=order)


def verify_xi_binomial(n_max: int = 12) -> Report:
    """sum_{i=1}^{n-1} (-1)^i C(n,i) xi(i-n) = (-1)^{n+1}/(n+1) + (-1)^n/2^n, n >= 2."""
    statement = ("alternating binomial sums of xi values collapse to a two-term "
                 "closed form")
    if n_max < 2:
        raise ValueError(f"n_max = {n_max} checks nothing; the identity starts at n = 2")
    for n in range(2, n_max + 1):
        lhs = sum(((-1) ** i * math.comb(n, i) * xi_value(i - n)
                   for i in range(1, n)), start=ZERO)
        rhs = F((-1) ** (n + 1), n + 1) + F((-1) ** n, 2 ** n)
        if lhs != rhs:
            return Report("xi-binomial", statement, {"n_max": n_max}, "fail",
                          first_mismatch={"n": n, "lhs": lhs, "rhs": rhs})
    return Report("xi-binomial", statement, {"n_max": n_max}, "pass", n_max)
