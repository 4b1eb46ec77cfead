"""Named series and constants: Bernoulli numbers, the zeta/xi ladder of special
values, eta, Eisenstein series, and the odd Jacobi theta with its invariant
derivatives.

All theta machinery works at multiplicative points x = s^2 * q^shift with s an exact
positive rational, so every series coefficient stays a Fraction.  The square root
x^{1/2} always means the positive branch s * q^{shift/2}.

Theta is the lattice sum `theta_lattice_series` times (q)_inf^{-3}.  The theta
closed forms (correlators, qdiff) are ratios in which that factor cancels, so
they are assembled from the lattice sums and apply (q)_inf^{-3} at most once.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from .partitions import partitions_of
from .reports import Report, series_report
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
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += d ** r
    return total


def eisenstein_g(k: int, order: int) -> QSeries:
    """G_k = -B_k/(2k) + sum_n sigma_{k-1}(n) q^n for even k >= 2."""
    if k < 2 or k % 2:
        raise ValueError("weight must be even and at least 2")
    coeffs = [-bernoulli(k) / (2 * k)]
    coeffs += [F(divisor_power_sum(n, k - 1)) for n in range(1, order + 1)]
    return QSeries.from_coeffs(coeffs)


class EisensteinTable:
    """The Eisenstein series G_k and the monomials G2^a G4^b G6^c at one order,
    each built on first use and kept by k or by (a, b, c); a monomial is one
    product of a generator with the monomial one degree lower.

    Create one per verifier call for the series it compares; like
    `ThetaLattice`, it holds what it built only as long as the caller keeps it.
    """

    def __init__(self, order: int):
        self.order = order
        self._g: dict[int, QSeries] = {}
        self._monomials: dict[tuple[int, int, int], QSeries] = {
            (0, 0, 0): QSeries.one(order)}

    def g(self, k: int) -> QSeries:
        found = self._g.get(k)
        if found is None:
            found = self._g[k] = eisenstein_g(k, self.order)
        return found

    def monomial(self, abc: tuple[int, int, int]) -> QSeries:
        found = self._monomials.get(abc)
        if found is None:
            a, b, c = abc
            if a:
                k, lower = 2, (a - 1, b, c)
            elif b:
                k, lower = 4, (0, b - 1, c)
            else:
                k, lower = 6, (0, 0, c - 1)
            gk = self.g(k)
            found = gk if lower == (0, 0, 0) else self.monomial(lower) * gk
            self._monomials[abc] = found
        return found


def theta00(order: int) -> QSeries:
    """sum_n q^{n^2/2} on the half-integer lattice (step 1/2)."""
    coeffs = [ZERO] * (order + 1)
    coeffs[0] = ONE
    n = 1
    while n * n <= order:
        coeffs[n * n] = F(2)
        n += 1
    return QSeries(ZERO, tuple(coeffs), F(1, 2))


# -- the odd theta function and its invariant derivatives ------------------------

def _check_derivative_order(k: int) -> None:
    if k < 0:
        raise ValueError(f"derivative order k = {k} is negative; (x d/dx)^k "
                         "Theta needs k >= 0")


def _lattice_walk(s: Fraction, order: int, shift: int) -> tuple[list, int, Fraction]:
    """The terms of the lattice sum at x = s^2 q^shift to relative `order`, for
    every k at once: triples (slot, m, signed integer) with m = 2n+1, their
    denominator without 2^k, and the offset of slot 0.

    (n+1/2)^k s^{2n+1} = m^k a^{m+e_neg} b^{e_pos-m} / (2^k a^e_neg b^e_pos)
    with s = a/b and e_neg, e_pos bounding -m and m over the terms kept.  The
    terms run over n ascending as one running product: times a^2 and over
    b^2 per step.
    """
    s = F(s)
    if s <= 0:
        raise ValueError("s must be a positive rational")
    if order < 0:
        raise ValueError(f"order {order} is negative; a theta series needs order >= 0")
    a, b = s.numerator, s.denominator

    def twice_e(n: int) -> int:
        """Twice the q-exponent of the n-th summand: n(n+1) + shift(2n+1)."""
        return n * (n + 1) + shift * (2 * n + 1)

    # exponents are unimodal with vertex at n = -(2 shift + 1)/2, so the n kept
    # form one interval [lo, hi] about it
    n0 = -shift - 1  # floor of the vertex
    lowest = min(twice_e(n0), twice_e(n0 + 1))
    target = lowest + 2 * order
    lo, hi = n0 + 1, n0
    while twice_e(lo - 1) <= target:
        lo -= 1
    while twice_e(hi + 1) <= target:
        hi += 1
    e_neg = max(0, -(2 * lo + 1))
    e_pos = max(0, 2 * hi + 1)
    a2, b2 = a * a, b * b
    term = a ** (2 * lo + 1 + e_neg) * b ** (e_pos - 2 * lo - 1)
    slot = (twice_e(lo) - lowest) // 2
    terms = []
    for n in range(lo, hi + 1):
        terms.append((slot, 2 * n + 1, -term if n % 2 else term))
        if n < hi:
            term = term * a2 // b2
            slot += n + 1 + shift  # half of twice_e(n + 1) - twice_e(n)
    return terms, a ** e_neg * b ** e_pos, F(lowest, 2)


def _lattice_sum(walk: tuple[list, int, Fraction], k: int, order: int) -> QSeries:
    """lattice_k from its walk: the dot product of the terms with m^k, over 2^k
    times the walk's denominator."""
    terms, den, offset = walk
    nums = [0] * (order + 1)
    for slot, m, term in terms:
        nums[slot] += m ** k * term
    return QSeries.from_nums(nums, 2 ** k * den, offset)


def theta_lattice_series(k: int, s: Fraction, order: int, shift: int = 0) -> QSeries:
    """The bare lattice sum sum_n (-1)^n (n+1/2)^k q^{n(n+1)/2} x^{n+1/2} at
    x = s^2 q^shift, valid to relative `order`: (x d/dx)^k Theta without its
    (q)_inf^{-3} factor.  Only O(sqrt(order)) coefficients are nonzero.

    The positive square-root branch makes x^{n+1/2} = s^{2n+1} q^{shift(n+1/2)}.
    One lattice walk lists the signed integer terms for every k; this is the
    walk's dot product with (2n+1)^k, the same route as `ThetaLattice.sum`.
    """
    _check_derivative_order(k)
    return _lattice_sum(_lattice_walk(s, order, shift), k, order)


def theta_deriv_series(k: int, s: Fraction, order: int, shift: int = 0) -> QSeries:
    """(x d/dx)^k Theta at x = s^2 q^shift, as a q-series valid to relative `order`.

    Theta(x) = (q)_inf^{-3} sum_n (-1)^n q^{n(n+1)/2} x^{n+1/2}; the derivative
    inserts (n+1/2)^k into the lattice sum (`theta_lattice_series`).
    """
    return theta_lattice_series(k, s, order, shift) * (euler_product(order).inv() ** 3)


class ThetaLattice:
    """The lattice sums lattice_k and inverses lattice_0^{-1} that theta closed
    forms need at one order, each built on first use and kept by (k, s, shift).
    Like `ThetaValues`, it walks the lattice once per (s, shift) and forms every
    `sum(k, s, shift)` from that walk as one dot product, so the k asked for at
    one argument share it.  s enters the keys as its numerator and denominator,
    which hash faster than the Fraction.

    `states` keeps the prefix states and their products with a block factor
    that `correlators.theta_block_sum` forms on this table, by the multiset of
    the prefix's arguments, so the block sums of one check share them.

    Create one per closed-form evaluation, or one per verifier call for the
    evaluations it compares; it holds what it built only as long as they keep it.
    """

    def __init__(self, order: int):
        self.order = order
        self._walks: dict[tuple, tuple] = {}
        self._sums: dict[tuple, QSeries] = {}
        self._inverses: dict[tuple, QSeries] = {}
        self.states: dict = {}

    def sum(self, k: int, s: Fraction, shift: int) -> QSeries:
        key = (k, s.numerator, s.denominator, shift)
        found = self._sums.get(key)
        if found is None:
            _check_derivative_order(k)
            walk_key = key[1:]
            walk = self._walks.get(walk_key)
            if walk is None:
                walk = self._walks[walk_key] = _lattice_walk(s, self.order, shift)
            found = self._sums[key] = _lattice_sum(walk, k, self.order)
        return found

    def inverse(self, s: Fraction, shift: int) -> QSeries:
        """lattice_0^{-1}: Theta(x)^{-1} without its (q)_inf^3."""
        key = (s.numerator, s.denominator, shift)
        found = self._inverses.get(key)
        if found is None:
            found = self._inverses[key] = self.sum(0, s, shift).inv()
        return found


def theta_product_series(s: Fraction, order: int) -> QSeries:
    """Product form at x = s^2 (no q-shift):
    (q)_inf^{-2} (s - 1/s) (s^2 q; q)_inf (q / s^2; q)_inf.
    """
    s = F(s)
    if s <= 0:
        raise ValueError("s must be a positive rational")
    e2 = euler_product(order).inv() ** 2
    a = q_pochhammer(s * s, 1, None, order)
    b = q_pochhammer(1 / (s * s), 1, None, order)
    return (s - 1 / s) * e2 * a * b


class ThetaValues:
    """Truncated values of (x d/dx)^k Theta at x = s^2 q0^shift for one rational
    0 < q0 < 1 and cut `terms`, as bare lattice sums and the one factor
    (q0; q0)_terms^{-3} they share; a ratio of values is one of lattice sums.

    `sum(k, s, shift)` sums |n| <= terms of sum_n (-1)^n (n+1/2)^k s^{2n+1}
    q0^{e(n)}, e(n) = n(n+1)/2 + shift(n+1/2), and the value is `factor` times
    it; `inverse(s, shift)` is 1 / sum(0, s, shift), as in `ThetaLattice`.
    The cut Euler product sets the error: a value is off by a relative
    3 q0^{terms+1} or so, while the lattice tail is only O(q0^{terms^2/2}).

    The sums run in integers: with s = a/b, E = 2 terms + 1 and the powers of
    q0 = u/w written r^{f(n)}, r = q0 for even `shift` and r = q0^{1/2} (which
    must be rational) for odd `shift`, each term is an integer over 2^k a^E b^E
    r_num^{-f_lo} r_den^{f_hi}, f_lo <= 0 <= f_hi bounding f.  One walk per
    (s, shift) keeps those integers without (n+1/2)^k, so each k is one dot
    product; `factor` is w^{3 terms(terms+1)/2} / prod_m (w^m - u^m)^3.
    Like `ThetaLattice`, it keeps the block states of `theta_block_sum` in
    `states`.  Create one per verifier call.
    """

    def __init__(self, q0: Fraction, terms: int):
        q0 = F(q0)
        if not 0 < q0 < 1:
            raise ValueError(f"q0 = {q0} is outside (0, 1), where the theta "
                             "lattice sum and the Euler product converge")
        self.q0, self.terms = q0, terms
        u, w = q0.numerator, q0.denominator
        euler = math.prod(w ** m - u ** m for m in range(1, terms + 1))
        self.factor = F(w ** (3 * (terms * (terms + 1) // 2)), euler ** 3)
        self._walks: dict[tuple, tuple] = {}
        self.states: dict = {}

    def _walk(self, s: Fraction, shift: int) -> tuple[list, int]:
        """The pairs (2n+1, signed integer term) and their denominator without
        2^k.  The s-part runs as one product over n ascending (times a^2, over
        b^2 per step); each power of r is formed once per exponent f, which
        two n share."""
        key = (s.numerator, s.denominator, shift)
        if key in self._walks:
            return self._walks[key]
        if shift % 2:
            r, halves = rational_sqrt(self.q0), 1
            if r is None:
                raise SeriesError(f"{self.q0} has no rational square root for the "
                                  f"half-integer exponents of shift {shift}")
        else:
            r, halves = self.q0, 2
        # f(n) = 2 e(n) / halves, the exponent of r in q0^{e(n)}
        ns = range(-self.terms, self.terms + 1)
        fs = [(n * (n + 1) + shift * (2 * n + 1)) // halves for n in ns]
        f_lo, f_hi = min(0, *fs), max(0, *fs)
        a, b = s.numerator, s.denominator
        ru, rw = r.numerator, r.denominator
        e_top = 2 * self.terms + 1
        a2, b2 = a * a, b * b
        part = a2 * b ** (2 * e_top - 2)  # a^{e_top + m} b^{e_top - m} at n = -terms
        r_parts: dict[int, int] = {}
        pairs = []
        for n, f in zip(ns, fs):
            if n > -self.terms:
                part = part * a2 // b2
            rp = r_parts.get(f)
            if rp is None:
                rp = r_parts[f] = ru ** (f - f_lo) * rw ** (f_hi - f)
            term = part * rp
            pairs.append((2 * n + 1, -term if n % 2 else term))
        den = (a * b) ** e_top * ru ** -f_lo * rw ** f_hi
        return self._walks.setdefault(key, (pairs, den))

    def sum(self, k: int, s: Fraction, shift: int = 0) -> Fraction:
        """The value without its factor (q0; q0)_terms^{-3}."""
        _check_derivative_order(k)
        pairs, den = self._walk(F(s), shift)
        return F(sum(m ** k * t for m, t in pairs), 2 ** k * den)

    def inverse(self, s: Fraction, shift: int) -> Fraction:
        """1 / sum(0, s, shift).  Theta vanishes wherever s^2 q0^shift is an
        integer power of q0, and a truncated sum there is only the cut's
        error, so such an s is rejected with a ValueError naming the power."""
        s = F(s)
        j = _power_of(s * s, self.q0)
        if j is not None:
            raise ValueError(f"s = {s} puts Theta on a zero: s^2 = q0^{j} with "
                             f"q0 = {self.q0}, so the value has no inverse")
        return 1 / self.sum(0, s, shift)


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


def theta_odd_derivative_closed_form(m: int, order: int,
                                     table: EisensteinTable | None = None) -> QSeries:
    """(2m+1)! sum over partitions 1^{k_1} 2^{k_2} ... of m of
    (-2)^{k_1+k_2+...} / (k_1! k_2! ...) * prod_i (G_{2i}/(2i)!)^{k_i},
    which equals the (2m+1)-st invariant theta derivative at x = 1.

    `table`, of the same order, may be shared by closed forms at that order.
    """
    if table is None:
        table = EisensteinTable(order)
    total = QSeries.zero(order)
    for combo in map(Counter, partitions_of(m)):
        coef = F((-2) ** combo.total(), math.prod(map(math.factorial, combo.values())))
        term = QSeries.const(coef, order)
        for i, k in combo.items():
            gi = table.g(2 * i) * F(1, math.factorial(2 * i))
            term = term * gi ** k
        total = total + term
    return math.factorial(2 * m + 1) * total


# -- identity verifiers -----------------------------------------------------------

def verify_theta_derivs(m_values=(1, 2, 3), order: int = 30) -> Report:
    """Invariant odd theta derivatives at 1 match their Eisenstein closed forms.

    (q)_inf^{-3} and each G_{2i} are formed once for all the m compared.
    """
    statement = ("odd invariant derivatives of the theta function at x=1 equal "
                 "explicit polynomials in Eisenstein series")
    cube = euler_product(order).inv() ** 3
    table = EisensteinTable(order)
    for m in m_values:
        # theta_deriv_series(2m + 1, 1, order), with the shared cube
        lhs = theta_lattice_series(2 * m + 1, ONE, order) * cube
        rhs = theta_odd_derivative_closed_form(m, order, table)
        r = series_report("theta-derivs", statement, {"m": m, "order": order}, lhs, rhs)
        if not r.ok:
            return r
    return Report("theta-derivs", statement,
                  {"m_values": list(m_values), "order": order}, "pass", order)


def verify_theta_diffeq(m: int = 2, s: Fraction = F(3, 2), shift: int = 0,
                        order: int = 24) -> Report:
    """Theta(q^m x) = (-1)^m q^{-m^2/2} x^{-m} Theta(x) at x = s^2 q^shift."""
    statement = "theta satisfies its first-order multiplicative difference equation"
    if m == 0:
        raise ValueError("m = 0 makes the difference equation Theta(x) = Theta(x)")
    s = F(s)
    lhs = theta_deriv_series(0, s, order, shift + m)
    rhs = theta_deriv_series(0, s, order, shift)
    sign = -1 if m % 2 else 1
    rhs = (sign * s ** (-2 * m)) * rhs.shift(-F(m * m, 2) - shift * m)
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
