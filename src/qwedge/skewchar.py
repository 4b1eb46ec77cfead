"""The odd-variable character, its divisor-sum building blocks, and the skew
n-point function computed two independent ways.

The character lives in variables q1, q3, q5, ...; tau-derivatives act as
multiply-by-exponent.  The n-point generating polynomial is assembled once by
direct differentiation of the character and once from the set-partition closed
form; the two must agree coefficient by coefficient.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add
from types import MappingProxyType

from .reports import Report
from .series import ONE, ZERO, QSeries, SeriesError
from .setparts import set_partitions
from .special import divisor_power_sum, eisenstein_g, eta, zeta_value

F = Fraction


class GradeOverflow(SeriesError):
    """An exponent grew past the configured ceiling (q_{2j-1} exponents scale
    like n^{2j-1} and can explode for large grades)."""


class OddMultiSeries:
    """Sparse series in q1, q3, ..., q_{2J-1}, truncated at q1-exponent <= grade.

    Exponent vectors have length J; slot j-1 holds the q_{2j-1} exponent.  Every
    exponent is an integer plus the slot's anomaly zeta(1-2j)/2, held once as the
    int `anomaly[j-1]` over their lcm `anomaly_den`: `nums` maps the int part e
    to the int numerator of its coefficient over the one int `den`.  `terms` is
    the Fraction view (full exponents and coefficients), built on first use.
    """

    __slots__ = ("J", "grade", "nums", "den", "anomaly", "anomaly_den", "_terms")

    def __init__(self, J: int, grade: int, nums: dict[tuple[int, ...], int], den: int,
                 anomaly: tuple[int, ...], anomaly_den: int):
        self.J, self.grade, self.nums, self.den = J, grade, nums, den
        self.anomaly, self.anomaly_den, self._terms = anomaly, anomaly_den, None

    @property
    def terms(self) -> MappingProxyType:
        view = self._terms
        if view is None:
            view = MappingProxyType({self._exps(e): F(c, self.den)
                                     for e, c in self.nums.items()})
            self._terms = view
        return view

    def _exps(self, e: tuple[int, ...]) -> tuple[Fraction, ...]:
        A = self.anomaly_den
        return tuple(F(x * A + a, A) for x, a in zip(e, self.anomaly))

    def tau_derive(self, j: int) -> OddMultiSeries:
        """The invariant derivative in tau_{2j-1}: multiply each term by its
        q_{2j-1}-exponent (x + a/A), that is its numerator by x A + a and the
        denominator by A."""
        if not 1 <= j <= self.J:
            raise ValueError(f"j must be between 1 and {self.J}")
        A, a, i = self.anomaly_den, self.anomaly[j - 1], j - 1
        out = {}
        for e, c in self.nums.items():
            v = c * (e[i] * A + a)
            if v:
                out[e] = v
        return OddMultiSeries(self.J, self.grade, out, self.den * A, self.anomaly, A)

    def collapse(self) -> QSeries:
        """Set q_{2j-1} = 1 for j >= 2, leaving a q1-series on the 1/24-shifted
        integer grid."""
        nums = [0] * (self.grade + 1)
        for e, c in self.nums.items():
            nums[e[0]] += c
        return QSeries.from_nums(nums, self.den, F(self.anomaly[0], self.anomaly_den))

    def to_jsonable(self) -> dict:
        den = self.den
        return {"J": self.J, "grade": str(self.grade),
                "terms": [{"exps": [str(x) for x in self._exps(e)], "coeff": str(F(c, den))}
                          for e, c in sorted(self.nums.items())]}


def psi_series(J: int, N: int, max_exponent: int = 10 ** 12) -> OddMultiSeries:
    """Anomaly prefactor q1^{zeta(-1)/2} q3^{zeta(-3)/2} ... times
    prod_{n>=1} (1 - q1^n q3^{n^3} ...)^{-1}, truncated at q1-grade N.
    """
    if J < 1:
        raise ValueError("need J >= 1")
    # product part on the integer exponent grid; the anomaly rides along apart
    terms: dict[tuple[int, ...], int] = {(0,) * J: 1}
    for n in range(1, N + 1):
        if n ** (2 * J - 1) > max_exponent:
            raise GradeOverflow(
                f"exponent {n}^{2 * J - 1} exceeds the ceiling {max_exponent}")
        shifts = tuple(n ** (2 * j - 1) for j in range(1, J + 1))
        geom = [tuple(m * s for s in shifts) for m in range(N // n + 1)]
        new: dict[tuple[int, ...], int] = {}
        for e, c in terms.items():
            for g in geom:
                if e[0] + g[0] > N:
                    break
                key = tuple(map(add, e, g))
                new[key] = new.get(key, 0) + c
        terms = new
    anomaly = [zeta_value(1 - 2 * j) / 2 for j in range(1, J + 1)]
    A = math.lcm(*(a.denominator for a in anomaly))
    return OddMultiSeries(J, N, terms, 1, tuple(a.numerator * (A // a.denominator)
                                                for a in anomaly), A)


def h_series(r: int, s_even: int, order: int) -> QSeries:
    """The r-fold invariant log-derivative of the character, specialized to the
    single-variable line: sum_{m,n>=1} m^{s-2r+1} (nm)^{r-1} q^{nm}, plus the
    constant zeta(1-s)/2 when r = 1.  Depends only on r and the even weight tag.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    if s_even % 2 or s_even < 2 * r:
        raise ValueError("weight tag must be even and at least 2r")
    coeffs = [zeta_value(1 - s_even) / 2 if r == 1 else ZERO]
    for n in range(1, order + 1):
        coeffs.append(F(n ** (r - 1) * divisor_power_sum(n, s_even - 2 * r + 1)))
    return QSeries.from_coeffs(coeffs)


def g_series(r: int, s_even: int, order: int) -> QSeries:
    """The same object through the modular route: the (r-1)-fold derivative of
    the Eisenstein series of weight s - 2r + 2."""
    w = s_even - 2 * r + 2
    if w < 2:
        raise ValueError("derived weight must be at least 2")
    g = eisenstein_g(w, order)
    for _ in range(r - 1):
        g = g.derive()
    return g


def verify_h_equals_g(pairs=((1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3),
                             (2, 4), (3, 3), (3, 4)),
                      order: int = 30) -> Report:
    """The double divisor sum and the differentiated Eisenstein series agree for
    every (derivative count, weight tag) pair."""
    statement = ("the log-derivative divisor sums of the odd-variable character "
                 "equal derivatives of Eisenstein series")
    if order < 0:
        raise ValueError(f"order = {order} checks no coefficient; need order >= 0")
    params = {"pairs": [list(p) for p in pairs], "order": order}
    for r, sumj in pairs:
        s = 2 * sumj
        if h_series(r, s, order) != g_series(r, s, order):
            return Report("h-equals-g", statement, params, "fail",
                          first_mismatch={"r": r, "s": s})
    return Report("h-equals-g", statement, params, "pass", order_checked=order)


# -- polynomials in z with series coefficients ---------------------------------------


def _nonzero(c) -> bool:
    return not c.is_zero() if isinstance(c, QSeries) else bool(c)


class OddPolynomial:
    """Truncated polynomial in z_1..z_nvars; coefficients are QSeries (or plain
    rationals).  Per-variable degree is capped at zdeg."""

    __slots__ = ("nvars", "zdeg", "terms")

    def __init__(self, nvars: int, zdeg: int, terms: dict[tuple[int, ...], object]):
        self.nvars, self.zdeg = nvars, zdeg
        self.terms = {e: c for e, c in terms.items() if _nonzero(c)}

    @staticmethod
    def zero(nvars: int, zdeg: int) -> OddPolynomial:
        return OddPolynomial(nvars, zdeg, {})

    def __add__(self, other: OddPolynomial) -> OddPolynomial:
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        zdeg = min(self.zdeg, other.zdeg)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms[e] + c if e in terms else c
        return OddPolynomial(self.nvars, zdeg, terms)

    def __mul__(self, other: OddPolynomial) -> OddPolynomial:
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        zdeg = min(self.zdeg, other.zdeg)
        terms: dict[tuple[int, ...], object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if max(e) > zdeg:
                    continue
                c = c1 * c2
                terms[e] = terms[e] + c if e in terms else c
        return OddPolynomial(self.nvars, zdeg, terms)

    def scale(self, c) -> OddPolynomial:
        return OddPolynomial(self.nvars, self.zdeg,
                             {e: v * c for e, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, OddPolynomial):
            return NotImplemented
        if self.nvars != other.nvars or set(self.terms) != set(other.terms):
            return False
        return all(self.terms[e] == other.terms[e] for e in self.terms)

    def to_jsonable(self) -> dict:
        out = []
        for e in sorted(self.terms):
            c = self.terms[e]
            val = c.to_jsonable() if isinstance(c, QSeries) else str(c)
            out.append({"z": list(e), "coeff": val})
        return {"nvars": self.nvars, "zdeg": self.zdeg, "terms": out}


def _check_npoint_params(n: int, N_z: int, N_q: int) -> None:
    """Parameter floors: below them the polynomial has no term to compare."""
    if n < 1:
        raise ValueError("need n >= 1")
    if N_z < 1:
        raise ValueError(f"z-degree {N_z} admits no odd exponent; need N_z >= 1")
    if N_q < 0:
        raise ValueError(f"q-order {N_q} is negative; need N_q >= 0")


def _eps_gcal_block(block: tuple[int, ...], nvars: int, N_z: int,
                    N_q: int) -> OddPolynomial:
    """The oddified block series in the block's variables: for each weight 2r,
    the derivative power of the Eisenstein series times the odd monomials
    z^{2l_1-1}...z^{2l_m-1} with l_1+...+l_m = r + m - 1."""
    m = len(block)
    lmax = (N_z + 1) // 2
    out: dict[tuple[int, ...], object] = {}
    for r in range(1, m * lmax - m + 2):
        g = eisenstein_g(2 * r, N_q)
        for _ in range(m - 1):
            g = g.derive()
        target = r + m - 1
        for ls in _compositions_bounded(target, m, lmax):
            e = [0] * nvars
            coeff = ONE
            for pos, l in zip(block, ls):
                e[pos - 1] = 2 * l - 1
                coeff /= math.factorial(2 * l - 1)
            key = tuple(e)
            term = g * coeff
            out[key] = out[key] + term if key in out else term
    return OddPolynomial(nvars, N_z, out)


def _compositions_bounded(total: int, parts: int, lmax: int):
    """Ordered tuples of `parts` integers in [1, lmax] summing to `total`."""
    if parts == 1:
        if 1 <= total <= lmax:
            yield (total,)
        return
    for first in range(1, min(lmax, total - parts + 1) + 1):
        for rest in _compositions_bounded(total - first, parts - 1, lmax):
            yield (first,) + rest


def npoint_skew_closed(n: int, N_z: int, N_q: int) -> OddPolynomial:
    """Set-partition closed form: the inverse eta series times the sum over
    partitions of {1..n} of products of oddified block series."""
    _check_npoint_params(n, N_z, N_q)
    eta_inv = eta(N_q).inv()
    total = OddPolynomial.zero(n, N_z)
    for mu in set_partitions(tuple(range(1, n + 1))):
        prod = None
        for block in mu:
            fac = _eps_gcal_block(block, n, N_z, N_q)
            prod = fac if prod is None else prod * fac
        total = total + prod
    return total.scale(eta_inv)


def npoint_skew_brute(n: int, N_z: int, N_q: int) -> OddPolynomial:
    """Direct route: apply the odd tau-derivatives to the character (in the
    (N_z + 1) // 2 variables that z-degree N_z needs) by exponent
    multiplication, specialize the higher variables away, and assemble the
    generating polynomial.  Re-derives every coefficient through the
    log-derivative product expansion and demands exact agreement.
    """
    _check_npoint_params(n, N_z, N_q)
    k_max = (N_z + 1) // 2
    psi = psi_series(k_max, N_q)
    psi0 = psi.collapse()
    out: dict[tuple[int, ...], object] = {}
    for ks in itertools.product(range(1, k_max + 1), repeat=n):
        series = psi
        norm = 1
        for k in ks:
            series = series.tau_derive(k)
            norm *= math.factorial(2 * k - 1)
        coeff = series.collapse() * F(1, norm)
        expansion = QSeries.zero(N_q)
        for mu in set_partitions(tuple(range(1, n + 1))):
            term = QSeries.one(N_q)
            for block in mu:
                s = 2 * sum(ks[i - 1] for i in block)
                term = term * h_series(len(block), s, N_q)
            expansion = expansion + term
        if coeff != psi0 * expansion * F(1, norm):
            raise SeriesError(f"log-derivative expansion disagrees at indices {ks}")
        out[tuple(2 * k - 1 for k in ks)] = coeff
    return OddPolynomial(n, N_z, out)


def verify_skew_npoint(n: int = 2, N_z: int = 5, N_q: int = 15) -> Report:
    """The directly differentiated n-point polynomial equals the set-partition
    closed form, coefficient by coefficient."""
    statement = ("the skew n-point function from direct differentiation matches "
                 "its set-partition closed form")
    params = {"n": n, "N_z": N_z, "N_q": N_q}
    closed = npoint_skew_closed(n, N_z, N_q)
    brute = npoint_skew_brute(n, N_z, N_q)
    if closed == brute:
        return Report("skew-npoint", statement, params, "pass",
                      order_checked=N_q,
                      details={"z_terms": len(closed.terms)})
    bad = sorted(e for e in set(closed.terms) | set(brute.terms)
                 if closed.terms.get(e) != brute.terms.get(e))
    return Report("skew-npoint", statement, params, "fail",
                  first_mismatch={"z": list(bad[0])})
