"""The odd-variable character, its divisor-sum building blocks, and the skew
n-point function computed two independent ways.

The character is a charge-zero `MultiSeries` in q1, q3, q5, ...; tau-derivatives
act as multiply-by-exponent.  The n-point function needs no z-container: it is a
dict from odd z-exponent tuples to q-series, one slot per index tuple, filled once
by direct differentiation and once from the set-partition closed form; the two
must agree slot by slot.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

from .characters import MultiSeries
from .reports import Report, pairs_report
from .series import ZERO, QSeries, SeriesError
from .setparts import set_partitions
from .special import divisor_power_sum, eisenstein_g, eta, zeta_value

F = Fraction


class GradeOverflow(SeriesError):
    """An exponent grew past the configured ceiling (q_{2j-1} exponents scale
    like n^{2j-1} and can explode for large grades)."""


class ExpansionMismatch(SeriesError):
    """The brute route's derivative disagrees with its log-derivative expansion
    at the slot of odd z-exponents `z`."""

    def __init__(self, ks: tuple[int, ...], z: tuple[int, ...]):
        super().__init__(f"log-derivative expansion disagrees at indices {ks}")
        self.z = z


# the largest q_{2K-1} exponent n^{2K-1} the character may carry
MAX_EXPONENT = 10 ** 12


def psi_series(K: int, N: int) -> MultiSeries:
    """Anomaly prefactor q1^{zeta(-1)/2} q3^{zeta(-3)/2} ... times
    prod_{n>=1} (1 - q1^n q3^{n^3} ...)^{-1}, truncated at q1-grade N: a
    charge-zero MultiSeries whose slot j holds q_{2j-1}, j = 1..K.
    """
    if K < 1:
        raise ValueError("need K >= 1")
    out = MultiSeries.one(K, N)
    for n in range(1, N + 1):
        if n ** (2 * K - 1) > MAX_EXPONENT:
            raise GradeOverflow(
                f"exponent {n}^{2 * K - 1} exceeds the ceiling {MAX_EXPONENT}")
        shifts = [n ** (2 * j - 1) for j in range(1, K + 1)]
        # the factor for n as its geometric series, through q1-grade N
        out = out * MultiSeries(K, N, {(0, *(m * s for s in shifts)): 1
                                       for m in range(N // n + 1)})
    anomaly = (0, *(zeta_value(1 - 2 * j) / 2 for j in range(1, K + 1)))
    return out * MultiSeries.monomial(K, N, anomaly)


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


H_EQUALS_G_PAIRS = tuple((r, j) for r in range(1, 4) for j in range(r, 5))


def verify_h_equals_g(order: int = 30) -> Report:
    """The double divisor sum and the differentiated Eisenstein series agree for
    each (derivative count r, weight tag j) of `H_EQUALS_G_PAIRS`."""
    statement = ("the log-derivative divisor sums of the odd-variable character "
                 "equal derivatives of Eisenstein series")
    if order < 0:
        raise ValueError(f"order = {order} checks no coefficient; need order >= 0")
    params = {"pairs": [list(p) for p in H_EQUALS_G_PAIRS], "order": order}
    return pairs_report("h-equals-g", statement, params,
                        [({"r": r, "s": 2 * j}, h_series(r, 2 * j, order),
                          g_series(r, 2 * j, order)) for r, j in H_EQUALS_G_PAIRS], order)


# -- the n-point function, one slot per index tuple ---------------------------------


def _check_npoint_params(n: int, N_z: int, N_q: int) -> None:
    """Parameter floors: below them the n-point function has no slot to compare."""
    if n < 1:
        raise ValueError("need n >= 1")
    if N_z < 1:
        raise ValueError(f"z-degree {N_z} admits no odd exponent; need N_z >= 1")
    if N_q < 0:
        raise ValueError(f"q-order {N_q} is negative; need N_q >= 0")


def _index_tuples(n: int, N_z: int):
    """The index tuples ks in [1, (N_z + 1) // 2]^n, each with the odd
    z-exponents (2k_i - 1) of its slot and its norm prod_i (2k_i - 1)!."""
    for ks in itertools.product(range(1, (N_z + 1) // 2 + 1), repeat=n):
        yield ks, tuple(2 * k - 1 for k in ks), math.prod(
            math.factorial(2 * k - 1) for k in ks)


def _partition_expansion(block, ks: tuple[int, ...], N_q: int) -> QSeries:
    """The sum over set partitions mu of {1..len(ks)} of prod_{B in mu}
    block(|B|, 2 sum_{i in B} k_i, N_q): over `g_series` blocks the closed
    form, over `h_series` blocks the log-derivative expansion."""
    return QSeries.sum_of([
        functools.reduce(operator.mul,
                         (block(len(B), 2 * sum(ks[i] for i in B), N_q) for B in mu))
        for mu in set_partitions(tuple(range(len(ks))))])


def npoint_skew_closed(n: int, N_z: int, N_q: int) -> dict[tuple[int, ...], QSeries]:
    """Set-partition closed form: the slot z_1^{2k_1-1}...z_n^{2k_n-1} is the
    inverse eta series times the sum over set partitions of the products of
    block series D^{|B|-1} G_{2 sum_B k - 2|B| + 2}, over prod_i (2k_i - 1)!.
    Blocks touch disjoint variables, so every product lands on its own slot.
    """
    _check_npoint_params(n, N_z, N_q)
    eta_inv = eta(N_q).inv()
    block = functools.cache(g_series)
    out = {}
    for ks, z, norm in _index_tuples(n, N_z):
        coeff = eta_inv * _partition_expansion(block, ks, N_q) * F(1, norm)
        if not coeff.is_zero():
            out[z] = coeff
    return out


def npoint_skew_brute(n: int, N_z: int, N_q: int) -> dict[tuple[int, ...], QSeries]:
    """Direct route: apply the odd tau-derivatives to the character (in the
    (N_z + 1) // 2 variables that z-degree N_z needs) by exponent
    multiplication and specialize the higher variables away, one slot per
    index tuple.  Re-derives every coefficient through the log-derivative
    product expansion and demands exact agreement.
    """
    _check_npoint_params(n, N_z, N_q)
    psi = psi_series((N_z + 1) // 2, N_q)
    psi0 = psi.q1_series()
    block = functools.cache(h_series)
    out = {}
    for ks, z, norm in _index_tuples(n, N_z):
        series = psi
        for k in ks:
            series = series.derive(k)
        derived = series.q1_series()
        if derived != psi0 * _partition_expansion(block, ks, N_q):
            raise ExpansionMismatch(ks, z)
        coeff = derived * F(1, norm)
        if not coeff.is_zero():
            out[z] = coeff
    return out


def npoint_jsonable(slots: dict[tuple[int, ...], QSeries], n: int, N_z: int) -> dict:
    """The JSON form of an n-point function: its slots in exponent order."""
    return {"nvars": n, "zdeg": N_z,
            "terms": [{"z": list(z), "coeff": slots[z].to_jsonable()} for z in sorted(slots)]}


def verify_skew_npoint(n: int = 2, N_z: int = 5, N_q: int = 15) -> Report:
    """The directly differentiated n-point function equals the set-partition
    closed form, slot by slot."""
    statement = ("the skew n-point function from direct differentiation matches "
                 "its set-partition closed form")
    params = {"n": n, "N_z": N_z, "N_q": N_q}
    closed = npoint_skew_closed(n, N_z, N_q)
    try:
        brute = npoint_skew_brute(n, N_z, N_q)
    except ExpansionMismatch as err:
        return Report("skew-npoint", statement, params, "fail", first_mismatch={
            "z": list(err.z), "against": "log-derivative expansion"})
    slots = sorted(closed.keys() | brute.keys())
    # a slot one route lacks is zero there, on the other route's grid
    pairs = [({"z": list(z)}, closed[z] if z in closed else 0 * brute[z],
              brute[z] if z in brute else 0 * closed[z]) for z in slots]
    return pairs_report("skew-npoint", statement, params, pairs, N_q,
                        details={"z_terms": len(closed)})
