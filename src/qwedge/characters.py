"""Multivariate characters in q0..qK and their exponent-substitution symmetry.

The product character of the charged-fermion Fock space, its charge-zero slice,
and the upper-triangular binomial substitution that shifts the charge variable.
Exponent vectors have length K+1: entry 0 is the charge exponent (integer,
possibly negative), entries 1..K are rationals.  Grading, truncation, and all
comparisons go by the q1-exponent alone; that bounds everything else because
the builders only emit exponents polynomial in the q1-grade.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .partitions import hook_power_sum, partitions_of
from .reports import Report
from .series import QSeries
from .special import eta, xi_value

F = Fraction
ZERO = F(0)
ONE = F(1)

ExpVec = tuple[Fraction, ...]


@dataclass
class MultiSeries:
    """Sparse Laurent polynomial in q0..qK, truncated at q1-exponent <= grade."""

    K: int
    grade: Fraction
    terms: dict[ExpVec, Fraction] = field(default_factory=dict)

    @staticmethod
    def zero(K: int, grade) -> MultiSeries:
        return MultiSeries(K, F(grade), {})

    @staticmethod
    def one(K: int, grade) -> MultiSeries:
        return MultiSeries(K, F(grade), {(ZERO,) * (K + 1): ONE})

    @staticmethod
    def monomial(K: int, grade, exps, coeff=ONE) -> MultiSeries:
        e = tuple(F(x) for x in exps)
        if len(e) != K + 1:
            raise ValueError("exponent vector must have length K+1")
        out = MultiSeries.zero(K, grade)
        if e[1] <= out.grade and coeff:
            out.terms[e] = F(coeff)
        return out

    def _require_compatible(self, other: MultiSeries) -> None:
        if self.K != other.K:
            raise ValueError("variable counts differ")

    def __add__(self, other: MultiSeries) -> MultiSeries:
        self._require_compatible(other)
        grade = min(self.grade, other.grade)
        terms: dict[ExpVec, Fraction] = {}
        for src in (self.terms, other.terms):
            for e, c in src.items():
                if e[1] > grade:
                    continue
                v = terms.get(e, ZERO) + c
                if v:
                    terms[e] = v
                else:
                    terms.pop(e, None)
        return MultiSeries(self.K, grade, terms)

    def __neg__(self) -> MultiSeries:
        return MultiSeries(self.K, self.grade, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: MultiSeries) -> MultiSeries:
        return self + (-other)

    def __mul__(self, other: MultiSeries) -> MultiSeries:
        self._require_compatible(other)
        grade = min(self.grade, other.grade)
        terms: dict[ExpVec, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                g = e1[1] + e2[1]
                if g > grade:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                v = terms.get(e, ZERO) + c1 * c2
                if v:
                    terms[e] = v
                else:
                    terms.pop(e, None)
        return MultiSeries(self.K, grade, terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return self.K == other.K and self.terms == other.terms

    def truncate(self, grade) -> MultiSeries:
        grade = F(grade)
        return MultiSeries(self.K, grade,
                           {e: c for e, c in self.terms.items() if e[1] <= grade})

    def map_exponents(self, n: int) -> MultiSeries:
        """Apply the charge-shift substitution to every term; grades can move, so
        the caller truncates afterwards."""
        terms: dict[ExpVec, Fraction] = {}
        for e, c in self.terms.items():
            e2 = elliptic_map(e, n, self.K)
            terms[e2] = terms.get(e2, ZERO) + c
        return MultiSeries(self.K, self.grade, {e: c for e, c in terms.items() if c})

    def charge_slice(self, charge: int) -> MultiSeries:
        """Terms whose q0-exponent equals `charge`, kept at full vector shape."""
        return MultiSeries(self.K, self.grade,
                           {e: c for e, c in self.terms.items() if e[0] == charge})

    def collapse(self, j0: int) -> MultiSeries:
        """Set q_j = 1 for j >= j0, merging exponent vectors."""
        if not 1 <= j0 <= self.K:
            raise ValueError("j0 out of range")
        terms: dict[ExpVec, Fraction] = {}
        for e, c in self.terms.items():
            e2 = e[:j0]
            v = terms.get(e2, ZERO) + c
            if v:
                terms[e2] = v
            else:
                terms.pop(e2, None)
        return MultiSeries(j0 - 1, self.grade, terms)

    def sorted_terms(self) -> list[tuple[ExpVec, Fraction]]:
        return sorted(self.terms.items())

    def to_json(self) -> dict:
        return {"K": self.K, "grade": str(self.grade),
                "terms": [{"exps": [str(x) for x in e], "coeff": str(c)}
                          for e, c in self.sorted_terms()]}


def first_mismatch(a: MultiSeries, b: MultiSeries) -> dict | None:
    """Smallest exponent vector where the two sparse maps disagree."""
    keys = sorted(set(a.terms) | set(b.terms))
    for e in keys:
        ca, cb = a.terms.get(e, ZERO), b.terms.get(e, ZERO)
        if ca != cb:
            return {"exps": [str(x) for x in e], "lhs": str(ca), "rhs": str(cb)}
    return None


def elliptic_map(e: ExpVec, n: int, K: int) -> ExpVec:
    """Exponent-vector action of the n-fold charge shift: entry i of the image is
    sum_{j<=i} C(i, i-j) n^{i-j} e_j.  n = -1 is the forward transformation of
    the symmetry law; n = 0 is the identity; the maps compose additively in n.
    """
    e = tuple(F(x) for x in e)
    if len(e) != K + 1:
        raise ValueError("exponent vector must have length K+1")
    out = []
    for i in range(K + 1):
        acc = ZERO
        for j in range(i + 1):
            acc += math.comb(i, i - j) * F(n) ** (i - j) * e[j]
        out.append(acc)
    return tuple(out)


def _anomaly(K: int, grade) -> MultiSeries:
    """q1^{-xi(-1)} q3^{-xi(-3)} ... over odd indices up to K."""
    exps = [ZERO] * (K + 1)
    for j in range(1, K + 1, 2):
        exps[j] = -xi_value(-j)
    return MultiSeries.monomial(K, grade, exps)


def omega_series(K: int, N: int) -> MultiSeries:
    """Anomaly prefactor times prod_{n >= 0} of the two charge factors
    (1 + q0 q1^{n+1/2} q2^{(n+1/2)^2} ...) (1 + q0^{-1} q1^{n+1/2} q2^{-(n+1/2)^2} ...),
    truncated at q1-grade N.  Factors with n + 1/2 > N cannot contribute.
    """
    if K < 1:
        raise ValueError("need K >= 1")
    out = MultiSeries.one(K, N)
    n = 0
    while F(2 * n + 1, 2) <= N:
        h = F(2 * n + 1, 2)
        plus = [ONE] + [h ** j for j in range(1, K + 1)]
        minus = [-ONE] + [(-1) ** (j + 1) * h ** j for j in range(1, K + 1)]
        for exps in (plus, minus):
            out = out * (MultiSeries.one(K, N) + MultiSeries.monomial(K, N, exps))
        n += 1
    return out * _anomaly(K, N)


def V_series(K: int, N: int) -> MultiSeries:
    """Anomaly prefactor times sum over partitions of prod_r q_r^{p_r(lambda)},
    with p_r the half-shifted hook power sums; p_1 = |lambda| is the grade.
    """
    if K < 1:
        raise ValueError("need K >= 1")
    terms: dict[ExpVec, Fraction] = {}
    for size in range(N + 1):
        for lam in partitions_of(size):
            e = (ZERO,) + tuple(hook_power_sum(lam, r) for r in range(1, K + 1))
            terms[e] = terms.get(e, ZERO) + 1
    return MultiSeries(K, F(N), terms) * _anomaly(K, N)


def V_from_omega(K: int, N: int) -> MultiSeries:
    """Charge-zero slice of the product character.  The anomaly prefactor is
    already inside the product character, so no second copy is applied here.
    """
    return omega_series(K, N).charge_slice(0)


def _eta_multi(K: int, grade) -> MultiSeries:
    """The eta series as a MultiSeries in q1 alone, with one grade of headroom:
    partners with negative exponents (the anomaly reaches -1/24) pull terms from
    just above the nominal grade back into the product window."""
    grade = F(grade) + 1
    qs = eta(int(math.ceil(grade)) + 1)
    out = MultiSeries.zero(K, grade)
    e1 = qs.offset
    for c in qs.coeffs:
        if c and e1 <= out.grade:
            e = (ZERO, e1) + (ZERO,) * (K - 1)
            out.terms[e] = F(c)
        e1 += qs.step
    return out


def verify_elliptic_transform(K: int = 3, N: int = 3) -> Report:
    """The product character composed with the forward charge-shift substitution
    equals q0 q1^{-1/2} q2^{1/3} ... qK^{(-1)^K/(K+1)} times itself, exactly to
    q1-grade N.  The substitution mixes grades with the charge, so the character
    is built to a padded grade before mapping.
    """
    statement = ("the product character is an eigenvector of the charge-shift "
                 "substitution, with explicit monomial eigenvalue")
    if N < 1:
        raise ValueError(f"the grade N = {N} must be at least 1")
    # a term of charge c has q1-grade >= c^2/2 - 1/24, so images landing at or
    # below N come from grades <= N + 1 + sqrt(2N+2); pad accordingly
    G = N + math.isqrt(2 * N - 1) + 1 + 2
    om = omega_series(K, G)
    lhs = om.map_exponents(-1).truncate(N)
    pref = [F((-1) ** j, j + 1) for j in range(K + 1)]
    rhs = (om * MultiSeries.monomial(K, G, pref)).truncate(N)
    mismatch = first_mismatch(lhs, rhs)
    return Report("elliptic-transform", statement, {"K": K, "N": N},
                  "pass" if mismatch is None else "fail",
                  order_checked=N, first_mismatch=mismatch)


def verify_theta_expansion(K: int = 3, N: int = 3) -> Report:
    """The product character equals the charge sum of substituted charge-zero
    slices times q0^n q1^{n^2/2} q2^{n^3/3} ...; summands with |n| past the
    grade window vanish below grade N, so the sum is finite.
    """
    statement = ("the product character expands as a charge sum of shifted "
                 "charge-zero characters with theta-like monomial weights")
    if N < 0:
        raise ValueError(f"the grade N = {N} must be non-negative")
    n_max = math.isqrt(2 * N - 1) + 1 + 1 if N > 0 else 1
    v = V_series(K, N)
    total = MultiSeries.zero(K, N)
    for n in range(-n_max, n_max + 1):
        pref = [F(n) ** (j + 1) / (j + 1) for j in range(K + 1)]
        total = total + v.map_exponents(n) * MultiSeries.monomial(K, N, pref)
    om = omega_series(K, N)
    mismatch = first_mismatch(total, om)
    return Report("theta-expansion", statement, {"K": K, "N": N, "n_max": n_max},
                  "pass" if mismatch is None else "fail",
                  order_checked=N, first_mismatch=mismatch)


def verify_triple_product(N: int = 12) -> Report:
    """eta times the two-variable product character equals the integral theta
    sum q0^n q1^{n^2/2}, exactly to grade N."""
    statement = ("the eta function times the two-variable product character is "
                 "the integral charge theta sum")
    if N < 0:
        raise ValueError("the grade N must be non-negative")
    lhs = (_eta_multi(1, N) * omega_series(1, N)).truncate(N)
    rhs = MultiSeries.zero(1, N)
    n = 0
    while F(n * n, 2) <= N:
        for m in {n, -n}:
            rhs.terms[(F(m), F(m * m, 2))] = ONE
        n += 1
    mismatch = first_mismatch(lhs, rhs)
    return Report("triple-product", statement, {"N": N},
                  "pass" if mismatch is None else "fail",
                  order_checked=N, first_mismatch=mismatch)


def verify_v_consistency(K: int = 3, N: int = 4) -> Report:
    """The charge-zero slice of the product character equals the partition sum
    form of the charge-zero character, exactly."""
    statement = ("the charge-zero slice of the product character matches its "
                 "partition-sum expansion")
    if N < 0:
        raise ValueError(f"the grade N = {N} must be non-negative")
    a = V_from_omega(K, N)
    b = V_series(K, N)
    mismatch = first_mismatch(a, b)
    return Report("v-consistency", statement, {"K": K, "N": N},
                  "pass" if mismatch is None else "fail",
                  order_checked=N, first_mismatch=mismatch)
