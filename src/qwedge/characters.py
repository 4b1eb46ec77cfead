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
from fractions import Fraction
from operator import add, mul
from types import MappingProxyType

from .partitions import hook_power_sum, partitions_of
from .reports import Report, series_report
from .series import ONE, ZERO, NonIntegerOffsetGap, QSeries
from .special import eta, xi_value

F = Fraction

ExpVec = tuple[Fraction, ...]
IntVec = tuple[int, ...]


def _cap(grade: Fraction, den: int) -> int:
    """The largest scaled q1-exponent k with k/den <= grade."""
    return grade.numerator * den // grade.denominator


def _series(K: int, grade: Fraction, den: int, nums: dict, cden: int = 1) -> MultiSeries:
    """The series of `nums`, none of them zero, over `cden` > 0, reduced by
    gcd(cden, *nums)."""
    if cden != 1:
        g = math.gcd(cden, *nums.values())
        if g != 1:
            nums = {e: c // g for e, c in nums.items()}
            cden //= g
    s = object.__new__(MultiSeries)
    s.K, s.grade, s.den, s.nums, s.cden, s._terms = K, grade, den, nums, cden, None
    return s


def _over(s: MultiSeries, den: int, cden: int) -> dict:
    """s.nums with exponents over `den` and numerators over `cden`, multiples of
    s.den and s.cden."""
    f, g = den // s.den, cden // s.cden
    if f == 1:
        return s.nums if g == 1 else {e: c * g for e, c in s.nums.items()}
    return {tuple(x * f for x in e): c * g for e, c in s.nums.items()}


def _common(a: MultiSeries, b: MultiSeries) -> tuple[int, int, dict, dict]:
    """Both maps over lcm(a.den, b.den), their numerators over lcm(a.cden, b.cden)."""
    den, cden = math.lcm(a.den, b.den), math.lcm(a.cden, b.cden)
    return den, cden, _over(a, den, cden), _over(b, den, cden)


class MultiSeries:
    """Sparse Laurent polynomial in q0..qK, truncated at q1-exponent <= grade:
    no term lies past the grade.

    The terms live on an integer exponent lattice: `nums` maps an int vector k,
    the monomial q0^{k_0/den} q1^{k_1/den} ... qK^{k_K/den}, to the nonzero int
    numerator of its coefficient over `cden`.  `den` and `cden` are positive
    ints, one each per series, and the numerators over `cden` are kept reduced,
    with a single gcd per result.  Sums and products first put both operands over
    the lcm of their denominators; sorting int vectors over one den orders them
    as their exponents.  `terms` is the read-only Fraction view, built on first
    use.
    """

    __slots__ = ("K", "grade", "den", "nums", "cden", "_terms")

    def __init__(self, K: int, grade, terms=None):
        """The series sum of c q^e over a dict of exponent vectors e -> c, less
        the terms past the grade."""
        self.K, self.grade, self._terms = K, F(grade), None
        pairs = ((tuple(map(F, e)), c) for e, c in (terms or {}).items() if c)
        terms = {e: F(c) for e, c in pairs if e[1] <= self.grade}
        self.den = den = math.lcm(1, *(x.denominator for e in terms for x in e))
        # over the lcm of reduced denominators the numerators are already coprime to it
        self.cden = cden = math.lcm(1, *(c.denominator for c in terms.values()))
        self.nums = {tuple(x.numerator * (den // x.denominator) for x in e):
                     c.numerator * (cden // c.denominator) for e, c in terms.items()}

    @property
    def terms(self) -> MappingProxyType:
        """The terms as exponent vector of Fractions -> Fraction coefficient."""
        view = self._terms
        if view is None:
            den, cden = self.den, self.cden
            view = MappingProxyType({tuple(F(x, den) for x in e): F(c, cden)
                                     for e, c in self.nums.items()})
            self._terms = view
        return view

    @staticmethod
    def zero(K: int, grade) -> MultiSeries:
        return _series(K, F(grade), 1, {})

    @staticmethod
    def one(K: int, grade) -> MultiSeries:
        return _series(K, F(grade), 1, {(0,) * (K + 1): 1})

    @staticmethod
    def monomial(K: int, grade, exps, coeff=ONE) -> MultiSeries:
        e = tuple(F(x) for x in exps)
        if len(e) != K + 1:
            raise ValueError("exponent vector must have length K+1")
        return MultiSeries(K, grade, {e: coeff})

    def _require_compatible(self, other: MultiSeries) -> None:
        if self.K != other.K:
            raise ValueError("variable counts differ")

    def __add__(self, other: MultiSeries) -> MultiSeries:
        self._require_compatible(other)
        grade = min(self.grade, other.grade)
        den, cden, a, b = _common(self, other)
        cap = _cap(grade, den)
        nums = {e: c for e, c in a.items() if e[1] <= cap}
        for e, c in b.items():
            if e[1] <= cap:
                v = nums.get(e, 0) + c
                if v:
                    nums[e] = v
                else:
                    del nums[e]
        return _series(self.K, grade, den, nums, cden)

    def __neg__(self) -> MultiSeries:
        return _series(self.K, self.grade, self.den,
                       {e: -c for e, c in self.nums.items()}, self.cden)

    def __sub__(self, other: MultiSeries) -> MultiSeries:
        return self + (-other)

    def __mul__(self, other: MultiSeries) -> MultiSeries:
        self._require_compatible(other)
        grade = min(self.grade, other.grade)
        den = math.lcm(self.den, other.den)
        a, b = _over(self, den, self.cden), _over(other, den, other.cden)
        cap = _cap(grade, den)
        # the inner operand by q1-exponent, so each outer term stops at its room
        inner = sorted(b.items(), key=lambda t: t[0][1])
        nums: dict[IntVec, int] = {}
        get = nums.get
        for e1, c1 in a.items():
            room = cap - e1[1]
            for e2, c2 in inner:
                if e2[1] > room:
                    break
                e = tuple(map(add, e1, e2))
                nums[e] = get(e, 0) + c1 * c2
        return _series(self.K, grade, den, {e: c for e, c in nums.items() if c},
                       self.cden * other.cden)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiSeries):
            return NotImplemented
        if self.K != other.K:
            return False
        _, _, a, b = _common(self, other)
        return a == b

    def first_mismatch(self, other: MultiSeries) -> dict | None:
        """{"exps", "lhs", "rhs"} at the smallest exponent vector where the two
        maps disagree, self on the left; None where they are equal."""
        den, cden, x, y = _common(self, other)
        if x == y:
            return None
        for e in sorted(x.keys() | y.keys()):
            ca, cb = x.get(e, 0), y.get(e, 0)
            if ca != cb:
                return {"exps": [str(F(k, den)) for k in e],
                        "lhs": str(F(ca, cden)), "rhs": str(F(cb, cden))}
        return None

    def truncate(self, grade) -> MultiSeries:
        """The terms at q1-exponent <= grade; the grade never rises."""
        grade = min(F(grade), self.grade)
        cap = _cap(grade, self.den)
        return _series(self.K, grade, self.den,
                       {e: c for e, c in self.nums.items() if e[1] <= cap}, self.cden)

    def map_exponents(self, n: int) -> MultiSeries:
        """Apply the charge-shift substitution (`elliptic_map`) to every term and
        drop the images past the grade.  On the lattice it is the integer matrix
        C(i, j) n^{i-j}, and it is invertible (its inverse is the map for -n), so
        no two terms merge."""
        rows = [[math.comb(i, j) * n ** (i - j) for j in range(i + 1)]
                for i in range(self.K + 1)]
        cap = _cap(self.grade, self.den)
        images = ((tuple(sum(map(mul, row, e)) for row in rows), c)
                  for e, c in self.nums.items())
        return _series(self.K, self.grade, self.den,
                       {e: c for e, c in images if e[1] <= cap}, self.cden)

    def charge_slice(self, charge: int) -> MultiSeries:
        """Terms whose q0-exponent equals `charge`, kept at full vector shape."""
        k0 = charge * self.den
        return _series(self.K, self.grade, self.den,
                       {e: c for e, c in self.nums.items() if e[0] == k0}, self.cden)

    def derive(self, j: int) -> MultiSeries:
        """q_j d/dq_j: each term times its q_j-exponent, that is its numerator
        times the scaled exponent and the coefficient denominator times den.
        The exponents and den are first divided by their gcd g, so the
        numerators come out over cden * den / g, mostly reduced already."""
        if not 0 <= j <= self.K:
            raise ValueError(f"j must be between 0 and {self.K}")
        g = math.gcd(self.den, *(e[j] for e in self.nums))
        nums = {e: c * (e[j] // g) for e, c in self.nums.items() if e[j]}
        return _series(self.K, self.grade, self.den, nums, self.cden * (self.den // g))

    def q1_series(self) -> QSeries:
        """Set q_j = 1 for every j but 1: the q1-series from the lowest q1-exponent
        through the grade (one zero slot at the grade when there is no term).
        Terms whose q1-exponents differ by a non-integer share no QSeries grid."""
        den, cap = self.den, _cap(self.grade, self.den)
        sums: dict[int, int] = {}
        for e, c in self.nums.items():
            sums[e[1]] = sums.get(e[1], 0) + c
        if not sums:
            return QSeries.zero(0, self.grade)
        low = min(sums)
        nums = [0] * ((cap - low) // den + 1)
        for x, c in sums.items():
            k, r = divmod(x - low, den)
            if r:
                raise NonIntegerOffsetGap(f"q1-exponents {F(low, den)} and {F(x, den)} "
                                          "differ by a non-integer")
            nums[k] = c
        return QSeries.from_nums(nums, self.cden, F(low, den))

    def to_jsonable(self) -> dict:
        den, cden = self.den, self.cden
        return {"K": self.K, "grade": str(self.grade),
                "terms": [{"exps": [str(F(x, den)) for x in e], "coeff": str(F(c, cden))}
                          for e, c in sorted(self.nums.items())]}


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
    terms: dict[ExpVec, int] = {}
    for size in range(N + 1):
        for lam in partitions_of(size):
            e = (ZERO,) + tuple(hook_power_sum(lam, r) for r in range(1, K + 1))
            terms[e] = terms.get(e, 0) + 1
    return MultiSeries(K, N, terms) * _anomaly(K, N)


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
    terms = {}
    e1 = qs.offset
    for c in qs.coeffs:
        if e1 <= grade:
            terms[(ZERO, e1) + (ZERO,) * (K - 1)] = c
        e1 += qs.step
    return MultiSeries(K, grade, terms)


def verify_elliptic_transform(K: int = 3, N: int = 3) -> Report:
    """The product character composed with the forward charge-shift substitution
    equals q0 q1^{-1/2} q2^{1/3} ... qK^{(-1)^K/(K+1)} times itself, exactly to
    q1-grade N.  The substitution mixes grades with the charge, so the character
    is built to a padded grade before mapping.
    """
    statement = ("the product character is an eigenvector of the charge-shift "
                 "substitution, with explicit monomial eigenvalue")
    if N < 1:
        raise ValueError(f"the truncation order N = {N} must be at least 1")
    # a term of charge c has q1-grade >= c^2/2 - 1/24, so images landing at or
    # below N come from grades <= N + 1 + sqrt(2N+2); pad accordingly
    G = N + math.isqrt(2 * N - 1) + 1 + 2
    om = omega_series(K, G)
    lhs = om.map_exponents(-1).truncate(N)
    pref = [F((-1) ** j, j + 1) for j in range(K + 1)]
    rhs = (om * MultiSeries.monomial(K, G, pref)).truncate(N)
    return series_report("elliptic-transform", statement, {"K": K, "N": N}, lhs, rhs,
                         order_checked=N)


def verify_theta_expansion(K: int = 3, N: int = 3) -> Report:
    """The product character equals the charge sum of substituted charge-zero
    slices times q0^n q1^{n^2/2} q2^{n^3/3} ...; summands with |n| past the
    grade window vanish below grade N, so the sum is finite.
    """
    statement = ("the product character expands as a charge sum of shifted "
                 "charge-zero characters with theta-like monomial weights")
    if N < 0:
        raise ValueError(f"the truncation order N = {N} must be non-negative")
    n_max = math.isqrt(2 * N - 1) + 1 + 1 if N > 0 else 1
    v = V_series(K, N)
    total = MultiSeries.zero(K, N)
    for n in range(-n_max, n_max + 1):
        pref = [F(n) ** (j + 1) / (j + 1) for j in range(K + 1)]
        total = total + v.map_exponents(n) * MultiSeries.monomial(K, N, pref)
    return series_report("theta-expansion", statement, {"K": K, "N": N, "n_max": n_max},
                         total, omega_series(K, N), order_checked=N)


def verify_triple_product(N: int = 12) -> Report:
    """eta times the two-variable product character equals the integral theta
    sum q0^n q1^{n^2/2}, exactly to grade N."""
    statement = ("the eta function times the two-variable product character is "
                 "the integral charge theta sum")
    if N < 0:
        raise ValueError(f"the truncation order N = {N} must be non-negative")
    lhs = (_eta_multi(1, N) * omega_series(1, N)).truncate(N)
    theta = {}
    n = 0
    while F(n * n, 2) <= N:
        for m in {n, -n}:
            theta[(F(m), F(m * m, 2))] = 1
        n += 1
    rhs = MultiSeries(1, N, theta)
    return series_report("triple-product", statement, {"N": N}, lhs, rhs, order_checked=N)


def verify_v_consistency(K: int = 3, N: int = 4) -> Report:
    """The charge-zero slice of the product character equals the partition sum
    form of the charge-zero character, exactly."""
    statement = ("the charge-zero slice of the product character matches its "
                 "partition-sum expansion")
    if N < 0:
        raise ValueError(f"the truncation order N = {N} must be non-negative")
    return series_report("v-consistency", statement, {"K": K, "N": N},
                         V_from_omega(K, N), V_series(K, N), order_checked=N)
