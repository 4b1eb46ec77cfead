"""Truncated q-power series with exact rational coefficients.

A QSeries represents q^e0 * (c_0 + c_1 q + ... + c_N q^N + O(q^{N+1})) where e0 is a
single global rational offset.  The coefficients are Python ints `nums` over one
positive int `den` (c_k = nums[k] / den), kept reduced: gcd(den, *nums) = 1.  Every
operation works on the ints and reduces once, with a single gcd; `coeffs` is the
Fraction view of the same coefficients, built on first use.  A quotient a / b is
one long division, not a product with b.inv().  `QSeries.sum_of` adds a list of
series over one common denominator, and a + b is the sum of the two.
Coefficients below the offset are exactly zero; only exponents beyond e0+N are
unknown.  All arithmetic keeps the pessimistic truncation: the result is valid
exactly as far as every input was.
"""

from __future__ import annotations

import math
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class SeriesError(Exception):
    pass


class NonIntegerOffsetGap(SeriesError):
    """Two series whose offsets differ by a non-integer cannot share a coefficient grid."""


class ZeroLeadingCoefficient(SeriesError):
    """Inversion (or division) requires a nonzero coefficient at the offset."""


class MixedStep(SeriesError):
    """Series on different base-variable steps (q vs q^{1/2}) must not be combined."""


def _as_frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not a rational scalar: {x!r}")


def rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if it is not a square."""
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _fill(s: QSeries, offset: Fraction, nums: tuple[int, ...], den: int,
          step: Fraction) -> QSeries:
    if not nums:
        raise ValueError("QSeries needs at least one coefficient slot")
    _put_offset(s, offset)
    _put_nums(s, nums)
    _put_den(s, den)
    _put_step(s, step)
    _put_coeffs(s, None)
    return s


def _series(offset: Fraction, nums: tuple[int, ...], den: int, step: Fraction) -> QSeries:
    """The series sum_k nums[k]/den q^{offset+k}; nums over den must be reduced, den > 0."""
    return _fill(_new(QSeries), offset, nums, den, step)


def _reduced(offset: Fraction, nums, den: int, step: Fraction) -> QSeries:
    """`_series` after dividing out gcd(den, *nums); den may be negative."""
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        nums = [c // g for c in nums]
        den //= g
    return _series(offset, tuple(nums), den, step)


def _gap(lo: Fraction, hi: Fraction) -> int | None:
    """hi - lo if it is an integer, else None.  Two reduced fractions differ by an
    integer exactly when they share a denominator d and their numerators agree mod d."""
    d = lo.denominator
    if d != hi.denominator or (hi.numerator - lo.numerator) % d:
        return None
    return (hi.numerator - lo.numerator) // d


class QSeries:
    __slots__ = ("offset", "nums", "den", "step", "_coeffs")

    def __init__(self, offset, coeffs, step=ONE):
        """q^offset * sum_k coeffs[k] q^k; coefficients may be ints, Fractions or
        strings."""
        coeffs = [_as_frac(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in coeffs))
        # over the lcm of reduced denominators the numerators are already coprime to it
        nums = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        _fill(self, _as_frac(offset), nums, den, _as_frac(step))

    def __setattr__(self, name, value):
        raise AttributeError(f"QSeries is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"QSeries is immutable; cannot delete {name!r}")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, built on first use and then kept."""
        view = self._coeffs
        if view is None:
            den = self.den
            view = tuple(Fraction(c, den) for c in self.nums)
            _put_coeffs(self, view)
        return view

    @property
    def trunc_order(self) -> int:
        return len(self.nums) - 1

    @property
    def upper(self) -> Fraction:
        """Largest exponent (relative to q^0) whose coefficient is known."""
        return self.offset + self.trunc_order

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_coeffs(coeffs, offset=ZERO, step=ONE) -> QSeries:
        return QSeries(offset, coeffs, step)

    @staticmethod
    def from_nums(nums, den: int, offset=ZERO, step=ONE) -> QSeries:
        """sum_k nums[k]/den q^{offset+k} for ints nums and a nonzero int den."""
        return _reduced(_as_frac(offset), nums, den, _as_frac(step))

    @staticmethod
    def zero(order: int, offset=ZERO, step=ONE) -> QSeries:
        return _series(_as_frac(offset), (0,) * (order + 1), 1, _as_frac(step))

    @staticmethod
    def const(c, order: int, step=ONE) -> QSeries:
        return QSeries.monomial(c, ZERO, order, step)

    @staticmethod
    def one(order: int, step=ONE) -> QSeries:
        return QSeries.const(ONE, order, step)

    @staticmethod
    def monomial(c, exponent, order: int, step=ONE) -> QSeries:
        """c * q^exponent, known to relative order `order`."""
        c = _as_frac(c)
        return _series(_as_frac(exponent), (c.numerator,) + (0,) * order, c.denominator,
                       _as_frac(step))

    # -- bookkeeping ----------------------------------------------------------

    def coefficient(self, exponent) -> Fraction:
        """Coefficient of q^exponent; exact zero below the offset, error beyond upper."""
        e = _as_frac(exponent)
        rel = e - self.offset
        if rel.denominator != 1:
            return ZERO
        k = rel.numerator
        if k < 0:
            return ZERO
        if k > self.trunc_order:
            raise SeriesError(f"coefficient at q^{e} is beyond the truncation order")
        return self.coeffs[k]

    def truncate(self, order: int) -> QSeries:
        if order >= self.trunc_order:
            return self
        if order < 0:
            raise ValueError("QSeries needs at least one coefficient slot")
        return _reduced(self.offset, self.nums[: order + 1], self.den, self.step)

    def shift(self, delta) -> QSeries:
        """Multiply by the monomial q^delta (exact)."""
        return _series(self.offset + _as_frac(delta), self.nums, self.den, self.step)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def valuation(self) -> Fraction | None:
        """Exponent of the first nonzero known coefficient, None for the zero series."""
        for k, c in enumerate(self.nums):
            if c:
                return self.offset + k
        return None

    # -- ring operations ------------------------------------------------------

    def _check_step(self, other: QSeries):
        if self.step is not other.step and self.step != other.step:
            raise MixedStep(f"cannot combine step {self.step} with step {other.step}")

    def __add__(self, other: QSeries) -> QSeries:
        if type(other) is not QSeries:
            return NotImplemented
        return QSeries.sum_of([self, other])

    @staticmethod
    def sum_of(terms) -> QSeries:
        """The sum of a nonempty list of series over one common denominator,
        with one reduction, valid as far as every term is; `a + b` is the sum
        of the two.  A term on another step raises MixedStep, one whose
        offset is a non-integer away from the first's NonIntegerOffsetGap."""
        first = terms[0]
        if len(terms) == 1:
            return first
        gaps = []  # each term's offset minus the first's
        for t in terms:
            first._check_step(t)
            gap = _gap(first.offset, t.offset)
            if gap is None:
                raise NonIntegerOffsetGap(
                    f"offsets {first.offset} and {t.offset} differ by a non-integer")
            gaps.append(gap)
        low = min(gaps)
        top = min(gap + len(t.nums) - 1 for gap, t in zip(gaps, terms))
        den = math.lcm(*(t.den for t in terms))
        out = [0] * (top - low + 1)
        for gap, t in zip(gaps, terms):
            scale = den // t.den
            for j, c in enumerate(t.nums[: max(0, top - gap + 1)], gap - low):
                if c:
                    out[j] += c * scale
        return _reduced(first.offset + low if low else first.offset, out, den, first.step)

    def __neg__(self) -> QSeries:
        return _series(self.offset, tuple(-c for c in self.nums), self.den, self.step)

    def __sub__(self, other: QSeries) -> QSeries:
        return self + (-other)

    def __mul__(self, other) -> QSeries:
        if type(other) is not QSeries:
            if isinstance(other, (int, Fraction)):  # an int is its own numerator, over 1
                return _reduced(self.offset, [other.numerator * x for x in self.nums],
                                self.den * other.denominator, self.step)
            return NotImplemented
        self._check_step(other)
        a, b = self.nums, other.nums
        n = min(len(a), len(b))
        if n == 1:  # one slot: no loop
            out = [a[0] * b[0]]
        else:
            a, b = a[:n], b[:n]
            if a.count(0) < b.count(0):
                a, b = b, a  # walk the sparser operand (lattice sums: O(sqrt N) nonzeros)
            out = [0] * n
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b[: n - i], i):
                        out[j] += x * y
        # most factors sit at offset 0, where the Fraction add is wasted
        if not self.offset:
            offset = other.offset
        elif not other.offset:
            offset = self.offset
        else:
            offset = self.offset + other.offset
        return _reduced(offset, out, self.den * other.den, self.step)

    __rmul__ = __mul__

    def inv(self) -> QSeries:
        """1 / self, by the long division of `/`."""
        return QSeries.one(self.trunc_order, self.step) / self

    def __truediv__(self, other) -> QSeries:
        """self / other by long division, valid as far as both are: a sparse
        divisor (a lattice sum) costs O(n) per nonzero coefficient.

        With b_j / b_0 = p_j / d_j in lowest terms (d_j > 0), the quotient of
        the numerators is sum_k T_k q^k / b_0 with T_k = a_k - sum_{j>=1}
        p_j T_{k-j} / d_j, whose denominator divides E_k = lcm_j d_j E_{k-j},
        E_0 = 1.  So R_k = T_k E_k are integers, R_k = a_k E_k - sum_{j>=1}
        p_j (E_k / (d_j E_{k-j})) R_{k-j}, and E_k grows only as fast as the
        quotient needs: a lattice sum's b_j share most of b_0's powers of s.
        """
        if type(other) is not QSeries:
            if isinstance(other, (int, Fraction)):
                return self * (ONE / _as_frac(other))
            return NotImplemented
        b = other.nums
        b0 = b[0]
        if b0 == 0:
            raise ZeroLeadingCoefficient("cannot divide by a series with a zero "
                                         "coefficient at its offset")
        self._check_step(other)
        n = min(len(self.nums), len(b))
        steps = []  # (j, p_j, d_j) for the nonzero b_j, j >= 1
        for j, c in enumerate(b[1:n], 1):
            if c:
                g = math.gcd(b0, c)
                d, p = b0 // g, c // g
                steps.append((j, p, d) if d > 0 else (j, -p, -d))
        E, R = [], []
        for k, x in enumerate(self.nums[:n]):
            reach = []  # (p_j, d_j E_{k-j}, R_{k-j})
            for j, p, d in steps:
                if j > k:
                    break
                reach.append((p, d * E[k - j], R[k - j]))
            e = math.lcm(*(m for _, m, _ in reach))
            s = x * e
            for p, m, r in reach:
                s -= p * (e // m) * r
            E.append(e)
            R.append(s)
        # self / other = (den_b / (den_a b0)) sum_k R_k q^k / E_k, over the
        # common denominator den_a b0 L with L = lcm_k E_k
        big = math.lcm(*E)
        out = [other.den * r * (big // e) for r, e in zip(R, E)]
        offset = self.offset - other.offset if other.offset else self.offset
        return _reduced(offset, out, self.den * b0 * big, self.step)

    def __pow__(self, n: int) -> QSeries:
        if n < 0:
            return self.inv() ** (-n)
        result = QSeries.one(self.trunc_order, self.step)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def derive(self) -> QSeries:
        """D = q d/dq: c_k -> step*(offset+k) c_k.

        For step-1/2 series the slot exponent is in the base variable u = q^{1/2},
        so the q-derivative picks up the extra factor of step.
        """
        sn, sd = self.step.numerator, self.step.denominator
        on, od = self.offset.numerator, self.offset.denominator
        return _reduced(self.offset,
                        [sn * (on + k * od) * c for k, c in enumerate(self.nums)],
                        self.den * sd * od, self.step)

    # -- comparison -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        """Equal iff all coefficients agree on the common valid range.

        Offsets differing by a non-integer compare unequal by construction (unless
        both series are identically zero on the common range, which cannot be
        detected across grids; we follow the documented convention).
        """
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.first_mismatch(other) is None

    # equality on the common range is not transitive, so no hash agrees with it
    __hash__ = None

    def first_mismatch(self, other: QSeries) -> dict | None:
        """{"exponent", "lhs", "rhs"} at the first disagreement on the common
        range, self on the left; None where there is none.  Offsets a non-integer
        apart, or on two steps, disagree at the lower one, with no coefficients."""
        gap = _gap(self.offset, other.offset)
        if gap is None or self.step != other.step:
            return {"exponent": min(self.offset, other.offset), "lhs": None, "rhs": None}
        # both on the grid off, off+1, ..., off+n, zero-padded below their offsets
        off = self.offset if gap >= 0 else other.offset
        pad_a, pad_b = max(0, -gap), max(0, gap)
        n = min(pad_a + self.trunc_order, pad_b + other.trunc_order)
        a = ([0] * pad_a + list(self.nums))[: n + 1]
        b = ([0] * pad_b + list(other.nums))[: n + 1]
        da, db = self.den, other.den
        for j, (x, y) in enumerate(zip(a, b)):
            if x * db != y * da:  # x/da != y/db
                return {"exponent": off + j,
                        "lhs": Fraction(x, da), "rhs": Fraction(y, db)}
        return None

    # -- serialization ----------------------------------------------------------

    def to_jsonable(self) -> dict:
        d = {"offset": str(self.offset), "coeffs": [str(c) for c in self.coeffs]}
        if self.step != 1:
            d["base_step"] = str(self.step)
        return d

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        if self.trunc_order >= 8:
            shown += ", ..."
        return f"QSeries(q^{self.offset} * [{shown}]; N={self.trunc_order})"


# results are built through the slot descriptors, past the immutable __setattr__
_new = object.__new__
_put_offset, _put_nums, _put_den, _put_step, _put_coeffs = (
    QSeries.__dict__[name].__set__ for name in QSeries.__slots__)


def q_pochhammer(c, j, n: int | None, order: int) -> QSeries:
    """(c q^j; q)_n = prod_{k=0}^{n-1} (1 - c q^{j+k}), truncated at `order`.

    n=None means the infinite product.  The factors with negative exponents move
    the offset down, so the product works that far past `order`; a factor past
    that working order cannot touch the kept coefficients and is dropped.
    """
    c = _as_frac(c)
    j = _as_frac(j)
    if j.denominator != 1:
        raise NonIntegerOffsetGap("q-Pochhammer exponent must be an integer")
    j = j.numerator
    if n is not None and n < 0:
        raise ValueError("negative length")
    # slack for the negative exponents j, j+1, ..., -1 among the factors
    work = order - sum(range(j, 0 if n is None else min(0, j + n)))
    top = max(work, 0)  # the product: nums over den from q^offset, slots 0..top
    nums, den, offset = [1] + [0] * top, 1, 0
    p, d = c.numerator, c.denominator
    # a factor past q^work reaches only exponents beyond q^order and is dropped
    for e in range(j, work + 1 if n is None else min(j + n, work + 1)):
        # (1 - c q^e) in place, top down: slot m takes x nums[m] + y nums[m - g];
        # for e < 0 the offset moves down instead
        x, y, g = (d, -p, e) if e >= 0 else (-p, d, -e)
        for m in range(top, g - 1, -1):
            nums[m] = x * nums[m] + y * nums[m - g]
        for m in range(min(g, top + 1)):
            nums[m] *= x
        den, offset = den * d, offset + min(e, 0)
    rel = order - offset
    return _reduced(Fraction(offset), nums[: rel + 1] if 0 <= rel < top else nums, den, ONE)


_EULER: dict[int, QSeries] = {}


def euler_product(order: int) -> QSeries:
    """(q; q)_inf to the given order: 1 - q - q^2 + q^5 + q^7 - ..., formed once
    per order and process, and then shared: a QSeries is immutable."""
    found = _EULER.get(order)
    if found is None:
        found = _EULER[order] = q_pochhammer(ONE, 1, None, order)
    return found
