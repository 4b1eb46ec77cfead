"""Truncated q-power series with exact rational coefficients.

A QSeries represents q^e0 * (c_0 + c_1 q + ... + c_N q^N + O(q^{N+1})) where e0 is a
single global rational offset.  The coefficients are Python ints `nums` over one
positive int `den` (c_k = nums[k] / den), kept reduced: gcd(den, *nums) = 1.  Every
operation works on the ints and reduces once, with a single gcd; `coeffs` is the
Fraction view of the same coefficients, built on first use.  Coefficients below the
offset are exactly zero; only exponents beyond e0+N are unknown.  All arithmetic
keeps the pessimistic truncation: the result is valid exactly as far as every input
was.
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
        self._check_step(other)
        gap = _gap(self.offset, other.offset)
        if gap is None:
            raise NonIntegerOffsetGap(
                f"offsets {self.offset} and {other.offset} differ by a non-integer")
        lo, hi = (self, other) if gap >= 0 else (other, self)
        base = abs(gap)  # hi's slot 0 sits at lo's slot `base`
        lo_nums, hi_nums = lo.nums, hi.nums
        lo_top, hi_top = len(lo_nums) - 1, base + len(hi_nums) - 1
        n = min(lo_top, hi_top)
        g = math.gcd(lo.den, hi.den)
        scale = hi.den // g
        out = [c * scale for c in lo_nums[: n + 1]]
        den = lo.den * scale
        scale = lo.den // g
        for j, c in enumerate(hi_nums[: max(0, n + 1 - base)], base):
            out[j] += c * scale
        if lo_top != hi_top:
            return _reduced(lo.offset, out, den, self.step)  # a cut window
        # Both operands are reduced and whole, so a prime of lo.den / g (or of
        # hi.den / g) divides no sum unless it divides every numerator of lo
        # (of hi) too: a common factor of the sums and den divides g
        # (Knuth, TAOCP 4.5.1).
        if g != 1:
            g = math.gcd(g, *out)
            if g != 1:
                out = [c // g for c in out]
                den //= g
        return _series(lo.offset, tuple(out), den, self.step)

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
        if self.nums[0] == 0:
            raise ZeroLeadingCoefficient("cannot invert: zero coefficient at the offset")
        n = self.trunc_order
        content = math.gcd(*self.nums)
        a = [c // content for c in self.nums]
        a0 = a[0]
        # 1/sum a_j q^j = sum_k B_k q^k / a0^{k+1} with B_0 = 1 and
        # B_k = -sum_{j>=1} a_j a0^{j-1} B_{k-j}: integers throughout
        w = [(j, c * a0 ** (j - 1)) for j, c in enumerate(a) if j and c]
        B = [1]
        for k in range(1, n + 1):
            s = 0
            for j, c in w:
                if j > k:
                    break
                s += c * B[k - j]
            B.append(-s)
        # self = (content/den) sum a_j q^j, so slot k of the inverse is
        # den B_k a0^{n-k} over the common denominator content a0^{n+1}
        out = [0] * (n + 1)
        p = self.den
        for k in range(n, -1, -1):
            out[k] = B[k] * p
            p *= a0
        return _reduced(-self.offset, out, content * a0 ** (n + 1), self.step)

    def __truediv__(self, other) -> QSeries:
        if isinstance(other, (int, Fraction)):
            return self * (ONE / _as_frac(other))
        return self * other.inv()

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
        return self.step == other.step and self.first_mismatch(other) is None

    def __hash__(self):
        return hash((self.offset, self.nums, self.den, self.step))

    def first_mismatch(self, other: QSeries) -> dict | None:
        """{"exponent", "lhs", "rhs"} at the first disagreement on the common
        range, self on the left; None where there is none.  Offsets a non-integer
        apart disagree at the lower one, with no coefficients."""
        gap = _gap(self.offset, other.offset)
        if gap is None:
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
