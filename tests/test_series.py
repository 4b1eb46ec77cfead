"""Exact series arithmetic: frozen oracles plus ring-axiom properties."""

import functools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwedge import series
from qwedge.reports import series_report
from qwedge.series import (
    NonIntegerOffsetGap,
    QSeries,
    SeriesError,
    ZeroLeadingCoefficient,
    euler_product,
    q_pochhammer,
    rational_sqrt,
)

F = Fraction


def S(coeffs, offset=0):
    return QSeries.from_coeffs([F(c) for c in coeffs], F(offset))


def eval_at(s, q0):
    """The known coefficients of s summed at an exact rational q0, which must
    have the exact root that a half-integer offset needs."""
    off = s.offset
    if off.denominator == 1:
        scale = q0 ** off.numerator
    else:
        root = rational_sqrt(q0) if off.denominator == 2 else None
        if root is None:
            raise SeriesError(f"cannot evaluate offset {off} at {q0}")
        scale = root ** (2 * off).numerator
    return scale * sum((c * q0 ** k for k, c in enumerate(s.coeffs)), F(0))


def from_jsonable(d):
    return QSeries(F(d["offset"]), d["coeffs"])


# -- frozen oracles ------------------------------------------------------------

def test_euler_product_pentagonal():
    # (q;q)_inf = 1 - q - q^2 + q^5 + q^7 - q^12 - q^15 + ...
    e = euler_product(16)
    assert e.offset == 0
    assert list(e.coeffs) == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1, 0, 0, -1, 0]


def test_pochhammer_finite_matches_direct_expansion():
    # (q; q)_3 = (1-q)(1-q^2)(1-q^3) = 1 - q - q^2 + q^4 + q^5 - q^6
    p = q_pochhammer(1, 1, 3, 8)
    assert list(p.coeffs[:7]) == [1, -1, -1, 0, 1, 1, -1]
    assert p.coeffs[7] == 0 and p.coeffs[8] == 0


def test_pochhammer_negative_start():
    # (c q^{-1}; q)_2 = (1 - c/q)(1 - c) = (c^2 - c) q^{-1} + (1 - c)
    c = F(1, 4)
    p = q_pochhammer(c, -1, 2, 5)
    assert p.offset == -1
    assert p.coefficient(-1) == c * c - c
    assert p.coefficient(0) == 1 - c
    assert p.coefficient(1) == 0
    assert p.upper == 5


def _binomial_product(c, j, n, order):
    """(c q^j; q)_n as a QSeries product of the polynomials 1 - c q^e, with the
    rules of `q_pochhammer`: slack for the negative exponents, factors past the
    order dropped, then truncated at q^order.  The infinite product is the finite
    one with more factors than can reach q^order (here at most 31, for j = -3
    and order 24)."""
    ks = range(40 if n is None else n)
    work = order - sum(min(0, j + k) for k in ks)
    result = QSeries.one(work)
    for e in (j + k for k in ks):
        if e <= work:
            result = result * (QSeries.one(work) - QSeries.monomial(c, e, work - min(e, 0)))
    rel = order - result.offset
    return result.truncate(int(rel)) if rel >= 0 else result


@pytest.mark.parametrize("c", [1, F(1, 4), F(-3, 7), F(9, 4), 2])
def test_pochhammer_equals_the_product_of_binomial_factors(c):
    for j in (-3, -1, 0, 1, 2, 5):
        for n in (None, 0, 1, 2, 5):
            for order in (0, 1, 3, 8, 24):
                got, want = q_pochhammer(c, j, n, order), _binomial_product(c, j, n, order)
                assert (got.offset, got.den, got.nums) == \
                    (want.offset, want.den, want.nums), (j, n, order)


def test_euler_product_is_the_product_of_one_minus_q_powers():
    for order in range(41):
        nums = [1] + [0] * order
        for m in range(1, order + 1):
            for k in range(order, m - 1, -1):
                nums[k] -= nums[k - m]
        e = euler_product(order)
        assert (e.offset, e.den, e.nums) == (0, 1, tuple(nums)), order


def test_euler_product_is_formed_once_per_order(monkeypatch):
    monkeypatch.setattr(series, "_EULER", {})
    for order in (0, 1, 7, 24):
        e = euler_product(order)
        assert euler_product(order) is e, order
        fresh = q_pochhammer(1, 1, None, order)
        assert (e.offset, e.den, e.nums) == (fresh.offset, fresh.den, fresh.nums), order
    assert sorted(series._EULER) == [0, 1, 7, 24]


def test_pochhammer_rejects_fractional_exponent():
    with pytest.raises(NonIntegerOffsetGap):
        q_pochhammer(1, F(1, 2), 2, 5)


def test_pochhammer_infinite_large_start_is_one():
    p = q_pochhammer(1, 9, None, 5)
    assert p == QSeries.one(5)


def test_geometric_inverse():
    # 1/(1-q) = 1 + q + q^2 + ...
    g = q_pochhammer(1, 1, 1, 6).inv()
    assert list(g.coeffs) == [1] * 7


def test_inverse_with_offset():
    # 1/(q^2 (1 - q)) = q^{-2} (1 + q + ...)
    s = q_pochhammer(1, 1, 1, 4).shift(2)
    inv = s.inv()
    assert inv.offset == -2
    assert list(inv.coeffs) == [1] * 5
    assert (s * inv) == QSeries.one(4)


def test_inv_requires_unit_leading_coefficient():
    with pytest.raises(ZeroLeadingCoefficient):
        S([0, 1, 2]).inv()


def test_add_alignment_and_truncation():
    a = S([1, 2, 3], offset=0)     # valid through q^2
    b = S([5, 7], offset=1)        # valid through q^2
    c = a + b
    assert c.offset == 0
    assert list(c.coeffs) == [1, 7, 10]
    assert c.upper == 2


def test_add_reduces_a_cut_window_in_full():
    """The cut drops the 1/2 that made the left operand's den 2, so the
    sum's numerators share that 2 with the den and are reduced in full."""
    c = QSeries(0, [1, F(1, 2)]) + QSeries(0, [1])
    assert (c.nums, c.den) == ((2,), 1)


def test_add_cancels_the_factors_the_denominators_share():
    c = S([F(1, 6)]) + S([F(1, 3)])
    assert (c.nums, c.den) == ((1,), 2)
    c = S([F(1, 6), F(5, 4)], offset=1) + S([F(1, 3), F(7, 4)], offset=1)
    assert (c.nums, c.den) == ((1, 6), 2)


def test_add_cancelling_to_zero_has_den_one():
    a = S([F(1, 6), F(-5, 4), F(2, 9)], offset=F(1, 2))
    for z in (a + (-a), a - a):
        assert z.is_zero() and (z.nums, z.den) == ((0, 0, 0), 1)


def test_add_rejects_noninteger_gap():
    with pytest.raises(NonIntegerOffsetGap):
        S([1], offset=0) + S([1], offset=F(1, 2))


def test_mul_offsets_add():
    a = S([2, 1], offset=F(1, 2))
    b = S([3, 1], offset=F(-3, 2))
    c = a * b
    assert c.offset == -1
    assert list(c.coeffs) == [6, 5]


def test_derive_is_q_d_dq():
    s = S([5, 1, 1], offset=-2)
    d = s.derive()
    assert list(d.coeffs) == [-10, -1, 0]
    half = S([1, 1], offset=F(1, 2))  # q^{1/2} + q^{3/2}
    assert list(half.derive().coeffs) == [F(1, 2), F(3, 2)]


def test_eval_at_rational_point():
    s = S([1, 1, 1])
    assert eval_at(s, F(1, 2)) == F(7, 4)
    t = S([1], offset=F(1, 2))
    assert eval_at(t, F(1, 9)) == F(1, 3)
    with pytest.raises(SeriesError):
        eval_at(t, F(1, 2))


def test_coefficient_below_offset_is_zero():
    s = S([3, 1], offset=2)
    assert s.coefficient(0) == 0
    assert s.coefficient(F(5, 2)) == 0
    assert s.coefficient(2) == 3
    with pytest.raises(SeriesError):
        s.coefficient(4)


def test_equality_on_common_range():
    a = S([1, 2, 3, 4])
    b = S([1, 2, 3])
    assert a == b            # agree through q^2
    assert a != S([1, 2, 4])
    assert S([0, 0, 5], offset=-1) == S([5], offset=1)


def test_first_mismatch():
    a = S([1, 2, 3])
    b = S([1, 2, 4, 9])
    assert a.first_mismatch(b) == {"exponent": 2, "lhs": 3, "rhs": 4}
    assert a.first_mismatch(S([1, 2])) is None
    # offsets a non-integer apart share no grid: they disagree at the lower
    # offset, with no coefficients
    c, h = S([1], offset=1), S([1], offset=F(1, 2))
    none = {"exponent": F(1, 2), "lhs": None, "rhs": None}
    assert c != h and c.first_mismatch(h) == h.first_mismatch(c) == none
    rep = series_report("x", "y", {}, c, h)
    assert (rep.status, rep.first_mismatch) == ("fail", none)


def test_json_round_trip():
    s = S(["-1/24", 1, 3], offset=F(1, 2))
    d = s.to_jsonable()
    assert d == {"offset": "1/2", "coeffs": ["-1/24", "1", "3"]}
    assert from_jsonable(d) == s


def test_pow_matches_repeated_mul():
    s = S([1, 1], offset=1)
    assert s ** 3 == s * s * s
    assert s ** 0 == QSeries.one(1)
    inv2 = s ** -2
    assert inv2.offset == -2
    assert (inv2 * s * s) == QSeries.one(1)


# -- property tests -------------------------------------------------------------

frac = st.fractions(min_value=-4, max_value=4, max_denominator=8)


@st.composite
def qseries(draw, max_order=6):
    n = draw(st.integers(min_value=0, max_value=max_order))
    coeffs = draw(st.lists(frac, min_size=n + 1, max_size=n + 1))
    offset = draw(st.integers(min_value=-3, max_value=3))
    return QSeries.from_coeffs(coeffs, F(offset))


@given(qseries(), qseries())
@settings(max_examples=80, deadline=None)
def test_add_commutes(a, b):
    assert a + b == b + a


@given(qseries(), qseries())
@settings(max_examples=80, deadline=None)
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(qseries(), qseries(), qseries())
@settings(max_examples=60, deadline=None)
def test_mul_distributes_over_add(a, b, c):
    lhs = a * (b + c)
    rhs = a * b + a * c
    assert lhs == rhs


@given(qseries(), qseries())
@settings(max_examples=60, deadline=None)
def test_leibniz_rule(a, b):
    lhs = (a * b).derive()
    rhs = a.derive() * b + a * b.derive()
    assert lhs == rhs


@given(qseries())
@settings(max_examples=60, deadline=None)
def test_inverse_round_trip(s):
    if s.coeffs[0] == 0:
        return
    assert (s * s.inv()) == QSeries.one(s.trunc_order)


@given(st.integers(min_value=0, max_value=400))
@settings(max_examples=40, deadline=None)
def test_rational_sqrt(n):
    r = rational_sqrt(F(n))
    if r is not None:
        assert r * r == n
    rr = rational_sqrt(F(n * n, 49))
    assert rr == F(n, 7)


# -- the integer representation against a Fraction-per-coefficient reference ------
# The reference keeps one Fraction per coefficient and runs the schoolbook loops
# QSeries used before it moved to integer numerators over one denominator.

class Ref:
    def __init__(self, offset, coeffs):
        self.offset, self.coeffs = F(offset), [F(c) for c in coeffs]

    @property
    def upper(self):
        return self.offset + len(self.coeffs) - 1

    def __add__(self, other):
        off = min(self.offset, other.offset)
        n = int(min(self.upper, other.upper) - off)
        out = [F(0)] * (n + 1)
        for src in (self, other):
            base = int(src.offset - off)
            for k, c in enumerate(src.coeffs):
                if 0 <= base + k <= n:
                    out[base + k] += c
        return Ref(off, out)

    def __neg__(self):
        return Ref(self.offset, [-c for c in self.coeffs])

    def scale(self, c):
        return Ref(self.offset, [c * x for x in self.coeffs])

    def __mul__(self, other):
        n = min(len(self.coeffs), len(other.coeffs)) - 1
        out = [F(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            for j, b in enumerate(other.coeffs[: n + 1 - i]):
                out[i + j] += a * b
        return Ref(self.offset + other.offset, out)

    def inv(self):
        c0, n = self.coeffs[0], len(self.coeffs) - 1
        out = [1 / c0] + [F(0)] * n
        for k in range(1, n + 1):
            out[k] = -sum((self.coeffs[j] * out[k - j] for j in range(1, k + 1)),
                          F(0)) / c0
        return Ref(-self.offset, out)

    def pow(self, e):
        base = self.inv() if e < 0 else self
        out = Ref(0, [1] + [0] * (len(self.coeffs) - 1))
        for _ in range(abs(e)):
            out = out * base
        return out

    def derive(self):
        return Ref(self.offset, [(self.offset + k) * c for k, c in enumerate(self.coeffs)])

    def truncate(self, order):
        return Ref(self.offset, self.coeffs[: order + 1])

    def shift(self, delta):
        return Ref(self.offset + delta, self.coeffs)

    def eval_at(self, root):
        # q0 = root^4 with root > 0, so q0^{offset + k} is a power of root here
        return sum((c * root ** int(4 * (self.offset + k))
                    for k, c in enumerate(self.coeffs)), F(0))


def as_ref(s: QSeries) -> Ref:
    return Ref(s.offset, s.coeffs)


def assert_same(got: QSeries, want: Ref):
    assert (got.offset, got.trunc_order) == (want.offset, len(want.coeffs) - 1)
    assert list(got.coeffs) == want.coeffs
    assert got.den > 0 and math.gcd(got.den, *got.nums) == 1


wide_frac = st.fractions(min_value=-9, max_value=9, max_denominator=12)
half_integer = st.integers(min_value=-6, max_value=6).map(lambda k: F(k, 2))


@st.composite
def series_pair(draw):
    """Two series on one grid: offsets an integer apart."""
    offset = draw(half_integer)
    gap = draw(st.integers(min_value=-3, max_value=3))
    a, b = (draw(st.lists(wide_frac, min_size=1, max_size=8)) for _ in range(2))
    return QSeries(offset, a), QSeries(offset + gap, b)


@given(series_pair(), wide_frac, st.integers(min_value=-3, max_value=3),
       st.integers(min_value=0, max_value=8), half_integer,
       st.sampled_from([F(1, 2), F(2, 3), F(3), F(5, 4)]))
@settings(max_examples=150, deadline=None)
def test_integer_representation_matches_fraction_reference(pair, c, e, order, delta,
                                                           root):
    a, b = pair
    ra, rb = as_ref(a), as_ref(b)
    assert_same(a + b, ra + rb)
    assert_same(a - b, ra + (-rb))
    assert_same(-a, -ra)
    assert_same(a * c, ra.scale(c))
    assert_same(c * a, ra.scale(c))
    assert_same(a * 3, ra.scale(F(3)))
    assert_same(a * b, ra * rb)
    assert_same(a.derive(), ra.derive())
    assert_same(a.truncate(order), ra.truncate(order))
    assert_same(a.shift(delta), ra.shift(delta))
    assert eval_at(a, root ** 4) == ra.eval_at(root)
    if a.coeffs[0] == 0:
        with pytest.raises(ZeroLeadingCoefficient):
            a.inv()
    else:
        assert_same(a.inv(), ra.inv())
        assert_same(a ** e, ra.pow(e))
        assert_same(b / a, rb * ra.inv())


@given(st.lists(wide_frac, min_size=1, max_size=10), st.integers(1, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_nums_over_den_are_reduced(coeffs, scale):
    s = QSeries.from_coeffs(coeffs)
    assert s.den > 0 and math.gcd(s.den, *s.nums) == 1
    assert list(s.coeffs) == coeffs
    # the same series given over a common multiple of its denominator
    t = QSeries.from_nums([scale * n for n in s.nums], -scale * s.den)
    assert t.den == s.den and t.nums == tuple(-n for n in s.nums)
    # a cancelling sum reduces to the zero series over 1
    z = s - s
    assert z.is_zero() and z.den == 1


def test_qseries_is_immutable_and_unhashable():
    s = S([1, F(1, 2)])
    with pytest.raises(AttributeError):
        s.den = 2
    # equal on the common range is not transitive: S([1]) equals both S([1, 1/2])
    # and S([1, 0]), which differ, so no hash can agree with ==
    assert S([1]) == s and S([1]) == S([1, 0]) and s != S([1, 0])
    with pytest.raises(TypeError):
        hash(s)


def exact(s: QSeries) -> tuple:
    return (s.offset, s.nums, s.den)


def raised(call):
    """The SeriesError class `call` raises, or None."""
    try:
        call()
    except SeriesError as err:
        return type(err)
    return None


@st.composite
def divisor(draw):
    """A series, often sparse (most slots zero), its lead sometimes zero."""
    sparse = st.sampled_from([F(0), F(0), F(0), F(-2, 3)])
    coeffs = draw(st.lists(draw(st.sampled_from([wide_frac, sparse])),
                           min_size=1, max_size=12))
    coeffs[0] = draw(st.sampled_from([F(0), F(1), F(-3, 4), F(7)]))
    return QSeries(draw(half_integer), coeffs)


@given(divisor(), st.lists(wide_frac, min_size=1, max_size=12), half_integer)
@settings(max_examples=100, deadline=None)
def test_division_is_the_product_with_the_inverse(b, coeffs, offset):
    """a / b is exactly a * b.inv(), as stored, and fails as that product
    fails: on a zero lead of b."""
    a = QSeries(offset, coeffs)
    err = raised(lambda: a * b.inv())
    if err is None:
        assert exact(a / b) == exact(a * b.inv())
    else:
        assert err is ZeroLeadingCoefficient
        with pytest.raises(ZeroLeadingCoefficient):
            a / b


@st.composite
def series_list(draw):
    """1 to 6 series on one grid: offsets an integer apart, unequal lengths."""
    offset = draw(half_integer)
    gaps = draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=6))
    return [QSeries(offset + gap, draw(st.lists(wide_frac, min_size=1, max_size=8)))
            for gap in gaps]


@given(series_list(), st.data())
@settings(max_examples=100, deadline=None)
def test_sum_of_is_adding_one_by_one(terms, data):
    """QSeries.sum_of equals the Fraction reference added one by one, and
    fails with NonIntegerOffsetGap when a term is off the grid."""
    assert_same(QSeries.sum_of(terms), functools.reduce(operator.add, map(as_ref, terms)))
    assert QSeries.sum_of(terms[:1]) is terms[0]
    stray = QSeries(terms[0].offset + F(1, 3), [1, 2])
    for _ in range(data.draw(st.integers(min_value=1, max_value=2))):
        terms.insert(data.draw(st.integers(min_value=1, max_value=len(terms))), stray)
    assert raised(lambda: QSeries.sum_of(terms)) is NonIntegerOffsetGap
