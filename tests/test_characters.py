"""Multivariate character series and the charge-shift substitution."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwedge.characters import (
    MultiSeries,
    V_from_omega,
    V_series,
    elliptic_map,
    omega_series,
    verify_elliptic_transform,
    verify_theta_expansion,
    verify_triple_product,
    verify_v_consistency,
)
from qwedge.partitions import partition_count
from qwedge.reports import series_report
from qwedge.series import NonIntegerOffsetGap, QSeries

F = Fraction


def test_multiseries_mul_drops_over_grade():
    a = MultiSeries.monomial(1, 3, (0, 2))
    b = MultiSeries.monomial(1, 3, (0, 2))
    assert (a * b).terms == {}
    c = MultiSeries.monomial(1, 3, (0, 1))
    assert (a * c).terms == {(F(0), F(3)): F(1)}


def test_multiseries_holds_no_term_past_its_grade():
    """The constructor and the charge shift drop what the grade does not know,
    so equality compares only coefficients the series knows."""
    s = MultiSeries(1, 2, {(0, 5): 1})
    assert s.terms == {} and s.den == 1
    assert s == MultiSeries.zero(1, 2) == s.truncate(2)
    # the q1-exponent picks up twice the charge: (1, 2, 0) lands at q1^4,
    # past grade 3, while (0, 1, 0) stays at q1^1
    mapped = MultiSeries(2, 3, {(1, 2, 0): 1, (0, 1, 0): 1}).map_exponents(2)
    assert mapped.terms == {(F(0), F(1), F(4)): F(1)}
    assert mapped == MultiSeries.monomial(2, 3, (0, 1, 4))


def test_truncate_never_raises_the_grade():
    """A series cut at grade 2 knows nothing past q1^2, so a truncation to 5
    keeps grade 2, and a sum with it drops the other side's q1^4."""
    s = MultiSeries(1, 2, {(0, 1): 1}).truncate(5)
    assert s.grade == 2
    total = s + MultiSeries(1, 5, {(0, 1): 1, (0, 4): 1})
    assert total.grade == 2 and total.terms == {(F(0), F(1)): F(2)}


def test_series_report_names_the_first_mismatched_exponent_vector():
    a = MultiSeries(1, 3, {(0, 1): 1, (1, 2): 2})
    b = MultiSeries(1, 3, {(0, 1): 1, (1, 2): 3})
    assert series_report("x", "y", {}, a, a, order_checked=3).ok
    rep = series_report("x", "y", {}, a, b, order_checked=3)
    assert (rep.status, rep.order_checked) == ("fail", 3)
    assert rep.first_mismatch == {"exps": ["1", "2"], "lhs": "2", "rhs": "3"}


def test_q1_series_needs_whole_steps_between_q1_exponents():
    s = MultiSeries(1, 2, {(0, 0): 1, (1, F(1, 2)): 1})
    with pytest.raises(NonIntegerOffsetGap, match="1/2"):
        s.q1_series()
    assert s.charge_slice(1).q1_series() == QSeries(F(1, 2), [1, 0])


def test_multiseries_monomial_validates_length():
    with pytest.raises(ValueError):
        MultiSeries.monomial(2, 3, (0, 1))


def test_omega_charge_exponents_are_bounded_integers():
    om = omega_series(2, 4)
    for e in om.terms:
        assert e[0].denominator == 1
        assert abs(e[0]) <= e[1] + F(1, 24) + F(1, 2)  # each unit of charge costs >= 1/2


def test_omega_single_factor_term():
    om = omega_series(3, 3)
    # charge +1, lowest factor only; anomaly shifts q1 by -1/24 and q3 by +7/960
    e = (F(1), F(1, 2) - F(1, 24), F(1, 4), F(1, 8) + F(7, 960))
    assert om.terms[e] == 1


def test_v_single_box_term():
    v = V_series(3, 3)
    e = (F(0), F(1) - F(1, 24), F(0), F(1, 4) + F(7, 960))
    assert v.terms[e] == 1


def test_elliptic_map_identity_and_boundary():
    e = (F(2), F(-1, 2), F(1, 3), F(7))
    assert elliptic_map(e, 0, 3) == e
    top = (F(0), F(0), F(0), F(5))
    assert elliptic_map(top, -1, 3) == top  # nothing above index K to pull from


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(max_denominator=8), min_size=5, max_size=5),
       st.integers(-3, 3), st.integers(-3, 3))
def test_elliptic_map_composes_additively(vals, n, m):
    e = tuple(vals)
    once = elliptic_map(elliptic_map(e, n, 4), m, 4)
    assert once == elliptic_map(e, n + m, 4)
    # in particular the forward map and its inverse cancel
    assert elliptic_map(elliptic_map(e, -1, 4), 1, 4) == e


def test_elliptic_transform_theta_degenerate():
    assert verify_elliptic_transform(1, 6).ok


def test_elliptic_transform():
    assert verify_elliptic_transform(2, 3).ok
    assert verify_elliptic_transform(3, 3).ok


def test_theta_expansion():
    assert verify_theta_expansion(2, 3).ok
    assert verify_theta_expansion(3, 3).ok


def test_triple_product():
    assert verify_triple_product(12).ok
    assert verify_triple_product(0).order_checked == 0


def test_triple_product_rejects_negative_grade():
    with pytest.raises(ValueError):
        verify_triple_product(-1)


def test_v_consistency():
    assert verify_v_consistency(2, 4).ok
    assert verify_v_consistency(3, 4).ok


def test_v_specializes_to_partition_counts():
    q1 = V_series(3, 5).q1_series()
    assert q1.offset == F(-1, 24)
    assert q1.coeffs == tuple(partition_count(n) for n in range(6))


def test_charge_slice_keeps_only_requested_charge():
    om = omega_series(1, 4)
    sliced = om.charge_slice(1)
    assert sliced.terms
    assert all(e[0] == 1 for e in sliced.terms)


def test_to_json_shape():
    js = omega_series(1, 1).to_jsonable()
    assert js["K"] == 1 and js["grade"] == "1"
    assert all(set(t) == {"exps", "coeff"} for t in js["terms"])
    assert all(isinstance(x, str) for t in js["terms"] for x in t["exps"])


# -- the integer lattice against the Fraction-keyed container ------------------------


class _FractionSeries:
    """The container as it was before the integer lattice: a dict from
    Fraction exponent vectors to Fraction coefficients, cut at the grade, the
    oracle below."""

    def __init__(self, K, grade, terms):
        self.K, self.grade = K, F(grade)
        terms = {tuple(F(x) for x in e): F(c) for e, c in terms.items() if c}
        self.terms = {e: c for e, c in terms.items() if e[1] <= self.grade}

    def _with(self, grade, pairs):
        terms = {}
        for e, c in pairs:
            terms[e] = terms.get(e, F(0)) + c
        return _FractionSeries(self.K, grade, terms)

    def __add__(self, other):
        grade = min(self.grade, other.grade)
        both = list(self.terms.items()) + list(other.terms.items())
        return self._with(grade, [(e, c) for e, c in both if e[1] <= grade])

    def __neg__(self):
        return self._with(self.grade, [(e, -c) for e, c in self.terms.items()])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        grade = min(self.grade, other.grade)
        return self._with(grade, [(tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
                                  for e1, c1 in self.terms.items()
                                  for e2, c2 in other.terms.items()
                                  if e1[1] + e2[1] <= grade])

    def truncate(self, grade):
        grade = min(F(grade), self.grade)
        return self._with(grade, [(e, c) for e, c in self.terms.items() if e[1] <= grade])

    def map_exponents(self, n):
        return self._with(self.grade, [(elliptic_map(e, n, self.K), c)
                                       for e, c in self.terms.items()])

    def charge_slice(self, charge):
        return self._with(self.grade, [(e, c) for e, c in self.terms.items()
                                       if e[0] == charge])

    def derive(self, j):
        return self._with(self.grade, [(e, c * e[j]) for e, c in self.terms.items()])

    def q1_series(self):
        sums = {}
        for e, c in self.terms.items():
            sums[e[1]] = sums.get(e[1], F(0)) + c
        if not sums:
            return QSeries.zero(0, self.grade)
        low = min(sums)
        coeffs = [F(0)] * (math.floor(self.grade - low) + 1)
        for x, c in sums.items():
            coeffs[int(x - low)] += c
        return QSeries(low, coeffs)

    def to_jsonable(self):
        return {"K": self.K, "grade": str(self.grade),
                "terms": [{"exps": [str(x) for x in e], "coeff": str(c)}
                          for e, c in sorted(self.terms.items())]}


def _fraction_mismatch(a, b):
    for e in sorted(set(a.terms) | set(b.terms)):
        ca, cb = a.terms.get(e, F(0)), b.terms.get(e, F(0))
        if ca != cb:
            return {"exps": [str(x) for x in e], "lhs": str(ca), "rhs": str(cb)}
    return None


@st.composite
def _sparse_series(draw, K, charge_zero=False):
    """Terms on the 1/2 or the 1/24 grid, and a grade on the 1/2 grid.  A
    charge-zero draw has q0-exponent 0 and q1-exponents a whole step apart.
    Each draw scales its coefficients by its own 1/1, 1/3 or 1/7."""
    d = draw(st.sampled_from([2, 24]))
    exps = st.tuples(*[st.integers(-30, 30)] * (K + 1)).map(
        lambda e: tuple(F(x, d) for x in e))
    if charge_zero:
        r = F(draw(st.integers(0, d - 1)), d)
        exps = st.tuples(st.integers(-4, 8), exps).map(
            lambda t: (F(0), r + t[0]) + t[1][2:])
    scale = F(1, draw(st.sampled_from([1, 3, 7])))
    coeffs = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=5))
    coeffs = coeffs.filter(bool).map(lambda c: c * scale)
    terms = draw(st.dictionaries(exps, coeffs, max_size=8))
    grade = F(draw(st.integers(-4, 16)), 2)
    return MultiSeries(K, grade, terms), _FractionSeries(K, grade, terms)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_integer_lattice_matches_fraction_series(data):
    K = data.draw(st.integers(1, 3))
    a, ra = data.draw(_sparse_series(K))
    b, rb = data.draw(_sparse_series(K))
    cut = F(data.draw(st.integers(-2, 8)), 2)
    pairs = [(a, ra), (a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb),
             (a.truncate(cut), ra.truncate(cut))]
    pairs += [(a.map_exponents(n), ra.map_exponents(n)) for n in range(-2, 3)]
    pairs += [(a.charge_slice(c), ra.charge_slice(c)) for c in (-1, 0, 1)]
    pairs += [(a.derive(j), ra.derive(j)) for j in range(K + 1)]
    pairs += [((a * b).derive(1), (ra * rb).derive(1))]
    for got, want in pairs:
        assert (got.K, got.grade) == (want.K, want.grade)
        assert math.gcd(got.cden, *got.nums.values()) == 1
        assert got.terms == want.terms
        assert got.to_jsonable() == want.to_jsonable()
    # which key a mismatch reports, and None exactly on equal maps
    for (x, rx), (y, ry) in ((pairs[0], pairs[1]), (pairs[1], pairs[2]),
                             (pairs[0], pairs[4]), (pairs[3], (b * a, rb * ra))):
        assert x.first_mismatch(y) == _fraction_mismatch(rx, ry)
        assert (x == y) == (rx.terms == ry.terms)
    # setting every q_j but q1 to 1, on a grid with whole steps in q1
    z, rz = data.draw(_sparse_series(K, charge_zero=True))
    for got, want in ((z, rz), (z.derive(K), rz.derive(K)), (z * z, rz * rz),
                      (z.truncate(cut), rz.truncate(cut))):
        got, want = got.q1_series(), want.q1_series()
        assert (got.offset, got.coeffs) == (want.offset, want.coeffs)
