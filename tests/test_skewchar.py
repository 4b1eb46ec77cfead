"""Odd-variable character, h/g building blocks, and the skew n-point function."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwedge import skewchar
from qwedge.partitions import partition_count
from qwedge.quasimodular import fit_series
from qwedge.series import QSeries, SeriesError
from qwedge.skewchar import (
    MAX_EXPONENT,
    GradeOverflow,
    g_series,
    h_series,
    npoint_skew_brute,
    npoint_skew_closed,
    psi_series,
    verify_h_equals_g,
    verify_skew_npoint,
)
from qwedge.special import eisenstein_g, eta, zeta_value

F = Fraction


# -- the character ---------------------------------------------------------------


def test_psi_specializes_to_inverse_eta():
    c = psi_series(2, 12).q1_series()
    assert c.offset == F(-1, 24)
    assert list(c.coeffs) == [partition_count(i) for i in range(13)]
    assert c == eta(12).inv()


def test_psi_anomaly_exponents():
    psi = psi_series(3, 4)
    # the empty-product term carries exactly the anomaly exponents
    e = (F(0), F(-1, 24), F(1, 240), F(-1, 504))
    assert psi.terms[e] == 1


def test_psi_grade_one_terms():
    psi = psi_series(2, 1)
    # grade 1: the n=1 factor to the first power on top of the anomaly
    e = (F(0), F(-1, 24) + 1, F(1, 240) + 1)
    assert psi.terms[e] == 1
    assert len(psi.terms) == 2


def test_psi_overflow_guard():
    # 9^13 passes the ceiling MAX_EXPONENT = 10^12, 8^13 does not
    assert 8 ** 13 <= MAX_EXPONENT < 9 ** 13
    psi_series(7, 8)
    with pytest.raises(GradeOverflow, match=str(MAX_EXPONENT)):
        psi_series(7, 9)
    with pytest.raises(ValueError):
        psi_series(0, 5)


def test_derive_is_exponent_multiplication():
    psi = psi_series(2, 6)
    d = psi.derive(2)
    for e, c in d.terms.items():
        assert c == psi.terms[e] * e[2]
    with pytest.raises(ValueError):
        psi.derive(3)


def _psi_fraction_terms(J, N):
    """The character with the anomaly added to every exponent as a Fraction:
    the route before the anomaly was held once, over its own denominator."""
    terms = {(0,) * J: F(1)}
    for n in range(1, N + 1):
        new = {}
        for e, c in terms.items():
            for m in range((N - e[0]) // n + 1):
                key = tuple(x + m * n ** (2 * j - 1) for j, x in enumerate(e, 1))
                new[key] = new.get(key, F(0)) + c
        terms = new
    anomaly = [zeta_value(1 - 2 * j) / 2 for j in range(1, J + 1)]
    return {(F(0),) + tuple(x + a for x, a in zip(e, anomaly)): c
            for e, c in terms.items()}


def _fraction_collapse(terms, N):
    coeffs = [F(0)] * (N + 1)
    for e, c in terms.items():
        coeffs[int(e[1] + F(1, 24))] += c
    return QSeries(F(-1, 24), coeffs)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_derive_chains_match_fraction_route(data):
    J = data.draw(st.integers(1, 4))
    N = data.draw(st.integers(0, 10))
    chain = data.draw(st.lists(st.integers(1, J), max_size=4))
    psi, ref = psi_series(J, N), _psi_fraction_terms(J, N)
    assert psi.terms == ref
    for j in chain:
        psi = psi.derive(j)
        ref = {e: c * e[j] for e, c in ref.items() if c * e[j]}
        assert psi.terms == ref
    got, want = psi.q1_series(), _fraction_collapse(ref, N)
    assert (got.offset, got.coeffs) == (want.offset, want.coeffs)
    assert psi.to_jsonable()["terms"] == [{"exps": [str(x) for x in e], "coeff": str(c)}
                                      for e, c in sorted(ref.items())]


# -- h and g ---------------------------------------------------------------------


def test_h_series_r1_is_eisenstein():
    for j in (1, 2, 3):
        assert h_series(1, 2 * j, 25) == eisenstein_g(2 * j, 25)


def test_h_series_r2_weight4_is_derived_g2():
    assert h_series(2, 4, 25) == eisenstein_g(2, 25).derive()


def test_h_series_constant_term():
    assert h_series(1, 2, 10).coefficient(0) == F(-1, 24)
    assert h_series(2, 4, 10).coefficient(0) == 0


def test_h_series_validation():
    with pytest.raises(ValueError):
        h_series(0, 2, 5)
    with pytest.raises(ValueError):
        h_series(2, 3, 5)
    with pytest.raises(ValueError):
        h_series(2, 2, 5)


def test_h_equals_g():
    rep = verify_h_equals_g(order=30)
    assert rep.ok
    assert rep.params["pairs"] == [[1, 1], [1, 2], [1, 3], [1, 4], [2, 2],
                                   [2, 3], [2, 4], [3, 3], [3, 4]]


def test_g_series_validation():
    with pytest.raises(ValueError):
        g_series(2, 2, 5)  # derived weight would be 0


# -- the n-point function -----------------------------------------------------------


def test_npoint_closed_n1_is_eta_inv_gcal():
    # one variable: the z^{2r-1} slot is eta^{-1} G_{2r} / (2r-1)!
    closed = npoint_skew_closed(1, 5, 15)
    eta_inv = eta(15).inv()
    assert sorted(closed) == [(1,), (3,), (5,)]
    for r in (1, 2, 3):
        assert closed[(2 * r - 1,)] == \
            eta_inv * eisenstein_g(2 * r, 15) * F(1, math.factorial(2 * r - 1))


def test_npoint_single_derivative_is_eisenstein():
    brute = npoint_skew_brute(1, 3, 20)
    # z^1: D_1 Psi / (eta normalization) = eta^{-1} G_2; z^3 route uses D_3
    eta_inv = eta(20).inv()
    assert brute[(1,)] == eta_inv * eisenstein_g(2, 20)
    assert brute[(3,)] == eta_inv * eisenstein_g(4, 20) * F(1, 6)


def test_npoint_cross_check_runs():
    # the brute route re-derives every coefficient from the log-derivative
    # expansion; reaching here without SeriesError is the assertion
    npoint_skew_brute(2, 3, 10)


def test_skew_npoint_agreement():
    assert verify_skew_npoint(1, 5, 15).ok
    assert verify_skew_npoint(2, 5, 15).ok
    assert verify_skew_npoint(3, 3, 12).ok


def test_h_equals_g_names_the_pair_and_the_exponent(monkeypatch):
    g = skewchar.g_series

    def bent(r, s, order):
        found = g(r, s, order)
        return found + QSeries.monomial(1, 5, order) if (r, s) == (2, 6) else found

    monkeypatch.setattr(skewchar, "g_series", bent)
    rep = verify_h_equals_g(order=12)
    want = h_series(2, 6, 12).coefficient(5)
    assert (rep.status, rep.order_checked) == ("fail", 12)
    assert rep.first_mismatch == {"r": 2, "s": 6, "exponent": 5, "lhs": want, "rhs": want + 1}


def test_skew_npoint_names_the_first_mismatched_slot(monkeypatch):
    # a slot one route lacks is a mismatch, as is a slot whose series differ
    closed = npoint_skew_closed(2, 3, 4)
    missing = {z: c for z, c in closed.items() if z != (1, 3)}
    monkeypatch.setattr(skewchar, "npoint_skew_closed", lambda *a: missing)
    rep = verify_skew_npoint(2, 3, 4)
    # the lacking slot is zero on the other route's grid, from q^{-1/24} on
    lead = closed[(1, 3)].coefficient(F(-1, 24))
    assert lead != 0
    assert rep.status == "fail" and rep.first_mismatch == {
        "z": [1, 3], "exponent": F(-1, 24), "lhs": 0, "rhs": lead}
    changed = {**closed, (3, 3): closed[(3, 3)] * F(2)}
    monkeypatch.setattr(skewchar, "npoint_skew_closed", lambda *a: changed)
    lead = closed[(3, 3)].coefficient(F(-1, 24))
    assert verify_skew_npoint(2, 3, 4).first_mismatch == {
        "z": [3, 3], "exponent": F(-1, 24), "lhs": 2 * lead, "rhs": lead}


def test_psi_taylor_coefficients_are_quasimodular():
    # the two smallest odd-variable Taylor slots: eta times each fits exactly
    # in the predicted graded piece, and the fits are single Eisenstein series
    order = 30
    psi = psi_series(3, order)
    eta_s = eta(order)
    d3 = (psi.derive(2).q1_series() * eta_s).truncate(order)
    fit4 = fit_series(d3, 4, margin=8)
    assert fit4.series(order) == eisenstein_g(4, order)
    d5 = (psi.derive(3).q1_series() * eta_s).truncate(order)
    fit6 = fit_series(d5, 6, margin=8)
    assert fit6.series(order) == eisenstein_g(6, order)
