"""Basis enumeration, exact fitting, and the bracket quasimodularity checks."""

from fractions import Fraction

import pytest

from qwedge.partitions import q_bracket
from qwedge.quasimodular import (
    InsufficientOrder,
    NotInSpan,
    QMElement,
    fit_series,
    monomial_series,
    verify_bracket_qm,
    verify_derivation_closure,
    weight_monomials,
)
from qwedge.series import QSeries
from qwedge.special import eisenstein_g

F = Fraction


def test_weight_monomials_order():
    assert weight_monomials(0) == [(0, 0, 0)]
    assert weight_monomials(2) == [(1, 0, 0)]
    assert weight_monomials(4) == [(2, 0, 0), (0, 1, 0)]
    assert weight_monomials(6) == [(3, 0, 0), (1, 1, 0), (0, 0, 1)]
    assert weight_monomials(8) == [(4, 0, 0), (2, 1, 0), (0, 2, 0), (1, 0, 1)]
    assert weight_monomials(5) == []
    assert weight_monomials(-2) == []


def test_fit_recovers_known_combination():
    N = 20
    g2, g4 = eisenstein_g(2, N), eisenstein_g(4, N)
    s = 3 * g2 * g2 - F(5, 7) * g4
    elt = fit_series(s, 4, margin=10)
    assert elt.coeffs == (3, F(-5, 7))
    assert elt.series(N) == s
    # an immutable value: equal and hashed by its fields
    same = QMElement(4, elt.monomials, (F(3), F(-5, 7)))
    assert elt == same and hash(elt) == hash(same)
    assert elt != QMElement(4, elt.monomials, (3, F(5, 7)))
    with pytest.raises(AttributeError):
        elt.weight = 6


def test_fit_rejects_wrong_weight():
    N = 20
    g4 = eisenstein_g(4, N)
    with pytest.raises(NotInSpan):
        fit_series(g4, 6, margin=8)


def test_fit_rejects_non_quasimodular():
    N = 20
    s = QSeries.from_coeffs([F(1)] * (N + 1))  # geometric series
    with pytest.raises(NotInSpan):
        fit_series(s, 4, margin=10)


def test_fit_insufficient_order():
    g2 = eisenstein_g(2, 5)
    with pytest.raises(InsufficientOrder):
        fit_series(g2, 2, margin=10)


def test_fit_odd_weight_zero_only():
    z = QSeries.zero(15)
    elt = fit_series(z, 3, margin=10)
    assert elt.is_zero()
    with pytest.raises(NotInSpan):
        fit_series(eisenstein_g(2, 15), 3, margin=10)


def test_derivative_of_g2():
    # q d/dq G_2 = -2 G_2^2 + (5/6) G_4
    N = 18
    d = eisenstein_g(2, N).derive()
    elt = fit_series(d, 4, margin=10)
    assert elt.coeffs == (-2, F(5, 6))


def test_derivation_closure_report():
    r = verify_derivation_closure((2, 4), order=24, margin=8)
    assert r.ok


def test_bracket_g2():
    # <p_1 - 1/24> = G_2
    r = verify_bracket_qm((1,), order=24)
    assert r.ok
    assert r.details["fit"] == "(1)*G2"


def test_bracket_odd_weight_vanishes():
    # <p_2 - xi(-2)> has odd weight 3, so the bracket is identically zero
    r = verify_bracket_qm((2,), order=20)
    assert r.ok


def test_bracket_weight_four():
    assert verify_bracket_qm((1, 1), order=24).ok
    assert verify_bracket_qm((3,), order=24).ok


def test_bracket_failure_reported():
    # the unshifted <p_3> is NOT quasimodular of weight 4 (the shift matters)
    from qwedge.partitions import hook_power_sum
    b = q_bracket(lambda lam: hook_power_sum(lam, 3), 24)
    with pytest.raises(NotInSpan):
        fit_series(b, 4, margin=10)
