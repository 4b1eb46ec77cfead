"""Multivariate character series and the charge-shift substitution."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwedge.characters import (
    MultiSeries,
    V_from_omega,
    V_series,
    elliptic_map,
    first_mismatch,
    omega_series,
    verify_elliptic_transform,
    verify_theta_expansion,
    verify_triple_product,
    verify_v_consistency,
)
from qwedge.partitions import partition_count

F = Fraction


def test_multiseries_mul_drops_over_grade():
    a = MultiSeries.monomial(1, 3, (0, 2))
    b = MultiSeries.monomial(1, 3, (0, 2))
    assert (a * b).terms == {}
    c = MultiSeries.monomial(1, 3, (0, 1))
    assert (a * c).terms == {(F(0), F(3)): F(1)}


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
    collapsed = V_series(3, 5).collapse(2)
    expected = MultiSeries.zero(1, 5)
    for n in range(6):
        expected.terms[(F(0), F(n) - F(1, 24))] = F(partition_count(n))
    assert first_mismatch(collapsed, expected) is None


def test_charge_slice_keeps_only_requested_charge():
    om = omega_series(1, 4)
    sliced = om.charge_slice(1)
    assert sliced.terms
    assert all(e[0] == 1 for e in sliced.terms)


def test_to_json_shape():
    js = omega_series(1, 1).to_json()
    assert js["K"] == 1 and js["grade"] == "1"
    assert all(set(t) == {"exps", "coeff"} for t in js["terms"])
    assert all(isinstance(x, str) for t in js["terms"] for x in t["exps"])
