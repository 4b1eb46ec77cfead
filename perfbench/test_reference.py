"""Fast checks of the benchmark's reference code against hand-checked values.

    python3 -m pytest perfbench/test_reference.py
"""

from fractions import Fraction as F

import pytest

import reference as ref


def test_mul_and_inv_of_one_minus_q():
    one_minus_q = [F(1), F(-1), F(0), F(0), F(0)]
    assert ref.inv(one_minus_q) == [F(1)] * 5  # 1/(1-q) = 1 + q + q^2 + ...
    assert ref.mul(one_minus_q, ref.inv(one_minus_q)) == [F(1), 0, 0, 0, 0]
    assert ref.mul([F(1), F(2)], [F(3), F(4), F(5)]) == [F(3), F(10)]


def test_inv_rejects_zero_constant_term():
    with pytest.raises(ZeroDivisionError):
        ref.inv([F(0), F(1)])


def test_divisor_sums():
    assert [ref.sigma(n, 1) for n in range(1, 13)] == [1, 3, 4, 7, 6, 12, 8, 15, 13, 18, 12, 28]
    assert ref.sigma(6, 3) == 1 + 8 + 27 + 216


def test_eisenstein_g2_and_ramanujan():
    g2 = ref.eisenstein(2, 6)
    assert g2 == [F(-1, 24), 1, 3, 4, 7, 6, 12]
    # Ramanujan: D G2 = 5/6 G4 - 2 G2^2, so G2^2 + D G2 = -G2^2 + 5/6 G4
    lhs = [a + b for a, b in zip(ref.mul(g2, g2), ref.derive(g2))]
    rhs = [-a + F(5, 6) * b for a, b in zip(ref.monomial((2, 0, 0), 6), ref.eisenstein(4, 6))]
    assert lhs == rhs
    assert lhs[:3] == [F(1, 576), F(11, 12), F(27, 4)]


def test_partition_numbers():
    assert ref.partition_numbers(12) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    assert ref.partition_numbers(40)[40] == 37338


def test_theta_series_first_coefficients():
    # at s = 2: the bilateral sum gives 3/2 - 63/8 q + ..., and (q)_inf^-3 = 1 + 3q + ...
    assert ref.theta_series(2, 1)[:2] == [F(3, 2), F(-27, 8)]
    # odd in x: Theta(1/x) = -Theta(x)
    assert ref.theta_series(F(1, 2), 5) == [-c for c in ref.theta_series(2, 5)]


def test_theta_value_agrees_with_series_and_bounds_its_tail():
    q0 = F(1, 100)
    value, rel = ref.theta_value(2, q0, 12)
    series = ref.theta_series(2, 24)
    approx = sum(c * q0 ** m for m, c in enumerate(series))
    # the series cut at q^24 is off by about q0^25; the product by at most rel
    assert 0 < rel < F(1, 10 ** 23)
    assert abs(value - approx) <= abs(value) * rel + F(1, 10 ** 40)
    fewer, rel_fewer = ref.theta_value(2, q0, 3)
    assert abs(fewer - value) <= abs(value) * rel_fewer


def test_theta_value_refuses_too_few_factors():
    with pytest.raises(ValueError):
        ref.theta_value(F(9), F(1, 2), 1)
