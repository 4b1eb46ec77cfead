"""Special constants and series against frozen values and second routes."""

from fractions import Fraction

import pytest

from qwedge import special
from qwedge.reports import pairs_report
from qwedge.series import QSeries, SeriesError, q_pochhammer, rational_sqrt
from qwedge.special import (
    ThetaLattice,
    ThetaValues,
    bernoulli,
    eisenstein_g,
    eisenstein_monomial,
    euler_inverse_cube,
    eta,
    lattice_product_series,
    theta00,
    theta_deriv_series,
    theta_odd_derivative_closed_forms,
    verify_theta_derivs,
    verify_theta_diffeq,
    verify_xi_binomial,
    verify_xi_generating,
    xi_value,
    xi_value_via_half_bernoulli,
    zeta_value,
)

F = Fraction


def test_bernoulli_table():
    expected = [1, F(-1, 2), F(1, 6), 0, F(-1, 30), 0, F(1, 42), 0, F(-1, 30),
                0, F(5, 66), 0, F(-691, 2730)]
    for m, b in enumerate(expected):
        assert bernoulli(m) == b


def test_zeta_values():
    assert zeta_value(0) == F(-1, 2)
    assert zeta_value(-1) == F(-1, 12)
    assert zeta_value(-3) == F(1, 120)
    assert zeta_value(-5) == F(-1, 252)
    assert zeta_value(-2) == 0
    with pytest.raises(ValueError):
        zeta_value(2)


def test_xi_values_two_routes():
    table = {0: F(0), -1: F(1, 24), -3: F(-7, 960), -5: F(31, 8064), -7: F(-127, 30720)}
    for s, v in table.items():
        assert xi_value(s) == v
        assert xi_value_via_half_bernoulli(s) == v
    for s in range(0, -15, -1):
        assert xi_value(s) == xi_value_via_half_bernoulli(s)


def test_eta_offset_and_coeffs():
    e = eta(7)
    assert e.offset == F(1, 24)
    assert list(e.coeffs) == [1, -1, -1, 0, 0, 1, 0, 1]


def test_eisenstein_g2_g4():
    g2 = eisenstein_g(2, 4)
    assert list(g2.coeffs) == [F(-1, 24), 1, 3, 4, 7]
    g4 = eisenstein_g(4, 4)
    # -B_4/8 = 1/240; sigma_3: 1, 9, 28, 73
    assert list(g4.coeffs) == [F(1, 240), 1, 9, 28, 73]
    with pytest.raises(ValueError):
        eisenstein_g(3, 4)


def test_theta00_product_form():
    # sum q^{n^2} = prod (1 - q^{2m}) (1 + q^{2m-1})^2, the Jacobi triple product
    N = 24
    t = theta00(N)
    assert t.offset == 0 and t.trunc_order == N
    even = QSeries.one(N)
    odd = QSeries.one(N)
    for m in range(1, N // 2 + 1):
        even = even * q_pochhammer(1, 2 * m, 1, N)
        odd = odd * q_pochhammer(-1, 2 * m - 1, 1, N)
    assert even * odd * odd == t


def test_theta_at_one_small_orders():
    # Theta(1) = 0; Theta'(1) = 1; Theta''(1) = 0
    assert theta_deriv_series(0, F(1), 12).is_zero()
    assert theta_deriv_series(1, F(1), 12) == QSeries.one(12)
    assert theta_deriv_series(2, F(1), 12).is_zero()
    assert theta_deriv_series(4, F(1), 12).is_zero()


def test_theta_odd_derivatives_closed_forms():
    N = 20
    g2 = eisenstein_g(2, N)
    g4 = eisenstein_g(4, N)
    g6 = eisenstein_g(6, N)
    forms = theta_odd_derivative_closed_forms(3, N)
    assert forms[0] == QSeries.one(N)
    assert forms[1] == -6 * g2
    assert forms[2] == -10 * g4 + 60 * g2 * g2
    assert forms[3] == -14 * g6 + 420 * g4 * g2 - 840 * g2 ** 3
    # a shorter recurrence is the same one cut short
    assert theta_odd_derivative_closed_forms(2, N) == forms[:3]
    r = verify_theta_derivs((1, 2, 3), 25)
    assert r.ok


def test_theta_derivs_forms_the_closed_forms_once(monkeypatch):
    """One recurrence up to the largest m serves every m compared."""
    calls = []
    closed = special.theta_odd_derivative_closed_forms

    def counted(m_max, order):
        calls.append((m_max, order))
        return closed(m_max, order)

    monkeypatch.setattr(special, "theta_odd_derivative_closed_forms", counted)
    assert verify_theta_derivs((3, 1, 2), 12).ok
    assert verify_theta_derivs((2,), 12).ok
    assert calls == [(3, 12), (2, 12)]


def test_theta_derivs_fails_with_the_params_it_passes_with(monkeypatch):
    """A failing report names the m whose closed form differs, and keeps the
    params of a passing one."""
    closed = special.theta_odd_derivative_closed_forms

    def bent(m_max, order):
        forms = closed(m_max, order)
        forms[2] = forms[2] + QSeries.monomial(1, 7, order)
        return forms

    params = {"m_values": [1, 2, 3], "order": 12}
    assert verify_theta_derivs((1, 2, 3), 12).params == params
    monkeypatch.setattr(special, "theta_odd_derivative_closed_forms", bent)
    r = verify_theta_derivs((1, 2, 3), 12)
    assert (r.status, r.params, r.order_checked) == ("fail", params, 12)
    want = closed(3, 12)[2].coefficient(7)
    assert r.first_mismatch == {"m": 2, "exponent": 7, "lhs": want, "rhs": want + 1}


def test_an_empty_comparison_raises_naming_the_identity():
    """No m means no pair to compare: the check raises rather than pass with an
    order it never checked, and `pairs_report` names the identity whether or
    not it is given that order."""
    with pytest.raises(ValueError, match="^theta-derivs: no pairs to compare"):
        verify_theta_derivs((), 10)
    with pytest.raises(ValueError, match="^x: no pairs to compare"):
        pairs_report("x", "y", {}, [])


def test_theta_series_matches_product_form():
    """At x = s^2 q^shift the triple-product form holds `order` slots past the
    lattice sum's offset -shift^2/2, and equals it there."""
    for s in (F(2), F(3, 2), F(5, 4), F(5, 7)):
        for shift in (-3, -2, -1, 0, 1, 2, 3):
            for order in (0, 1, 14):
                a = ThetaLattice(order).sum(0, s, shift)
                b = lattice_product_series(s, order, shift)
                assert (a.offset, a.upper) == (b.offset, b.upper), (s, shift, order)
                assert a == b, (s, shift, order)


def test_theta_constant_term_example():
    # at x = 4 (s = 2): leading term (s - 1/s) = 3/2 at q^0
    a = theta_deriv_series(0, F(2), 8)
    assert a.offset == 0
    assert a.coeffs[0] == F(3, 2)


def test_theta_is_odd_in_x():
    # Theta(1/x) = -Theta(x): swap s -> 1/s
    for s in (F(2), F(5, 3)):
        assert theta_deriv_series(0, 1 / s, 10) == -1 * theta_deriv_series(0, s, 10)


def test_theta_qshift_series():
    # x = s^2 q: offset becomes half-integer
    a = theta_deriv_series(0, F(2), 10, shift=1)
    assert a.offset.denominator == 2
    r = verify_theta_diffeq(m=1, s=F(2), shift=0, order=16)
    assert r.ok
    r2 = verify_theta_diffeq(m=3, s=F(3, 2), shift=-1, order=12)
    assert r2.ok


@pytest.mark.parametrize("m, shift, order", [
    (2, 0, 0), (2, 0, 1), (5, 0, 6), (-3, 0, 2), (-2, 3, 5), (1, -4, 3), (3, -1, 12)])
def test_theta_diffeq_checks_through_the_order(monkeypatch, m, shift, order):
    """Both sides start at q^{-(shift+m)^2/2}, yet the check reaches q^order:
    a change of one side at the first exponent of its grid at or past q^order
    shows."""
    r = verify_theta_diffeq(m=m, s=F(3, 2), shift=shift, order=order)
    assert (r.status, r.order_checked) == ("pass", order)
    top = order + F((shift + m) ** 2 % 2, 2)
    sum_ = ThetaLattice.sum

    def bent(self, k, s, shift_=0):
        found = sum_(self, k, s, shift_)
        if shift_ != shift + m:
            return found
        return found + QSeries.monomial(F(1), top, self.order)

    monkeypatch.setattr(ThetaLattice, "sum", bent)
    r = verify_theta_diffeq(m=m, s=F(3, 2), shift=shift, order=order)
    assert (r.status, r.first_mismatch["exponent"]) == ("fail", top)


@pytest.mark.parametrize("owner, name", [(ThetaLattice, "sum"),
                                         (special, "lattice_product_series")],
                         ids=["ThetaLattice.sum", "lattice_product_series"])
def test_theta_diffeq_fails_when_either_route_is_bent(monkeypatch, owner, name):
    """The left side is the lattice sum at shift + m, the right side its
    triple-product form at shift: a unit added to either alone, five steps
    past its valuation, fails the check at that exponent."""
    assert verify_theta_diffeq(m=2, s=F(3, 2), shift=1, order=12).ok
    original = getattr(owner, name)

    def bent(*args):
        found = original(*args)
        return found + QSeries.monomial(1, found.offset + 5, found.trunc_order)

    monkeypatch.setattr(owner, name, bent)
    r = verify_theta_diffeq(m=2, s=F(3, 2), shift=1, order=12)
    # both sides start at q^{-9/2}
    assert (r.status, r.first_mismatch["exponent"]) == ("fail", F(1, 2))


def test_theta_diffeq_inverts_no_series(monkeypatch):
    """The (q)_inf^{-3} of Theta cancels between the two sides, so a cold
    check at the defaults forms no inverse."""
    calls = []
    inv = QSeries.inv

    def counted(self):
        calls.append(self)
        return inv(self)

    monkeypatch.setattr(special, "_BY_ORDER", {})
    monkeypatch.setattr(QSeries, "inv", counted)
    assert verify_theta_diffeq().ok
    assert calls == []
    ThetaLattice(3).factor  # the counter sees the inverse a lattice factor forms
    assert len(calls) == 1


@pytest.mark.parametrize("m, shift", [(1, 0), (3, 0), (2, -1)])
def test_theta_diffeq_rejects_s_one(m, shift):
    """x = q^shift is a zero of Theta, and so is q^m x: both sides vanish."""
    with pytest.raises(ValueError, match="s = 1 puts x = q"):
        verify_theta_diffeq(m=m, s=F(1), shift=shift, order=12)


def test_theta_value_matches_series_eval():
    q0 = F(1, 9)
    table = ThetaValues(q0, 40)
    for k in (0, 1, 2):
        for s in (F(2), F(3, 2)):
            val = table.factor * table.sum(k, s)
            ser = theta_deriv_series(k, s, 24)
            assert ser.offset == 0
            ser = sum((c * q0 ** j for j, c in enumerate(ser.coeffs)), F(0))
            assert abs(val - ser) < F(1, 10) ** 10, (k, s)


def test_theta_value_qshift_consistency():
    # difference equation at the value level, shift needs square q0
    q0 = F(1, 16)
    s = F(3, 2)
    table = ThetaValues(q0, 40)
    lhs = table.factor * table.sum(0, s, shift=1)
    rhs = -1 / (s * s) * _rat_root_pow(q0) * table.factor * table.sum(0, s)
    assert abs(lhs - rhs) < F(1, 10) ** 12


def _rat_root_pow(q0):
    # q0^{-1/2}
    return 1 / rational_sqrt(q0)


def _theta_value_by_fractions(k, s, q0, terms, shift):
    """One Fraction per lattice term and per Euler factor: sum over |n| <= terms
    of (-1)^n (n+1/2)^k s^{2n+1} q0^{e(n)}, e(n) = n(n+1)/2 + shift(n+1/2),
    over the cube of prod_{m <= terms} (1 - q0^m)."""
    total = F(0)
    for n in range(-terms, terms + 1):
        e = F(n * (n + 1), 2) + shift * (n + F(1, 2))
        power = q0 ** e.numerator if e.denominator == 1 \
            else rational_sqrt(q0) ** (2 * e).numerator
        total += (-1) ** (n % 2) * (n + F(1, 2)) ** k * s ** (2 * n + 1) * power
    denom = F(1)
    for m in range(1, terms + 1):
        denom *= 1 - q0 ** m
    return total / denom ** 3


@pytest.mark.parametrize("q0, shifts", [(F(1, 16), (-2, -1, 0, 1, 2)),
                                        (F(1, 8), (-2, 0, 2))])
def test_theta_value_matches_fraction_loop(q0, shifts):
    """One table serves the grid: each (s, shift) walk serves every k."""
    table = ThetaValues(q0, 12)
    for k in range(5):
        for shift in shifts:
            for s in (F(3, 2), F(5, 11), F(1)):
                value = table.factor * table.sum(k, s, shift)
                assert value == _theta_value_by_fractions(k, s, q0, 12, shift), \
                    (k, shift, s)
                if k == 0 and s != 1:
                    assert table.divide(F(7, 3), s, shift) == \
                        F(7, 3) / table.sum(0, s, shift)
    assert ThetaValues(q0, 12).sum(3, F(5, 11), shifts[-1]) == \
        table.sum(3, F(5, 11), shifts[-1])


@pytest.mark.parametrize("q0", [F(0), F(1), F(4)])
def test_theta_values_need_q0_inside_the_unit_interval(q0):
    with pytest.raises(ValueError, match="outside"):
        ThetaValues(q0, 12)


def test_theta_value_odd_shift_needs_square_q0():
    with pytest.raises(SeriesError, match="no rational square root"):
        ThetaValues(F(1, 8), 12).sum(0, F(3, 2), shift=1)


def test_xi_generating_report():
    r = verify_xi_generating(18)
    assert r.ok
    assert r.order_checked == 18


def test_xi_binomial_report():
    r = verify_xi_binomial(12)
    assert r.ok
    # n = 2 by hand: -2 xi(-1) = -1/12 equals -1/3 + 1/4
    assert -2 * xi_value(-1) == F(-1, 3) + F(1, 4)


@pytest.mark.parametrize("s", [F(2, 3), F(7, 4), F(5)])
def test_theta_lattice_series_matches_fraction_sum(s):
    """sum_n (-1)^n (n+1/2)^k s^{2n+1} q^{e(n)}, e(n) = n(n+1)/2 + shift(n+1/2),
    summed one Fraction per term."""
    order = 9
    for shift in range(-2, 3):
        window = range(-order - 6, order + 6)
        e = {n: F(n * (n + 1), 2) + shift * (n + F(1, 2)) for n in window}
        low = min(e.values())
        for k in range(4):
            want = [F(0)] * (order + 1)
            for n in window:
                if e[n] - low <= order:
                    sign = -1 if n % 2 else 1
                    want[int(e[n] - low)] += sign * (n + F(1, 2)) ** k * s ** (2 * n + 1)
            got = ThetaLattice(order).sum(k, s, shift)
            assert (got.offset, list(got.coeffs)) == (low, want), (k, shift)


@pytest.mark.parametrize("call", [
    lambda k: theta_deriv_series(k, F(2), 3),
    lambda k: ThetaLattice(3).sum(k, F(2), 0),
    lambda k: ThetaValues(F(1, 9), 8).sum(k, F(2)),
    lambda k, table=ThetaValues(F(1, 9), 8): table.factor * table.sum(k, F(2)),
], ids=["theta_deriv_series", "ThetaLattice.sum", "ThetaValues.sum", "factor * sum"])
def test_negative_derivative_order_is_named(call):
    with pytest.raises(ValueError, match="k = -1 is negative"):
        call(-1)


@pytest.mark.parametrize("order", [0, 1, 5, 12])
def test_lattice_table_sums_equal_the_series(order):
    """Every k one shared table forms from its one walk per (s, shift) is the
    series a fresh table forms for that call alone, exactly as stored."""
    table = ThetaLattice(order)
    for s in (F(2), F(3, 2), F(5, 7), F(11, 3), F(1301, 1009)):
        for shift in range(-3, 5):
            for k in range(7):
                got = table.sum(k, s, shift)
                want = ThetaLattice(order).sum(k, s, shift)
                assert (got.offset, got.den, got.nums) == \
                    (want.offset, want.den, want.nums), (k, s, shift)


def test_lattice_table_walks_once_per_argument(monkeypatch):
    args = [(F(3, 2), 0), (F(3, 2), 1), (F(5, 7), -2)]
    for table in (ThetaLattice(6), ThetaValues(F(1, 16), 6)):
        walks = []
        walk = type(table)._walk

        def counted(self, s, shift, walk=walk):
            walks.append((s, shift))
            return walk(self, s, shift)

        monkeypatch.setattr(type(table), "_walk", counted)
        for s, shift in args:
            for k in range(9):
                table.sum(k, s, shift)
            table.divide(table.sum(1, s, shift), s, shift)
        assert walks == args, type(table).__name__


def _lattice_sum_by_powers(k, s, order, shift):
    """`ThetaLattice(order).sum(k, s, shift)` with one `**` pair per term, n
    walked outward."""
    a, b = s.numerator, s.denominator

    def twice_e(n):
        return n * (n + 1) + shift * (2 * n + 1)

    n0 = -shift - 1
    lowest = min(twice_e(n0), twice_e(n0 + 1))
    ns = [n for n in range(n0 - order - 2, n0 + order + 4)
          if twice_e(n) <= lowest + 2 * order]
    e_neg = max(0, -(2 * min(ns) + 1))
    e_pos = max(0, 2 * max(ns) + 1)
    nums = [0] * (order + 1)
    for n in ns:
        term = a ** (2 * n + 1 + e_neg) * b ** (e_pos - 2 * n - 1)
        nums[(twice_e(n) - lowest) // 2] += (2 * n + 1) ** k * (-term if n % 2 else term)
    return QSeries.from_nums(nums, 2 ** k * a ** e_neg * b ** e_pos, F(lowest, 2))


@pytest.mark.parametrize("s", [F(1), F(2), F(1, 3), F(1327, 1051)])
def test_lattice_walk_running_powers_match_direct_powers(s):
    for order in range(25):
        table = ThetaLattice(order)
        for shift in range(-6, 7):
            for k in range(4):
                got = table.sum(k, s, shift)
                want = _lattice_sum_by_powers(k, s, order, shift)
                assert (got.offset, got.den, got.nums) == \
                    (want.offset, want.den, want.nums), (order, shift, k)


def _value_sum_by_powers(k, q0, terms, s, shift):
    """`ThetaValues(q0, terms).sum(k, s, shift)` with a `**` per factor of
    every term, the powers of q0 taken in r = q0 or, for an odd shift, its
    rational square root."""
    r, halves = (rational_sqrt(q0), 1) if shift % 2 else (q0, 2)
    ns = range(-terms, terms + 1)
    fs = [(n * (n + 1) + shift * (2 * n + 1)) // halves for n in ns]
    f_lo, f_hi = min(0, *fs), max(0, *fs)
    a, b, e_top = s.numerator, s.denominator, 2 * terms + 1
    total = 0
    for n, f in zip(ns, fs):
        m = 2 * n + 1
        term = a ** (e_top + m) * b ** (e_top - m) * r.numerator ** (f - f_lo) \
            * r.denominator ** (f_hi - f)
        total += m ** k * (-term if n % 2 else term)
    den = (a * b) ** e_top * r.numerator ** -f_lo * r.denominator ** f_hi
    return F(total, 2 ** k * den)


@pytest.mark.parametrize("q0", [F(1, 9), F(1, 16), F(4, 9)])
def test_values_walk_running_powers_match_direct_powers(q0):
    for terms in (1, 2, 5, 20, 30):
        table = ThetaValues(q0, terms)
        for s in (F(1), F(2), F(1, 3), F(1327, 1051)):
            for shift in range(-3, 4):
                for k in range(3):
                    assert table.sum(k, s, shift) == \
                        _value_sum_by_powers(k, q0, terms, s, shift), (terms, s, shift, k)
    with pytest.raises(SeriesError, match="no rational square root"):
        ThetaValues(F(1, 2), 5).sum(0, F(3, 2), 1)


@pytest.mark.parametrize("q0, shifts", [(F(1, 8), (-4, -2, 2, 4)),
                                        (F(4, 9), (-3, -2, -1, 1, 2, 3))])
def test_theta_values_fold_the_shift_into_s(q0, shifts):
    """s^2 q0^j = (s q0^{j/2})^2: a shifted value is the value at shift 0 of
    the moved s, for even j and, with a square q0, odd j."""
    root = rational_sqrt(q0)
    for terms in (1, 5, 12):
        for s in (F(3, 2), F(5, 11), F(1)):
            for j in shifts:
                moved = s * (q0 ** (j // 2) if j % 2 == 0 else root ** j)
                for k in range(4):
                    assert ThetaValues(q0, terms).sum(k, s, j) == \
                        ThetaValues(q0, terms).sum(k, moved, 0), (terms, s, j, k)


def test_lattice_factor_is_the_euler_cube_formed_once(monkeypatch):
    """Once per process: after the memo is emptied, every `ThetaLattice` of one
    order shares one factor, built from one `euler_product` call."""
    calls = []
    euler = special.euler_product

    def counted(order):
        calls.append(order)
        return euler(order)

    monkeypatch.setattr(special, "_BY_ORDER", {})
    monkeypatch.setattr(special, "euler_product", counted)
    for order in (0, 1, 7, 16):
        first, second = ThetaLattice(order), ThetaLattice(order)
        assert first.factor == euler(order).inv() ** 3
        assert first.factor is second.factor is euler_inverse_cube(order)
    assert calls == [0, 1, 7, 16]


def test_eisenstein_series_are_formed_once_per_order(monkeypatch):
    monkeypatch.setattr(special, "_BY_ORDER", {})
    N = 10
    for k in (2, 4, 6, 8):
        g = eisenstein_g(k, N)
        assert eisenstein_g(k, N) is g
        assert g.coefficient(0) == -bernoulli(k) / (2 * k)
        assert [g.coefficient(n) for n in range(1, N + 1)] == \
            [sum(d ** (k - 1) for d in range(1, n + 1) if n % d == 0)
             for n in range(1, N + 1)]
    assert eisenstein_monomial((1, 0, 0), N) is eisenstein_g(2, N)
    assert eisenstein_monomial((0, 0, 1), N) is eisenstein_g(6, N)
    g2, g4 = eisenstein_g(2, N), eisenstein_g(4, N)
    assert eisenstein_monomial((2, 1, 0), N) == g2 * g2 * g4
    # the lower monomial that product was formed from is kept too
    assert ((1, 1, 0), N) in special._BY_ORDER
    # another order is another series
    assert eisenstein_g(2, N + 1) is not eisenstein_g(2, N)
    assert eisenstein_g(2, N + 1).truncate(N) == eisenstein_g(2, N)


@pytest.mark.parametrize("q0, s, power", [
    (F(1, 9), F(3), -1), (F(1, 9), F(1, 3), 1), (F(1, 9), F(1), 0),
    (F(1, 9), F(1, 27), 3), (F(4, 9), F(3, 2), -1), (F(4, 9), F(8, 27), 3)])
def test_theta_values_reject_a_zero_of_theta(q0, s, power):
    """Theta(q0^j) = 0 for every integer j: s^2 q0^shift = q0^{j + shift}."""
    table = ThetaValues(q0, 12)
    for shift in (-1, 0, 2):
        with pytest.raises(ValueError, match=rf"s = {s} .* s\^2 = q0\^{power} "):
            table.divide(F(1), s, shift)
    # next to a zero, and where only one side of s^2 is a power of q0
    for near in (s * F(101, 100), F(1, 9) if q0 == F(4, 9) else F(2, 9)):
        assert table.divide(F(5, 2), near, 0) == F(5, 2) / table.sum(0, near, 0)
