"""Difference equations and singularity structure, exact and numeric."""

from collections import Counter
from fractions import Fraction

import pytest

from qwedge import qdiff
from qwedge.correlators import DivisorHit, EvalPoint, FWeight
from qwedge.qdiff import (
    DivergentPoint,
    SimpleZeroViolated,
    check_convergent,
    f_numeric,
    h_numeric,
    locus_point,
    phi_sum,
    phi_table,
    r_series,
    require_simple_zero,
    verify_cyclic_identity,
    verify_diffeq_f,
    verify_diffeq_h,
    verify_diffeq_t,
    verify_phi_vanish,
    verify_r_diffeq,
    verify_residue,
    verify_t_vanish,
)
from qwedge.correlators import theta_block_sum
from qwedge.series import ONE, QSeries
from qwedge.setparts import compositions, near_singleton_partitions
from qwedge.special import ThetaLattice, ThetaValues, theta_deriv_series

F = Fraction
Q9 = F(1, 9)
P3 = (F(3, 2), F(5, 4), F(4, 3))


# -- convergence guard ---------------------------------------------------------------


def test_divergent_point_rejected():
    with pytest.raises(DivergentPoint) as exc:
        check_convergent((F(2), F(2)), Q9)
    assert exc.value.subset == (1, 2)
    assert isinstance(exc.value, ValueError)
    with pytest.raises(DivergentPoint):
        check_convergent((F(2),), F(1, 4))  # t = 1/q0 exactly, boundary excluded
    check_convergent((F(2), F(5, 4)), Q9)  # fine


def test_divergent_point_names_the_smallest_subset_first():
    # t = (9/4, 9/4, 9/4, 25/4) at q0 = 1/9: {1, 2, 3} (729/64, mask 7) and
    # {1, 4}, {2, 4}, {3, 4} (225/16) leave (1/9, 9); a scan in mask order
    # would name (1, 2, 3)
    with pytest.raises(DivergentPoint) as exc:
        check_convergent((F(3, 2), F(3, 2), F(3, 2), F(5, 2)), Q9)
    assert (exc.value.subset, exc.value.product) == ((1, 4), F(225, 16))
    assert str(exc.value) == ("product of t over positions (1, 4) is 225/16, outside "
                              "the open interval (q0, 1/q0)")
    # two offending pairs, t_1 t_4 = 9 and t_2 t_3 = 1/9: the lexicographically
    # first, (1, 4), before (2, 3) (mask 6)
    with pytest.raises(DivergentPoint) as exc:
        check_convergent((F(2), F(1, 2), F(2, 3), F(3, 2)), Q9)
    assert (exc.value.subset, exc.value.product) == ((1, 4), F(9))


def test_nonsquare_q0_rejected():
    with pytest.raises(ValueError):
        verify_diffeq_f((F(2), F(5, 4)), F(1, 3), (6, 8))


# -- numeric evaluators --------------------------------------------------------------


def test_f_numeric_single_variable_is_inverse_theta():
    value, drift = f_numeric((F(2),), Q9, (20, 25))
    table = ThetaValues(Q9, 40)
    closed = 1 / (table.factor * table.sum(0, F(2)))
    assert abs(value - closed) <= 5 * drift + F(1, 10**20)


def test_h_numeric_empty_is_one():
    value, drift = h_numeric((), Q9, (15, 20))
    assert abs(value - 1) <= 5 * drift + F(1, 10**15)


def test_f_numeric_names_a_unit_argument():
    # t_2 = 1: F's closing divides by t_2 - 1, as H's by 1 - t_2
    for numeric in (f_numeric, h_numeric):
        with pytest.raises(DivisorHit) as exc:
            numeric((F(2, 3), F(1)), Q9, (6, 8))
        assert exc.value.subset == (2,)
    with pytest.raises(DivisorHit) as exc:
        FWeight((F(1), F(2)))
    assert exc.value.subset == (1,)


@pytest.mark.parametrize("cutoffs", [(-2, 3), (5, 5), (-1, -1)])
def test_numeric_cutoffs_need_zero_le_lower_lt_upper(cutoffs):
    with pytest.raises(ValueError):
        f_numeric((F(2),), Q9, cutoffs)
    with pytest.raises(ValueError):
        h_numeric((F(2),), Q9, cutoffs)


# -- numeric difference equations ----------------------------------------------------


def test_diffeq_f_two_variables():
    rep = verify_diffeq_f((F(2), F(5, 4)), Q9, (20, 25))
    assert rep.ok
    assert rep.tolerance_info["difference"] <= rep.tolerance_info["bound"]


def test_diffeq_h_two_variables_both_positions():
    for k in (1, 2):
        rep = verify_diffeq_h((F(2), F(5, 4)), Q9, k, (20, 25))
        assert rep.ok, k


def test_diffeq_h_interior_position_merges_both_neighbours():
    rep = verify_diffeq_h(P3, Q9, 2, (11, 14))
    assert rep.ok, rep.tolerance_info


def _offset_at(monkeypatch, name, target):
    """Make qdiff's `name` (f_numeric or h_numeric) return its value plus 1 at
    the point `target` alone."""
    real = getattr(qdiff, name)

    def offset(svals, q0, cutoffs):
        value, drift = real(svals, q0, cutoffs)
        return (value + 1 if tuple(svals) == target else value), drift

    monkeypatch.setattr(qdiff, name, offset)


# the shifted point, then the merge-with-the-first points of (3/2, 5/4, 4/3)
@pytest.mark.parametrize("target", [(F(1, 2), F(5, 4), F(4, 3)), P3,
                                    (F(15, 8), F(4, 3)), (F(2), F(5, 4)), (F(5, 2),)])
def test_diffeq_f_fails_when_one_value_is_off(monkeypatch, target):
    _offset_at(monkeypatch, "f_numeric", target)
    assert verify_diffeq_f(P3, Q9, (11, 14)).status == "fail"


# the shifted point, the point itself, and its merges of position 2 with 3 and
# with 1
@pytest.mark.parametrize("target", [(F(3, 2), F(5, 12), F(4, 3)), P3,
                                    (F(3, 2), F(5, 9)), (F(5, 8), F(4, 3))])
def test_diffeq_h_fails_when_one_value_is_off(monkeypatch, target):
    _offset_at(monkeypatch, "h_numeric", target)
    assert verify_diffeq_h(P3, Q9, 2, (11, 14)).status == "fail"


def test_diffeq_h_rejects_bad_position():
    with pytest.raises(ValueError):
        verify_diffeq_h((F(2), F(5, 4)), Q9, 3, (10, 12))


# -- exact difference equations ------------------------------------------------------


def test_diffeq_t_two_variables():
    rep = verify_diffeq_t((F(2), F(3)), 10)
    assert rep.ok and rep.details is None


def test_diffeq_t_names_the_series_that_differs(monkeypatch):
    """The block sums are compared bare and then closed as determinants; a
    bent closing fails the determinant series alone."""
    close = qdiff.close_u

    def bent(block, point, shifts, lattice):
        found = close(block, point, shifts, lattice)
        return found + QSeries.monomial(1, F(7, 2), 10) if shifts[0] else found

    monkeypatch.setattr(qdiff, "close_u", bent)
    rep = verify_diffeq_t((F(2), F(3)), 10)
    assert rep.status == "fail"
    assert (rep.first_mismatch["series"], rep.first_mismatch["exponent"]) == (
        "determinant", F(7, 2))


def test_diffeq_t_three_variables():
    assert verify_diffeq_t((F(2), F(3), F(5)), 6).ok


def test_r_recurrence_under_q_shift():
    # the invariant-derivative ratio reproduces itself with alternating binomials
    s = F(7, 5)
    order = 12
    for m in (1, 2, 3):
        lhs = theta_deriv_series(m, s, order, 1) * theta_deriv_series(0, s, order, 1).inv()
        rhs = None
        from math import comb

        for i in range(m + 1):
            term = theta_deriv_series(m - i, s, order, 0) \
                * theta_deriv_series(0, s, order, 0).inv()
            term = term * F((-1) ** i * comb(m, i))
            rhs = term if rhs is None else rhs + term
        assert lhs == rhs, m


class _CountingStates(dict):
    """A `states` dict that counts the writes to each key."""

    def __init__(self):
        super().__init__()
        self.writes = Counter()

    def __setitem__(self, key, value):
        self.writes[key] += 1
        super().__setitem__(key, value)


def _counting_lattices(monkeypatch):
    made = []

    class CountingLattice(ThetaLattice):
        def __init__(self, order):
            super().__init__(order)
            self.states = _CountingStates()
            made.append(self)

    monkeypatch.setattr(qdiff, "ThetaLattice", CountingLattice)
    return made


@pytest.mark.parametrize("verify, args", [
    (verify_diffeq_t, (P3 + (F(7, 5),), 2)),
    (verify_r_diffeq, (P3 + (F(7, 5),), F(9, 7), 1, 2))])
def test_merged_points_share_block_states(monkeypatch, verify, args):
    """At n = 4 the point and its 8 merged points form each keyed prefix state
    and each product with a block factor once, on one table, and fewer than
    a table per point would."""
    made = _counting_lattices(monkeypatch)
    assert verify(*args).ok
    (table,) = made
    assert set(table.states.writes.values()) == {1}
    fresh = 0
    point = EvalPoint(args[0])
    shifts = (1, 0, 0, 0)
    s0_j0 = args[2:4] if verify is verify_r_diffeq else (ONE, 0)
    for pt, sh in [(point, shifts)] + [(point.merged(pi), (0,) * len(pi))
                                       for pi in near_singleton_partitions((1, 2, 3, 4))]:
        own = ThetaLattice(2)
        theta_block_sum(pt, sh, own, *s0_j0)
        fresh += len(own.states)
    assert len(table.states) < fresh


def test_r_diffeq():
    assert verify_r_diffeq((F(2), F(3)), F(7, 5), 0, 10).ok
    assert verify_r_diffeq((F(2), F(3)), F(7, 5), 1, 8).ok
    assert verify_r_diffeq((F(2), F(3), F(5)), F(7, 5), 0, 6).ok


def test_r_series_rejects_a_spectator_divisor():
    # s0 s_1 = 1: Theta(t0 t_1) is inverted and vanishes
    with pytest.raises(ValueError, match=r"s0 = 7/5 times s over positions \(1,\) is 1"):
        r_series(EvalPoint((F(5, 7), F(2))), F(7, 5), 0, 6)
    with pytest.raises(ValueError, match=r"positions \(1,\) is 1"):
        verify_r_diffeq((F(5, 7), F(2)), F(7, 5), 1, 6)
    # s0 = 1 at the empty prefix
    with pytest.raises(ValueError, match=r"s0 = 1 times s over positions \(\) is 1"):
        r_series(EvalPoint((F(2), F(3))), F(1), 0, 6)
    # s0 s_1 s_2 = 1: the full product is never inverted
    assert verify_r_diffeq((F(2), F(5, 14)), F(7, 5), 0, 8).ok


def test_r_series_single_block_value():
    # n = 1: the two compositions give r(t0; 1) - r(t0; 1) r(t0 t1; 0)-style terms;
    # check against the direct assembly
    from qwedge.correlators import EvalPoint

    point = EvalPoint((F(2),))
    s0 = F(7, 5)
    order = 10
    got = r_series(point, s0, 0, order)
    ratio = theta_deriv_series(1, s0, order) * theta_deriv_series(0, s0, order).inv()
    assert got == ratio


def test_t_vanish():
    assert verify_t_vanish((F(2), F(1, 2)), 12).ok
    assert verify_t_vanish((F(2), F(3), F(1, 6)), 8).ok


def test_t_vanish_guards():
    with pytest.raises(ValueError):
        verify_t_vanish((F(2), F(3)), 8)  # product is not 1
    with pytest.raises(ValueError):
        verify_t_vanish((F(1),), 8)


# -- cyclic identity and residues ----------------------------------------------------


def test_cyclic_identity_small_grid():
    for m in (1, 2, 3):
        for k in (1, 2, 3):
            rep = verify_cyclic_identity(m, k)
            assert rep.ok, (m, k)


@pytest.mark.parametrize("q0, condition", [(F(0), "q0 > 0"), (F(1), "q0 != 1"),
                                           (F(-1, 4), "q0 > 0")])
def test_cyclic_identity_rejects_q0_off_the_domain(q0, condition):
    with pytest.raises(ValueError, match=rf"q0 = {q0}: .*{condition}"):
        verify_cyclic_identity(2, 2, q0)


def test_cyclic_identity_names_the_vanishing_factor():
    # t_1 = 3^2 = 9, so the factor (q t_1; q) = 1 - 9 q vanishes at q0 = 1/9
    with pytest.raises(ValueError, match=r"q0 = 1/9 .*\(9 q\^1; q\)_1 vanishes"):
        verify_cyclic_identity(2, 2, F(1, 9))


def test_phi_vanish_rejects_a_zero_of_theta():
    # at n = 4 the locus point holds s = 3, and t = 9 = 1/q0 is a zero of Theta
    with pytest.raises(ValueError, match=r"s = 3 puts Theta on a zero: s\^2 = q0\^-1"):
        verify_phi_vanish("theta", 4, q0=Q9)
    with pytest.raises(ValueError, match=r"s = 3 .* q0\^-1"):
        verify_residue(2, 1, 1, q0=Q9)


@pytest.mark.parametrize("terms", [0, -1])
def test_theta_values_need_a_term(terms):
    # terms = 0 failed residue on a true identity and made phi-vanish raise
    # SimpleZeroViolated; terms = -1 divided by zero
    for call in (lambda: ThetaValues(Q9, terms),
                 lambda: verify_residue(1, 1, 1, terms=terms),
                 lambda: verify_phi_vanish("theta", 3, terms=terms)):
        with pytest.raises(ValueError, match=f"terms = {terms} "):
            call()


def test_residue_pole_coefficients():
    assert verify_residue(1, 1, 1).ok
    assert verify_residue(2, 2, 1).ok


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (2, 2)])
@pytest.mark.parametrize("m", [-10, -5, 5, 10])
def test_residue_holds_far_from_the_unit_divisor(n, k, m):
    # the linear extrapolation's error grows with |m|; at the default distances
    # it stays well inside the tolerance out to |m| = 10
    rep = verify_residue(n, k, m)
    assert rep.ok, rep.tolerance_info


def test_residue_stays_exact_at_negative_m(monkeypatch):
    """(-1) ** m is a float for m < 0; the residue's estimate, expectation,
    difference and bound must all stay Fractions there."""
    seen = []

    def exact_abs(x):
        assert isinstance(x, F), x
        seen.append(x)
        return x if x >= 0 else -x

    monkeypatch.setattr(qdiff, "abs", exact_abs, raising=False)
    assert verify_residue(1, 1, -1).ok
    assert verify_residue(2, 1, -3).ok
    assert seen


def test_residue_estimate_is_free_of_the_euler_truncation():
    # U is formed from bare lattice sums, so the cut Euler product (off by
    # about 3 q0^{terms+1}) does not reach the estimate
    a, b = (verify_residue(1, 1, -10, q0=F(4, 9), terms=terms).tolerance_info["estimate"]
            for terms in (20, 30))
    assert abs(a - b) <= 1e-12 * abs(b)


def _u_closed_form(svals, table):
    """U at n <= 2 in theta values: 1/Theta(t_1), and
    (Theta'/Theta(t_1) + Theta'/Theta(t_2)) / Theta(t_1 t_2)."""
    def value(k, s):
        return table.factor * table.sum(k, s)

    if len(svals) == 1:
        return 1 / value(0, svals[0])
    s1, s2 = svals
    return sum(value(1, s) / value(0, s) for s in svals) / value(0, s1 * s2)


@pytest.mark.parametrize("svals", [(F(2),), (F(5, 4),), (F(7, 5),), (F(2), F(5, 4)),
                                   (F(5, 4), F(7, 5)), (F(7, 5), F(2))])
@pytest.mark.parametrize("q0", [F(1, 16), F(4, 9)])
@pytest.mark.parametrize("terms", [8, 20])
def test_u_value_is_the_closed_form_times_theta_prime_at_one(svals, q0, terms):
    """The block sum leads with Theta'(1) as a truncated value, which is 1 in
    the limit; the closed forms leave it out."""
    table = ThetaValues(q0, terms)
    assert qdiff._u_value(svals, table) == \
        _u_closed_form(svals, table) * table.factor * table.sum(1, F(1))


# -- the odd-function composition sum ------------------------------------------------


def test_phi_sum_two_variable_closed_form():
    table = phi_table("algebraic", F(1, 16), 10)
    assert table.factor == 1
    svals = (F(2), F(3))
    expected = table.sum(1, F(1)) * (table.sum(1, F(2)) / table.sum(0, F(2))
                                     + table.sum(1, F(3)) / table.sum(0, F(3)))
    assert phi_sum(table, svals) == expected


def _phi_by_compositions(fval, fderiv, svals):
    """phi_sum term by term: one product chain per ordered set partition."""
    total = F(0)
    for gamma in compositions(tuple(range(1, len(svals) + 1))):
        if len(gamma[0]) % 2 == 0:
            continue
        term = fderiv(len(gamma[0]), F(1))
        seen = list(gamma[0])
        for block in gamma[1:]:
            s_arg = F(1)
            for i in seen:
                s_arg *= svals[i - 1]
            term *= fderiv(len(block), s_arg) / fval(s_arg)
            seen.extend(block)
        total += -term if len(gamma) % 2 else term
    return total


@pytest.mark.parametrize("kind, svals", [
    ("algebraic", (F(2),)),
    ("algebraic", (F(11, 10), F(2), F(3), F(5), F(1, 33))),
    ("theta", (F(2), F(3))),
    ("theta", (F(11, 10), F(2), F(3), F(10, 66))),
])
def test_phi_sum_equals_the_composition_loop(kind, svals):
    table = phi_table(kind, F(1, 16), 10)
    assert phi_sum(table, svals) == _phi_by_compositions(
        lambda s: table.sum(0, s), table.sum, svals)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_phi_sum_of_bare_lattice_sums_times_the_factor_once(n):
    """Each chain has one more derivative than division, so the Euler factor
    applied once to the sum of bare lattice sums gives the sum of true values."""
    q0, terms = F(1, 16), 12
    table = phi_table("theta", q0, terms)
    svals = locus_point(n, F(1, 10))
    true = _phi_by_compositions(lambda s: table.factor * table.sum(0, s),
                                lambda m, s: table.factor * table.sum(m, s), svals)
    assert table.factor * phi_sum(table, svals) == true != 0


def test_phi_vanish_algebraic_is_not_vacuous():
    rep = verify_phi_vanish("algebraic", 3)
    assert rep.ok
    assert rep.tolerance_info["wide"] != 0.0


def test_phi_vanish_algebraic_rejects_a_sum_that_is_exactly_zero():
    """At n = 2 the two chains cancel, as f(1/x) = -f(x): the sum is 0 at
    every distance, so the decay check would pass on nothing."""
    table = phi_table("algebraic", F(1, 16), 10)
    assert phi_sum(table, locus_point(2, F(1, 10))) == 0
    with pytest.raises(ValueError, match="n = 2"):
        verify_phi_vanish("algebraic", 2)


def test_phi_vanish_theta():
    rep = verify_phi_vanish("theta", 3, terms=30)
    assert rep.ok


class _Table:
    """A `phi_sum` table of f and its derivatives, given as f(k, s)."""

    factor = 1

    def __init__(self, f):
        self.sum = lambda k, s, shift=0: f(k, s)


def test_simple_zero_guard():
    with pytest.raises(SimpleZeroViolated):
        require_simple_zero(_Table(lambda k, s: F(1) if k else s + 1 / s), F(0))
    with pytest.raises(SimpleZeroViolated):
        require_simple_zero(_Table(lambda k, s: F(0)), F(0))
