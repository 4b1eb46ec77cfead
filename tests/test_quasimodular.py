"""Basis enumeration, exact fitting, and the bracket quasimodularity checks."""

from fractions import Fraction

import pytest

from qwedge.partitions import hook_power_sum, partitions_of, q_bracket
from qwedge import quasimodular
from qwedge.quasimodular import (
    FitError,
    InsufficientOrder,
    NotInSpan,
    QMElement,
    bracket_weight,
    fit_series,
    shifted_hook_moment,
    verify_bracket_qm,
    verify_derivation_closure,
    weight_monomials,
)
from qwedge.series import QSeries, euler_product
from qwedge.special import eisenstein_g, eisenstein_monomial

F = Fraction


def unshifted_p3_bracket(order):
    """<p_3>_q from the definition, partition by partition: the hook moment
    without the xi(-3) shift that makes it quasimodular."""
    sums = [sum((hook_power_sum(lam, 3) for lam in partitions_of(n)), F(0))
            for n in range(order + 1)]
    return QSeries.from_coeffs(sums) * euler_product(order)


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


def test_fit_rejects_terms_below_q0():
    s = eisenstein_g(2, 15) + QSeries.monomial(1, -1, 16)
    with pytest.raises(NotInSpan) as err:
        fit_series(s, 2, 10)
    assert err.value.exponent == -1


def test_fit_insufficient_order():
    g2 = eisenstein_g(2, 5)
    with pytest.raises(InsufficientOrder, match="order 5 is too low"):
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
    r = verify_derivation_closure(order=24)
    assert r.ok


@pytest.mark.parametrize("weight", [2, 4, 6, 8, 10])
def test_derive_is_q_d_dq_on_every_monomial(weight):
    """Ramanujan's derivation of each monomial equals q d/dq of its series
    through q^30, and prints as the fit of that derived series does."""
    for abc in weight_monomials(weight):
        derived = QMElement(weight, (abc,), (F(1),)).derive()
        d = eisenstein_monomial(abc, 30).derive()
        assert derived.weight == weight + 2
        assert derived.series(30) == d, abc
        assert str(derived) == str(fit_series(d, weight + 2)), abc


def test_derive_is_linear():
    elt = QMElement(6, tuple(weight_monomials(6)), (F(1, 2), F(-3), F(7)))
    assert elt.derive().series(20) == elt.series(20).derive()
    assert QMElement(0, ((0, 0, 0),), (F(5),)).derive().is_zero()


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
    b = unshifted_p3_bracket(24)
    with pytest.raises(NotInSpan):
        fit_series(b, 4, margin=10)


def test_a_fit_is_checked_past_its_window(monkeypatch):
    """One unit at q^24, past the fit window (which ends by q^11 here), fails
    the fit check at order 24 there; planted in the monomials, it fails the
    derivation check there too."""
    unit = QSeries.monomial(1, 24, 0)
    bracket, monomial = quasimodular.q_bracket, quasimodular.eisenstein_monomial
    monkeypatch.setattr(quasimodular, "q_bracket",
                        lambda weight, order: bracket(weight, order) + unit)
    r = verify_bracket_qm((1, 1), order=24)
    where = r.first_mismatch
    assert (r.status, where["exponent"], where["lhs"] - where["rhs"]) == ("fail", 24, 1)
    monkeypatch.setattr(quasimodular, "eisenstein_monomial",
                        lambda abc, order: monomial(abc, order) + unit
                        if order == 24 else monomial(abc, order))
    r = verify_derivation_closure(order=24)
    assert (r.status, r.first_mismatch["exponent"]) == ("fail", 24)


# -- the shared basis against monomials built afresh ------------------------------


def monomial_series(abc, order):
    """G2^a G4^b G6^c to `order`, built afresh from powers: the reference for
    the `eisenstein_monomial` basis that the fits and verifiers share."""
    a, b, c = abc
    s = QSeries.one(order)
    for k, e in ((2, a), (4, b), (6, c)):
        if e:
            s = s * eisenstein_g(k, order) ** e
    return s


def _fit_reference(s, weight, margin):
    """(coefficients, first failing exponent or None) of the fit with every
    monomial built afresh: Gauss-Jordan on the first dim coefficients, then the
    candidate rebuilt through QMElement.series and compared on the window."""
    monos = weight_monomials(weight)
    dim, span = len(monos), len(monos) + margin
    basis = [monomial_series(abc, span - 1) for abc in monos]
    aug = [[b.coefficient(e) for b in basis] + [s.coefficient(e)] for e in range(dim)]
    for col in range(dim):  # the windows used here are nonsingular
        piv = next(r for r in range(col, dim) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(dim):
            if r != col:
                aug[r] = [x - aug[r][col] * y for x, y in zip(aug[r], aug[col])]
    coeffs = tuple(row[dim] for row in aug)
    fit = QMElement(weight, tuple(monos), coeffs).series(span - 1)
    bad = next((e for e in range(span) if fit.coefficient(e) != s.coefficient(e)), None)
    return coeffs, bad


def test_eisenstein_monomials_are_the_products():
    N = 12
    g2, g4, g6 = (eisenstein_g(k, N) for k in (2, 4, 6))
    assert eisenstein_monomial((0, 0, 0), N) == QSeries.one(N)
    assert eisenstein_monomial((2, 1, 1), N) == g2 * g2 * g4 * g6
    assert eisenstein_monomial((0, 3, 0), N) == g4 * g4 * g4
    for abc in [(0, 0, 0), (3, 0, 2), (1, 2, 1)]:
        assert eisenstein_monomial(abc, N) == monomial_series(abc, N), abc
        assert eisenstein_monomial(abc, N) is eisenstein_monomial(abc, N), abc
    # a generator is its own monomial, formed once
    assert eisenstein_monomial((1, 0, 0), N) is eisenstein_g(2, N)


def test_every_even_weight_has_a_nonsingular_window():
    # fit_series solves on q^0..q^{dim-1} of the shared basis, with no fallback
    for weight in range(2, 31, 2):
        series = eisenstein_monomial(weight_monomials(weight)[-1], 40)
        assert fit_series(series, weight, margin=2).series(40) == series, weight


def test_fit_raises_on_a_singular_window(monkeypatch):
    # a basis whose monomials coincide: the square system has no solution
    monkeypatch.setattr(quasimodular, "eisenstein_monomial",
                        lambda abc, order: eisenstein_g(4, order))
    with pytest.raises(FitError, match="singular"):
        fit_series(eisenstein_g(4, 20), 8, margin=4)


def test_fit_fails_at_the_same_exponent_as_a_fresh_basis():
    N = 24
    cases = [(eisenstein_g(4, N), 6, 8),
             (QSeries.from_coeffs([F(1)] * (N + 1)), 4, 10),
             (unshifted_p3_bracket(N), 4, 10),
             (eisenstein_g(2, N) * eisenstein_g(6, N) + QSeries.monomial(1, 11, N), 8, 8)]
    for s, weight, margin in cases:
        bad = _fit_reference(s, weight, margin)[1]
        assert bad is not None
        with pytest.raises(NotInSpan) as err:
            fit_series(s, weight, margin)
        assert err.value.exponent == bad


@pytest.mark.parametrize("ks, order", [((1, 1), 40), ((3,), 40), ((3, 5), 60), ((5, 5), 60)])
def test_fit_of_criterion_04_brackets_matches_a_fresh_basis(ks, order):
    b = q_bracket(shifted_hook_moment(ks), order)
    w = bracket_weight(ks)
    coeffs, bad = _fit_reference(b, w, 10)
    assert bad is None
    want = QMElement(w, tuple(weight_monomials(w)), coeffs)
    assert fit_series(b, w, 10) == want
    assert want.series(order) == b  # and the fit holds past the window
