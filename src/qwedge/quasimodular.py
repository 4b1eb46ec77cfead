"""The graded ring generated by the weight-2, 4, 6 Eisenstein series: monomial
bases by weight, exact linear fitting of q-series against a basis, and the
q-bracket checks that land inside it.
"""

from __future__ import annotations

from fractions import Fraction

from .partitions import HookMomentWeight, q_bracket
from .reports import FrozenRecord, Report
from .series import ONE, ZERO, QSeries
from .special import eisenstein_monomial, xi_value

F = Fraction

BRACKET_MARGIN = 10  # fit margin of `verify_bracket_qm`
CLOSURE_WEIGHTS = (2, 4, 6)  # weights `verify_derivation_closure` derives
CLOSURE_MARGIN = 8  # and its fit margin


class FitError(ValueError):
    pass


class NotInSpan(FitError):
    def __init__(self, weight: int, exponent: int):
        self.weight = weight
        self.exponent = exponent
        super().__init__(
            f"series is not in the weight-{weight} span; first failure at q^{exponent}")


class InsufficientOrder(FitError):
    def __init__(self, needed: int, have: int):
        self.needed = needed
        self.have = have
        super().__init__(f"need series coefficients through q^{needed}, have q^{have}")


def weight_monomials(weight: int) -> list[tuple[int, int, int]]:
    """Exponent triples (a, b, c) with 2a + 4b + 6c = weight, ordered by (c, b)."""
    if weight < 0 or weight % 2:
        return []
    out = []
    for c in range(weight // 6 + 1):
        for b in range((weight - 6 * c) // 4 + 1):
            rest = weight - 6 * c - 4 * b
            out.append((rest // 2, b, c))
    return out


def _combination(basis, coeffs, order: int) -> QSeries:
    """sum_i coeffs[i] basis[i] to `order`."""
    total = QSeries.zero(order)
    for b, c in zip(basis, coeffs):
        if c != 0:
            total = total + c * b
    return total


class QMElement(FrozenRecord):
    """sum_i coeffs[i] G2^a G4^b G6^c over monomials[i] = (a, b, c) of one weight."""

    __slots__ = ("weight", "monomials", "coeffs")

    def __init__(self, weight: int, monomials: tuple[tuple[int, int, int], ...],
                 coeffs: tuple[Fraction, ...]):
        self._set(weight=weight, monomials=monomials, coeffs=coeffs)

    def series(self, order: int) -> QSeries:
        """The element to `order`, on the `eisenstein_monomial` basis."""
        basis = (eisenstein_monomial(abc, order) for abc in self.monomials)
        return _combination(basis, self.coeffs, order)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for (a, b, c), coef in zip(self.monomials, self.coeffs):
            if coef == 0:
                continue
            names = [f"G{k}^{e}" if e > 1 else f"G{k}"
                     for k, e in ((2, a), (4, b), (6, c)) if e]
            mono = "*".join(names) if names else "1"
            parts.append(f"({coef})*{mono}")
        return " + ".join(parts)


def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve a square system by Gaussian elimination over Fraction; None if singular."""
    n = len(rhs)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = ONE / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def fit_series(s: QSeries, weight: int, margin: int = 10) -> QMElement:
    """Express s exactly in the weight-`weight` monomial basis.

    The first dim(basis) coefficients determine a candidate; the next `margin`
    coefficients must then agree or NotInSpan reports the first failing exponent.
    Odd (or negative) weight has the empty basis, so only the zero series fits.
    Every basis series starts at q^0, so a nonzero term below q^0 fails at once.
    The basis is `eisenstein_monomial`'s at order dim + margin - 1, formed
    once per process, so every fit at that order shares it.  The candidate is
    checked against the same basis.
    """
    monos = weight_monomials(weight)
    dim = len(monos)
    span = dim + margin
    if s.upper < span - 1:
        raise InsufficientOrder(span - 1, int(s.upper))
    low = s.valuation()
    if low is not None and low < 0:
        raise NotInSpan(weight, low)
    target = [s.coefficient(e) for e in range(span)]
    if dim == 0:
        fitted, fit = QMElement(weight, (), ()), [ZERO] * span
    else:
        order = span - 1
        # offset 0 and `order`: slot e of each basis series is its q^e coefficient
        basis = [eisenstein_monomial(abc, order) for abc in monos]
        rows = [[b.coeffs[e] for b in basis] for e in range(dim)]
        sol = _solve_exact(rows, target[:dim])
        if sol is None:
            # fall back: pick dim independent rows from the full window
            sol = _solve_overdetermined(basis, s, dim, span)
        fitted = QMElement(weight, tuple(monos), tuple(sol))
        fit = _combination(basis, sol, order).coeffs
    for e, (x, y) in enumerate(zip(fit, target)):
        if x != y:
            raise NotInSpan(weight, e)
    return fitted


def _solve_overdetermined(basis, s, dim, span) -> list[Fraction]:
    rows, rhs = [], []
    for e in range(span):
        rows.append([b.coefficient(e) for b in basis])
        rhs.append(s.coefficient(e))
        if len(rows) >= dim:
            sol = _solve_exact(rows[-dim:], rhs[-dim:])
            if sol is not None:
                return sol
    raise FitError("basis matrix is singular on the available window")


# -- verifiers --------------------------------------------------------------------

def shifted_hook_moment(ks: tuple[int, ...]) -> HookMomentWeight:
    """The partition function prod_i (p_{k_i} - xi(-k_i)), as a row weight.

    Every k_i must be at least 1: p_0 - xi(0) vanishes on every partition, so a
    factor k_i = 0 would make the bracket the zero series.
    """
    for k in ks:
        if k < 1:
            raise ValueError(f"hook moment k = {k}: every k must be >= 1 "
                             "(p_0 - xi(0) is zero on every partition)")
    return HookMomentWeight(ks, [xi_value(-k) for k in ks])


def bracket_weight(ks: tuple[int, ...]) -> int:
    return sum(k + 1 for k in ks)


def verify_bracket_qm(ks: tuple[int, ...], order: int = 30) -> Report:
    """The q-bracket of prod (p_k - xi(-k)) lies in the expected graded piece."""
    statement = ("q-brackets of shifted hook-moment products are quasimodular of "
                 "weight sum(k_i + 1)")
    ks = tuple(int(k) for k in ks)
    w = bracket_weight(ks)
    b = q_bracket(shifted_hook_moment(ks), order)
    params = {"ks": list(ks), "order": order, "margin": BRACKET_MARGIN, "weight": w}
    try:
        elt = fit_series(b, w, BRACKET_MARGIN)
    except NotInSpan as err:
        return Report("bracket-qm", statement, params, "fail",
                      first_mismatch={"exponent": err.exponent})
    details = {"fit": str(elt)}
    return Report("bracket-qm", statement, params, "pass",
                  order_checked=order, details=details)


def verify_derivation_closure(order: int = 30) -> Report:
    """q d/dq maps the weight-w graded piece into the weight-(w+2) piece, for
    each w in `CLOSURE_WEIGHTS`."""
    statement = "the derivation q d/dq raises weight by exactly 2 on the graded ring"
    params = {"weights": list(CLOSURE_WEIGHTS), "order": order, "margin": CLOSURE_MARGIN}
    if order < 0:
        raise ValueError(f"order {order} is negative; the check needs order >= 0")
    checked = {}
    for w in CLOSURE_WEIGHTS:
        for abc in weight_monomials(w):
            d = eisenstein_monomial(abc, order).derive()
            try:
                elt = fit_series(d, w + 2, CLOSURE_MARGIN)
            except NotInSpan as err:
                return Report("derivation-closure", statement, params, "fail",
                              first_mismatch={"monomial": list(abc),
                                              "exponent": err.exponent})
            checked[f"D(G2^{abc[0]} G4^{abc[1]} G6^{abc[2]})"] = str(elt)
    return Report("derivation-closure", statement, params, "pass",
                  order_checked=order, details=checked)
