"""The graded ring generated by the weight-2, 4, 6 Eisenstein series: monomial
bases by weight, exact linear fitting of q-series against a basis, and the
q-bracket checks that land inside it.
"""

from __future__ import annotations

from fractions import Fraction

from .partitions import HookMomentWeight, q_bracket
from .reports import FrozenRecord, Report, pairs_report
from .series import ONE, ZERO, QSeries
from .special import eisenstein_monomial, xi_value

F = Fraction

BRACKET_MARGIN = 10  # fit margin of `verify_bracket_qm`
CLOSURE_WEIGHTS = (2, 4, 6)  # weights `verify_derivation_closure` derives


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
        super().__init__(f"order {have} is too low: the fit needs the series "
                         f"through q^{needed}, order >= {needed}")


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


class QMElement(FrozenRecord):
    """sum_i coeffs[i] G2^a G4^b G6^c over monomials[i] = (a, b, c) of one weight."""

    __slots__ = ("weight", "monomials", "coeffs")

    def __init__(self, weight: int, monomials: tuple[tuple[int, int, int], ...],
                 coeffs: tuple[Fraction, ...]):
        self._set(weight=weight, monomials=monomials, coeffs=coeffs)

    def series(self, order: int) -> QSeries:
        """The element to `order`, on the `eisenstein_monomial` basis."""
        return QSeries.sum_of([QSeries.zero(order)] + [
            c * eisenstein_monomial(abc, order)
            for abc, c in zip(self.monomials, self.coeffs) if c])

    def derive(self) -> QMElement:
        """D = q d/dq of the element, of weight + 2, by Leibniz's rule on
        Ramanujan's equations DG2 = -2 G2^2 + (5/6) G4,
        DG4 = -8 G2 G4 + (7/10) G6 and DG6 = -12 G2 G6 + (400/7) G4^2."""
        out = dict.fromkeys(weight_monomials(self.weight + 2), ZERO)
        for (a, b, c), coef in zip(self.monomials, self.coeffs):
            out[a + 1, b, c] -= (2 * a + 8 * b + 12 * c) * coef
            if a:
                out[a - 1, b + 1, c] += F(5, 6) * a * coef
            if b:
                out[a, b - 1, c + 1] += F(7, 10) * b * coef
            if c:
                out[a, b + 2, c - 1] += F(400, 7) * c * coef
        return QMElement(self.weight + 2, tuple(out), tuple(out.values()))

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
    checked against the same basis.  A basis singular on q^0..q^{dim-1} raises
    FitError; no even weight from 2 to 100 has one.
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
            raise FitError(f"the weight-{weight} basis is singular on q^0..q^{dim - 1}")
        fitted = QMElement(weight, tuple(monos), tuple(sol))
        fit = fitted.series(order).coeffs
    for e, (x, y) in enumerate(zip(fit, target)):
        if x != y:
            raise NotInSpan(weight, e)
    return fitted


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
    """The q-bracket of prod (p_k - xi(-k)) lies in the expected graded piece:
    fitted on its first dim + `BRACKET_MARGIN` coefficients, the fit equals
    the bracket through q^order."""
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
    return pairs_report("bracket-qm", statement, params, [({}, b, elt.series(order))],
                        details={"fit": str(elt)})


def verify_derivation_closure(order: int = 30) -> Report:
    """q d/dq maps the weight-w graded piece into the weight-(w+2) piece, for
    each w in `CLOSURE_WEIGHTS`: each derived monomial equals its derivation
    by Ramanujan's equations (`QMElement.derive`) through q^order."""
    statement = "the derivation q d/dq raises weight by exactly 2 on the graded ring"
    params = {"weights": list(CLOSURE_WEIGHTS), "order": order}
    if order < 0:
        raise ValueError(f"order {order} is negative; the check needs order >= 0")
    checked, pairs = {}, []
    for w in CLOSURE_WEIGHTS:
        for abc in weight_monomials(w):
            d = eisenstein_monomial(abc, order).derive()
            elt = QMElement(w, (abc,), (ONE,)).derive()
            checked[f"D(G2^{abc[0]} G4^{abc[1]} G6^{abc[2]})"] = str(elt)
            pairs.append(({"monomial": list(abc)}, d, elt.series(order)))
    return pairs_report("derivation-closure", statement, params, pairs, details=checked)
