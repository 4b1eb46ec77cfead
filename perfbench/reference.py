"""Reference values computed without qwedge.

Truncated power series are plain lists of Fractions: index m holds the
coefficient of q^m, and a list of length n + 1 is known through q^n.  Nothing
here imports the package under test, so a fault there cannot leak into the
values it is checked against.
"""

from __future__ import annotations

from fractions import Fraction as F

# constant terms of the Eisenstein series G_k = -B_k / (2k) + sum sigma_{k-1}(n) q^n
EISENSTEIN_CONSTANT = {2: F(-1, 24), 4: F(1, 240), 6: F(-1, 504)}


def mul(a: list, b: list) -> list:
    """Product of two truncated series, known as far as the shorter one."""
    n = min(len(a), len(b))
    out = [F(0)] * n
    for i in range(n):
        ai = a[i]
        if ai:
            for j in range(n - i):
                if b[j]:
                    out[i + j] += ai * b[j]
    return out


def inv(a: list) -> list:
    """Reciprocal of a truncated series with a nonzero constant term."""
    if not a[0]:
        raise ZeroDivisionError("constant term is zero")
    c = 1 / F(a[0])
    out = [c] + [F(0)] * (len(a) - 1)
    for k in range(1, len(a)):
        out[k] = -c * sum(a[j] * out[k - j] for j in range(1, k + 1))
    return out


def derive(a: list) -> list:
    """q d/dq."""
    return [m * c for m, c in enumerate(a)]


def sigma(n: int, r: int) -> int:
    """Sum of the r-th powers of the divisors of n."""
    return sum(d ** r for d in range(1, n + 1) if n % d == 0)


def eisenstein(k: int, order: int) -> list:
    """G_k through q^order for k in 2, 4, 6, from divisor sums."""
    return [EISENSTEIN_CONSTANT[k]] + [F(sigma(n, k - 1)) for n in range(1, order + 1)]


def monomial(abc: tuple, order: int) -> list:
    """G2^a G4^b G6^c through q^order."""
    out = [F(1)] + [F(0)] * order
    for k, e in zip((2, 4, 6), abc):
        g = eisenstein(k, order)
        for _ in range(e):
            out = mul(out, g)
    return out


def partition_numbers(n: int) -> list:
    """p(0..n) by Euler's pentagonal recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        k, total = 1, 0
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p


def _linear_factor(c: F, e: int, order: int) -> list:
    """1 - c q^e through q^order (e >= 1)."""
    out = [F(1)] + [F(0)] * order
    if e <= order:
        out[e] = -c
    return out


def theta_series(s, order: int) -> list:
    """The odd theta function at x = s^2 through q^order, by the Jacobi triple
    product:  (s - 1/s) (x q; q)_inf (q/x; q)_inf / (q; q)_inf^2.
    """
    s = F(s)
    x = s * s
    num = [s - 1 / s] + [F(0)] * order
    den = [F(1)] + [F(0)] * order
    for m in range(1, order + 1):
        num = mul(mul(num, _linear_factor(x, m, order)), _linear_factor(1 / x, m, order))
        euler = _linear_factor(F(1), m, order)
        den = mul(mul(den, euler), euler)
    return mul(num, inv(den))


def theta_value(s, q0, factors: int) -> tuple[F, F]:
    """The triple product at x = s^2, q = q0, cut after `factors` factors of each
    kind, and a bound on the relative error of the cut.

    Every dropped factor is 1 - u with |u| <= c q0^m, c = max(x, 1/x, 1) and
    |u| <= 1/2, and |log(1 - u)| <= 2|u| there.  The four kinds together give
    |log(tail)| <= L = 8 c q0^(M+1) / (1 - q0), and |tail - 1| <= 2L for L <= 1/2.
    """
    s, q0 = F(s), F(q0)
    x = s * s
    c = max(x, 1 / x, F(1))
    if c * q0 ** (factors + 1) > F(1, 2):
        raise ValueError("too few factors for the tail estimate")
    value = s - 1 / s
    for m in range(1, factors + 1):
        qm = q0 ** m
        value *= (1 - x * qm) * (1 - qm / x) / (1 - qm) ** 2
    tail_log = 8 * c * q0 ** (factors + 1) / (1 - q0)
    if tail_log > F(1, 2):
        raise ValueError("too few factors for the tail estimate")
    return value, 2 * tail_log
