"""Acceptance battery: one test per shipped guarantee, with pinned parameters
and wall-clock budgets.  Each test line in `pytest -v` is the pass/fail verdict
for one criterion."""

import json
import subprocess
import sys
import time
from fractions import Fraction as F

from qwedge.characters import (verify_elliptic_transform, verify_theta_expansion,
                               verify_triple_product)
from qwedge.correlators import EvalPoint, f_brute, verify_npoint
from qwedge.partitions import (frobenius, from_frobenius, partition_count,
                               partitions_up_to, q_bracket)
from qwedge.qdiff import (verify_cyclic_identity, verify_diffeq_f,
                          verify_diffeq_h, verify_diffeq_t, verify_phi_vanish,
                          verify_r_diffeq, verify_t_vanish)
from qwedge.quasimodular import shifted_hook_moment, verify_bracket_qm
from qwedge.series import QSeries, euler_product
from qwedge.setparts import verify_counts
from qwedge.skewchar import verify_h_equals_g, verify_skew_npoint
from qwedge.special import eisenstein_g, theta_deriv_series, verify_theta_derivs


PRIMES_6 = (F(2), F(3), F(5), F(7), F(11), F(13))


class Budget:
    """Wall-clock guard: the criterion fails if its work exceeds the budget."""

    def __init__(self, seconds: float):
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc[0] is None:
            assert self.elapsed <= self.limit, (
                f"budget exceeded: {self.elapsed:.1f}s > {self.limit}s")


def test_criterion_01_npoint_determinant_identity():
    with Budget(30):
        for s in ((F(2),), (F(3),), (F(5),)):
            assert verify_npoint(s, 20).ok
        for s in ((F(2), F(3)), (F(2), F(5)), (F(3), F(5))):
            assert verify_npoint(s, 14).ok
        assert verify_npoint((F(2), F(3), F(5)), 10).ok
        assert verify_npoint((F(2), F(3), F(5), F(7)), 8).ok
        assert verify_npoint((F(2), F(3), F(5), F(7)), 14).ok
        assert verify_npoint(PRIMES_6, 10).ok


def test_criterion_02_one_point_times_theta_is_one():
    with Budget(2):
        point = EvalPoint((F(2),))
        product = f_brute(point, 20) * theta_deriv_series(0, F(2), 20)
        assert product == QSeries.one(20)


def test_criterion_03_invariant_theta_derivatives_at_one():
    with Budget(5):
        rep = verify_theta_derivs(m_values=(1, 2, 3), order=30)
        assert rep.ok, rep.first_mismatch


def test_criterion_04_bracket_quasimodularity():
    with Budget(60):
        assert q_bracket(shifted_hook_moment((1,)), 40) == eisenstein_g(2, 40)
        assert q_bracket(shifted_hook_moment((2,)), 40).is_zero()
        assert verify_bracket_qm((1, 1), order=40).ok
        assert verify_bracket_qm((3,), order=40).ok
        # weights 10 and 12, which the row DP makes cheap at order 60
        assert verify_bracket_qm((3, 5), order=60).ok
        assert verify_bracket_qm((5, 5), order=60).ok


def test_criterion_05_cyclic_rational_identity():
    with Budget(5):
        for m in range(1, 5):
            for k in range(1, 5):
                rep = verify_cyclic_identity(m, k)
                assert rep.ok, (m, k, rep.first_mismatch)


def test_criterion_06_character_transformation_and_expansion():
    with Budget(20):
        for K in (2, 3):
            assert verify_elliptic_transform(K, 3).ok
            assert verify_theta_expansion(K, 3).ok
        assert verify_triple_product(12).ok
        assert verify_triple_product(40).ok
        assert verify_elliptic_transform(4, 5).ok
        assert verify_theta_expansion(4, 6).ok


def test_criterion_07_difference_equations():
    with Budget(60):
        # exact theta-side recursions
        assert verify_diffeq_t((F(2), F(3)), 12).ok
        assert verify_diffeq_t((F(2), F(3), F(5)), 8).ok
        assert verify_r_diffeq((F(2), F(3)), F(7, 5), 0, 12).ok
        assert verify_r_diffeq((F(2), F(3), F(5)), F(7, 5), 0, 8).ok
        assert verify_diffeq_t((F(2), F(3), F(5), F(7)), 8).ok
        assert verify_r_diffeq((F(2), F(3), F(5), F(7)), F(7, 5), 0, 8).ok
        assert verify_diffeq_t(PRIMES_6, 10).ok
        assert verify_r_diffeq(PRIMES_6, F(7, 5), 0, 10).ok
        # numeric full-sum recursions at q0 = 1/9, cutoffs 30 vs 25
        q0 = F(1, 9)
        assert verify_diffeq_f((F(2), F(5, 4)), q0, (25, 30)).ok
        assert verify_diffeq_f((F(3, 2), F(5, 4), F(4, 3)), q0, (25, 30)).ok
        assert verify_diffeq_h((F(2), F(5, 4)), q0, 1, (25, 30)).ok
        assert verify_diffeq_h((F(2), F(5, 4)), q0, 2, (25, 30)).ok


def test_criterion_08_vanishing_on_unit_product_locus():
    with Budget(20):
        assert verify_t_vanish((F(2), F(1, 2)), 12).ok
        assert verify_t_vanish((F(2), F(3), F(1, 6)), 12).ok
        for kind in ("algebraic", "theta"):
            rep = verify_phi_vanish(kind, 3)
            assert rep.ok, (kind, rep.tolerance_info)
            assert rep.tolerance_info["ratio_bound"] == float(F(1, 5))


def test_criterion_09_signed_block_count_identities():
    with Budget(10):
        rep = verify_counts(8)
        assert rep.ok
        assert rep.details == {"sum1": 1, "sum2": 1, "sum3": 0}


def test_criterion_10_skew_character_sums():
    with Budget(30):
        assert verify_h_equals_g(order=30).ok  # all pairs with r <= 3, sum j <= 4
        assert verify_skew_npoint(1, 5, 15).ok
        assert verify_skew_npoint(2, 5, 15).ok
        assert verify_skew_npoint(3, 5, 15).ok


def _suite_bytes() -> bytes:
    proc = subprocess.run([sys.executable, "-m", "qwedge", "suite"],
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stdout.decode()
    return proc.stdout


def test_criterion_11_infrastructure_properties():
    with Budget(10):
        # ring axioms on a fixed triple, integer and half-integer steps
        a = QSeries(F(-1), (F(2), F(0), F(-3), F(1, 2)))
        b = QSeries(F(1), (F(1), F(5), F(-1, 3)))
        c = QSeries(F(0), (F(-2), F(7), F(1), F(4)))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a and a + b == b + a
        assert a * QSeries.one(10) == a
        # derivation is a Leibniz rule for q d/dq
        assert (a * b).derive() == a.derive() * b + a * b.derive()
        h = QSeries(F(1, 2), (F(1), F(-1)), F(1, 2))
        k = QSeries(F(-1, 2), (F(3), F(2)), F(1, 2))
        assert (h * k).derive() == h.derive() * k + h * k.derive()
        # Frobenius coordinates round-trip
        for lam in partitions_up_to(10):
            assert from_frobenius(*frobenius(lam)) == lam
        # generating function of p(n)
        inv = euler_product(30).inv()
        for n in range(31):
            assert inv.coefficient(n) == partition_count(n)
        # byte-identical suite across runs
        one = _suite_bytes()
        assert one == _suite_bytes()
        reports = json.loads(one)
        assert reports[-1]["status"] == "pass"
