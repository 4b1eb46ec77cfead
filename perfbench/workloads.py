"""The four workloads: their inputs, their operations and the checks on each
output.

Each workload builds a list of operations from a seed.  The seed only picks
among inputs of one cost class (the same orders, the same number of
variables, rationals of one bit size), so two seeds cost the same.  An operation fails when the program raises, reports a failed
verification or checks nothing; an operation that succeeds must also pass
its reference and property checks, or the run is reported incorrect.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path
from typing import Callable

import reference as ref
from clock import TICKS_MARK
from layers import TRACE_MARK

HERE = Path(__file__).resolve().parent

Q0 = F(1, 9)


class OpFailed(Exception):
    """The operation did not do its job; counted in `failed`."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    # raises OpFailed for a failed operation; returns a description of a
    # wrong output, or None
    check: Callable[[object], str | None]
    kind: str = "verify"


@dataclass
class Workload:
    ops: list[Op]
    # coefficients of a series for the planted negative control
    control_coeffs: list = field(default_factory=list)
    # commands: checks across the operations of one pass, given the names of
    # those that failed
    pass_check: Callable[[set], str | None] | None = None


def _primes(lo: int, hi: int) -> list[int]:
    return [p for p in range(lo, hi) if all(p % d for d in range(2, int(p ** 0.5) + 1))]


# Evaluation points are ratios p/q of distinct primes, numerators and
# denominators each drawn from a band narrow enough that every draw has the
# same bit size within a percent: the cost of exact arithmetic follows the bit
# size, so two seeds cost the same.  No product of a nonempty subset of such
# ratios is 1, so every point avoids the theta divisor.
DENOMINATORS = _primes(1000, 1052)


def _prime_ratios(rng: random.Random, numerator_bands: list[tuple[int, int]]) -> list[F]:
    """One ratio per band: a prime of the band over a distinct prime in
    DENOMINATORS."""
    dens = rng.sample(DENOMINATORS, len(numerator_bands))
    nums = [rng.choice(_primes(lo, hi)) for lo, hi in numerator_bands]
    if len(set(nums)) != len(nums):
        raise ValueError("numerator bands must not overlap")
    return [F(p, q) for p, q in zip(nums, dens)]


def _report_ok(rep) -> None:
    if rep.status != "pass":
        raise OpFailed(f"status {rep.status}: {rep.first_mismatch or rep.tolerance_info}")
    if rep.order_checked is not None and rep.order_checked < 0:
        raise OpFailed(f"passed with order_checked {rep.order_checked}")


def _series_list(series, order: int) -> list:
    """Coefficients of q^0..q^order of an integer-offset QSeries."""
    if series.offset.denominator != 1 or series.step != 1:
        raise ValueError(f"unexpected grid: offset {series.offset}, step {series.step}")
    return [series.coefficient(e) for e in range(order + 1)]


def negative_control(coeffs: list, rng: random.Random) -> str | None:
    """series_report must pass two equal series and, after one coefficient is
    changed, report a mismatch at exactly that exponent."""
    from qwedge.reports import series_report
    from qwedge.series import QSeries

    base = QSeries.from_coeffs(coeffs)
    e = rng.randrange(len(coeffs))
    bent = list(coeffs)
    bent[e] += 1
    same = series_report("control", "control", {}, base, QSeries.from_coeffs(coeffs))
    rep = series_report("control", "control", {}, base, QSeries.from_coeffs(bent))
    if same.status != "pass":
        return "negative control: equal series reported as a mismatch"
    if rep.status != "fail" or rep.first_mismatch is None \
            or rep.first_mismatch["exponent"] != e:
        return f"negative control: change at q^{e} not reported there ({rep.first_mismatch})"
    return None


# -- brackets -----------------------------------------------------------------

BRACKET_ORDER = 24
BRACKET_MARGIN = 10


def brackets(seed: int) -> Workload:
    from qwedge.partitions import q_bracket
    from qwedge.quasimodular import (FitError, bracket_weight, fit_series,
                                     shifted_hook_moment)

    rng = random.Random(seed)
    order = BRACKET_ORDER
    # the seeded product: an ordered pair of distinct moments, about the cost of (1, 1)
    extra = rng.choice([(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b])
    g2 = ref.eisenstein(2, order)
    expected = {
        (1,): g2,                                         # <p1 - xi(-1)> = G2
        (1, 1): [a + b for a, b in zip(ref.mul(g2, g2), ref.derive(g2))],
    }

    def op(ks):
        def run():
            b = q_bracket(shifted_hook_moment(ks), order)
            try:
                elt = fit_series(b, bracket_weight(ks), BRACKET_MARGIN)
            except FitError as err:
                raise OpFailed(f"fit: {err}") from err
            return b, elt

        def check(result):
            b, elt = result
            got = _series_list(b, order)
            weight = sum(k + 1 for k in ks)
            if weight % 2 and any(got):
                return f"<{ks}> has odd weight {weight} but is not zero"
            if ks in expected and got != expected[ks]:
                return f"<{ks}> differs from its divisor-sum reference"
            fitted = [F(0)] * (order + 1)
            for abc, c in zip(elt.monomials, elt.coeffs):
                fitted = [x + c * y for x, y in zip(fitted, ref.monomial(abc, order))]
            if fitted != got:
                return f"fit of <{ks}> does not hold through q^{order}"
            return None

        return Op(f"bracket {ks} order {order}", run, check)

    ops = [op(ks) for ks in [(1,), (2,), (1, 1), extra]]
    rng.shuffle(ops)
    return Workload(ops, control_coeffs=g2)


# -- theta ----------------------------------------------------------------------

# five ratios near 1.3, 1.4, 1.5, 1.6, 1.7
THETA_BANDS = [(1300, 1340), (1400, 1440), (1500, 1540), (1600, 1640), (1700, 1740)]


def theta(seed: int) -> Workload:
    from qwedge.correlators import EvalPoint, u_series, verify_npoint
    from qwedge.qdiff import verify_diffeq_t, verify_r_diffeq, verify_t_vanish
    from qwedge.special import theta_deriv_series, verify_theta_derivs

    rng = random.Random(seed)
    s = _prime_ratios(rng, THETA_BANDS)
    p3, p4, s0 = tuple(s[:3]), tuple(s[:4]), s[4]
    vanish = (s[0], s[1], 1 / (s[0] * s[1]))
    one = s[rng.randrange(5)]
    ref_order = 16

    def verifier(name, fn, *args):
        def check(rep):
            _report_ok(rep)
            if rep.details and any(v != "pass" for v in rep.details.values()):
                return f"{name}: a route failed inside a passing report: {rep.details}"
            return None
        return Op(name, lambda: fn(*args), check)

    theta_ref = ref.theta_series(one, ref_order)

    def check_theta(series):
        if _series_list(series, ref_order) != theta_ref:
            return "theta_deriv_series(0, s) differs from the triple product"
        return None

    def check_one_point(series):
        prod = ref.mul(_series_list(series, ref_order), theta_ref)
        if prod != [F(1)] + [F(0)] * ref_order:
            return "one-point u_series times the triple product is not 1"
        return None

    ops = [
        verifier("npoint n=3 order 8", verify_npoint, p3, 8),
        verifier("npoint n=4 order 4", verify_npoint, p4, 4),
        verifier("diffeq-t n=3 order 6", verify_diffeq_t, p3, 6),
        verifier("r-diffeq n=3 order 6", verify_r_diffeq, p3, s0, 0, 6),
        # at n = 4 the cost lies in the 24 orderings, each rebuilding its
        # theta factors, more than in the order: even order 1 takes over half
        # a second, too long to time steadily, so these check the leading
        # coefficient
        verifier("diffeq-t n=4 order 0", verify_diffeq_t, p4, 0),
        verifier("r-diffeq n=4 order 0", verify_r_diffeq, p4, s0, 0, 0),
        verifier("t-vanish n=3 order 8", verify_t_vanish, vanish, 8),
        verifier("theta-derivs order 30", verify_theta_derivs, (1, 2, 3), 30),
        Op(f"theta_deriv_series(0, {one}) order {ref_order}",
           lambda: theta_deriv_series(0, one, ref_order), check_theta),
        Op(f"u_series one-point {one} order {ref_order}",
           lambda: u_series(EvalPoint((one,)), ref_order), check_one_point),
    ]
    rng.shuffle(ops)
    return Workload(ops, control_coeffs=theta_ref)


# -- numeric ----------------------------------------------------------------------

NUMERIC_CUTOFFS = (11, 14)
# s1 in [1.45, 1.55], s2 in [1.25, 1.35], s3 in [1.1, 1.2]: every subset
# product of the t = s^2 stays inside (q0, 1/q0) for q0 = 1/9, also with s1
# or s2 shifted by q0^(1/2) as the difference equations shift them, with the
# margins of criterion 07's points (3/2, 5/4, 4/3)
NUMERIC_BANDS = [(1524, 1565), (1314, 1363), (1157, 1211)]
THETA_FACTORS = 40


def numeric(seed: int) -> Workload:
    from qwedge.qdiff import (f_numeric, verify_diffeq_f, verify_diffeq_h,
                              verify_phi_vanish, verify_residue)

    rng = random.Random(seed)
    s = _prime_ratios(rng, NUMERIC_BANDS)
    p2, p3 = tuple(s[:2]), tuple(s)
    one = s[rng.randrange(3)]
    cut = NUMERIC_CUTOFFS

    def within_bound(rep):
        """The pass agrees with the figures the report gives for it."""
        _report_ok(rep)
        info = rep.tolerance_info
        if "bound" in info and not info["difference"] <= info["bound"]:
            return f"{rep.identity}: difference {info['difference']} over bound {info['bound']}"
        if "tolerance" in info and not info["relative_error"] <= info["tolerance"]:
            return f"{rep.identity}: relative error {info['relative_error']} over tolerance"
        if "narrow" in info:
            floor = float(rep.params["q0"] ** rep.params["terms"])
            wide, narrow = abs(info["wide"]), abs(info["narrow"])
            if not (narrow <= info["ratio_bound"] * wide or max(wide, narrow) <= floor):
                return f"{rep.identity}: no decay from {wide} to {narrow}"
        return None

    theta_value, rel_err = ref.theta_value(one, Q0, THETA_FACTORS)
    expected = 1 / theta_value

    def check_one_point(result):
        value, drift = result
        # 1/Theta is known to relative error rel_err / (1 - rel_err)
        allowed = drift + abs(expected) * rel_err / (1 - rel_err)
        if abs(value - expected) > allowed:
            return (f"one-point f_numeric at s={one} is {float(value)}, the triple "
                    f"product gives {float(expected)}, allowed {float(allowed)}")
        return None

    ops = [
        Op(f"diffeq-f n=2 cutoffs {cut}", lambda: verify_diffeq_f(p2, Q0, cut), within_bound),
        Op(f"diffeq-f n=3 cutoffs {cut}", lambda: verify_diffeq_f(p3, Q0, cut), within_bound),
        Op(f"diffeq-h k=1 cutoffs {cut}", lambda: verify_diffeq_h(p2, Q0, 1, cut), within_bound),
        Op(f"diffeq-h k=2 cutoffs {cut}", lambda: verify_diffeq_h(p2, Q0, 2, cut), within_bound),
        Op("phi-vanish theta n=3 terms 20",
           lambda: verify_phi_vanish("theta", 3, terms=20), within_bound),
        Op("residue n=2 k=1 m=1 terms 30",
           lambda: verify_residue(2, 1, 1, terms=30), within_bound),
        Op(f"f_numeric one-point {one} cutoffs {cut}",
           lambda: f_numeric((one,), Q0, cut), check_one_point),
    ]
    rng.shuffle(ops)
    return Workload(ops, control_coeffs=ref.theta_series(one, 12))


# -- commands ----------------------------------------------------------------------

IDS = ["bracket-qm", "counts", "cyclic-identity", "derivation-closure", "diffeq-f",
       "diffeq-h", "diffeq-t", "elliptic-transform", "h-equals-g", "npoint",
       "phi-vanish", "poch-telescope", "qgauss", "r-diffeq", "residue",
       "skew-npoint", "t-vanish", "theta-derivs", "theta-diffeq",
       "theta-expansion", "triple-product", "v-consistency", "xi-binomial",
       "xi-generating"]

# the character and skew-character verifiers above their defaults
LARGER = [
    ["verify", "elliptic-transform", "--K", "3", "--order", "4"],
    ["verify", "theta-expansion", "--K", "3", "--order", "4"],
    ["verify", "v-consistency", "--K", "3", "--order", "6"],
    ["verify", "triple-product", "--order", "24"],
    ["verify", "skew-npoint", "--n", "2", "--k", "5", "--order", "15"],
]

# commands that fail at this commit, each for a named fault
FAULTY = [
    ["verify", "npoint", "--seed", "1"],            # DivisorHit is not resampled
    ["verify", "counts", "--n", "0"],               # IndexError traceback
    ["verify", "triple-product", "--order", "-1"],  # passes having checked nothing
]

SERIES_ORDER = 20


@dataclass
class Completed:
    argv: list
    returncode: int
    stdout: str
    stderr: str
    trace: dict | None = None
    ticks: dict | None = None  # kernel ticks inside `qwedge suite`


def child_env(checkout: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "QWEDGE_THREADS", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = str(checkout / "src")
    return env


def run_command(checkout: Path, argv: list, traced: bool) -> Completed:
    """One command, traced through launch.py in traced runs; otherwise
    `python3 -m qwedge`, except that `suite` runs through `launch.py --ticks`
    for the host speed inside it (clock.py)."""
    launch = [sys.executable, str(HERE / "launch.py")]
    if traced:
        head, mark, field = launch, TRACE_MARK, "trace"
    elif argv == ["suite"]:
        head, mark, field = launch + ["--ticks"], TICKS_MARK, "ticks"
    else:
        head, mark, field = [sys.executable, "-m", "qwedge"], None, None
    proc = subprocess.run(head + argv, cwd=checkout, env=child_env(checkout),
                          capture_output=True, text=True, timeout=120)
    out = Completed(argv, proc.returncode, proc.stdout, proc.stderr)
    lines = proc.stderr.splitlines()
    if mark is not None and lines and lines[-1].startswith(mark):
        setattr(out, field, json.loads(lines[-1][len(mark):]))
        out.stderr = "\n".join(lines[:-1])
    return out


def _json_line(out: Completed):
    try:
        return json.loads(out.stdout)
    except json.JSONDecodeError as err:
        raise OpFailed(f"exit {out.returncode}, stdout is not JSON: "
                       f"{out.stdout[:80]!r} {out.stderr[-200:]!r}") from err


def _valid_pass(out: Completed) -> dict:
    """A valid verify command: exit 0 with a passing report that checked at
    least one coefficient or instance."""
    rep = _json_line(out)
    if out.returncode != 0 or rep.get("status") != "pass":
        raise OpFailed(f"exit {out.returncode}, status {rep.get('status')}: "
                       f"{rep.get('detail') or rep.get('first_mismatch')}")
    if rep.get("order_checked", 0) < 0:
        raise OpFailed(f"passed with order_checked {rep['order_checked']}")
    return rep


def _invalid_rejected(out: Completed) -> None:
    """An invalid command: exit 2 with a JSON error object."""
    if out.returncode != 2:
        raise OpFailed(f"exit {out.returncode} for an invalid command; stdout "
                       f"{out.stdout[:80]!r}, stderr {out.stderr[-120:]!r}")
    rep = _json_line(out)
    if rep.get("status") != "error":
        raise OpFailed(f"exit 2 without a JSON error: {rep}")


def suite_problem(out: Completed) -> str | None:
    """`qwedge suite` exits 0 with a passing aggregate over every id, once each,
    in sorted order."""
    if out.returncode != 0:
        raise OpFailed(f"suite exit {out.returncode}: {out.stderr[-200:]}")
    try:
        entries = json.loads(out.stdout)
    except json.JSONDecodeError as err:
        raise OpFailed(f"suite output is not JSON: {err}") from err
    agg = entries[-1]
    if agg != {"identity": "aggregate", "status": "pass", "total": len(IDS),
               "failed": 0}:
        return f"suite aggregate {agg}"
    if [e["identity"] for e in entries[:-1]] != IDS:
        return "suite does not report every id once, in sorted order"
    return None


def commands(seed: int, checkout: Path, traced: bool) -> Workload:
    rng = random.Random(seed)
    results: dict[str, object] = {}
    # one seeded point of the same cost class as the defaults: two prime ratios
    pts = _prime_ratios(rng, THETA_BANDS[:2])
    seeded = ["verify", "npoint", "--points", ",".join(str(p) for p in pts),
              "--order", "12"]
    p_ref = ref.partition_numbers(SERIES_ORDER)
    g2_ref = ref.eisenstein(2, SERIES_ORDER)

    def cmd(argv, check, kind="verify", key=None):
        def run():
            out = run_command(checkout, argv, traced)
            if key is not None:
                results[key] = out
            return out
        return Op(" ".join(argv), run, check, kind)

    def check_valid(out):
        _valid_pass(out)
        return None

    def check_invalid(out):
        _invalid_rejected(out)
        return None

    def check_v_char(out):
        if out.returncode != 0:
            raise OpFailed(f"exit {out.returncode}: {out.stderr[-200:]}")
        data = _json_line(out)
        got = {F(t["exps"][1]): int(F(t["coeff"])) for t in data["terms"]}
        want = {n - F(1, 24): p for n, p in enumerate(p_ref)}
        if got != want:
            return "V_series at K=1 differs from the pentagonal-recurrence p(n)"
        return None

    def check_eisenstein(out):
        if out.returncode != 0:
            raise OpFailed(f"exit {out.returncode}: {out.stderr[-200:]}")
        data = _json_line(out)
        if F(data["offset"]) != 0 or [F(c) for c in data["coeffs"]] != g2_ref:
            return "G2 differs from its divisor sums"
        return None

    ops = [cmd(["verify", i], check_valid, key=i) for i in IDS]
    ops += [cmd(argv, check_valid) for argv in LARGER + [seeded]]
    ops += [cmd(argv, check_invalid) for argv in FAULTY[1:]]
    ops += [cmd(FAULTY[0], check_valid)]
    ops.append(cmd(["verify", "t-vanish", "--points", "2,3"], check_invalid))
    ops.append(cmd(["series", "v-char", "--K", "1", "--order", str(SERIES_ORDER)],
                   check_v_char, kind="series"))
    ops.append(cmd(["series", "eisenstein", "--k", "2", "--order", str(SERIES_ORDER)],
                   check_eisenstein, kind="series"))
    ops += [cmd(["suite"], suite_problem, kind="suite", key=f"suite{i}") for i in (1, 2)]
    rng.shuffle(ops)

    def pass_check(failed_names) -> str | None:
        """The two suite runs are byte-identical, and each suite entry is the
        report of the single verify command at the same defaults."""
        s1, s2 = results.get("suite1"), results.get("suite2")
        if s1 is None or s2 is None or "suite" in failed_names:
            return None
        if s1.stdout != s2.stdout:
            return "the two suite outputs differ"
        for entry in json.loads(s1.stdout)[:-1]:
            single = results.get(entry["identity"])
            if single is None or f"verify {entry['identity']}" in failed_names:
                continue
            rep = json.loads(single.stdout)
            rep.pop("elapsed_ms", None)
            if rep != entry:
                return f"suite entry for {entry['identity']} differs from verify output"
        return None

    return Workload(ops, control_coeffs=g2_ref, pass_check=pass_check)


WORKLOADS = {"brackets": brackets, "theta": theta, "numeric": numeric,
             "commands": commands}


def build(name: str, seed: int, checkout: Path, traced: bool) -> Workload:
    if name == "commands":
        return commands(seed, checkout, traced)
    return WORKLOADS[name](seed)
