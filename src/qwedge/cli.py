"""Command-line front end: run identity checks, print series, emit JSON reports.

Verbs:
  verify <id>    one identity check; report object on stdout, exit 0/1
  series <name>  a truncated series as JSON (eta, theta, eisenstein, xi,
                 omega, v-char, psi, bracket)
  skew-npoint    the closed or brute odd-variable n-point polynomial
  suite          every identity once at its default parameters, as a JSON array

`suite` output is deterministic: fixed default points, fixed enumeration
orders, reports sorted by identity id, no timing fields.  The QWEDGE_THREADS
environment variable sets the worker count; any positive value produces
byte-identical content.  Exit codes: 0 all pass, 1 verification failure,
2 usage error (including parameter values a verifier rejects).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F

from .characters import (V_series, omega_series, verify_elliptic_transform,
                         verify_theta_expansion, verify_triple_product,
                         verify_v_consistency)
from .correlators import (EvalPoint, FormalDivergence, verify_npoint,
                          verify_poch_telescope, verify_qgauss)
from .partitions import q_bracket
from .qdiff import (SimpleZeroViolated, verify_cyclic_identity,
                    verify_diffeq_f, verify_diffeq_h, verify_diffeq_t,
                    verify_phi_vanish, verify_r_diffeq, verify_residue,
                    verify_t_vanish)
from .quasimodular import (FitError, shifted_hook_moment, verify_bracket_qm,
                           verify_derivation_closure)
from .series import QSeries, SeriesError
from .setparts import verify_counts
from .skewchar import (npoint_skew_brute, npoint_skew_closed, psi_series,
                       verify_h_equals_g, verify_skew_npoint)
from .special import (eisenstein_g, eta, theta00, verify_theta_derivs,
                      verify_theta_diffeq, verify_xi_binomial,
                      verify_xi_generating, xi_value)

DEFAULT_S = (2, 3, 5, 7, 11, 13)


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _fraction(text: str) -> F:
    try:
        return F(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def _points(text: str) -> tuple[F, ...]:
    return tuple(_fraction(p) for p in text.split(","))


def _or(value, default):
    return default if value is None else value


def _resolve_points(a: argparse.Namespace, n_default: int) -> tuple[F, ...]:
    """Evaluation points as square roots s (the verifiers square them)."""
    if a.points is not None:
        if a.n is not None and a.n != len(a.points):
            raise ValueError("--n disagrees with the number of --points entries")
        return a.points
    n = _or(a.n, n_default)
    if a.seed is not None:
        rng = random.Random(a.seed)
        while True:
            s = tuple(F(rng.randint(2, 12), rng.randint(1, 6)) for _ in range(n))
            try:
                EvalPoint(s)
            except ValueError:
                continue  # landed on a divisor; resample
            return s
    if n > len(DEFAULT_S):
        raise ValueError(f"no default points for n > {len(DEFAULT_S)}; pass --points")
    return tuple(F(p) for p in DEFAULT_S[:n])


# -- verify handlers ----------------------------------------------------------------
# Defaults are light enough that `suite` (which runs every id once) stays fast;
# heavier configurations are reached through the flags.

def _run_npoint(a):
    return verify_npoint(_resolve_points(a, 2), _or(a.order, 12))


def _run_diffeq_f(a):
    hi = _or(a.order, 18)
    return verify_diffeq_f(_or(a.points, (F(2), F(5, 4))), _or(a.q, F(1, 9)),
                           (hi - 5, hi))


def _run_diffeq_h(a):
    hi = _or(a.order, 18)
    return verify_diffeq_h(_or(a.points, (F(2), F(5, 4))), _or(a.q, F(1, 9)),
                           _or(a.k, 1), (hi - 5, hi))


def _run_diffeq_t(a):
    return verify_diffeq_t(_or(a.points, (F(2), F(3))), _or(a.order, 8))


def _run_r_diffeq(a):
    return verify_r_diffeq(_or(a.points, (F(2), F(3))), F(7, 5), _or(a.m, 0),
                           _or(a.order, 8))


def _run_qgauss(a):
    return verify_qgauss((F(1, 2), 1), (F(1, 3), 1), (F(1, 6), 3),
                         _or(a.order, 12))


def _run_poch_telescope(a):
    return verify_poch_telescope((F(1, 2), 0), F(1, 3), 1, 0, _or(a.n, 4),
                                 _or(a.order, 12))


def _run_cyclic(a):
    return verify_cyclic_identity(_or(a.m, 2), _or(a.k, 2), _or(a.q, F(1, 4)))


def _run_residue(a):
    return verify_residue(_or(a.n, 1), _or(a.k, 1), _or(a.m, 1),
                          _or(a.q, F(1, 16)))


def _run_t_vanish(a):
    return verify_t_vanish(_or(a.points, (F(2), F(1, 2))), _or(a.order, 10))


def _run_phi_vanish(a):
    if a.order is not None:
        raise ValueError("--order sets the theta kind's term count; the algebraic "
                         "kind checked here has no truncation")
    return verify_phi_vanish("algebraic", _or(a.n, 3), _or(a.q, F(1, 16)))


def _run_elliptic_transform(a):
    return verify_elliptic_transform(_or(a.K, 2), _or(a.order, 3))


def _run_theta_expansion(a):
    return verify_theta_expansion(_or(a.K, 2), _or(a.order, 3))


def _run_triple_product(a):
    return verify_triple_product(_or(a.order, 12))


def _run_theta_diffeq(a):
    s = a.points[0] if a.points else F(3, 2)
    return verify_theta_diffeq(_or(a.m, 2), s, 0, _or(a.order, 24))


def _run_theta_derivs(a):
    return verify_theta_derivs(order=_or(a.order, 30))


def _run_xi_binomial(a):
    return verify_xi_binomial(_or(a.n, 12))


def _run_xi_generating(a):
    return verify_xi_generating(_or(a.order, 20))


def _run_counts(a):
    return verify_counts(_or(a.n, 8))


def _run_bracket_qm(a):
    ks = (a.k,) if a.k is not None else (1, 1)
    return verify_bracket_qm(ks, _or(a.order, 24))


def _run_derivation_closure(a):
    return verify_derivation_closure(order=_or(a.order, 24))


def _run_skew_npoint(a):
    return verify_skew_npoint(_or(a.n, 2), _or(a.k, 3), _or(a.order, 12))


def _run_h_equals_g(a):
    return verify_h_equals_g(order=_or(a.order, 24))


def _run_v_consistency(a):
    return verify_v_consistency(_or(a.K, 2), _or(a.order, 3))


REGISTRY = {
    "npoint": _run_npoint,
    "diffeq-f": _run_diffeq_f,
    "diffeq-h": _run_diffeq_h,
    "diffeq-t": _run_diffeq_t,
    "r-diffeq": _run_r_diffeq,
    "qgauss": _run_qgauss,
    "poch-telescope": _run_poch_telescope,
    "cyclic-identity": _run_cyclic,
    "residue": _run_residue,
    "t-vanish": _run_t_vanish,
    "phi-vanish": _run_phi_vanish,
    "elliptic-transform": _run_elliptic_transform,
    "theta-expansion": _run_theta_expansion,
    "triple-product": _run_triple_product,
    "theta-diffeq": _run_theta_diffeq,
    "theta-derivs": _run_theta_derivs,
    "xi-binomial": _run_xi_binomial,
    "xi-generating": _run_xi_generating,
    "counts": _run_counts,
    "bracket-qm": _run_bracket_qm,
    "derivation-closure": _run_derivation_closure,
    "skew-npoint": _run_skew_npoint,
    "h-equals-g": _run_h_equals_g,
    "v-consistency": _run_v_consistency,
}

# DivisorHit and DivergentPoint are ValueErrors
_PARAM_ERRORS = (SeriesError, FormalDivergence, SimpleZeroViolated, FitError,
                 ValueError, ZeroDivisionError)


def _rejected(key: str, name: str, err: Exception) -> int:
    print(_dumps({key: name, "status": "error", "detail": str(err)}))
    return 2


def _cmd_verify(a) -> int:
    t0 = time.perf_counter()
    try:
        rep = REGISTRY[a.id](a)
    except _PARAM_ERRORS as err:
        return _rejected("identity", a.id, err)
    rep.elapsed_ms = (time.perf_counter() - t0) * 1000
    print(_dumps(rep.to_jsonable()))
    return 0 if rep.ok else 1


def _blank_args() -> argparse.Namespace:
    return argparse.Namespace(order=None, points=None, q=None, n=None, m=None,
                              k=None, K=None, seed=None)


def _thread_count() -> int:
    try:
        return max(1, int(os.environ.get("QWEDGE_THREADS", "1")))
    except ValueError:
        return 1


def _cmd_suite(a) -> int:
    ids = sorted(REGISTRY)
    blank = _blank_args()

    def run(i: str):
        return REGISTRY[i](blank)

    threads = _thread_count()
    if threads == 1:
        reports = map(run, ids)
    else:
        # content is identical at any worker count: futures are consumed in
        # submission order, and each handler is a pure function of its defaults
        pool = ThreadPoolExecutor(max_workers=threads)
        reports = (f.result() for f in [pool.submit(run, i) for i in ids])
    out = sys.stdout
    out.write("[\n")
    failed = 0
    for rep in reports:
        if not rep.ok:
            failed += 1
        out.write(_dumps(rep.to_jsonable(with_timing=False)) + ",\n")
        out.flush()
    agg = {"identity": "aggregate",
           "status": "pass" if failed == 0 else "fail",
           "total": len(ids), "failed": failed}
    out.write(_dumps(agg) + "\n]\n")
    return 0 if failed == 0 else 1


def _xi_generating_series(order: int) -> QSeries:
    return QSeries.from_coeffs(
        [-xi_value(-n) / math.factorial(n) for n in range(order + 1)])


def _cmd_series(a) -> int:
    name, order = a.name, a.order
    try:
        if order is not None and order < 0:
            raise ValueError(f"--order {order} is negative; a series needs order >= 0")
        if name == "eta":
            obj = eta(_or(order, 12)).to_jsonable()
        elif name == "theta":
            obj = theta00(_or(order, 12)).to_jsonable()
        elif name == "eisenstein":
            obj = eisenstein_g(_or(a.k, 2), _or(order, 12)).to_jsonable()
        elif name == "xi":
            obj = _xi_generating_series(_or(order, 20)).to_jsonable()
        elif name == "bracket":
            ks = (_or(a.k, 1),)
            obj = q_bracket(shifted_hook_moment(ks), _or(order, 12)).to_jsonable()
        elif name == "omega":
            obj = omega_series(_or(a.K, 2), _or(order, 4)).to_json()
        elif name == "v-char":
            obj = V_series(_or(a.K, 2), _or(order, 4)).to_json()
        else:  # psi; argparse rejects anything not in choices
            obj = psi_series(_or(a.K, 2), _or(order, 6)).to_json()
    except _PARAM_ERRORS as err:
        return _rejected("series", name, err)
    print(_dumps(obj))
    return 0


def _cmd_skew(a) -> int:
    n, nz, nq = _or(a.n, 1), _or(a.k, 3), _or(a.order, 10)
    try:
        if a.brute:
            poly = npoint_skew_brute(n, nz, nq, (nz + 1) // 2)
        else:
            poly = npoint_skew_closed(n, nz, nq)
    except _PARAM_ERRORS as err:
        print(str(err), file=sys.stderr)
        return 2
    print(_dumps(poly.to_json()))
    return 0


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--order", type=int, help="truncation or grade bound")
    p.add_argument("--points", type=_points,
                   help="comma-separated rational square roots s1,s2,...")
    p.add_argument("--q", type=_fraction, help="base rational q value")
    p.add_argument("--n", type=int, help="variable count or top index")
    p.add_argument("--m", type=int, help="shift or multiplicity parameter")
    p.add_argument("--k", type=int, help="derivative order, weight, or position")
    p.add_argument("--K", type=int, help="number of higher variables")
    p.add_argument("--seed", type=int,
                   help="sample random evaluation points instead of defaults")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwedge", description="exact q-series identity checks")
    sub = parser.add_subparsers(dest="verb", required=True)

    pv = sub.add_parser("verify", help="run one identity check")
    pv.add_argument("id", choices=sorted(REGISTRY), metavar="id",
                    help=", ".join(sorted(REGISTRY)))
    _add_common_flags(pv)
    pv.set_defaults(func=_cmd_verify)

    ps = sub.add_parser("series", help="print a truncated series as JSON")
    ps.add_argument("name", choices=["eta", "theta", "eisenstein", "xi",
                                     "omega", "v-char", "psi", "bracket"])
    _add_common_flags(ps)
    ps.set_defaults(func=_cmd_series)

    pk = sub.add_parser("skew-npoint",
                        help="print the odd-variable n-point polynomial")
    mode = pk.add_mutually_exclusive_group()
    mode.add_argument("--closed", dest="brute", action="store_false",
                      help="partition-sum closed form (default)")
    mode.add_argument("--brute", dest="brute", action="store_true",
                      help="direct derivative route")
    pk.set_defaults(brute=False)
    _add_common_flags(pk)
    pk.set_defaults(func=_cmd_skew)

    pu = sub.add_parser("suite", help="run every identity once")
    pu.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
