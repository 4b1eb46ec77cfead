"""Command-line front end: run identity checks, print series, emit JSON reports.

Verbs:
  verify <id>    one identity check; report object on stdout, exit 0/1
  series <name>  a truncated series as JSON (eta, theta, eisenstein, xi,
                 omega, v-char, psi, bracket)
  skew-npoint    the closed or brute odd-variable n-point polynomial
  suite          every identity once at its default parameters, as a JSON array

`suite` output is deterministic: fixed default points, fixed enumeration
orders, reports sorted by identity id, no timing fields.  `suite` runs the
character half of the table in a forked child and the theta half itself, or
every id itself where `os.fork` is missing or fails.  Each verb imports
only the library module it runs (and what that module imports), when it runs
it.  Exit codes: 0 all pass, 1 verification failure, 2 usage error (including
parameter values a verifier, `series` or `skew-npoint` rejects, reported as a
JSON error object on stdout).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from fractions import Fraction as F
from importlib import import_module

from .series import SeriesError

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
    if n < 1:
        raise ValueError(f"--n {n}: need at least one variable")
    if a.seed is not None:
        from .correlators import EvalPoint
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


# -- the verifier table ---------------------------------------------------------------
# id -> (module, function, keyword arguments from the parsed flags).  Defaults are
# light enough that `suite` (which runs every id once) stays fast; heavier
# configurations are reached through the flags.

def _cutoffs(a) -> tuple[int, int]:
    hi = _or(a.order, 18)
    if hi < 5:
        raise ValueError(f"--order {hi} sets the cutoffs ({hi - 5}, {hi}); "
                         "the order must be at least 5")
    return hi - 5, hi


def _unordered(a, **kwargs) -> dict:
    """`kwargs`, the arguments of a check that has no truncation order to set."""
    if a.order is not None:
        raise ValueError(f"--order {a.order}: this check has no truncation order to set")
    return kwargs


def _phi_vanish_args(a) -> dict:
    if a.order is not None:
        raise ValueError("--order sets the theta kind's term count; the algebraic "
                         "kind checked here has no truncation")
    if a.q is not None:
        raise ValueError("--q sets the theta kind's nome; the algebraic kind checked "
                         "here does not read it")
    return dict(f_kind="algebraic", n=_or(a.n, 3))


_VERIFIERS = {
    "npoint": ("correlators", "verify_npoint", lambda a: dict(
        s_values=_resolve_points(a, 2), order=_or(a.order, 12))),
    "diffeq-f": ("qdiff", "verify_diffeq_f", lambda a: dict(
        s_values=_or(a.points, (F(2), F(5, 4))), q0=_or(a.q, F(1, 9)),
        cutoffs=_cutoffs(a))),
    "diffeq-h": ("qdiff", "verify_diffeq_h", lambda a: dict(
        s_values=_or(a.points, (F(2), F(5, 4))), q0=_or(a.q, F(1, 9)),
        k=_or(a.k, 1), cutoffs=_cutoffs(a))),
    "diffeq-t": ("qdiff", "verify_diffeq_t", lambda a: dict(
        s_values=_or(a.points, (F(2), F(3))), order=_or(a.order, 8))),
    "r-diffeq": ("qdiff", "verify_r_diffeq", lambda a: dict(
        s_values=_or(a.points, (F(2), F(3))), s0=F(7, 5), j0=_or(a.m, 0),
        order=_or(a.order, 8))),
    "qgauss": ("correlators", "verify_qgauss", lambda a: dict(
        a=(F(1, 2), 1), b=(F(1, 3), 1), c=(F(1, 6), 3), order=_or(a.order, 12))),
    "poch-telescope": ("correlators", "verify_poch_telescope", lambda a: dict(
        u=(F(1, 2), 0), v_root=F(1, 3), v_exp=1, a=0, b=_or(a.n, 4),
        order=_or(a.order, 12))),
    "cyclic-identity": ("qdiff", "verify_cyclic_identity", lambda a: _unordered(
        a, m=_or(a.m, 2), k=_or(a.k, 2), q0=_or(a.q, F(1, 4)))),
    "residue": ("qdiff", "verify_residue", lambda a: _unordered(
        a, n=_or(a.n, 1), k=_or(a.k, 1), m=_or(a.m, 1), q0=_or(a.q, F(1, 16)))),
    "t-vanish": ("qdiff", "verify_t_vanish", lambda a: dict(
        s_values=_or(a.points, (F(2), F(1, 2))), order=_or(a.order, 10))),
    "phi-vanish": ("qdiff", "verify_phi_vanish", _phi_vanish_args),
    "elliptic-transform": ("characters", "verify_elliptic_transform", lambda a: dict(
        K=_or(a.K, 2), N=_or(a.order, 3))),
    "theta-expansion": ("characters", "verify_theta_expansion", lambda a: dict(
        K=_or(a.K, 2), N=_or(a.order, 3))),
    "triple-product": ("characters", "verify_triple_product", lambda a: dict(
        N=_or(a.order, 12))),
    "theta-diffeq": ("special", "verify_theta_diffeq", lambda a: dict(
        m=_or(a.m, 2), s=a.points[0] if a.points else F(3, 2), shift=0,
        order=_or(a.order, 24))),
    "theta-derivs": ("special", "verify_theta_derivs", lambda a: dict(
        order=_or(a.order, 30))),
    "xi-binomial": ("special", "verify_xi_binomial", lambda a: _unordered(
        a, n_max=_or(a.n, 12))),
    "xi-generating": ("special", "verify_xi_generating", lambda a: dict(
        order=_or(a.order, 20))),
    "counts": ("setparts", "verify_counts", lambda a: _unordered(
        a, n_max=_or(a.n, 8))),
    "bracket-qm": ("quasimodular", "verify_bracket_qm", lambda a: dict(
        ks=(a.k,) if a.k is not None else (1, 1), order=_or(a.order, 24))),
    "derivation-closure": ("quasimodular", "verify_derivation_closure", lambda a: dict(
        order=_or(a.order, 24))),
    "skew-npoint": ("skewchar", "verify_skew_npoint", lambda a: dict(
        n=_or(a.n, 2), N_z=_or(a.k, 3), N_q=_or(a.order, 12))),
    "h-equals-g": ("skewchar", "verify_h_equals_g", lambda a: dict(
        order=_or(a.order, 24))),
    "v-consistency": ("characters", "verify_v_consistency", lambda a: dict(
        K=_or(a.K, 2), N=_or(a.order, 3))),
}


def _lazy(module: str, function: str, args):
    """A verifier of the table as a callable of the parsed flags; its module is
    imported on the first call, so a process pays only for what it runs."""
    def run(a):
        return getattr(import_module(f".{module}", __package__), function)(**args(a))
    return run


REGISTRY = {name: _lazy(*row) for name, row in _VERIFIERS.items()}

# the library's own exceptions (DivisorHit, FitError, FormalDivergence, ...) are
# ValueErrors, so catching them needs no import of their modules
_PARAM_ERRORS = (SeriesError, ValueError, ZeroDivisionError)


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


# `suite` runs the ids of these modules in a forked child: the character and
# quasi-modularity half of the paper.  It shares no state with the theta
# correlation functions (correlators, qdiff) that the parent runs meanwhile, so
# each process imports and parses only its own half of the library.
_FORKED_MODULES = frozenset({"characters", "skewchar", "quasimodular", "special",
                             "setparts"})


def _suite_lines(ids, blank) -> tuple[dict, int]:
    """id -> report line without timing, for each of `ids`; and how many failed."""
    lines, failed = {}, 0
    for i in ids:
        rep = REGISTRY[i](blank)
        failed += not rep.ok
        lines[i] = _dumps(rep.to_jsonable(with_timing=False))
    return lines, failed


def _fork_suite(ids, blank) -> tuple[int, int] | None:
    """Run `ids` in a forked child, which writes to a pipe its failure count and
    report lines, one a line, or else the traceback of what it raised.  Returns
    the child's pid and the pipe's read end, or None where `os.fork` is missing
    or fails.  The child leaves through `os._exit` whatever happens, so it never
    returns into the caller of `main`."""
    fork = getattr(os, "fork", None)
    if fork is None:
        return None
    r, w = os.pipe()
    try:
        pid = fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid:
        os.close(w)
        return pid, r
    status = 1
    try:
        os.close(r)
        try:
            lines, failed = _suite_lines(ids, blank)
            text, ok = "\n".join([str(failed), *lines.values()]), True
        except Exception:  # noqa: BLE001 - reported by the parent, on stderr
            import traceback
            text, ok = traceback.format_exc(), False
        with open(w, "w", encoding="utf-8") as pipe:
            pipe.write(text)
        status = 0 if ok else 1
    finally:
        os._exit(status)


def _reap(pid: int, r: int) -> tuple[int, str]:
    """The forked child's exit code and all it wrote to the pipe."""
    with open(r, encoding="utf-8") as pipe:
        text = pipe.read()
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), text


def _cmd_suite(a) -> int:
    ids = sorted(REGISTRY)
    blank = _blank_args()
    forked = [i for i in ids if _VERIFIERS[i][0] in _FORKED_MODULES]
    child = _fork_suite(forked, blank)
    if child is None:
        forked = []
    try:
        lines, failed = _suite_lines([i for i in ids if i not in forked], blank)
    finally:
        code, text = _reap(*child) if child else (0, "0")
    if code:
        sys.stderr.write(text or f"qwedge suite: the forked half exited with {code}\n")
        return 1
    count, *forked_lines = text.split("\n")
    lines.update(zip(forked, forked_lines))
    failed += int(count)
    agg = {"identity": "aggregate",
           "status": "pass" if failed == 0 else "fail",
           "total": len(ids), "failed": failed}
    sys.stdout.write("[\n" + "".join(lines[i] + ",\n" for i in ids)
                     + _dumps(agg) + "\n]\n")
    return 0 if failed == 0 else 1


def _cmd_series(a) -> int:
    name, order = a.name, a.order
    try:
        if order is not None and order < 0:
            raise ValueError(f"--order {order} is negative; a series needs order >= 0")
        if name == "eta":
            from .special import eta
            obj = eta(_or(order, 12)).to_jsonable()
        elif name == "theta":
            from .special import theta00
            obj = theta00(_or(order, 12)).to_jsonable()
        elif name == "eisenstein":
            from .special import eisenstein_g
            obj = eisenstein_g(_or(a.k, 2), _or(order, 12)).to_jsonable()
        elif name == "xi":
            from .special import xi_generating_series
            obj = xi_generating_series(_or(order, 20)).to_jsonable()
        elif name == "bracket":
            from .partitions import q_bracket
            from .quasimodular import shifted_hook_moment
            ks = (_or(a.k, 1),)
            obj = q_bracket(shifted_hook_moment(ks), _or(order, 12)).to_jsonable()
        elif name == "omega":
            from .characters import omega_series
            obj = omega_series(_or(a.K, 2), _or(order, 4)).to_json()
        elif name == "v-char":
            from .characters import V_series
            obj = V_series(_or(a.K, 2), _or(order, 4)).to_json()
        else:  # psi; argparse rejects anything not in choices
            from .skewchar import psi_series
            obj = psi_series(_or(a.K, 2), _or(order, 6)).to_json()
    except _PARAM_ERRORS as err:
        return _rejected("series", name, err)
    print(_dumps(obj))
    return 0


def _cmd_skew(a) -> int:
    from .skewchar import npoint_skew_brute, npoint_skew_closed
    n, nz, nq = _or(a.n, 1), _or(a.k, 3), _or(a.order, 10)
    try:
        if a.brute:
            poly = npoint_skew_brute(n, nz, nq, (nz + 1) // 2)
        else:
            poly = npoint_skew_closed(n, nz, nq)
    except _PARAM_ERRORS as err:
        return _rejected("skew-npoint", "brute" if a.brute else "closed", err)
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
