"""Command-line front end: run identity checks, print series, emit JSON reports.

Verbs:
  verify <id>    one identity check; report object on stdout, exit 0/1
  series <name>  a truncated series as JSON (eta, theta, eisenstein, xi,
                 omega, v-char, psi, bracket); theta is Jacobi's theta_3 in
                 the nome, sum_n q^{n^2}
  skew-npoint    the closed or brute odd-variable n-point polynomial
  suite          every identity once at its default parameters, as a JSON array

`suite` output is deterministic: fixed default points, fixed enumeration
orders, reports sorted by identity id, no timing fields.  `suite` runs the
character half of the table in a forked child and the theta half itself, or
every id itself where `os.fork` is missing or fails.  Each verb imports
only the library module it runs (and what that module imports), when it runs
it.  `verify`, `series` and `skew-npoint` each read the flags that their
table row names, and reject any other flag given.  Exit codes: 0 all pass, 1
verification failure, 2 usage error (including a flag the command does not
read, a value that does not parse as the flag's type, and parameter values a
verifier, `series` or `skew-npoint` rejects, each reported as a JSON error
object on stdout).
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


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None


def _fraction(text: str) -> F:
    try:
        return F(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational: {text!r}") from None


def _points(text: str) -> tuple[F, ...]:
    return tuple(_fraction(p) for p in text.split(","))


# the flags of verify, series and skew-npoint: name -> (parser, help).  Each
# command reads those its builder names, parses their values itself, and
# rejects the rest.
_FLAGS = {
    "order": (_integer, "truncation or grade bound"),
    "points": (_points, "comma-separated rational square roots s1,s2,..."),
    "q": (_fraction, "base rational q value"),
    "n": (_integer, "variable count or top index"),
    "m": (_integer, "shift or multiplicity parameter"),
    "k": (_integer, "derivative order, weight, or position"),
    "K": (_integer, "number of higher variables"),
    "seed": (_integer, "sample random evaluation points instead of defaults"),
}


def _resolve_points(points, n, seed) -> tuple[F, ...]:
    """Evaluation points as square roots s (the verifiers square them)."""
    if points is not None:
        if seed is not None:
            raise ValueError("--seed and --points both choose the points; pass one")
        if n is not None and n != len(points):
            raise ValueError("--n disagrees with the number of --points entries")
        return points
    n = 2 if n is None else n
    if n < 1:
        raise ValueError(f"--n {n}: need at least one variable")
    if seed is not None:
        from .correlators import EvalPoint
        rng = random.Random(seed)
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


def _cutoffs(order: int) -> tuple[int, int]:
    if order < 5:
        raise ValueError(f"--order {order} sets the cutoffs ({order - 5}, {order}); "
                         "the order must be at least 5")
    return order - 5, order


def _one_point(points) -> F:
    if len(points) != 1:
        raise ValueError(f"--points gives {len(points)} values of s; the check takes one")
    return points[0]


# -- the verifier table ---------------------------------------------------------------
# id -> (module, function, builder).  The builder's keyword parameters are the
# flags the id reads, with their defaults; it returns the verifier's keyword
# arguments.  A default of None marks a flag that changes the check's shape
# rather than a value of it.  Defaults are light enough that `suite` (which
# runs every id once) stays fast; heavier configurations are reached through
# the flags.

_VERIFIERS = {
    "npoint": ("correlators", "verify_npoint", lambda points=None, n=None, seed=None,
               order=12: dict(s_values=_resolve_points(points, n, seed), order=order)),
    "diffeq-f": ("qdiff", "verify_diffeq_f", lambda points=(F(2), F(5, 4)), q=F(1, 9),
                 order=18: dict(s_values=points, q0=q, cutoffs=_cutoffs(order))),
    "diffeq-h": ("qdiff", "verify_diffeq_h", lambda points=(F(2), F(5, 4)), q=F(1, 9),
                 k=1, order=18: dict(s_values=points, q0=q, k=k,
                                     cutoffs=_cutoffs(order))),
    "diffeq-t": ("qdiff", "verify_diffeq_t", lambda points=(F(2), F(3)), order=8: dict(
        s_values=points, order=order)),
    "r-diffeq": ("qdiff", "verify_r_diffeq", lambda points=(F(2), F(3)), m=0,
                 order=8: dict(s_values=points, s0=F(7, 5), j0=m, order=order)),
    "qgauss": ("correlators", "verify_qgauss", lambda order=12: dict(
        a=(F(1, 2), 1), b=(F(1, 3), 1), c=(F(1, 6), 3), order=order)),
    "poch-telescope": ("correlators", "verify_poch_telescope", lambda n=4, order=12:
                       dict(u=(F(1, 2), 0), v_root=F(1, 3), v_exp=1, a=0, b=n,
                            order=order)),
    "cyclic-identity": ("qdiff", "verify_cyclic_identity", lambda m=2, k=2, q=F(1, 4):
                        dict(m=m, k=k, q0=q)),
    "residue": ("qdiff", "verify_residue", lambda n=1, k=1, m=1, q=F(1, 16): dict(
        n=n, k=k, m=m, q0=q)),
    "t-vanish": ("qdiff", "verify_t_vanish", lambda points=(F(2), F(1, 2)), order=10:
                 dict(s_values=points, order=order)),
    # the algebraic kind: no truncation order and no nome
    "phi-vanish": ("qdiff", "verify_phi_vanish",
                   lambda n=3: dict(f_kind="algebraic", n=n)),
    "elliptic-transform": ("characters", "verify_elliptic_transform",
                           lambda K=2, order=3: dict(K=K, N=order)),
    "theta-expansion": ("characters", "verify_theta_expansion",
                        lambda K=2, order=3: dict(K=K, N=order)),
    "triple-product": ("characters", "verify_triple_product",
                       lambda order=12: dict(N=order)),
    "theta-diffeq": ("special", "verify_theta_diffeq", lambda m=2, points=(F(3, 2),),
                     order=24: dict(m=m, s=_one_point(points), shift=0, order=order)),
    "theta-derivs": ("special", "verify_theta_derivs",
                     lambda order=30: dict(order=order)),
    "xi-binomial": ("special", "verify_xi_binomial", lambda n=12: dict(n_max=n)),
    "xi-generating": ("special", "verify_xi_generating",
                      lambda order=20: dict(order=order)),
    "counts": ("setparts", "verify_counts", lambda n=8: dict(n_max=n)),
    # without --k, the product <(p1 - xi(-1))^2>
    "bracket-qm": ("quasimodular", "verify_bracket_qm", lambda k=None, order=24: dict(
        ks=(1, 1) if k is None else (k,), order=order)),
    "derivation-closure": ("quasimodular", "verify_derivation_closure", lambda order=24:
                           dict(order=order)),
    "skew-npoint": ("skewchar", "verify_skew_npoint", lambda n=2, k=3, order=12: dict(
        n=n, N_z=k, N_q=order)),
    "h-equals-g": ("skewchar", "verify_h_equals_g", lambda order=24: dict(order=order)),
    "v-consistency": ("characters", "verify_v_consistency", lambda K=2, order=3: dict(
        K=K, N=order)),
}


def _lazy(module: str, function: str, build):
    """A verifier of the table as a callable of the flags given, a dict; its
    module is imported on the first call, so a process pays only for what it
    runs."""
    def run(flags):
        verifier = getattr(import_module(f".{module}", __package__), function)
        return verifier(**build(**flags))
    return run


REGISTRY = {name: _lazy(*row) for name, row in _VERIFIERS.items()}

# the library's own exceptions (DivisorHit, FitError, FormalDivergence, ...) are
# ValueErrors, so catching them needs no import of their modules
_PARAM_ERRORS = (SeriesError, ValueError, ZeroDivisionError)


def _given(a, build, name: str) -> dict:
    """The flags given on the command line (argparse keeps each as text, or
    None), parsed, as keyword arguments of `build`; a ValueError names any of
    them that `build` does not read or whose value does not parse."""
    code = build.__code__
    reads = code.co_varnames[:code.co_argcount]
    given = {}
    for flag, (parse, _) in _FLAGS.items():
        text = getattr(a, flag)
        if text is None:
            continue
        if flag not in reads:
            raise ValueError(f"--{flag}: {name} reads only "
                             + ", ".join(f"--{r}" for r in reads))
        try:
            given[flag] = parse(text)
        except ValueError as err:
            raise ValueError(f"--{flag}: {err}") from None
    return given


def _rejected(key: str, name: str, err: Exception) -> int:
    print(_dumps({key: name, "status": "error", "detail": str(err)}))
    return 2


def _cmd_verify(a) -> int:
    t0 = time.perf_counter()
    try:
        rep = REGISTRY[a.id](_given(a, _VERIFIERS[a.id][2], a.id))
    except _PARAM_ERRORS as err:
        return _rejected("identity", a.id, err)
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    print(_dumps({**rep.to_jsonable(), "elapsed_ms": elapsed_ms}))
    return 0 if rep.ok else 1


# `suite` runs the ids of these modules in a forked child: the character and
# quasi-modularity half of the paper.  It shares no state with the theta
# correlation functions (correlators, qdiff) that the parent runs meanwhile, so
# each process imports and parses only its own half of the library.
_FORKED_MODULES = frozenset({"characters", "skewchar", "quasimodular", "special",
                             "setparts"})


def _suite_lines(ids) -> tuple[dict, int]:
    """id -> report line, for each of `ids`; and how many failed."""
    lines, failed = {}, 0
    for i in ids:
        rep = REGISTRY[i]({})
        failed += not rep.ok
        lines[i] = _dumps(rep.to_jsonable())
    return lines, failed


def _fork_suite(ids) -> tuple[int, int] | None:
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
            lines, failed = _suite_lines(ids)
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
    forked = [i for i in ids if _VERIFIERS[i][0] in _FORKED_MODULES]
    child = _fork_suite(forked)
    if child is None:
        forked = []
    try:
        lines, failed = _suite_lines([i for i in ids if i not in forked])
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


# name -> (module, builder).  The builder's keyword parameters are the flags the
# series reads, with their defaults; it returns the series as a function of the
# module.
_SERIES = {
    "eta": ("special", lambda order=12: lambda m: m.eta(order)),
    "theta": ("special", lambda order=12: lambda m: m.theta00(order)),
    "eisenstein": ("special", lambda k=2, order=12: lambda m: m.eisenstein_g(k, order)),
    "xi": ("special", lambda order=20: lambda m: m.xi_generating_series(order)),
    "omega": ("characters", lambda K=2, order=4: lambda m: m.omega_series(K, order)),
    "v-char": ("characters", lambda K=2, order=4: lambda m: m.V_series(K, order)),
    "psi": ("skewchar", lambda K=2, order=6: lambda m: m.psi_series(K, order)),
    "bracket": ("quasimodular", lambda k=1, order=12: lambda m: m.q_bracket(
        m.shifted_hook_moment((k,)), order)),
}


def _cmd_series(a) -> int:
    module, build = _SERIES[a.name]
    try:
        given = _given(a, build, a.name)
        make = build(**given)
        if given.get("order", 0) < 0:
            raise ValueError(f"--order {given['order']} is negative; a series needs order >= 0")
        obj = make(import_module(f".{module}", __package__))
    except _PARAM_ERRORS as err:
        return _rejected("series", a.name, err)
    print(_dumps(obj.to_jsonable()))
    return 0


def _skew_args(n=1, k=3, order=10) -> tuple[int, int, int]:
    """The flags `skew-npoint` reads: variables, z-degree and q-order."""
    return n, k, order


def _cmd_skew(a) -> int:
    try:
        n, nz, nq = _skew_args(**_given(a, _skew_args, "skew-npoint"))
        from .skewchar import npoint_jsonable, npoint_skew_brute, npoint_skew_closed
        slots = (npoint_skew_brute if a.brute else npoint_skew_closed)(n, nz, nq)
    except _PARAM_ERRORS as err:
        return _rejected("skew-npoint", "brute" if a.brute else "closed", err)
    print(_dumps(npoint_jsonable(slots, n, nz)))
    return 0


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    for flag, (_, text) in _FLAGS.items():
        p.add_argument(f"--{flag}", help=text)


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
    ps.add_argument("name", choices=list(_SERIES))
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


def _joined(argv: list[str]) -> list[str]:
    """argv with `--flag value` written `--flag=value` for the flags of `_FLAGS`
    whose value starts with a single `-`: argparse takes `-1` for a value but
    `-2,3` or `-1/4` for an option, and would stop with a usage error before
    the command can reject the value with a JSON error."""
    flags = {f"--{f}" for f in _FLAGS}
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in flags and tok.startswith("-") and not tok.startswith("--"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    args = _build_parser().parse_args(_joined(sys.argv[1:] if argv is None else argv))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
