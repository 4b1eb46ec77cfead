"""End-to-end checks of the command-line surface: verbs, flags, exit codes,
JSON shapes, and suite determinism."""

import json
import os
import signal
import subprocess
import sys
from contextlib import contextmanager
from importlib import import_module

import pytest

from qwedge import cli
from qwedge.reports import Report


def run_main(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_series_eisenstein_matches_documented_output(capsys):
    code, out = run_main(capsys, "series", "eisenstein", "--k", "2", "--order", "4")
    assert code == 0
    assert out == '{"offset":"0","coeffs":["-1/24","1","3","4","7"]}\n'


def test_series_theta_is_theta3_in_the_nome(capsys):
    code, out = run_main(capsys, "series", "theta", "--order", "4")
    assert code == 0
    assert out == '{"offset":"0","coeffs":["1","2","0","0","2"]}\n'


def test_series_psi_shape(capsys):
    code, out = run_main(capsys, "series", "psi", "--K", "2", "--order", "3")
    d = json.loads(out)
    assert code == 0
    assert d["K"] == 2
    assert d["terms"][0] == {"exps": ["0", "-1/24", "1/240"], "coeff": "1"}


@pytest.mark.parametrize("name", ["omega", "v-char", "psi"])
def test_series_k_zero_names_the_flag(capsys, name):
    code, out = run_main(capsys, "series", name, "--K", "0")
    assert code == 2
    assert json.loads(out)["detail"] == "need K >= 1"


def test_series_bracket_weight_two_is_eisenstein(capsys):
    _, b = run_main(capsys, "series", "bracket", "--k", "1", "--order", "8")
    _, g = run_main(capsys, "series", "eisenstein", "--k", "2", "--order", "8")
    assert b == g


def test_verify_counts_reports_final_sums(capsys):
    code, out = run_main(capsys, "verify", "counts", "--n", "3")
    rep = json.loads(out)
    assert code == 0
    assert rep["status"] == "pass"
    assert rep["details"] == {"sum1": 1, "sum2": 1, "sum3": 0}
    assert isinstance(rep["elapsed_ms"], int)
    assert list(rep)[-1] == "elapsed_ms"


def test_verify_npoint_at_fixed_points(capsys):
    code, out = run_main(capsys, "verify", "npoint", "--n", "2",
                         "--points", "2,3", "--order", "14")
    rep = json.loads(out)
    assert code == 0
    assert rep["params"]["s"] == ["2", "3"]
    assert rep["order_checked"] == 14


def test_verify_seeded_points_are_reproducible(capsys):
    _, out1 = run_main(capsys, "verify", "npoint", "--seed", "7")
    _, out2 = run_main(capsys, "verify", "npoint", "--seed", "7")
    assert json.loads(out1)["params"] == json.loads(out2)["params"]


def test_seeded_point_on_a_divisor_is_resampled(capsys):
    # seed 1 first draws s = (4/5, 1), which lies on the theta divisor
    code, out = run_main(capsys, "verify", "npoint", "--seed", "1")
    rep = json.loads(out)
    assert code == 0
    assert rep["status"] == "pass"
    assert rep["order_checked"] == 12


@pytest.mark.parametrize("argv", [["counts", "--n", "0"],
                                  ["triple-product", "--order", "-1"],
                                  # numeric cutoffs (order - 5, order) below 0
                                  ["diffeq-f", "--order", "3"],
                                  ["diffeq-h", "--order", "2"],
                                  ["xi-binomial", "--n", "-3"],
                                  ["h-equals-g", "--order", "-1"],
                                  # --order has no meaning for the algebraic kind
                                  ["phi-vanish", "--order", "0"]])
def test_empty_parameter_range_exits_2(capsys, argv):
    code, out = run_main(capsys, "verify", *argv)
    assert code == 2
    assert json.loads(out)["status"] == "error"


@pytest.mark.parametrize("argv", [["--order", "-1"], ["--k", "0"], ["--n", "0"],
                                  ["--brute", "--order", "-1"],
                                  ["--brute", "--k", "0"]])
def test_skew_npoint_below_floor_exits_2(capsys, argv):
    code, out = run_main(capsys, "skew-npoint", *argv)
    assert code == 2
    rep = json.loads(out)
    assert rep["skew-npoint"] == ("brute" if "--brute" in argv else "closed")
    assert rep["status"] == "error"


def test_verify_skew_npoint_below_floor_exits_2(capsys):
    code, out = run_main(capsys, "verify", "skew-npoint", "--k", "0")
    assert code == 2
    assert json.loads(out)["status"] == "error"


def test_psi_past_the_exponent_ceiling_exits_2(capsys):
    code, out = run_main(capsys, "series", "psi", "--K", "7", "--order", "9")
    assert code == 2
    assert json.loads(out) == {"series": "psi", "status": "error",
                               "detail": "exponent 9^13 exceeds the ceiling 1000000000000"}


@pytest.mark.parametrize("name", ["eta", "bracket", "psi"])
def test_negative_series_order_exits_2(capsys, name):
    code, out = run_main(capsys, "series", name, "--order", "-1")
    assert code == 2
    assert json.loads(out) == {"series": name, "status": "error",
                               "detail": "--order -1 is negative; a series needs order >= 0"}


def test_bracket_qm_negative_order_names_the_order(capsys):
    code, out = run_main(capsys, "verify", "bracket-qm", "--order", "-1")
    assert code == 2
    assert json.loads(out) == {"identity": "bracket-qm", "status": "error",
                               "detail": "order -1 is negative; a q-bracket needs order >= 0"}


def test_series_bracket_k_zero_exits_2(capsys):
    code, out = run_main(capsys, "series", "bracket", "--k", "0")
    assert code == 2
    assert json.loads(out)["status"] == "error"


# id -> degenerate values of the flags that id reads; each must be rejected with
# exit 2 and a JSON error, never passed or failed
DEGENERATE_FLAGS = {
    "bracket-qm": [["--k", "0"], ["--k", "-1"], ["--order", "0"], ["--order", "-1"]],
    # counts, cyclic-identity, residue and xi-binomial have no order to set
    "counts": [["--n", "0"], ["--n", "-1"], ["--order", "-1"]],
    "cyclic-identity": [["--q", "0"], ["--q", "1"], ["--q", "1/9"], ["--m", "0"],
                        ["--m", "-1"], ["--k", "0"], ["--order", "-1"]],
    "derivation-closure": [["--order", "0"], ["--order", "-1"]],
    "diffeq-f": [["--order", "0"], ["--order", "-1"], ["--q", "0"], ["--q", "1"]],
    "diffeq-h": [["--order", "0"], ["--order", "-1"], ["--k", "0"], ["--q", "0"],
                 ["--q", "1"]],
    "diffeq-t": [["--order", "-1"]],
    "elliptic-transform": [["--order", "0"], ["--order", "-1"], ["--K", "0"]],
    "h-equals-g": [["--order", "-1"]],
    "npoint": [["--order", "-1"], ["--n", "0"], ["--n", "-1"],
               ["--n", "0", "--seed", "3"], ["--seed", "3", "--points", "2,3"],
               ["--points", "-2,3"]],
    # the algebraic kind reads neither --order nor --q; at n = 2 its sum is 0
    "phi-vanish": [["--order", "0"], ["--q", "1/16"], ["--n", "0"], ["--n", "6"],
                   ["--n", "2"]],
    "poch-telescope": [["--order", "-1"], ["--n", "0"], ["--n", "-1"]],
    "qgauss": [["--order", "-1"]],
    "r-diffeq": [["--order", "-1"]],
    "residue": [["--n", "0"], ["--k", "0"], ["--q", "0"], ["--q", "1"],
                ["--order", "-1"], ["--q", "4"], ["--q", "9/4"], ["--q", "-1/4"],
                ["--n", "2", "--k", "2", "--m", "0"],
                ["--n", "2", "--k", "2", "--m", "0", "--q", "1/4"],
                # the spectator s = 3 puts t = 9 on a zero of Theta: q0^-1, q0^-2
                ["--n", "2", "--q", "1/9"], ["--n", "2", "--k", "2", "--q", "1/9"],
                ["--n", "2", "--q", "1/3"]],
    "skew-npoint": [["--order", "-1"], ["--n", "0"], ["--k", "0"]],
    "t-vanish": [["--order", "-1"], ["--points", "2"]],
    "theta-derivs": [["--order", "-1"]],
    # s = 1 puts both sides on zeros of Theta
    "theta-diffeq": [["--order", "-1"], ["--m", "0"], ["--points", "3/2,5"],
                     ["--points", "1"], ["--points", "1", "--m", "3"]],
    "theta-expansion": [["--order", "-1"], ["--K", "0"], ["--K", "-1"]],
    "triple-product": [["--order", "-1"]],
    "v-consistency": [["--order", "-1"], ["--K", "0"], ["--K", "-1"]],
    "xi-binomial": [["--n", "1"], ["--n", "0"], ["--n", "-3"], ["--order", "-1"]],
    "xi-generating": [["--order", "-1"]],
}


def test_degenerate_flags_table_covers_every_id():
    assert set(DEGENERATE_FLAGS) == set(cli.REGISTRY)


@pytest.mark.parametrize("identity", sorted(DEGENERATE_FLAGS))
def test_degenerate_flags_exit_2(capsys, identity):
    for argv in DEGENERATE_FLAGS[identity]:
        code, out = run_main(capsys, "verify", identity, *argv)
        rep = json.loads(out)
        assert (code, rep["identity"], rep["status"]) == (2, identity, "error"), argv
        assert set(rep) == {"identity", "status", "detail"}, argv
        if argv == ["--order", "-1"]:  # the detail names what was wrong
            assert "order" in rep["detail"], (argv, rep["detail"])


def _reads_order(identity: str) -> bool:
    code = cli._VERIFIERS[identity][2].__code__
    return "order" in code.co_varnames[:code.co_argcount]


@pytest.mark.parametrize("identity", sorted(i for i in cli.REGISTRY if _reads_order(i)))
def test_a_small_order_is_rejected_or_checked(capsys, identity):
    """At --order 0 and 1 an id either exits 2 naming the order or passes
    having checked some coefficient, never with a negative order_checked."""
    for order in ("0", "1"):
        code, out = run_main(capsys, "verify", identity, "--order", order)
        rep = json.loads(out)
        if code == 2:
            assert "order" in rep["detail"] or f"q^{order}" in rep["detail"], rep
        else:
            assert (code, rep["status"]) == (0, "pass"), (order, rep)
            assert rep["order_checked"] >= 0, (order, rep)


def _block_counts_plus_one_at_row_3(block_counts):
    def patched(n_max):
        rows = [list(row) for row in block_counts(n_max)]
        rows[3][1] += 1
        return rows
    return patched


def _numeric_plus_one(numeric):
    def patched(*args):
        value, drift = numeric(*args)
        return value + 1, drift
    return patched


# the ids whose check compares no two series, so the planted error below
# cannot reach them: tolerances, constants and counts.  Each has a planted
# error of its own: the function its check reads, how to break it, and the
# first_mismatch fields the failing report must carry.
UNCOMPARED_PLANTS = {
    "counts": ("setparts.block_counts", _block_counts_plus_one_at_row_3, {"n": 3}),
    "xi-binomial": ("special.xi_value", lambda f: lambda s: f(s) + (s == -1), {"n": 2}),
    "cyclic-identity": ("qdiff.stabilizer_multiplicity", lambda f: lambda v: 2 * f(v),
                        {}),
    "diffeq-f": ("qdiff.f_numeric", _numeric_plus_one, {}),
    "diffeq-h": ("qdiff.h_numeric", _numeric_plus_one, {}),
    "phi-vanish": ("qdiff.phi_sum", lambda f: lambda *args: f(*args) + 1, {}),
    "residue": ("qdiff.close_u", lambda f: lambda *args: 2 * f(*args), {}),
}
UNCOMPARED = set(UNCOMPARED_PLANTS)


@pytest.fixture
def planted(monkeypatch):
    """Every module that imports `pairs_report` gets one that first adds one
    unit to each right side at the top of the compared range: the common
    order of a QSeries pair, a q1-grade monomial for a MultiSeries pair."""
    from qwedge import reports
    from qwedge.characters import MultiSeries
    from qwedge.series import QSeries

    def unit(lhs, rhs):
        if isinstance(rhs, MultiSeries):
            top = min(lhs.grade, rhs.grade)
            return MultiSeries.monomial(rhs.K, top, (0, top) + (0,) * (rhs.K - 1))
        return QSeries.monomial(1, min(lhs.upper, rhs.upper), 0)

    original = reports.pairs_report

    def pairs_report(identity, statement, params, pairs, *args, **kwargs):
        pairs = [(label, lhs, rhs + unit(lhs, rhs)) for label, lhs, rhs in pairs]
        return original(identity, statement, params, pairs, *args, **kwargs)

    for module in {row[0] for row in cli._VERIFIERS.values()}:
        import_module(f"qwedge.{module}")
    for name, module in list(sys.modules.items()):
        if name.startswith("qwedge") and getattr(module, "pairs_report", None) is original:
            monkeypatch.setattr(module, "pairs_report", pairs_report)


@pytest.mark.parametrize("identity", sorted(set(cli.REGISTRY) - UNCOMPARED))
def test_a_planted_error_fails_every_comparing_id(capsys, planted, identity):
    """At its defaults and at each --order 0..3 it reads, an id fails on the
    planted unit or rejects the order: none passes vacuously."""
    runs = [[]] + [["--order", str(k)] for k in range(4) if _reads_order(identity)]
    for argv in runs:
        code, out = run_main(capsys, "verify", identity, *argv)
        rep = json.loads(out)
        if code == 2 and argv:
            assert "order" in rep["detail"] or "N = " in rep["detail"], (argv, rep)
        else:
            assert (code, rep["status"]) == (1, "fail"), (argv, rep)


@pytest.mark.parametrize("identity", sorted(UNCOMPARED))
def test_a_planted_error_leaves_the_uncompared_ids_passing(capsys, planted, identity):
    code, out = run_main(capsys, "verify", identity)
    assert (code, json.loads(out)["status"]) == (0, "pass")


@pytest.mark.parametrize("identity", sorted(UNCOMPARED))
def test_a_planted_error_fails_each_uncompared_id(capsys, monkeypatch, identity):
    """At its defaults an uncompared id fails once the function it reads is
    broken, and a failing report names where."""
    target, wrap, where = UNCOMPARED_PLANTS[identity]
    module, name = target.split(".")
    module = import_module(f"qwedge.{module}")
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    code, out = run_main(capsys, "verify", identity)
    rep = json.loads(out)
    assert (code, rep["status"]) == (1, "fail"), rep
    assert where.items() <= rep.get("first_mismatch", {}).items(), rep


@pytest.mark.parametrize("argv", [["--order", "0"], ["--order", "1"],
                                  ["--m", "5", "--order", "6"],
                                  ["--m", "-3", "--order", "2"],
                                  ["--points", "2", "--order", "0"]])
def test_theta_diffeq_checks_through_the_order_it_is_given(capsys, argv):
    code, out = run_main(capsys, "verify", "theta-diffeq", *argv)
    rep = json.loads(out)
    assert (code, rep["status"]) == (0, "pass")
    assert rep["order_checked"] == rep["params"]["order"] == int(argv[-1])


@pytest.mark.parametrize("argv, named", [
    (["--q", "0"], "q0 = 0 "), (["--q", "1"], "q0 = 1 "), (["--q", "4"], "q0 = 4 "),
    (["--q", "9/4"], "q0 = 9/4 "), (["--n", "2", "--k", "2", "--m", "0"], "m = 0 "),
    (["--n", "2", "--q", "1/9"], "s = 3 puts Theta on a zero: s^2 = q0^-1 "),
    (["--n", "2", "--q", "1/3"], "q0 = 1/3 ")])
def test_residue_rejections_name_the_parameter(capsys, argv, named):
    code, out = run_main(capsys, "verify", "residue", *argv)
    assert code == 2 and named in json.loads(out)["detail"]


# the flags each command reads, each with the value that reproduces the bare
# command (None where no value does: without the flag the check takes another
# shape).  Written out here rather than read from cli, so that a slip in one of
# its rows shows up.
VERIFY_READS = {
    "bracket-qm": {"k": None, "order": "24"},
    "counts": {"n": "8"},
    "cyclic-identity": {"m": "2", "k": "2", "q": "1/4"},
    "derivation-closure": {"order": "24"},
    "diffeq-f": {"points": "2,5/4", "q": "1/9", "order": "18"},
    "diffeq-h": {"points": "2,5/4", "q": "1/9", "k": "1", "order": "18"},
    "diffeq-t": {"points": "2,3", "order": "8"},
    "elliptic-transform": {"K": "2", "order": "3"},
    "h-equals-g": {"order": "24"},
    "npoint": {"points": "2,3", "n": "2", "seed": None, "order": "12"},
    "phi-vanish": {"n": "3"},
    "poch-telescope": {"n": "4", "order": "12"},
    "qgauss": {"order": "12"},
    "r-diffeq": {"points": "2,3", "m": "0", "order": "8"},
    "residue": {"n": "1", "k": "1", "m": "1", "q": "1/16"},
    "skew-npoint": {"n": "2", "k": "3", "order": "12"},
    "t-vanish": {"points": "2,1/2", "order": "10"},
    "theta-derivs": {"order": "30"},
    "theta-diffeq": {"m": "2", "points": "3/2", "order": "24"},
    "theta-expansion": {"K": "2", "order": "3"},
    "triple-product": {"order": "12"},
    "v-consistency": {"K": "2", "order": "3"},
    "xi-binomial": {"n": "12"},
    "xi-generating": {"order": "20"},
}
SERIES_READS = {
    "eta": {"order": "12"},
    "theta": {"order": "12"},
    "eisenstein": {"k": "2", "order": "12"},
    "xi": {"order": "20"},
    "omega": {"K": "2", "order": "4"},
    "v-char": {"K": "2", "order": "4"},
    "psi": {"K": "2", "order": "6"},
    "bracket": {"k": "1", "order": "12"},
}
SKEW_READS = {"n": "1", "k": "3", "order": "10"}

# a valid value of each flag, given where the command does not read it
FLAG_VALUES = {"order": "4", "points": "2", "q": "1/2", "n": "2", "m": "1",
               "k": "1", "K": "1", "seed": "1"}

# (argv before the flags, JSON key of an error, its value, flags read)
COMMANDS = [(["verify", i], "identity", i, reads) for i, reads in VERIFY_READS.items()]
COMMANDS += [(["series", s], "series", s, reads) for s, reads in SERIES_READS.items()]
COMMANDS += [(["skew-npoint"], "skew-npoint", "closed", SKEW_READS)]
COMMAND_IDS = [" ".join(c[0]) for c in COMMANDS]


def test_flag_tables_cover_every_command():
    assert set(VERIFY_READS) == set(cli.REGISTRY)
    assert set(SERIES_READS) == set(cli._SERIES)
    assert set(FLAG_VALUES) == set(DASH_VALUES) == set(BAD_VALUES) == set(cli._FLAGS)
    assert [sum(map(len, t.values())) for t in (VERIFY_READS, SERIES_READS)] == [50, 13]
    assert len(SKEW_READS) == 3


@pytest.mark.parametrize("head,key,value,reads", COMMANDS, ids=COMMAND_IDS)
def test_every_unread_flag_exits_2(capsys, head, key, value, reads):
    for flag in sorted(set(FLAG_VALUES) - set(reads)):
        code, out = run_main(capsys, *head, f"--{flag}", FLAG_VALUES[flag])
        rep = json.loads(out)
        assert (code, set(rep), rep[key], rep["status"]) == (
            2, {key, "status", "detail"}, value, "error"), flag
        assert rep["detail"].startswith(f"--{flag}:"), (flag, rep["detail"])


# a value of each flag that starts with `-` and that argparse, given it as an
# argument of its own, reads as an option: int() reads -1_0 as -10
DASH_VALUES = {"order": "-1_0", "points": "-2,3", "q": "-1/4", "n": "-1_0",
               "m": "-1_0", "k": "-1_0", "K": "-1_0", "seed": "-1_0"}

# a value of each flag that does not parse as its type
BAD_VALUES = {"order": "x", "points": "1/0,2", "q": "abc", "n": "1.5", "m": "2/1",
              "k": "one", "K": "", "seed": "1e3"}


@pytest.mark.parametrize("head,key,value,reads", COMMANDS, ids=COMMAND_IDS)
def test_every_read_flag_rejects_a_value_that_does_not_parse(capsys, head, key, value,
                                                             reads):
    """Exit 2 with a JSON error object naming the flag, as for any rejected
    value; never argparse's usage error."""
    for flag in reads:
        code, out = run_main(capsys, *head, f"--{flag}", BAD_VALUES[flag])
        rep = json.loads(out)
        assert (code, set(rep), rep[key], rep["status"]) == (
            2, {key, "status", "detail"}, value, "error"), flag
        assert rep["detail"].startswith(f"--{flag}: not a"), (flag, rep["detail"])


@pytest.mark.parametrize("head,key,value,reads", COMMANDS, ids=COMMAND_IDS)
def test_every_read_flag_takes_a_value_that_starts_with_a_dash(capsys, head, key,
                                                               value, reads):
    """`--flag -1/4` runs as `--flag=-1/4` does: the command itself reads the
    value, and prints a report or a JSON error object."""
    for flag in reads:
        code, out = run_main(capsys, *head, f"--{flag}", DASH_VALUES[flag])
        code_eq, out_eq = run_main(capsys, *head, f"--{flag}={DASH_VALUES[flag]}")
        assert (code, _without_timing(out)) == (code_eq, _without_timing(out_eq)), flag


def _without_timing(out: str) -> dict:
    rep = json.loads(out)
    rep.pop("elapsed_ms", None)
    return rep


@pytest.mark.parametrize("head,reads", [(c[0], c[3]) for c in COMMANDS],
                         ids=COMMAND_IDS)
def test_every_read_flag_at_its_default_is_the_bare_command(capsys, head, reads):
    code, out = run_main(capsys, *head)
    bare = _without_timing(out)
    assert code == 0
    for flag, default in reads.items():
        if default is None:
            continue
        code, out = run_main(capsys, *head, f"--{flag}", default)
        assert (code, _without_timing(out)) == (0, bare), flag


def test_unknown_id_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "definitely-not-an-id"])
    assert exc.value.code == 2


def test_bad_point_values_exit_2(capsys):
    code, out = run_main(capsys, "verify", "npoint", "--points", "2,1")
    assert code == 2
    assert json.loads(out)["status"] == "error"

    code, out = run_main(capsys, "verify", "t-vanish", "--points", "2,3")
    assert code == 2
    assert json.loads(out)["status"] == "error"


@pytest.mark.parametrize("argv, named", [
    (["diffeq-f", "--points", "2,1"], "positions (2,) equals 1"),
    # q0^(1/2) s_1 = 1/2 * 2 = 1
    (["diffeq-f", "--q", "1/4"], "positions (1,) equals 1"),
    (["r-diffeq", "--points", "5/7,2"], "s0 = 7/5 times s over positions (1,) is 1")])
def test_a_point_on_a_divisor_exits_2_naming_it(capsys, argv, named):
    code, out = run_main(capsys, "verify", *argv)
    rep = json.loads(out)
    assert (code, rep["status"]) == (2, "error") and named in rep["detail"]


def test_point_count_mismatch_exits_2(capsys):
    code, out = run_main(capsys, "verify", "npoint", "--n", "3",
                         "--points", "2,3")
    assert code == 2


def test_forced_failure_exits_1(monkeypatch, capsys):
    monkeypatch.setitem(
        cli.REGISTRY, "counts",
        lambda a: Report("counts", "forced", {}, "fail"))
    code, out = run_main(capsys, "verify", "counts")
    assert code == 1
    assert json.loads(out)["status"] == "fail"


def test_failed_expansion_check_is_a_fail_not_an_error(monkeypatch, capsys):
    # the brute route's cross-check against the log-derivative expansion
    from qwedge import skewchar
    h = skewchar.h_series
    monkeypatch.setattr(skewchar, "h_series", lambda r, s, order: h(r, s, order) * (
        2 if (r, s) == (1, 4) else 1))
    code, out = run_main(capsys, "verify", "skew-npoint")
    rep = json.loads(out)
    assert (code, rep["status"]) == (1, "fail")
    assert rep["first_mismatch"] == {"z": [1, 3], "against": "log-derivative expansion"}
    code, out = run_main(capsys, "suite")
    assert code == 1  # h-equals-g compares the same bent block with G_4
    assert [r["identity"] for r in json.loads(out) if r["status"] == "fail"] == [
        "h-equals-g", "skew-npoint", "aggregate"]
    # the brute verb prints no n-point function past a failed check
    code, out = run_main(capsys, "skew-npoint", "--brute")
    assert code == 2
    assert json.loads(out)["detail"] == (
        "log-derivative expansion disagrees at indices (2,)")


def test_skew_npoint_routes_agree(capsys):
    code1, closed = run_main(capsys, "skew-npoint", "--closed", "--n", "1",
                             "--k", "3", "--order", "6")
    code2, brute = run_main(capsys, "skew-npoint", "--brute", "--n", "1",
                            "--k", "3", "--order", "6")
    assert code1 == code2 == 0
    assert closed == brute
    d = json.loads(closed)
    assert d["nvars"] == 1 and d["zdeg"] == 3


# `skew-npoint --n 2 --k 3 --order 2`, byte for byte: both routes print it
SKEW_2_3_2 = (
    '{"nvars":2,"zdeg":3,"terms":['
    '{"z":[1,1],"coeff":{"offset":"-1/24","coeffs":["1/576","529/576","2209/288"]}},'
    '{"z":[1,3],"coeff":{"offset":"-1/24","coeffs":["-1/34560","5543/34560","56447/17280"]}},'
    '{"z":[3,1],"coeff":{"offset":"-1/24","coeffs":["-1/34560","5543/34560","56447/17280"]}},'
    '{"z":[3,3],"coeff":{"offset":"-1/24",'
    '"coeffs":["1/2073600","58081/2073600","1960801/1036800"]}}]}'
    "\n")


@pytest.mark.parametrize("route", ["--closed", "--brute"])
def test_skew_npoint_prints_the_golden_json(capsys, route):
    code, out = run_main(capsys, "skew-npoint", route, "--n", "2", "--k", "3",
                         "--order", "2")
    assert code == 0
    assert out == SKEW_2_3_2


def _run_suite() -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "qwedge", "suite"],
                          capture_output=True, timeout=120)


def test_suite_is_deterministic_across_runs():
    first = _run_suite()
    second = _run_suite()
    assert first.returncode == 0
    assert first.stdout == second.stdout
    reports = json.loads(first.stdout)
    ids = [r["identity"] for r in reports[:-1]]
    assert ids == sorted(cli.REGISTRY)
    assert all(r["status"] == "pass" for r in reports[:-1])
    assert "elapsed_ms" not in reports[0]
    assert reports[-1] == {"identity": "aggregate", "status": "pass",
                           "total": len(cli.REGISTRY), "failed": 0}


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork here")


@contextmanager
def _deadline(seconds: int):
    """Raise TimeoutError in this process if the block outlasts `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_suite_counts_failures_from_both_halves(monkeypatch, capsys):
    # triple-product runs in the forked child, qgauss in the parent
    assert cli._VERIFIERS["triple-product"][0] in cli._FORKED_MODULES
    assert cli._VERIFIERS["qgauss"][0] not in cli._FORKED_MODULES
    for name in ("triple-product", "qgauss"):
        monkeypatch.setitem(cli.REGISTRY, name,
                            lambda a, name=name: Report(name, "forced", {}, "fail"))
    code, out = run_main(capsys, "suite")
    reports = json.loads(out)
    assert code == 1
    assert [r["identity"] for r in reports[:-1]] == sorted(cli.REGISTRY)
    assert [r["identity"] for r in reports if r["status"] == "fail"] == [
        "qgauss", "triple-product", "aggregate"]
    assert reports[-1] == {"identity": "aggregate", "status": "fail",
                           "total": len(cli.REGISTRY), "failed": 2}


@needs_fork
def test_suite_reports_an_error_in_the_forked_half(monkeypatch, capsys):
    def boom(a):
        raise RuntimeError("boom in the forked half")
    monkeypatch.setitem(cli.REGISTRY, "triple-product", boom)
    with _deadline(60):
        code = cli.main(["suite"])
    captured = capsys.readouterr()
    assert code != 0
    assert "RuntimeError: boom in the forked half" in captured.err
    assert captured.out == ""


def _refuse_fork():
    raise OSError("fork refused")


@pytest.mark.parametrize("fork", ["missing", "raises"])
def test_suite_without_fork_is_byte_identical(monkeypatch, capsys, fork):
    code, forked = run_main(capsys, "suite")
    if fork == "missing":
        monkeypatch.delattr(os, "fork", raising=False)
    else:
        monkeypatch.setattr(os, "fork", _refuse_fork)
    code_alone, alone = run_main(capsys, "suite")
    assert code == code_alone == 0
    assert alone == forked


def _modules_after(code: str) -> set[str]:
    probe = code + "\nimport sys\nprint(' '.join(sys.modules), file=sys.stderr)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


def _qwedge_modules_after(code: str) -> set[str]:
    return {m for m in _modules_after(code) if m.split(".")[0] in ("qwedge", "concurrent")}


BASE_MODULES = {"qwedge", "qwedge.cli", "qwedge.reports", "qwedge.series"}


def test_cli_import_loads_no_verifier_module():
    assert _qwedge_modules_after("import qwedge.cli") == BASE_MODULES


def test_verify_imports_only_its_own_module():
    loaded = _qwedge_modules_after(
        "from qwedge import cli\ncli.main(['verify', 'counts', '--n', '3'])")
    assert loaded == BASE_MODULES | {"qwedge.setparts"}


# `import qwedge.cli`, `verify` of one id per library module at its defaults, and
# the parent's side of `suite`
_IMPORT_PATHS = {"cli": "import qwedge.cli",
                 "suite": "from qwedge import cli\ncli.main(['suite'])"} | {
    module: f"from qwedge import cli\ncli.main(['verify', '{name}'])"
    for name, (module, _, _) in reversed(cli._VERIFIERS.items())}


@pytest.mark.parametrize("path", sorted(_IMPORT_PATHS))
def test_no_dataclasses_or_inspect_on_any_import_path(path):
    # `import dataclasses` pulls in `inspect`: most of what the package cost to import
    added = _modules_after(_IMPORT_PATHS[path]) - _modules_after("pass")
    assert not {"dataclasses", "inspect"} & added


def test_suite_loads_no_pool_module():
    added = _modules_after(_IMPORT_PATHS["suite"]) - _modules_after("pass")
    assert not {m for m in added if m.split(".")[0] in ("multiprocessing", "concurrent")}


@needs_fork
def test_suite_parent_imports_only_the_theta_half():
    loaded = _qwedge_modules_after(_IMPORT_PATHS["suite"])
    assert loaded == BASE_MODULES | {f"qwedge.{m}" for m in (
        "correlators", "qdiff", "partitions", "setparts", "special")}


def test_forked_half_imports_no_theta_correlation_module():
    loaded = _qwedge_modules_after(
        "\n".join(f"import qwedge.{m}" for m in sorted(cli._FORKED_MODULES)))
    assert loaded >= {f"qwedge.{m}" for m in cli._FORKED_MODULES}
    assert not {"qwedge.correlators", "qwedge.qdiff"} & loaded


def test_a_report_names_its_params_and_status():
    """No report passes by default."""
    with pytest.raises(TypeError):
        Report("x", "y")


def test_verifier_errors_are_value_errors():
    # the CLI maps every ValueError to exit 2 without importing these classes
    from qwedge.correlators import FormalDivergence
    from qwedge.qdiff import SimpleZeroViolated
    from qwedge.quasimodular import FitError
    for cls in (FormalDivergence, SimpleZeroViolated, FitError):
        assert issubclass(cls, ValueError)


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "qwedge", "series", "eta",
                           "--order", "4"], capture_output=True, timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["offset"] == "1/24"
