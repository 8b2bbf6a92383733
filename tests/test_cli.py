"""Command-line surface: outputs, formats, exit codes."""

import argparse
import hashlib
import json
import os
import re
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import count
from math import comb

import pytest

from secant_trees import cli, distributions
from secant_trees.cli import main, render_matrix_text, run_checks
from secant_trees.distributions import JointMatrix, joint_matrix_bruteforce
from secant_trees.recurrence import assemble, tree_count
from secant_trees.series import TriSeries


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _refuse(name):
    """A stand-in for *name* that fails the test if it is called."""

    def refuse(*args):
        raise AssertionError(f"{name} ran with {args}")

    return refuse


# ---------------------------------------------------------------------- #
# enumerate                                                               #
# ---------------------------------------------------------------------- #


def test_enumerate_count(capsys):
    code, out = run(capsys, "enumerate", "--n", "6", "--emit", "count")
    assert code == 0 and out == "61\n"
    code, out = run(capsys, "enumerate", "--n", "4", "--emit", "count")
    assert code == 0 and out == "5\n"


def test_enumerate_perms(capsys):
    code, out = run(capsys, "enumerate", "--n", "2", "--emit", "perms")
    assert code == 0 and out == "2 1\n"


def test_enumerate_trees_json_lines(capsys):
    code, out = run(capsys, "enumerate", "--n", "4", "--emit", "trees")
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 5
    first = json.loads(lines[0])
    assert first["n"] == 4 and len(first["parent"]) == 4


def test_enumerate_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--n", "0"])
    assert exc.value.code == 2


def test_enumerate_far_above_the_cap_counts_nothing(capsys, monkeypatch):
    # The cap message used to name the tree count: at 2000 that took about
    # 1.2 s and then failed on Python's 4,300-digit limit for int to text.
    for name in ("tree_count", "alternating_permutations"):
        monkeypatch.setattr(cli, name, _refuse(name))
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--n", "2000"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: secant-trees enumerate ")


# ---------------------------------------------------------------------- #
# matrix                                                                  #
# ---------------------------------------------------------------------- #


def test_matrix_csv(capsys):
    code, out = run(capsys, "matrix", "--two-n", "4", "--format", "csv")
    assert code == 0
    assert out == "m\\k,1,2,3\n2,0,0,1\n3,1,2,0\n4,0,1,0\n"


def test_matrix_json_round_trips(capsys):
    code, out = run(capsys, "matrix", "--two-n", "6", "--format", "json")
    assert code == 0
    M = JointMatrix.from_json_dict(json.loads(out))
    assert M.total() == 61


def test_matrix_text_recurrence_blanks(capsys):
    code, out = run(capsys, "matrix", "--two-n", "8", "--method", "recurrence")
    assert code == 0
    assert "E=1385" in out
    # interior lower-triangle cells (e.g. f(4,2) = 35) are not printed
    assert "35" not in out and "106" in out


def test_matrix_text_renderer_matches_reference_layout():
    text = render_matrix_text(joint_matrix_bruteforce(4))
    lines = text.splitlines()
    assert lines[0].split() == ["k=", "1", "2", "3", "f(m,.)"]
    assert lines[1].split() == ["m=2", ".", ".", "1", "1"]
    assert lines[-1].split() == ["f(.,k)", "1", "3", "1", "E=5"]


# sha256 of render_matrix_text(M) and of M.to_csv(), computed with the
# earlier renderers, which read every cell through M.cell and ended the text
# by appending "\n" to the joined lines.
TEXT_AND_CSV_DIGESTS = {
    ("recurrence", 4): (
        "11f10f48cf3f8bf5953b24a0717b29373377a8056e835b79ff9676966da12e10",
        "8d1b075c8209da38511ab939e1bfafe5bc6192078aab45c998f91555f5e27d12",
    ),
    ("recurrence", 12): (
        "af85190acbf1dadbac51a82e139c1d65e37467993067b394180a8f10c2e527cd",
        "e88c0b0da08e978329e35eacb4dea91c7e997f8420ccde311b676b499ad8f408",
    ),
    ("recurrence", 40): (
        "e9756a131c7e73af8352c8f0eed6495d22695b427cb3b09dd29ef08591438786",
        "006feec5f11b1427840b58475faa4705af7b3759e6fa2042e3e825471bba39f6",
    ),
    ("recurrence", 120): (
        "cb4d90684e21a595f80c28cfbcc063ef667f662eaba412a4bf7af718e0c5e538",
        "05821015348e27a1d6c97e76eaedb80e88783fe643f6a2d498bdf836bdced7fe",
    ),
    ("brute", 10): (
        "82519a997c8012ad893159b838d3be6817584fad02fd4b21a7088cd1c6b6158c",
        "345d1e43f559dea73c7e5265920fab39a040d237e6112c02cae55cdcc901a0b0",
    ),
}


@pytest.mark.parametrize("method,two_n", sorted(TEXT_AND_CSV_DIGESTS))
def test_text_and_csv_are_pinned(method, two_n):
    M = assemble(two_n) if method == "recurrence" else joint_matrix_bruteforce(two_n)
    text, csv = TEXT_AND_CSV_DIGESTS[(method, two_n)]
    assert hashlib.sha256(render_matrix_text(M).encode()).hexdigest() == text
    assert hashlib.sha256(M.to_csv().encode()).hexdigest() == csv


@pytest.mark.parametrize("render", [render_matrix_text, JointMatrix.to_csv])
def test_text_and_csv_peak_at_about_twice_their_length(render):
    # The library joins the lines of M_120 (2.4 MiB of table, 1.2 MiB of
    # CSV), so it holds them and the text, about 2.0 times the text.
    M = assemble(120)
    tracemalloc.start()
    try:
        out = render(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * len(out), peak / len(out)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_the_matrix_command_holds_about_one_line(fmt, monkeypatch):
    # The command writes each line as it makes it; building the whole output
    # of M_120 first held 2.0-2.5 times its length.
    M = assemble(120)
    monkeypatch.setattr(cli, "assemble", lambda two_n: M)
    if fmt == "json":
        length = len(json.dumps(M.to_json_dict())) + 1
    else:
        length = len(render_matrix_text(M) if fmt == "text" else M.to_csv())
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(["matrix", "--two-n", "120", "--method", "recurrence", "--format", fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0 and peak < 0.25 * length, peak / length


def test_matrix_odd_size_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["matrix", "--two-n", "7"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------- #
# entringer                                                               #
# ---------------------------------------------------------------------- #


def test_entringer_rows(capsys):
    code, out = run(capsys, "entringer", "--n-max", "7")
    assert code == 0
    assert out.splitlines() == [
        "1",
        "1 1",
        "2 2 1",
        "5 5 4 2",
        "16 16 14 10 5",
        "61 61 56 46 32 16",
    ]


def test_entringer_single_row(capsys):
    code, out = run(capsys, "entringer", "--n-max", "2")
    assert code == 0 and out == "1\n"


def test_entringer_row_eight(capsys):
    code, out = run(capsys, "entringer", "--n-max", "8")
    assert out.splitlines()[-1] == "272 272 256 224 178 122 61"


def test_entringer_brute_agrees(capsys):
    _, by_rule = run(capsys, "entringer", "--n-max", "40", "--method", "rule")
    _, by_force = run(capsys, "entringer", "--n-max", "40", "--method", "brute")
    assert by_rule == by_force


def _andre(n_max):
    """E_0 .. E_n_max by André's convolution 2 E_{n+1} = sum_k C(n, k) E_k E_{n-k}
    (n >= 1), a route that shares no code with the Entringer triangle."""
    e = [1, 1]
    for n in range(1, n_max):
        e.append(sum(comb(n, k) * e[k] * e[n - k] for k in range(n + 1)) // 2)
    return e


def test_entringer_rule_runs_above_the_counter_cap(capsys, monkeypatch):
    monkeypatch.setattr(distributions, "_ent_pass", _refuse("the rightmost-label pass"))
    code, out = run(capsys, "entringer", "--n-max", "41", "--method", "rule")
    assert code == 0
    sums = [sum(map(int, line.split())) for line in out.splitlines()]
    assert sums[13] == 1903757312  # row 15: E_15, OEIS A000111
    euler = _andre(41)
    assert euler[15] == 1903757312 and euler[16] == 19391512145
    assert sums == euler[2:]


class _LastLine:
    """A stdout that keeps only its last line, so a test can trace what the
    command itself holds."""

    def __init__(self):
        self.lines, self.last = 0, ""

    def write(self, text):
        self.lines += text.count("\n")
        self.last = text.rstrip("\n") or self.last
        return len(text)

    def flush(self):
        pass


def test_entringer_rule_prints_each_row_as_it_is_made(monkeypatch):
    # Holding the triangle to 300 traced about 8.5 MiB.
    out = _LastLine()
    monkeypatch.setattr(sys, "stdout", out)
    tracemalloc.start()
    try:
        code = main(["entringer", "--n-max", "300"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and out.lines == 299
    assert sum(map(int, out.last.split())) == tree_count(300)
    assert peak < 2 * 2**20, peak


# ---------------------------------------------------------------------- #
# series                                                                  #
# ---------------------------------------------------------------------- #


def test_series_queries(capsys):
    code, out = run(capsys, "series", "--target", "sec", "--order", "10",
                    "--query", "10")
    assert code == 0 and out == "50521\n"
    code, out = run(capsys, "series", "--target", "omega", "--order", "4",
                    "--query", "0,0,0")
    assert code == 0 and out == "1\n"
    code, out = run(capsys, "series", "--target", "omega1", "--order", "2",
                    "--query", "1,1")
    assert code == 0 and out == "3\n"


def test_series_dump_lines(capsys):
    code, out = run(capsys, "series", "--target", "sec", "--order", "4")
    assert code == 0
    assert out.splitlines() == ["0 1/1", "2 1/2", "4 5/24"]


def test_series_query_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["series", "--target", "sec", "--order", "4", "--query", "9"])
    assert exc.value.code == 2
    for target, query, arity in (("sec", "1,2", 1), ("omega1", "1", 2), ("omega", "1,2", 3)):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["series", "--target", target, "--order", "4", "--query", query])
        assert exc.value.code == 2
        got = len(query.split(","))
        assert capsys.readouterr().err.endswith(
            f"error: target {target} takes {arity} exponents, got {got}\n"
        )


def test_series_negative_exponent_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["series", "--target", "sec", "--order", "4", "--query", "-1"])
    assert exc.value.code == 2
    assert "negative exponent" in capsys.readouterr().err


# ---------------------------------------------------------------------- #
# verify                                                                  #
# ---------------------------------------------------------------------- #


def test_verify_default_suite_passes(capsys):
    code, out = run(capsys, "verify", "--two-n-max", "6")
    assert code == 0
    assert "overall: pass" in out


def test_verify_json_output(capsys):
    code, out = run(capsys, "verify", "--two-n-max", "4", "--checks",
                    "tables,marginal", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["overall"] == "pass"
    assert all(row["status"] == "pass" for row in blob["rows"])
    assert all(
        isinstance(row["seconds"], float) and row["seconds"] >= 0 for row in blob["rows"]
    )


def test_verify_rejects_unknown_check():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--two-n-max", "6", "--checks", "nope"])
    assert exc.value.code == 2


def _refuse_brute_force(monkeypatch):
    def refuse(bound):
        pytest.fail(f"a counter pass to 2n = {bound} before the selection was checked")

    monkeypatch.setattr(cli, "joint_matrices", refuse)


@pytest.mark.parametrize(
    "checks, message",
    [(",", "no check selected"), ("tables,bogus", "unknown check 'bogus'")],
)
def test_verify_rejects_empty_or_unknown_selection(capsys, monkeypatch, checks, message):
    _refuse_brute_force(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--two-n-max", "12", "--checks", checks])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "known: tables, r1," in err


@pytest.mark.parametrize(
    "checks, message", [((), "no check selected"), (("tables", "bogus"), "unknown check")]
)
def test_run_checks_rejects_selection_before_running(monkeypatch, checks, message):
    _refuse_brute_force(monkeypatch)
    with pytest.raises(ValueError, match=message) as exc:
        run_checks(12, checks)
    assert "known: tables, r1," in str(exc.value)


def test_verify_rejects_a_repeated_check(capsys, monkeypatch):
    _refuse_brute_force(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--two-n-max", "12", "--checks", "pde,pde"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "check 'pde' is selected more than once" in captured.err
    assert captured.out == ""


def test_run_checks_rejects_a_repeated_check_before_running(monkeypatch):
    _refuse_brute_force(monkeypatch)
    with pytest.raises(ValueError, match="check 'marginal' is selected more than once"):
        run_checks(12, ("marginal", "tables", "marginal"))


@pytest.mark.parametrize(
    "two_n_max, checks, message",
    [
        (3, ("tables",), "two_n_max must be an even int >= 4, got 3"),
        (2, ("gf1",), "two_n_max must be an even int >= 4, got 2"),
        (12.0, ("tables",), "two_n_max must be an even int >= 4, got 12.0"),
        (4, "tables", "not the string 'tables'"),
    ],
    ids=("odd", "two", "float", "string"),
)
def test_run_checks_rejects_a_bad_size_or_a_string_before_running(
    monkeypatch, two_n_max, checks, message
):
    _refuse_brute_force(monkeypatch)
    with pytest.raises(ValueError, match=message):
        run_checks(two_n_max, checks)


def test_verify_rejects_odd_bound():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--two-n-max", "7"])
    assert exc.value.code == 2


def test_verify_above_the_counter_reach_fails_fast(capsys, monkeypatch):
    _refuse_brute_force(monkeypatch)
    monkeypatch.setattr(distributions, "joint_matrices", _refuse("the joint pass"))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--two-n-max", "42"])
    assert exc.value.code == 2
    assert cli.COUNTER_MAX_TWO_N == 40
    err = capsys.readouterr().err
    assert err.startswith("usage: secant-trees verify ")
    assert "two_n_max 42 is above 40, the reach of the selected checks" in err


def test_a_bound_above_the_reach_of_the_selection_fails_before_counting(capsys, monkeypatch):
    _refuse_brute_force(monkeypatch)
    message = "two_n_max 12 is above 10, the reach of the selected checks"
    with pytest.raises(ValueError, match=message):
        run_checks(12, ("bijection",))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--checks", "bijection", "--two-n-max", "12"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: secant-trees verify ") and message in err


def test_every_check_but_bijection_passes_at_20():
    report = run_checks(20, [c for c in cli.ALL_CHECKS if c != "bijection"])
    assert report.overall == "pass"
    assert {r.parameter for r in report.rows if r.check == "tables"} == {
        f"2n={two_n}" for two_n in range(2, 21, 2)
    }


@cache
def _every_check(two_n_max):
    """The report of every check at 14, and of every check but bijection,
    whose reach is 10, at any other bound."""
    return run_checks(two_n_max, [c for c in cli.ALL_CHECKS if two_n_max == 14 or c != "bijection"])


# Row count and sha256 of json.dumps(report.to_json_dict(), sort_keys=True)
# with "seconds" dropped from every row, for every check at 14 and every
# check but bijection, whose reach is 10, at 24 and at 40, the counter cap.
VERIFY_REPORT_DIGESTS = {
    14: (76, "42bf41b9bb2d3c71cb947f7fb352f71e8aa28d5615af8d79c2a8e4b01bbaf899"),
    24: (122, "9648be98a0b285328dc1de60471c2e2122298606decad888a811f9aa32dd55ff"),
    40: (202, "ed32648cd38fa0db9aef2d7266a424c61920194c5a8ac187e23f8cb1df687400"),
}


@pytest.mark.parametrize("two_n_max", sorted(VERIFY_REPORT_DIGESTS))
def test_verify_report_is_pinned(two_n_max):
    blob = _every_check(two_n_max).to_json_dict()
    for row in blob["rows"]:
        del row["seconds"]
    digest = hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()
    assert (len(blob["rows"]), digest) == VERIFY_REPORT_DIGESTS[two_n_max]


# Comparisons per check in the report of every check but bijection at 40.
COMPARED_AT_40 = {
    "tables": 6773, "r1": 4047, "r2": 4047, "r3": 361, "r4": 361, "marginal": 400,
    "symmetry": 5568, "crossing": 342, "borders": 2603, "gf1": 703, "gf3": 4750,
    "poupard": 2314, "pde": 112,
}


def test_each_row_counts_every_comparison_its_check_yields():
    rows = _every_check(40).rows
    totals = Counter()
    for r in rows:
        totals[r.check] += r.compared
    assert totals == COMPARED_AT_40
    # The index ranges of r1, r2 and crossing are empty at 2n = 4; these rows
    # go once those checks start at 2n = 6.
    assert {(r.check, r.parameter) for r in rows if not r.compared} == {
        ("r1", "2n=4"), ("r2", "2n=4"), ("crossing", "2n=4"),
    }


@pytest.mark.parametrize("bound", [4, 6, 8, 40])
def test_symmetry_poupard_and_pde_compare_their_whole_region(bound):
    seen = Counter()
    for r in _every_check(bound).rows:
        seen[r.check] += 1
        if r.check == "symmetry":  # every cell with m - 1 <= k, and two more
            n = int(r.parameter.removeprefix("2n=")) // 2
            assert r.compared == (n * (2 * n - 1) + 2 if n > 1 else 1)
        elif r.check == "poupard":  # every stencil inside i + j <= S
            p, S = map(int, re.fullmatch(r"p=(\d) i\+j<=(\d+)", r.parameter).groups())
            assert S == bound - 3 - p and r.compared == S * (S - 1) // 2
        elif r.check == "pde":  # every residual coefficient of order <= 6
            assert r.compared == 28
    assert (seen["symmetry"], seen["poupard"], seen["pde"]) == (bound // 2, min(bound - 3, 4), 4)


def test_matrix_hybrid_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["matrix", "--two-n", "8", "--method", "hybrid"])
    assert exc.value.code == 2
    assert "invalid choice: 'hybrid'" in capsys.readouterr().err
    assert cli._METHODS == ("brute", "recurrence")


@pytest.mark.parametrize(
    "two_n, cell, location",
    [
        (8, (7, 3), "(7,3)"),  # the golden table sees it first
        (16, (4, 5), "recurrence (4,5)"),  # no golden table; known to the recurrence
        (16, (7, 3), "row sums"),  # interior: only the margins see it
    ],
    ids=("golden", "known", "interior"),
)
def test_tables_rejects_a_count_that_breaks_the_tables_law(two_n, cell, location, monkeypatch, brute):
    monkeypatch.setattr(cli, "joint_matrices", _corrupted(brute, two_n, *cell, 1))
    report = run_checks(two_n, ("tables",))
    failing = [r for r in report.rows if r.failures]
    assert [r.parameter for r in failing] == [f"2n={two_n}"]
    first = failing[0].failures[0]
    value = brute(two_n).get(*cell)
    assert first["location"] == location
    if location.startswith("recurrence"):
        assert (first["expected"], first["actual"]) == (value + 1, value)
    elif location.startswith("row"):
        assert first["expected"] != first["actual"]
    else:
        assert (first["expected"], first["actual"]) == (value, value + 1)


def test_recurrence_matrix_runs_above_the_counter_cap_up_to_its_own(capsys, monkeypatch):
    for two_n in (42, 120):
        code, out = run(capsys, "matrix", "--method", "recurrence", "--two-n", str(two_n),
                        "--format", "json")
        blob = json.loads(out)
        assert code == 0 and blob["total"] == tree_count(two_n)
        M = JointMatrix.from_json_dict(blob)
        assert M.to_json_dict() == blob == assemble(two_n).to_json_dict()
    assert tree_count(16) == 19391512145
    cap = cli.RECURRENCE_MAX_TWO_N
    monkeypatch.setattr(cli, "assemble", _refuse("assemble"))
    with pytest.raises(SystemExit) as exc:
        main(["matrix", "--method", "recurrence", "--two-n", str(cap + 2)])
    assert exc.value.code == 2
    assert f"--two-n {cap + 2} is above the cap of the recurrence, {cap}" in capsys.readouterr().err


def test_run_checks_rows_have_parameters():
    report = run_checks(6, ("pde",))
    assert report.overall == "pass"
    assert [r.parameter for r in report.rows] == [
        "p=1 order=8", "p=2 order=8", "p=3 order=8", "p=4 order=8",
    ]


def test_verify_counts_each_size_once(monkeypatch, brute):
    passes, sizes = [], Counter()

    def one_pass(bound):
        passes.append(bound)
        for M in map(brute, range(2, bound + 1, 2)):  # the session's matrices
            sizes[M.two_n] += 1
            yield M

    monkeypatch.setattr(cli, "joint_matrices", one_pass)
    report = run_checks(12, ("tables", "bijection"))
    assert report.overall == "pass"
    assert [r.check for r in report.rows].count("bijection") == 4
    assert passes == [12] and sizes == {two_n: 1 for two_n in range(2, 13, 2)}
    # The series checks read no counter, and gf1 and gf3 reach the series caps.
    monkeypatch.setattr(cli, "joint_matrices", _refuse("the joint pass"))
    assert run_checks(12, ("pde", "gf1", "gf3")).overall == "pass"
    assert (cli.CHECKS["gf3"][1], cli.CHECKS["gf1"][1]) == (70, 136)


def _corrupted(brute, size, m, k, delta):
    """A stand-in for the joint pass whose M_size has cell (m, k) moved by
    *delta*; every other size is the session's matrix."""

    def counts(two_n):
        return _moved(brute(two_n), m, k, delta) if two_n == size else brute(two_n)

    return lambda bound: map(counts, range(2, bound + 1, 2))


def _moved(M, m, k, delta):
    """A copy of *M* with cell (m, k) moved by *delta*, keeping the margins
    of a matrix with unknown cells."""
    C = JointMatrix(M.two_n, M.method)
    for mm, kk, v in M.known_cells():
        C.set(mm, kk, v)
    C.set(m, k, M.get(m, k) + delta)
    if not M.is_complete():
        C.attach_margins(M.row_sums(), M.col_sums(), M.total())
    return C


def _first_failures(report):
    """``{"check parameter": (two_n, location, expected, actual)}`` for the
    first counterexample of each failing row."""
    out = {}
    for r in report.rows:
        if r.failures:
            f = r.failures[0]
            where = f"{r.check} {r.parameter}"
            out[where] = (f["two_n"], f["location"], f["expected"], f["actual"])
    return out


# Each corrupted cell of a brute-force matrix, and the first counterexample
# of every check row at --two-n-max 10 that it makes fail.  The bijection
# rows read no counted matrix, so no corrupted count fails them.
CORRUPTED_CELLS = {
    (8, 3, 5, +1): {
        "tables 2n=8": (8, "(3,5)", 63, 64),
        "r1 2n=8": (8, "(2,5)", 0, -2),
        "r1 2n=10": (10, "(3,7)", 0, 4),
        "r2 2n=8": (8, "(3,4)", 0, -2),
        "r2 2n=10": (10, "(3,5)", 0, 4),
        "r3 2n=8": (8, "m=2", 0, -2),
        "r3 2n=10": (10, "m=3", 0, 4),
        "r4 2n=8": (8, "k=3", 0, 1),
        "r4 2n=10": (10, "k=5", 0, 4),
        "marginal 2n=8": (8, "col 2 vs row 3", 183, 184),
        "symmetry 2n=8": (8, "(3, 5) vs (4, 6)", 64, 63),
        "borders 2n=8": (8, "second top row k=5", 63, 64),
        "borders 2n=10": (10, "first top row k=7", 286, 285),
        "poupard p=2 i+j<=5": (8, "(i,j)=(0,1)", 0, 1),
    },
    (8, 5, 3, +1): {
        "tables 2n=8": (8, "(5,3)", 86, 87),
        "r3 2n=8": (8, "m=3", 0, 1),
        "r3 2n=10": (10, "m=5", 0, 4),
        "r4 2n=8": (8, "k=1", 0, 1),
        "r4 2n=10": (10, "k=3", 0, 4),
        "marginal 2n=8": (8, "col 3 vs row 4", 286, 285),
        "borders 2n=10": (10, "first top row k=5", 286, 285),
    },
    (10, 2, 5, +1): {
        "tables 2n=10": (10, "(2,5)", 285, 286),
        "r1 2n=10": (10, "(2,5)", 0, 1),
        "r2 2n=10": (10, "(2,3)", 0, 1),
        "r3 2n=10": (10, "m=2", 0, 1),
        "r4 2n=10": (10, "k=3", 0, 1),
        "marginal 2n=10": (10, "col 1 vs row 2", 1385, 1386),
        "symmetry 2n=10": (10, "(2, 5) vs (6, 9)", 286, 285),
        "borders 2n=10": (10, "first top row k=5", 285, 286),
        "poupard p=1 i+j<=6": (10, "(i,j)=(2,2)", 0, 1),
    },
    (10, 9, 1, -1): {
        "tables 2n=10": (10, "(9,1)", 61, 60),
        "r3 2n=10": (10, "m=7", 0, -1),
        "r4 2n=10": (10, "k=1", 0, -1),
        "marginal 2n=10": (10, "col 1 vs row 2", 1384, 1385),
        "borders 2n=10": (10, "first column mirror k=9", 61, 60),
    },
    (6, 6, 2, +1): {
        "tables 2n=6": (6, "(6,2)", 2, 3),
        "r3 2n=6": (6, "m=4", 0, 1),
        "r3 2n=8": (8, "m=6", 0, 4),
        "r4 2n=6": (6, "k=1", 0, -2),
        "r4 2n=8": (8, "k=2", 0, 4),
        "marginal 2n=6": (6, "col 2 vs row 3", 16, 15),
        "borders 2n=6": (6, "bottom row k=2", 2, 3),
        "borders 2n=8": (8, "first top row k=4", 16, 15),
    },
    (8, 3, 4, +1): {
        "tables 2n=8": (8, "(3,4)", 45, 46),
        "r1 2n=10": (10, "(3,6)", 0, 4),
        "r2 2n=8": (8, "(3,4)", 0, 1),
        "r2 2n=10": (10, "(3,4)", 0, 4),
        "r3 2n=8": (8, "m=2", 0, -2),
        "r3 2n=10": (10, "m=3", 0, 4),
        "r4 2n=8": (8, "k=2", 0, 1),
        "r4 2n=10": (10, "k=4", 0, 4),
        "marginal 2n=8": (8, "col 2 vs row 3", 183, 184),
        "symmetry 2n=8": (8, "(3, 4) vs (5, 6)", 46, 45),
        "crossing 2n=8": (8, "k=3", 55, 56),
        "borders 2n=8": (8, "second top row k=4", 45, 46),
        "borders 2n=10": (10, "first top row k=6", 328, 327),
        "poupard p=2 i+j<=5": (8, "(i,j)=(1,0)", 0, 1),
    },
}


@pytest.mark.parametrize(
    "cell", CORRUPTED_CELLS, ids=lambda c: f"M{c[0]}({c[1]},{c[2]}){c[3]:+d}"
)
def test_every_check_fails_on_a_corrupted_count(monkeypatch, brute, cell):
    monkeypatch.setattr(cli, "joint_matrices", _corrupted(brute, *cell))
    report = run_checks(10, cli.ALL_CHECKS)
    assert report.overall == "fail"
    assert _first_failures(report) == CORRUPTED_CELLS[cell]


# Each corrupted upper cell of a recurrence matrix, and the first
# counterexample of every gf1 and gf3 row at --two-n-max 10 that it makes
# fail: the ring's coefficient is the actual value.
CORRUPTED_RECURRENCE = {
    (8, 3, 5, +1): {"gf3 2n=8": (8, "(3,5)", 64, 63)},
    (10, 2, 5, +1): {
        "gf1 i+j<=6": (10, "(i,j)=(4,2)", 286, 285),
        "gf3 2n=10": (10, "(2,5)", 286, 285),
    },
    (8, 3, 4, +1): {"gf3 2n=8": (8, "(3,4)", 46, 45)},
}


@pytest.mark.parametrize(
    "cell", CORRUPTED_RECURRENCE, ids=lambda c: f"M{c[0]}({c[1]},{c[2]}){c[3]:+d}"
)
def test_gf1_and_gf3_fail_on_a_corrupted_recurrence(monkeypatch, cell):
    size, m, k, delta = cell

    class Corrupted(cli.RecurrenceEngine):
        def assemble(self, two_n):
            A = super().assemble(two_n)
            return _moved(A, m, k, delta) if two_n == size else A

    monkeypatch.setattr(cli, "RecurrenceEngine", Corrupted)
    monkeypatch.setattr(cli, "joint_matrices", _refuse("the joint pass"))
    report = run_checks(10, ("gf1", "gf3"))
    assert _first_failures(report) == CORRUPTED_RECURRENCE[cell]


@pytest.mark.parametrize(
    "check, series, num_vars, location",
    [("gf1", "omega1", 2, "(i,j)=(0,0)"), ("gf3", "omega", 3, "(2,3)")],
)
def test_gf1_and_gf3_fail_on_a_series_off_the_recurrence(
    monkeypatch, check, series, num_vars, location
):
    real = getattr(cli, series)

    def shifted(order):  # a constant 1 moves the coefficient of f_4(2,3) = 1
        return real(order) + TriSeries.constant(1, num_vars, order)

    monkeypatch.setattr(cli, series, shifted)
    report = run_checks(8, (check,))
    (failing,) = [r for r in report.rows if r.failures]
    assert (failing.failures[0]["two_n"], failing.failures[0]["location"]) == (4, location)
    assert (failing.failures[0]["expected"], failing.failures[0]["actual"]) == (1, 2)


def test_every_check_can_fail():
    failing = {
        key.split()[0]
        for table in (CORRUPTED_CELLS, CORRUPTED_RECURRENCE)
        for fails in table.values()
        for key in fails
    }
    # pde fails on a series off the PDE (below), and bijection on a map that
    # sends two sources to one image (tests/test_bijections.py).
    assert failing | {"pde", "bijection"} == set(cli.ALL_CHECKS)


def test_pde_fails_on_a_series_off_the_pde(monkeypatch):
    real = cli.omega_p

    def shifted(p, order):  # a constant 1 leaves the residual 4 * 1
        return real(p, order) + TriSeries.constant(1, 2, order)

    monkeypatch.setattr(cli, "omega_p", shifted)
    report = run_checks(4, ("pde",))
    assert [r.status for r in report.rows] == ["fail"] * 4
    assert report.rows[0].failures == [
        {"check": "pde", "two_n": None, "location": "(i,j)=(0,0)", "expected": 0, "actual": 4}
    ]


def test_verify_json_prints_a_fractional_counterexample_as_text(monkeypatch, capsys):
    real = cli.omega

    def shifted(order):  # half a tree more at f_4(2,3), the coefficient at (0,0,0)
        return real(order) + TriSeries.constant(Fraction(1, 2), 3, order)

    monkeypatch.setattr(cli, "omega", shifted)
    code, out = run(capsys, "verify", "--two-n-max", "6", "--checks", "gf3", "--format", "json")
    blob = json.loads(out)
    assert (code, blob["overall"]) == (1, "fail")
    assert blob["rows"][0]["first_counterexample"] == {
        "check": "gf3", "two_n": 4, "location": "(2,3)", "expected": 1, "actual": "3/2"
    }


def test_verify_report_failure_rendering():
    from secant_trees.cli import CheckRow, VerifyReport

    bad = CheckRow("tables", "2n=4", failures=[
        {"check": "tables", "two_n": 4, "location": "(2,3)",
         "expected": 1, "actual": 2},
    ], compared=3)
    report = VerifyReport(rows=[CheckRow("pde", "p=1 order=8"), bad])
    assert report.overall == "fail"
    text = report.to_text()
    assert "FAIL tables" in text and "overall: fail" in text
    lines = text.splitlines()
    assert lines[0].endswith("p=1 order=8 (0 compared)") and lines[1].endswith(" (3 compared)")
    blob = report.to_json_dict()
    assert blob["rows"][1]["first_counterexample"]["location"] == "(2,3)"
    assert [r["compared"] for r in blob["rows"]] == [0, 3]


# One argv per sized flag, with the value last; each with its bad values: one
# below the bound (0, or -1 for --order, whose bound is 0), a fraction, and an
# odd value where the flag is even.
SIZED_FLAGS = [
    (["enumerate", "--n"], ("0", "1.5")),
    (["matrix", "--two-n"], ("0", "1.5", "7")),
    (["entringer", "--n-max"], ("0", "1.5")),
    (["series", "--target", "sec", "--order"], ("-1", "1.5")),
    (["verify", "--two-n-max"], ("0", "1.5", "7")),
]


@pytest.mark.parametrize(
    "argv", [argv + [value] for argv, values in SIZED_FLAGS for value in values], ids=" ".join
)
def test_a_sized_flag_that_breaks_the_rule_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    flag, value = argv[-2:]
    last = capsys.readouterr().err.splitlines()[-1]
    assert exc.value.code == 2
    assert re.search(rf"argument {flag}: value must be an .*, got '?{re.escape(value)}'?$", last)


@pytest.mark.parametrize(
    "argv, message",
    [
        ("series --target sec --order 4 --query x", "bad exponent list 'x'"),
        # No --method: the cap of the default method, brute.
        ("matrix --two-n 42", "--two-n 42 is above the cap of the insertion-move counter, 40"),
    ],
    ids=("series-bad-query", "matrix-default-method-cap"),
)
def test_a_usage_error_after_parsing_prints_the_subcommand_usage(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: secant-trees {argv.split()[0]} ") and message in err


def _sized_choices():
    """Every subcommand choice that takes a size, but `verify`'s: its row key
    in ``cli.CAPS``, (subcommand, method or target or None), mapped to its
    argv without the size and to the action of its sized flag."""
    parser = cli.build_parser()
    subcommands = next(a for a in parser._actions if a.dest == "command").choices
    found = {}
    for command, sub in subcommands.items():
        sized = [a for a in sub._actions if "_sized" in getattr(a.type, "__qualname__", "")]
        if command == "verify" or not sized:
            continue
        selector = next((a for a in sub._actions if a.dest in ("method", "target")), None)
        for choice in selector.choices if selector else (None,):
            argv = [command] + ([selector.option_strings[0], choice] if selector else [])
            found[command, choice] = argv, sized[0]
    return found


SIZED_CHOICES = _sized_choices()

# The workers of each row of cli.CAPS: (module, name), each made to fail the
# test if it runs.
CAP_WORKERS = {
    ("enumerate", None): [(cli, "alternating_permutations"), (cli, "tree_count")],
    ("matrix", "brute"): [(cli, "joint_matrix_bruteforce"), (distributions, "joint_matrices")],
    ("matrix", "recurrence"): [(cli, "assemble")],
    ("entringer", "brute"): [(distributions, "_ent_pass")],
    ("entringer", "rule"): [(cli, "_entringer_rows")],
    ("series", "sec"): [(cli, "sec_series")],
    ("series", "omega1"): [(cli, "omega1")],
    ("series", "omega"): [(cli, "omega")],
}


def test_every_choice_that_takes_a_size_has_one_cap():
    assert set(SIZED_CHOICES) == set(cli.CAPS)
    for key, (_, action) in SIZED_CHOICES.items():
        assert cli.CAPS[key][0] in action.option_strings, key


def test_each_cap_keeps_its_measured_value():
    assert (cli.ENUMERATE_MAX_N, cli.COUNTER_MAX_TWO_N, cli.RULE_MAX_N) == (11, 40, 730)
    assert {key: cap for key, (_, _, cap) in cli.CAPS.items()} == {
        ("enumerate", None): 11,
        ("matrix", "brute"): 40,
        ("matrix", "recurrence"): 450,
        ("entringer", "brute"): 40,
        ("entringer", "rule"): 730,
        ("series", "sec"): 1400,
        ("series", "omega1"): 132,
        ("series", "omega"): 66,
    }


def _takes(action, value):
    try:
        action.type(str(value))
    except argparse.ArgumentTypeError:
        return False
    return True


@pytest.mark.parametrize("key", cli.CAPS, ids=lambda key: "-".join(filter(None, key)))
def test_a_size_above_its_cap_fails_before_any_work(key, capsys, monkeypatch):
    flag, what, cap = cli.CAPS[key]
    for module, name in CAP_WORKERS[key]:
        monkeypatch.setattr(module, name, _refuse(name))
    argv, action = SIZED_CHOICES[key]
    value = next(v for v in count(cap + 1) if _takes(action, v))
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, str(value)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: secant-trees {key[0]} ")
    assert f"{flag} {value} is above the cap of {what}, {cap}" in err


# ---------------------------------------------------------------------- #
# every cap has a second route (ROADMAP aim 3)                            #
# ---------------------------------------------------------------------- #


# The parts that no check compares up to their cap: (cap, the reach the
# checks cover, where the rest is compared, if anywhere).
KNOWN_GAPS = {
    (("enumerate", None), "words"): (
        11, 0, "test_trees::test_enumeration_counts counts the words to 10"
    ),
    (("matrix", "brute"), "interior lower cells"): (
        40, 14, "16..40 only the counter reaches; the golden tables stop at 14"
    ),
    (("matrix", "recurrence"), "upper cells"): (
        450, 70, "to 70 by gf3 against the series ring, to 40 by tables"
    ),
    (("matrix", "recurrence"), "lower border"): (
        450, 40, "to 40 by tables against the counter"
    ),
    (("entringer", "brute"), "rows"): (
        40, 0, "test_distributions::test_entringer_bruteforce_matches_rule_to_40 and "
        "CI's diff of the two methods at 40, not a check"
    ),
    (("entringer", "rule"), "rows"): (
        730, 38, "to 38 by borders and tables; to 40 by "
        "test_distributions::test_entringer_bruteforce_matches_rule_to_40 and CI's diff"
    ),
    (("series", "sec"), "coefficients"): (
        1400, 0, "test_series::test_sec_series_equals_the_entringer_walk_at_300 and "
        "a CI step at 1400, not a check"
    ),
}


# The parts of what each row of cli.CAPS prints, so that a part whose last
# second route goes is judged as covered to 0, not dropped.
PARTS = {
    (("enumerate", None), "words"),
    (("matrix", "brute"), "known cells and margins"),
    (("matrix", "brute"), "interior lower cells"),
    (("matrix", "recurrence"), "upper cells"),
    (("matrix", "recurrence"), "lower border"),
    (("entringer", "brute"), "rows"),
    (("entringer", "rule"), "rows"),
    (("series", "sec"), "coefficients"),
    (("series", "omega1"), "coefficients"),
    (("series", "omega"), "coefficients"),
}


def test_every_cap_has_a_second_route_or_a_known_gap():
    # Each part that some check covers, mapped to the largest value of the
    # cap's flag that the checks compare.
    covered = {}
    for _, reach, covers in cli.CHECKS.values():
        for part, to_cap in covers.items():
            covered[part] = max(covered.get(part, 0), to_cap(reach))
    assert {key for key, _ in PARTS} == set(cli.CAPS)
    assert covered.keys() | KNOWN_GAPS.keys() <= PARTS
    for key, part in PARTS:
        cap, upto = cli.CAPS[key][2], covered.get((key, part), 0)
        if upto >= cap:
            assert (key, part) not in KNOWN_GAPS, f"{key} {part}: the gap closed at {upto}"
        else:
            listed = KNOWN_GAPS.get((key, part), (None, None))[:2]
            assert listed == (cap, upto), f"{key} {part}: cap {cap}, covered to {upto}"
