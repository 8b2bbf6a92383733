"""Command-line surface: outputs, formats, exit codes."""

import hashlib
import json
import re
import tracemalloc
from collections import Counter
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


def test_enumerate_above_the_cap_fails_fast(capsys, monkeypatch):
    def refuse(n):
        raise AssertionError(f"rightmost labels of size {n} counted")

    monkeypatch.setattr(cli, "alternating_permutations", refuse)
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--n", "15"])
    assert exc.value.code == 2
    assert "--n 15 needs brute force over 1,903,757,312 trees" in capsys.readouterr().err


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
    text = render_matrix_text(assemble(4, fill_interior=True))
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
    # The lines and the text joined from them, about 2.0 times the text of
    # M_120 (2.4 MiB of table, 1.2 MiB of CSV); holding the cell strings
    # beside the lines and copying the text to end it took 3.7 and 3.0 times.
    M = assemble(120)
    tracemalloc.start()
    try:
        out = render(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * len(out), peak / len(out)


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


def _refuse_ent_distribution(n):
    raise AssertionError(f"rightmost labels of size {n} counted")


def test_entringer_brute_above_the_cap_fails_fast(capsys, monkeypatch):
    monkeypatch.setattr(distributions, "ent_distribution", _refuse_ent_distribution)
    with pytest.raises(SystemExit) as exc:
        main(["entringer", "--n-max", "41", "--method", "brute"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: secant-trees entringer ")
    assert "--n-max 41 is above the cap of the insertion-move counter, 40" in err


def _andre(n_max):
    """E_0 .. E_n_max by André's convolution 2 E_{n+1} = sum_k C(n, k) E_k E_{n-k}
    (n >= 1), a route that shares no code with the Entringer triangle."""
    e = [1, 1]
    for n in range(1, n_max):
        e.append(sum(comb(n, k) * e[k] * e[n - k] for k in range(n + 1)) // 2)
    return e


def test_entringer_rule_is_not_capped(capsys, monkeypatch):
    monkeypatch.setattr(distributions, "ent_distribution", _refuse_ent_distribution)
    code, out = run(capsys, "entringer", "--n-max", "41", "--method", "rule")
    assert code == 0
    sums = [sum(map(int, line.split())) for line in out.splitlines()]
    assert sums[13] == 1903757312  # row 15: E_15, OEIS A000111
    euler = _andre(41)
    assert euler[15] == 1903757312 and euler[16] == 19391512145
    assert sums == euler[2:]


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


def test_series_query_errors():
    with pytest.raises(SystemExit) as exc:
        main(["series", "--target", "sec", "--order", "4", "--query", "9"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["series", "--target", "omega", "--order", "4", "--query", "1,2"])
    assert exc.value.code == 2


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
    def refuse(two_n):
        pytest.fail(f"brute force at 2n = {two_n} before the selection was checked")

    monkeypatch.setattr(cli, "joint_matrix_bruteforce", refuse)


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


@pytest.mark.parametrize(
    "argv",
    [
        ["matrix", "--two-n", "42"],
        ["matrix", "--method", "hybrid", "--two-n", "42"],
        ["verify", "--two-n-max", "42"],
    ],
)
def test_brute_force_above_the_cap_fails_fast(argv, capsys, monkeypatch):
    def refuse(two_n):
        raise AssertionError(f"brute force started at 2n = {two_n}")

    monkeypatch.setattr(cli, "joint_matrix_bruteforce", refuse)
    monkeypatch.setattr(distributions, "joint_matrix_bruteforce", refuse)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert cli.COUNTER_MAX_TWO_N == 40
    err = capsys.readouterr().err
    assert err.startswith(f"usage: secant-trees {argv[0]} ")
    if argv[0] == "verify":
        assert "two_n_max 42 is above 40, the reach of the selected checks" in err
    else:
        assert "--two-n 42 is above the cap of the insertion-move counter, 40" in err


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


def test_matrix_brute_and_hybrid_csv_agree_at_16(capsys):
    _, brute_csv = run(capsys, "matrix", "--two-n", "16", "--format", "csv")
    _, hybrid_csv = run(capsys, "matrix", "--two-n", "16", "--method", "hybrid", "--format", "csv")
    assert brute_csv == hybrid_csv and brute_csv.count("\n") == 16


def test_recurrence_matrix_is_not_capped(capsys):
    for two_n in (42, 120):
        code, out = run(capsys, "matrix", "--method", "recurrence", "--two-n", str(two_n),
                        "--format", "json")
        blob = json.loads(out)
        assert code == 0 and blob["total"] == tree_count(two_n)
        M = JointMatrix.from_json_dict(blob)
        assert M.to_json_dict() == blob == assemble(two_n).to_json_dict()
    assert tree_count(16) == 19391512145


def test_run_checks_rows_have_parameters():
    report = run_checks(6, ("pde",))
    assert report.overall == "pass"
    assert [r.parameter for r in report.rows] == [
        "p=1 order=8", "p=2 order=8", "p=3 order=8", "p=4 order=8",
    ]


def test_verify_counts_each_size_once(monkeypatch, brute):
    calls = Counter()

    def counting(two_n):
        calls[two_n] += 1
        return brute(two_n)  # the session's matrix, so size 12 is not recounted

    monkeypatch.setattr(cli, "joint_matrix_bruteforce", counting)
    monkeypatch.setattr(distributions, "joint_matrix_bruteforce", counting)
    report = run_checks(12, ("tables", "bijection"))
    assert report.overall == "pass"
    assert [r.check for r in report.rows].count("bijection") == 4
    assert calls == {two_n: 1 for two_n in range(2, 13, 2)}



def _corrupted(brute, size, m, k, delta):
    """A stand-in for joint_matrix_bruteforce whose M_size has cell (m, k)
    moved by *delta*; every other size is the session's matrix."""

    def counts(two_n):
        B = brute(two_n)
        if two_n != size:
            return B
        C = JointMatrix(two_n, "brute")
        for mm, kk, v in B.known_cells():
            C.set(mm, kk, v)
        C.set(m, k, B.get(m, k) + delta)
        return C

    return counts


def _first_failures(report):
    """``{"check parameter": (two_n, location, expected, actual)}`` for the
    first counterexample of each failing row; a bijection's report is cut
    to the names of the properties that failed."""
    out = {}
    for r in report.rows:
        if r.failures:
            f = r.failures[0]
            actual = f["actual"]
            if isinstance(actual, dict):
                actual = tuple(key for key, ok in actual.items() if ok is False)
            out[f"{r.check} {r.parameter}"] = (
                f["two_n"], f["location"], f["expected"], actual
            )
    return out


_MAP_FAILS = "injective/covering/transporting"

# Each corrupted cell of a brute-force matrix, and the first counterexample
# of every check row at --two-n-max 10 that it makes fail.
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
        "gf3 2n=8": (8, "(3,5)", 64, 63),
        "poupard p=2 i+j<=5": (8, "(i,j)=(0, 1)", 0, 1),
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
        "bijection 2n=10": (10, "first_row_map", _MAP_FAILS, ("covers_domain",)),
        "gf1 i+j<=6": (10, "(i,j)=(4,2)", 286, 285),
        "gf3 2n=10": (10, "(2,5)", 286, 285),
        "poupard p=1 i+j<=6": (10, "(i,j)=(2, 2)", 0, 1),
    },
    (10, 9, 1, -1): {
        "tables 2n=10": (10, "(9,1)", 61, 60),
        "r3 2n=10": (10, "m=7", 0, -1),
        "r4 2n=10": (10, "k=1", 0, -1),
        "marginal 2n=10": (10, "col 1 vs row 2", 1384, 1385),
        "borders 2n=10": (10, "first column mirror k=9", 61, 60),
        "bijection 2n=10": (10, "pom1_map", _MAP_FAILS, ("covers_domain",)),
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
        "bijection 2n=6": (6, "entringer_map", _MAP_FAILS, ("covers_domain",)),
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
        "gf3 2n=8": (8, "(3,4)", 46, 45),
        "poupard p=2 i+j<=5": (8, "(i,j)=(1, 0)", 0, 1),
    },
}


@pytest.mark.parametrize(
    "cell", CORRUPTED_CELLS, ids=lambda c: f"M{c[0]}({c[1]},{c[2]}){c[3]:+d}"
)
def test_every_check_fails_on_a_corrupted_count(monkeypatch, brute, cell):
    monkeypatch.setattr(cli, "joint_matrix_bruteforce", _corrupted(brute, *cell))
    report = run_checks(10, cli.ALL_CHECKS)
    assert report.overall == "fail"
    assert _first_failures(report) == CORRUPTED_CELLS[cell]


def test_every_check_can_fail():
    failing = {key.split()[0] for fails in CORRUPTED_CELLS.values() for key in fails}
    assert failing | {"pde"} == set(cli.ALL_CHECKS)


def test_pde_fails_on_a_series_off_the_pde(monkeypatch):
    real = cli.omega_p

    def shifted(p, order):  # a constant 1 leaves the residual 4 * 1
        return real(p, order) + TriSeries.constant(1, 2, order)

    monkeypatch.setattr(cli, "omega_p", shifted)
    report = run_checks(4, ("pde",))
    assert [r.status for r in report.rows] == ["fail"] * 4
    assert report.rows[0].failures == [
        {"check": "pde", "two_n": None, "location": "max residual",
         "expected": 0, "actual": "4"}
    ]

def test_verify_report_failure_rendering():
    from secant_trees.cli import CheckRow, VerifyReport

    bad = CheckRow("tables", "2n=4", failures=[
        {"check": "tables", "two_n": 4, "location": "(2,3)",
         "expected": 1, "actual": 2},
    ])
    report = VerifyReport(rows=[CheckRow("pde", "p=1 order=8"), bad])
    assert report.overall == "fail"
    text = report.to_text()
    assert "FAIL tables" in text and "overall: fail" in text
    blob = report.to_json_dict()
    assert blob["rows"][1]["first_counterexample"]["location"] == "(2,3)"


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
    "argv",
    [
        "series --target omega --order 67",
        "series --target sec --order 4 --query x",
        "matrix --two-n 42",
    ],
    ids=("series-order-cap", "series-bad-query", "matrix-brute-force-cap"),
)
def test_a_usage_error_after_parsing_prints_the_subcommand_usage(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: secant-trees {argv.split()[0]} ")


@pytest.mark.parametrize("target, cap", [("sec", 1400), ("omega1", 132), ("omega", 66)])
def test_series_above_the_cap_fails_fast(target, cap, capsys, monkeypatch):
    def refuse(order):
        raise AssertionError(f"{target} built at order {order}")

    for name in ("sec_series", "omega1", "omega"):
        monkeypatch.setattr(cli, name, refuse)
    with pytest.raises(SystemExit) as exc:
        main(["series", "--target", target, "--order", str(cap + 1)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--order {cap + 1} is above the cap of target {target}, {cap}" in err
