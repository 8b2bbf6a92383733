"""Command-line surface: outputs, formats, exit codes."""

import json
from collections import Counter

import pytest

from secant_trees import bijections, cli, distributions
from secant_trees.cli import main, render_matrix_text, run_checks
from secant_trees.distributions import JointMatrix
from secant_trees.recurrence import assemble


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


# ---------------------------------------------------------------------- #
# matrix                                                                  #
# ---------------------------------------------------------------------- #


def test_matrix_csv(capsys):
    code, out = run(capsys, "matrix", "--two-n", "4", "--format", "csv",
                    "--threads", "1")
    assert code == 0
    assert out == "m\\k,1,2,3\n2,0,0,1\n3,1,2,0\n4,0,1,0\n"


def test_matrix_json_round_trips(capsys):
    code, out = run(capsys, "matrix", "--two-n", "6", "--format", "json",
                    "--threads", "1")
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
    _, by_rule = run(capsys, "entringer", "--n-max", "7", "--method", "rule")
    _, by_force = run(capsys, "entringer", "--n-max", "7", "--method", "brute")
    assert by_rule == by_force


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
    code, out = run(capsys, "verify", "--two-n-max", "6", "--threads", "1")
    assert code == 0
    assert "overall: pass" in out


def test_verify_json_output(capsys):
    code, out = run(capsys, "verify", "--two-n-max", "4", "--checks",
                    "tables,marginal", "--format", "json", "--threads", "1")
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


def test_verify_rejects_odd_bound():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--two-n-max", "7"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["matrix", "--two-n", "16"],
        ["matrix", "--method", "hybrid", "--two-n", "16"],
        ["verify", "--two-n-max", "16"],
    ],
)
def test_brute_force_above_the_cap_fails_fast(argv, capsys, monkeypatch):
    def refuse(two_n, processes=None):
        raise AssertionError(f"brute force started at 2n = {two_n}")

    monkeypatch.setattr(cli, "joint_matrix_bruteforce", refuse)
    monkeypatch.setattr(distributions, "joint_matrix_bruteforce", refuse)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--threads", "1"])
    assert exc.value.code == 2
    assert cli.BRUTE_MAX_TWO_N == 14
    assert "19,391,512,145 trees" in capsys.readouterr().err


def test_recurrence_matrix_is_not_capped(capsys):
    code, out = run(capsys, "matrix", "--method", "recurrence", "--two-n", "16",
                    "--format", "json")
    assert code == 0 and json.loads(out)["total"] == 19391512145


def test_run_checks_rows_have_parameters():
    report = run_checks(6, ("pde",))
    assert report.overall == "pass"
    assert [r.parameter for r in report.rows] == [
        "p=1 order=8", "p=2 order=8", "p=3 order=8", "p=4 order=8",
    ]


def test_verify_counts_each_size_once(monkeypatch, brute):
    calls = Counter()

    def counting(two_n, processes=None):
        calls[two_n] += 1
        return brute(two_n)  # the session's matrix, so size 12 is not recounted

    monkeypatch.setattr(cli, "joint_matrix_bruteforce", counting)
    monkeypatch.setattr(bijections, "joint_matrix_bruteforce", counting)
    report = run_checks(12, ("tables", "bijection"))
    assert report.overall == "pass"
    assert [r.check for r in report.rows].count("bijection") == 4
    assert calls == {two_n: 1 for two_n in range(2, 13, 2)}


def test_threads_env_overrides_flag(capsys, monkeypatch):
    monkeypatch.setenv("STC_THREADS", "1")
    code, out = run(capsys, "matrix", "--two-n", "4", "--format", "csv",
                    "--threads", "5")
    assert code == 0 and out.startswith("m\\k")


@pytest.mark.parametrize("value", ["abc", "1.5", "", "0", "-2"])
def test_bad_threads_env_is_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("STC_THREADS", value)
    with pytest.raises(SystemExit) as exc:
        main(["matrix", "--two-n", "4"])
    assert exc.value.code == 2
    assert "STC_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize("env", [None, "1"])
@pytest.mark.parametrize("value", ["abc", "0", "-2"])
def test_bad_threads_flag_is_usage_error(capsys, monkeypatch, value, env):
    if env is None:
        monkeypatch.delenv("STC_THREADS", raising=False)
    else:
        monkeypatch.setenv("STC_THREADS", env)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--two-n-max", "4", "--threads", value])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


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
