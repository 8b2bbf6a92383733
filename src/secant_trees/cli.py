"""Command-line front end: compute, export and cross-verify everything.

Subcommands
-----------
``enumerate``  stream counts, projections or tree JSON for one size;
``matrix``     print a joint matrix (brute or recurrence) as a table, CSV
               or JSON;
``entringer``  print triangle rows from the partial-sum rule or by brute
               force;
``series``     dump a generating function or query one EGF coefficient;
``verify``     run the cross-validation suite and exit nonzero on failure.

The verify suite re-derives every identity the library is built on: golden
tables, the difference laws on cells and marginals, the counter-diagonal
symmetry, the crossing identity, all border identities, the five bijections,
and the generating-function routes.  Every check compares exact integers.
``CHECKS`` is the one table of checks.  It maps each check to its rows and
its reach, the largest bound it serves.  The rows are a function of ``(ctx,
two_n_max)`` that yields one ``(parameter, comparisons)`` pair per report
row, each comparison ``(two_n, location, expected, actual)``.  Most checks
are a law of one size, a function of ``(ctx, two_n)`` that yields
``(location, expected, actual)``; ``_per_size`` turns it into one row per
size.  A check yields every comparison it makes, equal or not, so that
``run_checks``, the one driver, is the one place that decides a failure: it
runs each check up to the smaller of the bound and its reach, times each
row, counts every comparison into the row's ``compared`` and keeps each
comparison whose two values differ as one of that row's failures.

Every check that reads the insertion-move counter reads the matrices of one
pass, which starts on the first read and runs up to the smaller of the
run's bound and the counter cap, so each size is counted once and a
selection that never reads the counter counts nothing.  The ``tables`` law
compares the counter's matrix of one size with the golden table where there
is one, and with every cell and both margins that the recurrence gives;
``verify --checks tables --two-n-max <2n>`` runs it at every size up to 2n
in one pass.  ``gf1`` and ``gf3`` compare the series ring with the
recurrence, so they reach the series caps.

``CAPS`` is the one table of size caps.  It maps each subcommand and method
or target to the flag it bounds, what the cap bounds and the cap.  ``main``
reads it once, after parsing and before any command runs, and makes a larger
value a usage error of the form ``{flag} {value} is above the cap of {what},
{cap}``.  ``verify`` has no row: its bound is checked against the reach of
the selected checks, which only the selection knows.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Iterator

from .bijections import MAP_DOMAINS, verify_maps
from .distributions import (
    _METHODS,
    JointMatrix,
    entringer_bruteforce,
    joint_matrices,
    joint_matrix_bruteforce,
)
from .recurrence import RecurrenceEngine, assemble, tree_count
from .recurrence import _entringer_row, _entringer_rows, _mirror_pairs
from .reference_tables import REFERENCE_JOINT, REFERENCE_TOTALS
from .series import (
    OutOfOrderError,
    _stencils,
    cell_to_exponents,
    omega,
    omega1,
    omega_grid_from_counts,
    omega_p,
    pde_residual,
    sec_series,
)
from .trees import _check_selection, _check_size, alternating_permutations, enumerate_trees

# Largest size `enumerate` takes: the largest n whose slowest mode, `--emit
# trees`, runs in about 7 s.  With start-up, in five fresh processes each
# (2-core VM, Python 3.11): `--n 11` took 5.7-8.1 s (median 6.3-6.8 s) to
# emit trees, 2.5-3.9 s for perms and 1.2-1.7 s to count; `--n 12` took
# 8.9-11.5 s to count alone.
ENUMERATE_MAX_N = 11

# Largest size counted by the insertion-move counters, for `matrix --method
# brute` and `entringer --method brute`, and the reach of every `verify`
# check but `bijection`, `gf1` and `gf3`.  At 40, with start-up, over five fresh
# processes each, `matrix` took 0.47-0.59 s, `entringer --method brute`
# 0.09-0.14 s, and `verify` with every check but `bijection` 0.78-1.07 s, one
# pass counting every size (2-core VM, Python 3.11).  One pass to 60 took
# about 2.5 s.
COUNTER_MAX_TWO_N = 40

# Largest row printed by `entringer --method rule`: the largest n whose run,
# one row held and printed at a time, takes about 7 s, almost all of it
# turning ints into decimal text.  With start-up and output to /dev/null, in
# five fresh processes each (2-core VM, Python 3.11): medians 6.3-6.6 s at
# 710-730, 7.5 s at 740, 8.6 s at 760, each at a 21 MiB peak RSS.
RULE_MAX_N = 730

# Largest size built by `matrix --method recurrence`.  It was set as the
# largest 2n whose slowest format ran in about 7 s, when the column rule
# filled every upper cell.  With start-up and output to /dev/null, in five
# fresh processes each (2-core VM, Python 3.11.7), 450 now takes 2.27-2.34 s
# (median 2.30 s) in text, 2.12-2.26 s (median 2.20 s) in CSV and 2.20-2.37 s
# (median 2.28 s) in JSON, each at a 63-64 MiB peak RSS; about 1.1 s of it is
# `assemble(450)` and 0.9 s turning its 101,469 nonzero cells into decimal
# text.  The cap is not raised: above 2n = 70, the reach of the `gf3` check,
# the upper cells have no second route.
RECURRENCE_MAX_TWO_N = 450

# The one table of size caps (see the module docstring), keyed by subcommand
# and by method or target, None where the subcommand has neither.  The series
# caps are the largest order that builds in about 7 s (2-core VM, Python
# 3.11: sec 1400 in 6.9 s, omega1 132 in 7.0 s, omega 66 in 6.4 s, omega 68
# in 7.7-8.4 s).
CAPS: dict[tuple[str, str | None], tuple[str, str, int]] = {
    ("enumerate", None): ("--n", "brute-force enumeration", ENUMERATE_MAX_N),
    ("matrix", "brute"): ("--two-n", "the insertion-move counter", COUNTER_MAX_TWO_N),
    ("matrix", "recurrence"): ("--two-n", "the recurrence", RECURRENCE_MAX_TWO_N),
    ("entringer", "brute"): ("--n-max", "the insertion-move counter", COUNTER_MAX_TWO_N),
    ("entringer", "rule"): ("--n-max", "the partial-sum rule", RULE_MAX_N),
    ("series", "sec"): ("--order", "target sec", 1400),
    ("series", "omega1"): ("--order", "target omega1", 132),
    ("series", "omega"): ("--order", "target omega", 66),
}

DEFAULT_CHECKS = ("tables", "marginal", "r1", "r2", "symmetry")


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------


@dataclass
class CheckRow:
    check: str
    parameter: str
    failures: list = field(default_factory=list)
    seconds: float = 0.0  # wall time spent producing this row
    compared: int = 0  # comparisons the check yielded for this row

    @property
    def status(self) -> str:
        return "pass" if not self.failures else "fail"


@dataclass
class VerifyReport:
    rows: list[CheckRow] = field(default_factory=list)

    @property
    def overall(self) -> str:
        return "pass" if all(r.status == "pass" for r in self.rows) else "fail"

    def to_json_dict(self) -> dict:
        return {
            "overall": self.overall,
            "rows": [
                {
                    "check": r.check,
                    "parameter": r.parameter,
                    "status": r.status,
                    "first_counterexample": r.failures[0] if r.failures else None,
                    "seconds": r.seconds,
                    "compared": r.compared,
                }
                for r in self.rows
            ],
        }

    def to_text(self) -> str:
        lines = []
        for r in self.rows:
            line = f"{r.status.upper():4s} {r.check:10s} {r.parameter}"
            if r.failures:
                line += f"  first counterexample: {r.failures[0]}"
            lines.append(f"{line} ({r.compared} compared)")
        lines.append(f"overall: {self.overall}")
        return "\n".join(lines) + "\n"


class _VerifyContext:
    """What the checks of one run share: the recurrence engine, and the
    matrices of the one counter pass, up to *counter_bound*."""

    def __init__(self, counter_bound: int):
        self.engine = RecurrenceEngine()
        self._counter_bound = counter_bound
        self._pass: Iterator[JointMatrix] | None = None
        self._counted: dict[int, JointMatrix] = {}

    def brute(self, two_n: int) -> JointMatrix:
        """The counter's matrix of size *two_n*; the first call starts the pass."""
        if self._pass is None:
            self._pass = joint_matrices(self._counter_bound)
        while two_n not in self._counted:
            M = next(self._pass)
            self._counted[M.two_n] = M
        return self._counted[two_n]


# A report row as a check yields it: ``(parameter, comparisons)``, each
# comparison ``(two_n, location, expected, actual)``.
_Row = tuple[str, Iterable[tuple]]
_Rows = Callable[[_VerifyContext, int], Iterator[_Row]]


def _per_size(first: int, law: Callable[[_VerifyContext, int], Iterable[tuple]]) -> _Rows:
    """Rows of a law of one size: one row per even size from *first* to the
    run's bound, with the comparisons ``law(ctx, two_n)`` yields as
    ``(location, expected, actual)``."""

    def rows(ctx: _VerifyContext, two_n_max: int) -> Iterator[_Row]:
        for two_n in range(first, two_n_max + 1, 2):
            yield f"2n={two_n}", ((two_n, *c) for c in law(ctx, two_n))

    return rows


def _tables(ctx: _VerifyContext, two_n: int) -> Iterator[tuple]:
    B = ctx.brute(two_n)
    golden = REFERENCE_JOINT.get(two_n)
    if golden is not None:
        for m in range(2, two_n + 1):
            for k in range(1, two_n):
                yield f"({m},{k})", golden[m - 2][k - 1], B.get(m, k)
        yield "total", REFERENCE_TOTALS[two_n], B.total()
    A = ctx.engine.assemble(two_n)
    for m, k, v in A.known_cells():
        yield f"recurrence ({m},{k})", B.get(m, k), v
    yield "row sums", B.row_sums(), A.row_sums()
    yield "col sums", B.col_sums(), A.col_sums()


def _marginal(ctx: _VerifyContext, two_n: int) -> Iterator[tuple]:
    B = ctx.brute(two_n)
    rows, cols = B.row_sums(), B.col_sums()
    for k in range(2, two_n + 1):
        yield f"col {k - 1} vs row {k}", cols[k - 2], rows[k - 2]


def _r1(ctx: _VerifyContext, two_n: int) -> Iterator[tuple]:
    B, P = ctx.brute(two_n), ctx.brute(two_n - 2)
    for k in range(1, two_n):
        for m in range(2, k - 2):
            r = B.get(m + 2, k) - 2 * B.get(m + 1, k) + B.get(m, k) + 4 * P.get(m, k - 2)
            yield f"({m},{k})", 0, r


def _r2(ctx: _VerifyContext, two_n: int) -> Iterator[tuple]:
    B, P = ctx.brute(two_n), ctx.brute(two_n - 2)
    for k in range(1, two_n - 2):
        for m in range(2, k):
            r = B.get(m, k + 2) - 2 * B.get(m, k + 1) + B.get(m, k) + 4 * P.get(m, k)
            yield f"({m},{k})", 0, r


def _r3(ctx: _VerifyContext, two_n: int) -> Iterator[tuple]:
    rows, prev = ctx.brute(two_n).row_sums(), ctx.brute(two_n - 2).row_sums()
    for m in range(2, two_n - 1):  # row m lies at index m - 2
        yield f"m={m}", 0, rows[m] - 2 * rows[m - 1] + rows[m - 2] + 4 * prev[m - 2]


def _r4(ctx: _VerifyContext, two_n: int) -> Iterator[tuple]:
    cols, prev = ctx.brute(two_n).col_sums(), ctx.brute(two_n - 2).col_sums()
    for k in range(1, two_n - 2):
        yield f"k={k}", 0, cols[k + 1] - 2 * cols[k] + cols[k - 1] + 4 * prev[k - 1]


def _symmetry(ctx: _VerifyContext, two_n: int) -> Iterator[tuple]:
    for cell, mirror, a, b in _mirror_pairs(ctx.brute(two_n)):
        yield f"{cell} vs {mirror}", a, b


def _crossing(ctx: _VerifyContext, two_n: int) -> Iterator[tuple]:
    B = ctx.brute(two_n)
    for k in range(3, two_n - 1):
        yield f"k={k}", B.get(k - 1, k) + B.get(k + 1, k), B.get(k, k - 1) + B.get(k, k + 1)


def _borders(ctx: _VerifyContext, two_n: int) -> Iterator[tuple]:
    B = ctx.brute(two_n)
    prev_cols = ctx.brute(two_n - 2).col_sums()
    top = two_n - 1
    for k in range(3, top + 1):
        yield f"first top row k={k}", prev_cols[k - 3], B.get(2, k)
        yield f"first column mirror k={k}", B.get(2, k), B.get(k, 1)
        yield f"rightmost mirror k={k}", B.get(2, k), B.get(k - 1, top)
    for k in range(4, top + 1):
        yield f"second top row k={k}", 3 * B.get(2, k), B.get(3, k)
    for m in range(2, two_n - 1):
        yield f"rightmost column m={m}", prev_cols[m - 2], B.get(m, top)
    for m in range(2, two_n - 2):
        yield f"next to rightmost m={m}", 3 * B.get(m, top), B.get(m, top - 1)
    ent_row = _entringer_row(two_n - 2)
    for k in range(2, two_n - 1):
        yield f"bottom row k={k}", ent_row[k - 2], B.get(two_n, k)
    yield "zero corner (2,1)", 0, B.get(2, 1)
    yield "zero corner (2n,2n-1)", 0, B.get(two_n, top)
    yield "subdiagonal seed", 2 * B.get(3, 1), B.get(3, 2)
    yield "subdiagonal mirror", B.get(3, 2), B.get(two_n - 1, two_n - 2)
    yield "bottom pair", 2 * B.get(two_n, two_n - 2), B.get(3, 2)
    yield "seed value", tree_count(two_n - 4), B.get(3, 1)


_MAP_OK = "injective/covering/transporting"


def _bijection(ctx: _VerifyContext, two_n: int) -> Iterator[tuple]:
    for report in verify_maps(tuple(MAP_DOMAINS), two_n, ctx.brute(two_n)):
        yield report.map, _MAP_OK, _MAP_OK if report.ok else report.to_json_dict()


def _gf1(ctx: _VerifyContext, two_n_max: int) -> Iterator[_Row]:
    bound = two_n_max - 4
    w1 = omega1(bound)
    yield f"i+j<={bound}", (
        (i + j + 4, f"(i,j)=({i},{j})", want, w1.egf_coefficient((i, j)))
        for (i, j), want in omega_grid_from_counts(1, bound, ctx.engine.assemble).items()
    )


def _gf3(ctx: _VerifyContext, two_n_max: int) -> Iterator[_Row]:
    # A generator, so that the series is built once per run and inside the
    # first row's timed step.
    w3 = omega(two_n_max - 4)

    def law(ctx: _VerifyContext, two_n: int) -> Iterator[tuple]:
        B = ctx.engine.assemble(two_n)
        for m in range(2, two_n + 1):
            for k in range(m + 1, two_n):
                yield f"({m},{k})", B.get(m, k), w3.egf_coefficient(cell_to_exponents(two_n, m, k))

    yield from _per_size(4, law)(ctx, two_n_max)


def _poupard(ctx: _VerifyContext, two_n_max: int) -> Iterator[_Row]:
    for p in range(1, 5):
        max_sum = two_n_max - 3 - p
        if max_sum >= 0:
            grid = omega_grid_from_counts(p, max_sum, ctx.brute)
            yield f"p={p} i+j<={max_sum}", (
                (p + sum(pos) + 5, f"(i,j)={pos}", 0, res) for pos, res in _stencils(grid)
            )


def _pde(ctx: _VerifyContext, two_n_max: int) -> Iterator[_Row]:
    for p in range(1, 5):
        residual = pde_residual(omega_p(p, 8))
        yield f"p={p} order=8", (
            (None, f"(i,j)=({i},{j})", 0, residual.egf_coefficient((i, j)))
            for i in range(residual.order + 1)
            for j in range(residual.order + 1 - i)
        )


# Each check's rows and its reach, the largest bound it serves: a run with a
# larger bound stops the check at its reach.
CHECKS: dict[str, tuple[_Rows, int]] = {
    "tables": (_per_size(2, _tables), COUNTER_MAX_TWO_N),
    "r1": (_per_size(4, _r1), COUNTER_MAX_TWO_N),
    "r2": (_per_size(4, _r2), COUNTER_MAX_TWO_N),
    "r3": (_per_size(4, _r3), COUNTER_MAX_TWO_N),
    "r4": (_per_size(4, _r4), COUNTER_MAX_TWO_N),
    "marginal": (_per_size(2, _marginal), COUNTER_MAX_TWO_N),
    "symmetry": (_per_size(2, _symmetry), COUNTER_MAX_TWO_N),
    "crossing": (_per_size(4, _crossing), COUNTER_MAX_TWO_N),
    "borders": (_per_size(4, _borders), COUNTER_MAX_TWO_N),
    # One pass per size runs the five maps, and it grows by about
    # E_2n / E_2n-2 per size: 0.13-0.15 s at 10 and 5.6-7.0 s at 12 (2-core
    # VM, Python 3.11.7).
    "bijection": (_per_size(4, _bijection), 10),
    # The ring against the recurrence, up to the series caps (the order is
    # 2n - 4).
    "gf1": (_gf1, CAPS["series", "omega1"][2] + 4),
    "gf3": (_gf3, CAPS["series", "omega"][2] + 4),
    "poupard": (_poupard, COUNTER_MAX_TWO_N),
    "pde": (_pde, COUNTER_MAX_TWO_N),
}
ALL_CHECKS = tuple(CHECKS)


def _selection(checks: Iterable[str], two_n_max: int) -> tuple[str, ...]:
    """*checks* as a tuple, under the selection rule of
    :func:`secant_trees.trees._check_selection`; ValueError also if
    *two_n_max* is above the largest reach among them, so that a bad
    selection fails before any check runs."""
    checks = _check_selection(checks, CHECKS, "checks", "check")
    reach = max(CHECKS[c][1] for c in checks)
    if two_n_max <= reach:
        return checks
    raise ValueError(f"two_n_max {two_n_max} is above {reach}, the reach of the selected checks")


def run_checks(
    two_n_max: int, checks: Iterable[str] = DEFAULT_CHECKS, processes: int = 1
) -> VerifyReport:
    """Run the selected checks up to *two_n_max*, each up to its reach, on
    fresh data.

    A bound that is not an even int >= 4 raises OddSizeError, and a
    selection given as one string, an empty selection, an unknown check
    name, a repeated one or a bound above the selection's largest reach
    raises ValueError, before any check runs.  Each row counts every
    comparison its check yields, fails on every one whose two values differ,
    in the order its check yields them, and records the wall time spent
    producing it, including any brute-force matrix it was the first to
    need.  *processes* is accepted and unused; dropping it waits for a
    change of the benchmark, which passes it.
    """
    _check_size(two_n_max, 4, "two_n_max", even=True)
    checks = _selection(checks, two_n_max)
    ctx = _VerifyContext(min(two_n_max, COUNTER_MAX_TWO_N))
    report = VerifyReport()
    for name in checks:
        rows, reach = CHECKS[name]
        rows = rows(ctx, min(two_n_max, reach))
        while True:
            start = time.perf_counter()
            row = next(rows, None)
            if row is None:
                break
            parameter, comparisons = row
            comparisons = list(comparisons)
            failures = [
                {"check": name, "two_n": two_n, "location": loc, "expected": want, "actual": got}
                for two_n, loc, want, got in comparisons
                if want != got
            ]
            seconds = time.perf_counter() - start
            report.rows.append(CheckRow(name, parameter, failures, seconds, len(comparisons)))
    return report


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _text_lines(M: JointMatrix) -> Iterator[str]:
    """The lines of :func:`render_matrix_text`, each ending in a newline."""
    head = [*map(str, range(1, M.two_n)), "f(m,.)"]
    foot = [*map(str, M.col_sums()), f"E={M.total()}"]
    widths = [max(len(a), len(b)) for a, b in zip(head, foot)]
    name_w = max(len("f(.,k)"), len(f"m={M.two_n}"))

    def line(name: str, cells: list[str]) -> str:
        return f"{name.rjust(name_w)}  {'  '.join(map(str.rjust, cells, widths))}".rstrip() + "\n"

    yield line("k=", head)
    for m, (row, s) in enumerate(zip(M._cells, M.row_sums()), 2):
        yield line(f"m={m}", ["" if v is None else str(v) if v else "." for v in row] + [str(s)])
    yield line("f(.,k)", foot)


def render_matrix_text(M: JointMatrix) -> str:
    """Mirror of the reference tables: dots for zeros inside the index box,
    blanks for unknown cells, a header row of k values, margins appended.

    Each width is read off the margins: a column is as wide as its header
    ``k`` or its sum, the row-sum column as ``f(m,.)`` or ``E=<total>``, the
    name column as ``f(.,k)`` or ``m=<2n>``.  That holds while every cell is
    a count no larger than its column sum and every row sum is no larger
    than the total, so each cell becomes a string only for its own line.
    """
    return "".join(_text_lines(M))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_enumerate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.emit == "count":
        print(sum(1 for _ in alternating_permutations(args.n)))
    elif args.emit == "perms":
        for word in alternating_permutations(args.n):
            print(" ".join(map(str, word)))
    else:
        for tree in enumerate_trees(args.n):
            print(json.dumps(tree.to_json_dict()))
    return 0


def _cmd_matrix(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    build = {"brute": joint_matrix_bruteforce, "recurrence": assemble}
    M = build[args.method](args.two_n)
    if args.format == "json":
        json.dump(M.to_json_dict(), sys.stdout)
        sys.stdout.write("\n")
    else:
        sys.stdout.writelines(_text_lines(M) if args.format == "text" else M._csv_lines())
    return 0


def _cmd_entringer(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.method == "rule":
        rows = islice(_entringer_rows(), args.n_max - 1)
    else:
        rows = entringer_bruteforce(args.n_max).rows.values()
    for row in rows:
        print(" ".join(map(str, row)))
    return 0


def _cmd_series(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    builders = {"sec": sec_series, "omega1": omega1, "omega": omega}
    s = builders[args.target](args.order)
    if args.query is None:
        for line in s.dump_lines():
            print(line)
        return 0
    try:
        exps = tuple(int(x) for x in args.query.split(","))
    except ValueError:
        parser.error(f"bad exponent list {args.query!r}")
    if len(exps) != s.num_vars:
        parser.error(f"target {args.target} takes {s.num_vars} exponents, got {len(exps)}")
    try:
        c = s.egf_coefficient(exps)
    except OutOfOrderError as exc:
        parser.error(str(exc))
    print(c if c.denominator != 1 else c.numerator)
    return 0


def _cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        names = (c.strip() for c in args.checks.split(",") if c.strip())
        checks = _selection(names, args.two_n_max)
    except ValueError as exc:
        parser.error(str(exc))
    report = run_checks(args.two_n_max, checks)
    if args.format == "json":
        # A counterexample from the series ring may be a Fraction; it prints as text.
        print(json.dumps(report.to_json_dict(), default=str))
    else:
        sys.stdout.write(report.to_text())
    return 0 if report.overall == "pass" else 1


def _sized(least: int, even: bool = False) -> Callable[[str], int]:
    """An argparse ``type=`` for a sized flag: the int that the text spells,
    under the size rule of :func:`secant_trees.trees._check_size`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = text
        try:
            _check_size(value, least, "value", even)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secant-trees",
        description="Exact enumeration and cross-verification of complete "
        "increasing trees and their eoc/pom/ent statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stream trees of one size")
    p.add_argument("--n", type=_sized(1), required=True, help="tree size, n >= 1")
    p.add_argument("--emit", choices=("count", "perms", "trees"), default="count")
    p.set_defaults(run=_cmd_enumerate, parser=p)

    p = sub.add_parser("matrix", help="print a joint (eoc, pom) matrix")
    p.add_argument("--two-n", dest="two_n", type=_sized(2, even=True), required=True)
    p.add_argument("--method", choices=_METHODS, default="brute")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(run=_cmd_matrix, parser=p)

    p = sub.add_parser("entringer", help="print rightmost-label triangle rows")
    p.add_argument("--n-max", dest="n_max", type=_sized(2), required=True)
    p.add_argument("--method", choices=("rule", "brute"), default="rule")
    p.set_defaults(run=_cmd_entringer, parser=p)

    p = sub.add_parser("series", help="dump or query a generating function")
    p.add_argument("--target", choices=("sec", "omega1", "omega"), required=True)
    p.add_argument("--order", type=_sized(0), required=True)
    p.add_argument("--query", type=str, default=None, help="comma-separated exponents")
    p.set_defaults(run=_cmd_series, parser=p)

    p = sub.add_parser("verify", help="run the cross-validation suite")
    p.add_argument("--two-n-max", dest="two_n_max", type=_sized(4, even=True), default=10)
    p.add_argument("--checks", type=str, default=",".join(DEFAULT_CHECKS))
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(run=_cmd_verify, parser=p)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    row = CAPS.get((args.command, vars(args).get("method", vars(args).get("target"))))
    if row is not None:
        flag, what, cap = row
        value = getattr(args, flag.lstrip("-").replace("-", "_"))
        if value > cap:
            args.parser.error(f"{flag} {value} is above the cap of {what}, {cap}")
    return args.run(args, args.parser)  # the subcommand's parser, for its usage line


if __name__ == "__main__":
    sys.exit(main())
