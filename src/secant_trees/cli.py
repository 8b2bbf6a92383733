"""Command-line front end: compute, export and cross-verify everything.

Subcommands
-----------
``enumerate``  stream counts, projections or tree JSON for one size;
``matrix``     print a joint matrix (brute, recurrence or hybrid) as a
               table, CSV or JSON;
``entringer``  print triangle rows from the partial-sum rule or by brute
               force;
``series``     dump a generating function or query one EGF coefficient;
``verify``     run the cross-validation suite and exit nonzero on failure.

The verify suite re-derives every identity the library is built on: golden
tables, the difference laws on cells and marginals, the counter-diagonal
symmetry, the crossing identity, all border identities, the five bijections,
and the generating-function routes.  Every check compares exact integers.
Most checks are a law of one size: a function of ``(ctx, two_n)`` that yields
``(location, expected, actual)`` for each comparison it makes, and
``_per_size`` runs it at every size, one report row per size, keeping the
comparisons whose two values differ as that row's failures.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .bijections import MAP_VERIFIERS, verify_map
from .distributions import _METHODS, JointMatrix, entringer_bruteforce, joint_matrix_bruteforce
from .recurrence import (
    RecurrenceEngine,
    check_symmetry,
    entringer_triangle,
    tree_count,
)
from .reference_tables import REFERENCE_JOINT, REFERENCE_TOTALS
from .series import (
    OutOfOrderError,
    cell_to_exponents,
    omega,
    omega1,
    omega_grid_from_counts,
    omega_p,
    pde_check,
    poupard_check,
    sec_series,
)
from .trees import _check_size, alternating_permutations, enumerate_trees

# Largest size counted by brute force.  Both counters count insertion moves:
# the joint counter takes about 0.006 s at 2n = 14 (E_14 = 199,360,981
# trees), 0.01 s at 16 and 0.6-0.8 s at 40, and the rightmost-label counter
# about 1 ms for the rows to 14 and 0.1 s for the rows to 40 (2-core VM,
# Python 3.11).  But `enumerate` shares the cap: it visits every word, and
# E_16 = 19,391,512,145 is 97 times E_14.
BRUTE_MAX_TWO_N = 14

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
            lines.append(line)
        lines.append(f"overall: {self.overall}")
        return "\n".join(lines) + "\n"


def _fail(check: str, two_n, location, expected, actual) -> dict:
    return {
        "check": check,
        "two_n": two_n,
        "location": location,
        "expected": expected,
        "actual": actual,
    }


class _VerifyContext:
    def __init__(self):
        self.engine = RecurrenceEngine()
        self._brute: dict[int, JointMatrix] = {}

    def brute(self, two_n: int) -> JointMatrix:
        if two_n not in self._brute:
            self._brute[two_n] = joint_matrix_bruteforce(two_n)
        return self._brute[two_n]


def _per_size(
    name: str,
    first_size: int,
    law: Callable[[_VerifyContext, int], Iterable[tuple]],
    stop: int | None = None,
) -> Callable[[_VerifyContext, int], Iterator[CheckRow]]:
    """The check *name*: one row per even size from *first_size* to the
    run's bound, or to *stop* if that is lower.  ``law(ctx, two_n)`` yields
    ``(location, expected, actual)`` per comparison; the row fails on each
    one whose values differ, in the order the law yields them."""

    def check(ctx: _VerifyContext, two_n_max: int) -> Iterator[CheckRow]:
        last = two_n_max if stop is None else min(two_n_max, stop)
        for two_n in range(first_size, last + 1, 2):
            fails = [
                _fail(name, two_n, location, expected, actual)
                for location, expected, actual in law(ctx, two_n)
                if expected != actual
            ]
            yield CheckRow(name, f"2n={two_n}", fails)

    return check


def _tables(ctx: _VerifyContext, two_n: int) -> Iterator[tuple]:
    B = ctx.brute(two_n)
    golden = REFERENCE_JOINT.get(two_n)
    if golden is not None:
        for m in range(2, two_n + 1):
            for k in range(1, two_n):
                yield f"({m},{k})", golden[m - 2][k - 1], B.get(m, k)
        yield "total", REFERENCE_TOTALS[two_n], B.total()
    if two_n >= 4:
        A = ctx.engine.assemble(two_n)
        for m, k, v in A.known_cells():
            yield f"recurrence ({m},{k})", B.get(m, k), v
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
    for cell, mirror, a, b in check_symmetry(ctx.brute(two_n)):
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
    ent_row = entringer_triangle(two_n - 2).row(two_n - 2)
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
    for name in MAP_VERIFIERS:
        report = verify_map(name, two_n, ctx.brute(two_n))
        yield name, _MAP_OK, _MAP_OK if report.ok else report.to_json_dict()


def _check_gf1(ctx: _VerifyContext, two_n_max: int) -> Iterator[CheckRow]:
    bound = two_n_max - 4
    fails = []
    w1 = omega1(bound)
    for i in range(bound + 1):
        for j in range(bound + 1 - i):
            got = w1.egf_coefficient((i, j))
            if (i + j) % 2 == 1:
                want = 0
            else:
                want = ctx.brute(i + j + 4).get(2, j + 3)
            if got != want:
                fails.append(_fail("gf1", i + j + 4, f"(i,j)=({i},{j})", want, got))
    yield CheckRow("gf1", f"i+j<={bound}", fails)


def _check_gf3(ctx: _VerifyContext, two_n_max: int) -> Iterator[CheckRow]:
    # A generator, so that the series is built once per run and inside the
    # first row's timed step.
    w3 = omega(two_n_max - 4)

    def law(ctx: _VerifyContext, two_n: int) -> Iterator[tuple]:
        B = ctx.brute(two_n)
        for m in range(2, two_n + 1):
            for k in range(m + 1, two_n):
                yield f"({m},{k})", B.get(m, k), w3.egf_coefficient(cell_to_exponents(two_n, m, k))

    yield from _per_size("gf3", 4, law)(ctx, two_n_max)


def _check_poupard(ctx: _VerifyContext, two_n_max: int) -> Iterator[CheckRow]:
    for p in range(1, 5):
        max_sum = two_n_max - 3 - p
        if max_sum < 0:
            continue
        grid = omega_grid_from_counts(p, max_sum, ctx.brute)
        fails = [
            _fail("poupard", p + sum(pos) + 5, f"(i,j)={pos}", 0, int(res))
            for pos, res in poupard_check(grid)
        ]
        yield CheckRow("poupard", f"p={p} i+j<={max_sum}", fails)


def _check_pde(ctx: _VerifyContext, two_n_max: int) -> Iterator[CheckRow]:
    for p in range(1, 5):
        residual = pde_check(omega_p(p, 8))
        fails = [_fail("pde", None, "max residual", 0, str(residual))] if residual else []
        yield CheckRow("pde", f"p={p} order=8", fails)


CHECK_FUNCTIONS: dict[str, Callable[[_VerifyContext, int], Iterator[CheckRow]]] = {
    "tables": _per_size("tables", 2, _tables),
    "r1": _per_size("r1", 4, _r1),
    "r2": _per_size("r2", 4, _r2),
    "r3": _per_size("r3", 4, _r3),
    "r4": _per_size("r4", 4, _r4),
    "marginal": _per_size("marginal", 2, _marginal),
    "symmetry": _per_size("symmetry", 2, _symmetry),
    "crossing": _per_size("crossing", 4, _crossing),
    "borders": _per_size("borders", 4, _borders),
    "bijection": _per_size("bijection", 4, _bijection, stop=10),
    "gf1": _check_gf1,
    "gf3": _check_gf3,
    "poupard": _check_poupard,
    "pde": _check_pde,
}
ALL_CHECKS = tuple(CHECK_FUNCTIONS)


def _selection(checks: Iterable[str]) -> tuple[str, ...]:
    """*checks* as a tuple; ValueError if it is a string, is empty, names an
    unknown check or names one twice, so that a bad selection fails before
    any check runs."""
    if isinstance(checks, str):
        raise ValueError(f"checks is a collection of check names, not the string {checks!r}")
    checks = tuple(checks)
    unknown = [c for c in checks if c not in CHECK_FUNCTIONS]
    if unknown or not checks:
        what = f"unknown check {unknown[0]!r}" if unknown else "no check selected"
        raise ValueError(f"{what} (known: {', '.join(ALL_CHECKS)})")
    repeated = [c for i, c in enumerate(checks) if c in checks[:i]]
    if repeated:
        raise ValueError(f"check {repeated[0]!r} is selected more than once")
    return checks


def run_checks(
    two_n_max: int, checks: Iterable[str] = DEFAULT_CHECKS, processes: int = 1
) -> VerifyReport:
    """Run the selected check suites up to *two_n_max* on fresh data.

    A bound that is not an even int >= 4 raises OddSizeError, and a
    selection given as one string, an empty selection, an unknown check name
    or a repeated one raises ValueError, before any check runs.  Each row records the wall time its
    check spent producing it, including any brute-force matrix it was the
    first to need.  *processes* is accepted and unused; dropping it waits
    for a change of the benchmark, which passes it.
    """
    _check_size(two_n_max, 4, "two_n_max", even=True)
    checks = _selection(checks)
    ctx = _VerifyContext()
    report = VerifyReport()
    for name in checks:
        rows = CHECK_FUNCTIONS[name](ctx, two_n_max)
        while True:
            start = time.perf_counter()
            row = next(rows, None)
            if row is None:
                break
            row.seconds = time.perf_counter() - start
            report.rows.append(row)
    return report


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def render_matrix_text(M: JointMatrix) -> str:
    """Mirror of the reference tables: dots for zeros inside the index box,
    blanks for unknown cells, a header row of k values, margins appended.

    At its peak it holds the padded lines and the text joined from them,
    about twice the text.  Each cell is turned into a string once, read from
    its row of the matrix; the column widths are taken from those strings,
    which are dropped once the padded lines are built, and the join takes
    the closing newline from a last empty line, so the text is not copied
    again to end it.
    """
    two_n = M.two_n
    table = [[str(k) for k in range(1, two_n)] + ["f(m,.)"]]
    for row, total in zip(M._cells, M.row_sums()):
        table.append(["" if v is None else str(v) if v else "." for v in row] + [str(total)])
    table.append([str(c) for c in M.col_sums()] + [f"E={M.total()}"])
    widths = [max(map(len, column)) for column in zip(*table)]
    names = ["k="] + [f"m={m}" for m in range(2, two_n + 1)] + ["f(.,k)"]
    name_w = max(map(len, names))
    lines = [
        f"{name.rjust(name_w)}  {'  '.join(map(str.rjust, row, widths))}".rstrip()
        for name, row in zip(names, table)
    ]
    del table
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_enumerate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    _cap_brute_force(parser, "--n", args.n)
    if args.emit == "count":
        print(sum(1 for _ in alternating_permutations(args.n)))
    elif args.emit == "perms":
        for word in alternating_permutations(args.n):
            print(" ".join(map(str, word)))
    else:
        for tree in enumerate_trees(args.n):
            print(json.dumps(tree.to_json_dict()))
    return 0


def _cap_brute_force(parser: argparse.ArgumentParser, flag: str, n: int) -> None:
    if n > BRUTE_MAX_TWO_N:
        parser.error(
            f"{flag} {n} needs brute force over {tree_count(n):,} trees; "
            f"the brute-force cap is {BRUTE_MAX_TWO_N}"
        )


def _cmd_matrix(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.method != "recurrence":
        _cap_brute_force(parser, "--two-n", args.two_n)
    if args.method == "brute":
        M = joint_matrix_bruteforce(args.two_n)
    else:
        M = RecurrenceEngine().assemble(args.two_n, fill_interior=(args.method == "hybrid"))
    if args.format == "text":
        sys.stdout.write(render_matrix_text(M))
    elif args.format == "csv":
        sys.stdout.write(M.to_csv())
    else:
        print(json.dumps(M.to_json_dict()))
    return 0


def _cmd_entringer(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.method == "rule":
        tri = entringer_triangle(args.n_max)
    else:
        _cap_brute_force(parser, "--n-max", args.n_max)
        tri = entringer_bruteforce(args.n_max)
    for n in range(2, args.n_max + 1):
        print(" ".join(map(str, tri.row(n))))
    return 0


def _cmd_series(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    # Each target with its arity and its cap: the largest order that builds in
    # about the 7 s of the brute-force cap (2-core VM, Python 3.11: sec 1400 in
    # 6.9 s, omega1 132 in 7.0 s, omega 66 in 6.4 s, omega 68 in 7.7-8.4 s).
    builders = {"sec": (sec_series, 1, 1400), "omega1": (omega1, 2, 132), "omega": (omega, 3, 66)}
    builder, arity, cap = builders[args.target]
    if args.order > cap:
        parser.error(f"--order {args.order} is above the cap of target {args.target}, {cap}")
    s = builder(args.order)
    if args.query is None:
        for line in s.dump_lines():
            print(line)
        return 0
    try:
        exps = tuple(int(x) for x in args.query.split(","))
    except ValueError:
        parser.error(f"bad exponent list {args.query!r}")
    if len(exps) != arity:
        parser.error(f"target {args.target} takes {arity} exponents, got {len(exps)}")
    try:
        c = s.egf_coefficient(exps)
    except OutOfOrderError as exc:
        parser.error(str(exc))
    print(c if c.denominator != 1 else c.numerator)
    return 0


def _cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    _cap_brute_force(parser, "--two-n-max", args.two_n_max)
    try:
        checks = _selection(c.strip() for c in args.checks.split(",") if c.strip())
    except ValueError as exc:
        parser.error(str(exc))
    report = run_checks(args.two_n_max, checks)
    if args.format == "json":
        print(json.dumps(report.to_json_dict()))
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
    return args.run(args, args.parser)  # the subcommand's parser, for its usage line


if __name__ == "__main__":
    sys.exit(main())
