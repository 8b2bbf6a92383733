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
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .bijections import MAP_VERIFIERS, verify_map
from .distributions import (
    JointMatrix,
    OddSizeError,
    entringer_bruteforce,
    joint_matrix_bruteforce,
)
from .recurrence import (
    RecurrenceEngine,
    check_symmetry,
    entringer_triangle,
    secant_numbers,
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
from .trees import alternating_permutations, enumerate_trees

# Largest size counted by brute force: E_14 = 199,360,981 trees take minutes,
# E_16 = 19,391,512,145 would take hours.
BRUTE_MAX_TWO_N = 14

DEFAULT_CHECKS = ("tables", "marginal", "r1", "r2", "symmetry")
ALL_CHECKS = (
    "tables",
    "r1",
    "r2",
    "r3",
    "r4",
    "marginal",
    "symmetry",
    "crossing",
    "borders",
    "bijection",
    "gf1",
    "gf3",
    "poupard",
    "pde",
)


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
    def __init__(self, processes: int = 1):
        self.processes = processes
        self.engine = RecurrenceEngine()
        self._brute: dict[int, JointMatrix] = {}

    def brute(self, two_n: int) -> JointMatrix:
        if two_n not in self._brute:
            self._brute[two_n] = joint_matrix_bruteforce(two_n, processes=self.processes)
        return self._brute[two_n]


def _sizes(two_n_max: int, start: int = 2) -> Iterable[int]:
    return range(start, two_n_max + 1, 2)


def _check_tables(ctx: _VerifyContext, two_n_max: int) -> Iterator[CheckRow]:
    for two_n in _sizes(two_n_max):
        fails = []
        B = ctx.brute(two_n)
        golden = REFERENCE_JOINT.get(two_n)
        if golden is not None:
            for m in range(2, two_n + 1):
                for k in range(1, two_n):
                    want = golden[m - 2][k - 1]
                    got = B.get(m, k)
                    if want != got:
                        fails.append(_fail("tables", two_n, f"({m},{k})", want, got))
            if B.total() != REFERENCE_TOTALS[two_n]:
                fails.append(
                    _fail("tables", two_n, "total", REFERENCE_TOTALS[two_n], B.total())
                )
        if two_n >= 4:
            A = ctx.engine.assemble(two_n)
            for m, k, v in A.known_cells():
                if v != B.get(m, k):
                    fails.append(
                        _fail("tables", two_n, f"recurrence ({m},{k})", B.get(m, k), v)
                    )
            if A.col_sums() != B.col_sums():
                fails.append(
                    _fail("tables", two_n, "col sums", B.col_sums(), A.col_sums())
                )
        yield CheckRow("tables", f"2n={two_n}", fails)


def _check_marginal(ctx: _VerifyContext, two_n_max: int) -> Iterator[CheckRow]:
    for two_n in _sizes(two_n_max):
        fails = []
        B = ctx.brute(two_n)
        rows, cols = B.row_sums(), B.col_sums()
        for k in range(2, two_n + 1):
            if cols[k - 2] != rows[k - 2]:
                fails.append(
                    _fail("marginal", two_n, f"col {k - 1} vs row {k}", cols[k - 2], rows[k - 2])
                )
        yield CheckRow("marginal", f"2n={two_n}", fails)


def _check_r1(ctx: _VerifyContext, two_n_max: int) -> Iterator[CheckRow]:
    for two_n in _sizes(two_n_max, 4):
        fails = []
        B, P = ctx.brute(two_n), ctx.brute(two_n - 2)
        for k in range(1, two_n):
            for m in range(2, k - 2):
                r = B.get(m + 2, k) - 2 * B.get(m + 1, k) + B.get(m, k) + 4 * P.get(m, k - 2)
                if r:
                    fails.append(_fail("r1", two_n, f"({m},{k})", 0, r))
        yield CheckRow("r1", f"2n={two_n}", fails)


def _check_r2(ctx: _VerifyContext, two_n_max: int) -> Iterator[CheckRow]:
    for two_n in _sizes(two_n_max, 4):
        fails = []
        B, P = ctx.brute(two_n), ctx.brute(two_n - 2)
        for k in range(1, two_n - 2):
            for m in range(2, k):
                r = B.get(m, k + 2) - 2 * B.get(m, k + 1) + B.get(m, k) + 4 * P.get(m, k)
                if r:
                    fails.append(_fail("r2", two_n, f"({m},{k})", 0, r))
        yield CheckRow("r2", f"2n={two_n}", fails)


def _check_r3(ctx: _VerifyContext, two_n_max: int) -> Iterator[CheckRow]:
    for two_n in _sizes(two_n_max, 4):
        fails = []
        rows = ctx.brute(two_n).row_sums()
        prev_rows = ctx.brute(two_n - 2).row_sums()

        def row(m: int, rows=rows, two_n=two_n) -> int:
            return rows[m - 2] if 2 <= m <= two_n else 0

        for m in range(2, two_n - 1):
            r = row(m + 2) - 2 * row(m + 1) + row(m) + 4 * prev_rows[m - 2]
            if r:
                fails.append(_fail("r3", two_n, f"m={m}", 0, r))
        yield CheckRow("r3", f"2n={two_n}", fails)


def _check_r4(ctx: _VerifyContext, two_n_max: int) -> Iterator[CheckRow]:
    for two_n in _sizes(two_n_max, 4):
        fails = []
        cols = ctx.brute(two_n).col_sums()
        prev_cols = ctx.brute(two_n - 2).col_sums()
        for k in range(1, two_n - 2):
            r = cols[k + 1] - 2 * cols[k] + cols[k - 1] + 4 * prev_cols[k - 1]
            if r:
                fails.append(_fail("r4", two_n, f"k={k}", 0, r))
        yield CheckRow("r4", f"2n={two_n}", fails)


def _check_symmetry(ctx: _VerifyContext, two_n_max: int) -> Iterator[CheckRow]:
    for two_n in _sizes(two_n_max):
        fails = [
            _fail("symmetry", two_n, f"{cell} vs {mirror}", a, b)
            for cell, mirror, a, b in check_symmetry(ctx.brute(two_n))
        ]
        yield CheckRow("symmetry", f"2n={two_n}", fails)


def _check_crossing(ctx: _VerifyContext, two_n_max: int) -> Iterator[CheckRow]:
    for two_n in _sizes(two_n_max, 4):
        fails = []
        B = ctx.brute(two_n)
        for k in range(3, two_n - 1):
            lhs = B.get(k - 1, k) + B.get(k + 1, k)
            rhs = B.get(k, k - 1) + B.get(k, k + 1)
            if lhs != rhs:
                fails.append(_fail("crossing", two_n, f"k={k}", lhs, rhs))
        yield CheckRow("crossing", f"2n={two_n}", fails)


def _check_borders(ctx: _VerifyContext, two_n_max: int) -> Iterator[CheckRow]:
    secants = secant_numbers(two_n_max)
    for two_n in _sizes(two_n_max, 4):
        fails = []
        B = ctx.brute(two_n)
        prev_cols = ctx.brute(two_n - 2).col_sums()
        top = two_n - 1

        def expect(loc: str, want, got) -> None:
            if want != got:
                fails.append(_fail("borders", two_n, loc, want, got))

        for k in range(3, top + 1):
            expect(f"first top row k={k}", prev_cols[k - 3], B.get(2, k))
            expect(f"first column mirror k={k}", B.get(2, k), B.get(k, 1))
            expect(f"rightmost mirror k={k}", B.get(2, k), B.get(k - 1, top))
        for k in range(4, top + 1):
            expect(f"second top row k={k}", 3 * B.get(2, k), B.get(3, k))
        for m in range(2, two_n - 1):
            expect(f"rightmost column m={m}", prev_cols[m - 2], B.get(m, top))
        for m in range(2, two_n - 2):
            expect(f"next to rightmost m={m}", 3 * B.get(m, top), B.get(m, top - 1))
        ent_row = ctx.engine.entringer_row(two_n - 2)
        for k in range(2, two_n - 1):
            expect(f"bottom row k={k}", ent_row[k - 2], B.get(two_n, k))
        expect("zero corner (2,1)", 0, B.get(2, 1))
        expect("zero corner (2n,2n-1)", 0, B.get(two_n, top))
        expect("subdiagonal seed", 2 * B.get(3, 1), B.get(3, 2))
        expect("subdiagonal mirror", B.get(3, 2), B.get(two_n - 1, two_n - 2))
        expect("bottom pair", 2 * B.get(two_n, two_n - 2), B.get(3, 2))
        expect("seed value", secants[(two_n - 4) // 2], B.get(3, 1))
        yield CheckRow("borders", f"2n={two_n}", fails)


def _check_bijection(ctx: _VerifyContext, two_n_max: int) -> Iterator[CheckRow]:
    for two_n in _sizes(min(two_n_max, 10), 4):
        fails = []
        for name in MAP_VERIFIERS:
            report = verify_map(name, two_n, ctx.brute(two_n))
            if not report.ok:
                fails.append(
                    _fail(
                        "bijection",
                        two_n,
                        name,
                        "injective/covering/transporting",
                        report.to_json_dict(),
                    )
                )
        yield CheckRow("bijection", f"2n={two_n}", fails)


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
    w3 = omega(two_n_max - 4)
    for two_n in _sizes(two_n_max, 4):
        fails = []
        B = ctx.brute(two_n)
        for m in range(2, two_n + 1):
            for k in range(m + 1, two_n):
                got = w3.egf_coefficient(cell_to_exponents(two_n, m, k))
                want = B.get(m, k)
                if got != want:
                    fails.append(_fail("gf3", two_n, f"({m},{k})", want, got))
        yield CheckRow("gf3", f"2n={two_n}", fails)


def _check_poupard(ctx: _VerifyContext, two_n_max: int) -> Iterator[CheckRow]:
    for p in range(1, 5):
        max_sum = two_n_max - 3 - p
        if max_sum < 0:
            continue
        grid = omega_grid_from_counts(p, max_sum, ctx.brute)
        fails = [
            _fail("poupard", f"p={p}", f"(i,j)={pos}", 0, int(res))
            for pos, res in poupard_check(grid)
        ]
        yield CheckRow("poupard", f"p={p} i+j<={max_sum}", fails)


def _check_pde(ctx: _VerifyContext, two_n_max: int) -> Iterator[CheckRow]:
    for p in range(1, 5):
        fails = []
        residual = pde_check(omega_p(p, 8))
        if residual:
            fails.append(_fail("pde", f"p={p}", "max residual", 0, str(residual)))
        yield CheckRow("pde", f"p={p} order=8", fails)


CHECK_FUNCTIONS: dict[str, Callable[[_VerifyContext, int], Iterator[CheckRow]]] = {
    "tables": _check_tables,
    "r1": _check_r1,
    "r2": _check_r2,
    "r3": _check_r3,
    "r4": _check_r4,
    "marginal": _check_marginal,
    "symmetry": _check_symmetry,
    "crossing": _check_crossing,
    "borders": _check_borders,
    "bijection": _check_bijection,
    "gf1": _check_gf1,
    "gf3": _check_gf3,
    "poupard": _check_poupard,
    "pde": _check_pde,
}


def run_checks(
    two_n_max: int, checks: Iterable[str] = DEFAULT_CHECKS, processes: int = 1
) -> VerifyReport:
    """Run the selected check suites up to *two_n_max* on fresh data.

    Each row records the wall time its check spent producing it, including
    any brute-force matrix it was the first to need.
    """
    ctx = _VerifyContext(processes=processes)
    report = VerifyReport()
    for name in checks:
        if name not in CHECK_FUNCTIONS:
            raise ValueError(f"unknown check {name!r}")
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
    blanks for unknown cells, a header row of k values, margins appended."""
    two_n = M.two_n

    def show(v: int | None) -> str:
        if v is None:
            return ""
        if v == 0:
            return "."
        return str(v)

    rows = M.row_sums()
    cols = M.col_sums()
    body = [
        [show(M.cell(m, k)) for k in range(1, two_n)] + [str(rows[m - 2])]
        for m in range(2, two_n + 1)
    ]
    header = [str(k) for k in range(1, two_n)] + ["f(m,.)"]
    footer = [str(c) for c in cols] + [f"E={M.total()}"]
    names = ["k="] + [f"m={m}" for m in range(2, two_n + 1)] + ["f(.,k)"]
    table = [header] + body + [footer]
    widths = [max(len(r[j]) for r in table) for j in range(len(header))]
    name_w = max(len(s) for s in names)
    out = []
    for name, row in zip(names, table):
        cells = "  ".join(s.rjust(w) for s, w in zip(row, widths))
        out.append(f"{name.rjust(name_w)}  {cells}".rstrip())
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.emit == "count":
        print(sum(1 for _ in alternating_permutations(args.n)))
    elif args.emit == "perms":
        for word in alternating_permutations(args.n):
            print(" ".join(map(str, word)))
    else:
        for tree in enumerate_trees(args.n):
            print(json.dumps(tree.to_json_dict()))
    return 0


def _cap_brute_force(parser: argparse.ArgumentParser, flag: str, two_n: int) -> None:
    if two_n > BRUTE_MAX_TWO_N:
        parser.error(
            f"{flag} {two_n} needs brute force over {tree_count(two_n):,} trees; "
            f"the brute-force cap is {BRUTE_MAX_TWO_N}"
        )


def _cmd_matrix(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.method != "recurrence" and args.two_n % 2 == 0:  # odd sizes fail below
        _cap_brute_force(parser, "--two-n", args.two_n)
    try:
        if args.method == "brute":
            M = joint_matrix_bruteforce(args.two_n, processes=args.threads)
        else:
            M = RecurrenceEngine().assemble(
                args.two_n, fill_interior=(args.method == "hybrid")
            )
    except OddSizeError as exc:
        parser.error(str(exc))
    if args.format == "text":
        sys.stdout.write(render_matrix_text(M))
    elif args.format == "csv":
        sys.stdout.write(M.to_csv())
    else:
        print(json.dumps(M.to_json_dict()))
    return 0


def _cmd_entringer(args: argparse.Namespace) -> int:
    if args.method == "rule":
        tri = entringer_triangle(args.n_max)
    else:
        tri = entringer_bruteforce(args.n_max)
    for n in range(2, args.n_max + 1):
        print(" ".join(map(str, tri.row(n))))
    return 0


def _cmd_series(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    builders = {"sec": (sec_series, 1), "omega1": (omega1, 2), "omega": (omega, 3)}
    builder, arity = builders[args.target]
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
    if args.two_n_max < 4 or args.two_n_max % 2:
        parser.error(f"--two-n-max must be even and >= 4, got {args.two_n_max}")
    _cap_brute_force(parser, "--two-n-max", args.two_n_max)
    checks = tuple(c.strip() for c in args.checks.split(",") if c.strip())
    for c in checks:
        if c not in CHECK_FUNCTIONS:
            parser.error(f"unknown check {c!r} (known: {', '.join(ALL_CHECKS)})")
    report = run_checks(args.two_n_max, checks, processes=args.threads)
    if args.format == "json":
        print(json.dumps(report.to_json_dict()))
    else:
        sys.stdout.write(report.to_text())
    return 0 if report.overall == "pass" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secant-trees",
        description="Exact enumeration and cross-verification of complete "
        "increasing trees and their eoc/pom/ent statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stream trees of one size")
    p.add_argument("--n", type=int, required=True, help="tree size, n >= 1")
    p.add_argument("--emit", choices=("count", "perms", "trees"), default="count")

    p = sub.add_parser("matrix", help="print a joint (eoc, pom) matrix")
    p.add_argument("--two-n", dest="two_n", type=int, required=True)
    p.add_argument("--method", choices=("brute", "recurrence", "hybrid"), default="brute")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--threads", type=int, default=None)

    p = sub.add_parser("entringer", help="print rightmost-label triangle rows")
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    p.add_argument("--method", choices=("rule", "brute"), default="rule")

    p = sub.add_parser("series", help="dump or query a generating function")
    p.add_argument("--target", choices=("sec", "omega1", "omega"), required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--query", type=str, default=None, help="comma-separated exponents")

    p = sub.add_parser("verify", help="run the cross-validation suite")
    p.add_argument("--two-n-max", dest="two_n_max", type=int, default=10)
    p.add_argument("--checks", type=str, default=",".join(DEFAULT_CHECKS))
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--threads", type=int, default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "threads"):
        if args.threads is not None and args.threads < 1:
            parser.error(f"--threads must be >= 1, got {args.threads}")
        env = os.environ.get("STC_THREADS")
        if env is not None:
            try:
                args.threads = int(env)
            except ValueError:
                parser.error(f"STC_THREADS must be an integer, got {env!r}")
            if args.threads < 1:
                parser.error(f"STC_THREADS must be >= 1, got {env!r}")
        elif args.threads is None:
            args.threads = os.cpu_count() or 1
    if args.command == "enumerate":
        if args.n < 1:
            parser.error("--n must be >= 1")
        return _cmd_enumerate(args)
    if args.command == "matrix":
        return _cmd_matrix(args, parser)
    if args.command == "entringer":
        if args.n_max < 2:
            parser.error("--n-max must be >= 2")
        return _cmd_entringer(args)
    if args.command == "series":
        if args.order < 0:
            parser.error("--order must be >= 0")
        return _cmd_series(args, parser)
    return _cmd_verify(args, parser)


if __name__ == "__main__":
    sys.exit(main())
