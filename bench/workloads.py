"""The three benchmark workloads: seeded inputs, one timed pass, exact checks.

* ``certify``  -- ``run_checks(12, ALL_CHECKS, processes=1)``: every check row
  of the verify suite.  Dominated by serial brute force at 2n = 12, with the
  bijection verifiers at 2n <= 10 next.  It takes no input, so the seed has
  no effect.  It runs serially because a pooled run on a small machine
  spreads far more from run to run than a serial one.
* ``tabulate`` -- everything the engine computes without enumerating a tree:
  ``recurrence`` and ``series`` do the work, ``JointMatrix`` serialises.
  The seed picks the cells and exponents read through ``egf_coefficient``.
* ``objects``  -- tree objects: the five bijection verifiers at 2n = 10, the
  word generator through ``entringer_bruteforce(11)``, and seeded uniform
  down-up words of sizes 12..20 through ``tree_from_perm``, ``stats`` and a
  validated JSON round trip.  No fused counting.

Each workload is a closed loop with one client: a pass starts when the one
before it has returned.  A pass returns its work counts; these must repeat
exactly from pass to pass and from run to run.  Every operation's result is
checked exactly, against :mod:`reference` wherever an independent value
exists.
"""

from __future__ import annotations

import contextlib
import csv
import json
import random
import traceback

from reference import Reference, is_down_up, word_tree_stats

WORKLOADS = ("certify", "tabulate", "objects")

CERTIFY_TWO_N = 12
# Rows run_checks(12, ALL_CHECKS) yields per check id: 66 in all.
CERTIFY_ROWS = {
    "tables": 6, "r1": 5, "r2": 5, "r3": 5, "r4": 5, "marginal": 6, "symmetry": 6,
    "crossing": 5, "borders": 5, "bijection": 4, "gf1": 1, "gf3": 5, "poupard": 4, "pde": 4,
}

TAB_SIZES = (40, 80, 120)
TRIANGLE_N = 200
OMEGA_ORDER, OMEGA1_ORDER, OMEGA_P_ORDER, SEC_ORDER = 10, 12, 8, 40
N_OMEGA_CELLS, N_OMEGA1_CELLS, N_OMEGA_P_CELLS = 48, 24, 12

MAP_TWO_N = 10
ENTRINGER_N = 11
WORD_SIZES = range(12, 21)
WORDS_PER_SIZE = 200

# Largest Entringer index any workload or probe reads.
REFERENCE_N = TRIANGLE_N


class Checker:
    """Counts operations, failed operations and checked items."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.items = 0
        self.failures: list[str] = []

    def op(self, what: str, pairs, items: int | None = None) -> bool:
        """One operation whose result is judged by (expected, actual) pairs.

        *items* defaults to the number of pairs, i.e. the integers checked.
        """
        pairs = list(pairs)
        bad = [(i, e, a) for i, (e, a) in enumerate(pairs) if e != a]
        self.attempted += 1
        self.items += len(pairs) if items is None else items
        if bad:
            self.failed += 1
            i, e, a = bad[0]
            self.failures.append(
                f"{what}: {len(bad)} of {len(pairs)} checks differ; first #{i}: "
                f"expected {e!r}, got {a!r}"
            )
        return not bad

    @contextlib.contextmanager
    def guard(self, what: str):
        """A crash inside the block is one more failed operation."""
        try:
            yield
        except Exception:  # noqa: BLE001 - any crash of the program is a failed op
            self.attempted += 1
            self.failed += 1
            self.failures.append(f"{what}: raised\n{traceback.format_exc(limit=4)}")


# -- inputs ---------------------------------------------------------------------


def _exponent_pairs(order: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(order + 1) for j in range(order + 1 - i)]


def make_inputs(workload: str, seed: int, ref: Reference) -> dict:
    rng = random.Random(seed)
    if workload == "certify":
        return {}
    if workload == "tabulate":
        upper = [
            (two_n, m, k)
            for two_n in range(4, OMEGA_ORDER + 5, 2)
            for m in range(2, two_n)
            for k in range(m + 1, two_n)
        ]
        return {
            "omega": rng.sample(upper, N_OMEGA_CELLS),
            "omega1": rng.sample(_exponent_pairs(OMEGA1_ORDER), N_OMEGA1_CELLS),
            "omega_p": {
                p: rng.sample(_exponent_pairs(OMEGA_P_ORDER), N_OMEGA_P_CELLS) for p in range(1, 5)
            },
        }
    if workload == "objects":
        return {
            "words": [
                ref.sample_down_up(n, rng) for n in WORD_SIZES for _ in range(WORDS_PER_SIZE)
            ]
        }
    raise ValueError(f"unknown workload {workload!r}")


# -- certify ----------------------------------------------------------------------


def check_verify_report(report, ref: Reference, n_verifiers: int, ck: Checker) -> int:
    """Judge every row; return the trees the run enumerated, read off the
    rows: brute force once per size of the tables rows, and every verifier
    once per size of the bijection rows."""
    trees = 0
    per_check: dict[str, int] = {}
    for row in report.rows:
        per_check[row.check] = per_check.get(row.check, 0) + 1
        items = 0
        if row.check in ("tables", "bijection") and row.parameter.startswith("2n="):
            n = ref.trees(int(row.parameter[3:]))
            items = n if row.check == "tables" else n_verifiers * n
        trees += items
        what = f"certify {row.check} {row.parameter} {row.failures[:1]}"
        ck.op(what, [("pass", row.status)], items)
    pairs = [(want, per_check.get(c, 0)) for c, want in CERTIFY_ROWS.items()]
    ck.op("certify row counts", pairs, 0)
    return trees


def certify_pass(api, tr, inputs: dict, ref: Reference, ck: Checker) -> dict:
    with ck.guard("run_checks"):
        report = api.run_checks(CERTIFY_TWO_N, api.ALL_CHECKS, processes=1)
        trees = check_verify_report(report, ref, len(api.MAP_VERIFIERS), ck)
        return {"rows": len(report.rows), "trees": trees}
    return {}


# -- tabulate ---------------------------------------------------------------------


def check_matrix(M, prev, ref: Reference, ck: Checker) -> tuple[int, int]:
    """Exact checks on an assembled matrix; returns (known, unknown) cells.

    Independent values: the total and the first two column sums (zigzag
    numbers), the bottom row (Entringer numbers) and the number of unknown
    cells (the interior of the lower triangle).  Identities: counter-diagonal
    symmetry of every cell with m - 1 <= k, the first top row against the previous
    column sums, zero diagonal, and the sums of the complete rows 2, 3 and
    column 2n-1 against the attached margins.
    """
    n2 = M.two_n
    cells = {(m, k): v for m, k, v in M.known_cells()}
    rows, cols = M.row_sums(), M.col_sums()
    pairs = [
        (ref.trees(n2), M.total()),
        (ref.trees(n2 - 2), cols[0]),
        (3 * ref.trees(n2 - 2), cols[1]),
        ((n2 - 4) * (n2 - 3) // 2, (n2 - 1) ** 2 - len(cells)),
    ]
    for (m, k), v in cells.items():
        mirror = (n2 + 1 - k, n2 + 1 - m)
        if m - 1 <= k and (m, k) < mirror:
            pairs.append((v, cells.get(mirror)))
    bottom = ref.triangle_row(n2 - 2)
    pairs += [(bottom[k - 2], cells.get((n2, k))) for k in range(2, n2 - 1)]
    prev_cols = prev.col_sums()
    pairs += [(prev_cols[k - 3], cells.get((2, k))) for k in range(3, n2)]
    pairs += [(0, cells.get((m, m))) for m in range(2, n2)]
    for i, m in enumerate((2, 3)):
        pairs.append((rows[i], sum(cells[(m, k)] for k in range(1, n2))))
    pairs.append((cols[-1], sum(cells[(m, n2 - 1)] for m in range(2, n2 + 1))))
    ck.op(f"assemble({n2})", pairs)
    return len(cells), (n2 - 1) ** 2 - len(cells)


def check_csv(M, text: str) -> list:
    rows = list(csv.reader(text.splitlines()))
    pairs = [(M.two_n, len(rows))]
    for r in rows[1:]:
        m = int(r[0])
        for k, s in enumerate(r[1:], start=1):
            v = M.cell(m, k)
            pairs.append(("" if v is None else str(v), s))
    return pairs


def check_text(M, text: str) -> list:
    lines = text.splitlines()
    rows = M.row_sums()
    pairs = [(M.two_n + 1, len(lines)), (f"E={M.total()}", lines[-1].split()[-1])]
    pairs += [(str(rows[i]), lines[1 + i].split()[-1]) for i in range(M.two_n - 1)]
    return pairs


def tabulate_pass(api, tr, inputs: dict, ref: Reference, ck: Checker) -> dict:
    counts: dict[str, int] = {}
    with ck.guard("assemble"):
        for two_n in TAB_SIZES:
            engine = api.RecurrenceEngine()
            M = tr.call("recurrence.RecurrenceEngine.assemble", engine.assemble, two_n)
            known, unknown = check_matrix(M, engine.assemble(two_n - 2), ref, ck)
            counts[f"cells_known.{two_n}"], counts[f"cells_unknown.{two_n}"] = known, unknown
        small = {s: engine.assemble(s) for s in range(4, 17, 2)}

    with ck.guard("entringer_triangle"):
        tri = api.entringer_triangle(TRIANGLE_N)
        pairs = []
        for n in range(2, TRIANGLE_N + 1):
            want = ref.triangle_row(n)
            got = tri.row(n)
            pairs.append((len(want), len(got)))
            pairs += zip(want, got)
        ck.op(f"entringer_triangle({TRIANGLE_N})", pairs)

    with ck.guard("omega"):
        w = api.omega(OMEGA_ORDER)
        counts[f"omega.terms.{OMEGA_ORDER}"] = len(w.coeffs)
        for two_n, m, k in inputs["omega"]:
            e = api.cell_to_exponents(two_n, m, k)
            got = tr.call("series.TriSeries.egf_coefficient", w.egf_coefficient, e)
            mirrored = tr.call("series.TriSeries.egf_coefficient", w.egf_coefficient, e[::-1])
            ck.op(f"omega egf {e}", [(small[two_n].get(m, k), got), (got, mirrored)])

    with ck.guard("omega1"):
        w1 = api.omega1(OMEGA1_ORDER)
        counts[f"omega1.terms.{OMEGA1_ORDER}"] = len(w1.coeffs)
        for i, j in inputs["omega1"]:
            want = 0 if (i + j) % 2 else small[i + j + 4].get(2, j + 3)
            got = tr.call("series.TriSeries.egf_coefficient", w1.egf_coefficient, (i, j))
            ck.op(f"omega1 egf {(i, j)}", [(want, got)])

    for p in range(1, 5):
        with ck.guard(f"omega_p({p})"):
            G = api.omega_p(p, OMEGA_P_ORDER)
            for i, j in inputs["omega_p"][p]:
                if (i + j) % 2 == p % 2:
                    want = 0
                else:
                    want = small[p + i + j + 3].get(p + 1, p + j + 2)
                got = tr.call("series.TriSeries.egf_coefficient", G.egf_coefficient, (i, j))
                ck.op(f"omega_p({p}) egf {(i, j)}", [(want, got)])
            if p == 1:
                same = tr.call("series.TriSeries.truncate", w1.truncate, OMEGA_P_ORDER) == G
                ck.op("omega_p(1) == omega1", [(True, same)])
            ck.op(f"pde_check(omega_p({p}))", [(0, api.pde_check(G))])
            rebuilt = api.reconstruct_from_rows(G)
            ck.op(f"reconstruct_from_rows(omega_p({p}))", [(True, rebuilt.agrees_with(G))])

    with ck.guard("sec_series"):
        s = api.sec_series(SEC_ORDER)
        pairs = [
            (0 if d % 2 else ref.trees(d), s.egf_coefficient((d,))) for d in range(SEC_ORDER + 1)
        ]
        ck.op(f"sec_series({SEC_ORDER})", pairs)

    with ck.guard("json round trip"):
        data = tr.call("distributions.JointMatrix.to_json_dict", M.to_json_dict)
        back = tr.call(
            "distributions.JointMatrix.from_json_dict", api.JointMatrix.from_json_dict, data
        )
        ck.op(
            f"json round trip M_{M.two_n}",
            [
                (True, back.same_counts(M)),
                (M.row_sums(), back.row_sums()),
                (M.col_sums(), back.col_sums()),
                (M.total(), back.total()),
            ],
        )
    with ck.guard("to_csv"):
        text = tr.call("distributions.JointMatrix.to_csv", M.to_csv)
        ck.op(f"to_csv M_{M.two_n}", check_csv(M, text))
    with ck.guard("render_matrix_text"):
        ck.op(f"render_matrix_text M_{M.two_n}", check_text(M, api.render_matrix_text(M)))
    return counts


# -- objects ----------------------------------------------------------------------


def check_map_report(rep, ref: Reference, ck: Checker) -> int:
    """Judge a verifier by ``MapReport.ok``, which covers codomain coverage,
    and by its domain and image sizes; returns the trees it built or
    enumerated."""
    copies = 3 if rep.map == "tripling_map" else 1
    domain = ref.trees(rep.two_n - 2)
    trees = ref.trees(rep.two_n) + rep.image
    ck.op(
        f"{rep.map}({rep.two_n})",
        [(True, rep.ok), (domain, rep.domain), (copies * domain, rep.image)],
        trees,
    )
    return trees


def check_word(api, tr, word: tuple[int, ...], ck: Checker) -> None:
    tree = api.tree_from_perm(word)
    stats = tr.call("trees.IncTree.stats", tree.stats)
    ws = api.word_stats(word)
    projection = tr.call("trees.IncTree.projection", tree.projection)
    data = json.loads(json.dumps(tr.call("trees.IncTree.to_json_dict", tree.to_json_dict)))
    back = tr.call("trees.IncTree.from_json_dict", api.IncTree.from_json_dict, data)
    want = word_tree_stats(word)
    pairs = [
        (True, is_down_up(word)),
        (want, tuple(stats)),
        (want, tuple(ws)),
        (word, projection),
        (True, back == tree),
    ]
    ck.op(f"tree of {word}", pairs, 1)


def objects_pass(api, tr, inputs: dict, ref: Reference, ck: Checker) -> dict:
    counts: dict[str, int] = {}
    for name, verify in api.MAP_VERIFIERS.items():
        with ck.guard(name):
            rep = verify(MAP_TWO_N)
            check_map_report(rep, ref, ck)
            counts[f"{name}.domain"], counts[f"{name}.image"] = rep.domain, rep.image
    with ck.guard("entringer_bruteforce"):
        tri = api.entringer_bruteforce(ENTRINGER_N)
        rows = [tri.row(n) for n in range(2, ENTRINGER_N + 1)]
        trees = sum(map(sum, rows))
        pairs = [(ref.triangle_row(n), row) for n, row in zip(range(2, ENTRINGER_N + 1), rows)]
        ck.op(f"entringer_bruteforce({ENTRINGER_N})", pairs, trees)
        counts["entringer.trees"] = trees
    for word in inputs["words"]:
        with ck.guard(f"tree of {word}"):
            check_word(api, tr, word, ck)
    counts["words"] = len(inputs["words"])
    return counts


PASSES = {"certify": certify_pass, "tabulate": tabulate_pass, "objects": objects_pass}
