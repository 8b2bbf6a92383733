"""Acceptance suite: every exit criterion at its stated size and tolerance.

All comparisons are exact integer or rational equality; there are no
tolerances to tune.  Each test prints one PASS line (run pytest with -s or
-rA to see them); a failure reads as the usual pytest assertion.  The
size-12 oracle (2,702,765 trees) is enumerated once and shared through the
session cache.
"""

import time

from secant_trees.bijections import MAP_VERIFIERS
from secant_trees.distributions import ent_distribution
from secant_trees.recurrence import (
    RecurrenceEngine,
    assemble,
    check_symmetry,
    entringer_triangle,
    secant_numbers,
)
from secant_trees.reference_tables import (
    REFERENCE_JOINT,
    REFERENCE_TOTALS,
    REFERENCE_TRIANGLE,
)
from secant_trees.series import (
    cell_to_exponents,
    omega,
    omega1,
    omega_grid_from_counts,
    omega_p,
    pde_check,
    poupard_check,
    reconstruct_from_rows,
    row_series,
    sec_series,
)

SIZES_TO_12 = (4, 6, 8, 10, 12)


def _report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion:2d} PASS: {text}")


def test_criterion_01_golden_tables(brute):
    t0 = time.time()
    for two_n, golden in REFERENCE_JOINT.items():
        M = brute(two_n)
        for m in range(2, two_n + 1):
            for k in range(1, two_n):
                assert M.get(m, k) == golden[m - 2][k - 1], (two_n, m, k)
        assert M.row_sums() == tuple(sum(r) for r in golden)
        assert M.col_sums() == tuple(
            sum(r[j] for r in golden) for j in range(two_n - 1)
        )
        assert M.total() == REFERENCE_TOTALS[two_n]
    _report(1, f"brute force reproduces M_2..M_14 with margins "
               f"({time.time() - t0:.2f}s)")


def test_criterion_02_recurrence_equals_oracle(brute):
    t0 = time.time()
    engine = RecurrenceEngine()
    checked = 0
    for two_n in SIZES_TO_12:
        A = engine.assemble(two_n)
        B = brute(two_n)
        for m, k, v in A.known_cells():
            assert v == B.get(m, k), (two_n, m, k)
            checked += 1
        assert A.col_sums() == B.col_sums()
    assert brute(12).total() == 2702765
    _report(2, f"no-fill recurrence matches the oracle on {checked} known "
               f"cells up to size 12 ({time.time() - t0:.1f}s)")


def test_criterion_03_difference_systems(brute):
    for two_n in SIZES_TO_12:
        B, P = brute(two_n), brute(two_n - 2)
        for k in range(1, two_n):  # row rule: 2 <= m <= k-3
            for m in range(2, k - 2):
                assert (
                    B.get(m + 2, k) - 2 * B.get(m + 1, k) + B.get(m, k)
                    + 4 * P.get(m, k - 2) == 0
                ), ("r1", two_n, m, k)
        for k in range(1, two_n - 2):  # column rule: 2 <= m <= k-1
            for m in range(2, k):
                assert (
                    B.get(m, k + 2) - 2 * B.get(m, k + 1) + B.get(m, k)
                    + 4 * P.get(m, k) == 0
                ), ("r2", two_n, m, k)
        rows, prows = B.row_sums(), P.row_sums()

        def row(m, rows=rows, two_n=two_n):
            return rows[m - 2] if 2 <= m <= two_n else 0

        for m in range(2, two_n - 1):  # marginal row rule
            assert row(m + 2) - 2 * row(m + 1) + row(m) + 4 * prows[m - 2] == 0
        cols, pcols = B.col_sums(), P.col_sums()
        for k in range(1, two_n - 2):  # marginal column rule
            assert cols[k + 1] - 2 * cols[k] + cols[k - 1] + 4 * pcols[k - 1] == 0
    _report(3, "both cell difference laws and both marginal laws hold up to size 12")


def test_criterion_04_boundary_identities(brute):
    for two_n in SIZES_TO_12:
        B = brute(two_n)
        prev_cols = brute(two_n - 2).col_sums()
        top = two_n - 1
        for k in range(3, top + 1):
            assert B.get(2, k) == prev_cols[k - 3]
        for k in range(4, top + 1):
            assert B.get(3, k) == 3 * B.get(2, k)
        for m in range(2, two_n - 1):
            assert B.get(m, top) == prev_cols[m - 2]
        for m in range(2, two_n - 2):
            assert B.get(m, top - 1) == 3 * B.get(m, top)
    _report(4, "all four boundary identities hold up to size 12")


def test_criterion_05_symmetry(brute):
    for two_n in (2, *SIZES_TO_12):
        assert check_symmetry(brute(two_n)) == []
    _report(5, "counter-diagonal symmetry holds up to size 12")


# Bold cells of the annotated size-8 matrix: the analytically reachable
# nonzero positions (upper triangle, first column, subdiagonal, bottom row).
BOLD_M8 = {
    (2, 3), (2, 4), (2, 5), (2, 6), (2, 7),
    (3, 1), (3, 2), (3, 4), (3, 5), (3, 6), (3, 7),
    (4, 1), (4, 3), (4, 5), (4, 6), (4, 7),
    (5, 1), (5, 4), (5, 6), (5, 7),
    (6, 1), (6, 5), (6, 7),
    (7, 1), (7, 6),
    (8, 2), (8, 3), (8, 4), (8, 5), (8, 6),
}


def test_criterion_06_lower_border(brute):
    secants = secant_numbers(12)
    tri = entringer_triangle(10)
    for two_n in SIZES_TO_12:
        B = brute(two_n)
        top = two_n - 1
        for k in range(3, top + 1):  # first row = rightmost column = first column
            assert B.get(2, k) == B.get(k - 1, top) == B.get(k, 1)
        ent_row = tri.row(two_n - 2)
        for k in range(2, two_n - 1):  # bottom row through the triangle
            assert B.get(two_n, k) == ent_row[k - 2]
        assert B.get(2, 1) == 0 and B.get(two_n, top) == 0
        # the four-way subdiagonal seed identity, plus its value
        assert B.get(3, 2) == 2 * B.get(3, 1)
        assert B.get(3, 2) == B.get(two_n - 1, two_n - 2)
        assert B.get(3, 2) == 2 * B.get(two_n, two_n - 2)
        assert B.get(3, 1) == secants[(two_n - 4) // 2]
        for k in range(3, two_n - 1):  # crossing identity
            assert (
                B.get(k - 1, k) + B.get(k + 1, k)
                == B.get(k, k - 1) + B.get(k, k + 1)
            )
    A8 = assemble(8)
    bold = {(m, k) for m, k, v in A8.known_cells() if v > 0}
    assert bold == BOLD_M8
    for m, k in BOLD_M8:
        assert A8.get(m, k) == brute(8).get(m, k)
    _report(6, "border identities hold up to size 12; bold cells of the "
               "annotated size-8 matrix match")


def test_criterion_07_entringer():
    tri = entringer_triangle(8)
    for n, row in REFERENCE_TRIANGLE.items():
        assert tri.row(n) == row
    assert tri.row(8) == (272, 272, 256, 224, 178, 122, 61)
    for n in (2, 4, 6, 8):
        raw = ent_distribution(n)
        assert raw[: n - 1] == tri.row(n)
        assert raw[n - 1] == 0
    _report(7, "triangle rows 2..8 verbatim; even-size raw distributions match")


def test_criterion_08_generating_functions(brute):
    t0 = time.time()
    s = sec_series(10)
    assert [s.egf_coefficient((d,)) for d in range(11)] == [
        1, 0, 1, 0, 5, 0, 61, 0, 1385, 0, 50521,
    ]
    w1 = omega1(8)
    for i in range(9):
        for j in range(9 - i):
            want = 0 if (i + j) % 2 else brute(i + j + 4).get(2, j + 3)
            assert w1.egf_coefficient((i, j)) == want, (i, j)
    w3 = omega(8)
    cells = 0
    for two_n in (4, 6, 8, 10):
        B = brute(two_n)
        for m in range(2, two_n + 1):
            for k in range(m + 1, two_n):
                e = cell_to_exponents(two_n, m, k)
                assert w3.egf_coefficient(e) == B.get(m, k), (two_n, m, k)
                cells += 1
    _report(8, f"sec through order 10, first-row series through i+j<=8, "
               f"master series on {cells} upper cells up to size 10 "
               f"({time.time() - t0:.2f}s)")


def test_criterion_09_poupard_machinery(brute):
    for p in (1, 2, 3, 4):
        grid = omega_grid_from_counts(p, 9 - p, brute)  # slices up to size 12
        assert poupard_check(grid) == []
        assert pde_check(omega_p(p, 8)) == 0
    for p in (1, 2, 3):
        assert row_series(omega_p(p + 1, 6), 0).agrees_with(
            row_series(omega1(6 + p), p)
        )
        w = omega_p(p, 7)
        assert row_series(w, 1).agrees_with(
            row_series(w, 0).partial_derivative(0).scale(3)
        )
        assert reconstruct_from_rows(omega_p(p, 8)).agrees_with(omega_p(p, 8))
    _report(9, "stencil grids, PDE residuals, row identities and "
               "reconstruction all exact for p <= 4")


def test_criterion_10_bijections():
    t0 = time.time()
    for two_n in (4, 6, 8, 10):
        for name, verifier in MAP_VERIFIERS.items():
            report = verifier(two_n)
            assert report.ok, (two_n, name, report)
    from collections import Counter

    from secant_trees.trees import enumerate_trees

    counts = Counter((t.eoc(), t.pom()) for t in enumerate_trees(8))
    assert [counts[(m, 7)] for m in range(2, 7)] == [5, 15, 21, 15, 5]
    assert [counts[(m, 6)] for m in range(2, 6)] == [15, 45, 63, 45]
    assert [counts[(m, 1)] for m in range(3, 8)] == [5, 15, 21, 15, 5]
    assert [counts[(2, k)] for k in range(3, 8)] == [5, 15, 21, 15, 5]
    assert [counts[(8, k)] for k in range(2, 7)] == [16, 16, 14, 10, 5]
    _report(10, f"all five maps verify exhaustively up to size 10 and the "
                f"boundary profiles match ({time.time() - t0:.1f}s)")
