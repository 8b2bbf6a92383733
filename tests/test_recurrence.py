"""Analytic engine: triangle rule, marginal induction, triangle fills,
border, symmetry, and equivalence with the enumeration oracle.

Every fill goes through ``RecurrenceEngine.assemble``, whose state is its
frontier: the last two matrices and one Entringer row.  A corrupt input is
injected through the margins attached to a frontier matrix, or by patching
the module's Entringer step ``_next_entringer_row`` or ``_upper_rows``."""

import hashlib
import json
import re
import tracemalloc

import pytest

from secant_trees import distributions, recurrence
from secant_trees.distributions import (
    BrokenInvariantError,
    JointMatrix,
    OddSizeError,
    ent_distribution,
    entringer_bruteforce,
)
from secant_trees.recurrence import (
    RecurrenceEngine,
    assemble,
    check_symmetry,
    entringer_triangle,
    secant_numbers,
    tree_count,
)
from secant_trees.reference_tables import (
    REFERENCE_TRIANGLE,
    REFERENCE_TREE_COUNTS,
    SECANT_NUMBERS,
)


# ---------------------------------------------------------------------- #
# triangle rule and secant numbers                                        #
# ---------------------------------------------------------------------- #


def test_triangle_rows_match_reference():
    tri = entringer_triangle(8)
    for n, row in REFERENCE_TRIANGLE.items():
        assert tri.row(n) == row


def test_triangle_row_sums_are_tree_counts():
    tri = entringer_triangle(10)
    for n in range(2, 11):
        assert tri.row_total(n) == REFERENCE_TREE_COUNTS[n]


def test_secant_numbers():
    assert secant_numbers(10) == (1, 1, 5, 61, 1385, 50521)
    assert secant_numbers(12) == SECANT_NUMBERS
    assert secant_numbers(0) == (1,)


def test_tree_count_small():
    assert [tree_count(n) for n in range(11)] == list(REFERENCE_TREE_COUNTS)


@pytest.mark.parametrize("size", (8.0, "4", True), ids=("float", "str", "bool"))
@pytest.mark.parametrize(
    "count",
    (entringer_triangle, secant_numbers, tree_count, ent_distribution, entringer_bruteforce),
    ids=lambda f: f.__name__,
)
def test_sizes_that_are_not_ints_are_value_errors(count, size):
    message = r"must be an (even )?int >= \d, got " + re.escape(repr(size)) + "$"
    with pytest.raises(ValueError, match=message):
        count(size)


@pytest.mark.parametrize("n", (1, 9, 0, -3))
def test_triangle_rows_outside_the_triangle_are_value_errors(n):
    tri = entringer_triangle(8)
    message = rf"row {n} is outside the rows 2\.\.8$"
    if n < 2:
        message = f"n must be an int >= 2, got {n}$"
    for read in (tri.row, tri.row_total):
        with pytest.raises(ValueError, match=message):
            read(n)


@pytest.mark.parametrize("n", (2.0, 3.0, True), ids=("2.0", "3.0", "True"))
def test_triangle_rows_that_are_not_ints_are_value_errors(n):
    tri = entringer_triangle(8)
    message = "n must be an int >= 2, got " + re.escape(repr(n)) + "$"
    for read in (tri.row, tri.row_total):
        with pytest.raises(ValueError, match=message):
            read(n)


# ---------------------------------------------------------------------- #
# marginal induction                                                      #
# ---------------------------------------------------------------------- #


def test_column_sums_base_case():
    assert RecurrenceEngine().column_sums(2) == (1,)


def test_column_sums_examples():
    eng = RecurrenceEngine()
    cs10 = eng.column_sums(10)
    assert cs10 == (1385, 4155, 6681, 8475, 9129, 8475, 6681, 4155, 1385)
    cs8 = eng.column_sums(8)
    assert cs8 == (61, 183, 285, 327, 285, 183, 61)
    # one induction step by hand: 2 * 4155 - 1385 - 4 * 61
    assert cs10[2] == 2 * cs10[1] - cs10[0] - 4 * cs8[0] == 6681
    # a fresh engine asked for 8 alone builds the same sums
    assert RecurrenceEngine().column_sums(8) == cs8


def test_column_sums_need_predecessor():
    # A fresh engine derives every predecessor from size 2 on its own, and
    # the step to 10 reads the sums attached to M_8: a changed predecessor
    # changes it.  The middle sum of M_8 meets no other boundary cell of M_10.
    eng = RecurrenceEngine()
    cs10 = eng.column_sums(10)
    assert [eng.column_sums(s) for s in (4, 6, 8)] == [
        (1, 3, 1), (5, 15, 21, 15, 5), (61, 183, 285, 327, 285, 183, 61)
    ]
    assert eng.assemble(10).col_sums() == cs10
    changed = _engine_with_margins(8, lambda cs: (*cs[:3], cs[3] + 1, *cs[4:]))
    assert changed.assemble(10).col_sums() != cs10
    with pytest.raises(OddSizeError):
        eng.column_sums(9)


def test_column_sum_law_flags_a_negative_sum():
    # 2 * 306 - 102 - 4 * 100 = 110, then 2 * 110 - 306 - 4 * 1 = -90 at k = 4
    with pytest.raises(BrokenInvariantError, match=r"column sum at k=4 of M_6 is negative$"):
        recurrence._next_column_sums((100, 1, 1))


# ---------------------------------------------------------------------- #
# upper triangle                                                          #
# ---------------------------------------------------------------------- #


def _engine_with_margins(size, corrupt):
    """An engine whose frontier matrix M_{size} carries the margins
    corrupt(true column sums) -- so only the next size sees the corruption."""
    eng = RecurrenceEngine()
    M = eng.assemble(size)
    cs = corrupt(M.col_sums())
    M.attach_margins(cs, cs, sum(cs))
    return eng


def test_upper_triangle_examples():
    eng = RecurrenceEngine()
    up, prev = eng.assemble(8), eng.assemble(6)
    assert up.get(4, 5) == 2 * 63 - 21 - 4 * prev.get(4, 5) == 101
    assert up.get(2, 5) == 21
    assert eng.assemble(4).get(2, 3) == 1


@pytest.mark.parametrize("two_n", (4, 6, 8, 10, 12, 24, 40))
def test_filling_order_independence(two_n):
    # A top-down row-order fill, from the same boundary cells, computes
    # f(m+2, k) = 2 f(m+1, k) - f(m, k) - 4 f_{2n-2}(m, k-2) at every
    # 2 <= m <= k-3, 5 <= k <= 2n-3.  It equals the column-order fill
    # exactly when the column-filled matrix has a zero row-rule residual at
    # each of those cells.
    eng = RecurrenceEngine()
    M, P = eng.assemble(two_n), eng.assemble(two_n - 2)
    cells = [(m, k) for k in range(5, two_n - 2) for m in range(2, k - 2)]
    assert len(cells) == (two_n >= 8) * (two_n - 7) * (two_n - 6) // 2
    for m, k in cells:
        residual = M.get(m + 2, k) - 2 * M.get(m + 1, k) + M.get(m, k) + 4 * P.get(m, k - 2)
        assert residual == 0, (m, k)


def test_upper_triangle_flags_a_boundary_cell_filled_twice():
    # (2,7) is both the last cell of the first row and the top of the
    # rightmost column; the column sums are no longer symmetric.
    eng = _engine_with_margins(6, lambda cs: (*cs[:-1], cs[-1] + 1))
    with pytest.raises(BrokenInvariantError, match=r"\(2,7\) of M_8 filled twice"):
        eng.assemble(8)


def test_upper_triangle_flags_negative_cells():
    # The middle column sum of M_6 reaches only the first two rows and the
    # row m = 4 boundary of M_8, so zeroing it leaves every boundary
    # consistent and drives the first column-rule cell of that row negative:
    # 2 * 0 - 0 - 4 f_6(4, 5) = -4.
    eng = _engine_with_margins(6, lambda cs: (*cs[:2], 0, *cs[3:]))
    with pytest.raises(BrokenInvariantError, match=r"cell \(4,5\) of M_8 came out -4"):
        eng.assemble(8)


# ---------------------------------------------------------------------- #
# lower border                                                            #
# ---------------------------------------------------------------------- #


def test_lower_border_flags_a_cell_filled_twice(monkeypatch):
    # The first column must mirror the first row; an upper fill that has
    # already written a different (3,1) is caught when the border writes it.
    real = recurrence._upper_rows

    def upper_with_a_stray_cell(two_n, prev, prev_cs):
        rows = real(two_n, prev, prev_cs)
        if two_n == 8:
            rows[1][0] = rows[0][2] + 1
        return rows

    monkeypatch.setattr(recurrence, "_upper_rows", upper_with_a_stray_cell)
    with pytest.raises(BrokenInvariantError, match=r"\(3,1\) of M_8 filled twice"):
        RecurrenceEngine().assemble(8)


def test_lower_border_flags_a_negative_entringer_entry(monkeypatch):
    # entry 3 of the size-6 row (five entries) lands on the bottom-row cell (8,4)
    real = recurrence._next_entringer_row

    def step_with_a_negative_entry(row):
        out = real(row)
        return (*out[:2], -1, *out[3:]) if len(out) == 5 else out

    monkeypatch.setattr(recurrence, "_next_entringer_row", step_with_a_negative_entry)
    with pytest.raises(BrokenInvariantError, match=r"cell \(8,4\) of M_8 came out -1"):
        RecurrenceEngine().assemble(8)


def test_lower_border_examples():
    M = assemble(8)
    assert M.get(4, 3) == M.get(3, 2) + M.get(3, 4) - M.get(2, 3) == 50
    assert M.get(8, 4) == 14
    assert M.get(3, 2) == 2 * M.get(3, 1) == 10


# ---------------------------------------------------------------------- #
# assembled matrices vs the oracle                                        #
# ---------------------------------------------------------------------- #


def test_assemble_unknown_cell_counts():
    assert assemble(4).is_complete()
    A8 = assemble(8)
    unknown = set(A8.unknown_cells())
    assert len(unknown) == 10
    assert all(m > k + 1 for m, k in unknown)


@pytest.mark.parametrize("two_n", (4, 6, 8, 10))
def test_assemble_matches_oracle_on_known_cells(two_n, brute):
    A = assemble(two_n)
    B = brute(two_n)
    for m, k, v in A.known_cells():
        assert v == B.get(m, k), (m, k)
    assert A.col_sums() == B.col_sums()
    assert A.total() == B.total()


def test_assemble_fill_interior_equals_oracle(brute):
    H = assemble(8, fill_interior=True)
    assert H.method == "hybrid"
    assert H.same_counts(brute(8))


@pytest.mark.parametrize(
    "cell, message",
    [
        ((4, 5), r"cell \(4,5\) of M_8: recurrence"),  # known to the recurrence
        ((7, 3), r"margins of M_8 disagree"),  # interior: only the margins see it
    ],
    ids=("known", "interior"),
)
def test_hybrid_rejects_an_oracle_that_contradicts_the_recurrence(cell, message, monkeypatch):
    real = distributions.joint_matrix_bruteforce

    def corrupted(two_n, processes=1):
        M = real(two_n)
        M.set(*cell, M.get(*cell) + 1)
        return M

    monkeypatch.setattr(distributions, "joint_matrix_bruteforce", corrupted)
    with pytest.raises(BrokenInvariantError, match=message):
        assemble(8, fill_interior=True)


# sha256 of json.dumps(assemble(2n).to_json_dict(), sort_keys=True), computed
# with the earlier per-cell induction, so they pin the row-list engine to it:
# every cell, every unknown cell and both margins.
ASSEMBLE_DIGESTS = {
    40: "41a3b8af59fba7fd953c440e5ca027b6979fdd9c9bc7e2f080fb1c53eff424dc",
    80: "ff9f3f0a0ac45f973784a0645da04dc76df374f1a0718f4b5545584e1f83a3c9",
    120: "3ee5dde25c9733bc17030e7a5c6e9c8c363d233bee7f06322f0d49185d0bcc59",
}


def test_assemble_is_pinned_at_large_sizes():
    eng = RecurrenceEngine()
    for two_n, digest in ASSEMBLE_DIGESTS.items():
        blob = json.dumps(eng.assemble(two_n).to_json_dict(), sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == digest, two_n


def test_engine_caches_are_consistent():
    eng = RecurrenceEngine()
    A = eng.assemble(10)
    assert eng.assemble(10) is A
    assert eng.assemble(6).total() == 61


def test_assemble_keeps_only_the_induction_frontier():
    # Holding every size up to 120 takes about 13.5 MiB; the column sums and
    # the Entringer triangle beside the last two sizes about 2.3 MiB; the last
    # two sizes and one Entringer row about 1.6 MiB.
    tracemalloc.start()
    try:
        RecurrenceEngine().assemble(120)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_previous_size_is_served_without_a_fill(monkeypatch):
    eng = RecurrenceEngine()
    M40 = eng.assemble(40)

    def refuse(two_n, prev, prev_cs):
        pytest.fail(f"M_{two_n} filled again")

    monkeypatch.setattr(recurrence, "_upper_rows", refuse)
    M38 = eng.assemble(38)
    assert (M38.two_n, M38.total()) == (38, tree_count(38))
    assert eng.assemble(40) is M40


def test_a_smaller_size_restarts_the_induction():
    eng = RecurrenceEngine()
    eng.assemble(40)
    fresh = RecurrenceEngine().assemble(20)
    assert eng.assemble(20).to_json_dict() == fresh.to_json_dict()
    assert eng.assemble(22).to_json_dict() == RecurrenceEngine().assemble(22).to_json_dict()


# ---------------------------------------------------------------------- #
# symmetry and crossing                                                   #
# ---------------------------------------------------------------------- #


def test_symmetry_examples(brute):
    M8 = brute(8)
    assert M8.get(2, 5) == M8.get(4, 7) == 21
    assert M8.get(3, 2) == M8.get(7, 6) == 10
    assert check_symmetry(brute(2)) == []


@pytest.mark.parametrize("two_n", (2, 4, 6, 8, 10))
def test_symmetry_holds_on_oracle(two_n, brute):
    assert check_symmetry(brute(two_n)) == []


def test_symmetry_reports_violations():
    M = JointMatrix(4, method="brute")
    for m in range(2, 5):
        for k in range(1, 4):
            M.set(m, k, 0)
    M.set(2, 2, 7)  # mirror cell is (3, 3), still 0
    bad = check_symmetry(M)
    assert bad and bad[0][0] == (2, 2)


@pytest.mark.parametrize("two_n", (4, 6, 8, 10))
def test_crossing_equalities_on_oracle(two_n, brute):
    M = brute(two_n)
    for k in range(3, two_n - 1):
        assert M.get(k - 1, k) + M.get(k + 1, k) == M.get(k, k - 1) + M.get(k, k + 1)
