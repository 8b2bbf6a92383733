"""Brute-force joint matrices, marginals, differences, rightmost-label rows."""

import copy
import json
import logging
import os
import re
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secant_trees import distributions
from secant_trees.distributions import (
    BrokenInvariantError,
    JointMatrix,
    OddSizeError,
    ent_distribution,
    entringer_bruteforce,
    joint_matrix_bruteforce,
)
from secant_trees.recurrence import RecurrenceEngine, assemble, entringer_triangle, tree_count
from secant_trees.trees import alternating_permutations, word_stats
from secant_trees.reference_tables import (
    REFERENCE_JOINT,
    REFERENCE_TOTALS,
    REFERENCE_TRIANGLE,
)


# ---------------------------------------------------------------------- #
# golden tables                                                           #
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("two_n", sorted(REFERENCE_JOINT))
def test_brute_matches_reference_tables(two_n, brute):
    M = brute(two_n)
    golden = REFERENCE_JOINT[two_n]
    for m in range(2, two_n + 1):
        for k in range(1, two_n):
            assert M.get(m, k) == golden[m - 2][k - 1], (m, k)
    assert M.total() == REFERENCE_TOTALS[two_n]


def test_reference_m14_agrees_with_the_recurrence():
    golden = REFERENCE_JOINT[14]
    A = assemble(14)
    for m, k, v in A.known_cells():
        assert golden[m - 2][k - 1] == v, (m, k)
    assert A.row_sums() == tuple(map(sum, golden))
    assert A.col_sums() == tuple(map(sum, zip(*golden)))
    assert REFERENCE_TOTALS[14] == sum(map(sum, golden)) == tree_count(14) == 199360981


@pytest.mark.parametrize("two_n", range(6, 25, 2))
def test_first_interior_laws(two_n, brute):
    # The recurrence leaves (4, 2) and (5, 2) Unknown; these laws of the first
    # interior cells were found on larger tables and are pinned here by brute
    # force.
    M, A = brute(two_n), assemble(two_n)
    assert A.cell(4, 2) is None and A.cell(5, 2) is None
    assert M.get(4, 2) == 7 * tree_count(two_n - 4)
    assert 8 * M.get(5, 2) == 15 * M.get(2, 3) + 17 * M.get(2, 5)


def test_size_two_matrix(brute):
    M = brute(2)
    assert M.get(2, 1) == 1
    assert (M.row_sums(), M.col_sums(), M.total()) == ((1,), (1,), 1)


def test_marginal_examples(brute):
    M8 = brute(8)
    rows, cols, total = M8.row_sums(), M8.col_sums(), M8.total()
    assert rows[5 - 2] == 327 and cols[4 - 1] == 327
    assert total == 1385
    M10 = brute(10)
    assert M10.col_sums() == (1385, 4155, 6681, 8475, 9129, 8475, 6681, 4155, 1385)


def test_marginal_identity_row_equals_shifted_column(brute):
    # pom + 1 and eoc are equidistributed: col sum at k-1 == row sum at k
    for two_n in (2, 4, 6, 8, 10):
        M = brute(two_n)
        assert M.row_sums() == M.col_sums()


def test_structural_zeros(brute):
    for two_n in (4, 6, 8, 10):
        M = brute(two_n)
        assert M.get(2, 1) == 0 and M.get(2, 2) == 0
        assert M.get(two_n, two_n - 1) == 0 and M.get(two_n, 1) == 0
        for m in range(2, two_n):
            assert M.get(m, m) == 0


# ---------------------------------------------------------------------- #
# cell access and differences                                             #
# ---------------------------------------------------------------------- #


def test_out_of_box_reads_are_zero(brute):
    M = brute(4)
    assert M.get(1, 1) == 0 and M.get(5, 2) == 0
    assert M.get(2, 0) == 0 and M.get(2, 4) == 0


def test_delta_examples(brute):
    M8, M6, M4 = brute(8), brute(6), brute(4)
    # second difference down the first top row hits -4 times the smaller size
    dd = (M8.get(4, 5) - M8.get(3, 5)) - (M8.get(3, 5) - M8.get(2, 5))
    assert dd == 101 - 126 + 21 == -4
    assert dd == -4 * M6.get(2, 3)
    assert M4.get(3, 2) - M4.get(3, 1) == 1
    for k in range(1, 8):
        assert M8.get(9, k) - M8.get(8, k) == -M8.get(8, k)


def test_oddsize_rejected():
    with pytest.raises(OddSizeError):
        joint_matrix_bruteforce(7)
    with pytest.raises(OddSizeError):
        joint_matrix_bruteforce(0)


@pytest.mark.parametrize("size", (4.0, True), ids=("float", "bool"))
@pytest.mark.parametrize(
    "build",
    (joint_matrix_bruteforce, assemble, lambda two_n: JointMatrix(two_n, "brute")),
    ids=("brute", "assemble", "JointMatrix"),
)
def test_non_int_size_rejected(build, size):
    with pytest.raises(OddSizeError, match=f"two_n must be an even int >= 2, got {size!r}$"):
        build(size)


def test_unknown_method_is_refused_where_it_enters():
    # The constructor refuses what from_json_dict would refuse, so every
    # matrix it builds can make a JSON round trip.
    with pytest.raises(ValueError, match=r"^method must be one of .*, got 'foo'$"):
        JointMatrix(4, "foo")
    for method in ("brute", "recurrence"):
        M = JointMatrix(4, method)
        M.set(2, 3, 1)
        M.attach_margins((1, 0, 0), (0, 0, 1), 1)
        blob = M.to_json_dict()
        assert JointMatrix.from_json_dict(blob).to_json_dict() == blob
    # "hybrid" named the counter's matrix once the tables law held; a blob
    # tagged with it is refused like any other unknown method.
    blob["method"] = "hybrid"
    with pytest.raises(ValueError, match=r"^method must be one of \('brute', 'recurrence'\), got 'hybrid'$"):
        JointMatrix.from_json_dict(blob)


def test_unknown_cells_are_first_class():
    M = JointMatrix(4, method="recurrence")
    M.set(2, 3, 1)
    assert M.cell(2, 3) == 1 and M.cell(3, 1) is None
    assert M.unknown_cells()[0] == (2, 1)
    with pytest.raises(ValueError, match=r"cell \(3,1\) of M_4 is unknown"):
        M.get(3, 1)
    for margin, line in ((M.row_sums, "row"), (M.col_sums, "column"), (M.total, "row")):
        with pytest.raises(ValueError, match=f"{line} sums need all cells known"):
            margin()


# True and 2.0 equal an index of the box but are not one.
@pytest.mark.parametrize("cell", ((1, 1), (5, 1), (2, 0), (2, 4), (2, True), (2.0, 3), (2, 3.0)))
def test_set_outside_the_index_box_is_a_value_error(cell):
    M = JointMatrix(4, method="brute")
    m, k = cell
    message = rf"^cell \({m},{k}\) is outside the index box of M_4$"
    with pytest.raises(ValueError, match=message):
        M.set(m, k, 1)
    assert M.unknown_cells() == JointMatrix(4, method="brute").unknown_cells()
    # A read takes the same indices: 0 outside the box, and no other type.
    if type(m) is int and type(k) is int:
        assert M.cell(m, k) == M.get(m, k) == 0
    else:
        for read in (M.cell, M.get):
            with pytest.raises(ValueError, match=message):
                read(m, k)


@pytest.mark.parametrize("value", (-1, True, 1.5, "3"), ids=repr)
def test_set_takes_only_a_count(value):
    M = JointMatrix(4, method="brute")
    message = rf"^cell \(2,3\) of M_4 takes a count, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        M.set(2, 3, value)
    assert M.cell(2, 3) is None
    M.set(2, 3, 0)
    assert M.cell(2, 3) == 0


def test_parts_log_their_progress(monkeypatch, caplog):
    caplog.set_level(logging.INFO, logger=distributions.__name__)
    joint_matrix_bruteforce(8)
    assert not caplog.records  # below the size worth a progress line
    monkeypatch.setattr(distributions, "_LOG_MIN_TWO_N", 8)
    joint_matrix_bruteforce(8)
    (record,) = caplog.records  # one line per count
    assert record.levelno == logging.INFO
    assert record.args[:2] == (8, 1385)


def test_importing_the_package_loads_neither_the_pool_nor_logging():
    # A fresh interpreter, since pytest itself imports logging; -S keeps the
    # site hooks from loading either module first.
    root = os.path.dirname(os.path.dirname(distributions.__file__))
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import secant_trees, secant_trees.cli; "
        "print(sorted({'multiprocessing', 'logging'} & set(sys.modules)))"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", code, root], capture_output=True, text=True, check=True
    )
    assert run.stdout == "[]\n"


# ---------------------------------------------------------------------- #
# the counter against the words and the recurrence                        #
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("two_n", [2, 4, 6, 8, 10])
def test_counter_equals_composition(two_n, brute):
    whole = Counter((s.eoc, s.pom) for s in map(word_stats, alternating_permutations(two_n)))
    counted = brute(two_n)
    assert {(m, k): v for m, k, v in counted.known_cells() if v} == whole


@pytest.mark.parametrize("two_n", range(16, 25, 2))
def test_counter_agrees_with_the_recurrence(two_n, brute):
    # Above REFERENCE_JOINT, every cell the recurrence knows, both margins
    # and the total are a second route to the counted matrix.
    M, A = brute(two_n), assemble(two_n)
    for m, k, v in A.known_cells():
        assert M.get(m, k) == v, (m, k)
    assert M.row_sums() == A.row_sums() and M.col_sums() == A.col_sums()
    assert M.total() == tree_count(two_n)


# ---------------------------------------------------------------------- #
# serialization                                                           #
# ---------------------------------------------------------------------- #


def test_matrix_json_round_trip(brute):
    M = brute(6)
    blob = json.loads(json.dumps(M.to_json_dict()))
    assert blob["m_range"] == [2, 6] and blob["k_range"] == [1, 5]
    R = JointMatrix.from_json_dict(blob)
    assert R.same_counts(M) and R.method == "brute"


def test_partial_matrix_json_keeps_null_cells():
    M = JointMatrix(4, method="recurrence")
    M.set(2, 3, 1)
    M.attach_margins((1, 3, 1), (1, 3, 1), 5)
    blob = json.loads(json.dumps(M.to_json_dict()))
    assert blob["entries"][0] == [None, None, 1]
    R = JointMatrix.from_json_dict(blob)
    assert R.cell(3, 1) is None and R.total() == 5


_BLOBS: dict = {}
_ENGINE = RecurrenceEngine()
MATRICES = st.one_of(
    st.tuples(st.just("brute"), st.sampled_from(range(2, 11, 2))),
    st.tuples(st.just("recurrence"), st.sampled_from(range(2, 31, 2))),
)
NOT_COUNTS = st.one_of(
    st.booleans(), st.integers(max_value=-1), st.floats(), st.text(), st.lists(st.integers())
)


def _blob(kind: str, two_n: int) -> dict:
    """A fresh JSON-parsed copy of a brute or recurrence matrix."""
    if (kind, two_n) not in _BLOBS:
        M = joint_matrix_bruteforce(two_n) if kind == "brute" else _ENGINE.assemble(two_n)
        _BLOBS[kind, two_n] = json.loads(json.dumps(M.to_json_dict()))
    return copy.deepcopy(_BLOBS[kind, two_n])


@settings(deadline=None)
@given(MATRICES)
def test_matrix_json_round_trip_property(matrix):
    blob = _blob(*matrix)
    assert JointMatrix.from_json_dict(blob).to_json_dict() == blob


@st.composite
def corrupted_blobs(draw) -> dict:
    """A matrix blob with one field made invalid or inconsistent."""
    kind, two_n = draw(MATRICES)
    blob = _blob(kind, two_n)
    width = two_n - 1
    cell = st.tuples(st.integers(0, width - 1), st.integers(0, width - 1))
    fields = ["two_n", "method", "entry type", "margin", "total", "shape", "missing"]
    if kind == "brute":
        fields.append("entry value")  # a complete grid pins every cell
    what = draw(st.sampled_from(fields))
    if what == "two_n":
        blob["two_n"] = draw(
            st.one_of(
                st.integers().filter(lambda v: v != two_n),
                st.floats(),
                st.booleans(),
                st.text(),
                st.none(),
            )
        )
    elif what == "method":
        blob["method"] = draw(st.text().filter(lambda v: v not in ("brute", "recurrence")))
    elif what == "entry type":
        i, j = draw(cell)
        blob["entries"][i][j] = draw(NOT_COUNTS)
    elif what == "entry value":
        i, j = draw(cell)
        blob["entries"][i][j] += draw(st.integers(1, 10))
    elif what == "margin":
        name = draw(st.sampled_from(["row_sums", "col_sums"]))
        i = draw(st.integers(0, width - 1))
        blob[name][i] = draw(
            st.one_of(NOT_COUNTS, st.integers(0, 10 ** 6).filter(lambda v: v != blob[name][i]))
        )
    elif what == "total":
        blob["total"] = draw(
            st.one_of(NOT_COUNTS, st.integers(0, 10 ** 6).filter(lambda v: v != blob["total"]))
        )
    elif what == "shape":
        i = draw(st.integers(0, width - 1))
        if draw(st.booleans()):
            del blob["entries"][i]
        else:
            blob["entries"][i].append(0)
    else:
        del blob[draw(st.sampled_from(sorted(blob)))]
    return blob


@settings(deadline=None)
@given(corrupted_blobs())
def test_matrix_json_rejects_corruption(blob):
    with pytest.raises(ValueError):
        JointMatrix.from_json_dict(blob)


def test_matrix_json_rejects_bools_equal_to_the_counts():
    # M_4 has cell (2,3) = 1, row sums (1, 3, 1) and column sums (1, 3, 1).
    for field, index in (("entries", None), ("row_sums", 0), ("col_sums", 2)):
        blob = _blob("brute", 4)
        if index is None:
            blob["entries"][0][2] = True
        else:
            blob[field][index] = True
        with pytest.raises(ValueError):
            JointMatrix.from_json_dict(blob)


@pytest.mark.parametrize("blob", ([1], None, "{}"))
def test_matrix_json_that_is_not_a_dict_is_refused(blob):
    message = f"^a matrix blob is a dict, got {type(blob).__name__}$"
    with pytest.raises(ValueError, match=message):
        JointMatrix.from_json_dict(blob)


def test_matrix_and_triangle_reprs(brute):
    assert repr(brute(6)) == "JointMatrix(two_n=6, method='brute')"
    assert repr(assemble(8)) == "JointMatrix(two_n=8, method='recurrence', 10 unknown)"
    assert repr(entringer_triangle(6)) == "EntringerTriangle(rows 2..6)"


@pytest.mark.parametrize(
    "rows",
    ({}, {2: (1,), 4: (1, 1, 0)}, {3: (1, 1)}, {2: (1,), 3: (1, 1), 3.5: ()}, {2.0: (1,)}),
    ids=("empty", "a gap", "no row 2", "a float", "a float equal to 2"),
)
def test_triangle_rows_are_keyed_by_two_to_n_max(rows):
    message = "rows must be keyed by 2 .. n_max for some n_max >= 2, got " + str([*rows])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        distributions.EntringerTriangle(rows)


def test_triangle_rows_in_any_order_are_kept():
    rows = dict(reversed(entringer_triangle(6).rows.items()))
    assert distributions.EntringerTriangle(rows) == entringer_triangle(6)


def test_matrix_json_huge_size_fails_before_allocating():
    blob = _blob("brute", 4)
    blob.update(two_n=10 ** 12, m_range=[2, 10 ** 12], k_range=[1, 10 ** 12 - 1])
    with pytest.raises(ValueError, match="grid"):
        JointMatrix.from_json_dict(blob)


def test_matrix_csv(brute):
    assert brute(4).to_csv() == (
        "m\\k,1,2,3\n"
        "2,0,0,1\n"
        "3,1,2,0\n"
        "4,0,1,0\n"
    )


def test_partial_csv_has_empty_cells():
    M = JointMatrix(4, method="recurrence")
    M.set(2, 3, 1)
    assert M.to_csv().splitlines()[1] == "2,,,1"


# ---------------------------------------------------------------------- #
# rightmost-label distribution                                            #
# ---------------------------------------------------------------------- #


def test_ent_distribution_examples():
    assert ent_distribution(2) == (1, 0)
    assert ent_distribution(4) == (2, 2, 1, 0)
    assert ent_distribution(6) == (16, 16, 14, 10, 5, 0)


@pytest.mark.parametrize("n", range(2, 11))
def test_ent_counter_equals_last_letters(n):
    last = Counter(word[-1] for word in alternating_permutations(n))
    assert ent_distribution(n) == tuple(last[j] for j in range(1, n + 1))


def test_bottom_row_is_previous_rightmost_distribution(brute):
    # f_{2n}(2n, k) counts label k-1 as the rightmost of size 2n-2
    for two_n in (4, 6, 8, 10):
        M = brute(two_n)
        raw = ent_distribution(two_n - 2)
        for k in range(2, two_n - 1):
            assert M.get(two_n, k) == raw[k - 2]


def test_entringer_bruteforce_matches_reference_rows():
    tri = entringer_bruteforce(8)
    for n, row in REFERENCE_TRIANGLE.items():
        assert tri.row(n) == row


def test_entringer_bruteforce_matches_rule_both_parities():
    assert entringer_bruteforce(9) == entringer_triangle(9)


def test_entringer_bruteforce_matches_rule_to_40():
    assert entringer_bruteforce(40) == entringer_triangle(40)


@pytest.mark.parametrize("n_max, bad", [(4, (1, 1, 1, 1)), (5, (1, 2, 3, 4, 5))])
def test_entringer_bruteforce_raises_on_broken_invariant(monkeypatch, n_max, bad):
    real = distributions._ent_pass
    monkeypatch.setattr(
        distributions,
        "_ent_pass",
        lambda bound: (bad if len(raw) == n_max else raw for raw in real(bound)),
    )
    with pytest.raises(BrokenInvariantError):
        entringer_bruteforce(n_max)


def test_one_pass_gives_every_size_of_both_counters(brute):
    # Each size read off a pass to a larger bound equals the pass that ends
    # at that size, though the larger bound keeps more states.
    assert [M.two_n for M in distributions.joint_matrices(24)] == list(range(2, 25, 2))
    for M in distributions.joint_matrices(24):
        assert M.same_counts(brute(M.two_n)) and M.method == "brute"
    rows = list(distributions._ent_pass(30))
    assert rows == [ent_distribution(n) for n in range(2, 31)]
