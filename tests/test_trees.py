"""Tree model, validation, enumeration, projection and statistics."""

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secant_trees.trees import (
    BadArityError,
    BadLabelsError,
    IncTree,
    InconsistentError,
    NotAlternatingError,
    NotIncreasingError,
    StatUndefinedError,
    TreeError,
    alternating_permutations,
    enumerate_trees,
    is_alternating,
    tree_from_perm,
    word_stats,
)

# counts of complete increasing trees by size (secant/tangent interleaved)
TREE_COUNTS = {1: 1, 2: 1, 3: 2, 4: 5, 5: 16, 6: 61, 7: 272, 8: 1385, 9: 7936, 10: 50521}


# ---------------------------------------------------------------------- #
# validation                                                              #
# ---------------------------------------------------------------------- #


def test_validate_unique_size_two_tree():
    t = IncTree((0, 0, 1), (0, 2, 0), (0, 0, 0))
    assert t.n == 2
    assert t.projection() == (2, 1)


def test_validate_figure_tree_via_perm():
    t = tree_from_perm((4, 1, 3, 2))
    # root 1 carries leaf 4 on the left and the one-child node 2 on the right
    assert t.left[1] == 4 and t.right[1] == 2 and t.left[2] == 3
    assert t.one_child_node() == 2


def test_validate_rejects_one_child_chain_for_odd_size():
    # 1 -> 2 -> 3 as a chain of left children: two one-child nodes, odd size
    with pytest.raises(BadArityError):
        IncTree((0, 0, 1, 2), (0, 2, 3, 0), (0, 0, 0, 0))


def test_validate_rejects_right_only_child():
    # even size, but the single child hangs on the right
    with pytest.raises(BadArityError):
        IncTree((0, 0, 1), (0, 0, 0), (0, 2, 0))


def test_validate_rejects_misplaced_one_child_node():
    # 1 has children 2 (left, with single left child 4) and 3 (right):
    # the one-child node 2 is not the rightmost node
    with pytest.raises(BadArityError):
        IncTree((0, 0, 1, 1, 2), (0, 2, 4, 0, 0), (0, 3, 0, 0, 0))


def test_validate_rejects_decreasing_labels():
    # node 2 hangs below node 3
    with pytest.raises(NotIncreasingError):
        IncTree((0, 0, 3, 1, 1), (0, 3, 0, 2, 0), (0, 4, 0, 0, 0))


def test_validate_rejects_inconsistent_maps():
    # parent says 2 hangs below 1 but 1 lists no children
    with pytest.raises(InconsistentError):
        IncTree((0, 0, 1), (0, 0, 0), (0, 0, 0))


def test_validate_rejects_bad_labels():
    with pytest.raises(BadLabelsError):
        IncTree((0, 0, 7), (0, 2, 0), (0, 0, 0))
    with pytest.raises(BadLabelsError):
        IncTree((0, 0, 1), (0, 2), (0, 0, 0))


# ---------------------------------------------------------------------- #
# projection and its inverse                                              #
# ---------------------------------------------------------------------- #


def test_projection_of_figure_trees():
    first = IncTree((0, 0, 1, 2, 1), (0, 4, 3, 0, 0), (0, 2, 0, 0, 0))
    assert first.projection() == (4, 1, 3, 2)
    second = IncTree((0, 0, 1, 1, 2), (0, 3, 4, 0, 0), (0, 2, 0, 0, 0))
    assert second.projection() == (3, 1, 4, 2)


def test_tree_from_perm_matches_explicit_tree():
    first = IncTree((0, 0, 1, 2, 1), (0, 4, 3, 0, 0), (0, 2, 0, 0, 0))
    assert tree_from_perm((4, 1, 3, 2)) == first
    assert tree_from_perm((2, 1)) == IncTree((0, 0, 1), (0, 2, 0), (0, 0, 0))


def test_tree_from_perm_rejects_non_alternating():
    for bad in ((1, 2), (2, 1, 3, 4), (1, 1), (3, 2, 1)):
        with pytest.raises(NotAlternatingError):
            tree_from_perm(bad)


@pytest.mark.parametrize("n", range(1, 11))
def test_projection_round_trip_exhaustive(n):
    for t in enumerate_trees(n):
        word = t.projection()
        assert is_alternating(word)
        assert tree_from_perm(word) == t


# ---------------------------------------------------------------------- #
# enumeration                                                             #
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("n,count", sorted(TREE_COUNTS.items()))
def test_enumeration_counts(n, count):
    assert sum(1 for _ in alternating_permutations(n)) == count


def test_enumeration_is_lexicographic_and_duplicate_free():
    words = list(alternating_permutations(6))
    assert words == sorted(set(words))


def test_enumeration_prefix_partition():
    full = list(alternating_permutations(6))
    parts = []
    for first in range(1, 7):
        parts.extend(alternating_permutations(6, prefix=(first,)))
    assert sorted(parts) == full
    # a prefix that cannot start an alternating word yields nothing
    assert list(alternating_permutations(6, prefix=(1,))) == []


# ---------------------------------------------------------------------- #
# minimal chain and the three statistics                                  #
# ---------------------------------------------------------------------- #


def test_minimal_chain_examples():
    assert tree_from_perm((4, 1, 3, 2)).minimal_chain() == (1, 2, 3)
    assert tree_from_perm((2, 1)).minimal_chain() == (1, 2)
    assert tree_from_perm((3, 1, 4, 2)).minimal_chain() == (1, 2, 4)


def test_minimal_chain_is_increasing_from_the_root():
    for n in range(2, 9):
        for t in enumerate_trees(n):
            chain = t.minimal_chain()
            assert chain[0] == 1
            assert list(chain) == sorted(chain)


def test_stats_examples():
    s = tree_from_perm((4, 1, 3, 2)).stats()
    assert (s.eoc, s.pom) == (3, 1)
    s = tree_from_perm((3, 1, 4, 2)).stats()
    assert (s.eoc, s.pom) == (4, 2)
    s = tree_from_perm((2, 1, 4, 3)).stats()
    assert (s.eoc, s.pom, s.ent) == (2, 3, 3)


def test_figure_statistic_multiset():
    # the five size-4 trees carry exactly these (eoc, pom) pairs
    pairs = Counter((t.eoc(), t.pom()) for t in enumerate_trees(4))
    assert pairs == Counter({(3, 1): 1, (4, 2): 1, (3, 2): 2, (2, 3): 1})


def test_single_node_tree_statistics():
    t = tree_from_perm((1,))
    assert t.minimal_chain() == (1,)
    assert t.ent() == 1
    with pytest.raises(StatUndefinedError):
        t.eoc()
    with pytest.raises(StatUndefinedError):
        t.pom()


def test_maximum_label_is_always_a_leaf():
    for n in range(2, 9):
        for t in enumerate_trees(n):
            assert t.is_leaf(t.n)


def test_one_child_node_is_rightmost_for_even_sizes():
    for n in (2, 4, 6, 8):
        for t in enumerate_trees(n):
            assert t.one_child_node() == t.projection()[-1]


def test_word_stats_agrees_with_tree_stats():
    for n in range(2, 10):
        for word in alternating_permutations(n):
            assert word_stats(word) == tree_from_perm(word).stats()


# ---------------------------------------------------------------------- #
# serialization                                                           #
# ---------------------------------------------------------------------- #


def test_json_round_trip():
    for t in enumerate_trees(6):
        blob = json.dumps(t.to_json_dict())
        assert IncTree.from_json_dict(json.loads(blob)) == t


def test_json_dict_shape():
    d = tree_from_perm((2, 1)).to_json_dict()
    assert d == {"n": 2, "parent": [0, 1], "left": [2, 0], "right": [0, 0]}


WORDS = {n: list(alternating_permutations(n)) for n in range(1, 9)}
TREES = st.integers(1, 8).flatmap(lambda n: st.sampled_from(WORDS[n])).map(tree_from_perm)
ARRAYS = ("parent", "left", "right")
NOT_LABELS = st.one_of(
    st.booleans(), st.integers(max_value=-1), st.floats(), st.text(), st.none(), st.lists(st.integers())
)


@given(TREES)
def test_tree_json_round_trip_property(tree):
    blob = json.loads(json.dumps(tree.to_json_dict()))
    assert IncTree.from_json_dict(blob) == tree


@st.composite
def corrupted_tree_blobs(draw) -> dict:
    """A tree blob with one field made invalid or inconsistent."""
    tree = draw(TREES)
    n = tree.n
    blob = tree.to_json_dict()
    what = draw(st.sampled_from(["n", "entry", "length", "array", "missing"]))
    name = draw(st.sampled_from(ARRAYS))
    if what == "n":
        blob["n"] = draw(
            st.one_of(
                st.integers().filter(lambda v: v != n),
                st.booleans(),
                st.floats(),
                st.text(),
                st.none(),
            )
        )
    elif what == "entry":
        i = draw(st.integers(0, n - 1))
        old = blob[name][i]
        blob[name][i] = draw(
            st.one_of(NOT_LABELS, st.integers(n + 1), st.integers(0, n).filter(lambda v: v != old))
        )
    elif what == "length":
        if draw(st.booleans()):
            del blob[name][draw(st.integers(0, n - 1))]
        else:
            blob[name].append(0)
    elif what == "array":
        blob[name] = draw(st.one_of(st.none(), st.integers(), st.text(), st.tuples(st.integers())))
    else:
        del blob[draw(st.sampled_from(sorted(blob)))]
    return blob


@settings(deadline=None)
@given(corrupted_tree_blobs())
def test_tree_json_rejects_corruption(blob):
    with pytest.raises(TreeError):
        IncTree.from_json_dict(blob)


def test_tree_json_rejects_malformed_blobs():
    good = tree_from_perm((2, 1)).to_json_dict()
    bad = [
        {"n": True, "parent": [0], "left": [0], "right": [0]},
        {**good, "parent": [False, 1]},
        {key: good[key] for key in ("n", "parent", "left")},
        [good],
        None,
    ]
    for blob in bad:
        with pytest.raises(BadLabelsError):
            IncTree.from_json_dict(blob)
