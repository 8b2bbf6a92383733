"""Tree model, validation, enumeration, projection and statistics."""

import hashlib
import json
import re
from collections import Counter
from itertools import chain, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secant_trees.trees import (
    IncTree,
    TreeError,
    alternating_permutations,
    enumerate_trees,
    is_alternating,
    tree_from_perm,
    word_stats,
)

# counts of complete increasing trees by size (secant/tangent interleaved)
TREE_COUNTS = {1: 1, 2: 1, 3: 2, 4: 5, 5: 16, 6: 61, 7: 272, 8: 1385, 9: 7936, 10: 50521}


def one_child_nodes(t: IncTree) -> list[int]:
    """The nodes with exactly one child, read off the child arrays."""
    return [v for v in range(1, t.n + 1) if (t.left[v] == 0) != (t.right[v] == 0)]


# ---------------------------------------------------------------------- #
# validation                                                              #
# ---------------------------------------------------------------------- #


def test_validate_unique_size_two_tree():
    parent, left, right = [0, 0, 1], [0, 2, 0], [0, 0, 0]
    t = IncTree(parent, left, right)
    assert t.n == 2
    assert t.projection() == (2, 1)
    # the tree keeps copies: changing the lists afterwards leaves it as it was
    left[1], right[1] = 0, 2
    assert (t.parent, t.left, t.right) == ((0, 0, 1), (0, 2, 0), (0, 0, 0))


def test_validate_figure_tree_via_perm():
    t = tree_from_perm((4, 1, 3, 2))
    # root 1 carries leaf 4 on the left and the one-child node 2 on the right
    assert t.left[1] == 4 and t.right[1] == 2 and t.left[2] == 3
    assert one_child_nodes(t) == [2]


def test_validate_rejects_one_child_chain_for_odd_size():
    # 1 -> 2 -> 3 as a chain of left children: two one-child nodes, odd size
    with pytest.raises(TreeError, match="odd size 3 admits no one-child node"):
        IncTree((0, 0, 1, 2), (0, 2, 3, 0), (0, 0, 0, 0))


def test_validate_rejects_right_only_child():
    # even size, but the single child hangs on the right
    with pytest.raises(TreeError, match="one-child node 1 must carry a left child"):
        IncTree((0, 0, 1), (0, 0, 0), (0, 2, 0))


def test_validate_rejects_misplaced_one_child_node():
    # 1 has children 2 (left, with single left child 4) and 3 (right):
    # the one-child node 2 is not the rightmost node
    with pytest.raises(TreeError, match="one-child node 2 is not the rightmost node"):
        IncTree((0, 0, 1, 1, 2), (0, 2, 4, 0, 0), (0, 3, 0, 0, 0))


def test_validate_rejects_decreasing_labels():
    # node 2 hangs below node 3
    with pytest.raises(TreeError, match="node 2 hangs below 3, which is not smaller"):
        IncTree((0, 0, 3, 1, 1), (0, 3, 0, 2, 0), (0, 4, 0, 0, 0))


def test_validate_rejects_inconsistent_maps():
    # parent says 2 hangs below 1 but 1 lists no children
    with pytest.raises(TreeError, match="left/right do not list each non-root node once"):
        IncTree((0, 0, 1), (0, 0, 0), (0, 0, 0))


def test_validate_rejects_bad_labels():
    with pytest.raises(TreeError, match=r"parent entry 7 is not a label in 0\.\.2"):
        IncTree((0, 0, 7), (0, 2, 0), (0, 0, 0))
    with pytest.raises(TreeError, match=r"parent/left/right maps must all cover labels 1\.\.n"):
        IncTree((0, 0, 1), (0, 2), (0, 0, 0))


def test_validate_names_an_entry_out_of_range_before_any_other_fault():
    # Validation finds a label out of range in its loop over the child
    # arrays, yet the message names the entry before any other fault.
    cases = [
        (((0, 0, 1), (0, 3, 0), (0, 0, 0)), r"left entry 3 is not a label in 0\.\.2"),
        (((0, 0, 1), (0, 2, -1), (0, 0, 0)), r"left entry -1 is not a label in 0\.\.2"),
        (((0, -1, 1), (0, 2, 0), (0, 0, 0)), r"parent entry -1 is not a label in 0\.\.2"),
        (((-1, 0, 1), (0, 2, 0), (0, 0, 0)), r"parent entry -1 is not a label in 0\.\.2"),
        (((0, 0, 1), (0, 2, 0), (0, -2, 0)), r"right entry -2 is not a label in 0\.\.2"),
        (((0, 0, 1), (0, 2, 0), (0, 0, True)), r"right entry True is not a label in 0\.\.2"),
    ]
    for arrays, message in cases:
        with pytest.raises(TreeError, match=message):
            IncTree(*arrays)


@pytest.mark.parametrize(
    "arrays, message",
    [
        (((0,), (0,), (0,)), "tree must have at least one node"),
        # 1 -> 2 -> 3 -> 4 as a chain of left children.  With n - 1 links an
        # even size always has an odd number of one-child nodes.
        (
            ((0, 0, 1, 2, 3), (0, 2, 3, 4, 0), (0, 0, 0, 0, 0)),
            "even size 4 needs exactly one one-child node, found [1, 2, 3]",
        ),
    ],
    ids=("no node", "three one-child nodes"),
)
def test_validate_rejects_a_bad_arity(arrays, message):
    with pytest.raises(TreeError, match=f"^{re.escape(message)}$"):
        IncTree(*arrays)


def test_tree_hash_and_repr():
    t = tree_from_perm((4, 1, 3, 2))
    assert hash(t) == hash(IncTree(t.parent, t.left, t.right))
    assert len({t, tree_from_perm((4, 1, 3, 2)), tree_from_perm((2, 1, 4, 3))}) == 2
    assert repr(t) == "IncTree(4 1 3 2)"


def test_validate_keyword_is_gone():
    t = tree_from_perm((2, 1))
    with pytest.raises(TypeError):
        IncTree(t.parent, t.left, t.right, validate=False)


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
    # Letters are exactly ints: True and 2.0 compare equal to labels.
    for bad in (
        (), (1, 2), (2, 1, 3, 4), (1, 1), (3, 2, 1), (2, 1, 3, 3),
        (True,), (2, True), (2, 1.0), (2.0, 1), (2.0, 1.0), (3, 1.0, 2), "21",
    ):
        assert not is_alternating(bad)
        message = f"^not a down-up alternating permutation: {re.escape(repr(tuple(bad)))}$"
        with pytest.raises(TreeError, match=message):
            tree_from_perm(bad)


def test_tree_from_perm_accepts_exactly_the_down_up_words():
    # Every permutation of 1..n for n <= 7, the empty word among them: the
    # down-up words are the ones the word generator lists.
    down_up = set(chain.from_iterable(alternating_permutations(n) for n in range(1, 8)))
    for word in chain.from_iterable(permutations(range(1, n + 1)) for n in range(8)):
        assert is_alternating(word) == (word in down_up), word
        try:
            tree_from_perm(word)
        except TreeError as exc:
            assert str(exc) == f"not a down-up alternating permutation: {word!r}"
            assert word not in down_up, word
        else:
            assert word in down_up, word


# sha256 of repr((parent, left, right)) of tree_from_perm(w) over the words w
# of alternating_permutations(n) in order, computed with the earlier
# construction, which checked the word with is_alternating first and filled
# parent in a second loop over the child maps.
TREE_DIGESTS = {
    1: "ac7da9c5cb85e5d521d1368afc3eb31a71acea2b95f619c149cd56564f82ddeb",
    2: "1aee348380850ee3008c8e4e67b9df2dc19613f9989783c2fe5598de3d78b91e",
    3: "d1f68fc2009f061bc786fc9e15271ce96e0c1dc6f788fc1b3c1884d3a1d2b240",
    4: "cdfb00fde869ecb5d01bc01a0c140c4813fa93387cf5ec7859e7d5d55a5f9f81",
    5: "7fe3df64b6d8d75fdb3fb2c9620fb7fdb6dc53ae42250a86423452b5d8dde5c6",
    6: "263741aec642256d155f41e640a8dadcf9495f9c86c2e2a6be54604f1c9ba16d",
    7: "685fd6b073eddf60658ffe2ea3308bd2aed8dbfb9d219c6fdda7c72cc7572288",
    8: "938340557957e5ebccea923fe84b6b147fad36e61e52e36d11c7c30b5bbe8d39",
    9: "2fcdda46e2c73a009cf19b656904d8c188aef9ef5f92ed8526bc908f0d598f6f",
    10: "7ab64b2087b6c84c6ff2e92b57ace7a7e9d5062fc843d1f27fd36e87008aa1c0",
}


@pytest.mark.parametrize("n", sorted(TREE_DIGESTS))
def test_projection_round_trip_exhaustive(n):
    # Every word's tree projects back onto it, ends at its last letter,
    # passes full validation and is the tree the earlier construction built.
    digest = hashlib.sha256()
    for word in alternating_permutations(n):
        assert is_alternating(word)
        t = tree_from_perm(word)
        assert t.projection() == word
        assert t.ent() == word[-1]
        assert IncTree(t.parent, t.left, t.right) == t
        digest.update(repr((t.parent, t.left, t.right)).encode())
    assert digest.hexdigest() == TREE_DIGESTS[n]


# ---------------------------------------------------------------------- #
# enumeration                                                             #
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("n,count", sorted(TREE_COUNTS.items()))
def test_enumeration_counts(n, count):
    assert sum(1 for _ in alternating_permutations(n)) == count


def test_enumeration_is_lexicographic_and_duplicate_free():
    words = list(alternating_permutations(6))
    assert words == sorted(set(words))


# ---------------------------------------------------------------------- #
# minimal chain and the three statistics                                  #
# ---------------------------------------------------------------------- #


def test_minimal_chain_examples():
    assert tree_from_perm((4, 1, 3, 2)).minimal_chain() == (1, 2, 3)
    assert tree_from_perm((2, 1)).minimal_chain() == (1, 2)
    assert tree_from_perm((3, 1, 4, 2)).minimal_chain() == (1, 2, 4)


def test_minimal_chain_is_increasing_from_the_root():
    for n in range(1, 11):
        for t in enumerate_trees(n):
            # the definition: follow the smaller or only child until a leaf
            path, v = [1], 1
            while children := [c for c in (t.left[v], t.right[v]) if c]:
                v = min(children)
                path.append(v)
            assert t.minimal_chain() == tuple(path)
            assert path == sorted(path)


@pytest.mark.parametrize("n", range(2, 11))
def test_eoc_is_the_end_of_the_minimal_chain(n):
    for t in enumerate_trees(n):
        assert t.eoc() == t.minimal_chain()[-1]


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
    with pytest.raises(TreeError, match="eoc is undefined on the single-node tree"):
        t.eoc()
    with pytest.raises(TreeError, match="pom is undefined on the single-node tree"):
        t.pom()


def test_maximum_label_is_always_a_leaf():
    for n in range(2, 9):
        for t in enumerate_trees(n):
            assert t.left[t.n] == t.right[t.n] == 0


def test_one_child_node_is_rightmost_for_even_sizes():
    for n in (2, 4, 6, 8):
        for t in enumerate_trees(n):
            last = t.projection()[-1]
            assert one_child_nodes(t) == [last] and t.left[last]


def test_word_stats_agrees_with_tree_stats():
    # Word-side oracle: the parent of the maximum is the larger of its
    # neighbours (the letters beside it are both smaller), and the rightmost
    # node is the last letter.
    for n in range(2, 10):
        for word in alternating_permutations(n):
            i = word.index(n)
            neighbours = word[max(i - 1, 0):i] + word[i + 1:i + 2]
            s = word_stats(word)
            assert s.pom == max(neighbours)
            assert s.ent == word[-1]


def test_word_stats_rejects_non_alternating():
    # Not down-up, a repeated letter, and a bool that equals the label 1.
    for bad in ((1, 2, 3), (1, 3, 2), (2, 2, 1), (2, True)):
        with pytest.raises(TreeError, match="not a down-up alternating permutation"):
            word_stats(bad)
    with pytest.raises(TreeError, match="eoc is undefined on the single-node tree"):
        word_stats((1,))


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
        ({"n": True, "parent": [0], "left": [0], "right": [0]}, "n must be an int >= 1, got True"),
        ({**good, "n": 2.0}, r"n must be an int >= 1, got 2\.0"),
        ({**good, "n": "2"}, "n must be an int >= 1, got '2'"),
        ({**good, "n": 0}, "n must be an int >= 1, got 0"),
        ({**good, "parent": [False, 1]}, r"parent entry False is not a label in 0\.\.2"),
        ({key: good[key] for key in ("n", "parent", "left")}, r"tree JSON misses \['right'\]"),
        ([good], "tree JSON must be an object, got list"),
        (None, "tree JSON must be an object, got NoneType"),
    ]
    for blob, message in bad:
        with pytest.raises(TreeError, match=message):
            IncTree.from_json_dict(blob)


def walk_oracle_accepts(arrays: list[list]) -> bool:
    """Validation by another route: exact int entries whose in-order walk
    from the root (at most n letters, each a label) is a down-up word whose
    tree has exactly these three arrays."""
    parent, left, right = arrays
    n = len(parent) - 1
    if any(type(v) is not int for v in chain(*arrays)):
        return False
    word: list[int] = []
    stack: list[int] = []
    v = 1
    while len(word) <= n:
        while v:
            if not 0 < v <= n or len(stack) > n:
                return False
            stack.append(v)
            v = left[v]
        if not stack:
            break
        v = stack.pop()
        word.append(v)
        v = right[v]
    else:
        return False
    try:
        t = tree_from_perm(word)
    except TreeError:
        return False
    return [list(t.parent), list(t.left), list(t.right)] == arrays


@st.composite
def corrupted_tree_arrays(draw) -> list[list]:
    """The three arrays of a tree of size 1..8 with one to three faults: an
    entry out of range, True or 2.0 as an entry, two entries swapped within
    or across the arrays, a child listed twice, or the root listed as a
    child.  A swap of equal entries leaves the tree valid."""
    tree = draw(TREES)
    n = tree.n
    arrays = [list(tree.parent), list(tree.left), list(tree.right)]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["range", "type", "swap", "twice", "root"]))
        a, i = draw(st.integers(0, 2)), draw(st.integers(0, n))
        child = (arrays[draw(st.integers(1, 2))], draw(st.integers(1, n)))
        if kind == "range":
            arrays[a][i] = draw(st.one_of(st.integers(max_value=-1), st.integers(n + 1)))
        elif kind == "type":
            arrays[a][i] = draw(st.sampled_from([True, 2.0]))
        elif kind == "swap":
            b, j = draw(st.integers(0, 2)), draw(st.integers(0, n))
            arrays[a][i], arrays[b][j] = arrays[b][j], arrays[a][i]
        elif kind == "twice" and n > 1:
            child[0][child[1]] = draw(st.integers(2, n))
        elif kind == "root":
            child[0][child[1]] = 1
    return arrays


@settings(deadline=None, max_examples=300)
@given(corrupted_tree_arrays())
def test_validation_accepts_exactly_what_the_walk_oracle_accepts(arrays):
    try:
        tree = IncTree(*arrays)
    except TreeError:
        assert not walk_oracle_accepts(arrays), arrays
    else:
        assert walk_oracle_accepts(arrays), arrays
        assert [list(tree.parent), list(tree.left), list(tree.right)] == arrays
