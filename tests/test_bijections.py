"""Constructive maps: spot cases, preconditions, exhaustive verification."""

import dataclasses
import inspect
from collections import Counter

import pytest

from secant_trees import distributions
from secant_trees.bijections import (
    MAP_DOMAINS,
    MAP_VERIFIERS,
    MapReport,
    _domain_words,
    entringer_map,
    first_row_map,
    pom1_map,
    rightmost_column_map,
    tripling_map,
    verify_map,
)
from secant_trees.distributions import OddSizeError, joint_matrix_bruteforce
from secant_trees.recurrence import tree_count
from secant_trees.trees import (
    alternating_permutations,
    enumerate_trees,
    tree_from_perm,
    word_stats,
)

verify_tripling_map = MAP_VERIFIERS["tripling_map"]


# ---------------------------------------------------------------------- #
# spot cases                                                              #
# ---------------------------------------------------------------------- #


def test_first_row_map_spot_case():
    # the unique size-4 tree with eoc = 2 (pom = 3) drops to the size-2 tree
    t = tree_from_perm((2, 1, 4, 3))
    out = first_row_map(t)
    assert out.projection() == (2, 1)
    assert out.pom() == t.pom() - 2
    # smallest surviving label becomes the new root label 1
    assert out.parent[1] == 0


def test_rightmost_column_map_spot_case():
    t = tree_from_perm((2, 1, 4, 3))  # pom = 3 = 2n-1, eoc = 2
    out = rightmost_column_map(t)
    assert out.projection() == (2, 1)
    assert out.eoc() == t.eoc()


def test_tripling_map_spot_case():
    t = tree_from_perm((2, 1, 4, 3))
    images = tripling_map(t)
    assert {x.projection() for x in images} == {
        (3, 1, 4, 2),
        (3, 2, 4, 1),
        (4, 2, 3, 1),
    }
    assert all(x.pom() == 2 for x in images)


def test_pom1_map_spot_case():
    t = tree_from_perm((4, 1, 3, 2))  # eoc = 3, pom = 1
    out = pom1_map(t)
    assert out.projection() == (2, 1)
    assert out.eoc() == 2
    assert out.parent[1] == 0


def test_entringer_map_spot_case():
    t = tree_from_perm((3, 1, 4, 2))  # eoc = 4 = 2n, pom = 2
    out = entringer_map(t)
    assert out.projection() == (2, 1)
    assert out.ent() == t.pom() - 1


def test_preconditions_rejected():
    t = tree_from_perm((4, 1, 3, 2))  # eoc = 3, pom = 1
    with pytest.raises(ValueError, match="the minimal chain must end at the leaf 2$"):
        first_row_map(t)
    with pytest.raises(ValueError, match="the maximum leaf must hang off node 2n-1"):
        rightmost_column_map(t)
    with pytest.raises(ValueError, match="the maximum leaf must hang off node 2n-1"):
        tripling_map(t)
    with pytest.raises(ValueError, match="the minimal chain must end at the leaf 2n"):
        entringer_map(t)
    with pytest.raises(ValueError, match="the maximum leaf must hang off the root"):
        pom1_map(tree_from_perm((2, 1, 4, 3)))
    with pytest.raises(OddSizeError, match="the size of t must be an even int >= 4, got 2$"):
        pom1_map(tree_from_perm((2, 1)))  # too small


# ---------------------------------------------------------------------- #
# exhaustive verification at small sizes (size 10 in the acceptance run)  #
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("two_n", (4, 6, 8))
@pytest.mark.parametrize("name", sorted(MAP_VERIFIERS))
def test_maps_verify_exhaustively(name, two_n, brute):
    report = MAP_VERIFIERS[name](two_n)
    assert report.ok, report
    assert report.domain > 0
    assert verify_map(name, two_n, brute(two_n)) == report  # a shared count


@pytest.mark.parametrize("name", sorted(MAP_VERIFIERS))
def test_standalone_verifiers_count_no_tree(name, brute, monkeypatch):
    want = {two_n: verify_map(name, two_n, brute(two_n)) for two_n in (4, 6, 8, 10)}

    def refuse(two_n):
        raise AssertionError(f"trees of size {two_n} counted")

    monkeypatch.setattr(distributions, "joint_matrix_bruteforce", refuse)
    for two_n, report in want.items():
        assert report.ok
        assert MAP_VERIFIERS[name](two_n) == report, two_n


# Each domain from its definition, independent of the candidate streams.
DOMAIN_DEFINITIONS = {
    "first_row_map": lambda t: t.eoc() == 2,
    "rightmost_column_map": lambda t: t.pom() == t.n - 1,
    "tripling_map": lambda t: t.pom() == t.n - 1,
    "pom1_map": lambda t: t.pom() == 1,
    "entringer_map": lambda t: t.eoc() == t.n,
}


@pytest.mark.parametrize("two_n", (4, 6, 8))
@pytest.mark.parametrize("name", sorted(MAP_VERIFIERS))
def test_domain_stream_yields_exactly_the_domain(name, two_n):
    pairs = list(_domain_words(name, two_n))
    got = [t.projection() for _, t in pairs]
    assert [word for word, _ in pairs] == got
    want = {
        t.projection() for t in enumerate_trees(two_n) if DOMAIN_DEFINITIONS[name](t)
    }
    assert len(got) == len(set(got))
    assert set(got) == want


def test_fixed_start_streams_equal_the_filtered_word_stream():
    # The words starting (2, 1) or (2n, 1) are built from the words of size
    # 2n-2; they are exactly the full stream's words with that start, in its
    # lexicographic order.
    for two_n in (4, 6, 8, 10):
        words = list(alternating_permutations(two_n))
        for name, first in (("first_row_map", 2), ("pom1_map", two_n)):
            want = [w for w in words if w[:2] == (first, 1)]
            assert list(MAP_DOMAINS[name].words(two_n)) == want, (name, two_n)


def test_entringer_stream_is_exactly_the_domain():
    # Only the words of trees with eoc = 2n, each once: one per tree of
    # size 2n-2.
    for two_n in (4, 6, 8, 10):
        got = list(MAP_DOMAINS["entringer_map"].words(two_n))
        want = {w for w in alternating_permutations(two_n) if word_stats(w).eoc == two_n}
        assert len(got) == len(set(got)) == tree_count(two_n - 2), two_n
        assert set(got) == want, two_n


@pytest.mark.parametrize("two_n", (2, 7))
@pytest.mark.parametrize("name", sorted(MAP_VERIFIERS))
def test_verifiers_reject_sizes_without_a_map(name, two_n):
    message = f"two_n must be an even int >= 4, got {two_n}$"
    with pytest.raises(OddSizeError, match=message):
        MAP_VERIFIERS[name](two_n)
    with pytest.raises(OddSizeError, match=message):
        verify_map(name, two_n, object())  # before it reads the counts


@pytest.mark.parametrize("name", sorted(MAP_VERIFIERS))
def test_stream_missing_a_domain_word_fails(name, monkeypatch):
    domain = MAP_DOMAINS[name]

    def short(two_n):
        words = iter(domain.words(two_n))
        for word in words:
            if domain.contains(tree_from_perm(word)):
                break  # drop the first domain word
            yield word
        yield from words

    monkeypatch.setitem(MAP_DOMAINS, name, dataclasses.replace(domain, words=short))
    report = MAP_VERIFIERS[name](6)
    assert report.covers_domain is False
    assert report.ok is False
    assert report.to_json_dict()["covers_domain"] is False


def test_verify_map_rejects_counts_of_another_size(brute):
    with pytest.raises(ValueError, match="2n = 8"):
        verify_map("first_row_map", 6, brute(8))


def test_verifiers_are_distinct_named_functions():
    # The benchmark tracer wraps each verifier under its __name__.
    fns = list(MAP_VERIFIERS.values())
    assert all(inspect.isfunction(fn) for fn in fns)
    assert len({fn.__name__ for fn in fns}) == len(fns)


@pytest.mark.parametrize("name", sorted(MAP_VERIFIERS))
def test_images_of_another_domain_tree_fail_transport(name, monkeypatch, brute):
    # Each tree gets the images of the next one: still a bijection onto the
    # codomain, but the statistic no longer follows its own source.
    domain = MAP_DOMAINS[name]
    trees = [t for _, t in _domain_words(name, 8)]
    nxt = {t.projection(): u for t, u in zip(trees, trees[1:] + trees[:1])}
    shifted = dataclasses.replace(
        domain, images=lambda t: domain.images(nxt[t.projection()])
    )
    monkeypatch.setitem(MAP_DOMAINS, name, shifted)
    report = verify_map(name, 8, brute(8))
    assert report.injective and report.covers_domain and report.covers_codomain
    assert report.transport_failures and not report.ok


def test_tripling_images_short_of_the_column_fail():
    M = joint_matrix_bruteforce(6)
    M.set(2, 4, M.get(2, 4) + 1)  # one more tree with pom = 2n-2
    report = verify_map("tripling_map", 6, M)
    assert report.image == 15
    assert report.covers_codomain is False and report.covers_domain is True
    assert report.injective and report.transport_ok and not report.ok


def test_domain_short_of_the_margin_fails():
    M = joint_matrix_bruteforce(6)
    M.set(2, 3, M.get(2, 3) + 1)  # one more tree with eoc = 2
    report = verify_map("first_row_map", 6, M)
    assert report.domain == report.image == 5
    assert report.covers_domain is False and report.covers_codomain is True
    assert report.injective and report.transport_ok and not report.ok
    assert report.to_json_dict()["covers_domain"] is False


def test_tripling_images_triple_the_domain():
    report = verify_tripling_map(6)
    assert report.domain == 5 and report.image == 15


def test_map_report_json_shape():
    report = verify_tripling_map(4)
    assert report.to_json_dict() == {
        "map": "tripling_map",
        "two_n": 4,
        "domain": 1,
        "image": 3,
        "injective": True,
        "transport_ok": True,
        "covers_domain": True,
        "covers_codomain": True,
    }


def test_map_report_json_shows_coverage_failure():
    report = MapReport(map="tripling_map", two_n=4, domain=1, image=2,
                       covers_codomain=False)
    blob = report.to_json_dict()
    assert not report.ok
    assert blob["covers_codomain"] is False
    assert blob["injective"] is True and blob["transport_ok"] is True


def test_map_report_json_shows_domain_failure():
    report = MapReport(map="first_row_map", two_n=4, domain=0, image=1,
                       covers_domain=False)
    assert not report.ok
    assert report.to_json_dict()["covers_domain"] is False


# ---------------------------------------------------------------------- #
# cardinality corollaries (profiles grouped straight off the enumeration) #
# ---------------------------------------------------------------------- #


def _profiles(two_n):
    by_eoc_pom_top = Counter()
    for t in enumerate_trees(two_n):
        by_eoc_pom_top[(t.eoc(), t.pom())] += 1
    return by_eoc_pom_top


def test_boundary_profiles_at_size_eight():
    counts = _profiles(8)
    assert [counts[(m, 7)] for m in range(2, 7)] == [5, 15, 21, 15, 5]
    assert [counts[(m, 6)] for m in range(2, 6)] == [15, 45, 63, 45]
    assert [counts[(m, 1)] for m in range(3, 8)] == [5, 15, 21, 15, 5]
    assert [counts[(2, k)] for k in range(3, 8)] == [5, 15, 21, 15, 5]
    assert [counts[(8, k)] for k in range(2, 7)] == [16, 16, 14, 10, 5]
    # the tripling explains the factor three column by column
    for m in range(2, 6):
        assert counts[(m, 6)] == 3 * counts[(m, 7)]
