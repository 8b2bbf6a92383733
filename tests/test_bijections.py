"""Constructive maps: spot cases, preconditions, exhaustive verification."""

import dataclasses
import inspect
from collections import Counter

import pytest

from secant_trees import bijections, distributions
from secant_trees.bijections import (
    MAP_DOMAINS,
    MAP_VERIFIERS,
    MapReport,
    entringer_map,
    first_row_map,
    pom1_map,
    rightmost_column_map,
    tripling_map,
    verify_maps,
)
from secant_trees.cli import run_checks
from secant_trees.distributions import OddSizeError, joint_matrix_bruteforce
from secant_trees.recurrence import tree_count
from secant_trees.trees import (
    alternating_permutations,
    enumerate_trees,
    tree_from_perm,
    word_stats,
)

verify_tripling_map = MAP_VERIFIERS["tripling_map"]


def _verify(name, two_n, counts):
    """The report of the one map *name* from :func:`verify_maps`."""
    (report,) = verify_maps((name,), two_n, counts)
    return report


def _stream(name, two_n):
    """The candidate words of the map *name* at *two_n*, in stream order."""
    words = MAP_DOMAINS[name].words
    return [word for u in alternating_permutations(two_n - 2) for word in words(u)]


def _domain(name, two_n):
    """``(word, tree)`` for each candidate of the stream, unfiltered: the
    streams are exact, and a stray word must show in the tests."""
    return [(word, tree_from_perm(word)) for word in _stream(name, two_n)]


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


@pytest.mark.parametrize("two_n", [6, 8])
def test_tripling_map_images_come_in_the_documented_order(two_n):
    domain = [t for t in enumerate_trees(two_n) if t.pom() == two_n - 1]
    assert domain
    a, b, c = two_n - 2, two_n - 1, two_n
    swap = {a: b, b: a}
    for t in domain:
        first, second, third = tripling_map(t)
        # the transposition of 2n-2 and 2n-1 ...
        assert first.projection() == tuple(swap.get(v, v) for v in t.projection())
        # ... then the pair {2n-1, 2n} replanted below 2n-2, in both orders
        assert (second.left[a], second.right[a]) == (b, c)
        assert (third.left[a], third.right[a]) == (c, b)
        rest = [v for v in t.projection() if v < b]
        for image in (second, third):
            assert [v for v in image.projection() if v < b] == rest


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
    assert verify_maps((name,), two_n, brute(two_n)) == [report]  # a shared count


@pytest.mark.parametrize("name", sorted(MAP_VERIFIERS))
def test_standalone_verifiers_count_no_tree(name, brute, monkeypatch):
    want = {two_n: _verify(name, two_n, brute(two_n)) for two_n in (4, 6, 8, 10)}

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
    pairs = _domain(name, two_n)
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
            assert _stream(name, two_n) == want, (name, two_n)


def test_entringer_stream_is_exactly_the_domain():
    # Only the words of trees with eoc = 2n, each once: one per tree of
    # size 2n-2.
    for two_n in (4, 6, 8, 10):
        got = _stream("entringer_map", two_n)
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
        verify_maps((name,), two_n, object())  # before it reads the counts


@pytest.mark.parametrize("name", sorted(MAP_VERIFIERS))
def test_stream_missing_a_domain_word_fails(name, monkeypatch):
    domain = MAP_DOMAINS[name]
    first = _domain(name, 6)[0][0]

    def short(u):
        return [word for word in domain.words(u) if word != first]

    monkeypatch.setitem(MAP_DOMAINS, name, dataclasses.replace(domain, words=short))
    report = MAP_VERIFIERS[name](6)
    assert report.covers_domain is False
    assert report.ok is False
    assert report.to_json_dict()["covers_domain"] is False


PRECONDITION_MESSAGES = {
    "first_row_map": "the minimal chain must end at the leaf 2",
    "rightmost_column_map": "the maximum leaf must hang off node 2n-1",
    "tripling_map": "the maximum leaf must hang off node 2n-1",
    "pom1_map": "the maximum leaf must hang off the root",
    "entringer_map": "the minimal chain must end at the leaf 2n",
}


@pytest.mark.parametrize("name", sorted(MAP_VERIFIERS))
def test_stream_with_a_stray_word_raises_the_maps_error(name, monkeypatch, brute):
    # The first word of size 6 outside the domain, yielded once beside the
    # stream: the map itself refuses it, so the pass cannot drop it.
    domain = MAP_DOMAINS[name]
    stray = next(
        w for w in alternating_permutations(6) if not DOMAIN_DEFINITIONS[name](tree_from_perm(w))
    )
    first = next(alternating_permutations(4))

    def with_stray(u):
        return [*domain.words(u), stray] if u == first else domain.words(u)

    monkeypatch.setitem(MAP_DOMAINS, name, dataclasses.replace(domain, words=with_stray))
    with pytest.raises(ValueError, match=f"^{PRECONDITION_MESSAGES[name]}$"):
        verify_maps((name,), 6, brute(6))


def test_verify_map_rejects_counts_of_another_size(brute):
    with pytest.raises(ValueError, match="2n = 8"):
        verify_maps(("first_row_map",), 6, brute(8))


def test_verify_map_rejects_an_unknown_map(brute):
    unknown = rf"^unknown map 'bogus' \(known: {', '.join(MAP_DOMAINS)}\)$"
    with pytest.raises(ValueError, match=unknown):
        verify_maps(("bogus",), 6, brute(6))
    with pytest.raises(ValueError, match=unknown):
        verify_maps(("first_row_map", "bogus"), 6, brute(6))
    message = "^names is a collection of map names, not the string 'first_row_map'$"
    with pytest.raises(ValueError, match=message):
        verify_maps("first_row_map", 6, brute(6))


def test_a_generator_of_names_gives_the_reports_of_the_tuple(brute):
    names = tuple(MAP_DOMAINS)
    reports = verify_maps((name for name in names), 8, brute(8))
    assert reports == verify_maps(names, 8, brute(8))
    assert [report.map for report in reports] == list(names)


@pytest.mark.parametrize(
    "names, two_n, message",
    [
        ((), 6, rf"^no map selected \(known: {', '.join(MAP_DOMAINS)}\)$"),
        (("first_row_map",) * 2, 13, "^map 'first_row_map' is selected more than once$"),
    ],
    ids=("empty", "repeated"),
)
def test_a_selection_of_no_map_or_a_map_twice_fails_before_the_pass(
    names, two_n, message, monkeypatch
):
    # The names are checked first, before the size and the counts, as the
    # checks of `verify` are.
    def refuse(n):
        pytest.fail(f"the pass walked the down-up words of size {n}")

    monkeypatch.setattr(bijections, "alternating_permutations", refuse)
    with pytest.raises(ValueError, match=message) as exc:
        verify_maps(names, two_n, object())
    assert exc.type is ValueError


def test_verify_map_rejects_counts_that_are_not_a_matrix(brute):
    for counts in (object(), brute(6).to_json_dict()):
        message = f"^counts must be a JointMatrix, got {type(counts).__name__}$"
        with pytest.raises(ValueError, match=message):
            verify_maps(("first_row_map",), 6, counts)


@pytest.mark.parametrize("two_n", (14, 16, 10**6))
@pytest.mark.parametrize("name", sorted(MAP_VERIFIERS))
def test_verifiers_refuse_a_size_above_the_cap(name, two_n, brute, monkeypatch):
    def refuse(*args):
        pytest.fail("the pass started above the cap")

    monkeypatch.setattr(bijections, "alternating_permutations", refuse)
    monkeypatch.setattr(bijections, "assemble", refuse)
    message = (
        f"^two_n {two_n} is above 12, the largest size the maps are verified at: their "
        f"domains at 2n = {two_n} would be built from every down-up word of size {two_n - 2}$"
    )
    with pytest.raises(ValueError, match=message) as exc:
        MAP_VERIFIERS[name](two_n)
    assert exc.type is ValueError
    with pytest.raises(ValueError, match=message):
        verify_maps((name,), two_n, brute(14) if two_n == 14 else object())


@pytest.mark.parametrize("name", sorted(set(MAP_VERIFIERS) - {"tripling_map"}))
def test_two_sources_with_one_image_break_injectivity(name, monkeypatch, brute):
    # The second domain tree takes the image of the first.
    domain = MAP_DOMAINS[name]
    (first, t1), (second, t2) = _domain(name, 8)[:2]
    shared = dataclasses.replace(domain, images=lambda t: domain.images(t1 if t == t2 else t))
    monkeypatch.setitem(MAP_DOMAINS, name, shared)
    report = _verify(name, 8, brute(8))
    (image,) = domain.images(t1)
    assert not report.injective and not report.ok
    assert report.collisions == [(first, second, image.projection())]
    assert report.image == report.domain - 1
    assert report.covers_domain and not report.covers_codomain
    blob = report.to_json_dict()
    assert blob["injective"] is False and blob["collisions"] == 1
    assert blob["first_collision"] == [list(first), list(second), list(image.projection())]
    # verify's failing row carries the same report
    row = run_checks(8, ("bijection",)).rows[-1]
    assert [f["actual"] for f in row.failures] == [blob]


def test_one_pass_equals_each_map_alone(brute):
    names = tuple(MAP_DOMAINS)
    for two_n in (4, 6, 8, 10):
        alone = [_verify(name, two_n, brute(two_n)) for name in names]
        assert verify_maps(names, two_n, brute(two_n)) == alone, two_n
        assert all(report.ok for report in alone), two_n
    assert [report.domain for report in alone] == [1385] * 5
    assert [report.image for report in alone] == [1385, 1385, 4155, 1385, 1385]


@pytest.mark.parametrize("name", sorted(MAP_VERIFIERS))
def test_a_one_map_run_reads_only_its_own_stream(name, monkeypatch, brute):
    def refuse(u):
        pytest.fail(f"another map's stream ran for {name}")

    want = _verify(name, 8, brute(8))
    for other, domain in list(MAP_DOMAINS.items()):
        if other != name:
            monkeypatch.setitem(MAP_DOMAINS, other, dataclasses.replace(domain, words=refuse))
    assert _verify(name, 8, brute(8)) == want
    assert MAP_VERIFIERS[name](8) == want


def test_verify_enumerates_each_size_once_for_all_maps(monkeypatch):
    calls = Counter()

    def counting(n):
        calls[n] += 1
        return alternating_permutations(n)

    monkeypatch.setattr(bijections, "alternating_permutations", counting)
    report = run_checks(10, ("bijection",))
    assert report.overall == "pass" and len(report.rows) == 4
    assert calls == {2: 1, 4: 1, 6: 1, 8: 1}


def test_verifiers_are_distinct_named_functions():
    # The benchmark tracer wraps each verifier under its __name__.
    fns = list(MAP_VERIFIERS.values())
    assert all(inspect.isfunction(fn) for fn in fns)
    assert len({fn.__name__ for fn in fns}) == len(fns)


# Sources of the 61 domain trees at 2n = 8 whose shifted images break transport.
_SHIFTED_SOURCES_FAILING = {
    "first_row_map": 37,
    "rightmost_column_map": 37,
    "tripling_map": 32,
    "pom1_map": 37,
    "entringer_map": 57,
}


@pytest.mark.parametrize("name", sorted(MAP_VERIFIERS))
def test_images_of_another_domain_tree_fail_transport(name, monkeypatch, brute):
    # Each tree gets the images of the next one: still a bijection onto the
    # codomain, but the statistic no longer follows its own source.  Each
    # failing source is listed once: a tripling source with three failing
    # images counts once, so 32 of the 61 tripling sources fail, not 96.
    domain = MAP_DOMAINS[name]
    trees = [t for _, t in _domain(name, 8)]
    nxt = {t.projection(): u for t, u in zip(trees, trees[1:] + trees[:1])}
    shifted = dataclasses.replace(
        domain, images=lambda t: domain.images(nxt[t.projection()])
    )
    monkeypatch.setitem(MAP_DOMAINS, name, shifted)
    report = _verify(name, 8, brute(8))
    assert report.injective and report.covers_domain and report.covers_codomain
    assert report.transport_failures and not report.ok
    assert len(set(report.transport_failures)) == len(report.transport_failures)
    assert len(report.transport_failures) == _SHIFTED_SOURCES_FAILING[name]
    blob = report.to_json_dict()
    assert blob["transport_failures"] == len(report.transport_failures)
    assert blob["first_transport_failure"] == list(report.transport_failures[0])
    assert blob["collisions"] == 0 and blob["first_collision"] is None


def test_tripling_images_short_of_the_column_fail():
    M = joint_matrix_bruteforce(6)
    M.set(2, 4, M.get(2, 4) + 1)  # one more tree with pom = 2n-2
    report = _verify("tripling_map", 6, M)
    assert report.image == 15
    assert report.covers_codomain is False and report.covers_domain is True
    assert report.injective and report.transport_ok and not report.ok


def test_domain_short_of_the_margin_fails():
    M = joint_matrix_bruteforce(6)
    M.set(2, 3, M.get(2, 3) + 1)  # one more tree with eoc = 2
    report = _verify("first_row_map", 6, M)
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
        "collisions": 0,
        "first_collision": None,
        "transport_failures": 0,
        "first_transport_failure": None,
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
