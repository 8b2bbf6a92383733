"""Constructive size-reducing maps behind the boundary identities.

Each map acts on even-size trees satisfying a statistic precondition and
lands in the trees two sizes smaller (or, for the tripling, in the same size
with the statistic shifted), transporting a statistic in a stated way:

* ``first_row_map``        eoc = 2        ->  size-2, pom drops by 2
* ``rightmost_column_map`` pom = 2n-1     ->  size-2, eoc preserved
* ``tripling_map``         pom = 2n-1     ->  three trees with pom = 2n-2
* ``pom1_map``             pom = 1        ->  size-2, eoc drops by 1
* ``entringer_map``        eoc = 2n       ->  size-2, rightmost label pom-1

Together these explain why the first row, first column, rightmost column and
bottom row of the joint matrices repeat previous-size marginals, and why the
next-to-rightmost column is three times the rightmost.  Every constructed
tree is fully re-validated.  One pass certifies the selected maps at one
small size: injectivity, statistic transport, and coverage of domain and
codomain.  It enumerates the down-up words ``u`` of size 2n-2 once, and
each map's stream (``MAP_DOMAINS``) grows from ``u`` the words of its
domain: the words with a forced start or end, and for eoc = 2n the words
grown from the tree of ``u`` when its minimal chain reaches its rightmost
node.  The pass builds each candidate tree once, even for two maps with one
domain.  Every domain holds E_{2n-2} trees, the secant number
``tree_count(2n - 2)``, and so does every codomain but the tripling's,
which holds three times as many: the pass counts each against that number
and reads no matrix, so ``verify`` runs all five maps in one pass per size
without counting a tree.  ``verify_maps`` is the one way into the pass: it
takes the names of the maps to run under the selection rule that verify's
checks follow (a collection of known names, not one string, not empty,
none named twice), and refuses a bad selection or size before any word is
walked.  ``MAP_VERIFIERS`` holds one standalone verifier per key of
``MAP_DOMAINS``, named ``verify_<map>``, that runs the pass for its map
alone.  Images are validated trees, so distinct images landing in the
codomain, as many as the codomain holds, certify that the map covers it.
Each map checks its own precondition, so a stray candidate outside its
domain raises that map's ``ValueError``.  Images are keyed by their child
arrays and sources by their words; a projection is computed only for a
collision record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .recurrence import tree_count
from .trees import IncTree, _check_selection, _check_size, alternating_permutations, tree_from_perm

__all__ = [
    "MAP_VERIFIERS",
    "MapReport",
    "entringer_map",
    "first_row_map",
    "pom1_map",
    "rightmost_column_map",
    "tripling_map",
    "verify_maps",
]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _relabel(t: IncTree, sigma: Sequence[int], n_new: int) -> IncTree:
    """Rebuild *t* under the label map *sigma* (0 deletes a node; sigma[0]
    must be 0, so that "none" stays "none").

    Links to deleted nodes vanish; the result is fully validated.
    """
    parent = [0] * (n_new + 1)
    left = [0] * (n_new + 1)
    right = [0] * (n_new + 1)
    for v_old in range(1, t.n + 1):
        v = sigma[v_old]
        if v:
            parent[v] = sigma[t.parent[v_old]]
            left[v] = sigma[t.left[v_old]]
            right[v] = sigma[t.right[v_old]]
    return IncTree(parent, left, right)


def first_row_map(t: IncTree) -> IncTree:
    """For eoc(t) = 2: drop the leaf 2 and the root, relabel by -2.

    The leaf 2 hangs off the root, so the root's other child (always node 3)
    becomes the new root; pom drops by exactly 2.
    """
    _check_size(t.n, 4, "the size of t", even=True)
    _require(t.eoc() == 2, "the minimal chain must end at the leaf 2")
    return _relabel(t, [0, 0, 0, *range(1, t.n - 1)], t.n - 2)


def rightmost_column_map(t: IncTree) -> IncTree:
    """For pom(t) = 2n-1: delete the rightmost path (nodes 2n and 2n-1).

    2n-1 is forced to be the one-child node carrying the leaf 2n, and it
    hangs as a right child; no relabelling is needed and eoc is preserved.
    """
    _check_size(t.n, 4, "the size of t", even=True)
    _require(t.pom() == t.n - 1, "the maximum leaf must hang off node 2n-1")
    return _relabel(t, [*range(t.n - 1), 0, 0], t.n - 2)


def tripling_map(t: IncTree) -> tuple[IncTree, IncTree, IncTree]:
    """For pom(t) = 2n-1: the three trees with pom = 2n-2 it accounts for.

    The first image transposes the labels 2n-2 and 2n-1 (node 2n-2 is forced
    to be a leaf).  The other two detach the pair {2n-1, 2n} from the tree
    and replant it as the two children of the old leaf 2n-2: first with
    2n-1 on the left, then with 2n on the left.  Over the whole domain the
    3 |domain| images are pairwise distinct and exhaust the trees with
    pom = 2n-2.
    """
    n = t.n
    _check_size(n, 4, "the size of t", even=True)
    _require(t.pom() == n - 1, "the maximum leaf must hang off node 2n-1")

    sigma = list(range(n + 1))
    sigma[n - 2], sigma[n - 1] = n - 1, n - 2
    t1 = _relabel(t, sigma, n)

    # Node 2n-1 carries only the leaf 2n, so it is the one-child node, which
    # sits on the root's path of right children: it is a right child.
    parent = list(t.parent)
    left = list(t.left)
    right = list(t.right)
    right[parent[n - 1]] = 0
    parent[n - 1] = parent[n] = n - 2
    left[n - 1] = right[n - 1] = 0
    # IncTree copies the arrays, so the third image reuses them.
    left[n - 2], right[n - 2] = n - 1, n
    t2 = IncTree(parent, left, right)
    left[n - 2], right[n - 2] = n, n - 1
    return t1, t2, IncTree(parent, left, right)


def pom1_map(t: IncTree) -> IncTree:
    """For pom(t) = 1: drop the leaf 2n and the root, relabel by -1.

    The root's other child (always node 2) becomes the new root and eoc
    drops by exactly 1.
    """
    _check_size(t.n, 4, "the size of t", even=True)
    _require(t.pom() == 1, "the maximum leaf must hang off the root")
    return _relabel(t, [0, 0, *range(1, t.n - 1), 0], t.n - 2)


def entringer_map(t: IncTree) -> IncTree:
    """For eoc(t) = 2n: delete the chain's last two nodes and close ranks.

    Here the leaf 2n is the only child of the node k = pom(t), which is the
    one-child node.  Both are deleted; each remaining minimal-chain node
    takes the next chain label minus one, every other label drops by one.
    The rightmost label of the result is k - 1.
    """
    n = t.n
    _check_size(n, 4, "the size of t", even=True)
    chain = t.minimal_chain()
    _require(chain[-1] == n, "the minimal chain must end at the leaf 2n")
    sigma = [0, *range(n)]
    for i in range(len(chain) - 2):
        sigma[chain[i]] = chain[i + 1] - 1
    sigma[chain[-2]] = sigma[chain[-1]] = 0
    return _relabel(t, sigma, n - 2)


# -- exhaustive verification ---------------------------------------------------

# Largest size the verifiers take: each enumerates the down-up words of size
# 2n-2, and at 14 these are 2,702,765.  It also keeps every label below 256,
# so that a source word and the child arrays of an image fit in bytes.
_MAX_TWO_N = 12


def _starts_with_two_one(u: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The word ``(2, 1, *u)`` with the letters of ``u`` moved to 3 .. 2n."""
    return ((2, 1, *[x + 2 for x in u]),)


def _starts_with_top_one(u: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The word ``(2n, 1, *u)`` with the letters of ``u`` moved to 2 .. 2n-1."""
    return ((len(u) + 2, 1, *[x + 1 for x in u]),)


def _ends_with_top_pair(u: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The word ``(*u, 2n, 2n-1)``."""
    two_n = len(u) + 2
    return (u + (two_n, two_n - 1),)


def _max_before_last(u: tuple[int, ...]) -> Sequence[tuple[int, ...]]:
    """The words ``(*u^j, 2n, j)`` of the trees with eoc = 2n grown from
    ``u``; over every ``u`` each such tree comes once.

    ``u^j`` relabels ``x -> x + (x >= j)``.  In the tree of the word, ``j``
    is the rightmost node with the only child 2n, and it hangs as the right
    child of ``u_last``, the rightmost node of ``u``, whose left child is
    ``left_u[u_last]`` shifted.  So the minimal chain ends at 2n exactly when
    the chain of ``u`` passes through ``u_last`` and then turns to ``j``,
    which is smaller than the shifted left child: ``u_last < j <=
    left_u[u_last]``.
    """
    t = tree_from_perm(u)
    last = u[-1]
    if last not in t.minimal_chain():
        return ()
    two_n = len(u) + 2
    return [(*[x + (x >= j) for x in u], two_n, j) for j in range(last + 1, t.left[last] + 1)]


@dataclass(frozen=True)
class MapDomain:
    """A map with its domain and codomain at each size 2n.

    ``words(u)`` gives the projections of the domain trees grown from one
    down-up word ``u`` of size 2n-2; over every such ``u`` each domain tree
    comes once.  Each domain is a line of the joint matrix whose sum is
    E_{2n-2}: row m = 2, column k = 1, column k = 2n-1 or row m = 2n.  Every
    stream here is exact, but the pass counts the domain against E_{2n-2},
    and ``images`` applies the map, which checks its precondition, so that a
    stream that misses a domain tree or yields a stray word shows at run
    time instead of being assumed away: the first as a domain short of
    E_{2n-2}, the second as the map's ``ValueError``.

    ``transport(t, out)`` checks an image against the statistic of its
    source ``t``.  The codomain is the images passing ``lands``, and it
    holds ``copies`` times E_{2n-2} trees: by default every tree of size
    2n-2.
    """

    words: Callable[[tuple[int, ...]], Iterable[tuple[int, ...]]]
    images: Callable[[IncTree], tuple[IncTree, ...]]
    transport: Callable[[IncTree, IncTree], bool]
    lands: Callable[[IncTree], bool] = lambda out: True
    copies: int = 1


# The candidate words follow from the map docstrings.  eoc = 2: the leaf 2
# hangs off the root, so the word starts (2, 1).  pom = 1: it starts (2n, 1).
# pom = 2n-1: node 2n-1 can only carry 2n, so it is the one-child node and the
# word ends (2n, 2n-1).  eoc = 2n: 2n is the left child of the rightmost node,
# which the minimal chain reaches (see _max_before_last).
MAP_DOMAINS: dict[str, MapDomain] = {
    "first_row_map": MapDomain(
        words=_starts_with_two_one,
        images=lambda t: (first_row_map(t),),
        transport=lambda t, out: out.pom() == t.pom() - 2,
    ),
    "rightmost_column_map": MapDomain(
        words=_ends_with_top_pair,
        images=lambda t: (rightmost_column_map(t),),
        transport=lambda t, out: out.eoc() == t.eoc(),
    ),
    # Three images each with pom = 2n-2, keeping eoc below 2n-2; as many
    # distinct ones as column k = 2n-2 holds, 3 E_{2n-2}, are all the trees
    # with pom = 2n-2.
    "tripling_map": MapDomain(
        words=_ends_with_top_pair,
        images=tripling_map,
        transport=lambda t, out: out.pom() == out.n - 2
        and (t.eoc() >= out.n - 2 or out.eoc() == t.eoc()),
        lands=lambda out: out.pom() == out.n - 2,
        copies=3,
    ),
    "pom1_map": MapDomain(
        words=_starts_with_top_one,
        images=lambda t: (pom1_map(t),),
        transport=lambda t, out: out.eoc() == t.eoc() - 1,
    ),
    "entringer_map": MapDomain(
        words=_max_before_last,
        images=lambda t: (entringer_map(t),),
        transport=lambda t, out: out.ent() == t.pom() - 1,
    ),
}


@dataclass
class MapReport:
    """Outcome of running one map over its whole domain at one size."""

    map: str
    two_n: int
    domain: int
    image: int
    collisions: list = field(default_factory=list)
    transport_failures: list = field(default_factory=list)
    covers_domain: bool = True
    covers_codomain: bool = True

    @property
    def injective(self) -> bool:
        return not self.collisions

    @property
    def transport_ok(self) -> bool:
        return not self.transport_failures

    @property
    def ok(self) -> bool:
        return (
            self.injective
            and self.transport_ok
            and self.covers_domain
            and self.covers_codomain
        )

    def to_json_dict(self) -> dict:
        """The verdicts with the number of collisions and of transport
        failures and the first of each, or ``None`` when there is none: a
        collision as ``[first source, second source, image]``, a transport
        failure as its source, each a projection."""
        return {
            "map": self.map,
            "two_n": self.two_n,
            "domain": self.domain,
            "image": self.image,
            "injective": self.injective,
            "transport_ok": self.transport_ok,
            "covers_domain": self.covers_domain,
            "covers_codomain": self.covers_codomain,
            "collisions": len(self.collisions),
            "first_collision": (
                [list(word) for word in self.collisions[0]] if self.collisions else None
            ),
            "transport_failures": len(self.transport_failures),
            "first_transport_failure": (
                list(self.transport_failures[0]) if self.transport_failures else None
            ),
        }


def verify_maps(names: Iterable[str], two_n: int) -> list[MapReport]:
    """One report per map of *names* at size *two_n*, from one pass.

    The pass enumerates each down-up word ``u`` of size 2n-2 once and feeds
    it to the streams of the selected maps only.  Maps whose ``words`` are
    the same share each candidate tree.  A candidate outside a map's domain
    raises that map's ``ValueError``.  An image is keyed by its child
    arrays, since two validated trees of one size are equal exactly when
    their ``left`` and ``right`` arrays are; its projection is computed only
    for a collision record.  A key keeps its first source as the bytes of
    its word, a third of the memory of the tuple.  A domain of E_{2n-2}
    trees, and distinct validated images in the codomain, as many as it
    holds, certify that a map covers both.

    The checks run in this order, each before any word is walked: *names*
    under :func:`secant_trees.trees._check_selection` (one string, no map,
    an unknown map or a map named twice raises ``ValueError``), then the
    size (odd or below 4 raises ``OddSizeError``, above 12 ``ValueError``).
    """
    names = _check_selection(names, MAP_DOMAINS, "names", "map")
    _check_size(two_n, 4, "two_n", even=True)
    if two_n > _MAX_TWO_N:
        raise ValueError(
            f"two_n {two_n} is above {_MAX_TWO_N}, the largest size the maps are "
            f"verified at: their domains at 2n = {two_n} would be built from every "
            f"down-up word of size {two_n - 2}"
        )
    domains = [MAP_DOMAINS[name] for name in names]
    reports = [MapReport(map=name, two_n=two_n, domain=0, image=0) for name in names]
    seen: list[dict[bytes, bytes]] = [{} for _ in names]
    landed = [0] * len(names)
    streams: dict[Callable, list[tuple]] = {}
    for i, d in enumerate(domains):
        streams.setdefault(d.words, []).append(
            (i, reports[i], seen[i], d.images, d.transport, d.lands)
        )
    for u in alternating_permutations(two_n - 2):
        for words, members in streams.items():
            for word in words(u):
                t = tree_from_perm(word)
                src = bytes(word)
                for i, report, keys, images, transport, lands in members:
                    report.domain += 1
                    for out in images(t):
                        key = bytes(out.left + out.right)
                        if key in keys:
                            report.collisions.append((tuple(keys[key]), word, out.projection()))
                        else:
                            keys[key] = src
                            landed[i] += lands(out)
                        # A source is listed once, however many of its images
                        # fail: its images come together, so it would be last.
                        if not transport(t, out) and report.transport_failures[-1:] != [word]:
                            report.transport_failures.append(word)
    secants = tree_count(two_n - 2)
    for d, report, keys, hits in zip(domains, reports, seen, landed):
        report.image = len(keys)
        report.covers_domain = report.domain == secants
        report.covers_codomain = hits == d.copies * secants
    return reports


def _standalone(name: str) -> Callable[[int], MapReport]:
    """``verify_<name>``: :func:`verify_maps` for that one map."""

    def verifier(two_n: int) -> MapReport:
        (report,) = verify_maps((name,), two_n)
        return report

    verifier.__name__ = verifier.__qualname__ = f"verify_{name}"
    return verifier


MAP_VERIFIERS: dict[str, Callable[[int], MapReport]] = {
    name: _standalone(name) for name in MAP_DOMAINS
}
