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
tree is fully re-validated.  One harness, ``verify_map``, certifies each
map at small sizes: injectivity, statistic transport, and coverage of domain
and codomain.  It builds a tree only for each word of a domain
(``MAP_DOMAINS``: the words with a forced start or end, and for eoc = 2n
the words grown from the trees of size 2n-2 whose minimal chain reaches
their rightmost node), still filters each by the map's precondition, and
counts the domain and the codomain against the margins of a joint matrix of
the same size, which the caller passes in: ``verify`` shares the brute-force
one it counted for its other checks.  ``MAP_VERIFIERS`` holds one standalone
verifier per key of ``MAP_DOMAINS``, named ``verify_<map>``, that reads the
margins off the recurrence instead.  Sources are keyed by their words and
images by their projections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from .distributions import JointMatrix
from .recurrence import assemble, tree_count
from .trees import IncTree, _check_size, alternating_permutations, tree_from_perm


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
    sigma = [0] * (t.n + 1)
    for v in range(3, t.n + 1):
        sigma[v] = v - 2
    return _relabel(t, sigma, t.n - 2)


def rightmost_column_map(t: IncTree) -> IncTree:
    """For pom(t) = 2n-1: delete the rightmost path (nodes 2n and 2n-1).

    2n-1 is forced to be the one-child node carrying the leaf 2n, and it
    hangs as a right child; no relabelling is needed and eoc is preserved.
    """
    _check_size(t.n, 4, "the size of t", even=True)
    _require(t.pom() == t.n - 1, "the maximum leaf must hang off node 2n-1")
    sigma = list(range(t.n + 1))
    sigma[t.n] = 0
    sigma[t.n - 1] = 0
    return _relabel(t, sigma, t.n - 2)


def tripling_map(t: IncTree) -> tuple[IncTree, IncTree, IncTree]:
    """For pom(t) = 2n-1: the three trees with pom = 2n-2 it accounts for.

    The first image transposes the labels 2n-2 and 2n-1 (node 2n-2 is forced
    to be a leaf).  The other two detach the pair {2n-1, 2n} from the tree
    and replant it as the two children of the old leaf 2n-2, in both planar
    orders.  Over the whole domain the 3 |domain| images are pairwise
    distinct and exhaust the trees with pom = 2n-2.
    """
    n = t.n
    _check_size(n, 4, "the size of t", even=True)
    _require(t.pom() == n - 1, "the maximum leaf must hang off node 2n-1")

    sigma = list(range(n + 1))
    sigma[n - 2], sigma[n - 1] = n - 1, n - 2
    t1 = _relabel(t, sigma, n)

    q = t.parent[n - 1]
    parent = list(t.parent)
    left = list(t.left)
    right = list(t.right)
    if left[q] == n - 1:
        left[q] = 0
    else:
        right[q] = 0
    parent[n - 1] = parent[n] = n - 2
    left[n - 1] = right[n - 1] = 0
    left_a = list(left)
    right_a = list(right)
    left_a[n - 2], right_a[n - 2] = n - 1, n
    t2 = IncTree(parent, left_a, right_a)
    left_b = list(left)
    right_b = list(right)
    left_b[n - 2], right_b[n - 2] = n, n - 1
    t3 = IncTree(parent, left_b, right_b)
    return t1, t2, t3


def pom1_map(t: IncTree) -> IncTree:
    """For pom(t) = 1: drop the leaf 2n and the root, relabel by -1.

    The root's other child (always node 2) becomes the new root and eoc
    drops by exactly 1.
    """
    _check_size(t.n, 4, "the size of t", even=True)
    _require(t.pom() == 1, "the maximum leaf must hang off the root")
    sigma = [0] * (t.n + 1)
    for v in range(2, t.n):
        sigma[v] = v - 1
    return _relabel(t, sigma, t.n - 2)


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
    sigma = [0] * (n + 1)
    for i in range(len(chain) - 2):
        sigma[chain[i]] = chain[i + 1] - 1
    on_chain = set(chain)
    for b in range(1, n + 1):
        if b not in on_chain:
            sigma[b] = b - 1
    return _relabel(t, sigma, n - 2)


# -- exhaustive verification ---------------------------------------------------


def _starts_with_two_one(two_n: int) -> Iterator[tuple[int, ...]]:
    """The words ``(2, 1, *u)`` for every down-up word ``u`` on 3 .. 2n."""
    for u in alternating_permutations(two_n - 2):
        yield (2, 1, *(x + 2 for x in u))


def _starts_with_top_one(two_n: int) -> Iterator[tuple[int, ...]]:
    """The words ``(2n, 1, *u)`` for every down-up word ``u`` on 2 .. 2n-1."""
    for u in alternating_permutations(two_n - 2):
        yield (two_n, 1, *(x + 1 for x in u))


def _ends_with_top_pair(two_n: int) -> Iterator[tuple[int, ...]]:
    """The words ``(*u, 2n, 2n-1)`` for every down-up word ``u`` of size 2n-2."""
    for u in alternating_permutations(two_n - 2):
        yield (*u, two_n, two_n - 1)


def _max_before_last(two_n: int) -> Iterator[tuple[int, ...]]:
    """The words ``(*u^j, 2n, j)`` of the trees with eoc = 2n, each once.

    ``u`` runs over the down-up words of size 2n-2 and ``u^j`` relabels
    ``x -> x + (x >= j)``.  In the tree of the word, ``j`` is the rightmost
    node with the only child 2n, and it hangs as the right child of
    ``u_last``, the rightmost node of ``u``, whose left child is
    ``left_u[u_last]`` shifted.  So the minimal chain ends at 2n exactly when
    the chain of ``u`` passes through ``u_last`` and then turns to ``j``,
    which is smaller than the shifted left child: ``u_last < j <=
    left_u[u_last]``.
    """
    for u in alternating_permutations(two_n - 2):
        t = tree_from_perm(u)
        last = u[-1]
        if last in t.minimal_chain():
            for j in range(last + 1, t.left[last] + 1):
                yield (*(x + (x >= j) for x in u), two_n, j)


@dataclass(frozen=True)
class MapDomain:
    """A map with its domain and codomain at each size 2n.

    ``words(2n)`` streams the projections of the trees in the domain, each
    once; every stream here is exact, but ``contains``, the precondition on
    a tree, still filters each candidate, and ``margin`` reads the size of
    the domain off a margin of the joint matrix, so that a stream that
    misses a domain tree or yields a stray word shows at run time instead
    of being assumed away.

    ``images`` applies the map.  ``transport(s, out)`` checks an image
    against ``s = statistic(t)`` of its source, computed once per tree.
    The codomain is the images passing ``lands``, and ``target`` reads its
    size off the same matrix; by default it is every tree of size 2n-2.
    """

    words: Callable[[int], Iterable[tuple[int, ...]]]
    contains: Callable[[IncTree], bool]
    margin: Callable[[JointMatrix], int]
    images: Callable[[IncTree], tuple[IncTree, ...]]
    statistic: Callable[[IncTree], int]
    transport: Callable[[int, IncTree], bool]
    lands: Callable[[IncTree], bool] = lambda out: True
    target: Callable[[JointMatrix], int] = lambda M: tree_count(M.two_n - 2)


# The candidate words follow from the map docstrings.  eoc = 2: the leaf 2
# hangs off the root, so the word starts (2, 1).  pom = 1: it starts (2n, 1).
# pom = 2n-1: node 2n-1 can only carry 2n, so it is the one-child node and the
# word ends (2n, 2n-1).  eoc = 2n: 2n is the left child of the rightmost node,
# which the minimal chain reaches (see _max_before_last).
_POM_TOP = dict(
    words=_ends_with_top_pair,
    contains=lambda t: t.pom() == t.n - 1,
    margin=lambda M: M.col_sums()[-1],  # column k = 2n-1
)
MAP_DOMAINS: dict[str, MapDomain] = {
    "first_row_map": MapDomain(
        words=_starts_with_two_one,
        contains=lambda t: t.eoc() == 2,
        margin=lambda M: M.row_sums()[0],  # row m = 2
        images=lambda t: (first_row_map(t),),
        statistic=IncTree.pom,
        transport=lambda pom, out: out.pom() == pom - 2,
    ),
    "rightmost_column_map": MapDomain(
        **_POM_TOP,
        images=lambda t: (rightmost_column_map(t),),
        statistic=IncTree.eoc,
        transport=lambda eoc, out: out.eoc() == eoc,
    ),
    # Three images each with pom = 2n-2, keeping eoc below 2n-2; as many
    # distinct ones as column k = 2n-2 are all the trees with pom = 2n-2.
    "tripling_map": MapDomain(
        **_POM_TOP,
        images=tripling_map,
        statistic=IncTree.eoc,
        transport=lambda eoc, out: out.pom() == out.n - 2
        and (eoc >= out.n - 2 or out.eoc() == eoc),
        lands=lambda out: out.pom() == out.n - 2,
        target=lambda M: M.col_sums()[-2],  # column k = 2n-2
    ),
    "pom1_map": MapDomain(
        words=_starts_with_top_one,
        contains=lambda t: t.pom() == 1,
        margin=lambda M: M.col_sums()[0],  # column k = 1
        images=lambda t: (pom1_map(t),),
        statistic=IncTree.eoc,
        transport=lambda eoc, out: out.eoc() == eoc - 1,
    ),
    "entringer_map": MapDomain(
        words=_max_before_last,
        contains=lambda t: t.eoc() == t.n,
        margin=lambda M: M.row_sums()[-1],  # row m = 2n
        images=lambda t: (entringer_map(t),),
        statistic=IncTree.pom,
        transport=lambda pom, out: out.ent() == pom - 1,
    ),
}


def _domain_words(name: str, two_n: int) -> Iterator[tuple[tuple[int, ...], IncTree]]:
    """``(word, tree)`` for each tree of even size *two_n* >= 4 in the domain
    of the map *name*: its candidate words, built and filtered by its
    precondition.  The word is the tree's projection."""
    domain = MAP_DOMAINS[name]
    for word in domain.words(two_n):
        t = tree_from_perm(word)
        if domain.contains(t):
            yield word, t


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
        return {
            "map": self.map,
            "two_n": self.two_n,
            "domain": self.domain,
            "image": self.image,
            "injective": self.injective,
            "transport_ok": self.transport_ok,
            "covers_domain": self.covers_domain,
            "covers_codomain": self.covers_codomain,
        }


def verify_map(name: str, two_n: int, counts: JointMatrix) -> MapReport:
    """Run the map *name* over its whole domain at size *two_n* and certify
    it against the margins of *counts*, a joint matrix of that size.

    Images are validated trees, so distinct images landing in the codomain,
    as many as the codomain holds, certify that the map covers it.
    """
    if name not in MAP_DOMAINS:
        raise ValueError(f"unknown map {name!r} (known: {', '.join(MAP_DOMAINS)})")
    _check_size(two_n, 4, "two_n", even=True)
    if counts.two_n != two_n:
        raise ValueError(f"counts are for 2n = {counts.two_n}, not {two_n}")
    domain = MAP_DOMAINS[name]
    report = MapReport(map=name, two_n=two_n, domain=0, image=0)
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    landed = 0
    for src, t in _domain_words(name, two_n):
        report.domain += 1
        stat = domain.statistic(t)
        for out in domain.images(t):
            key = out.projection()
            if key in seen:
                report.collisions.append((seen[key], src, key))
            else:
                seen[key] = src
                landed += domain.lands(out)
            if not domain.transport(stat, out):
                report.transport_failures.append(src)
    report.image = len(seen)
    report.covers_domain = report.domain == domain.margin(counts)
    report.covers_codomain = landed == domain.target(counts)
    return report


def _standalone(name: str) -> Callable[[int], MapReport]:
    """``verify_<name>``: :func:`verify_map` on the recurrence's matrix of
    the size, whose margins are all it reads, so no tree is counted.  The size
    is checked first, so that every size the maps reject fails with the
    verifiers' message before the matrix is assembled."""

    def verifier(two_n: int) -> MapReport:
        _check_size(two_n, 4, "two_n", even=True)
        return verify_map(name, two_n, assemble(two_n))

    verifier.__name__ = verifier.__qualname__ = f"verify_{name}"
    return verifier


MAP_VERIFIERS: dict[str, Callable[[int], MapReport]] = {
    name: _standalone(name) for name in MAP_DOMAINS
}
