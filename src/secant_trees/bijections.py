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
tree is fully re-validated; the exhaustive harness below certifies
injectivity, codomain coverage and statistic transport at small sizes.  It
builds only candidate trees for each domain (words with a forced prefix or
suffix) and certifies that it met the whole domain by counting it against a
margin of the brute-force joint matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from .distributions import JointMatrix, joint_matrix_bruteforce
from .recurrence import tree_count
from .trees import IncTree, alternating_permutations, tree_from_perm


class PreconditionError(ValueError):
    """The input tree does not satisfy the map's domain condition."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise PreconditionError(message)


def _relabel(t: IncTree, sigma: Sequence[int], n_new: int) -> IncTree:
    """Rebuild *t* under the label map *sigma* (0 deletes a node).

    Links to deleted nodes vanish; the result is fully validated.
    """
    parent = [0] * (n_new + 1)
    left = [0] * (n_new + 1)
    right = [0] * (n_new + 1)
    for v_old in range(1, t.n + 1):
        v = sigma[v_old]
        if v == 0:
            continue
        p, l, r = t.parent[v_old], t.left[v_old], t.right[v_old]
        parent[v] = sigma[p] if p else 0
        left[v] = sigma[l] if l else 0
        right[v] = sigma[r] if r else 0
    return IncTree(parent, left, right)


def first_row_map(t: IncTree) -> IncTree:
    """For eoc(t) = 2: drop the leaf 2 and the root, relabel by -2.

    The leaf 2 hangs off the root, so the root's other child (always node 3)
    becomes the new root; pom drops by exactly 2.
    """
    _require(t.n % 2 == 0 and t.n >= 4, "need an even size >= 4")
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
    _require(t.n % 2 == 0 and t.n >= 4, "need an even size >= 4")
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
    _require(n % 2 == 0 and n >= 4, "need an even size >= 4")
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
    _require(t.n % 2 == 0 and t.n >= 4, "need an even size >= 4")
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
    _require(n % 2 == 0 and n >= 4, "need an even size >= 4")
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


def _ends_with_top_pair(two_n: int) -> Iterator[tuple[int, ...]]:
    """The words ``(*u, 2n, 2n-1)`` for every down-up word ``u`` of size 2n-2."""
    for u in alternating_permutations(two_n - 2):
        yield (*u, two_n, two_n - 1)


def _max_before_last(two_n: int) -> Iterator[tuple[int, ...]]:
    """The down-up words with 2n in position 2n-1: ``(*u, 2n, j)`` for every
    last letter ``j`` and every down-up word ``u`` on the other letters.

    ``j = 1`` is left out: the rightmost node 1 is then the root, whose only
    child is 2, not 2n, at every size >= 4.
    """
    words = list(alternating_permutations(two_n - 2))
    for j in range(2, two_n):
        for u in words:
            yield (*(x + (x >= j) for x in u), two_n, j)


@dataclass(frozen=True)
class MapDomain:
    """Where the domain of a map lives at each size 2n.

    ``words(2n)`` streams candidate words that include the projection of
    every tree in the domain, and perhaps others; ``contains`` is the exact
    precondition on a tree, which filters them; ``margin`` reads the size of
    the domain off the brute-force joint matrix, so that a stream missing a
    domain tree shows at run time instead of being assumed away.
    """

    words: Callable[[int], Iterable[tuple[int, ...]]]
    contains: Callable[[IncTree], bool]
    margin: Callable[[JointMatrix], int]


# The candidate words follow from the map docstrings.  eoc = 2: the leaf 2
# hangs off the root, so the word starts (2, 1).  pom = 1: it starts (2n, 1).
# pom = 2n-1: node 2n-1 can only carry 2n, so it is the one-child node and the
# word ends (2n, 2n-1).  eoc = 2n: 2n is the left child of the rightmost node.
_POM_TOP = MapDomain(
    _ends_with_top_pair,
    lambda t: t.pom() == t.n - 1,
    lambda M: M.col_sums()[-1],  # column k = 2n-1
)
MAP_DOMAINS: dict[str, MapDomain] = {
    "first_row_map": MapDomain(
        lambda two_n: alternating_permutations(two_n, (2, 1)),
        lambda t: t.eoc() == 2,
        lambda M: M.row_sums()[0],  # row m = 2
    ),
    "rightmost_column_map": _POM_TOP,
    "tripling_map": _POM_TOP,
    "pom1_map": MapDomain(
        lambda two_n: alternating_permutations(two_n, (two_n, 1)),
        lambda t: t.pom() == 1,
        lambda M: M.col_sums()[0],  # column k = 1
    ),
    "entringer_map": MapDomain(
        _max_before_last,
        lambda t: t.eoc() == t.n,
        lambda M: M.row_sums()[-1],  # row m = 2n
    ),
}


def domain_trees(name: str, two_n: int) -> Iterator[IncTree]:
    """The trees of even size *two_n* >= 4 in the domain of the map *name*:
    its candidate words, built and filtered by its precondition."""
    _require(two_n % 2 == 0 and two_n >= 4, "need an even size >= 4")
    domain = MAP_DOMAINS[name]
    for word in domain.words(two_n):
        t = tree_from_perm(word)
        if domain.contains(t):
            yield t


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


def _run_size_reducing(
    name: str,
    two_n: int,
    apply_map: Callable[[IncTree], IncTree],
    transport: Callable[[IncTree, IncTree], bool],
) -> MapReport:
    """Harness for the four maps landing in the full set of size 2n-2."""
    report = MapReport(map=name, two_n=two_n, domain=0, image=0)
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for t in domain_trees(name, two_n):
        report.domain += 1
        out = apply_map(t)
        key = out.projection()
        src = t.projection()
        if key in seen:
            report.collisions.append((seen[key], src, key))
        else:
            seen[key] = src
        if not transport(t, out):
            report.transport_failures.append(src)
    report.image = len(seen)
    M = joint_matrix_bruteforce(two_n)
    report.covers_domain = report.domain == MAP_DOMAINS[name].margin(M)
    # Images are validated trees of size 2n-2, so injectivity plus the count
    # of that whole codomain certifies a bijection onto it.
    report.covers_codomain = report.image == tree_count(two_n - 2)
    return report


def verify_first_row_map(two_n: int) -> MapReport:
    return _run_size_reducing(
        "first_row_map",
        two_n,
        first_row_map,
        lambda t, out: out.pom() == t.pom() - 2,
    )


def verify_rightmost_column_map(two_n: int) -> MapReport:
    return _run_size_reducing(
        "rightmost_column_map",
        two_n,
        rightmost_column_map,
        lambda t, out: out.eoc() == t.eoc(),
    )


def verify_pom1_map(two_n: int) -> MapReport:
    return _run_size_reducing(
        "pom1_map",
        two_n,
        pom1_map,
        lambda t, out: out.eoc() == t.eoc() - 1,
    )


def verify_entringer_map(two_n: int) -> MapReport:
    return _run_size_reducing(
        "entringer_map",
        two_n,
        entringer_map,
        lambda t, out: out.ent() == t.pom() - 1,
    )


def verify_tripling_map(two_n: int) -> MapReport:
    """Tripling lands inside size 2n: check the three images are distinct,
    carry pom = 2n-2 and preserve eoc below 2n-2.  Distinct images with
    pom = 2n-2 as many as column k = 2n-2 of the brute-force matrix are all
    the trees with pom = 2n-2."""
    report = MapReport(map="tripling_map", two_n=two_n, domain=0, image=0)
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    on_target = 0
    for t in domain_trees("tripling_map", two_n):
        report.domain += 1
        src = t.projection()
        eoc = t.eoc()
        for out in tripling_map(t):
            key = out.projection()
            pom_ok = out.pom() == two_n - 2
            if key in seen:
                report.collisions.append((seen[key], src, key))
            else:
                seen[key] = src
                on_target += pom_ok
            if not pom_ok:
                report.transport_failures.append(src)
            elif eoc < two_n - 2 and out.eoc() != eoc:
                report.transport_failures.append(src)
    report.image = len(seen)
    M = joint_matrix_bruteforce(two_n)
    report.covers_domain = report.domain == MAP_DOMAINS["tripling_map"].margin(M)
    report.covers_codomain = on_target == M.col_sums()[-2]  # column k = 2n-2
    return report


MAP_VERIFIERS: dict[str, Callable[[int], MapReport]] = {
    "first_row_map": verify_first_row_map,
    "rightmost_column_map": verify_rightmost_column_map,
    "tripling_map": verify_tripling_map,
    "pom1_map": verify_pom1_map,
    "entringer_map": verify_entringer_map,
}
