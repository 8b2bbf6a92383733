"""Complete increasing binary trees and their projection onto alternating
permutations.

A *complete increasing tree* of size ``n`` is a labelled planar binary tree
with labels ``1..n`` increasing along every root-to-leaf path, in which every
node is a leaf or has two children -- except that for even ``n`` exactly one
node (the *one-child node*) has a single left child, and that node is the
rightmost node of the planar embedding.  Reading the node labels from left to
right under the canonical embedding (the *projection*) is a bijection onto
the down-up alternating permutations ``w1 > w2 < w3 > w4 < ...``; even sizes
are counted by the secant numbers and odd sizes by the tangent numbers.

Three statistics live here:

* ``eoc`` -- label of the leaf ending the *minimal chain*, the path from the
  root that repeatedly follows the smaller (or only) child of each interior
  node until it reaches a leaf;
* ``pom`` -- label of the parent of the leaf carrying the maximum label ``n``;
* ``ent`` -- label of the rightmost node, i.e. the last letter of the
  projection.

Trees are stored as label-indexed dense arrays (``parent``, ``left``,
``right``; entry 0 means "none"), so every statistic is computed by direct
label arithmetic.  Alternating permutations are plain tuples of ints, and
``alternating_permutations`` streams all of one size in lexicographic order;
a caller that wants only the words with a fixed start or end builds them
from the words of a smaller size, as the bijection domains do.
"""

from __future__ import annotations

from typing import Collection, Iterable, Iterator, NamedTuple, Sequence


class OddSizeError(ValueError):
    """An even size (2n, or a bound on 2n) that is not an even int at least
    its lower bound."""


def _check_size(value: object, least: int, name: str, even: bool = False) -> None:
    """The one rule for a size, an order or a triangle row: an ``int`` (not a
    ``bool``) at least *least*, and even if *even*.  A failing even size
    raises :class:`OddSizeError`, any other a ``ValueError``; the message
    names the argument and the value."""
    if type(value) is not int or value < least or (even and value % 2):
        kind = "an even int" if even else "an int"
        error = OddSizeError if even else ValueError
        raise error(f"{name} must be {kind} >= {least}, got {value!r}")


def _check_selection(
    selected: Iterable[str], known: Collection[str], name: str, noun: str
) -> tuple[str, ...]:
    """The one rule for a selection of names, such as verify's checks or the
    maps: a collection (not a string) of names in *known*, not empty and
    none named twice, returned as a tuple.  Anything else raises a
    ``ValueError`` that names the argument *name* or speaks of each name as
    a *noun*; for no name or an unknown one it also lists the known names."""
    if isinstance(selected, str):
        raise ValueError(f"{name} is a collection of {noun} names, not the string {selected!r}")
    selected = tuple(selected)
    unknown = [s for s in selected if s not in known]
    if unknown or not selected:
        what = f"unknown {noun} {unknown[0]!r}" if unknown else f"no {noun} selected"
        raise ValueError(f"{what} (known: {', '.join(known)})")
    repeated = [s for i, s in enumerate(selected) if s in selected[:i]]
    if repeated:
        raise ValueError(f"{noun} {repeated[0]!r} is selected more than once")
    return selected


class TreeError(ValueError):
    """A rejected tree candidate: labels that are not exactly 1..n, a child
    not larger than its parent, maps that disagree, child counts that break
    completeness, a word that is not down-up alternating, or eoc and pom
    asked of the single-node tree."""


class StatRecord(NamedTuple):
    eoc: int
    pom: int
    ent: int


def is_alternating(word: Sequence[int]) -> bool:
    """True iff *word* is a permutation of 1..n with w1 > w2 < w3 > w4 < ...,
    that is, iff :func:`tree_from_perm` takes it.

    Letters must be exactly ``int``: ``True`` or ``2.0`` equal a label but
    are not one.
    """
    try:
        tree_from_perm(word)
    except TreeError:
        return False
    return True


class IncTree:
    """A complete increasing tree over labels ``1..n``.

    ``parent``, ``left`` and ``right`` are tuples of length ``n + 1`` indexed
    by label (index 0 is unused and holds 0); the value 0 encodes "none".
    Instances are immutable and hashable; two trees are equal iff their size
    and all three maps agree.  The constructor validates the maps and raises
    :class:`TreeError` unless they form a complete increasing tree.
    """

    __slots__ = ("n", "parent", "left", "right")

    def __init__(self, parent: Sequence[int], left: Sequence[int], right: Sequence[int]):
        self.parent = tuple(parent)
        self.left = tuple(left)
        self.right = tuple(right)
        self.n = len(self.parent) - 1
        self._validate()

    # -- validation -------------------------------------------------------

    def _validate(self) -> None:
        n = self.n
        parent, left, right = self.parent, self.left, self.right
        if n < 1:
            raise TreeError("tree must have at least one node")
        if not (len(left) == len(right) == n + 1):
            raise TreeError("parent/left/right maps must all cover labels 1..n")
        # C-level passes: exact int entries (True or 2.0 equal a label but
        # are not one), the sentinels, a parentless root, and n - 1 links in
        # the child arrays (n + 3 zeros with the two sentinels).  The range
        # of the entries is left to the loop below.
        labels = parent + left + right
        if (
            list(map(type, labels)).count(int) != len(labels)
            or parent[0] or left[0] or right[0] or parent[1]
            or left.count(0) + right.count(0) != n + 3
        ):
            raise self._fault()
        # One pass over the child arrays: each child exceeds its lister p
        # (so no entry is negative), is a label (no IndexError) and names p
        # back through parent, so no node is listed by two nodes, and none
        # twice by one (l != r).  With n - 1 links the arrays then list every
        # non-root node exactly once, below a smaller nonzero parent, so
        # parent holds labels only and the root alone has none.  Nodes with
        # exactly one child are collected for the arity check.
        single = []
        try:
            for p in range(1, n + 1):
                l, r = left[p], right[p]
                if l and (l <= p or parent[l] != p) or r and (r <= p or parent[r] != p or r == l):
                    raise self._fault()
                if (l == 0) != (r == 0):
                    single.append(p)
        except IndexError:
            raise self._fault() from None

        # Arity: leaves and binary nodes, plus the single left-only node for
        # even n, which must sit at the rightmost position.
        if n % 2 == 1:
            if single:
                raise TreeError(f"odd size {n} admits no one-child node, found {single}")
        else:
            if len(single) != 1:
                raise TreeError(
                    f"even size {n} needs exactly one one-child node, found {single}"
                )
            oc = single[0]
            if left[oc] == 0:
                raise TreeError(f"one-child node {oc} must carry a left child")
            if self.ent() != oc:
                raise TreeError(f"one-child node {oc} is not the rightmost node")

    def _fault(self) -> TreeError:
        """The error for arrays that fail the checks before the arity rules,
        naming the first fault in this order: an entry that is not a label,
        a sentinel, a second parentless node, a node hanging below a label
        that is not smaller, then the listing of the child arrays."""
        n, parent, left, right = self.n, self.parent, self.left, self.right
        for arr, name in ((parent, "parent"), (left, "left"), (right, "right")):
            for v in arr:
                if type(v) is not int or v < 0 or v > n:
                    return TreeError(f"{name} entry {v!r} is not a label in 0..{n}")
        if parent[0] or left[0] or right[0]:
            return TreeError("parent[0], left[0] and right[0] must be the unused sentinel 0")
        if parent[1] or parent.count(0) != 2:
            return TreeError("node 1 must be the only node without a parent")
        for v in range(2, n + 1):
            if parent[v] >= v:
                return TreeError(f"node {v} hangs below {parent[v]}, which is not smaller")
        return TreeError("left/right do not list each non-root node once, as a child of its parent")

    # -- projection --------------------------------------------------------

    def projection(self) -> tuple[int, ...]:
        """Left-to-right label order under the planar embedding.

        The embedding places each left subtree strictly left of its root and
        each right subtree strictly right, so the abscissa order is exactly
        the in-order traversal.
        """
        left, right = self.left, self.right
        out: list[int] = []
        stack: list[int] = []
        v = 1
        while True:
            while v:
                stack.append(v)
                v = left[v]
            if not stack:
                return tuple(out)
            v = stack.pop()
            out.append(v)
            v = right[v]

    # -- statistics ---------------------------------------------------------

    def minimal_chain(self) -> tuple[int, ...]:
        """Root-to-leaf path following the smaller (or only) child.

        Starts at the root and steps to the smaller child, or to the left
        child where the right one is missing, until a node without a left
        child: that node is a leaf, since the one-child node carries a left
        child.  The single-node tree has the one-element chain (1,).
        """
        left, right = self.left, self.right
        chain = [1]
        v = 1
        while left[v]:
            l, r = left[v], right[v]
            v = r if 0 < r < l else l
            chain.append(v)
        return tuple(chain)

    def eoc(self) -> int:
        """The last label of :meth:`minimal_chain`, walked to by the same
        step without building the chain."""
        if self.n == 1:
            raise TreeError("eoc is undefined on the single-node tree")
        left, right = self.left, self.right
        v = 1
        while left[v]:
            l, r = left[v], right[v]
            v = r if 0 < r < l else l
        return v

    def pom(self) -> int:
        if self.n == 1:
            raise TreeError("pom is undefined on the single-node tree")
        return self.parent[self.n]

    def ent(self) -> int:
        """The rightmost node: the end of the path of right children from
        the root, so the last letter of the projection."""
        right = self.right
        v = 1
        while right[v]:
            v = right[v]
        return v

    def stats(self) -> StatRecord:
        return StatRecord(self.eoc(), self.pom(), self.ent())

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        """JSON form: arrays indexed by label starting at label 1, 0 = none."""
        return {
            "n": self.n,
            "parent": list(self.parent[1:]),
            "left": list(self.left[1:]),
            "right": list(self.right[1:]),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "IncTree":
        """Inverse of :meth:`to_json_dict`; any malformed blob raises
        :class:`TreeError`."""
        if not isinstance(data, dict):
            raise TreeError(f"tree JSON must be an object, got {type(data).__name__}")
        missing = {"n", "parent", "left", "right"} - data.keys()
        if missing:
            raise TreeError(f"tree JSON misses {sorted(missing)}")
        n = data["n"]
        try:
            _check_size(n, 1, "n")
        except ValueError as exc:
            raise TreeError(str(exc)) from None
        arrays = [data[name] for name in ("parent", "left", "right")]
        if not all(isinstance(a, list) and len(a) == n for a in arrays):
            raise TreeError("parent, left and right must be lists of length n")
        return cls(*((0, *a) for a in arrays))

    # -- dunder ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IncTree):
            return NotImplemented
        return (
            self.n == other.n
            and self.parent == other.parent
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self) -> int:
        return hash((self.parent, self.left, self.right))

    def __repr__(self) -> str:
        return f"IncTree({' '.join(map(str, self.projection()))})"


# -- permutation <-> tree ------------------------------------------------------


def _proven_tree(parent: list[int], left: list[int], right: list[int]) -> IncTree:
    """An :class:`IncTree` over arrays already proved to be a complete
    increasing tree, built without running its validation."""
    t = object.__new__(IncTree)
    t.parent, t.left, t.right = tuple(parent), tuple(left), tuple(right)
    t.n = len(parent) - 1
    return t


def _not_down_up(word: tuple) -> TreeError:
    return TreeError(f"not a down-up alternating permutation: {word!r}")


def tree_from_perm(word: Sequence[int]) -> IncTree:
    """Inverse of the projection.

    The root is the minimum letter; the factors left and right of the minimum
    build the left and right subtrees recursively.  Raises
    :class:`TreeError` unless *word* is down-up alternating.

    Classic stack construction, one pass over the (peak, valley) pairs
    ``w1 w2, w3 w4, ...``: the stack is the right spine of the tree so far,
    whose last node is the previous valley.  A peak exceeds that valley, so
    it pops nothing and hangs as its right child, a leaf for now.  The valley
    after it pops the peak and every larger spine node; the last one popped
    becomes its left child, and it hangs as the right child of the remaining
    top.  The down-up check rides along: each peak against the valley before
    it, each valley against its peak.  An odd word ends with a lone peak.
    """
    word = tuple(word)
    n = len(word)
    # C-level passes: exact int letters (True or 2.0 equal a label but are
    # not one) that are a permutation of 1..n.
    if n < 1 or list(map(type, word)).count(int) != n or sorted(word) != list(range(1, n + 1)):
        raise _not_down_up(word)
    parent = [0] * (n + 1)
    left = [0] * (n + 1)
    right = [0] * (n + 1)
    stack = [0]  # 0 sits below every letter; right[0] collects the root
    valley = 0
    it = iter(word)
    for peak, nxt in zip(it, it):
        if peak < valley or nxt > peak:
            raise _not_down_up(word)
        right[valley] = peak
        parent[peak] = valley
        valley, last = nxt, peak
        while stack[-1] > valley:
            last = stack.pop()
        top = stack[-1]
        left[valley] = last
        parent[last] = valley
        right[top] = valley
        parent[valley] = top
        stack.append(valley)
    if n % 2:
        peak = word[-1]
        if peak < valley:
            raise _not_down_up(word)
        right[valley] = peak
        parent[peak] = valley
    right[0] = 0
    # Alternation of the word is exactly completeness of the tree, so the
    # arrays are wrapped without re-validation.
    return _proven_tree(parent, left, right)


def alternating_permutations(n: int) -> Iterator[tuple[int, ...]]:
    """Every down-up alternating permutation of 1..n, lexicographically; the
    size is checked on the call, before the first word is asked for."""
    _check_size(n, 1, "n")
    return _down_up_words(n)


def _down_up_words(n: int) -> Iterator[tuple[int, ...]]:
    """The walk behind :func:`alternating_permutations`, one iterator per
    open position on a stack: position 0 runs over 1..n, an odd position
    over the letters below the one before it, an even one over the letters
    above it.  Each position takes the next letter of its iterator not yet
    used; a spent iterator pops and frees the letter before it."""
    word = [0] * n
    used = bytearray(n + 1)
    stack = [iter(range(1, n + 1))]
    while stack:
        pos = len(stack) - 1
        for v in stack[pos]:
            if not used[v]:
                break
        else:
            stack.pop()
            if pos:
                used[word[pos - 1]] = 0
            continue
        word[pos] = v
        if pos == n - 1:
            yield tuple(word)
        else:
            used[v] = 1
            stack.append(iter(range(1, v) if pos % 2 == 0 else range(v + 1, n + 1)))


def enumerate_trees(n: int) -> Iterator[IncTree]:
    """Every complete increasing tree of size n exactly once.

    Trees come out in lexicographic order of their projection; the count is
    the secant number for even n and the tangent number for odd n.
    """
    return map(tree_from_perm, alternating_permutations(n))


def word_stats(word: Sequence[int]) -> StatRecord:
    """(eoc, pom, ent) of the tree projecting to *word*, read off that tree.

    Raises :class:`TreeError` unless *word* is a down-up word, and for the
    one-letter word.
    """
    return tree_from_perm(word).stats()
