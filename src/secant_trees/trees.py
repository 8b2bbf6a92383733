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
label arithmetic.  Alternating permutations are plain tuples of ints.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence


class TreeError(ValueError):
    """Base class for rejected tree candidates."""


class BadLabelsError(TreeError):
    """Labels are not exactly 1..n (wrong lengths or out-of-range entries)."""


class NotIncreasingError(TreeError):
    """Some child label is not larger than its parent label."""


class BadArityError(TreeError):
    """Child counts violate the completeness axiom (leaf / two children /
    single one-child node with a left child at the rightmost position)."""


class InconsistentError(TreeError):
    """parent, left and right maps disagree with each other."""


class NotAlternatingError(ValueError):
    """A word is not a down-up alternating permutation of 1..n."""


class StatUndefinedError(TreeError):
    """eoc and pom are not defined on the single-node tree."""


class StatRecord(NamedTuple):
    eoc: int
    pom: int
    ent: int


def is_alternating(word: Sequence[int]) -> bool:
    """True iff *word* is a permutation of 1..n with w1 > w2 < w3 > w4 < ..."""
    n = len(word)
    if n < 1 or sorted(word) != list(range(1, n + 1)):
        return False
    for i in range(1, n):
        if i % 2 == 1:
            if word[i] >= word[i - 1]:
                return False
        elif word[i] <= word[i - 1]:
            return False
    return True


def check_alternating(word: Sequence[int]) -> None:
    if not is_alternating(word):
        raise NotAlternatingError(f"not a down-up alternating permutation: {word!r}")


class IncTree:
    """A complete increasing tree over labels ``1..n``.

    ``parent``, ``left`` and ``right`` are tuples of length ``n + 1`` indexed
    by label (index 0 is unused and holds 0); the value 0 encodes "none".
    Instances are immutable and hashable; two trees are equal iff their size
    and all three maps agree.
    """

    __slots__ = ("n", "parent", "left", "right")

    def __init__(
        self,
        parent: Sequence[int],
        left: Sequence[int],
        right: Sequence[int],
        validate: bool = True,
    ):
        self.parent = tuple(parent)
        self.left = tuple(left)
        self.right = tuple(right)
        self.n = len(self.parent) - 1
        if validate:
            self._validate()

    # -- validation -------------------------------------------------------

    def _validate(self) -> None:
        n = self.n
        if n < 1:
            raise BadLabelsError("tree must have at least one node")
        if not (len(self.left) == len(self.right) == n + 1):
            raise BadLabelsError("parent/left/right maps must all cover labels 1..n")
        for arr, name in ((self.parent, "parent"), (self.left, "left"), (self.right, "right")):
            if arr[0] != 0:
                raise BadLabelsError(f"{name}[0] must be the unused sentinel 0")
            for v in arr:
                if type(v) is not int or v < 0 or v > n:
                    raise BadLabelsError(f"{name} entry {v!r} is not a label in 0..{n}")

        if self.parent[1] != 0:
            raise InconsistentError("node 1 must be the root (no parent)")
        for v in range(2, n + 1):
            if self.parent[v] == 0:
                raise InconsistentError(f"node {v} has no parent but is not the root")

        # Child labels strictly exceed the parent label.
        for v in range(2, n + 1):
            if self.parent[v] >= v:
                raise NotIncreasingError(
                    f"node {v} hangs below {self.parent[v]}, which is not smaller"
                )

        # Mutual consistency of the three maps.
        for p in range(1, n + 1):
            for c in (self.left[p], self.right[p]):
                if c and self.parent[c] != p:
                    raise InconsistentError(
                        f"{c} is listed as a child of {p} but parent[{c}] = {self.parent[c]}"
                    )
            if self.left[p] and self.left[p] == self.right[p]:
                raise InconsistentError(f"{self.left[p]} is both children of {p}")
        for v in range(2, n + 1):
            p = self.parent[v]
            if self.left[p] != v and self.right[p] != v:
                raise InconsistentError(
                    f"parent[{v}] = {p} but {v} is neither child of {p}"
                )

        # Arity: leaves and binary nodes, plus the single left-only node for
        # even n, which must sit at the rightmost position.
        single = [v for v in range(1, n + 1) if (self.left[v] == 0) != (self.right[v] == 0)]
        if n % 2 == 1:
            if single:
                raise BadArityError(
                    f"odd size {n} admits no one-child node, found {single}"
                )
        else:
            if len(single) != 1:
                raise BadArityError(
                    f"even size {n} needs exactly one one-child node, found {single}"
                )
            oc = single[0]
            if self.left[oc] == 0:
                raise BadArityError(f"one-child node {oc} must carry a left child")
            if self.projection()[-1] != oc:
                raise BadArityError(
                    f"one-child node {oc} is not the rightmost node"
                )

    # -- basic structure ---------------------------------------------------

    def is_leaf(self, v: int) -> bool:
        return self.left[v] == 0 and self.right[v] == 0

    def children(self, v: int) -> tuple[int, ...]:
        out = []
        if self.left[v]:
            out.append(self.left[v])
        if self.right[v]:
            out.append(self.right[v])
        return tuple(out)

    def one_child_node(self) -> int | None:
        """The unique single-child node for even n, else None."""
        for v in range(1, self.n + 1):
            if (self.left[v] == 0) != (self.right[v] == 0):
                return v
        return None

    # -- projection --------------------------------------------------------

    def projection(self) -> tuple[int, ...]:
        """Left-to-right label order under the planar embedding.

        The embedding places each left subtree strictly left of its root and
        each right subtree strictly right, so the abscissa order is exactly
        the in-order traversal.
        """
        out: list[int] = []
        # Iterative in-order: (node, visited-left?) stack.
        stack: list[tuple[int, bool]] = [(1, False)]
        while stack:
            v, done_left = stack.pop()
            if not done_left and self.left[v]:
                stack.append((v, True))
                stack.append((self.left[v], False))
                continue
            out.append(v)
            if self.right[v]:
                stack.append((self.right[v], False))
        return tuple(out)

    # -- statistics ---------------------------------------------------------

    def minimal_chain(self) -> tuple[int, ...]:
        """Root-to-leaf path following the smaller (or only) child.

        Starts at the root; while the next smaller child is interior, keep
        walking; the chain ends at the first leaf reached.  The single-node
        tree has the one-element chain (1,).
        """
        chain = [1]
        v = 1
        while True:
            l, r = self.left[v], self.right[v]
            if l == 0 and r == 0:
                break
            nxt = min(l, r) if l and r else (l or r)
            chain.append(nxt)
            if self.is_leaf(nxt):
                break
            v = nxt
        return tuple(chain)

    def eoc(self) -> int:
        if self.n == 1:
            raise StatUndefinedError("eoc is undefined on the single-node tree")
        return self.minimal_chain()[-1]

    def pom(self) -> int:
        if self.n == 1:
            raise StatUndefinedError("pom is undefined on the single-node tree")
        return self.parent[self.n]

    def ent(self) -> int:
        return self.projection()[-1]

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
        :class:`BadLabelsError` or another :class:`TreeError`."""
        if not isinstance(data, dict):
            raise BadLabelsError(f"tree JSON must be an object, got {type(data).__name__}")
        missing = {"n", "parent", "left", "right"} - data.keys()
        if missing:
            raise BadLabelsError(f"tree JSON misses {sorted(missing)}")
        n = data["n"]
        if type(n) is not int or n < 1:
            raise BadLabelsError(f"bad size {n!r}")
        arrays = [data[name] for name in ("parent", "left", "right")]
        if not all(isinstance(a, list) and len(a) == n for a in arrays):
            raise BadLabelsError("parent, left and right must be lists of length n")
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


def _child_arrays_from_word(word: Sequence[int]) -> tuple[list[int], list[int]]:
    """left/right child arrays of the min-rooted tree of *word*.

    Classic stack construction: scan left to right keeping the rightmost
    spine; each letter pops the larger spine tail (which becomes its left
    subtree) and attaches as right child of the remaining top.
    """
    n = len(word)
    left = [0] * (n + 1)
    right = [0] * (n + 1)
    stack: list[int] = []
    for x in word:
        last = 0
        while stack and stack[-1] > x:
            last = stack.pop()
        left[x] = last
        if stack:
            right[stack[-1]] = x
        stack.append(x)
    return left, right


def tree_from_perm(word: Sequence[int]) -> IncTree:
    """Inverse of the projection.

    The root is the minimum letter; the factors left and right of the minimum
    build the left and right subtrees recursively.  Raises
    :class:`NotAlternatingError` unless *word* is down-up alternating.
    """
    word = tuple(word)
    check_alternating(word)
    left, right = _child_arrays_from_word(word)
    n = len(word)
    parent = [0] * (n + 1)
    for p in range(1, n + 1):
        if left[p]:
            parent[left[p]] = p
        if right[p]:
            parent[right[p]] = p
    # Alternation of the word is exactly completeness of the tree, so the
    # expensive re-validation is skipped.
    return IncTree(parent, left, right, validate=False)


def alternating_permutations(
    n: int, prefix: Sequence[int] = ()
) -> Iterator[tuple[int, ...]]:
    """Yield every down-up alternating permutation of 1..n, lexicographically.

    *prefix* restricts the stream to words starting with the given letters
    (the letters must themselves be a legal start); this is the partition
    hook for parallel reductions over the enumeration.
    """
    if n < 1:
        raise ValueError(f"size must be >= 1, got {n}")
    word = [0] * n
    used = bytearray(n + 1)
    k = len(prefix)
    if k > n:
        raise ValueError("prefix longer than the word")
    for i, v in enumerate(prefix):
        if not 1 <= v <= n or used[v]:
            raise ValueError(f"bad prefix {prefix!r}")
        if i > 0 and ((i % 2 == 1) != (v < word[i - 1])):
            return  # no completions: prefix already breaks alternation
        word[i] = v
        used[v] = 1
    if k == n:
        yield tuple(word)
        return

    pos = k
    val = 0  # last value tried at the current position, 0 = none yet
    while pos >= k:
        if pos == 0:
            lo, hi = 1, n
        elif pos % 2 == 1:
            lo, hi = 1, word[pos - 1] - 1
        else:
            lo, hi = word[pos - 1] + 1, n
        v = val + 1 if val + 1 > lo else lo
        while v <= hi and used[v]:
            v += 1
        if v > hi:
            pos -= 1
            if pos >= k:
                val = word[pos]
                used[val] = 0
            continue
        word[pos] = v
        used[v] = 1
        if pos == n - 1:
            yield tuple(word)
            used[v] = 0
            val = v
        else:
            pos += 1
            val = 0


def enumerate_trees(n: int, prefix: Sequence[int] = ()) -> Iterator[IncTree]:
    """Yield every complete increasing tree of size n exactly once.

    Trees come out in lexicographic order of their projection; the count is
    the secant number for even n and the tangent number for odd n.
    """
    for word in alternating_permutations(n, prefix):
        yield tree_from_perm(word)


def word_stats(word: Sequence[int]) -> StatRecord:
    """(eoc, pom, ent) of the tree projecting to *word*, without building it.

    Used by the brute-force counting loops; requires n >= 2.  pom is read off
    as the larger neighbour of the maximum letter (the parent of a node is
    the larger of its nearest smaller letters, and every letter is smaller
    than the maximum); eoc walks the minimal chain on the stack-built child
    arrays; ent is the last letter.
    """
    n = len(word)
    if n < 2:
        raise StatUndefinedError("eoc and pom need at least two nodes")
    left, right = _child_arrays_from_word(word)

    i = word.index(n)
    if i == 0:
        pom = word[1]
    elif i == n - 1:
        pom = word[n - 2]
    else:
        a, b = word[i - 1], word[i + 1]
        pom = a if a > b else b

    v = 1
    while True:
        l, r = left[v], right[v]
        nxt = (l if l < r else r) if l and r else (l or r)
        if left[nxt] == 0 and right[nxt] == 0:
            eoc = nxt
            break
        v = nxt

    return StatRecord(eoc, pom, word[-1])
