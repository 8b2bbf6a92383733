"""Brute-force distributions of the tree statistics.

The central object is the joint matrix of an even size ``2n``: cell ``(m, k)``
counts the trees of size ``2n`` with ``eoc = m`` and ``pom = k``, over the
index box ``m in [2, 2n]``, ``k in [1, 2n-1]``.  Reads outside the box are 0
by convention.  Cells are tri-state: a matrix produced by enumeration has
every cell known, while matrices built by the analytic engine in
:mod:`secant_trees.recurrence` may leave interior cells of the lower triangle
unknown -- those are first-class ``None`` cells, never silently zero.

The joint counter grows every tree by inserting its labels in increasing
order and carries eoc and the rightmost node along, so it builds no word and
no tree object.  A leaf other than the rightmost node opened on its left or
on its right gives twins that agree in every later move and statistic, so
each pair is walked once with weight 2, and the last six labels are placed
from a table of tail placements, walked with the same moves once per shape
of the state they start from.  An entry depends on the shape alone, so the
tables are cached once per process and shared by every part and call.  The
rightmost-label counter backtracks over the down-up words in place down to
their last seven letters and takes the endings of the last six from a table
built on first use by trying every ordering of seven ranks, so it still
counts words rather than applying a rule.
Nothing is materialized, so size 14 (199,360,981 trees) stays within a
modest memory budget.  :mod:`multiprocessing` and :mod:`logging` are imported
only by a pooled count and by a count large enough to log its progress, so
importing this module loads neither.
"""

from __future__ import annotations

import functools
import os
import time
from bisect import bisect_left, bisect_right
from itertools import permutations
from typing import Iterable, Sequence

from .trees import OddSizeError, _check_size, alternating_permutations  # noqa: F401 (re-export)


class BrokenInvariantError(RuntimeError):
    """A computed or counted distribution contradicts a structural fact about
    the trees: a negative count, a cell filled twice with two values, brute
    force disagreeing with the recurrence, or an impossible rightmost label."""


_METHODS = ("brute", "recurrence", "hybrid")
_CELL_TYPES = {int, type(None)}


def _is_count(v: object) -> bool:
    return type(v) is int and v >= 0


def _margins_agree(lines: Iterable[Sequence[int | None]], sums: Sequence[int]) -> bool:
    """Each sum equals its line when the line is fully known, and is no
    smaller than the known part otherwise."""
    for line, total in zip(lines, sums):
        known = sum(filter(None, line))  # skips the None and the 0 cells
        if known > total or (known != total and None not in line):
            return False
    return True


class JointMatrix:
    """Counts of trees of size ``two_n`` by ``(eoc, pom) = (m, k)``.

    ``method`` records how the values were obtained: ``"brute"`` (full
    enumeration), ``"recurrence"`` (analytic engine, interior lower-triangle
    cells unknown) or ``"hybrid"`` (analytic plus brute-filled interior).
    """

    __slots__ = ("two_n", "method", "_cells", "_row_sums", "_col_sums", "_total")

    def __init__(self, two_n: int, method: str):
        _check_size(two_n, 2, "two_n", even=True)
        self.two_n = two_n
        self.method = method
        width = two_n - 1
        self._cells: list[list[int | None]] = [[None] * width for _ in range(width)]
        self._row_sums: tuple[int, ...] | None = None
        self._col_sums: tuple[int, ...] | None = None
        self._total: int | None = None

    @classmethod
    def _adopt(cls, two_n: int, method: str, rows: list[list[int | None]]) -> "JointMatrix":
        """Package-internal: a matrix that takes over *rows* without copying.

        Row ``m`` sits at index ``m - 2`` and cell ``k`` at ``k - 1``; the
        adopted list stays reachable as ``_cells``, which the recurrence
        engine reads and writes directly.
        """
        M = cls.__new__(cls)
        M.two_n, M.method, M._cells = two_n, method, rows
        M._row_sums = M._col_sums = M._total = None
        return M

    # -- index helpers ------------------------------------------------------

    def in_box(self, m: int, k: int) -> bool:
        return 2 <= m <= self.two_n and 1 <= k <= self.two_n - 1

    # -- cell access ----------------------------------------------------------

    def cell(self, m: int, k: int) -> int | None:
        """Raw cell: 0 outside the index box, None when unknown."""
        if not self.in_box(m, k):
            return 0
        return self._cells[m - 2][k - 1]

    def get(self, m: int, k: int) -> int:
        v = self.cell(m, k)
        if v is None:
            raise ValueError(f"cell ({m},{k}) of M_{self.two_n} is unknown")
        return v

    def set(self, m: int, k: int, value: int) -> None:
        if not self.in_box(m, k):
            raise IndexError(f"({m},{k}) outside the index box of M_{self.two_n}")
        self._cells[m - 2][k - 1] = value

    def known_cells(self) -> Iterable[tuple[int, int, int]]:
        for m in range(2, self.two_n + 1):
            for k in range(1, self.two_n):
                v = self._cells[m - 2][k - 1]
                if v is not None:
                    yield m, k, v

    def unknown_cells(self) -> list[tuple[int, int]]:
        return [
            (m, k)
            for m in range(2, self.two_n + 1)
            for k in range(1, self.two_n)
            if self._cells[m - 2][k - 1] is None
        ]

    def is_complete(self) -> bool:
        return all(v is not None for row in self._cells for v in row)

    # -- marginals -----------------------------------------------------------

    def attach_margins(
        self, row_sums: Sequence[int], col_sums: Sequence[int], total: int
    ) -> None:
        """Record analytically-known marginals on a partial matrix."""
        self._row_sums = tuple(row_sums)
        self._col_sums = tuple(col_sums)
        self._total = total

    def row_sums(self) -> tuple[int, ...]:
        """Row sums indexed by m - 2, for m = 2 .. 2n."""
        if self._row_sums is not None:
            return self._row_sums
        if not self.is_complete():
            raise ValueError("row sums need all cells known (or attached margins)")
        return tuple(sum(row) for row in self._cells)

    def col_sums(self) -> tuple[int, ...]:
        """Column sums indexed by k - 1, for k = 1 .. 2n-1."""
        if self._col_sums is not None:
            return self._col_sums
        if not self.is_complete():
            raise ValueError("column sums need all cells known (or attached margins)")
        return tuple(sum(row[j] for row in self._cells) for j in range(self.two_n - 1))

    def total(self) -> int:
        if self._total is not None:
            return self._total
        return sum(self.row_sums())

    # -- serialization -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "two_n": self.two_n,
            "m_range": [2, self.two_n],
            "k_range": [1, self.two_n - 1],
            "entries": [list(row) for row in self._cells],
            "row_sums": list(self.row_sums()),
            "col_sums": list(self.col_sums()),
            "total": self.total(),
            "method": self.method,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "JointMatrix":
        """Inverse of :meth:`to_json_dict`.

        Raises :class:`ValueError` unless *data* has that exact shape: an
        even ``two_n >= 2``, a known ``method``, a square grid of counts or
        ``None``, and margins that sum to ``total`` and agree with the cells
        (equal to a fully known line, no smaller than the known part of any
        other line).
        """
        if not isinstance(data, dict):
            raise ValueError(f"a matrix blob is a dict, got {type(data).__name__}")
        two_n = data.get("two_n")
        _check_size(two_n, 2, "two_n", even=True)
        if data.get("method") not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {data.get('method')!r}")
        if data.get("m_range") != [2, two_n] or data.get("k_range") != [1, two_n - 1]:
            raise ValueError(f"m_range and k_range must be [2, {two_n}] and [1, {two_n - 1}]")
        # The grid is checked before the matrix is allocated, so a huge
        # two_n costs no more memory than the entries it came with.
        width = two_n - 1
        entries = data.get("entries")
        if not (
            isinstance(entries, list)
            and len(entries) == width
            and all(isinstance(r, list) and len(r) == width for r in entries)
        ):
            raise ValueError("entries must be a (2n-1) x (2n-1) grid")
        for m, row in enumerate(entries, 2):
            if not set(map(type, row)) <= _CELL_TYPES or min(filter(None, row), default=0) < 0:
                raise ValueError(f"row m={m} of the entries holds more than counts and nulls")
        M = cls._adopt(two_n, data["method"], [list(row) for row in entries])
        rows, cols, total = data.get("row_sums"), data.get("col_sums"), data.get("total")
        for name, sums in (("row_sums", rows), ("col_sums", cols)):
            if not (isinstance(sums, list) and len(sums) == width and all(map(_is_count, sums))):
                raise ValueError(f"{name} must be a list of {width} counts")
        if not _is_count(total) or sum(rows) != total or sum(cols) != total:
            raise ValueError(f"total {total!r} is not the sum of the row and column sums")
        if not (_margins_agree(M._cells, rows) and _margins_agree(zip(*M._cells), cols)):
            raise ValueError("row_sums or col_sums disagree with the entries")
        if not M.is_complete():
            M.attach_margins(rows, cols, total)
        return M

    def to_csv(self) -> str:
        """Header row of k values, one row per m, empty cell when unknown.

        At its peak it holds the lines and the text joined from them, about
        twice the text: each line is built from its row of cells, and the
        join takes the closing newline from a last empty line, so the text
        is not copied again to end it.
        """
        lines = ["m\\k," + ",".join(map(str, range(1, self.two_n)))]
        for m, row in enumerate(self._cells, 2):
            lines.append(f"{m}," + ",".join(["" if v is None else str(v) for v in row]))
        lines.append("")
        return "\n".join(lines)

    # -- equality -------------------------------------------------------------------

    def same_counts(self, other: "JointMatrix") -> bool:
        return self.two_n == other.two_n and self._cells == other._cells

    def __repr__(self) -> str:
        tag = "" if self.is_complete() else f", {len(self.unknown_cells())} unknown"
        return f"JointMatrix(two_n={self.two_n}, method={self.method!r}{tag})"


# -- brute-force counting --------------------------------------------------------

# Parts of the count, and of a pooled run: the six placements of labels 2 and
# 3, each written (side of 2 under the root, parent of 3, side of 3 under it)
# with side 0 for left and 1 for right.
_PARTS = ((0, 1, 1), (0, 2, 0), (0, 2, 1), (1, 1, 0), (1, 2, 0), (1, 2, 1))
_JOINT_TAIL = 6  # last labels of the joint counter, placed from tables
# Smallest size whose parts log a line: a part takes 0.01-0.02 s at 2n = 14
# and 0.4-0.7 s at 16 (2 cores, Python 3.11.7).
_LOG_MIN_TWO_N = 16
# Smallest size counted over a pool.  Measured on 2 cores (Python 3.11.7), 10
# alternating pairs per size, medians of serial against two workers: 0.0025 s
# against 0.027 s at 2n = 10, 0.0085 s against 0.048 s at 12 and 0.059 s
# against 0.082 s at 14, the pool slower in every pair; 2.92 s against 1.73 s
# at 16, the pool faster in all 10.
_POOL_MIN_TWO_N = 16


def _walk(
    two_n: int,
    L: int,
    R: int,
    r_open: bool,
    eoc: int,
    opens: list[int],
    leaves: list[int],
    tally: list[int],
) -> None:
    """Place the labels L, L+1, ..., 2n into the partial tree whose state is
    (*opens*, *leaves*, *R*, *r_open*, *eoc*) and add the weight of each
    finished tree to ``tally[eoc * (2n + 1) + pom]``.

    Every complete increasing tree arises exactly once by inserting the
    labels in increasing order, because removing the largest label always
    leaves a leaf.  The state of a partial tree is its list of leaves, its
    list of *open* nodes (exactly one child) other than ``R``, ``R`` itself
    (the end of the right chain from the root), whether ``R`` is open (then
    it has a left child only, as the one-child node of every complete tree
    of even size must) and ``eoc`` (the end of the minimal chain, always a
    leaf).  Label ``L`` either fills the free slot of an open node or opens a
    leaf on its left or on its right, and each move updates the statistics
    in O(1): ``eoc`` becomes ``L`` exactly when ``L`` hangs under the ``eoc``
    leaf (a filled slot never changes the chain, because the child already
    there is smaller), ``R`` becomes ``L`` exactly when ``L`` becomes the
    right child of ``R``, and pom is the node that receives ``2n``.

    The walk visits the trees up to the side of each opening of a leaf
    ``Y != R``, once per pair of twins, and carries a weight ``w`` that
    doubles at each such opening: a tree reached after ``j`` of them adds
    ``2**j`` to its cell, one for each choice of sides.  The weight is exact
    because the two sides give the same state, so every later move and both
    statistics agree: ``Y`` is not on the right chain, so ``R`` stays; its
    one child becomes the minimal chain's step from ``Y`` whichever side it
    hangs on, so ``eoc`` moves the same; and filling ``Y`` later is one move
    either way.  Fills and the two openings of ``R`` keep the weight: a fill
    is one move, and the openings of ``R`` differ, since a left child leaves
    ``R`` open and a right child becomes the new ``R``.
    A branch is pruned once the open nodes other than an open ``R``
    outnumber the labels still to place; every surviving branch then
    completes.  The last label ``2n`` has one place.  The ``2n - 1`` nodes
    placed before it have ``2n - 2`` edges, two under each two-child node and
    one under each one-child node, so the one-child nodes are even in
    number, and pruning leaves at most one of them other than ``R``.  So
    either ``R`` and one other node ``X`` are open, and ``2n`` fills ``X``,
    which is pom; or no node is open, and ``2n`` opens the leaf ``R`` on its
    left, so ``R`` is pom and ``2n`` is eoc if ``R`` was.

    When ``L`` is below the first label ``2n - _JOINT_TAIL + 1`` of the tail
    and that label is below ``2n - 1``, each state reached there adds its
    entry of :func:`_tail_placements` instead of being walked further.  The
    walk that builds an entry starts at the tail, so it walks to the end.
    """
    stride = two_n + 1
    start = two_n - _JOINT_TAIL + 1  # the first label of the tail
    if not L < start < two_n - 1:
        start = two_n + 1  # past the last label: walk every label
    tail = list(range(start, two_n + 1))

    def grow(L: int, R: int, r_open: bool, eoc: int, w: int) -> None:
        # Place the labels L, L+1, ..., 2n into w trees that differ only in
        # the sides of earlier openings; opens never counts an open R.
        n_open = len(opens)
        if L == start:
            shape = (n_open, len(leaves), r_open, -1 if r_open else leaves.index(R))
            nodes = opens + leaves + [R] + tail
            for e, p, mult in _tail_placements(*shape):
                tally[nodes[e] * stride + nodes[p]] += w * mult
            return
        if L == two_n:
            if r_open:
                tally[eoc * stride + opens[0]] += w
            else:
                tally[(L if R == eoc else eoc) * stride + R] += w
            return
        rem = two_n - L  # labels to place after L
        nxt = L + 1
        leaves.append(L)
        for i in range(n_open):
            X = opens.pop(i)
            grow(nxt, R, r_open, eoc, w)
            opens.insert(i, X)
        if r_open and n_open <= rem:
            grow(nxt, L, False, eoc, w)
        leaves.pop()
        may_open = n_open < rem
        for j, Y in enumerate(leaves):
            leaves[j] = L
            e = L if Y == eoc else eoc
            if Y == R:
                if n_open <= rem:
                    grow(nxt, R, True, e, w)
                if may_open:
                    opens.append(Y)
                    grow(nxt, L, False, e, w)
                    opens.pop()
            elif may_open:
                opens.append(Y)
                grow(nxt, R, r_open, e, 2 * w)  # the left and the right twin
                opens.pop()
            leaves[j] = Y

    grow(L, R, r_open, eoc, 1)


@functools.cache
def _tail_placements(
    n_open: int, n_leaves: int, r_open: bool, r_at: int
) -> tuple[tuple[int, int, int], ...]:
    """The table entry of a state with *n_open* open nodes other than ``R``,
    *n_leaves* leaves, and ``R`` open or the leaf at index *r_at*, just
    before the last ``_JOINT_TAIL`` labels are placed; ``eoc`` is the first
    leaf, as in every state the walk reaches.

    Each ``(e, p, mult)`` says that ``mult`` trees, twins counted, end with
    ``eoc`` and pom at positions ``e`` and ``p`` of the node list ``opens +
    leaves + [R] + tail labels``.  It is found by walking the tail with
    :func:`_walk` on a canonical instance: labels ``1..n_open`` for the open
    nodes, then the leaves, then ``R``, then the tail labels, so that label
    ``c`` is position ``c - 1``.  The entry depends on the shape alone, not
    on ``2n``, so it is built once per process and serves every part and
    call that reaches the shape.  Sizes reach disjoint shapes, because a
    state at the tail of size ``2n`` holds ``2n - _JOINT_TAIL`` nodes.
    """
    a, b = n_open, n_leaves
    leaves = list(range(a + 1, a + b + 1))
    R = a + b + 1 if r_open else leaves[r_at]
    two_n = a + b + 1 + _JOINT_TAIL
    stride = two_n + 1
    tally = [0] * (stride * stride)
    _walk(two_n, a + b + 2, R, r_open, leaves[0], list(range(1, a + 1)), leaves, tally)
    return tuple(
        (i // stride - 1, i % stride - 1, mult) for i, mult in enumerate(tally) if mult
    )


def _count_joint_part(args: tuple[int, tuple[int, int, int]]) -> dict[tuple[int, int], int]:
    """Count (eoc, pom) pairs over the trees of size ``2n >= 4`` whose labels
    2 and 3 sit as the part in *args* says.

    The labels ``4 .. 2n - T`` are placed by :func:`_walk`, with ``T =
    _JOINT_TAIL``.  Each state it reaches at label ``2n - T + 1`` is resolved
    from a table of tail placements, keyed by the state's shape: the number
    of open nodes and of leaves, whether ``R`` is open, and the index of
    ``R`` among the leaves.  ``eoc`` needs no index: it starts as the first
    leaf, a fill appends its leaf and an opening replaces its leaf in place,
    so it stays the first leaf.  An entry lists triples ``(e, p,
    mult)``: ``mult`` ways, twins counted, to place the last ``T`` labels
    that end with ``eoc`` at position ``e`` and pom at position ``p`` of the
    node list ``opens + leaves + [R] + [2n - T + 1, ..., 2n]``; the state's
    weight times ``mult`` goes to that cell.  The tail placements depend on
    the shape alone, because a move reads a node only through its role
    (open, leaf, ``R``, ``eoc``) and the count of labels left.

    Every tree is still counted by walking moves: an entry is found by
    walking the same moves (:func:`_walk`, there is no second copy of the
    rules) from a canonical instance of its shape, once per shape, so each
    tree is a walked prefix times a walked tail.  No Entringer number or
    recurrence value feeds a table.  The entries are cached once per process
    on first use and shared by every part and call: a forked pool worker
    inherits the cache, and a spawned one builds its own.  Sizes up to ``T +
    2`` are walked to the end.
    """
    two_n, (side2, parent3, side3) = args
    t0 = time.perf_counter()
    left, right = children = [0] * 4, [0] * 4
    children[side2][1] = 2
    children[side3][parent3] = 3
    R = 1
    while right[R]:
        R = right[R]
    eoc = 3 if parent3 == 2 else 2
    leaves = [v for v in (1, 2, 3) if not (left[v] or right[v])]
    opens = [v for v in (1, 2) if (left[v] == 0) != (right[v] == 0) and v != R]
    stride = two_n + 1
    tally = [0] * (stride * stride)  # tally[eoc * stride + pom]
    if len(opens) <= two_n - 3:
        _walk(two_n, 4, R, left[R] != 0, eoc, opens, leaves, tally)
    counts = {
        (m, k): tally[m * stride + k]
        for m in range(stride)
        for k in range(stride)
        if tally[m * stride + k]
    }
    if two_n >= _LOG_MIN_TWO_N:
        import logging  # only where a line is written: no smaller size pays for it

        logging.getLogger(__name__).info(
            "M_%d part %s: %d trees in %.2f s",
            two_n, args[1], sum(counts.values()), time.perf_counter() - t0,
        )
    return counts


def _pool_size(processes: int, parts: int, cores: int | None) -> int:
    """Workers worth starting: no more than asked for, than there are parts
    to hand out, or than there are cores (``None`` when unknown counts as 1).
    """
    return max(1, min(processes, parts, cores or 1))


def joint_matrix_bruteforce(two_n: int, processes: int = 1) -> JointMatrix:
    """Count every tree of size *two_n* into a fully-known joint matrix.

    The trees are grown label by label (see :func:`_count_joint_part`) in six
    parts, one per placement of labels 2 and 3.  The tail tables are cached
    once per process and shared by every part and call.  At its peak a
    serial call holds one part's tally of ``(2n + 1)**2`` counts and the
    merged counts, beside those tables.  With ``processes > 1`` and ``two_n
    >= _POOL_MIN_TWO_N`` the parts are counted over a process pool of at
    most one worker per part and per core; a forked worker inherits the
    cached tables and a spawned one builds its own.  :mod:`multiprocessing`
    is imported in that branch only.  The merge is plain integer addition in
    both cases, so the result is identical to the serial run.  Each part logs its tree count
    and time at INFO on the logger ``secant_trees.distributions`` from
    ``two_n = _LOG_MIN_TWO_N`` up, and :mod:`logging` is imported only there.
    """
    _check_size(two_n, 2, "two_n", even=True)
    counts: dict[tuple[int, int], int] = {}
    if two_n == 2:
        counts[(2, 1)] = 1  # the one tree: the root with 2 as its left child
    else:
        args = [(two_n, part) for part in _PARTS]
        workers = _pool_size(processes, len(_PARTS), os.cpu_count())
        if workers > 1 and two_n >= _POOL_MIN_TWO_N:
            import multiprocessing  # only here: no serial count pays for it

            with multiprocessing.Pool(workers) as pool:
                parts = pool.map(_count_joint_part, args)
        else:
            parts = map(_count_joint_part, args)
        for part in parts:
            for key, c in part.items():
                counts[key] = counts.get(key, 0) + c

    M = JointMatrix(two_n, method="brute")
    for m in range(2, two_n + 1):
        for k in range(1, two_n):
            M.set(m, k, counts.get((m, k), 0))
    return M


# -- the rightmost-node statistic -------------------------------------------------


_TAIL = 6  # letters after the last branched one, resolved from _tail_table


@functools.cache
def _tail_table(ascends: bool) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Entry r lists the pairs ``(s, mult)`` for a letter of rank r among
    ``_TAIL + 1`` letters: ``mult`` orderings of the other ``_TAIL`` letters
    follow it down-up, their first step up if ``ascends`` and down otherwise,
    and end in the letter of rank s."""
    table = []
    for r in range(_TAIL + 1):
        ends = [0] * (_TAIL + 1)
        for tail in permutations([s for s in range(_TAIL + 1) if s != r]):
            prev, up = r, ascends
            for s in tail:
                if (s > prev) != up:
                    break
                prev, up = s, not up
            else:
                ends[tail[-1]] += 1
        table.append(tuple((s, mult) for s, mult in enumerate(ends) if mult))
    return tuple(table)


def ent_distribution(n: int) -> tuple[int, ...]:
    """Entry j-1 counts trees of size n whose rightmost node is labelled j.

    Defined for every size n >= 2, odd sizes included.  The rightmost label
    is the last letter of the projection, so no tree is built: a backtracker
    over the down-up words keeps the free letters sorted, takes each
    position's candidates by bisecting against the letter before it (odd
    0-based positions descend, even ones ascend), and pops a letter on the
    way down and re-inserts it on the way back.  Branching stops at position
    ``n - 7``, with seven letters left: the letter ``v`` placed there and the
    six after it.  Which orderings of the six complete the word depends only
    on the rank of ``v`` among the seven and on whether the first of the six
    slots ascends.  So a table, built on the first call (about 2 ms) by
    testing all 720 orderings of the other six ranks for each rank of ``v``,
    lists how many completions end in each rank, and the leaf adds those
    multiplicities to the labels of that rank.  The table comes from
    :func:`itertools.permutations` alone, so the count stays brute force:
    every word is still counted, and no Entringer number or partial-sum
    rule feeds it.  Sizes up to 7 count the words of
    :func:`secant_trees.trees.alternating_permutations` directly.
    """
    _check_size(n, 2, "n")
    counts = [0] * (n + 1)
    if n <= _TAIL + 1:
        for word in alternating_permutations(n):
            counts[word[-1]] += 1
        return tuple(counts[1:])

    free = list(range(1, n + 1))  # letters not yet placed, ascending
    last = n - _TAIL - 1  # the last position chosen by branching
    table = _tail_table(last % 2 == 1)  # slot last + 1 ascends when it is even

    def branch(pos: int, prev: int) -> None:
        if pos & 1:
            lo, hi = 0, bisect_left(free, prev)
        else:
            lo, hi = bisect_right(free, prev), len(free)
        if pos < last:
            for i in range(lo, hi):
                v = free.pop(i)
                branch(pos + 1, v)
                free.insert(i, v)
            return
        for i in range(lo, hi):  # v = free[i] has rank i among the seven
            for s, mult in table[i]:
                counts[free[s]] += mult

    branch(0, 0)
    return tuple(counts[1:])


class EntringerTriangle:
    """Rows of rightmost-label counts, row n holding entries j = 1 .. n-1."""

    def __init__(self, rows: dict[int, tuple[int, ...]]):
        self.rows = dict(rows)

    def row(self, n: int) -> tuple[int, ...]:
        _check_size(n, 2, "n")
        if n not in self.rows:
            raise ValueError(f"row {n!r} is outside the rows 2..{self.n_max}")
        return self.rows[n]

    @property
    def n_max(self) -> int:
        return max(self.rows)

    def row_total(self, n: int) -> int:
        return sum(self.row(n))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EntringerTriangle):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self) -> str:
        return f"EntringerTriangle(rows 2..{self.n_max})"

    def to_text(self) -> str:
        width = len(str(max(max(r) for r in self.rows.values())))
        lines = []
        for n in sorted(self.rows):
            lines.append(
                f"n={n:<3d} " + " ".join(f"{v:>{width}d}" for v in self.rows[n])
            )
        return "\n".join(lines) + "\n"


def entringer_bruteforce(n_max: int) -> EntringerTriangle:
    """Triangle rows measured from the raw rightmost-label distribution.

    For even n the raw counts occupy labels 1 .. n-1 and entry j of the row
    is the count of label j.  For odd n every node is a leaf or binary, the
    root included, so the rightmost node sits in the root's right subtree and
    its label ranges over 2 .. n; measured at sizes up to 9, the triangle row
    reads those counts backwards, entry j holding the count of label n+1-j.
    Both conventions are pinned against the partial-sum rule of
    :func:`secant_trees.recurrence.entringer_triangle` in the test suite.
    """
    _check_size(n_max, 2, "n_max")
    rows = {}
    for n in range(2, n_max + 1):
        raw = ent_distribution(n)
        if n % 2 == 0:
            if raw[n - 1]:
                raise BrokenInvariantError(
                    f"{raw[n - 1]} trees of size {n} have the maximum label "
                    "rightmost, but it cannot be the one-child node"
                )
            rows[n] = raw[: n - 1]
        else:
            if raw[0]:
                raise BrokenInvariantError(
                    f"{raw[0]} trees of odd size {n} have the root rightmost, "
                    "but the root has a right subtree"
                )
            rows[n] = tuple(reversed(raw[1:]))
    return EntringerTriangle(rows)
