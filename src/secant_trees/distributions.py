"""Brute-force distributions of the tree statistics.

The central object is the joint matrix of an even size ``2n``: cell ``(m, k)``
counts the trees of size ``2n`` with ``eoc = m`` and ``pom = k``, over the
index box ``m in [2, 2n]``, ``k in [1, 2n-1]``.  Reads outside the box are 0
by convention.  Cells are tri-state: a matrix produced by enumeration has
every cell known, while matrices built by the analytic engine in
:mod:`secant_trees.recurrence` may leave interior cells of the lower triangle
unknown -- those are first-class ``None`` cells, never silently zero.

Everything here counts by streaming the enumeration of
:mod:`secant_trees.trees`; nothing is materialized, so size 12 (2,702,765
trees) stays within a modest memory budget.
"""

from __future__ import annotations

import multiprocessing
import os
from bisect import bisect_left, bisect_right
from typing import Iterable, Sequence

from .trees import alternating_permutations, word_stats


class OddSizeError(ValueError):
    """Joint matrices are defined for even sizes only."""


class UnknownCellError(ValueError):
    """An operation required a cell value that is not known."""


class BrokenInvariantError(RuntimeError):
    """A counted distribution contradicts a structural fact about the trees."""


def _check_even(two_n: int) -> None:
    if two_n < 2 or two_n % 2 != 0:
        raise OddSizeError(f"size must be a positive even integer, got {two_n}")


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
        _check_even(two_n)
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

    @property
    def m_range(self) -> tuple[int, int]:
        return (2, self.two_n)

    @property
    def k_range(self) -> tuple[int, int]:
        return (1, self.two_n - 1)

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
            raise UnknownCellError(f"cell ({m},{k}) of M_{self.two_n} is unknown")
        return v

    def known(self, m: int, k: int) -> bool:
        return self.cell(m, k) is not None

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
            raise UnknownCellError("row sums need all cells known (or attached margins)")
        return tuple(sum(row) for row in self._cells)

    def col_sums(self) -> tuple[int, ...]:
        """Column sums indexed by k - 1, for k = 1 .. 2n-1."""
        if self._col_sums is not None:
            return self._col_sums
        if not self.is_complete():
            raise UnknownCellError("column sums need all cells known (or attached margins)")
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
        if type(two_n) is not int:
            raise OddSizeError(f"size must be a positive even integer, got {two_n!r}")
        _check_even(two_n)
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
        """Header row of k values, one row per m, empty cell when unknown."""
        lines = ["m\\k," + ",".join(str(k) for k in range(1, self.two_n))]
        for m in range(2, self.two_n + 1):
            vals = (self.cell(m, k) for k in range(1, self.two_n))
            lines.append(
                str(m) + "," + ",".join("" if v is None else str(v) for v in vals)
            )
        return "\n".join(lines) + "\n"

    # -- equality -------------------------------------------------------------------

    def same_counts(self, other: "JointMatrix") -> bool:
        return self.two_n == other.two_n and self._cells == other._cells

    def __repr__(self) -> str:
        tag = "" if self.is_complete() else f", {len(self.unknown_cells())} unknown"
        return f"JointMatrix(two_n={self.two_n}, method={self.method!r}{tag})"


# -- brute-force counting --------------------------------------------------------


def _count_joint_serial(two_n: int, prefix: Sequence[int] = ()) -> dict[tuple[int, int], int]:
    """Count (eoc, pom) pairs over all trees whose projection starts with
    *prefix*.

    A backtracker over the down-up words that keeps the min-tree of the
    current prefix -- its right spine and the ``left``/``right`` child
    arrays -- up to date as letters are pushed.  A push pops the spine
    entries larger than the new letter; backtracking restores the few slots
    it overwrote, so no word rebuilds its tree.  Branching stops once three
    letters ``a < b < c`` are left: the last two letters of an even-length
    down-up word are forced (the larger, then the smaller), so the
    completions are exactly ``(a, c, b)`` when ``a`` is below the letter
    before it and ``(b, c, a)`` when ``b`` is.  Every completed word is
    counted from the definitions: eoc by walking its minimal chain, pom as
    the larger neighbour of ``2n``.  The test suite pins the counts against
    :func:`secant_trees.trees.alternating_permutations` composed with
    :func:`secant_trees.trees.word_stats` for the whole stream and for every
    first-letter part.
    """
    n = two_n
    k0 = len(prefix)
    if k0 >= n - 2:
        # The prefix leaves at most one word (always so at 2n = 2): count it
        # with the reference statistics, which also validate the prefix.
        counts: dict[tuple[int, int], int] = {}
        for word in alternating_permutations(n, prefix):
            s = word_stats(word)
            counts[(s.eoc, s.pom)] = 1
        return counts
    if len(set(prefix)) != k0 or not all(1 <= v <= n for v in prefix):
        raise ValueError(f"bad prefix {prefix!r}")

    free = list(range(1, n + 1))  # letters not yet placed, ascending
    word = [0] * n
    spine = [0] * n  # spine[:h] is the right spine of the min-tree, ascending
    left = [0] * (n + 1)
    right = [0] * (n + 1)
    stride = n + 1
    tally = [0] * (stride * stride)  # tally[eoc * stride + pom]
    last = n - 4  # the last position chosen by branching

    def branch(pos: int, h: int, pom: int) -> None:
        # pom is 0 until the letter after n is placed.
        prev = word[pos - 1] if pos else 0
        if pos & 1:
            lo, hi = 0, bisect_left(free, prev)
        else:
            lo, hi = bisect_right(free, prev), len(free)
        if pos < k0:
            i = bisect_left(free, prefix[pos])
            if not lo <= i < hi:
                return
            lo, hi = i, i + 1

        if pos < last:
            for i in range(lo, hi):
                v = free.pop(i)
                word[pos] = v
                if pos & 1:
                    # Descent: v pops the spine entries above it, the lowest
                    # of which becomes its left child.
                    p = bisect_right(spine, v, 0, h)
                    below = spine[p]
                    left[v] = below
                    right[v] = 0
                    if p:
                        right[spine[p - 1]] = v
                    spine[p] = v
                    if prev == n:  # v is the right neighbour of n
                        branch(pos + 1, p + 1, max(v, word[pos - 2]) if pos > 1 else v)
                    else:
                        branch(pos + 1, p + 1, pom)
                    spine[p] = below
                    if p:
                        right[spine[p - 1]] = below
                else:
                    # Ascent: v hangs as right child of the spine top.  The
                    # slot it takes may hold an entry an ancestor popped.
                    left[v] = right[v] = 0
                    if h:
                        right[spine[h - 1]] = v
                    popped = spine[h]
                    spine[h] = v
                    branch(pos + 1, h + 1, pom)
                    spine[h] = popped
                    if h:
                        right[spine[h - 1]] = 0
                free.insert(i, v)
            return

        # pos == last is an ascent (or the first letter): push v, then write
        # the at most two completions t, c, s of the remaining a < b < c.
        popped = spine[h]
        for i in range(lo, hi):
            v = free.pop(i)
            a, b, c = free
            left[v] = right[v] = 0
            if h:
                right[spine[h - 1]] = v
            spine[h] = v
            left[c] = right[c] = 0
            for t, s in ((a, b), (b, a)):
                if t > v:
                    break
                p = bisect_right(spine, t, 0, h + 1)
                left[t] = spine[p]
                if p:
                    right[spine[p - 1]] = t
                right[s] = 0
                if s > t:
                    # s pops only c.
                    right[t] = s
                    left[s] = c
                    q = p
                else:
                    # s pops c, t and the spine entries above it.
                    right[t] = c
                    q = bisect_right(spine, s, 0, p)
                    left[s] = spine[q] if q < p else t
                    if q:
                        right[spine[q - 1]] = s
                # eoc: follow the smaller (or only) child down to a leaf.
                x = 1
                while True:
                    l, r = left[x], right[x]
                    x = (l if l < r else r) if l and r else (l or r)
                    if not (left[x] or right[x]):
                        break
                if pom:
                    k = pom
                elif v == n:
                    k = t if t > prev else prev
                else:
                    k = b  # c == n, flanked by t and s
                tally[x * stride + k] += 1
                if q:
                    right[spine[q - 1]] = spine[q]
                if p:
                    right[spine[p - 1]] = spine[p]
            if h:
                right[spine[h - 1]] = 0
            free.insert(i, v)
        spine[h] = popped

    branch(0, 0, 0)
    return {
        (m, k): tally[m * stride + k]
        for m in range(stride)
        for k in range(stride)
        if tally[m * stride + k]
    }


def _count_joint_part(args: tuple[int, int]) -> dict[tuple[int, int], int]:
    two_n, first = args
    return _count_joint_serial(two_n, prefix=(first,))


def _pool_size(processes: int, parts: int, cores: int | None) -> int:
    """Workers worth starting: no more than asked for, than there are parts
    to hand out, or than there are cores (``None`` when unknown counts as 1).
    """
    return max(1, min(processes, parts, cores or 1))


def joint_matrix_bruteforce(two_n: int, processes: int = 1) -> JointMatrix:
    """Count every tree of size *two_n* into a fully-known joint matrix.

    With ``processes > 1`` the enumeration is partitioned by the first letter
    of the projection and reduced over a process pool of at most one worker
    per part and per core; the merge is plain integer addition, so the
    result is identical to the serial run.
    """
    _check_even(two_n)
    # Words start with a letter >= 2 (the first step is a descent).
    workers = _pool_size(processes, two_n - 1, os.cpu_count())
    if workers > 1 and two_n >= 8:
        parts_args = [(two_n, w0) for w0 in range(2, two_n + 1)]
        with multiprocessing.Pool(workers) as pool:
            parts = pool.map(_count_joint_part, parts_args)
        counts: dict[tuple[int, int], int] = {}
        for part in parts:
            for key, c in part.items():
                counts[key] = counts.get(key, 0) + c
    else:
        counts = _count_joint_serial(two_n)

    M = JointMatrix(two_n, method="brute")
    for m in range(2, two_n + 1):
        for k in range(1, two_n):
            M.set(m, k, counts.get((m, k), 0))
    return M


def marginals(M: JointMatrix) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(row sums by m, column sums by k, total); requires all cells known."""
    if not M.is_complete():
        raise UnknownCellError("marginals need a fully-known matrix")
    rows = M.row_sums()
    cols = M.col_sums()
    return rows, cols, sum(rows)


# -- the rightmost-node statistic -------------------------------------------------


def ent_distribution(n: int) -> tuple[int, ...]:
    """Entry j-1 counts trees of size n whose rightmost node is labelled j.

    Defined for every size n >= 2, odd sizes included.  The rightmost label
    is the last letter of the projection, so no tree is built: a backtracker
    over the down-up words keeps the free letters sorted, takes each
    position's candidates by bisecting against the letter before it (odd
    0-based positions descend, even ones ascend), and pops a letter on the
    way down and re-inserts it on the way back.  Branching stops once three
    letters ``a < b < c`` are left after the letter ``v`` at position n-4,
    where the tails are forced.  For even n the last three slots descend,
    ascend and descend, so ``c`` is in the middle: ``(a, c, b)`` completes
    the word when ``a < v`` and ``(b, c, a)`` when ``b < v``.  For odd n they
    ascend, descend and ascend, so ``a`` is in the middle: ``(b, a, c)`` when
    ``b > v`` and ``(c, a, b)`` when ``c > v``.  Every word is still counted
    one at a time; no Entringer number feeds the count.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    counts = [0] * (n + 1)
    if n < 4:
        for word in alternating_permutations(n):
            counts[word[-1]] += 1
        return tuple(counts[1:])

    free = list(range(1, n + 1))  # letters not yet placed, ascending
    last = n - 4  # the last position chosen by branching
    even = n % 2 == 0

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
        for i in range(lo, hi):
            v = free.pop(i)
            a, b, c = free
            if even:
                if a < v:
                    counts[b] += 1
                    if b < v:
                        counts[a] += 1
            elif c > v:
                counts[b] += 1
                if b > v:
                    counts[c] += 1
            free.insert(i, v)

    branch(0, 0)
    return tuple(counts[1:])


class EntringerTriangle:
    """Rows of rightmost-label counts, row n holding entries j = 1 .. n-1."""

    def __init__(self, rows: dict[int, tuple[int, ...]]):
        self.rows = dict(rows)

    def row(self, n: int) -> tuple[int, ...]:
        return self.rows[n]

    @property
    def n_max(self) -> int:
        return max(self.rows)

    def row_total(self, n: int) -> int:
        return sum(self.rows[n])

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
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max}")
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
