"""Brute-force distributions of the tree statistics.

The central object is the joint matrix of an even size ``2n``: cell ``(m, k)``
counts the trees of size ``2n`` with ``eoc = m`` and ``pom = k``, over the
index box ``m in [2, 2n]``, ``k in [1, 2n-1]``.  Reads outside the box are 0
by convention.  Cells are tri-state: a matrix produced by enumeration has
every cell known, while matrices built by the analytic engine in
:mod:`secant_trees.recurrence` may leave interior cells of the lower triangle
unknown -- those are first-class ``None`` cells, never silently zero.

The joint counter counts every tree through its insertion moves: a tree of
size ``2n`` arises exactly once by inserting the labels ``1 .. 2n`` in
increasing order, and the counter carries, from one label to the next, how
many partial trees share each state that the later moves and the two
statistics read.  The rightmost-label counter steps through the same move
table, :func:`_moves`, but keeps a state of two fields, since it reads only
the label of the rightmost node.
Each counter is one pass over the labels up to a bound, which reads every
smaller size off its states on the way.  No recurrence or Entringer value
is used, and no word or tree object is built, so size 14 (199,360,981
trees) takes milliseconds in a modest memory budget.  :mod:`logging` is
imported only by a count large enough to log a line, so importing this
module does not load it.
"""

from __future__ import annotations

import time
from typing import Iterable, Iterator, Sequence

from .trees import OddSizeError, _check_size  # noqa: F401 (re-export)


class BrokenInvariantError(RuntimeError):
    """A computed or counted distribution contradicts a structural fact about
    the trees: a negative count, a cell filled twice with two values, brute
    force disagreeing with the recurrence, or an impossible rightmost label."""


_METHODS = ("brute", "recurrence")
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

    ``method`` records how the values were obtained: ``"brute"`` (every tree
    counted through its insertion moves, no recurrence or Entringer value
    used) or ``"recurrence"`` (analytic engine, interior lower-triangle
    cells unknown).  A cell index is an ``int``: every accessor refuses any
    other index, a bool included, with the ``ValueError`` of a cell outside
    the index box.
    """

    __slots__ = ("two_n", "method", "_cells", "_row_sums", "_col_sums", "_total")

    def __init__(self, two_n: int, method: str):
        _check_size(two_n, 2, "two_n", even=True)
        if method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
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

    # -- cell access ----------------------------------------------------------

    def _outside(self, m: object, k: object) -> ValueError:
        return ValueError(f"cell ({m},{k}) is outside the index box of M_{self.two_n}")

    def cell(self, m: int, k: int) -> int | None:
        """Raw cell: 0 outside the index box, None when unknown."""
        if type(m) is not int or type(k) is not int:
            raise self._outside(m, k)
        if 2 <= m <= self.two_n and 1 <= k < self.two_n:
            return self._cells[m - 2][k - 1]
        return 0

    def get(self, m: int, k: int) -> int:
        v = self.cell(m, k)
        if v is None:
            raise ValueError(f"cell ({m},{k}) of M_{self.two_n} is unknown")
        return v

    def set(self, m: int, k: int, value: int) -> None:
        if not (type(m) is int and type(k) is int and 2 <= m <= self.two_n and 1 <= k < self.two_n):
            raise self._outside(m, k)
        if not _is_count(value):
            raise ValueError(f"cell ({m},{k}) of M_{self.two_n} takes a count, got {value!r}")
        self._cells[m - 2][k - 1] = value

    def known_cells(self) -> Iterable[tuple[int, int, int]]:
        for m, row in enumerate(self._cells, 2):
            for k, v in enumerate(row, 1):
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
        """Record analytically-known marginals on a partial matrix.

        No margin may be smaller than a known cell of its line, nor *total*
        than a margin: the text output reads its widths off the margins.
        This is not checked, since the recurrence attaches them at every
        size.
        """
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
        """Header row of k values, one row per m, empty cell when unknown."""
        return "".join(self._csv_lines())

    def _csv_lines(self) -> Iterator[str]:
        """The lines of :meth:`to_csv`, each ending in a newline."""
        yield f"m\\k,{','.join(map(str, range(1, self.two_n)))}\n"
        for m, row in enumerate(self._cells, 2):
            yield f"{m},{','.join(['' if v is None else str(v) for v in row])}\n"

    # -- equality -------------------------------------------------------------------

    def same_counts(self, other: "JointMatrix") -> bool:
        return self.two_n == other.two_n and self._cells == other._cells

    def __repr__(self) -> str:
        tag = "" if self.is_complete() else f", {len(self.unknown_cells())} unknown"
        return f"JointMatrix(two_n={self.two_n}, method={self.method!r}{tag})"


# -- brute-force counting --------------------------------------------------------

# Where the rightmost node R stands in a counting state: open (a left child
# only), a leaf, or the leaf that is eoc.
_R_OPEN, _R_LEAF, _R_EOC = range(3)
# The status of the marked node K, the candidate pom: unmarked, eoc, R (open,
# a leaf or eoc as R is), a generic leaf, or an open node other than R.
_UNMARKED, _K_EOC, _K_R, _K_LEAF, _K_OPEN = range(5)
# Smallest size that logs a line when a pass reads it off: a pass takes
# 0.003 s to 2n = 14, 0.04 s to 24 and 0.37-0.39 s to 40 (2 cores, Python
# 3.11.7).
_LOG_MIN_TWO_N = 40


def _moves(
    o: int, r: int, ks: int, placed: int
) -> list[tuple[int, tuple[int, int, int], bool, int | None]]:
    """The ways to place the next label ``L = placed + 1`` in the partial
    trees of the state ``(o, r, ks)``, as ``(weight, state after, eoc moves
    to L, K's status if L is marked)``.

    The trees hold ``placed`` nodes: ``o`` open nodes (one child) other than
    ``R``, the rightmost node, which ``r`` says is open (a left child only),
    a leaf or the leaf eoc, and ``(placed + 1 - o - (r == _R_OPEN)) / 2``
    leaves, eoc among them.  A generic leaf is none of eoc, a leaf ``R`` or
    a leaf K; a generic open node is not K.  ``L`` fills a generic open node;
    gives an open ``R`` its right child, becoming ``R``; opens a generic
    leaf, eoc, or a leaf K on either side, twins that agree in every later
    move and statistic, so weight 2; or opens the leaf ``R`` on its left
    (``R`` is then open, and K stays ``R`` if it was) or on its right (``L``
    becomes ``R``, and a K that was ``R`` is now open).  ``L`` becomes eoc
    when it hangs under eoc, since a filled slot never changes the minimal
    chain.  Filling K, or giving ``R`` its right child when K is ``R``,
    leaves K unable to receive the last label, so those moves are not made.
    """
    leaves = (placed + 1 - o - (r == _R_OPEN)) // 2
    generic_leaves = leaves - 1 - (r == _R_LEAF) - (ks == _K_LEAF)
    generic_opens = o - (ks == _K_OPEN)
    moves = []
    if generic_opens:  # fill a generic open node
        moves.append((generic_opens, (o - 1, r, ks), False, _K_LEAF))
    if r == _R_OPEN and ks != _K_R:  # the right child of R, the new R
        moves.append((1, (o, _R_LEAF, ks), False, _K_R))
    if generic_leaves:  # open a generic leaf
        moves.append((2 * generic_leaves, (o + 1, r, ks), False, _K_LEAF))
    if r != _R_EOC:  # open eoc, the new eoc
        moves.append((2, (o + 1, r, _K_OPEN if ks == _K_EOC else ks), True, _K_EOC))
    if ks == _K_LEAF:  # open K
        moves.append((2, (o + 1, r, _K_OPEN), False, None))
    if r != _R_OPEN:  # open R on its left, R stays; or on its right, the new R
        under_eoc = r == _R_EOC
        moves.append((1, (o, _R_OPEN, ks), under_eoc, _K_EOC if under_eoc else _K_LEAF))
        moves.append((1, (o + 1, r, _K_OPEN if ks == _K_R else ks), under_eoc, _K_R))
    return moves


def joint_matrices(bound: int) -> Iterator[JointMatrix]:
    """The joint matrix of every even size 2 .. *bound*, in increasing order,
    each yielded as it completes, from one pass over the labels; see
    :func:`joint_matrix_bruteforce`.

    A state is dropped once it has more open nodes than labels left before
    *bound*, and a cell key is ``m * (bound + 1) + k``.  Size ``2n`` is read
    off the states after label ``2n - 1``.  That is exact: each label fills
    at most one open node, so a state that the drop against ``2n`` would
    remove still has two or more open nodes other than ``R`` after label
    ``2n - 1``, and the read-off never reads such a state.  Each size from
    ``_LOG_MIN_TWO_N`` up logs its size, trees and seconds since the pass
    began at INFO on the logger ``secant_trees.distributions``, and
    :mod:`logging` is imported only there.  A *bound* that is not an even
    int >= 2 raises :class:`OddSizeError` at the first step.
    """
    _check_size(bound, 2, "bound", even=True)
    t0 = time.perf_counter()
    base = bound + 1

    def read_off(two_n: int) -> JointMatrix:
        rows = [[0] * (two_n - 1) for _ in range(two_n - 1)]
        for (o, r, ks), cells in states.items():
            if (ks, o, r == _R_OPEN) in ((_K_OPEN, 1, True), (_K_R, 0, False)):
                for c, v in cells.items():
                    m, k = divmod(c, base)
                    rows[(two_n if r == _R_EOC else m) - 2][k - 1] += v
        M = JointMatrix._adopt(two_n, "brute", rows)
        if two_n >= _LOG_MIN_TWO_N:
            import logging  # only where a line is written: no smaller size pays for it

            logging.getLogger(__name__).info(
                "M_%d: %d trees in %.2f s", two_n, M.total(), time.perf_counter() - t0
            )
        return M

    # Label 1, the root: a leaf that is R and eoc, unmarked or marked as K.
    states = {(0, _R_EOC, _UNMARKED): {base: 1}, (0, _R_EOC, _K_R): {base + 1: 1}}
    yield read_off(2)
    for L in range(2, bound):
        eoc_at_L = L * base
        after: dict[tuple[int, int, int], dict[int, int]] = {}
        for key, cells in states.items():
            for w, to, eoc_moves, role in _moves(*key, L - 1):
                if to[0] > bound - L:
                    continue
                row = after.setdefault(to, {})
                for c, v in cells.items():
                    if eoc_moves:
                        c = eoc_at_L + c % base
                    row[c] = row.get(c, 0) + w * v
                if key[2] == _UNMARKED:  # the same move with L marked as K
                    row = after.setdefault((*to[:2], role), {})
                    for c, v in cells.items():
                        c = (eoc_at_L if eoc_moves else c) + L
                        row[c] = row.get(c, 0) + w * v
        states = after
        if L % 2:
            yield read_off(L + 1)


def joint_matrix_bruteforce(two_n: int, processes: int = 1) -> JointMatrix:
    """Count every tree of size *two_n* into a fully-known joint matrix.

    Every increasing tree arises exactly once by inserting its labels in
    increasing order, because removing the largest label always leaves a
    leaf.  So the count runs over the partial trees after each label, but
    groups them into states: the number ``o`` of open nodes other than the
    rightmost node ``R``, whether ``R`` is open, a leaf or the leaf eoc, and
    the status of a marked node K, the candidate pom: unmarked, eoc, ``R``,
    a generic leaf or an open node other than ``R`` (see :func:`_moves`).
    Each state maps the labels ``m`` of eoc and ``k`` of K (``k = 0`` while
    unmarked) to a count.  Each move from :func:`_moves` adds its weight
    times every count of its state to the state it leads to, with ``m = L``
    when ``L`` becomes eoc.  An unmarked state also passes to the marked
    state of each move, with ``k = L``.  A state with more open nodes than
    labels left is dropped: it cannot complete.

    The ``2n - 1`` nodes placed before the last label ``2n`` have ``2n - 2``
    edges, so their one-child nodes are even in number, and the drop leaves
    at most one of them other than ``R``.  Either ``R`` and one other node
    are open, and ``2n`` fills that node, which is pom; or none is, and
    ``2n`` opens the leaf ``R`` on its left, so ``R`` is pom and ``2n`` is
    eoc if ``R`` was.  So the first kind gives cell ``(m, k)`` when K is that
    open node, and the second gives ``(2n if R is eoc else m, k)`` when K is
    ``R``.  No recurrence or Entringer value feeds the count.  The matrix is
    the last of the one pass of :func:`joint_matrices`, which reads every
    smaller even size off the same states on the way, and from size
    ``_LOG_MIN_TWO_N`` up logs each at INFO.

    *processes* is accepted and unused; dropping it waits for a change of
    the benchmark, which passes it.
    """
    _check_size(two_n, 2, "two_n", even=True)
    for M in joint_matrices(two_n):
        pass
    return M


# -- the rightmost-node statistic -------------------------------------------------


def _ent_pass(n_max: int) -> Iterator[tuple[int, ...]]:
    """:func:`ent_distribution` of every size 2 .. *n_max*, in increasing
    order, from one pass over the labels.

    A state is dropped once it has more open nodes than labels left before
    *n_max*.  Row ``n`` is read off the states after label ``n``, from the
    one with no open node but ``R``, which is open when ``n`` is even.  That
    is exact: each label fills at most one open node, so a state that the
    drop against ``n`` would remove still has an open node other than ``R``
    after label ``n``.
    """
    states = {(0, False): [0, 1] + [0] * (n_max - 1)}  # label 1, the root: a leaf, and R
    for L in range(2, n_max + 1):
        after: dict[tuple[int, bool], list[int]] = {}
        for (o, r_open), counts in states.items():
            # This counter reads neither eoc nor K, so _R_EOC stands for any
            # leaf R: from a leaf R, _moves opens the other leaves with total
            # weight 2 * (leaves - 1) whether or not R is eoc, and gives every
            # other move the same weight and the same (o, R open) target.
            r = _R_OPEN if r_open else _R_EOC
            for w, (to_o, to_r, _), _, role in _moves(o, r, _UNMARKED, L - 1):
                if to_o > n_max - L:
                    continue
                row = after.setdefault((to_o, to_r == _R_OPEN), [0] * (n_max + 1))
                if role == _K_R:  # L becomes R
                    row[L] += w * sum(counts)
                else:
                    for j, v in enumerate(counts):
                        row[j] += w * v
        states = after
        yield tuple(states[0, L % 2 == 0][1 : L + 1])


def ent_distribution(n: int) -> tuple[int, ...]:
    """Entry j-1 counts trees of size n whose rightmost node is labelled j.

    Defined for every size n >= 2, odd sizes included.  Like
    :func:`joint_matrix_bruteforce`, the count steps through the
    label-insertion moves of :func:`_moves`, but a state needs only two
    fields: the number ``o`` of open nodes other than the rightmost node
    ``R``, and whether ``R`` is open.  Each state holds a count for each
    label of ``R``; a move that makes ``L`` the new ``R`` moves every count
    to label ``L``.  A state with more open nodes than labels left is
    dropped, and the answer is the state with no open node but ``R``, which
    is open when n is even.  No word or tree is built, and no Entringer
    number or partial-sum rule feeds the count.  The result is the last of
    the one pass of :func:`_ent_pass`, which reads every smaller size off
    the same states on the way; :func:`entringer_bruteforce` takes all of
    them, and its rows to 40 take about 5 ms (2 cores, Python 3.11.7).
    """
    _check_size(n, 2, "n")
    for raw in _ent_pass(n):
        pass
    return raw


class EntringerTriangle:
    """Rows of rightmost-label counts, row n holding entries j = 1 .. n-1.

    The rows are keyed by exactly the ints 2 .. n_max for some n_max >= 2;
    any other keys raise ``ValueError``.
    """

    def __init__(self, rows: dict[int, tuple[int, ...]]):
        rows = self.rows = dict(rows)
        if {*map(type, rows)} != {int} or rows.keys() != {*range(2, len(rows) + 2)}:
            raise ValueError(f"rows must be keyed by 2 .. n_max for some n_max >= 2, got {[*rows]}")

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
    """Triangle rows measured from the raw rightmost-label distribution of
    every size 2 .. *n_max*, all read off one pass of :func:`_ent_pass`.

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
    for raw in _ent_pass(n_max):
        n = len(raw)
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
