"""Analytic computation of the joint matrices, no enumeration involved.

The even-size joint matrix M_{2n} satisfies two second-difference laws that
couple it to M_{2n-2}:

* row rule:    f(m+2, k) - 2 f(m+1, k) + f(m, k)  = -4 f_{2n-2}(m, k-2)
* column rule: f(m, k+2) - 2 f(m, k+1) + f(m, k)  = -4 f_{2n-2}(m, k)

together with closed boundary identities: the first top row equals the
previous column sums shifted by two, the second top row is three times the
first, the rightmost column equals the previous column sums, and the next to
rightmost column is three times the rightmost.  Marginals obey the same
second-difference law, seeded by f(., 1) = E_{2n-2} and f(., 2) = 3 E_{2n-2}.

:class:`RecurrenceEngine` is the one way to run the induction on n.  The
boundary identities and the column rule, sweeping each row right to left,
fill the upper triangle (m < k) up to the counter-diagonal m + k = 2n+1:
the cells k >= max(m+1, 2n+1-m).  The two top rows are written as slices of
the previous column sums, once one pass has checked those sums and the four
cells where the top rows cross the two right columns.  Each further row,
like the column sums, comes out of the one second-difference loop
:func:`_second_differences`.  The counter-diagonal symmetry
f(m, k) = f(2n+1-k, 2n+1-m) fills the rest, m < k < 2n+1-m: those cells of
row m are column 2n+1-m of rows the rule has filled, so each value of a
mirror pair is computed once.  Neither the rule nor the symmetry needs a
second fill to be trusted: the test suite checks the column rule on every
upper cell, the copied half included, and the row rule on every upper
cell that a top-down row-order fill from the same boundary would compute.

Of the lower triangle only the border is analytically reachable: the first
column mirrors the first row, the bottom row is a shifted row of the
Entringer triangle, the subdiagonal starts from f(3, 2) = 2 f(3, 1) and
propagates through the crossing identity
f(k+1, k) = f(k, k-1) + f(k, k+1) - f(k-1, k).  Every lower-border cell goes
through one checked write.  Interior lower-triangle cells stay Unknown here:
only the insertion-move counter of :mod:`secant_trees.distributions`
produces them, and this module never calls it.  The ``tables`` check of
:mod:`secant_trees.cli` compares the counter's matrices with this engine.

The Entringer triangle is stepped in one place, the walk
:func:`_entringer_rows`: each row comes from the one before by the
leftmost-partial-sum (boustrophedon) rule, and the walk holds only the
current row.  :func:`entringer_triangle` is the one reader that keeps rows,
because it returns the triangle; :func:`tree_count` and
:func:`secant_numbers` sum the rows they need and drop them, and the engine
keeps the walk over the even rows on its frontier.  ``secant_numbers(1400)``
so peaks at 24 MiB RSS in 0.8 s, and ``secant_numbers(600)`` traces 0.8 MiB
(2-core VM, Python 3.11.7).

Everything is exact integer arithmetic on Python ints.
"""

from __future__ import annotations

from itertools import accumulate, islice
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .distributions import BrokenInvariantError, EntringerTriangle, JointMatrix
from .trees import _check_size


# -- Entringer triangle, secant numbers and column sums -------------------------


def _next_entringer_row(row: tuple[int, ...]) -> tuple[int, ...]:
    """Row n of the Entringer triangle from row n-1 by the leftmost-partial-sum
    rule: entry j = 1 .. n-1 sums the leftmost n - j entries of row n-1 (of
    length n-2, padded with a zero on the right), so row n is the total of
    row n-1 followed by its prefix sums, longest first."""
    prefix = list(accumulate(row))
    return (prefix[-1], *reversed(prefix))


def _entringer_rows() -> Iterator[tuple[int, ...]]:
    """Rows 2, 3, ... of the Entringer triangle, each made from the one before
    by :func:`_next_entringer_row`; the walk holds only the current row."""
    row: tuple[int, ...] = (1,)
    while True:
        yield row
        row = _next_entringer_row(row)


def entringer_triangle(n_max: int) -> EntringerTriangle:
    """Rows 2..n_max by the leftmost-partial-sum rule."""
    _check_size(n_max, 2, "n_max")
    return EntringerTriangle(dict(zip(range(2, n_max + 1), _entringer_rows())))


def _entringer_row(n: int) -> tuple[int, ...]:
    """Row n >= 2 of the Entringer triangle, read off the walk."""
    return next(islice(_entringer_rows(), n - 2, None))


def tree_count(n: int) -> int:
    """Number of complete increasing trees of size n (secant number for even
    n, tangent number for odd n): the sum of row n of the triangle."""
    _check_size(n, 0, "n")
    return sum(_entringer_row(n)) if n > 1 else 1


def secant_numbers(two_n_max: int) -> tuple[int, ...]:
    """E_0, E_2, ..., E_{two_n_max}: Taylor coefficients of sec u times (2n)!,
    the sums of the even rows of the triangle."""
    _check_size(two_n_max, 0, "two_n_max", even=True)
    return (1, *map(sum, islice(_entringer_rows(), 0, max(two_n_max - 1, 0), 2)))


def _second_differences(seed: int, values: Iterable[int]) -> list[int]:
    """The run seed, 3 seed, f_2, f_3, ... of the second-difference law
    f_{i+2} = 2 f_{i+1} - f_i - 4 q_i over the terms q_0, q_1, ... of
    *values*, for a *seed* >= 0; the run ends at its first negative term.

    The law runs as running differences: step = f_{i+1} - f_i drops by 4 q_i
    from one term to the next, so each term costs three integer operations
    and its own sign check."""
    near, step = 3 * seed, seed << 1
    run = [seed, near]
    for q in values:
        step -= q << 2
        near += step
        run.append(near)
        if near < 0:
            break
    return run


def _next_column_sums(sums: tuple[int, ...]) -> tuple[int, ...]:
    """Column sums of M_{2n} from the column sums *sums* of M_{2n-2}: seeded by
    f(., 1) = E_{2n-2} and f(., 2) = 3 E_{2n-2}, then the second-difference
    law f(., k+2) = 2 f(., k+1) - f(., k) - 4 f_{2n-2}(., k)."""
    cs = _second_differences(sum(sums), sums)
    if cs[-1] < 0:
        raise BrokenInvariantError(f"column sum at k={len(cs)} of M_{len(sums) + 3} is negative")
    return tuple(cs)


# -- the row cores --------------------------------------------------------------
#
# Both cores work on plain rows: rows[m - 2][k - 1] is cell (m, k), None while
# unknown, the layout of JointMatrix._cells.  Every written cell must be a
# count, and a cell written twice must agree with itself.


def _put(rows: list[list[int | None]], two_n: int, m: int, k: int, value: int) -> None:
    if value < 0:
        raise BrokenInvariantError(f"cell ({m},{k}) of M_{two_n} came out {value}")
    row = rows[m - 2]
    old = row[k - 1]
    if old is not None and old != value:
        raise BrokenInvariantError(
            f"cell ({m},{k}) of M_{two_n} filled twice with {old} != {value}"
        )
    row[k - 1] = value


def _upper_rows(
    two_n: int, prev: list[list[int | None]], prev_cs: Sequence[int]
) -> list[list[int | None]]:
    """Rows of M_{2n} with the upper triangle filled from the rows *prev* of
    M_{2n-2} and its column sums; every other cell is None.  The two top
    rows are written as slices of the column sums.  Each further row m is
    built by the column rule right to left from its two right-column cells
    down to the counter-diagonal, k = max(m+1, 2n+1-m), reading f_{2n-2}(m, k)
    only for those k; every cell it computes is checked for sign.  The cells
    m < k < 2n+1-m of the rows m <= n are then copied by the symmetry from
    the cells (2n+1-k, 2n+1-m), which the rule has filled."""
    top = two_n - 1  # also the length of a row
    cs = prev_cs  # top - 2 sums, for k = 1 .. 2n-3

    # Every border cell is a column sum or three times one, so one pass finds
    # the first negative, at the first-top-row cell f(2, k) = cs[k-3].
    if min(cs) < 0:
        k = next(k for k, c in enumerate(cs, 3) if c < 0)
        raise BrokenInvariantError(f"cell (2,{k}) of M_{two_n} came out {cs[k - 3]}")
    # The top rows f(2, k) = cs[k-3] and f(3, k) = 3 cs[k-3] cross the
    # rightmost column f(m, 2n-1) = cs[m-2] and the next to rightmost
    # f(m, 2n-2) = 3 cs[m-2] in four cells, which must agree both ways.
    if two_n >= 6:
        for m, k, old, new in (
            (2, top, cs[-1], cs[0]),
            (3, top, 3 * cs[-1], cs[1]),
            (2, top - 1, cs[-2], 3 * cs[0]),
            (3, top - 1, 3 * cs[-2], 3 * cs[1]),
        ):
            if old != new:
                raise BrokenInvariantError(
                    f"cell ({m},{k}) of M_{two_n} filled twice with {old} != {new}"
                )

    rows: list[list[int | None]] = [
        [None, None, *cs],
        [None, None, None, *[3 * c for c in cs[1:]]],
    ]
    # Column rule f(m, k) = 2 f(m, k+1) - f(m, k+2) - 4 f_{2n-2}(m, k), each
    # row right to left from its two border cells f(m, 2n-1) and f(m, 2n-2)
    # down to the counter-diagonal, k_lo = max(m+1, 2n+1-m).
    for i in range(2, top - 3):
        k_lo = max(i + 3, top - i)
        run = _second_differences(cs[i], reversed(prev[i][k_lo - 1 : top - 2]))
        if run[-1] < 0:
            k = top + 1 - len(run)
            raise BrokenInvariantError(f"cell ({i + 2},{k}) of M_{two_n} came out {run[-1]}")
        rows.append([*[None] * (k_lo - 1), *reversed(run)])
    if two_n >= 6:
        rows.append([*[None] * (top - 1), cs[-1]])  # row 2n-2: f(2n-2, 2n-1)
    rows += ([None] * top for _ in range(top - len(rows)))
    # Symmetry f(m, k) = f(2n+1-k, 2n+1-m) for the rest, m < k < 2n+1-m:
    # column 2n+1-m of the rows 2n-m down to m+1, which the rule has filled.
    for m in range(4, two_n // 2 + 1):
        rows[m - 2][m : two_n - m] = map(itemgetter(two_n - m), rows[two_n - m - 2 : m - 2 : -1])
    return rows


def _lower_rows(two_n: int, rows: list[list[int | None]], ent_row: Sequence[int]) -> None:
    """Add the lower-triangle border and the zero diagonal to *rows*, whose
    upper triangle is filled; a cell already present must agree."""
    top = two_n - 1
    first = rows[0]
    # First column mirrors the first row: f(k, 1) = f(2, k).
    for m in range(3, top + 1):
        _put(rows, two_n, m, 1, first[m - 1])
    # Structural zeros: eoc = 2 forces 2 adjacent to the root leaving no room
    # for pom = 1; the chain cannot end at 2n when 2n hangs off the root or
    # off the one-child node 2n-1.
    _put(rows, two_n, 2, 1, 0)
    _put(rows, two_n, two_n, 1, 0)
    _put(rows, two_n, two_n, top, 0)
    # Bottom row from the Entringer row of size 2n-2.
    for k in range(2, two_n - 1):
        _put(rows, two_n, two_n, k, ent_row[k - 2])
    # Subdiagonal: seed f(3, 2) = 2 f(3, 1), then the crossing identity
    # f(k+1, k) = f(k, k-1) + f(k, k+1) - f(k-1, k).
    _put(rows, two_n, 3, 2, 2 * rows[1][0])
    for k in range(3, two_n - 1):
        row = rows[k - 2]
        _put(rows, two_n, k + 1, k, row[k - 2] + row[k] - rows[k - 3][k - 1])
    # Diagonal cells are structurally zero: the chain-end leaf has no
    # children, so it is never the parent of 2n.
    for m in range(2, two_n):
        _put(rows, two_n, m, m, 0)


# -- symmetry -------------------------------------------------------------------


def _mirror_pairs(M: JointMatrix) -> Iterator[tuple[tuple[int, int], tuple[int, int], int, int]]:
    """Every cell of the region that :func:`check_symmetry` checks, with its
    mirror, as ((m, k), (mirror m, mirror k), value, mirror value).

    The region is every box cell with m - 1 <= k plus the two extra cells
    (3, 1) and (2n, 2n-2); the mirror (2n+1-k, 2n+1-m) always lands inside
    the box.
    """
    two_n = M.two_n
    for m in range(2, two_n + 1):
        for k in range(1, two_n):
            if m - 1 <= k or (m, k) in ((3, 1), (two_n, two_n - 2)):
                mm, mk = two_n + 1 - k, two_n + 1 - m
                yield (m, k), (mm, mk), M.get(m, k), M.get(mm, mk)


def check_symmetry(M: JointMatrix) -> list[tuple[tuple[int, int], tuple[int, int], int, int]]:
    """Violations of f(2n+1-k, 2n+1-m) = f(m, k): the pairs of
    :func:`_mirror_pairs` whose two values differ, in its order."""
    return [pair for pair in _mirror_pairs(M) if pair[2] != pair[3]]


# -- the assembled induction -------------------------------------------------------


class RecurrenceEngine:
    """Carries the induction frontier: the last two matrices it assembled,
    whose attached margins are their column sums, and the walk over the even
    rows of the Entringer triangle, whose next row is the larger matrix's
    size -- all that the laws tie M_{2n} to.  A request for one of the two
    matrices returns the same object; a larger size continues the induction
    from them, and a smaller size, or any request after a step that raised,
    restarts it from size 2.  Returned matrices are shared with the engine
    while they sit on the frontier; treat them as immutable.
    """

    def __init__(self) -> None:
        self._frontier: dict[int, JointMatrix] = {}
        self._ent_rows: Iterator[tuple[int, ...]] = iter(())

    def column_sums(self, two_n: int) -> tuple[int, ...]:
        """Column sums f_{2n}(., k) for k = 1 .. 2n-1, by induction from size 2
        with no matrix.  The row sums are the same tuple, because
        f(m, .) = f(., m-1).
        """
        _check_size(two_n, 2, "two_n", even=True)
        sums: tuple[int, ...] = (1,)
        for _ in range(4, two_n + 1, 2):
            sums = _next_column_sums(sums)
        return sums

    def assemble(self, two_n: int) -> JointMatrix:
        """Run the induction up to *two_n*; see the module docstring.  The
        result is method="recurrence", with the interior lower-triangle cells
        Unknown and the column sums attached as both margins."""
        _check_size(two_n, 2, "two_n", even=True)
        frontier = self._frontier
        if two_n in frontier:
            return frontier[two_n]
        if not frontier or two_n < max(frontier):
            M = JointMatrix._adopt(2, "recurrence", [[1]])
            M.attach_margins((1,), (1,), 1)
            frontier = self._frontier = {2: M}
            self._ent_rows = islice(_entringer_rows(), 0, None, 2)
        for s in range(max(frontier) + 2, two_n + 1, 2):
            prev = frontier[s - 2]
            # Drop M_{s-4} before M_s is built, so that the engine never
            # holds more than two matrices.  The frontier stays empty until
            # M_s is built, because a step that raises may have taken its
            # Entringer row off the walk.
            frontier = self._frontier = {}
            rows = _upper_rows(s, prev._cells, prev.col_sums())
            _lower_rows(s, rows, next(self._ent_rows))
            cs = _next_column_sums(prev.col_sums())
            M = JointMatrix._adopt(s, "recurrence", rows)
            M.attach_margins(cs, cs, sum(cs))
            frontier = self._frontier = {s - 2: prev, s: M}
        return frontier[two_n]


def assemble(two_n: int) -> JointMatrix:
    """One-shot induction from size 2 up to *two_n* with a fresh engine."""
    return RecurrenceEngine().assemble(two_n)
