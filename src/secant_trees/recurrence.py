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
fill the whole upper triangle (m < k).  The row rule needs no second fill:
on the same boundary a top-down row-order fill would equal the column fill
exactly when the column-filled matrix satisfies the row rule, and the test
suite checks that law on it.  Of the lower triangle only the border is
analytically reachable: the first column mirrors the first row, the bottom
row is a shifted row of the Entringer triangle, the subdiagonal starts from
f(3, 2) = 2 f(3, 1) and propagates through the crossing identity
f(k+1, k) = f(k, k-1) + f(k, k+1) - f(k-1, k).  Interior lower-triangle
cells stay Unknown here -- only the brute-force oracle can produce them.

Everything is exact integer arithmetic on Python ints.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

from . import distributions
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


def entringer_triangle(n_max: int) -> EntringerTriangle:
    """Build rows 2..n_max by the leftmost-partial-sum rule."""
    _check_size(n_max, 2, "n_max")
    rows = {2: (1,)}
    for n in range(3, n_max + 1):
        rows[n] = _next_entringer_row(rows[n - 1])
    return EntringerTriangle(rows)


def tree_count(n: int) -> int:
    """Number of complete increasing trees of size n (secant number for even
    n, tangent number for odd n), computed from the triangle row sum."""
    _check_size(n, 0, "n")
    if n <= 1:
        return 1
    return entringer_triangle(n).row_total(n)


def secant_numbers(two_n_max: int) -> tuple[int, ...]:
    """E_0, E_2, ..., E_{two_n_max}: Taylor coefficients of sec u times (2n)!."""
    _check_size(two_n_max, 0, "two_n_max", even=True)
    out = [1]
    if two_n_max >= 2:
        tri = entringer_triangle(two_n_max)
        for n in range(2, two_n_max + 1, 2):
            out.append(tri.row_total(n))
    return tuple(out)


def _next_column_sums(sums: tuple[int, ...]) -> tuple[int, ...]:
    """Column sums of M_{2n} from the column sums *sums* of M_{2n-2}: seeded by
    f(., 1) = E_{2n-2} and f(., 2) = 3 E_{2n-2}, then the second-difference
    law f(., k+2) = 2 f(., k+1) - f(., k) - 4 f_{2n-2}(., k)."""
    two_n, total = len(sums) + 3, sum(sums)
    cs = [total, 3 * total]
    for p in sums:
        v = 2 * cs[-1] - cs[-2] - 4 * p
        if v < 0:
            raise BrokenInvariantError(f"column sum at k={len(cs) + 1} of M_{two_n} is negative")
        cs.append(v)
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
    M_{2n-2} and its column sums; every other cell is None."""
    top = two_n - 1  # also the length of a row
    rows: list[list[int | None]] = [[None] * top for _ in range(top)]

    # First top row: f(2, k) = previous column sum at k-2.
    for k in range(3, top + 1):
        _put(rows, two_n, 2, k, prev_cs[k - 3])
    # Second top row: three times the first.
    for k in range(4, top + 1):
        _put(rows, two_n, 3, k, 3 * prev_cs[k - 3])
    # Rightmost column: f(m, 2n-1) = previous column sum at m-1; the next to
    # rightmost column is three times it.  Both cross the top rows.
    for m in range(2, two_n - 1):
        _put(rows, two_n, m, top, prev_cs[m - 2])
    for m in range(2, two_n - 2):
        _put(rows, two_n, m, top - 1, 3 * prev_cs[m - 2])

    # Column rule: f(m, k) = 2 f(m, k+1) - f(m, k+2) - 4 f_{2n-2}(m, k),
    # each row right to left.
    for i in range(2, top - 3):
        row, p = rows[i], prev[i]
        near, far = row[top - 2], row[top - 1]
        for j in range(top - 3, i + 1, -1):
            v = 2 * near - far - 4 * p[j]
            if v < 0:
                raise BrokenInvariantError(f"cell ({i + 2},{j + 1}) of M_{two_n} came out {v}")
            row[j] = v
            near, far = v, near
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


def check_symmetry(M: JointMatrix) -> list[tuple[tuple[int, int], tuple[int, int], int, int]]:
    """Violations of f(2n+1-k, 2n+1-m) = f(m, k) over the checked region.

    The region is every box cell with m - 1 <= k plus the two extra cells
    (3, 1) and (2n, 2n-2); the mirror always lands inside the box.  Each
    violation is ((m, k), (mirror m, mirror k), value, mirror value).
    """
    two_n = M.two_n
    bad = []
    for m in range(2, two_n + 1):
        for k in range(1, two_n):
            if not (m - 1 <= k or (m, k) in ((3, 1), (two_n, two_n - 2))):
                continue
            mm, mk = two_n + 1 - k, two_n + 1 - m
            a = M.get(m, k)
            b = M.get(mm, mk)
            if a != b:
                bad.append(((m, k), (mm, mk), a, b))
    return bad


# -- the assembled induction -------------------------------------------------------


class RecurrenceEngine:
    """Carries the induction frontier: the last two matrices it assembled,
    whose attached margins are their column sums, and the Entringer row of
    the larger one's size -- all that the laws tie M_{2n} to.  A request for
    one of the two matrices returns the same object; a larger size continues
    the induction from them, and a smaller size restarts it from size 2.
    Returned matrices are shared with the engine while they sit on the
    frontier; treat them as immutable.
    """

    def __init__(self) -> None:
        self._frontier: dict[int, JointMatrix] = {}
        self._ent_row: tuple[int, ...] = ()

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

    def assemble(self, two_n: int, fill_interior: bool = False) -> JointMatrix:
        """Run the induction up to *two_n*; see the module docstring.

        Without *fill_interior* the result is method="recurrence" and the
        interior lower-triangle cells are Unknown.  With it, the result holds
        the rows of the brute-force oracle, tagged "hybrid".  The oracle must
        first agree with every recurrence-known cell and both margins, or
        :class:`BrokenInvariantError` names the first disagreement.
        """
        _check_size(two_n, 2, "two_n", even=True)
        base = self._assemble_no_fill(two_n)
        if not fill_interior:
            return base
        brute = distributions.joint_matrix_bruteforce(two_n)
        for m, k, v in base.known_cells():
            c = brute.get(m, k)
            if v != c:
                raise BrokenInvariantError(
                    f"cell ({m},{k}) of M_{two_n}: recurrence {v} != brute force {c}"
                )
        if (base.row_sums(), base.col_sums()) != (brute.row_sums(), brute.col_sums()):
            raise BrokenInvariantError(f"the margins of M_{two_n} disagree with brute force")
        filled = JointMatrix._adopt(two_n, "hybrid", brute._cells)
        filled.attach_margins(base.row_sums(), base.col_sums(), base.total())
        return filled

    def _assemble_no_fill(self, two_n: int) -> JointMatrix:
        frontier = self._frontier
        if two_n in frontier:
            return frontier[two_n]
        if not frontier or two_n < max(frontier):
            M = JointMatrix._adopt(2, "recurrence", [[1]])
            M.attach_margins((1,), (1,), 1)
            frontier = self._frontier = {2: M}
            self._ent_row = (1,)
        for s in range(max(frontier) + 2, two_n + 1, 2):
            prev = frontier[s - 2]
            # Drop M_{s-4} before M_s is built, so that the engine never
            # holds more than two matrices.
            frontier = self._frontier = {s - 2: prev}
            rows = _upper_rows(s, prev._cells, prev.col_sums())
            _lower_rows(s, rows, self._ent_row)
            cs = _next_column_sums(prev.col_sums())
            M = JointMatrix._adopt(s, "recurrence", rows)
            M.attach_margins(cs, cs, sum(cs))
            self._ent_row = _next_entringer_row(_next_entringer_row(self._ent_row))
            frontier[s] = M
        return frontier[two_n]


def assemble(two_n: int, fill_interior: bool = False) -> JointMatrix:
    """One-shot induction from size 2 up to *two_n* with a fresh engine."""
    return RecurrenceEngine().assemble(two_n, fill_interior=fill_interior)
