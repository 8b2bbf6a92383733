"""Exact truncated power series in up to three variables.

Series are sparse dicts mapping exponent tuples to EGF coefficients: the
Taylor coefficient times the factorial of every exponent, an ``int`` when it
is integral and a :class:`fractions.Fraction` otherwise.  They are truncated
by *total* degree: a single ``order`` bound suffices because every
coefficient of interest here lives at a known total degree.  Only the
constructor, ``taylor_coefficient`` and ``dump_lines`` speak Taylor
coefficients; the coefficient lists of ``compose_linear`` and
``to_univariate_list`` are EGF lists.  In EGF form a product is a binomial
convolution and a derivative is an index shift.

On top of the generic ring (add, multiply, invert, differentiate, compose a
univariate series with an integer linear form) this module builds the
generating functions of the upper triangles of the joint matrices:

* ``sec_series``  -- 1/cos y; EGF coefficients are the secant numbers.
* ``omega1``      -- cos(x-y)/cos^2(x+y); EGF coefficient (i, j) is the
  first-top-row count f_{i+j+4}(2, j+3) when i+j is even, 0 otherwise.
* ``omega_p``     -- the matrix of upper-triangle row p, rebuilt from row
  p-1 of ``omega1`` as cos(2x) R(x+y) + sin(2x) R'(x+y).
* ``omega``       -- the three-variable master series
  (cos 2y + 2 cos 2(x-z) - cos 2(z+x)) / (2 cos^3(x+y+z)); its EGF
  coefficient at (2n-k-1, k-m-1, m-2) equals f_{2n}(m, k) for every upper
  cell 2 <= m < k <= 2n-1.

A grid g satisfying g[i,j+2] - 2 g[i+1,j+1] + g[i+2,j] + 4 g[i,j] = 0
everywhere is called a Poupard grid; the slicing above turns the column
second-difference law of the joint matrices into exactly that identity, and
``pde_residual`` checks its generating-function form
G_xx - 2 G_xy + G_yy + 4G = 0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial, prod
from operator import add, sub
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .trees import _check_size


class OutOfOrderError(ValueError):
    """A coefficient beyond the truncation order, or at a negative
    exponent, was requested."""


def _exponents(num_vars: int, degree: int) -> Iterator[tuple[int, ...]]:
    """All exponent tuples of the given total degree, lexicographically."""
    if num_vars == 1:
        yield (degree,)
        return
    for e0 in range(degree + 1):
        for rest in _exponents(num_vars - 1, degree - e0):
            yield (e0, *rest)


def _exact(c: int | Fraction) -> int | Fraction:
    """*c* as an ``int`` when it is integral, else unchanged."""
    return c.numerator if c.denominator == 1 else c


class TriSeries:
    """A truncated power series; absent exponents mean coefficient 0.

    ``coeffs`` maps exponent tuples to nonzero EGF coefficients.  Instances
    are treated as immutable: every operation returns a new series.
    Arithmetic results carry ``order = min`` of the operand orders.
    """

    __slots__ = ("num_vars", "order", "coeffs")

    def __init__(
        self,
        num_vars: int,
        order: int,
        coeffs: Mapping[tuple[int, ...], Fraction | int] | None = None,
    ):
        """A series from its *Taylor* coefficients."""
        if not 1 <= num_vars <= 3:
            raise ValueError(f"num_vars must be 1..3, got {num_vars}")
        _check_size(order, 0, "order")
        self.num_vars = num_vars
        self.order = order
        self.coeffs: dict[tuple[int, ...], int | Fraction] = {}
        for e, c in (coeffs or {}).items():
            if len(e) != num_vars or any(type(x) is not int or x < 0 for x in e):
                raise ValueError(f"bad exponent tuple {e!r}")
            if sum(e) > order:
                raise ValueError(f"exponent {e!r} exceeds order {order}")
            c = _exact(Fraction(c) * prod(map(factorial, e)))
            if c:
                self.coeffs[tuple(e)] = c

    @classmethod
    def _from_egf(
        cls, num_vars: int, order: int, items: Iterable[tuple[tuple[int, ...], int | Fraction]]
    ) -> "TriSeries":
        """A series from (exponent, EGF coefficient) pairs computed in this
        module, read after the arity and order are validated; zeros are
        dropped and integral values become ints."""
        series = cls(num_vars, order)
        series.coeffs = {e: c if type(c) is int else _exact(c) for e, c in items if c}
        return series

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value, num_vars: int, order: int) -> "TriSeries":
        return cls(num_vars, order, {(0,) * num_vars: value})

    # -- ring operations -----------------------------------------------------

    def _check_compatible(self, other: "TriSeries") -> None:
        if self.num_vars != other.num_vars:
            raise ValueError(
                f"cannot combine series in {self.num_vars} and {other.num_vars} variables"
            )

    def __add__(self, other: "TriSeries") -> "TriSeries":
        if not isinstance(other, TriSeries):
            return NotImplemented
        self._check_compatible(other)
        order = min(self.order, other.order)
        out = {e: c for e, c in self.coeffs.items() if sum(e) <= order}
        for e, c in other.coeffs.items():
            if sum(e) <= order:
                out[e] = out.get(e, 0) + c
        return TriSeries._from_egf(self.num_vars, order, out.items())

    def __neg__(self) -> "TriSeries":
        return TriSeries._from_egf(
            self.num_vars, self.order, ((e, -c) for e, c in self.coeffs.items())
        )

    def __sub__(self, other: "TriSeries") -> "TriSeries":
        if not isinstance(other, TriSeries):
            return NotImplemented
        return self + (-other)

    def scale(self, factor) -> "TriSeries":
        f = _exact(Fraction(factor))
        return TriSeries._from_egf(
            self.num_vars, self.order, ((e, c * f) for e, c in self.coeffs.items())
        )

    def __mul__(self, other):
        """Binomial convolution: the EGF coefficient at e sums
        C(e, f) a_f b_(e-f) over f <= e."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, TriSeries):
            return NotImplemented
        self._check_compatible(other)
        order = min(self.order, other.order)
        right = sorted((sum(e), e, c) for e, c in other.coeffs.items())
        out: dict[tuple[int, ...], int | Fraction] = {}
        for ea, ca in self.coeffs.items():
            room = order - sum(ea)
            for db, eb, cb in right:
                if db > room:
                    break
                e = tuple(map(add, ea, eb))
                out[e] = out.get(e, 0) + prod(map(comb, e, ea)) * ca * cb
        return TriSeries._from_egf(self.num_vars, order, out.items())

    __rmul__ = __mul__

    def invert(self) -> "TriSeries":
        """Multiplicative inverse up to the truncation order.

        Coefficients are solved degree by degree from the binomial
        convolution identity (self * inverse) = 1, so a constant term of
        +-1 keeps integer coefficients integral.
        """
        zero = (0,) * self.num_vars
        c0 = self.coeffs.get(zero, 0)
        if not c0:
            raise ZeroDivisionError("series with zero constant term has no inverse")
        r = _exact(Fraction(1, c0))
        inv: dict[tuple[int, ...], int | Fraction] = {zero: r}
        items = sorted((sum(f), f, c) for f, c in self.coeffs.items() if f != zero)
        for degree in range(1, self.order + 1):
            for e in _exponents(self.num_vars, degree):
                acc = 0
                for df, f, c in items:
                    if df > degree:
                        break
                    g = tuple(map(sub, e, f))
                    if min(g) < 0:
                        continue
                    t = inv.get(g)
                    if t is not None:
                        acc += prod(map(comb, e, f)) * c * t
                if acc:
                    inv[e] = -acc * r
        return TriSeries._from_egf(self.num_vars, self.order, inv.items())

    def partial_derivative(self, var: int) -> "TriSeries":
        """Formal derivative with respect to variable index *var*, an index
        shift in EGF form; the truncation order drops by one."""
        if not 0 <= var < self.num_vars:
            raise ValueError(f"variable index {var} out of range")
        if self.order == 0:
            raise OutOfOrderError("cannot differentiate an order-0 truncation")
        out = {}
        for e, c in self.coeffs.items():
            if e[var]:
                d = list(e)
                d[var] -= 1
                out[tuple(d)] = c
        return TriSeries._from_egf(self.num_vars, self.order - 1, out.items())

    def truncate(self, order: int) -> "TriSeries":
        if order >= self.order:
            if order == self.order:
                return self
            raise OutOfOrderError(f"cannot extend order {self.order} to {order}")
        return TriSeries._from_egf(
            self.num_vars, order, ((e, c) for e, c in self.coeffs.items() if sum(e) <= order)
        )

    # -- coefficient access -----------------------------------------------------

    def egf_coefficient(self, exponents: Sequence[int]) -> int | Fraction:
        """Taylor coefficient times the factorial of every exponent."""
        e = tuple(exponents)
        if len(e) != self.num_vars:
            raise ValueError(f"expected {self.num_vars} exponents, got {e!r}")
        if any(type(x) is not int for x in e):
            raise TypeError(f"exponents must be ints, got {e!r}")
        if min(e) < 0:
            raise OutOfOrderError(f"negative exponent in {e!r}")
        if sum(e) > self.order:
            raise OutOfOrderError(f"exponent {e!r} beyond truncation order {self.order}")
        return self.coeffs.get(e, 0)

    def taylor_coefficient(self, exponents: Sequence[int]) -> Fraction:
        e = tuple(exponents)
        return Fraction(self.egf_coefficient(e), prod(map(factorial, e)))

    def max_abs_coefficient(self) -> int | Fraction:
        """Largest absolute EGF coefficient; 0 for the zero series."""
        return max((abs(c) for c in self.coeffs.values()), default=0)

    # -- comparison and dumping ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TriSeries):
            return NotImplemented
        return (
            self.num_vars == other.num_vars
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.num_vars, self.order, frozenset(self.coeffs.items())))

    def agrees_with(self, other: "TriSeries") -> bool:
        """Coefficient-wise equality up to the smaller truncation order."""
        self._check_compatible(other)
        order = min(self.order, other.order)
        return self.truncate(order) == other.truncate(order)

    def dump_lines(self) -> list[str]:
        """Lines "e1 [e2 [e3]] num/den" of Taylor coefficients, sorted by
        total degree then lex."""
        out = []
        for e in sorted(self.coeffs, key=lambda e: (sum(e), e)):
            c = self.taylor_coefficient(e)
            out.append(" ".join(map(str, e)) + f" {c.numerator}/{c.denominator}")
        return out

    def __repr__(self) -> str:
        return (
            f"TriSeries(num_vars={self.num_vars}, order={self.order}, "
            f"terms={len(self.coeffs)})"
        )

    def to_univariate_list(self) -> list[int | Fraction]:
        """EGF coefficients 0..order of a one-variable series."""
        if self.num_vars != 1:
            raise ValueError("only 1-variable series convert to a list")
        return [self.coeffs.get((d,), 0) for d in range(self.order + 1)]


# -- trigonometric building blocks ------------------------------------------------


def compose_linear(
    univariate: Sequence[int | Fraction], linear: Sequence[int], order: int
) -> TriSeries:
    """Substitute the linear form sum(linear[v] * var_v) into a univariate
    series given by its list of EGF coefficients.

    In closed form, the EGF coefficient at exponent e is
    univariate[sum(e)] times the product of linear[v] ** e[v].  Every entry
    of *linear*, and every coefficient up to *order*, must be an ``int`` (not
    a ``bool``) or a ``Fraction``.
    """
    _check_size(order, 0, "order")
    for x in (*linear, *univariate[: order + 1]):
        if type(x) not in (int, Fraction):
            raise ValueError(f"not an exact number (an int or a Fraction): {x!r}")
    # A zero coefficient (every other degree of cos, sin and sec^k) adds no
    # term.
    terms = (
        (e, c * prod(map(pow, linear, e)))
        for d, c in enumerate(univariate[: order + 1])
        if c
        for e in _exponents(len(linear), d)
    )
    return TriSeries._from_egf(len(linear), order, terms)


def cos_linear(linear: Sequence[int], order: int) -> TriSeries:
    """Series of cos(a x + b y + c z) for the integer form *linear*."""
    _check_size(order, 0, "order")
    return compose_linear([(1, 0, -1, 0)[d % 4] for d in range(order + 1)], linear, order)


def sin_linear(linear: Sequence[int], order: int) -> TriSeries:
    """Series of sin(a x + b y + c z) for the integer form *linear*."""
    _check_size(order, 0, "order")
    return compose_linear([(0, 1, 0, -1)[d % 4] for d in range(order + 1)], linear, order)


def row_series(series2: TriSeries, i: int) -> TriSeries:
    """Row *i* of a two-variable series as a univariate series in the second
    variable: its EGF coefficient j is the EGF coefficient (i, j)."""
    if series2.num_vars != 2:
        raise ValueError("row extraction needs a 2-variable series")
    _check_size(i, 0, "i")
    if i > series2.order:
        raise OutOfOrderError(f"row {i} beyond truncation order {series2.order}")
    return TriSeries._from_egf(
        1, series2.order - i, (((e[1],), c) for e, c in series2.coeffs.items() if e[0] == i)
    )


def _sec_power_on_diagonal(k: int, num_vars: int, order: int) -> TriSeries:
    """1 / cos^k of the sum of all variables: inverted as a one-variable
    series, then composed onto the diagonal form."""
    c = cos_linear((1,), order)
    cos_k = c
    for _ in range(k - 1):
        cos_k = cos_k * c
    return compose_linear(cos_k.invert().to_univariate_list(), (1,) * num_vars, order)


def _rows_to_series(a: TriSeries, b: TriSeries, order: int) -> TriSeries:
    """A(x + y) cos 2x + B(x + y) sin 2x for univariate A and B."""
    a_shifted = compose_linear(a.to_univariate_list(), (1, 1), order)
    b_shifted = compose_linear(b.to_univariate_list(), (1, 1), order)
    return cos_linear((2, 0), order) * a_shifted + sin_linear((2, 0), order) * b_shifted


# -- the generating functions -------------------------------------------------------


def sec_series(order: int) -> TriSeries:
    """1 / cos of a single variable; EGF coefficient 2n is the secant number."""
    return cos_linear((1,), order).invert()


def omega1(order: int) -> TriSeries:
    """cos(x - y) / cos^2(x + y) in two variables.

    EGF coefficient (i, j) is the size-(i+j+4) first-top-row count
    f(2, j+3) when i + j is even and 0 otherwise.
    """
    return cos_linear((1, -1), order) * _sec_power_on_diagonal(2, 2, order)


def omega(order: int) -> TriSeries:
    """(cos 2y + 2 cos 2(x-z) - cos 2(z+x)) / (2 cos^3(x+y+z)).

    The master three-variable series: its EGF coefficient at
    (2n-k-1, k-m-1, m-2) is the joint count f_{2n}(m, k) for every upper
    cell.  The series is symmetric under swapping the first and third
    exponents, which is the counter-diagonal symmetry of the matrices.
    """
    num = (
        cos_linear((0, 2, 0), order)
        + cos_linear((2, 0, -2), order).scale(2)
        - cos_linear((2, 0, 2), order)
    )
    # Every coefficient is a count, so the final halving is exact.
    return (num * _sec_power_on_diagonal(3, 3, order)).scale(Fraction(1, 2))


def omega_p(p: int, order: int) -> TriSeries:
    """The two-variable series of upper-triangle row p, for p >= 1.

    Built from row p-1 of :func:`omega1` (call it R) as
    cos(2x) R(x+y) + sin(2x) R'(x+y); ``omega_p(1, order)`` equals
    ``omega1(order)``.
    """
    _check_size(p, 1, "p")
    _check_size(order, 0, "order")
    r = row_series(omega1(order + p), p - 1)  # exact through degree order + 1
    return _rows_to_series(r, r.partial_derivative(0), order)


# -- index bookkeeping between matrices and exponents --------------------------------


def cell_to_exponents(two_n: int, m: int, k: int) -> tuple[int, int, int]:
    """(x, y, z) exponents of the upper cell (m, k) of size two_n."""
    _check_size(two_n, 4, "two_n", even=True)
    if type(m) is not int or type(k) is not int or not 2 <= m < k <= two_n - 1:
        raise ValueError(f"({m},{k}) is not an upper cell of M_{two_n}")
    return (two_n - k - 1, k - m - 1, m - 2)


# -- Poupard grids ---------------------------------------------------------------------


def omega_grid_from_counts(
    p: int, max_sum: int, counts: Callable[[int], "object"]
) -> dict[tuple[int, int], int]:
    """The grid of upper-triangle row p sliced out of joint matrices.

    ``counts(two_n)`` must return a matrix with the ``get(m, k)`` accessor;
    it is called once per size.  The grid maps (i, j) to 0 when i + j and p
    share parity, else to the count f_{p+i+j+3}(p+1, p+j+2).  Covers
    i + j <= max_sum.
    """
    _check_size(p, 1, "p")
    _check_size(max_sum, 0, "max_sum")
    counts = cache(counts)
    entries: dict[tuple[int, int], int] = {}
    for i in range(max_sum + 1):
        for j in range(max_sum + 1 - i):
            if (i + j) % 2 == p % 2:
                entries[(i, j)] = 0
            else:
                entries[(i, j)] = counts(p + i + j + 3).get(p + 1, p + j + 2)
    return entries


def _stencils(
    grid: Mapping[tuple[int, int], int | Fraction]
) -> Iterator[tuple[tuple[int, int], int | Fraction]]:
    """((i, j), g[i,j+2] - 2 g[i+1,j+1] + g[i+2,j] + 4 g[i,j]) at every
    stencil position of *grid*, in sorted order.

    *grid* maps (i, j), i, j >= 0, to a value; its support may be triangular
    (everything with i + j bounded), and the stencil only fires where all
    four of its cells are present.
    """
    for (i, j) in sorted(grid):
        if (i, j + 2) in grid and (i + 1, j + 1) in grid and (i + 2, j) in grid:
            yield (i, j), grid[i, j + 2] - 2 * grid[i + 1, j + 1] + grid[i + 2, j] + 4 * grid[i, j]


def poupard_check(
    grid: Mapping[tuple[int, int], int | Fraction]
) -> list[tuple[tuple[int, int], int | Fraction]]:
    """Nonzero residuals of g[i,j+2] - 2 g[i+1,j+1] + g[i+2,j] + 4 g[i,j]:
    one ((i, j), residual) pair per violated position of :func:`_stencils`,
    in its order.  An empty list certifies the Poupard property on the
    given support.
    """
    return [(pos, r) for pos, r in _stencils(grid) if r]


# -- PDE and reconstruction ---------------------------------------------------------


def pde_residual(G: TriSeries) -> TriSeries:
    """G_xx - 2 G_xy + G_yy + 4 G, truncated to order - 2.

    The zero series certifies that G generates a Poupard grid.
    """
    if G.num_vars != 2:
        raise ValueError("the PDE check needs a 2-variable series")
    if G.order < 2:
        raise OutOfOrderError("need order >= 2 to form second derivatives")
    gxx = G.partial_derivative(0).partial_derivative(0)
    gxy = G.partial_derivative(0).partial_derivative(1)
    gyy = G.partial_derivative(1).partial_derivative(1)
    return gxx - gxy.scale(2) + gyy + G.scale(4)


def pde_check(G: TriSeries) -> int | Fraction:
    """Largest absolute residual EGF coefficient; 0 on success."""
    return pde_residual(G).max_abs_coefficient()


def reconstruct_from_rows(G: TriSeries) -> TriSeries:
    """Rebuild G from its first two rows as A(x+y) cos 2x + B(x+y) sin 2x.

    A is row 0 of G and B = (row 1 - A') / 2.  For any series solving the
    PDE the rebuilt series matches G through order - 1 (one order is lost to
    the derivative); a mismatch raises :class:`ValueError`.
    """
    if G.num_vars != 2:
        raise ValueError("reconstruction needs a 2-variable series")
    if G.order < 1:
        raise OutOfOrderError("need order >= 1 to read the second row")
    a = row_series(G, 0)
    u = row_series(G, 1)
    b = (u - a.partial_derivative(0)).scale(Fraction(1, 2))
    rebuilt = _rows_to_series(a, b, G.order - 1)
    if not rebuilt.agrees_with(G):
        raise ValueError(
            "row reconstruction disagrees with the series; it does not solve the PDE"
        )
    return rebuilt
