"""Exact series ring, trig constructors, and the generating-function routes."""

import hashlib
import re
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secant_trees.series import (
    OutOfOrderError,
    TriSeries,
    cell_to_exponents,
    compose_linear,
    cos_linear,
    omega,
    omega1,
    omega_grid_from_counts,
    omega_p,
    pde_check,
    pde_residual,
    poupard_check,
    reconstruct_from_rows,
    row_series,
    sec_series,
    sin_linear,
)
from secant_trees.recurrence import secant_numbers

# ---------------------------------------------------------------------- #
# ring laws (random small instances, exact equality)                      #
# ---------------------------------------------------------------------- #

coefficients = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def series_strategy(num_vars=2, order=4):
    exps = st.tuples(*([st.integers(0, order)] * num_vars)).filter(
        lambda e: sum(e) <= order
    )
    return st.dictionaries(exps, coefficients, max_size=6).map(
        lambda d: TriSeries(num_vars, order, d)
    )


@given(series_strategy(), series_strategy(), series_strategy())
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == TriSeries(2, 4)


@given(series_strategy())
@settings(max_examples=40, deadline=None)
def test_invert_is_two_sided(s):
    unit = s + TriSeries.constant(7, 2, 4)  # push the constant away from 0
    inv = unit.invert()
    one = TriSeries.constant(1, 2, 4)
    assert unit * inv == one
    assert inv * unit == one
    assert unit.invert().invert() == unit


def all_exponents(num_vars, order):
    return [e for e in product(range(order + 1), repeat=num_vars) if sum(e) <= order]


def taylor_product(a, b):
    """Plain Taylor convolution of two series over ``taylor_coefficient``."""
    order = min(a.order, b.order)
    out = {e: Fraction(0) for e in all_exponents(a.num_vars, order)}
    for ea in out:
        for eb in out:
            e = tuple(x + y for x, y in zip(ea, eb))
            if e in out:
                out[e] += a.taylor_coefficient(ea) * b.taylor_coefficient(eb)
    return out


ANY_ARITY = st.integers(1, 3).flatmap(
    lambda nv: st.integers(0, 4).flatmap(
        lambda order: st.tuples(series_strategy(nv, order), series_strategy(nv, order))
    )
)


@given(ANY_ARITY)
@settings(max_examples=60, deadline=None)
def test_egf_ring_matches_taylor_reference(pair):
    a, b = pair
    nv, order = a.num_vars, a.order
    exps = all_exponents(nv, order)
    prod_ab = a * b
    assert {e: prod_ab.taylor_coefficient(e) for e in exps} == taylor_product(a, b)
    unit = a + TriSeries.constant(7, nv, order)  # push the constant away from 0
    one = {e: Fraction(int(not any(e))) for e in exps}
    assert taylor_product(unit, unit.invert()) == one
    if order:
        for var in range(nv):
            d = a.partial_derivative(var)
            for e in all_exponents(nv, order - 1):
                up = tuple(x + (v == var) for v, x in enumerate(e))
                assert d.taylor_coefficient(e) == (e[var] + 1) * a.taylor_coefficient(up)


def test_counting_series_have_int_egf_coefficients():
    series = [sec_series(20), omega(6), omega1(8), *(omega_p(p, 6) for p in range(1, 5))]
    for s in series:
        for e in all_exponents(s.num_vars, s.order):
            assert type(s.egf_coefficient(e)) is int, (s, e)


# sha256 of the "\n"-joined dump_lines() of series well past the orders the
# other tests reach.
SERIES_DIGESTS = {
    (omega, 20): "716fce759df6699ab875d92e1c9808ed7bd27a09af8b68107262905c124922ea",
    (omega1, 24): "cb97af65a4dca0cc63310a0ce4f4b7d243d619ef72016a33fd3d30bf25934cad",
    (sec_series, 60): "34170770ebf0f1c087ed325788c2c723c7e094d260e898bb895e9681d504ae57",
}


@pytest.mark.parametrize(
    "build, order", SERIES_DIGESTS, ids=[f"{f.__name__}({o})" for f, o in SERIES_DIGESTS]
)
def test_large_series_are_pinned(build, order):
    text = "\n".join(build(order).dump_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == SERIES_DIGESTS[build, order]


def test_sec_series_equals_the_entringer_walk_at_300():
    # Two routes that share no code: the ring inverts cos, and the walk sums
    # the even rows of the Entringer triangle.  CI runs the same at 1400.
    want = [0] * 301
    want[::2] = secant_numbers(300)
    assert sec_series(300).to_univariate_list() == want


# ---------------------------------------------------------------------- #
# basic operations                                                        #
# ---------------------------------------------------------------------- #


def test_polynomial_product():
    one_plus = TriSeries(1, 2, {(0,): 1, (1,): 1})
    one_minus = TriSeries(1, 2, {(0,): 1, (1,): -1})
    assert one_plus * one_minus == TriSeries(1, 2, {(0,): 1, (2,): -1})


def test_product_truncates_to_min_order():
    x1 = TriSeries(1, 1, {(1,): 1})
    assert (x1 * x1).coeffs == {}
    assert (x1 * x1).order == 1


def test_pythagorean_identity():
    c = cos_linear((1, 0, 0), 8)
    s = sin_linear((1, 0, 0), 8)
    assert c * c + s * s == TriSeries.constant(1, 3, 8)


def test_trig_constructor_values():
    assert cos_linear((0, 0, 0), 4) == TriSeries.constant(1, 3, 4)
    c2 = cos_linear((2,), 4)
    assert c2.taylor_coefficient((2,)) == -2
    assert c2.taylor_coefficient((4,)) == Fraction(2, 3)
    assert sin_linear((1, 1, 1), 4).taylor_coefficient((1, 1, 1)) == -1


def test_invert_geometric_series():
    g = TriSeries(1, 3, {(0,): 1, (1,): -1}).invert()
    assert g == TriSeries(1, 3, {(0,): 1, (1,): 1, (2,): 1, (3,): 1})


def test_invert_requires_unit_constant():
    with pytest.raises(ZeroDivisionError, match="series with zero constant term has no inverse"):
        TriSeries(2, 3, {(1, 0): 1}).invert()


def test_derivative_and_degree_bookkeeping():
    c = cos_linear((1, 1), 6)
    d = c.partial_derivative(1)
    assert d.order == 5
    assert d.agrees_with(-sin_linear((1, 1), 6))
    assert TriSeries.constant(3, 2, 4).partial_derivative(0).coeffs == {}


def test_var_mismatch_rejected():
    with pytest.raises(ValueError, match="cannot combine series in 1 and 2 variables"):
        cos_linear((1,), 4) + cos_linear((1, 1), 4)


def test_egf_extraction_and_order_errors():
    s = sec_series(6)
    assert s.egf_coefficient((6,)) == 61
    assert s.taylor_coefficient((0,)) == 1
    with pytest.raises(OutOfOrderError):
        s.egf_coefficient((7,))


def test_negative_or_non_int_exponent_is_rejected():
    s = sec_series(4)
    for lookup in (s.egf_coefficient, s.taylor_coefficient):
        with pytest.raises(OutOfOrderError):
            lookup((-1,))
    with pytest.raises(OutOfOrderError):
        omega(4).egf_coefficient((2, -1, 1))
    with pytest.raises(TypeError):
        s.egf_coefficient((2.5,))


def test_truncate_hash_repr_and_int_scaling():
    s = sec_series(6)
    assert s.truncate(4) == sec_series(4)
    assert s.truncate(6) is s
    assert hash(s.truncate(4)) == hash(sec_series(4))
    assert repr(s) == "TriSeries(num_vars=1, order=6, terms=4)"
    assert (s * 3).coeffs == {(0,): 3, (2,): 3, (4,): 15, (6,): 183}
    assert 3 * s == s * 3 == s.scale(3)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: TriSeries(0, 2), ValueError, "num_vars must be 1..3, got 0"),
        (lambda: TriSeries(4, 2), ValueError, "num_vars must be 1..3, got 4"),
        (lambda: TriSeries(2, 2, {(1,): 1}), ValueError, "bad exponent tuple (1,)"),
        (lambda: TriSeries(2, 2, {(1, -1): 1}), ValueError, "bad exponent tuple (1, -1)"),
        (lambda: TriSeries(1, 2, {(3,): 1}), ValueError, "exponent (3,) exceeds order 2"),
        (lambda: sec_series(4).truncate(6), OutOfOrderError, "cannot extend order 4 to 6"),
        (lambda: omega1(4).partial_derivative(2), ValueError, "variable index 2 out of range"),
        (
            lambda: omega1(4).partial_derivative(-1),
            ValueError,
            "variable index -1 out of range",
        ),
        (
            lambda: TriSeries(1, 0).partial_derivative(0),
            OutOfOrderError,
            "cannot differentiate an order-0 truncation",
        ),
        (
            lambda: sec_series(4).egf_coefficient((1, 2)),
            ValueError,
            "expected 1 exponents, got (1, 2)",
        ),
        (
            lambda: omega1(4).to_univariate_list(),
            ValueError,
            "only 1-variable series convert to a list",
        ),
        (
            lambda: row_series(sec_series(4), 0),
            ValueError,
            "row extraction needs a 2-variable series",
        ),
        (
            lambda: row_series(TriSeries(2, 3), 4),
            OutOfOrderError,
            "row 4 beyond truncation order 3",
        ),
        (
            lambda: pde_residual(sec_series(4)),
            ValueError,
            "the PDE check needs a 2-variable series",
        ),
        (
            lambda: pde_residual(TriSeries(2, 1)),
            OutOfOrderError,
            "need order >= 2 to form second derivatives",
        ),
        (
            lambda: reconstruct_from_rows(sec_series(4)),
            ValueError,
            "reconstruction needs a 2-variable series",
        ),
        (
            lambda: reconstruct_from_rows(TriSeries(2, 0)),
            OutOfOrderError,
            "need order >= 1 to read the second row",
        ),
        (lambda: TriSeries(1, 3, {(1.0,): 1}), ValueError, "bad exponent tuple (1.0,)"),
        (lambda: TriSeries(1, 3, {(True,): 1}), ValueError, "bad exponent tuple (True,)"),
        (
            lambda: cos_linear((0.5,), 3),
            ValueError,
            "not an exact number (an int or a Fraction): 0.5",
        ),
        (
            lambda: cos_linear((True, 1), 3),
            ValueError,
            "not an exact number (an int or a Fraction): True",
        ),
        (
            lambda: sin_linear(("a",), 2),
            ValueError,
            "not an exact number (an int or a Fraction): 'a'",
        ),
        (
            lambda: compose_linear([1, 0.5, 1], (1,), 2),
            ValueError,
            "not an exact number (an int or a Fraction): 0.5",
        ),
    ],
)
def test_series_rejects_a_bad_argument(call, error, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as exc:
        call()
    assert exc.type is error


def test_dump_format():
    s = TriSeries(2, 2, {(0, 0): Fraction(1, 2), (1, 1): -1, (1, 0): 2})
    assert s.dump_lines() == ["0 0 1/2", "1 0 2/1", "1 1 -1/1"]


# ---------------------------------------------------------------------- #
# generating functions vs the oracle                                      #
# ---------------------------------------------------------------------- #


def test_sec_series_coefficients():
    s = sec_series(10)
    assert [s.egf_coefficient((d,)) for d in range(11)] == [
        1, 0, 1, 0, 5, 0, 61, 0, 1385, 0, 50521,
    ]


def test_omega1_spot_values():
    w = omega1(8)
    assert w.egf_coefficient((0, 0)) == 1
    assert w.egf_coefficient((1, 1)) == 3
    assert w.egf_coefficient((1, 0)) == 0
    assert w.egf_coefficient((6, 0)) == 61


def test_omega1_matches_oracle_slices(brute):
    w = omega1(6)
    for i in range(7):
        for j in range(7 - i):
            want = 0 if (i + j) % 2 else brute(i + j + 4).get(2, j + 3)
            assert w.egf_coefficient((i, j)) == want, (i, j)


def test_omega1_derivative_closed_form():
    # d/dy of the first-row series is (sin 2y + 3 sin 2x) / (2 cos^3(x+y))
    lhs = omega1(9).partial_derivative(1)
    c = cos_linear((1, 1), 9)
    rhs = (sin_linear((0, 2), 9) + sin_linear((2, 0), 9).scale(3)) * (
        (c * c * c).scale(2).invert()
    )
    assert lhs.agrees_with(rhs)


def test_omega_master_series_matches_oracle(brute):
    w = omega(4)
    for two_n in (4, 6, 8):
        B = brute(two_n)
        for m in range(2, two_n + 1):
            for k in range(m + 1, two_n):
                e = cell_to_exponents(two_n, m, k)
                assert w.egf_coefficient(e) == B.get(m, k), (two_n, m, k)


def test_omega_exponent_swap_symmetry():
    w = omega(6)
    for e, c in w.coeffs.items():
        assert w.coeffs.get((e[2], e[1], e[0])) == c


def test_index_maps_round_trip():
    assert cell_to_exponents(8, 5, 6) == (1, 0, 3)
    # Back from the exponents: 2n = i + j + q + 4, m = q + 2, k = q + j + 3.
    for two_n in range(4, 14, 2):
        for m in range(2, two_n - 1):
            for k in range(m + 1, two_n):
                i, j, q = cell_to_exponents(two_n, m, k)
                assert min(i, j, q) >= 0
                assert (i + j + q + 4, q + 2, q + j + 3) == (two_n, m, k)
    with pytest.raises(ValueError):
        cell_to_exponents(8, 5, 5)


@pytest.mark.parametrize("m, k", [(2.0, 3.0), (2, 3.0)], ids=("floats", "float k"))
def test_cell_indices_that_are_not_ints_are_not_upper_cells(m, k):
    with pytest.raises(ValueError, match=r"is not an upper cell of M_6$"):
        cell_to_exponents(6, m, k)


def test_omega_spot_coefficients():
    w = omega(6)
    assert w.egf_coefficient((0, 0, 0)) == 1
    assert w.egf_coefficient((1, 0, 3)) == 45
    assert w.egf_coefficient((2, 1, 1)) == 63


# ---------------------------------------------------------------------- #
# the row family                                                          #
# ---------------------------------------------------------------------- #


def test_omega_p_one_is_omega1():
    assert omega_p(1, 8) == omega1(8)


def test_omega_p_matches_oracle_slices(brute):
    for p in (2, 3, 4):
        max_sum = 7 - p  # keeps the sliced sizes at 10 or below
        wp = omega_p(p, max_sum)
        asked = Counter()

        def counts(two_n):
            asked[two_n] += 1
            return brute(two_n)

        grid = omega_grid_from_counts(p, max_sum, counts)
        # each sliced size is counted once
        assert asked == Counter(s for s in range(p + 3, p + max_sum + 4) if s % 2 == 0)
        for (i, j), want in grid.items():
            assert wp.egf_coefficient((i, j)) == want, (p, i, j)


def test_omega_p_spot_value(brute):
    # row 2, entry (0, 1) is the size-6 cell (3, 5)
    assert omega_p(2, 4).egf_coefficient((0, 1)) == 3 == brute(6).get(3, 5)


def test_row_identities():
    # first row of the (p+1)-st series is row p of the first series
    for p in (1, 2, 3):
        assert row_series(omega_p(p + 1, 5), 0).agrees_with(
            row_series(omega1(5 + p), p)
        )
    # second row is three times the derivative of the first
    for p in (1, 2, 3):
        w = omega_p(p, 6)
        assert row_series(w, 1).agrees_with(
            row_series(w, 0).partial_derivative(0).scale(3)
        )


# ---------------------------------------------------------------------- #
# Poupard grids, PDE, reconstruction                                       #
# ---------------------------------------------------------------------- #


def test_poupard_stencil_example():
    grid = {(0, 0): 1, (0, 1): 0, (0, 2): 1, (1, 0): 0,
            (1, 1): 3, (2, 0): 1}
    assert poupard_check(grid) == []  # 1 - 2*3 + 1 + 4*1 = 0
    assert poupard_check({(i, j): 0 for i in range(4) for j in range(4)}) == []
    broken = {(0, 0): 1, (0, 2): 1, (1, 1): 0, (2, 0): 1}
    assert poupard_check(broken) == [((0, 0), 6)]


def test_poupard_grids_from_oracle(brute):
    for p in (1, 2, 3, 4):
        grid = omega_grid_from_counts(p, 7 - p, brute)
        assert poupard_check(grid) == []


def test_pde_on_row_series():
    for p in (1, 2, 3, 4):
        assert pde_check(omega_p(p, 8)) == 0


def test_pde_on_closed_solution_and_counterexample():
    assert pde_check(cos_linear((1, 1), 8) * cos_linear((0, 2), 8)) == 0
    x = TriSeries(2, 6, {(1, 0): 1})
    assert pde_check(x) != 0
    assert pde_residual(x).coeffs


def test_reconstruct_round_trips():
    for p in (1, 2, 3):
        w = omega_p(p, 8)
        assert reconstruct_from_rows(w).agrees_with(w)
    assert reconstruct_from_rows(TriSeries(2, 5)).coeffs == {}


def test_reconstruct_rejects_non_solutions():
    with pytest.raises(ValueError, match="row reconstruction disagrees with the series"):
        reconstruct_from_rows(TriSeries(2, 4, {(0, 2): 1}))


def test_compose_linear_shifts_rows():
    # R(x + y) evaluated back on the x = 0 line returns R
    r = sec_series(5)
    shifted = compose_linear(r.to_univariate_list(), (1, 1), 5)
    assert row_series(shifted, 0) == r
