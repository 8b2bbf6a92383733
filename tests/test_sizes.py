"""The size rule at every entry point that takes a size, an order or a
triangle row: an ``int`` (not a ``bool``) at least a lower bound, and even
where 2n is meant.  An even-size argument that breaks it raises
``OddSizeError``, any other a plain ``ValueError``, and the message names the
argument and the value."""

import re
from types import SimpleNamespace

import pytest

from secant_trees import (
    MAP_VERIFIERS,
    JointMatrix,
    OddSizeError,
    RecurrenceEngine,
    TriSeries,
    alternating_permutations,
    assemble,
    cell_to_exponents,
    compose_linear,
    cos_linear,
    ent_distribution,
    entringer_bruteforce,
    entringer_map,
    entringer_triangle,
    enumerate_trees,
    first_row_map,
    joint_matrix_bruteforce,
    omega,
    omega1,
    omega_grid_from_counts,
    omega_p,
    pom1_map,
    rightmost_column_map,
    row_series,
    sec_series,
    secant_numbers,
    sin_linear,
    tree_count,
    tripling_map,
    verify_maps,
)
from secant_trees.cli import run_checks
from secant_trees.distributions import joint_matrices

# (id, call, lower bound, argument name, even); the call takes the value.
ENTRY_POINTS = [
    ("alternating_permutations", alternating_permutations, 1, "n", False),
    ("enumerate_trees", enumerate_trees, 1, "n", False),
    ("JointMatrix", lambda v: JointMatrix(v, "brute"), 2, "two_n", True),
    ("JointMatrix.from_json", lambda v: JointMatrix.from_json_dict({"two_n": v}), 2, "two_n", True),
    ("joint_matrix_bruteforce", joint_matrix_bruteforce, 2, "two_n", True),
    ("joint_matrices", lambda v: next(joint_matrices(v)), 2, "bound", True),
    ("ent_distribution", ent_distribution, 2, "n", False),
    ("entringer_bruteforce", entringer_bruteforce, 2, "n_max", False),
    ("EntringerTriangle.row", lambda v: entringer_triangle(8).row(v), 2, "n", False),
    ("EntringerTriangle.row_total", lambda v: entringer_triangle(8).row_total(v), 2, "n", False),
    ("entringer_triangle", entringer_triangle, 2, "n_max", False),
    ("tree_count", tree_count, 0, "n", False),
    ("secant_numbers", secant_numbers, 0, "two_n_max", True),
    ("engine.column_sums", lambda v: RecurrenceEngine().column_sums(v), 2, "two_n", True),
    ("engine.assemble", lambda v: RecurrenceEngine().assemble(v), 2, "two_n", True),
    ("assemble", assemble, 2, "two_n", True),
    *(
        (f.__name__, lambda v, f=f: f(SimpleNamespace(n=v)), 4, "the size of t", True)
        for f in (first_row_map, rightmost_column_map, tripling_map, pom1_map, entringer_map)
    ),
    *(
        # verify_maps for the one map *name*
        (f"verify_map-{name}", lambda v, n=name: verify_maps((n,), v, object()), 4, "two_n", True)
        for name in MAP_VERIFIERS
    ),
    *(
        (f"MAP_VERIFIERS-{name}", lambda v, name=name: MAP_VERIFIERS[name](v), 4, "two_n", True)
        for name in MAP_VERIFIERS
    ),
    ("run_checks", run_checks, 4, "two_n_max", True),
    ("TriSeries", lambda v: TriSeries(1, v), 0, "order", False),
    ("compose_linear", lambda v: compose_linear([1], (1,), v), 0, "order", False),
    ("cos_linear", lambda v: cos_linear((1,), v), 0, "order", False),
    ("sin_linear", lambda v: sin_linear((1,), v), 0, "order", False),
    ("sec_series", sec_series, 0, "order", False),
    ("omega1", omega1, 0, "order", False),
    ("omega", omega, 0, "order", False),
    ("row_series", lambda v: row_series(omega1(4), v), 0, "i", False),
    ("omega_p-p", lambda v: omega_p(v, 4), 1, "p", False),
    ("omega_p-order", lambda v: omega_p(1, v), 0, "order", False),
    ("omega_grid-p", lambda v: omega_grid_from_counts(v, 2, None), 1, "p", False),
    ("omega_grid-max_sum", lambda v: omega_grid_from_counts(1, v, None), 0, "max_sum", False),
    ("cell_to_exponents", lambda v: cell_to_exponents(v, 2, 3), 4, "two_n", True),
]


def _cases():
    # An even entry also tries an even value below its bound and an odd one above.
    for name, call, least, arg, even in ENTRY_POINTS:
        values = [True, 4.0, "4", least - 1] + ([least - 2, least + 1] if even else [])
        for value in values:
            yield pytest.param(call, least, arg, even, value, id=f"{name}-{value!r}")


@pytest.mark.parametrize("call, least, arg, even, value", _cases())
def test_a_size_that_breaks_the_rule_is_rejected(call, least, arg, even, value):
    kind = "an even int" if even else "an int"
    message = f"{arg} must be {kind} >= {least}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as exc:
        call(value)
    assert exc.type is (OddSizeError if even else ValueError)

