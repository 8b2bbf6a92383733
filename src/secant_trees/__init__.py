"""Exact combinatorics of complete increasing (secant/tangent) trees.

The package enumerates the trees, computes the joint distribution of the
chain-end and max-leaf-parent statistics by brute force, reproduces it
analytically through second-difference recurrences, extracts the same
numbers from exact trigonometric generating functions, and cross-verifies
all three routes together with the constructive bijections behind them.
"""

from .bijections import (
    MAP_VERIFIERS,
    MapReport,
    entringer_map,
    first_row_map,
    pom1_map,
    rightmost_column_map,
    tripling_map,
    verify_maps,
)
from .distributions import (
    BrokenInvariantError,
    EntringerTriangle,
    JointMatrix,
    OddSizeError,
    ent_distribution,
    entringer_bruteforce,
    joint_matrix_bruteforce,
)
from .recurrence import (
    RecurrenceEngine,
    assemble,
    check_symmetry,
    entringer_triangle,
    secant_numbers,
    tree_count,
)
from .series import (
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
from .trees import (
    IncTree,
    StatRecord,
    TreeError,
    alternating_permutations,
    enumerate_trees,
    is_alternating,
    tree_from_perm,
    word_stats,
)

__all__ = [
    "MAP_VERIFIERS",
    "MapReport",
    "entringer_map",
    "first_row_map",
    "pom1_map",
    "rightmost_column_map",
    "tripling_map",
    "verify_maps",
    "BrokenInvariantError",
    "EntringerTriangle",
    "JointMatrix",
    "OddSizeError",
    "ent_distribution",
    "entringer_bruteforce",
    "joint_matrix_bruteforce",
    "RecurrenceEngine",
    "assemble",
    "check_symmetry",
    "entringer_triangle",
    "secant_numbers",
    "tree_count",
    "OutOfOrderError",
    "TriSeries",
    "cell_to_exponents",
    "compose_linear",
    "cos_linear",
    "omega",
    "omega1",
    "omega_grid_from_counts",
    "omega_p",
    "pde_check",
    "pde_residual",
    "poupard_check",
    "reconstruct_from_rows",
    "row_series",
    "sec_series",
    "sin_linear",
    "IncTree",
    "StatRecord",
    "TreeError",
    "alternating_permutations",
    "enumerate_trees",
    "is_alternating",
    "tree_from_perm",
    "word_stats",
]
