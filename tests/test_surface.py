"""The public surface: what ``import secant_trees`` offers, name by name.

``__all__`` lists the names the submodules export through the package; the
submodules themselves stay reachable as attributes but are not in it.
Adding or removing a name is a deliberate edit of this list.
"""

import secant_trees

PUBLIC_NAMES = [
    "BrokenInvariantError",
    "EntringerTriangle",
    "IncTree",
    "JointMatrix",
    "MAP_VERIFIERS",
    "MapReport",
    "OddSizeError",
    "OutOfOrderError",
    "RecurrenceEngine",
    "StatRecord",
    "TreeError",
    "TriSeries",
    "alternating_permutations",
    "assemble",
    "cell_to_exponents",
    "check_symmetry",
    "compose_linear",
    "cos_linear",
    "ent_distribution",
    "entringer_bruteforce",
    "entringer_map",
    "entringer_triangle",
    "enumerate_trees",
    "first_row_map",
    "is_alternating",
    "joint_matrix_bruteforce",
    "omega",
    "omega1",
    "omega_grid_from_counts",
    "omega_p",
    "pde_check",
    "pde_residual",
    "pom1_map",
    "poupard_check",
    "reconstruct_from_rows",
    "rightmost_column_map",
    "row_series",
    "sec_series",
    "secant_numbers",
    "sin_linear",
    "tree_count",
    "tree_from_perm",
    "tripling_map",
    "verify_maps",
    "word_stats",
]


def test_public_surface_is_pinned():
    assert sorted(secant_trees.__all__) == PUBLIC_NAMES


def test_submodules_stay_attributes():
    for name in ("bijections", "distributions", "recurrence", "series", "trees"):
        assert getattr(secant_trees, name).__name__ == f"secant_trees.{name}"


def test_error_classes_keep_their_bases():
    # Code that catches ValueError or RuntimeError keeps catching them.
    for cls in (secant_trees.TreeError, secant_trees.OddSizeError, secant_trees.OutOfOrderError):
        assert issubclass(cls, ValueError)
    assert issubclass(secant_trees.BrokenInvariantError, RuntimeError)
