"""Exact combinatorics of complete increasing (secant/tangent) trees.

The package enumerates the trees, computes the joint distribution of the
chain-end and max-leaf-parent statistics by brute force, reproduces it
analytically through second-difference recurrences, extracts the same
numbers from exact trigonometric generating functions, and cross-verifies
all three routes together with the constructive bijections behind them.
"""

from . import bijections, distributions, recurrence, series, trees
from .bijections import *  # noqa: F403
from .distributions import *  # noqa: F403
from .recurrence import *  # noqa: F403
from .series import *  # noqa: F403
from .trees import *  # noqa: F403

__all__ = [
    *bijections.__all__,
    *distributions.__all__,
    *recurrence.__all__,
    *series.__all__,
    *trees.__all__,
]
