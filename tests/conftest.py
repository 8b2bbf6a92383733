"""Shared fixtures.

Brute-force joint matrices are memoized once per session and shared by
every test module, which read the same sizes many times over (size 14
counts 199,360,981 trees in about 0.006 s); treat the returned matrices as
read-only.
"""

import pytest

from secant_trees.distributions import joint_matrix_bruteforce

_MATRICES = {}


@pytest.fixture(scope="session")
def brute():
    """brute(two_n) -> session-cached fully-known JointMatrix."""

    def get(two_n: int):
        if two_n not in _MATRICES:
            _MATRICES[two_n] = joint_matrix_bruteforce(two_n)
        return _MATRICES[two_n]

    return get
