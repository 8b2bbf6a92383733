"""Reference values computed without secant_trees, for the exact checks.

Everything here is derived from first principles by algorithms the package
does not use, so a check against these numbers is an independent route:

* Entringer numbers by the Seidel-Entringer-Arnold boustrophedon
  E(n, k) = E(n, k-1) + E(n-1, n-k); E(n, n) is the Euler zigzag number,
  which counts the complete increasing trees of size n (A000111).
* Uniform down-up words drawn letter by letter with Entringer weights.
* Tree statistics of a word read off the min-rooted tree built by recursive
  splitting at the minimum letter.
"""

from __future__ import annotations

import random
from typing import NamedTuple


def entringer_numbers(n_max: int) -> list[list[int]]:
    """E[n][k] for 0 <= k <= n <= n_max."""
    E = [[1]]
    for n in range(1, n_max + 1):
        row = [0]
        for k in range(1, n + 1):
            row.append(row[k - 1] + E[n - 1][n - k])
        E.append(row)
    return E


class Reference:
    """Entringer numbers up to *n_max* and the values derived from them."""

    def __init__(self, n_max: int):
        self.E = entringer_numbers(n_max)

    def trees(self, n: int) -> int:
        """Number of complete increasing trees (down-up words) of size n."""
        return self.E[n][n]

    def triangle_row(self, n: int) -> tuple[int, ...]:
        """Row n of the rightmost-label triangle, entries j = 1 .. n-1.

        The triangle row n reads E(n-1, k) for k = n-1 down to 1.
        """
        return tuple(reversed(self.E[n - 1][1:n]))

    def sample_down_up(self, n: int, rng: random.Random) -> tuple[int, ...]:
        """A uniformly random down-up word w1 > w2 < w3 > ... of 1..n.

        There are E(m-1, t-1) down-up words of size m starting with their
        t-th smallest letter.  After that letter the rest is an up-down word
        whose first letter is smaller; complementing it turns it back into a
        down-up word of size m-1 starting at rank m-t+1 .. m-1.  No draw is
        ever rejected.
        """
        E = self.E
        letters = list(range(1, n + 1))
        word = []
        lo, hi, flipped = 1, n, False
        for m in range(n, 0, -1):
            r = rng.randrange(sum(E[m - 1][t - 1] for t in range(lo, hi + 1)))
            for t in range(lo, hi + 1):
                r -= E[m - 1][t - 1]
                if r < 0:
                    break
            rank = m + 1 - t if flipped else t
            word.append(letters.pop(rank - 1))
            lo, hi, flipped = m - t + 1, m - 1, not flipped
        return tuple(word)


def is_down_up(word: tuple[int, ...]) -> bool:
    n = len(word)
    if sorted(word) != list(range(1, n + 1)):
        return False
    return all((word[i] < word[i - 1]) == (i % 2 == 1) for i in range(1, n))


class Stats(NamedTuple):
    eoc: int
    pom: int
    ent: int


def word_tree_stats(word: tuple[int, ...]) -> Stats:
    """(eoc, pom, ent) of the tree projecting to *word*, for len(word) >= 2.

    The tree is built top-down: the minimum letter is the root and the
    factors left and right of it are the two subtrees.
    """
    left: dict[int, int] = {}
    right: dict[int, int] = {}
    parent: dict[int, int] = {}

    def build(lo: int, hi: int) -> int:
        if lo >= hi:
            return 0
        i = min(range(lo, hi), key=word.__getitem__)
        root = word[i]
        for side, child in ((left, build(lo, i)), (right, build(i + 1, hi))):
            side[root] = child
            if child:
                parent[child] = root
        return root

    build(0, len(word))
    v = 1
    while left[v] or right[v]:
        kids = [c for c in (left[v], right[v]) if c]
        v = min(kids)
    return Stats(eoc=v, pom=parent[len(word)], ent=word[-1])
