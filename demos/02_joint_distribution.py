"""
The joint (eoc, pom) distribution by brute force
================================================

Cell (m, k) of the joint matrix counts the size-2n trees whose minimal chain
ends at the leaf m and whose maximum leaf hangs below node k.  The matrices
are computed by streaming the full enumeration; the total is the secant
number, and the row sums equal the column sums shifted by one (eoc and
1 + pom are equidistributed).
"""

from secant_trees import joint_matrix_bruteforce
from secant_trees.cli import render_matrix_text

for two_n in (2, 4, 6, 8):
    M = joint_matrix_bruteforce(two_n)
    print(f"M_{two_n}:")
    print(render_matrix_text(M))

M8 = joint_matrix_bruteforce(8)
rows, cols, total = M8.row_sums(), M8.col_sums(), M8.total()
print("size 8 row sums:   ", rows)
print("size 8 column sums:", cols)
print("total:", total)
assert rows == cols == (61, 183, 285, 327, 285, 183, 61)
assert total == 1385

# Out-of-box reads are 0 by convention; every in-box cell is a known count.
assert M8.get(1, 1) == 0 and M8.get(8, 8) == 0
assert M8.get(5, 4) == 106
