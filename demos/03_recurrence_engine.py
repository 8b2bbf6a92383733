"""
Rebuilding the matrices analytically, no enumeration
====================================================

Two second-difference laws couple each matrix to the one two sizes smaller,
and closed identities give the two top rows, the two rightmost columns, the
marginals, the first column, the bottom row and the subdiagonal.  That is
enough to fill the whole upper triangle and the border of the lower
triangle; the interior of the lower triangle is analytically out of reach
and stays explicitly Unknown (blank below), never silently zero.
"""

from secant_trees import assemble, joint_matrix_bruteforce
from secant_trees.cli import render_matrix_text

A = assemble(8)
print("size 8, derived without enumerating a single tree:")
print(render_matrix_text(A))
print("unknown interior cells:", A.unknown_cells())

# Every derived cell agrees exactly with the enumeration oracle.
B = joint_matrix_bruteforce(8)
for m, k, v in A.known_cells():
    assert v == B.get(m, k)
print("all", sum(1 for _ in A.known_cells()), "known cells match the oracle")
