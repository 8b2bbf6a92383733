"""
Exact generating functions for the upper triangles
==================================================

All series arithmetic is exact: truncated multivariate series stored as
EGF coefficients (Taylor coefficient times the factorials of the exponents),
which stay Python ints for every counting series.  Three functions matter
here:

* sec y = 1/cos y packs the secant numbers;
* cos(x-y)/cos^2(x+y) packs the first top rows of every matrix;
* (cos 2y + 2 cos 2(x-z) - cos 2(z+x)) / (2 cos^3(x+y+z)) packs every
  upper-triangle cell: the EGF coefficient of
  x^(2n-k-1) y^(k-m-1) z^(m-2) is the count at (m, k).
"""

from secant_trees import (
    cell_to_exponents,
    joint_matrix_bruteforce,
    omega,
    omega1,
    pde_check,
    sec_series,
)

s = sec_series(10)
print("sec EGF coefficients:", [s.egf_coefficient((d,)) for d in range(0, 11, 2)])

w1 = omega1(6)
print("\nfirst-row series, EGF table (i down, j across):")
for i in range(5):
    print("  ", [w1.egf_coefficient((i, j)) for j in range(5 - i)])

# The master series reproduces the brute-force counts exactly.
w3 = omega(6)
M8 = joint_matrix_bruteforce(8)
print("\nsize-8 upper cells from the master series:")
for m, k in ((2, 3), (3, 5), (4, 5), (5, 6), (6, 7)):
    e = cell_to_exponents(8, m, k)
    coeff = w3.egf_coefficient(e)
    print(f"  ({m},{k}) -> exponents {e} -> {coeff}")
    assert coeff == M8.get(m, k)

# The two-variable slices all solve G_xx - 2 G_xy + G_yy + 4 G = 0.
assert pde_check(omega1(8)) == 0
print("\nPDE residual of the first-row series: 0")
