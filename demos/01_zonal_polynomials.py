# Zonal polynomial toolkit: evaluation, zeros, quadrature, cube integrals.
#
# The polynomials P_{k,n} are the degree-k zonal spherical harmonics on S^n
# in t = cos(theta), normalized to P_{k,n}(1) = 1 and orthogonal for the
# weight (1 - t^2)^((n-2)/2).

import numpy as np

from spherebif.gegenbauer import (
    cube_integral,
    gauss_jacobi_rule,
    gegenbauer_eval,
    gegenbauer_zeros,
    linearization_coeffs,
)

n = 3

print(f"values on S^{n}:")
print("  P_1(t) = t              ->", gegenbauer_eval(1, n, 0.3))
print("  P_2(t) = ((n+1)t^2-1)/n ->", gegenbauer_eval(2, n, 0.5), "vs",
      ((n + 1) * 0.25 - 1) / n)
print("  P_6(1) =", gegenbauer_eval(6, n, 1.0), "  P_6(-1) =", gegenbauer_eval(6, n, -1.0))

print("\nzeros interlace from one degree to the next:")
for k in (3, 4):
    print(f"  k={k}:", np.array2string(gegenbauer_zeros(k, n), precision=4))

rule = gauss_jacobi_rule(12, n)
print(f"\n12-point rule for the weight: total mass = {rule.weights.sum():.6f}")
P = gegenbauer_eval(5, n, rule.nodes, table=True)  # column j holds P_j at the nodes
gram = P.T @ (rule.weights[:, None] * P)
off_diagonal = np.abs(gram - np.diag(np.diag(gram))).max()
print(f"worst off-diagonal Gram entry (k, j <= 5): {off_diagonal:.2e}")

print("\ncube integrals vanish for odd k and are positive for even k:")
for k in range(1, 7):
    print(f"  k={k}:  {cube_integral(k, n): .6e}")

print("\nsquare expansion P_2^2 = sum_j G_j P_j (coefficients sum to 1):")
g = linearization_coeffs(2, n)
print("  G =", np.array2string(g, precision=5), " sum =", g.sum())
