# The bifurcation ladder lambda_k and the discrete linear spectrum.
#
# The linearization at the trivial solution u = 1 is singular exactly where
# its zero-order coefficient c(lambda) = lambda (q-2)/(1 + 1/delta) hits a
# Laplacian eigenvalue k(k+n-1); the ladder lambda_k inverts that relation.
# In the zonal Galerkin basis the operator is diagonal with exactly these
# eigenvalues, and the Jacobian at u = 1 has the eigenvalue nearest zero
# c(lambda) - k(k+n-1), which changes sign at each lambda_k.

import numpy as np

from spherebif.collocation import (
    DiscreteSystem,
    assemble_jacobian,
    build_grid,
    sigma_min,
)
from spherebif.model import ModelParams, lambda_k, yamabe_lambda

params = ModelParams(n=2, delta=1.0, q=3.0)
c = (params.q - 2) / (1 + 1 / params.delta)

print("ladder for n=2, delta=1, q=3:")
for k in range(1, 6):
    lam = lambda_k(k, params)
    print(f"  lambda_{k} = {lam:6.1f}   c(lambda_{k}) = {c * lam:5.1f} = k(k+n-1)")

print(f"\nYamabe value of lambda: {yamabe_lambda(2, 1.0):.6f} (n=2, delta=1)")

system = DiscreteSystem(build_grid(96), params)
zeros = np.zeros(97)
# at lambda = 0 the Jacobian at u = 1 is the operator alone, as mu(0) = 0
got = np.linalg.eigvalsh(-assemble_jacobian(zeros, 0.0, system))[:8]
exact = np.array([j * (j + 1) for j in range(8)], dtype=float)
print("\ndiscrete spectrum at N=96 vs j(j+n-1):")
for j, (g, e) in enumerate(zip(got, exact)):
    print(f"  j={j}:  {g: .12f}   (error {abs(g - e):.2e})")

print("\nsigma_min of the Jacobian at u = 1 just below and above each lambda_k:")
for k in range(1, 5):
    lam = lambda_k(k, params)
    lo, hi = (sigma_min(assemble_jacobian(zeros, x, system)) for x in (0.99 * lam, 1.01 * lam))
    print(f"  k={k}:  {lo: .4e}  {hi: .4e}")
