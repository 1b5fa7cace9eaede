# Locating a degenerate solution: a point on the branch where the
# linearized operator acquires a kernel.
#
# Along the even-mode branch the smallest-magnitude eigenvalue of the
# Jacobian changes sign at the fold in lambda; Newton on the extended
# system F = 0, J v = 0, <ell, v> = 1 solves for the fold directly.  The
# resulting pair (u = phi + 1, lambda*) is a positive solution with
# exactly k sign changes that depends on both sphere factors.

import numpy as np

from spherebif.collocation import DiscreteSystem, assemble_jacobian, build_grid, interpolate
from spherebif.continuation import locate_degenerate, trace_branch
from spherebif.model import ModelParams, endpoint_residual, lambda_k

params = ModelParams(n=2, delta=1.0, q=3.0)
system = DiscreteSystem(build_grid(64), params)

k = 2
branch = trace_branch(k, 1, system, max_points=60)
report = locate_degenerate(branch, sigma_tol=1e-6, sys=system)

print(f"mode k = {k}: lambda_k = {lambda_k(k, params)}")
print(f"  lambda*        = {report.lambda_star:.9f}")
print(f"  sigma at star  = {report.sigma_at_star:.3e}")
print(f"  nodal count    = {report.nodal_count}")
print(f"  min of u       = {report.u_min:.6f}  (stays positive)")
print(f"  residual norm  = {report.residual_norm:.3e}")
print(f"  coefficient tail = {report.tail:.1e}  (resolved by N=64)")
print(f"  s bracket      = ({report.s_bracket[0]:.6f}, {report.s_bracket[1]:.6f})")
print(f"  branch lambda-min = {report.branch_lambda_min:.9f}")
print(f"  newton iterations = {report.newton_iterations}")

# independent confirmation: the coefficients of the interpolant of the
# reported node values, a fresh full Jacobian, all of its eigenvalues
c = system.coefficients(lambda t: interpolate(system.grid, report.phi_star, t))
J = assemble_jacobian(c, report.lambda_star, system)
closest = np.min(np.abs(np.linalg.eigvals(J)))
print(f"\nindependent eigendecomposition: min |eigenvalue| = {closest:.3e}")

# the regular limits of the ODE at the poles hold without boundary rows
for side, phi_end, dphi_end in zip((1, -1), report.phi_star[[0, -1]], report.endpoint_derivs):
    res = endpoint_residual(side, phi_end, dphi_end, report.lambda_star, params)
    print(f"endpoint condition at t = {side:+d}: residual {res:.1e}")
