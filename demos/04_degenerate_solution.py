# Locating a degenerate solution: a point on the branch where the
# linearized operator acquires a kernel.
#
# Along the even-mode branch the smallest-magnitude eigenvalue of the
# Jacobian changes sign at the fold in lambda; Newton on the extended
# system F = 0, J v = 0, <ell, v> = 1 solves for the fold directly.
# find_degenerate runs the degenerate command's search: one trace climbs
# the sizes 32, 48, 64 only as far as its points need and stops at the
# first located fold, which is solved for on the size the trace reached
# and, below N = 64, again at N; it returns the report and the trace.
# The resulting pair (u = phi + 1, lambda*) is a positive solution with
# exactly k sign changes that depends on both sphere factors.

import numpy as np

from spherebif.collocation import DiscreteSystem, assemble_jacobian, build_grid, interpolate
from spherebif.continuation import find_degenerate
from spherebif.model import ModelParams, lambda_k, reduction_factor

params = ModelParams(n=2, delta=1.0, q=3.0)
system = DiscreteSystem(build_grid(64), params)

k = 2
report, trace = find_degenerate(k, system, sigma_tol=1e-6)
star, rung = report.point, report.rung_point

print(f"mode k = {k}: lambda_k = {lambda_k(k, params)}")
print(f"  lambda*        = {star.lam:.9f}")
print(f"  sigma at star  = {star.sigma_min:.3e}")
print(f"  nodal count    = {star.nodal_count}")
print(f"  min of u       = {star.u_min:.6f}  (stays positive)")
print(f"  residual norm  = {report.residual_norm:.3e}")
print(f"  coefficient tail = {star.tail:.1e}  (resolved by N=64)")
if rung is None:
    print(f"  located at N = {system.grid.N} itself")
else:
    print(f"  change from rung {rung.rung}: {abs(star.lam - rung.lam):.1e}")
print(f"  traced points  = {len(trace.points)}  (crossing index {report.crossing_index})")
print(f"  s bracket      = ({report.s_bracket[0]:.6f}, {report.s_bracket[1]:.6f})")
print(f"  branch lambda-min = {report.branch_lambda_min:.9f}")
print(f"  newton iterations = {report.newton_iterations}")

# independent confirmation: the coefficients of the interpolant of the
# reported node values, a fresh full Jacobian, all of its eigenvalues
c = system.coefficients(lambda t: interpolate(system.grid, star.phi, t))
J = assemble_jacobian(c, star.lam, system)
closest = np.min(np.abs(np.linalg.eigvals(J)))
print(f"\nindependent eigendecomposition: min |eigenvalue| = {closest:.3e}")

# the regular limits of the ODE at the poles hold without boundary rows:
# -+ n phi'(+-1) + mu(lambda) [(phi(+-1)+1)^(q-1) - phi(+-1) - 1] = 0
mu = reduction_factor(star.lam, params)
for side, phi_end, dphi_end in zip((1, -1), star.phi[[0, -1]], report.endpoint_derivs):
    res = -side * params.n * dphi_end + mu * ((phi_end + 1) ** (params.q - 1) - phi_end - 1)
    print(f"endpoint condition at t = {side:+d}: residual {res:.1e}")
