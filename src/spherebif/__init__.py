"""Bifurcation toolkit for Yamabe-type equations on products of spheres.

The semilinear equation -Lap(u) + lambda*u = lambda*u^(q-1) on
(S^n x S^n, g + delta*g), restricted to functions invariant under the
diagonal O(n+1) action, reduces to a singular ODE for the profile
w = u - 1 on [-1, 1].  This package provides:

* ``gegenbauer`` -- the zonal (ultraspherical) polynomial machinery:
  evaluation, zeros, Gauss-Jacobi quadrature, cube integrals, square
  expansions.
* ``model`` -- problem parameters, the reduced ODE and its endpoint
  conditions, the eigenvalue ladder, and the closed-form branch slope.
* ``collocation`` -- zonal Galerkin discretization in the orthonormal
  P_{j,n}: residual, symmetric Jacobian and its eigenvalue nearest zero,
  linear spectrum, nodal counting, and interpolation of profiles reported
  on Chebyshev-Lobatto nodes.
* ``continuation`` -- Newton solves, branch seeding, pseudo-arclength
  tracing, and location of degenerate solutions.
* ``manifold`` -- independent verification on S^n x S^n by finite
  differences along geodesics.
* ``cli`` -- the ``spherebif`` command-line front end.
"""

from .gegenbauer import (
    QuadratureRule,
    cube_integral,
    gauss_jacobi_rule,
    gegenbauer_deriv,
    gegenbauer_eval,
    gegenbauer_zeros,
    linearization_coeffs,
    weighted_inner,
)
from .model import (
    DerivedConstants,
    ModelParams,
    PositivityError,
    ProfilePoint,
    derived_constants,
    dlambda_ds0,
    endpoint_residual,
    lambda_k,
    linearized_potential,
    ode_residual,
    reduction_factor,
    yamabe_lambda,
)
from .collocation import (
    DiscreteSystem,
    SolutionPoint,
    SpectralGrid,
    assemble_jacobian,
    assemble_residual,
    build_grid,
    interpolate,
    linear_operator,
    linear_spectrum,
    nodal_count,
    sigma_min,
)
from .continuation import (
    Branch,
    ConvergenceError,
    DegeneracyReport,
    arclength_step,
    branch_seed,
    locate_degenerate,
    newton_solve,
    psi_smallness_check,
    solve_at_s,
    trace_branch,
)
from .manifold import (
    SpherePair,
    gradient_sq_fd,
    identity_residuals,
    laplace_beltrami_fd,
    lifted_residual,
    sample_pair,
)

__version__ = "0.1.0"
