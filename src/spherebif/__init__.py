"""Bifurcation toolkit for Yamabe-type equations on products of spheres.

The semilinear equation -Lap(u) + lambda*u = lambda*u^(q-1) on
(S^n x S^n, g + delta*g), restricted to functions invariant under the
diagonal O(n+1) action, reduces to a singular ODE for the profile
w = u - 1 on [-1, 1].  The Python API is the modules below: import each
name from its module (``from spherebif.model import ModelParams``);
``import spherebif`` itself loads none of them.

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

__version__ = "0.1.0"
