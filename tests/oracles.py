"""Helpers shared by the test files.

The pointwise residuals of the reduced ODE and of its regular limits check
a Galerkin solution at any t, without the quadrature that produced it;
``weighted_inner`` integrates two callables by its own Gauss rule; and
``sample_pair`` draws a reproducible point of S^n x S^n.
"""

import numpy as np

from spherebif.gegenbauer import gauss_jacobi_rule
from spherebif.manifold import SpherePair
from spherebif.model import PositivityError, reduction_factor


def _bracket(phi, q):
    # (phi+1)^(q-1) - phi - 1, guarded against u <= 0
    u = phi + 1.0
    if u <= 0:
        raise PositivityError(f"u = phi + 1 = {u} is not positive")
    return u ** (q - 1) - u


def ode_residual(t, phi, dphi, d2phi, lam, params):
    """Residual of the reduced equation at t, from phi(t), phi'(t) and phi''(t)."""
    mu = reduction_factor(lam, params)
    return (1 - t**2) * d2phi - params.n * t * dphi + mu * _bracket(phi, params.q)


def endpoint_residual(side, phi_end, dphi_end, lam, params):
    """Regular limit of the ODE at t = side for side in {-1, +1}."""
    if side not in (-1, 1):
        raise ValueError(f"side must be -1 or +1, got {side}")
    mu = reduction_factor(lam, params)
    return -side * params.n * dphi_end + mu * _bracket(phi_end, params.q)


def weighted_inner(f, g, n, m):
    """int f g (1-t^2)^((n-2)/2) dt by the m-point Gauss rule, exact when
    f g is a polynomial of degree <= 2m - 1."""
    rule = gauss_jacobi_rule(m, n)
    return rule.weights @ (f(rule.nodes) * g(rule.nodes))


def sample_pair(n, seed):
    """Uniform random pair on S^n x S^n, deterministic for the seed."""
    rng = np.random.default_rng(seed)
    p = rng.standard_normal(n + 1)
    q = rng.standard_normal(n + 1)
    return SpherePair(p / np.linalg.norm(p), q / np.linalg.norm(q))
