"""Independent verification on the product manifold S^n x S^n.

The product carries the metric g + delta*g, with g the round metric of
curvature 1 on each factor.  Second-order differences along exact
great-circle geodesics realize the Laplace-Beltrami operator: n unit-speed
directions in the first factor plus n directions in the second factor
traversed at ambient angular speed 1/sqrt(delta), which is unit speed for
the scaled metric.  Everything here is O(h^2) in the step and entirely
independent of the spectral machinery, so it cross-checks computed
profiles by lifting them back to the manifold through u = phi(<p, q>) + 1.

All sampling is deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collocation import SpectralGrid, interpolate
from .model import ModelParams, PositivityError

__all__ = [
    "SpherePair",
    "sample_pair",
    "tangent_frame",
    "laplace_beltrami_fd",
    "gradient_sq_fd",
    "lifted_residual",
    "identity_residuals",
]


@dataclass(frozen=True)
class SpherePair:
    """A point of S^n x S^n as two unit vectors in R^(n+1)."""

    p: np.ndarray
    q_vec: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        q = np.asarray(self.q_vec, dtype=float)
        for v in (p, q):
            if abs(np.linalg.norm(v) - 1.0) > 1e-12:
                raise ValueError("sphere points must be unit vectors")
            v.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q_vec", q)

    @property
    def f(self) -> float:
        """The isoparametric value <p, q> in [-1, 1]."""
        return float(np.dot(self.p, self.q_vec))


def _check_h(h: float):
    """Reject a geodesic step h (radians) outside (0, 0.1)."""
    if not 0 < h < 0.1:
        raise ValueError(f"step h must lie in (0, 0.1), got {h}")


def sample_pair(n: int, seed: int) -> SpherePair:
    """Uniform random pair on S^n x S^n, deterministic for the seed."""
    if n < 2:
        raise ValueError(f"sphere dimension must be >= 2, got {n}")
    rng = np.random.default_rng(seed)
    p = rng.standard_normal(n + 1)
    q = rng.standard_normal(n + 1)
    return SpherePair(p / np.linalg.norm(p), q / np.linalg.norm(q))


def tangent_frame(point: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the tangent space of S^n at the point.

    Projects the ambient coordinate axes and orthonormalizes, skipping
    axes that project degenerately; the fixed axis order makes the frame
    reproducible.
    """
    point = np.asarray(point, dtype=float)
    dim = point.size - 1
    frame = []
    for e in np.eye(point.size):
        v = e - np.dot(e, point) * point
        for u in frame:
            v = v - np.dot(v, u) * u
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            frame.append(v / norm)
        if len(frame) == dim:
            break
    return np.array(frame)


def _geodesic(base, direction, angle):
    return np.cos(angle) * base + np.sin(angle) * direction


def laplace_beltrami_fd(u, x: SpherePair, h: float, delta: float) -> float:
    """Laplacian of the scalar field u(p, q) at x, by central differences.

    Sums 2n second differences: n great-circle directions through the
    first factor at unit speed and n through the second factor at ambient
    angular speed 1/sqrt(delta), the orthonormal frame for the scaled
    product metric.
    """
    _check_h(h)
    u0 = u(x.p, x.q_vec)
    total = 0.0
    for v in tangent_frame(x.p):
        total += u(_geodesic(x.p, v, h), x.q_vec) - 2 * u0 + u(_geodesic(x.p, v, -h), x.q_vec)
    hh = h / np.sqrt(delta)
    for v in tangent_frame(x.q_vec):
        total += u(x.p, _geodesic(x.q_vec, v, hh)) - 2 * u0 + u(x.p, _geodesic(x.q_vec, v, -hh))
    return total / h**2


def gradient_sq_fd(x: SpherePair, h: float, delta: float) -> float:
    """|grad f|^2 at x by first differences of f = <p, q>.

    Matches (1 + 1/delta)(1 - f^2) to O(h^2).
    """
    _check_h(h)
    total = 0.0
    for v in tangent_frame(x.p):
        fp = np.dot(_geodesic(x.p, v, h), x.q_vec)
        fm = np.dot(_geodesic(x.p, v, -h), x.q_vec)
        total += ((fp - fm) / (2 * h)) ** 2
    hh = h / np.sqrt(delta)
    for v in tangent_frame(x.q_vec):
        fp = np.dot(x.p, _geodesic(x.q_vec, v, hh))
        fm = np.dot(x.p, _geodesic(x.q_vec, v, -hh))
        total += ((fp - fm) / (2 * h)) ** 2
    return total


def lifted_residual(
    grid: SpectralGrid,
    phi: np.ndarray,
    lam: float,
    params: ModelParams,
    sample_count: int = 200,
    h: float = 1e-3,
    seed: int = 0,
) -> float:
    """Max |-Lap(u) + lambda u - lambda u^(q-1)| over random sample pairs.

    u = phi(<p, q>) + 1 is the lift of the profile; for a converged
    profile the result is O(h^2) plus the spectral error floor.
    """
    _check_h(h)
    phi = np.asarray(phi, dtype=float)
    rng = np.random.default_rng(seed)

    def u(p, q_vec):
        val = interpolate(grid, phi, float(np.dot(p, q_vec))) + 1.0
        return val

    worst = 0.0
    for i in range(sample_count):
        p = rng.standard_normal(params.n + 1)
        q_vec = rng.standard_normal(params.n + 1)
        x = SpherePair(p / np.linalg.norm(p), q_vec / np.linalg.norm(q_vec))
        u0 = u(x.p, x.q_vec)
        if u0 <= 0:
            raise PositivityError(f"lifted u is not positive at sample {i}")
        lap = laplace_beltrami_fd(u, x, h, params.delta)
        res = abs(-lap + lam * u0 - lam * u0 ** (params.q - 1))
        worst = max(worst, res)
    return worst


def identity_residuals(
    n: int, delta: float, h: float, sample_count: int = 1000, seed: int = 0
) -> dict:
    """Worst-case errors of the two isoparametric identities for f = <p, q>.

    Checks Lap(f) = -n (1 + 1/delta) f and |grad f|^2 = (1 + 1/delta)(1 - f^2)
    at random pairs; returns the max absolute errors.
    """
    rng = np.random.default_rng(seed)
    f_field = lambda p, q_vec: float(np.dot(p, q_vec))
    worst_lap = 0.0
    worst_grad = 0.0
    for _ in range(sample_count):
        p = rng.standard_normal(n + 1)
        q_vec = rng.standard_normal(n + 1)
        x = SpherePair(p / np.linalg.norm(p), q_vec / np.linalg.norm(q_vec))
        fval = x.f
        lap = laplace_beltrami_fd(f_field, x, h, delta)
        grad2 = gradient_sq_fd(x, h, delta)
        worst_lap = max(worst_lap, abs(lap + n * (1 + 1 / delta) * fval))
        worst_grad = max(worst_grad, abs(grad2 - (1 + 1 / delta) * (1 - fval**2)))
    return {"laplacian": worst_lap, "gradient": worst_grad}
