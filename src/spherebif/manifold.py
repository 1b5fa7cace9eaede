"""Independent verification on the product manifold S^n x S^n.

The product carries the metric g + delta*g, with g the round metric of
curvature 1 on each factor.  Second-order differences along exact
great-circle geodesics realize the Laplace-Beltrami operator: n unit-speed
directions in the first factor plus n directions in the second factor
traversed at ambient angular speed 1/sqrt(delta), which is unit speed for
the scaled metric.  Everything here is O(h^2) in the step and entirely
independent of the spectral machinery, so it cross-checks computed
profiles by lifting them back to the manifold through u = phi(<p, q>) + 1.

The stencils work on blocks: a ``SpherePair`` may stack sample pairs along
leading axes, and the field is called once on all stencil points of the
block.  A pair or block builds its tangent frames once, for both
``laplace_beltrami_fd`` and ``gradient_sq_fd``.  ``lifted_residual`` and
``identity_residuals`` take their samples in ``_BLOCK_SAMPLES`` pairs at a
time, so a few large blocks share the fixed cost of the frames, stencils
and reductions; the lift makes one ``interpolate`` call per block, whose
series is summed elementwise.  No value depends on the block size.

All sampling is deterministic given the seed.  Both residual functions
draw every pair from one ``standard_normal((count, 2, n+1))`` call, which
is the same stream as drawing p and then q sample by sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .collocation import SpectralGrid, interpolate
from .model import ModelParams, PositivityError

__all__ = [
    "SpherePair",
    "tangent_frame",
    "laplace_beltrami_fd",
    "gradient_sq_fd",
    "lifted_residual",
    "identity_residuals",
]


@dataclass(frozen=True)
class SpherePair:
    """A point of S^n x S^n as two unit vectors in R^(n+1).

    p and q_vec may carry the same leading axes, stacking a block of pairs;
    every row must be a unit vector.
    """

    p: np.ndarray
    q_vec: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        q = np.asarray(self.q_vec, dtype=float)
        for v in (p, q):
            if np.any(np.abs(np.linalg.norm(v, axis=-1) - 1.0) > 1e-12):
                raise ValueError("sphere points must be unit vectors")
            v.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q_vec", q)

    @property
    def f(self):
        """The isoparametric value <p, q> in [-1, 1], per pair of a block."""
        return _float_if_single(_inner(self.p, self.q_vec))

    @cached_property
    def _frames(self):
        """``tangent_frame`` of p and of q_vec, built on first use by ``_stencil``."""
        return tangent_frame(self.p), tangent_frame(self.q_vec)


def _check_h(h: float):
    """Reject a geodesic step h (radians) outside (0, 0.1)."""
    if not 0 < h < 0.1:
        raise ValueError(f"step h must lie in (0, 0.1), got {h}")


def tangent_frame(point: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the tangent spaces of S^n at points (..., n+1).

    Projects the ambient coordinate axes and orthonormalizes, skipping
    axes that project degenerately and stopping at n vectors; the fixed
    axis order makes the frame reproducible.  Returns shape (..., n, n+1).
    """
    point = np.asarray(point, dtype=float)
    dim = point.shape[-1] - 1
    pts = point.reshape(-1, dim + 1)
    frame = np.zeros((len(pts), dim, dim + 1))
    count = np.zeros(len(pts), dtype=int)
    for axis, e in enumerate(np.eye(dim + 1)):
        v = e - pts[:, axis, None] * pts
        # slots not yet filled are zero and leave v as it is
        for slot in range(min(axis, dim)):
            u = frame[:, slot]
            v = v - _inner(v, u)[:, None] * u
        norm = np.sqrt(_inner(v, v))
        rows = np.flatnonzero((norm > 1e-8) & (count < dim))
        frame[rows, count[rows]] = v[rows] / norm[rows, None]
        count[rows] += 1
    return frame.reshape(point.shape[:-1] + (dim, dim + 1))


def _inner(a, b):
    """<a, b> over the last axis, rounded as np.dot rounds one pair."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _float_if_single(value):
    return float(value) if np.ndim(value) == 0 else value


def _geodesic(base, direction, angle):
    return np.cos(angle) * base + np.sin(angle) * direction


def _stencil(x: SpherePair, h: float, delta: float):
    """Stacked stencil points (P, Q), each of shape (..., 1 + 4n, n+1).

    Row 0 is x itself, rows 1..2n the forward steps and rows 2n+1..4n the
    backward steps; each set takes the n first-factor directions (angle h)
    before the n second-factor ones (angle h / sqrt(delta)).
    """
    fp, fq = x._frames
    p = np.broadcast_to(x.p[..., None, :], fp.shape)
    q = np.broadcast_to(x.q_vec[..., None, :], fq.shape)
    hh = h / np.sqrt(delta)
    P = np.concatenate(
        [x.p[..., None, :], _geodesic(p, fp, h), p, _geodesic(p, fp, -h), p], axis=-2
    )
    Q = np.concatenate(
        [x.q_vec[..., None, :], q, _geodesic(q, fq, hh), q, _geodesic(q, fq, -hh)],
        axis=-2,
    )
    return P, Q


def laplace_beltrami_fd(u, x: SpherePair, h: float, delta: float):
    """Laplacian of the scalar field u(p, q) at x, by central differences.

    Sums 2n second differences: n great-circle directions through the
    first factor at unit speed and n through the second factor at ambient
    angular speed 1/sqrt(delta), the orthonormal frame for the scaled
    product metric.  u is called once, on the stacked stencil points
    (P, Q) of shape (..., 1 + 4n, n+1) with x itself first, and returns
    values of shape (..., 1 + 4n).  A float for a single pair, else an
    array over the pairs of x.
    """
    _check_h(h)
    P, Q = _stencil(x, h, delta)
    vals = np.broadcast_to(u(P, Q), P.shape[:-1])
    steps = (P.shape[-2] - 1) // 2
    u0 = vals[..., 0]
    total = 0.0
    for d in range(1, steps + 1):
        total = total + (vals[..., d] - 2 * u0 + vals[..., steps + d])
    return _float_if_single(total / h**2)


def gradient_sq_fd(x: SpherePair, h: float, delta: float):
    """|grad f|^2 at x by first differences of f = <p, q>.

    Matches (1 + 1/delta)(1 - f^2) to O(h^2).  A float for a single pair,
    else an array over the pairs of x.
    """
    _check_h(h)
    P, Q = _stencil(x, h, delta)
    f = _inner(P, Q)
    steps = (P.shape[-2] - 1) // 2
    total = 0.0
    for d in range(1, steps + 1):
        total = total + ((f[..., d] - f[..., steps + d]) / (2 * h)) ** 2
    return _float_if_single(total)


# sample pairs per stencil evaluation; each block costs a fixed ~0.6 ms of
# small-array work, and its temporaries grow with it
_BLOCK_SAMPLES = 1024


def _sample_blocks(n: int, sample_count: int, seed: int):
    """Uniform random pairs on S^n x S^n as (index of first, SpherePair block)."""
    raw = np.random.default_rng(seed).standard_normal((sample_count, 2, n + 1))
    raw /= np.sqrt(_inner(raw, raw))[..., None]
    for start in range(0, sample_count, _BLOCK_SAMPLES):
        block = raw[start : start + _BLOCK_SAMPLES]
        yield start, SpherePair(block[:, 0], block[:, 1])


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
    profile the result is O(h^2) plus the spectral error floor.  A phi or
    lambda that is not finite raises ValueError.
    """
    _check_h(h)
    phi = np.asarray(phi, dtype=float)
    if not (np.all(np.isfinite(phi)) and np.isfinite(lam)):
        raise ValueError("profile values and lambda must be finite")
    evaluated = []

    def u(P, Q):
        t = _inner(P, Q)
        evaluated.append(interpolate(grid, phi, t.ravel()).reshape(t.shape) + 1.0)
        return evaluated[-1]

    worst = 0.0
    for start, x in _sample_blocks(params.n, sample_count, seed):
        lap = laplace_beltrami_fd(u, x, h, params.delta)
        u0 = evaluated.pop()[:, 0]  # the stencil lists x itself first
        bad = np.flatnonzero(u0 <= 0)
        if bad.size:
            raise PositivityError(f"lifted u is not positive at sample {start + bad[0]}")
        res = np.abs(-lap + lam * u0 - lam * u0 ** (params.q - 1))
        worst = max(worst, float(res.max()))
    return worst


def identity_residuals(
    n: int, delta: float, h: float, sample_count: int = 1000, seed: int = 0
) -> dict:
    """Worst-case errors of the two isoparametric identities for f = <p, q>.

    Checks Lap(f) = -n (1 + 1/delta) f and |grad f|^2 = (1 + 1/delta)(1 - f^2)
    at random pairs; returns the max absolute errors as floats.
    """
    worst_lap = 0.0
    worst_grad = 0.0
    for _, x in _sample_blocks(n, sample_count, seed):
        fval = x.f
        lap = laplace_beltrami_fd(_inner, x, h, delta)
        grad2 = gradient_sq_fd(x, h, delta)
        worst_lap = max(worst_lap, float(np.max(np.abs(lap + n * (1 + 1 / delta) * fval))))
        worst_grad = max(
            worst_grad, float(np.max(np.abs(grad2 - (1 + 1 / delta) * (1 - fval**2))))
        )
    return {"laplacian": worst_lap, "gradient": worst_grad}
