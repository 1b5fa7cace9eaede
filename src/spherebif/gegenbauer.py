"""Zonal ultraspherical (Gegenbauer) polynomial machinery.

The polynomials P_{k,n} used throughout are the Jacobi family with
alpha = beta = (n-2)/2, rescaled so that P_{k,n}(1) = 1.  They are the
degree-k zonal spherical harmonics on S^n in the variable t = cos(theta)
and are orthogonal against the weight (1 - t^2)^((n-2)/2) on [-1, 1].

Evaluation uses the three-term recurrence

    (k + n - 1) P_{k+1} = (2k + n - 1) t P_k - k P_{k-1},

which preserves the unit normalization at t = 1 exactly.  Explicitly
P_{0,n} = 1, P_{1,n} = t, P_{2,n} = ((n+1) t^2 - 1) / n.  It is the only
recurrence here: the zeros of P_{k,n} are the nodes of the k-point Gauss
rule for the weight (Golub-Welsch), so no root finder is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "QuadratureRule",
    "gauss_jacobi_rule",
    "gegenbauer_eval",
    "gegenbauer_zeros",
    "gegenbauer_norm2",
    "cube_integral",
    "linearization_coeffs",
]

# tolerance for accepting |t| marginally above 1 (rounding in inner products
# of unit vectors); larger excursions are rejected as domain errors
_T_SLACK = 1e-12


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule: nodes interior to (-1, 1), weights positive."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("quadrature nodes must be strictly increasing")
        if nodes[0] <= -1 or nodes[-1] >= 1:
            raise ValueError("quadrature nodes must lie inside (-1, 1)")
        if np.any(weights <= 0):
            raise ValueError("quadrature weights must be positive")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def _weight_mass(n: int) -> float:
    # integral of (1-t^2)^((n-2)/2) over [-1, 1]
    return math.sqrt(math.pi) * math.gamma(n / 2.0) / math.gamma((n + 1) / 2.0)


def gauss_jacobi_rule(m: int, n: int) -> QuadratureRule:
    """m-point Gauss rule for the weight (1-t^2)^((n-2)/2) on [-1, 1].

    Golub-Welsch: the nodes are eigenvalues of the symmetric tridiagonal
    matrix built from the three-term recurrence, the weights come from the
    first eigenvector components.  Exact for polynomials of degree
    <= 2m - 1 against the weight.
    """
    if m < 1:
        raise ValueError(f"point count must be >= 1, got {m}")
    if n < 2:
        raise ValueError(f"sphere dimension must be >= 2, got {n}")
    j = np.arange(1, m, dtype=float)
    # monic recurrence p_{j+1} = t p_j - b_j p_{j-1} for the zonal weight
    b = j * (j + n - 2) / ((2 * j + n - 1) * (2 * j + n - 3))
    nodes, vecs = np.linalg.eigh(np.diag(np.sqrt(b), -1), UPLO="L")
    weights = _weight_mass(n) * vecs[0] ** 2
    # enforce the exact symmetry of the rule about t = 0
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    return QuadratureRule(nodes, weights)


def _check_t(t):
    t = np.asarray(t, dtype=float)
    if not np.all(np.abs(t) <= 1 + _T_SLACK):
        raise ValueError("evaluation point outside [-1, 1]")
    return np.clip(t, -1.0, 1.0)


def _check_mode(k: int, n: int):
    if k < 0:
        raise ValueError(f"mode index must be >= 0, got {k}")
    if n < 2:
        raise ValueError(f"sphere dimension must be >= 2, got {n}")


def gegenbauer_eval(k: int, n: int, t, table: bool = False):
    """Evaluate P_{k,n}(t), normalized so P_{k,n}(1) = 1.

    Accepts scalar or array t with |t| <= 1.  With ``table=True`` it returns
    every degree 0..k from one run of the recurrence, as the last axis of an
    array of shape t.shape + (k + 1,).
    """
    _check_mode(k, n)
    t = _check_t(t)
    flat = t.ravel()
    rows = np.empty((k + 1, flat.size))
    rows[0] = 1.0
    if k:
        rows[1] = flat
    for j in range(1, k):
        np.multiply((2 * j + n - 1) * flat, rows[j], out=rows[j + 1])
        rows[j + 1] -= j * rows[j - 1]
        rows[j + 1] /= j + n - 1
    if table:
        return np.moveaxis(rows.reshape((k + 1,) + t.shape), 0, -1)
    return float(rows[k, 0]) if t.ndim == 0 else rows[k].reshape(t.shape)


def gegenbauer_zeros(k: int, n: int) -> np.ndarray:
    """All k zeros of P_{k,n}, sorted, inside (-1, 1): the nodes of the
    k-point Gauss rule for the same weight."""
    _check_mode(k, n)
    if k < 1:
        raise ValueError("mode index must be >= 1 for zeros")
    return gauss_jacobi_rule(k, n).nodes.copy()


@lru_cache(maxsize=64)
def gegenbauer_norm2(k: int, n: int) -> float:
    """Squared weighted norm of P_{k,n} (quadrature-exact), cached per (k, n)."""
    rule = gauss_jacobi_rule(k + 1, n)
    v = gegenbauer_eval(k, n, rule.nodes)
    return float(np.dot(rule.weights, v * v))


@lru_cache(maxsize=64)
def cube_integral(k: int, n: int) -> float:
    """int P_{k,n}^3 (1-t^2)^((n-2)/2) dt, cached per (k, n).

    Vanishes for odd k by parity and is strictly positive for even k.
    """
    _check_mode(k, n)
    if k < 1:
        raise ValueError("mode index must be >= 1")
    rule = gauss_jacobi_rule(3 * k // 2 + 2, n)
    v = gegenbauer_eval(k, n, rule.nodes)
    return float(np.dot(rule.weights, v**3))


def linearization_coeffs(k: int, n: int) -> np.ndarray:
    """Coefficients G_j of P_{k,n}^2 = sum_j G_j P_{j,n}, j = 0..2k.

    Weighted projection G_j = <P_k^2, P_j>_w / <P_j, P_j>_w; returns the
    2k + 1 coefficients as a read-only array.  They sum to 1 (evaluate at
    t = 1) and vanish for odd j by parity.
    """
    _check_mode(k, n)
    if k < 1:
        raise ValueError("mode index must be >= 1")
    rule = gauss_jacobi_rule(2 * k + 2, n)
    w = rule.weights
    # contiguous degree-major rows: np.dot may sum a strided column in
    # another order, and poly_coeffs.csv would change in its last digits
    P = gegenbauer_eval(2 * k, n, rule.nodes, table=True).T
    sq = P[k] ** 2
    coeffs = np.array([np.dot(w, sq * p) / np.dot(w, p * p) for p in P])
    coeffs.setflags(write=False)
    return coeffs
