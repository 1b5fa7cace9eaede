"""Chebyshev-Lobatto collocation of the singular ODE on [-1, 1].

The grid keeps both endpoints as explicit rows so the regular-limit
boundary conditions occupy the first and last equations; the factor
(1 - t^2) multiplying the second derivative vanishes there, which is
exactly the degeneration the endpoint rows resolve.  Weighted inner
products of node vectors are evaluated by barycentric interpolation onto
a Gauss-Jacobi rule for the weight (1 - t^2)^((n-2)/2).

The stability diagnostic ``sigma_min`` (the eigenvalue of the Jacobian
nearest zero) uses shift-invert Arnoldi on the dense inverse instead of a
full eigendecomposition; it costs one inversion and typically 10 to 20
matrix-vector products per point.

Even k is traced in the even sector.  The grid is symmetric under the node
flip t -> -t, and at an even profile the Jacobian commutes with it, so it
splits into a block on the even node vectors (the N//2 + 1 values at
t >= 0) and a block on the odd ones (the (N + 1)//2 values at t > 0).
Both blocks are the folded linear operators, built once with the system,
plus the diagonal term; the continuation solves on the even block, and
``sigma_min`` inverts the two blocks instead of the whole Jacobian.

Grids and systems are immutable after construction and safe to share
across threads; all assembly routines are pure functions of their inputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .gegenbauer import gauss_jacobi_rule, gegenbauer_eval
from .model import ModelParams, PositivityError, reduction_factor

# residual max-norm tolerance of the Newton solves; a profile this small is
# indistinguishable from the trivial one
NEWTON_TOL = 1e-10

__all__ = [
    "SpectralGrid",
    "DiscreteSystem",
    "SolutionPoint",
    "build_grid",
    "interpolation_matrix",
    "interpolate",
    "assemble_residual",
    "assemble_jacobian",
    "dresidual_dlambda",
    "linear_operator",
    "linear_spectrum",
    "nodal_count",
    "sigma_min",
    "solution_point",
]


@dataclass(frozen=True)
class SpectralGrid:
    """Chebyshev-Lobatto nodes cos(j pi / N), decreasing from +1 to -1.

    ``d1`` and ``d2`` are dense differentiation operators, exact on
    polynomials of degree <= N; their rows annihilate constants.
    """

    N: int
    nodes: np.ndarray
    d1: np.ndarray
    d2: np.ndarray

    def __post_init__(self):
        for a in (self.nodes, self.d1, self.d2):
            a.setflags(write=False)


def build_grid(N: int) -> SpectralGrid:
    """Build the Lobatto grid and differentiation operators of degree N."""
    if N < 2:
        raise ValueError(f"polynomial degree must be >= 2, got {N}")
    j = np.arange(N + 1)
    x = np.cos(np.pi * j / N)
    c = np.hstack([2.0, np.ones(N - 1), 2.0]) * (-1.0) ** j
    dx = x[:, None] - x[None, :]
    D = np.outer(c, 1.0 / c) / (dx + np.eye(N + 1))
    # negative-sum trick: constants must differentiate to zero exactly
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    D2 = D @ D
    np.fill_diagonal(D2, 0.0)
    np.fill_diagonal(D2, -D2.sum(axis=1))
    return SpectralGrid(N=N, nodes=x, d1=D, d2=D2)


def _bary_weights(grid: SpectralGrid) -> np.ndarray:
    w = (-1.0) ** np.arange(grid.N + 1)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def interpolation_matrix(grid: SpectralGrid, targets) -> np.ndarray:
    """Matrix mapping node values to interpolant values at the targets."""
    t = np.atleast_1d(np.asarray(targets, dtype=float))
    if np.any(np.abs(t) > 1 + 1e-12):
        raise ValueError("interpolation targets must lie in [-1, 1]")
    t = np.clip(t, -1.0, 1.0)
    w = _bary_weights(grid)
    diff = t[:, None] - grid.nodes[None, :]
    hit = np.abs(diff) < 1e-14
    diff[hit] = 1.0
    M = w[None, :] / diff
    M /= M.sum(axis=1)[:, None]
    rows = np.any(hit, axis=1)
    M[rows] = 0.0
    M[np.where(hit)] = 1.0
    return M


def interpolate(grid: SpectralGrid, phi: np.ndarray, t):
    """Barycentric interpolant of node values phi at t (scalar or 1-D array).

    Each value is one row-by-phi dot product, so it rounds the same whether
    its target comes alone or among others.
    """
    scalar = np.ndim(t) == 0
    M = interpolation_matrix(grid, t)
    vals = (M[:, None, :] @ np.asarray(phi, dtype=float)[:, None])[:, 0, 0]
    return float(vals[0]) if scalar else vals


def _sector_size(N: int, parity: int) -> int:
    """Unknowns of the even (parity 1) or odd (parity -1) node vectors."""
    return N // 2 + 1 if parity > 0 else (N + 1) // 2


def _fold(M: np.ndarray, parity: int) -> np.ndarray:
    """Columns of M restricted to the even (parity 1) or odd (-1) node vectors.

    Node j < N/2 pairs with N - j; the middle node of an even N is its own
    pair and drops out of the odd sector.  ``M @ v == _fold(M, parity) @ a``
    for the node vector v of that parity whose top values are a.  M may be a
    single row.
    """
    N = M.shape[-1] - 1
    pairs = (N + 1) // 2
    out = M[..., : _sector_size(N, parity)].copy()
    out[..., :pairs] += parity * M[..., N + 1 - pairs :][..., ::-1]
    return out


def _mirror(a: np.ndarray, N: int) -> np.ndarray:
    """The even node vector whose values at the N//2 + 1 nodes t >= 0 are
    the first N//2 + 1 entries of a."""
    h = _sector_size(N, 1)
    out = np.empty(N + 1)
    out[:h] = a[:h]
    out[h:] = out[N - h :: -1]
    return out


def _even_sector(k) -> bool:
    """Whether branches of mode k are traced in the even sector (k even)."""
    return k is not None and k % 2 == 0


@dataclass(frozen=True)
class DiscreteSystem:
    """Grid plus parameters, with the quadrature machinery, the linear
    operator and its even and odd sector blocks precomputed (read-only).

    Residual rows follow the reduced ODE at interior nodes and its regular
    limit at the two endpoint nodes.  Inner products use the (N+1)-point
    Gauss-Jacobi rule, exact for the degree-2N product of two interpolants.
    """

    grid: SpectralGrid
    params: ModelParams
    _qnodes: np.ndarray = field(init=False, repr=False)
    _qweights: np.ndarray = field(init=False, repr=False)
    _interp: np.ndarray = field(init=False, repr=False)
    _linop: np.ndarray = field(init=False, repr=False)
    _linop_even: np.ndarray = field(init=False, repr=False)
    _linop_odd: np.ndarray = field(init=False, repr=False)
    _basis: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        rule = gauss_jacobi_rule(self.grid.N + 1, self.params.n)
        E = interpolation_matrix(self.grid, rule.nodes)
        E.setflags(write=False)
        object.__setattr__(self, "_qnodes", rule.nodes)
        object.__setattr__(self, "_qweights", rule.weights)
        object.__setattr__(self, "_interp", E)
        grid, n = self.grid, self.params.n
        x = grid.nodes
        L = (1 - x**2)[:, None] * grid.d2 - n * x[:, None] * grid.d1
        L[0] = -n * grid.d1[0]
        L[-1] = n * grid.d1[-1]
        L.setflags(write=False)
        object.__setattr__(self, "_linop", L)
        # L commutes with the node flip, so its top rows, folded, are its blocks
        for name, parity in (("_linop_even", 1), ("_linop_odd", -1)):
            M = _fold(L[: _sector_size(grid.N, parity)], parity)
            M.setflags(write=False)
            object.__setattr__(self, name, M)

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        """Weighted inner product of two node-value vectors."""
        return float(np.dot(self._qweights, (self._interp @ u) * (self._interp @ v)))

    def norm(self, u: np.ndarray) -> float:
        return np.sqrt(max(self.inner(u, u), 0.0))

    def basis(self, k: int) -> np.ndarray:
        """Samples of P_{k,n} on the grid (cached)."""
        if k not in self._basis:
            v = gegenbauer_eval(k, self.params.n, self.grid.nodes)
            v.setflags(write=False)
            self._basis[k] = v
        return self._basis[k]

    def inner_gradient(self, v: np.ndarray) -> np.ndarray:
        """Row vector r with r @ u == inner(u, v) for every u."""
        return self._qweights @ (self._interp * (self._interp @ v)[:, None])


def _check_phi(phi, grid):
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (grid.N + 1,):
        raise ValueError(f"profile must have {grid.N + 1} entries, got {phi.shape}")
    u = phi + 1.0
    if np.any(u <= 0):
        bad = int(np.argmin(u))
        raise PositivityError(
            f"u = phi + 1 is not positive at node {bad} (t = {grid.nodes[bad]:.6f})"
        )
    return phi, u


def assemble_residual(phi, lam: float, sys: DiscreteSystem) -> np.ndarray:
    """Residual vector: ODE at interior nodes, regular limit at t = +/-1."""
    grid, params = sys.grid, sys.params
    phi, u = _check_phi(phi, grid)
    mu = reduction_factor(lam, params)
    x = grid.nodes
    dphi = grid.d1 @ phi
    bracket = u ** (params.q - 1) - u
    r = (1 - x**2) * (grid.d2 @ phi) - params.n * x * dphi + mu * bracket
    r[0] = -params.n * dphi[0] + mu * bracket[0]
    r[-1] = params.n * dphi[-1] + mu * bracket[-1]
    return r


def _plus_diagonal(L, phi, lam, sys):
    # L plus the diagonal derivative of the nonlinearity on L's rows
    phi, u = _check_phi(phi, sys.grid)
    q = sys.params.q
    m = L.shape[0]
    dz = reduction_factor(lam, sys.params) * ((q - 1) * u[:m] ** (q - 2) - 1.0)
    J = L.copy()
    J[np.arange(m), np.arange(m)] += dz
    return J


def assemble_jacobian(phi, lam: float, sys: DiscreteSystem) -> np.ndarray:
    """Analytic derivative of assemble_residual in phi."""
    return _plus_diagonal(sys._linop, phi, lam, sys)


def _sector_jacobian(phi, lam: float, sys: DiscreteSystem, parity: int = 1) -> np.ndarray:
    """Block of the Jacobian at an even profile on the even (parity 1) or
    odd (parity -1) node vectors: the stored folded operator plus the
    diagonal term at the nodes t >= 0."""
    L = sys._linop_even if parity > 0 else sys._linop_odd
    return _plus_diagonal(L, phi, lam, sys)


def dresidual_dlambda(phi, lam: float, sys: DiscreteSystem) -> np.ndarray:
    """Derivative of the residual in lambda (the bracket over 1 + 1/delta)."""
    phi, u = _check_phi(phi, sys.grid)
    return (u ** (sys.params.q - 1) - u) / (1 + 1 / sys.params.delta)


def linear_operator(sys: DiscreteSystem) -> np.ndarray:
    """Rows of (1-t^2) d^2 - n t d with regular-limit endpoint rows.

    The matrix is built once with the system; this returns a writable copy.
    """
    return sys._linop.copy()


def linear_spectrum(sys: DiscreteSystem, count: int) -> np.ndarray:
    """Smallest ``count`` eigenvalues of -[(1-t^2) v'' - n t v'].

    The exact values are j(j + n - 1); the discrete operator reproduces
    them to rounding because the eigenfunctions are polynomials of degree
    j <= N.
    """
    if count > sys.grid.N - 1:
        raise ValueError(f"count must be <= N - 1 = {sys.grid.N - 1}")
    ev = np.linalg.eigvals(-linear_operator(sys))
    # the operator is similar to a self-adjoint one; discard rounding noise
    ev = np.real(ev[np.abs(ev.imag) <= 1e-6 * (1 + np.abs(ev.real))])
    ev.sort()
    return ev[:count]


def sigma_min(J: np.ndarray, odd_block: np.ndarray | None = None) -> float:
    """Smallest-magnitude eigenvalue of J, with its sign.

    J is similar to a self-adjoint operator in the weighted product, so
    its spectrum is real up to rounding.  The eigenvalue is found by
    shift-invert Arnoldi at shift zero: Arnoldi with full
    re-orthogonalization on inv(J), started from a fixed pseudo-random
    vector (an even vector would miss the odd modes of an even profile),
    stops when the largest-modulus Ritz value theta has residual
    |h_{j+1,j} y_j| <= 1e-13 |theta|; the result is 1/theta.  When the
    Krylov dimension reaches the order of J the Ritz values are its
    spectrum, so the loop always ends.  An exactly singular J gives 0.0.

    On the even sector of an even-k branch, J is the even block and
    ``odd_block`` the odd block of the Jacobian; the two blocks are
    inverted separately and the same Arnoldi loop runs once on the
    block-diagonal inverse in parity coordinates, whose start vector has
    components in both sectors.
    """
    blocks = [J] if odd_block is None else [J, odd_block]
    blocks = [np.asarray(B, dtype=float) for B in blocks]
    for B in blocks:
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise ValueError("J must be a square matrix")
    n = sum(B.shape[0] for B in blocks)
    Jinv = np.zeros((n, n))
    start = 0
    for B in blocks:
        stop = start + B.shape[0]
        try:
            Jinv[start:stop, start:stop] = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            return 0.0
        start = stop
    return _arnoldi_sigma(Jinv)


def _arnoldi_sigma(Jinv: np.ndarray) -> float:
    # reciprocal of the largest-modulus eigenvalue of Jinv (see sigma_min)
    n = Jinv.shape[0]
    V = np.empty((n, n))
    H = np.zeros((n + 1, n))
    v = np.random.default_rng(0).standard_normal(n)
    V[0] = v / np.linalg.norm(v)
    for j in range(n):
        w = Jinv @ V[j]
        Q = V[: j + 1]
        for _ in range(2):  # classical Gram-Schmidt, twice
            h = Q @ w
            w -= h @ Q
            H[: j + 1, j] += h
        beta = np.linalg.norm(w)
        H[j + 1, j] = beta
        theta, Y = np.linalg.eig(H[: j + 1, : j + 1])
        i = np.argmax(np.abs(theta))
        if beta * abs(Y[j, i]) <= 1e-13 * abs(theta[i]) or j == n - 1:
            return float((1.0 / theta[i]).real)
        V[j + 1] = w / beta


def nodal_count(grid: SpectralGrid, phi) -> int:
    """Sign-change zeros of the interpolant of phi on (-1, 1).

    Scans a refinement grid of 8N points and counts the sign changes
    between consecutive samples outside the dead band
    max(1e-9 * max|phi|, NEWTON_TOL) (tangential touches do not count).
    A profile with max|phi| <= NEWTON_TOL is the trivial solution u = 1 to
    the solver's tolerance and has no zeros, so a continuation step that
    falls onto it changes the nodal count.
    """
    phi = np.asarray(phi, dtype=float)
    scale = np.max(np.abs(phi))
    if scale <= NEWTON_TOL:
        return 0
    tau = max(1e-9 * scale, NEWTON_TOL)
    vals = _refinement_matrix(grid.N) @ phi
    signs = np.sign(vals[np.abs(vals) > tau])
    changes = np.where(signs[1:] * signs[:-1] < 0)[0]
    return int(changes.size)


@functools.lru_cache(maxsize=8)
def _refinement_matrix(N: int) -> np.ndarray:
    """Read-only interpolation from the degree-N grid onto nodal_count's
    refinement grid of 8N - 1 equispaced interior points, built once per N."""
    fine = np.linspace(-1.0, 1.0, 8 * N + 1)[1:-1]
    M = interpolation_matrix(build_grid(N), fine)
    M.setflags(write=False)
    return M


def solution_point(sys: DiscreteSystem, phi, lam, k=None, J=None) -> "SolutionPoint":
    """Assemble the standard diagnostics for a converged profile.

    J, when given, is the Jacobian at (phi, lam) or, on the even sector,
    its even block.  Even k is traced in the even sector: without J the
    even block is built, and ``sigma_min`` runs on the even and odd blocks.
    """
    phi = np.asarray(phi, dtype=float)
    # nodal_count's large temporaries go first, as they always have: the
    # other order leaves the allocator holding about 0.5 MB more at N=192
    nodes = nodal_count(sys.grid, phi)
    if J is None:
        if _even_sector(k):
            J = _sector_jacobian(phi, lam, sys)
        else:
            J = assemble_jacobian(phi, lam, sys)
    odd = _sector_jacobian(phi, lam, sys, -1) if len(J) < phi.size else None
    sigma = sigma_min(J, odd)
    if k is None:
        s = float("nan")
    else:
        p = sys.basis(k)
        s = sys.inner(phi, p) / sys.inner(p, p)
    return SolutionPoint(
        phi=phi,
        lam=float(lam),
        s_coord=s,
        nodal_count=nodes,
        sigma_min=sigma,
        u_min=float(1.0 + phi.min()),
    )


@dataclass(frozen=True)
class SolutionPoint:
    """One discretized solution: profile, lambda, and diagnostics."""

    phi: np.ndarray
    lam: float
    s_coord: float
    nodal_count: int
    sigma_min: float
    u_min: float

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        phi.setflags(write=False)
        object.__setattr__(self, "phi", phi)
