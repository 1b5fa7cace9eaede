"""Zonal Galerkin discretization of the singular ODE on [-1, 1].

The reduced operator (1 - t^2) d^2 - n t d is w^-1 d[(1 - t^2) w d] for the
weight w = (1 - t^2)^((n-2)/2), so it is diagonal in the orthonormal zonal
polynomials p_j = P_{j,n} / ||P_{j,n}||_w, with eigenvalues -j(j + n - 1),
and no boundary rows are needed: the regular limits at t = +/-1 hold for
every polynomial.  A profile phi = sum_j c_j p_j, j <= N, solves

    F(c) = -Lambda c + mu(lambda) V^T W g(V c) = 0,    g(phi) = (phi+1)^(q-1) - phi - 1,

with Lambda = diag(j(j + n - 1)), V the basis at the nodes of a Gauss-Jacobi
rule for w of ceil(1.5 (N+1)) + 1 points and W its weights.  The Jacobian
J = -Lambda + mu V^T W diag(g'(V c)) V is symmetric, so the stability
diagnostic ``sigma_min`` (the eigenvalue of J nearest zero) comes from
``numpy.linalg.eigvalsh``, and every ``eigvalsh`` runs inside ``sigma_min``.
Coefficient vectors are orthonormal coordinates: the weighted inner product
of two profiles is the dot product of their coefficients.  J, F and
F_lambda = V^T W g(V c) / (1 + 1/delta) share u = 1 + V c at the rule nodes
and the bracket V^T W (u^(q-1) - u): ``assemble_jacobian(..., parts=True)``
gives them and ``solution_point``'s diagonals from one pass over u.

Even k is traced in the even sector: the branch of an even mode is even in
t, so only the even j are unknowns, and at an even profile J splits into
the block of the even j and the block of the odd j.  Both blocks integrate
even functions, so they use the rule folded onto its nodes t >= 0.  The
functions here take a ``parity``: 0 for all N + 1 modes, 1 for the even
modes; ``assemble_jacobian`` also takes -1 for the odd block at an even
profile.  Coefficient vectors hold the modes of their sector in increasing
order.  Both blocks are -Lambda_b + V_b^T diag(w h) V_b with one diagonal
h = mu g'(u) and V_b^T diag(w) V_b = I (the rule is exact), so by Weyl's
inequality no eigenvalue of a block moves by more than max|h - h'| between
two profiles: along a trace ``solution_point`` evaluates a block only where
this bound, carried from the previous point, cannot show that the other
block holds the eigenvalue nearest zero.  The bound holds within one
system only: a point solved at another N gives none.

Profiles leave the package as values on the N + 1 Chebyshev-Lobatto nodes
of ``build_grid``, which determine the degree-N expansion exactly;
``interpolate`` evaluates such node values anywhere in [-1, 1] through
their Chebyshev series (one DCT-I, then Clenshaw's recurrence), without
the Galerkin basis.

Grids and systems are immutable after construction and safe to share
across threads; all assembly routines are pure functions of their inputs.
q and delta do not enter the basis tables, so the systems of one (N, n)
share a single read-only set of them, built on first use.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .gegenbauer import _check_t, gauss_jacobi_rule, gegenbauer_eval
from .model import ModelParams, PositivityError, reduction_factor

# residual max-norm tolerance of the Newton solves; a profile this small is
# indistinguishable from the trivial one
NEWTON_TOL = 1e-10

# slack of the Weyl bound in sigma_min's skip rule, per unit of the scale
# of J (the largest j(j + n - 1) plus max|h|); it covers the backward error
# of eigvalsh and the rounding of V^T W V = I
_WEYL_MARGIN = 1e-10

# default relative tolerance of the chop test ``resolved``: machine
# precision, the default of Aurentz and Trefethen's standardChop
CHOP_TOL = float(np.finfo(float).eps)

__all__ = [
    "SpectralGrid",
    "DiscreteSystem",
    "SolutionPoint",
    "Linearization",
    "build_grid",
    "interpolate",
    "assemble_residual",
    "assemble_jacobian",
    "dresidual_dlambda",
    "nodal_count",
    "resolved",
    "sigma_min",
    "solution_point",
]


@dataclass(frozen=True)
class SpectralGrid:
    """Chebyshev-Lobatto nodes cos(j pi / N), decreasing from +1 to -1."""

    N: int
    nodes: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)


def build_grid(N: int) -> SpectralGrid:
    """The N + 1 Lobatto nodes on which degree-N profiles are reported."""
    if N < 2:
        raise ValueError(f"polynomial degree must be >= 2, got {N}")
    return SpectralGrid(N=N, nodes=np.cos(np.pi * np.arange(N + 1) / N))


def interpolate(grid: SpectralGrid, phi: np.ndarray, t):
    """Degree-N interpolant of node values phi at t (scalar or 1-D array).

    phi holds the N + 1 node values of ``grid``.  The Lobatto nodes are
    Chebyshev extrema, so one DCT-I (an ``rfft`` of the even extension of
    phi) gives the Chebyshev coefficients a_k of the same interpolant, and
    Clenshaw's recurrence b_k = a_k + 2t b_{k+1} - b_{k+2} sums the series
    at all targets at once.  Every value is computed elementwise, so it
    rounds the same whether its target comes alone or among others.  The
    targets are checked and clipped to [-1, 1] as gegenbauer's are.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (grid.N + 1,):
        raise ValueError(f"phi must hold the {grid.N + 1} node values of the grid, "
                         f"got shape {phi.shape}")
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(_check_t(t))
    # numpy imports its fft module on this first use, not at package import
    a = np.fft.rfft(np.concatenate([phi, phi[-2:0:-1]])).real / grid.N
    a[[0, -1]] *= 0.5
    two_t = 2.0 * t
    b1, b2 = np.zeros_like(t), np.zeros_like(t)  # b_{k+1}, b_{k+2}
    work = np.empty_like(t)
    for ak in a[:0:-1]:
        np.multiply(two_t, b1, out=work)
        work -= b2
        work += ak
        b1, b2, work = work, b1, b2
    # a_0 + t b_1 - b_2
    np.multiply(t, b1, out=work)
    work -= b2
    work += a[0]
    return float(work[0]) if scalar else work


def _parity(k) -> int:
    """The sector mode k is traced in: 1 (even modes) for even k, else 0 (all)."""
    return 1 if k is not None and k % 2 == 0 else 0


def _modes(parity: int) -> slice:
    """The mode indices j of a sector, as a slice of 0..N."""
    return slice(None) if parity == 0 else slice((1 - parity) // 2, None, 2)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


# a trace at N = 192 reaches six sizes (continuation.trace_branch); the cache
# holds all of them and the sizes of a second problem
@lru_cache(maxsize=16)
def _tables(N: int, n: int) -> tuple:
    """The read-only tables of every DiscreteSystem of degree N and
    dimension n (see there), built once per (N, n)."""
    rule = gauss_jacobi_rule(-(-3 * (N + 1) // 2) + 1, n)
    M = rule.nodes.size
    # nodal_count's refinement grid: 8N Chebyshev points, crowding toward +/-1
    fine = np.cos(np.pi * (np.arange(8 * N) + 0.5) / (8 * N))
    # P[j] holds P_{j,n} at the rule nodes, the Lobatto nodes and the
    # refinement points, normalized in place
    P = gegenbauer_eval(N, n, np.concatenate([rule.nodes, build_grid(N).nodes, fine]),
                        table=True).T
    norms = np.sqrt(P[:, :M] ** 2 @ rule.weights)
    P /= norms[:, None]
    V = P[:, :M].T
    # the rule is symmetric; even integrands need only its nodes t >= 0
    half = M // 2
    folded = 2.0 * rule.weights[half:]
    if M % 2:
        folded[0] = rule.weights[half]
    eig = np.arange(N + 1) * (np.arange(N + 1) + n - 1.0)
    sectors = {0: (_frozen(V), rule.weights, _frozen(eig))}
    for parity in (1, -1):
        m = _modes(parity)
        sectors[parity] = (_frozen(V[half:, m]), _frozen(folded), _frozen(eig[m]))
    B = P[:, M : M + N + 1].T
    output = {0: _frozen(B), 1: _frozen(B[: N // 2 + 1, ::2])}
    # transposed, as views: nodal_count multiplies them from the left
    refinement = {0: P[:, M + N + 1 :], 1: P[::2, M + N + 1 :]}
    for table in refinement.values():
        table.setflags(write=False)
    return rule, _frozen(norms), sectors, output, refinement


@dataclass(frozen=True)
class DiscreteSystem:
    """Grid plus parameters, with the basis tables of every sector (read-only).

    For each parity the system holds the orthonormal basis at the rule
    nodes (all of them for parity 0, the folded ones t >= 0 for +/-1), the
    matching weights and the eigenvalues j(j + n - 1) of the sector's modes;
    the basis at the Lobatto nodes; and the basis at nodal_count's
    refinement points.  All of them come from one Gegenbauer recurrence
    over all degrees.  They depend on (N, n) only, so systems of the same
    N and n share one set of them, whatever their q and delta.
    """

    grid: SpectralGrid
    params: ModelParams
    _rule: object = field(init=False, repr=False)
    _norms: np.ndarray = field(init=False, repr=False)
    _sectors: dict = field(init=False, repr=False)
    _output: dict = field(init=False, repr=False)
    _fine: dict = field(init=False, repr=False)

    def __post_init__(self):
        names = ("_rule", "_norms", "_sectors", "_output", "_fine")
        for name, table in zip(names, _tables(self.grid.N, self.params.n)):
            object.__setattr__(self, name, table)

    def basis(self, k: int) -> np.ndarray:
        """Coefficients of P_{k,n}, over all N + 1 modes."""
        if not 0 <= k <= self.grid.N:
            raise ValueError(f"mode index must lie in 0..{self.grid.N}, got {k}")
        c = np.zeros(self.grid.N + 1)
        c[k] = self._norms[k]
        return c

    def coefficients(self, f) -> np.ndarray:
        """Coefficients of the weighted projection of a callable f(t) onto
        the N + 1 modes, by the system's quadrature rule."""
        V, w, _ = self._sectors[0]
        return V.T @ (w * f(self._rule.nodes))

    def node_values(self, c, parity: int = 0) -> np.ndarray:
        """Values of the expansion on the Lobatto nodes; exactly even for
        parity 1, whose values at t < 0 mirror those at t > 0."""
        phi = self._output[parity] @ c
        if parity:
            N = self.grid.N
            phi = np.concatenate([phi, phi[N - phi.size :: -1]])
        return phi

    def endpoint_derivatives(self, c) -> tuple:
        """phi'(+1) and phi'(-1) of the expansion with all N + 1 coefficients c.

        The regular limit of the operator at t = +/-1 gives
        P_{j,n}'(1) = j(j + n - 1) / n, and P_{j,n}'(-1) = (-1)^(j+1) P_{j,n}'(1).
        """
        d = self._sectors[0][2] * np.asarray(c, dtype=float) / (self._norms * self.params.n)
        return float(d.sum()), float(d[1::2].sum() - d[::2].sum())


def _sector_u(c, sys: DiscreteSystem, parity: int):
    """The basis, weights and eigenvalues of the sector, and u = 1 + phi at
    its rule nodes; the profile of the odd block (-1) is the even one."""
    V, w, eig = sys._sectors[parity]
    c = np.asarray(c, dtype=float)
    profile = sys._sectors[1 if parity else 0][0]
    if c.shape != (profile.shape[1],):
        raise ValueError(f"expected {profile.shape[1]} coefficients, got {c.shape}")
    u = 1.0 + profile @ c
    if not u.min() > 0:  # a NaN fails too
        bad = int(np.argmin(u))
        raise PositivityError(f"u = phi + 1 is not positive at rule node {bad}")
    return V, w, eig, u


# J, F, F_lambda, h = mu g'(u) and J's diagonal d = mu W g'(u) (assemble_jacobian)
Linearization = namedtuple("Linearization", "J F F_lam h d")


def _block(sys: DiscreteSystem, parity: int, d) -> np.ndarray:
    """-Lambda + V^T diag(d) V on the modes of the sector of parity."""
    V, _, eig = sys._sectors[parity]
    J = (V.T * d) @ V
    J.ravel()[:: len(eig) + 1] -= eig
    return J


def assemble_residual(c, lam: float, sys: DiscreteSystem, parity: int = 0) -> np.ndarray:
    """Galerkin residual -Lambda c + mu V^T W g(V c) in the sector's modes."""
    V, w, eig, u = _sector_u(c, sys, parity)
    mu = reduction_factor(lam, sys.params)
    return mu * (V.T @ (w * (u ** (sys.params.q - 1) - u))) - eig * c


def assemble_jacobian(c, lam: float, sys: DiscreteSystem, parity: int = 0, parts: bool = False):
    """Symmetric Jacobian -Lambda + mu V^T W diag(g'(V c)) V of the sector.

    Parity -1 gives the block of the odd modes at the even profile whose
    even-mode coefficients are c, with the even block's diagonal d.  For
    parity 0 or 1, ``parts=True`` returns the Linearization at (c, lam):
    its F and F_lam are bit for bit assemble_residual's and dresidual_dlambda's.
    The solvers use only that form; J alone is for demos and tests.
    """
    V, w, eig, u = _sector_u(c, sys, parity)
    q, mu = sys.params.q, reduction_factor(lam, sys.params)
    gp = (q - 1) * u ** (q - 2) - 1.0
    d = mu * w * gp
    J = _block(sys, parity, d)
    if not parts:
        return J
    r = V.T @ (w * (u ** (q - 1) - u))  # the bracket of F and F_lambda
    return Linearization(J, mu * r - eig * c, r / (1 + 1 / sys.params.delta), mu * gp, d)


def _jacobian_derivatives(c, lam: float, v, sys: DiscreteSystem, parity: int):
    """Derivatives of J v in the coefficients c (a matrix) and in lambda (a
    vector), at (c, lam), for a fixed v of the same sector."""
    V, w, _, u = _sector_u(c, sys, parity)
    q = sys.params.q
    wv = w * (V @ v)
    mu = reduction_factor(lam, sys.params)
    dc = (V.T * (mu * (q - 1) * (q - 2) * u ** (q - 3) * wv)) @ V
    dlam = V.T @ (((q - 1) * u ** (q - 2) - 1.0) * wv) / (1 + 1 / sys.params.delta)
    return dc, dlam


def dresidual_dlambda(c, lam: float, sys: DiscreteSystem, parity: int = 0) -> np.ndarray:
    """Derivative of the residual in lambda (the projected bracket over 1 + 1/delta)."""
    V, w, _, u = _sector_u(c, sys, parity)
    return V.T @ (w * (u ** (sys.params.q - 1) - u)) / (1 + 1 / sys.params.delta)


def sigma_min(J: np.ndarray, odd_block=None, radii=None):
    """Eigenvalue nearest zero of the symmetric J, with its sign.

    On the even sector of an even-k branch, J is the even block and
    ``odd_block`` the odd block of the Jacobian, or a function that
    assembles it, and the eigenvalue is the one nearest zero among both
    blocks' eigenvalues; on a tie the even block's wins.

    ``radii``, when given, holds a lower bound on min|eigenvalue| of each
    block (-inf where none is known), and the pair (sigma, bounds) is
    returned.  The block with the smaller radius is evaluated first, and
    the other is skipped when its radius exceeds |sigma| of the first,
    strictly: no eigenvalue of it can then be as near zero.  ``bounds``
    holds min|eigenvalue| of each evaluated block and the radius of a
    skipped one.
    """
    blocks = [J] if odd_block is None else [J, odd_block]
    bounds = [-np.inf] * len(blocks) if radii is None else list(radii)
    best = None
    for b in sorted(range(len(blocks)), key=bounds.__getitem__):
        if best is not None and bounds[b] > abs(best):
            continue
        B = blocks[b]() if callable(blocks[b]) else blocks[b]
        ev = np.linalg.eigvalsh(np.asarray(B, dtype=float))
        near = ev[np.argmin(np.abs(ev))]
        bounds[b] = abs(near)
        if best is None or abs(near) < abs(best) or (abs(near) == abs(best) and b == 0):
            best = near
    return float(best) if radii is None else (float(best), tuple(map(float, bounds)))


def _radii(sys: DiscreteSystem, h, prior) -> tuple:
    """Lower bounds on min|eigenvalue| of the even and the odd block of J at
    the even profile whose blocks have the diagonal h = mu(lambda) g'(u) at
    the folded rule nodes: those of ``prior`` less max|h - h_prior| and
    _WEYL_MARGIN times the scale of J; -inf without a prior of this N."""
    if prior is None or prior.rung != sys.grid.N:
        return (-np.inf, -np.inf)
    dh = np.abs(h - prior.h).max()
    # max|h_prior| <= max|h| + dh
    shift = dh + _WEYL_MARGIN * (sys._sectors[0][2][-1] + np.abs(h).max() + dh)
    return tuple(bound - shift for bound in prior.gap_bounds)


def nodal_count(sys: DiscreteSystem, c, parity: int = 0) -> int:
    """Sign-change zeros of the expansion with coefficients c on (-1, 1).

    Scans a refinement grid of the 8N Chebyshev points cos(pi (j + 1/2) / 8N)
    and counts the sign changes between consecutive samples outside the
    dead band max(1e-9 * max|phi|, NEWTON_TOL) (tangential touches do not
    count).  The points crowd toward t = +/-1 as the zeros of P_{k,n} do,
    so every mode k <= N reads k zeros.
    A profile with max|phi| <= NEWTON_TOL is the trivial solution u = 1 to
    the solver's tolerance and has no zeros, so a continuation step that
    falls onto it changes the nodal count.
    """
    vals = np.asarray(c, dtype=float) @ sys._fine[parity]
    scale = np.max(np.abs(vals))
    if scale <= NEWTON_TOL:
        return 0
    tau = max(1e-9 * scale, NEWTON_TOL)
    signs = np.sign(vals[np.abs(vals) > tau])
    return int(np.count_nonzero(signs[1:] * signs[:-1] < 0))


def _chop_window_end(size: int) -> int:
    """The last index j of resolved's chop window on ``size`` coefficients:
    the largest j with round(1.25 j + 5) <= size."""
    return (4 * size - 19) // 5


def resolved(c, tol: float = CHOP_TOL) -> bool:
    """The chop test: whether the coefficients c of a profile reach a plateau.

    This is step 2 of the rule ``standardChop`` of Aurentz and Trefethen
    ("Chopping a Chebyshev series", ACM TOMS 43, 2017) at the relative
    tolerance tol.  On the envelope e_j = max_{i >= j} |c_i| / max|c|
    (j from 1), a plateau starts at j when e_j = 0 or when e_j2 / e_j >
    3 (1 - log e_j / log tol) at j2 = round(1.25 j + 5) <= len(c).  The
    coefficients beyond it are noise, so the series is resolved.  Fewer than
    17 coefficients never are, and an all-zero c is.  An even profile's odd
    coefficients are zero, which leaves the envelope as it is.
    """
    b = np.abs(np.asarray(c, dtype=float))
    n = b.size
    if n < 17:
        return False
    env = np.maximum.accumulate(b[::-1])[::-1]
    if env[0] == 0:
        return True
    top = _chop_window_end(n)
    e1 = env[1:top] / env[0]  # e_j for j = 2..top
    if e1[-1] == 0:
        return True
    j = np.arange(2, top + 1)
    e2 = env[(5 * j + 22) // 4 - 1] / env[0]  # round(1.25 j + 5), halves up
    return bool(np.any(e2 > e1 * (3.0 - 3.0 * np.log(e1) / np.log(tol))))


def solution_point(sys: DiscreteSystem, c, lam, k=None, lin=None, prior=None) -> "SolutionPoint":
    """Assemble the standard diagnostics for a converged profile.

    c holds the coefficients of the sector mode k is traced in: the even
    modes for even k, all N + 1 otherwise.  lin, when given, is its
    Linearization at (c, lam).  For even k ``sigma_min`` runs on the even
    and the odd block, built from lin's d; ``prior``, the previous point of
    the same trace at the same N, lets it skip the block that the prior's
    ``gap_bounds`` and the Weyl bound (see the module docstring) rule out,
    and a skipped odd block is not built.  Without such a prior both blocks
    are evaluated.
    """
    parity = _parity(k)
    c = np.asarray(c, dtype=float)
    nodes = nodal_count(sys, c, parity)
    if lin is None:
        lin = assemble_jacobian(c, lam, sys, parity, parts=True)
    odd, h, radii = None, None, (-np.inf,)
    if parity:
        odd, h = partial(_block, sys, -1, lin.d), lin.h
        radii = _radii(sys, h, prior)
    sigma, bounds = sigma_min(lin.J, odd, radii)
    coeffs = np.zeros(sys.grid.N + 1)
    coeffs[_modes(parity)] = c
    phi = sys.node_values(c, parity)
    scale = np.max(np.abs(c))
    # the last four modes of the sector, less those within the chop window
    last = coeffs[max(sys.grid.N - 3 - 4 * parity, _chop_window_end(coeffs.size) + 1):]
    return SolutionPoint(
        phi=phi,
        lam=float(lam),
        s_coord=float("nan") if k is None else float(coeffs[k] / sys._norms[k]),
        nodal_count=nodes,
        sigma_min=sigma,
        u_min=float(1.0 + phi.min()),
        coeffs=coeffs,
        tail=float(np.max(np.abs(last)) / scale) if scale > 0 else 0.0,
        gap_bounds=bounds,
        rung=sys.grid.N,
        h=h,
    )


@dataclass(frozen=True)
class SolutionPoint:
    """One discretized solution: profile, lambda, and diagnostics.

    ``phi`` holds the profile on the Lobatto nodes and ``coeffs`` its N + 1
    Galerkin coefficients.  ``tail`` estimates how well N resolves it: the
    largest magnitude among the last four coefficients of its sector over
    the largest coefficient, leaving out those within the chop window of
    ``resolved``, which the last four even modes reach below N = 20.
    ``gap_bounds`` holds a lower bound on min|eigenvalue| of each block of
    the Jacobian (even then odd for even k, one for the full Jacobian
    otherwise): the exact value for a block whose spectrum was evaluated.
    ``rung`` is the N of the system the point was solved on, which a trace
    may keep below the N of its ``coeffs`` and ``phi`` (see
    continuation.trace_branch); ``gap_bounds`` and every diagnostic but
    ``phi`` and ``u_min`` come from that system, and so does ``h``, the
    diagonal mu g'(u) of both blocks at its folded rule nodes for even k
    (None otherwise).  These three are written to no output file.
    """

    phi: np.ndarray
    lam: float
    s_coord: float
    nodal_count: int
    sigma_min: float
    u_min: float
    coeffs: np.ndarray | None = None
    tail: float = float("nan")
    gap_bounds: tuple | None = None
    rung: int | None = None
    h: np.ndarray | None = None

    def __post_init__(self):
        for name in ("phi", "coeffs", "h"):
            a = getattr(self, name)
            if a is not None:
                a = np.asarray(a, dtype=float)
                a.setflags(write=False)
                object.__setattr__(self, name, a)
