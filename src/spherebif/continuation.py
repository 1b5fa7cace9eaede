"""Branch tracing and degenerate-solution location.

Nontrivial solution branches leave the trivial family (0, lambda) at each
lambda_k; the kernel direction P_{k,n} and the closed-form slope
dlambda/ds(0) seed the first corrector, and pseudo-arclength continuation
follows the branch through folds.  A solution is degenerate where the
linearization acquires a kernel, i.e. where the smallest-magnitude
eigenvalue of the Jacobian crosses zero; along even-k branches this
happens at the fold in lambda.  Each candidate crossing is solved for
directly by Newton on the minimally extended system of Moore and Spence
(SIAM J. Numer. Anal. 17, 1980), F(phi, lambda) = 0, J v = 0,
<ell, v> = 1, started from the traced point just before it.  A caller that
only wants the degenerate point passes trace_branch a ``stop`` predicate
that locates each crossing as the trace records it, so the trace ends one
point past the located crossing.

Every point comes from one damped Newton corrector on F(phi, lambda) = 0
plus one linear equation in (phi, lambda), solved as a bordered system
and converged on the full residual to NEWTON_TOL, the tolerance that
``collocation.nodal_count`` also takes as its trivial-profile floor.
The linear equation holds lambda fixed (``newton_solve``), the
projection onto P_{k,n} (``solve_at_s``) or the pseudo-arclength equation
(``arclength_step``).  Even k is traced in the even sector: P_{k,n} is
even in t, and so is every point of the branch, so the corrector, the
tangent and the fold solve work on the even block of the Jacobian (about
half the unknowns, see ``collocation``).  Every profile is mirrored from its values
at t >= 0, so it is exactly even.  Odd k, and ``newton_solve`` without a
mode index, solve the full system.

Branch traces are strictly sequential; distinct branches share only
immutable grids and may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .collocation import (
    NEWTON_TOL,
    DiscreteSystem,
    SolutionPoint,
    _even_sector,
    _fold,
    _mirror,
    _sector_jacobian,
    assemble_jacobian,
    assemble_residual,
    dresidual_dlambda,
    solution_point,
)
from .model import PositivityError, dlambda_ds0, lambda_k, reduction_factor

__all__ = [
    "ConvergenceError",
    "StepRejected",
    "Branch",
    "DegeneracyReport",
    "newton_solve",
    "branch_seed",
    "solve_at_s",
    "arclength_step",
    "trace_branch",
    "locate_degenerate",
    "psi_smallness_check",
]

MAX_ITER = 30
DS_INIT = 1e-2
DS_MIN = 1e-6
DS_MAX = 0.1
SEED_AMPLITUDE = 1e-2
# damped-Newton backtracking when an iterate loses positivity
MAX_BACKTRACK = 20
# branch event kinds that mark a candidate eigenvalue crossing
CROSSING_EVENTS = ("fold", "sigma-zero")


class ConvergenceError(RuntimeError):
    """Newton or corrector iteration failed to converge."""


class StepRejected(RuntimeError):
    """A continuation step was rejected; ``reason`` names the event kind."""

    def __init__(self, reason: str, message: str = ""):
        super().__init__(message or reason)
        self.reason = reason


@dataclass
class Branch:
    """Ordered solution points of one connected branch off (0, lambda_k).

    ``direction`` is the sign of the seed parameter s.  ``events`` holds
    (point index, kind) pairs with kind in {fold, sigma-zero, lambda-floor,
    step-failure}, plus ``nodal-change`` markers for rejected steps (a
    persistent one terminates the branch as a step failure).
    """

    k: int
    direction: int
    lambda_origin: float
    points: list = field(default_factory=list)
    events: list = field(default_factory=list)


@dataclass(frozen=True)
class DegeneracyReport:
    """A located degenerate pair (phi*, lambda*) with diagnostics.

    ``s_bracket`` holds the projection coordinates s of the traced pair
    (crossing_index, crossing_index + 1) whose crossing was located;
    ``branch_lambda_min`` is the minimum of lambda over the traced points
    and the located one (a trace stopped at the crossing ends one point
    past it), so the relation between the eigenvalue crossing and the
    minimal-lambda point stays observable.  ``endpoint_derivs`` reports
    phi'(+1), phi'(-1) of the profile; ``newton_iterations`` counts the
    Newton steps on the extended system that located it.
    """

    lambda_star: float
    phi_star: np.ndarray
    sigma_at_star: float
    nodal_count: int
    u_min: float
    s_bracket: tuple
    residual_norm: float
    branch_lambda_min: float
    crossing_index: int
    endpoint_derivs: tuple
    newton_iterations: int


def _jacobian(phi, lam, sys, k):
    """The Jacobian, or its even block when mode k is traced in the even sector."""
    if _even_sector(k):
        return _sector_jacobian(phi, lam, sys)
    return assemble_jacobian(phi, lam, sys)


def _start(phi, sys, k):
    """A writable copy of phi, mirrored from t >= 0 on the even sector."""
    phi = np.asarray(phi, dtype=float)
    return _mirror(phi, sys.grid.N) if _even_sector(k) else phi.copy()


def _apply_update(phi, lam, dphi, dlam):
    """Damped update: halve the step while positivity fails."""
    step = 1.0
    for _ in range(MAX_BACKTRACK):
        trial_phi = phi + step * dphi
        if np.all(trial_phi > -1.0):
            return trial_phi, lam + step * dlam
        step *= 0.5
    raise ConvergenceError("iterate lost positivity and backtracking failed")


def _correct(sys, k, phi, lam, wrow, wlam, constraint, max_iter):
    """Newton on F = 0 and g = constraint(phi, lam) = 0, g having gradient
    (wrow, wlam), until max(|F|_inf, |g|) < NEWTON_TOL.  Returns the
    SolutionPoint and the Jacobian at it; raises ConvergenceError when it
    stalls."""
    for _ in range(max_iter):
        F = assemble_residual(phi, lam, sys)
        g = constraint(phi, lam)
        J = _jacobian(phi, lam, sys, k)
        if max(np.max(np.abs(F)), abs(g)) < NEWTON_TOL:
            return solution_point(sys, phi, lam, k=k, J=J), J
        flam = dresidual_dlambda(phi, lam, sys)
        dphi, dlam = _bordered_solve(J, flam, wrow, wlam, -F, -g)
        phi, lam = _apply_update(phi, lam, dphi, dlam)
    raise ConvergenceError(f"no convergence after {max_iter} iterations")


def newton_solve(
    phi0,
    lam: float,
    sys: DiscreteSystem,
    max_iter: int = MAX_ITER,
    k: int | None = None,
) -> SolutionPoint:
    """Newton iteration at fixed lambda from the initial profile phi0.

    Returns a SolutionPoint with diagnostics populated; raises
    ConvergenceError after max_iter iterations without bringing the
    residual max-norm below NEWTON_TOL.  An even mode index k solves on the
    even sector from the mirror of phi0's values at t >= 0.
    """
    pt, _ = _correct(sys, k, _start(phi0, sys, k), lam, np.zeros(sys.grid.N + 1),
                     1.0, lambda phi, lam: 0.0, max_iter)
    return pt


def branch_seed(k: int, s0: float, sys: DiscreteSystem) -> SolutionPoint:
    """Tangent predictor at parameter s0 for the branch at (0, lambda_k).

    phi = s0 P_{k,n} and lambda = lambda_k + s0 * dlambda/ds(0); feed it to
    the s-normalized corrector (solve_at_s) to land on the branch.
    """
    if s0 == 0:
        raise ValueError("seed parameter s0 must be nonzero")
    phi = s0 * sys.basis(k)
    lam = lambda_k(k, sys.params) + s0 * dlambda_ds0(k, sys.params)
    return solution_point(sys, phi, lam, k=k)


def _bordered_solve(J, flam, wrow, wlam, rtop, rbot):
    """Solve [[J, flam], [wrow, wlam]] [x; xl] = [rtop; rbot] for (x, xl).

    flam, wrow and rtop have one entry per node.  When J is the even block
    (fewer rows than nodes), the system is folded onto the even sector: the
    top entries of flam and rtop, wrow folded; x is mirrored back.
    """
    m = J.shape[0]
    N = len(flam) - 1
    if m <= N:
        flam, wrow, rtop = flam[:m], _fold(wrow, 1), rtop[:m]
    A = np.zeros((m + 1, m + 1))
    A[:m, :m] = J
    A[:m, -1] = flam
    A[-1, :m] = wrow
    A[-1, -1] = wlam
    rhs = np.empty(m + 1)
    rhs[:m] = rtop
    rhs[-1] = rbot
    try:
        z = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"singular bordered system: {exc}") from exc
    x = z[:m] if m > N else _mirror(z[:m], N)
    return x, z[-1]


def solve_at_s(
    k: int,
    s: float,
    sys: DiscreteSystem,
    max_iter: int = MAX_ITER,
) -> SolutionPoint:
    """Solve on the branch at projection coordinate s.

    Unknowns are (phi, lambda); the extra equation is the normalization
    <phi, P_{k,n}>_w = s <P_{k,n}, P_{k,n}>_w, which pins the on-branch
    parametrization w(s) = s P_{k,n} + (remainder orthogonal to P_{k,n}).
    The corrector starts from the tangent predictor at s and converges to
    NEWTON_TOL within max_iter iterations; even k solves on the even sector
    (see the module docstring).
    """
    p = sys.basis(k)
    p2 = sys.inner(p, p)
    phi = _start(s * p, sys, k)
    lam = lambda_k(k, sys.params) + s * dlambda_ds0(k, sys.params)
    pt, _ = _correct(sys, k, phi, lam, sys.inner_gradient(p), 0.0,
                     lambda phi, lam: sys.inner(phi, p) - s * p2, max_iter)
    return pt


def _tangent(sys, phi, lam, ref_phi, ref_lam, k=None, J=None):
    """Unit tangent (in the weighted norm) oriented along the reference.

    J, when given, is the Jacobian at (phi, lam) as ``_jacobian`` builds it.
    """
    if J is None:
        J = _jacobian(phi, lam, sys, k)
    flam = dresidual_dlambda(phi, lam, sys)
    wrow = sys.inner_gradient(ref_phi)
    tphi, tlam = _bordered_solve(J, flam, wrow, ref_lam, np.zeros(len(phi)), 1.0)
    nrm = np.sqrt(sys.inner(tphi, tphi) + tlam**2)
    tphi, tlam = tphi / nrm, tlam / nrm
    if sys.inner(tphi, ref_phi) + tlam * ref_lam < 0:
        tphi, tlam = -tphi, -tlam
    return tphi, tlam


def arclength_step(
    current: SolutionPoint,
    tangent: tuple,
    ds: float,
    sys: DiscreteSystem,
    k: int | None = None,
    max_iter: int = MAX_ITER,
):
    """One pseudo-arclength step of length ds from a converged point.

    The corrector solves F(phi, lambda) = 0 together with the affine
    constraint <phi - phi_0, t_phi>_w + (lambda - lambda_0) t_lambda = ds
    to NEWTON_TOL; even k solves on the even sector.  The new point is
    accepted only if its nodal count matches the current one; otherwise
    StepRejected carries the reason ``nodal-change``.  A corrector that
    stalls or loses positivity (u <= 0) raises StepRejected with the reason
    ``step-failure``, so every accepted point has u > 0.  Returns the pair
    (point, Jacobian at the point), the Jacobian being the even block on the
    even sector.
    """
    tphi, tlam = tangent
    phi0, lam0 = current.phi, current.lam
    phi = _start(phi0 + ds * tphi, sys, k)
    lam = lam0 + ds * tlam
    try:
        pt, J = _correct(
            sys, k, phi, lam, sys.inner_gradient(tphi), tlam,
            lambda phi, lam: sys.inner(phi - phi0, tphi) + (lam - lam0) * tlam - ds,
            max_iter,
        )
    except (ConvergenceError, PositivityError) as exc:
        raise StepRejected("step-failure", str(exc)) from exc
    if pt.nodal_count != current.nodal_count:
        raise StepRejected(
            "nodal-change",
            f"nodal count {pt.nodal_count} != {current.nodal_count}",
        )
    return pt, J


def trace_branch(
    k: int,
    direction: int,
    sys: DiscreteSystem,
    max_points: int = 400,
    stop: Callable[[Branch], bool] | None = None,
) -> Branch:
    """Trace the branch D_k^+ (direction=+1) or D_k^- (direction=-1).

    The first point is solve_at_s at s = direction * SEED_AMPLITUDE; then
    pseudo-arclength steps start at DS_INIT, grow by 1.3 per accepted step
    up to DS_MAX and halve on rejection.  Stops on the lambda floor
    1e-3 * lambda_1, the point budget, a step shorter than DS_MIN, or when
    ``stop(branch)`` returns True; every recorded point carries the full
    diagnostics and the branch keeps a constant nodal count.  ``stop`` is called once after each accepted point, after
    that point's fold and sigma-zero events are recorded, so it sees every
    crossing event exactly once.
    """
    if k < 1:
        raise ValueError(f"mode index must be >= 1, got {k}")
    if direction not in (-1, 1):
        raise ValueError(f"direction must be -1 or +1, got {direction}")
    lam_k = lambda_k(k, sys.params)
    lambda_floor = 1e-3 * lambda_k(1, sys.params)
    branch = Branch(k=k, direction=direction, lambda_origin=lam_k)

    # solve_at_s starts from the tangent predictor at the seed
    first = solve_at_s(k, direction * SEED_AMPLITUDE, sys)
    branch.points.append(first)

    # reference direction: the secant back to the bifurcation point
    tphi, tlam = _tangent(sys, first.phi, first.lam, first.phi,
                          first.lam - lam_k, k=k)
    ds = DS_INIT
    prev_dlam = first.lam - lam_k
    while len(branch.points) < max_points:
        current = branch.points[-1]
        try:
            nxt, J = arclength_step(current, (tphi, tlam), ds, sys, k=k)
        except StepRejected as exc:
            idx = len(branch.points) - 1
            if exc.reason == "nodal-change":
                branch.events.append((idx, "nodal-change"))
            ds *= 0.5
            if ds < DS_MIN:
                branch.events.append((idx, "step-failure"))
                break
            continue
        branch.points.append(nxt)
        idx = len(branch.points) - 1
        dlam = nxt.lam - current.lam
        if prev_dlam != 0 and dlam != 0 and np.sign(dlam) != np.sign(prev_dlam):
            branch.events.append((idx, "fold"))
        prev_dlam = dlam
        if current.sigma_min != 0 and np.sign(nxt.sigma_min) != np.sign(current.sigma_min):
            branch.events.append((idx, "sigma-zero"))
        if stop is not None and stop(branch):
            break
        if nxt.lam < lambda_floor:
            branch.events.append((idx, "lambda-floor"))
            break
        tphi, tlam = _tangent(sys, nxt.phi, nxt.lam, tphi, tlam, J=J)
        ds = min(ds * 1.3, DS_MAX)
    return branch


def locate_degenerate(
    branch: Branch,
    sigma_tol: float,
    sys: DiscreteSystem,
    first: int = 0,
) -> DegeneracyReport | None:
    """Find a degenerate point along a traced branch, or None.

    Candidates are the point pairs (i, i + 1) with i >= ``first`` that end
    at a ``fold`` or ``sigma-zero`` event of the trace.  Each is solved for
    by Newton on the extended system F = 0, J v = 0, <ell, v> = 1 in
    (phi, lambda, v), started from point i and converged to NEWTON_TOL
    within MAX_ITER steps, with one ``solution_point`` for the diagnostics
    at the end.  A candidate is skipped when the solve stalls or loses
    positivity, when its point lies farther from either end of the pair
    than the pair's chord length, when |sigma_min| there is not below
    sigma_tol (an absolute target, stricter than any operator rescaling
    since the spectral scale exceeds one), or when its nodal count differs
    from the branch's; a min-magnitude eigenvalue swap, not a crossing, is
    skipped this way.  A caller locating each crossing as the trace
    records it passes the newest pair's index as ``first``, so no earlier
    candidate is solved twice.
    """
    pts = branch.points
    lam_min = min(p.lam for p in pts)
    candidates = sorted(
        {idx - 1 for idx, kind in branch.events
         if kind in CROSSING_EVENTS and idx - 1 >= first}
    )
    for i in candidates:
        report = _solve_fold(branch, i, sigma_tol, sys, lam_min)
        if report is not None:
            return report
    return None


def _chord(sys, a, b):
    """Unit chord from point a to point b and its length, or None if they coincide."""
    dphi = b.phi - a.phi
    dlam = b.lam - a.lam
    gap = np.sqrt(sys.inner(dphi, dphi) + dlam**2)
    if gap == 0:
        return None
    return dphi / gap, dlam / gap, gap


def _fold_system(sys, k, phi, lam, v, ell):
    """Residual and Newton matrix of the extended system F(phi, lambda) = 0,
    J v = 0, <ell, v> = 1 in the unknowns (phi, lambda, v).

    phi is a node vector (exactly even on the even sector); v and ell have
    one entry per sector unknown, m of them.  Returns (G, A, J, err): G has
    the blocks (F, J v, <ell, v> - 1) on the sector, A is the (2m+1)-square
    matrix [[J, F_lambda, 0], [F_phiphi v, J_lambda v, J], [0, 0, ell]] with
    F_phiphi v = diag(mu (q-1)(q-2) u^(q-3) v), J the Jacobian (its even block
    on the even sector) and err = max(|F|_inf, |J v|_inf, |<ell, v> - 1|)
    over the full residual.
    """
    F = assemble_residual(phi, lam, sys)
    J = _jacobian(phi, lam, sys, k)
    m = len(J)
    q = sys.params.q
    u = 1.0 + phi[:m]
    Jv = J @ v
    G = np.empty(2 * m + 1)
    G[:m] = F[:m]
    G[m:-1] = Jv
    G[-1] = ell @ v - 1.0
    A = np.zeros((2 * m + 1, 2 * m + 1))
    A[:m, :m] = J
    A[:m, m] = dresidual_dlambda(phi, lam, sys)[:m]
    rows = np.arange(m)
    A[m + rows, rows] = reduction_factor(lam, sys.params) * (q - 1) * (q - 2) * u ** (q - 3) * v
    A[m:-1, m] = ((q - 1) * u ** (q - 2) - 1.0) * v / (1 + 1 / sys.params.delta)
    A[m:-1, m + 1:] = J
    A[-1, m + 1:] = ell
    err = max(np.max(np.abs(F)), np.max(np.abs(Jv)), abs(G[-1]))
    return G, A, J, err


def _solve_fold(branch, i, sigma_tol, sys, lam_min):
    """Newton on the extended system for the candidate pair (a, b) = points
    (i, i + 1), or None (see locate_degenerate for when).

    It starts at a, with v the phi part of the unit tangent at a oriented
    along the chord to b, and ell = v / (v . v).
    """
    k = branch.k
    a, b = branch.points[i], branch.points[i + 1]
    chord = _chord(sys, a, b)
    if chord is None:
        return None
    ref_phi, ref_lam, gap = chord
    N = sys.grid.N
    J = _jacobian(a.phi, a.lam, sys, k)
    m = len(J)
    try:
        tphi, _ = _tangent(sys, a.phi, a.lam, ref_phi, ref_lam, k=k, J=J)
        phi, lam = a.phi, a.lam
        v = tphi[:m]
        ell = v / (v @ v)
        for iterations in range(MAX_ITER):
            G, A, J, err = _fold_system(sys, k, phi, lam, v, ell)
            if err < NEWTON_TOL:
                break
            z = np.linalg.solve(A, -G)
            phi = phi + (z[:m] if m > N else _mirror(z[:m], N))
            lam += z[m]
            v = v + z[m + 1:]
        else:
            return None
    except (ConvergenceError, PositivityError, np.linalg.LinAlgError):
        return None
    star = solution_point(sys, phi, lam, k=k, J=J)
    for end in (a, b):
        dist = _chord(sys, end, star)
        if dist is not None and dist[2] > gap:
            return None
    if abs(star.sigma_min) >= sigma_tol or star.nodal_count != a.nodal_count:
        return None
    F = assemble_residual(star.phi, star.lam, sys)
    dphi_star = sys.grid.d1 @ star.phi
    return DegeneracyReport(
        lambda_star=star.lam,
        phi_star=star.phi,
        sigma_at_star=star.sigma_min,
        nodal_count=star.nodal_count,
        u_min=star.u_min,
        s_bracket=(a.s_coord, b.s_coord),
        residual_norm=float(np.max(np.abs(F))),
        branch_lambda_min=min(lam_min, star.lam),
        crossing_index=i,
        endpoint_derivs=(float(dphi_star[0]), float(dphi_star[-1])),
        newton_iterations=iterations,
    )


def psi_smallness_check(k: int, s_list, sys: DiscreteSystem) -> list:
    """Ratios ||w(s) - s P_{k,n}||_w / |s| for each s in s_list.

    The remainder of the branch parametrization is quadratically small at
    the bifurcation point, so the ratios decay linearly in s.
    """
    p = sys.basis(k)
    out = []
    for s in s_list:
        pt = solve_at_s(k, s, sys)
        out.append(sys.norm(pt.phi - s * p) / abs(s))
    return out
