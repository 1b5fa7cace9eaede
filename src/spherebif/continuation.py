"""Branch tracing and degenerate-solution location.

Nontrivial solution branches leave the trivial family (0, lambda) at each
lambda_k; the kernel direction P_{k,n} and the closed-form slope
dlambda/ds(0) seed the first corrector, and pseudo-arclength continuation
follows the branch through folds.  A solution is degenerate where the
linearization acquires a kernel, i.e. where the smallest-magnitude
eigenvalue of the Jacobian crosses zero; along even-k branches this
happens at the fold in lambda, and bisection in arclength pins it down.
A caller that only wants the degenerate point passes trace_branch a
``stop`` predicate that bisects each crossing as the trace records it, so
the trace ends one point past the located crossing.

Every point comes from one damped Newton corrector on F(phi, lambda) = 0
plus one linear equation in (phi, lambda), solved as a bordered system
and converged on the full residual to NEWTON_TOL, the tolerance that
``collocation.nodal_count`` also takes as its trivial-profile floor.
The linear equation holds lambda fixed (``newton_solve``), the
projection onto P_{k,n} (``solve_at_s``) or the pseudo-arclength equation
(``arclength_step``).  Even k is traced in the even sector: P_{k,n} is
even in t, and so is every point of the branch, so the corrector, the
tangent and the bisection solve on the even block of the Jacobian (about
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
from .model import PositivityError, dlambda_ds0, lambda_k

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
# arclength half-steps per candidate crossing in locate_degenerate
MAX_BISECT = 80
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

    ``s_bracket`` is the final bisection bracket in the projection
    coordinate s; ``branch_lambda_min`` is the minimum of lambda over the
    traced points and the located one (a trace stopped at the crossing
    ends one point past it), so the relation between the eigenvalue
    crossing and the minimal-lambda point stays observable.
    ``endpoint_derivs`` reports phi'(+1), phi'(-1) of the profile.
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
    at a ``fold`` or ``sigma-zero`` event of the trace; bisection by at
    most MAX_BISECT half-steps in arclength, each corrected to NEWTON_TOL
    like a trace step, then drives |sigma_min| below sigma_tol (an
    absolute target, stricter than any operator rescaling since the
    spectral scale exceeds one).  A candidate whose bracket collapses
    without the eigenvalue vanishing (a min-magnitude eigenvalue swap, not
    a crossing) is skipped.  A caller bisecting each crossing as the trace
    records it passes the newest pair's index as ``first``, so no earlier
    candidate is bisected twice.
    """
    pts = branch.points
    lam_min = min(p.lam for p in pts)
    candidates = sorted(
        {idx - 1 for idx, kind in branch.events
         if kind in CROSSING_EVENTS and idx - 1 >= first}
    )
    for i in candidates:
        report = _bisect_candidate(branch, i, sigma_tol, sys, lam_min)
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


def _bisect_candidate(branch, i, sigma_tol, sys, lam_min):
    k = branch.k
    a, b = branch.points[i], branch.points[i + 1]
    chord = _chord(sys, a, b)
    # the tangent at the lower end changes only when that end moves
    tangent, J_a = None, None
    for _ in range(MAX_BISECT):
        if chord is None:
            return None
        ref_phi, ref_lam, gap = chord
        collapse = 1e-13 * (1 + abs(a.lam))
        if gap < collapse:
            return None
        if tangent is None:
            try:
                tangent = _tangent(sys, a.phi, a.lam, ref_phi, ref_lam, k=k, J=J_a)
            except ConvergenceError:
                return None
        # a corrector that fails on the half-step may succeed on a shorter one
        step = gap / 2
        while True:
            try:
                mid, J_mid = arclength_step(a, tangent, step, sys, k=k)
                break
            except StepRejected:
                step /= 2
                if step < collapse:
                    return None
        if abs(mid.sigma_min) < sigma_tol:
            F = assemble_residual(mid.phi, mid.lam, sys)
            dphi_star = sys.grid.d1 @ mid.phi
            return DegeneracyReport(
                lambda_star=mid.lam,
                phi_star=mid.phi,
                sigma_at_star=mid.sigma_min,
                nodal_count=mid.nodal_count,
                u_min=mid.u_min,
                s_bracket=(a.s_coord, b.s_coord),
                residual_norm=float(np.max(np.abs(F))),
                branch_lambda_min=min(lam_min, mid.lam),
                crossing_index=i,
                endpoint_derivs=(float(dphi_star[0]), float(dphi_star[-1])),
            )
        if np.sign(mid.sigma_min) == np.sign(a.sigma_min):
            a, J_a, tangent = mid, J_mid, None
            # a half-step in arclength need not halve the chord; measure it
            chord = _chord(sys, a, b)
        else:
            b = mid
            chord = ref_phi, ref_lam, step
    return None


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
