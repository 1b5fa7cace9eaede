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
point past the located crossing.  Such a trace can run on a coarser system
than the answer needs: in the orthonormal basis prolongation is
zero-padding (``_padded``), so ``refine_degenerate`` pads the located
point's coefficients and kernel with zeros and solves the extended system
again on the finer system, in a few Newton steps, with the checks of a
candidate.

The same prolongation lets a trace treat its system's N as a ceiling:
``trace_branch`` climbs a ladder of sizes, one rung whenever a point fails
the chop test ``collocation.resolved``, and records every point at N, so
the fold search sees one N.  The ``degenerate`` command keeps its coarse
trace instead (see ``cli``).

Every Newton solve runs one damped loop, ``_newton``, converged to
NEWTON_TOL, the tolerance that ``collocation.nodal_count`` also takes as its
trivial-profile floor.  It stops when its residual max-norm fails to fall
from the third iteration on, after MAX_ITER iterations, on a singular
system, or when halving the step MAX_BACKTRACK times keeps u = phi + 1
nonpositive at the rule nodes, which the assembly of the Jacobian at each
trial point checks.  Its callers supply the residual and the
Newton matrix.  Every point comes from the Galerkin residual
F(c, lambda) = 0 of ``collocation`` plus one linear equation in
(c, lambda), solved as a bordered system: the equation holds lambda fixed
(``newton_solve``), the projection onto P_{k,n} (``solve_at_s``) or the
pseudo-arclength equation (``arclength_step``).  A fold is solved for on
the extended system in (c, lambda, v).  The coefficients are
orthonormal coordinates, so inner products, norms and arclength are plain
dot products.  Even k is traced in the even sector: P_{k,n} is even in t,
and so is every point of the branch, so the corrector, the tangent and the
fold solve work on the even modes and their block of the Jacobian (about
half the unknowns), and every recorded profile is exactly even.  Odd k, and
``newton_solve`` without a mode index, solve on all N + 1 modes.

Each trace is strictly sequential, one point after the other; distinct
branches share only immutable grids and basis tables and may run
concurrently, as the ``branch`` command's two directions do in two
processes on two or more CPUs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .collocation import (
    NEWTON_TOL,
    DiscreteSystem,
    SolutionPoint,
    _jacobian_derivatives,
    _modes,
    _parity,
    assemble_jacobian,
    assemble_residual,
    build_grid,
    dresidual_dlambda,
    resolved,
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
    "refine_degenerate",
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
# the bottom rung of a trace's ladder of sizes, and the least coarse N of
# the degenerate command's trace
COARSE_N_MIN = 32


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
    persistent one terminates the branch as a step failure) and an
    ``under-resolved`` marker on each point that the trace's N does not
    resolve (collocation.resolved).
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
    Newton steps on the extended system that located it, and ``tail`` is
    the located point's resolution estimate (see SolutionPoint).  ``coeffs``
    holds the N + 1 coefficients of phi* and ``kernel`` the kernel v of J
    there, in the coefficients of the traced sector, with <ell, v> = 1.
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
    tail: float
    coeffs: np.ndarray
    kernel: np.ndarray


def _solve(A, b):
    """np.linalg.solve(A, b), a singular A raising ConvergenceError."""
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"singular Newton system: {exc}") from exc


def _bordered(J, flam, wrow, wlam):
    """The bordered matrix [[J, flam], [wrow, wlam]]."""
    m = J.shape[0]
    A = np.empty((m + 1, m + 1))
    A[:m, :m] = J
    A[:m, -1] = flam
    A[-1, :m] = wrow
    A[-1, -1] = wlam
    return A


def _newton(sys, k, c, lam, v, residual, matrix, prior=None):
    """Damped Newton on G = residual(c, lam, v, J) = 0 from (c, lam, v), J
    being the Jacobian of the sector of mode k at (c, lam); v holds unknowns
    after lambda, or is None.  Each step solves matrix(c, lam, v, J) z = -G
    and assembles J at the trial point; the step is halved while that
    assembly raises PositivityError (u = phi + 1 not positive at the rule
    nodes).  J is assembled once per iterate and once per rejected trial,
    plus once more at the last point when MAX_ITER iterations run out.
    ``prior``, the previous point of a trace, goes to solution_point.

    Returns (point, J, v, steps) once max|G| < NEWTON_TOL; raises
    PositivityError when the start or the converged u is not positive, and
    ConvergenceError when max|G| fails to fall from iteration 2 on, after
    MAX_ITER iterations, on a singular matrix or when backtracking fails.
    """
    parity = _parity(k)
    m = c.size
    prev = np.inf
    J = assemble_jacobian(c, lam, sys, parity)
    for it in range(MAX_ITER):
        G = residual(c, lam, v, J)
        err = np.max(np.abs(G))
        if it >= 2 and err >= prev:
            raise ConvergenceError(f"residual rose from {prev:.1e} to {err:.1e} at iteration {it}")
        prev = err
        if err < NEWTON_TOL:
            pt = solution_point(sys, c, lam, k=k, J=J, prior=prior)
            if pt.u_min <= 0:
                raise PositivityError(f"u = phi + 1 reaches {pt.u_min} on the grid")
            return pt, J, v, it
        z = _solve(matrix(c, lam, v, J), -G)
        step = 1.0
        for _ in range(MAX_BACKTRACK):
            trial, trial_lam = c + step * z[:m], lam + step * z[m]
            try:
                J = assemble_jacobian(trial, trial_lam, sys, parity)
                break
            except PositivityError:
                step *= 0.5
        else:
            raise ConvergenceError("iterate lost positivity and backtracking failed")
        c, lam = trial, trial_lam
        if v is not None:
            v = v + step * z[m + 1:]
    raise ConvergenceError(f"no convergence after {MAX_ITER} iterations")


def _correct(sys, k, c, lam, wrow, wlam, constraint, prior=None):
    """Newton on F = 0 and g = constraint(c, lam) = 0, g having gradient
    (wrow, wlam), in the coefficients of the sector of mode k.  Returns the
    SolutionPoint and the Jacobian at it; ``prior`` goes to _newton."""
    parity = _parity(k)
    pt, J, _, _ = _newton(
        sys, k, c, lam, None,
        lambda c, lam, v, J: np.append(assemble_residual(c, lam, sys, parity), constraint(c, lam)),
        lambda c, lam, v, J: _bordered(J, dresidual_dlambda(c, lam, sys, parity), wrow, wlam),
        prior,
    )
    return pt, J


def newton_solve(
    c0,
    lam: float,
    sys: DiscreteSystem,
    k: int | None = None,
) -> SolutionPoint:
    """Newton iteration at fixed lambda from the initial coefficients c0.

    c0 holds all N + 1 coefficients; an even mode index k solves on the even
    sector from the even modes of c0.  Returns a SolutionPoint with
    diagnostics populated; raises ConvergenceError when the corrector stalls.
    """
    c = np.asarray(c0, dtype=float)[_modes(_parity(k))]
    pt, _ = _correct(sys, k, c, lam, np.zeros(c.size), 1.0, lambda c, lam: 0.0)
    return pt


def branch_seed(k: int, s0: float, sys: DiscreteSystem) -> SolutionPoint:
    """Tangent predictor at parameter s0 for the branch at (0, lambda_k).

    phi = s0 P_{k,n} and lambda = lambda_k + s0 * dlambda/ds(0); feed it to
    the s-normalized corrector (solve_at_s) to land on the branch.
    """
    if s0 == 0:
        raise ValueError("seed parameter s0 must be nonzero")
    c = s0 * sys.basis(k)[_modes(_parity(k))]
    lam = lambda_k(k, sys.params) + s0 * dlambda_ds0(k, sys.params)
    return solution_point(sys, c, lam, k=k)


def solve_at_s(
    k: int,
    s: float,
    sys: DiscreteSystem,
) -> SolutionPoint:
    """Solve on the branch at projection coordinate s.

    Unknowns are (phi, lambda); the extra equation is the normalization
    <phi, P_{k,n}>_w = s <P_{k,n}, P_{k,n}>_w, which pins the on-branch
    parametrization w(s) = s P_{k,n} + (remainder orthogonal to P_{k,n}).
    The corrector starts from the tangent predictor at s; even k solves on
    the even sector (see the module docstring).
    """
    p = sys.basis(k)[_modes(_parity(k))]
    p2 = p @ p
    lam = lambda_k(k, sys.params) + s * dlambda_ds0(k, sys.params)
    pt, _ = _correct(sys, k, s * p, lam, p, 0.0, lambda c, lam: c @ p - s * p2)
    return pt


def _tangent(sys, c, lam, ref, ref_lam, k=None, J=None):
    """Unit tangent at (c, lam), in the sector's coefficients, oriented
    along the reference (ref, ref_lam).

    J, when given, is the sector's Jacobian at (c, lam).
    """
    parity = _parity(k)
    if J is None:
        J = assemble_jacobian(c, lam, sys, parity)
    flam = dresidual_dlambda(c, lam, sys, parity)
    z = _solve(_bordered(J, flam, ref, ref_lam), np.append(np.zeros(c.size), 1.0))
    tc, tlam = z[:-1], z[-1]
    nrm = np.sqrt(tc @ tc + tlam**2)
    tc, tlam = tc / nrm, tlam / nrm
    if tc @ ref + tlam * ref_lam < 0:
        tc, tlam = -tc, -tlam
    return tc, tlam


def arclength_step(
    current: SolutionPoint,
    tangent: tuple,
    ds: float,
    sys: DiscreteSystem,
    k: int | None = None,
):
    """One pseudo-arclength step of length ds from a converged point.

    The tangent (t_c, t_lambda) holds the coefficients of the sector of mode
    k (the even modes for even k).  The corrector solves F = 0 together with
    the affine constraint <c - c_0, t_c> + (lambda - lambda_0) t_lambda = ds
    to NEWTON_TOL.  The new point is accepted only if its nodal count
    matches the current one; otherwise StepRejected carries the reason
    ``nodal-change``.  A corrector that stalls or loses positivity (u <= 0)
    raises StepRejected with the reason ``step-failure`` and the corrector's
    message, so every accepted point has u > 0.  Returns the pair (point,
    Jacobian of the sector at the point).  ``current`` is the new point's
    prior in solution_point: for even k its ``gap_bounds`` and the Weyl
    bound can spare the spectrum of one parity block.
    """
    tc, tlam = tangent
    c0, lam0 = current.coeffs[_modes(_parity(k))], current.lam
    try:
        pt, J = _correct(
            sys, k, c0 + ds * tc, lam0 + ds * tlam, tc, tlam,
            lambda c, lam: (c - c0) @ tc + (lam - lam0) * tlam - ds,
            prior=current,
        )
    except (ConvergenceError, PositivityError) as exc:
        raise StepRejected("step-failure", str(exc)) from exc
    if pt.nodal_count != current.nodal_count:
        raise StepRejected(
            "nodal-change",
            f"nodal count {pt.nodal_count} != {current.nodal_count}",
        )
    return pt, J


def _padded(c, sys: DiscreteSystem, parity: int = 0) -> np.ndarray:
    """Coefficients c of a sector of a smaller system of the same problem,
    zero-padded to that sector of ``sys``.  The basis is orthonormal, so
    this is the profile itself on the larger system."""
    out = np.zeros(len(range(sys.grid.N + 1)[_modes(parity)]))
    out[: c.size] = c
    return out


def _padded_point(pt: SolutionPoint, sys: DiscreteSystem, k) -> SolutionPoint:
    """A point of mode k's trace, solved on a system of at most sys's N, as
    a point of ``sys``: its coefficients zero-padded, phi and u_min on sys's
    Lobatto nodes, every other field as solved (see SolutionPoint)."""
    if pt.rung == sys.grid.N:
        return pt
    parity = _parity(k)
    coeffs = _padded(pt.coeffs, sys)
    phi = sys.node_values(coeffs[_modes(parity)], parity)
    return replace(pt, phi=phi, coeffs=coeffs, u_min=float(1.0 + phi.min()))


def _rungs(N: int, k: int) -> list:
    """The sizes a trace of mode k climbs to reach N: COARSE_N_MIN * 1.5^i
    below N, each raised to at least k, then N."""
    rungs, r = [], COARSE_N_MIN
    while r < N:
        rungs.append(max(r, k))
        r = r * 3 // 2
    return sorted({r for r in rungs if r < N}) + [N]


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
    diagnostics and the branch keeps a constant nodal count.  ``stop`` is
    called once after each accepted point, after that point's fold and
    sigma-zero events are recorded, so it sees every crossing event exactly
    once.

    The trace climbs a ladder of sizes (``_rungs``) that ends at sys's N
    and solves each point at the size it has reached.  When a point fails
    the chop test (collocation.resolved) below N, the step is taken again
    at the next size, from the previous point and the tangent zero-padded,
    on the same arclength constraint; at N a failing point gets an
    ``under-resolved`` event.  Sizes never fall.  Every point is recorded as
    a point of sys (``_padded_point``), with the size it was solved at as
    its ``rung``.  The first point at a new size has no Weyl bound to carry,
    so its sigma_min evaluates both parity blocks.
    """
    if k < 1:
        raise ValueError(f"mode index must be >= 1, got {k}")
    if direction not in (-1, 1):
        raise ValueError(f"direction must be -1 or +1, got {direction}")
    lam_k = lambda_k(k, sys.params)
    lambda_floor = 1e-3 * lambda_k(1, sys.params)
    branch = Branch(k=k, direction=direction, lambda_origin=lam_k)
    parity = _parity(k)
    modes = _modes(parity)
    rungs = _rungs(sys.grid.N, k)

    def at(N):
        return sys if N == sys.grid.N else DiscreteSystem(build_grid(N), sys.params)

    def record(pt):
        branch.points.append(_padded_point(pt, sys, k))
        if pt.rung == sys.grid.N and not resolved(pt.coeffs):
            branch.events.append((len(branch.points) - 1, "under-resolved"))

    # solve_at_s starts from the tangent predictor at the seed
    rsys = at(rungs.pop(0))
    first = solve_at_s(k, direction * SEED_AMPLITUDE, rsys)
    while rungs and not resolved(first.coeffs):
        rsys = at(rungs.pop(0))
        first = solve_at_s(k, direction * SEED_AMPLITUDE, rsys)
    record(first)

    # reference direction: the secant back to the bifurcation point
    c = first.coeffs[modes]
    tc, tlam = _tangent(rsys, c, first.lam, c, first.lam - lam_k, k=k)
    ds = DS_INIT
    prev_dlam = first.lam - lam_k
    current = first
    while len(branch.points) < max_points:
        try:
            nxt, J = arclength_step(current, (tc, tlam), ds, rsys, k=k)
            while rungs and not resolved(nxt.coeffs):
                rsys = at(rungs.pop(0))
                current = _padded_point(current, rsys, k)
                tc = _padded(tc, rsys, parity)
                nxt, J = arclength_step(current, (tc, tlam), ds, rsys, k=k)
        except StepRejected as exc:
            idx = len(branch.points) - 1
            if exc.reason == "nodal-change":
                branch.events.append((idx, "nodal-change"))
            ds *= 0.5
            if ds < DS_MIN:
                branch.events.append((idx, "step-failure"))
                break
            continue
        idx = len(branch.points)
        dlam = nxt.lam - current.lam
        if prev_dlam != 0 and dlam != 0 and np.sign(dlam) != np.sign(prev_dlam):
            branch.events.append((idx, "fold"))
        prev_dlam = dlam
        if current.sigma_min != 0 and np.sign(nxt.sigma_min) != np.sign(current.sigma_min):
            branch.events.append((idx, "sigma-zero"))
        record(nxt)
        if stop is not None and stop(branch):
            break
        if nxt.lam < lambda_floor:
            branch.events.append((idx, "lambda-floor"))
            break
        tc, tlam = _tangent(rsys, nxt.coeffs[modes], nxt.lam, tc, tlam, k=k, J=J)
        ds = min(ds * 1.3, DS_MAX)
        current = nxt
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
    (c, lambda, v), started from point i, with one ``solution_point`` for
    the diagnostics at the end.  A candidate is skipped when the solve
    stalls or loses positivity, when its point lies farther from either end
    of the pair than the pair's chord length, when |sigma_min| there is not
    below sigma_tol (an absolute target, stricter than any operator
    rescaling since the spectral scale exceeds one), or when its nodal
    count differs from the branch's; a min-magnitude eigenvalue swap, not a
    crossing, is skipped this way.  A caller locating each crossing as the
    trace records it passes the newest pair's index as ``first``, so no
    earlier candidate is solved twice.
    """
    candidates = sorted(
        {idx - 1 for idx, kind in branch.events
         if kind in CROSSING_EVENTS and idx - 1 >= first}
    )
    for i in candidates:
        report = _solve_fold(branch, i, sigma_tol, sys)
        if report is not None:
            return report
    return None


def _chord(a, b):
    """Unit chord from point a to point b in (coefficients, lambda) and its
    length, or None if they coincide."""
    dc = b.coeffs - a.coeffs
    dlam = b.lam - a.lam
    gap = np.sqrt(dc @ dc + dlam**2)
    if gap == 0:
        return None
    return dc / gap, dlam / gap, gap


def _fold_residual(sys, parity, c, lam, v, J, ell):
    """The residual (F, J v, <ell, v> - 1) of the extended system in the
    unknowns (c, lambda, v), J being the Jacobian at (c, lambda)."""
    F = assemble_residual(c, lam, sys, parity)
    return np.concatenate([F, J @ v, [ell @ v - 1.0]])


def _fold_matrix(sys, parity, c, lam, v, J, ell):
    """The (2m+1)-square Newton matrix [[J, F_lambda, 0],
    [(J v)_c, (J v)_lambda, J], [0, 0, ell]] of the extended system."""
    m = len(J)
    A = np.zeros((2 * m + 1, 2 * m + 1))
    A[:m, :m] = J
    A[:m, m] = dresidual_dlambda(c, lam, sys, parity)
    A[m:-1, :m], A[m:-1, m] = _jacobian_derivatives(c, lam, v, sys, parity)
    A[m:-1, m + 1:] = J
    A[-1, m + 1:] = ell
    return A


def _fold_newton(sys, k, c, lam, v):
    """Newton on the extended system from (c, lam, v), with ell = v / (v . v),
    in the coefficients of the sector of mode k.  Returns the located
    SolutionPoint, its kernel v and the number of Newton steps, or None when
    the solve stalls or loses positivity."""
    parity = _parity(k)
    ell = v / (v @ v)
    try:
        pt, _, v, steps = _newton(
            sys, k, c, lam, v,
            lambda c, lam, v, J: _fold_residual(sys, parity, c, lam, v, J, ell),
            lambda c, lam, v, J: _fold_matrix(sys, parity, c, lam, v, J, ell),
        )
    except (ConvergenceError, PositivityError):
        return None
    return pt, v, steps


def _fold_report(branch, i, start, refs, sigma_tol, sys, earlier_steps=0):
    """Solve the extended system from start = (c, lam, v) and report the
    fold for the traced pair (i, i + 1), or None: when the solve stalls or
    loses positivity, its point lies farther from a reference (coefficients,
    lambda) in refs than the pair's chord length, |sigma_min| there is not
    below sigma_tol or its nodal count differs from the pair's.
    earlier_steps is added to its Newton steps."""
    solved = _fold_newton(sys, branch.k, *start)
    if solved is None:
        return None
    star, v, steps = solved
    a, b = branch.points[i], branch.points[i + 1]
    gap = _chord(a, b)[2]
    for rc, rl in refs:
        dc = star.coeffs - rc
        if np.sqrt(dc @ dc + (star.lam - rl) ** 2) > gap:
            return None
    if abs(star.sigma_min) >= sigma_tol or star.nodal_count != a.nodal_count:
        return None
    parity = _parity(branch.k)
    F = assemble_residual(star.coeffs[_modes(parity)], star.lam, sys, parity)
    return DegeneracyReport(
        lambda_star=star.lam,
        phi_star=star.phi,
        sigma_at_star=star.sigma_min,
        nodal_count=star.nodal_count,
        u_min=star.u_min,
        s_bracket=(a.s_coord, b.s_coord),
        residual_norm=float(np.max(np.abs(F))),
        branch_lambda_min=min([p.lam for p in branch.points] + [star.lam]),
        crossing_index=i,
        endpoint_derivs=sys.endpoint_derivatives(star.coeffs),
        newton_iterations=earlier_steps + steps,
        tail=star.tail,
        coeffs=star.coeffs,
        kernel=v,
    )


def _solve_fold(branch, i, sigma_tol, sys):
    """Newton on the extended system for the candidate pair (a, b) = points
    (i, i + 1), or None (see locate_degenerate for when).

    It starts at a, with v the coefficient part of the unit tangent at a
    oriented along the chord to b.
    """
    k = branch.k
    modes = _modes(_parity(k))
    a, b = branch.points[i], branch.points[i + 1]
    chord = _chord(a, b)
    if chord is None:
        return None
    c = a.coeffs[modes]
    try:
        v, _ = _tangent(sys, c, a.lam, chord[0][modes], chord[1], k=k)
    except (ConvergenceError, PositivityError):
        return None
    refs = [(a.coeffs, a.lam), (b.coeffs, b.lam)]
    return _fold_report(branch, i, (c, a.lam, v), refs, sigma_tol, sys)


def refine_degenerate(
    branch: Branch,
    report: DegeneracyReport,
    sigma_tol: float,
    sys: DiscreteSystem,
) -> DegeneracyReport | None:
    """Solve again on the finer system ``sys`` for the degenerate point that
    locate_degenerate reported on ``branch``, traced on a coarser system of
    the same problem; or None.

    Newton on the extended system starts from the report's coefficients and
    kernel v, padded with zeros to the sector of ``sys``, with
    ell = v / (v . v).  The result must pass the checks of a candidate in
    locate_degenerate, with the padded point in place of the traced pair's
    ends.  ``crossing_index``, ``s_bracket`` and ``branch_lambda_min`` come
    from the coarse trace, and ``newton_iterations`` counts both solves.
    """
    parity = _parity(branch.k)
    coarse = _padded(report.coeffs, sys)
    c = coarse[_modes(parity)]
    v = _padded(report.kernel, sys, parity)
    return _fold_report(branch, report.crossing_index, (c, report.lambda_star, v),
                        [(coarse, report.lambda_star)], sigma_tol, sys, report.newton_iterations)


def psi_smallness_check(k: int, s_list, sys: DiscreteSystem) -> list:
    """Ratios ||w(s) - s P_{k,n}||_w / |s| for each s in s_list.

    The remainder of the branch parametrization is quadratically small at
    the bifurcation point, so the ratios decay linearly in s.
    """
    p = sys.basis(k)
    out = []
    for s in s_list:
        pt = solve_at_s(k, s, sys)
        out.append(np.linalg.norm(pt.coeffs - s * p) / abs(s))
    return out
