"""Branch tracing and degenerate-solution location.

Nontrivial solution branches leave the trivial family (0, lambda) at each
lambda_k; the kernel direction P_{k,n} and the closed-form slope
dlambda/ds(0) seed the first corrector, and pseudo-arclength continuation
follows the branch through folds.  A solution is degenerate where the
linearization acquires a kernel, i.e. where the smallest-magnitude
eigenvalue of the Jacobian crosses zero; along even-k branches this
happens at the fold in lambda.  A crossing is solved for directly by
Newton on the minimally extended system of Moore and Spence (SIAM J.
Numer. Anal. 17, 1980), F(phi, lambda) = 0, J v = 0, <ell, v> = 1, started
from the traced point just before it.

In the orthonormal basis prolongation is zero-padding (``_padded``), so a
trace can treat its system's N as a ceiling: ``trace_branch`` climbs a
ladder of sizes, one rung whenever a point fails the chop test
``collocation.resolved`` at the trace's tolerance, and records every point
at N.  ``find_degenerate``, the ``degenerate`` command's search, runs one
such trace at the looser tolerance PATH_TOL, since the path only has to
bracket each crossing and so stays on low rungs, with ``locate_degenerate``
as its ``stop`` predicate: each time the trace records a crossing event,
the newest pair is solved for on the system of the rung it reached, and a
fold located below N is solved for again at N from its coefficients and
kernel padded with zeros, in a few Newton steps and with the same checks.
A pair that fails them lets the trace go on; the first that passes ends
it, one point past the crossing.

Every Newton solve runs one damped loop, ``_newton``, converged to
NEWTON_TOL, the tolerance that ``collocation.nodal_count`` also takes as its
trivial-profile floor.  It stops when its residual max-norm fails to fall
from the third iteration on, after MAX_ITER iterations, on a singular
system, or when halving the step MAX_BACKTRACK times keeps u = phi + 1
nonpositive at the rule nodes.  One pass over u per iterate checks this and
gives J, F and F_lambda there (collocation.Linearization), from which its
callers build the residual and the Newton matrix.  Every point comes from
the Galerkin residual F(c, lambda) = 0 of ``collocation`` plus one linear
equation in (c, lambda), solved as a bordered system: the equation holds
lambda fixed (``newton_solve``), the projection onto P_{k,n}
(``solve_at_s``) or the pseudo-arclength equation (``arclength_step``).  A
fold is solved for on the extended system in (c, lambda, v).  The
coefficients are orthonormal coordinates, so a trace measures every length
(its arclength, its tangent's norm and orientation, the fold search's chord
test) in the inner product c.c' + w lambda lambda', w being its weight of
lambda, as in Keller's pseudo-arclength and AUTO's THL/THU.
``find_degenerate`` takes
w = k(k+n-1)/lambda_k^2 (``model.lambda_weight``): 1 - lambda*/lambda_k is
about C/k, so in units of lambda_k/sqrt(k(k+n-1)) the fold is O(1) away for
every (n, q, k, delta), while lambda_k is unbounded as q -> 2 or delta -> 0.
``branch`` keeps w = 1: weighted, its 400 points would run far past where
N resolves the profile (to lambda ~ 470 for k=2 at N=192).  Even k is
traced in the even sector: P_{k,n} is even in t,
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

# assemble_residual and dresidual_dlambda stay for perfbench's tracer to patch
from .collocation import (
    CHOP_TOL,
    NEWTON_TOL,
    DiscreteSystem,
    SolutionPoint,
    _chop_window_end,
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
from .model import PositivityError, dlambda_ds0, lambda_k, lambda_weight

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
    "find_degenerate",
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
# the bottom rung of a trace's ladder of sizes
BOTTOM_RUNG = 32
# the chop tolerance of find_degenerate's trace, whose points only bracket
# the crossings.  On 69 problems (n = 2..5, k <= 64, N <= 320) 1e-5 keeps the
# folds, nodal counts and crossing indices of traces at CHOP_TOL; 1e-4 moved
# three crossing indices and 1e-3 lost six folds.
PATH_TOL = 1e-5


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
    resolve (collocation.resolved).  ``weight`` is trace_branch's weight of lambda.
    """

    k: int
    direction: int
    points: list = field(default_factory=list)
    events: list = field(default_factory=list)
    weight: float = 1.0


@dataclass(frozen=True)
class DegeneracyReport:
    """A located degenerate point with diagnostics.

    ``point`` is the located SolutionPoint: phi*, lambda* and their
    diagnostics, ``rung`` being the N it was solved at.  ``kernel`` holds
    the kernel v of J there, in the coefficients of the traced sector, with
    <ell, v> = 1.  ``s_bracket`` holds the projection coordinates s of the
    traced pair (crossing_index, crossing_index + 1) whose crossing was
    located; ``branch_lambda_min`` is the minimum of lambda over the traced
    points and the located one (a trace stopped at the crossing ends one
    point past it), so the relation between the eigenvalue crossing and the
    minimal-lambda point stays observable.  ``endpoint_derivs`` reports
    phi'(+1), phi'(-1) of the profile, and ``newton_iterations`` counts the
    Newton steps on the extended system that located it, on a lower rung
    and at N together.  ``rung_point`` is the SolutionPoint of the fold on
    the rung the traced pair reached when that rung is below N (see
    locate_degenerate), and None when the fold was solved for at N alone.
    """

    point: SolutionPoint
    kernel: np.ndarray
    s_bracket: tuple
    residual_norm: float
    branch_lambda_min: float
    crossing_index: int
    endpoint_derivs: tuple
    newton_iterations: int
    rung_point: SolutionPoint | None = None


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
    """Damped Newton on G = residual(c, lam, v, lin) = 0 from (c, lam, v);
    v holds unknowns after lambda, or is None.  lin, the sector's J, F and
    F_lambda at (c, lam) for mode k with the diagonals of solution_point,
    comes from one pass over u = phi + 1, assemble_jacobian(parts=True).
    Each step solves matrix(c, lam, v, lin) z = -G and assembles lin at the
    trial point, halving the step while that raises PositivityError (u not
    positive): once per iterate, once per rejected trial, and once more
    when MAX_ITER iterations run out.  ``prior`` goes to solution_point.

    Returns (point, lin, v, steps) once max|G| < NEWTON_TOL; raises
    PositivityError when the start or the converged u is not positive, and
    ConvergenceError when max|G| fails to fall from iteration 2 on, after
    MAX_ITER iterations, on a singular matrix or when backtracking fails.
    """
    parity = _parity(k)
    m = c.size
    prev = np.inf
    lin = assemble_jacobian(c, lam, sys, parity, parts=True)
    for it in range(MAX_ITER):
        G = residual(c, lam, v, lin)
        err = np.max(np.abs(G))
        if it >= 2 and err >= prev:
            raise ConvergenceError(f"residual rose from {prev:.1e} to {err:.1e} at iteration {it}")
        prev = err
        if err < NEWTON_TOL:
            pt = solution_point(sys, c, lam, k=k, lin=lin, prior=prior)
            if pt.u_min <= 0:
                raise PositivityError(f"u = phi + 1 reaches {pt.u_min} on the grid")
            return pt, lin, v, it
        z = _solve(matrix(c, lam, v, lin), -G)
        step = 1.0
        for _ in range(MAX_BACKTRACK):
            trial, trial_lam = c + step * z[:m], lam + step * z[m]
            try:
                lin = assemble_jacobian(trial, trial_lam, sys, parity, parts=True)
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
    SolutionPoint and the Linearization at it; ``prior`` goes to _newton."""
    pt, lin, _, _ = _newton(
        sys, k, c, lam, None,
        lambda c, lam, v, lin: np.append(lin.F, constraint(c, lam)),
        lambda c, lam, v, lin: _bordered(lin.J, lin.F_lam, wrow, wlam),
        prior,
    )
    return pt, lin


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


def _tangent(sys, c, lam, ref, ref_lam, k=None, lin=None, weight=1.0):
    """Unit tangent at (c, lam) in the sector's coefficients and the inner
    product c.c' + weight lam lam', oriented along (ref, ref_lam): its
    bordered row (ref, weight ref_lam) has the right-hand side 1.

    lin, when given, is the sector's Linearization at (c, lam) for mode k.
    """
    if lin is None:
        lin = assemble_jacobian(c, lam, sys, _parity(k), parts=True)
    z = _solve(_bordered(lin.J, lin.F_lam, ref, weight * ref_lam), np.append(np.zeros(c.size), 1.0))
    tc, tlam = z[:-1], z[-1]
    nrm = np.sqrt(tc @ tc + weight * tlam**2)
    return tc / nrm, tlam / nrm


def arclength_step(
    current: SolutionPoint,
    tangent: tuple,
    ds: float,
    sys: DiscreteSystem,
    k: int | None = None,
    weight: float = 1.0,
):
    """One pseudo-arclength step of length ds from a converged point.

    The tangent (t_c, t_lambda) holds the coefficients of the sector of mode
    k (the even modes for even k).  The corrector solves F = 0 together with
    the affine constraint <c - c_0, t_c> + weight (lambda - lambda_0)
    t_lambda = ds to NEWTON_TOL.  The new point is accepted only if its
    nodal count matches the current one; otherwise StepRejected carries the
    reason ``nodal-change``.  A corrector that stalls or loses positivity
    (u <= 0) raises StepRejected with the reason ``step-failure`` and the
    corrector's message, so every accepted point has u > 0.  Returns the
    pair (point, collocation.Linearization of the sector at the point), the
    latter for the next tangent.  ``current`` is the
    new point's prior in solution_point: for even k its ``gap_bounds`` and
    the Weyl bound can spare the spectrum of one parity block.
    """
    tc, tlam = tangent
    c0, lam0 = current.coeffs[_modes(_parity(k))], current.lam
    try:
        pt, lin = _correct(
            sys, k, c0 + ds * tc, lam0 + ds * tlam, tc, weight * tlam,
            lambda c, lam: (c - c0) @ tc + weight * (lam - lam0) * tlam - ds,
            prior=current,
        )
    except (ConvergenceError, PositivityError) as exc:
        raise StepRejected("step-failure", str(exc)) from exc
    if pt.nodal_count != current.nodal_count:
        raise StepRejected(
            "nodal-change",
            f"nodal count {pt.nodal_count} != {current.nodal_count}",
        )
    return pt, lin


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
    """The sizes a trace of mode k climbs to reach N: BOTTOM_RUNG * 1.5^i
    below N, then N.  A size whose chop window (collocation.resolved) ends
    at or before mode k, the seed's largest coefficient, is left out: no
    seed passes the chop test there."""
    rungs, r = [], BOTTOM_RUNG
    while r < N:
        if _chop_window_end(r + 1) > k:
            rungs.append(r)
        r = r * 3 // 2
    return rungs + [N]


def _system(sys: DiscreteSystem, N: int) -> DiscreteSystem:
    """The system of sys's problem at size N."""
    return sys if N == sys.grid.N else DiscreteSystem(build_grid(N), sys.params)


def trace_branch(
    k: int,
    direction: int,
    sys: DiscreteSystem,
    max_points: int = 400,
    stop: Callable[[Branch], bool] | None = None,
    tol: float = CHOP_TOL,
    weight: float = 1.0,
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
    once.  Lengths are in the inner product c.c' + weight lambda lambda'.

    The trace climbs a ladder of sizes (``_rungs``) that ends at sys's N
    and solves each point at the size it has reached.  When a point fails
    the chop test (collocation.resolved) at the relative tolerance ``tol``
    below N, the step is taken again at the next size, from the previous
    point and the tangent zero-padded, on the same arclength constraint; at
    N a point that fails it at CHOP_TOL gets an ``under-resolved`` event.
    Sizes never fall.  Every point is recorded as a point of sys
    (``_padded_point``), with the size it was solved at as its ``rung``.
    The first point at a new size has no Weyl bound to carry, so its
    sigma_min evaluates both parity blocks.
    """
    if k < 1:
        raise ValueError(f"mode index must be >= 1, got {k}")
    if direction not in (-1, 1):
        raise ValueError(f"direction must be -1 or +1, got {direction}")
    lam_k = lambda_k(k, sys.params)
    lambda_floor = 1e-3 * lambda_k(1, sys.params)
    branch = Branch(k=k, direction=direction, weight=weight)
    parity = _parity(k)
    modes = _modes(parity)
    rungs = _rungs(sys.grid.N, k)

    def record(pt):
        branch.points.append(_padded_point(pt, sys, k))
        if pt.rung == sys.grid.N and not resolved(pt.coeffs):
            branch.events.append((len(branch.points) - 1, "under-resolved"))

    # solve_at_s starts from the tangent predictor at the seed
    rsys = _system(sys, rungs.pop(0))
    first = solve_at_s(k, direction * SEED_AMPLITUDE, rsys)
    while rungs and not resolved(first.coeffs, tol):
        rsys = _system(sys, rungs.pop(0))
        first = solve_at_s(k, direction * SEED_AMPLITUDE, rsys)
    record(first)

    # reference direction: the secant back to the bifurcation point
    c = first.coeffs[modes]
    tc, tlam = _tangent(rsys, c, first.lam, c, first.lam - lam_k, k=k, weight=weight)
    ds = DS_INIT
    prev_dlam = first.lam - lam_k
    current = first
    while len(branch.points) < max_points:
        try:
            nxt, lin = arclength_step(current, (tc, tlam), ds, rsys, k=k, weight=weight)
            while rungs and not resolved(nxt.coeffs, tol):
                rsys = _system(sys, rungs.pop(0))
                current = _padded_point(current, rsys, k)
                tc = _padded(tc, rsys, parity)
                nxt, lin = arclength_step(current, (tc, tlam), ds, rsys, k=k, weight=weight)
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
        tc, tlam = _tangent(rsys, nxt.coeffs[modes], nxt.lam, tc, tlam, lin=lin, weight=weight)
        ds = min(ds * 1.3, DS_MAX)
        current = nxt
    return branch


def locate_degenerate(
    branch: Branch,
    sigma_tol: float,
    sys: DiscreteSystem,
) -> DegeneracyReport | None:
    """The degenerate point of a trace's newest pair, at sys's N, or None.

    The pair (a, b) is the branch's last two points; it is solved for only
    when b carries a ``fold`` or ``sigma-zero`` event, as it does when
    trace_branch offers the branch to its ``stop`` predicate right after
    recording b.  Newton on the extended system F = 0, J v = 0, <ell, v> = 1
    in (c, lambda, v) runs on the system of the rung b was solved at (sys
    itself when that is sys's N), from a's coefficients truncated to that
    rung, with v the coefficient part of the unit tangent at a oriented
    along the chord to b.  A fold located below N is solved for again on
    sys, from its coefficients and kernel padded with zeros, in a few Newton
    steps; ``rung_point`` keeps the rung's solution.  A solve fails the pair
    when it stalls or loses positivity, when its point lies farther from
    either end of the pair (at N, from the padded rung fold) than the pair's
    chord length, when |sigma_min| there is not below sigma_tol (an absolute
    target, stricter than any operator rescaling since the spectral scale
    exceeds one), or when its nodal count differs from the branch's; a
    min-magnitude eigenvalue swap, not a crossing, fails this way.
    """
    last = len(branch.points) - 1
    if not any(idx == last and kind in CROSSING_EVENTS for idx, kind in branch.events):
        return None
    a, b = branch.points[-2:]
    dc, dlam = b.coeffs - a.coeffs, b.lam - a.lam
    w = branch.weight
    gap = np.sqrt(dc @ dc + w * dlam**2)  # the pair's chord length
    parity = _parity(branch.k)
    modes = _modes(parity)
    rsys = _system(sys, b.rung)
    rung = slice(b.rung + 1)
    c = a.coeffs[rung][modes]
    try:
        v, _ = _tangent(rsys, c, a.lam, (dc / gap)[rung][modes], dlam / gap, k=branch.k, weight=w)
    except (ConvergenceError, PositivityError):
        return None
    refs = [(a.coeffs[rung], a.lam), (b.coeffs[rung], b.lam)]
    found = _fold_report(branch, rsys, (c, a.lam, v), refs, gap, sigma_tol)
    if found is None or rsys is sys:
        return found
    star = found.point
    padded = _padded(star.coeffs, sys)
    start = (padded[modes], star.lam, _padded(found.kernel, sys, parity))
    report = _fold_report(branch, sys, start, [(padded, star.lam)], gap, sigma_tol,
                          found.newton_iterations)
    return None if report is None else replace(report, rung_point=star)


def _fold_report(branch, sys, start, refs, gap, sigma_tol, earlier_steps=0):
    """Solve the extended system on sys from start = (c, lam, v), with
    ell = v / (v . v), and report the fold for the branch's newest pair, or
    None: when the solve stalls or loses positivity, its point lies farther
    from a reference (coefficients, lambda) in refs than the pair's chord
    length gap, |sigma_min| there is not below sigma_tol or its nodal count
    differs from the pair's.  earlier_steps is added to its Newton steps."""
    parity = _parity(branch.k)
    c, lam, v = start
    m = c.size
    ell = v / (v @ v)

    def residual(c, lam, v, lin):
        return np.concatenate([lin.F, lin.J @ v, [ell @ v - 1.0]])

    def matrix(c, lam, v, lin):
        # [[J, F_lambda, 0], [(J v)_c, (J v)_lambda, J], [0, 0, ell]]
        A = np.zeros((2 * m + 1, 2 * m + 1))
        A[:m, :m] = A[m:-1, m + 1:] = lin.J
        A[:m, m] = lin.F_lam
        A[m:-1, :m], A[m:-1, m] = _jacobian_derivatives(c, lam, v, sys, parity)
        A[-1, m + 1:] = ell
        return A

    try:
        star, lin, v, steps = _newton(sys, branch.k, c, lam, v, residual, matrix)
    except (ConvergenceError, PositivityError):
        return None
    a, b = branch.points[-2:]
    for rc, rl in refs:
        dc = star.coeffs - rc
        if np.sqrt(dc @ dc + branch.weight * (star.lam - rl) ** 2) > gap:
            return None
    if abs(star.sigma_min) >= sigma_tol or star.nodal_count != a.nodal_count:
        return None
    return DegeneracyReport(
        point=star,
        kernel=v,
        s_bracket=(a.s_coord, b.s_coord),
        residual_norm=float(np.max(np.abs(lin.F))),
        branch_lambda_min=min([p.lam for p in branch.points] + [star.lam]),
        crossing_index=len(branch.points) - 2,
        endpoint_derivs=sys.endpoint_derivatives(star.coeffs),
        newton_iterations=earlier_steps + steps,
    )


def find_degenerate(k: int, sys: DiscreteSystem, sigma_tol: float) -> tuple:
    """(report, trace): D_k^+ traced once at PATH_TOL, with locate_degenerate
    as the trace's ``stop`` predicate, and the report at sys's N of the fold
    that stopped it, or None when the trace ended without one.  A
    ConvergenceError of the trace propagates."""
    found = [None]

    def located(branch) -> bool:
        found[0] = locate_degenerate(branch, sigma_tol, sys)
        return found[0] is not None

    trace = trace_branch(k, 1, sys, stop=located, tol=PATH_TOL,
                         weight=lambda_weight(k, sys.params))
    return found[0], trace
