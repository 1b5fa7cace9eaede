"""Tests for branch tracing and degeneracy location."""

import dataclasses
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from oracles import endpoint_residual

import spherebif.collocation as collocation
import spherebif.continuation as continuation
from spherebif.collocation import (
    DiscreteSystem,
    assemble_jacobian,
    assemble_residual,
    build_grid,
    interpolate,
    resolved,
    sigma_min,
)
from spherebif.continuation import (
    ConvergenceError,
    StepRejected,
    arclength_step,
    branch_seed,
    find_degenerate,
    locate_degenerate,
    newton_solve,
    solve_at_s,
    trace_branch,
)
from spherebif.gegenbauer import gegenbauer_eval
from spherebif.model import ModelParams, PositivityError, dlambda_ds0, lambda_k, lambda_weight


def _crossings(branch):
    """The events of a branch but its under-resolved marks."""
    return [event for event in branch.events if event[1] != "under-resolved"]


def _cut(branch, n):
    """The first n points of a branch and their events: the branch as its
    stop predicate saw it right after point n - 1 was recorded."""
    return continuation.Branch(branch.k, branch.direction, branch.points[:n],
                               [event for event in branch.events if event[0] < n])


def _assert_under_resolved_marks(branch):
    """Exactly the points that the branch's N does not resolve are marked."""
    marked = [idx for idx, kind in branch.events if kind == "under-resolved"]
    assert marked == [i for i, pt in enumerate(branch.points) if not resolved(pt.coeffs)]


class TestNewton:
    def test_trivial_exact(self, system48):
        for lam in (0.5, 4.0, 30.0):
            pt = newton_solve(np.zeros(49), lam, system48)
            assert np.max(np.abs(pt.phi)) == 0.0
            assert pt.nodal_count == 0
            assert pt.u_min == 1.0
            assert np.max(np.abs(assemble_residual(pt.phi, lam, system48))) == 0.0

    def test_converges_to_nontrivial_branch_point(self, system48, params):
        # just below lambda_2 the branch passes at s ~ 0.03; a start beyond
        # the trivial solution's Newton basin lands on it
        lam = lambda_k(2, params) - 0.1
        pt = newton_solve(0.05 * system48.basis(2), lam, system48, k=2)
        assert np.max(np.abs(pt.phi)) > 1e-3
        assert pt.nodal_count == 2
        assert pt.u_min > 0
        assert pt.s_coord == pytest.approx(0.0303, rel=0.05)

    def test_no_convergence_error(self, system48, monkeypatch):
        monkeypatch.setattr(continuation, "MAX_ITER", 3)
        with pytest.raises(ConvergenceError):
            newton_solve(0.5 * system48.basis(2), 8.0, system48)

    def test_rejects_nonpositive_start(self, system48):
        phi0 = np.full(49, -1.5)
        with pytest.raises(PositivityError):
            newton_solve(phi0, 2.0, system48)

    @pytest.mark.parametrize("k", [2, None])
    def test_lambda_stays_fixed(self, system48, params, k):
        # the corrector carries lambda as an unknown whose update is pinned
        # to zero; the returned point must keep the requested value exactly
        lam = lambda_k(2, params) - 0.1
        pt = newton_solve(0.05 * system48.basis(2), lam, system48, k=k)
        assert pt.lam == lam
        assert np.max(np.abs(assemble_residual(pt.coeffs, pt.lam, system48))) < 1e-10


class TestSeeding:
    def test_predictor_values(self, system48, params):
        seed = branch_seed(2, 0.01, system48)
        assert_allclose(seed.coeffs, 0.01 * system48.basis(2), atol=1e-15)
        assert_allclose(seed.phi, 0.01 * gegenbauer_eval(2, 2, system48.grid.nodes), atol=1e-15)
        assert seed.lam == pytest.approx(12 - 0.01 * 24 / 7, rel=1e-12)

    def test_odd_mode_flat_predictor(self, system48, params):
        seed = branch_seed(3, 0.02, system48)
        assert seed.lam == pytest.approx(lambda_k(3, params), rel=1e-12)

    def test_sign_flip(self, system48):
        plus = branch_seed(2, 0.01, system48)
        minus = branch_seed(2, -0.01, system48)
        assert_allclose(minus.phi, -plus.phi, atol=1e-15)

    def test_zero_seed_rejected(self, system48):
        with pytest.raises(ValueError):
            branch_seed(2, 0.0, system48)


class TestSolveAtS:
    def test_lands_on_branch(self, system48):
        pt = solve_at_s(2, 0.05, system48)
        assert pt.s_coord == pytest.approx(0.05, abs=1e-10)
        assert pt.nodal_count == 2
        assert np.max(np.abs(assemble_residual(pt.coeffs, pt.lam, system48))) < 1e-10

    def test_even_profile_symmetric(self, system48):
        # grid nodes are symmetric, so reversal realizes t -> -t
        pt = solve_at_s(2, 0.2, system48)
        assert np.max(np.abs(pt.phi - pt.phi[::-1])) < 1e-12

    def test_no_convergence_error(self, system48, monkeypatch):
        monkeypatch.setattr(continuation, "MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            solve_at_s(2, 0.5, system48)

    def test_odd_branch_reflection(self, system48):
        plus = solve_at_s(1, 0.15, system48)
        minus = solve_at_s(1, -0.15, system48)
        assert np.max(np.abs(minus.phi - plus.phi[::-1])) < 1e-11
        assert minus.lam == pytest.approx(plus.lam, rel=1e-12)


class TestArclengthStep:
    def test_along_trivial_branch(self, system48):
        triv = newton_solve(np.zeros(49), 5.0, system48)
        nxt, _ = arclength_step(triv, (np.zeros(49), 1.0), 0.25, system48)
        assert nxt.lam == pytest.approx(5.25, rel=1e-12)
        assert np.max(np.abs(nxt.phi)) < 1e-12

    def test_stalled_corrector_is_a_step_failure(self, system48, monkeypatch):
        triv = newton_solve(np.zeros(49), 5.0, system48)
        tangent = (system48.basis(2) / np.linalg.norm(system48.basis(2)), 0.0)
        monkeypatch.setattr(continuation, "MAX_ITER", 1)
        with pytest.raises(StepRejected) as info:
            arclength_step(triv, tangent, 0.3, system48)
        assert info.value.reason == "step-failure"

    @staticmethod
    def _p6_step(system48, monkeypatch):
        """A step of ds = 0.3 along P_6 off the trivial branch, which the
        corrector rejects, with every continuation.assemble_jacobian call
        recorded as (c, lam, assembled).  Returns the rejection's message
        and the calls."""
        triv = newton_solve(np.zeros(49), 5.0, system48)
        tangent = (system48.basis(6) / np.linalg.norm(system48.basis(6)), 0.0)
        calls = []

        def recorder(c, lam, sys, parity=0, parts=False):
            try:
                lin = assemble_jacobian(c, lam, sys, parity, parts=parts)
            except PositivityError:
                calls.append((np.array(c), lam, False))
                raise
            calls.append((np.array(c), lam, True))
            return lin

        monkeypatch.setattr(continuation, "assemble_jacobian", recorder)
        with pytest.raises(StepRejected) as info:
            arclength_step(triv, tangent, 0.3, system48)
        assert info.value.reason == "step-failure"
        return str(info.value), calls

    def test_rising_residual_is_a_step_failure(self, system48, monkeypatch):
        # the corrector gives up at the first rise of its residual, not
        # after MAX_ITER iterations, and the rejection says why
        message, calls = self._p6_step(system48, monkeypatch)
        assert re.fullmatch(r"residual rose from \S+ to \S+ at iteration 2", message)
        # positivity is decided by assembling J at each trial point: a
        # rejected trial costs one call, and the J of an accepted one is the
        # next iterate's, assembled once.  Iterates 0, 1 and 2; each of the
        # two steps is halved once.
        assert [ok for _, _, ok in calls] == [True, False, True, False, True]
        for base, rejected, accepted in (calls[0:3], calls[2:5]):
            assert_allclose(rejected[0] - base[0], 2 * (accepted[0] - base[0]), rtol=1e-12, atol=1e-15)
            assert rejected[1] - base[1] == pytest.approx(2 * (accepted[1] - base[1]), rel=1e-12, abs=1e-15)

    def test_failed_backtracking_is_a_step_failure(self, system48, monkeypatch):
        # the full first step makes u nonpositive at a rule node; with one
        # try per step the corrector cannot halve it and gives up
        monkeypatch.setattr(continuation, "MAX_BACKTRACK", 1)
        message, calls = self._p6_step(system48, monkeypatch)
        assert message == "iterate lost positivity and backtracking failed"
        # the start's J, then the one rejected trial
        assert [ok for _, _, ok in calls] == [True, False]

    def test_landing_on_another_nodal_count_is_a_nodal_change(self, system48):
        triv = newton_solve(np.zeros(49), 5.0, system48)
        claimed = dataclasses.replace(triv, nodal_count=2)
        with pytest.raises(StepRejected) as info:
            arclength_step(claimed, (np.zeros(49), 1.0), 0.25, system48)
        assert info.value.reason == "nodal-change"

    def test_nonpositive_predictor_is_a_step_failure(self, system48):
        triv = newton_solve(np.zeros(49), 5.0, system48)
        with pytest.raises(StepRejected) as info:
            arclength_step(triv, (-np.ones(49), 0.0), 2.0, system48)
        assert info.value.reason == "step-failure"

    def test_lambda_decreases_off_even_seed(self, system48):
        branch = trace_branch(2, 1, system48, max_points=6)
        lams = [pt.lam for pt in branch.points]
        assert lams[1] < lams[0] < lambda_k(2, system48.params)


class TestTraceBranch:
    def test_even_slope_matches_closed_form(self, system48, params):
        branch = trace_branch(2, 1, system48, max_points=3)
        p0, p1 = branch.points[0], branch.points[1]
        secant = (p1.lam - p0.lam) / (p1.s_coord - p0.s_coord)
        assert secant == pytest.approx(dlambda_ds0(2, params), rel=0.10)

    def test_odd_centered_slope_vanishes(self, system48):
        plus = solve_at_s(1, 2e-3, system48)
        minus = solve_at_s(1, -2e-3, system48)
        assert abs(plus.lam - minus.lam) / 4e-3 < 1e-3

    def test_nodal_constancy(self, system48):
        for k in (1, 2):
            branch = trace_branch(k, 1, system48, max_points=40)
            assert all(pt.nodal_count == k for pt in branch.points)

    def test_monotone_arclength_coordinate(self, system48):
        branch = trace_branch(2, 1, system48, max_points=25)
        # lambda initially decreases toward the fold
        lams = [pt.lam for pt in branch.points[:10]]
        assert np.all(np.diff(lams) < 0)

    def test_direction_validation(self, system48):
        with pytest.raises(ValueError):
            trace_branch(2, 0, system48)
        with pytest.raises(ValueError):
            trace_branch(0, 1, system48)

    def test_minus_direction(self, system48):
        branch = trace_branch(2, -1, system48, max_points=5)
        assert all(pt.s_coord < 0 for pt in branch.points)
        # on D_2^- lambda increases off the seed (transcritical slope)
        assert branch.points[1].lam > branch.points[0].lam > lambda_k(
            2, system48.params
        )


@pytest.fixture(scope="module")
def fold_report(system48):
    """(trace, report) of the degenerate command's search for k = 2 at N = 48."""
    report, trace = find_degenerate(2, system48, 1e-6)
    return trace, report


class TestDegeneracy:
    def test_report_invariants(self, fold_report, system48, params):
        branch, report = fold_report
        assert report is not None
        assert report.point.lam < lambda_k(2, params)
        assert abs(report.point.sigma_min) < 1e-6
        assert report.point.u_min > 0
        assert report.point.nodal_count == 2
        assert report.residual_norm < 1e-10

    def test_independent_eigendecomposition(self, fold_report, system48):
        # the full Jacobian at the reported profile, rebuilt from its node values
        _, report = fold_report
        c = system48.coefficients(lambda t: interpolate(system48.grid, report.point.phi, t))
        J = assemble_jacobian(c, report.point.lam, system48)
        ev = np.linalg.eigvals(J)
        assert np.min(np.abs(ev)) < 1e-6

    def test_endpoint_conditions_hold(self, fold_report, params):
        # no boundary rows: the regular limits at t = +/-1 of the model hold
        # for the Galerkin solution to its spectral accuracy
        _, report = fold_report
        ends = zip((1, -1), report.point.phi[[0, -1]], report.endpoint_derivs)
        for side, phi_end, dphi_end in ends:
            res = endpoint_residual(side, phi_end, dphi_end, report.point.lam, params)
            assert abs(res) < 1e-9 * report.point.lam

    def test_crossing_near_lambda_minimum(self, fold_report):
        # the eigenvalue crossing sits at the fold, the branch lambda-min
        branch, report = fold_report
        assert report.point.lam == pytest.approx(report.branch_lambda_min, abs=1e-6)

    def test_sigma_zero_and_fold_events(self, fold_report, system48):
        # the search's trace stops at the sigma-zero event of its pair; the
        # fold in lambda comes a point or two later
        branch, report = fold_report
        assert (report.crossing_index + 1, "sigma-zero") in branch.events
        kinds = {kind for _, kind in trace_branch(2, 1, system48, max_points=60).events}
        assert {"sigma-zero", "fold"} <= kinds

    def test_never_stopping_predicate_changes_nothing(self, fold_report, system48):
        # the search's trace, run again to as many points without stopping
        branch, _ = fold_report
        offered = []

        def never(b):
            offered.append(len(b.points) - 1)
            return False

        again = trace_branch(2, 1, system48, max_points=len(branch.points), stop=never,
                             tol=continuation.PATH_TOL, weight=lambda_weight(2, system48.params))
        assert again.events == branch.events
        assert len(again.points) == len(branch.points)
        for p, q in zip(again.points, branch.points):
            assert p.lam == q.lam and np.array_equal(p.phi, q.phi)
            assert p.sigma_min == q.sigma_min
        # offered once per accepted point, every crossing event included
        assert offered == list(range(1, len(branch.points)))

    def test_crossing_is_a_trace_event(self, fold_report):
        # the trace is the only place that decides what a crossing is
        branch, report = fold_report
        crossings = {idx for idx, kind in branch.events if kind in ("fold", "sigma-zero")}
        assert report.crossing_index + 1 in crossings

    def test_fold_costs_one_sigma_min_per_solve_and_no_arclength_step(
            self, fold_report, system48, monkeypatch):
        branch, report = fold_report
        calls = {"arclength_step": 0, "sigma_min": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(continuation, "arclength_step")
        counting(collocation, "sigma_min")
        again = locate_degenerate(branch, 1e-6, system48)
        assert again.point.lam == report.point.lam
        # one solve on rung 32, one at N = 48
        assert again.rung_point.rung == 32
        assert calls == {"arclength_step": 0, "sigma_min": 2}
        assert 1 <= report.newton_iterations <= 10

    @pytest.mark.parametrize("k,direction,max_points,index",
                             [(3, 1, 70, 59), (2, -1, 60, 47)])
    def test_swap_candidate_is_skipped(self, system48, k, direction, max_points, index):
        # a min-magnitude eigenvalue swap flips the sign of sigma_min without
        # a kernel; the extended system runs off to the bifurcation point at
        # lambda_k, far outside the pair, and the candidate is skipped
        branch = trace_branch(k, direction, system48, max_points=max_points)
        assert _crossings(branch) == [(index, "sigma-zero")]
        _assert_under_resolved_marks(branch)
        assert locate_degenerate(_cut(branch, index + 1), 1e-6, system48) is None

    def test_swap_candidate_stops_at_the_first_rise(self, system48, monkeypatch):
        # the extended system's residual rises on the way to the bifurcation
        # point, so the solve stops there instead of converging onto it
        branch = trace_branch(3, 1, system48, max_points=60)
        calls = []
        original = continuation.assemble_jacobian

        def counting(*args, parts=False):
            result = original(*args, parts=parts)
            if parts:
                calls.append(1)
            return result

        # one for the tangent at the pair's first point, then one residual,
        # with its Jacobian, per iteration of the extended system
        monkeypatch.setattr(continuation, "assemble_jacobian", counting)
        assert locate_degenerate(branch, 1e-6, system48) is None
        assert 1 <= len(calls) - 1 <= 3

    def test_not_found_on_short_branch(self, system48):
        branch = trace_branch(2, 1, system48, max_points=5)
        assert locate_degenerate(branch, 1e-6, system48) is None

    def test_trivial_branch_kernel_scan(self, system48, params):
        # along the trivial family the smallest eigenvalue changes sign
        # exactly at the ladder values
        for k in (1, 2, 3):
            lam = lambda_k(k, params)
            lo = sigma_min(assemble_jacobian(np.zeros(49), lam * 0.995, system48))
            hi = sigma_min(assemble_jacobian(np.zeros(49), lam * 1.005, system48))
            assert lo < 0 < hi


@pytest.mark.parametrize("q", [3.0, 4.0])
@pytest.mark.parametrize("k", [2, 3])
def test_extended_system_derivatives(k, q):
    # central differences of J v, the extended system's middle block, in the
    # sector's coefficients and lambda
    system = DiscreteSystem(build_grid(48), ModelParams(2, 1.0, q))
    pt = solve_at_s(k, 0.2, system)
    c0 = pt.coeffs[::2] if k == 2 else pt.coeffs
    m = c0.size
    assert m == (25 if k == 2 else 49)
    v = np.random.default_rng(1).standard_normal(m)
    parity = 1 if k == 2 else 0
    block, column = collocation._jacobian_derivatives(c0, pt.lam, v, system, parity)

    def jv(c, lam):
        return assemble_jacobian(c, lam, system, parity) @ v

    h = 1e-4
    dphi = np.empty((m, m))
    for j in range(m):
        e = np.zeros(m)
        e[j] = h
        dphi[:, j] = (jv(c0 + e, pt.lam) - jv(c0 - e, pt.lam)) / (2 * h)
    dlam = (jv(c0, pt.lam + h) - jv(c0, pt.lam - h)) / (2 * h)
    assert np.linalg.norm(dphi - block) <= 1e-6 * np.linalg.norm(block)
    assert np.linalg.norm(dlam - column) <= 1e-6 * np.linalg.norm(column)


def _recording(calls):
    """assemble_jacobian recording the parity of every call in calls."""
    def wrapper(c, lam, sys, parity=0, parts=False):
        calls.append(parity)
        return assemble_jacobian(c, lam, sys, parity, parts)
    return wrapper


class TestEvenSector:
    def test_even_k_profiles_are_exactly_even(self, system48, fold_report, params):
        for k, direction in ((2, 1), (2, -1), (4, 1)):
            branch = trace_branch(k, direction, system48, max_points=30)
            assert all(np.array_equal(pt.phi, pt.phi[::-1]) for pt in branch.points)
            assert all(not pt.coeffs[1::2].any() for pt in branch.points)
        _, report = fold_report
        assert np.array_equal(report.point.phi, report.point.phi[::-1])
        # a start with odd modes keeps only its even ones
        c0 = 0.05 * system48.basis(2) + 1e-9 * system48.basis(1)
        pt = newton_solve(c0, lambda_k(2, params) - 0.1, system48, k=2)
        assert np.array_equal(pt.phi, pt.phi[::-1])
        pt = solve_at_s(4, 0.1, system48)
        assert np.array_equal(pt.phi, pt.phi[::-1])

    def test_odd_N_trace(self, params):
        system = DiscreteSystem(build_grid(33), params)
        branch = trace_branch(2, 1, system, max_points=60)
        assert len(branch.points) == 60
        assert all(pt.nodal_count == 2 for pt in branch.points)
        assert all(np.array_equal(pt.phi, pt.phi[::-1]) for pt in branch.points)
        report, _ = find_degenerate(2, system, 1e-6)
        assert report.point.rung == 33 and report.point.coeffs.shape == (34,)
        assert report.residual_norm < 1e-10
        # the N=96 value of the acceptance tests
        assert report.point.lam == pytest.approx(11.223525580301466, rel=1e-10)

    def test_odd_k_solves_the_full_system(self, system48, monkeypatch):
        calls = []
        monkeypatch.setattr(continuation, "assemble_jacobian", _recording(calls))
        monkeypatch.setattr(collocation, "assemble_jacobian", _recording(calls))
        branch = trace_branch(3, 1, system48, max_points=20)
        assert len(branch.points) == 20
        assert all(pt.nodal_count == 3 for pt in branch.points)
        assert calls and set(calls) == {0}

    def test_even_k_assembles_no_full_jacobian(self, system48, monkeypatch):
        # every block, even or odd, is built by collocation._block
        calls = []
        original = collocation._block

        def block(sys, parity, d):
            calls.append(parity)
            return original(sys, parity, d)

        monkeypatch.setattr(collocation, "_block", block)
        report, branch = find_degenerate(2, system48, 1e-6)
        assert report is not None
        # the even block for the solves, the odd block for sigma_min only,
        # and only where the Weyl bound from the previous point cannot
        # show that the even block holds the eigenvalue nearest zero
        assert set(calls) == {1, -1}
        assert calls.count(-1) < len(branch.points) + 1

    def test_every_step_builds_its_jacobians_in_continuation(self, params, monkeypatch):
        # every Jacobian of the corrector is looked up in continuation's
        # namespace, where a tracer wrapping it sees the Newton work
        system = DiscreteSystem(build_grid(32), params)
        calls = []
        steps = []
        original_step = continuation.arclength_step

        def step(*args, **kwargs):
            before = len(calls)
            result = original_step(*args, **kwargs)
            steps.append(len(calls) - before)
            return result

        monkeypatch.setattr(continuation, "assemble_jacobian", _recording(calls))
        monkeypatch.setattr(continuation, "arclength_step", step)
        branch = trace_branch(2, 1, system, max_points=40)
        assert len(steps) == len(branch.points) - 1
        assert min(steps) >= 1

    def test_rejected_steps_stop_at_the_first_rise(self, monkeypatch):
        # the q=6 k=6 plus branch at N=32 rejects its steps of ds = 0.1,
        # 0.065 and 0.0325 near point 12; each corrector used to run all
        # MAX_ITER = 30 iterations (or 23 onto the trivial profile)
        system = DiscreteSystem(build_grid(32), ModelParams(2, 1.0, 6.0))
        calls = []
        rejected = []
        original_step = continuation.arclength_step

        def step(*args, **kwargs):
            before = len(calls)
            try:
                return original_step(*args, **kwargs)
            except StepRejected:
                rejected.append(len(calls) - before)
                raise

        monkeypatch.setattr(continuation, "assemble_jacobian", _recording(calls))
        monkeypatch.setattr(continuation, "arclength_step", step)
        branch = trace_branch(6, 1, system, max_points=20)
        assert len(branch.points) == 20
        assert len(rejected) >= 2
        assert max(rejected) <= 8

    @pytest.mark.parametrize("k", [2, 3])
    def test_step_returns_the_jacobian_at_the_new_point(self, system48, k):
        # trace_branch builds the next tangent from this Jacobian, so it must
        # be exactly the one the tangent would assemble
        branch = trace_branch(k, 1, system48, max_points=4)
        a, b = branch.points[-2], branch.points[-1]
        sector = slice(None, None, 2) if k == 2 else slice(None)
        parity = 1 if k == 2 else 0
        tangent = continuation._tangent(system48, a.coeffs[sector], a.lam,
                                        (b.coeffs - a.coeffs)[sector], b.lam - a.lam, k=k)
        pt, lin = arclength_step(a, tangent, 0.05, system48, k=k)
        fresh = assemble_jacobian(pt.coeffs[sector], pt.lam, system48, parity, parts=True)
        assert all(map(np.array_equal, lin, fresh))
        assert lin.J.shape[0] == (25 if k == 2 else 49)
        again, _ = arclength_step(a, tangent, 0.05, system48, k=k)
        assert np.array_equal(again.phi, pt.phi) and again.lam == pt.lam

    @pytest.mark.parametrize("k", [2, 3])
    def test_tangent_points_along_its_reference(self, system48, k):
        # the bordered row (ref, ref_lam) has right-hand side 1, so the
        # tangent needs no sign flip: -ref gives the opposite tangent
        branch = trace_branch(k, 1, system48, max_points=4)
        a, b = branch.points[-2], branch.points[-1]
        sector = slice(None, None, 2) if k == 2 else slice(None)
        ref, ref_lam = (b.coeffs - a.coeffs)[sector], b.lam - a.lam
        tangents = [continuation._tangent(system48, a.coeffs[sector], a.lam,
                                          sign * ref, sign * ref_lam, k=k)
                    for sign in (1, -1)]
        for sign, (tc, tlam) in zip((1, -1), tangents):
            assert tc @ tc + tlam**2 == pytest.approx(1.0, rel=1e-14)
            assert sign * (tc @ ref + tlam * ref_lam) > 0
        (tc, tlam), (uc, ulam) = tangents
        assert_allclose(np.append(uc, ulam), -np.append(tc, tlam), rtol=0, atol=1e-13)


@pytest.mark.parametrize("N", [32, 48])
def test_no_jump_onto_the_trivial_solution(N):
    # at N <= 48 a step of the q=6 k=6 plus branch used to land on u = 1 and
    # keep tracing the trivial family; nodal_count now reads 0 zeros there,
    # so the nodal-change guard would halve the step.  At N=32 its corrector
    # now stalls on the way (its residual rises at iteration 4), and the step
    # is halved as a step failure before it lands
    system = DiscreteSystem(build_grid(N), ModelParams(2, 1.0, 6.0))
    for direction in (1, -1):
        branch = trace_branch(6, direction, system)
        assert min(np.max(np.abs(pt.phi)) for pt in branch.points) > 1e-8
        assert all(pt.nodal_count == 6 for pt in branch.points)
        if direction == 1:
            report, _ = find_degenerate(6, system, 1e-6)
            # the N=96 value, 20.364737861326915
            assert report.point.lam == pytest.approx(20.364737861326915, rel=1e-5)


def test_tail_flags_the_under_resolved_plus_branch():
    # n=3 q=4.9 k=2: the fold is resolved at N=96, but past it u_min -> 0
    # and the N=48 profiles lose their resolution
    params = ModelParams(3, 1.0, 4.9)
    fine = DiscreteSystem(build_grid(96), params)
    # the fold is the crossing of the pair (23, 24)
    branch = trace_branch(2, 1, fine, max_points=25)
    report = locate_degenerate(branch, 1e-6, fine)
    assert report.crossing_index == 23
    assert report.point.lam == pytest.approx(3.805826448682, rel=1e-10)
    pair = branch.points[report.crossing_index : report.crossing_index + 2]
    nearest = min(pair, key=lambda pt: abs(pt.lam - report.point.lam))
    assert nearest.tail < 1e-12
    assert report.point.tail < 1e-12
    coarse = DiscreteSystem(build_grid(48), params)
    under = trace_branch(2, 1, coarse)
    assert max(pt.tail for pt in under.points) > 1e-4
    # the points that N = 48 does not resolve carry an event, these among them
    _assert_under_resolved_marks(under)
    marked = {idx for idx, kind in under.events if kind == "under-resolved"}
    assert {i for i, pt in enumerate(under.points) if pt.tail > 1e-4} <= marked
    _assert_under_resolved_marks(branch)


class TestLadder:
    """A trace climbs the sizes 32 * 1.5^i below N, then N."""

    def test_rungs(self):
        assert continuation._rungs(192, 2) == [32, 48, 72, 108, 162, 192]
        assert continuation._rungs(96, 3) == [32, 48, 72, 96]
        assert continuation._rungs(32, 2) == continuation._rungs(32, 32) == [32]
        assert continuation._rungs(20, 2) == [20]
        # no size whose chop window ends at or before mode k: the seed's
        # largest coefficient is mode k's, so it fails the chop test there
        assert continuation._rungs(96, 40) == [72, 96]
        assert continuation._rungs(96, 60) == continuation._rungs(96, 96) == [96]
        assert continuation._rungs(48, 33) == [48]

    @pytest.mark.parametrize("k,N,solved_at", [(33, 48, [48]), (40, 96, [72, 96])])
    def test_no_seed_solve_on_a_rung_it_cannot_pass(self, monkeypatch, k, N, solved_at):
        # mode k tops the seed's coefficients, so the seed fails the chop
        # test on the sizes below 1.25 k + 5, which the ladder leaves out
        system = DiscreteSystem(build_grid(N), ModelParams(2, 1.0, 3.0))
        solved = []
        original = continuation.solve_at_s

        def recording(k, s, sys):
            solved.append(sys.grid.N)
            return original(k, s, sys)

        monkeypatch.setattr(continuation, "solve_at_s", recording)
        branch = trace_branch(k, 1, system, max_points=1)
        assert solved == solved_at and branch.points[0].rung == solved_at[-1]

    @pytest.mark.parametrize("q,k,direction,max_points",
                             [(3.0, 2, 1, 170), (3.0, 2, -1, 90), (3.0, 3, 1, 100), (4.0, 4, 1, 40)])
    def test_matches_a_trace_pinned_to_N(self, monkeypatch, q, k, direction, max_points):
        system = DiscreteSystem(build_grid(96), ModelParams(2, 1.0, q))
        ladder = trace_branch(k, direction, system, max_points=max_points)
        monkeypatch.setattr(continuation, "BOTTOM_RUNG", 96)
        pinned = trace_branch(k, direction, system, max_points=max_points)
        assert {pt.rung for pt in pinned.points} == {96}
        rungs = [pt.rung for pt in ladder.points]
        # each budget reaches a rung above 48; rungs never fall
        assert rungs == sorted(rungs) and rungs[0] < 72 <= rungs[-1]
        assert set(rungs) <= {32, 48, 72, 96}
        assert len(ladder.points) == len(pinned.points) == max_points
        assert _crossings(ladder) == _crossings(pinned) != []
        _assert_under_resolved_marks(ladder)
        # phi to 1e-11: the pinned trace itself moves phi by 6.4e-12 when
        # NEWTON_TOL goes from 1e-10 to 1e-12 (q=4 k=4, point 8)
        for a, b in zip(ladder.points, pinned.points):
            assert a.coeffs.shape == a.phi.shape == (97,)
            assert a.nodal_count == b.nodal_count == k
            assert a.lam == pytest.approx(b.lam, rel=1e-12, abs=0)
            assert abs(a.sigma_min - b.sigma_min) <= 1e-9
            assert np.sign(a.sigma_min) == np.sign(b.sigma_min)
            assert np.max(np.abs(a.phi - b.phi)) <= 1e-11

    def test_a_second_trace_builds_no_table(self, params):
        # at N = 192 the k = 2 plus trace reaches the rungs 32, 48, 72 and 108
        system = DiscreteSystem(build_grid(192), params)
        first = trace_branch(2, 1, system, max_points=180)
        assert {pt.rung for pt in first.points} == {32, 48, 72, 108}
        misses = collocation._tables.cache_info().misses
        trace_branch(2, 1, system, max_points=180)
        assert collocation._tables.cache_info().misses == misses


class TestRefineDegenerate:
    """A fold located on rung 32 of an N = 48 trace, solved for again at N = 48
    from the rung's fold and kernel padded with zeros."""

    def test_matches_the_fold_located_at_N(self, fold_report, system48, monkeypatch):
        _, report = fold_report
        assert report.rung_point.rung == 32
        # the fold at N agrees with the one of a trace that never leaves N
        monkeypatch.setattr(continuation, "BOTTOM_RUNG", 48)
        pinned, _ = find_degenerate(2, system48, 1e-6)
        assert pinned.rung_point is None and pinned.crossing_index == report.crossing_index
        assert report.point.lam == pytest.approx(pinned.point.lam, rel=1e-12, abs=0)
        assert_allclose(report.point.phi, pinned.point.phi, rtol=0, atol=1e-12)
        assert report.branch_lambda_min == report.point.lam
        assert abs(report.point.sigma_min) < 1e-6 and report.residual_norm < 1e-10
        # the kernel at N, in the even sector of N = 48
        J = assemble_jacobian(report.point.coeffs[::2], report.point.lam, system48, 1)
        assert np.max(np.abs(J @ report.kernel)) < 1e-10


class TestFindDegenerate:
    """The degenerate command's search: one trace that stops at the first
    located fold, solved for on the rung the trace reached and again at N."""

    def test_a_fold_located_below_N_is_solved_for_at_N(self, fold_report, params):
        # a fold located on rung 32 of an N = 48 trace comes back at N
        trace, report = fold_report
        rung = report.rung_point
        assert (report.point.rung, rung.rung) == (48, 32)
        assert report.point.coeffs.shape == (49,) and report.kernel.shape == (25,)
        assert rung.coeffs.shape == (33,)
        assert len(trace.points) == report.crossing_index + 2
        # the rung's fold is the fold of the same trace at N = 32, bit for bit
        coarse, _ = find_degenerate(2, DiscreteSystem(build_grid(32), params), 1e-6)
        assert coarse.rung_point is None and coarse.point.rung == 32
        assert rung.lam == coarse.point.lam and np.array_equal(rung.coeffs, coarse.point.coeffs)
        assert report.crossing_index == coarse.crossing_index
        assert report.s_bracket == coarse.s_bracket
        assert coarse.newton_iterations <= report.newton_iterations <= coarse.newton_iterations + 2

    def test_a_fold_that_fails_a_check_is_not_reported(self, fold_report, system48):
        trace, report = fold_report
        assert locate_degenerate(trace, 1e-30, system48) is None
        # nor is a pair whose newer point carries no crossing event
        assert locate_degenerate(_cut(trace, len(trace.points) - 1), 1e-6, system48) is None

    def test_no_fold_returns_none(self, system48):
        # k = 3 has no fold: its one trace locates no crossing, and ends where
        # u_min falls below 2e-6 near lambda = 191 and the corrector fails
        report, trace = find_degenerate(3, system48, 1e-6)
        assert report is None and len(trace.points) == 260
        assert trace.events[-1] == (259, "step-failure")

    def test_a_fold_that_fails_at_N_lets_the_trace_go_on(self, system48, monkeypatch):
        original = continuation._fold_report

        def failing_at_N(branch, sys, *args):
            return None if sys is system48 else original(branch, sys, *args)

        monkeypatch.setattr(continuation, "_fold_report", failing_at_N)
        report, trace = find_degenerate(2, system48, 1e-6)
        # every crossing of the trace was tried, and none stopped it: the
        # trace ends where u_min nears 0 past lambda = 177 and its step fails
        assert report is None and len(trace.points) == 360
        assert trace.events[-1] == (359, "step-failure")

    def test_N_at_the_bottom_rung_builds_no_other_grid(self, monkeypatch, params):
        # N = 32 is the bottom rung: one trace at N = 32, and no other grid
        system = DiscreteSystem(build_grid(32), params)
        built = []

        def recording_grid(N):
            built.append(N)
            return build_grid(N)

        monkeypatch.setattr(continuation, "build_grid", recording_grid)
        report, _ = find_degenerate(2, system, 1e-6)
        assert report.rung_point is None and report.point.rung == 32
        assert built == []

    def test_mu_star_does_not_depend_on_delta(self):
        # lambda enters only as mu = lambda / (1 + 1/delta), and the weight
        # of lambda scales with it; delta = 1e-3 has lambda_2 = 6006, whose
        # fold an unweighted trace of 400 points did not reach
        mu = []
        for delta in (1e-3, 0.01, 1.0, 100.0):
            system = DiscreteSystem(build_grid(48), ModelParams(2, delta, 3.0))
            report, _ = find_degenerate(2, system, 1e-6)
            mu.append(report.point.lam / (1 + 1 / delta))
        for other in (mu[0], mu[1], mu[3]):
            assert other == pytest.approx(mu[2], rel=1e-12, abs=0)
        assert mu[2] == pytest.approx(5.6117627901645, rel=1e-12, abs=0)


class TestPsiSmallness:
    @staticmethod
    def ratios(k, s_list, sys):
        """||w(s) - s P_{k,n}||_w / |s| along the branch, for each s."""
        return [np.linalg.norm(solve_at_s(k, s, sys).coeffs - s * sys.basis(k)) / abs(s)
                for s in s_list]

    def test_linear_decay(self, system48):
        for k in (2, 3):
            r1, r2 = self.ratios(k, [1e-2, 5e-3], system48)
            assert 1.5 < r1 / r2 < 2.5

    def test_vanishing_at_origin(self, system48):
        ratios = self.ratios(2, [1e-2, 1e-3, 1e-4], system48)
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[2] < 1e-3
