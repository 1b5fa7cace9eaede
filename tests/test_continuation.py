"""Tests for branch tracing and degeneracy location."""

import dataclasses
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

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
    locate_degenerate,
    newton_solve,
    psi_smallness_check,
    refine_degenerate,
    solve_at_s,
    trace_branch,
)
from spherebif.gegenbauer import gegenbauer_eval
from spherebif.model import ModelParams, PositivityError, dlambda_ds0, endpoint_residual, lambda_k


def _crossings(branch):
    """The events of a branch but its under-resolved marks."""
    return [event for event in branch.events if event[1] != "under-resolved"]


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

        def recorder(c, lam, sys, parity=0):
            try:
                J = assemble_jacobian(c, lam, sys, parity)
            except PositivityError:
                calls.append((np.array(c), lam, False))
                raise
            calls.append((np.array(c), lam, True))
            return J

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
    branch = trace_branch(2, 1, system48, max_points=60)
    report = locate_degenerate(branch, 1e-6, system48)
    return branch, report


class TestDegeneracy:
    def test_report_invariants(self, fold_report, system48, params):
        branch, report = fold_report
        assert report is not None
        assert report.lambda_star < lambda_k(2, params)
        assert abs(report.sigma_at_star) < 1e-6
        assert report.u_min > 0
        assert report.nodal_count == 2
        assert report.residual_norm < 1e-10

    def test_independent_eigendecomposition(self, fold_report, system48):
        # the full Jacobian at the reported profile, rebuilt from its node values
        _, report = fold_report
        c = system48.coefficients(lambda t: interpolate(system48.grid, report.phi_star, t))
        J = assemble_jacobian(c, report.lambda_star, system48)
        ev = np.linalg.eigvals(J)
        assert np.min(np.abs(ev)) < 1e-6

    def test_endpoint_conditions_hold(self, fold_report, params):
        # no boundary rows: the regular limits at t = +/-1 of the model hold
        # for the Galerkin solution to its spectral accuracy
        _, report = fold_report
        ends = zip((1, -1), report.phi_star[[0, -1]], report.endpoint_derivs)
        for side, phi_end, dphi_end in ends:
            res = endpoint_residual(side, phi_end, dphi_end, report.lambda_star, params)
            assert abs(res) < 1e-9 * report.lambda_star

    def test_crossing_near_lambda_minimum(self, fold_report):
        # the eigenvalue crossing sits at the fold, the branch lambda-min
        branch, report = fold_report
        assert report.lambda_star == pytest.approx(report.branch_lambda_min, abs=1e-6)

    def test_sigma_zero_and_fold_events(self, fold_report):
        branch, _ = fold_report
        kinds = {kind for _, kind in branch.events}
        assert "sigma-zero" in kinds
        assert "fold" in kinds

    def test_never_stopping_predicate_changes_nothing(self, fold_report, system48):
        branch, _ = fold_report
        offered = []

        def never(b):
            offered.append(len(b.points) - 1)
            return False

        again = trace_branch(2, 1, system48, max_points=60, stop=never)
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

    def test_fold_costs_one_sigma_min_and_no_arclength_step(self, fold_report, system48,
                                                            monkeypatch):
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
        assert again.lambda_star == report.lambda_star
        assert calls == {"arclength_step": 0, "sigma_min": 1}
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
        assert locate_degenerate(branch, 1e-6, system48) is None

    def test_swap_candidate_stops_at_the_first_rise(self, system48, monkeypatch):
        # the extended system's residual rises on the way to the bifurcation
        # point, so the solve stops there instead of converging onto it
        branch = trace_branch(3, 1, system48, max_points=70)
        calls = []
        original = continuation._fold_residual

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(continuation, "_fold_residual", counting)
        assert locate_degenerate(branch, 1e-6, system48) is None
        assert 1 <= len(calls) <= 3

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
    # central differences of the J v block in the sector's coefficients and lambda
    system = DiscreteSystem(build_grid(48), ModelParams(2, 1.0, q))
    pt = solve_at_s(k, 0.2, system)
    c0 = pt.coeffs[::2] if k == 2 else pt.coeffs
    m = c0.size
    assert m == (25 if k == 2 else 49)
    v = np.random.default_rng(1).standard_normal(m)
    ell = v / (v @ v)
    parity = 1 if k == 2 else 0
    J0 = assemble_jacobian(c0, pt.lam, system, parity)
    A = continuation._fold_matrix(system, parity, c0, pt.lam, v, J0, ell)

    def jv(c, lam):
        J = assemble_jacobian(c, lam, system, parity)
        return continuation._fold_residual(system, parity, c, lam, v, J, ell)[m:-1]

    h = 1e-4
    dphi = np.empty((m, m))
    for j in range(m):
        e = np.zeros(m)
        e[j] = h
        dphi[:, j] = (jv(c0 + e, pt.lam) - jv(c0 - e, pt.lam)) / (2 * h)
    dlam = (jv(c0, pt.lam + h) - jv(c0, pt.lam - h)) / (2 * h)
    block, column = A[m:-1, :m], A[m:-1, m]
    assert np.linalg.norm(dphi - block) <= 1e-6 * np.linalg.norm(block)
    assert np.linalg.norm(dlam - column) <= 1e-6 * np.linalg.norm(column)


def _recording(calls):
    """assemble_jacobian recording the parity of every call in calls."""
    def wrapper(c, lam, sys, parity=0):
        calls.append(parity)
        return assemble_jacobian(c, lam, sys, parity)
    return wrapper


class TestEvenSector:
    def test_even_k_profiles_are_exactly_even(self, system48, fold_report, params):
        for k, direction in ((2, 1), (2, -1), (4, 1)):
            branch = trace_branch(k, direction, system48, max_points=30)
            assert all(np.array_equal(pt.phi, pt.phi[::-1]) for pt in branch.points)
            assert all(not pt.coeffs[1::2].any() for pt in branch.points)
        _, report = fold_report
        assert np.array_equal(report.phi_star, report.phi_star[::-1])
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
        report = locate_degenerate(branch, 1e-6, system)
        assert report.residual_norm < 1e-10
        # the N=96 value of the acceptance tests
        assert report.lambda_star == pytest.approx(11.223525580301466, rel=1e-10)

    def test_odd_k_solves_the_full_system(self, system48, monkeypatch):
        calls = []
        monkeypatch.setattr(continuation, "assemble_jacobian", _recording(calls))
        monkeypatch.setattr(collocation, "assemble_jacobian", _recording(calls))
        branch = trace_branch(3, 1, system48, max_points=20)
        assert len(branch.points) == 20
        assert all(pt.nodal_count == 3 for pt in branch.points)
        assert calls and set(calls) == {0}

    def test_even_k_assembles_no_full_jacobian(self, system48, monkeypatch):
        calls = []
        monkeypatch.setattr(continuation, "assemble_jacobian", _recording(calls))
        monkeypatch.setattr(collocation, "assemble_jacobian", _recording(calls))
        branch = trace_branch(2, 1, system48, max_points=20)
        assert len(branch.points) == 20
        assert locate_degenerate(branch, 1e-6, system48) is not None
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
        pt, J = arclength_step(a, tangent, 0.05, system48, k=k)
        assert np.array_equal(J, assemble_jacobian(pt.coeffs[sector], pt.lam, system48, parity))
        assert J.shape[0] == (25 if k == 2 else 49)
        again, _ = arclength_step(a, tangent, 0.05, system48, k=k)
        assert np.array_equal(again.phi, pt.phi) and again.lam == pt.lam


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
            report = locate_degenerate(branch, 1e-6, system)
            # the N=96 value, 20.364737861326915
            assert report.lambda_star == pytest.approx(20.364737861326915, rel=1e-5)


def test_tail_flags_the_under_resolved_plus_branch():
    # n=3 q=4.9 k=2: the fold is resolved at N=96, but past it u_min -> 0
    # and the N=48 profiles lose their resolution
    params = ModelParams(3, 1.0, 4.9)
    fine = DiscreteSystem(build_grid(96), params)
    branch = trace_branch(2, 1, fine, max_points=40)
    report = locate_degenerate(branch, 1e-6, fine)
    assert report.lambda_star == pytest.approx(3.805826448682, rel=1e-10)
    pair = branch.points[report.crossing_index : report.crossing_index + 2]
    nearest = min(pair, key=lambda pt: abs(pt.lam - report.lambda_star))
    assert nearest.tail < 1e-12
    assert report.tail < 1e-12
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
        # raised to at least k
        assert continuation._rungs(96, 40) == [40, 48, 72, 96]
        assert continuation._rungs(96, 60) == [60, 72, 96]

    @pytest.mark.parametrize("q,k,direction,max_points",
                             [(3.0, 2, 1, 170), (3.0, 2, -1, 90), (3.0, 3, 1, 100), (4.0, 4, 1, 40)])
    def test_matches_a_trace_pinned_to_N(self, monkeypatch, q, k, direction, max_points):
        system = DiscreteSystem(build_grid(96), ModelParams(2, 1.0, q))
        ladder = trace_branch(k, direction, system, max_points=max_points)
        monkeypatch.setattr(continuation, "COARSE_N_MIN", 96)
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
    """A fold located at N = 32, solved for again at N = 48."""

    @pytest.fixture(scope="class")
    def coarse_fold(self, params):
        coarse = DiscreteSystem(build_grid(32), params)
        branch = trace_branch(2, 1, coarse, max_points=20)
        return branch, locate_degenerate(branch, 1e-6, coarse)

    def test_matches_the_fold_located_at_N(self, coarse_fold, fold_report, system48):
        branch, coarse = coarse_fold
        _, ref = fold_report
        assert coarse.coeffs.shape == (33,) and coarse.kernel.shape == (17,)
        report = refine_degenerate(branch, coarse, 1e-6, system48)
        assert report.lambda_star == pytest.approx(ref.lambda_star, rel=1e-12, abs=0)
        assert_allclose(report.phi_star, ref.phi_star, rtol=0, atol=1e-12)
        assert report.crossing_index == coarse.crossing_index == ref.crossing_index
        assert report.s_bracket == coarse.s_bracket
        assert report.branch_lambda_min == report.lambda_star
        assert coarse.newton_iterations <= report.newton_iterations <= coarse.newton_iterations + 2
        assert abs(report.sigma_at_star) < 1e-6 and report.residual_norm < 1e-10
        # the kernel of the refined point, in the even sector of N = 48
        J = assemble_jacobian(report.coeffs[::2], report.lambda_star, system48, 1)
        assert report.kernel.shape == (25,)
        assert np.max(np.abs(J @ report.kernel)) < 1e-10

    def test_a_point_that_fails_a_check_is_not_reported(self, coarse_fold, system48):
        branch, coarse = coarse_fold
        assert refine_degenerate(branch, coarse, 1e-30, system48) is None
        # a start this far from the fold converges onto it, farther from the
        # start than the traced pair's chord
        moved = dataclasses.replace(coarse, lambda_star=coarse.lambda_star + 1.0)
        assert refine_degenerate(branch, moved, 1e-6, system48) is None


class TestPsiSmallness:
    def test_linear_decay(self, system48):
        for k in (2, 3):
            r1, r2 = psi_smallness_check(k, [1e-2, 5e-3], system48)
            assert 1.5 < r1 / r2 < 2.5

    def test_vanishing_at_origin(self, system48):
        ratios = psi_smallness_check(2, [1e-2, 1e-3, 1e-4], system48)
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[2] < 1e-3
