"""Tests for branch tracing and degeneracy location."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spherebif.collocation import assemble_jacobian, assemble_residual, sigma_min
from spherebif.continuation import (
    ConvergenceError,
    arclength_step,
    branch_seed,
    locate_degenerate,
    newton_solve,
    psi_smallness_check,
    solve_at_s,
    trace_branch,
)
from spherebif.model import PositivityError, dlambda_ds0, lambda_k


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

    def test_no_convergence_error(self, system48):
        with pytest.raises(ConvergenceError):
            newton_solve(0.5 * system48.basis(2), 8.0, system48, max_iter=3)

    def test_rejects_nonpositive_start(self, system48):
        phi0 = np.full(49, -1.5)
        with pytest.raises(PositivityError):
            newton_solve(phi0, 2.0, system48)


class TestSeeding:
    def test_predictor_values(self, system48, params):
        seed = branch_seed(2, 0.01, system48)
        assert_allclose(seed.phi, 0.01 * system48.basis(2), atol=1e-15)
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
        assert np.max(np.abs(assemble_residual(pt.phi, pt.lam, system48))) < 1e-10

    def test_even_profile_symmetric(self, system48):
        # grid nodes are symmetric, so reversal realizes t -> -t
        pt = solve_at_s(2, 0.2, system48)
        assert np.max(np.abs(pt.phi - pt.phi[::-1])) < 1e-12

    def test_odd_branch_reflection(self, system48):
        plus = solve_at_s(1, 0.15, system48)
        minus = solve_at_s(1, -0.15, system48)
        assert np.max(np.abs(minus.phi - plus.phi[::-1])) < 1e-11
        assert minus.lam == pytest.approx(plus.lam, rel=1e-12)


class TestArclengthStep:
    def test_along_trivial_branch(self, system48):
        triv = newton_solve(np.zeros(49), 5.0, system48)
        nxt = arclength_step(triv, (np.zeros(49), 1.0), 0.25, system48)
        assert nxt.lam == pytest.approx(5.25, rel=1e-12)
        assert np.max(np.abs(nxt.phi)) < 1e-12

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
        _, report = fold_report
        J = assemble_jacobian(report.phi_star, report.lambda_star, system48)
        ev = np.linalg.eigvals(J)
        assert np.min(np.abs(ev)) < 1e-6

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


class TestPsiSmallness:
    def test_linear_decay(self, system48):
        for k in (2, 3):
            r1, r2 = psi_smallness_check(k, [1e-2, 5e-3], system48)
            assert 1.5 < r1 / r2 < 2.5

    def test_vanishing_at_origin(self, system48):
        ratios = psi_smallness_check(2, [1e-2, 1e-3, 1e-4], system48)
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[2] < 1e-3
