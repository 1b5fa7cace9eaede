"""Tests for the finite-difference verification on S^n x S^n."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spherebif.collocation import build_grid
from spherebif.continuation import solve_at_s
from spherebif.manifold import (
    SpherePair,
    gradient_sq_fd,
    identity_residuals,
    laplace_beltrami_fd,
    lifted_residual,
    sample_pair,
    tangent_frame,
)
from spherebif.model import PositivityError


def pair_with_f(n, fval):
    """A pair whose inner product is exactly fval."""
    p = np.zeros(n + 1)
    p[0] = 1.0
    q = np.zeros(n + 1)
    q[0] = fval
    q[1] = math.sqrt(1 - fval**2)
    return SpherePair(p, q)


def inner_field(p, q_vec):
    return float(np.dot(p, q_vec))


class TestSampling:
    def test_unit_norms(self):
        for seed in range(5):
            x = sample_pair(3, seed)
            assert abs(np.linalg.norm(x.p) - 1) < 1e-14
            assert abs(np.linalg.norm(x.q_vec) - 1) < 1e-14
            assert -1 <= x.f <= 1

    def test_deterministic(self):
        a = sample_pair(2, 42)
        b = sample_pair(2, 42)
        assert_allclose(a.p, b.p, atol=0)
        assert_allclose(a.q_vec, b.q_vec, atol=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_pair(1, 0)
        with pytest.raises(ValueError):
            SpherePair(np.array([2.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))


class TestFrames:
    def test_orthonormal_tangent(self):
        for seed in (0, 7):
            x = sample_pair(4, seed)
            frame = tangent_frame(x.p)
            assert frame.shape == (4, 5)
            gram = frame @ frame.T
            assert_allclose(gram, np.eye(4), atol=1e-12)
            assert_allclose(frame @ x.p, 0.0, atol=1e-12)

    def test_degenerate_axis_fallback(self):
        # the point along the first axis forces the skip rule
        frame = tangent_frame(np.array([1.0, 0.0, 0.0]))
        assert frame.shape == (2, 3)
        assert_allclose(frame @ frame.T, np.eye(2), atol=1e-14)


class TestIdentities:
    def test_laplacian_of_f(self):
        x = pair_with_f(2, 0.5)
        got = laplace_beltrami_fd(inner_field, x, 1e-3, 1.0)
        assert got == pytest.approx(-2 * (1 + 1) * 0.5, abs=5e-6)

    def test_laplacian_of_constant(self):
        x = sample_pair(2, 3)
        const = lambda p, q: 1.0
        assert abs(laplace_beltrami_fd(const, x, 1e-3, 1.0)) < 1e-9

    def test_first_factor_harmonic(self):
        # u(p, q) = p_1 is a degree-1 spherical harmonic: Lap u = -n u
        n = 3
        x = sample_pair(n, 11)
        u = lambda p, q: float(p[0])
        got = laplace_beltrami_fd(u, x, 1e-3, 2.0)
        assert got == pytest.approx(-n * x.p[0], abs=1e-5)

    def test_gradient_identity_values(self):
        assert gradient_sq_fd(pair_with_f(2, 0.0), 1e-3, 1.0) == pytest.approx(
            2.0, abs=1e-5
        )
        assert gradient_sq_fd(pair_with_f(3, 0.5), 1e-3, 2.0) == pytest.approx(
            1.125, abs=1e-5
        )

    def test_gradient_vanishes_on_focal_spheres(self):
        x = pair_with_f(2, 1.0)
        assert abs(gradient_sq_fd(x, 1e-3, 1.0)) < 1e-5
        y = SpherePair(x.p, -x.q_vec)  # f = -1
        assert abs(gradient_sq_fd(y, 1e-3, 1.0)) < 1e-5

    def test_worst_case_and_order(self):
        h = 4e-3
        for n in (2, 3):
            for delta in (0.5, 1.0, 2.0):
                coarse = identity_residuals(n, delta, h, 1000, 1)
                fine = identity_residuals(n, delta, h / 2, 1000, 1)
                for key in ("laplacian", "gradient"):
                    # error constant scales with (1 + 1/delta); C = 3 covers
                    # every combination here
                    assert coarse[key] < 3.0 * h**2
                    order = math.log2(coarse[key] / fine[key])
                    assert 1.8 < order < 2.2

    def test_scheme_validation(self, params):
        x = sample_pair(2, 0)
        with pytest.raises(ValueError):
            laplace_beltrami_fd(inner_field, x, 0.5, 1.0)
        with pytest.raises(ValueError):
            gradient_sq_fd(x, 0.5, 1.0)
        with pytest.raises(ValueError):
            lifted_residual(build_grid(8), np.zeros(9), 4.0, params, 5, 0.5)
        with pytest.raises(ValueError):
            laplace_beltrami_fd(inner_field, x, 0.2, 1.0)


class TestLiftedResidual:
    def test_trivial_solution(self, params):
        grid = build_grid(32)
        res = lifted_residual(grid, np.zeros(33), 4.0, params, 50, 1e-3, 0)
        assert res < 1e-8

    def test_invariance_under_rotation(self, system48):
        # the lift depends on the pair only through <p, q>
        grid = system48.grid
        pt = solve_at_s(2, 0.3, system48)
        rng = np.random.default_rng(9)
        a = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        from spherebif.collocation import interpolate

        x = sample_pair(2, 21)
        u1 = interpolate(grid, pt.phi, float(np.dot(x.p, x.q_vec)))
        u2 = interpolate(grid, pt.phi, float(np.dot(a @ x.p, a @ x.q_vec)))
        assert u1 == pytest.approx(u2, abs=1e-10)

    def test_converged_profile_small_residual(self, system48):
        pt = solve_at_s(2, 0.3, system48)
        res = lifted_residual(system48.grid, pt.phi, pt.lam, system48.params, 50, 1e-3, 2)
        assert res < 1e-4

    def test_residual_drops_quadratically(self, system48):
        pt = solve_at_s(2, 0.3, system48)
        r1 = lifted_residual(system48.grid, pt.phi, pt.lam, system48.params, 30, 4e-3, 3)
        r2 = lifted_residual(system48.grid, pt.phi, pt.lam, system48.params, 30, 2e-3, 3)
        assert 3.0 < r1 / r2 < 5.0

    def test_wrong_lambda_detected(self, system48):
        pt = solve_at_s(2, 0.3, system48)
        good = lifted_residual(system48.grid, pt.phi, pt.lam, system48.params, 30, 1e-3, 4)
        bad = lifted_residual(
            system48.grid, pt.phi, 1.1 * pt.lam, system48.params, 30, 1e-3, 4
        )
        assert bad > 100 * good

    def test_positivity_error(self, params):
        grid = build_grid(16)
        phi = np.full(17, -0.9999)
        phi[0] = 0.0  # keep u positive at t = 1 only
        with pytest.raises(PositivityError):
            lifted_residual(grid, phi - 0.001, 4.0, params, 20, 1e-3, 5)
