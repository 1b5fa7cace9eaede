"""Tests for the finite-difference verification on S^n x S^n."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from oracles import sample_pair

from spherebif import manifold
from spherebif.collocation import build_grid
from spherebif.continuation import solve_at_s
from spherebif.manifold import (
    SpherePair,
    gradient_sq_fd,
    identity_residuals,
    laplace_beltrami_fd,
    lifted_residual,
    tangent_frame,
)
from spherebif.model import ModelParams, PositivityError


def pair_with_f(n, fval):
    """A pair whose inner product is exactly fval."""
    p = np.zeros(n + 1)
    p[0] = 1.0
    q = np.zeros(n + 1)
    q[0] = fval
    q[1] = math.sqrt(1 - fval**2)
    return SpherePair(p, q)


def inner_field(p, q_vec):
    # fields are called on stacked stencil points (..., 1 + 4n, n+1)
    return np.sum(p * q_vec, axis=-1)


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

    def test_stacked_frames_match_single_frames(self):
        rows = [sample_pair(3, seed).p for seed in range(5)]
        rows.insert(2, np.array([1.0, 0.0, 0.0, 0.0]))  # along e_0: skip rule
        points = np.array(rows).reshape(2, 3, 4)
        frames = tangent_frame(points)
        assert frames.shape == (2, 3, 3, 4)
        for point, frame in zip(points.reshape(-1, 4), frames.reshape(-1, 3, 4)):
            assert_allclose(frame, tangent_frame(point), atol=1e-15)
        # e_0 projects to zero, so its frame is built from e_1, e_2, e_3
        assert_allclose(frames[0, 2], np.eye(4)[1:], atol=0)


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
        u = lambda p, q: p[..., 0]
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

    def test_block_matches_single_pairs(self):
        n, h, delta = 3, 2e-3, 0.5
        pairs = [sample_pair(n, seed) for seed in range(6)] + [pair_with_f(n, 1.0)]
        block = SpherePair(np.array([x.p for x in pairs]), np.array([x.q_vec for x in pairs]))
        field = lambda p, q: np.sum(p * q, axis=-1) ** 2 + p[..., 1] * q[..., 0]
        lap = laplace_beltrami_fd(field, block, h, delta)
        grad2 = gradient_sq_fd(block, h, delta)
        assert lap.shape == grad2.shape == (len(pairs),)
        for i, x in enumerate(pairs):
            single = laplace_beltrami_fd(field, x, h, delta)
            assert isinstance(single, float)
            assert abs(lap[i] - single) < 1e-9
            assert abs(grad2[i] - gradient_sq_fd(x, h, delta)) < 1e-9
        assert_allclose(block.f, [x.f for x in pairs], atol=1e-15)

    def test_block_rows_must_be_unit(self):
        p = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1e-5]])
        with pytest.raises(ValueError):
            SpherePair(p, np.eye(3)[:2])

    def test_an_identity_block_builds_its_frames_once(self, monkeypatch):
        # laplace_beltrami_fd and gradient_sq_fd share the block's frames:
        # one tangent_frame call per factor, not one per factor and stencil
        expected = identity_residuals(2, 1.0, 1e-3, 50, 0)
        calls = []
        original = manifold.tangent_frame

        def counting(point):
            calls.append(np.shape(point))
            return original(point)

        monkeypatch.setattr(manifold, "tangent_frame", counting)
        assert identity_residuals(2, 1.0, 1e-3, 50, 0) == expected
        assert calls == [(50, 3), (50, 3)]

    def test_identity_residuals_are_floats(self):
        errs = identity_residuals(2, 1.0, 1e-3, 70, 0)
        assert type(errs["laplacian"]) is float
        assert type(errs["gradient"]) is float

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

    def test_matches_a_pair_by_pair_loop(self, system48):
        # reference: draw p then q per sample, Gram-Schmidt each frame and
        # difference one geodesic at a time; rounding may differ only at the
        # 1/h^2 floor, a few ulps of u times 1e6
        pt = solve_at_s(2, 0.3, system48)
        grid, params, h = system48.grid, system48.params, 1e-3
        from spherebif.collocation import interpolate

        def frame(x):
            out = []
            for e in np.eye(x.size):
                v = e - np.dot(e, x) * x
                for w in out:
                    v = v - np.dot(v, w) * w
                if np.linalg.norm(v) > 1e-8 and len(out) < x.size - 1:
                    out.append(v / np.linalg.norm(v))
            return out

        u = lambda p, q: interpolate(grid, pt.phi, float(np.dot(p, q))) + 1.0
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(70):
            p, q = rng.standard_normal(3), rng.standard_normal(3)
            p, q = p / np.linalg.norm(p), q / np.linalg.norm(q)
            u0 = u(p, q)
            lap = 0.0
            for v in frame(p):
                a, b = np.cos(h) * p + np.sin(h) * v, np.cos(h) * p - np.sin(h) * v
                lap += u(a, q) - 2 * u0 + u(b, q)
            hh = h / np.sqrt(params.delta)
            for v in frame(q):
                a, b = np.cos(hh) * q + np.sin(hh) * v, np.cos(hh) * q - np.sin(hh) * v
                lap += u(p, a) - 2 * u0 + u(p, b)
            lap /= h**2
            worst = max(worst, abs(-lap + pt.lam * u0 - pt.lam * u0 ** (params.q - 1)))
        got = lifted_residual(grid, pt.phi, pt.lam, params, 70, h, 8)
        assert got == pytest.approx(worst, abs=1e-8)

    def test_rejects_a_profile_or_lambda_that_is_not_finite(self, params):
        # NaN would otherwise drop out of the running max and read as 0
        grid = build_grid(8)
        phi = np.zeros(9)
        phi[2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            lifted_residual(grid, phi, 5.0, params, 20, 1e-3, 0)
        with pytest.raises(ValueError, match="finite"):
            lifted_residual(grid, np.zeros(9), np.nan, params, 20, 1e-3, 0)

    def test_positivity_error(self, params):
        grid = build_grid(16)
        phi = np.full(17, -0.9999)
        phi[0] = 0.0  # keep u positive at t = 1 only
        with pytest.raises(PositivityError):
            lifted_residual(grid, phi - 0.001, 4.0, params, 20, 1e-3, 5)

    def test_positivity_error_names_the_first_bad_sample(self, monkeypatch, params):
        # u = phi(t) + 1 with phi(t) = -1.01 (1 - t) / 2 is positive only for
        # t > 1 - 2 / 1.01; the message names the first sample of the stream
        # at or below it, which lies past the first blocks of 32, so the
        # index adds the block's start to the position within the block
        monkeypatch.setattr(manifold, "_BLOCK_SAMPLES", 32)
        grid = build_grid(8)
        phi = -1.01 * (1 - grid.nodes) / 2
        rng = np.random.default_rng(4)
        t = []
        for _ in range(200):
            p = rng.standard_normal(params.n + 1)
            q = rng.standard_normal(params.n + 1)
            t.append(np.dot(p, q) / np.linalg.norm(p) / np.linalg.norm(q))
        first = int(np.argmax(np.array(t) <= 1 - 2 / 1.01))
        assert first >= 64
        with pytest.raises(PositivityError, match=f"at sample {first}$"):
            lifted_residual(grid, phi, 4.0, params, 200, 1e-3, 4)


class TestBlockSizes:
    """Sample blocks bound work and temporaries only: the stencils and the
    lift's series are elementwise, so no float depends on the block size."""

    @pytest.mark.parametrize("n", (2, 3))
    def test_every_float_is_the_same_for_any_block_size(self, monkeypatch, n):
        grid = build_grid(24)
        phi = 0.3 * np.sin(3 * grid.nodes)
        params = ModelParams(n=n, delta=0.7, q=3.5)

        def run():
            return [
                (lifted_residual(grid, phi, 4.0, params, 45, 1e-3, seed),
                 identity_residuals(n, 0.7, 1e-3, 45, seed))
                for seed in (0, 3)
            ]

        expected = run()
        for block in (1, 7, manifold._BLOCK_SAMPLES):
            monkeypatch.setattr(manifold, "_BLOCK_SAMPLES", block)
            assert run() == expected
