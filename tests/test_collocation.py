"""Tests for the spectral collocation layer."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from numpy.testing import assert_allclose
from scipy.linalg import eig

from spherebif.gegenbauer import gegenbauer_eval, weighted_inner
from spherebif.collocation import (
    NEWTON_TOL,
    DiscreteSystem,
    assemble_jacobian,
    assemble_residual,
    build_grid,
    dresidual_dlambda,
    interpolate,
    linear_operator,
    linear_spectrum,
    nodal_count,
    sigma_min,
    solution_point,
)
from spherebif.collocation import _fold, _mirror, _sector_jacobian
from spherebif.continuation import trace_branch
from spherebif.model import (
    ModelParams,
    PositivityError,
    ProfilePoint,
    derived_constants,
    lambda_k,
    ode_residual,
)


class TestGrid:
    def test_small_grid_nodes(self):
        grid = build_grid(2)
        assert_allclose(grid.nodes, [1.0, 0.0, -1.0], atol=1e-16)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_grid(1)

    def test_constants_annihilated(self):
        grid = build_grid(30)
        ones = np.ones(31)
        assert np.max(np.abs(grid.d1 @ ones)) < 1e-12
        # second-derivative entries grow like N^4; zero here means zero
        # relative to that scale
        assert np.max(np.abs(grid.d2 @ ones)) < 1e-12 * np.max(np.abs(grid.d2))

    def test_polynomial_exactness(self):
        grid = build_grid(24)
        x = grid.nodes
        assert np.max(np.abs(grid.d1 @ x**2 - 2 * x)) < 1e-13
        coeffs = np.array([0.3, -1.2, 0.5, 2.0, -0.7])
        vals = npoly.polyval(x, coeffs)
        assert_allclose(grid.d1 @ vals, npoly.polyval(x, npoly.polyder(coeffs)), atol=1e-11)
        assert_allclose(
            grid.d2 @ vals, npoly.polyval(x, npoly.polyder(coeffs, 2)), atol=1e-10
        )

    def test_immutable(self):
        grid = build_grid(8)
        with pytest.raises(ValueError):
            grid.nodes[0] = 0.0


class TestInterpolation:
    def test_exact_at_nodes(self):
        grid = build_grid(12)
        phi = np.sin(grid.nodes)
        for j in (0, 3, 12):
            assert interpolate(grid, phi, grid.nodes[j]) == phi[j]

    def test_polynomial_reproduction(self):
        grid = build_grid(10)
        coeffs = np.array([0.1, 1.0, -0.4, 0.2, 0.9, -1.1])
        phi = npoly.polyval(grid.nodes, coeffs)
        ts = np.linspace(-1, 1, 57)
        assert_allclose(interpolate(grid, phi, ts), npoly.polyval(ts, coeffs), atol=1e-12)

    def test_cross_module_oracle(self):
        grid = build_grid(64)
        phi = gegenbauer_eval(5, 3, grid.nodes)
        got = interpolate(grid, phi, 0.37)
        assert got == pytest.approx(gegenbauer_eval(5, 3, 0.37), abs=1e-10)

    def test_domain_error(self):
        grid = build_grid(8)
        with pytest.raises(ValueError):
            interpolate(grid, np.zeros(9), 1.01)


class TestResidual:
    def test_trivial_is_zero(self, system48):
        for lam in (0.1, 4.0, 25.0):
            assert np.max(np.abs(assemble_residual(np.zeros(49), lam, system48))) == 0.0

    def test_eigenfunction_of_linearization(self, params):
        # Linear rows applied to P_{k,n} at lambda_k vanish: the discrete
        # operator reproduces the zonal eigenfunctions exactly.
        system = DiscreteSystem(build_grid(64), params)
        c = derived_constants(params).c_factor
        for k in (1, 2, 3, 5):
            p = system.basis(k)
            lam = lambda_k(k, params)
            lin = linear_operator(system) @ p + c * lam * p
            assert np.max(np.abs(lin)) < 1e-9

    def test_matches_pointwise_model(self, system48, params):
        grid = system48.grid
        rng = np.random.default_rng(3)
        coeffs = 0.1 * rng.standard_normal(7)
        phi = npoly.polyval(grid.nodes, coeffs)
        res = assemble_residual(phi, 5.0, system48)
        dphi = grid.d1 @ phi
        d2phi = grid.d2 @ phi
        for i in range(1, grid.N):
            pt = ProfilePoint(
                t=grid.nodes[i], phi=phi[i], dphi=dphi[i], d2phi=d2phi[i]
            )
            assert res[i] == pytest.approx(ode_residual(pt, 5.0, params), abs=1e-12)

    def test_positivity_error_names_node(self, system48):
        phi = np.zeros(49)
        phi[20] = -1.5
        with pytest.raises(PositivityError, match="node 20"):
            assemble_residual(phi, 1.0, system48)

    def test_shape_validation(self, system48):
        with pytest.raises(ValueError):
            assemble_residual(np.zeros(10), 1.0, system48)


class TestJacobian:
    def test_linear_at_trivial(self, system48, params):
        lam = 7.0
        J = assemble_jacobian(np.zeros(49), lam, system48)
        c = derived_constants(params).c_factor * lam
        expected = linear_operator(system48) + c * np.eye(49)
        assert_allclose(J, expected, atol=1e-12)

    def test_linear_operator_is_a_fresh_copy(self, system48):
        L0 = linear_operator(system48)
        L = linear_operator(system48)
        L[:] = 0.0
        assemble_jacobian(np.zeros(49), 7.0, system48)
        assert np.array_equal(linear_operator(system48), L0)

    def test_finite_difference_agreement(self):
        # central differences confirm the analytic Jacobian on random
        # smooth profiles across the parameter matrix
        rng = np.random.default_rng(11)
        for n, delta, q in [(2, 1.0, 3.0), (3, 0.5, 4.0), (4, 2.0, 2.5)]:
            system = DiscreteSystem(build_grid(32), ModelParams(n, delta, q))
            x = system.grid.nodes
            for _ in range(3):
                coeffs = 0.05 * rng.standard_normal(6)
                phi = npoly.polyval(x, coeffs)
                lam = 2.0 + 3 * rng.random()
                J = assemble_jacobian(phi, lam, system)
                eps = 1e-6
                fd = np.empty_like(J)
                for col in range(33):
                    e = np.zeros(33)
                    e[col] = eps
                    fd[:, col] = (
                        assemble_residual(phi + e, lam, system)
                        - assemble_residual(phi - e, lam, system)
                    ) / (2 * eps)
                assert np.max(np.abs(J - fd)) < 1e-6

    def test_lambda_derivative(self, system48):
        rng = np.random.default_rng(5)
        phi = 0.1 * np.cos(2 * system48.grid.nodes) * rng.random()
        lam, eps = 6.0, 1e-6
        fd = (
            assemble_residual(phi, lam + eps, system48)
            - assemble_residual(phi, lam - eps, system48)
        ) / (2 * eps)
        assert_allclose(dresidual_dlambda(phi, lam, system48), fd, atol=1e-9)


class TestSpectrum:
    def test_known_eigenvalues(self, system96):
        assert_allclose(linear_spectrum(system96, 5), [0, 2, 6, 12, 20], atol=1e-9)

    def test_known_eigenvalues_n3(self):
        system = DiscreteSystem(build_grid(96), ModelParams(3, 1.0, 3.0))
        assert_allclose(linear_spectrum(system, 4), [0, 3, 8, 15], atol=1e-9)

    def test_count_validation(self, system48):
        with pytest.raises(ValueError):
            linear_spectrum(system48, 48)

    def test_eigenvector_matches_zonal_polynomial(self, system96, params):
        k = 3
        target = k * (k + params.n - 1)
        vals, vecs = eig(-linear_operator(system96))
        idx = np.argmin(np.abs(vals - target))
        v = np.real(vecs[:, idx])
        v = v / v[0]  # normalize at t = 1 where P_{k,n} = 1
        p = system96.basis(k)
        assert system96.norm(v - p) / system96.norm(p) < 1e-8


class TestSigmaMin:
    def test_identity(self):
        assert sigma_min(np.eye(7)) == pytest.approx(1.0)

    def test_kernel_at_bifurcation_point(self, system96, params):
        for k in (1, 2, 3):
            J = assemble_jacobian(np.zeros(97), lambda_k(k, params), system96)
            scale = np.linalg.norm(J, 2)
            assert abs(sigma_min(J)) < 1e-7 * scale
            # one-dimensional kernel: the next eigenvalue stays far away
            ev = np.sort(np.abs(np.linalg.eigvals(J)))
            assert ev[1] > 1.0

    def test_gap_between_bifurcation_points(self, system96, params):
        c = derived_constants(params).c_factor
        lam = 0.5 * (lambda_k(2, params) + lambda_k(3, params))
        J = assemble_jacobian(np.zeros(97), lam, system96)
        expected = min(
            abs(c * lam - j * (j + params.n - 1)) for j in range(0, 8)
        )
        assert abs(sigma_min(J)) == pytest.approx(expected, rel=1e-10)

    def test_sign_flip_across_ladder(self, system96, params):
        lam2 = lambda_k(2, params)
        lo = assemble_jacobian(np.zeros(97), lam2 - 0.1, system96)
        hi = assemble_jacobian(np.zeros(97), lam2 + 0.1, system96)
        assert sigma_min(lo) < 0 < sigma_min(hi)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            sigma_min(np.zeros((3, 4)))

    @pytest.mark.parametrize(
        "q, k, direction", [(3.0, 2, 1), (3.0, 2, -1), (4.0, 4, 1), (6.0, 6, 1)]
    )
    def test_matches_eigvals_along_branches(self, q, k, direction):
        # sigma_min of the full Jacobian, and the recorded sigma_min of the
        # even-sector trace (from the even and odd blocks), against eigvals
        system = DiscreteSystem(build_grid(48), ModelParams(2, 1.0, q))
        branch = trace_branch(k, direction, system)
        for pt in branch.points:
            J = assemble_jacobian(pt.phi, pt.lam, system)
            ev = np.linalg.eigvals(J)
            ref = ev[np.argmin(np.abs(ev))].real
            for got in (sigma_min(J), pt.sigma_min):
                assert np.sign(got) == np.sign(ref)
                assert got == pytest.approx(ref, rel=1e-8)

    def test_odd_mode_of_an_even_operator(self, system96, params):
        # the trivial-branch Jacobian commutes with the node flip t -> -t
        # (to rounding), and its mode nearest zero just above lambda_1 is
        # the odd P_1, not the even constant mode
        lam = 1.001 * lambda_k(1, params)
        J = assemble_jacobian(np.zeros(97), lam, system96)
        assert_allclose(J[::-1, ::-1], J, atol=1e-9 * np.abs(J).max())
        expected = derived_constants(params).c_factor * lam - params.n
        assert sigma_min(J) == pytest.approx(expected, rel=1e-8)

    def test_odd_mode_of_a_well_conditioned_even_matrix(self):
        # 2 I - 1.5 u u^T with u odd under the flip: every even vector stays
        # in the eigenvalue-2 space to rounding, so only a start vector with
        # an odd part finds the eigenvalue 0.5
        u = np.zeros(9)
        u[0], u[-1] = 1.0, -1.0
        u /= np.linalg.norm(u)
        J = 2.0 * np.eye(9) - 1.5 * np.outer(u, u)
        assert sigma_min(J) == pytest.approx(0.5, rel=1e-12)

    def test_tie_between_two_modes(self, system96, params):
        # halfway between lambda_1 and lambda_2 the eigenvalues -2 and +2
        # are equally near zero
        lam = 0.5 * (lambda_k(1, params) + lambda_k(2, params))
        J = assemble_jacobian(np.zeros(97), lam, system96)
        ref = np.min(np.abs(np.linalg.eigvals(J)))
        assert abs(sigma_min(J)) == pytest.approx(ref, rel=1e-10)

    def test_singular_matrix_gives_zero(self):
        assert sigma_min(np.diag([0.0, 1.0, 2.0])) == 0.0

    def test_repeatable(self, system96):
        J = assemble_jacobian(0.1 * system96.basis(2), 12.0, system96)
        assert sigma_min(J) == sigma_min(J)


class TestParitySectors:
    @pytest.mark.parametrize("N", [48, 33])
    def test_fold_and_mirror(self, N):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((7, N + 1))
        a = rng.standard_normal(N // 2 + 1)
        v = _mirror(a, N)
        assert np.array_equal(v, v[::-1])
        assert np.array_equal(v[: a.size], a)
        assert_allclose(M @ v, _fold(M, 1) @ a, atol=1e-12)
        b = rng.standard_normal((N + 1) // 2)
        w = np.zeros(N + 1)
        w[: b.size] = b
        w[N + 1 - b.size :] = -b[::-1]
        assert_allclose(M @ w, _fold(M, -1) @ b, atol=1e-12)
        # a single row folds like a matrix
        assert_allclose(_fold(M[0], 1), _fold(M, 1)[0], atol=0)

    @pytest.mark.parametrize("N", [48, 33])
    def test_blocks_split_the_spectrum(self, N, params):
        system = DiscreteSystem(build_grid(N), params)
        phi = _mirror(0.3 * system.basis(2), N)
        even = _sector_jacobian(phi, 9.0, system, 1)
        odd = _sector_jacobian(phi, 9.0, system, -1)
        assert even.shape == (N // 2 + 1,) * 2
        assert odd.shape == ((N + 1) // 2,) * 2

        def nearest_zero(*blocks):
            ev = np.concatenate([np.linalg.eigvals(B).real for B in blocks])
            return np.sort(ev[np.argsort(np.abs(ev))[:8]])

        full = assemble_jacobian(phi, 9.0, system)
        assert_allclose(nearest_zero(even, odd), nearest_zero(full), rtol=1e-8)

    def test_stored_blocks_are_read_only(self, system48):
        for L in (system48._linop_even, system48._linop_odd):
            with pytest.raises(ValueError):
                L[0, 0] = 1.0
        J = _sector_jacobian(np.zeros(49), 5.0, system48)
        J[0, 0] = 1.0  # a fresh copy
        assert system48._linop_even[0, 0] != 1.0

    def test_block_sigma_finds_the_odd_mode(self, system96, params):
        # just above lambda_1 the mode nearest zero is the odd P_1, which
        # lives in the odd block only
        lam = 1.001 * lambda_k(1, params)
        phi = np.zeros(97)
        even = _sector_jacobian(phi, lam, system96, 1)
        odd = _sector_jacobian(phi, lam, system96, -1)
        expected = derived_constants(params).c_factor * lam - params.n
        assert sigma_min(even, odd) == pytest.approx(expected, rel=1e-8)
        assert sigma_min(even, odd) == pytest.approx(
            sigma_min(assemble_jacobian(phi, lam, system96)), rel=1e-10
        )

    def test_block_sigma_validation(self):
        assert sigma_min(np.eye(3), np.diag([0.0, 1.0])) == 0.0
        assert sigma_min(np.diag([4.0, -3.0]), np.diag([0.5])) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            sigma_min(np.eye(3), np.zeros((2, 3)))

    def test_solution_point_uses_the_blocks_for_even_k(self, system48):
        phi = _mirror(0.2 * system48.basis(2), 48)
        J = assemble_jacobian(phi, 10.0, system48)
        ev = np.linalg.eigvals(J)
        ref = ev[np.argmin(np.abs(ev))].real
        pt = solution_point(system48, phi, 10.0, k=2)
        assert pt.sigma_min == pytest.approx(ref, rel=1e-9)
        assert solution_point(system48, phi, 10.0).sigma_min == sigma_min(J)
        # a full Jacobian handed in for even k is used as it is
        assert solution_point(system48, phi, 10.0, k=2, J=J).sigma_min == sigma_min(J)


class TestNodalCount:
    def test_zonal_profiles(self, system96):
        grid = system96.grid
        assert nodal_count(grid, system96.basis(2)) == 2
        assert nodal_count(grid, gegenbauer_eval(7, 2, grid.nodes)) == 7

    def test_constants(self, system48):
        grid = system48.grid
        assert nodal_count(grid, np.full(49, 0.4)) == 0
        assert nodal_count(grid, np.zeros(49)) == 0

    def test_rounding_level_profile_has_no_zeros(self, system48):
        grid = system48.grid
        p6 = gegenbauer_eval(6, 2, grid.nodes)
        assert nodal_count(grid, 6e-16 * p6) == 0
        assert nodal_count(grid, 0.5 * NEWTON_TOL * p6) == 0
        # small but above the tolerance, the zeros are counted
        assert nodal_count(grid, 1e-6 * p6) == 6

    def test_tangency_not_counted(self, system48):
        # (t^2 - 1/4)^2 touches zero twice without changing sign
        grid = system48.grid
        phi = (grid.nodes**2 - 0.25) ** 2
        assert nodal_count(grid, phi) == 0

    def test_robust_under_perturbation(self, system96):
        grid = system96.grid
        base = gegenbauer_eval(5, 2, grid.nodes)
        # smallest lobe magnitude of P_{5,2} between consecutive zeros
        fine = np.linspace(-1, 1, 2001)
        vals = gegenbauer_eval(5, 2, fine)
        zeros = np.where(np.sign(vals[1:]) != np.sign(vals[:-1]))[0]
        lobes = []
        marks = np.concatenate([[0], zeros, [len(fine) - 1]])
        for a, b in zip(marks[:-1], marks[1:]):
            lobes.append(np.max(np.abs(vals[a : b + 1])))
        bound = 0.1 * min(lobes)
        rng = np.random.default_rng(17)
        for _ in range(20):
            coeffs = rng.standard_normal(13)
            pert = sum(
                c * gegenbauer_eval(j, 2, grid.nodes) for j, c in enumerate(coeffs)
            )
            pert *= bound / system96.norm(pert)
            assert nodal_count(grid, base + pert) == 5


class TestWeightedStructure:
    def test_inner_matches_quadrature(self, system48, params):
        n = params.n
        u = system48.basis(2)
        v = system48.basis(4)
        direct = weighted_inner(
            lambda t: gegenbauer_eval(2, n, t),
            lambda t: gegenbauer_eval(4, n, t),
            n,
            10,
        )
        assert system48.inner(u, v) == pytest.approx(direct, abs=1e-13)
        norm = weighted_inner(
            lambda t: gegenbauer_eval(2, n, t),
            lambda t: gegenbauer_eval(2, n, t),
            n,
            10,
        )
        assert system48.inner(u, u) == pytest.approx(norm, rel=1e-13)

    def test_discrete_self_adjointness(self, system48):
        # <Lu, v>_w = <u, Lv>_w for polynomial samples and exact quadrature
        rng = np.random.default_rng(23)
        L = linear_operator(system48)
        x = system48.grid.nodes
        for _ in range(10):
            u = npoly.polyval(x, rng.uniform(-1, 1, 13))
            v = npoly.polyval(x, rng.uniform(-1, 1, 13))
            lhs = system48.inner(L @ u, v)
            rhs = system48.inner(u, L @ v)
            assert abs(lhs - rhs) < 1e-10

    def test_inner_gradient(self, system48):
        rng = np.random.default_rng(2)
        u = rng.standard_normal(49)
        v = rng.standard_normal(49)
        assert np.dot(system48.inner_gradient(v), u) == pytest.approx(
            system48.inner(u, v), rel=1e-12
        )


def test_solution_point_diagnostics(system48, params):
    phi = 0.01 * system48.basis(2)
    pt = solution_point(system48, phi, 5.0, k=2)
    assert pt.nodal_count == 2
    assert pt.u_min == pytest.approx(1 + phi.min())
    assert pt.s_coord == pytest.approx(0.01, rel=1e-10)
    assert np.isfinite(pt.sigma_min)
