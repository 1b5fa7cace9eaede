"""Tests for the spectral collocation layer."""

import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import legendre
from numpy.polynomial import polynomial as npoly
from numpy.testing import assert_allclose
from oracles import ode_residual, weighted_inner

from spherebif import collocation, continuation
from spherebif.gegenbauer import gauss_jacobi_rule, gegenbauer_eval, gegenbauer_norm2
from spherebif.collocation import (
    NEWTON_TOL,
    DiscreteSystem,
    assemble_jacobian,
    assemble_residual,
    build_grid,
    dresidual_dlambda,
    interpolate,
    nodal_count,
    resolved,
    sigma_min,
    solution_point,
)
from spherebif.continuation import trace_branch
from spherebif.model import ModelParams, PositivityError, lambda_k

EPS = np.finfo(float).eps


@lru_cache(maxsize=None)
def _traced(n, q, k, direction, N):
    """A system of degree N and its traced branch, shared by the tests that
    check the recorded sigma_min along it."""
    system = DiscreteSystem(build_grid(N), ModelParams(n, 1.0, q))
    return system, trace_branch(k, direction, system)


def _minus_lambda(N, n):
    """The reduced operator on the N + 1 modes: diag(-j(j + n - 1))."""
    j = np.arange(N + 1.0)
    return np.diag(-j * (j + n - 1))


def _c_factor(params):
    """(q - 2) / (1 + 1/delta): c(lambda) / lambda at the trivial profile."""
    return (params.q - 2) / (1 + 1 / params.delta)


def _poly_coeffs(system, coeffs):
    """Galerkin coefficients of the polynomial with monomial coefficients coeffs."""
    return system.coefficients(lambda t: npoly.polyval(t, coeffs))


class TestGrid:
    def test_small_grid_nodes(self):
        grid = build_grid(2)
        assert_allclose(grid.nodes, [1.0, 0.0, -1.0], atol=1e-16)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_grid(1)

    def test_constants_annihilated(self, params):
        # the operator maps the constant mode to zero exactly, so a constant
        # profile's residual is its nonlinearity, projected onto mode 0 alone
        system = DiscreteSystem(build_grid(30), params)
        assert not np.any(assemble_jacobian(np.zeros(31), 0.0, system) @ system.basis(0))
        c = 0.4 * system.basis(0)
        res = assemble_residual(c, 5.0, system)
        mu = 5.0 / 2
        assert res[0] == pytest.approx(mu * (1.4**2 - 1.4) * system.basis(0)[0], rel=1e-13)
        assert np.max(np.abs(res[1:])) < 1e-13 * abs(res[0])

    def test_polynomial_exactness(self, params):
        # the projection of a degree-4 polynomial is exact: its values on
        # the grid and its endpoint derivatives come back to rounding
        system = DiscreteSystem(build_grid(24), params)
        x = system.grid.nodes
        coeffs = np.array([0.3, -1.2, 0.5, 2.0, -0.7])
        c = _poly_coeffs(system, coeffs)
        assert np.max(np.abs(c[5:])) < 1e-14
        assert_allclose(system.node_values(c), npoly.polyval(x, coeffs), atol=1e-13)
        slope = npoly.polyval(np.array([1.0, -1.0]), npoly.polyder(coeffs))
        assert_allclose(system.endpoint_derivatives(c), slope, atol=1e-12)

    def test_immutable(self):
        grid = build_grid(8)
        with pytest.raises(ValueError):
            grid.nodes[0] = 0.0


class TestInterpolation:
    def test_node_values_to_rounding(self):
        # a target at a node is summed like any other target
        grid = build_grid(12)
        phi = np.sin(grid.nodes)
        for j in (0, 3, 12):
            assert abs(interpolate(grid, phi, grid.nodes[j]) - phi[j]) <= 16 * EPS

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
        # a NaN target fails the domain check too
        for t in (1.01, np.nan, [0.1, np.nan, -0.2]):
            with pytest.raises(ValueError, match=r"outside \[-1, 1\]"):
                interpolate(grid, np.zeros(9), t)

    def test_phi_must_hold_the_node_values(self):
        grid = build_grid(8)
        for phi in (np.zeros(5), np.zeros(10), np.zeros((9, 1)), 0.0):
            with pytest.raises(ValueError, match="phi must hold the 9 node values"):
                interpolate(grid, phi, [0.1, 0.2])

    @pytest.mark.parametrize("size", (1, 5, 256))
    def test_many_targets_round_as_scalar_calls(self, size):
        grid = build_grid(20)
        phi = np.exp(grid.nodes) * np.cos(4 * grid.nodes)
        ts = np.random.default_rng(2).uniform(-1, 1, 3 * size + 5)
        ts[[0, 2, -1]] = grid.nodes[[0, 7, 20]]  # nodes among the targets
        got = interpolate(grid, phi, ts)
        assert got.shape == ts.shape
        assert got.tolist() == [interpolate(grid, phi, t) for t in ts]

    @pytest.mark.parametrize("N", (96, 192))
    def test_legendre_series_reproduction(self, N):
        grid = build_grid(N)
        coeffs = np.random.default_rng(N).standard_normal(N + 1) * 0.9 ** np.arange(N + 1)
        phi = legendre.legval(grid.nodes, coeffs)
        ts = np.random.default_rng(N + 1).uniform(-1, 1, 2000)
        err = np.abs(interpolate(grid, phi, ts) - legendre.legval(ts, coeffs))
        assert err.max() <= 16 * EPS * np.abs(phi).max()


def _dense_interpolate(grid, phi, t):
    """The barycentric lift with a hit test on every matrix entry."""
    scalar = np.ndim(t) == 0
    t = np.clip(np.atleast_1d(np.asarray(t, dtype=float)), -1.0, 1.0)
    w = (-1.0) ** np.arange(grid.N + 1)
    w[[0, -1]] *= 0.5
    diff = t[:, None] - grid.nodes[None, :]
    hit = np.abs(diff) < 1e-14
    diff[hit] = 1.0
    M = w[None, :] / diff
    M /= M.sum(axis=1)[:, None]
    M[np.any(hit, axis=1)] = 0.0
    M[hit] = 1.0
    vals = (M[:, None, :] @ np.asarray(phi, dtype=float)[:, None])[:, 0, 0]
    return float(vals[0]) if scalar else vals


def _lift_floor(n, phi, h):
    """8 n eps max|u| / h^2: the rounding of the 2n second differences of u =
    phi + 1, which magnify an evaluator's rounding by 1 / h^2."""
    return 8 * n * EPS * np.abs(np.asarray(phi) + 1.0).max() / h**2


class TestNearestNodeHits:
    """interpolate has no node-hit case: at a node, beside one and clipped
    onto an end node, as anywhere else, it agrees with the dense barycentric
    oracle, which takes a hit's node value, to rounding."""

    @pytest.mark.parametrize("N", (2, 7, 24, 96))
    def test_equals_the_dense_hit_test(self, N):
        grid = build_grid(N)
        phi = np.exp(grid.nodes) * np.cos(3 * grid.nodes) - 0.2
        nodes = grid.nodes
        ts = np.concatenate([
            nodes,                     # t = +1, -1 and (even N) the middle node
            nodes + 1e-15, nodes - 1e-15,
            [1 + 1e-13, -1 - 1e-13],   # clipped onto the end nodes
            nodes + 3e-14, nodes - 3e-14,
            np.random.default_rng(N).uniform(-1, 1, 300),
        ])
        got = interpolate(grid, phi, ts)
        tol = 16 * EPS * np.abs(phi).max()
        assert np.abs(got - _dense_interpolate(grid, phi, ts)).max() <= tol
        for t in (1.0, -1.0, nodes[N // 2], 1 + 1e-13, nodes[1] + 1e-15, 0.3):
            assert abs(interpolate(grid, phi, t) - _dense_interpolate(grid, phi, t)) <= tol

    def test_empty_and_scalar_targets(self):
        grid = build_grid(10)
        phi = np.sin(grid.nodes)
        empty = interpolate(grid, phi, np.empty(0))
        assert empty.shape == (0,)
        got = interpolate(grid, phi, 0.25)
        assert type(got) is float
        assert got == interpolate(grid, phi, np.array([0.25]))[0]
        assert abs(got - _dense_interpolate(grid, phi, 0.25)) <= 16 * EPS

    def test_lifted_residual_is_unchanged(self, monkeypatch):
        from spherebif import manifold

        grid = build_grid(24)
        phi = 0.3 * np.sin(3 * grid.nodes)
        params = ModelParams(n=2, delta=0.7, q=3.5)
        got = manifold.lifted_residual(grid, phi, 4.0, params, 60, 1e-3, 2)
        # manifold looks interpolate up as its own module global
        monkeypatch.setattr(manifold, "interpolate", _dense_interpolate)
        dense = manifold.lifted_residual(grid, phi, 4.0, params, 60, 1e-3, 2)
        assert abs(got - dense) <= _lift_floor(2, phi, 1e-3)

    def test_stored_profile_lift(self, monkeypatch):
        from spherebif import manifold

        root = Path(__file__).resolve().parents[1]
        report = json.loads((root / "perfbench" / "data" / "degenerate_k2.json").read_text())
        grid = build_grid(report["N"])
        phi = np.array(report["phi"])
        params = ModelParams(report["n"], report["delta"], report["q"])
        args = (grid, phi, report["lambda_star"], params, 3000, 1e-3, 0)
        # as `verify k=2 N=96 sample_count=3000` lifts it at seed 0
        got = manifold.lifted_residual(*args)
        assert abs(got - 4.766046505011445e-06) <= 2e-8
        monkeypatch.setattr(manifold, "interpolate", _dense_interpolate)
        assert abs(got - manifold.lifted_residual(*args)) <= _lift_floor(2, phi, 1e-3)


class TestResidual:
    def test_trivial_is_zero(self, system48):
        for lam in (0.1, 4.0, 25.0):
            assert np.max(np.abs(assemble_residual(np.zeros(49), lam, system48))) == 0.0

    def test_eigenfunction_of_linearization(self, params):
        # the Jacobian at the trivial profile annihilates P_{k,n} at lambda_k:
        # the discrete operator reproduces the zonal eigenfunctions exactly
        system = DiscreteSystem(build_grid(64), params)
        for k in (1, 2, 3, 5):
            J = assemble_jacobian(np.zeros(65), lambda_k(k, params), system)
            assert np.max(np.abs(J @ system.basis(k))) < 1e-9

    def test_matches_pointwise_model(self, system48, params):
        # the Galerkin residual is the weighted projection of the pointwise
        # residual of the model onto each mode, here by an independent rule
        rng = np.random.default_rng(3)
        coeffs = 0.1 * rng.standard_normal(7)
        res = assemble_residual(_poly_coeffs(system48, coeffs), 5.0, system48)
        rule = gauss_jacobi_rule(40, params.n)
        pointwise = np.array([
            ode_residual(t, npoly.polyval(t, coeffs), npoly.polyval(t, npoly.polyder(coeffs)),
                         npoly.polyval(t, npoly.polyder(coeffs, 2)), 5.0, params)
            for t in rule.nodes
        ])
        for j in (0, 1, 2, 5, 12, 30):
            p = gegenbauer_eval(j, params.n, rule.nodes)
            proj = np.dot(rule.weights, pointwise * p) / np.sqrt(np.dot(rule.weights, p * p))
            assert res[j] == pytest.approx(proj, abs=1e-12)

    def test_positivity_error_names_node(self, system48):
        # u = 1 - 1.2 P_2 is negative near t = +/-1 only
        with pytest.raises(PositivityError, match="rule node"):
            assemble_residual(-1.2 * system48.basis(2), 1.0, system48)
        # a NaN coefficient is not positive either, also for the Jacobian
        c = np.zeros(49)
        c[3] = np.nan
        with pytest.raises(PositivityError, match="rule node"):
            assemble_jacobian(c, 1.0, system48)

    def test_shape_validation(self, system48):
        with pytest.raises(ValueError):
            assemble_residual(np.zeros(10), 1.0, system48)


class TestJacobian:
    def test_linear_at_trivial(self, system48, params):
        lam = 7.0
        J = assemble_jacobian(np.zeros(49), lam, system48)
        expected = _minus_lambda(48, params.n) + _c_factor(params) * lam * np.eye(49)
        assert_allclose(J, expected, atol=1e-12)

    def test_linear_operator_is_a_fresh_copy(self, system48):
        # at lambda = 0 the Jacobian is the operator alone; writing into one
        # leaves the system's tables, and so the next one, as they were
        L0 = assemble_jacobian(np.zeros(49), 0.0, system48)
        L = assemble_jacobian(np.zeros(49), 0.0, system48)
        L[:] = 0.0
        assemble_jacobian(np.zeros(49), 7.0, system48)
        assert np.array_equal(assemble_jacobian(np.zeros(49), 0.0, system48), L0)

    def test_finite_difference_agreement(self):
        # central differences confirm the analytic Jacobian on random
        # smooth profiles across the parameter matrix
        rng = np.random.default_rng(11)
        for n, delta, q in [(2, 1.0, 3.0), (3, 0.5, 4.0), (4, 2.0, 2.5)]:
            system = DiscreteSystem(build_grid(32), ModelParams(n, delta, q))
            for _ in range(3):
                phi = _poly_coeffs(system, 0.05 * rng.standard_normal(6))
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
        phi = system48.coefficients(lambda t: 0.1 * np.cos(2 * t) * rng.random())
        lam, eps = 6.0, 1e-6
        fd = (
            assemble_residual(phi, lam + eps, system48)
            - assemble_residual(phi, lam - eps, system48)
        ) / (2 * eps)
        assert_allclose(dresidual_dlambda(phi, lam, system48), fd, atol=1e-9)


class TestSpectrum:
    # mu(0) = 0, so the Jacobian at phi = 0, lambda = 0 is -Lambda alone and
    # its eigenvalues, largest first, are -j(j + n - 1)
    def test_known_eigenvalues(self, system96):
        J = assemble_jacobian(np.zeros(97), 0.0, system96)
        assert_allclose(np.linalg.eigvalsh(-J)[:5], [0, 2, 6, 12, 20], atol=1e-9)

    def test_known_eigenvalues_n3(self):
        system = DiscreteSystem(build_grid(96), ModelParams(3, 1.0, 3.0))
        J = assemble_jacobian(np.zeros(97), 0.0, system)
        assert_allclose(np.linalg.eigvalsh(-J)[:4], [0, 3, 8, 15], atol=1e-9)

    def test_exact_values_as_a_copy(self, system48):
        J = assemble_jacobian(np.zeros(49), 0.0, system48)
        j = np.arange(49)
        assert np.array_equal(J, np.diag(-j * (j + 1.0)))
        J[1, 1] = 7.0
        assert assemble_jacobian(np.zeros(49), 0.0, system48)[1, 1] == -2.0

    def test_eigenvector_matches_zonal_polynomial(self, system96, params):
        # the kernel of the trivial-profile Jacobian at lambda_3, on the grid
        k = 3
        J = assemble_jacobian(np.zeros(97), lambda_k(k, params), system96)
        vals, vecs = np.linalg.eigh(J)
        v = system96.node_values(vecs[:, np.argmin(np.abs(vals))])
        v = v / v[0]  # normalize at t = 1 where P_{k,n} = 1
        p = gegenbauer_eval(k, params.n, system96.grid.nodes)
        assert np.max(np.abs(v - p)) < 1e-8


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
        c = _c_factor(params)
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
        system, branch = _traced(2, q, k, direction, 48)
        for pt in branch.points:
            J = assemble_jacobian(pt.coeffs, pt.lam, system)
            ev = np.linalg.eigvals(J)
            ref = ev[np.argmin(np.abs(ev))].real
            for got in (sigma_min(J), pt.sigma_min):
                assert np.sign(got) == np.sign(ref)
                assert got == pytest.approx(ref, rel=1e-8)

    def test_odd_mode_of_an_even_operator(self, system96, params):
        # the trivial-branch Jacobian is symmetric, and its mode nearest
        # zero just above lambda_1 is the odd P_1, not the even constant mode
        lam = 1.001 * lambda_k(1, params)
        J = assemble_jacobian(np.zeros(97), lam, system96)
        assert_allclose(J, J.T, atol=1e-13 * np.abs(J).max())
        expected = _c_factor(params) * lam - params.n
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
    def test_fold_and_mirror(self, N, params):
        # the even sector integrates on the rule folded onto t >= 0 and
        # mirrors its profile on the grid; both agree with all N + 1 modes
        system = DiscreteSystem(build_grid(N), params)
        rng = np.random.default_rng(5)
        full = np.zeros(N + 1)
        full[::2] = 0.1 * rng.standard_normal(N // 2 + 1) / (1 + np.arange(N // 2 + 1)) ** 2
        even = full[::2]
        phi = system.node_values(even, 1)
        assert np.array_equal(phi, phi[::-1])
        assert_allclose(phi, system.node_values(full), atol=1e-14)
        res = assemble_residual(full, 9.0, system)
        assert_allclose(assemble_residual(even, 9.0, system, 1), res[::2], atol=1e-12)
        assert np.max(np.abs(res[1::2])) < 1e-12
        assert_allclose(dresidual_dlambda(even, 9.0, system, 1),
                        dresidual_dlambda(full, 9.0, system)[::2], atol=1e-13)
        assert nodal_count(system, even, 1) == nodal_count(system, full)

    @pytest.mark.parametrize("N", [48, 33])
    def test_blocks_split_the_spectrum(self, N, params):
        system = DiscreteSystem(build_grid(N), params)
        full = 0.3 * system.basis(2)
        even = assemble_jacobian(full[::2], 9.0, system, 1)
        odd = assemble_jacobian(full[::2], 9.0, system, -1)
        assert even.shape == (N // 2 + 1,) * 2
        assert odd.shape == ((N + 1) // 2,) * 2
        J = assemble_jacobian(full, 9.0, system)
        assert_allclose(even, J[::2, ::2], atol=1e-12)
        assert_allclose(odd, J[1::2, 1::2], atol=1e-12)
        assert np.max(np.abs(J[::2, 1::2])) < 1e-12

        def nearest_zero(*blocks):
            ev = np.concatenate([np.linalg.eigvalsh(B) for B in blocks])
            return np.sort(ev[np.argsort(np.abs(ev))[:8]])

        assert_allclose(nearest_zero(even, odd), nearest_zero(J), rtol=1e-8)

    def test_stored_blocks_are_read_only(self, system48):
        for parity in (0, 1, -1):
            for table in system48._sectors[parity]:
                with pytest.raises(ValueError):
                    table[0] = 1.0
        J = assemble_jacobian(np.zeros(25), 5.0, system48, 1)
        J[0, 0] = 1.0  # a fresh copy
        assert assemble_jacobian(np.zeros(25), 5.0, system48, 1)[0, 0] != 1.0

    def test_systems_of_one_N_and_n_share_their_tables(self, params):
        # q and delta do not enter the basis tables, so they are built once
        # per (N, n); another N or n gets its own, also read-only
        system48 = DiscreteSystem(build_grid(48), params)
        other = DiscreteSystem(build_grid(48), ModelParams(2, 0.25, 6.0))
        for name in ("_rule", "_norms", "_sectors", "_output", "_fine"):
            assert getattr(other, name) is getattr(system48, name), name
        for grid, n in ((build_grid(32), 2), (build_grid(48), 3)):
            fresh = DiscreteSystem(grid, ModelParams(n, 1.0, 3.0))
            for parity in (0, 1, -1):
                for mine, theirs in zip(fresh._sectors[parity], system48._sectors[parity]):
                    assert mine is not theirs
                    assert not mine.flags.writeable
            tables = [fresh._norms, *fresh._output.values(), *fresh._fine.values()]
            assert not any(table.flags.writeable for table in tables)

    def test_block_sigma_finds_the_odd_mode(self, system96, params):
        # just above lambda_1 the mode nearest zero is the odd P_1, which
        # lives in the odd block only
        lam = 1.001 * lambda_k(1, params)
        even = assemble_jacobian(np.zeros(49), lam, system96, 1)
        odd = assemble_jacobian(np.zeros(49), lam, system96, -1)
        expected = _c_factor(params) * lam - params.n
        assert sigma_min(even, odd) == pytest.approx(expected, rel=1e-8)
        assert sigma_min(even, odd) == pytest.approx(
            sigma_min(assemble_jacobian(np.zeros(97), lam, system96)), rel=1e-10
        )

    def test_block_sigma_validation(self):
        assert sigma_min(np.eye(3), np.diag([0.0, 1.0])) == 0.0
        assert sigma_min(np.diag([4.0, -3.0]), np.diag([0.5])) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            sigma_min(np.eye(3), np.zeros((2, 3)))

    def test_solution_point_uses_the_blocks_for_even_k(self, system48):
        c = 0.2 * system48.basis(2)
        J = assemble_jacobian(c, 10.0, system48)
        ev = np.linalg.eigvals(J)
        ref = ev[np.argmin(np.abs(ev))].real
        pt = solution_point(system48, c[::2], 10.0, k=2)
        assert pt.sigma_min == pytest.approx(ref, rel=1e-9)
        assert solution_point(system48, c, 10.0).sigma_min == sigma_min(J)
        assert np.array_equal(pt.coeffs, solution_point(system48, c, 10.0).coeffs)


def _standard_chop_plateau(coeffs, tol):
    """Step 2 of standardChop (Aurentz and Trefethen 2017), line by line:
    whether the envelope of coeffs reaches a plateau."""
    n = len(coeffs)
    if n < 17:
        return False
    b = [abs(float(x)) for x in coeffs]
    m = b[:]
    for j in range(n - 2, -1, -1):
        m[j] = max(b[j], m[j + 1])
    if m[0] == 0:
        return True
    envelope = [x / m[0] for x in m]
    for j in range(2, n + 1):  # 1-based, as in the paper
        j2 = math.floor(1.25 * j + 5 + 0.5)
        if j2 > n:
            return False
        e1, e2 = envelope[j - 1], envelope[j2 - 1]
        if e1 == 0 or e2 / e1 > 3 * (1 - math.log(e1) / math.log(tol)):
            return True
    return False


class TestChop:
    def test_matches_the_reference_rule(self):
        rng = np.random.default_rng(7)
        answers = []
        for _ in range(400):
            n = int(rng.integers(10, 120))
            c = np.exp(-rng.uniform(0.05, 2.0) * np.arange(n))
            c *= 1 + rng.uniform(0, 1e-13) * rng.standard_normal(n)
            c += rng.uniform(0, 1e-13) * rng.standard_normal(n) * (rng.random() < 0.5)
            if rng.random() < 0.2:
                c[int(rng.integers(0, n)):] = 0.0
            if rng.random() < 0.3:
                c[1::2] = 0.0  # an even profile
            answers.append(resolved(c))
            assert answers[-1] == _standard_chop_plateau(c, collocation.CHOP_TOL)
        assert 0 < sum(answers) < len(answers)

    def test_cases(self):
        assert resolved(np.zeros(33))
        assert not resolved(np.ones(16) * 0.5 ** np.arange(16))  # fewer than 17
        # decay to rounding, then a plateau of noise
        noise = 1e-17 * np.random.default_rng(0).standard_normal(40)
        assert resolved(0.1 ** np.arange(40) + noise)
        # still decaying at the last coefficient
        assert not resolved(0.7 ** np.arange(40))


class TestBlockSkip:
    # along an even-k trace, solution_point skips the spectrum of a parity
    # block that the Weyl bound from the previous point rules out

    @pytest.mark.parametrize(
        "n, q, k, direction, N",
        [(2, 3.0, 2, 1, 48), (2, 3.0, 2, -1, 48), (2, 3.0, 4, 1, 48), (2, 3.0, 4, -1, 48),
         (2, 6.0, 6, 1, 48), (2, 4.0, 4, 1, 48), (3, 4.9, 2, 1, 48),
         (2, 3.0, 2, 1, 96), (2, 3.0, 2, -1, 96)],
    )
    def test_sigma_min_and_bounds_along_branches(self, n, q, k, direction, N):
        system, branch = _traced(n, q, k, direction, N)
        skipped = 0
        for pt in branch.points:
            # a point's sigma_min and bounds are those of the system it was
            # solved on, whose coefficients are the leading ones of coeffs
            rung = DiscreteSystem(build_grid(pt.rung), system.params)
            c = pt.coeffs[: pt.rung + 1 : 2]
            assert not pt.coeffs[pt.rung + 1 :].any()
            blocks = [assemble_jacobian(c, pt.lam, rung, parity) for parity in (1, -1)]
            # bit for bit the value of both blocks evaluated
            assert pt.sigma_min == sigma_min(*blocks)
            for bound, block in zip(pt.gap_bounds, blocks):
                exact = np.min(np.abs(np.linalg.eigvalsh(block)))
                assert bound <= exact
                # an evaluated block stores its exact value
                skipped += bound < exact
        if (n, q, k, direction, N) == (2, 3.0, 2, 1, 48):
            assert skipped > 0

    def test_a_distant_prior_evaluates_both_blocks(self, system48, monkeypatch):
        # a trace pinned to N = 48, so that every point is solved there
        monkeypatch.setattr(continuation, "BOTTOM_RUNG", 48)
        branch = trace_branch(2, 1, system48, max_points=201)
        seed, before, point = branch.points[0], branch.points[199], branch.points[200]
        calls = []
        original = np.linalg.eigvalsh

        def eigvalsh(a):
            calls.append(len(a))
            return original(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        c = point.coeffs[::2]
        far = solution_point(system48, c, point.lam, k=2, prior=seed)
        assert len(calls) == 2
        assert far.sigma_min == point.sigma_min
        blocks = [assemble_jacobian(c, point.lam, system48, parity) for parity in (1, -1)]
        monkeypatch.undo()
        assert far.gap_bounds == tuple(np.min(np.abs(np.linalg.eigvalsh(B))) for B in blocks)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        # the previous point of the trace rules the odd block out
        near = solution_point(system48, c, point.lam, k=2, prior=before)
        assert len(calls) == 3
        assert near.sigma_min == point.sigma_min

    def test_tie_rule(self):
        even, odd = np.diag([3.0, -5.0]), np.diag([-3.0, 7.0])
        # on equal |.| the even block wins, whichever block runs first
        assert sigma_min(even, odd) == 3.0
        assert sigma_min(even, odd, radii=(3.0, -np.inf)) == (3.0, (3.0, 3.0))
        assert sigma_min(even, odd, radii=(-np.inf, 3.0)) == (3.0, (3.0, 3.0))
        # a radius equal to |sigma| of the first block is never skipped;
        # only a larger one is, and then its block is not assembled
        skip = np.nextafter(3.0, 4.0)
        assert sigma_min(even, odd, radii=(skip, -np.inf)) == (-3.0, (skip, 3.0))

        def unassembled():
            raise AssertionError("a skipped block was assembled")

        assert sigma_min(even, unassembled, radii=(-np.inf, skip)) == (3.0, (3.0, skip))


class TestNodalCount:
    def test_zonal_profiles(self, system96):
        assert nodal_count(system96, system96.basis(2)) == 2
        assert nodal_count(system96, system96.basis(7)) == 7
        assert nodal_count(system96, system96.basis(2)[::2], 1) == 2

    @pytest.mark.parametrize("n,q", [(2, 3.0), (3, 3.0), (5, 2.2)])
    @pytest.mark.parametrize("N", [32, 48, 96, 192, 320])
    def test_every_mode_up_to_N(self, n, q, N):
        # the outermost zeros of P_{k,n} lie within about (2.4 / k)^2 / 2 of
        # t = +/-1; an equispaced scan missed them from k = 19 at N = 32 on
        system = DiscreteSystem(build_grid(N), ModelParams(n, 1.0, q))
        assert [nodal_count(system, system.basis(k)) for k in range(N + 1)] == list(range(N + 1))
        even = range(0, N + 1, 2)
        assert [nodal_count(system, system.basis(k)[::2], 1) for k in even] == list(even)

    def test_constants(self, system48):
        assert nodal_count(system48, 0.4 * system48.basis(0)) == 0
        assert nodal_count(system48, np.zeros(49)) == 0

    def test_rounding_level_profile_has_no_zeros(self, system48):
        p6 = system48.basis(6)
        assert nodal_count(system48, 6e-16 * p6) == 0
        assert nodal_count(system48, 0.5 * NEWTON_TOL * p6) == 0
        # small but above the tolerance, the zeros are counted
        assert nodal_count(system48, 1e-6 * p6) == 6

    def test_tangency_not_counted(self, system48):
        # (t^2 - 1/4)^2 touches zero twice without changing sign
        c = system48.coefficients(lambda t: (t**2 - 0.25) ** 2)
        assert nodal_count(system48, c) == 0

    def test_robust_under_perturbation(self, system96):
        base = system96.basis(5)
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
            pert = sum(c * system96.basis(j) for j, c in enumerate(coeffs))
            pert *= bound / np.linalg.norm(pert)
            assert nodal_count(system96, base + pert) == 5


class TestWeightedStructure:
    def test_inner_matches_quadrature(self, system48, params):
        # coefficients are orthonormal coordinates: their dot product is the
        # weighted inner product
        n = params.n
        u = system48.basis(2)
        v = system48.basis(4)
        direct = weighted_inner(
            lambda t: gegenbauer_eval(2, n, t),
            lambda t: gegenbauer_eval(4, n, t),
            n,
            10,
        )
        assert u @ v == pytest.approx(direct, abs=1e-13)
        norm = weighted_inner(
            lambda t: gegenbauer_eval(2, n, t),
            lambda t: gegenbauer_eval(2, n, t),
            n,
            10,
        )
        assert u @ u == pytest.approx(norm, rel=1e-13)
        rng = np.random.default_rng(8)
        a, b = rng.uniform(-1, 1, 9), rng.uniform(-1, 1, 9)
        ca, cb = _poly_coeffs(system48, a), _poly_coeffs(system48, b)
        direct = weighted_inner(lambda t: npoly.polyval(t, a), lambda t: npoly.polyval(t, b), n, 12)
        assert ca @ cb == pytest.approx(direct, rel=1e-12)

    def test_inner_gradient(self, system48, params):
        # the weighted inner product of two expansions, by an independent
        # quadrature, has the gradient c_v in the coefficients c_u
        rng = np.random.default_rng(2)
        cu, cv = rng.standard_normal(49), rng.standard_normal(49)
        rule = gauss_jacobi_rule(60, params.n)
        P = np.array([gegenbauer_eval(j, params.n, rule.nodes)
                      / np.sqrt(gegenbauer_norm2(j, params.n)) for j in range(49)])

        def inner(a, b):
            return np.dot(rule.weights, (a @ P) * (b @ P))

        h = 1e-6
        grad = [(inner(cu + h * e, cv) - inner(cu - h * e, cv)) / (2 * h) for e in np.eye(49)]
        assert_allclose(grad, cv, atol=1e-7)
        assert inner(cu, cv) == pytest.approx(cu @ cv, rel=1e-12)

    def test_discrete_self_adjointness(self, system48, params):
        # <Lu, v>_w = <u, Lv>_w, with L u evaluated pointwise on degree-12
        # polynomials, equals the Galerkin form v^T L u of their coefficients
        rng = np.random.default_rng(23)
        L = _minus_lambda(48, params.n)
        rule = gauss_jacobi_rule(20, params.n)
        t = rule.nodes

        def apply_L(a):
            return ((1 - t**2) * npoly.polyval(t, npoly.polyder(a, 2))
                    - params.n * t * npoly.polyval(t, npoly.polyder(a)))

        for _ in range(10):
            a, b = rng.uniform(-1, 1, 13), rng.uniform(-1, 1, 13)
            lhs = np.dot(rule.weights, apply_L(a) * npoly.polyval(t, b))
            rhs = np.dot(rule.weights, npoly.polyval(t, a) * apply_L(b))
            assert abs(lhs - rhs) < 1e-10
            ca, cb = _poly_coeffs(system48, a), _poly_coeffs(system48, b)
            assert cb @ L @ ca == pytest.approx(lhs, abs=1e-10)


def test_solution_point_diagnostics(system48, params):
    c = 0.01 * system48.basis(2)
    pt = solution_point(system48, c[::2], 5.0, k=2)
    assert pt.nodal_count == 2
    assert pt.u_min == pytest.approx(1 + pt.phi.min())
    assert pt.u_min == pytest.approx(1 - 0.01 * 0.5, rel=1e-12)
    assert pt.s_coord == pytest.approx(0.01, rel=1e-10)
    assert np.isfinite(pt.sigma_min)
    assert pt.tail == 0.0  # one mode, far from the last four
    with pytest.raises(ValueError):
        pt.coeffs[0] = 1.0


def test_tail_is_the_relative_size_of_the_last_modes(system48):
    c = system48.basis(0) + 1e-3 * system48.basis(44) - 1e-2 * system48.basis(47)
    pt = solution_point(system48, c, 5.0)
    assert pt.tail == pytest.approx(1e-2 * system48.basis(47)[47] / system48.basis(0)[0])
    # on the even sector the last four modes are the last four even ones
    even = solution_point(system48, c[::2], 5.0, k=2)
    assert even.tail == pytest.approx(1e-3 * system48.basis(44)[44] / system48.basis(0)[0])


def test_tail_leaves_out_the_chop_window(params):
    # at N = 8 the last four even modes 2, 4, 6, 8 reach into the chop
    # window (modes 0..3), which holds mode 2 itself
    system = DiscreteSystem(build_grid(8), params)
    c = 0.01 * (system.basis(2) + 1e-3 * system.basis(4))
    pt = solution_point(system, c[::2], 5.0, k=2)
    assert pt.tail == pytest.approx(1e-3 * system.basis(4)[4] / system.basis(2)[2])


def _separate_assemblies(c, lam, system, parity):
    """J, F, F_lambda, h and the odd block at (c, lam) by the expressions
    that assemble each of them on its own pass over u."""
    V, w, eig = system._sectors[parity]
    q, mu = system.params.q, lam / (1 + 1 / system.params.delta)
    u = 1.0 + system._sectors[1 if parity else 0][0] @ c
    F = mu * (V.T @ (w * (u ** (q - 1) - u))) - eig * c
    F_lam = V.T @ (w * (u ** (q - 1) - u)) / (1 + 1 / system.params.delta)
    blocks = []
    for p in (parity, -1) if parity else (0,):
        Vp, wp, eigp = system._sectors[p]
        B = (Vp.T * (mu * wp * ((q - 1) * u ** (q - 2) - 1.0))) @ Vp
        B.ravel()[:: len(eigp) + 1] -= eigp
        blocks.append(B)
    h = mu * ((q - 1) * (1.0 + V @ c) ** (q - 2) - 1.0) if parity else None
    return blocks, F, F_lam, h


@pytest.mark.parametrize("N", [32, 108])
@pytest.mark.parametrize("delta", [1e-3, 1.0, 10.0])
@pytest.mark.parametrize("n, q", [(2, 2.2), (2, 3.0), (3, 2.2), (3, 3.0), (3, 4.9), (5, 2.2)])
def test_one_pass_over_u_gives_the_separate_assemblies_bit_for_bit(n, q, delta, N):
    system = DiscreteSystem(build_grid(N), ModelParams(n, delta, q))
    even = trace_branch(2, 1, system, max_points=5).points
    odd = trace_branch(3, -1, system, max_points=5).points
    # the even profiles in their sector and on all modes
    for pt, parity in [(pt, 1) for pt in even] + [(pt, 0) for pt in even + odd]:
        c = pt.coeffs[collocation._modes(parity)]
        lin = assemble_jacobian(c, pt.lam, system, parity, parts=True)
        blocks, F, F_lam, h = _separate_assemblies(c, pt.lam, system, parity)
        assert np.array_equal(lin.J, blocks[0])
        assert np.array_equal(lin.J, assemble_jacobian(c, pt.lam, system, parity))
        assert np.array_equal(lin.F, F)
        assert np.array_equal(lin.F, assemble_residual(c, pt.lam, system, parity))
        assert np.array_equal(lin.F_lam, F_lam)
        assert np.array_equal(lin.F_lam, dresidual_dlambda(c, pt.lam, system, parity))
        if parity:
            odd = assemble_jacobian(c, pt.lam, system, -1)
            assert np.array_equal(odd, blocks[1])
            assert np.array_equal(collocation._block(system, -1, lin.d), odd)
            assert np.array_equal(lin.h, h)
            assert np.array_equal(solution_point(system, c, pt.lam, k=2).h, h)
