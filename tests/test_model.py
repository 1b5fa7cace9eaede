"""Tests for the reduced-equation model layer."""

import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from oracles import endpoint_residual, ode_residual

from spherebif import gegenbauer
from spherebif.collocation import DiscreteSystem, assemble_jacobian, build_grid
from spherebif.gegenbauer import cube_integral, gegenbauer_eval, gegenbauer_norm2
from spherebif.model import (
    ModelParams,
    PositivityError,
    dlambda_ds0,
    lambda_k,
    lambda_weight,
    reduction_factor,
    yamabe_lambda,
)


def zonal_poly(k, n):
    """Coefficients of P_{k,n}, recovered exactly from samples."""
    t = np.cos(np.linspace(0, np.pi, k + 1))
    return npoly.polyfit(t, gegenbauer_eval(k, n, t), k)


def profile_points(coeffs, ts):
    """(t, phi, phi', phi'') of the polynomial at each t."""
    d1 = npoly.polyder(coeffs)
    d2 = npoly.polyder(d1)
    return [
        (float(t), float(npoly.polyval(t, coeffs)), float(npoly.polyval(t, d1)),
         float(npoly.polyval(t, d2)))
        for t in ts
    ]


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(1, 1.0, 3.0)
        with pytest.raises(ValueError):
            ModelParams(2, 0.0, 3.0)
        with pytest.raises(ValueError):
            ModelParams(2, 1.0, 2.0)
        with pytest.raises(ValueError):
            ModelParams(3, 1.0, 6.0)  # q above (n+2)/(n-2) = 5
        ModelParams(2, 1.0, 12.0)  # n = 2 carries no upper bound on q

    @pytest.mark.parametrize("delta", [math.inf, -math.inf, math.nan])
    def test_nonfinite_delta_rejected(self, delta):
        # delta = inf would make mu = lambda and the second factor's
        # verify steps h / sqrt(delta) zero
        with pytest.raises(ValueError, match="delta must be finite and positive"):
            ModelParams(2, delta, 3.0)

    def test_derived_constants(self):
        # q_f = (n+2)/(n-2) bounds q (5 for n = 3; none for n = 2), and the
        # conformal constant a_2n = 4(2n-1)/(2n-2) (6 for n = 2, 5 for n = 3)
        # gives the Yamabe lambda n(n-1)(1 + 1/delta)/a_2n
        with pytest.raises(ValueError, match=r"2 < q < 5\.0, got 5\.0"):
            ModelParams(3, 1.0, 5.0)
        with pytest.raises(ValueError, match=r"2 < q < inf, got 2\.0"):
            ModelParams(2, 1.0, 2.0)
        assert yamabe_lambda(2, 1.0) == pytest.approx(2 * 1 * 2 / 6.0)
        assert yamabe_lambda(3, 1.0) == pytest.approx(3 * 2 * 2 / 5.0)


class TestLambdaLadder:
    def test_examples(self):
        assert lambda_k(1, ModelParams(2, 1.0, 3.0)) == pytest.approx(4.0)
        assert lambda_k(2, ModelParams(3, 2.0, 4.0)) == pytest.approx(6.0)
        assert lambda_k(0, ModelParams(4, 0.7, 2.5)) == 0.0

    @pytest.mark.parametrize("k,params", [
        (1, ModelParams(2, 1.0, 3.0)), (4, ModelParams(5, 1.0, 2.2)),
        (2, ModelParams(2, 1e-3, 3.0)), (64, ModelParams(3, 10.0, 4.5)),
    ])
    def test_weight_is_k_k_plus_n_minus_1_over_lambda_k_squared(self, k, params):
        # the weight of lambda in find_degenerate's arclength
        expected = k * (k + params.n - 1) / lambda_k(k, params) ** 2
        assert lambda_weight(k, params) == pytest.approx(expected, rel=1e-14, abs=0)

    def test_strictly_increasing(self):
        for params in (ModelParams(2, 1.0, 3.0), ModelParams(3, 0.5, 4.5)):
            vals = [lambda_k(k, params) for k in range(12)]
            assert np.all(np.diff(vals) > 0)

    def test_exact_scalings(self):
        base = ModelParams(3, 1.0, 3.0)
        half = ModelParams(3, 2.0, 3.0)
        for k in (1, 2, 5):
            # linear in (1 + 1/delta): (1 + 1/2) / (1 + 1) = 3/4
            assert lambda_k(k, half) == pytest.approx(0.75 * lambda_k(k, base), rel=1e-15)
        wide = ModelParams(3, 1.0, 4.0)
        for k in (1, 2, 5):
            # linear in 1/(q - 2)
            assert lambda_k(k, wide) == pytest.approx(0.5 * lambda_k(k, base), rel=1e-15)

    def test_yamabe_values(self):
        assert yamabe_lambda(2, 1.0) == pytest.approx(2 / 3, rel=1e-15)
        assert yamabe_lambda(3, 1.0) == pytest.approx(12 / 5, rel=1e-15)
        assert yamabe_lambda(2, math.inf) == pytest.approx(1 / 3, rel=1e-15)


class TestOdeResidual:
    def test_trivial_profile(self):
        params = ModelParams(2, 1.0, 3.0)
        for t in (-1.0, -0.3, 0.0, 0.8, 1.0):
            assert ode_residual(t, 0.0, 0.0, 0.0, 7.3, params) == 0.0

    def test_direct_evaluation(self):
        # phi = t at t = 0.5: -2(0.5)(1) + 2((1.5)^2 - 1.5) = 0.5
        params = ModelParams(2, 1.0, 3.0)
        assert ode_residual(0.5, 0.5, 1.0, 0.0, 4.0, params) == pytest.approx(0.5, rel=1e-14)

    def test_tangent_residual_quadratic_in_s(self):
        # at lambda_k the residual of s P_{k,n} shrinks like s^2
        for params, k in [
            (ModelParams(2, 1.0, 3.0), 2),
            (ModelParams(3, 2.0, 2.5), 3),
            (ModelParams(4, 0.5, 2.2), 1),
        ]:
            coeffs = zonal_poly(k, params.n)
            lam = lambda_k(k, params)
            ts = np.linspace(-1, 1, 33)
            maxres = {}
            for s in (1e-2, 5e-3):
                pts = profile_points(s * coeffs, ts)
                maxres[s] = max(abs(ode_residual(*p, lam, params)) for p in pts)
            ratio = maxres[1e-2] / maxres[5e-3]
            assert 3.5 < ratio < 4.5

    def test_positivity_error(self):
        params = ModelParams(2, 1.0, 3.0)
        with pytest.raises(PositivityError):
            ode_residual(0.0, -1.5, 0.0, 0.0, 1.0, params)

    def test_reduction_factor(self):
        params = ModelParams(2, 2.0, 3.0)
        assert reduction_factor(3.0, params) == pytest.approx(2.0)


class TestEndpointResidual:
    def test_trivial(self):
        params = ModelParams(3, 1.0, 3.5)
        assert endpoint_residual(-1, 0.0, 0.0, 2.0, params) == 0.0
        assert endpoint_residual(1, 0.0, 0.0, 2.0, params) == 0.0

    def test_linearized_kernel_condition(self):
        # n v'(-1) + c(lambda_k) v(-1) = 0 for v = P_{k,n}; with k = n = 2
        # this is 2(-3) + 6(1) = 0, and the nonlinear residual of eps*v
        # vanishes to first order in eps
        params = ModelParams(2, 1.0, 3.0)
        lam2 = lambda_k(2, params)
        eps = 1e-6
        r = endpoint_residual(-1, eps * 1.0, eps * (-3.0), lam2, params)
        assert abs(r) < 10 * eps**2 * lam2

    def test_mirror_parity_even_profile(self):
        params = ModelParams(2, 1.0, 3.0)
        # an even profile has phi(1) = phi(-1) and dphi(1) = -dphi(-1)
        phi_end, dphi_end, lam = 0.2, 0.45, 5.0
        left = endpoint_residual(-1, phi_end, -dphi_end, lam, params)
        right = endpoint_residual(1, phi_end, dphi_end, lam, params)
        assert left == pytest.approx(right, rel=1e-14)

    def test_side_validation(self):
        with pytest.raises(ValueError):
            endpoint_residual(0, 0.0, 0.0, 1.0, ModelParams(2, 1.0, 3.0))


class TestLinearizedPotential:
    """The zero-order coefficient lambda (1 - (q-1) u^(q-2)) of the
    linearization at u: at a constant profile u the Galerkin Jacobian is
    -Lambda - potential / (1 + 1/delta) times the identity."""

    @staticmethod
    def potential(u, lam, params):
        system = DiscreteSystem(build_grid(16), params)
        J = assemble_jacobian((u - 1.0) * system.basis(0), lam, system)
        j = np.arange(17.0)
        shift = J + np.diag(j * (j + params.n - 1))
        assert np.allclose(shift, shift[0, 0] * np.eye(17), rtol=0, atol=1e-12 * (1 + abs(lam)))
        return -(1 + 1 / params.delta) * shift[0, 0]

    def test_at_trivial(self):
        params = ModelParams(2, 1.0, 3.0)
        assert self.potential(1.0, 4.0, params) == pytest.approx(-4.0)
        for q in (2.5, 3.0, 4.0):
            p = ModelParams(2, 1.0, q)
            lam = 2.7
            assert self.potential(1.0, lam, p) == pytest.approx(-lam * (q - 2))

    def test_away_from_trivial(self):
        params = ModelParams(2, 1.0, 3.0)
        assert self.potential(2.0, 1.0, params) == pytest.approx(-3.0)

    def test_rejects_nonpositive_u(self):
        # u = 0 itself may round to either side at the rule nodes
        with pytest.raises(PositivityError):
            self.potential(-0.5, 1.0, ModelParams(2, 1.0, 3.0))

    def test_consistent_with_reduction(self):
        # -potential / (1 + 1/delta) at u = 1 equals c(lambda)
        params = ModelParams(3, 2.0, 2.8)
        lam = 4.2
        c = (params.q - 2) / (1 + 1 / params.delta)
        got = -self.potential(1.0, lam, params) / (1 + 1 / params.delta)
        assert got == pytest.approx(c * lam, rel=1e-14)


class TestBranchSlope:
    def test_closed_form_value(self):
        # lambda_2 = 12, int P^3 = 4/35, int P^2 = 2/5  ->  -24/7
        params = ModelParams(2, 1.0, 3.0)
        assert dlambda_ds0(2, params) == pytest.approx(-24 / 7, rel=1e-12)

    def test_odd_vanishes(self):
        for params in (ModelParams(2, 1.0, 3.0), ModelParams(3, 1.0, 2.5)):
            for k in (1, 3, 5, 7, 9):
                assert abs(dlambda_ds0(k, params)) < 1e-13

    def test_even_negative(self):
        assert dlambda_ds0(4, ModelParams(3, 1.0, 2.5)) < 0
        for n in (2, 3, 4):
            params = ModelParams(n, 1.0, 2.5)  # q below q_f for every n here
            for k in (2, 4, 6, 8, 10):
                assert dlambda_ds0(k, params) < 0

    def test_second_call_builds_no_rule(self, monkeypatch):
        # the integrals of the slope are cached per (k, n): a trace's seed
        # climbing a rung pays no second Gauss-Jacobi rule
        params = ModelParams(3, 1.0, 2.5)
        first = dlambda_ds0(40, params)
        rules = []
        original = gegenbauer.gauss_jacobi_rule
        monkeypatch.setattr(gegenbauer, "gauss_jacobi_rule",
                            lambda m, n: rules.append((m, n)) or original(m, n))
        again = dlambda_ds0(40, params)
        assert rules == [] and type(again) is float and again == first
        # the cached integrals are the ones computed afresh, bit for bit
        assert cube_integral(40, 3) == cube_integral.__wrapped__(40, 3)
        assert gegenbauer_norm2(40, 3) == gegenbauer_norm2.__wrapped__(40, 3)
        assert rules == [(62, 3), (41, 3)]


class TestEigenConsistency:
    def test_zonal_kernel_of_linearization(self):
        # at lambda = lambda_k the linearized equation with coefficient
        # c(lambda_k) = k(k+n-1) annihilates P_{k,n} pointwise
        grid = np.cos(np.linspace(0, np.pi, 66))[1:-1]
        for params, k in [
            (ModelParams(2, 1.0, 3.0), 3),
            (ModelParams(3, 0.5, 4.0), 2),
            (ModelParams(4, 2.0, 2.5), 5),
        ]:
            n = params.n
            c = (params.q - 2) / (1 + 1 / params.delta) * lambda_k(k, params)
            assert c == pytest.approx(k * (k + n - 1), rel=1e-13)
            coeffs = zonal_poly(k, n)
            d1 = npoly.polyder(coeffs)
            d2 = npoly.polyder(d1)
            res = (
                (1 - grid**2) * npoly.polyval(grid, d2)
                - n * grid * npoly.polyval(grid, d1)
                + c * npoly.polyval(grid, coeffs)
            )
            assert np.max(np.abs(res)) < 1e-10
