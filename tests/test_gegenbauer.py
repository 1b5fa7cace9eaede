"""Tests for the zonal polynomial machinery."""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from numpy.testing import assert_allclose, assert_array_max_ulp
from oracles import weighted_inner
from scipy.linalg import eigh_tridiagonal
from scipy.special import roots_gegenbauer, roots_jacobi

from spherebif.collocation import DiscreteSystem, build_grid
from spherebif.gegenbauer import (
    QuadratureRule,
    cube_integral,
    gauss_jacobi_rule,
    gegenbauer_eval,
    gegenbauer_norm2,
    gegenbauer_zeros,
    linearization_coeffs,
)
from spherebif.gegenbauer import _weight_mass
from spherebif.model import ModelParams


def even_moment(j, n):
    """Exact value of int t^(2j) (1-t^2)^((n-2)/2) dt on [-1, 1]."""
    a = (n - 2) / 2
    return math.gamma(j + 0.5) * math.gamma(a + 1) / math.gamma(j + a + 1.5)


def _poch(a, j):
    out = Fraction(1)
    for i in range(j):
        out *= a + i
    return out


def dougall_square(k, n):
    """Exact {d: g_d} with P_k^2 = sum_d g_d P_d (P(1) = 1), by Dougall's formula.

    For C_j^lam with lam = (n-1)/2: C_k^2 = sum_r a_r C_{2k-2r} (Askey 1975,
    Lecture 5); then P_j = C_j / C_j(1) with C_j(1) = (2 lam)_j / j!.
    """
    lam = Fraction(n - 1, 2)

    def c1(j):
        return _poch(2 * lam, j) / math.factorial(j)

    g = {}
    for r in range(k + 1):
        d = 2 * k - 2 * r
        a = ((d + lam) / (2 * k + lam - r)
             * _poch(lam, r) * _poch(lam, k - r) ** 2 * _poch(2 * lam, 2 * k - r)
             / (math.factorial(r) * math.factorial(k - r) ** 2 * _poch(lam, 2 * k - r))
             * math.factorial(d) / _poch(2 * lam, d))
        g[d] = a * c1(d) / c1(k) ** 2
    return g


class TestEvaluation:
    def test_degree_one_is_t(self):
        assert gegenbauer_eval(1, 5, 0.3) == pytest.approx(0.3, abs=1e-15)

    def test_degree_two_closed_form(self):
        assert gegenbauer_eval(2, 2, 0.0) == pytest.approx(-0.5, abs=1e-15)
        for n in (2, 3, 4, 6):
            t = np.linspace(-1, 1, 11)
            assert_allclose(
                gegenbauer_eval(2, n, t), ((n + 1) * t**2 - 1) / n, atol=1e-14
            )

    def test_unit_at_one(self):
        assert gegenbauer_eval(7, 3, 1.0) == pytest.approx(1.0, abs=1e-14)
        for n in (2, 3, 4, 6):
            for k in range(21):
                assert gegenbauer_eval(k, n, 1.0) == pytest.approx(1.0, abs=1e-13)

    def test_alternating_at_minus_one(self):
        assert gegenbauer_eval(3, 4, -1.0) == pytest.approx(-1.0, abs=1e-14)

    def test_parity(self):
        t = np.linspace(-1, 1, 101)
        for n in (2, 3, 5):
            for k in range(13):
                assert_allclose(
                    gegenbauer_eval(k, n, -t),
                    (-1.0) ** k * gegenbauer_eval(k, n, t),
                    atol=1e-13,
                )

    @pytest.mark.parametrize("k", (0, 1, 2, 7))
    def test_table_at_a_scalar(self, k):
        row = gegenbauer_eval(k, 3, 0.37, table=True)
        assert row.shape == (k + 1,)
        assert np.array_equal(row, gegenbauer_eval(k, 3, np.array([0.37]), table=True)[0])

    def test_table_keeps_the_shape_of_t(self):
        t = np.linspace(-1, 1, 12).reshape(3, 4)
        tab = gegenbauer_eval(5, 4, t, table=True)
        assert tab.shape == (3, 4, 6)
        assert np.array_equal(tab, gegenbauer_eval(5, 4, t.ravel(), table=True).reshape(3, 4, 6))

    @pytest.mark.parametrize("n", (2, 3, 4, 6, 9))
    def test_value_is_the_last_table_column_bit_for_bit(self, n):
        # cube_integral and gegenbauer_norm2, hence dlambda_ds0, evaluate
        # one degree; the DiscreteSystem tables take every degree at once
        t = np.concatenate([gauss_jacobi_rule(40, n).nodes, np.linspace(-1, 1, 21)])
        tab = gegenbauer_eval(127, n, t, table=True)
        for k in (0, 1, 2, 5, 30, 127):
            assert np.array_equal(gegenbauer_eval(k, n, t), tab[:, k])
        assert gegenbauer_eval(30, n, 0.37) == gegenbauer_eval(30, n, np.array([0.37]))[0]

    def test_domain_error(self):
        with pytest.raises(ValueError):
            gegenbauer_eval(2, 2, 1.5)
        with pytest.raises(ValueError):
            gegenbauer_eval(-1, 2, 0.0)
        with pytest.raises(ValueError):
            gegenbauer_eval(2, 1, 0.0)
        for t in (np.nan, [0.1, np.nan, -0.2]):
            with pytest.raises(ValueError, match="outside"):
                gegenbauer_eval(3, 2, t)

    def test_rodrigues_cross_check(self):
        # the Rodrigues-style formula reproduces each polynomial up to one
        # k-dependent constant (its normalization differs from P(1) = 1)
        for n in (2, 4, 6):
            a = (n - 2) // 2
            for k in (1, 2, 3, 4):
                poly = np.array([1.0])
                for _ in range(k + a):
                    poly = npoly.polymul(poly, [1.0, 0.0, -1.0])
                for _ in range(k):
                    poly = npoly.polyder(poly)
                poly = poly * (-1.0) ** k / (2.0**k * math.factorial(k))
                denom = np.array([1.0])
                for _ in range(a):
                    denom = npoly.polymul(denom, [1.0, 0.0, -1.0])
                quot, rem = npoly.polydiv(poly, denom)
                assert np.max(np.abs(rem)) < 1e-9
                t = np.linspace(-0.95, 0.95, 41)
                mine = gegenbauer_eval(k, n, t)
                ours = npoly.polyval(t, quot)
                mask = np.abs(mine) > 0.05
                ratio = ours[mask] / mine[mask]
                assert np.max(np.abs(ratio - ratio[0])) < 1e-12 * max(1, abs(ratio[0]))
                # the constant is the unnormalized value at t = 1
                assert ratio[0] == pytest.approx(npoly.polyval(1.0, quot), rel=1e-10)


class TestDerivative:
    """P_{k,n}'(+-1), as DiscreteSystem.endpoint_derivatives takes them from
    the closed form j(j + n - 1)/n; nothing in the package differentiates
    P_{k,n} elsewhere."""

    @staticmethod
    def ends(k, n):
        system = DiscreteSystem(build_grid(48), ModelParams(n, 1.0, 2.5))
        return system.endpoint_derivatives(system.basis(k))

    def test_degree_one(self):
        for n in (2, 4):
            assert self.ends(1, n) == pytest.approx((1.0, 1.0), abs=1e-15)

    def test_degree_two_at_minus_one(self):
        # P_2,2 = (3t^2 - 1)/2 so P' = 3t
        assert self.ends(2, 2)[1] == pytest.approx(-3.0, abs=1e-13)

    def test_endpoint_ratio(self):
        # P'(-1)/P(-1) = -k(k+n-1)/n, the value driving the interlacing proof
        for n in (2, 3, 4):
            for k in (1, 2, 3, 5, 8):
                ratio = self.ends(k, n)[1] / gegenbauer_eval(k, n, -1.0)
                assert ratio == pytest.approx(-k * (k + n - 1) / n, rel=1e-12)

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_endpoint_values_exact(self, n):
        # P'(1) = j(j + n - 1)/n and P'(-1) = (-1)^(j+1) P'(1), to rounding
        # of the basis normalization
        for j in range(49):
            slope = j * (j + n - 1) / n
            assert_allclose(self.ends(j, n), (slope, (-1) ** (j + 1) * slope), rtol=1e-15)

    def test_matches_legendre_derivative(self):
        # n = 2 is Legendre; numpy differentiates its series independently
        for k in (0, 1, 4, 9, 30):
            ref = np.polynomial.legendre.Legendre.basis(k).deriv()(np.array([1.0, -1.0]))
            assert_allclose(self.ends(k, 2), ref, rtol=0, atol=1e-12 * max(1, k * k))

    def test_rejects_bad_modes(self):
        # the basis whose endpoint derivatives are taken has the modes 0..N
        system = DiscreteSystem(build_grid(48), ModelParams(2, 1.0, 3.0))
        for k in (-1, 49):
            with pytest.raises(ValueError, match="mode index must lie in 0..48"):
                system.basis(k)

    def test_matches_finite_difference(self):
        # one-sided second-order differences of the recurrence at t = +-1
        h = 1e-5
        for k, n in [(3, 2), (5, 4), (7, 3)]:
            for side, got in zip((1.0, -1.0), self.ends(k, n)):
                p = [gegenbauer_eval(k, n, side * (1 - i * h)) for i in range(3)]
                fd = side * (3 * p[0] - 4 * p[1] + p[2]) / (2 * h)
                assert got == pytest.approx(fd, rel=1e-7)


class TestZeros:
    def test_degree_one(self):
        assert_allclose(gegenbauer_zeros(1, 4), [0.0], atol=1e-15)

    def test_degree_two(self):
        assert_allclose(gegenbauer_zeros(2, 3), [-0.5, 0.5], atol=1e-14)

    def test_count_simplicity_interlacing(self):
        for n in (2, 3, 4, 6):
            prev = None
            for k in range(1, 9):
                z = gegenbauer_zeros(k, n)
                assert z.shape == (k,)
                assert np.all(np.diff(z) > 0)
                assert np.all(np.abs(z) < 1)
                # simple roots: a sign change across each one
                h = 1e-7
                left = gegenbauer_eval(k, n, z - h)
                right = gegenbauer_eval(k, n, z + h)
                assert np.all(left * right < 0)
                if prev is not None:
                    assert np.all(z[:-1] < prev) and np.all(prev < z[1:])
                prev = z

    @pytest.mark.parametrize("k", (1, 2, 3, 5, 8, 40, 120))
    @pytest.mark.parametrize("n", (2, 3, 4, 6))
    def test_one_zero_in_each_gauss_cell(self, n, k):
        # the cells split [-1, 1] at the midpoints of the Gauss nodes; P_k
        # changes sign across each, and its zero lies strictly inside
        z = gegenbauer_zeros(k, n)
        mids = 0.5 * (z[1:] + z[:-1])
        lo = np.concatenate([[-1.0], mids])
        hi = np.concatenate([mids, [1.0]])
        assert np.all((lo < z) & (z < hi))
        assert np.all(gegenbauer_eval(k, n, lo) * gegenbauer_eval(k, n, hi) < 0)
        assert np.array_equal(z, -z[::-1])

    def test_zeros_are_a_writable_copy(self):
        z = gegenbauer_zeros(4, 3)
        z[0] = 0.0
        assert gegenbauer_zeros(4, 3)[0] < 0

    def test_residual_small(self):
        z = gegenbauer_zeros(6, 2)
        assert np.max(np.abs(gegenbauer_eval(6, 2, z))) < 1e-13

    @pytest.mark.parametrize("k", (60, 120))
    def test_high_modes_match_independent_roots(self, k):
        # n = 3: P_{k,3} is a multiple of the Chebyshev U_k, whose zeros are
        # cos(j pi / (k + 1)); n = 2: Legendre, from numpy's companion
        # matrix; n = 4, 6: scipy's Gegenbauer roots of order (n - 1) / 2
        expected = {
            2: np.polynomial.legendre.leggauss(k)[0],
            3: np.cos(np.arange(k, 0, -1) * np.pi / (k + 1)),
            4: roots_gegenbauer(k, 1.5)[0],
            6: roots_gegenbauer(k, 2.5)[0],
        }
        for n, ref in expected.items():
            assert_allclose(gegenbauer_zeros(k, n), np.sort(ref), rtol=0, atol=1e-13)


class TestQuadrature:
    def test_one_point_legendre(self):
        rule = gauss_jacobi_rule(1, 2)
        assert_allclose(rule.nodes, [0.0], atol=1e-15)
        assert_allclose(rule.weights, [2.0], rtol=1e-14)

    def test_two_point_legendre(self):
        rule = gauss_jacobi_rule(2, 2)
        assert_allclose(rule.nodes, [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-15)
        assert_allclose(rule.weights, [1.0, 1.0], rtol=1e-14)

    def test_one_point_weighted_mass(self):
        rule = gauss_jacobi_rule(1, 4)
        assert rule.weights.sum() == pytest.approx(4 / 3, rel=1e-14)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            gauss_jacobi_rule(0, 2)
        with pytest.raises(ValueError):
            gauss_jacobi_rule(3, 1)

    def test_matches_scipy_reference(self):
        for m, n in [(5, 2), (8, 3), (6, 4), (7, 7)]:
            rule = gauss_jacobi_rule(m, n)
            a = (n - 2) / 2
            x_ref, w_ref = roots_jacobi(m, a, a)
            assert_allclose(rule.nodes, x_ref, atol=1e-13)
            assert_allclose(rule.weights, w_ref, rtol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
    def test_matches_tridiagonal_eigensolver(self, n):
        # the Golub-Welsch rule as scipy's tridiagonal eigensolver gives it
        for m in [2, 3, 4, 7, 16, 33, 50, 64, 97, 128, 160, 193, 230, 259]:
            j = np.arange(1, m, dtype=float)
            b = j * (j + n - 2) / ((2 * j + n - 1) * (2 * j + n - 3))
            nodes, vecs = eigh_tridiagonal(np.zeros(m), np.sqrt(b))
            weights = _weight_mass(n) * vecs[0] ** 2
            rule = gauss_jacobi_rule(m, n)
            assert_array_max_ulp(rule.nodes, 0.5 * (nodes - nodes[::-1]), maxulp=2)
            assert_array_max_ulp(rule.weights, 0.5 * (weights + weights[::-1]), maxulp=2)

    def test_exactness_top_degree(self):
        for m, n in [(3, 2), (5, 3), (4, 6), (8, 2)]:
            rule = gauss_jacobi_rule(m, n)
            # odd top degree integrates to zero
            assert abs(rule.weights @ rule.nodes ** (2 * m - 1)) < 1e-13
            # highest even monomial still inside the exactness range
            j = m - 1
            got = rule.weights @ rule.nodes ** (2 * j)
            assert got == pytest.approx(even_moment(j, n), rel=1e-13)

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            QuadratureRule(np.array([0.3, 0.1]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            QuadratureRule(np.array([-0.5, 0.5]), np.array([1.0, -1.0]))


class TestInnerProducts:
    def test_orthogonality_pair(self):
        p1 = lambda t: gegenbauer_eval(1, 2, t)
        p2 = lambda t: gegenbauer_eval(2, 2, t)
        assert abs(weighted_inner(p1, p2, 2, 4)) < 1e-15

    def test_legendre_norm(self):
        p1 = lambda t: gegenbauer_eval(1, 2, t)
        assert weighted_inner(p1, p1, 2, 4) == pytest.approx(2 / 3, rel=1e-14)

    def test_weight_mass(self):
        one = lambda t: np.ones_like(t)
        assert weighted_inner(one, one, 4, 3) == pytest.approx(4 / 3, rel=1e-14)

    def test_pairwise_orthogonality(self):
        for n in (2, 3, 5):
            m = 17  # covers degree j + k <= 30
            for j in range(16):
                for k in range(j + 1, 16):
                    val = weighted_inner(
                        lambda t, j=j: gegenbauer_eval(j, n, t),
                        lambda t, k=k: gegenbauer_eval(k, n, t),
                        n,
                        m,
                    )
                    assert abs(val) < 1e-12

    def test_norm2_helper(self):
        assert gegenbauer_norm2(1, 2) == pytest.approx(2 / 3, rel=1e-13)
        assert gegenbauer_norm2(2, 2) == pytest.approx(2 / 5, rel=1e-13)


class TestCubeIntegral:
    def test_odd_vanishes(self):
        assert abs(cube_integral(3, 5)) < 1e-15

    def test_exact_values(self):
        # exact monomial integration of ((3t^2-1)/2)^3 and ((5t^2-1)/4)^3 (1-t^2)
        assert cube_integral(2, 2) == pytest.approx(4 / 35, abs=1e-12)
        assert cube_integral(2, 4) == pytest.approx(2 / 63, abs=1e-12)

    def test_sign_law(self):
        for n in range(2, 9):
            for k in range(1, 13):
                val = cube_integral(k, n)
                if k % 2 == 1:
                    assert abs(val) < 1e-12
                else:
                    assert val > 0


class TestSquareExpansion:
    def test_hand_expansion(self):
        # t^2 = (n R_2 + 1)/(n + 1) with n = 2
        assert_allclose(linearization_coeffs(1, 2), [1 / 3, 0.0, 2 / 3], atol=1e-14)

    def test_coeffs_sum_to_one(self):
        for k, n in [(1, 2), (2, 3), (3, 4), (5, 2), (4, 6)]:
            assert linearization_coeffs(k, n).sum() == pytest.approx(1.0, rel=1e-12)

    def test_leading_positive(self):
        assert linearization_coeffs(2, 3)[0] > 0

    def test_odd_coeffs_vanish(self):
        for k, n in [(2, 2), (3, 3), (4, 5)]:
            g = linearization_coeffs(k, n)
            assert np.max(np.abs(g[1::2])) < 1e-13

    def test_reconstruction(self):
        for k, n in [(2, 2), (3, 4), (4, 3)]:
            g = linearization_coeffs(k, n)
            rule = gauss_jacobi_rule(2 * k + 2, n)
            recon = sum(
                g[j] * gegenbauer_eval(j, n, rule.nodes) for j in range(2 * k + 1)
            )
            err = gegenbauer_eval(k, n, rule.nodes) ** 2 - recon
            assert np.sqrt(np.dot(rule.weights, err**2)) < 1e-10

    def test_matches_dougall_exactly_positive_coefficients(self):
        # the exact G_j are >= 0 and sum to 1; the projection matches them
        for n in (2, 3, 4, 6):
            for k in range(1, 17):
                exact = dougall_square(k, n)
                assert all(g >= 0 for g in exact.values())
                assert sum(exact.values()) == Fraction(1)
                want = np.zeros(2 * k + 1)
                for d, g in exact.items():
                    want[d] = float(g)
                assert_allclose(linearization_coeffs(k, n), want, rtol=0, atol=1e-13)

    def test_coeffs_are_read_only(self):
        g = linearization_coeffs(3, 2)
        with pytest.raises(ValueError):
            g[0] = 1.0
