"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import time

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from spherebif.cli import dispatch, parse_config
from spherebif.collocation import (
    DiscreteSystem,
    assemble_jacobian,
    build_grid,
    interpolate,
    sigma_min,
)
from spherebif.continuation import find_degenerate, solve_at_s
from spherebif.gegenbauer import (
    cube_integral,
    gauss_jacobi_rule,
    gegenbauer_eval,
    gegenbauer_zeros,
)
from spherebif.model import ModelParams, dlambda_ds0, lambda_k


def _report(name, detail):
    print(f"PASS: {name} -- {detail}")


@pytest.fixture(scope="module")
def degenerate_runs(tmp_path_factory, system96):
    """Trace and locate the k = 2 and k = 4 degeneracies once, via both
    the library API (for branch-level invariants) and the CLI command."""
    out = tmp_path_factory.mktemp("acceptance")
    runs = {}
    for k in (2, 4):
        t0 = time.perf_counter()
        report, branch = find_degenerate(k, system96, 1e-6)
        cfg = parse_config(None, [f"output_dir={out}", f"k={k}", "N=96"])
        code = dispatch("degenerate", cfg)
        elapsed = time.perf_counter() - t0
        payload = json.loads((out / f"degenerate_k{k}.json").read_text())
        runs[k] = dict(
            branch=branch, report=report, code=code, payload=payload, elapsed=elapsed
        )
    return out, runs


def test_criterion_1_gegenbauer_suite():
    t0 = time.perf_counter()
    for n in (2, 3, 4, 6):
        rule = gauss_jacobi_rule(23, n)  # exact through degree 45 > 20 + 20
        values = {k: gegenbauer_eval(k, n, rule.nodes) for k in range(21)}
        prev = None
        for k in range(1, 21):
            z = gegenbauer_zeros(k, n)
            assert z.shape == (k,)
            assert np.all(np.diff(z) > 0) and np.all(np.abs(z) < 1)
            h = 1e-8
            assert np.all(
                gegenbauer_eval(k, n, z - h) * gegenbauer_eval(k, n, z + h) < 0
            )
            if prev is not None:
                assert np.all(z[:-1] < prev) and np.all(prev < z[1:])
            prev = z
            assert gegenbauer_eval(k, n, 1.0) == pytest.approx(1.0, abs=1e-13)
            assert gegenbauer_eval(k, n, -1.0) == pytest.approx(
                (-1.0) ** k, abs=1e-13
            )
        for j in range(21):
            for k in range(j + 1, 21):
                val = np.dot(rule.weights, values[j] * values[k])
                assert abs(val) < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(
        "criterion 1 (Gegenbauer suite)",
        f"n in {{2,3,4,6}}, k <= 20: zeros, interlacing, endpoint values, "
        f"orthogonality < 1e-12 in {elapsed:.2f}s",
    )


def test_criterion_2_cube_integrals():
    t0 = time.perf_counter()
    for n in (2, 3, 4, 6):
        for k in range(1, 12, 2):
            assert abs(cube_integral(k, n)) < 1e-12
        for k in range(2, 13, 2):
            assert cube_integral(k, n) > 0
    assert cube_integral(2, 2) == pytest.approx(4 / 35, abs=1e-12)
    assert cube_integral(2, 4) == pytest.approx(2 / 63, abs=1e-12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(
        "criterion 2 (cube integrals)",
        f"odd k vanish, even k positive, exact values 4/35 and 2/63 "
        f"in {elapsed:.2f}s",
    )


def test_criterion_3_discrete_spectrum():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3):
        params = ModelParams(n, 1.0, 3.0)
        system = DiscreteSystem(build_grid(96), params)
        # the Jacobian at phi = 0, lambda = 0 is the reduced operator alone,
        # as mu(0) = 0; its eigenvalues nearest zero are -j(j + n - 1)
        J = assemble_jacobian(np.zeros(97), 0.0, system)
        got = -np.linalg.eigvalsh(J)[::-1][:10]
        exact = np.array([j * (j + n - 1) for j in range(10)], dtype=float)
        err = np.abs(got - exact) / np.maximum(np.abs(exact), 1.0)
        worst = max(worst, err.max())
        assert err.max() < 1e-8
        c = (params.q - 2) / (1 + 1 / params.delta)
        for k in range(1, 10):
            ck = c * lambda_k(k, params)
            assert ck == float(k * (k + n - 1))  # exact, not approximate
            assert abs(got[k] - ck) <= 1e-8 * ck
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(
        "criterion 3 (discrete spectrum)",
        f"N=96, n in {{2,3}}: first 10 eigenvalues match j(j+n-1), worst "
        f"rel err {worst:.2e}; c(lambda_k) = k(k+n-1) exactly; {elapsed:.2f}s",
    )


def test_criterion_4_self_adjointness(system48, params):
    # <Lu, v>_w by exact quadrature of the pointwise operator, against
    # <u, Lv>_w and against the Galerkin form v^T L u of the coefficients
    rng = np.random.default_rng(101)
    j = np.arange(49.0)
    L = np.diag(-j * (j + params.n - 1))
    rule = gauss_jacobi_rule(20, params.n)
    t = rule.nodes

    def weighted(a, b, apply_a):
        fa = npoly.polyval(t, a)
        if apply_a:
            fa = ((1 - t**2) * npoly.polyval(t, npoly.polyder(a, 2))
                  - params.n * t * npoly.polyval(t, npoly.polyder(a)))
        return np.dot(rule.weights, fa * npoly.polyval(t, b))

    worst = 0.0
    for _ in range(50):
        a, b = rng.uniform(-1, 1, 13), rng.uniform(-1, 1, 13)
        ca = system48.coefficients(lambda x: npoly.polyval(x, a))
        cb = system48.coefficients(lambda x: npoly.polyval(x, b))
        lu_v = weighted(a, b, True)
        gap = max(abs(lu_v - weighted(b, a, True)), abs(lu_v - cb @ L @ ca),
                  abs(ca @ L @ cb - cb @ L @ ca))
        worst = max(worst, gap)
        assert gap < 1e-10
    _report(
        "criterion 4 (weighted self-adjointness)",
        f"50 random degree-12 pairs, worst |<Lu,v> - <u,Lv>| = {worst:.2e}",
    )


def test_criterion_5_branch_slope(system96, params):
    closed = dlambda_ds0(2, params)
    assert closed == pytest.approx(-24 / 7, rel=1e-12)
    lo = solve_at_s(2, 2e-3, system96)
    hi = solve_at_s(2, 4e-3, system96)
    secant = (hi.lam - lo.lam) / 2e-3
    rel = abs(secant - closed) / abs(closed)
    assert rel < 0.03
    odd_slopes = {}
    for k in (1, 3):
        assert abs(dlambda_ds0(k, params)) < 1e-3
        plus = solve_at_s(k, 2e-3, system96)
        minus = solve_at_s(k, -2e-3, system96)
        slope = abs(plus.lam - minus.lam) / 4e-3
        odd_slopes[k] = slope
        assert slope < 1e-3
    _report(
        "criterion 5 (branch slope)",
        f"k=2 secant {secant:.6f} vs -24/7 ({100 * rel:.2f}% off); "
        f"odd-k seed slopes {odd_slopes[1]:.1e}, {odd_slopes[3]:.1e}",
    )


def test_criterion_6_psi_smallness(system96):
    ratios = {}
    for k in (2, 3):
        # the remainder w(s) - s P_k of the branch is O(s^2) at the origin
        r1, r2 = (np.linalg.norm(solve_at_s(k, s, system96).coeffs - s * system96.basis(k)) / s
                  for s in (1e-2, 5e-3))
        ratios[k] = r1 / r2
        assert 1.5 < r1 / r2 < 2.5
    _report(
        "criterion 6 (psi smallness)",
        f"||w(s) - s P_k||/|s| ratio at s = 1e-2 vs 5e-3: "
        f"k=2 -> {ratios[2]:.3f}, k=3 -> {ratios[3]:.3f}",
    )


def test_criterion_7_degenerate_construction(degenerate_runs, params, system96):
    _, runs = degenerate_runs
    for k in (2, 4):
        run = runs[k]
        lam_k = lambda_k(k, params)
        assert run["elapsed"] < 300.0
        assert run["code"] == 0
        # library-level report and branch invariants
        report = run["report"]
        assert report is not None
        assert report.point.lam < lam_k
        assert abs(report.point.sigma_min) < 1e-6
        assert report.point.u_min > 0
        assert report.point.nodal_count == k
        assert report.residual_norm < 1e-10
        assert report.newton_iterations <= 10
        assert all(pt.nodal_count == k for pt in run["branch"].points)
        # independent dense eigendecomposition at the reported point, from
        # the coefficients of the interpolant of its node values
        c = system96.coefficients(lambda t: interpolate(system96.grid, report.point.phi, t))
        J = assemble_jacobian(c, report.point.lam, system96)
        assert np.min(np.abs(np.linalg.eigvals(J))) < 1e-6
        # the CLI report agrees
        payload = run["payload"]
        assert payload["found"] is True
        assert payload["lambda_star"] < lam_k
        assert abs(payload["sigma_at_star"]) < 1e-6
        assert payload["u_min"] > 0
        assert payload["nodal_count"] == k
        assert payload["residual_norm"] < 1e-10
        assert payload["newton_iterations"] <= 10
        assert payload["lambda_star"] == pytest.approx(
            report.point.lam, rel=1e-8
        )
    _report(
        "criterion 7 (degenerate solutions)",
        f"k=2: lambda* = {runs[2]['report'].point.lam:.6f} < 12, "
        f"k=4: lambda* = {runs[4]['report'].point.lam:.6f} < 40; "
        f"sigma, positivity, nodal counts, residuals all within tolerance "
        f"({runs[2]['elapsed']:.1f}s / {runs[4]['elapsed']:.1f}s)",
    )


def test_criterion_8_manifold_verification(degenerate_runs):
    out, _ = degenerate_runs
    t0 = time.perf_counter()
    cfg = parse_config(None, [f"output_dir={out}", "k=2", "N=96"])
    assert dispatch("verify", cfg) == 0
    rep = json.loads((out / "verify.json").read_text())
    assert rep["identity_samples"] == 1000
    for key in ("laplacian", "gradient"):
        assert 1.8 < rep["identities"][key]["order"] < 2.2
    assert rep["lifted"]["source"] == "degenerate_k2"
    assert rep["lifted"]["sample_count"] == 200
    assert rep["lifted"]["max_residual"] < 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(
        "criterion 8 (manifold verification)",
        f"identity orders {rep['identities']['laplacian']['order']:.2f}/"
        f"{rep['identities']['gradient']['order']:.2f} at 1000 pairs; lifted "
        f"residual {rep['lifted']['max_residual']:.2e} < 1e-4 in {elapsed:.1f}s",
    )


def test_criterion_9_trivial_branch_kernels(system96, params):
    lam5 = lambda_k(5, params)
    lam6 = lambda_k(6, params)
    zeros = np.zeros(97)

    def sig(lam):
        return sigma_min(assemble_jacobian(zeros, lam, system96))

    # full scan: sign changes of sigma_min between 0+ and past lambda_5.
    # Each spectral gap holds two kinds: a genuine zero crossing at
    # lambda_k, and a jump where the smallest-magnitude eigenvalue switches
    # identity mid-gap without vanishing; bisection separates them because
    # only the former drives |sigma| to zero.
    grid = np.linspace(0.5 * lambda_k(1, params), 0.5 * (lam5 + lam6), 141)
    vals = np.array([sig(lam) for lam in grid])
    idx = np.where(np.sign(vals[1:]) != np.sign(vals[:-1]))[0]
    crossings = []
    for i in idx:
        lo, hi = grid[i], grid[i + 1]
        flo = vals[i]
        fm = np.inf
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fm = sig(mid)
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
            if hi - lo < 1e-10 * hi:
                break
        if abs(fm) < 1e-6:
            crossings.append(0.5 * (lo + hi))
    assert len(crossings) == 5
    expected = [lambda_k(k, params) for k in range(1, 6)]
    worst = 0.0
    for got, want in zip(crossings, expected):
        rel = abs(got - want) / want
        worst = max(worst, rel)
        assert rel < 1e-6
    # one-dimensional kernel at each ladder point
    for k in range(1, 6):
        ev = np.abs(np.linalg.eigvals(assemble_jacobian(zeros, lambda_k(k, params), system96)))
        assert np.sum(ev < 1e-3) == 1
    _report(
        "criterion 9 (trivial-branch kernels)",
        f"sigma_min flips exactly at lambda_1..lambda_5, worst rel dev "
        f"{worst:.2e}; each kernel one-dimensional",
    )
