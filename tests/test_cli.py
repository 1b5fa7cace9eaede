"""Tests for configuration parsing, dispatch, and file outputs."""

import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spherebif
from spherebif.cli import (
    ConfigError,
    RunConfig,
    blas_threads,
    dispatch,
    main,
    numpy_openblas,
    parse_config,
    read_branch_records,
)
from spherebif.collocation import SolutionPoint
from spherebif.continuation import ConvergenceError, locate_degenerate, trace_branch


class TestConfig:
    def test_defaults(self):
        cfg = parse_config()
        assert (cfg.n, cfg.delta, cfg.q, cfg.k, cfg.N) == (2, 1.0, 3.0, 2, 96)
        assert cfg.sigma_tol == 1e-6
        assert (cfg.sample_count, cfg.seed, cfg.output_dir) == (200, 0, ".")

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        assert parse_config(str(path)) == RunConfig()

    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nn = 3\nq = 4.0\nseed = 7\n")
        cfg = parse_config(str(path), ["q=4.5", "output_dir=out"])
        assert cfg.n == 3
        assert cfg.q == 4.5  # override wins
        assert cfg.seed == 7
        assert cfg.output_dir == "out"

    def test_supercritical_q_rejected(self):
        with pytest.raises(ConfigError, match="q"):
            parse_config(None, ["n=3", "q=6"])

    def test_zero_delta_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(None, ["delta=0"])

    @pytest.mark.parametrize("command", ["eigen", "verify", "degenerate"])
    def test_infinite_delta_exits_three(self, tmp_path, capsys, command):
        # these used to exit 0 and write "delta": Infinity, which is not JSON
        assert main([command, "delta=inf", "N=16", f"output_dir={tmp_path}"]) == 3
        assert not any(tmp_path.iterdir())
        assert "delta must be finite and positive" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("mystery = 1\n")
        with pytest.raises(ConfigError, match="mystery"):
            parse_config(str(path))

    @pytest.mark.parametrize(
        "item",
        ["newton_tol=1e-6", "max_iter=5", "ds_init=0.02", "ds_min=1e-5",
         "ds_max=0.2", "lambda_floor=0.1", "s0=0.05", "h=0.002"],
    )
    def test_solver_constants_are_not_keys(self, tmp_path, capsys, item):
        assert main(["eigen", f"output_dir={tmp_path}", item]) == 3
        assert "unknown configuration key" in capsys.readouterr().err

    def test_unknown_command_rejected(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="unknown command 'bogus'"):
            dispatch("bogus", parse_config(None, [f"output_dir={tmp_path}"]))
        with pytest.raises(SystemExit) as exc:
            main(["bogus", f"output_dir={tmp_path}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "bogus" in err
        assert all(name in err for name in ("eigen", "poly", "branch", "degenerate", "verify"))

    @pytest.mark.parametrize("item", ["N=3.5", "seed=x"])
    def test_unparsable_value_exits_three(self, tmp_path, capsys, item):
        assert main(["eigen", f"output_dir={tmp_path}", item]) == 3
        assert "cannot parse value" in capsys.readouterr().err

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n = 2\njust words\n")
        with pytest.raises(ConfigError, match="bad.cfg:2"):
            parse_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/no/such/file.cfg")

    def test_exit_code_for_config_error(self, tmp_path, capsys):
        assert main(["eigen", "n=3", "q=6"]) == 3
        # branch and degenerate discretize P_{k,n}, which needs k <= N; a
        # sigma_tol of nan would switch off the |sigma_min| test of a fold
        for argv in (["branch", "k=40", "N=32"], ["degenerate", "k=40", "N=32"],
                     ["degenerate", "sigma_tol=nan", "N=32"],
                     ["degenerate", "sigma_tol=inf", "N=32"],
                     # lambda_k overflows although mu stays finite; eigen wrote "2,inf"
                     ["eigen", "delta=1e-308"], ["eigen", "delta=1e-320"],
                     # k(k+n-1) does not convert to a float
                     ["eigen", f"k={10**200}"]):
            assert main([*argv, f"output_dir={tmp_path}"]) == 3
        assert not any(tmp_path.iterdir())
        err = capsys.readouterr().err
        assert err.count("configuration error") == 8
        assert f"lambda_{10**200} overflows a float" in err
        assert "lambda_2 overflows a float at delta=1e-308, q=3.0" in err
        assert "lambda_2 overflows a float at delta=1e-320, q=3.0" in err

    def test_output_dir_that_cannot_be_created_exits_three(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        for where in (taken, taken / "below"):
            assert main(["eigen", f"output_dir={where}"]) == 3
        err = capsys.readouterr().err
        assert err.count(f"configuration error: cannot create output_dir {taken}") == 2
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,name,cpus", [
        (["eigen"], "eigen.csv", 1),
        (["poly"], "poly_coeffs.csv", 1),
        (["degenerate", "N=32"], "degenerate_k2.json", 1),
        (["degenerate", "N=32"], "degenerate_k2_profile.csv", 1),
        (["verify", "N=16", "sample_count=20"], "verify.json", 1),
        # on two CPUs a forked child writes the minus files
        *[(["branch", "N=32"], f"branch_k2_{name}", cpus)
          for name in ("plus.csv", "minus.jsonl") for cpus in (1, 2)],
    ])
    def test_a_directory_in_place_of_an_output_file_exits_three(
        self, tmp_path, capsys, monkeypatch, argv, name, cpus
    ):
        (_one_cpu if cpus == 1 else _two_cpus)(monkeypatch)
        (tmp_path / name).mkdir()
        assert main([*argv, f"output_dir={tmp_path}"]) == 3
        err = capsys.readouterr().err
        assert f"configuration error: cannot write {tmp_path / name}: " in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*.tmp"))
        _assert_no_child_left()

    def test_eigen_and_poly_take_any_k(self, tmp_path):
        # they do not discretize, so k > N is no error for them
        assert main(["eigen", "k=200", "N=8", f"output_dir={tmp_path}"]) == 0
        assert main(["poly", "k=9", "N=8", f"output_dir={tmp_path}"]) == 0

    def test_negative_seed_rejected(self, tmp_path, capsys):
        argv = ["verify", "seed=-1", "N=16", "sample_count=5", f"output_dir={tmp_path}"]
        assert main(argv) == 3
        assert "seed must be >= 0, got -1" in capsys.readouterr().err


class TestEigenCommand:
    def test_rows(self, tmp_path, capsys):
        cfg = parse_config(None, [f"output_dir={tmp_path}", "k=3"])
        assert dispatch("eigen", cfg) == 0
        lines = (tmp_path / "eigen.csv").read_text().strip().splitlines()
        assert lines[0] == "k,lambda"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["1", "2", "3"]
        assert [float(r[1]) for r in rows] == [4.0, 12.0, 24.0]


class TestPolyCommand:
    def test_files_written(self, tmp_path):
        cfg = parse_config(None, [f"output_dir={tmp_path}", "k=2", "n=2"])
        assert dispatch("poly", cfg) == 0
        zeros = (tmp_path / "poly_zeros.csv").read_text().strip().splitlines()
        assert [float(v) for v in zeros[1:]] == pytest.approx(
            [-1 / math.sqrt(3), 1 / math.sqrt(3)]
        )
        integrals = dict(
            line.split(",")
            for line in (tmp_path / "poly_integrals.csv").read_text().strip().splitlines()[1:]
        )
        assert float(integrals["cube"]) == pytest.approx(4 / 35, abs=1e-12)
        values = (tmp_path / "poly_values.csv").read_text().strip().splitlines()
        assert len(values) == 202


@pytest.fixture(scope="module")
def branch_outdir(tmp_path_factory):
    out = tmp_path_factory.mktemp("branch")
    cfg = parse_config(None, [f"output_dir={out}", "k=2", "N=32"])
    # cap the runtime: a short trace is enough to validate the format
    import spherebif.cli as cli_mod

    original = cli_mod.continuation.trace_branch

    def short_trace(*args, **kwargs):
        kwargs["max_points"] = 25
        return original(*args, **kwargs)

    cli_mod.continuation.trace_branch = short_trace
    try:
        code = dispatch("branch", cfg)
    finally:
        cli_mod.continuation.trace_branch = original
    assert code == 0
    return out


@pytest.fixture(scope="module")
def degen_outdir(tmp_path_factory):
    out = tmp_path_factory.mktemp("degen")
    cfg = parse_config(None, [f"output_dir={out}", "k=2", "N=48"])
    assert dispatch("degenerate", cfg) == 0
    return out


class TestBranchCommand:
    def test_files_exist(self, branch_outdir):
        for tag in ("plus", "minus"):
            assert (branch_outdir / f"branch_k2_{tag}.jsonl").exists()
            assert (branch_outdir / f"branch_k2_{tag}.csv").exists()

    def test_round_trip_invariants(self, branch_outdir):
        records = read_branch_records(branch_outdir / "branch_k2_plus.jsonl")
        assert len(records) >= 10
        for rec in records:
            pt = SolutionPoint(
                phi=np.array(rec["phi"]),
                lam=rec["lambda"],
                s_coord=rec["s_coord"],
                nodal_count=rec["nodal_count"],
                sigma_min=rec["sigma_min"],
                u_min=rec["u_min"],
            )
            assert pt.phi.shape == (33,)
            assert pt.u_min > 0
            assert pt.nodal_count == 2
            assert pt.u_min == pytest.approx(1 + pt.phi.min(), rel=1e-12)

    def test_csv_matches_jsonl(self, branch_outdir):
        records = read_branch_records(branch_outdir / "branch_k2_plus.jsonl")
        lines = (branch_outdir / "branch_k2_plus.csv").read_text().strip().splitlines()
        assert lines[0] == "s,lambda,sigma_min"
        assert len(lines) == len(records) + 1
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == records[0]["s_coord"]
        assert first[1] == records[0]["lambda"]

    def test_float_round_trip_is_exact(self, branch_outdir):
        lines = (branch_outdir / "branch_k2_plus.csv").read_text().strip().splitlines()
        for line in lines[1:3]:
            for tok in line.split(","):
                assert format(float(tok), ".17g") == tok


class TestDegenerateAndVerify:
    def test_report_contents(self, degen_outdir):
        rep = json.loads((degen_outdir / "degenerate_k2.json").read_text())
        assert rep["found"] is True
        assert rep["lambda_star"] < rep["lambda_k"] == 12.0
        assert abs(rep["sigma_at_star"]) < 1e-6
        assert rep["nodal_count"] == 2
        assert rep["u_min"] > 0
        assert rep["residual_norm"] < 1e-10
        assert len(rep["phi"]) == 49

    def test_profile_csv(self, degen_outdir):
        lines = (degen_outdir / "degenerate_k2_profile.csv").read_text().strip().splitlines()
        assert lines[0] == "t,phi"
        assert len(lines) == 50

    def test_verify_uses_degenerate_profile(self, degen_outdir):
        cfg = parse_config(
            None, [f"output_dir={degen_outdir}", "k=2", "N=48", "sample_count=60"]
        )
        assert dispatch("verify", cfg) == 0
        rep = json.loads((degen_outdir / "verify.json").read_text())
        assert rep["lifted"]["source"] == "degenerate_k2"
        assert rep["lifted"]["max_residual"] < 1e-4
        for key in ("laplacian", "gradient"):
            assert 1.8 < rep["identities"][key]["order"] < 2.2

    def test_verify_trivial_fallback(self, tmp_path):
        cfg = parse_config(
            None, [f"output_dir={tmp_path}", "N=16", "sample_count=20"]
        )
        assert dispatch("verify", cfg) == 0
        rep = json.loads((tmp_path / "verify.json").read_text())
        assert rep["lifted"]["source"] == "trivial"
        assert rep["lifted"]["max_residual"] < 1e-8

    @pytest.mark.parametrize(
        "report, reason",
        [
            ({"found": False}, "has found: false"),
            ({"found": True, "N": 24}, "holds N=24, not N=16"),
            # written for another problem at the same N
            ({"found": True, "N": 16, "n": 3, "delta": 1.0, "q": 3.0}, "holds n=3, not n=2"),
            ({"found": True, "N": 16, "n": 2, "delta": 0.5, "q": 3.0}, "holds delta=0.5, not delta=1.0"),
            ({"found": True, "N": 16, "n": 2, "delta": 1.0, "q": 4.0}, "holds q=4.0, not q=3.0"),
            # a profile of another length would not fit the grid of N
            ({"found": True, "N": 16, "n": 2, "delta": 1.0, "q": 3.0, "phi": [0.0] * 10,
              "lambda_star": 4.0}, "holds phi of shape (10,), not the N + 1 = 17 node values"),
            ({"found": True, "N": 16, "n": 2, "delta": 1.0, "q": 3.0, "lambda_star": 4.0},
             "holds phi of shape (), not the N + 1 = 17 node values"),
            # malformed reports, given as the text of the file
            ('{"found": true, "N": 16', "is not valid JSON"),
            ("[]", "does not hold a JSON object"),
            ({"found": True, "N": 16, "n": 2, "delta": 1.0, "q": 3.0, "phi": [0.0] * 17},
             "does not hold a finite phi and lambda_star"),
            ({"found": True, "N": 16, "n": 2, "delta": 1.0, "q": 3.0,
              "phi": [0.0] * 16 + [None], "lambda_star": 4.0},
             "does not hold a finite phi and lambda_star"),
            ({"found": True, "N": 16, "n": 2, "delta": 1.0, "q": 3.0, "phi": [0.0] * 17,
              "lambda_star": float("nan")}, "does not hold a finite phi and lambda_star"),
            ({"found": True, "N": 16, "n": 2, "delta": 1.0, "q": 3.0,
              "phi": [[0.0]] * 16 + [[0.0, 1.0]], "lambda_star": 4.0},
             "does not hold a finite phi and lambda_star"),
            # a directory in the report's place
            (None, "cannot be read ("),
        ],
    )
    def test_verify_names_why_a_report_is_not_lifted(self, tmp_path, capsys, report, reason):
        overrides = [f"output_dir={tmp_path}", "N=16", "sample_count=20"]
        assert dispatch("verify", parse_config(None, overrides)) == 0
        expected = (tmp_path / "verify.json").read_bytes()
        capsys.readouterr()

        path = tmp_path / "degenerate_k2.json"
        if report is None:
            path.mkdir()
        else:
            path.write_text(report if isinstance(report, str) else json.dumps(report))
        assert dispatch("verify", parse_config(None, overrides)) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert "degenerate_k2.json" in err[0] and reason in err[0]
        assert err[0].endswith("lifting the trivial profile")
        assert (tmp_path / "verify.json").read_bytes() == expected

    def test_verify_exits_2_when_the_lift_is_not_positive(self, tmp_path, capsys):
        argv = ["verify", "N=16", "sample_count=20", f"output_dir={tmp_path}"]
        assert main(argv) == 0  # the trivial lift leaves a verify.json
        assert (tmp_path / "verify.json").exists()
        capsys.readouterr()
        report = {"found": True, "N": 16, "n": 2, "delta": 1.0, "q": 3.0,
                  "phi": [-1.5] * 17, "lambda_star": 4.0}
        (tmp_path / "degenerate_k2.json").write_text(json.dumps(report))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "degenerate_k2.json: lifted u is not positive at sample 0" in err
        assert "Traceback" not in err
        assert not (tmp_path / "verify.json").exists()

    def test_trace_stops_at_the_located_crossing(self, tmp_path, monkeypatch, system48):
        import spherebif.cli as cli_mod

        original = cli_mod.continuation.trace_branch
        traced = []

        def recording_trace(*args, **kwargs):
            traced.append(original(*args, **kwargs))
            return traced[-1]

        monkeypatch.setattr(cli_mod.continuation, "trace_branch", recording_trace)
        cfg = parse_config(None, [f"output_dir={tmp_path}", "k=2", "N=48"])
        assert dispatch("degenerate", cfg) == 0
        rep = json.loads((tmp_path / "degenerate_k2.json").read_text())
        assert len(traced[0].points) == rep["crossing_index"] + 2
        assert traced[0].points[0].coeffs.size == 33  # traced at N_c = 32

        # the same answer as locating after a full-budget trace at N; the
        # trace above ran at N_c = 32 and the fold was solved for again at
        # N = 48, so lambda* and phi agree to rounding, not bit for bit
        full = trace_branch(2, 1, system48)
        assert len(full.points) == 400
        ref = locate_degenerate(full, 1e-6, system48)
        assert rep["crossing_index"] == ref.crossing_index
        assert rep["lambda_star"] == pytest.approx(ref.lambda_star, rel=1e-12, abs=0)
        np.testing.assert_allclose(rep["phi"], ref.phi_star, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("q,k", [(6.0, 6), (4.0, 4)])
    def test_hard_folds_are_located(self, tmp_path, q, k):
        # an arclength bisection used to give up on these after one stalled
        # corrector (q=6 k=6) or a bracket shrunk faster than the chord (q=4 k=4)
        cfg = parse_config(
            None, [f"output_dir={tmp_path}", "n=2", "delta=1", f"q={q}", f"k={k}", "N=96"]
        )
        assert dispatch("degenerate", cfg) == 0
        rep = json.loads((tmp_path / f"degenerate_k{k}.json").read_text())
        assert rep["found"] is True
        assert rep["residual_norm"] < 1e-10
        assert abs(rep["sigma_at_star"]) < cfg.sigma_tol
        assert rep["nodal_count"] == k
        assert rep["newton_iterations"] <= 10

    @pytest.mark.parametrize("q,k,lambda_star", [
        (3.0, 2, 11.223525580301466), (3.0, 4, 38.85553446737754),
        (6.0, 6, 20.364737861326915), (4.0, 4, 19.25113681849634),
    ])
    def test_located_lambda_star_is_pinned(self, tmp_path, q, k, lambda_star):
        # the answers of the fold hunt at N=96; a change of discretization
        # must reproduce them, and a change of step rule the traced pair
        # (crossing_index) whose crossing they come from
        cfg = parse_config(
            None, [f"output_dir={tmp_path}", "n=2", "delta=1", f"q={q}", f"k={k}", "N=96"]
        )
        assert dispatch("degenerate", cfg) == 0
        rep = json.loads((tmp_path / f"degenerate_k{k}.json").read_text())
        assert rep["lambda_star"] == pytest.approx(lambda_star, rel=1e-10, abs=0)
        assert rep["crossing_index"] == {(3.0, 2): 13, (3.0, 4): 17, (6.0, 6): 13, (4.0, 4): 12}[q, k]

    @pytest.mark.parametrize("N", [32, 48])
    def test_q6_k6_located_at_low_resolution(self, tmp_path, N):
        # at N <= 48 the plus branch used to step onto the trivial solution
        # and the command exited 2 with "no eigenvalue crossing found"
        cfg = parse_config(
            None, [f"output_dir={tmp_path}", "n=2", "delta=1", "q=6", "k=6", f"N={N}"]
        )
        assert dispatch("degenerate", cfg) == 0
        rep = json.loads((tmp_path / "degenerate_k6.json").read_text())
        assert rep["residual_norm"] < 1e-10
        assert rep["nodal_count"] == 6
        assert rep["lambda_star"] == pytest.approx(20.364737861326915, rel=1e-5)

    def test_not_found_exits_two(self, tmp_path):
        # an odd-mode branch climbs away without an eigenvalue crossing
        import spherebif.cli as cli_mod

        original = cli_mod.continuation.trace_branch

        def short_trace(*args, **kwargs):
            kwargs["max_points"] = 12
            return original(*args, **kwargs)

        cli_mod.continuation.trace_branch = short_trace
        try:
            cfg = parse_config(None, [f"output_dir={tmp_path}", "k=1", "N=32"])
            code = dispatch("degenerate", cfg)
        finally:
            cli_mod.continuation.trace_branch = original
        assert code == 2
        rep = json.loads((tmp_path / "degenerate_k1.json").read_text())
        assert rep["found"] is False


def _degenerate_outputs(tmp_path, capsys, overrides) -> tuple:
    """Run ``degenerate`` in a new directory under tmp_path; returns its
    exit code, its files' bytes by name and its stderr."""
    out = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
    capsys.readouterr()
    code = dispatch("degenerate", parse_config(None, [f"output_dir={out}", *overrides]))
    err = capsys.readouterr().err.replace(str(out), "OUT")
    return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}, err


def _full_trace_outputs(tmp_path, capsys, monkeypatch, overrides) -> tuple:
    """The outputs of ``degenerate`` when it traces at N itself."""
    import spherebif.cli as cli_mod

    with monkeypatch.context() as m:
        # N_c = max(32, N): never below N
        m.setattr(cli_mod, "COARSE_N_DIVISOR", 1)
        return _degenerate_outputs(tmp_path, capsys, overrides)


class TestCoarseFold:
    """``degenerate`` locates the fold on a trace at N_c = max(32, N // 3)
    and solves for it again at N."""

    @pytest.mark.parametrize("n,q,k,crossing_index", [
        (2, 3.0, 2, 13), (2, 3.0, 4, 17), (2, 6.0, 6, 13), (2, 4.0, 4, 12), (3, 4.9, 2, 23),
    ])
    def test_lambda_star_matches_a_trace_at_N(self, tmp_path, n, q, k, crossing_index):
        from spherebif.collocation import DiscreteSystem, build_grid
        from spherebif.model import ModelParams

        cfg = parse_config(None, [f"output_dir={tmp_path}", f"n={n}", f"q={q}", f"k={k}", "N=96"])
        assert dispatch("degenerate", cfg) == 0
        rep = json.loads((tmp_path / f"degenerate_k{k}.json").read_text())
        assert rep["crossing_index"] == crossing_index

        system = DiscreteSystem(build_grid(96), ModelParams(n=n, delta=1.0, q=q))
        branch = trace_branch(k, 1, system, max_points=crossing_index + 2)
        ref = locate_degenerate(branch, 1e-6, system)
        assert ref.crossing_index == crossing_index
        assert rep["lambda_star"] == pytest.approx(ref.lambda_star, rel=1e-10, abs=0)
        assert rep["residual_norm"] < 1e-10
        assert abs(rep["sigma_at_star"]) < cfg.sigma_tol
        assert rep["nodal_count"] == k and rep["u_min"] > 0
        assert len(rep["phi"]) == 97

    def test_small_N_traces_at_N(self, tmp_path, capsys, monkeypatch):
        # N_c = 32 is not below N = 32: the command runs as it always has
        import spherebif.cli as cli_mod

        def unexpected(*args):
            pytest.fail("refine_degenerate called at N = 32")

        monkeypatch.setattr(cli_mod.continuation, "refine_degenerate", unexpected)
        overrides = ["k=2", "N=32"]
        code, files, err = _degenerate_outputs(tmp_path, capsys, overrides)
        assert code == 0 and "N_c" not in err
        assert (code, files, err) == _full_trace_outputs(tmp_path, capsys, monkeypatch, overrides)

    def test_k_above_N_c_traces_at_N(self, tmp_path, monkeypatch):
        # N_c = 32 has no mode 33: the command traces at N = 48 itself
        import spherebif.cli as cli_mod
        from spherebif.collocation import build_grid

        built = []

        def recording_grid(N):
            built.append(N)
            return build_grid(N)

        monkeypatch.setattr(cli_mod, "build_grid", recording_grid)
        cfg = parse_config(None, [f"output_dir={tmp_path}", "k=33", "N=48"])
        assert dispatch("degenerate", cfg) == 2
        assert json.loads((tmp_path / "degenerate_k33.json").read_text())["found"] is False
        assert built == [48]

    @pytest.mark.parametrize("failure", ["refinement", "no crossing", "convergence"])
    def test_a_failed_coarse_fold_falls_back_to_a_trace_at_N(
        self, tmp_path, capsys, monkeypatch, failure
    ):
        import spherebif.cli as cli_mod

        overrides = ["k=2", "N=48"]
        expected = _full_trace_outputs(tmp_path, capsys, monkeypatch, overrides)
        trace, locate = cli_mod.continuation.trace_branch, cli_mod.continuation.locate_degenerate

        def coarse_trace(k, direction, sys, **kwargs):
            if sys.grid.N == 32:
                raise ConvergenceError("stalled")
            return trace(k, direction, sys, **kwargs)

        def coarse_locate(branch, sigma_tol, sys, **kwargs):
            return None if sys.grid.N == 32 else locate(branch, sigma_tol, sys, **kwargs)

        patch = {
            "refinement": ("refine_degenerate", lambda *args: None),
            "no crossing": ("locate_degenerate", coarse_locate),
            "convergence": ("trace_branch", coarse_trace),
        }[failure]
        monkeypatch.setattr(cli_mod.continuation, *patch)
        code, files, err = _degenerate_outputs(tmp_path, capsys, overrides)
        assert code == 0 and "N_c" not in err
        assert (code, files, err) == expected

    def test_the_log_line_gives_N_c_and_the_change_in_lambda_star(self, tmp_path, capsys):
        # (6,6) is the fold-hunt case that N = 32 resolves least well
        problem = ["q=6", "k=6"]
        _, coarse, _ = _degenerate_outputs(tmp_path, capsys, [*problem, "N=32"])
        code, fine, err = _degenerate_outputs(tmp_path, capsys, [*problem, "N=96"])
        assert code == 0
        lam_c = json.loads(coarse["degenerate_k6.json"])["lambda_star"]
        lam = json.loads(fine["degenerate_k6.json"])["lambda_star"]
        change = f"{abs(lam - lam_c):.1e}"
        assert f", N_c = 32, |lambda*(N) - lambda*(N_c)| = {change} -> OUT" in err
        assert float(change) >= 1e-9
        assert lam == pytest.approx(20.364737861326915, rel=1e-12, abs=0)


def _one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


def _two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _failing_trace(monkeypatch, failing_direction, fail):
    """Patch the CLI's trace_branch so that one direction calls ``fail`` instead."""
    import spherebif.cli as cli_mod

    original = cli_mod.continuation.trace_branch

    def trace(k, direction, *args, **kwargs):
        if direction == failing_direction:
            fail()
        return original(k, direction, *args, **kwargs)

    monkeypatch.setattr(cli_mod.continuation, "trace_branch", trace)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedBranch:
    """On two CPUs the minus branch is traced in a forked child."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_same_files_and_log_as_one_cpu(self, tmp_path, monkeypatch, capsys, k):
        runs = {}
        for name, cpus in (("two", _two_cpus), ("one", _one_cpu)):
            cpus(monkeypatch)
            out = tmp_path / name
            cfg = parse_config(None, [f"output_dir={out}", f"k={k}", "N=32"])
            assert dispatch("branch", cfg) == 0
            files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
            runs[name] = files, capsys.readouterr().err.replace(str(out), "OUT").splitlines()
        assert runs["two"] == runs["one"]
        files, err = runs["two"]
        assert sorted(files) == [f"branch_k{k}_{tag}.{ext}" for tag in ("minus", "plus")
                                 for ext in ("csv", "jsonl")]
        assert [line.split(":")[0] for line in err] == [f"branch k={k} {tag}"
                                                        for tag in ("plus", "minus")]
        _assert_no_child_left()

    @pytest.mark.parametrize("cpus", [_two_cpus, _one_cpu], ids=["two_cpus", "one_cpu"])
    def test_minus_convergence_error_exits_two(self, tmp_path, monkeypatch, capsys, cpus):
        cpus(monkeypatch)

        def fail():
            raise ConvergenceError("corrector stalled")

        _failing_trace(monkeypatch, -1, fail)
        assert dispatch("branch", parse_config(None, [f"output_dir={tmp_path}", "N=32"])) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("branch k=2 plus: 400 points")
        assert err[1] == "branch k=2 minus: corrector stalled"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["branch_k2_plus.csv",
                                                              "branch_k2_plus.jsonl"]
        _assert_no_child_left()

    def test_other_child_errors_are_raised_again(self, tmp_path, monkeypatch):
        _two_cpus(monkeypatch)

        def fail():
            raise ValueError("bad minus")

        _failing_trace(monkeypatch, -1, fail)
        with pytest.raises(ValueError, match="bad minus"):
            dispatch("branch", parse_config(None, [f"output_dir={tmp_path}", "N=32"]))
        _assert_no_child_left()

    def test_a_failed_parent_trace_stops_the_child(self, tmp_path, monkeypatch):
        _two_cpus(monkeypatch)

        def fail():
            raise ValueError("bad plus")

        _failing_trace(monkeypatch, 1, fail)
        with pytest.raises(ValueError, match="bad plus"):
            dispatch("branch", parse_config(None, [f"output_dir={tmp_path}", "N=32"]))
        _assert_no_child_left()

    def test_a_child_killed_without_a_result_is_an_error(self, tmp_path, monkeypatch):
        _two_cpus(monkeypatch)
        _failing_trace(monkeypatch, -1, lambda: os.kill(os.getpid(), signal.SIGKILL))
        killed = f"exited with code -{int(signal.SIGKILL)} without a result"
        with pytest.raises(RuntimeError, match=killed):
            dispatch("branch", parse_config(None, [f"output_dir={tmp_path}", "N=32"]))
        assert (tmp_path / "branch_k2_plus.jsonl").exists()
        _assert_no_child_left()


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        import spherebif.cli as cli_mod

        original = cli_mod.continuation.trace_branch

        def short_trace(*args, **kwargs):
            kwargs["max_points"] = 10
            return original(*args, **kwargs)

        cli_mod.continuation.trace_branch = short_trace
        try:
            blobs = []
            for sub in ("a", "b"):
                out = tmp_path / sub
                cfg = parse_config(
                    None, [f"output_dir={out}", "k=2", "N=32", "seed=5"]
                )
                assert dispatch("branch", cfg) == 0
                blobs.append(
                    (out / "branch_k2_plus.jsonl").read_bytes()
                    + (out / "branch_k2_minus.csv").read_bytes()
                )
        finally:
            cli_mod.continuation.trace_branch = original
        assert blobs[0] == blobs[1]


def test_main_end_to_end(tmp_path, capsys):
    code = main(["eigen", "--config", os.devnull, f"output_dir={tmp_path}", "k=2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "k,lambda" in out
    assert (tmp_path / "eigen.csv").exists()


def _run_python(script, *args):
    """Run a script in a fresh interpreter that imports this spherebif."""
    src = str(Path(spherebif.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
                          timeout=300)
    assert done.returncode == 0, done.stderr


_NO_SCIPY_LOADED = """
assert not [name for name, mod in sys.modules.items()
            if (name == "scipy" or name.startswith("scipy.")) and mod is not None]
"""


def test_import_loads_no_scipy():
    _run_python("import sys\nimport spherebif.cli\n" + _NO_SCIPY_LOADED)


def test_package_root_loads_no_numpy():
    # the root holds no names but __version__: each one comes from its module
    _run_python("import sys, spherebif\n"
                "assert 'numpy' not in sys.modules, 'import spherebif loaded numpy'\n"
                "assert spherebif.__version__\n")


def test_every_module_export_resolves():
    script = """
import importlib, pkgutil, spherebif
modules = [info.name for info in pkgutil.iter_modules(spherebif.__path__)
           if not info.name.startswith("_")]
assert {"gegenbauer", "model", "collocation", "continuation", "manifold", "cli"} <= set(modules)
for name in modules:
    module = importlib.import_module("spherebif." + name)
    missing = [key for key in module.__all__ if not hasattr(module, key)]
    assert not missing, (name, missing)
"""
    _run_python(script)


def test_commands_run_without_scipy(tmp_path):
    script = """
import json, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import spherebif.cli
out = sys.argv[1]
assert spherebif.cli.main(["degenerate", "k=2", "N=32", f"output_dir={out}"]) == 0
assert spherebif.cli.main(["verify", "k=2", "N=32", "sample_count=20", f"output_dir={out}"]) == 0
with open(f"{out}/verify.json") as fh:
    assert json.load(fh)["lifted"]["source"] == "degenerate_k2"
""" + _NO_SCIPY_LOADED
    _run_python(script, tmp_path)


def test_main_pins_blas_to_one_thread_and_import_does_not(tmp_path):
    found = numpy_openblas()
    if found is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS with a thread-count setter")
    script = """
import ctypes, sys
import numpy
lib, pattern, out = sys.argv[1:]
blas = ctypes.CDLL(lib)
get, set_ = getattr(blas, pattern.format("get")), getattr(blas, pattern.format("set"))
get.argtypes, get.restype = [], ctypes.c_int
set_.argtypes, set_.restype = [ctypes.c_int], None
set_(2)
assert get() == 2, get()
import spherebif, spherebif.cli
assert get() == 2, get()
assert spherebif.cli.main(["eigen", f"output_dir={out}"]) == 0
assert get() == 1, get()
assert spherebif.cli.numpy_openblas()[2] == 2  # the count a large trace gets back
"""
    _run_python(script, *found[:2], tmp_path)


@pytest.mark.parametrize("command, k, N, threads", [
    ("branch", 3, 192, 1), ("degenerate", 3, 320, 4), ("branch", 3, 318, 1),
    ("branch", 3, 158, 1), ("branch", 2, 192, 1), ("degenerate", 2, 640, 4),
    ("verify", 3, 192, 1), ("eigen", 3, 192, 1), ("branch", 3, 320, 1),
])
def test_blas_threads_follow_the_traced_system_size(monkeypatch, command, k, N, threads):
    # on two CPUs; a forking branch gets one thread per process at any size
    _two_cpus(monkeypatch)
    cfg = parse_config(None, [f"k={k}", f"N={N}"])
    assert blas_threads(command, cfg, 4) == threads


@pytest.mark.parametrize("cpus", [
    _one_cpu, lambda monkeypatch: monkeypatch.delattr(os, "sched_getaffinity", raising=False),
], ids=["one_cpu", "no_affinity"])
def test_a_sequential_branch_keeps_the_size_rule(monkeypatch, cpus):
    # on one CPU, or off Linux, branch traces one direction after the other
    cpus(monkeypatch)
    assert blas_threads("branch", parse_config(None, ["k=3", "N=320"]), 4) == 4
    assert blas_threads("branch", parse_config(None, ["k=3", "N=318"]), 4) == 1
