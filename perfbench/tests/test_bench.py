"""Tests of the spherebif benchmark, at tiny size.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import importlib
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def declared(kind: str) -> list:
    return [(m["name"], m["unit"]) for m in SPEC[kind]]


def run_bench(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_declared_metric_with_its_unit(workload, trace, kind):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    assert got == declared(kind)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_spec_matches_the_harness():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert declared("end_to_end") == list(run.END_TO_END)
    assert declared("per_layer") == list(run.PER_LAYER)
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in SPEC[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names + [w["name"] for w in SPEC["workloads"]])
    assert all(UNIT.match(u) for _, u in declared("end_to_end") + declared("per_layer"))
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_wrong_lambda_reference_counts_as_failure(cli):
    wrong = workloads.degenerate_op(3.0, 2, 32, reference=11.3)
    right = workloads.degenerate_op(3.0, 2, 32, reference=workloads.LAMBDA_STAR[3.0, 2])
    bad = run.run_pass([wrong], cli)
    assert run.tally([bad]) == (False, 1, 1)
    assert bad["ops"][0]["code"] == 0 and "lambda*" in bad["ops"][0]["problems"][0]
    assert run.tally([run.run_pass([right], cli)]) == (True, 1, 0)


def test_traced_pass_records_layers_and_restores_the_originals(cli):
    def bindings():
        return {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in tracing.PATCHES}

    originals = bindings()
    ops = [workloads.degenerate_op(3.0, 2, 32, workloads.LAMBDA_STAR[3.0, 2])]
    ops += workloads.verify_lift(0, "tiny")
    tracer = tracing.Tracer()
    with tracer.installed():
        assert all(bindings()[key] is not fn for key, fn in originals.items())
        traced = run.run_pass(ops, cli, tracer)
    assert all(bindings()[key] is fn for key, fn in originals.items())
    assert run.tally([traced]) == (True, 2, 0)

    metrics = tracer.metrics()
    for name in ("collocation.sigma_min", "collocation.nodal_count", "linalg.solve",
                 "collocation.interpolate", "manifold.lifted_residual", "cli.dispatch"):
        assert metrics[f"{name}.calls"][0] > 0, name
    assert tracer.located == [("degenerate q=3 k=2", 15, 400)]
    assert metrics["continuation.points_used_ratio"][0] == 15 / 400
    # sigma_min is only called from solution_point
    names = {span[0]: span[2] for span in tracer.spans}
    parents = {names[s[1]] for s in tracer.spans if s[2] == "collocation.sigma_min"}
    assert parents == {"collocation.solution_point"}


def test_originals_are_restored_when_a_pass_raises():
    spherebif_continuation = importlib.import_module("spherebif.continuation")
    original = spherebif_continuation.assemble_jacobian
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            raise RuntimeError("interrupted pass")
    assert spherebif_continuation.assemble_jacobian is original


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    child = tracer.wrap("collocation.sigma_min", lambda: time.sleep(0.03))

    def parent_body():
        time.sleep(0.02)
        child()

    tracer.wrap("collocation.solution_point", parent_body)()
    parent, kid = tracer.stats["collocation.solution_point"], tracer.stats["collocation.sigma_min"]
    assert parent.total >= 0.05 and kid.total >= 0.03
    assert parent.self == pytest.approx(parent.total - kid.total)
    parent_id = next(span[0] for span in tracer.spans if span[2] == "collocation.solution_point")
    assert [span[1] for span in tracer.spans if span[2] == "collocation.sigma_min"] == [parent_id]


def test_run_refuses_a_directory_without_the_sources():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bench = bare / "perfbench"
    bench.mkdir(parents=True)
    for f in ("run.py", "tracer.py", "workloads.py", "setup_probe.py"):
        (bench / f).write_text((BENCH / f).read_text())
    (bare / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-lift", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
