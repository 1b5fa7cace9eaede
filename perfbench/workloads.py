"""Workloads of the spherebif benchmark: the CLI operations of one pass and
the checks on their outputs.

Every operation is one call of ``spherebif.cli.dispatch``.  A workload is a
function of the seed and the size (``full`` for measurement, ``tiny`` for the
benchmark's own tests) that returns its list of operations.  This module
imports no numpy and no spherebif at import time, so the set-up probe can
time those imports itself.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from functools import partial
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
DATA_DIR = os.path.join(HERE, "data")

# lambda* of the degenerate solutions at n=2, delta=1, N=96, as the seed
# implementation computes them.  N=32 reproduces both to 1e-12 relative,
# so the tiny size checks against the same values.
LAMBDA_STAR = {(3.0, 2): 11.223525580301466, (3.0, 4): 38.85553446737754}
LAMBDA_RTOL = 1e-8
RESIDUAL_MAX = 1e-10
SIGMA_TOL = 1e-6  # the CLI default, restated so the check does not depend on it
LIFT_RESIDUAL_MAX = 1e-4
FD_ORDER_RANGE = (1.5, 2.5)
BRANCH_POINTS = 400  # the fixed point budget of trace_branch


@dataclass(frozen=True)
class Op:
    """One CLI operation: ``dispatch(command, config)`` plus its output check.

    ``key`` names the operation's output directory; ``check(outdir)``
    returns the list of problems found in its outputs; ``inputs`` are files
    of ``DATA_DIR`` copied into the output directory before it runs.
    """

    label: str
    key: str
    command: str
    settings: dict
    check: Callable[[str], list]
    inputs: tuple = ()

    def overrides(self, outdir: str) -> list:
        items = [f"{k}={v}" for k, v in self.settings.items()]
        return items + [f"output_dir={outdir}"]


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_degenerate(outdir: str, k: int, reference: float | None) -> list:
    """lambda* against the reference, a small residual, a vanishing sigma_min.

    Configurations without a reference value are checked for the residual,
    sigma_min and the nodal count k of the degenerate profile.
    """
    path = os.path.join(outdir, f"degenerate_k{k}.json")
    if not os.path.exists(path):
        return [f"missing {os.path.basename(path)}"]
    out = _read_json(path)
    if not out.get("found"):
        return ["no degenerate point found"]
    problems = []
    lam = out["lambda_star"]
    if reference is not None and abs(lam - reference) > LAMBDA_RTOL * abs(reference):
        problems.append(f"lambda* {lam!r} differs from {reference!r}")
    if not out["residual_norm"] < RESIDUAL_MAX:
        problems.append(f"residual_norm {out['residual_norm']:.3e} >= {RESIDUAL_MAX:g}")
    if not abs(out["sigma_at_star"]) < SIGMA_TOL:
        problems.append(f"|sigma_at_star| {abs(out['sigma_at_star']):.3e} >= {SIGMA_TOL:g}")
    if out["nodal_count"] != k:
        problems.append(f"nodal count {out['nodal_count']} != {k}")
    return problems


def check_branch(outdir: str, k: int, expected_points: int) -> list:
    """Both branches have the expected point count and one nodal count, k."""
    problems = []
    for tag in ("plus", "minus"):
        path = os.path.join(outdir, f"branch_k{k}_{tag}.jsonl")
        if not os.path.exists(path):
            problems.append(f"missing {os.path.basename(path)}")
            continue
        with open(path, "r", encoding="utf-8") as fh:
            counts = [json.loads(line)["nodal_count"] for line in fh if line.strip()]
        if len(counts) != expected_points:
            problems.append(f"{tag}: {len(counts)} points, expected {expected_points}")
        if set(counts) != {k}:
            problems.append(f"{tag}: nodal counts {sorted(set(counts))}, expected [{k}]")
    return problems


def check_verify(outdir: str, source: str) -> list:
    """Small lifted residual of the stored profile, second-order identities."""
    path = os.path.join(outdir, "verify.json")
    if not os.path.exists(path):
        return ["missing verify.json"]
    out = _read_json(path)
    problems = []
    lifted = out["lifted"]
    if lifted["source"] != source:
        problems.append(f"lifted {lifted['source']!r}, expected {source!r}")
    if not lifted["max_residual"] < LIFT_RESIDUAL_MAX:
        problems.append(f"max_residual {lifted['max_residual']:.3e} >= {LIFT_RESIDUAL_MAX:g}")
    lo, hi = FD_ORDER_RANGE
    for name, ident in out["identities"].items():
        if not lo <= ident["order"] <= hi:
            problems.append(f"{name} order {ident['order']:.3f} outside [{lo}, {hi}]")
    return problems


def degenerate_op(q: float, k: int, N: int, reference: float | None) -> Op:
    return Op(
        label=f"degenerate q={q:g} k={k}",
        key=f"degenerate-q{q:g}-k{k}",
        command="degenerate",
        settings={"n": 2, "delta": 1.0, "q": q, "k": k, "N": N, "sigma_tol": SIGMA_TOL},
        check=partial(check_degenerate, k=k, reference=reference),
    )


def branch_op(k: int, N: int) -> Op:
    return Op(
        label=f"branch k={k} N={N}",
        key=f"branch-k{k}-N{N}",
        command="branch",
        settings={"n": 2, "delta": 1.0, "q": 3.0, "k": k, "N": N},
        check=partial(check_branch, k=k, expected_points=BRANCH_POINTS),
    )


def verify_op(sample_count: int, seed: int) -> Op:
    # the stored profile is the N=96 k=2 output of `degenerate`; verify
    # lifts it only when N matches
    return Op(
        label=f"verify k=2 sample_count={sample_count}",
        key="verify-k2",
        command="verify",
        settings={"n": 2, "delta": 1.0, "q": 3.0, "k": 2, "N": 96,
                  "sample_count": sample_count, "seed": seed},
        check=partial(check_verify, source="degenerate_k2"),
        inputs=("degenerate_k2.json",),
    )


def fold_hunt(seed: int, size: str) -> list:
    """The paper's headline runs; the last two fail at the seed (exit 2)."""
    N = 96 if size == "full" else 32
    return [
        degenerate_op(3.0, 2, N, LAMBDA_STAR[3.0, 2]),
        degenerate_op(3.0, 4, N, LAMBDA_STAR[3.0, 4]),
        degenerate_op(6.0, 6, N, None),
        degenerate_op(4.0, 4, N, None),
    ]


def branch_n192(seed: int, size: str) -> list:
    return [branch_op(2, 192 if size == "full" else 32)]


def verify_lift(seed: int, size: str) -> list:
    return [verify_op(3000 if size == "full" else 100, seed)]


WORKLOADS = {
    "fold-hunt": fold_hunt,
    "branch-N192": branch_n192,
    "verify-lift": verify_lift,
}


def prepare(op: Op, outdir: str) -> None:
    """Empty the operation's output directory and copy its inputs there."""
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    for name in op.inputs:
        shutil.copyfile(os.path.join(DATA_DIR, name), os.path.join(outdir, name))


def build_setup(ops: list, cli) -> list:
    """What the workload's commands build before they compute.

    A DiscreteSystem for each branch or degenerate operation; for verify,
    the grid and the stored profile it lifts.
    """
    built = []
    for op in ops:
        cfg = cli.parse_config(None, op.overrides("."))
        if op.command == "verify":
            built.append(cli.build_grid(cfg.N))
            built.extend(_read_json(os.path.join(DATA_DIR, name)) for name in op.inputs)
        else:
            built.append(cfg.system())
    return built
