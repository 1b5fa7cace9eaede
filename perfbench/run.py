"""Benchmark of spherebif: one workload through the CLI entry point.

Run from the repository root:

    python3 perfbench/run.py --workload fold-hunt --seed 0 --seconds 25 --trace 0

Every operation of a workload is one ``spherebif`` command, run in this
process through ``spherebif.cli.main`` (which calls ``cli.dispatch``), and
its outputs are checked.  ``--trace 0`` runs passes over the workload
while one more pass of the median length so far still ends within
``--seconds`` (at least one pass), and reports the end-to-end metrics.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of the traced one (see ``tracer.py``).

The lines before the last one on stdout are a readable summary and the
environment; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  An operation fails when its exit
code is not 0 or its outputs fail their check; ``correct`` is false only
when an operation that exited 0 wrote a wrong answer.  Full results, the
spans of a traced pass and the command outputs go under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_REPEATS = 7
PROBE_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_frac", "ratio"),
)
# fold-hunt operations whose times ROADMAP aim 1 names
NAMED_OPS = {"degenerate q=3 k=2": "degenerate_k2_s", "degenerate q=3 k=4": "degenerate_k4_s"}
PER_LAYER = (
    tuple(tracing.metric_units())
    + (("cli.bytes_written", "bytes"),)
    + tuple((f"cli.{name}", "s") for name in NAMED_OPS.values())
    + (("trace.overhead_s", "s"),)
)


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no sources, probe failed)."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="spherebif benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the benchmark's own tests")
    return parser.parse_args(argv)


def import_cli():
    """Import spherebif.cli from this checkout's src/, not from elsewhere."""
    if not (SRC / "spherebif" / "__init__.py").is_file():
        raise SetupError(f"no spherebif sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import spherebif.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SetupError(f"imported spherebif from {cli.__file__}, not from {SRC}")
    return cli


def blas_threads():
    """BLAS thread count in effect, and where it comes from.

    threadpoolctl is not available, so this asks the OpenBLAS library that
    numpy has loaded.  When that fails it falls back to the environment
    variable, and failing that it records no count.
    """
    import numpy

    pkg = Path(numpy.__file__).parent
    libdirs = [pkg.parent / "numpy.libs", pkg / ".libs"]
    for lib in (f for d in libdirs if d.is_dir() for f in sorted(d.glob("lib*openblas*"))):
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            try:
                get = getattr(ctypes.CDLL(str(lib)), symbol)
            except (OSError, AttributeError):
                continue
            get.restype = ctypes.c_int
            return get(), f"{symbol}() in {lib.name}"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return int(os.environ[var]), f"env {var} (not read from OpenBLAS)"
    return None, "unknown (not read from OpenBLAS, no variable set)"


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(args) -> dict:
    import numpy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    threads, source = blas_threads()
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_source": source,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure_setup(args) -> list:
    """Run the set-up probe SETUP_REPEATS times, each in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", args.workload,
           "--size", args.size]
    probes = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise SetupError(f"set-up probe failed:\n{done.stderr}")
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return probes


def run_op(op, cli, outdir: Path) -> dict:
    """Run one command as ``spherebif`` would; stderr is kept in the result."""
    argv = [op.command, *op.overrides(str(outdir))]
    log = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(log):
            code = cli.main(argv)
    except Exception:  # an uncaught error fails this operation, as it would the CLI
        code = 1
        log.write(traceback.format_exc())
    return {"op": op.label, "code": code, "seconds": time.perf_counter() - start,
            "log": log.getvalue()}


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def check(op, outdir: Path) -> list:
    """The operation's output problems; an unreadable output is one."""
    try:
        return op.check(str(outdir))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def run_pass(ops, cli, tracer=None) -> dict:
    """One pass over the operations; outputs are checked after the timing."""
    dirs = [OUT_DIR / "runs" / op.key for op in ops]
    for op, outdir in zip(ops, dirs):
        workloads.prepare(op, outdir)
    results = []
    cpu0, t0 = _cpu_s(), time.perf_counter()
    for op, outdir in zip(ops, dirs):
        if tracer is not None:
            tracer.op = op.label
        results.append(run_op(op, cli, outdir))
    wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    written = 0
    for op, outdir, res in zip(ops, dirs, results):
        res["problems"] = check(op, outdir) if res["code"] == 0 else []
        res["ok"] = res["code"] == 0 and not res["problems"]
        written += sum(f.stat().st_size for f in outdir.iterdir() if f.name not in op.inputs)
    return {"wall_s": wall, "cpu_s": cpu, "bytes_written": written, "ops": results}


def tally(passes) -> tuple:
    """(correct, attempted, failed) over every operation of the passes."""
    ops = [res for p in passes for res in p["ops"]]
    correct = not any(res["problems"] for res in ops)
    return correct, len(ops), sum(not res["ok"] for res in ops)


def op_seconds(passes, label):
    times = [res["seconds"] for p in passes for res in p["ops"] if res["op"] == label]
    return statistics.median(times) if times else None


def end_to_end(passes, probes) -> dict:
    _, attempted, failed = tally(passes)
    return {
        "setup_s": statistics.median(p["import_s"] + p["build_s"] for p in probes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_frac": (attempted - failed) / attempted,
    }


def per_layer(tracer, untraced, traced) -> dict:
    out = {name: value for name, (value, _) in tracer.metrics().items()}
    out["cli.bytes_written"] = traced["bytes_written"]
    for label, name in NAMED_OPS.items():
        out[f"cli.{name}"] = op_seconds([untraced], label) or 0.0
    out["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return out


def summary_lines(args, env, passes, probes, metrics, tracer=None) -> list:
    _, attempted, failed = tally(passes)
    lines = [f"perfbench {args.workload}: size {args.size}, seed {args.seed}, "
             f"{len(passes)} pass(es), BLAS threads {env['blas_threads']} "
             f"({env['blas_threads_source']})"]
    if tracer is None:
        lines.append("  " + "  ".join(f"{name} {metrics[name]:.6g} {unit}" for name, unit in END_TO_END)
                     + f"  fail_frac {failed / attempted:.6g} ({failed}/{attempted})")
        lines.append("  setup: import_s {:.4g}, build_s {:.4g} (median of {})".format(
            statistics.median(p["import_s"] for p in probes),
            statistics.median(p["build_s"] for p in probes), len(probes)))
        named = [(name, op_seconds(passes, label)) for label, name in NAMED_OPS.items()]
        if any(t is not None for _, t in named):
            lines.append("  " + "  ".join(f"{name} {t:.6g} s" for name, t in named if t is not None))
        lines.append("  pass wall_s: " + ", ".join(f"{p['wall_s']:.4g}" for p in passes))
    else:
        traced_wall = passes[-1]["wall_s"]
        lines.append(f"  untraced wall_s {passes[0]['wall_s']:.4g}, traced wall_s "
                     f"{traced_wall:.4g}, overhead {metrics['trace.overhead_s']:.4g} s, "
                     f"{len(tracer.spans)} spans")
        rows = sorted(((name, stat) for name, stat in tracer.stats.items() if stat.calls),
                      key=lambda item: -item[1].self)
        for name, stat in rows:
            lines.append(f"  {name:<34} calls {stat.calls:>7}  self_s {stat.self:9.4f}  "
                         f"{100 * stat.self / traced_wall:5.1f}% of pass")
        for op, used, traced in tracer.located:
            lines.append(f"  {op}: points used {used}/{traced}")
    for res in passes[-1]["ops"]:
        state = "ok" if res["ok"] else f"FAILED (exit {res['code']})"
        detail = "; ".join(res["problems"]) or (res["log"].strip().splitlines() or [""])[-1]
        lines.append(f"  {res['op']}: {state} {res['seconds']:.4g} s  {detail if not res['ok'] else ''}".rstrip())
    return lines


def write_spans(path: Path, tracer) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span_id, parent, name, op, start, end in tracer.spans:
            fh.write(json.dumps({"id": span_id, "parent": parent, "name": name, "op": op,
                                 "start": start, "end": end}) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = import_cli()
        probes = measure_setup(args) if args.trace == 0 else []
    except (SetupError, ImportError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    env = environment(args)
    ops = workloads.WORKLOADS[args.workload](args.seed, args.size)
    OUT_DIR.mkdir(exist_ok=True)

    tracer = None
    if args.trace == 0:
        passes = []
        start = time.perf_counter()
        # a run lasts about --seconds even when a pass takes most of them
        while not passes or (time.perf_counter() - start
                             + statistics.median(p["wall_s"] for p in passes) <= args.seconds):
            passes.append(run_pass(ops, cli))
        metrics = end_to_end(passes, probes)
        units = END_TO_END
    else:
        untraced = run_pass(ops, cli)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = run_pass(ops, cli, tracer)
        passes = [untraced, traced]
        metrics = per_layer(tracer, untraced, traced)
        units = PER_LAYER
        write_spans(OUT_DIR / f"{args.workload}-spans.jsonl", tracer)

    correct, attempted, failed = tally(passes)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    with open(OUT_DIR / f"{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "setup_probes": probes, "passes": passes,
                   "result": result}, fh, indent=1)
    for line in summary_lines(args, env, passes, probes, metrics, tracer):
        print(line)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
