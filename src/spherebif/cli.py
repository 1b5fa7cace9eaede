"""Command-line front end: configuration, dispatch, persistence.

Commands
--------
eigen       print and save the bifurcation ladder lambda_1 .. lambda_k
poly        save polynomial values, zeros, and weighted integrals
branch      trace both branches off (0, lambda_k) and save the points
degenerate  locate a degenerate solution on the branch and save a report
verify      check the isoparametric identities and the lifted PDE residual

Usage: spherebif <command> [--config PATH] [key=value ...]

The config file is a flat key = value document ('#' comments allowed);
command-line overrides take precedence.  The keys are the problem data
(n, delta, q, k), the resolution N, the degeneracy target sigma_tol, the
verify sample count and seed, and output_dir; the solver's tolerances and
step sizes are constants of the modules that use them; ``branch`` and
``degenerate`` also need k <= N.  Exit codes: 0 success, 2 solver
non-convergence or a stored profile whose lift is not positive (``verify``,
which then writes nothing and removes an earlier verify.json), 3
configuration error (also an output_dir that cannot be created, an output
file that cannot be written, and a lambda_k that overflows).  Output files
are byte-identical across runs for a fixed config and seed on one platform,
and for a fixed CPU count once a trace has 321 unknowns; floats are written
with 17 significant digits so values round-trip exactly.  ``main`` sets
numpy's OpenBLAS to one thread, except for traces of 321 or more unknowns
(``blas_threads``), for the whole calling process and after it returns;
importing the package does not.

``branch`` traces each direction with N as a ceiling:
``continuation.trace_branch`` climbs a ladder of sizes from
continuation.COARSE_N_MIN and solves each point at the smallest size that
resolves it, and every record is at N.

``degenerate`` traces and locates the fold at the coarse resolution
N_c = max(continuation.COARSE_N_MIN, N // COARSE_N_DIVISOR) when that lies in
k..N-1, and solves for it again at N (``continuation.refine_degenerate``);
the report, the profile and the JSON schema are at N, and the stderr line
adds the coarse N and the change in lambda* as an error estimate.  It keeps
this coarse trace rather than the ladder up to N, because only the fold
itself must be resolved, which the solve at N does: for the four (q, k) of
the perfbench fold hunt at N = 96 (N_c = 32, the bottom rung), the ladder
took 11.1-14.7 ms to the located fold and the coarse trace 7.2-10.0 ms
(medians, one BLAS thread, 2 shared vCPUs).  If the coarse trace
locates nothing or the refined fold fails a check, the command traces again
with N as the ceiling, locates from its points at N, and writes exactly
what it writes without the coarse trace.

On two or more CPUs (Linux) ``branch`` traces D_k^+ in the calling process
while one forked child traces D_k^- and writes its files; the child returns
only its exit code and log line, is joined before the command returns, and
each process gets one BLAS thread.  On one CPU, or without
``os.sched_getaffinity``, the two traces run one after the other.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import os
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import continuation, manifold
from .collocation import DiscreteSystem, build_grid
from .continuation import ConvergenceError
from .gegenbauer import (
    cube_integral,
    gegenbauer_eval,
    gegenbauer_norm2,
    gegenbauer_zeros,
    linearization_coeffs,
)
from .model import ModelParams, PositivityError, lambda_k, yamabe_lambda

__all__ = [
    "RunConfig",
    "ConfigError",
    "parse_config",
    "dispatch",
    "main",
    "numpy_openblas",
    "blas_threads",
    "read_branch_records",
]

# finite-difference step of verify's stencils, written to verify.json as "h"
_H = 1e-3
# degenerate traces at max(continuation.COARSE_N_MIN, N // COARSE_N_DIVISOR)
# when that lies in k..N-1, and solves for the located fold again at N
COARSE_N_DIVISOR = 3


class ConfigError(ValueError):
    """Invalid configuration (bad file, unknown key, or constraint hit)."""


@dataclass
class RunConfig:
    """Validated run settings; every field has a documented default.

    Only the problem data, the resolution N, the degeneracy target and the
    verify sampling are settable; the solver's tolerances and step sizes are
    constants of ``collocation`` and ``continuation``.
    """

    n: int = 2
    delta: float = 1.0
    q: float = 3.0
    k: int = 2
    N: int = 96
    sigma_tol: float = 1e-6
    sample_count: int = 200
    seed: int = 0
    output_dir: str = "."

    def params(self) -> ModelParams:
        return ModelParams(n=self.n, delta=self.delta, q=self.q)

    def system(self) -> DiscreteSystem:
        return DiscreteSystem(build_grid(self.N), self.params())


def _parse_value(key: str, kind: type, raw: str):
    raw = raw.strip().strip("'\"")
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse value for {key!r}: {raw!r}") from exc


def parse_config(path: str | None = None, overrides=()) -> RunConfig:
    """Build a RunConfig from an optional file plus key=value overrides."""
    kinds = typing.get_type_hints(RunConfig)  # int, float or str per key
    values: dict = {}

    def set_kv(key, raw, where):
        key = key.strip()
        if key not in kinds:
            raise ConfigError(f"unknown configuration key {key!r} ({where})")
        values[key] = _parse_value(key, kinds[key], raw)

    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for lineno, line in enumerate(lines, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {line.rstrip()!r}")
            key, raw = stripped.split("=", 1)
            set_kv(key, raw, f"{path}:{lineno}")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, raw = item.split("=", 1)
        set_kv(key, raw, "command line")

    cfg = RunConfig(**values)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    try:
        params = cfg.params()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.k < 1:
        raise ConfigError(f"mode index k must be >= 1, got {cfg.k}")
    try:
        finite = np.isfinite(lambda_k(cfg.k, params))
    except OverflowError:  # k(k+n-1) beyond a float
        finite = False
    if not finite:
        raise ConfigError(f"lambda_{cfg.k} overflows a float at delta={cfg.delta}, q={cfg.q}")
    if cfg.N < 2:
        raise ConfigError(f"N must be >= 2, got {cfg.N}")
    if not 0 < cfg.sigma_tol < np.inf:
        raise ConfigError(f"sigma_tol must be finite and positive, got {cfg.sigma_tol}")
    if cfg.sample_count < 1:
        raise ConfigError("sample_count must be >= 1")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _log(msg: str, err: bool = False):
    stream = sys.stderr
    if err and stream.isatty() and not os.environ.get("NO_COLOR"):
        msg = f"\x1b[31m{msg}\x1b[0m"
    print(msg, file=stream)


def _write_file(path, chunks):
    """Write the strings of the iterable chunks to a temporary file beside
    path and os.replace it onto path, so that a failed write leaves no file;
    an OSError becomes a ConfigError naming path (exit 3)."""
    try:
        with open(f"{path}.tmp", "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(f"{path}.tmp", path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        _remove_partial(path)


def _remove_partial(path):
    """Remove the temporary file of a _write_file of path that did not end."""
    try:
        os.remove(f"{path}.tmp")
    except OSError:  # none (the write ended), or not a file
        pass


def _write_csv(path, header, rows):
    def lines():
        yield header + "\n"
        for row in rows:
            yield ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n"

    _write_file(path, lines())


def _point_record(pt, event: str = "") -> dict:
    return {
        "s_coord": pt.s_coord,
        "lambda": pt.lam,
        "nodal_count": pt.nodal_count,
        "sigma_min": pt.sigma_min,
        "u_min": pt.u_min,
        "phi": pt.phi.tolist(),
        "event": event,
    }


def read_branch_records(path) -> list:
    """Load a JSON-lines branch file back into dictionaries."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                records.append(json.loads(line))
    return records


def _branch_files(cfg, tag) -> tuple:
    """The JSON-lines and the CSV file of the branch of direction tag."""
    stem = os.path.join(cfg.output_dir, f"branch_k{cfg.k}_{tag}")
    return f"{stem}.jsonl", f"{stem}.csv"


def _write_branch(branch, cfg, tag):
    events = {}
    for idx, kind in branch.events:
        events[idx] = events.get(idx, "") + (";" if idx in events else "") + kind
    jsonl, csv = _branch_files(cfg, tag)
    _write_file(jsonl, (json.dumps(_point_record(pt, events.get(i, ""))) + "\n"
                        for i, pt in enumerate(branch.points)))
    _write_csv(
        csv,
        "s,lambda,sigma_min",
        [(pt.s_coord, pt.lam, pt.sigma_min) for pt in branch.points],
    )
    return jsonl, csv


def _cmd_eigen(cfg: RunConfig) -> int:
    params = cfg.params()
    rows = [(j, lambda_k(j, params)) for j in range(1, cfg.k + 1)]
    path = os.path.join(cfg.output_dir, "eigen.csv")
    _write_csv(path, "k,lambda", rows)
    print("k,lambda")
    for j, lam in rows:
        print(f"{j},{_fmt(lam)}")
    _log(f"wrote {path}")
    return 0


def _cmd_poly(cfg: RunConfig) -> int:
    k, n = cfg.k, cfg.n
    ts = np.linspace(-1.0, 1.0, 201)
    _write_csv(
        os.path.join(cfg.output_dir, "poly_values.csv"),
        "t,value",
        zip(ts.tolist(), gegenbauer_eval(k, n, ts).tolist()),
    )
    _write_csv(
        os.path.join(cfg.output_dir, "poly_zeros.csv"),
        "zero",
        [(z,) for z in gegenbauer_zeros(k, n).tolist()],
    )
    _write_csv(
        os.path.join(cfg.output_dir, "poly_integrals.csv"),
        "name,value",
        [("norm_squared", gegenbauer_norm2(k, n)), ("cube", cube_integral(k, n))],
    )
    _write_csv(
        os.path.join(cfg.output_dir, "poly_coeffs.csv"),
        "j,coeff",
        list(enumerate(linearization_coeffs(k, n).tolist())),
    )
    _log(f"wrote poly_*.csv for k={k}, n={n} in {cfg.output_dir}")
    return 0


def _branch_forks() -> bool:
    """Whether ``branch`` traces its two directions in two processes: on >= 2 CPUs."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


def _trace_direction(cfg: RunConfig, system: DiscreteSystem, direction: int, tag: str) -> tuple:
    """Trace one branch and write its files; returns (exit code, log line)."""
    try:
        branch = continuation.trace_branch(cfg.k, direction, system)
    except ConvergenceError as exc:
        return 2, f"branch k={cfg.k} {tag}: {exc}"
    jsonl, csv = _write_branch(branch, cfg, tag)
    return 0, f"branch k={cfg.k} {tag}: {len(branch.points)} points -> {jsonl}, {csv}"


def _send_minus(conn, cfg: RunConfig, system: DiscreteSystem):
    """A forked child's work: trace D_k^-, send back (code, line) or the exception."""
    try:
        result = _trace_direction(cfg, system, -1, "minus")
    except Exception as exc:  # raised again in the parent
        result = exc
    conn.send(result)
    conn.close()


def _trace_both_forked(cfg: RunConfig, system: DiscreteSystem) -> list:
    """D_k^+ here and D_k^- in one forked child, which writes its own files.

    The child shares the system copy-on-write and sends back only its
    (code, line) tuple, or the exception to raise here.  It is joined on
    every path: when the trace here raises it is terminated first, and when
    it dies without a result an error names its exit code.  A write of the
    child's that a signal cut short leaves a temporary file, removed here.
    """
    import multiprocessing  # only a forking branch pays for the import

    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_minus, args=(send, cfg, system))
    child.start()
    send.close()  # so that a child dying without a result reads as EOF
    try:
        plus = _trace_direction(cfg, system, 1, "plus")
        try:
            minus = recv.recv()
        except EOFError:
            minus = None
    except BaseException:
        child.terminate()
        raise
    finally:
        child.join()
        recv.close()
        for path in _branch_files(cfg, "minus"):
            _remove_partial(path)
    if minus is None:
        raise RuntimeError(
            f"branch k={cfg.k} minus: the tracing process exited with code "
            f"{child.exitcode} without a result"
        )
    if isinstance(minus, BaseException):
        raise minus
    return [plus, minus]


def _cmd_branch(cfg: RunConfig) -> int:
    system = cfg.system()
    if _branch_forks():
        results = _trace_both_forked(cfg, system)
    else:  # lazily, so that each line is logged as its trace ends
        results = (_trace_direction(cfg, system, direction, tag)
                   for direction, tag in ((1, "plus"), (-1, "minus")))
    code = 0
    for status, line in results:
        _log(line, err=status != 0)
        code = max(code, status)
    return code


def _locate_fold(cfg: RunConfig, system: DiscreteSystem) -> tuple:
    """Trace D_k^+ on ``system`` until a crossing is located; returns the
    branch and the report, or None for the report."""
    report = None

    def located(branch) -> bool:
        # solve for each crossing once, as the trace records it; a failed
        # candidate lets the trace go on to the next one
        nonlocal report
        first = len(branch.points) - 2
        report = continuation.locate_degenerate(branch, cfg.sigma_tol, system, first=first)
        return report is not None

    branch = continuation.trace_branch(cfg.k, 1, system, stop=located)
    return branch, report


def _coarse_fold(cfg: RunConfig, system: DiscreteSystem, coarse_N: int):
    """Locate the fold on a trace at coarse_N and solve for it again on
    ``system``; returns (report, coarse report), or None when the coarse
    trace finds none or the refined point fails a check."""
    coarse = DiscreteSystem(build_grid(coarse_N), cfg.params())
    try:
        branch, located = _locate_fold(cfg, coarse)
    except ConvergenceError:
        return None
    if located is None:
        return None
    report = continuation.refine_degenerate(branch, located, cfg.sigma_tol, system)
    return None if report is None else (report, located)


def _cmd_degenerate(cfg: RunConfig) -> int:
    system = cfg.system()
    coarse_N = max(continuation.COARSE_N_MIN, cfg.N // COARSE_N_DIVISOR)
    found = _coarse_fold(cfg, system, coarse_N) if cfg.k <= coarse_N < cfg.N else None
    if found is not None:
        report, coarse = found
        estimate = (f", N_c = {coarse_N}, |lambda*(N) - lambda*(N_c)| = "
                    f"{abs(report.lambda_star - coarse.lambda_star):.1e}")
    else:
        estimate = ""
        try:
            _, report = _locate_fold(cfg, system)
        except ConvergenceError as exc:
            _log(f"degenerate k={cfg.k}: {exc}", err=True)
            return 2
    path = os.path.join(cfg.output_dir, f"degenerate_k{cfg.k}.json")
    payload = {
        "found": report is not None,
        "k": cfg.k,
        "n": cfg.n,
        "delta": cfg.delta,
        "q": cfg.q,
        "N": cfg.N,
        "lambda_k": lambda_k(cfg.k, cfg.params()),
    }
    if report is not None:
        payload.update(
            {
                "lambda_star": report.lambda_star,
                "sigma_at_star": report.sigma_at_star,
                "nodal_count": report.nodal_count,
                "u_min": report.u_min,
                "s_bracket": list(report.s_bracket),
                "residual_norm": report.residual_norm,
                "branch_lambda_min": report.branch_lambda_min,
                "crossing_index": report.crossing_index,
                "newton_iterations": report.newton_iterations,
                "endpoint_derivs": list(report.endpoint_derivs),
                "phi": report.phi_star.tolist(),
            }
        )
    _write_file(path, [json.dumps(payload, indent=2), "\n"])
    if report is None:
        _log(f"degenerate k={cfg.k}: no eigenvalue crossing found -> {path}", err=True)
        return 2
    _write_csv(
        os.path.join(cfg.output_dir, f"degenerate_k{cfg.k}_profile.csv"),
        "t,phi",
        zip(system.grid.nodes.tolist(), report.phi_star.tolist()),
    )
    _log(
        f"degenerate k={cfg.k}: lambda* = {report.lambda_star:.9g}, "
        f"sigma = {report.sigma_at_star:.3e}, tail = {report.tail:.1e}, "
        f"newton_iterations = {report.newton_iterations}{estimate} -> {path}"
    )
    return 0


def _stored_profile(report_path: str, cfg: RunConfig) -> tuple | str:
    """(phi, lambda*) of the degenerate report at report_path, or the reason,
    as a str, why it is not lifted."""
    try:
        with open(report_path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        return f"is not valid JSON ({exc})"
    except OSError as exc:  # a directory, say, or not readable
        return f"cannot be read ({exc.strerror})"
    if not isinstance(payload, dict):
        return "does not hold a JSON object"
    if not payload.get("found"):
        return "has found: false"
    # a report of another problem or resolution is not lifted
    other = next((key for key in ("N", "n", "delta", "q")
                  if payload.get(key) != getattr(cfg, key)), None)
    if other is not None:
        return f"holds {other}={payload.get(other)}, not {other}={getattr(cfg, other)}"
    try:  # a missing phi reads as shape (), a missing lambda_star raises
        phi = np.array(payload.get("phi"), dtype=float)
        lam = float(payload["lambda_star"])
    except (KeyError, TypeError, ValueError):
        return "does not hold a finite phi and lambda_star"
    if phi.shape != (cfg.N + 1,):
        return f"holds phi of shape {phi.shape}, not the N + 1 = {cfg.N + 1} node values"
    if not (np.all(np.isfinite(phi)) and np.isfinite(lam)):
        return "does not hold a finite phi and lambda_star"
    return phi, lam


def _cmd_verify(cfg: RunConfig) -> int:
    params = cfg.params()
    # isoparametric identities, with an h-halving order estimate
    err_h = manifold.identity_residuals(cfg.n, cfg.delta, _H, 1000, cfg.seed)
    err_h2 = manifold.identity_residuals(cfg.n, cfg.delta, _H / 2, 1000, cfg.seed)
    ident = {}
    for name in ("laplacian", "gradient"):
        ident[name] = {
            "err_h": err_h[name],
            "err_half_h": err_h2[name],
            "order": float(np.log2(err_h[name] / err_h2[name])),
        }

    # lift the located degenerate profile when available, else the trivial one
    grid = build_grid(cfg.N)
    source = "trivial"
    phi = np.zeros(cfg.N + 1)
    lam = yamabe_lambda(cfg.n, cfg.delta)
    report_path = os.path.join(cfg.output_dir, f"degenerate_k{cfg.k}.json")
    if os.path.exists(report_path):
        stored = _stored_profile(report_path, cfg)
        if isinstance(stored, str):
            _log(f"verify: {report_path} {stored}; lifting the trivial profile")
        else:
            phi, lam = stored
            source = f"degenerate_k{cfg.k}"
    path = os.path.join(cfg.output_dir, "verify.json")
    try:
        residual = manifold.lifted_residual(
            grid, phi, lam, params, cfg.sample_count, _H, cfg.seed
        )
    except PositivityError as exc:
        # an earlier run's verify.json must not stand beside this failure
        if os.path.exists(path):
            os.remove(path)
        _log(f"verify: {report_path}: {exc}; verify.json not written", err=True)
        return 2
    out = {
        "n": cfg.n,
        "delta": cfg.delta,
        "h": _H,
        "identity_samples": 1000,
        "identities": ident,
        "lifted": {
            "source": source,
            "lambda": lam,
            "sample_count": cfg.sample_count,
            "max_residual": residual,
        },
    }
    _write_file(path, [json.dumps(out, indent=2), "\n"])
    _log(
        f"verify: identity errors {err_h['laplacian']:.3e}/{err_h['gradient']:.3e}, "
        f"lifted residual {residual:.3e} ({source}) -> {path}"
    )
    return 0


_HANDLERS = {
    "eigen": _cmd_eigen,
    "poly": _cmd_poly,
    "branch": _cmd_branch,
    "degenerate": _cmd_degenerate,
    "verify": _cmd_verify,
}


def dispatch(command: str, cfg: RunConfig) -> int:
    """Run one command; returns the process exit code."""
    if command not in _HANDLERS:
        raise ConfigError(f"unknown command {command!r}")
    if command in ("branch", "degenerate") and cfg.k > cfg.N:
        raise ConfigError(f"mode index k={cfg.k} exceeds the resolution N={cfg.N}")
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except OSError as exc:  # a file of that name, or no writable parent
        raise ConfigError(f"cannot create output_dir {cfg.output_dir}: {exc.strerror}") from exc
    return _HANDLERS[command](cfg)


@functools.cache
def numpy_openblas():
    """(path, pattern, threads) of the OpenBLAS numpy has loaded; None for another BLAS.

    '{}' in the pattern is ``set`` or ``get`` for the thread-count symbols;
    threads is the count at the first lookup.
    """
    pkg = Path(np.__file__).parent
    libdirs = [pkg.parent / "numpy.libs", pkg / ".libs"]
    for lib in (f for d in libdirs if d.is_dir() for f in sorted(d.glob("lib*openblas*"))):
        try:
            blas = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for pattern in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                        "openblas_{}_num_threads"):
            if hasattr(blas, pattern.format("set")) and hasattr(blas, pattern.format("get")):
                get = getattr(blas, pattern.format("get"))
                get.restype = ctypes.c_int
                return str(lib), pattern, get()
    return None


def blas_threads(command: str, cfg: RunConfig, threads: int) -> int:
    """BLAS threads for one command, given the count OpenBLAS started with.

    A trace factors and eigendecomposes dense systems of N + 1 unknowns for
    odd k and N/2 + 1 for even k.  From 321 on a second thread shortens it
    (4% at 321, 7% at 385, on 2 vCPUs); below, it gains 1% at most (at 257)
    and loses up to 11% (at 129), for twice the CPU time.  A ``branch`` that
    traces its two directions in two processes (``_branch_forks``) gets one
    thread per process, so that the two never share a CPU.
    """
    if command == "branch" and _branch_forks():
        return 1
    size = cfg.N + 1 if cfg.k % 2 else cfg.N // 2 + 1
    return threads if command in ("branch", "degenerate") and size >= 321 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spherebif",
        description="Bifurcation branches and degenerate solutions of "
        "Yamabe-type equations on products of spheres.",
        epilog="Trailing key=value arguments override the config file.",
    )
    parser.add_argument("command", choices=_HANDLERS)
    parser.add_argument("--config", default=None, help="key = value config file")
    args, overrides = parser.parse_known_args(argv)
    try:
        for item in overrides:
            if item.startswith("-"):
                raise ConfigError(f"unrecognized option {item!r}")
        cfg = parse_config(args.config, overrides)
        found = numpy_openblas()
        if found is not None:  # for the whole process, and for good
            path, pattern, threads = found
            set_threads = getattr(ctypes.CDLL(path), pattern.format("set"))
            set_threads(ctypes.c_int(blas_threads(args.command, cfg, threads)))
        return dispatch(args.command, cfg)
    except ConfigError as exc:
        _log(f"configuration error: {exc}", err=True)
        return 3
    except ConvergenceError as exc:
        _log(f"solver failed to converge: {exc}", err=True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
