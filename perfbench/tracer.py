"""Per-layer tracing of spherebif from outside the program.

The tracer replaces functions at the names their callers look up and puts
the originals back afterwards.  ``continuation`` imports the collocation
functions by name, so its own binding ``continuation.assemble_jacobian`` is
wrapped, not only ``collocation.assemble_jacobian``; likewise
``manifold.interpolate``.  ``numpy.linalg.solve`` is looked up on the module
at each call and is wrapped there.

Each call records a span (id, parent id, name, operation, start, end) in
memory.  A span's self time is its duration minus the durations of its
child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

# (module, attribute, span name).  A span is named after the module that
# defines the function; the attribute is where its caller looks it up.
PATCHES = (
    ("spherebif.cli", "dispatch", "cli.dispatch"),
    ("spherebif.cli", "build_grid", "collocation.build_grid"),
    ("spherebif.cli", "DiscreteSystem", "collocation.DiscreteSystem"),
    ("spherebif.cli", "lambda_k", "model.lambda_k"),
    ("spherebif.continuation", "trace_branch", "continuation.trace_branch"),
    ("spherebif.continuation", "locate_degenerate", "continuation.locate_degenerate"),
    ("spherebif.continuation", "branch_seed", "continuation.branch_seed"),
    ("spherebif.continuation", "solve_at_s", "continuation.solve_at_s"),
    ("spherebif.continuation", "arclength_step", "continuation.arclength_step"),
    ("spherebif.continuation", "assemble_residual", "collocation.assemble_residual"),
    ("spherebif.continuation", "assemble_jacobian", "collocation.assemble_jacobian"),
    ("spherebif.continuation", "dresidual_dlambda", "collocation.dresidual_dlambda"),
    ("spherebif.continuation", "solution_point", "collocation.solution_point"),
    ("spherebif.continuation", "lambda_k", "model.lambda_k"),
    ("spherebif.continuation", "dlambda_ds0", "model.dlambda_ds0"),
    ("spherebif.collocation", "assemble_jacobian", "collocation.assemble_jacobian"),
    ("spherebif.collocation", "sigma_min", "collocation.sigma_min"),
    ("spherebif.collocation", "nodal_count", "collocation.nodal_count"),
    ("spherebif.collocation", "gauss_jacobi_rule", "gegenbauer.gauss_jacobi_rule"),
    ("spherebif.collocation", "gegenbauer_eval", "gegenbauer.gegenbauer_eval"),
    ("spherebif.collocation", "reduction_factor", "model.reduction_factor"),
    ("spherebif.manifold", "interpolate", "collocation.interpolate"),
    ("spherebif.manifold", "laplace_beltrami_fd", "manifold.laplace_beltrami_fd"),
    ("spherebif.manifold", "gradient_sq_fd", "manifold.gradient_sq_fd"),
    ("spherebif.manifold", "identity_residuals", "manifold.identity_residuals"),
    ("spherebif.manifold", "lifted_residual", "manifold.lifted_residual"),
    ("numpy.linalg", "solve", "linalg.solve"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in PATCHES))


def metric_units() -> list:
    """(name, unit) of every metric ``Tracer.metrics`` reports."""
    return [(name, unit) for name, (_, unit) in Tracer().metrics().items()]


class _Stat:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    """Span recorder; ``installed()`` wraps the functions of ``PATCHES``."""

    def __init__(self):
        self.op = ""
        self.spans = []
        self.stats = {name: _Stat() for name in SPAN_NAMES}
        self.steps_rejected = 0  # arclength_step calls that raised StepRejected
        self.step_jacobians = 0  # assemble_jacobian calls made directly by arclength_step
        self.branch_points = 0
        # (operation, crossing index + 2, points traced) per located fold
        self.located = []
        self._stack = []

    def wrap(self, name: str, fn):
        """Return ``fn`` recording one span named ``name`` per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [name, 0.0, len(self.spans)]
            self.spans.append(None)  # reserves the id; filled on return
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if name == "continuation.arclength_step" and type(exc).__name__ == "StepRejected":
                    self.steps_rejected += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._close(frame, parent, start, end)
            if name == "continuation.trace_branch":
                self.branch_points += len(result.points)
            elif name == "continuation.locate_degenerate" and result is not None:
                branch = args[0] if args else kwargs["branch"]
                self.located.append((self.op, result.crossing_index + 2, len(branch.points)))
            return result

        return traced

    def _close(self, frame, parent, start, end):
        name, child_time, span_id = frame
        dur = end - start
        stat = self.stats[name]
        stat.calls += 1
        stat.total += dur
        stat.self += dur - child_time
        if parent is not None:
            parent[1] += dur
            if parent[0] == "continuation.arclength_step" and name == "collocation.assemble_jacobian":
                self.step_jacobians += 1
        self.spans[span_id] = (span_id, parent[2] if parent else None, name, self.op, start, end)

    @contextmanager
    def installed(self):
        """Wrap every function of ``PATCHES``; restore the originals on exit."""
        saved = []
        try:
            for modname, attr, name in PATCHES:
                module = importlib.import_module(modname)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def metrics(self) -> dict:
        """Per-layer metrics: name -> (value, unit)."""
        out = {}
        for name in SPAN_NAMES:
            stat = self.stats[name]
            out[f"{name}.calls"] = (stat.calls, "count")
            if name == "collocation.DiscreteSystem":  # the whole build, children included
                out[f"{name}.build_s"] = (stat.total, "s")
            else:
                out[f"{name}.self_s"] = (stat.self, "s")
        steps = self.stats["continuation.arclength_step"].calls
        used = sum(u for _, u, _ in self.located)
        traced = sum(t for _, _, t in self.located)
        out["continuation.steps_rejected"] = (self.steps_rejected, "count")
        out["continuation.step_accept_ratio"] = (
            (steps - self.steps_rejected) / steps if steps else 0.0, "ratio")
        out["continuation.newton_iters_per_step"] = (self.step_jacobians / steps if steps else 0.0, "ratio")
        out["continuation.trace_branch.points"] = (self.branch_points, "count")
        out["continuation.points_used_ratio"] = (used / traced if traced else 0.0, "ratio")
        return out
