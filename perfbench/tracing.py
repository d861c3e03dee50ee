"""Spans and counts recorded around evokernel's public functions.

Tracing lives in the benchmark, not in the program: ``Tracer.enable``
replaces module and class attributes with wrappers that record a span per
call, and ``Tracer.disable`` puts the originals back, so an untraced op runs
the program's own code objects.  Callers bind some names at import
(``evolution`` imports ``potential_matrix`` and ``fd_solve_*``, ``datagen``
imports ``fd_solve_*``), so each wrapper patches the name where its caller
looks it up.

A span holds its name, start, end, parent span and op id.  Self time is a
span's duration minus the time covered by its children; the program is
single-threaded at the Python level, so children never overlap.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

__all__ = ["Tracer", "PER_LAYER", "install_patches", "window_counts",
           "per_layer_metrics"]

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("specfun.calls", "count", "lower"),
    ("specfun.points", "count", "lower"),
    ("specfun.ms", "ms", "lower"),
    ("specfun.ns_per_point", "ns", "lower"),
    ("kernels.potential_matrix.ms", "ms", "lower"),
    ("kernels.potential_matrix.entries", "count", "lower"),
    ("kernels.potential_matrix.self_ms", "ms", "lower"),
    ("kernels.boundary_kernel.requests", "count", "lower"),
    ("kernels.boundary_kernel.builds", "count", "lower"),
    ("kernels.boundary_kernel.hit_ratio", "ratio", "higher"),
    ("kernels.boundary_kernel.ms", "ms", "lower"),
    ("bie.residual_operator.calls", "count", "lower"),
    ("bie.residual_operator.ms", "ms", "lower"),
    ("bie.bie_residual.calls", "count", "lower"),
    ("bie.bie_residual.ms", "ms", "lower"),
    ("fdsolver.solves", "count", "lower"),
    ("fdsolver.ms", "ms", "lower"),
    ("fdsolver.ms_per_solve", "ms", "lower"),
    ("fdsolver.factorizations", "count", "lower"),
    ("fdsolver.solves_per_factorization", "ratio", "higher"),
    ("nn.source_predict.calls", "count", "lower"),
    ("nn.source_predict.rows", "count", "lower"),
    ("nn.source_predict.ms", "ms", "lower"),
    ("nn.source_predict.gflop", "GFLOP", "lower"),
    ("nn.source_predict.gflop_per_s", "GFLOP/s", "higher"),
    ("nn.source_operator.ms", "ms", "lower"),
    ("nn.checkpoint_load.ms", "ms", "lower"),
    ("nn.checkpoint_load.bytes", "B", "lower"),
    ("nn.boundary_predict.calls", "count", "lower"),
    ("nn.boundary_predict.ms", "ms", "lower"),
    ("nn.forward.ms", "ms", "lower"),
    ("nn.backward.ms", "ms", "lower"),
    ("nn.adam.ms", "ms", "lower"),
    ("training.boundary_step_ms", "ms", "lower"),
    ("training.source_step_ms", "ms", "lower"),
    ("datagen.source_record_ms", "ms", "lower"),
    ("datagen.boundary_record_ms", "ms", "lower"),
    ("evolution.solve.calls", "count", "lower"),
    ("evolution.solve.ms", "ms", "lower"),
    ("evolution.solve.self_ms", "ms", "lower"),
    ("evolution.callbacks.calls", "count", "lower"),
    ("evolution.callbacks.ms", "ms", "lower"),
    ("evolution.newton.calls", "count", "lower"),
    ("evolution.newton.points", "count", "lower"),
    ("evolution.newton.ms", "ms", "lower"),
    ("evolution.stepper.self_ms", "ms", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

_CALLBACKS = ("u0", "g", "v0", "exact", "lap_u0", "v_potential")


class _Span:
    __slots__ = ("name", "start", "end", "parent", "op", "child_s", "counts")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.child_s = 0.0
        self.counts = None


class Tracer:
    """In-memory span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.spans = []
        self.enabled = False
        self.op = 0
        self._stack = []
        self._patches = []
        self.missing = []     # patch targets the program no longer has

    # -- spans -----------------------------------------------------------
    def _begin(self, name):
        parent = self._stack[-1] if self._stack else None
        span = _Span(name, time.perf_counter(), parent, self.op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _end(self, span, counts):
        span.end = time.perf_counter()
        self._stack.pop()
        span.counts = counts
        if span.parent is not None:
            span.parent.child_s += span.end - span.start

    def call(self, name, fn, *args, counts=None, **kwargs):
        """Run fn under a span when enabled; counts(args, out) gives attributes."""
        if not self.enabled:
            return fn(*args, **kwargs)
        span = self._begin(name)
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            self._end(span, counts(args, out) if counts and out is not None else None)

    def next_op(self):
        self.op += 1

    # -- patches ---------------------------------------------------------
    def add_patch(self, owner, attr, name, counts=None):
        """Wrap owner.attr in a span named name while tracing is enabled."""
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, original, *args, counts=counts, **kwargs)

        self._patches.append((owner, attr, original, wrapper))

    def add_factory_patch(self, owner, attr):
        """Wrap a problem factory so the problem's callbacks record spans."""
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        tracer = self

        def wrapper(*args, **kwargs):
            prob = original(*args, **kwargs)
            for field in _CALLBACKS:
                fn = getattr(prob, field)
                if fn is not None:
                    setattr(prob, field, tracer._callback(fn))
            return prob

        self._patches.append((owner, attr, original, wrapper))

    def _callback(self, fn):
        def wrapped(*args):
            return self.call("evolution.callbacks", fn, *args)
        return wrapped

    def enable(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.enabled = True

    def disable(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self.enabled = False

    def write(self, path):
        """Spans as JSON lines: name, start, end, parent index, op id."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for s in self.spans:
                parent = index[id(s.parent)] if s.parent is not None else -1
                fh.write(json.dumps([s.name, s.start, s.end, parent, s.op]) + "\n")


def install_patches(tracer):
    """Register a patch for every layer boundary the per-layer metrics name."""
    import scipy.sparse.linalg as spla

    from evokernel import bie, datagen, evolution, experiments, kernels, specfun
    from evokernel.nn import engine, models

    def points(args, out):
        return {"points": int(np.size(args[-1]))}

    for fn in ("k0", "k1", "ker", "kei", "dker0", "dkei0"):
        tracer.add_patch(specfun, fn, "specfun", points)
    tracer.add_patch(evolution, "potential_matrix", "kernels.potential_matrix",
                     lambda a, out: {"entries": int(out.size)})
    tracer.add_patch(kernels, "boundary_kernel", "kernels.boundary_kernel")
    for fn in ("scalar_boundary_kernel", "system_boundary_kernel"):
        tracer.add_patch(kernels, fn, "kernels.boundary_kernel_build")
    tracer.add_patch(bie, "residual_operator", "bie.residual_operator")
    tracer.add_patch(bie, "bie_residual", "bie.bie_residual")
    for owner in (evolution, datagen):
        for fn in ("fd_solve_scalar", "fd_solve_complex"):
            tracer.add_patch(owner, fn, "fdsolver.solve")
    tracer.add_patch(spla, "factorized", "fdsolver.factorize")

    def predict_counts(args, out):
        f = np.asarray(args[2])
        rows = 1 if f.ndim == 1 else int(np.prod(f.shape[:-1]))
        n_in, n_out = f.shape[-1], out.shape[-1]
        return {"rows": rows, "flop": 2.0 * rows * n_in * n_out + rows * n_in}

    tracer.add_patch(models.SourceModel, "predict", "nn.source_predict", predict_counts)
    tracer.add_patch(models.SourceModel, "operator", "nn.source_operator")
    tracer.add_patch(models.BoundaryModel, "predict", "nn.boundary_predict")
    for cls in (models.SourceModel, models.BoundaryModel):
        tracer.add_patch(cls, "forward", "nn.forward")
    tracer.add_patch(engine, "backward", "nn.backward")
    tracer.add_patch(engine.Adam, "step", "nn.adam")
    for cls in (evolution.NekmBackend, evolution.ClassicalBackend):
        for fn in ("solve", "solve_coupled"):
            tracer.add_patch(cls, fn, "evolution.solve")
    tracer.add_patch(evolution, "newton_nonlinear", "evolution.newton", points)
    for fn in ("run_heat", "run_schrodinger"):
        tracer.add_patch(evolution, fn, "evolution.stepper")
    tracer.add_factory_patch(evolution, "heat_family")
    tracer.add_factory_patch(experiments, "schrodinger_problem")


def window_counts(spans):
    """Raw sums over a set of spans: <name>.calls/.ms/.self_ms/.<count>."""
    raw = defaultdict(float)
    for s in spans:
        ms = (s.end - s.start) * 1e3
        raw[s.name + ".calls"] += 1
        raw[s.name + ".ms"] += ms
        raw[s.name + ".self_ms"] += ms - s.child_s * 1e3
        for key, value in (s.counts or {}).items():
            raw[s.name + "." + key] += value
    raw["trace.spans"] = float(len(spans))
    return dict(raw)


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(raw, overhead_frac):
    """Per-layer metric values from raw window sums (see window_counts)."""
    g = lambda key: raw.get(key, 0.0)  # noqa: E731
    m = {
        "specfun.calls": g("specfun.calls"),
        "specfun.points": g("specfun.points"),
        "specfun.ms": g("specfun.ms"),
        "specfun.ns_per_point": _ratio(g("specfun.ms") * 1e6, g("specfun.points")),
        "kernels.potential_matrix.ms": g("kernels.potential_matrix.ms"),
        "kernels.potential_matrix.entries": g("kernels.potential_matrix.entries"),
        "kernels.potential_matrix.self_ms": g("kernels.potential_matrix.self_ms"),
        "kernels.boundary_kernel.requests": g("kernels.boundary_kernel.calls"),
        "kernels.boundary_kernel.builds": g("kernels.boundary_kernel_build.calls"),
        "kernels.boundary_kernel.hit_ratio": _ratio(
            g("kernels.boundary_kernel.calls") - g("kernels.boundary_kernel_build.calls"),
            g("kernels.boundary_kernel.calls")),
        "kernels.boundary_kernel.ms": g("kernels.boundary_kernel.ms"),
        "bie.residual_operator.calls": g("bie.residual_operator.calls"),
        "bie.residual_operator.ms": g("bie.residual_operator.ms"),
        "bie.bie_residual.calls": g("bie.bie_residual.calls"),
        "bie.bie_residual.ms": g("bie.bie_residual.ms"),
        "fdsolver.solves": g("fdsolver.solve.calls"),
        "fdsolver.ms": g("fdsolver.solve.ms"),
        "fdsolver.ms_per_solve": _ratio(g("fdsolver.solve.ms"), g("fdsolver.solve.calls")),
        "fdsolver.factorizations": g("fdsolver.factorize.calls"),
        "fdsolver.solves_per_factorization": _ratio(g("fdsolver.solve.calls"),
                                                    g("fdsolver.factorize.calls")),
        "nn.source_predict.calls": g("nn.source_predict.calls"),
        "nn.source_predict.rows": g("nn.source_predict.rows"),
        "nn.source_predict.ms": g("nn.source_predict.ms"),
        "nn.source_predict.gflop": g("nn.source_predict.flop") / 1e9,
        "nn.source_predict.gflop_per_s": _ratio(g("nn.source_predict.flop") / 1e6,
                                                g("nn.source_predict.ms")),
        "nn.source_operator.ms": g("nn.source_operator.ms"),
        "nn.checkpoint_load.ms": g("nn.checkpoint_load.ms"),
        "nn.checkpoint_load.bytes": g("nn.checkpoint_load.bytes"),
        "nn.boundary_predict.calls": g("nn.boundary_predict.calls"),
        "nn.boundary_predict.ms": g("nn.boundary_predict.ms"),
        "nn.forward.ms": g("nn.forward.ms"),
        "nn.backward.ms": g("nn.backward.ms"),
        "nn.adam.ms": g("nn.adam.ms"),
        "training.boundary_step_ms": _ratio(g("training.boundary_step.ms"),
                                            g("training.boundary_step.calls")),
        "training.source_step_ms": _ratio(g("training.source_step.ms"),
                                          g("training.source_step.calls")),
        "datagen.source_record_ms": _ratio(g("datagen.source.ms"),
                                           g("datagen.source.records")),
        "datagen.boundary_record_ms": _ratio(g("datagen.boundary.ms"),
                                             g("datagen.boundary.records")),
        "evolution.solve.calls": g("evolution.solve.calls"),
        "evolution.solve.ms": g("evolution.solve.ms"),
        "evolution.solve.self_ms": g("evolution.solve.self_ms"),
        "evolution.callbacks.calls": g("evolution.callbacks.calls"),
        "evolution.callbacks.ms": g("evolution.callbacks.ms"),
        "evolution.newton.calls": g("evolution.newton.calls"),
        "evolution.newton.points": g("evolution.newton.points"),
        "evolution.newton.ms": g("evolution.newton.ms"),
        "evolution.stepper.self_ms": g("evolution.stepper.self_ms"),
        "trace.spans": g("trace.spans"),
        "trace.overhead_frac": overhead_frac,
    }
    return m
