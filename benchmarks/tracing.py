"""Span recording for the traced benchmark run.

A ``Tracer`` replaces module attributes that repca's solvers and CLI look
up by name at call time with wrappers that record one span per call:
``(name, start, end, parent span index, unit id)``.  A unit is one fit, or
one ``repca`` process in the CLI workload.  Spans stay in memory until the
run ends; self times (a span's duration minus the time its child spans
cover) are computed afterwards by ``unit_totals``.

Nothing is patched until ``installed`` is entered, and leaving it restores
every original, so untraced and traced rounds can share one process.
"""
from __future__ import annotations

import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np
import repca.cli
import repca.solvers
from repca.linalg import Projection, SymmetricMatrix

# (owner, attribute, span name).  The solvers and the CLI call these by
# their module-level names, so replacing the attribute reroutes the call.
LIBRARY_TARGETS = (
    (repca.solvers, "spectral_norm", "linalg.spectral_norm"),
    (repca.solvers, "weighted_scatter", "objectives.weighted_scatter"),
    (repca.solvers, "_weights_for", "objectives.weights"),
    (repca.solvers, "_objective_from_residual", "objectives.objective"),
    (repca.solvers, "procrustes_project", "linalg.procrustes_project"),
    (repca.solvers, "top_r_eigvecs", "linalg.top_r_eigvecs"),
    (repca.solvers, "vanilla_pca", "solvers.init"),
    (np.linalg, "eigvalsh", "linalg.eigvalsh"),
    (Projection, "__post_init__", "linalg.validate"),
    (SymmetricMatrix, "__post_init__", "linalg.validate"),
)
CLI_TARGETS = (
    (repca.cli, "read_matrix_csv", "csvio.read"),
    (repca.cli, "write_matrix_csv", "csvio.write"),
    (repca.cli, "write_mask_csv", "csvio.write"),
    (repca.cli, "_write_json", "cli.write_json"),
    (repca.cli, "center_columns", "linalg.center_columns"),
    (repca.cli, "synth_subspace", "datagen.synth"),
    (repca.cli, "fit", "solvers.fit"),
)
# Spans whose first argument is a file path; the file's size is recorded.
SIZED = frozenset({"csvio.read", "csvio.write"})


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.sizes: dict[int, int] = {}
        self.unit = None
        self._stack = [-1]

    def _wrap(self, name, fn):
        spans, sizes, stack = self.spans, self.sizes, self._stack
        sized = name in SIZED

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.unit)
                if sized and os.path.exists(args[0]):
                    sizes[idx] = os.path.getsize(args[0])

        return wrapper

    @contextmanager
    def installed(self, targets):
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
        try:
            for owner, attr, name in targets:
                setattr(owner, attr, self._wrap(name, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    @contextmanager
    def unit_span(self, name, unit):
        """Root span of one unit; every span recorded inside carries ``unit``."""
        previous, self.unit = self.unit, unit
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, unit)
            self.unit = previous

    def extend(self, spans, sizes, unit) -> None:
        """Append spans recorded by another process, relabelled as ``unit``."""
        offset = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1, unit))
        for idx, size in sizes.items():
            self.sizes[int(idx) + offset] = size


def unit_totals(tracer: Tracer) -> dict:
    """Per unit and span name: self seconds, call count and bytes.

    Also counts, per unit, the ``eigvalsh`` calls made from inside
    ``spectral_norm`` (power iterations that fell back), under the key
    ``"linalg.spectral_norm.fallback"``.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict = defaultdict(lambda: defaultdict(lambda: [0.0, 0, 0]))
    for idx, (name, start, end, parent, unit) in enumerate(spans):
        if unit is None:
            continue
        entry = totals[unit][name]
        entry[0] += (end - start) - child[idx]
        entry[1] += 1
        entry[2] += tracer.sizes.get(idx, 0)
        if name == "linalg.eigvalsh" and parent >= 0 and spans[parent][0] == "linalg.spectral_norm":
            totals[unit]["linalg.spectral_norm.fallback"][1] += 1
    return totals


VARIANTS = ("pgd", "momentum", "irls")

# Per-layer metrics of a traced run.  Times are seconds per round (one pass
# over the workload's fits or CLI runs), except datagen.synth_s and
# csvio.write_*, which are per setup.
PER_LAYER_UNITS = {
    **{f"solvers.iterations.{v}": "count" for v in VARIANTS},
    **{f"solvers.self_s.{v}": "s" for v in VARIANTS},
    "solvers.init_s": "s",
    "linalg.spectral_norm.calls": "count",
    "linalg.spectral_norm.self_s": "s",
    "linalg.spectral_norm.fallback_ratio": "ratio",
    "linalg.eigvalsh.self_s": "s",
    "linalg.top_r_eigvecs.self_s": "s",
    "linalg.procrustes_project.self_s": "s",
    "linalg.validate_s": "s",
    "linalg.center_columns.self_s": "s",
    "objectives.weighted_scatter.self_s": "s",
    "objectives.weighted_scatter.gflop": "GFLOP_computed",
    "objectives.weighted_scatter.gflop_per_s": "GFLOP_computed/s",
    "objectives.weights.self_s": "s",
    "objectives.objective.self_s": "s",
    "csvio.read_s": "s",
    "csvio.read_mb": "MB",
    "csvio.write_s": "s",
    "csvio.write_mb": "MB",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.write_json_s": "s",
    "datagen.synth_s": "s",
    "trace.fit_s": "s",
    "trace.self_sum_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

# span name -> metric that takes its self time
_SELF_METRICS = {
    "solvers.init": "solvers.init_s",
    "linalg.spectral_norm": "linalg.spectral_norm.self_s",
    "linalg.eigvalsh": "linalg.eigvalsh.self_s",
    "linalg.top_r_eigvecs": "linalg.top_r_eigvecs.self_s",
    "linalg.procrustes_project": "linalg.procrustes_project.self_s",
    "linalg.validate": "linalg.validate_s",
    "linalg.center_columns": "linalg.center_columns.self_s",
    "objectives.weighted_scatter": "objectives.weighted_scatter.self_s",
    "objectives.weights": "objectives.weights.self_s",
    "objectives.objective": "objectives.objective.self_s",
    "csvio.read": "csvio.read_s",
    "cli.main": "cli.self_s",
    "cli.write_json": "cli.write_json_s",
}


def round_layers(totals: dict, units: list, meta: dict, untraced_s: float) -> dict:
    """Per-layer figures for one traced round.

    ``meta[unit]`` holds the unit's ``variant``, data shape ``m`` and ``n``,
    ``iterations``, traced wall time ``wall`` and, for a CLI process,
    ``import_s``.  ``untraced_s`` is the wall time of the same work in the
    paired untraced round.
    """
    out = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    fallbacks = 0
    self_sum = 0.0
    for unit in units:
        info = meta[unit]
        spans = totals.get(unit, {})
        for name, (self_s, _, _) in spans.items():
            self_sum += self_s
            if name in _SELF_METRICS:
                out[_SELF_METRICS[name]] += self_s
        fit = spans.get("solvers.fit", (0.0, 0, 0))
        out[f"solvers.self_s.{info['variant']}"] += fit[0]
        out[f"solvers.iterations.{info['variant']}"] += info["iterations"]
        out["linalg.spectral_norm.calls"] += spans.get("linalg.spectral_norm", (0.0, 0, 0))[1]
        fallbacks += spans.get("linalg.spectral_norm.fallback", (0.0, 0, 0))[1]
        scatter_calls = spans.get("objectives.weighted_scatter", (0.0, 0, 0))[1]
        out["objectives.weighted_scatter.gflop"] += scatter_calls * 2.0 * info["m"] ** 2 * info["n"] / 1e9
        out["csvio.read_mb"] += spans.get("csvio.read", (0.0, 0, 0))[2] / 1e6
        out["cli.import_s"] += info.get("import_s", 0.0)
        self_sum += info.get("import_s", 0.0)
        out["trace.fit_s"] += info["wall"]
    if out["linalg.spectral_norm.calls"]:
        out["linalg.spectral_norm.fallback_ratio"] = fallbacks / out["linalg.spectral_norm.calls"]
    if out["objectives.weighted_scatter.self_s"]:
        out["objectives.weighted_scatter.gflop_per_s"] = (
            out["objectives.weighted_scatter.gflop"] / out["objectives.weighted_scatter.self_s"]
        )
    out["trace.self_sum_frac"] = self_sum / untraced_s
    out["trace.overhead_frac"] = out["trace.fit_s"] / untraced_s - 1.0
    return out


def setup_layers(totals: dict, unit) -> dict:
    """datagen and csvio-write figures of one traced ``repca synth`` run."""
    spans = totals.get(unit, {})
    synth = spans.get("datagen.synth", (0.0, 0, 0))
    write = spans.get("csvio.write", (0.0, 0, 0))
    return {"datagen.synth_s": synth[0], "csvio.write_s": write[0], "csvio.write_mb": write[2] / 1e6}
