"""One benchmark workload, run by ``run.py`` in a child process of its own.

The child is started with BLAS pinned to one thread and ``src`` on the
path.  It builds the workload's inputs, times calls into repca's public
entry points (``repca.fit`` in-process, or the ``repca`` console command
as a subprocess), checks every output, and writes a JSON report.

The gated times are CPU seconds (``time.process_time`` in-process, user
plus system time from ``wait4`` for a subprocess), each scaled by the
host's speed around that call.  A ``HostSpeed`` probe made of fixed
kernels of the benchmark's own runs between the timed calls; see
README.md.  Raw CPU and wall times are reported beside the gated figures.

Each workload is a fixed set of planted problems (SynthSpec with noise
0.1 and 10% outliers at scale 5, at fixed data seeds), so that iteration
counts, and with them fit times, are the same from seed to seed.  The
``--seed`` argument draws a relabelling of the samples and features of
those problems and the order of the fits within a round: every seed hands
the program different matrices of identical difficulty.  Seed 0 is the
identity relabelling.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import repca
from repca import (
    DataMatrix,
    NormSpec,
    Projection,
    SolverConfig,
    SynthSpec,
    center_columns,
    objective_value,
    principal_angles,
    synth_subspace,
    vanilla_pca,
)
from repca.csvio import read_matrix_csv
from tracing import (
    LIBRARY_TARGETS,
    PER_LAYER_UNITS,
    VARIANTS,
    Tracer,
    round_layers,
    setup_layers,
    unit_totals,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

NOISE, OUTLIER_FRAC, OUTLIER_SCALE = 0.1, 0.1, 5.0
MAX_ITER = 500
LOSSES = (("l1", NormSpec.l1()), ("l2p", NormSpec.l2p(1.0)))
# Same allowance repca.linalg.Projection enforces: ||W^T W - I||_F <= 1e-10 k.
ORTHONORMALITY_RTOL = 1e-10
# Library set-up is repeated until both floors are met; its median is setup_s.
SETUP_MIN_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 5, 1.0, 1000
CLI_SETUP_REPS = 5
# Without tracing every fit runs at least twice, so each is checked for
# bit-for-bit repeatability against its first run.
MIN_ROUNDS = 2
# Untimed warm-up iterations per library fit, so first-call costs (allocator
# growth, BLAS start-up) stay out of the first timed round.
WARMUP_ITERS = 3
# Runs of one fit in each untraced round, where a variant's fits are so
# much shorter than the others' that a round would give them few samples:
# tall's irls fits take a tenth of its pgd fits.
REPEATS = {"tall": {"irls": 5}}
# Each HostSpeed kernel's CPU time that a speed of 1 stands for: about its
# median on the 2-vCPU host where the bounds were set, in a quiet phase.
REFERENCE_S = {"interpreter": 0.6e-3, "small_numpy": 0.3e-3, "blas": 1.0e-3, "process": 0.25}
# The kernels that resemble each workload's work, so a slow phase of the host
# slows them as it slows the timed calls.  small_grid is a loop of tiny numpy
# calls; tall mixes BLAS products, m*n passes and interpreter overhead;
# cli_csv starts an interpreter, imports numpy and parses floats from text.
PROBE_KERNELS = {
    "small_grid": ("small_numpy",),
    "tall": ("interpreter", "small_numpy", "blas"),
    "wide": ("interpreter", "small_numpy", "blas"),
    "cli_csv": ("process",),
}
# After each timed call the probe runs until it has taken this share of it.
PROBE_SHARE = 0.1
# The "process" kernel: interpreter start, numpy import, float parsing.
PROCESS_PROBE = "import numpy\nvalues = [float(repr(i * 0.37)) for i in range(50000)]"
# Iteration counts in ROADMAP.md's baseline table (pgd, l1, data seed 0).
ROADMAP_ITERATIONS = {"small_grid": 294, "tall": 26}


@dataclass(frozen=True)
class Shape:
    m: int
    n: int
    k: int
    data_seeds: tuple


FULL = {
    "small_grid": Shape(10, 200, 2, tuple(range(8))),
    "tall": Shape(200, 5000, 5, (0,)),
    "wide": Shape(600, 120, 3, (0,)),
    "cli_csv": Shape(20, 20000, 3, (0,)),
}
SMOKE = {
    "small_grid": Shape(6, 40, 2, (0, 1)),
    "tall": Shape(12, 300, 2, (0,)),
    "wide": Shape(40, 12, 2, (0,)),
    "cli_csv": Shape(5, 200, 2, (0,)),
}


class Checks:
    """Counts every output check run and failed; keeps the first messages."""

    def __init__(self) -> None:
        self.ran: Counter = Counter()
        self.failed: Counter = Counter()
        self.messages: list[str] = []
        self.attempted = 0
        self.failed_ops = 0

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.ran[name] += 1
        if not ok:
            self.failed[name] += 1
            self.note(f"{name}: {detail}")
        return bool(ok)

    def note(self, message: str) -> None:
        if len(self.messages) < 20:
            self.messages.append(message)

    def op(self, ok: bool) -> None:
        self.attempted += 1
        self.failed_ops += not ok

    def summary(self) -> dict:
        return {name: {"ran": self.ran[name], "failed": self.failed[name]} for name in sorted(self.ran)}


def relabelling(seed: int, m: int, n: int):
    """Row (feature) and column (sample) permutations drawn from ``seed``."""
    if seed == 0:
        return np.arange(m), np.arange(n)
    rng = np.random.default_rng(seed)
    return rng.permutation(m), rng.permutation(n)


def fit_order(seed: int, count: int) -> list[int]:
    return list(range(count)) if seed == 0 else list(np.random.default_rng(seed + 1).permutation(count))


def median(values) -> float:
    return float(statistics.median(values))


def metric(value, unit: str, samples: int) -> dict:
    return {"value": float(value), "unit": unit, "samples": int(samples)}


def tail_percentile(values) -> tuple[str, float] | None:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for label, q in (("p90", 0.90), ("p99", 0.99), ("p99.9", 0.999)):
        if len(values) * (1.0 - q) >= 10:
            best = (label, float(np.quantile(values, q)))
    return best


def run_rounds(seconds: float, min_rounds: int, body) -> int:
    """Call ``body()`` for whole rounds until ``seconds`` would be exceeded."""
    start = time.perf_counter()
    durations: list[float] = []
    while True:
        t0 = time.perf_counter()
        body()
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(durations) >= min_rounds and elapsed + median(durations) > seconds:
            return len(durations)


# -------------------------------------------------------------- host speed


class HostSpeed:
    """How fast the host runs fixed work, measured around each timed call.

    On a shared virtual machine the same fit can take 1.5x longer for
    minutes at a time, and the host's speed moves within a run too.  The
    kernels (an interpreter loop, tiny numpy calls in a loop, one BLAS
    product, or a fresh interpreter that imports numpy and parses floats)
    do not call repca, so a change to repca leaves them alone; a slow host
    slows them with the call between them.  ``probe`` returns the factor
    that turns that call's CPU seconds into seconds on a host where each
    kernel takes its ``REFERENCE_S``.
    """

    def __init__(self, kernels: tuple) -> None:
        rng = np.random.default_rng(0)
        a = rng.standard_normal((10, 10))
        self._sym, self._x = a @ a.T, rng.standard_normal((10, 200))
        self._b, self._c = rng.standard_normal((200, 200)), rng.standard_normal((200, 500))
        self.kernels = {name: getattr(self, f"_{name}") for name in kernels}
        self.samples: dict[str, list[float]] = {name: [] for name in kernels}
        self.scales: list[float] = []

    @staticmethod
    def _cpu(kernel) -> float:
        t0 = time.process_time()
        kernel()
        return time.process_time() - t0

    def _interpreter(self) -> float:
        def loop():
            total = 0
            for i in range(10000):
                total += i * i
        return self._cpu(loop)

    def _small_numpy(self) -> float:
        def loop():
            v = np.ones(10)
            for _ in range(20):
                v = self._sym @ v
                v = v / np.linalg.norm(v)
                np.abs(self._x - np.outer(v, v @ self._x)).sum(axis=0)
        return self._cpu(loop)

    def _blas(self) -> float:
        return self._cpu(lambda: self._b @ self._c)

    def _process(self) -> float:
        proc = subprocess.Popen([sys.executable, "-c", PROCESS_PROBE], stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            raise RuntimeError("host-speed probe process failed")
        return usage.ru_utime + usage.ru_stime

    def probe(self, after_s: float) -> float:
        """Run every kernel once, and again until they took PROBE_SHARE of
        ``after_s``; return the scale for the call that took ``after_s``:
        the geometric mean of this probe's and the one before the call."""
        took: dict[str, list[float]] = {name: [] for name in self.kernels}
        spent = 0.0
        while spent < PROBE_SHARE * after_s or not took[next(iter(took))]:
            for name, kernel in self.kernels.items():
                took[name].append(kernel())
                spent += took[name][-1]
        for name, times in took.items():
            self.samples[name].extend(times)
        scale = math.exp(statistics.fmean(math.log(REFERENCE_S[name] / statistics.fmean(times))
                                          for name, times in took.items()))
        before = self.scales[-1] if self.scales else scale
        self.scales.append(scale)
        return math.sqrt(before * scale)

    def report(self, metrics: dict) -> None:
        for name, times in self.samples.items():
            metrics[f"host.{name}_s"] = metric(median(times), "s", len(times))
        metrics["host.scale"] = metric(median(self.scales), "ratio", len(self.scales))


# ------------------------------------------------------------- environment


def _cache_sizes() -> dict:
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        caches[f"L{level}_{kind.lower()}"] = size
    return caches


def _bytes(size: str) -> int:
    scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
    return int(size[:-1]) * scale[size[-1]] if size and size[-1] in scale else int(size or 0)


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def environment(seed: int, shape: Shape, csv_bytes: int = 0) -> dict:
    caches = _cache_sizes()
    l3 = _bytes(caches.get("L3_unified", "0"))
    m, n = shape.m, shape.n
    x_bytes = 8 * m * n
    # X, the residual and the X*d temporary, plus the m x m scatter and the
    # symmetrized copy SymmetricMatrix stores: computed from array sizes.
    working = 3 * x_bytes + 2 * 8 * m * m + csv_bytes
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "caches": caches,
        "blas_pins": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload_seed": seed,
        "data_seeds": list(shape.data_seeds),
        "shape": {"m": m, "n": n, "k": shape.k},
        "working_set_mb_computed": working / 1e6,
        "l3_mb": l3 / 1e6,
        "working_set_over_l3": working / l3 if l3 else None,
    }


# ------------------------------------------------------------------ checks


def check_fit(checks: Checks, label: str, w: np.ndarray, trace, vanilla_objective: float,
              first: dict, key) -> bool:
    """Every output check on one fit; ``first`` holds each key's first run."""
    k = w.shape[1]
    gram_err = float(np.linalg.norm(w.T @ w - np.eye(k)))
    ok = checks.check("orthonormal", gram_err <= ORTHONORMALITY_RTOL * k, f"{label}: {gram_err:.3e}")
    ok &= checks.check("finite_trace", bool(np.all(np.isfinite(trace))), label)
    ok &= checks.check("init_is_vanilla", trace[0] == vanilla_objective,
                       f"{label}: {trace[0]!r} != {vanilla_objective!r}")
    ok &= checks.check("descent", trace[-1] <= trace[0], f"{label}: {trace[-1]!r} > {trace[0]!r}")
    fingerprint = (np.asarray(w).tobytes(), np.asarray(trace, dtype=float).tobytes())
    if key in first:
        ok &= checks.check("deterministic", first[key] == fingerprint, f"{label}: output changed")
    else:
        first[key] = fingerprint
    return ok


def quality_metrics(metrics: dict, outcome: list) -> None:
    """converged_frac, unconverged_frac, max_angle_rad and objective_vs_vanilla
    from (converged, max angle, objective ratio) of each distinct fit."""
    if not outcome:
        return
    unconverged = sum(not converged for converged, _, _ in outcome)
    metrics["converged_frac"] = metric(1 - unconverged / len(outcome), "ratio", len(outcome))
    metrics["unconverged_frac"] = metric(unconverged / len(outcome), "ratio", len(outcome))
    metrics["max_angle_rad"] = metric(median([a for _, a, _ in outcome]), "rad", len(outcome))
    metrics["objective_vs_vanilla"] = metric(median([r for _, _, r in outcome]), "ratio", len(outcome))


def timing_metrics(metrics: dict, fits: list, setup_s: list, speed: HostSpeed) -> None:
    """The gated timings, from ``(variant, gated_s, cpu_s, wall_s)`` of each
    distinct fit, which list the seconds of each of its runs, and the gated
    seconds of each set-up.  A run's gated time is its CPU time times the
    scale the probe right after it measured; a fit's is the median over its
    runs.  The unscaled CPU and wall medians are reported beside it."""
    speed.report(metrics)
    metrics["setup_s"] = metric(median(setup_s), "s", len(setup_s))
    if not fits:
        return
    runs = sum(len(gated) for _, gated, _, _ in fits)
    metrics["fits_per_s"] = metric(len(fits) / sum(median(gated) for _, gated, _, _ in fits), "1/s", runs)
    for variant in VARIANTS:
        mine = [times for v, *times in fits if v == variant]
        if not mine:
            continue
        samples = [t for gated, _, _ in mine for t in gated]
        name = f"{variant}_fit_s"
        metrics[name] = metric(median([median(gated) for gated, _, _ in mine]), "s", len(samples))
        metrics[f"{name}.cpu"] = metric(median([median(cpu) for _, cpu, _ in mine]), "s", len(samples))
        metrics[f"{name}.wall"] = metric(median([median(wall) for _, _, wall in mine]), "s", len(samples))
        tail = tail_percentile(samples)
        if tail:
            metrics[f"{name}.{tail[0]}"] = metric(tail[1], "s", len(samples))


def traced_layers(totals: dict, meta: dict, paired: list) -> dict:
    """Median over traced rounds of each per-layer figure."""
    per_round = [round_layers(totals, units, meta, untraced) for units, untraced in paired if units]
    if not per_round:
        return {}
    return {key: median([r[key] for r in per_round]) for key in PER_LAYER_UNITS}


# --------------------------------------------------------- library workloads


@dataclass(frozen=True)
class Job:
    label: str
    variant: str
    data: DataMatrix
    w_true: Projection
    norm: NormSpec
    config: SolverConfig
    vanilla_objective: float


def make_instances(shape: Shape, seed: int) -> tuple[list, float]:
    """The relabelled planted problems, and the seconds spent in synth_subspace."""
    rows, cols = relabelling(seed, shape.m, shape.n)
    instances, synth_s = [], 0.0
    for data_seed in shape.data_seeds:
        spec = SynthSpec(m=shape.m, n=shape.n, k_true=shape.k, noise_sigma=NOISE,
                         outlier_frac=OUTLIER_FRAC, outlier_scale=OUTLIER_SCALE, seed=data_seed)
        t0 = time.perf_counter()
        data, w_true, _ = synth_subspace(spec)
        synth_s += time.perf_counter() - t0
        data = DataMatrix(data.values[rows][:, cols], centered=True)
        instances.append((data_seed, data, Projection(w_true.values[rows])))
    return instances, synth_s


def make_jobs(shape: Shape, instances: list) -> list[Job]:
    jobs = []
    for data_seed, data, w_true in instances:
        vanilla = vanilla_pca(data, shape.k)
        for loss, norm in LOSSES:
            van_obj = objective_value(data, vanilla, norm)
            for variant in VARIANTS:
                config = SolverConfig(variant=variant, max_iter=MAX_ITER)
                label = f"{variant}/{loss}/data-seed{data_seed}"
                jobs.append(Job(label, variant, data, w_true, norm, config, van_obj))
    return jobs


def run_library(name: str, shape: Shape, seed: int, seconds: float, trace: bool) -> dict:
    checks = Checks()
    speed = HostSpeed(PROBE_KERNELS[name])
    setup_s, setup_cpu, synth_s = [], [], []
    while len(setup_s) < SETUP_MIN_REPS or (sum(setup_cpu) < SETUP_MIN_S and len(setup_s) < SETUP_MAX_REPS):
        t0 = time.process_time()
        instances, synth = make_instances(shape, seed)
        setup_cpu.append(time.process_time() - t0)
        synth_s.append(synth)
        setup_s.append(setup_cpu[-1] * speed.probe(setup_cpu[-1]))
    jobs = make_jobs(shape, instances)
    order = fit_order(seed, len(jobs))
    for job in jobs:
        try:
            repca.fit(job.data, shape.k, job.norm, replace(job.config, max_iter=WARMUP_ITERS))
        except Exception:  # the timed fit of the same job records the failure
            pass

    gated: list[list[float]] = [[] for _ in jobs]
    cpus: list[list[float]] = [[] for _ in jobs]
    walls: list[list[float]] = [[] for _ in jobs]
    outcome: dict[int, tuple] = {}
    first: dict = {}
    tracer = Tracer()
    meta: dict = {}
    unit_ids = itertools.count()
    paired: list[tuple[list, float]] = []

    def one_round(traced: bool) -> tuple[list, float]:
        units, total = [], 0.0
        repeats = {} if traced else REPEATS.get(name, {})
        schedule = [(i, rep) for i in order for rep in range(repeats.get(jobs[i].variant, 1))]
        with tracer.installed(LIBRARY_TARGETS if traced else ()):
            for i, rep in schedule:
                job, unit = jobs[i], next(unit_ids)
                try:
                    c0, t0 = time.process_time(), time.perf_counter()
                    with tracer.unit_span("solvers.fit", unit) if traced else nullcontext():
                        result = repca.fit(job.data, shape.k, job.norm, job.config)
                    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
                except Exception as exc:  # a fit that raises is a failed operation
                    checks.note(f"{job.label} raised {exc!r}")
                    checks.op(False)
                    continue
                # The traced round it is paired with runs each fit once.
                total += wall if rep == 0 else 0.0
                w, obj = result.projection.values, result.objective_trace
                checks.op(check_fit(checks, job.label, w, obj, job.vanilla_objective, first, i))
                if traced:
                    meta[unit] = {"variant": job.variant, "m": shape.m, "n": shape.n,
                                  "iterations": result.iterations, "wall": wall}
                    units.append(unit)
                    continue
                cpus[i].append(cpu)
                walls[i].append(wall)
                gated[i].append(cpu * speed.probe(cpu))
                if i not in outcome:
                    angle = float(principal_angles(result.projection, job.w_true)[-1])
                    outcome[i] = (result.iterations, result.converged, angle, obj[-1] / job.vanilla_objective)
        return units, total

    def body() -> None:
        _, untraced = one_round(False)
        if trace:
            paired.append((one_round(True)[0], untraced))

    report = {"rounds": run_rounds(seconds, 1 if trace else MIN_ROUNDS, body), "checks": checks}
    report["fits"] = [
        {"fit": jobs[i].label, "iterations": it, "converged": conv, "max_angle_rad": angle,
         "objective_vs_vanilla": ratio, "median_gated_s": median(gated[i]), "median_cpu_s": median(cpus[i]),
         "median_wall_s": median(walls[i]), "cpu_s": cpus[i], "wall_s": walls[i]}
        for i, (it, conv, angle, ratio) in sorted(outcome.items())
    ]
    if name in ROADMAP_ITERATIONS and shape == FULL[name]:
        label = "pgd/l1/data-seed0"
        measured = [f["iterations"] for f in report["fits"] if f["fit"] == label]
        report["reconcile"] = {"fit": label, "roadmap_iterations": ROADMAP_ITERATIONS[name],
                               "measured_iterations": measured[0] if measured else None}
    if trace:
        layers = traced_layers(unit_totals(tracer), meta, paired)
        if layers:
            layers["datagen.synth_s"] = median(synth_s)
        report["layers"] = {key: metric(v, PER_LAYER_UNITS[key], len(paired)) for key, v in layers.items()}
        return report

    metrics: dict = {}
    timing_metrics(metrics, [(jobs[i].variant, gated[i], cpus[i], walls[i]) for i in range(len(jobs)) if cpus[i]],
                   setup_s, speed)
    metrics["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
    quality_metrics(metrics, [(conv, angle, ratio) for _, conv, angle, ratio in outcome.values()])
    report["metrics"] = metrics
    return report


# ------------------------------------------------------------- CLI workload

LAUNCH = "import sys; from repca.cli import main; sys.exit(main())"


@dataclass
class Proc:
    wall: float
    cpu: float
    code: int
    rss_mb: float
    started: float
    gated: float = 0.0  # CPU seconds times the host-speed scale


def spawn(argv: list[str], log: Path, spans: Path | None = None) -> Proc:
    """Run ``repca <argv>`` the way the console command does, or traced."""
    if spans is None:
        cmd = [sys.executable, "-c", LAUNCH, *argv]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans), *argv]
    with open(log, "ab") as err:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_utime + usage.ru_stime, proc.returncode, usage.ru_maxrss / 1024, started)


def load_spans(tracer: Tracer, path: Path, unit, started: float) -> float:
    """Merge a traced process's spans as ``unit``; returns its start-up time
    (spawn until ``import repca.cli`` returned, on the shared monotonic clock)."""
    with open(path, encoding="ascii") as fh:
        payload = json.load(fh)
    tracer.extend(payload["spans"], payload["sizes"], unit)
    return payload["imported_at"] - started


def relabel_csv(src: Path, dst: Path, features, samples) -> None:
    """Reorder the sample lines and feature fields of a data CSV as text,
    so every value keeps the exact digits ``repca synth`` wrote."""
    lines = src.read_text(encoding="ascii").splitlines()
    out = []
    for s in samples:
        fields = lines[s].split(",")
        out.append(",".join(fields[f] for f in features))
    dst.write_text("\n".join(out) + "\n", encoding="ascii")


def run_cli(shape: Shape, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    checks = Checks()
    log = workdir / "repca.stderr"
    synth_dir = workdir / "synth"
    synth_argv = [
        "synth", "--m", str(shape.m), "--n", str(shape.n), "--k-true", str(shape.k),
        "--noise", str(NOISE), "--outlier-frac", str(OUTLIER_FRAC),
        "--outlier-scale", str(OUTLIER_SCALE), "--seed", str(shape.data_seeds[0]),
        "--out", str(synth_dir),
    ]
    tracer = Tracer()
    meta: dict = {}
    unit_ids = itertools.count()
    setup_s, setup_units = [], []
    speed = HostSpeed(PROBE_KERNELS["cli_csv"])
    for rep in range(CLI_SETUP_REPS):
        spans = workdir / "spans-synth.json" if trace else None
        proc = spawn(synth_argv, log, spans)
        ok = checks.check("exit_code", proc.code == 0, f"synth exited {proc.code}")
        checks.op(ok)
        if not ok:
            return {"rounds": 0, "checks": checks}
        setup_s.append(proc.cpu * speed.probe(proc.cpu))
        if trace:
            load_spans(tracer, spans, f"synth{rep}", proc.started)
            setup_units.append(f"synth{rep}")

    rows, cols = relabelling(seed, shape.m, shape.n)
    data_csv = workdir / "data.csv"
    relabel_csv(synth_dir / "data.csv", data_csv, rows, cols)
    data, _ = center_columns(DataMatrix(read_matrix_csv(data_csv).T))
    vanilla_obj = objective_value(data, vanilla_pca(data, shape.k), NormSpec.l1())
    w_true = Projection(read_matrix_csv(synth_dir / "w_true.csv")[rows])

    solvers = [VARIANTS[i] for i in fit_order(seed, len(VARIANTS))]
    runs: dict[str, list[Proc]] = {v: [] for v in VARIANTS}
    outcome: dict[str, tuple] = {}
    first: dict = {}
    paired: list[tuple[list, float]] = []

    def checked_run(variant: str, spans: Path | None):
        """One ``repca fit`` process and its output checks."""
        out = workdir / f"fit-{variant}"
        argv = ["fit", "--input", str(data_csv), "--k", str(shape.k), "--norm", "l1",
                "--solver", variant, "--out", str(out)]
        proc = spawn(argv, log, spans)
        label = f"repca fit --solver {variant}"
        if not checks.check("exit_code", proc.code == 0, f"{label} exited {proc.code}"):
            return proc, None
        w = read_matrix_csv(out / "w.csv")
        if not checks.check("w_shape", w.shape == (shape.m, shape.k), f"{label}: w.csv is {w.shape}"):
            return proc, None
        record = json.loads((out / "trace.json").read_text(encoding="ascii"))
        ok = check_fit(checks, label, w, np.asarray(record["objective"], dtype=float),
                       vanilla_obj, first, variant)
        return proc, (w, record) if ok else None

    def one_round(traced: bool) -> tuple[list, float]:
        units, total = [], 0.0
        for variant in solvers:
            spans = workdir / f"spans-{variant}.json" if traced else None
            proc, output = checked_run(variant, spans)
            checks.op(output is not None)
            total += proc.wall
            if output is None:
                continue
            w, record = output
            if traced:
                unit = next(unit_ids)
                meta[unit] = {"variant": variant, "m": shape.m, "n": shape.n,
                              "import_s": load_spans(tracer, spans, unit, proc.started),
                              "iterations": record["iterations"], "wall": proc.wall}
                units.append(unit)
                continue
            proc.gated = proc.cpu * speed.probe(proc.cpu)
            runs[variant].append(proc)
            if variant not in outcome:
                angle = float(principal_angles(Projection(w), w_true)[-1])
                outcome[variant] = (record["iterations"], record["converged"], angle,
                                    record["objective"][-1] / vanilla_obj)
        return units, total

    def body() -> None:
        _, untraced = one_round(False)
        if trace:
            paired.append((one_round(True)[0], untraced))

    report = {"rounds": run_rounds(seconds, 1 if trace else MIN_ROUNDS, body), "checks": checks,
              "csv_bytes": data_csv.stat().st_size}

    # Replays run after the timed rounds: each fit manifest must reproduce w.csv.
    for variant in solvers:
        out, again = workdir / f"fit-{variant}", workdir / f"rerun-{variant}"
        proc = spawn(["rerun", "--manifest", str(out / "manifest.json"), "--out", str(again)], log)
        ok = checks.check("exit_code", proc.code == 0, f"{variant} rerun exited {proc.code}")
        ok = ok and checks.check(
            "rerun_bytes", (again / "w.csv").read_bytes() == (out / "w.csv").read_bytes(),
            f"{variant}: rerun w.csv differs",
        )
        checks.op(ok)

    report["fits"] = [
        {"fit": f"{v}/l1", "iterations": it, "converged": conv, "max_angle_rad": angle,
         "objective_vs_vanilla": ratio, "median_gated_s": median([p.gated for p in runs[v]]),
         "median_cpu_s": median([p.cpu for p in runs[v]]),
         "median_wall_s": median([p.wall for p in runs[v]]),
         "cpu_s": [p.cpu for p in runs[v]], "wall_s": [p.wall for p in runs[v]]}
        for v, (it, conv, angle, ratio) in outcome.items()
    ]
    if trace:
        totals = unit_totals(tracer)
        layers = traced_layers(totals, meta, paired)
        if layers:
            per_setup = [setup_layers(totals, unit) for unit in setup_units]
            for key in ("datagen.synth_s", "csvio.write_s", "csvio.write_mb"):
                layers[key] = median([s[key] for s in per_setup])
        report["layers"] = {key: metric(v, PER_LAYER_UNITS[key], len(paired)) for key, v in layers.items()}
        return report

    all_runs = [p for ps in runs.values() for p in ps]
    metrics: dict = {}
    if all_runs:
        metrics["cli_fit_s"] = metric(median([p.wall for p in all_runs]), "s", len(all_runs))
        metrics["peak_rss_mb"] = metric(median([p.rss_mb for p in all_runs]), "MB", len(all_runs))
    timing_metrics(metrics, [(v, [p.gated for p in runs[v]], [p.cpu for p in runs[v]], [p.wall for p in runs[v]])
                             for v in VARIANTS if runs[v]], setup_s, speed)
    quality_metrics(metrics, [(conv, angle, ratio) for _, conv, angle, ratio in outcome.values()])
    report["metrics"] = metrics
    return report


# ------------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(FULL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--report", required=True)
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if Path(repca.__file__).resolve().parent.parent != src:
        print(f"error: imported repca from {repca.__file__}, not from {src}", file=sys.stderr)
        return 2
    shape = (SMOKE if args.smoke else FULL)[args.workload]
    if args.workload == "cli_csv":
        report = run_cli(shape, args.seed, args.seconds, bool(args.trace), Path(args.workdir))
    else:
        report = run_library(args.workload, shape, args.seed, args.seconds, bool(args.trace))

    checks: Checks = report.pop("checks")
    if "metrics" in report:
        report["metrics"]["failed_frac"] = metric(
            checks.failed_ops / max(checks.attempted, 1), "ratio", checks.attempted
        )
    report.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        smoke=args.smoke, env=environment(args.seed, shape, report.pop("csv_bytes", 0)),
        attempted=checks.attempted, failed=checks.failed_ops,
        checks=checks.summary(), messages=checks.messages,
    )
    with open(args.report, "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
