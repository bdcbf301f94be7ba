"""Acceptance suite: one test per advertised guarantee.

Each test prints a single summary line tagged [acceptance]; run with
``pytest tests/test_acceptance.py -s`` to watch them stream.  Every test
checks its numeric tolerance and a wall-clock budget on the machine it
runs on.

Two tests are strict expected failures.  The elementwise descent test:
the update bounds a reweighted quadratic, not the elementwise loss itself,
and on roughly half of random instances the recorded objective ticks
upward by a tiny amount.  And the tiny-exponent convergence test: seven
l2,p fits at p <= 0.1 run to max_iter.  Each states the guarantee we
would like and documents that it does not hold.
"""

import json
import time

import numpy as np
import pytest

from repca import (
    DataMatrix,
    NormSpec,
    Projection,
    SolverConfig,
    SynthSpec,
    fit,
    objective_value,
    principal_angles,
    synth_subspace,
    vanilla_pca,
)
from repca.cli import SUMMARY_HEADER, main
from repca.linalg import procrustes_project
from repca.objectives import _basis_stats, column_stats, weighted_scatter, weights_from_stats
from repca.solvers import weight_clamp


CLAMP = 1e-10  # below every residual column norm these tests draw


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_entrywise_weight_trace_identity():
    """tr(Y diag(d) Y^T) with elementwise weights equals the entrywise l1 norm."""
    rng = np.random.default_rng(42)
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(1000):
        m = int(rng.integers(2, 51))
        n = int(rng.integers(2, 51))
        y = rng.standard_normal((m, n))
        while np.sqrt((y * y).sum(axis=0)).min() < 1e-3:
            y = rng.standard_normal((m, n))
        d = weights_from_stats(column_stats(y, NormSpec.l1()), NormSpec.l1(), CLAMP)
        tr = float(np.trace(weighted_scatter(DataMatrix(y), d)))
        l1 = float(np.abs(y).sum())
        worst = max(worst, abs(tr - l1) / l1)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    _report("trace identity", ok, f"worst rel err {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 5.0


def _tangent_direction(rng: np.random.Generator, basis) -> np.ndarray:
    """Unit perturbation tangent to the orthonormality constraint at ``basis``."""
    ambient = rng.standard_normal(basis.values.shape)
    overlap = basis.values.T @ ambient
    tangent = ambient - basis.values @ ((overlap + overlap.T) / 2.0)
    return tangent / np.linalg.norm(tangent)


def _surrogate_slope(x: np.ndarray, w: np.ndarray, d: np.ndarray, s: float) -> np.ndarray:
    """-s X diag(d) X^T W, the slope of the reweighted quadratic; s = 1 for l2,p."""
    return -s * (x @ (d[:, None] * (x.T @ w)))


def test_columnwise_gradient_matches_finite_differences():
    """The reweighted gradient is the slope of the columnwise loss.

    Central differences of the true objective along retracted tangent
    directions must agree with -X diag(d) X^T W dotted with the direction,
    for every exponent in (0, 2].
    """
    rng = np.random.default_rng(7)
    h = 1e-6
    worst = 0.0
    t0 = time.perf_counter()
    for p in (0.5, 1.0, 1.5, 2.0):
        norm = NormSpec.l2p(p)
        for _ in range(100):
            m = int(rng.integers(3, 13))
            n = int(rng.integers(m + 2, 41))
            k = int(rng.integers(1, m))
            while True:
                data = DataMatrix(rng.standard_normal((m, n)))
                basis = Projection(procrustes_project(rng.standard_normal((m, k))))
                stats = _basis_stats(data.values, basis.values, norm)[0]
                if np.sqrt(stats.sq).min() >= 1e-3:
                    break
            d = weights_from_stats(stats, norm, CLAMP)
            grad = _surrogate_slope(data.values, basis.values, d, 1.0)
            delta = _tangent_direction(rng, basis)
            up = objective_value(data, Projection(procrustes_project(basis.values + h * delta)), norm)
            down = objective_value(data, Projection(procrustes_project(basis.values - h * delta)), norm)
            fd = (up - down) / (2.0 * h)
            analytic = float((grad * delta).sum())
            rel = abs(fd - analytic) / max(abs(fd), abs(analytic))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 10.0
    _report("gradient check", ok, f"worst rel err {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-4
    assert elapsed < 10.0


def _descent_instance(seed: int):
    """Seeded random instance for the descent tests: sizes, noise and exponent."""
    rng = np.random.default_rng(10_000 + seed)
    m = int(rng.integers(5, 51))
    n = int(rng.integers(2 * m, 201))
    k = int(rng.integers(1, min(m - 1, 3) + 1))
    spec = SynthSpec(
        m=m,
        n=n,
        k_true=k,
        noise_sigma=float(rng.uniform(0.01, 0.3)),
        outlier_frac=float(rng.uniform(0.0, 0.1)),
        outlier_scale=float(rng.uniform(1.0, 5.0)),
        seed=seed,
    )
    p = float(rng.uniform(1.0, 2.0))
    data, _, _ = synth_subspace(spec)
    return data, spec.k_true, p


def test_pgd_columnwise_objective_never_increases():
    """Every recorded columnwise objective is non-increasing up to rounding."""
    violations = 0
    t0 = time.perf_counter()
    for seed in range(50):
        data, k, p = _descent_instance(seed)
        config = SolverConfig(variant="pgd", max_iter=300, tol=1e-10)
        result = fit(data, k, NormSpec.l2p(p), config)
        violations += result.monotone_violations
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30.0
    _report("columnwise descent", ok, f"{violations} violations in 50 runs, {elapsed:.2f}s")
    assert violations == 0
    assert elapsed < 30.0


SMALL_EXPONENTS = (0.05, 0.1, 0.3, 0.5, 0.8)


def _huberized_rises(variant: str, p: float) -> list[float]:
    """Each fit's largest rise of sum h over its iterates, relative to its
    start, on 20 planted 10x200 problems.  h is the l2,p loss Huberized at
    the clamp fit uses, c: t^p for t >= c and (p/2) c^(p-2) t^2 +
    (1 - p/2) c^p below, the loss whose MM weights fit takes."""
    norm = NormSpec.l2p(p)
    rises = []
    for seed in range(20):
        spec = SynthSpec(m=10, n=200, k_true=2, noise_sigma=0.1, outlier_frac=0.1,
                         outlier_scale=5.0, seed=seed)
        data = synth_subspace(spec)[0]
        x = data.values
        c = weight_clamp(np.linalg.norm(x), data.n_samples)
        scores = []

        def score(it, basis, objective):
            sq = _basis_stats(x, basis.values, norm)[0].sq
            h = np.where(sq >= c * c, np.sqrt(sq) ** p, (p / 2) * c ** (p - 2) * sq + (1 - p / 2) * c ** p)
            scores.append(float(h.sum()))

        fit(data, 2, norm, SolverConfig(variant=variant), callback=score)
        rises.append(float(np.diff(scores).max(initial=0.0)) / scores[0])
    return rises


def test_pgd_huberized_objective_never_increases_for_small_exponents():
    """Below p = 1 a residual column can fall under the clamp, where the
    weighted quadratic no longer lies above t^p, and the true loss can
    rise.  It always lies above h, so pgd's iterates never raise sum h."""
    t0 = time.perf_counter()
    worst = max(max(_huberized_rises("pgd", p)) for p in SMALL_EXPONENTS)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 30.0
    _report("huberized descent", ok, f"worst rise {worst:.2e} of J0 over 100 fits, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 30.0


def test_irls_huberized_objective_never_increases_for_small_exponents():
    """irls never raises sum h either.  Clamped weights reach c^(p-2), so
    eigh on the scatter resolves the other directions poorly and its step
    can raise the weighted quadratic (by up to 3.6e-2 of J0 here); the
    guard then takes pgd's Rayleigh-Ritz step instead."""
    worst = max(max(_huberized_rises("irls", p)) for p in SMALL_EXPONENTS)
    _report("irls huberized descent", worst <= 1e-12, f"worst rise {worst:.2e} of J0")
    assert worst <= 1e-12


# The Σh check's fits that run all 500 rounds: (variant, p, data seeds).
TINY_EXPONENT_STALLS = (("irls", 0.05, (0, 5, 11)), ("irls", 0.1, (8, 11)), ("pgd", 0.1, (0, 8)))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 3 (gtol): at p <= 0.1 rounding moves the true loss by more "
    "than tol a round after W has stopped moving",
)
def test_tiny_exponent_fits_converge():
    """Stated guarantee: every fit of the Σh check converges.  Seven do not.
    W moves by about 1e-16 a round, but one residual column sits 5e-7 c to
    4e-6 c from the span, where t^p is so steep that rounding moves the
    loss by 4e-8 to 5e-5 relative each round, above ``tol``."""
    stalled = []
    for variant, p, seeds in TINY_EXPONENT_STALLS:
        for seed in seeds:
            spec = SynthSpec(m=10, n=200, k_true=2, noise_sigma=0.1, outlier_frac=0.1,
                             outlier_scale=5.0, seed=seed)
            result = fit(synth_subspace(spec)[0], 2, NormSpec.l2p(p), SolverConfig(variant=variant))
            if not result.converged:
                stalled.append(f"{variant} p={p} seed {seed}")
    _report("tiny-exponent convergence", not stalled, f"{len(stalled)} of 7 fits ran all 500 rounds")
    assert stalled == []


@pytest.mark.xfail(
    strict=True,
    reason="the elementwise update only bounds a reweighted quadratic, not the "
    "loss itself; tiny upward ticks occur on about half of random instances",
)
def test_pgd_elementwise_objective_never_increases():
    """Stated guarantee for the elementwise loss; known not to hold."""
    violations = 0
    seeds_hit = 0
    t0 = time.perf_counter()
    for seed in range(50):
        data, k, _ = _descent_instance(seed)
        config = SolverConfig(variant="pgd", max_iter=300, tol=1e-10)
        result = fit(data, k, NormSpec.l1(), config)
        violations += result.monotone_violations
        seeds_hit += bool(result.monotone_violations)
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30.0
    _report(
        "elementwise descent",
        ok,
        f"{violations} violations on {seeds_hit} of 50 runs, {elapsed:.2f}s",
    )
    assert violations == 0
    assert elapsed < 30.0


def test_quadratic_loss_recovers_vanilla_pca():
    """With exponent 2 every solver lands on the vanilla PCA subspace."""
    worst = 0.0
    t0 = time.perf_counter()
    for seed in range(20):
        spec = SynthSpec(
            m=12, n=90, k_true=3, noise_sigma=0.3,
            outlier_frac=0.05, outlier_scale=2.0, seed=seed,
        )
        data, _, _ = synth_subspace(spec)
        reference = vanilla_pca(data, 3)
        for variant in ("pgd", "momentum", "irls"):
            config = SolverConfig(variant=variant)
            result = fit(data, 3, NormSpec.l2p(2.0), config)
            angle = float(principal_angles(result.projection, reference)[-1])
            worst = max(worst, angle)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    _report("quadratic reduction", ok, f"worst angle {worst:.2e} rad, {elapsed:.2f}s")
    assert worst < 1e-6
    assert elapsed < 10.0


def test_frobenius_objective_complement_identity():
    """||X - WW^T X||_F^2 equals ||X||_F^2 - ||X^T W||_F^2 for orthonormal W."""
    rng = np.random.default_rng(5)
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(100):
        m = int(rng.integers(2, 41))
        n = int(rng.integers(2, 81))
        k = int(rng.integers(1, m + 1))
        x = rng.standard_normal((m, n))
        basis = Projection(procrustes_project(rng.standard_normal((m, k))))
        total = float((x * x).sum())
        lhs = total - float(((x.T @ basis.values) ** 2).sum())
        rhs = objective_value(DataMatrix(x), basis, NormSpec.fro())
        # k = m makes both sides vanish, so scale by the data energy instead.
        worst = max(worst, abs(lhs - rhs) / max(total, 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 2.0
    _report("complement identity", ok, f"worst scaled err {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 2.0


def test_robust_fits_beat_vanilla_under_outliers():
    """Both robust losses recover the planted line more often than vanilla PCA."""
    pgd_wins = 0
    irls_wins = 0
    t0 = time.perf_counter()
    for seed in range(100):
        spec = SynthSpec(
            m=2, n=200, k_true=1, noise_sigma=0.05,
            outlier_frac=0.10, outlier_scale=5.0, seed=seed,
        )
        data, w_true, _ = synth_subspace(spec)
        vanilla_angle = float(principal_angles(vanilla_pca(data, 1), w_true)[-1])
        pgd = fit(data, 1, NormSpec.l1(), SolverConfig(variant="pgd"))
        irls = fit(data, 1, NormSpec.l2p(1.0), SolverConfig(variant="irls"))
        pgd_wins += float(principal_angles(pgd.projection, w_true)[-1]) < vanilla_angle
        irls_wins += float(principal_angles(irls.projection, w_true)[-1]) < vanilla_angle
    elapsed = time.perf_counter() - t0
    ok = pgd_wins >= 90 and irls_wins >= 90 and elapsed < 60.0
    _report(
        "outlier recovery",
        ok,
        f"elementwise pgd {pgd_wins}/100, columnwise irls {irls_wins}/100, {elapsed:.2f}s",
    )
    assert pgd_wins >= 90
    assert irls_wins >= 90
    assert elapsed < 60.0


def test_solvers_agree_on_final_objective():
    """Momentum and eigendecomposition land within 1e-4 of the pgd objective."""
    worst = 0.0
    pgd_iters = []
    irls_iters = []
    t0 = time.perf_counter()
    for seed in range(20):
        spec = SynthSpec(
            m=10, n=80, k_true=2, noise_sigma=0.1,
            outlier_frac=0.0, outlier_scale=1.0, seed=seed,
        )
        data, _, _ = synth_subspace(spec)
        for norm in (NormSpec.l1(), NormSpec.l2p(1.0)):
            finals = {}
            iters = {}
            for variant in ("pgd", "momentum", "irls"):
                config = SolverConfig(variant=variant, max_iter=2000, tol=1e-11)
                result = fit(data, 2, norm, config)
                finals[variant] = float(result.objective_trace[-1])
                iters[variant] = result.iterations
            base = max(abs(finals["pgd"]), 1e-30)
            for variant in ("momentum", "irls"):
                worst = max(worst, abs(finals[variant] - finals["pgd"]) / base)
            pgd_iters.append(iters["pgd"])
            irls_iters.append(iters["irls"])
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 60.0
    _report(
        "solver agreement",
        ok,
        f"worst rel gap {worst:.2e}, mean iterations pgd {np.mean(pgd_iters):.1f} "
        f"vs irls {np.mean(irls_iters):.1f}, {elapsed:.2f}s",
    )
    assert worst <= 1e-4
    assert elapsed < 60.0


def _strip_wall(obj):
    if isinstance(obj, dict):
        return {k: _strip_wall(v) for k, v in obj.items() if k != "wall_time_ms"}
    if isinstance(obj, list):
        return [_strip_wall(v) for v in obj]
    return obj


def _json_no_wall(path):
    return _strip_wall(json.loads(path.read_text()))


def _summary_no_wall(path):
    wall_col = SUMMARY_HEADER.split(",").index("wall_time_ms")
    lines = path.read_text().splitlines()
    masked = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[wall_col] = ""
        masked.append(",".join(cells))
    return masked


def test_manifest_rerun_reproduces_outputs(tmp_path):
    """Rerunning any command from its manifest reproduces every output.

    Wall-time fields are the only nondeterministic bytes, so they are
    masked before comparison; everything else must match exactly.
    """
    synth_dir = tmp_path / "synth"
    rc = main([
        "synth", "--m", "6", "--n", "40", "--k-true", "2", "--noise", "0.05",
        "--outlier-frac", "0.1", "--outlier-scale", "4.0", "--seed", "3",
        "--out", str(synth_dir),
    ])
    assert rc == 0
    synth_redo = tmp_path / "synth-redo"
    assert main(["rerun", "--manifest", str(synth_dir / "manifest.json"),
                 "--out", str(synth_redo)]) == 0
    synth_ok = all(
        (synth_dir / name).read_bytes() == (synth_redo / name).read_bytes()
        for name in ("data.csv", "w_true.csv", "outlier_mask.csv", "manifest.json")
    )

    fit_dir = tmp_path / "fit"
    rc = main([
        "fit", "--input", str(synth_dir / "data.csv"), "--k", "2",
        "--norm", "l2p", "--p", "1.0", "--solver", "momentum",
        "--seed", "0", "--out", str(fit_dir),
    ])
    assert rc == 0
    fit_redo = tmp_path / "fit-redo"
    assert main(["rerun", "--manifest", str(fit_dir / "manifest.json"),
                 "--out", str(fit_redo)]) == 0
    fit_ok = (
        (fit_dir / "w.csv").read_bytes() == (fit_redo / "w.csv").read_bytes()
        and (fit_dir / "manifest.json").read_bytes()
        == (fit_redo / "manifest.json").read_bytes()
        and _json_no_wall(fit_dir / "trace.json") == _json_no_wall(fit_redo / "trace.json")
    )

    bench_dir = tmp_path / "bench"
    rc = main([
        "bench", "--m", "5", "--n", "60", "--k-true", "2", "--noise", "0.05",
        "--outlier-frac", "0.1", "--outlier-scale", "3.0", "--repeats", "2",
        "--norm", "l1", "--norm", "l2p", "--p", "1.0", "--max-iter", "150",
        "--seed", "11", "--out", str(bench_dir),
    ])
    assert rc == 0
    bench_redo = tmp_path / "bench-redo"
    assert main(["rerun", "--manifest", str(bench_dir / "manifest.json"),
                 "--out", str(bench_redo)]) == 0
    bench_ok = (
        _json_no_wall(bench_dir / "reports.json") == _json_no_wall(bench_redo / "reports.json")
        and _json_no_wall(bench_dir / "traces.json")
        == _json_no_wall(bench_redo / "traces.json")
        and _summary_no_wall(bench_dir / "summary.csv")
        == _summary_no_wall(bench_redo / "summary.csv")
        and (bench_dir / "wins.json").read_bytes() == (bench_redo / "wins.json").read_bytes()
        and (bench_dir / "manifest.json").read_bytes()
        == (bench_redo / "manifest.json").read_bytes()
    )

    ok = synth_ok and fit_ok and bench_ok
    _report(
        "manifest rerun",
        ok,
        f"synth {'ok' if synth_ok else 'DIFFERS'}, fit {'ok' if fit_ok else 'DIFFERS'}, "
        f"bench {'ok' if bench_ok else 'DIFFERS'}",
    )
    assert synth_ok
    assert fit_ok
    assert bench_ok
