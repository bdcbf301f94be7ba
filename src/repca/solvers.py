"""Orthonormal-subspace solvers for the reconstruction losses.

``fit`` takes all three losses.  For fro it returns the closed-form
minimizer, the vanilla start, and runs no round.  For l1 and l2p it runs
one reweighted majorize-minimize (MM) loop.  Each round rebuilds the
per-sample weight diagonal d from the current residual, forms the
reweighted scatter M = X diag(d) X^T, and then takes one step that
decreases the weighted quadratic tr(Y diag(d) Y^T) built around the
current basis.  The m-by-n residual is formed once per round, in place,
and reduced to the per-column sums of ``objectives.column_stats``; the
objective, the weights and the span-floor norm below all follow from
those.  Values are checked where they enter and leave: ``fit`` takes a
checked ``DataMatrix``, rejects data whose squared Frobenius norm
overflows, and runs its rounds on plain arrays, building a
``Projection`` for the result (and, per round, only for a callback).
``SolverConfig.variant`` picks only that step:

* ``pgd``       the gradient step W + M W / ||M||_2, retracted with the
                nearest-orthonormal (Procrustes) projection.  The step
                equals the descent-guaranteed 1/L for the loss's gradient
                convention, so the columnwise trace is monotone.
* ``momentum``  the same step, along the scatter built at W, taken from
                the extrapolated point V = W + (s-2)/(s+1) (W - W_old).
                Faster, but without the monotone guarantee.
* ``irls``      the top-k eigenvectors of M.  Occasional objective
                increases are kept and counted rather than damped, and
                near-degenerate eigengaps are counted, not raised.

Convergence is declared when the relative objective change drops to
``tol``.  A residual at rounding level (||R||_F <= 1e-12 ||X||_F) also
counts as converged before any step is taken: the basis then spans the
data, every loss is at its global minimum, and the relative test would
only compare rounding noise with rounding noise.  This covers k = m, data
of rank at most k, and the exactly zero residual, where the scatter
matrix vanishes and no step is defined.
"""
from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, InvalidSpec, SpectrumGapWarning, require_int
from .linalg import DataMatrix, Projection, procrustes_project, top_r_eigvecs, spectral_norm
from .objectives import (
    ColumnStats,
    NormSpec,
    _basis_stats,
    _check_eps,
    _objective_from_residual,  # noqa: F401  (benchmarks/tracing.py wraps this name)
    objective_from_stats,
    weighted_scatter,
    weights_from_stats,
)

MONOTONE_SLACK_RTOL = 1e-12
# ||X - W W^T X||_F at or below this fraction of ||X||_F is rounding noise.
SPAN_RTOL = 1e-12
# The random start draws from its own stream of the seed.  datagen draws the
# planted basis first from default_rng(seed), so a start drawn from that
# same stream would be the planted basis whenever the seeds agree.
_RANDOM_START_STREAM = 1

VARIANTS = ("pgd", "momentum", "irls")
INITS = ("vanilla", "random")

IterationCallback = Callable[[int, Projection, float], None]


@dataclass(frozen=True)
class SolverConfig:
    variant: str = "pgd"
    max_iter: int = 500
    tol: float = 1e-8
    eps: float = 1e-10
    init: str = "vanilla"
    seed: int = 0

    def __post_init__(self) -> None:
        require_int("max_iter", self.max_iter)
        require_int("seed", self.seed)
        if self.variant not in VARIANTS:
            raise InvalidSpec(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.max_iter < 1:
            raise InvalidSpec(f"max_iter must be at least 1, got {self.max_iter}")
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise InvalidSpec(f"tol must be finite and nonnegative, got {self.tol}")
        _check_eps(self.eps)
        if self.init not in INITS:
            raise InvalidSpec(f"init must be one of {INITS}, got {self.init!r}")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class FitResult:
    projection: Projection
    objective_trace: np.ndarray
    iterations: int
    converged: bool
    wall_time_ms: float
    monotone_violations: int
    spectrum_gap_events: int = 0

    def __post_init__(self) -> None:
        trace = np.array(self.objective_trace, dtype=float, copy=True)
        trace.setflags(write=False)
        object.__setattr__(self, "objective_trace", trace)


def check_convergence(trace, tol: float) -> bool:
    """True when the last objective change is at most tol, relatively.

    The comparison is |J_last - J_prev| <= tol * max(|J_prev|, 1e-30); the
    floor only keeps an exactly-zero objective from dividing by zero.
    """
    if len(trace) == 0:
        raise ValueError("trace must be nonempty")
    if len(trace) < 2:
        return False
    prev, last = float(trace[-2]), float(trace[-1])
    return abs(last - prev) <= tol * max(abs(prev), 1e-30)


def count_monotone_violations(trace) -> int:
    """Objective increases beyond rounding slack 1e-12 * |J_0|."""
    arr = np.asarray(trace, dtype=float)
    if arr.size < 2:
        return 0
    slack = MONOTONE_SLACK_RTOL * abs(float(arr[0]))
    return int(np.sum(arr[1:] > arr[:-1] + slack))


def vanilla_pca(data: DataMatrix, k: int) -> Projection:
    """Top-k eigenvectors of X X^T: the squared-Frobenius minimizer."""
    _require_centered(data)
    m, n = data.shape
    if not 1 <= k <= min(m, n):
        raise DimensionMismatch(f"k must be in [1, min(m, n)] = [1, {min(m, n)}], got {k}")
    return Projection(top_r_eigvecs(data.values @ data.values.T, k))


def _require_centered(data: DataMatrix) -> None:
    if not data.centered:
        raise ValueError("data must be centered; run center_columns first")


def _check_fit_args(data: DataMatrix, k: int, norm: NormSpec, config: SolverConfig) -> SolverConfig:
    """Check ``fit``'s arguments; return its config, whose start is the
    vanilla one, the closed-form minimizer, for the fro loss."""
    _require_centered(data)
    require_int("k", k)
    if norm.kind == "fro":
        config = replace(config, init="vanilla")
    m, n = data.shape
    if not 1 <= k <= m:
        raise DimensionMismatch(f"k must be in [1, {m}], got {k}")
    if config.init == "vanilla" and k > min(m, n):
        raise DimensionMismatch(
            f"the vanilla start needs k <= min(m, n) = {min(m, n)}, got {k}"
        )
    return config


def _frobenius_norm(x: np.ndarray) -> float:
    """||X||_F, computed as np.linalg.norm does.  Raises ValueError when
    ||X||_F^2 overflows: the span test and the scatter of such data are not
    finite."""
    flat = x.ravel()
    with np.errstate(over="ignore"):
        sq = float(flat.dot(flat))
    if not math.isfinite(sq):
        raise ValueError("data too large: its squared Frobenius norm overflows; rescale it")
    return math.sqrt(sq)


def _counting_gaps(eigensolve, *args):
    """``eigensolve(*args)`` and the number of SpectrumGapWarnings it raised,
    counted instead of shown.  Other warnings meet the caller's filters: an
    error filter still raises them."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", SpectrumGapWarning)
        basis = eigensolve(*args)
    return basis, sum(issubclass(c.category, SpectrumGapWarning) for c in caught)


def _initial_basis(data: DataMatrix, k: int, config: SolverConfig) -> tuple[Projection, int]:
    if config.init == "vanilla":
        return _counting_gaps(vanilla_pca, data, k)
    rng = np.random.default_rng([config.seed, _RANDOM_START_STREAM])
    return Projection(procrustes_project(rng.standard_normal((data.n_features, k)))), 0


def _weights_for(norm: NormSpec, stats: ColumnStats, eps: float) -> np.ndarray:
    return weights_from_stats(stats, norm, eps)


# Each step factory returns step(w, scatter) -> (next w, spectrum gap events)
# on plain arrays, holding whatever state its variant carries from one round
# to the next.

def _pgd_step(k: int):
    def step(w, scatter):
        return procrustes_project(w + (scatter @ w) / spectral_norm(scatter)), 0
    return step


def _momentum_step(k: int):
    w_old, s = None, 1

    def step(w, scatter):
        nonlocal w_old, s
        if w_old is None:  # W_old starts equal to W: a plain gradient step
            w_old = w
        top = spectral_norm(scatter)
        v = w + ((s - 2.0) / (s + 1.0)) * (w - w_old)
        w_old, s = w, s + 1
        return procrustes_project(v + (scatter @ v) / top), 0
    return step


def _irls_step(k: int):
    def step(w, scatter):
        return _counting_gaps(top_r_eigvecs, scatter, k)
    return step


_STEPS = {"pgd": _pgd_step, "momentum": _momentum_step, "irls": _irls_step}


def fit(
    data: DataMatrix,
    k: int,
    norm: NormSpec,
    config: SolverConfig = SolverConfig(),
    callback: IterationCallback | None = None,
) -> FitResult:
    """Fit a k-column orthonormal basis minimizing the chosen loss.

    For fro the vanilla start is the minimizer: the result holds it, with
    ``iterations=0``, ``converged=True`` and a one-entry trace.  For l1 and
    l2p each round rebuilds the weight diagonal at the current basis, forms
    the reweighted scatter, and moves the basis by the step
    ``config.variant`` names (see the module docstring).  Each pgd step
    decreases the weighted quadratic built around the current iterate.  For
    the columnwise loss that quadratic lies above the loss itself, so the
    recorded trace is non-increasing up to rounding; the elementwise loss
    enjoys no such bound and its trace can tick upward even though the
    overall trend still falls.  momentum and irls increases are counted in
    ``monotone_violations``, not suppressed.  A closed eigengap in the
    vanilla start or an irls step is counted in ``spectrum_gap_events``.

    ``callback(it, basis, objective)`` sees the start (it = 0) and every
    iterate after it.
    """
    config = _check_fit_args(data, k, norm, config)
    start = time.perf_counter()
    x = data.values
    floor = SPAN_RTOL * _frobenius_norm(x)
    step = _STEPS[config.variant](k)
    basis, gap_events = _initial_basis(data, k, config)
    w = basis.values
    stats = _basis_stats(x, w, norm)
    trace = [objective_from_stats(stats, norm)]
    if callback is not None:
        callback(0, basis, trace[0])
    converged = norm.kind == "fro"  # the vanilla start is its minimizer
    iterations = 0
    while not converged and iterations < config.max_iter:
        if math.sqrt(stats.sq.sum()) <= floor:
            converged = True
            break
        d = _weights_for(norm, stats, config.eps)
        w, gaps = step(w, weighted_scatter(data, d))
        gap_events += gaps
        stats = _basis_stats(x, w, norm)
        trace.append(objective_from_stats(stats, norm))
        iterations += 1
        if callback is not None:
            basis = Projection(w)
            callback(iterations, basis, trace[-1])
        converged = check_convergence(trace, config.tol)
    if iterations and callback is None:
        basis = Projection(w)
    return FitResult(
        projection=basis,
        objective_trace=np.asarray(trace, dtype=float),
        iterations=iterations,
        converged=converged,
        wall_time_ms=(time.perf_counter() - start) * 1000.0,
        monotone_violations=count_monotone_violations(trace),
        spectrum_gap_events=gap_events,
    )
