"""Orthonormal-subspace solvers for the reconstruction losses.

``fit`` is the only code that computes a basis.  For fro it returns the
closed-form minimizer, the vanilla start (``vanilla_pca`` returns it too),
and runs no round.  For l1 and l2p it runs one reweighted
majorize-minimize (MM) loop.  Each round forms the residual
X - W W^T X once, in place, and reduces it to ``objectives.column_stats``;
the objective, the weight diagonal d and the span-floor test follow from
those.  With M = X diag(d) X^T, the weighted quadratic built around the
current basis is tr(Y diag(d) Y^T) = tr(M) - tr(W^T M W), and the step
``SolverConfig.variant`` names raises tr(W^T M W):

* ``pgd``       polar((M + sigma I) V) at V = W, the nearest-orthonormal
                (Procrustes) factor of the shifted power step: the
                generalized power method (Journee, Nesterov, Richtarik &
                Sepulchre, 2010).  M V is taken as X (d * (X^T V)), 4mnk
                flops, so the step forms no m x m matrix and no spectrum.
                The shift is sigma = POWER_SHIFT_RTOL tr(M), where
                tr(M) = sum_i d_i ||x_i||^2 comes from X's column norms,
                taken once per fit.
* ``momentum``  the same step from V = W + (s-2)/(s+1) (W - W_old) in
                round s; no monotone guarantee.
* ``irls``      the top-k eigenvectors of M; increases are counted.

pgd's step never lowers tr(W^T M W): f(W) = tr(W^T (M + sigma I) W) is
convex, so f(W') >= f(W) + <grad f(W), W' - W>, and the polar factor W'
maximizes <(M + sigma I) W, W'> over orthonormal W'; on those, f differs
from tr(W^T M W) only by the constant sigma k.  Any sigma >= 0 keeps that
guarantee.  The shift bounds s_min / s_max of (M + sigma I) W below by
POWER_SHIFT_RTOL / (1 + POWER_SHIFT_RTOL), since s_min >= sigma and
s_max <= tr(M) + sigma, so the retraction's rank test cannot trip even
when the weights span the clamp.  momentum's V = (1 + b) W - b W_old, with
b = (s-2)/(s+1) in [0, 1) once W_old differs from W, has singular values
in [1, 1 + 2b] (for unit u, ||V u|| is within b of (1 + b) ||W u||), so for
its step the bound is POWER_SHIFT_RTOL / (3 (1 + POWER_SHIFT_RTOL)).

The weights clamp residual column norms at CLAMP_RTOL times the data's RMS
column norm ||X||_F / sqrt(n), so that a fit does not depend on the data's
units.  The clamp is floored at sqrt(float_info.min), so that the l1
clamp squared stays a normal double; below an RMS column norm of about
1e-144 it stops scaling.  ||X||_F is taken once, where ``fit`` also
rejects data whose squared norm overflows.

``fit`` counts the closed eigengaps ``top_r_eigvecs`` flags for its
vanilla start and irls steps, and touches no process-wide warnings state;
only ``vanilla_pca``, called on its own, warns.

Convergence is declared when the relative objective change drops to
``tol``, or, before any step, when the residual is rounding noise
(||R||_F <= 1e-12 ||X||_F): the basis then spans the data (k = m, rank at
most k, a zero residual), and every loss is at its global minimum.
"""
from __future__ import annotations

import math
import sys
import time
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, InvalidSpec, SpectrumGapWarning, require_int, require_real
from .linalg import DataMatrix, Projection, procrustes_project, top_r_eigvecs
from .linalg import spectral_norm  # noqa: F401  (benchmarks/tracing.py wraps this name)
from .objectives import (
    ColumnStats,
    NormSpec,
    _basis_stats,
    _objective_from_residual,  # noqa: F401  (benchmarks/tracing.py wraps this name)
    objective_from_stats,
    weighted_scatter,
    weights_from_stats,
)

MONOTONE_SLACK_RTOL = 1e-12
# ||X - W W^T X||_F at or below this fraction of ||X||_F is rounding noise.
SPAN_RTOL = 1e-12
# Residual column norms are clamped at this fraction of the RMS column norm.
CLAMP_RTOL = 1e-10
CLAMP_FLOOR = math.sqrt(sys.float_info.min)
# The power step's shift sigma as a fraction of tr(M): it keeps s_min / s_max
# of (M + sigma I) V at or above 1e-4 / (3 (1 + 1e-4)); a smaller one saves no rounds.
POWER_SHIFT_RTOL = 1e-4
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
    init: str = "vanilla"
    seed: int = 0

    def __post_init__(self) -> None:
        require_int("max_iter", self.max_iter)
        require_int("seed", self.seed)
        object.__setattr__(self, "tol", require_real("tol", self.tol))
        if self.variant not in VARIANTS:
            raise InvalidSpec(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.max_iter < 1:
            raise InvalidSpec(f"max_iter must be at least 1, got {self.max_iter}")
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise InvalidSpec(f"tol must be finite and nonnegative, got {self.tol}")
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


def _check_fit_args(data: DataMatrix, k: int, norm: NormSpec, config: SolverConfig) -> SolverConfig:
    """Check ``fit``'s arguments, k's range only here; return the config,
    whose start is the vanilla one, the closed-form minimizer, for fro."""
    if not data.centered:
        raise ValueError("data must be centered; run center_columns first")
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


def _initial_basis(data: DataMatrix, k: int, config: SolverConfig) -> tuple[np.ndarray, bool]:
    if config.init == "vanilla":
        return top_r_eigvecs(data.values @ data.values.T, k)
    rng = np.random.default_rng([config.seed, _RANDOM_START_STREAM])
    return procrustes_project(rng.standard_normal((data.n_features, k))), False


def weight_clamp(frobenius: float, n: int) -> float:
    """The clamp for n samples of ||X||_F = ``frobenius`` (module docstring)."""
    return max(CLAMP_RTOL * frobenius / math.sqrt(n), CLAMP_FLOOR)


def _weights_for(norm: NormSpec, stats: ColumnStats, clamp: float) -> np.ndarray:
    return weights_from_stats(stats, norm, clamp)


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
    l2p it runs the MM loop of the module docstring.  For l2p the weighted
    quadratic of each round lies above the sum of h, the loss Huberized at
    the clamp (see ``objectives``), so pgd never raises that sum; the true
    loss can rise once a column falls below the clamp.  The l1 loss has no
    such bound.  Rises of the true loss are counted in
    ``monotone_violations``, and closed eigengaps in ``spectrum_gap_events``.

    ``callback(it, basis, objective)`` sees the start (it = 0) and every
    iterate after it.
    """
    config = _check_fit_args(data, k, norm, config)
    start = time.perf_counter()
    x = data.values
    frobenius = _frobenius_norm(x)
    floor, clamp = SPAN_RTOL * frobenius, weight_clamp(frobenius, data.n_samples)
    w, gap_closed = _initial_basis(data, k, config)
    w_old = w  # momentum's previous iterate: round 1 does not extrapolate
    gap_events = int(gap_closed)
    # ||x_i||^2, for the power step's tr(M) = sum_i d_i ||x_i||^2
    col_sq = np.einsum("ij,ij->j", x, x) if config.variant != "irls" else None
    stats = _basis_stats(x, w, norm)
    trace = [objective_from_stats(stats, norm)]
    if callback is not None:
        basis = Projection(w)
        callback(0, basis, trace[0])
    converged = norm.kind == "fro"  # the vanilla start is its minimizer
    iterations = 0
    while not converged and iterations < config.max_iter:
        if math.sqrt(stats.sq.sum()) <= floor:
            converged = True
            break
        d = _weights_for(norm, stats, clamp)
        if config.variant == "irls":
            w, gap_closed = top_r_eigvecs(weighted_scatter(data, d), k)
            gap_events += gap_closed
        else:
            v = w
            if config.variant == "momentum":
                s = iterations + 1
                v = w + ((s - 2.0) / (s + 1.0)) * (w - w_old)
            shift = POWER_SHIFT_RTOL * float(d @ col_sq)
            w, w_old = procrustes_project(x @ ((v.T @ x) * d).T + shift * v), w
        stats = _basis_stats(x, w, norm)
        trace.append(objective_from_stats(stats, norm))
        iterations += 1
        if callback is not None:
            basis = Projection(w)
            callback(iterations, basis, trace[-1])
        converged = check_convergence(trace, config.tol)
    if callback is None:
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


def vanilla_pca(data: DataMatrix, k: int) -> Projection:
    """``fit`` with the fro loss: the top-k eigenvectors of X X^T.  Emits
    SpectrumGapWarning when the eigengap at k is closed."""
    result = fit(data, k, NormSpec.fro())
    if result.spectrum_gap_events:
        warnings.warn(f"the eigengap of X X^T at cut {k} is closed; the basis is not well determined",
                      SpectrumGapWarning, stacklevel=2)
    return result.projection
