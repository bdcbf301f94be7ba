"""Orthonormal-subspace solvers for the reconstruction losses.

``fit`` is the only code that computes a basis.  For fro it returns the
closed-form minimizer, the vanilla start, and runs no round.  For l1 and
l2p it runs one reweighted majorize-minimize (MM) loop.  Each round
reduces the residual Y = X - W W^T X to its column sums with
``objectives._basis_stats``; the objective, the weight diagonal d and the
span-floor test follow from them.  With M = X diag(d) X^T the weighted
quadratic built around W is tr(Y diag(d) Y^T) = tr(M) - tr(W^T M W), and
the step ``SolverConfig.variant`` names raises tr(W^T M W):

* ``pgd``       the Rayleigh-Ritz step over span[W, M W] (``_ritz_step``).
* ``momentum``  the shifted power step polar((M + sigma I) V) at
                V = W + b (W - W_old), b = (s-2)/(s+1) in round s: the
                generalized power method (Journee, Nesterov, Richtarik &
                Sepulchre, JMLR 2010) from an extrapolated point, with no
                monotone guarantee.  V^T X is linear in V, so it is
                combined as T + b (T - T_old) from the stats passes' T.
* ``irls``      the top-k eigenvectors of M, guarded (below).

M V is always X (d * V^T X)^T, so pgd and momentum form no m x m matrix;
their stats pass at W also takes the next step's d and, on several l1
blocks, M V.

irls's eigenvectors maximize tr(W^T M W) in exact arithmetic only: once
weights reach c^(p-2) (c the clamp), a few huge ones dominate M and
``eigh`` resolves the others to about eps ||M||.  So the guard compares
sum_i d_i ||y_i||^2 at the eigenvectors, from the stats pass the next
round needs anyway, with the same sum at W, and takes pgd's step from W
when they raised it: a safeguarded MM step (Hunter & Lange, The American
Statistician 2004).  tr(W^T M W) from T would cancel at such weights.

Column signs are a choice about output: the loss and the weights depend on
span(W) alone, and an irls round reads its basis only through T = W^T X
and W T, whose bits no column's sign changes.  So irls rounds keep LAPACK's
signs, and ``fit`` applies ``linalg._fix_column_signs`` to the vanilla
start, which pgd's and momentum's steps read, and to each basis it hands out.
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
from .linalg import DataMatrix, Projection, _fix_column_signs, procrustes_project, top_r_eigvecs
from .linalg import spectral_norm  # noqa: F401  (benchmarks/tracing.py wraps this name)
from .objectives import (
    ColumnStats,
    NormSpec,
    _basis_stats,
    _block_width,
    _objective_from_residual,  # noqa: F401  (benchmarks/tracing.py wraps this name)
    objective_from_stats,
    power_product,
    weighted_scatter,
    weights_from_stats,
)

MONOTONE_SLACK_RTOL = 1e-12
# ||X - W W^T X||_F at or below this fraction of ||X||_F is rounding noise:
# the basis spans the data, so every loss is at its global minimum.
SPAN_RTOL = 1e-12
# Residual column norms are clamped at this fraction of the RMS column norm.
CLAMP_RTOL = 1e-10
CLAMP_FLOOR = math.sqrt(sys.float_info.min)
# momentum's shift sigma as a fraction of tr(M).  The shift is there for the
# retraction: once weights reach c^(p-2) the singular values of M V alone can
# span past ``procrustes_project``'s rank test.  V = (1 + b) W - b W_old with
# b in [0, 1) has singular values in [1, 1 + 2b] (for unit u, ||V u|| is
# within b of 1 + b), so s_min / s_max of (M + sigma I) V stays at or above
# POWER_SHIFT_RTOL / (3 (1 + POWER_SHIFT_RTOL)), whatever the weights.
POWER_SHIFT_RTOL = 1e-4
# pgd's step drops the directions of [W, M W / tr(M)] whose singular value is
# at or below this fraction of the largest: near a fixed point M W lies in
# span(W), and what is left of its new part is rounding.
DROP_RTOL = 1e-10
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
    guarded_steps: int = 0

    def __post_init__(self) -> None:
        trace = np.array(self.objective_trace, dtype=float, copy=True)
        trace.setflags(write=False)
        object.__setattr__(self, "objective_trace", trace)


def check_convergence(trace, tol: float) -> bool:
    """True when |J_last - J_prev| <= tol * max(|J_prev|, 1e-30); the floor
    only keeps an exactly-zero objective from dividing by zero."""
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


def _initial_basis(data: DataMatrix, k: int, config: SolverConfig) -> tuple[np.ndarray, bool]:
    if config.init == "vanilla":
        w, gap_closed = top_r_eigvecs(data.values @ data.values.T, k)
        return _fix_column_signs(w), gap_closed
    rng = np.random.default_rng([config.seed, _RANDOM_START_STREAM])
    return procrustes_project(rng.standard_normal((data.n_features, k))), False


def weight_clamp(frobenius: float, n: int) -> float:
    """The clamp for n samples of ||X||_F = ``frobenius``: CLAMP_RTOL times
    the RMS column norm, so that a fit does not depend on the data's units.
    Its floor keeps the l1 clamp squared a normal double and the l2p weight
    clamp^(p-2) finite; below an RMS column norm of about 1.5e-144 it holds."""
    return max(CLAMP_RTOL * frobenius / math.sqrt(n), CLAMP_FLOOR)


def _weights_for(norm: NormSpec, stats: ColumnStats, clamp: float) -> np.ndarray:
    return weights_from_stats(stats, norm, clamp)


def _ritz_step(x: np.ndarray, w: np.ndarray, mw: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """pgd's step: the orthonormal W' in span[W, M W] maximizing
    tr(W'^T M W'), and T' = W'^T X as the step forms it; ``mw`` is
    M W / tr(M), of norm at most 1, and d is M's weight diagonal.

    The subspace step of LOBPCG (Knyazev, SIAM J. Sci. Comput. 2001)
    without its third block: Q spans [W, M W / tr(M)] less the directions
    at or below DROP_RTOL (Duersch, Shao, Yang & Gu, SIAM J. Sci. Comput.
    2018), and W' = Q U for the top-k eigenvectors U of G = S diag(d) S^T,
    S = Q^T X.  W lies in the subspace, so tr(W^T M W) never falls, up to
    the dropped rounding.  T' = U^T S spares the next stats pass a product.
    """
    u, sv, _ = np.linalg.svd(np.concatenate((w, mw), axis=1), full_matrices=False)
    q = u[:, : np.count_nonzero(sv > DROP_RTOL * sv[0])]
    s = q.T @ x
    # G = S diag(d) S^T, summed over column blocks: S diag(d) is never formed whole
    width = _block_width(*x.shape)
    g = (s[:, :width] * d[:width]) @ s[:, :width].T
    for i in range(width, x.shape[1], width):
        g += (s[:, i:i + width] * d[i:i + width]) @ s[:, i:i + width].T
    top = np.linalg.eigh(g)[1][:, -w.shape[1]:]
    return q @ top, top.T @ s


def _extrapolation(s: int) -> float:
    """momentum's coefficient b in round s."""
    return (s - 2.0) / (s + 1.0)


def fit(
    data: DataMatrix,
    k: int,
    norm: NormSpec,
    config: SolverConfig = SolverConfig(),
    callback: IterationCallback | None = None,
) -> FitResult:
    """Fit a k-column orthonormal basis minimizing the chosen loss.

    For fro the vanilla start is the minimizer, returned with no round; for
    l1 and l2p the MM loop of the module docstring runs until
    ``check_convergence`` or the span floor stops it.  ``callback(it,
    basis, objective)`` sees the start (it = 0) and every iterate after it.
    Closed eigengaps are counted, not warned about, so no process-wide
    warnings state is touched.
    """
    config = _check_fit_args(data, k, norm, config)
    start = time.perf_counter()
    x = data.values
    # ||x_i||^2: ||X||_F, the residual norms' downdate and the steps'
    # tr(M) = sum_i d_i ||x_i||^2 all come from it
    col_sq = np.einsum("ij,ij->j", x, x)
    with np.errstate(over="ignore"):
        frobenius_sq = float(col_sq.sum())
    if not math.isfinite(frobenius_sq):
        # the span test and the scatter of such data are not finite
        raise ValueError("data too large: its squared Frobenius norm overflows; rescale it")
    frobenius = math.sqrt(frobenius_sq)
    floor, clamp = SPAN_RTOL * frobenius, weight_clamp(frobenius, data.n_samples)
    w, gap_closed = _initial_basis(data, k, config)
    gap_events = int(gap_closed)
    guarded_steps = 0
    power_clamp = None if config.variant == "irls" or norm.kind == "fro" else clamp
    momentum = config.variant == "momentum"
    t = vt = None
    if momentum:  # W_old = W makes round 1's V = W, and its V^T X a copy of T
        w_old, b, t = w, _extrapolation(1), w.T @ x
        vt = t.copy()
    stats, power = _basis_stats(x, w, norm, col_sq, t=t, clamp=power_clamp, vt=vt)
    trace = [objective_from_stats(stats, norm)]
    if callback is not None:
        basis = Projection(_fix_column_signs(w))
        callback(0, basis, trace[0])
    converged = norm.kind == "fro"  # the vanilla start is its minimizer
    while not converged and len(trace) <= config.max_iter:  # the start, then a round each
        if math.sqrt(stats.sq.sum()) <= floor:
            converged = True
            break
        if config.variant == "irls":
            d = _weights_for(norm, stats, clamp)
            w_eig, gap_closed = top_r_eigvecs(weighted_scatter(data, d), k)
            gap_events += gap_closed
            stats_eig = _basis_stats(x, w_eig, norm, col_sq)[0]
            if d @ stats_eig.sq > d @ stats.sq:  # the guard: pgd's step from W instead
                guarded_steps += 1
                mv = power_product(x, w.T @ x, d)
            else:
                w, stats, mv = w_eig, stats_eig, None
        else:
            # from the pass at W; momentum's V^T X is T + b (T - T_old)
            d, vt, mv = power
            if mv is None:  # l2p, or l1 on one block: taken only now a step follows
                mv = power_product(x, vt, d)
            power = vt = None  # dropped before the next stats pass
        if momentum:
            shift = POWER_SHIFT_RTOL * float(d @ col_sq)
            w, w_old = procrustes_project(mv + shift * (w + b * (w - w_old))), w
            b = _extrapolation(len(trace) + 1)  # the next round's
            # the next V^T X = T + b (T - T_old), combined in T_old's buffer
            vt, t = t, w.T @ x
            np.subtract(t, vt, out=vt)
            vt *= b
            vt += t
            stats, power = _basis_stats(x, w, norm, col_sq, t=t, clamp=power_clamp, vt=vt)
        elif mv is not None:  # pgd, or irls's guard: the Rayleigh-Ritz step from W
            mv /= float(d @ col_sq)  # M W / tr(M)
            w, vt = _ritz_step(x, w, mv, d)
            # T' stands in for W'^T X, and pgd's pass scales it by d as its next V^T X
            stats, power = _basis_stats(x, w, norm, col_sq, t=vt, clamp=power_clamp)
            vt = None  # irls keeps no T into its next round
        trace.append(objective_from_stats(stats, norm))
        if callback is not None:
            basis = Projection(_fix_column_signs(w))
            callback(len(trace) - 1, basis, trace[-1])
        converged = check_convergence(trace, config.tol)
    if callback is None:
        basis = Projection(_fix_column_signs(w))
    return FitResult(
        projection=basis,
        objective_trace=trace,
        iterations=len(trace) - 1,
        converged=converged,
        wall_time_ms=(time.perf_counter() - start) * 1000.0,
        monotone_violations=count_monotone_violations(trace),
        spectrum_gap_events=gap_events,
        guarded_steps=guarded_steps,
    )


def vanilla_pca(data: DataMatrix, k: int) -> Projection:
    """``fit`` with the fro loss: the top-k eigenvectors of X X^T.  Emits
    SpectrumGapWarning when the eigengap at k is closed."""
    result = fit(data, k, NormSpec.fro())
    if result.spectrum_gap_events:
        warnings.warn(f"the eigengap of X X^T at cut {k} is closed; the basis is not well determined",
                      SpectrumGapWarning, stacklevel=2)
    return result.projection
