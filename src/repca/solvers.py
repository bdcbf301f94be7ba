"""Orthonormal-subspace solvers for the reconstruction losses.

``fit`` is the only code that computes a basis.  For fro it returns the
closed-form minimizer, the vanilla start (``vanilla_pca`` returns it too),
and runs no round.  For l1 and l2p it runs one reweighted
majorize-minimize (MM) loop.  Each round reduces the residual
X - W W^T X to ``objectives.column_stats`` with ``_basis_stats``, which
takes T = W^T X once.  It downdates ||x_i||^2, taken once per fit, by
the column sums of T^2, recomputing from the residual only the columns
that cancel; for l1 it also forms the residual a block of columns at a
time, in a buffer of its own, for |Y| (and for the squares too when one
block holds every column).  The objective, the weight diagonal d and
the span-floor test follow from those sums.  For pgd and momentum the
same pass takes the next round's d and, on several l1 blocks, its
product M V block by block (below); the round that ends the fit leaves
them unused.  With M = X diag(d) X^T, the weighted quadratic built
around the current basis is tr(Y diag(d) Y^T) = tr(M) - tr(W^T M W),
and the step ``SolverConfig.variant`` names raises tr(W^T M W).  M V is
always taken as X (d * V^T X)^T, one 2mnk-flop product, so neither pgd
nor momentum forms an m x m matrix.  On l1 data whose residual spans
several column blocks, the stats pass adds each block's share while the
block is in cache; otherwise it is one product after the pass.

* ``pgd``       the Rayleigh-Ritz step over span[W, M W]: the W' that
                maximizes tr(W'^T M W') among orthonormal m x k matrices
                in that subspace, the subspace step of LOBPCG (Knyazev,
                SIAM J. Sci. Comput. 2001) without its third block.  Q is
                an orthonormal basis of [W, M W / tr(M)] from its thin
                SVD, less the directions whose singular value is at or
                below DROP_RTOL of the largest, as robust LOBPCG codes
                drop them (Duersch, Shao, Yang & Gu, SIAM J. Sci. Comput.
                2018).  The step takes S = Q^T X, one product with X of
                at most 2k rows, sums G = S diag(d) S^T = Q^T M Q over
                column blocks, and takes the top-k eigenvectors U of G:
                W' = Q U, and T' = U^T S, which the next stats pass takes
                for W'^T X.  A round thus reads X twice, for S and for
                the stats pass with its M W.  tr(M) = sum_i d_i ||x_i||^2
                comes from the column norms of X; M W / tr(M) has norm at
                most 1, and the scale overflows no square.
* ``momentum``  the shifted power step polar((M + sigma I) V) at
                V = W + b (W - W_old), b = (s-2)/(s+1) in round s: the
                nearest-orthonormal (Procrustes) factor, as in the
                generalized power method (Journee, Nesterov, Richtarik &
                Sepulchre, 2010), from an extrapolated point; no monotone
                guarantee.  V^T X is linear in V, so it is taken as
                T + b (T - T_old) from the T of this round's stats pass
                and of the last round's, with no product with X.  Round 1
                has W_old = W and T_old = T.  The shift is
                sigma = POWER_SHIFT_RTOL tr(M).
* ``irls``      the top-k eigenvectors of M, guarded: when they raise
                sum_i d_i ||y_i||^2, the shifted power step from W (V = W)
                is taken instead, and ``FitResult.guarded_steps`` counts it.

pgd's step never lowers tr(W^T M W): W lies in span[W, M W], so W' is
chosen from a set that holds W.  The dropped directions carry at most
DROP_RTOL of [W, M W / tr(M)], a rounding-sized loss.  Near a fixed
point M W ~ W (W^T M W), the new part of M W vanishes and is dropped, and
the step keeps span(W).

The shifted power step at V = W never lowers tr(W^T M W) either:
f(W) = tr(W^T (M + sigma I) W) is convex, so
f(W') >= f(W) + <grad f(W), W' - W>, and the polar factor W' maximizes
<(M + sigma I) W, W'> over orthonormal W'; on those, f differs from
tr(W^T M W) only by the constant sigma k.  Any sigma >= 0 keeps that
guarantee.  The shift bounds s_min / s_max of (M + sigma I) W below by
POWER_SHIFT_RTOL / (1 + POWER_SHIFT_RTOL), since s_min >= sigma and
s_max <= tr(M) + sigma, so the retraction's rank test cannot trip even
when the weights span the clamp.  momentum's V = (1 + b) W - b W_old, with
b = (s-2)/(s+1) in [0, 1) once W_old differs from W, has singular values
in [1, 1 + 2b] (for unit u, ||V u|| is within b of (1 + b) ||W u||), so for
its step the bound is POWER_SHIFT_RTOL / (3 (1 + POWER_SHIFT_RTOL)).

irls's eigenvectors maximize tr(W^T M W) in exact arithmetic only.  When
the weights span c^(p-2) (c the clamp), a few huge weights dominate M,
``eigh`` resolves the other directions to about eps ||M|| alone, and the
step can raise the weighted quadratic.  The guard compares
sum_i d_i ||y_i||^2 at the candidate, from the ``_basis_stats`` call the
next round needs anyway, with the same sum at W, and takes the power step
only when the candidate raised it: a safeguarded MM step (Hunter & Lange,
The American Statistician, 2004), which makes irls as monotone as pgd.
Only that step takes W^T X again.  The comparison is on the residual
side; tr(W^T M W) from T would cancel at such weights.

The weights clamp residual column norms at CLAMP_RTOL times the data's RMS
column norm ||X||_F / sqrt(n), so that a fit does not depend on the data's
units.  The clamp is floored at sqrt(float_info.min), so that the l1
clamp squared stays a normal double; below an RMS column norm of about
1e-144 it stops scaling.  ||X||_F is taken once, from the column norms
||x_i||^2, where ``fit`` also rejects data whose squared norm overflows.

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
    _block_width,
    _objective_from_residual,  # noqa: F401  (benchmarks/tracing.py wraps this name)
    objective_from_stats,
    power_product,
    weighted_scatter,
    weights_from_stats,
)

MONOTONE_SLACK_RTOL = 1e-12
# ||X - W W^T X||_F at or below this fraction of ||X||_F is rounding noise.
SPAN_RTOL = 1e-12
# Residual column norms are clamped at this fraction of the RMS column norm.
CLAMP_RTOL = 1e-10
CLAMP_FLOOR = math.sqrt(sys.float_info.min)
# The shifted power step's sigma as a fraction of tr(M), for momentum and irls's
# guard: it keeps s_min / s_max of (M + sigma I) V at or above 1e-4 / (3 (1 + 1e-4));
# a smaller one saved pgd no rounds when pgd took this step.
POWER_SHIFT_RTOL = 1e-4
# pgd's step drops the directions of [W, M W / tr(M)] whose singular value is
# at or below this fraction of the largest: near a fixed point M W lies in
# span(W), and what is left of its new part is rounding.  Kept, that rounding
# moved reordered or rescaled small_grid fits by up to 8e-7 rad; at 1e-7 pgd
# stopped short of irls's objective on the 60 x 8 l1 plateau.
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


def _ritz_step(x: np.ndarray, w: np.ndarray, mw: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """pgd's step: the W' maximizing tr(W'^T M W') over span[W, M W], and
    T' = W'^T X as the step forms it (module docstring).  ``mw`` is
    M W / tr(M); d is M's weight diagonal."""
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

    For fro the vanilla start is the minimizer: the result holds it, with
    ``iterations=0``, ``converged=True`` and a one-entry trace.  For l1 and
    l2p it runs the MM loop of the module docstring.  For l2p the weighted
    quadratic of each round lies above the sum of h, the loss Huberized at
    the clamp (see ``objectives``), so pgd never raises that sum; the true
    loss can rise once a column falls below the clamp.  The l1 loss has no
    such bound.  irls's guard makes it monotone on the same sum.  Rises of
    the true loss are counted in ``monotone_violations``, closed eigengaps
    in ``spectrum_gap_events``, and irls rounds that took the shifted power
    step in ``guarded_steps``.

    ``callback(it, basis, objective)`` sees the start (it = 0) and every
    iterate after it.
    """
    config = _check_fit_args(data, k, norm, config)
    start = time.perf_counter()
    x = data.values
    # ||x_i||^2: ||X||_F, the residual norms' downdate and the power step's
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
    # pgd's and momentum's stats passes also take the next round's d and M V
    power_clamp = None if config.variant == "irls" or norm.kind == "fro" else clamp
    momentum = config.variant == "momentum"
    # momentum's W_old = W makes round 1's V = W, and its pass takes T_old = T
    w_old, b = w, _extrapolation(1) if momentum else None
    stats, t, power = _basis_stats(x, w, norm, col_sq, clamp=power_clamp, b=b)
    trace = [objective_from_stats(stats, norm)]
    if callback is not None:
        basis = Projection(w)
        callback(0, basis, trace[0])
    converged = norm.kind == "fro"  # the vanilla start is its minimizer
    while not converged and len(trace) <= config.max_iter:  # the start, then a round each
        if math.sqrt(stats.sq.sum()) <= floor:
            converged = True
            break
        v = w  # the shifted power step's point, None when no such step is taken
        if config.variant == "irls":
            t = None  # not needed; freed before the scatter's m x n Z
            d = _weights_for(norm, stats, clamp)
            w_eig, gap_closed = top_r_eigvecs(weighted_scatter(data, d), k)
            gap_events += gap_closed
            stats_eig = _basis_stats(x, w_eig, norm, col_sq)[0]
            if d @ stats_eig.sq > d @ stats.sq:  # the guard: power step from W
                guarded_steps += 1
                mv = power_product(x, w.T @ x, d)
            else:
                v, w, stats = None, w_eig, stats_eig
        else:
            # from the pass at W; momentum's V^T X is T + b (T - T_old)
            d, vt, mv = power
            if mv is None:  # l2p, or l1 on one block: taken only now a step follows
                mv = power_product(x, vt, d)
            power = vt = None  # dropped before the next stats pass
            if momentum:
                v = w + b * (w - w_old)
            else:  # pgd: the Rayleigh-Ritz step, which hands the stats pass W'^T X
                mv /= float(d @ col_sq)  # M W / tr(M)
                w, t = _ritz_step(x, w, mv, d)
                stats, t, power = _basis_stats(x, w, norm, col_sq, clamp=power_clamp, t=t)
                v = None
        if v is not None:
            shift = POWER_SHIFT_RTOL * float(d @ col_sq)
            w, w_old = procrustes_project(mv + shift * v), w
            if momentum:
                b = _extrapolation(len(trace) + 1)  # the next round's
            # momentum's T becomes the next pass's T_old, in whose buffer it combines V^T X
            stats, t, power = _basis_stats(x, w, norm, col_sq, clamp=power_clamp, b=b, t_old=t)
        trace.append(objective_from_stats(stats, norm))
        if callback is not None:
            basis = Projection(w)
            callback(len(trace) - 1, basis, trace[-1])
        converged = check_convergence(trace, config.tol)
    if callback is None:
        basis = Projection(w)
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
