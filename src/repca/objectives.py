"""Reconstruction losses and reweighting diagonals.

All three losses measure the residual Y = X - W W^T X.  Every loss and
weight diagonal d comes from its per-column sums, ``column_stats``, by one
formula per loss; d turns a robust loss into the weighted quadratic
tr(Y diag(d) Y^T).  For a basis W, ``_basis_stats`` alone forms the sums,
and never holds the m x n residual whole.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, InvalidSpec, require_real
from .linalg import DataMatrix, Projection

_KINDS = ("fro", "l1", "l2p")


@dataclass(frozen=True)
class NormSpec:
    """Selects which reconstruction loss to measure or minimize.

    kind "fro":  squared Frobenius norm of the residual (vanilla PCA loss).
    kind "l1":   elementwise absolute sum of the residual.
    kind "l2p":  sum of residual column norms raised to p, with 0 < p <= 2.
    """

    kind: str
    p: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise InvalidSpec(f"unknown norm kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind == "l2p":
            p = None if self.p is None else require_real("p", self.p)
            if p is None or not 0.0 < p <= 2.0:
                raise InvalidSpec(f"l2p requires 0 < p <= 2, got p={self.p!r}")
            object.__setattr__(self, "p", p)
        elif self.p is not None:
            raise InvalidSpec(f"p is only meaningful for the l2p loss, not {self.kind!r}")

    @classmethod
    def fro(cls) -> "NormSpec":
        return cls("fro")

    @classmethod
    def l1(cls) -> "NormSpec":
        return cls("l1")

    @classmethod
    def l2p(cls, p: float) -> "NormSpec":
        return cls("l2p", p)


class ColumnStats(NamedTuple):
    """Per-column sums of a residual Y."""

    sq: np.ndarray  # sum_j Y_ji^2, the squared column norms
    abs: np.ndarray | None  # sum_j |Y_ji|; only the l1 loss needs it


def _column_sums(y: np.ndarray, norm: NormSpec) -> ColumnStats:
    # Takes |Y| in place, so that no m-by-n temporary is allocated: only
    # for a float array the caller no longer needs.
    sq = np.einsum("ij,ij->j", y, y)
    return ColumnStats(sq, np.abs(y, out=y).sum(axis=0) if norm.kind == "l1" else None)


def column_stats(resid: np.ndarray, norm: NormSpec) -> ColumnStats:
    """The column sums every loss and weight of ``norm`` is computed from.

    ``resid`` itself is left unchanged.
    """
    return _column_sums(np.array(resid, dtype=float), norm)


# The residual is formed and reduced this many bytes of columns at a time:
# a block small enough to stay in cache from the product that writes it to
# the passes that reduce it, large enough that per-block overhead is small.
# The step's product M V reads the block of X again, so the block and the
# buffer fit a 2 MiB L2 cache together.
_BLOCK_BYTES = 1 << 19
# ...but at least this many columns, so that m >> n data is not reduced
# column by column.
_BLOCK_MIN_COLS = 32
# A downdated ||y_i||^2 at or below this fraction of ||x_i||^2 has cancelled.
DOWNDATE_RTOL = 1e-3


def _block_width(m: int, n: int) -> int:
    return min(n, max(_BLOCK_MIN_COLS, _BLOCK_BYTES // (8 * m)))


def _residual(x: np.ndarray, w: np.ndarray, t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """X - W T, formed in ``y``."""
    np.matmul(w, t, out=y)
    return np.subtract(x, y, out=y)


def _downdated_sq(
    x: np.ndarray, w: np.ndarray, t: np.ndarray, col_sq: np.ndarray | None = None
) -> np.ndarray:
    """Squared column norms of X - W T for T = W^T X: W is orthonormal, so
    ||x_i - W t_i||^2 = ||x_i||^2 - ||t_i||^2, with ``col_sq`` = ||x_i||^2
    (taken here when not given, as ``objective_value`` leaves it).

    A column whose difference is not above DOWNDATE_RTOL ||x_i||^2
    (negative, zero and NaN ones included) lies in or near span(W) and is
    recomputed from its own residual, in chunks of at most one block, as
    LAPACK's xLAQP2 does for pivoted QR (Drmac & Bujanovic, ACM TOMS 2008).
    With u = 2^-53, inner-product error bounds (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, ch. 3) put a downdated
    ||y_i||^2 within (m (1 + 2 sqrt k) + k + 1) u ||x_i||^2 of the exact
    value, to first order, so a kept one's relative error is at most that
    factor over DOWNDATE_RTOL; a recomputed one is within
    2 sqrt(k) (m + k) u ||x_i|| ||y_i|| + (m + 2) u ||y_i||^2.
    """
    if col_sq is None:
        # fit passes a finite col_sq, having rejected data whose squared norm
        # overflows; here an overflowed column gives inf - inf, a NaN the
        # recompute replaces.
        with np.errstate(invalid="ignore"):
            return _downdated_sq(x, w, t, np.einsum("ij,ij->j", x, x))
    sq = col_sq - np.einsum("ij,ij->j", t, t)
    redo = (~(sq > DOWNDATE_RTOL * col_sq)).nonzero()[0]
    if redo.size:
        width = _block_width(*x.shape)
        for i in range(0, redo.size, width):
            cols = redo[i:i + width]
            y = x[:, cols]
            y -= w @ t[:, cols]
            sq[cols] = np.einsum("ij,ij->j", y, y)
    return sq


def _basis_stats(
    x: np.ndarray,
    w: np.ndarray,
    norm: NormSpec,
    col_sq: np.ndarray | None = None,
    *,
    t: np.ndarray | None = None,
    clamp: float | None = None,
    vt: np.ndarray | None = None,
) -> tuple[ColumnStats, tuple | None]:
    """``column_stats`` of X - W T for T = W^T X and, given the weight
    ``clamp``, the step's weights d and product M V = X (d * V^T X)^T.

    T is taken here in one product unless the caller passes it as ``t``.
    The squared norms come from ``_downdated_sq``, except for l1 on one
    block.  For l1, which needs |Y|, X_b - W T_b is formed and reduced one
    block of ``_block_width`` columns at a time, in a buffer each call
    allocates; with one block the squares are summed in the same pass, as
    on data that small the downdate costs more than the pass it saves.  The
    blocks split the n columns evenly: a one-column block would take BLAS's
    gemv path, which rounds differently.

    Given ``clamp``, the second item is (d, V^T X, M V), V^T X being the
    caller's ``vt``, or T when none is given.  On several l1 blocks each
    block takes its slice of d and adds its share of M V while X_b is in
    cache, scaling its columns of V^T X by d in place.  Otherwise M V is
    None, and ``power_product`` takes it whole once a step follows.
    """
    if t is None:
        t = w.T @ x
    m, n = x.shape
    width = _block_width(m, n) if norm.kind == "l1" else n
    if width == n and norm.kind == "l1":  # one block
        stats = _column_sums(_residual(x, w, t, np.empty((m, n))), norm)
    else:
        stats = ColumnStats(_downdated_sq(x, w, t, col_sq), None)
    if clamp is None:
        vt = None
    elif vt is None:
        vt = t
    mv = None
    if width < n:  # several l1 blocks
        blocks = -(-n // width)
        edges = [n * e // blocks for e in range(blocks + 1)]
        flat = np.empty(m * width)
        sq, ab = stats.sq, np.empty(n)
        if vt is not None:
            d, mv = np.empty(n), np.zeros((m, w.shape[1]))
        for i, j in zip(edges, edges[1:]):
            xb = x[:, i:j]
            y = _residual(xb, w, t[:, i:j], flat[: m * (j - i)].reshape(m, j - i))
            np.abs(y, out=y).sum(axis=0, out=ab[i:j])
            if vt is not None:
                d[i:j] = weights_from_stats(ColumnStats(sq[i:j], ab[i:j]), norm, clamp)
                vt[:, i:j] *= d[i:j]
                mv += xb @ vt[:, i:j].T
        stats = ColumnStats(sq, ab)
    elif vt is not None:
        d = weights_from_stats(stats, norm, clamp)
    return stats, (None if vt is None else (d, vt, mv))


def power_product(x: np.ndarray, vt: np.ndarray, d: np.ndarray) -> np.ndarray:
    """M V = X (d * V^T X)^T for M = X diag(d) X^T, in one product; scales
    ``vt`` = V^T X by d in place."""
    vt *= d
    return x @ vt.T


def objective_from_stats(stats: ColumnStats, norm: NormSpec) -> float:
    """The loss: sum ||y_i||^2 (fro), sum |Y| (l1) or sum ||y_i||^p (l2p)."""
    if norm.kind == "fro":
        return float(stats.sq.sum())
    if norm.kind == "l1":
        return float(stats.abs.sum())
    return float((np.sqrt(stats.sq) ** norm.p).sum())


def weights_from_stats(stats: ColumnStats, norm: NormSpec, clamp: float) -> np.ndarray:
    """The reweighting diagonal of ``norm``, with column norms clamped at
    ``clamp``; for l1, tr(Y diag(d) Y^T) = ||Y||_1 on columns above it.

    For l2p these are, up to a factor 2 that moves no step, the MM weights
    of the loss Huberized at the clamp c: h(t) = t^p for t >= c, and
    (p/2) c^(p-2) t^2 + (1 - p/2) c^p below.  The weighted quadratic lies
    above sum h, so a step that never raises it never raises sum h; the
    true loss can rise once a column falls below c.  The l1 weights give
    no such bound.
    """
    if norm.kind == "l1":
        return stats.abs / np.maximum(stats.sq, clamp * clamp)
    if norm.kind == "l2p":
        return norm.p * np.maximum(np.sqrt(stats.sq), clamp) ** (norm.p - 2.0)
    raise InvalidSpec("the fro loss has a closed-form minimizer; no reweighting")


def _objective_from_residual(resid: np.ndarray, norm: NormSpec) -> float:
    return objective_from_stats(column_stats(resid, norm), norm)


def objective_value(data: DataMatrix, basis: Projection, norm: NormSpec) -> float:
    """True loss of reconstructing ``data`` through ``basis``.  Never clamped."""
    if basis.m != data.n_features:
        raise DimensionMismatch(
            f"basis has {basis.m} rows but data has {data.n_features} features"
        )
    return objective_from_stats(_basis_stats(data.values, basis.values, norm)[0], norm)


def weighted_scatter(data: DataMatrix, weights: np.ndarray) -> np.ndarray:
    """X diag(d) X^T, the reweighted sample scatter matrix, for d >= 0.

    Formed as Z Z^T with Z = X diag(sqrt d): numpy hands ``z @ z.T`` to
    BLAS syrk, which computes one triangle (half the flops of a general
    product) and mirrors it, so the returned array is exactly symmetric
    and positive semidefinite up to rounding.  Entries that overflow are
    left as inf for ``top_r_eigvecs`` to reject.
    """
    x = data.values
    d = np.asarray(weights, dtype=float)
    if d.shape != (x.shape[1],):
        raise DimensionMismatch(
            f"weights must have one entry per sample ({x.shape[1]}), got shape {d.shape}"
        )
    if not d.min() >= 0.0:
        raise ValueError(f"weights must be nonnegative, got min {d.min()}")
    z = x * np.sqrt(d)
    return z @ z.T
