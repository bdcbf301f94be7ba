"""Reconstruction losses and reweighting diagonals.

All three losses measure the same residual Y = X - W W^T X.  The robust
ones (elementwise l1, columnwise l2,p) are handled by reweighting: a
nonnegative per-sample diagonal d turns the loss into the weighted
quadratic tr(Y diag(d) Y^T), which the pgd and irls steps never raise.
``objective_value`` always reports the true, unclamped loss; the
clamp c on residual column norms, which ``solvers.fit`` sets from the
data's scale, only guards the weight denominators.  For l2p the clamped
weights are, up to a factor 2 that moves no step, the MM weights of the
loss Huberized at c: h(t) = t^p for t >= c, (p/2) c^(p-2) t^2 +
(1 - p/2) c^p below.

Every loss and every weight diagonal is computed from the residual's
per-column sums, ``column_stats``: the sums of squares and, for l1, the
sums of |Y|, and only from those.  There is one formula per loss, shared
by the objective, the weights, the solvers and ``metrics.evaluate``.  The
reweighted scatter X diag(d) X^T is built as Z Z^T with
Z = X diag(sqrt d), a symmetric rank-n update that is exactly symmetric.
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


def _check_pair(data: DataMatrix, basis: Projection) -> None:
    if basis.m != data.n_features:
        raise DimensionMismatch(
            f"basis has {basis.m} rows but data has {data.n_features} features"
        )


def _project_out(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """X - W (W^T X), written into the buffer that holds W (W^T X)."""
    r = w @ (w.T @ x)
    np.subtract(x, r, out=r)
    return r


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


def _basis_stats(x: np.ndarray, w: np.ndarray, norm: NormSpec) -> ColumnStats:
    """``column_stats`` of X - W (W^T X), reduced in the residual's own buffer."""
    return _column_sums(_project_out(x, w), norm)


def objective_from_stats(stats: ColumnStats, norm: NormSpec) -> float:
    """The loss: sum ||y_i||^2 (fro), sum |Y| (l1) or sum ||y_i||^p (l2p)."""
    if norm.kind == "fro":
        return float(stats.sq.sum())
    if norm.kind == "l1":
        return float(stats.abs.sum())
    return float((np.sqrt(stats.sq) ** norm.p).sum())


def weights_from_stats(stats: ColumnStats, norm: NormSpec, clamp: float) -> np.ndarray:
    """The reweighting diagonal of ``norm``, with column norms clamped at
    ``clamp``; for l1, tr(Y diag(d) Y^T) = ||Y||_1 on columns above it."""
    if norm.kind == "l1":
        return stats.abs / np.maximum(stats.sq, clamp * clamp)
    if norm.kind == "l2p":
        return norm.p * np.maximum(np.sqrt(stats.sq), clamp) ** (norm.p - 2.0)
    raise InvalidSpec("the fro loss has a closed-form minimizer; no reweighting")


def _objective_from_residual(resid: np.ndarray, norm: NormSpec) -> float:
    return objective_from_stats(column_stats(resid, norm), norm)


def objective_value(data: DataMatrix, basis: Projection, norm: NormSpec) -> float:
    """True loss of reconstructing ``data`` through ``basis``.  Never clamped."""
    _check_pair(data, basis)
    return objective_from_stats(_basis_stats(data.values, basis.values, norm), norm)


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
