"""Reconstruction losses and reweighting diagonals.

All three losses measure the same residual Y = X - W W^T X.  The robust
ones (elementwise l1, columnwise l2,p) are handled by reweighting: a
nonnegative per-sample diagonal d turns the loss into the weighted
quadratic tr(Y diag(d) Y^T), which the solvers can decrease with a fixed
step.  ``objective_value`` always reports the true, unclamped loss; the
clamp ``eps`` only guards the weight denominators.

Every loss and every weight diagonal is computed from the residual's
per-column sums, ``column_stats``: the sums of squares and, for l1, the
sums of |Y|.  There is one formula per loss, shared by the objective,
the weights, the solvers and ``metrics.evaluate``.  The
reweighted scatter X diag(d) X^T is built as Z Z^T with
Z = X diag(sqrt d), a symmetric rank-n update that is exactly symmetric.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, InvalidSpec
from .linalg import DataMatrix, Projection, SymmetricMatrix

DEFAULT_EPS = 1e-10

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
            if self.p is None or not 0.0 < float(self.p) <= 2.0:
                raise InvalidSpec(f"l2p requires 0 < p <= 2, got p={self.p!r}")
            object.__setattr__(self, "p", float(self.p))
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
        return cls("l2p", float(p))


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


def residual(data: DataMatrix, basis: Projection) -> np.ndarray:
    """Reconstruction residual X - W (W^T X).

    Callers are expected to center the data first; the residual of an
    uncentered matrix mixes the mean into every column.
    """
    _check_pair(data, basis)
    return _project_out(data.values, basis.values)


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


def weights_from_stats(stats: ColumnStats, norm: NormSpec, eps: float) -> np.ndarray:
    """The reweighting diagonal of ``norm`` (see ``weights_l1``, ``weights_l2p``)."""
    if norm.kind == "l1":
        return stats.abs / np.maximum(stats.sq, eps * eps)
    if norm.kind == "l2p":
        return norm.p * np.maximum(np.sqrt(stats.sq), eps) ** (norm.p - 2.0)
    raise InvalidSpec("the fro loss has a closed-form minimizer; no reweighting")


def _check_eps(eps: float) -> None:
    if not (math.isfinite(eps) and eps > 0.0):
        raise InvalidSpec(f"eps must be finite and positive, got {eps}")


def weights_l1(resid: np.ndarray, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Per-sample diagonal for the elementwise l1 loss.

    Column i gets (sum_j |Y_ji|) / max(||Y_i||_2^2, eps^2), which makes
    tr(Y diag(d) Y^T) equal to ||Y||_1 exactly.  Columns with norm at most
    eps take the clamped denominator.
    """
    _check_eps(eps)
    norm = NormSpec.l1()
    return weights_from_stats(column_stats(resid, norm), norm, eps)


def weights_l2p(resid: np.ndarray, p: float, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Per-sample diagonal p * max(||Y_i||_2, eps)^(p-2) for the l2,p loss."""
    _check_eps(eps)
    norm = NormSpec.l2p(p)
    return weights_from_stats(column_stats(resid, norm), norm, eps)


def _objective_from_residual(resid: np.ndarray, norm: NormSpec) -> float:
    return objective_from_stats(column_stats(resid, norm), norm)


def objective_value(data: DataMatrix, basis: Projection, norm: NormSpec) -> float:
    """True loss of reconstructing ``data`` through ``basis``.  Never clamped."""
    _check_pair(data, basis)
    return objective_from_stats(_basis_stats(data.values, basis.values, norm), norm)


def weighted_scatter(data: DataMatrix, weights: np.ndarray) -> SymmetricMatrix:
    """X diag(d) X^T, the reweighted sample scatter matrix, for d >= 0.

    Formed as Z Z^T with Z = X diag(sqrt d): numpy hands ``z @ z.T`` to
    BLAS syrk, which computes one triangle (half the flops of a general
    product) and mirrors it, so the result is exactly symmetric and
    positive semidefinite up to rounding.
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
    return SymmetricMatrix(z @ z.T)
