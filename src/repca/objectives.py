"""Reconstruction losses, reweighting diagonals, and gradients.

All three losses measure the same residual Y = X - W W^T X.  The robust
ones (elementwise l1, columnwise l2,p) are handled by reweighting: a
nonnegative per-sample diagonal d turns the loss into the weighted
quadratic tr(Y diag(d) Y^T), which the solvers can decrease with a fixed
step.  ``objective_value`` always reports the true, unclamped loss; the
clamp ``eps`` only guards the weight denominators.
"""
from __future__ import annotations

from dataclasses import dataclass

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

    @property
    def gradient_factor(self) -> float:
        """Scale s in the solver gradient -s * X diag(d) X^T W.

        The l1 loss goes through its trace identity, which carries a factor
        of 2 when differentiated; the l2,p loss is differentiated directly.
        """
        if self.kind == "l1":
            return 2.0
        if self.kind == "l2p":
            return 1.0
        raise InvalidSpec("the fro loss has a closed-form minimizer; no gradient factor")


def _check_pair(data: DataMatrix, basis: Projection) -> None:
    if basis.m != data.n_features:
        raise DimensionMismatch(
            f"basis has {basis.m} rows but data has {data.n_features} features"
        )


def residual(data: DataMatrix, basis: Projection) -> np.ndarray:
    """Reconstruction residual X - W (W^T X).

    Callers are expected to center the data first; the residual of an
    uncentered matrix mixes the mean into every column.
    """
    _check_pair(data, basis)
    x = data.values
    w = basis.values
    return x - w @ (w.T @ x)


def weights_l1(resid: np.ndarray, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Per-sample diagonal for the elementwise l1 loss.

    Column i gets (sum_j |Y_ji|) / max(||Y_i||_2^2, eps^2), which makes
    tr(Y diag(d) Y^T) equal to ||Y||_1 exactly.  Columns with norm at most
    eps take the clamped denominator.
    """
    if eps <= 0.0:
        raise InvalidSpec(f"eps must be positive, got {eps}")
    y = np.asarray(resid, dtype=float)
    col_abs = np.abs(y).sum(axis=0)
    col_sq = (y * y).sum(axis=0)
    return col_abs / np.maximum(col_sq, eps * eps)


def weights_l2p(resid: np.ndarray, p: float, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Per-sample diagonal p * max(||Y_i||_2, eps)^(p-2) for the l2,p loss."""
    if not 0.0 < p <= 2.0:
        raise InvalidSpec(f"p must be in (0, 2], got {p}")
    if eps <= 0.0:
        raise InvalidSpec(f"eps must be positive, got {eps}")
    y = np.asarray(resid, dtype=float)
    norms = np.sqrt((y * y).sum(axis=0))
    return p * np.maximum(norms, eps) ** (p - 2.0)


def _objective_from_residual(resid: np.ndarray, norm: NormSpec) -> float:
    if norm.kind == "fro":
        return float((resid * resid).sum())
    if norm.kind == "l1":
        return float(np.abs(resid).sum())
    col_norms = np.sqrt((resid * resid).sum(axis=0))
    return float((col_norms ** norm.p).sum())


def objective_value(data: DataMatrix, basis: Projection, norm: NormSpec) -> float:
    """True loss of reconstructing ``data`` through ``basis``.  Never clamped."""
    return _objective_from_residual(residual(data, basis), norm)


def weighted_scatter(data: DataMatrix, weights: np.ndarray) -> SymmetricMatrix:
    """X diag(d) X^T, the reweighted sample scatter matrix."""
    x = data.values
    d = np.asarray(weights, dtype=float)
    if d.shape != (x.shape[1],):
        raise DimensionMismatch(
            f"weights must have one entry per sample ({x.shape[1]}), got shape {d.shape}"
        )
    return SymmetricMatrix((x * d) @ x.T)


def gradient(
    data: DataMatrix, basis: Projection, weights: np.ndarray, factor: float
) -> np.ndarray:
    """Reweighted-quadratic gradient -factor * X diag(d) X^T W.

    Evaluated in factored form X (d * (X^T W)) so the m-by-m scatter matrix
    is never built; the result matches the dense formula to rounding.
    Along directions tangent to the orthonormality constraint this is the
    slope of the weighted quadratic frozen at the current residual, which
    for the columnwise l2,p loss (weights p * ||y_i||^(p-2)) coincides with
    the derivative of the true loss wherever it is differentiable.
    """
    _check_pair(data, basis)
    x = data.values
    d = np.asarray(weights, dtype=float)
    if d.shape != (x.shape[1],):
        raise DimensionMismatch(
            f"weights must have one entry per sample ({x.shape[1]}), got shape {d.shape}"
        )
    return -factor * (x @ (d[:, None] * (x.T @ basis.values)))

