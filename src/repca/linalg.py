"""Dense linear-algebra primitives shared by every solver.

Everything here is pure and deterministic: input arrays are copied, in C
(row-major) order, and frozen on construction, eigenvector signs follow a
fixed convention, and spectra come from LAPACK's symmetric eigensolvers, so
repeated runs of the same build produce identical bits.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, RankDeficient, SpectrumGapWarning

# Row sums of a centered matrix must stay below this, scaled by n * max|entry|.
CENTERED_ROW_SUM_RTOL = 1e-9
# ||W^T W - I||_F allowance per basis column.
ORTHONORMALITY_RTOL = 1e-10
# ||A - A^T||_F allowance relative to ||A||_F.
SYMMETRY_RTOL = 1e-12
# Singular values at or below this fraction of the largest count as zero.
RANK_RTOL = 1e-12
SPECTRUM_GAP_RTOL = 1e-10
_SIGN_TOL = 1e-12


def _frozen_matrix(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float, copy=True, order="C")
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be a 2-d matrix, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionMismatch(f"{name} must be nonempty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DataMatrix:
    """Feature-by-sample data matrix: rows are features, columns are samples.

    ``centered`` records whether each feature row sums to zero.  The array is
    copied and marked read-only on construction, so instances are safe to
    share between threads.
    """

    values: np.ndarray
    centered: bool = False

    def __post_init__(self) -> None:
        arr = _frozen_matrix(self.values, "DataMatrix.values")
        object.__setattr__(self, "values", arr)
        if self.centered:
            row_sums = np.abs(arr.sum(axis=1)).max()
            tol = CENTERED_ROW_SUM_RTOL * arr.shape[1] * max(np.abs(arr).max(), 0.0)
            if row_sums > tol:
                raise ValueError(
                    f"matrix marked centered but a row sums to {row_sums:.3e} "
                    f"(tolerance {tol:.3e})"
                )

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def n_features(self) -> int:
        return self.values.shape[0]

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Projection:
    """Orthonormal basis of a k-dimensional subspace, stored as m-by-k.

    Construction validates ||W^T W - I||_F <= 1e-10 * k, so holding a
    Projection is proof of orthonormality.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = _frozen_matrix(self.values, "Projection.values")
        object.__setattr__(self, "values", arr)
        m, k = arr.shape
        if k > m:
            raise DimensionMismatch(f"basis has more columns than rows: {arr.shape}")
        gram_err = np.linalg.norm(arr.T @ arr - np.eye(k))
        if gram_err > ORTHONORMALITY_RTOL * k:
            raise ValueError(
                f"columns are not orthonormal: ||W^T W - I||_F = {gram_err:.3e}"
            )

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def k(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SymmetricMatrix:
    """Square symmetric matrix.  The input must already be symmetric to
    within 1e-12 relative Frobenius error; the stored copy is symmetrized
    exactly so downstream eigendecompositions see clean input."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=float, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("SymmetricMatrix.values contains non-finite entries")
        asym = np.linalg.norm(arr - arr.T)
        if asym > SYMMETRY_RTOL * max(np.linalg.norm(arr), 0.0):
            raise ValueError(f"matrix is not symmetric: ||A - A^T||_F = {asym:.3e}")
        arr = (arr + arr.T) / 2.0
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def center_columns(data: DataMatrix) -> tuple[DataMatrix, np.ndarray]:
    """Subtract the per-feature mean over samples.

    Returns the centered matrix and the mean vector that was removed.
    Already-centered input is returned unchanged with a zero mean, which
    makes the operation exactly idempotent.
    """
    if data.centered:
        return data, np.zeros(data.n_features)
    mean = data.values.mean(axis=1)
    shifted = data.values - mean[:, None]
    return DataMatrix(shifted, centered=True), mean


def procrustes_project(candidate: np.ndarray) -> Projection:
    """Nearest orthonormal matrix to ``candidate``: U V^T from its thin SVD.

    Among all orthonormal W this maximizes tr(W^T R), which is the
    retraction step every solver uses.  Raises RankDeficient when the
    smallest singular value is at or below 1e-12 times the largest.
    """
    arr = np.asarray(candidate, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d matrix, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("cannot orthonormalize a matrix with non-finite entries")
    u, s, vt = np.linalg.svd(arr, full_matrices=False)
    if s[0] == 0.0 or s[-1] <= RANK_RTOL * s[0]:
        raise RankDeficient(
            f"matrix of shape {arr.shape} is rank deficient "
            f"(singular values span {s[-1]:.3e} .. {s[0]:.3e})"
        )
    return Projection(u @ vt)


def _fix_column_signs(vecs: np.ndarray) -> np.ndarray:
    # Convention: the first entry of each column that clears the noise
    # threshold is made nonnegative.
    out = np.array(vecs, copy=True)
    for j in range(out.shape[1]):
        col = out[:, j]
        lead = np.nonzero(np.abs(col) > _SIGN_TOL)[0]
        if lead.size and col[lead[0]] < 0:
            out[:, j] = -col
    return out


def top_r_eigvecs(matrix: SymmetricMatrix, r: int) -> Projection:
    """Eigenvectors for the r largest eigenvalues, as a Projection.

    Columns are ordered by descending eigenvalue and sign-fixed so the
    result is deterministic.  When the eigengap at the cut is at or below
    1e-10 * |largest eigenvalue| a SpectrumGapWarning is emitted because
    the subspace is then numerically arbitrary.
    """
    m = matrix.n
    if not 1 <= r <= m:
        raise DimensionMismatch(f"r must be in [1, {m}], got {r}")
    vals, vecs = np.linalg.eigh(matrix.values)
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    if r < m and (vals[r - 1] - vals[r]) <= SPECTRUM_GAP_RTOL * abs(vals[0]):
        warnings.warn(
            f"eigengap at cut {r} is {vals[r - 1] - vals[r]:.3e}; "
            "the returned subspace is not well determined",
            SpectrumGapWarning,
            stacklevel=2,
        )
    return Projection(_fix_column_signs(vecs[:, :r]))


def spectral_norm(matrix: SymmetricMatrix) -> float:
    """Largest absolute eigenvalue, max |eigvalsh(A)|.

    The solvers call this on the small m-by-m scatter matrix, where one
    LAPACK eigenvalue call is accurate to rounding and cheaper than an
    iterative estimate.  A zero matrix returns 0.0 without a decomposition.
    """
    a = matrix.values
    if not a.any():
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvalsh(a))))
