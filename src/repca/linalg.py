"""Dense linear-algebra primitives shared by every solver.

The types (``DataMatrix``, ``Projection``, ``SymmetricMatrix``) copy their
input in C order, check it and freeze it: holding one is proof of its
invariant.  The helpers the solver loop calls every round
(``procrustes_project``, ``top_r_eigvecs``) take and return plain ndarrays:
they keep the checks that can fail on a solver's intermediates (shape,
rank, the cut, non-finite entries), skip those the caller vouches for
(symmetry, orthonormality), and warn about nothing.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, RankDeficient

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
    share between threads.  Construction holds the copy plus an m-by-n
    boolean for the finiteness scan; the centered check reduces the copy in
    place rather than through an |X| temporary.
    """

    values: np.ndarray
    centered: bool = False

    def __post_init__(self) -> None:
        arr = _frozen_matrix(self.values, "DataMatrix.values")
        object.__setattr__(self, "values", arr)
        if self.centered:
            # Huge finite entries can overflow a row sum; inf or nan then fails.
            with np.errstate(over="ignore", invalid="ignore"):
                row_sums = np.abs(arr.sum(axis=1)).max()
            tol = CENTERED_ROW_SUM_RTOL * arr.shape[1] * max(arr.max(), -arr.min(), 0.0)
            if not row_sums <= tol:
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
    exactly.  No solver builds one."""

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


def _center_rows(values: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``values`` minus each row's mean, written to ``out`` (a fresh array
    when None; ``values`` itself to center in place), and the means.

    Raises ValueError when a row sum overflows, or when a finite mean moves
    an entry past the float range (a row of 1.5e308, -1.5e308, -1.5e308);
    only entries near the float range can make either happen."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = values.mean(axis=1)
    if not np.isfinite(mean).all():
        raise ValueError("cannot center the rows: a row sum overflows the float range")
    try:
        with np.errstate(over="raise"):
            return np.subtract(values, mean[:, None], out=out), mean
    except FloatingPointError:
        raise ValueError("cannot center the rows: a centered entry overflows the float range") from None


def center_columns(data: DataMatrix) -> tuple[DataMatrix, np.ndarray]:
    """Subtract the per-feature mean over samples.

    Returns the centered matrix and the mean vector that was removed.
    Already-centered input is returned unchanged with a zero mean, which
    makes the operation exactly idempotent.  The centered values are
    written once, into the array ``DataMatrix`` then copies.
    """
    if data.centered:
        return data, np.zeros(data.n_features)
    shifted, mean = _center_rows(data.values)
    return DataMatrix(shifted, centered=True), mean


def _square(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    return a


def procrustes_project(candidate: np.ndarray) -> np.ndarray:
    """Nearest orthonormal matrix to ``candidate``: U V^T from its thin SVD.

    Among all orthonormal W this maximizes tr(W^T R): momentum's
    retraction.  Raises RankDeficient when the smallest singular value is
    at or below RANK_RTOL times the largest.
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
    return u @ vt


def _fix_column_signs(vecs: np.ndarray) -> np.ndarray:
    # The first entry of each column above _SIGN_TOL is made nonnegative; a
    # column with none is kept.  Scaling by -1.0 or 1.0 is exact.
    lead = vecs[(np.abs(vecs) > _SIGN_TOL).argmax(axis=0), np.arange(vecs.shape[1])]
    return np.multiply(vecs, np.where(lead < -_SIGN_TOL, -1.0, 1.0), order="C")


def top_r_eigvecs(matrix: np.ndarray, r: int) -> tuple[np.ndarray, bool]:
    """Eigenvectors of the symmetric ``matrix`` for its r largest
    eigenvalues, as a C-ordered m-by-r array with orthonormal columns, and
    whether the eigengap at the cut is closed.

    Columns are ordered by descending eigenvalue, each in the sign LAPACK
    gives it (the ``solvers`` docstring says why no convention).  Only the
    lower triangle is read.  The gap counts as closed when it is at or
    below SPECTRUM_GAP_RTOL |largest eigenvalue|: the subspace is then
    numerically arbitrary.
    """
    a = _square(matrix)
    m = a.shape[0]
    if not 1 <= r <= m:
        raise DimensionMismatch(f"r must be in [1, {m}], got {r}")
    vals, vecs = np.linalg.eigh(a)
    vals = vals.tolist()  # ascending; Python floats round as numpy's do
    gap_closed = r < m and vals[m - r] - vals[m - r - 1] <= SPECTRUM_GAP_RTOL * abs(vals[-1])
    return vecs[:, ::-1][:, :r].copy(), gap_closed


def spectral_norm(matrix: np.ndarray) -> float:
    """Largest absolute eigenvalue of the symmetric ``matrix``, from one
    LAPACK eigenvalue call; a zero matrix gives 0.0.  No solver calls it."""
    vals = np.linalg.eigvalsh(_square(matrix))
    # The larger one is never below zero; abs only clears the sign of -0.0.
    return float(abs(max(vals[-1], -vals[0])))
