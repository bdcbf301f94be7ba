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
(1 - p/2) c^p below.  Each round's weighted quadratic lies above the sum
of h, so a step that never raises the quadratic never raises that sum;
the true loss can rise once a column falls below c.  The l1 weights
give no such bound.

Every loss and every weight diagonal is computed from the residual's
per-column sums, ``column_stats``: the sums of squares and, for l1, the
sums of |Y|, and only from those.  There is one formula per loss, shared
by the objective, the weights and the solvers; ``metrics.evaluate``
scores through ``objective_value``.  For a basis W, ``_basis_stats``
takes T = W^T X in one product, unless the caller hands it T (pgd's
Rayleigh-Ritz step forms it), and it alone forms those sums.  Given the
clamp it also takes a step's weights d and M V = X (d * V^T X)^T,
M = X diag(d) X^T, at V^T X = T or at the caller's V^T X.

Its squared norms come from a downdate, except for l1 on data whose
residual is one block (below), and for fro and l2p it forms no residual.
Since W is orthonormal, ||x_i - W t_i||^2 = ||x_i||^2 - ||t_i||^2: it
downdates ||x_i||^2, which a fit takes once (``objective_value`` leaves
it to the downdate), by the column sums of T^2.
A column whose downdate is not above DOWNDATE_RTOL ||x_i||^2 has
cancelled (it lies in or near span(W), or is zero) and is recomputed
from its own residual, as LAPACK's xLAQP2 does for the column norms of
pivoted QR (Drmac & Bujanovic, ACM TOMS 2008).  With u = 2^-53 and W
orthonormal to working precision, inner-product error bounds (Higham,
Accuracy and Stability of Numerical Algorithms, 2002, ch. 3) put a downdated ||y_i||^2 within
(m (1 + 2 sqrt k) + k + 1) u ||x_i||^2 of the exact value, to first
order, and a recomputed one within
2 sqrt(k) (m + k) u ||x_i|| ||y_i|| + (m + 2) u ||y_i||^2.  The
downdate's relative error thus grows as ||x_i||^2 / ||y_i||^2, to at most
(m (1 + 2 sqrt k) + k + 1) u / DOWNDATE_RTOL.  Measured against exact
rational arithmetic at m = 10 and 200, it was 6-17 u ||x_i||^2 / ||y_i||^2,
at most 2e-12 at the threshold.

For l1, which needs |Y|, it forms and reduces X_b - W T_b one block of
columns at a time in a buffer of about ``_BLOCK_BYTES`` that each call
allocates, so the m x n residual is never held whole, each block is
reduced while it is still in cache, and no buffer outlives the call.
With several blocks it sums only |Y| there and takes the squared norms
from the downdate first, which saves a pass over every block and keeps
the downdate's recompute from running beside the buffer.  With one
block it sums the squares in the same pass: on such small data the
downdate's fixed cost per call exceeds the pass it saves.  The block
width is fixed by m and n alone, so the sums, and which path gives the
squares, do not depend on the caller; the downdate's recompute runs in
chunks of at most that width.  With several blocks each block also
takes its slice of d, which depends on its own columns' sums alone, and
adds X_b (d_b * V_b^T X_b)^T to M V while X_b is still in cache, so
M V costs no read of X of its own.  For l2p, which forms no residual,
and for l1 on one block, ``power_product`` takes M V whole, and only
once a step follows, so the round that ends a fit does not pay for it.  The reweighted
scatter X diag(d) X^T is built as Z Z^T with Z = X diag(sqrt d), a
symmetric rank-n update that is exactly symmetric.
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
# The step's product M V reads the block of X again, so the block and
# the buffer, 512 KiB each, fit a 2 MiB L2 together (timed in CHANGES.md).
_BLOCK_BYTES = 1 << 19
# ...but at least this many columns, so that m >> n data is not reduced
# column by column.
_BLOCK_MIN_COLS = 32
# A downdated ||x_i||^2 - ||W^T x_i||^2 at or below this fraction of ||x_i||^2
# has lost too many digits to cancellation; its column is recomputed from
# its own residual.
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
    """Squared column norms of X - W T for T = W^T X, as ``col_sq`` minus
    the column sums of T^2, ``col_sq`` being ||x_i||^2 (taken here when
    not given, as ``objective_value`` leaves it).

    A column whose difference is not above DOWNDATE_RTOL ||x_i||^2
    (negative, zero and NaN ones included) is recomputed from its own
    residual, in chunks of at most one residual block.
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
    The squared norms and the l1 blocks follow the module docstring;
    ``col_sq`` = ||x_i||^2 is taken in ``_downdated_sq`` when not given.
    The blocks split the n columns evenly, so none is much narrower than
    the buffer: a one-column block would take BLAS's gemv path, whose
    rounding differs from gemm's.

    Given ``clamp``, the second item is (d, V^T X, M V), V^T X being the
    caller's ``vt``, or T when none is given.  On several l1 blocks each
    block takes its slice of d and adds its share of M V, scaling its
    columns of V^T X by d in place.  Otherwise M V is None, and
    ``power_product`` takes it whole once a step follows.
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
