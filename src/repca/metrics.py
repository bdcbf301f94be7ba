"""Quality measures for fitted subspaces."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import DataMatrix, Projection
from .objectives import NormSpec, _basis_stats, _check_pair, objective_from_stats


def principal_angles(basis_a: Projection, basis_b: Projection) -> np.ndarray:
    """Principal angles between two subspaces, ascending, in [0, pi/2].

    Computed as arccos of the singular values of W_a^T W_b; the singular
    values come out descending, so the angles are already ascending.
    """
    if basis_a.m != basis_b.m:
        raise DimensionMismatch(
            f"bases live in different ambient dimensions: {basis_a.m} vs {basis_b.m}"
        )
    overlap = basis_a.values.T @ basis_b.values
    sigma = np.linalg.svd(overlap, compute_uv=False)
    return np.arccos(np.clip(sigma, 0.0, 1.0))


@dataclass(frozen=True)
class EvalReport:
    """Reconstruction errors under each loss, plus optional subspace angles."""

    error_fro2: float
    error_l1: float
    error_l2p: float
    l2p_exponent: float
    angles_rad: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.angles_rad is not None:
            angles = np.array(self.angles_rad, dtype=float, copy=True)
            angles.setflags(write=False)
            object.__setattr__(self, "angles_rad", angles)

    @property
    def max_angle_rad(self) -> float | None:
        if self.angles_rad is None or self.angles_rad.size == 0:
            return None
        return float(self.angles_rad[-1])


def evaluate(
    data: DataMatrix,
    basis: Projection,
    reference: Projection | None = None,
    norm: NormSpec = NormSpec.l1(),
) -> EvalReport:
    """Score ``basis`` on ``data``.

    All three reconstruction errors are always reported; ``norm`` only
    chooses the exponent of the l2,p field (losses without a p fall back
    to p = 1).  Each error equals ``objective_value`` under its loss, bit
    for bit, since both come from the same column sums of the residual.
    Angles are present exactly when ``reference`` is given.
    """
    l1 = NormSpec.l1()
    _check_pair(data, basis)
    stats = _basis_stats(data.values, basis.values, l1)
    p_used = norm.p if norm.kind == "l2p" else 1.0
    angles = principal_angles(basis, reference) if reference is not None else None
    return EvalReport(
        error_fro2=objective_from_stats(stats, NormSpec.fro()),
        error_l1=objective_from_stats(stats, l1),
        error_l2p=objective_from_stats(stats, NormSpec.l2p(p_used)),
        l2p_exponent=float(p_used),
        angles_rad=angles,
    )
