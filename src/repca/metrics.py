"""Quality measures for fitted subspaces."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import DataMatrix, Projection
from .objectives import NormSpec, objective_value


def principal_angles(basis_a: Projection, basis_b: Projection) -> np.ndarray:
    """Principal angles between two subspaces, ascending, in [0, pi/2];
    min(k_a, k_b) of them.

    The cosines are the singular values of W_a^T W_b and the sines those of
    W_b - W_a (W_a^T W_b), the part of W_b outside span(W_a); each angle is
    arctan2(sin, cos), accurate at both ends, where arccos or arcsin alone
    would lose half the digits (Bjorck & Golub, Math. Comp. 1973).  The
    sines, reversed, pair up with the descending cosines angle by angle.
    """
    if basis_a.m != basis_b.m:
        raise DimensionMismatch(
            f"bases live in different ambient dimensions: {basis_a.m} vs {basis_b.m}"
        )
    overlap = basis_a.values.T @ basis_b.values
    cos = np.linalg.svd(overlap, compute_uv=False)
    sin = np.linalg.svd(basis_b.values - basis_a.values @ overlap, compute_uv=False)
    return np.arctan2(sin[::-1][: cos.size], cos)


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
    to p = 1).  Each error is ``objective_value`` under its loss.  Angles
    are present exactly when ``reference`` is given.
    """
    p_used = norm.p if norm.kind == "l2p" else 1.0
    return EvalReport(
        error_fro2=objective_value(data, basis, NormSpec.fro()),
        error_l1=objective_value(data, basis, NormSpec.l1()),
        error_l2p=objective_value(data, basis, NormSpec.l2p(p_used)),
        l2p_exponent=float(p_used),
        angles_rad=principal_angles(basis, reference) if reference is not None else None,
    )
