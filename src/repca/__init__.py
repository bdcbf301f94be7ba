"""Robust PCA by direct minimization of reconstruction error.

Vanilla PCA minimizes the squared Frobenius norm of X - W W^T X over
orthonormal W, which squares each residual and lets a few corrupted
samples dominate the fit.  This package swaps in two robust losses,
the elementwise l1 norm and a columnwise l2 norm raised to a power
p in (0, 2], and minimizes all three losses on the same constraint set
with one entry point, ``fit``: the squared loss in closed form, the
robust ones with one iteratively reweighted loop that takes one of
three steps: a Rayleigh-Ritz step over span[W, M W], a shifted power
step from a momentum-extrapolated point, or an eigenproblem per
iteration.

Data convention throughout: samples are columns, features are rows,
and columns are centered before fitting.
"""
from .datagen import SynthSpec, synth_subspace
from .errors import (
    CsvParseError,
    DimensionMismatch,
    InvalidSpec,
    RankDeficient,
    SpectrumGapWarning,
)
from .linalg import DataMatrix, Projection, center_columns
from .metrics import EvalReport, evaluate, principal_angles
from .objectives import NormSpec, objective_value
from .solvers import FitResult, SolverConfig, fit, vanilla_pca

__version__ = "0.10.0"

__all__ = [
    "CsvParseError",
    "DataMatrix",
    "DimensionMismatch",
    "EvalReport",
    "FitResult",
    "InvalidSpec",
    "NormSpec",
    "Projection",
    "RankDeficient",
    "SolverConfig",
    "SpectrumGapWarning",
    "SynthSpec",
    "center_columns",
    "evaluate",
    "fit",
    "objective_value",
    "principal_angles",
    "synth_subspace",
    "vanilla_pca",
    "__version__",
]
