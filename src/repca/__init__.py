"""Robust PCA by direct minimization of reconstruction error.

Minimizes the l1 or l2,p norm of X - W W^T X over orthonormal W, and the
squared Frobenius norm of vanilla PCA, through one entry point, ``fit``.
Samples are columns, features are rows, and data is centered before fitting.
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

__version__ = "0.13.0"

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
