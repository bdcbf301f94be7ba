"""Robust PCA by direct minimization of reconstruction error.

Vanilla PCA minimizes the squared Frobenius norm of X - W W^T X over
orthonormal W, which squares each residual and lets a few corrupted
samples dominate the fit.  This package swaps in two robust losses,
the elementwise l1 norm and a columnwise l2 norm raised to a power
p in (0, 2], and minimizes them on the same constraint set with one
iteratively reweighted loop, ``fit``, that takes one of three steps:
projected gradient descent, a momentum-accelerated variant, or an
eigenproblem per iteration.

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
from .linalg import (
    DataMatrix,
    Projection,
    SymmetricMatrix,
    center_columns,
    procrustes_project,
    spectral_norm,
    top_r_eigvecs,
)
from .metrics import EvalReport, evaluate, principal_angles
from .objectives import (
    NormSpec,
    gradient,
    objective_value,
    residual,
    weighted_scatter,
    weights_l1,
    weights_l2p,
)
from .solvers import (
    FitResult,
    SolverConfig,
    check_convergence,
    count_monotone_violations,
    fit,
    vanilla_pca,
)

__version__ = "0.1.0"

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
    "SymmetricMatrix",
    "SynthSpec",
    "center_columns",
    "check_convergence",
    "count_monotone_violations",
    "evaluate",
    "fit",
    "gradient",
    "objective_value",
    "principal_angles",
    "procrustes_project",
    "residual",
    "spectral_norm",
    "synth_subspace",
    "top_r_eigvecs",
    "vanilla_pca",
    "weighted_scatter",
    "weights_l1",
    "weights_l2p",
    "__version__",
]
