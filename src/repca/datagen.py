"""Synthetic low-rank data with optional isotropic outliers.

Inlier columns are W_true z + sigma * eta with z and eta standard normal;
the last floor(outlier_frac * n) columns are replaced by outlier_scale
times a standard normal vector.  The returned matrix is centered.  All
draws come from one seeded generator in a fixed order (basis, then
coefficients, then noise, then outliers), so a seed pins the output
bit for bit.  The draw is built and centered in place before its one
``DataMatrix`` copy, so at most two m-by-n float arrays are alive.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, require_int, require_real
from .linalg import DataMatrix, Projection, _center_rows, procrustes_project


@dataclass(frozen=True)
class SynthSpec:
    m: int
    n: int
    k_true: int
    noise_sigma: float = 0.0
    outlier_frac: float = 0.0
    outlier_scale: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("m", "n", "k_true", "seed"):
            require_int(name, getattr(self, name))
        for name in ("noise_sigma", "outlier_frac", "outlier_scale"):
            require_real(name, getattr(self, name))
        if self.m < 1:
            raise InvalidSpec(f"m must be at least 1, got {self.m}")
        if self.n < 1:
            raise InvalidSpec(f"n must be at least 1, got {self.n}")
        if not 1 <= self.k_true <= self.m:
            raise InvalidSpec(f"k_true must be in [1, m] = [1, {self.m}], got {self.k_true}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise InvalidSpec(f"noise_sigma must be finite and nonnegative, got {self.noise_sigma}")
        if not 0.0 <= self.outlier_frac < 1.0:
            raise InvalidSpec(f"outlier_frac must be in [0, 1), got {self.outlier_frac}")
        if not (math.isfinite(self.outlier_scale) and self.outlier_scale > 0.0):
            raise InvalidSpec(f"outlier_scale must be finite and positive, got {self.outlier_scale}")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be nonnegative, got {self.seed}")

    @property
    def outlier_count(self) -> int:
        return math.floor(self.outlier_frac * self.n)


def _draw_raw(spec: SynthSpec) -> tuple[np.ndarray, Projection, np.ndarray]:
    """Uncentered draw.  Split out so tests can check the inlier columns
    lie exactly in span(W_true) before centering shifts them.

    A scale large enough to overflow leaves inf in the draw without a
    warning; ``synth_subspace`` reports it."""
    rng = np.random.default_rng(spec.seed)
    basis = Projection(procrustes_project(rng.standard_normal((spec.m, spec.k_true))))
    coeffs = rng.standard_normal((spec.k_true, spec.n))
    n_in = spec.n - spec.outlier_count
    with np.errstate(over="ignore"):
        raw = basis.values @ coeffs
        noise = rng.standard_normal((spec.m, spec.n))
        noise *= spec.noise_sigma
        raw += noise
        del noise
        if n_in < spec.n:
            outliers = rng.standard_normal((spec.m, spec.n - n_in))
            outliers *= spec.outlier_scale
            raw[:, n_in:] = outliers
    mask = np.zeros(spec.n, dtype=bool)
    mask[n_in:] = True
    return raw, basis, mask


def _overflow_error(spec: SynthSpec, raw: np.ndarray) -> ValueError:
    # The inlier columns overflow through noise_sigma, the rest through
    # outlier_scale; a non-finite row sum covers inf entries and sums alike.
    n_in = spec.n - spec.outlier_count
    with np.errstate(over="ignore", invalid="ignore"):
        inliers_overflow = not np.isfinite(raw[:, :n_in].sum(axis=1)).all()
    name = "noise_sigma" if inliers_overflow else "outlier_scale"
    return ValueError(f"{name} = {getattr(spec, name):g} is too large: the data overflow the float range")


def synth_subspace(spec: SynthSpec) -> tuple[DataMatrix, Projection, np.ndarray]:
    """Generate (centered data, true basis, outlier mask) from ``spec``."""
    raw, basis, mask = _draw_raw(spec)
    try:
        _center_rows(raw, out=raw)
    except ValueError:
        raise _overflow_error(spec, raw) from None
    return DataMatrix(raw, centered=True), basis, mask
