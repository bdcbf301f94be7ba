"""A fit moves with the data under each transformation its loss ignores.

Reordering the samples leaves every loss unchanged, rotating the features
by an orthogonal Q leaves the columnwise l2p loss unchanged (the basis
maps to Q W), and scaling the data by c > 0 scales J by c or c^p.  The
fitted subspace must then follow the data up to rounding.  The scale
cases hold because the weight clamp is set relative to the data's RMS
column norm: with an absolute clamp, scaling by 1e-8 moved a pgd
l2p(0.5) fit by 0.031 rad.
"""
import numpy as np
import pytest

from repca import DataMatrix, NormSpec, Projection, SolverConfig, SynthSpec, fit, principal_angles, synth_subspace
from repca.linalg import procrustes_project
from repca.solvers import VARIANTS

BOUND_RAD = 1e-8
DRAWS = range(6)
NORMS = (NormSpec.l1(), NormSpec.l2p(1.0), NormSpec.l2p(0.5))


def _draw(seed):
    """The benchmark's small_grid problem: 10x200, k = 2, 10% outliers."""
    spec = SynthSpec(m=10, n=200, k_true=2, noise_sigma=0.1, outlier_frac=0.1,
                     outlier_scale=5.0, seed=seed)
    return synth_subspace(spec)[0].values


def _reorder(x, rng):
    return x[:, rng.permutation(x.shape[1])], np.eye(x.shape[0])


def _rotate(x, rng):
    q = procrustes_project(rng.standard_normal((x.shape[0], x.shape[0])))
    return q @ x, q


def _scale(c):
    return lambda x, rng: (c * x, np.eye(x.shape[0]))


# name: (transformation (x, rng) -> (new x, Q the basis maps through), losses it keeps)
CASES = {
    "reorder": (_reorder, NORMS),
    "rotate": (_rotate, NORMS[1:]),  # l1 sums entries, so it depends on the axes
    "scale1e-8": (_scale(1e-8), NORMS),
    "scale1e-3": (_scale(1e-3), NORMS),
    "scale1e3": (_scale(1e3), NORMS),
}


@pytest.mark.parametrize("case", CASES)
def test_fit_follows_the_data(case):
    transform, norms = CASES[case]
    worst, where = 0.0, None
    for seed in DRAWS:
        x = _draw(seed)
        moved, q = transform(x, np.random.default_rng([seed, 1]))
        data, data_moved = DataMatrix(x, centered=True), DataMatrix(moved, centered=True)
        for variant in VARIANTS:
            for norm in norms:
                config = SolverConfig(variant=variant)
                want = Projection(procrustes_project(q @ fit(data, 2, norm, config).projection.values))
                angle = float(principal_angles(fit(data_moved, 2, norm, config).projection, want)[-1])
                if angle > worst:
                    worst, where = angle, (seed, variant, norm)
    assert worst <= BOUND_RAD, (worst, where)
