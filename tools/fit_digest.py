#!/usr/bin/env python3
"""Print one line, ``<fits> <sha256>``, that pins the bits of a fixed set of fits.

usage: python tools/fit_digest.py

Two source trees whose fits agree bit for bit print the same line, so a
refactor that must not change any fit is checked by running this once with
each tree's ``src`` first on ``PYTHONPATH``.  Without one, the ``src`` of
this checkout is used.

The fit set: the 8 planted problems of the benchmark's small_grid size
(10x200, k = 2, noise 0.1, 10% outliers at scale 5, data seeds 0-7), each
fitted with every variant, the l1, l2p(1) and l2p(0.5) losses, and the
vanilla and the random start (seed 3); plus one fit per variant with a
callback, whose every call is hashed too; plus the fits that count closed
eigengaps: the fro fit of a 2x4 matrix with X X^T = 2 I at k = 1, and
one l1 fit per variant of the symmetric four-point 2x4 matrix, whose
first reweighted scatter is isotropic; plus one fit per variant under
l1 and l2p(1), from the vanilla start, of a 50x6000 problem (k = 3, data
seed 1, otherwise as above) whose l1 residual spans several column
blocks.  For each fit the digest covers the basis, the objective trace,
``iterations``, ``converged``, ``monotone_violations``,
``spectrum_gap_events`` and ``guarded_steps``.
"""
from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
from repca import DataMatrix, NormSpec, SolverConfig, SynthSpec, fit, synth_subspace  # noqa: E402

VARIANTS = ("pgd", "momentum", "irls")
NORMS = (NormSpec.l1(), NormSpec.l2p(1.0), NormSpec.l2p(0.5))
STARTS = (("vanilla", 0), ("random", 3))
K = 2
CLOSED_GAP = DataMatrix(np.array([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]]), centered=True)
FOUR_POINTS = DataMatrix(np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, -1.0, 1.0]]), centered=True)


def _problem(seed: int, m: int = 10, n: int = 200, k: int = K):
    spec = SynthSpec(m=m, n=n, k_true=k, noise_sigma=0.1, outlier_frac=0.1,
                     outlier_scale=5.0, seed=seed)
    return synth_subspace(spec)[0]


def _update(h, result) -> None:
    h.update(result.projection.values.tobytes())
    h.update(result.objective_trace.tobytes())
    h.update(repr((result.iterations, result.converged, result.monotone_violations,
                   result.spectrum_gap_events, result.guarded_steps)).encode())


def main() -> int:
    h = hashlib.sha256()
    fits = 0
    problems = [_problem(seed) for seed in range(8)]
    for data in problems:
        for variant in VARIANTS:
            for norm in NORMS:
                for init, seed in STARTS:
                    config = SolverConfig(variant=variant, init=init, seed=seed)
                    _update(h, fit(data, K, norm, config))
                    fits += 1
    for variant in VARIANTS:
        calls = []
        result = fit(problems[0], K, NORMS[0], SolverConfig(variant=variant),
                     callback=lambda it, basis, obj: calls.append((it, basis.values.tobytes(), obj)))
        for it, values, obj in calls:
            h.update(repr((it, obj)).encode())
            h.update(values)
        _update(h, result)
        fits += 1
    _update(h, fit(CLOSED_GAP, 1, NormSpec.fro()))
    fits += 1
    for variant in VARIANTS:
        _update(h, fit(FOUR_POINTS, 1, NormSpec.l1(), SolverConfig(variant=variant, max_iter=20)))
        fits += 1
    multi_block = _problem(1, m=50, n=6000, k=3)
    for variant in VARIANTS:
        for norm in NORMS[:2]:
            _update(h, fit(multi_block, 3, norm, SolverConfig(variant=variant)))
            fits += 1
    print(fits, h.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
