import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repca
from repca import Projection, principal_angles

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fit_digest.py"


def test_fit_digest_is_the_same_in_every_process():
    """Fits are bit-for-bit deterministic across processes, whatever the
    string-hash seed: ``rerun`` relies on it, and refactors are checked by
    comparing this digest with the parent's."""
    lines = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=str(Path(repca.__file__).resolve().parents[1]))
        run = subprocess.run([sys.executable, str(TOOL)], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert run.stderr == ""
        lines.append(run.stdout)
    assert re.fullmatch(r"157 [0-9a-f]{64}\n", lines[0]), lines[0]
    assert lines[0] == lines[1]


# One irls l1 fit of a 300x300 planted problem, large enough that BLAS
# splits its products across threads; prints the basis and the trace as hex.
THREADED_FIT = """
import numpy as np
from repca import NormSpec, SolverConfig, SynthSpec, fit, synth_subspace
spec = SynthSpec(m=300, n=300, k_true=3, noise_sigma=0.1, outlier_frac=0.1, outlier_scale=5.0)
result = fit(synth_subspace(spec)[0], 3, NormSpec.l1(), SolverConfig(variant="irls"))
print(result.projection.values.tobytes().hex())
print(result.objective_trace.tobytes().hex())
"""
# README's stated agreement between BLAS thread counts.
THREADS_ANGLE_RAD = 1e-7
THREADS_OBJECTIVE_RTOL = 1e-10


@pytest.fixture(scope="module")
def threaded_fits():
    """Thread count -> the outputs of two processes pinned to it."""
    src = str(Path(repca.__file__).resolve().parents[1])
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        outputs[threads] = [subprocess.run([sys.executable, "-c", THREADED_FIT], env=env, capture_output=True,
                                           text=True, timeout=120, check=True).stdout for _ in range(2)]
    return outputs


def test_fit_bits_repeat_under_one_thread_count(threaded_fits):
    for threads, (first, second) in threaded_fits.items():
        assert first == second, f"two runs under {threads} BLAS threads differ"


def test_fit_agrees_across_thread_counts(threaded_fits):
    """Bits may change with the BLAS thread count; the fit may not."""
    if (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()) < 2:
        pytest.skip("one core: BLAS runs one thread under either count, so the "
                    "cross-count comparison cannot run here")
    (w1, j1), (w2, j2) = ([np.frombuffer(bytes.fromhex(line)) for line in threaded_fits[t][0].split()]
                          for t in ("1", "2"))
    angle = principal_angles(Projection(w1.reshape(300, 3)), Projection(w2.reshape(300, 3)))[-1]
    assert angle <= THREADS_ANGLE_RAD
    assert abs(j1[-1] - j2[-1]) <= THREADS_OBJECTIVE_RTOL * j1[-1]
