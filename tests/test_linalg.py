import tracemalloc
import warnings

import numpy as np
import pytest

from repca import (DataMatrix, DimensionMismatch, Projection, RankDeficient, SpectrumGapWarning, SynthSpec,
                   center_columns, synth_subspace)
from repca.linalg import (CENTERED_ROW_SUM_RTOL, SymmetricMatrix, _fix_column_signs, procrustes_project,
                          spectral_norm, top_r_eigvecs)

# ---------------------------------------------------------------- wrappers


def test_data_matrix_basic_properties():
    data = DataMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert data.shape == (2, 3)
    assert data.n_features == 2
    assert data.n_samples == 3
    assert not data.centered


def test_data_matrix_copies_and_freezes():
    src = np.ones((2, 2))
    data = DataMatrix(src)
    src[0, 0] = 99.0
    assert data.values[0, 0] == 1.0
    with pytest.raises(ValueError):
        data.values[0, 0] = 7.0


def test_data_matrix_copies_to_row_major_order():
    x = np.arange(12.0).reshape(3, 4)
    data = DataMatrix(np.asfortranarray(x))
    assert data.values.flags.c_contiguous
    np.testing.assert_array_equal(data.values, x)


def test_data_matrix_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        DataMatrix(np.ones(3))
    with pytest.raises(DimensionMismatch):
        DataMatrix(np.ones((2, 0)))
    with pytest.raises(ValueError):
        DataMatrix([[1.0, np.nan]])
    with pytest.raises(ValueError):
        DataMatrix([[np.inf, 1.0]])


def test_data_matrix_centered_flag_is_checked():
    ok = np.array([[1.0, -1.0], [0.5, -0.5]])
    DataMatrix(ok, centered=True)
    with pytest.raises(ValueError):
        DataMatrix([[1.0, 2.0]], centered=True)


def test_data_matrix_centered_check_scales_by_the_largest_magnitude():
    # The largest-magnitude entry is negative: the tolerance is n * 9 * rtol.
    tol = CENTERED_ROW_SUM_RTOL * 3 * 9.0
    DataMatrix([[-9.0, 4.0, 5.0 + 0.5 * tol]], centered=True)
    with pytest.raises(ValueError, match="matrix marked centered but a row sums to"):
        DataMatrix([[-9.0, 4.0, 5.0 + 2.0 * tol]], centered=True)
    tol = CENTERED_ROW_SUM_RTOL * 2 * 9.0
    DataMatrix([[9.0, -9.0 + 0.5 * tol]], centered=True)
    with pytest.raises(ValueError, match="tolerance"):
        DataMatrix([[9.0, -9.0 + 2.0 * tol]], centered=True)


def test_data_matrix_centered_check_on_zeros():
    DataMatrix(np.zeros((3, 4)), centered=True)
    DataMatrix(np.full((2, 2), -0.0), centered=True)
    with pytest.raises(ValueError, match="a row sums to 1.000e-300"):
        DataMatrix([[0.0, 0.0], [1e-300, 0.0]], centered=True)


def test_data_matrix_centered_check_survives_overflowing_row_sums():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="a row sums to inf"):
            DataMatrix([[1e308, 1e308, -1e300]], centered=True)


def test_center_columns_refuses_overflowing_row_sums():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="row sum overflows"):
            center_columns(DataMatrix([[1e308, 1e308, 1.0], [1.0, 2.0, 3.0]]))
        # the sum and the mean -5e307 are finite, but 1.5e308 + 5e307 is not
        with pytest.raises(ValueError, match="centered entry overflows"):
            center_columns(DataMatrix([[1.0, 2.0, 3.0], [1.5e308, -1.5e308, -1.5e308]]))
        centered, mean = center_columns(DataMatrix([[1e307, 1e307, -1e307]]))
    assert mean[0] == 1e307 / 3 and centered.values[0, 2] == -1e307 - 1e307 / 3


def _peak_in_arrays(call, m, n):
    """Peak traced allocation of ``call()``, in m-by-n float64 arrays."""
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (m * n * 8)


@pytest.mark.parametrize("door, budget", (
    ("synth_subspace", 2.5), ("DataMatrix_centered", 1.25), ("center_columns", 2.25),
))
def test_door_allocations_stay_within_budget(door, budget):
    """Each door function allocates every m-by-n float array at most once,
    plus the boolean of its finiteness scan."""
    m, n = 100, 4000
    spec = SynthSpec(m=m, n=n, k_true=5, noise_sigma=0.1, outlier_frac=0.1, outlier_scale=5.0, seed=0)
    centered = synth_subspace(spec)[0].values
    raw = DataMatrix(centered + 1.0)
    call = {"synth_subspace": lambda: synth_subspace(spec),
            "DataMatrix_centered": lambda: DataMatrix(centered, centered=True),
            "center_columns": lambda: center_columns(raw)}[door]
    assert _peak_in_arrays(call, m, n) <= budget


def test_center_columns_removes_means():
    rng = np.random.default_rng(0)
    data = DataMatrix(rng.standard_normal((5, 40)) + 3.0)
    centered, means = center_columns(data)
    assert centered.centered
    np.testing.assert_allclose(means, data.values.mean(axis=1))
    np.testing.assert_allclose(centered.values.sum(axis=1), 0.0, atol=1e-12)


def test_center_columns_is_idempotent():
    data = DataMatrix(np.array([[1.0, -1.0], [2.0, -2.0]]), centered=True)
    again, means = center_columns(data)
    assert again is data
    np.testing.assert_array_equal(means, 0.0)


def test_projection_validates_orthonormality():
    q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((6, 3)))
    Projection(q)
    with pytest.raises(ValueError):
        Projection(2.0 * q)
    with pytest.raises(DimensionMismatch):
        Projection(np.ones((2, 3)))
    basis = Projection(q)
    assert basis.m == 6
    assert basis.k == 3


def test_symmetric_matrix_symmetrizes_exactly():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 4))
    sym_input = a + a.T
    jittered = sym_input + 1e-14 * rng.standard_normal((4, 4))
    stored = SymmetricMatrix(jittered).values
    np.testing.assert_array_equal(stored, stored.T)


def test_symmetric_matrix_rejects_asymmetry():
    with pytest.raises(ValueError):
        SymmetricMatrix([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(DimensionMismatch):
        SymmetricMatrix(np.ones((2, 3)))


# --------------------------------------------------------------- procrustes


def test_procrustes_matches_svd_polar_factor():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = int(rng.integers(2, 12))
        k = int(rng.integers(1, m + 1))
        r = rng.standard_normal((m, k))
        u, _, vt = np.linalg.svd(r, full_matrices=False)
        got = procrustes_project(r)
        np.testing.assert_allclose(got, u @ vt, atol=1e-12)


def test_procrustes_maximizes_alignment():
    """No orthonormal matrix aligns better with the input than the result."""
    rng = np.random.default_rng(4)
    r = rng.standard_normal((7, 3))
    best = procrustes_project(r)
    score = float(np.sum(best * r))
    for _ in range(200):
        q, _ = np.linalg.qr(rng.standard_normal((7, 3)))
        assert float(np.sum(q * r)) <= score + 1e-9


def test_procrustes_rejects_rank_deficiency():
    col = np.arange(1.0, 5.0).reshape(4, 1)
    with pytest.raises(RankDeficient):
        procrustes_project(np.hstack([col, col]))
    with pytest.raises(RankDeficient):
        procrustes_project(np.zeros((3, 2)))


# ------------------------------------------------------------ eigenvectors


def test_top_r_eigvecs_on_diagonal_matrix():
    got, _ = top_r_eigvecs(np.diag([5.0, 3.0, 1.0]), 2)
    np.testing.assert_allclose(np.abs(got), np.eye(3)[:, :2], atol=1e-12)


def test_top_r_eigvecs_are_lapacks_columns_in_descending_order():
    """The top r columns of ``eigh``, largest eigenvalue first, in the signs
    LAPACK gave them, as a C-ordered copy; the sign convention is left to
    ``_fix_column_signs``, which makes each leading entry nonnegative."""
    rng = np.random.default_rng(7)
    for m in range(1, 9):
        a = rng.standard_normal((m, m))
        mat = a + a.T
        for r in range(1, m + 1):
            got, _ = top_r_eigvecs(mat, r)
            assert got.flags.c_contiguous and got.flags.owndata
            assert got.tobytes() == np.ascontiguousarray(np.linalg.eigh(mat)[1][:, ::-1][:, :r]).tobytes()
    signed = _fix_column_signs(top_r_eigvecs(np.diag([5.0, 3.0, 1.0]), 2)[0])
    assert signed[0, 0] > 0
    assert signed[1, 1] > 0


def test_top_r_eigvecs_satisfies_eigen_equation():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 10))
        a = rng.standard_normal((n, n))
        mat = a + a.T
        r = int(rng.integers(1, n + 1))
        vecs, _ = top_r_eigvecs(mat, r)
        vals = np.sort(np.linalg.eigvalsh(mat))[::-1][:r]
        np.testing.assert_allclose(mat @ vecs, vecs * vals, atol=1e-8)


def test_top_r_eigvecs_is_deterministic():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((8, 8))
    mat = a + a.T
    first, _ = top_r_eigvecs(mat, 3)
    second, _ = top_r_eigvecs(mat, 3)
    np.testing.assert_array_equal(first, second)


def test_top_r_eigvecs_flags_closed_gap():
    """The closed gap comes back as a flag; nothing is warned."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, gap_closed = top_r_eigvecs(np.eye(3), 1)
    assert gap_closed is True


def test_top_r_eigvecs_clear_gap_unflagged():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (1, 2, 3):  # r = m has no cut, so no gap to close
            _, gap_closed = top_r_eigvecs(np.diag([5.0, 3.0, 1.0]), r)
            assert gap_closed is False
    assert top_r_eigvecs(np.eye(3), 3)[1] is False


def test_fix_column_signs_matches_the_column_loop():
    """The vectorized sign rule flips the same columns as the per-column
    loop it replaced, bit for bit, and returns a C-ordered array."""

    def column_loop(vecs):
        out = np.array(vecs, copy=True)
        for j in range(out.shape[1]):
            col = out[:, j]
            lead = np.nonzero(np.abs(col) > 1e-12)[0]
            if lead.size and col[lead[0]] < 0:
                out[:, j] = -col
        return out

    rng = np.random.default_rng(11)
    for _ in range(100):
        m = int(rng.integers(1, 9))
        r = int(rng.integers(1, m + 1))
        vecs = rng.standard_normal((m, r))
        vecs[: int(rng.integers(0, m + 1))] *= rng.choice([0.0, 1e-13, -1e-13])
        vecs[:, int(rng.integers(0, r))] *= rng.choice([1.0, 0.0, -0.0])
        for view in (vecs, np.asfortranarray(vecs)[:, ::-1]):
            got = _fix_column_signs(view)
            assert got.flags.c_contiguous
            assert got.tobytes() == np.ascontiguousarray(column_loop(view)).tobytes()


def test_top_r_eigvecs_rejects_bad_r():
    mat = np.eye(3)
    with pytest.raises(DimensionMismatch):
        top_r_eigvecs(mat, 0)
    with pytest.raises(DimensionMismatch):
        top_r_eigvecs(mat, 4)


# ------------------------------------------------------------ spectral norm


def test_spectral_norm_known_values():
    assert spectral_norm(np.zeros((3, 3))) == 0.0
    # a zero matrix gives +0.0, whatever the sign of its zeros
    for n in (1, 2, 3):
        assert not np.signbit(spectral_norm(np.zeros((n, n))))
        assert not np.signbit(spectral_norm(np.full((n, n), -0.0)))
    assert spectral_norm(np.diag([-3.0, 2.0])) == 3.0
    assert spectral_norm(np.diag([4.0, 1.0])) == 4.0


def test_spectral_norm_start_vector_in_nullspace():
    # A @ ones == 0: an iterative estimate started from the all-ones vector
    # would never leave the null space, so this pins the exact answer.
    mat = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert spectral_norm(mat) == pytest.approx(2.0, rel=1e-12)


def test_spectral_norm_matches_dense_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 20))
        a = rng.standard_normal((n, n))
        mat = a + a.T
        want = float(np.max(np.abs(np.linalg.eigvalsh(mat))))
        assert spectral_norm(mat) == want


def test_spectral_norm_psd_scatter_inputs():
    rng = np.random.default_rng(8)
    for _ in range(50):
        x = rng.standard_normal((6, 30))
        mat = x @ x.T
        want = float(np.max(np.abs(np.linalg.eigvalsh(mat))))
        assert spectral_norm(mat) == want
        assert want == pytest.approx(np.linalg.norm(x, ord=2) ** 2, rel=1e-12)


# ------------------------------------------------------------ input checks


def test_helpers_check_shape_and_finiteness():
    """The checks the loop's helpers keep: a square input for the spectral
    helpers, and no non-finite entry (an overflowed scatter) anywhere."""
    for helper in (spectral_norm, lambda a: top_r_eigvecs(a, 1)):
        for shape in ((2, 3), (3,), (1, 2, 2)):
            with pytest.raises(DimensionMismatch):
                helper(np.ones(shape))
        for bad in (np.inf, -np.inf, np.nan):
            mat = np.eye(3)
            mat[1, 1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                helper(mat)
    with pytest.raises(ValueError, match="non-finite"):
        procrustes_project(np.array([[1.0, 0.0], [0.0, np.inf], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        procrustes_project(np.ones(3))
