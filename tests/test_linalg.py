import numpy as np
import pytest

from repca import DataMatrix, DimensionMismatch, Projection, RankDeficient, SpectrumGapWarning, center_columns
from repca.linalg import SymmetricMatrix, procrustes_project, spectral_norm, top_r_eigvecs

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
        np.testing.assert_allclose(got.values, u @ vt, atol=1e-12)


def test_procrustes_maximizes_alignment():
    """No orthonormal matrix aligns better with the input than the result."""
    rng = np.random.default_rng(4)
    r = rng.standard_normal((7, 3))
    best = procrustes_project(r)
    score = float(np.sum(best.values * r))
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
    got = top_r_eigvecs(SymmetricMatrix(np.diag([5.0, 3.0, 1.0])), 2)
    np.testing.assert_allclose(np.abs(got.values), np.eye(3)[:, :2], atol=1e-12)
    # sign convention: leading significant entry is nonnegative
    assert got.values[0, 0] > 0
    assert got.values[1, 1] > 0


def test_top_r_eigvecs_satisfies_eigen_equation():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 10))
        a = rng.standard_normal((n, n))
        mat = SymmetricMatrix(a + a.T)
        r = int(rng.integers(1, n + 1))
        vecs = top_r_eigvecs(mat, r).values
        vals = np.sort(np.linalg.eigvalsh(mat.values))[::-1][:r]
        np.testing.assert_allclose(mat.values @ vecs, vecs * vals, atol=1e-8)


def test_top_r_eigvecs_is_deterministic():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((8, 8))
    mat = SymmetricMatrix(a + a.T)
    first = top_r_eigvecs(mat, 3).values
    second = top_r_eigvecs(mat, 3).values
    np.testing.assert_array_equal(first, second)


def test_top_r_eigvecs_warns_on_closed_gap():
    with pytest.warns(SpectrumGapWarning):
        top_r_eigvecs(SymmetricMatrix(np.eye(3)), 1)


def test_top_r_eigvecs_silent_on_clear_gap():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        top_r_eigvecs(SymmetricMatrix(np.diag([5.0, 3.0, 1.0])), 1)


def test_top_r_eigvecs_rejects_bad_r():
    mat = SymmetricMatrix(np.eye(3))
    with pytest.raises(DimensionMismatch):
        top_r_eigvecs(mat, 0)
    with pytest.raises(DimensionMismatch):
        top_r_eigvecs(mat, 4)


# ------------------------------------------------------------ spectral norm


def test_spectral_norm_known_values():
    assert spectral_norm(SymmetricMatrix(np.zeros((3, 3)))) == 0.0
    assert spectral_norm(SymmetricMatrix(np.diag([-3.0, 2.0]))) == 3.0
    assert spectral_norm(SymmetricMatrix(np.diag([4.0, 1.0]))) == 4.0


def test_spectral_norm_start_vector_in_nullspace():
    # A @ ones == 0: an iterative estimate started from the all-ones vector
    # would never leave the null space, so this pins the exact answer.
    mat = SymmetricMatrix([[1.0, -1.0], [-1.0, 1.0]])
    assert spectral_norm(mat) == pytest.approx(2.0, rel=1e-12)


def test_spectral_norm_matches_dense_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 20))
        a = rng.standard_normal((n, n))
        mat = SymmetricMatrix(a + a.T)
        want = float(np.max(np.abs(np.linalg.eigvalsh(mat.values))))
        assert spectral_norm(mat) == want


def test_spectral_norm_psd_scatter_inputs():
    rng = np.random.default_rng(8)
    for _ in range(50):
        x = rng.standard_normal((6, 30))
        mat = SymmetricMatrix(x @ x.T)
        want = float(np.max(np.abs(np.linalg.eigvalsh(mat.values))))
        assert spectral_norm(mat) == want
        assert want == pytest.approx(np.linalg.norm(x, ord=2) ** 2, rel=1e-12)
