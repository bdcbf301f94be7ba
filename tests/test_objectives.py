import numpy as np
import pytest

import repca.objectives
from repca import DataMatrix, DimensionMismatch, InvalidSpec, NormSpec, Projection, objective_value
from repca.objectives import _basis_stats, column_stats, objective_from_stats, weighted_scatter, weights_from_stats

E1 = Projection(np.array([[1.0], [0.0]]))
EPS = 1e-10  # a clamp on residual column norms
L1 = NormSpec.l1()


def _tangent(rng, basis):
    """Random unit direction tangent to the orthonormality constraint."""
    w = basis.values
    amb = rng.standard_normal(w.shape)
    sym = 0.5 * (w.T @ amb + amb.T @ w)
    delta = amb - w @ sym
    return delta / np.linalg.norm(delta)


def _surrogate_slope(x, w, d, s):
    """-s X diag(d) X^T W, in factored form so the scatter is never built."""
    return -s * (x @ (d[:, None] * (x.T @ w)))


# ----------------------------------------------------------------- NormSpec


def test_norm_spec_kinds_and_factories():
    assert NormSpec.fro().kind == "fro"
    assert NormSpec.l1().kind == "l1"
    spec = NormSpec.l2p(1.5)
    assert spec.kind == "l2p"
    assert spec.p == 1.5


def test_norm_spec_validates_p():
    NormSpec.l2p(2.0)
    NormSpec.l2p(0.1)
    with pytest.raises(InvalidSpec):
        NormSpec.l2p(0.0)
    with pytest.raises(InvalidSpec):
        NormSpec.l2p(2.1)
    with pytest.raises(InvalidSpec):
        NormSpec.l2p(-1.0)
    with pytest.raises(InvalidSpec):
        NormSpec("l1", p=1.0)
    with pytest.raises(InvalidSpec):
        NormSpec("l2p")
    with pytest.raises(InvalidSpec):
        NormSpec("nuclear")


@pytest.mark.parametrize("make", (
    lambda: NormSpec.l2p(True), lambda: NormSpec("l2p", True), lambda: NormSpec("l2p", "0.5"),
    lambda: NormSpec.l2p("1"),
), ids=("l2p-true", "kind-true", "kind-string", "l2p-string"))
def test_norm_exponent_must_be_a_number(make):
    with pytest.raises(InvalidSpec, match="^p must be a number"):
        make()
    for p in (np.float32(0.5), np.int64(1), 1):  # numpy numbers and ints read as the float
        assert NormSpec.l2p(p).p == float(p) and type(NormSpec.l2p(p).p) is float


# ----------------------------------------------------------------- residual


def test_residual_is_orthogonal_to_basis():
    """The residual every round reduces, X - W (W^T X), is orthogonal to W:
    its squared column norms are ||x_i||^2 - ||W^T x_i||^2.  X is left
    unchanged."""
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = int(rng.integers(2, 10))
        n = int(rng.integers(1, 15))
        k = int(rng.integers(1, m + 1))
        x = rng.standard_normal((m, n))
        before = x.copy()
        q, _ = np.linalg.qr(rng.standard_normal((m, k)))
        stats, t = _basis_stats(x, q, L1)
        np.testing.assert_allclose(stats.sq, (x * x).sum(axis=0) - (t * t).sum(axis=0), atol=1e-10)
        assert np.array_equal(x, before)


@pytest.mark.parametrize("m, n, k", ((10, 200, 2), (300, 40, 3), (50, 999, 4), (7, 13, 7)))
def test_basis_stats_blocks_match_the_whole_residual(monkeypatch, m, n, k):
    """The residual reduced one block of columns at a time has the column
    sums of the whole residual, for block budgets of 1, 3, 7, n - 1, n and
    n + 1 columns; bit for bit when one block holds every column.  Narrow
    blocks can round differently: a one-column product takes BLAS's gemv
    path.  T is W^T X bit for bit."""
    rng = np.random.default_rng(m * n)
    x = rng.standard_normal((m, n))
    w, _ = np.linalg.qr(rng.standard_normal((m, k)))
    whole = column_stats(x - w @ (w.T @ x), L1)
    tol = 1e-13 * (x * x).sum(axis=0)
    tol_abs = 1e-13 * np.abs(x).sum(axis=0)
    monkeypatch.setattr(repca.objectives, "_BLOCK_MIN_COLS", 1)
    for width in (1, 3, 7, n - 1, n, n + 1):
        monkeypatch.setattr(repca.objectives, "_BLOCK_BYTES", 8 * m * width)
        for norm in (L1, NormSpec.l2p(0.5)):
            stats, t = _basis_stats(x, w, norm)
            assert t.tobytes() == (w.T @ x).tobytes()
            assert np.all(np.abs(stats.sq - whole.sq) <= tol)
            if norm.kind == "l1":
                assert np.all(np.abs(stats.abs - whole.abs) <= tol_abs)
            else:
                assert stats.abs is None
            if width >= n:
                assert stats.sq.tobytes() == whole.sq.tobytes()
                assert norm.kind != "l1" or stats.abs.tobytes() == whole.abs.tobytes()


def test_residual_dimension_mismatch():
    data = DataMatrix(np.ones((3, 2)))
    with pytest.raises(DimensionMismatch):
        objective_value(data, E1, L1)


# ------------------------------------------------------------------ weights


def test_weights_l1_hand_value():
    # column (3, -4): entry-sum 7, squared norm 25
    resid = np.array([[3.0], [-4.0]])
    np.testing.assert_allclose(weights_from_stats(column_stats(resid, L1), L1, EPS), [7.0 / 25.0])


def test_weights_l1_zero_column_is_zero():
    resid = np.array([[0.0, 3.0], [0.0, -4.0]])
    w = weights_from_stats(column_stats(resid, L1), L1, EPS)
    assert w[0] == 0.0
    assert w[1] == pytest.approx(0.28)


def test_weights_l2p_hand_values():
    resid = np.array([[3.0], [4.0]])
    for p, want in ((1.0, 0.2), (2.0, 2.0), (0.5, 0.5 * 5.0 ** (-1.5))):
        norm = NormSpec.l2p(p)
        np.testing.assert_allclose(weights_from_stats(column_stats(resid, norm), norm, EPS), [want])


def test_weights_l2p_clamps_tiny_columns():
    resid = np.zeros((2, 1))
    norm = NormSpec.l2p(1.0)
    assert weights_from_stats(column_stats(resid, norm), norm, 1e-10)[0] == pytest.approx(1e10)
    # p = 2 has exponent zero, so the clamp changes nothing
    norm = NormSpec.l2p(2.0)
    assert weights_from_stats(column_stats(resid, norm), norm, EPS)[0] == pytest.approx(2.0)


def test_weights_are_nonnegative():
    rng = np.random.default_rng(1)
    resid = rng.standard_normal((5, 30))
    assert np.all(weights_from_stats(column_stats(resid, L1), L1, EPS) >= 0.0)
    for p in (0.5, 1.0, 1.7, 2.0):
        norm = NormSpec.l2p(p)
        assert np.all(weights_from_stats(column_stats(resid, norm), norm, EPS) > 0.0)


# --------------------------------------------------------------- objectives


def test_objective_hand_values():
    data = DataMatrix(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert objective_value(data, E1, NormSpec.l1()) == pytest.approx(7.0)
    assert objective_value(data, E1, NormSpec.l2p(1.0)) == pytest.approx(7.0)
    assert objective_value(data, E1, NormSpec.l2p(2.0)) == pytest.approx(25.0)
    assert objective_value(data, E1, NormSpec.fro()) == pytest.approx(25.0)


def test_trace_identity_for_entrywise_sum():
    """tr(Y D Y^T) with the entrywise weights reproduces the entrywise sum."""
    rng = np.random.default_rng(2)
    for _ in range(50):
        y = rng.standard_normal((int(rng.integers(2, 20)), int(rng.integers(2, 20))))
        d = weights_from_stats(column_stats(y, L1), L1, EPS)
        tr = float(np.trace((y * d) @ y.T))
        assert tr == pytest.approx(float(np.abs(y).sum()), rel=1e-12)


def test_trace_identity_for_columnwise_sum():
    # tr(Y D Y^T) = p * sum_i ||y_i||^p with the columnwise weights
    rng = np.random.default_rng(3)
    for p in (0.5, 1.0, 1.5, 2.0):
        y = rng.standard_normal((6, 25))
        norm = NormSpec.l2p(p)
        d = weights_from_stats(column_stats(y, norm), norm, EPS)
        tr = float(np.trace((y * d) @ y.T))
        want = p * float((np.linalg.norm(y, axis=0) ** p).sum())
        assert tr == pytest.approx(want, rel=1e-12)


def test_weighted_scatter_formula_and_psd():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 12))
    d = rng.uniform(0.1, 2.0, size=12)
    scatter = weighted_scatter(DataMatrix(x), d)
    want = sum(d[i] * np.outer(x[:, i], x[:, i]) for i in range(12))
    np.testing.assert_allclose(scatter, want, atol=1e-12)
    assert np.linalg.eigvalsh(scatter).min() >= -1e-12
    # Exactly symmetric, with some weights exactly zero, at several shapes.
    for m, n in ((2, 5), (10, 200), (17, 31), (40, 9)):
        x = rng.standard_normal((m, n))
        d = rng.uniform(0.0, 3.0, size=n)
        d[rng.permutation(n)[: n // 4]] = 0.0
        m_d = weighted_scatter(DataMatrix(x), d)
        assert np.array_equal(m_d, m_d.T)
        want = (x * d) @ x.T
        assert np.linalg.norm(m_d - want) <= 1e-13 * np.linalg.norm(want)
        assert np.linalg.eigvalsh(m_d).min() >= -1e-12 * np.abs(m_d).max()


def test_weighted_scatter_rejects_bad_weights():
    data = DataMatrix(np.ones((2, 3)))
    with pytest.raises(DimensionMismatch):
        weighted_scatter(data, np.ones(4))
    for bad in (-1e-300, np.nan):
        with pytest.raises(ValueError, match="nonnegative"):
            weighted_scatter(data, np.array([1.0, bad, 2.0]))


def test_column_stats_match_textbook_losses_and_weights():
    rng = np.random.default_rng(8)
    for _ in range(20):
        r = rng.standard_normal((int(rng.integers(1, 30)), int(rng.integers(1, 60))))
        r[:, 0] = 0.0  # one column at the clamp
        l1 = NormSpec.l1()
        stats = column_stats(r, l1)
        assert objective_from_stats(stats, l1) == pytest.approx(np.abs(r).sum(), rel=1e-14)
        assert objective_from_stats(stats, NormSpec.fro()) == pytest.approx((r * r).sum(), rel=1e-14)
        want = np.abs(r).sum(axis=0) / np.maximum((r * r).sum(axis=0), EPS * EPS)
        np.testing.assert_allclose(weights_from_stats(stats, l1, EPS), want, rtol=1e-14, atol=0)
        for p in (0.5, 1.0, 1.5, 2.0):
            norm = NormSpec.l2p(p)
            stats = column_stats(r, norm)
            col_norms = np.sqrt((r * r).sum(axis=0))
            assert objective_from_stats(stats, norm) == pytest.approx((col_norms ** p).sum(), rel=1e-14)
            want = p * np.maximum(col_norms, EPS) ** (p - 2.0)
            np.testing.assert_allclose(weights_from_stats(stats, norm, EPS), want, rtol=1e-14, atol=0)
    with pytest.raises(InvalidSpec):
        weights_from_stats(stats, NormSpec.fro(), EPS)


# ---------------------------------------------------------------- gradients


def test_gradient_matches_surrogate_slope_entrywise():
    """Along constraint-tangent directions -2 X diag(d) X^T W is the slope of
    the weighted quadratic frozen at the current residual."""
    rng = np.random.default_rng(5)
    for _ in range(30):
        m = int(rng.integers(3, 12))
        n = int(rng.integers(4, 20))
        k = int(rng.integers(1, m))
        x = rng.standard_normal((m, n))
        q, _ = np.linalg.qr(rng.standard_normal((m, k)))
        basis = Projection(q)
        d = weights_from_stats(_basis_stats(x, q, L1)[0], L1, EPS)
        g = _surrogate_slope(x, q, d, 2.0)
        delta = _tangent(rng, basis)

        def surrogate(w):
            r = x - w @ (w.T @ x)
            return float(np.sum((r * d) * r))

        h = 1e-6
        fd = (surrogate(q + h * delta) - surrogate(q - h * delta)) / (2 * h)
        assert float(np.sum(g * delta)) == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_gradient_matches_true_columnwise_loss():
    """With the columnwise weights, -X diag(d) X^T W is the slope of the
    l2,p loss itself."""
    rng = np.random.default_rng(6)
    for p in (0.5, 1.0, 1.5, 2.0):
        for _ in range(10):
            m, n, k = 8, 30, 2
            x = rng.standard_normal((m, n))
            q, _ = np.linalg.qr(rng.standard_normal((m, k)))
            basis = Projection(q)
            norm = NormSpec.l2p(p)
            d = weights_from_stats(_basis_stats(x, q, norm)[0], norm, EPS)
            g = _surrogate_slope(x, q, d, 1.0)
            delta = _tangent(rng, basis)

            def loss(w):
                r = x - w @ (w.T @ x)
                return float((np.sum(r * r, axis=0) ** (p / 2.0)).sum())

            h = 1e-6
            fd = (loss(q + h * delta) - loss(q - h * delta)) / (2 * h)
            assert float(np.sum(g * delta)) == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_gradient_hand_value():
    # X = I2, W = e1: residual keeps only the second coordinate, so the
    # second sample carries weight 1 (l1) and the scatter is diag(0, 1).
    data = DataMatrix(np.eye(2))
    d = weights_from_stats(_basis_stats(data.values, E1.values, L1)[0], L1, EPS)
    np.testing.assert_allclose(d, [0.0, 1.0])
    g = _surrogate_slope(data.values, E1.values, d, 2.0)
    np.testing.assert_allclose(g, [[0.0], [0.0]])
