import numpy as np
import pytest

from repca import DataMatrix, DimensionMismatch, InvalidSpec, NormSpec, Projection, objective_value
from repca.objectives import (
    column_stats,
    objective_from_stats,
    residual,
    weighted_scatter,
    weights_from_stats,
    weights_l1,
    weights_l2p,
)

E1 = Projection(np.array([[1.0], [0.0]]))


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


# ----------------------------------------------------------------- residual


def test_residual_is_orthogonal_to_basis():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = int(rng.integers(2, 10))
        n = int(rng.integers(1, 15))
        k = int(rng.integers(1, m + 1))
        data = DataMatrix(rng.standard_normal((m, n)))
        q, _ = np.linalg.qr(rng.standard_normal((m, k)))
        r = residual(data, Projection(q))
        np.testing.assert_allclose(q.T @ r, 0.0, atol=1e-10)


def test_residual_dimension_mismatch():
    data = DataMatrix(np.ones((3, 2)))
    with pytest.raises(DimensionMismatch):
        residual(data, E1)


# ------------------------------------------------------------------ weights


def test_weights_l1_hand_value():
    # column (3, -4): entry-sum 7, squared norm 25
    resid = np.array([[3.0], [-4.0]])
    np.testing.assert_allclose(weights_l1(resid), [7.0 / 25.0])


def test_weights_l1_zero_column_is_zero():
    resid = np.array([[0.0, 3.0], [0.0, -4.0]])
    w = weights_l1(resid)
    assert w[0] == 0.0
    assert w[1] == pytest.approx(0.28)


def test_weights_l2p_hand_values():
    resid = np.array([[3.0], [4.0]])
    np.testing.assert_allclose(weights_l2p(resid, 1.0), [0.2])
    np.testing.assert_allclose(weights_l2p(resid, 2.0), [2.0])
    np.testing.assert_allclose(weights_l2p(resid, 0.5), [0.5 * 5.0 ** (-1.5)])


def test_weights_l2p_clamps_tiny_columns():
    resid = np.zeros((2, 1))
    assert weights_l2p(resid, 1.0, eps=1e-10)[0] == pytest.approx(1e10)
    # p = 2 has exponent zero, so the clamp changes nothing
    assert weights_l2p(resid, 2.0)[0] == pytest.approx(2.0)


def test_weights_are_nonnegative():
    rng = np.random.default_rng(1)
    resid = rng.standard_normal((5, 30))
    assert np.all(weights_l1(resid) >= 0.0)
    for p in (0.5, 1.0, 1.7, 2.0):
        assert np.all(weights_l2p(resid, p) > 0.0)


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
        d = weights_l1(y)
        tr = float(np.trace((y * d) @ y.T))
        assert tr == pytest.approx(float(np.abs(y).sum()), rel=1e-12)


def test_trace_identity_for_columnwise_sum():
    # tr(Y D Y^T) = p * sum_i ||y_i||^p with the columnwise weights
    rng = np.random.default_rng(3)
    for p in (0.5, 1.0, 1.5, 2.0):
        y = rng.standard_normal((6, 25))
        d = weights_l2p(y, p)
        tr = float(np.trace((y * d) @ y.T))
        want = p * float((np.linalg.norm(y, axis=0) ** p).sum())
        assert tr == pytest.approx(want, rel=1e-12)


def test_weighted_scatter_formula_and_psd():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 12))
    d = rng.uniform(0.1, 2.0, size=12)
    scatter = weighted_scatter(DataMatrix(x), d)
    want = sum(d[i] * np.outer(x[:, i], x[:, i]) for i in range(12))
    np.testing.assert_allclose(scatter.values, want, atol=1e-12)
    assert np.linalg.eigvalsh(scatter.values).min() >= -1e-12
    # Exactly symmetric, with some weights exactly zero, at several shapes.
    for m, n in ((2, 5), (10, 200), (17, 31), (40, 9)):
        x = rng.standard_normal((m, n))
        d = rng.uniform(0.0, 3.0, size=n)
        d[rng.permutation(n)[: n // 4]] = 0.0
        m_d = weighted_scatter(DataMatrix(x), d).values
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
        r[:, 0] = 0.0  # one column at the eps clamp
        eps = 1e-10
        l1 = NormSpec.l1()
        stats = column_stats(r, l1)
        assert objective_from_stats(stats, l1) == pytest.approx(np.abs(r).sum(), rel=1e-14)
        assert objective_from_stats(stats, NormSpec.fro()) == pytest.approx((r * r).sum(), rel=1e-14)
        want = np.abs(r).sum(axis=0) / np.maximum((r * r).sum(axis=0), eps * eps)
        np.testing.assert_allclose(weights_from_stats(stats, l1, eps), want, rtol=1e-14, atol=0)
        for p in (0.5, 1.0, 1.5, 2.0):
            norm = NormSpec.l2p(p)
            stats = column_stats(r, norm)
            col_norms = np.sqrt((r * r).sum(axis=0))
            assert objective_from_stats(stats, norm) == pytest.approx((col_norms ** p).sum(), rel=1e-14)
            want = p * np.maximum(col_norms, eps) ** (p - 2.0)
            np.testing.assert_allclose(weights_from_stats(stats, norm, eps), want, rtol=1e-14, atol=0)
    with pytest.raises(InvalidSpec):
        weights_from_stats(stats, NormSpec.fro(), eps)


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
        data = DataMatrix(x)
        q, _ = np.linalg.qr(rng.standard_normal((m, k)))
        basis = Projection(q)
        d = weights_l1(residual(data, basis))
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
            data = DataMatrix(x)
            q, _ = np.linalg.qr(rng.standard_normal((m, k)))
            basis = Projection(q)
            d = weights_l2p(residual(data, basis), p)
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
    d = weights_l1(residual(data, E1))
    np.testing.assert_allclose(d, [0.0, 1.0])
    g = _surrogate_slope(data.values, E1.values, d, 2.0)
    np.testing.assert_allclose(g, [[0.0], [0.0]])
