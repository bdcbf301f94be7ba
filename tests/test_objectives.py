from fractions import Fraction

import numpy as np
import pytest

import repca.objectives
from repca import DataMatrix, DimensionMismatch, InvalidSpec, NormSpec, Projection, objective_value
from repca.objectives import (
    DOWNDATE_RTOL,
    _basis_stats,
    _downdated_sq,
    column_stats,
    objective_from_stats,
    power_product,
    weighted_scatter,
    weights_from_stats,
)

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
        t = q.T @ x
        stats, d, mv = _basis_stats(x, q, L1)
        assert d is None and mv is None
        np.testing.assert_allclose(stats.sq, (x * x).sum(axis=0) - (t * t).sum(axis=0), atol=1e-10)
        assert np.array_equal(x, before)


U = 2.0 ** -53  # the unit roundoff


def _downdate_bound(m, k, col_sq):
    """The first-order error bound of a downdated squared residual norm
    (``objectives`` docstring)."""
    return (m * (1 + 2 * np.sqrt(k)) + k + 1) * U * col_sq


def _direct_bound(m, k, col_sq, sq):
    """The error bound of a squared residual norm reduced from the formed
    residual (``objectives`` docstring), with its second-order terms."""
    x_norm, y_norm = np.sqrt(col_sq), np.sqrt(sq)
    e = np.sqrt(k) * (m + k) * U * x_norm + U * y_norm  # bounds the error in y_i
    return 2 * y_norm * e + e * e + (m + 1) * U * (y_norm + e) ** 2


def _exact_residual_norms(x, w):
    """Per column, ||x_i||^2 - ||W^T x_i||^2 and ||x_i - W W^T x_i||^2, in
    exact rational arithmetic on the floats of ``x`` and ``w``."""
    xs = [[Fraction(v) for v in col] for col in x.T.tolist()]
    ws = [[Fraction(v) for v in col] for col in w.T.tolist()]
    down, resid = [], []
    for col in xs:
        t = [sum(a * b for a, b in zip(wj, col)) for wj in ws]
        y = [c - sum(wj[i] * tj for wj, tj in zip(ws, t)) for i, c in enumerate(col)]
        down.append(sum(c * c for c in col) - sum(v * v for v in t))
        resid.append(sum(v * v for v in y))
    return down, resid


def _raw_downdate(x, w):
    t = w.T @ x
    col_sq = np.einsum("ij,ij->j", x, x)
    return col_sq - np.einsum("ij,ij->j", t, t), col_sq


def _check_against_exact(x, w, sq):
    """Each entry of ``sq`` is within the downdate's bound of the exact
    ||x_i - W W^T x_i||^2 where the downdate stands, and within the formed
    residual's where it was recomputed.  Returns the flagged columns."""
    m, k = w.shape
    raw, col_sq = _raw_downdate(x, w)
    flagged = ~(raw > DOWNDATE_RTOL * col_sq)
    down, resid = _exact_residual_norms(x, w)
    for i, (s, d, r) in enumerate(zip(sq.tolist(), down, resid)):
        err = float(abs(Fraction(s) - r))
        if flagged[i]:
            assert err <= _direct_bound(m, k, col_sq[i], float(r)), (i, s, float(r))
        else:
            # The downdate estimates ||x_i||^2 - ||W^T x_i||^2, which differs
            # from the residual's norm only by W's departure from orthonormality.
            assert s == raw[i]
            assert err <= _downdate_bound(m, k, col_sq[i]) + float(abs(d - r)), (i, s, float(r))
    return flagged


def test_downdated_norms_match_exact_arithmetic():
    """Columns whose squared residual norm is 1e-1 to 1e-6 of ||x_i||^2:
    the downdated ones are within the downdate's bound of the exact value,
    and those at or below DOWNDATE_RTOL are recomputed to the formed
    residual's accuracy."""
    rng = np.random.default_rng(5)
    m, k = 8, 3
    w, _ = np.linalg.qr(rng.standard_normal((m, k)))
    cols = []
    for ratio in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        for _ in range(4):
            a = rng.standard_normal(k)
            z = rng.standard_normal(m)
            z -= w @ (w.T @ z)
            scale = 10.0 ** rng.uniform(-3, 3)
            cols.append(scale * (np.sqrt(1 - ratio) * w @ (a / np.linalg.norm(a))
                                 + np.sqrt(ratio) * z / np.linalg.norm(z)))
    x = np.column_stack(cols)
    for norm in (NormSpec.l2p(0.5), NormSpec.fro()):
        stats = _basis_stats(x, w, norm)[0]
        flagged = _check_against_exact(x, w, stats.sq)
        # ratios 1e-1 and 1e-2 stand, 1e-4 to 1e-6 are recomputed
        assert not flagged[:8].any() and flagged[12:].all()


def test_cancelled_columns_are_recomputed(monkeypatch):
    """Zero columns and columns inside span(W), whose downdates are zero,
    rounding noise or negative, come out at the formed residual's accuracy,
    for recompute chunks of 1, 3 and every column.  A column whose squared
    norm overflows gives inf - inf, a NaN that is recomputed too."""
    rng = np.random.default_rng(8)
    m, k = 6, 2
    w, _ = np.linalg.qr(rng.standard_normal((m, k)))
    x = np.column_stack([np.zeros(m), w @ rng.standard_normal((k, 6)), np.zeros(m),
                         rng.standard_normal((m, 4))])
    raw, col_sq = _raw_downdate(x, w)
    assert (raw[1:7] < 0).any()  # the case is covered
    monkeypatch.setattr(repca.objectives, "_BLOCK_MIN_COLS", 1)
    for width in (1, 3, x.shape[1]):
        monkeypatch.setattr(repca.objectives, "_BLOCK_BYTES", 8 * m * width)
        for norm in (NormSpec.l2p(0.5), NormSpec.fro()):
            sq = _basis_stats(x, w, norm, col_sq=col_sq)[0].sq
            flagged = _check_against_exact(x, w, sq)
            assert flagged[:8].all() and not flagged[8:].any()
            assert sq[0] == sq[7] == 0.0 and sq.min() >= 0.0
    # the downdate alone is not that accurate in the span
    down, resid = _exact_residual_norms(x, w)
    assert any(float(abs(Fraction(raw[i]) - resid[i])) > _direct_bound(m, k, col_sq[i], float(resid[i]))
               for i in range(1, 7))
    huge = x.copy()
    huge[:, 8] *= 1e160
    data, basis = DataMatrix(huge), Projection(w)
    assert objective_value(data, basis, NormSpec.fro()) == np.inf
    direct = column_stats(huge - w @ (w.T @ huge), NormSpec.fro()).sq
    sq = _basis_stats(huge, w, NormSpec.fro())[0].sq
    assert sq[8] == direct[8] == np.inf and np.isfinite(np.delete(sq, 8)).all()


def _product_bound(x, vt):
    """Twice the bound gamma_n |X| |V^T X|^T on a product's rounding, n
    being the inner dimension (Higham, 2002, section 3.5): it holds for
    any order of summation, so for two orders it bounds their difference."""
    n = x.shape[1]
    return 2 * n * U / (1 - n * U) * (np.abs(x) @ np.abs(vt).T)


@pytest.mark.parametrize("m, n, k", ((10, 200, 2), (300, 40, 3), (50, 999, 4), (7, 13, 7)))
def test_basis_stats_blocks_match_the_whole_residual(monkeypatch, m, n, k):
    """For l1, the residual reduced one block of columns at a time has the
    sums of |Y| of the whole residual, for block budgets of 1, 3, 7, n - 1,
    n and n + 1 columns; bit for bit when one block holds every column.
    Narrow blocks can round differently: a one-column product takes BLAS's
    gemv path.  The squared norms come from the same pass when one block
    holds every column, bit for bit the whole residual's, and otherwise
    from the downdate, bit for bit ``_downdated_sq``'s.  Downdated (and
    recomputed in chunks of the same budgets when k = m), for l1 and l2p
    alike, they are within the sum of the downdate's and the whole
    residual's error bounds.  Passed the caller's T = W^T X, the pass gives
    the same sums bit for bit.

    Given the clamp and V^T X, on several l1 blocks the pass's d is
    ``weights_from_stats`` of its stats bit for bit, for pgd's V^T X = T
    and for V^T X formed as momentum forms T + b (T - T_old); its M V,
    each block adding its share, is within ``_product_bound`` of
    X (d * V^T X)^T taken in one product, and V^T X is scaled by d in
    place.  When one block holds every column, and for l2p, it fuses
    nothing and leaves V^T X unchanged, and ``power_product`` from it and
    ``weights_from_stats`` is that one product bit for bit.  A separate
    V^T X leaves T unchanged."""
    rng = np.random.default_rng(m * n)
    x = rng.standard_normal((m, n))
    w, _ = np.linalg.qr(rng.standard_normal((m, k)))
    t_old = np.linalg.qr(rng.standard_normal((m, k)))[0].T @ x
    whole = column_stats(x - w @ (w.T @ x), L1)
    col_sq = (x * x).sum(axis=0)
    tol_abs = 1e-13 * np.abs(x).sum(axis=0)
    tol_sq = _downdate_bound(m, k, col_sq) + _direct_bound(m, k, col_sq, whole.sq)
    t = w.T @ x
    monkeypatch.setattr(repca.objectives, "_BLOCK_MIN_COLS", 1)
    for width in (1, 3, 7, n - 1, n, n + 1):
        monkeypatch.setattr(repca.objectives, "_BLOCK_BYTES", 8 * m * width)
        for norm in (L1, NormSpec.l2p(0.5)):
            stats, d, mv = _basis_stats(x, w, norm)
            assert d is None and mv is None
            if norm.kind == "l1" and width >= n:
                assert stats.sq.tobytes() == whole.sq.tobytes()
            else:
                assert stats.sq.tobytes() == _downdated_sq(x, w, t).tobytes()
                assert np.all(np.abs(stats.sq - whole.sq) <= tol_sq)
            if norm.kind == "l1":
                assert np.all(np.abs(stats.abs - whole.abs) <= tol_abs)
                if width >= n:
                    assert stats.abs.tobytes() == whole.abs.tobytes()
            else:
                assert stats.abs is None
            for given_vt in (None, t + 0.25 * (t - t_old)):
                t_in = t.copy()
                vt = t if given_vt is None else given_vt
                vt_in = t_in if given_vt is None else given_vt.copy()
                stats_p, d, mv = _basis_stats(x, w, norm, t=t_in, clamp=EPS, vt=vt_in)
                assert stats_p.sq.tobytes() == stats.sq.tobytes()
                assert stats_p.abs is None or stats_p.abs.tobytes() == stats.abs.tobytes()
                if given_vt is not None:
                    assert t_in.tobytes() == t.tobytes()
                if norm.kind == "l2p" or width >= n:
                    assert d is None and mv is None and vt_in.tobytes() == vt.tobytes()
                    d = weights_from_stats(stats_p, norm, EPS)
                    assert power_product(x, vt_in, d).tobytes() == (x @ (vt * d).T).tobytes()
                else:
                    assert d.tobytes() == weights_from_stats(stats_p, norm, EPS).tobytes()
                    assert vt_in.tobytes() == (vt * d).tobytes()
                    assert np.all(np.abs(mv - x @ (vt * d).T) <= _product_bound(x, vt * d))


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
