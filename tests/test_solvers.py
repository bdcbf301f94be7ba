import itertools
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import repca.solvers
from repca import (
    DataMatrix,
    DimensionMismatch,
    InvalidSpec,
    NormSpec,
    Projection,
    SolverConfig,
    SpectrumGapWarning,
    SynthSpec,
    center_columns,
    fit,
    objective_value,
    principal_angles,
    synth_subspace,
    vanilla_pca,
)
from repca.linalg import _SIGN_TOL, _fix_column_signs, procrustes_project, top_r_eigvecs
from repca.objectives import (DOWNDATE_RTOL, ColumnStats, _basis_stats, column_stats, objective_from_stats,
                              power_product, weighted_scatter, weights_from_stats)
from repca.solvers import (_RANDOM_START_STREAM, DROP_RTOL, POWER_SHIFT_RTOL, SPAN_RTOL, VARIANTS, _ritz_step,
                            check_convergence, count_monotone_violations, weight_clamp)


def _instance(seed, m=12, n=90, k=3, noise=0.1, frac=0.0, scale=1.0):
    spec = SynthSpec(m=m, n=n, k_true=k, noise_sigma=noise,
                     outlier_frac=frac, outlier_scale=scale, seed=seed)
    data, basis, _ = synth_subspace(spec)
    return data, basis


# ------------------------------------------------------------ config checks


def test_solver_config_validation():
    SolverConfig()
    with pytest.raises(InvalidSpec):
        SolverConfig(variant="newton")
    with pytest.raises(InvalidSpec):
        SolverConfig(max_iter=0)
    with pytest.raises(InvalidSpec):
        SolverConfig(tol=-1e-8)
    with pytest.raises(InvalidSpec):
        SolverConfig(init="warm")


@pytest.mark.parametrize("field, value", (
    ("tol", float("nan")), ("tol", float("inf")),
    pytest.param("tol", 10 ** 400, id="tol-10**400"),  # an int past the float range
))
def test_solver_config_rejects_non_finite(field, value):
    with pytest.raises(InvalidSpec, match=field):
        SolverConfig(**{field: value})


def test_solver_config_rejects_negative_seed():
    SolverConfig(init="random", seed=0)
    with pytest.raises(InvalidSpec, match="seed"):
        SolverConfig(init="random", seed=-1)


@pytest.mark.parametrize("field, value", (
    ("max_iter", 2.5), ("max_iter", True), ("seed", 1.5), ("seed", False),
    ("k", 2.0), ("k", True),
))
def test_counts_must_be_integers(field, value):
    """A float or a bool count fails up front, not deep inside numpy."""
    data, _ = _instance(0)
    counts = {"max_iter": 3, "seed": 1, "k": 2, field: value}
    with pytest.raises(InvalidSpec, match=f"^{field} must be an integer"):
        config = SolverConfig(init="random", max_iter=counts["max_iter"], seed=counts["seed"])
        fit(data, counts["k"], NormSpec.l1(), config)
    if field == "k":
        with pytest.raises(InvalidSpec, match="^k must be an integer"):
            vanilla_pca(data, value)


@pytest.mark.parametrize("field, value", (
    ("tol", True), ("tol", "1e-8"), ("tol", None),
))
def test_float_settings_must_be_numbers(field, value):
    """A bool, a string or None fails with InvalidSpec, not later with a TypeError."""
    with pytest.raises(InvalidSpec, match=f"^{field} must be a number"):
        SolverConfig(**{field: value})
    # numpy numbers and ints stay accepted and are stored as floats
    for number in (np.float32(2.0 ** -20), np.float64(1e-5), np.int64(1), 1):
        assert type(getattr(SolverConfig(**{field: number}), field)) is float
    assert SolverConfig(tol=np.float32(2.0 ** -20)) == SolverConfig(tol=2.0 ** -20)


def test_counts_accept_numpy_integers():
    data, _ = _instance(0)
    config = SolverConfig(init="random", max_iter=np.int64(3), seed=np.uint8(1))
    out = fit(data, np.int32(2), NormSpec.l1(), config)
    want = fit(data, 2, NormSpec.l1(), SolverConfig(init="random", max_iter=3, seed=1))
    assert np.array_equal(out.projection.values, want.projection.values)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("init", ("vanilla", "random"))
def test_fit_fro_is_the_closed_form(variant, init):
    """The fro loss is minimized by the vanilla start: fit returns it and
    runs no round, whatever the variant or the start asked for."""
    data, _ = _instance(0)
    calls = []
    out = fit(data, 2, NormSpec.fro(), SolverConfig(variant=variant, init=init, seed=3),
              callback=lambda it, basis, obj: calls.append((it, basis, obj)))
    want = Projection(_fix_column_signs(top_r_eigvecs(data.values @ data.values.T, 2)[0]))
    assert out.projection.values.tobytes() == want.values.tobytes()
    assert out.objective_trace.tolist() == [objective_value(data, want, NormSpec.fro())]
    assert (out.iterations, out.converged, out.monotone_violations, out.spectrum_gap_events) \
        == (0, True, 0, 0)
    assert [(it, obj) for it, _, obj in calls] == [(0, out.objective_trace[0])]
    assert calls[0][1] is out.projection
    # the closed form needs k <= min(m, n) for either start
    thin, _ = center_columns(DataMatrix(data.values[:, :4]))
    with pytest.raises(DimensionMismatch):
        fit(thin, 5, NormSpec.fro(), SolverConfig(variant=variant, init=init))


def test_fit_rejects_uncentered_data():
    data = DataMatrix(np.random.default_rng(0).standard_normal((4, 20)) + 5.0)
    with pytest.raises(ValueError):
        fit(data, 2, NormSpec.l1())


def test_fit_rejects_bad_k():
    data, _ = _instance(0, m=5, n=40)
    with pytest.raises(DimensionMismatch):
        fit(data, 0, NormSpec.l1())
    with pytest.raises(DimensionMismatch):
        fit(data, 6, NormSpec.l1())


def test_vanilla_init_needs_k_within_sample_count():
    data, _ = _instance(0, m=6, n=90, k=2)
    thin, _ = center_columns(DataMatrix(data.values[:, :4]))
    with pytest.raises(DimensionMismatch):
        fit(thin, 5, NormSpec.l1())
    # a random start has no such restriction as long as k <= m
    out = fit(thin, 5, NormSpec.l1(), SolverConfig(init="random", max_iter=5))
    assert out.projection.k == 5


# -------------------------------------------------------------- convergence


def test_check_convergence_relative_rule():
    assert check_convergence([10.0, 10.0 + 1e-9], 1e-8)
    assert not check_convergence([10.0, 9.0], 1e-8)
    assert not check_convergence([10.0], 1e-8)
    with pytest.raises(ValueError):
        check_convergence([], 1e-8)


def test_check_convergence_near_zero_objective():
    # an exactly flat trace converges even at zero ...
    assert check_convergence([0.0, 0.0], 1e-8)
    # ... but rounding-scale jitter around zero does not
    assert not check_convergence([1e-31, 2e-31], 1e-8)


def test_count_monotone_violations():
    assert count_monotone_violations([3.0, 2.0, 1.0]) == 0
    assert count_monotone_violations([3.0, 3.1, 1.0, 1.2]) == 2
    assert count_monotone_violations([5.0]) == 0
    # increases within the rounding slack are not violations
    assert count_monotone_violations([1.0, 1.0 + 1e-14]) == 0


# -------------------------------------------------------------- vanilla PCA


def test_vanilla_pca_matches_svd():
    rng = np.random.default_rng(1)
    for _ in range(10):
        data, _ = _instance(int(rng.integers(1000)), m=9, n=60, k=4, noise=0.5)
        got = vanilla_pca(data, 3)
        u = np.linalg.svd(data.values, full_matrices=False)[0][:, :3]
        # eigh of X X^T and the SVD of X agree to about 1e-14 rad here; the
        # angles resolve to rounding, so 1e-10 leaves room for other LAPACKs
        assert principal_angles(got, Projection(u)).max() < 1e-10


def test_vanilla_pca_maximizes_captured_variance():
    rng = np.random.default_rng(2)
    data, _ = _instance(7, m=8, n=50, k=3, noise=0.4)
    best = vanilla_pca(data, 2)
    captured = np.linalg.norm(best.values.T @ data.values) ** 2
    for _ in range(100):
        q, _ = np.linalg.qr(rng.standard_normal((8, 2)))
        assert np.linalg.norm(q.T @ data.values) ** 2 <= captured + 1e-9


def test_vanilla_pca_requires_centered_input():
    with pytest.raises(ValueError):
        vanilla_pca(DataMatrix(np.ones((3, 5))), 1)


# X X^T = 2 I: the eigengap at k = 1 is closed.
_CLOSED_GAP = np.array([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])


def test_vanilla_pca_warns_on_closed_gap():
    """Called on its own, vanilla_pca warns about the cut, as the README
    promises; fit counts the same event instead."""
    data = DataMatrix(_CLOSED_GAP, centered=True)
    with pytest.warns(SpectrumGapWarning, match="cut 1 is closed"):
        basis = vanilla_pca(data, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = fit(data, 1, NormSpec.fro())
    assert result.spectrum_gap_events == 1
    assert result.projection.values.tobytes() == basis.values.tobytes()


# ---------------------------------------------------------------- fit paths


def test_fit_is_deterministic_bit_for_bit():
    data, _ = _instance(4, frac=0.1, scale=4.0)
    for variant in VARIANTS:
        cfg = SolverConfig(variant=variant, max_iter=60)
        a = fit(data, 2, NormSpec.l2p(1.0), cfg)
        b = fit(data, 2, NormSpec.l2p(1.0), cfg)
        np.testing.assert_array_equal(a.objective_trace, b.objective_trace)
        np.testing.assert_array_equal(a.projection.values, b.projection.values)
        assert a.iterations == b.iterations
        assert a.converged == b.converged


def test_first_trace_entry_is_the_vanilla_objective():
    data, _ = _instance(8, frac=0.1, scale=5.0)
    vanilla = vanilla_pca(data, 3)
    for norm in (NormSpec.l1(), NormSpec.l2p(1.0), NormSpec.l2p(0.5)):
        want = objective_value(data, vanilla, norm)
        for variant in VARIANTS:
            result = fit(data, 3, norm, SolverConfig(variant=variant, max_iter=2))
            assert result.objective_trace[0] == want, (variant, norm)


def test_random_init_is_seeded():
    data, _ = _instance(5)
    base = SolverConfig(init="random", seed=11, max_iter=30)
    a = fit(data, 2, NormSpec.l1(), base)
    b = fit(data, 2, NormSpec.l1(), base)
    c = fit(data, 2, NormSpec.l1(), SolverConfig(init="random", seed=12, max_iter=30))
    np.testing.assert_array_equal(a.projection.values, b.projection.values)
    assert not np.array_equal(a.objective_trace[:1], c.objective_trace[:1])


@pytest.mark.parametrize("seed", range(6))
def test_random_start_is_not_the_planted_basis(seed):
    """The data and the start share a seed, as in ``repca bench --init
    random``, yet the start is far from W_true."""
    data, w_true, _ = synth_subspace(SynthSpec(m=6, n=50, k_true=2, seed=seed))
    starts = []
    fit(data, 2, NormSpec.l1(), SolverConfig(init="random", seed=seed, max_iter=1),
        callback=lambda it, basis, obj: starts.append(basis) if it == 0 else None)
    assert principal_angles(starts[0], w_true)[-1] > 0.5


def _rayleigh_ritz(x, w, mw, d):
    """pgd's step from numpy's building blocks, with G = S diag(d) S^T
    whole: the orthonormal basis Q of span[W, mw] from the thin SVD, less
    the directions at or below DROP_RTOL of the largest singular value,
    S = Q^T X, and the top-k eigenvectors U of G.  Returns Q U and U^T S."""
    u, sv, _ = np.linalg.svd(np.hstack((w, mw)), full_matrices=False)
    q = u[:, : np.count_nonzero(sv > DROP_RTOL * sv[0])]
    s = q.T @ x
    top = np.linalg.eigh((s * d) @ s.T)[1][:, -w.shape[1]:]
    return q @ top, top.T @ s


@pytest.mark.parametrize("norm", (NormSpec.l1(), NormSpec.l2p(0.5)), ids=("l1", "l2p0.5"))
@pytest.mark.parametrize("variant", VARIANTS)
def test_fit_replays_from_the_building_blocks(variant, norm):
    """Four rounds rebuilt from the building blocks equal ``fit`` byte
    for byte.  The l1 sums come from the formed residual, the l2p squared
    norms from the downdate ||x_i||^2 - ||t_i||^2.  pgd's round is the
    Rayleigh-Ritz step over span[W, M W / tr(M)], with M W taken as
    X (d * T)^T; it carries T' = U^T S as the next round's T, which stands
    for W'^T X.  10x200 data is one column block, so G is one product.
    momentum's round is the shifted power step on the factored product,
    polar(X (d * V^T X) + sigma V) with sigma = POWER_SHIFT_RTOL tr(M), at
    its extrapolated V = W + b (W - W_old), with V^T X taken as
    T + b (T - T_old) from T = W^T X and T_old = W_old^T X.  Round 3 is the
    first whose momentum coefficient b = 1/4 is nonzero; in round 1 the
    extrapolation vanishes (W_old = W_0).  The start is sign-fixed, irls's
    eigen steps keep LAPACK's signs, and the basis handed out is the last
    iterate sign-fixed."""
    data, _ = _instance(0, m=10, n=200, k=2, frac=0.1, scale=5.0)
    config = SolverConfig(variant=variant, max_iter=4, tol=0.0)
    x = data.values
    col_sq = np.einsum("ij,ij->j", x, x)
    clamp = weight_clamp(np.sqrt(col_sq.sum()), data.n_samples)
    w = w_old = _fix_column_signs(top_r_eigvecs(x @ x.T, 2)[0])
    t = w.T @ x

    def stats_at(w, t):
        if norm.kind == "l1":
            return column_stats(x - w @ t, norm)
        sq = col_sq - np.einsum("ij,ij->j", t, t)
        assert np.all(sq > DOWNDATE_RTOL * col_sq)  # no column is recomputed
        return ColumnStats(sq, None)

    stats = stats_at(w, t)
    trace = [objective_from_stats(stats, norm)]
    for s in range(1, 5):
        d = weights_from_stats(stats, norm, clamp)
        scatter = weighted_scatter(data, d)
        if variant == "irls":
            w_eig = top_r_eigvecs(scatter, 2)[0]
            assert d @ stats_at(w_eig, w_eig.T @ x).sq <= d @ stats.sq  # the guard keeps the eigen step
            w = w_eig
        elif variant == "pgd":
            np.testing.assert_allclose(float(d @ col_sq), np.trace(scatter), rtol=1e-12)
            w, t = _rayleigh_ritz(x, w, x @ (t * d).T / float(d @ col_sq), d)
        else:
            b = (s - 2.0) / (s + 1.0)
            v = w + b * (w - w_old)
            t_v = t + b * (t - w_old.T @ x)
            if s == 1:
                np.testing.assert_array_equal(v, w)
                np.testing.assert_array_equal(t_v, w.T @ x)
            shift = POWER_SHIFT_RTOL * float(d @ col_sq)
            np.testing.assert_allclose(shift, POWER_SHIFT_RTOL * np.trace(scatter), rtol=1e-12)
            w, w_old = procrustes_project(x @ (t_v * d).T + shift * v), w
        if variant != "pgd":
            t = w.T @ x
        stats = stats_at(w, t)
        trace.append(objective_from_stats(stats, norm))
    out = fit(data, 2, norm, config)
    assert out.iterations == 4
    assert out.projection.values.tobytes() == _fix_column_signs(w).tobytes()
    np.testing.assert_array_equal(out.objective_trace, trace)


def _power_fit_with_one_gemm(data, k, norm, variant):
    """pgd's or momentum's loop from the vanilla start, rebuilt from the
    building blocks with W^T X (and V^T X) taken afresh and M W (M V) in one
    gemm over all of X each round; returns W and the rounds."""
    x = data.values
    col_sq = np.einsum("ij,ij->j", x, x)
    clamp = weight_clamp(np.sqrt(col_sq.sum()), data.n_samples)
    w = w_old = _fix_column_signs(top_r_eigvecs(x @ x.T, k)[0])
    stats = _basis_stats(x, w, norm, col_sq=col_sq)[0]
    trace = [objective_from_stats(stats, norm)]
    while len(trace) <= SolverConfig().max_iter and not check_convergence(trace, SolverConfig().tol):
        s = len(trace)
        d = weights_from_stats(stats, norm, clamp)
        if variant == "pgd":
            w = _rayleigh_ritz(x, w, x @ ((w.T @ x) * d).T / float(d @ col_sq), d)[0]
        else:
            v = w + ((s - 2.0) / (s + 1.0)) * (w - w_old)
            shift = POWER_SHIFT_RTOL * float(d @ col_sq)
            w, w_old = procrustes_project(x @ ((v.T @ x) * d).T + shift * v), w
        stats = _basis_stats(x, w, norm, col_sq=col_sq)[0]
        trace.append(objective_from_stats(stats, norm))
    return w, len(trace) - 1


@pytest.mark.parametrize("m, n, k, seeds, norms", (
    pytest.param(10, 200, 2, range(8), (NormSpec.l1(), NormSpec.l2p(1.0)), id="small_grid"),
    pytest.param(50, 6000, 3, (1,), (NormSpec.l1(),), id="multi-block-l1"),
))
@pytest.mark.parametrize("variant", ("pgd", "momentum"))
def test_power_product_from_the_stats_passes_moves_by_rounding(variant, m, n, k, seeds, norms):
    """The step's M W, taken in the stats pass (block by block on
    multi-block l1 data) at the carried T, differs from the product taken
    afresh in one gemm at W^T X by rounding alone: each fit keeps its
    rounds and its basis within 1e-9 rad.  pgd's carried T is the
    Rayleigh-Ritz step's U^T S, and its G is summed over column blocks;
    momentum's V^T X is combined from the T of two stats passes.  50x6000
    forms its l1 residual in several column blocks."""
    for seed, norm in itertools.product(seeds, norms):
        data, _ = _instance(seed, m=m, n=n, k=k, frac=0.1, scale=5.0)
        w, rounds = _power_fit_with_one_gemm(data, k, norm, variant)
        out = fit(data, k, norm, SolverConfig(variant=variant))
        assert out.converged and out.iterations == rounds, (seed, norm)
        assert principal_angles(out.projection, Projection(w))[-1] <= 1e-9, (seed, norm)


# The carried T' = U^T (Q^T X) against W'^T X = (Q U)^T X, column by column,
# in units of u ||x_i||, u = 2^-53.  To first order each of the four products
# errs by its inner length times at most sqrt(2k) u ||x_i||, a sum below
# 2 (m + 2k) sqrt(2k) u ||x_i||: 56 at 10x200, k = 2, and 274 at 50x6000, k = 3.
@pytest.mark.parametrize("m, n, k, seeds, norm", (
    pytest.param(10, 200, 2, range(8), NormSpec.l2p(1.0), id="small_grid"),
    pytest.param(50, 6000, 3, (1,), NormSpec.l1(), id="multi-block-l1"),
))
def test_ritz_step_carries_w_t_x_to_rounding(m, n, k, seeds, norm):
    """pgd hands the stats pass the step's T' = U^T S instead of taking
    W'^T X again.  At every iterate of the fit they agree column by column
    to the rounding of the products that form them; the worst columns
    measured 6.1 and 11.5 u ||x_i||."""
    u = np.finfo(float).eps / 2
    worst = 0.0
    for seed in seeds:
        data, _ = _instance(seed, m=m, n=n, k=k, frac=0.1, scale=5.0)
        x = data.values
        col_sq = np.einsum("ij,ij->j", x, x)
        clamp = weight_clamp(np.sqrt(col_sq.sum()), data.n_samples)
        iterates = []
        fit(data, k, norm, SolverConfig(), callback=lambda it, basis, obj: iterates.append(basis.values))
        for w in iterates:
            d = weights_from_stats(_basis_stats(x, w, norm, col_sq=col_sq)[0], norm, clamp)
            w_next, t_next = _ritz_step(x, w, x @ ((w.T @ x) * d).T / float(d @ col_sq), d)
            err = np.linalg.norm(t_next - w_next.T @ x, axis=0) / (u * np.sqrt(col_sq))
            worst = max(worst, float(err.max()))
    assert worst <= 2 * (m + 2 * k) * np.sqrt(2 * k)


def test_ritz_step_stays_put_at_a_fixed_point(monkeypatch):
    """On noiseless data at k = rank, W = the data's span is a fixed point:
    M W lies in span(W), so every new direction of [W, M W / tr(M)] is
    rounding, below DROP_RTOL, and the step drops it: its G is k x k.  W'
    then spans W's subspace to rounding, whatever the weights."""
    data, _ = _instance(13, m=8, n=60, k=2, noise=0.0)
    x = data.values
    w = vanilla_pca(data, 2).values
    eigh, shapes = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda g: (shapes.append(g.shape), eigh(g))[1])
    for d in (np.ones(60), np.random.default_rng(0).uniform(0.1, 10.0, 60)):
        mw = x @ ((w.T @ x) * d).T / float(d @ np.einsum("ij,ij->j", x, x))
        assert np.linalg.svd(np.hstack((w, mw)), compute_uv=False)[2:].max() <= DROP_RTOL
        w_next = _ritz_step(x, w, mw, d)[0]
        assert principal_angles(Projection(w_next), Projection(w)).max() <= 1e-14
    assert shapes == [(2, 2), (2, 2)]


def test_irls_guard_replays_from_the_building_blocks():
    """Each irls round keeps the eigen step unless it raises
    sum_i d_i ||y_i||^2 at the round's weights d; then it takes pgd's
    Rayleigh-Ritz step from W instead, M W from ``power_product`` at
    W^T X taken afresh, scaled by 1 / tr(M), and its stats pass takes the
    step's T' for W'^T X.  Rebuilt from the building blocks, the iterates
    equal ``fit``'s byte for byte, and ``guarded_steps`` counts the
    Rayleigh-Ritz steps.  The replay steps from the loop's own bases, the
    start and the eigen steps in LAPACK's signs; the callback sees each one
    sign-fixed.  From the random start at 10x200 the weights span about
    6e15 by the last round, whose eigen step raises that sum by about 6e-9
    of it.  From the vanilla start at 300x40, 9 of the 14 rounds are
    guarded, several in a row, so a guard that reused the previous step's
    T' for W^T X would not replay."""
    norm = NormSpec.l2p(0.5)
    for seed, m, n, k, noise, init, consecutive in ((0, 10, 200, 2, 0.1, "random", False),
                                                    (0, 300, 40, 3, 0.05, "vanilla", True)):
        data, _ = _instance(seed, m=m, n=n, k=k, noise=noise, frac=0.1, scale=5.0)
        seen = []
        out = fit(data, k, norm, SolverConfig(variant="irls", init=init, seed=3),
                  callback=lambda it, basis, obj: seen.append(basis.values))
        x = data.values
        col_sq = np.einsum("ij,ij->j", x, x)
        clamp = weight_clamp(np.sqrt(col_sq.sum()), data.n_samples)
        guarded = []
        if init == "random":
            w = procrustes_project(np.random.default_rng([3, _RANDOM_START_STREAM]).standard_normal((m, k)))
        else:
            w = _fix_column_signs(top_r_eigvecs(x @ x.T, k)[0])
        stats = _basis_stats(x, w, norm, col_sq=col_sq)[0]
        assert _fix_column_signs(w).tobytes() == seen[0].tobytes()
        for it, handed_out in enumerate(seen[1:], start=1):
            d = weights_from_stats(stats, norm, clamp)
            step = top_r_eigvecs(weighted_scatter(data, d), k)[0]
            step_stats = _basis_stats(x, step, norm, col_sq=col_sq)[0]
            if d @ step_stats.sq > d @ stats.sq:
                guarded.append(it)
                step, t_step = _ritz_step(x, w, power_product(x, w.T @ x, d) / float(d @ col_sq), d)
                step_stats = _basis_stats(x, step, norm, col_sq=col_sq, t=t_step)[0]
            w, stats = step, step_stats
            assert _fix_column_signs(w).tobytes() == handed_out.tobytes(), (m, n, it)
        assert len(guarded) == out.guarded_steps >= 1
        assert consecutive == any(b - a == 1 for a, b in zip(guarded, guarded[1:]))


def test_irls_hands_out_its_last_eigen_step_sign_fixed():
    """An unguarded irls fit returns the last eigen step, taken in LAPACK's
    signs, with the sign convention applied once, byte for byte.  The
    round's weights come from the callback's sign-fixed basis: T = W^T X
    and W T only change sign with a column, so the weights keep their bits.
    On this problem LAPACK's last step has a column the convention flips."""
    data, _ = _instance(0, m=10, n=200, k=2, frac=0.1, scale=5.0)
    norm = NormSpec.l1()
    seen = []
    out = fit(data, 2, norm, SolverConfig(variant="irls"), callback=lambda it, basis, obj: seen.append(basis.values))
    assert out.converged and out.guarded_steps == 0
    x = data.values
    col_sq = np.einsum("ij,ij->j", x, x)
    d = weights_from_stats(_basis_stats(x, seen[-2], norm, col_sq=col_sq)[0], norm,
                           weight_clamp(np.sqrt(col_sq.sum()), data.n_samples))
    step = top_r_eigvecs(weighted_scatter(data, d), 2)[0]
    assert out.projection.values.tobytes() == _fix_column_signs(step).tobytes()
    assert not np.array_equal(step, out.projection.values)


def _leading_entries(w):
    """The first entry of each column of ``w`` above _SIGN_TOL in magnitude."""
    big = np.abs(w) > _SIGN_TOL
    return w[big.argmax(axis=0), np.arange(w.shape[1])][big.any(axis=0)]


@pytest.mark.parametrize("init", ("vanilla", "random"))
@pytest.mark.parametrize("norm", (NormSpec.l1(), NormSpec.l2p(0.5)), ids=("l1", "l2p0.5"))
@pytest.mark.parametrize("variant", VARIANTS)
def test_every_basis_fit_hands_out_follows_the_sign_convention(monkeypatch, variant, norm, init):
    """``FitResult.projection`` and every callback basis have the first
    entry of each column above _SIGN_TOL nonnegative, whichever step made
    the basis.  The steps leave signs to their SVD and eigensolver: over
    these data seeds some of the loop's iterates break the convention
    until ``fit`` applies it."""
    flipped = []

    def fix(w):
        flipped.append((_leading_entries(w) < 0.0).any())
        return _fix_column_signs(w)

    monkeypatch.setattr(repca.solvers, "_fix_column_signs", fix)
    for seed in range(4):
        data, _ = _instance(seed, m=10, n=200, k=2, frac=0.1, scale=5.0)
        seen = []
        out = fit(data, 2, norm, SolverConfig(variant=variant, init=init, seed=3),
                  callback=lambda it, basis, obj: seen.append(basis.values))
        assert seen[-1] is out.projection.values
        for w in seen:
            assert (_leading_entries(w) >= 0.0).all(), (seed, variant)
        # the result without a callback is the same basis
        assert fit(data, 2, norm, SolverConfig(variant=variant, init=init, seed=3)).projection.values.tobytes() \
            == out.projection.values.tobytes()
    assert any(flipped)


def test_fro_and_vanilla_pca_follow_the_sign_convention():
    for seed in range(4):
        data, _ = _instance(seed, m=10, n=200, k=3, frac=0.1, scale=5.0)
        for basis in (fit(data, 3, NormSpec.fro()).projection, vanilla_pca(data, 3)):
            assert (_leading_entries(basis.values) >= 0.0).all(), seed


def test_pgd_forms_no_scatter_and_no_spectrum(monkeypatch):
    """pgd and momentum take M V as X (d * X^T V): they never build the
    m x m scatter M, and need no eigenvalue of it.  pgd's Rayleigh-Ritz
    step takes eigenvectors of its 2k x 2k matrix G alone."""
    def refuse(*args, **kwargs):
        raise AssertionError("pgd or momentum called a dense-scatter helper")

    data, _ = _instance(3, m=10, n=200, k=2, frac=0.1, scale=5.0)
    cases = [(variant, norm) for variant in ("pgd", "momentum")
             for norm in (NormSpec.l1(), NormSpec.l2p(0.5))]
    want = [fit(data, 2, norm, SolverConfig(variant=variant)) for variant, norm in cases]
    monkeypatch.setattr(repca.solvers, "weighted_scatter", refuse)
    monkeypatch.setattr(repca.solvers, "spectral_norm", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for (variant, norm), before in zip(cases, want):
        out = fit(data, 2, norm, SolverConfig(variant=variant))
        assert out.converged and out.iterations >= 5
        assert out.projection.values.tobytes() == before.projection.values.tobytes()
        assert out.objective_trace.tobytes() == before.objective_trace.tobytes()


def test_callback_sees_every_iterate():
    data, _ = _instance(7)
    for variant in VARIANTS:
        seen = []
        out = fit(data, 2, NormSpec.l1(), SolverConfig(variant=variant, max_iter=25),
                  callback=lambda it, basis, obj: seen.append((it, basis, obj)))
        assert [it for it, _, _ in seen] == list(range(out.iterations + 1)), variant
        assert all(isinstance(basis, Projection) for _, basis, _ in seen)
        np.testing.assert_array_equal([obj for _, _, obj in seen], out.objective_trace)
        assert seen[-1][1] is out.projection


@pytest.mark.parametrize("init", ("vanilla", "random"))
def test_fit_builds_projections_only_at_the_door(monkeypatch, init):
    """The start and the rounds run on plain arrays: without a callback a
    fit builds one Projection, its result, however many rounds it takes;
    with one, one per callback call, and the last is the result."""
    data, _ = _instance(21, m=10, n=200, frac=0.1, scale=5.0)
    built = []
    check = Projection.__post_init__
    monkeypatch.setattr(Projection, "__post_init__", lambda self: (built.append(self), check(self)))
    for variant in VARIANTS:
        config = SolverConfig(variant=variant, init=init, tol=0.0, max_iter=12)
        built.clear()
        out = fit(data, 2, NormSpec.l1(), config)
        assert out.iterations >= 10, variant
        assert len(built) == 1, variant
        assert built[-1] is out.projection
        built.clear()
        out = fit(data, 2, NormSpec.l1(), config, callback=lambda it, basis, obj: None)
        assert len(built) == out.iterations + 1, variant
        assert built[-1] is out.projection


@pytest.mark.parametrize("init", ("vanilla", "random"))
@pytest.mark.parametrize("variant", VARIANTS)
def test_fit_rejects_data_whose_norm_overflows(init, variant):
    """||X||_F^2 past the float range is refused before any round, without
    a RuntimeWarning (the suite makes those errors); a random start used to
    "converge" at once because the span test compared inf with inf.  It is
    summed from the squared column norms, so both an overflowed column and
    finite columns whose sum overflows are refused."""
    rng = np.random.default_rng(22)
    base = rng.standard_normal((4, 30))
    base -= base.mean(axis=1, keepdims=True)
    col_sq = np.einsum("ij,ij->j", base, base)
    near_max = base * np.sqrt(1e308 / col_sq.max())  # each ||x_i||^2 <= 1e308, their sum past 1.8e308
    assert col_sq.sum() / col_sq.max() > 2.0
    config = SolverConfig(variant=variant, init=init, max_iter=5)
    for norm in (NormSpec.l1(), NormSpec.l2p(1.0)):
        for huge in (base * 1e160, near_max):
            with pytest.raises(ValueError, match="overflows"):
                fit(DataMatrix(huge, centered=True), 2, norm, config)
        out = fit(DataMatrix(base * 1e150, centered=True), 2, norm, config)
        assert np.isfinite(out.objective_trace).all()


def test_result_trace_is_read_only():
    data, _ = _instance(8)
    for variant in VARIANTS:
        out = fit(data, 2, NormSpec.l1(), SolverConfig(variant=variant, max_iter=10))
        with pytest.raises(ValueError):
            out.objective_trace[0] = 0.0
        assert out.wall_time_ms > 0.0


# ----------------------------------------------------- descent and recovery


def test_pgd_columnwise_trace_never_increases():
    """The weighted quadratic majorizes the columnwise loss for p <= 2, so
    every recorded step must descend (up to the rounding slack)."""
    rng = np.random.default_rng(9)
    for i in range(25):
        m = int(rng.integers(5, 30))
        n = int(rng.integers(2 * m, 120))
        k = int(rng.integers(1, 4))
        data, _ = _instance(i, m=m, n=n, k=k,
                            noise=float(rng.uniform(0.01, 0.3)),
                            frac=float(rng.uniform(0.0, 0.1)),
                            scale=float(rng.uniform(1.0, 5.0)))
        p = float(rng.uniform(0.5, 2.0))
        out = fit(data, k, NormSpec.l2p(p), SolverConfig(variant="pgd", max_iter=150, tol=1e-10))
        assert out.monotone_violations == 0


@pytest.mark.parametrize("norm", (NormSpec.l1(), NormSpec.l2p(1.0), NormSpec.l2p(0.5)),
                         ids=("l1", "l2p1", "l2p0.5"))
def test_pgd_recovers_noiseless_data_from_a_random_start(norm):
    """pgd's step ascends tr(W^T M W) without a step-size bound, so pgd
    reaches the planted subspace of noiseless data in a few rounds.  The
    1/lambda_max gradient step ran 500 rounds to J = 5.27 on l1 here."""
    data, w_true, _ = synth_subspace(SynthSpec(m=6, n=50, k_true=2))
    out = fit(data, 2, norm, SolverConfig(init="random"))
    assert out.converged and out.iterations <= 10
    assert principal_angles(out.projection, w_true).max() < 1e-12


def test_pgd_leaves_the_l1_plateau_where_irls_ends():
    """On 60 x 8 Gaussian data, k = 3, the 1/lambda_max step crept to a stop
    at J = 203.44; pgd ends at irls's J = 197.11."""
    data = _centered(np.random.default_rng(0).standard_normal((60, 8)))
    pgd = fit(data, 3, NormSpec.l1(), SolverConfig())
    irls = fit(data, 3, NormSpec.l1(), SolverConfig(variant="irls"))
    assert pgd.converged and irls.converged
    assert pgd.objective_trace[-1] == pytest.approx(irls.objective_trace[-1], rel=1e-6)


def _rank1_outliers(seed, frac, m=10, n=200, k=2, scale=5.0):
    """Planted data whose outliers all lie on one random line, at ``scale``."""
    spec = SynthSpec(m=m, n=n, k_true=k, noise_sigma=0.1, outlier_frac=frac,
                     outlier_scale=scale, seed=seed)
    data, _, mask = synth_subspace(spec)
    rng = np.random.default_rng([seed, 2])
    line = rng.standard_normal(m)
    x = np.array(data.values)
    x[:, mask] = scale * np.outer(line / np.linalg.norm(line), rng.standard_normal(int(mask.sum())))
    return _centered(x)


RANK1_FIXTURES = tuple(itertools.product((0.1, 0.2, 0.3), (NormSpec.l2p(0.5), NormSpec.l2p(1.0)), range(8)))


def test_power_shift_keeps_momentum_full_rank_on_rank1_outliers():
    """Once the basis holds the outlier line, those residuals fall to the
    clamp and their weights reach c^(p-2): the unshifted product M V is
    then rank deficient to rounding, and polar(M V) would raise.  The
    singular values of momentum's V = (1 + b) W - b W_old lie in [1, 1 + 2b]
    for b in [0, 1), so the shift sigma = 1e-4 tr(M) bounds s_min / s_max of
    (M + sigma I) V below by 1e-4 / (3 (1 + 1e-4)): momentum does not raise."""
    unshifted, shifted = [], []
    for frac, norm, seed in RANK1_FIXTURES:
        data = _rank1_outliers(seed, frac)
        x = data.values
        clamp = weight_clamp(np.linalg.norm(x), data.n_samples)
        col_sq = np.einsum("ij,ij->j", x, x)
        iterates = []

        def step_from(it, basis, obj):
            # The point V that the round after iterate ``it`` steps from.
            w = basis.values
            w_old = iterates[-1] if iterates else w
            iterates.append(w)
            b = (it - 1.0) / (it + 2.0)
            v = w + b * (w - w_old)
            d = weights_from_stats(column_stats(x - w @ (w.T @ x), norm), norm, clamp)
            mv = x @ ((v.T @ x) * d).T
            shift = POWER_SHIFT_RTOL * float(d @ col_sq)
            for product, ratios in ((mv, unshifted), (mv + shift * v, shifted)):
                s = np.linalg.svd(product, compute_uv=False)
                ratios.append(s[-1] / s[0])

        out = fit(data, 2, norm, SolverConfig(variant="momentum"), callback=step_from)
        assert np.isfinite(out.objective_trace).all()
    assert len(shifted) > 96
    assert min(unshifted) <= 1e-12  # the planted case reaches the hazard
    assert min(shifted) >= POWER_SHIFT_RTOL / (3.0 * (1.0 + POWER_SHIFT_RTOL))


def test_pgd_never_raises_the_huberized_loss_on_rank1_outliers():
    """pgd takes no shifted step and no retraction: its Rayleigh-Ritz step
    keeps W in the subspace it searches, so the weighted quadratic cannot
    rise, and neither can sum h, the loss Huberized at the clamp c, even
    where the outlier weights reach c^(p-2).  The same 48 fixtures."""
    worst = 0.0
    for frac, norm, seed in RANK1_FIXTURES:
        data = _rank1_outliers(seed, frac)
        x, p = data.values, norm.p
        c = weight_clamp(np.linalg.norm(x), data.n_samples)
        scores = []

        def score(it, basis, obj):
            sq = _basis_stats(x, basis.values, norm)[0].sq
            h = np.where(sq >= c * c, np.sqrt(sq) ** p, (p / 2) * c ** (p - 2) * sq + (1 - p / 2) * c ** p)
            scores.append(float(h.sum()))

        out = fit(data, 2, norm, SolverConfig(variant="pgd"), callback=score)
        assert out.converged and len(scores) > 1
        worst = max(worst, float(np.diff(scores).max()) / scores[0])
    assert worst <= 1e-12


def test_solvers_converge_and_report_it():
    data, _ = _instance(10, noise=0.05)
    for variant in VARIANTS:
        out = fit(data, 3, NormSpec.l1(), SolverConfig(variant=variant, max_iter=500))
        assert out.converged
        assert out.iterations < 500
        assert len(out.objective_trace) == out.iterations + 1


def test_p2_reduces_to_vanilla_pca():
    data, _ = _instance(11, noise=0.3)
    van = vanilla_pca(data, 3)
    for variant in VARIANTS:
        out = fit(data, 3, NormSpec.l2p(2.0), SolverConfig(variant=variant))
        assert out.converged
        assert out.iterations <= 3
        assert principal_angles(out.projection, van).max() < 1e-10


def test_zero_residual_converges_immediately():
    # rank-1 data fit with k = 1: nothing left to reduce
    data = DataMatrix(np.array([[1.0, 0.0, -1.0], [0.0, 0.0, 0.0]]), centered=True)
    for variant in VARIANTS:
        out = fit(data, 1, NormSpec.l1(), SolverConfig(variant=variant))
        assert out.converged
        assert out.iterations == 0
        np.testing.assert_array_equal(out.objective_trace, [0.0])


def test_zero_residual_columnwise_loss_stays_at_zero():
    data = DataMatrix(np.array([[1.0, 0.0, -1.0], [0.0, 0.0, 0.0]]), centered=True)
    out = fit(data, 1, NormSpec.l2p(1.0), SolverConfig(max_iter=50))
    assert out.converged
    assert out.objective_trace[-1] == pytest.approx(0.0, abs=1e-12)


ROBUST_NORMS = pytest.mark.parametrize("norm", (NormSpec.l1(), NormSpec.l2p(1.0)), ids=("l1", "l2p"))
VARIANT_NAMES = pytest.mark.parametrize("variant", VARIANTS)


def _centered(values):
    return center_columns(DataMatrix(values))[0]


@ROBUST_NORMS
@VARIANT_NAMES
@pytest.mark.parametrize("case", ("k_equals_m", "rank_n_minus_1", "noiseless_rank_k"))
def test_basis_spanning_the_data_converges_at_once(case, variant, norm):
    """Once W spans the data the residual is rounding noise, and the relative
    objective test alone would compare noise with noise until max_iter."""
    rng = np.random.default_rng(4)
    if case == "k_equals_m":
        data, k = _centered(rng.standard_normal((4, 30))), 4
    elif case == "rank_n_minus_1":
        data, k = _centered(rng.standard_normal((20, 6))), 5
    else:
        (data, _), k = _instance(13, m=8, n=60, k=2, noise=0.0), 2
    out = fit(data, k, norm, SolverConfig(variant=variant))
    assert out.converged
    assert out.iterations <= 1
    assert out.objective_trace[-1] <= 1e-12 * np.abs(data.values).sum()


def test_noiseless_fit_at_the_rank_stops_at_the_span_floor():
    """At k = rank every residual column lies in span(W), so its downdate
    ||x_i||^2 - ||W^T x_i||^2 is rounding noise far above the span floor;
    recomputed from the residual it is below it.  The fro fit's objective
    and every l2p fit stop there, before any step."""
    data, _ = _instance(13, m=8, n=60, k=2, noise=0.0)
    x = data.values
    floor = SPAN_RTOL * np.linalg.norm(x)
    t = vanilla_pca(data, 2).values.T @ x
    downdate = np.einsum("ij,ij->j", x, x) - np.einsum("ij,ij->j", t, t)
    assert np.sqrt(np.abs(downdate).sum()) > floor
    assert fit(data, 2, NormSpec.fro()).objective_trace[0] <= floor ** 2
    for variant in VARIANTS:
        for norm in (NormSpec.l2p(1.0), NormSpec.l2p(0.5)):
            out = fit(data, 2, norm, SolverConfig(variant=variant))
            assert out.converged and out.iterations == 0, (variant, norm)


@ROBUST_NORMS
@VARIANT_NAMES
@pytest.mark.parametrize("case", ("constant", "constant_mean_rounds", "single_sample",
                                  "m_much_greater_than_n"))
def test_degenerate_inputs_fit_cleanly(case, variant, norm):
    rng = np.random.default_rng(0)
    if case == "constant":
        data, k = _centered(np.full((5, 20), 3.0)), 2
    elif case == "constant_mean_rounds":  # fl(mean) leaves a residue centering must clear
        data, k = _centered(np.full((5, 20), 7.7)), 2
    elif case == "single_sample":
        data, k = _centered(rng.standard_normal((5, 1))), 1
    else:
        data, k = _centered(rng.standard_normal((60, 8))), 3
    # Centered constant or single-sample data is all zeros, so the vanilla
    # start has no eigengap to cut at; the fit counts that instead of warning.
    out = fit(data, k, norm, SolverConfig(variant=variant))
    w = out.projection.values
    assert np.all(np.isfinite(out.objective_trace))
    assert np.linalg.norm(w.T @ w - np.eye(k)) <= 1e-12
    assert out.converged


def test_irls_counts_degenerate_spectra():
    # symmetric four-point configuration: the reweighted scatter inside the
    # first round is exactly isotropic, so the eigenvector cut is arbitrary
    data = DataMatrix(np.array([[1.0, 1.0, -1.0, -1.0],
                                [1.0, -1.0, -1.0, 1.0]]), centered=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # counted, so none escapes
        out = fit(data, 1, NormSpec.l1(), SolverConfig(variant="irls", max_iter=20))
    assert out.spectrum_gap_events >= 1
    assert out.converged


def test_concurrent_fits_count_gaps_exactly():
    """fit changes no process-wide warnings state, so fits on two threads
    sharing one DataMatrix, switched as often as the interpreter allows,
    each count the closed gap once, and none lets a warning escape (the
    suite turns a RuntimeWarning into an error)."""
    data = DataMatrix(_CLOSED_GAP, centered=True)
    counts, errors = ([], []), []

    def work(out):
        try:
            for _ in range(2000):
                out.append(fit(data, 1, NormSpec.fro()).spectrum_gap_events)
        except BaseException as exc:  # re-raised below, on the test's thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out,)) for out in counts]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert [(len(out), set(out)) for out in counts] == [(2000, {1}), (2000, {1})]


@pytest.mark.parametrize("variant, norm, noise, limit", (
    pytest.param("pgd", NormSpec.l1(), 0.1, 0.5, id="pgd-0.5"),
    pytest.param("momentum", NormSpec.l1(), 0.1, 0.5, id="momentum-0.5"),
    pytest.param("irls", NormSpec.l1(), 0.1, 1.15, id="irls-1.15"),
    pytest.param("pgd", NormSpec.l2p(0.5), 0.1, 0.1, id="pgd-l2p-0.1"),
    pytest.param("momentum", NormSpec.l2p(0.5), 0.1, 0.1, id="momentum-l2p-0.1"),
    pytest.param("pgd", NormSpec.l2p(0.5), 0.0, 0.5, id="pgd-l2p-every-column-recomputed-0.5"),
    pytest.param("pgd", NormSpec.l1(), 0.0, 0.4, id="pgd-l1-every-column-recomputed-0.4"),
))
def test_round_memory_stays_below_the_data(variant, norm, noise, limit):
    """A round forms no m x n array.  For l1 the residual is reduced a
    block of columns at a time in a buffer each stats call allocates, so
    none is alive during irls's scatter, which still forms
    Z = X diag(sqrt d).  For l2p no residual is formed.  On noiseless data
    at k = rank every column's downdate cancels, and the recompute runs a
    block of columns at a time; for l1 it runs before the residual buffer
    is allocated, never beside it.  The step's product M W is m x k, and
    pgd's Rayleigh-Ritz step holds S = Q^T X (2k x n) beside T' (k x n)."""
    data, _ = _instance(0, m=200, n=5000, k=5, noise=noise, frac=0.1 if noise else 0.0, scale=5.0)
    tracemalloc.start()
    try:
        fit(data, 5, norm, SolverConfig(variant=variant, max_iter=10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit * data.values.nbytes


def test_irls_converges_on_wide_data():
    """pgd converges in a few rounds, and so does irls with l2p(0.5).
    Without the guard, irls ran all 500 rounds here: its reweighted
    scatter's spectrum closes at the cut on most rounds, and its eigen step
    raised the objective on about half of them.  pgd takes no eigen step,
    so it counts no guarded one."""
    data, _ = _instance(0, m=600, n=120, k=3, frac=0.1, scale=5.0)
    norm = NormSpec.l2p(0.5)
    pgd = fit(data, 3, norm, SolverConfig(variant="pgd"))
    assert pgd.converged and pgd.guarded_steps == 0
    out = fit(data, 3, norm, SolverConfig(variant="irls", max_iter=100))
    assert out.converged and out.guarded_steps >= 1 and out.monotone_violations == 0


def test_shifted_power_step_is_momentums_alone(monkeypatch):
    """From the vanilla start only momentum's step takes a polar factor:
    pgd and irls, whose guard trips on this problem, never call
    ``procrustes_project``."""
    data, _ = _instance(0, m=600, n=120, k=3, frac=0.1, scale=5.0)

    def refuse(matrix):
        raise AssertionError("procrustes_project called")

    monkeypatch.setattr(repca.solvers, "procrustes_project", refuse)
    norm = NormSpec.l2p(0.5)
    assert fit(data, 3, norm, SolverConfig(variant="pgd")).converged
    out = fit(data, 3, norm, SolverConfig(variant="irls", max_iter=100))
    assert out.converged and out.guarded_steps >= 1
    with pytest.raises(AssertionError, match="procrustes_project called"):
        fit(data, 3, norm, SolverConfig(variant="momentum", max_iter=1))


def test_pgd_converges_on_wide_data():
    """On this 600x120 problem irls converges in 16 (l1) and 17 (l2p(1))
    rounds from the vanilla start.  pgd's shifted power step, before 0.10.0,
    ran all 500 rounds unconverged, with no rise: at 20000 rounds l2p(1)
    stopped after 1834 and l1 had not stopped.  The Rayleigh-Ritz step
    converges in 15 and 16."""
    data, _ = _instance(1, m=600, n=120, k=3, frac=0.1, scale=5.0)
    for norm in (NormSpec.l1(), NormSpec.l2p(1.0)):
        assert fit(data, 3, norm, SolverConfig(variant="pgd", max_iter=100)).converged, norm


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: momentum's extrapolated power step has no descent "
    "guarantee and runs all 500 rounds on these problems",
)
def test_momentum_converges_on_60x8_data():
    """Stated guarantee: momentum converges where pgd and irls do.  On these
    60x8 l2p(0.5) problems pgd converges in 34 and 8 rounds and irls in 48
    and 12.  momentum runs all 500; on seed 2 it rises on 494 rounds and
    ends at 5.542, against pgd's 5.260 and irls's 5.206."""
    unconverged = []
    for seed in (0, 2):
        data, _ = _instance(seed, m=60, n=8, k=2, frac=0.1, scale=5.0)
        if not fit(data, 2, NormSpec.l2p(0.5), SolverConfig(variant="momentum")).converged:
            unconverged.append(seed)
    assert unconverged == []


def test_robust_fit_recovers_subspace_under_outliers():
    data, truth = _instance(12, m=10, n=150, k=2, noise=0.02, frac=0.1, scale=6.0)
    van_angle = principal_angles(vanilla_pca(data, 2), truth).max()
    out = fit(data, 2, NormSpec.l1(), SolverConfig(variant="irls"))
    robust_angle = principal_angles(out.projection, truth).max()
    assert robust_angle < van_angle
