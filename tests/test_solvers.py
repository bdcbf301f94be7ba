import itertools
import sys
import threading
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
from repca.linalg import procrustes_project, top_r_eigvecs
from repca.objectives import column_stats, objective_from_stats, weighted_scatter, weights_from_stats
from repca.solvers import (POWER_SHIFT_RTOL, VARIANTS, check_convergence, count_monotone_violations,
                            weight_clamp)


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
    want = Projection(top_r_eigvecs(data.values @ data.values.T, 2)[0])
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


@pytest.mark.parametrize("norm", (NormSpec.l1(), NormSpec.l2p(0.5)), ids=("l1", "l2p0.5"))
@pytest.mark.parametrize("variant", VARIANTS)
def test_fit_replays_from_the_building_blocks(variant, norm):
    """Four rounds rebuilt from the building blocks equal ``fit`` byte
    for byte.  pgd's round is the shifted power step on the factored
    product, polar(X (d * X^T V) + sigma V) with sigma = POWER_SHIFT_RTOL
    tr(M), at V = W; momentum's is the same step at its extrapolated V.
    Round 3 is the first whose momentum coefficient, 1/4, is nonzero; in
    round 1 the extrapolation vanishes (W_old = W_0), so that round is
    pgd's."""
    data, _ = _instance(0, m=10, n=200, k=2, frac=0.1, scale=5.0)
    config = SolverConfig(variant=variant, max_iter=4, tol=0.0)
    x = data.values
    clamp = weight_clamp(np.linalg.norm(x), data.n_samples)
    col_sq = np.einsum("ij,ij->j", x, x)
    w = w_old = top_r_eigvecs(x @ x.T, 2)[0]
    stats = column_stats(x - w @ (w.T @ x), norm)
    trace = [objective_from_stats(stats, norm)]
    for s in range(1, 5):
        d = weights_from_stats(stats, norm, clamp)
        scatter = weighted_scatter(data, d)
        if variant == "irls":
            w = top_r_eigvecs(scatter, 2)[0]
        else:
            v = w
            if variant == "momentum":
                v = w + ((s - 2.0) / (s + 1.0)) * (w - w_old)
                if s == 1:
                    np.testing.assert_array_equal(v, w)
            shift = POWER_SHIFT_RTOL * float(d @ col_sq)
            np.testing.assert_allclose(shift, POWER_SHIFT_RTOL * np.trace(scatter), rtol=1e-12)
            w, w_old = procrustes_project(x @ ((v.T @ x) * d).T + shift * v), w
        stats = column_stats(x - w @ (w.T @ x), norm)
        trace.append(objective_from_stats(stats, norm))
    out = fit(data, 2, norm, config)
    assert out.iterations == 4
    np.testing.assert_array_equal(out.projection.values, w)
    np.testing.assert_array_equal(out.objective_trace, trace)


def test_pgd_forms_no_scatter_and_no_spectrum(monkeypatch):
    """The power step of pgd and momentum takes M V as X (d * X^T V): it
    never builds the m x m scatter M, and needs no eigenvalue of it."""
    def refuse(*args, **kwargs):
        raise AssertionError("the power step called a dense-scatter helper")

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
    "converge" at once because the span test compared inf with inf."""
    rng = np.random.default_rng(22)
    base = rng.standard_normal((4, 30))
    base -= base.mean(axis=1, keepdims=True)
    config = SolverConfig(variant=variant, init=init, max_iter=5)
    for norm in (NormSpec.l1(), NormSpec.l2p(1.0)):
        with pytest.raises(ValueError, match="overflows"):
            fit(DataMatrix(base * 1e160, centered=True), 2, norm, config)
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
    """The power step ascends tr(W^T M W) without a step-size bound, so pgd
    reaches the planted subspace of noiseless data in a few rounds.  The
    1/lambda_max gradient step ran 500 rounds to J = 5.27 on l1 here."""
    data, w_true, _ = synth_subspace(SynthSpec(m=6, n=50, k_true=2))
    out = fit(data, 2, norm, SolverConfig(init="random"))
    assert out.converged and out.iterations <= 10
    assert principal_angles(out.projection, w_true).max() < 1e-12


def test_pgd_leaves_the_l1_plateau_where_irls_ends():
    """On 60 x 8 Gaussian data, k = 3, the 1/lambda_max step crept to a stop
    at J = 203.44; the power step ends at irls's J = 197.11."""
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


def test_pgd_shift_keeps_the_power_step_full_rank_on_rank1_outliers():
    """Once the basis holds the outlier line, those residuals fall to the
    clamp and their weights reach c^(p-2): the unshifted product M V is
    then rank deficient to rounding, and polar(M V) would raise.  The
    singular values of V = (1 + b) W - b W_old lie in [1, 1 + 2b] for b in
    [0, 1), so the shift sigma = 1e-4 tr(M) bounds s_min / s_max of
    (M + sigma I) V below by 1e-4 / (3 (1 + 1e-4)), at pgd's V = W and at
    momentum's extrapolated V alike: neither variant raises."""
    unshifted, shifted = [], []
    norms = (NormSpec.l2p(0.5), NormSpec.l2p(1.0))
    for variant, frac, norm, seed in itertools.product(("pgd", "momentum"), (0.1, 0.2, 0.3), norms, range(8)):
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
            b = (it - 1.0) / (it + 2.0) if variant == "momentum" else 0.0
            v = w + b * (w - w_old)
            d = weights_from_stats(column_stats(x - w @ (w.T @ x), norm), norm, clamp)
            mv = x @ ((v.T @ x) * d).T
            shift = POWER_SHIFT_RTOL * float(d @ col_sq)
            for product, ratios in ((mv, unshifted), (mv + shift * v, shifted)):
                s = np.linalg.svd(product, compute_uv=False)
                ratios.append(s[-1] / s[0])

        out = fit(data, 2, norm, SolverConfig(variant=variant), callback=step_from)
        assert np.isfinite(out.objective_trace).all()
    assert len(shifted) > 96
    assert min(unshifted) <= 1e-12  # the planted case reaches the hazard
    assert min(shifted) >= POWER_SHIFT_RTOL / (3.0 * (1.0 + POWER_SHIFT_RTOL))


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


@ROBUST_NORMS
@VARIANT_NAMES
@pytest.mark.parametrize("case", ("constant", "single_sample", "m_much_greater_than_n"))
def test_degenerate_inputs_fit_cleanly(case, variant, norm):
    rng = np.random.default_rng(0)
    if case == "constant":
        data, k = _centered(np.full((5, 20), 3.0)), 2
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


def test_robust_fit_recovers_subspace_under_outliers():
    data, truth = _instance(12, m=10, n=150, k=2, noise=0.02, frac=0.1, scale=6.0)
    van_angle = principal_angles(vanilla_pca(data, 2), truth).max()
    out = fit(data, 2, NormSpec.l1(), SolverConfig(variant="irls"))
    robust_angle = principal_angles(out.projection, truth).max()
    assert robust_angle < van_angle
