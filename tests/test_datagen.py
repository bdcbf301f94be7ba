import re
import warnings

import numpy as np
import pytest

from repca import DataMatrix, InvalidSpec, SynthSpec, center_columns, synth_subspace
from repca.datagen import _draw_raw
from repca.linalg import procrustes_project

# (m, n, k) of the benchmark's small_grid, tall and cli_csv problems
BENCHMARK_SHAPES = ((10, 200, 2), (200, 5000, 5), (20, 20000, 3))


def test_spec_validation_names_the_field():
    cases = {
        "m": dict(m=0, n=10, k_true=1),
        "n": dict(m=5, n=0, k_true=1),
        "k_true": dict(m=5, n=10, k_true=6),
        "noise_sigma": dict(m=5, n=10, k_true=2, noise_sigma=-0.1),
        "outlier_frac": dict(m=5, n=10, k_true=2, outlier_frac=1.0),
        "outlier_scale": dict(m=5, n=10, k_true=2, outlier_scale=0.0),
    }
    for field, kwargs in cases.items():
        with pytest.raises(InvalidSpec, match=field):
            SynthSpec(**kwargs)
    with pytest.raises(InvalidSpec, match="k_true"):
        SynthSpec(m=5, n=10, k_true=0)


@pytest.mark.parametrize("field, value", (
    ("noise_sigma", float("nan")), ("noise_sigma", float("inf")),
    ("outlier_scale", float("nan")), ("outlier_scale", float("inf")),
    # ints past the float range
    pytest.param("noise_sigma", 10 ** 400, id="noise_sigma-10**400"),
    pytest.param("outlier_scale", 10 ** 400, id="outlier_scale-10**400"),
    ("seed", -1),
))
def test_spec_rejects_non_finite_scales_and_negative_seeds(field, value):
    with pytest.raises(InvalidSpec, match=field):
        SynthSpec(m=5, n=10, k_true=2, outlier_frac=0.1, **{field: value})


@pytest.mark.parametrize("field, value", (
    ("m", 5.0), ("m", True), ("n", 40.0), ("k_true", 2.0), ("seed", 1.5), ("seed", False),
))
def test_spec_counts_must_be_integers(field, value):
    with pytest.raises(InvalidSpec, match=f"^{field} must be an integer"):
        SynthSpec(**{"m": 5, "n": 40, "k_true": 2, field: value})


@pytest.mark.parametrize("field, value", (
    ("noise_sigma", True), ("noise_sigma", "0.1"), ("outlier_frac", False),
    ("outlier_frac", "0.1"), ("outlier_scale", True), ("outlier_scale", "2"),
))
def test_spec_scales_must_be_numbers(field, value):
    with pytest.raises(InvalidSpec, match=f"^{field} must be a number"):
        SynthSpec(**{"m": 3, "n": 5, "k_true": 1, field: value})
    assert SynthSpec(3, 5, 1, **{field: np.float64(0.5)}) == SynthSpec(3, 5, 1, **{field: 0.5})


def test_spec_accepts_numpy_integers():
    spec = SynthSpec(m=np.int64(5), n=np.int32(40), k_true=np.int8(2), seed=np.uint16(3))
    want = SynthSpec(m=5, n=40, k_true=2, seed=3)
    assert np.array_equal(synth_subspace(spec)[0].values, synth_subspace(want)[0].values)


def test_outlier_count_floors():
    assert SynthSpec(m=3, n=99, k_true=1, outlier_frac=0.1).outlier_count == 9
    assert SynthSpec(m=3, n=10, k_true=1).outlier_count == 0
    assert SynthSpec(m=3, n=10, k_true=1, outlier_frac=0.25).outlier_count == 2


def test_same_seed_same_bits():
    spec = SynthSpec(m=6, n=40, k_true=2, noise_sigma=0.1,
                     outlier_frac=0.1, outlier_scale=3.0, seed=5)
    a_data, a_basis, a_mask = synth_subspace(spec)
    b_data, b_basis, b_mask = synth_subspace(spec)
    np.testing.assert_array_equal(a_data.values, b_data.values)
    np.testing.assert_array_equal(a_basis.values, b_basis.values)
    np.testing.assert_array_equal(a_mask, b_mask)


def test_different_seeds_differ():
    kwargs = dict(m=6, n=40, k_true=2, noise_sigma=0.1)
    a, _, _ = synth_subspace(SynthSpec(seed=0, **kwargs))
    b, _, _ = synth_subspace(SynthSpec(seed=1, **kwargs))
    assert not np.array_equal(a.values, b.values)


def test_output_is_centered():
    data, _, _ = synth_subspace(SynthSpec(m=7, n=50, k_true=3, noise_sigma=0.2, seed=2))
    assert data.centered
    np.testing.assert_allclose(data.values.sum(axis=1), 0.0, atol=1e-10)


def test_mask_marks_trailing_columns():
    spec = SynthSpec(m=4, n=20, k_true=1, outlier_frac=0.2, outlier_scale=5.0, seed=3)
    _, _, mask = synth_subspace(spec)
    assert mask.sum() == 4
    assert mask[-4:].all()
    assert not mask[:-4].any()


def test_noiseless_inliers_lie_in_the_true_span():
    spec = SynthSpec(m=8, n=30, k_true=2, outlier_frac=0.2, outlier_scale=5.0, seed=4)
    raw, basis, mask = _draw_raw(spec)
    w = basis.values
    off_span = raw - w @ (w.T @ raw)
    inlier_err = np.linalg.norm(off_span[:, ~mask], axis=0)
    outlier_err = np.linalg.norm(off_span[:, mask], axis=0)
    assert inlier_err.max() < 1e-12
    assert outlier_err.min() > 1e-3


def test_noiseless_data_has_true_rank():
    data, _, _ = synth_subspace(SynthSpec(m=9, n=60, k_true=3, seed=6))
    s = np.linalg.svd(data.values, compute_uv=False)
    assert s[3] <= 1e-12 * s[0]


def test_noise_moves_samples_off_span():
    spec = SynthSpec(m=8, n=30, k_true=2, noise_sigma=0.5, seed=7)
    raw, basis, _ = _draw_raw(spec)
    w = basis.values
    off_span = np.linalg.norm(raw - w @ (w.T @ raw), axis=0)
    assert off_span.min() > 1e-3


def _reference_draw(spec):
    """The draw written out plainly: basis @ coeffs + sigma * noise, then
    the outlier columns overwritten."""
    rng = np.random.default_rng(spec.seed)
    basis = procrustes_project(rng.standard_normal((spec.m, spec.k_true)))
    coeffs = rng.standard_normal((spec.k_true, spec.n))
    raw = basis @ coeffs + spec.noise_sigma * rng.standard_normal((spec.m, spec.n))
    n_out = spec.outlier_count
    if n_out:
        raw[:, spec.n - n_out:] = spec.outlier_scale * rng.standard_normal((spec.m, n_out))
    return raw, basis


@pytest.mark.parametrize("m, n, k", BENCHMARK_SHAPES)
@pytest.mark.parametrize("sigma, frac", ((0.1, 0.1), (0.0, 0.1), (0.1, 0.0)))
def test_draw_matches_the_reference_construction_bit_for_bit(m, n, k, sigma, frac):
    spec = SynthSpec(m=m, n=n, k_true=k, noise_sigma=sigma, outlier_frac=frac,
                     outlier_scale=5.0, seed=7)
    want_raw, want_basis = _reference_draw(spec)
    raw, basis, mask = _draw_raw(spec)
    assert raw.tobytes() == want_raw.tobytes()
    assert basis.values.tobytes() == want_basis.tobytes()
    assert mask.sum() == spec.outlier_count and mask[n - spec.outlier_count:].all()

    data, basis, synth_mask = synth_subspace(spec)
    want = center_columns(DataMatrix(want_raw))[0].values
    assert data.values.tobytes() == want.tobytes()
    assert data.values.tobytes() == (want_raw - want_raw.mean(axis=1)[:, None]).tobytes()
    assert data.centered and data.values.flags.c_contiguous
    assert basis.values.tobytes() == want_basis.tobytes()
    np.testing.assert_array_equal(synth_mask, mask)


@pytest.mark.parametrize("kwargs, name", (
    (dict(noise_sigma=1e308), "noise_sigma"),  # the noise itself overflows
    (dict(noise_sigma=1e307), "noise_sigma"),  # finite entries, overflowing row sums
    (dict(outlier_scale=1e308, outlier_frac=0.5), "outlier_scale"),
    (dict(outlier_scale=1e307, outlier_frac=0.5), "outlier_scale"),
    (dict(noise_sigma=1e308, outlier_scale=1e308, outlier_frac=0.5), "noise_sigma"),
), ids=("noise", "noise_sums", "outliers", "outlier_sums", "both"))
def test_overflowing_scale_raises_one_named_error(kwargs, name):
    spec = SynthSpec(m=20, n=5000, k_true=2, **kwargs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"{name} = {getattr(spec, name):g} is too large")):
            synth_subspace(spec)
