import numpy as np
import pytest

from repca import (
    DataMatrix,
    NormSpec,
    Projection,
    evaluate,
    objective_value,
    principal_angles,
)


def _basis(arr):
    return Projection(np.asarray(arr, dtype=float))


def test_identical_subspaces_have_zero_angles():
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((7, 3)))
    angles = principal_angles(Projection(q), Projection(q))
    np.testing.assert_allclose(angles, 0.0, atol=1e-15)


def test_orthogonal_lines_meet_at_right_angle():
    a = _basis([[1.0], [0.0]])
    b = _basis([[0.0], [1.0]])
    assert principal_angles(a, b)[0] == pytest.approx(np.pi / 2)


def test_planar_rotation_recovers_the_angle():
    """A tiny angle too: arccos of its cosine, 1 - 5e-19, would read 0."""
    a = _basis([[1.0], [0.0]])
    for theta, atol in ((0.3, 1e-12), (1e-9, 1e-15)):
        b = _basis([[np.cos(theta)], [np.sin(theta)]])
        assert principal_angles(a, b)[0] == pytest.approx(theta, abs=atol)


def test_line_inside_a_plane_meets_it_at_one_zero_angle():
    """Subspaces of different dimension have min(k_a, k_b) angles."""
    plane = _basis([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    line = _basis([[0.6], [0.8], [0.0]])
    for a, b in ((plane, line), (line, plane)):
        angles = principal_angles(a, b)
        assert angles.shape == (1,)
        assert angles[0] == pytest.approx(0.0, abs=1e-15)


def test_angles_ignore_basis_rotation():
    """Angles depend on the subspace, not on which orthonormal basis
    happens to span it."""
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
    rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    angles = principal_angles(Projection(q), Projection(q @ rot))
    np.testing.assert_allclose(angles, 0.0, atol=1e-14)


def test_angles_are_sorted_ascending():
    rng = np.random.default_rng(2)
    for _ in range(20):
        qa, _ = np.linalg.qr(rng.standard_normal((9, 3)))
        qb, _ = np.linalg.qr(rng.standard_normal((9, 3)))
        angles = principal_angles(Projection(qa), Projection(qb))
        assert np.all(np.diff(angles) >= -1e-12)
        assert np.all(angles >= 0.0)
        assert np.all(angles <= np.pi / 2 + 1e-12)


# ----------------------------------------------------------------- evaluate


def test_evaluate_reports_all_three_errors():
    rng = np.random.default_rng(3)
    data = DataMatrix(rng.standard_normal((6, 30)))
    q, _ = np.linalg.qr(rng.standard_normal((6, 2)))
    basis = Projection(q)
    report = evaluate(data, basis, norm=NormSpec.l2p(1.5))
    assert report.error_fro2 == objective_value(data, basis, NormSpec.fro())
    assert report.error_l1 == objective_value(data, basis, NormSpec.l1())
    assert report.error_l2p == objective_value(data, basis, NormSpec.l2p(1.5))
    assert report.l2p_exponent == 1.5
    assert report.angles_rad is None
    assert report.max_angle_rad is None


def test_evaluate_default_exponent_is_one():
    rng = np.random.default_rng(4)
    data = DataMatrix(rng.standard_normal((5, 20)))
    q, _ = np.linalg.qr(rng.standard_normal((5, 2)))
    report = evaluate(data, Projection(q), norm=NormSpec.l1())
    assert report.l2p_exponent == 1.0
    assert report.error_l2p == pytest.approx(
        objective_value(data, Projection(q), NormSpec.l2p(1.0))
    )


def test_evaluate_angles_against_reference():
    rng = np.random.default_rng(5)
    data = DataMatrix(rng.standard_normal((6, 30)))
    q, _ = np.linalg.qr(rng.standard_normal((6, 2)))
    ref, _ = np.linalg.qr(rng.standard_normal((6, 2)))
    report = evaluate(data, Projection(q), Projection(ref))
    assert report.angles_rad is not None
    assert report.max_angle_rad == pytest.approx(report.angles_rad[-1])
    with pytest.raises(ValueError):
        report.angles_rad[0] = 0.0
