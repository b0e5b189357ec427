"""Scenario construction and correlation-matrix structure."""

import numpy as np
import pytest

from sparsebeam import scene


def make_scenario(l_count=2, seed=0, n_grid=12):
    rng = np.random.default_rng(seed)
    doas = rng.choice(np.arange(10.0, 171.0), size=l_count, replace=False)
    interferers = tuple(
        scene.SourceSpec(doa_deg=float(d), power=float(10 ** (rng.uniform(1, 2))))
        for d in doas)
    return scene.Scenario(
        desired=scene.SourceSpec(doa_deg=60.0, power=1.0),
        interferers=interferers,
        noise_power=1.0), scene.ArrayGeometry(n_grid=n_grid)


def test_steering_vector_unit_modulus_and_first_entry():
    geom = scene.ArrayGeometry(n_grid=8)
    v = scene.steering_vector(geom, 37.0)
    assert v.shape == (8,)
    assert abs(v[0] - 1.0) < 1e-15
    assert np.allclose(np.abs(v), 1.0, atol=1e-12)


def test_steering_vector_broadside_is_all_ones():
    geom = scene.ArrayGeometry(n_grid=6)
    v = scene.steering_vector(geom, 90.0)
    assert np.allclose(v, np.ones(6), atol=1e-12)


def test_steering_vector_matches_hand_value_at_60_degrees():
    # cos(60 deg) = 1/2 with half-wavelength spacing: entry k is exp(j*pi*k/2)
    geom = scene.ArrayGeometry(n_grid=5)
    v = scene.steering_vector(geom, 60.0)
    expected = np.exp(1j * np.pi * 0.5 * np.arange(5))
    assert np.allclose(v, expected, atol=1e-12)


def test_steering_vector_rejects_out_of_range_doa():
    geom = scene.ArrayGeometry(n_grid=4)
    for bad in (0.0, 180.0, -5.0, 200.0):
        with pytest.raises(ValueError):
            scene.steering_vector(geom, bad)


def test_geometry_requires_positive_size():
    with pytest.raises(ValueError):
        scene.ArrayGeometry(n_grid=0)
    with pytest.raises(ValueError):
        scene.ArrayGeometry(n_grid=4, spacing_wavelengths=-0.5)


def test_correlation_matrices_are_hermitian_and_consistent():
    scn, geom = make_scenario(l_count=3, seed=1)
    r_s, r_sn, r_xx = scene.correlation_matrices(geom, scn)
    for r in (r_s, r_sn, r_xx):
        assert np.allclose(r, r.conj().T, atol=1e-12)
    assert np.allclose(r_xx, r_s + r_sn, atol=0)


def test_correlation_matrices_are_toeplitz():
    scn, geom = make_scenario(l_count=4, seed=2)
    _, _, r_xx = scene.correlation_matrices(geom, scn)
    n = geom.n_grid
    for k in range(1, n):
        diag = np.diagonal(r_xx, offset=k)
        assert np.allclose(diag, diag[0], atol=1e-12)


def test_correlation_diagonal_carries_total_power():
    scn, geom = make_scenario(l_count=2, seed=3)
    r_s, r_sn, _ = scene.correlation_matrices(geom, scn)
    total_int = sum(s.power for s in scn.interferers)
    assert np.allclose(np.diag(r_s).real, scn.desired.power, atol=1e-12)
    assert np.allclose(np.diag(r_sn).real, total_int + scn.noise_power, atol=1e-12)


def test_correlation_matrices_positive_semidefinite():
    scn, geom = make_scenario(l_count=3, seed=4)
    r_s, r_sn, r_xx = scene.correlation_matrices(geom, scn)
    for r in (r_s, r_sn, r_xx):
        vals = np.linalg.eigvalsh(r)
        assert vals.min() > -1e-10


def test_noise_only_scenario_gives_scaled_identity_interference():
    geom = scene.ArrayGeometry(n_grid=6)
    scn = scene.Scenario(desired=scene.SourceSpec(doa_deg=75.0), noise_power=2.5)
    _, r_sn, _ = scene.correlation_matrices(geom, scn)
    assert np.allclose(r_sn, 2.5 * np.eye(6), atol=1e-12)


def assert_scenarios_close(a, b):
    # powers serialize through dB, so allow float round-off there
    assert a.desired.doa_deg == b.desired.doa_deg
    assert a.desired.power == pytest.approx(b.desired.power, rel=1e-12)
    assert a.noise_power == pytest.approx(b.noise_power, rel=1e-12)
    assert len(a.interferers) == len(b.interferers)
    for sa, sb in zip(a.interferers, b.interferers):
        assert sa.doa_deg == sb.doa_deg
        assert sa.power == pytest.approx(sb.power, rel=1e-12)


def test_scenario_dict_round_trip(tmp_path):
    scn, _ = make_scenario(l_count=3, seed=6)
    doc = scene.scenario_to_dict(scn)
    assert_scenarios_close(scene.scenario_from_dict(doc), scn)

    path = tmp_path / "scn.json"
    scene.save_scenario(path, scn)
    assert_scenarios_close(scene.load_scenario(path), scn)


def test_scenario_rejects_nonpositive_powers():
    for bad in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            scene.SourceSpec(doa_deg=45.0, power=bad)
        with pytest.raises(ValueError):
            scene.Scenario(desired=scene.SourceSpec(doa_deg=45.0), noise_power=bad)
