"""Finite-sample simulation, covariance estimation, and DOA perturbation."""

import numpy as np
import pytest

from sparsebeam import scene, snapshots


def build(l_count=2, seed=0, n_grid=8):
    rng = np.random.default_rng(seed)
    doas = rng.choice([d for d in range(10, 171) if d != 60], size=l_count,
                      replace=False)
    scn = scene.Scenario(
        desired=scene.SourceSpec(doa_deg=60.0),
        interferers=tuple(
            scene.SourceSpec(doa_deg=float(d),
                             power=float(10 ** (rng.uniform(1.0, 2.0))))
            for d in doas),
        noise_power=1.0)
    return scene.ArrayGeometry(n_grid=n_grid), scn


def test_snapshot_shape_and_determinism():
    geom, scn = build()
    x1 = snapshots.simulate_snapshots(geom, scn, 64, seed=5)
    x2 = snapshots.simulate_snapshots(geom, scn, 64, seed=5)
    x3 = snapshots.simulate_snapshots(geom, scn, 64, seed=6)
    assert x1.shape == (64, geom.n_grid)
    assert x1.dtype == complex
    assert np.array_equal(x1, x2)
    assert not np.array_equal(x1, x3)


def test_sample_covariance_is_hermitian_psd():
    geom, scn = build(seed=1)
    x = snapshots.simulate_snapshots(geom, scn, 128, seed=2)
    r = snapshots.sample_covariance(x)
    assert r.shape == (geom.n_grid, geom.n_grid)
    assert np.array_equal(r, r.conj().T)
    assert np.linalg.eigvalsh(r).min() > -1e-10


def test_sample_covariance_converges_to_exact():
    geom, scn = build(seed=3)
    _, _, r_xx = scene.correlation_matrices(geom, scn)
    r_hat = snapshots.sample_covariance(
        snapshots.simulate_snapshots(geom, scn, 200_000, seed=4))
    scale = np.abs(r_xx).max()
    assert np.abs(r_hat - r_xx).max() / scale < 0.02


def test_toeplitz_average_structure_and_idempotence():
    geom, scn = build(seed=5)
    r = snapshots.sample_covariance(
        snapshots.simulate_snapshots(geom, scn, 64, seed=6))
    t = snapshots.toeplitz_average(r)
    n = geom.n_grid
    for k in range(n):
        diag = np.diagonal(t, offset=k)
        assert np.all(diag == diag[0])
        assert np.array_equal(np.diagonal(t, offset=-k), diag.conj())
    assert np.all(np.diag(t).imag == 0)
    # applying the projection twice changes nothing, bit for bit
    assert np.array_equal(snapshots.toeplitz_average(t), t)


def test_toeplitz_average_preserves_exact_toeplitz_input():
    geom, scn = build(seed=7)
    _, _, r_xx = scene.correlation_matrices(geom, scn)
    t = snapshots.toeplitz_average(r_xx)
    assert np.allclose(t, r_xx, atol=1e-12)


def test_perturbation_spreads_doas_with_expected_scale():
    geom, scn = build(l_count=3, seed=8)
    deltas = []
    for seed in range(400):
        p = snapshots.perturb_scenario(scn, 0.25, seed=seed)
        deltas.append(p.desired.doa_deg - scn.desired.doa_deg)
        assert len(p.interferers) == len(scn.interferers)
        for a, b in zip(p.interferers, scn.interferers):
            assert a.power == b.power
    std = np.std(deltas)
    assert 0.4 < std < 0.6  # sqrt(0.25) = 0.5 deg nominal


def test_perturbation_respects_flags_and_clamps():
    geom, scn = build(l_count=2, seed=9)
    # one seed jitters every source: the desired one first, then each interferer
    moved = snapshots.perturb_scenario(scn, 0.25, seed=1)
    rng = np.random.default_rng(1)
    for a, b in zip([moved.desired, *moved.interferers], [scn.desired, *scn.interferers]):
        assert a.doa_deg == b.doa_deg + rng.normal(0.0, 0.5)

    edge = scene.Scenario(desired=scene.SourceSpec(doa_deg=0.6),
                          noise_power=1.0)
    for seed in range(50):
        p = snapshots.perturb_scenario(edge, 100.0, seed=seed)
        assert 0.5 <= p.desired.doa_deg <= 179.5
    with pytest.raises(ValueError, match="variance"):
        snapshots.perturb_scenario(edge, -0.25, seed=1)
