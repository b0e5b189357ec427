"""Finite-sample simulation, covariance estimation, and DOA perturbation."""

import numpy as np
import pytest

from sparsebeam import harness, scene, snapshots

from .oracles import oracle_perturb_scenario, oracle_toeplitz_average


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


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def random_hermitian_toeplitz(rng, n):
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c[0] = c[0].real
    i, j = np.indices((n, n))
    return np.where(j >= i, c[np.abs(j - i)], c[np.abs(j - i)].conj())


def test_toeplitz_average_matches_loop_bit_for_bit():
    # every pair's mean is np.mean's, kept values and signed zeros included;
    # this also fails if numpy's mean stops being add.reduce plus a division
    rng = np.random.default_rng(20)
    cases = 0
    for trial in range(1200):
        n = trial % 24 + 1
        if trial % 2:  # small integers: many pairs are all equal
            r = rng.integers(-3, 4, size=(n, n)) + 1j * rng.integers(-3, 4, size=(n, n))
        else:
            r = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert same_bits(snapshots.toeplitz_average(r), oracle_toeplitz_average(r))
        cases += 1
    for trial in range(600):
        geom, scn = build(l_count=trial % 5, seed=trial, n_grid=trial % 23 + 2)
        x = snapshots.simulate_snapshots(geom, scn, trial + 1, seed=trial)
        r = snapshots.sample_covariance(x)
        t = snapshots.toeplitz_average(r)
        assert same_bits(t, oracle_toeplitz_average(r))
        cases += 1
    for trial in range(240):
        exact = random_hermitian_toeplitz(rng, trial % 24 + 1)
        t = snapshots.toeplitz_average(exact)
        assert same_bits(t, oracle_toeplitz_average(exact))
        assert np.array_equal(t, exact)
        # bit for bit too, once the diagonal's zero imaginary parts are -0.0
        exact.imag[np.diag_indices_from(exact)] = -0.0
        assert same_bits(snapshots.toeplitz_average(exact), exact)
        cases += 1
    assert cases >= 2000


def test_toeplitz_average_all_equal_diagonal_and_nans():
    rng = np.random.default_rng(22)
    r = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    # one all-equal pair keeps its value, which the mean of its 12 copies would not
    v = 0.1 + 0.7j
    for d in range(6):
        r[d, d + 2], r[d + 2, d] = v, np.conj(v)
    assert np.add.reduce(np.full(12, v)) / 12 != v
    r[1, 5] = np.nan
    r[6, 2] = complex(1.0, np.nan)
    t = snapshots.toeplitz_average(r)
    assert same_bits(t, oracle_toeplitz_average(r))
    assert t[0, 2] == v and t[2, 0] == np.conj(v)
    lag = np.abs(np.subtract.outer(range(8), range(8)))
    assert np.isnan(t[lag == 4]).all() and not np.isnan(t[lag != 4]).any()


def test_toeplitz_average_rejects_non_square_input():
    for bad in (np.zeros((3, 4)), np.zeros(5), np.zeros((2, 2, 2)), np.float64(1.0)):
        with pytest.raises(ValueError, match="square"):
            snapshots.toeplitz_average(bad)


def test_toeplitz_index_tables_are_shared_and_read_only():
    tables = snapshots._diagonal_pairs(5)
    assert snapshots._diagonal_pairs(5) is tables
    arrays = [t for t in tables if isinstance(t, np.ndarray)]
    assert arrays
    for t in arrays:
        with pytest.raises(ValueError):
            t[0] = 1
    # bounded like enumeration._subset_table
    assert snapshots._diagonal_pairs.cache_info().maxsize is not None


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


def test_perturbation_matches_per_source_jitter_bit_for_bit():
    # one rng.normal draw of L+1 jitters and one clip give the stream and the
    # bits of one draw and one clip per source, clamped angles included
    rng = np.random.default_rng(25)
    clamped = 0
    for trial in range(600):
        count = int(rng.integers(0, 5))
        doas = rng.choice(np.arange(0.6, 179.5, 0.1), size=count + 1, replace=False)
        scn = scene.Scenario(
            desired=scene.SourceSpec(float(doas[0]), float(rng.uniform(0.5, 2.0))),
            interferers=tuple(scene.SourceSpec(float(d), float(10 ** rng.uniform(1.0, 2.0)))
                              for d in doas[1:]),
            noise_power=float(rng.uniform(0.5, 2.0)))
        variance = float(rng.choice([0.0, 0.25, 4.0, 400.0]))
        seed = int(rng.integers(0, 2**63))
        try:
            want = oracle_perturb_scenario(scn, variance, seed)
        except ValueError:
            with pytest.raises(ValueError, match="distinct"):
                snapshots.perturb_scenario(scn, variance, seed)
            continue
        got = snapshots.perturb_scenario(scn, variance, seed)
        assert got == want
        clamped += sum(s.doa_deg in (0.5, 179.5) for s in (got.desired, *got.interferers))
    assert clamped > 20


def test_perturbed_redraws_a_collision_like_the_per_source_jitter():
    # two sources near the edge clamp to one angle, which Scenario refuses;
    # _perturbed draws a new seed from its stream until one does not collide
    nominal = scene.Scenario(desired=scene.SourceSpec(179.0),
                             interferers=(scene.SourceSpec(179.2, 10.0),))
    retries = 0
    for seed in range(40):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = harness._perturbed(nominal, 100.0, rng)
        while True:
            try:
                want = oracle_perturb_scenario(nominal, 100.0, int(ref_rng.integers(0, 2**63)))
                break
            except ValueError:
                retries += 1
        assert got == want
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert retries >= 10
