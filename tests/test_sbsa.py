"""Spectral-overlap objective and the greedy selection it drives."""

import numpy as np
import pytest

from sparsebeam import beamformer, enumeration, sbsa, scene

from . import oracles


def build(l_count=2, seed=0, n_grid=12, desired=60.0):
    rng = np.random.default_rng(seed)
    doas = rng.choice([d for d in range(10, 171) if d != desired],
                      size=l_count, replace=False)
    scn = scene.Scenario(
        desired=scene.SourceSpec(doa_deg=desired),
        interferers=tuple(
            scene.SourceSpec(doa_deg=float(d),
                             power=float(10 ** (rng.uniform(1.0, 2.0))))
            for d in doas),
        noise_power=1.0)
    return scene.ArrayGeometry(n_grid=n_grid), scn


def test_next_pow2_and_default_length():
    assert sbsa.next_pow2(1) == 1
    assert sbsa.next_pow2(12) == 16
    assert sbsa.next_pow2(16) == 16
    assert sbsa.next_pow2(17) == 32
    assert sbsa.default_dft_length(12) == 32
    # resolved length must cover every autocorrelation lag
    assert sbsa.default_dft_length(12) >= 2 * 12 - 1


def test_dft_length_lower_bound_enforced():
    cfg = sbsa.SbsaConfig(dft_length=16)
    with pytest.raises(ValueError):
        cfg.resolve_dft_length(12)  # needs >= 23
    assert sbsa.SbsaConfig(dft_length=32).resolve_dft_length(12) == 32


def test_selection_autocorrelation_known_values():
    acf = sbsa.selection_autocorrelation([1, 0, 1])
    # lags -2..2 of the pattern 101
    assert acf.tolist() == [1, 0, 2, 0, 1]
    full = sbsa.selection_autocorrelation([1, 1, 1, 1])
    assert full.tolist() == [1, 2, 3, 4, 3, 2, 1]


def test_redundancy_identities():
    for n in (4, 7, 12):
        z = np.ones(n, dtype=int)
        acf = sbsa.selection_autocorrelation(z)
        p = int(z.sum())
        assert acf.sum() == p * p
        assert np.array_equal(acf, acf[::-1])
        assert acf[n - 1] == p  # zero lag carries the cardinality


def oracle_scene(rng, n_grid, l_count):
    """Scenario drawn the way the oracles take it, plus the library object."""
    desired = float(rng.uniform(20.0, 160.0))
    doas = [float(d) for d in rng.choice(
        [d for d in np.arange(10.0, 171.0) if abs(d - desired) > 0.5],
        size=l_count, replace=False)]
    powers = [float(10.0 ** u) for u in rng.uniform(1.0, 2.0, l_count)]
    p_des = float(10.0 ** rng.uniform(-1.0, 1.0))
    scn = scene.Scenario(
        desired=scene.SourceSpec(doa_deg=desired, power=p_des),
        interferers=tuple(scene.SourceSpec(doa_deg=d, power=pw)
                          for d, pw in zip(doas, powers)))
    return scn, (desired, p_des, doas, powers)


@pytest.mark.parametrize("n_grid", [8, 12, 16, 20])
def test_omega_batch_and_spectrum_match_lag_loop_reference(n_grid):
    rng = np.random.default_rng(n_grid)
    masks = (rng.random((24, n_grid)) < 0.5).astype(int)
    default = sbsa.default_dft_length(n_grid)
    # the lag-domain kernel sees the spacing only through each source's phase step
    for spacing in (0.5, 0.3, 0.7):
        geom = scene.ArrayGeometry(n_grid=n_grid, spacing_wavelengths=spacing)
        for k in (2 * n_grid - 1, default, 2 * default):
            for l_count in range(5):
                scn, (desired, p_des, doas, powers) = oracle_scene(rng, n_grid, l_count)
                # the oracle multiplies K-bin spectra built lag by lag from each
                # masked steering vector's autocorrelation
                want = oracles.oracle_omega(masks, spacing, desired, p_des, doas, powers, k)
                np.testing.assert_allclose(sbsa.omega_batch(masks, geom, scn, k), want,
                                           rtol=1e-12, atol=0.0)


def test_lag_counts_match_selection_autocorrelation():
    rng = np.random.default_rng(31)
    for n_grid in (2, 5, 12, 16, 23):
        masks = (rng.random((40, n_grid)) < rng.uniform(0.2, 0.9)).astype(int)
        masks[:, rng.integers(n_grid)] = 1  # at least one sensor per row
        counts = sbsa.lag_counts(masks)
        assert counts.shape == (40, n_grid)
        for mask, row in zip(masks, counts):
            assert row.tolist() == sbsa.selection_autocorrelation(mask)[n_grid - 1:].tolist()
        # bool and float masks count the same
        assert np.array_equal(sbsa.lag_counts(masks.astype(bool)), counts)


def test_omega_batch_is_bit_identical_for_mirrors_and_translations():
    rng = np.random.default_rng(32)
    for n_grid in (8, 12, 16, 20):
        geom = scene.ArrayGeometry(n_grid=n_grid)
        k = sbsa.default_dft_length(n_grid)
        for _ in range(10):
            scn, _ = oracle_scene(rng, n_grid, int(rng.integers(1, 5)))
            span = int(rng.integers(2, n_grid))
            idx = np.concatenate(([0, span - 1], rng.choice(
                np.arange(1, span - 1), size=min(span - 2, int(rng.integers(0, 4))),
                replace=False))).astype(int)
            base = np.zeros(n_grid, dtype=int)
            base[idx] = 1
            twins = [np.roll(base, shift) for shift in range(n_grid - span + 1)]
            twins += [t[::-1] for t in twins]
            others = (rng.random((30, n_grid)) < 0.5).astype(int)
            batch = np.concatenate([others, np.array(twins)])
            perm = rng.permutation(len(batch))
            vals = sbsa.omega_batch(batch[perm], geom, scn, k)
            got = vals[np.argsort(perm)][len(others):]
            alone = sbsa.omega_batch(base, geom, scn, k)[0]
            assert alone > 0.0
            assert got.tolist() == [alone] * len(twins)


@pytest.mark.parametrize("n_grid", [12, 16])
def test_greedy_steps_match_loop_reference(n_grid):
    rng = np.random.default_rng(100 + n_grid)
    geom = scene.ArrayGeometry(n_grid=n_grid)
    k = sbsa.default_dft_length(n_grid)
    for _ in range(20):
        scn, (desired, p_des, doas, powers) = oracle_scene(
            rng, n_grid, int(rng.integers(1, 5)))
        res = sbsa.sbsa_select(geom, scn, 6)
        ref = oracles.oracle_greedy_steps(n_grid, 6, k, 0.5, desired, p_des, doas, powers)
        assert [t.start for t in res.starts] == list(range(n_grid))
        for trace, steps in zip(res.starts, ref):
            assert [i for i, _ in trace.steps] == [i for i, _ in steps]
            np.testing.assert_allclose([v for _, v in trace.steps],
                                       [v for _, v in steps], rtol=1e-12)
            assert trace.mask.tolist() == beamformer.mask_from_indices(
                [trace.start] + [i for i, _ in steps], n_grid).tolist()


def test_omega_zero_without_interference():
    geom = scene.ArrayGeometry(n_grid=8)
    scn = scene.Scenario(desired=scene.SourceSpec(doa_deg=75.0))
    z = beamformer.mask_from_bits("10110100")
    assert sbsa.omega(z, geom, scn) == 0.0


def test_omega_additive_over_interferers():
    geom, scn = build(l_count=3, seed=2)
    z = beamformer.mask_from_bits("101101001010")
    total = sbsa.omega(z, geom, scn)
    parts = 0.0
    for src in scn.interferers:
        single = scene.Scenario(desired=scn.desired, interferers=(src,),
                                noise_power=scn.noise_power)
        parts += sbsa.omega(z, geom, single)
    assert total == pytest.approx(parts, rel=1e-12)


def test_omega_scales_linearly_with_interferer_power():
    geom, scn = build(l_count=1, seed=3)
    z = beamformer.mask_from_bits("110010101100")
    base = sbsa.omega(z, geom, scn)
    boosted = scene.Scenario(
        desired=scn.desired,
        interferers=(scene.SourceSpec(doa_deg=scn.interferers[0].doa_deg,
                                      power=scn.interferers[0].power * 3.0),),
        noise_power=scn.noise_power)
    assert sbsa.omega(z, geom, boosted) == pytest.approx(3.0 * base, rel=1e-12)


def test_omega_batch_matches_scalar_route():
    geom, scn = build(l_count=2, seed=4)
    rng = np.random.default_rng(5)
    masks = np.zeros((12, geom.n_grid), dtype=int)
    for row in masks:
        row[rng.choice(geom.n_grid, size=6, replace=False)] = 1
    k = sbsa.default_dft_length(geom.n_grid)
    batch = sbsa.omega_batch(masks, geom, scn, k)
    for z, val in zip(masks, batch):
        assert sbsa.omega(z, geom, scn, dft_length=k) == pytest.approx(val, rel=1e-12)


def test_greedy_returns_valid_selection_with_traces():
    geom, scn = build(l_count=3, seed=6)
    res = sbsa.sbsa_select(geom, scn, 6)
    beamformer.validate_mask(res.mask, n_grid=geom.n_grid, cardinality=6)
    assert len(res.starts) == geom.n_grid  # default: every sensor seeds a run
    for trace in res.starts:
        beamformer.validate_mask(trace.mask, n_grid=geom.n_grid, cardinality=6)
        assert trace.mask[trace.start] == 1
        assert len(trace.steps) == 5  # p - 1 growth steps after the seed
    # the reported configuration is the best of the per-start candidates
    cands = np.array([t.sinr.linear for t in res.starts])
    assert res.sinr.linear == pytest.approx(cands.max(), rel=1e-12)


def test_greedy_weights_are_consistent_with_mask():
    geom, scn = build(l_count=2, seed=7)
    res = sbsa.sbsa_select(geom, scn, 5)
    r_s, r_sn, r_xx = scene.correlation_matrices(geom, scn)
    assert np.all(res.weights[res.mask == 0] == 0)
    ref = beamformer.max_sinr_weights(r_s, r_xx, mask=res.mask)
    assert np.allclose(res.weights, ref, atol=1e-10)
    assert beamformer.output_sinr(res.weights, r_s, r_sn).linear == pytest.approx(
        res.sinr.linear, rel=1e-10)


def test_greedy_never_beats_exhaustive_search():
    for seed in range(8):
        geom, scn = build(l_count=3, seed=seed)
        greedy = sbsa.sbsa_select(geom, scn, 6)
        best = enumeration.enumerate_best(geom, scn, 6)
        assert greedy.sinr.linear <= best.sinr.linear * (1 + 1e-9)


def test_restricted_starts_and_seeded_sampling():
    geom, scn = build(l_count=2, seed=8)
    a = sbsa.sbsa_select(geom, scn, 4, sbsa.SbsaConfig(n_starts=3, rng_seed=11))
    b = sbsa.sbsa_select(geom, scn, 4, sbsa.SbsaConfig(n_starts=3, rng_seed=11))
    starts = [t.start for t in a.starts]
    assert starts == [t.start for t in b.starts]
    assert len(set(starts)) == 3 and starts == sorted(starts)


def test_omega_of_greedy_steps_is_monotone_per_trace():
    # each growth step appends the currently least-overlapping sensor, so the
    # recorded objective values are the chosen minima at increasing sizes
    geom, scn = build(l_count=3, seed=9)
    res = sbsa.sbsa_select(geom, scn, 6)
    for trace in res.starts:
        picked = [s[0] for s in trace.steps]
        assert len(set(picked)) == len(picked)
        assert trace.start not in picked
