"""Weight computation, SINR evaluation, and mask utilities."""

import numpy as np
import pytest

from sparsebeam import beamformer, scene

from .oracles import oracle_dense_subset_sinr


def build(l_count=2, seed=0, n_grid=10, desired=60.0):
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
    geom = scene.ArrayGeometry(n_grid=n_grid)
    return geom, scn


def test_mask_helpers_round_trip():
    z = beamformer.mask_from_indices([0, 3, 5], 8)
    assert z.tolist() == [1, 0, 0, 1, 0, 1, 0, 0]
    assert beamformer.indices_from_mask(z).tolist() == [0, 3, 5]
    bits = beamformer.mask_bits(z)
    assert bits == "10010100"
    assert np.array_equal(beamformer.mask_from_bits(bits), z)


def test_validate_mask_rejects_bad_inputs():
    with pytest.raises(ValueError):
        beamformer.validate_mask([0, 2, 1])
    with pytest.raises(ValueError):
        beamformer.validate_mask([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        beamformer.validate_mask([0, 0, 0, 0])
    with pytest.raises(ValueError):
        beamformer.validate_mask([1, 0, 1], n_grid=4)
    with pytest.raises(ValueError):
        beamformer.validate_mask([1, 0, 1], cardinality=3)
    z = beamformer.validate_mask([1, 0, 1], n_grid=3, cardinality=2)
    assert z.dtype.kind == "i"


def test_subarray_extracts_principal_block():
    r = np.arange(16).reshape(4, 4)
    sub = beamformer.subarray(r, [1, 0, 1, 0])
    assert np.array_equal(sub, r[np.ix_([0, 2], [0, 2])])


def test_full_array_weights_maximize_sinr_over_random_vectors():
    geom, scn = build(l_count=3, seed=1)
    r_s, r_sn, r_xx = scene.correlation_matrices(geom, scn)
    w = beamformer.max_sinr_weights(r_s, r_xx)
    best = beamformer.output_sinr(w, r_s, r_sn).linear
    rng = np.random.default_rng(2)
    for _ in range(200):
        v = rng.standard_normal(geom.n_grid) + 1j * rng.standard_normal(geom.n_grid)
        assert beamformer.output_sinr(v, r_s, r_sn).linear <= best * (1 + 1e-9)


def test_weights_satisfy_unit_source_power_and_phase_convention():
    geom, scn = build(l_count=2, seed=3)
    r_s, _, r_xx = scene.correlation_matrices(geom, scn)
    w = beamformer.max_sinr_weights(r_s, r_xx)
    assert (w.conj() @ r_s @ w).real == pytest.approx(1.0, abs=1e-10)
    k0 = np.flatnonzero(np.abs(w) > 1e-12 * np.abs(w).max())[0]
    assert abs(w[k0].imag) < 1e-12
    assert w[k0].real > 0


def test_masked_weights_vanish_off_support_and_match_subarray_solve():
    geom, scn = build(l_count=2, seed=4)
    r_s, r_sn, r_xx = scene.correlation_matrices(geom, scn)
    mask = beamformer.mask_from_indices([0, 2, 5, 9], geom.n_grid)
    w = beamformer.max_sinr_weights(r_s, r_xx, mask=mask)
    assert np.all(w[mask == 0] == 0)
    w_sub = beamformer.max_sinr_weights(
        beamformer.subarray(r_s, mask), beamformer.subarray(r_xx, mask))
    assert np.allclose(w[mask == 1], w_sub, atol=1e-10)


def test_output_sinr_scale_invariance():
    geom, scn = build(l_count=2, seed=5)
    r_s, r_sn, _ = scene.correlation_matrices(geom, scn)
    rng = np.random.default_rng(6)
    v = rng.standard_normal(geom.n_grid) + 1j * rng.standard_normal(geom.n_grid)
    a = beamformer.output_sinr(v, r_s, r_sn).linear
    b = beamformer.output_sinr(v * (3.0 - 2.0j), r_s, r_sn).linear
    assert a == pytest.approx(b, rel=1e-12)


def test_weights_reject_higher_rank_source_matrix():
    geom, scn = build(l_count=2, seed=4)
    r_s, _, r_xx = scene.correlation_matrices(geom, scn)
    # a second source direction makes R_s rank two
    v = scene.steering_vector(geom, 100.0)
    r_s2 = r_s + np.outer(v, v.conj())
    with pytest.raises(ValueError, match="rank one"):
        beamformer.max_sinr_weights(r_s2, r_xx)
    with pytest.raises(ValueError, match="rank one"):
        beamformer.max_sinr_weights(r_s2, r_xx, mask=[1, 0, 1, 1, 0, 1, 0, 0, 1, 0])


def test_output_sinr_rejects_zero_weights():
    geom, scn = build(l_count=1, seed=7)
    r_s, r_sn, _ = scene.correlation_matrices(geom, scn)
    with pytest.raises(ValueError):
        beamformer.output_sinr(np.zeros(geom.n_grid), r_s, r_sn)


def test_sinr_dataclass_db_conversion():
    s = beamformer.Sinr(linear=100.0)
    assert s.db == pytest.approx(20.0, abs=1e-12)
    assert beamformer.sinr_db(np.array([1.0, 10.0]))[1] == pytest.approx(10.0)


def test_subset_batch_matches_weight_route():
    geom, scn = build(l_count=3, seed=8, n_grid=12)
    r_s, r_sn, r_xx = scene.correlation_matrices(geom, scn)
    rng = np.random.default_rng(9)
    masks = np.array([beamformer.mask_from_indices(rng.choice(12, size=5, replace=False), 12)
                      for _ in range(40)])
    batch = beamformer.subset_sinr_batch(beamformer.scene_terms(geom, scn), masks)
    for mask, val in zip(masks, batch):
        w = beamformer.max_sinr_weights(r_s, r_xx, mask=mask)
        ref = beamformer.output_sinr(w, r_s, r_sn).linear
        assert val == pytest.approx(ref, rel=1e-9)


def test_masks_sinr_wrapper_agrees_with_batch():
    geom, scn = build(l_count=2, seed=10, n_grid=9)
    masks = np.array([
        beamformer.mask_from_bits("111100000"),
        beamformer.mask_from_bits("101010100"),
        beamformer.mask_from_bits("000011011"),
    ])
    vals = beamformer.masks_sinr(geom, scn, masks)
    ref = beamformer.subset_sinr_batch(beamformer.scene_terms(geom, scn), masks)
    assert np.array_equal(vals, ref)


def test_subset_scorer_matches_dense_solve():
    # interferer-space scorer against one P x P solve per subset, for every
    # interferer count the scenes use and none at all
    rng = np.random.default_rng(31)
    worst = 0.0
    for n in (8, 12, 16, 20):
        geom = scene.ArrayGeometry(n_grid=n)
        for l_count in range(5):
            for _ in range(3):
                desired = float(rng.uniform(20.0, 160.0))
                doas = [float(d) for d in rng.uniform(10.0, 170.0, size=l_count)]
                powers = [float(10.0 ** (db / 10.0)) for db in rng.uniform(10.0, 20.0, l_count)]
                p = int(rng.integers(1, n))
                masks = np.zeros((50, n), dtype=int)
                for row in masks:
                    row[rng.choice(n, size=p, replace=False)] = 1
                scn = scene.Scenario(
                    desired=scene.SourceSpec(desired, 2.0),
                    interferers=tuple(scene.SourceSpec(d, pw) for d, pw in zip(doas, powers)),
                    noise_power=0.5)
                got = beamformer.subset_sinr_batch(beamformer.scene_terms(geom, scn), masks)
                want = oracle_dense_subset_sinr(n, 0.5, desired, 2.0, doas, powers, 0.5, masks)
                worst = max(worst, float(np.max(np.abs(got - want) / want)))
    assert worst < 1e-12


def test_mirrored_mask_scores_the_same():
    # reversing the grid turns every steering vector into its conjugate times
    # a unit phase, which leaves each subset's SINR unchanged
    rng = np.random.default_rng(32)
    for trial in range(30):
        n = int(rng.integers(6, 17))
        geom, scn = build(l_count=int(rng.integers(0, 5)), seed=100 + trial, n_grid=n)
        p = int(rng.integers(1, n + 1))
        masks = np.zeros((20, n), dtype=int)
        for row in masks:
            row[rng.choice(n, size=p, replace=False)] = 1
        vals = beamformer.masks_sinr(geom, scn, masks)
        mirrored = beamformer.masks_sinr(geom, scn, masks[:, ::-1])
        assert np.allclose(mirrored, vals, rtol=1e-12, atol=0)


def test_masks_sinr_requires_common_cardinality():
    geom, scn = build(l_count=1, seed=11, n_grid=6)
    with pytest.raises(ValueError):
        beamformer.masks_sinr(geom, scn, [[1, 1, 0, 0, 0, 0], [1, 1, 1, 0, 0, 0]])


def test_more_sensors_never_hurt_optimum_sinr():
    # adding a sensor enlarges the feasible weight set
    geom, scn = build(l_count=3, seed=12, n_grid=10)
    r_s, r_sn, r_xx = scene.correlation_matrices(geom, scn)
    small = beamformer.mask_from_indices([1, 4, 7], geom.n_grid)
    big = beamformer.mask_from_indices([1, 4, 7, 8], geom.n_grid)
    w_small = beamformer.max_sinr_weights(r_s, r_xx, mask=small)
    w_big = beamformer.max_sinr_weights(r_s, r_xx, mask=big)
    assert (beamformer.output_sinr(w_big, r_s, r_sn).linear
            >= beamformer.output_sinr(w_small, r_s, r_sn).linear - 1e-12)
