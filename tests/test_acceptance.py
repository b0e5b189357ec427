"""Acceptance gates. One test per criterion, each at its stated tolerance.

Criteria 6 and 7 share one trained pipeline via a module-scoped fixture, so
the first of them pays the training cost (a few minutes). The full-scale
benchmark (30000 examples per look DOA, six looks, both label sources) runs
for hours and is opt-in: SPARSEBEAM_FULL_SCALE=1.
"""

import os
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from sparsebeam import (beamformer, enumeration, harness, mlp, nnc, sbsa,
                        scene, snapshots)

from .oracles import (oracle_best_subset, oracle_covariances,
                      oracle_subset_sinr, random_oracle_case)

FULL_SCALE = os.environ.get("SPARSEBEAM_FULL_SCALE") == "1"


def build_scenario(desired, doas, powers):
    return scene.Scenario(
        desired=scene.SourceSpec(desired),
        interferers=tuple(scene.SourceSpec(d, p) for d, p in zip(doas, powers)))


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(200):
        n = int(rng.integers(4, 9))
        p = int(rng.integers(1, min(n, 4) + 1))
        desired, doas, powers = random_oracle_case(rng, n)
        scn = build_scenario(desired, doas, powers)
        r_s, r_sn = oracle_covariances(n, 0.5, desired, 1.0, doas, powers, 1.0)
        want_idx, want_val = oracle_best_subset(r_s, r_sn, p)
        got = enumeration.enumerate_best(scene.ArrayGeometry(n), scn, p)
        assert tuple(np.flatnonzero(got.mask)) == want_idx
        assert got.sinr.linear == pytest.approx(want_val, rel=1e-8)
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: 200/200 oracle matches in {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_2_eigen_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    for _ in range(1000):
        n = int(rng.integers(3, 11))
        desired, doas, powers = random_oracle_case(rng, n)
        geom = scene.ArrayGeometry(n)
        scn = build_scenario(desired, doas, powers)
        r_s, r_sn, r_xx = scene.correlation_matrices(geom, scn)
        p = int(rng.integers(2, n + 1))
        mask = np.zeros(n, dtype=int)
        mask[rng.choice(n, size=p, replace=False)] = 1
        idx = np.flatnonzero(mask)

        # total-covariance route and interference-plus-noise route must agree
        w_xx = beamformer.max_sinr_weights(r_s, r_xx, mask=mask)
        w_sn = beamformer.max_sinr_weights(r_s, r_sn, mask=mask)
        sinr_xx = beamformer.output_sinr(w_xx, r_s, r_sn).linear
        sinr_sn = beamformer.output_sinr(w_sn, r_s, r_sn).linear
        eig = oracle_subset_sinr(r_s, r_sn, idx)
        assert sinr_xx == pytest.approx(eig, rel=1e-8)
        assert sinr_sn == pytest.approx(eig, rel=1e-8)
    elapsed = time.perf_counter() - t0
    print(f"criterion 2: 1000/1000 eigen identities in {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_3_greedy_selection_quality():
    t0 = time.perf_counter()
    cfg = harness.ExperimentConfig(look_doas_deg=(60.0,), n_train_per_look=1,
                                   n_test_per_look=900, seed=3)
    result = harness.evaluate(cfg, ["sbsa", "random", "worst_case"],
                              part="test")
    s = result.summaries
    gap = s["sbsa"].mean_gap_db
    elapsed = time.perf_counter() - t0
    print(f"criterion 3: mean greedy gap {gap:.3f} dB over 900 scenarios "
          f"in {elapsed:.0f}s")
    assert gap <= 0.8
    # model-free ordering: enumeration >= greedy >= random >= worst case
    assert gap >= 0.0
    assert s["sbsa"].mean_sinr_db >= s["random"].mean_sinr_db - 0.15
    assert s["random"].mean_sinr_db >= s["worst_case"].mean_sinr_db - 0.15
    assert elapsed < 600.0


def test_criterion_4_overlap_ordering_trend():
    t0 = time.perf_counter()
    geom = scene.ArrayGeometry(16)
    rng = np.random.default_rng(404)
    nominal = (154.0, 55.0, 117.0, 50.0)
    margins = []
    best_not_min = 0
    for _ in range(20):
        doas = [float(np.clip(d + rng.normal(0.0, 0.5), 0.5, 179.5))
                for d in nominal]
        powers = 10.0 ** (rng.uniform(10.0, 20.0, size=4) / 10.0)
        scn = build_scenario(60.0, doas, powers)
        sweep = harness.overlap_sweep(geom, scn, 6)
        margins.append(sweep.lower_half_mean_db - sweep.upper_half_mean_db)
        best_not_min += int(sweep.best_position != 0)
    margin = float(np.mean(margins))
    elapsed = time.perf_counter() - t0
    print(f"criterion 4: low-overlap half leads by {margin:.3f} dB, best mask "
          f"!= min-overlap mask in {best_not_min}/20 scenarios ({elapsed:.0f}s)")
    assert margin > 0.5
    assert best_not_min > 0
    assert elapsed < 300.0


def test_criterion_5_network_verification():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)

    # finite-difference gradient check, dropout masks held fixed
    model = mlp.init_model([6, 5, 4], seed=3)
    x = rng.normal(size=(7, 6))
    y = (rng.random((7, 4)) > 0.5).astype(float)
    masks = [(rng.random((7, 5)) < 0.9).astype(float)]

    def loss_at():
        return mlp.mse_loss_and_grads(model, x, y, keep_prob=0.9,
                                      dropout_masks=masks)[0]

    _, grads = mlp.mse_loss_and_grads(model, x, y, keep_prob=0.9,
                                      dropout_masks=masks)
    h = 1e-6
    worst = 0.0
    for li in range(model.n_layers):
        for arr, g in ((model.weights[li], grads["w"][li]),
                       (model.biases[li], grads["b"][li])):
            flat = arr.reshape(-1)
            for k in rng.choice(flat.size, size=min(6, flat.size),
                                replace=False):
                keep = flat[k]
                flat[k] = keep + h
                up = loss_at()
                flat[k] = keep - h
                down = loss_at()
                flat[k] = keep
                num = (up - down) / (2.0 * h)
                ana = g.reshape(-1)[k]
                worst = max(worst, abs(num - ana) / max(abs(num), 1e-12))
    assert worst < 1e-4

    # three optimizer steps against a hand-written reference
    toy = mlp.MlpModel(layer_sizes=[1, 1], weights=[np.array([[0.5]])],
                       biases=[np.array([0.25])])
    state = mlp.adam_init(toy)
    w_ref, b_ref = 0.5, 0.25
    m_w = v_w = m_b = v_b = 0.0
    for step in range(1, 4):
        g_w, g_b = 0.3 * step, -0.2 * step
        mlp.adam_step(toy, {"w": [np.array([[g_w]])], "b": [np.array([g_b])]},
                      state, lr=0.01)
        m_w = 0.9 * m_w + 0.1 * g_w
        v_w = 0.999 * v_w + 0.001 * g_w * g_w
        m_b = 0.9 * m_b + 0.1 * g_b
        v_b = 0.999 * v_b + 0.001 * g_b * g_b
        c1, c2 = 1 - 0.9 ** step, 1 - 0.999 ** step
        w_ref -= 0.01 * (m_w / c1) / (np.sqrt(v_w / c2) + 1e-8)
        b_ref -= 0.01 * (m_b / c1) / (np.sqrt(v_b / c2) + 1e-8)
    assert abs(toy.weights[0][0, 0] - w_ref) < 1e-12
    assert abs(toy.biases[0][0] - b_ref) < 1e-12

    # memorize ten rows
    x10 = rng.normal(size=(10, 6))
    y10 = (rng.random((10, 4)) > 0.5).astype(float)
    cfg = mlp.TrainConfig(hidden_sizes=(32,), learning_rate=1e-2,
                          keep_prob=1.0, batch_size=10, max_epochs=800,
                          patience=800, validation_fraction=0.0,
                          normalize_power=False, rng_seed=0)
    fit = mlp.train(x10, y10, cfg)
    elapsed = time.perf_counter() - t0
    print(f"criterion 5: gradcheck {worst:.2e}, optimizer exact, "
          f"memorization MSE {fit.train_losses[-1]:.2e} ({elapsed:.1f}s)")
    assert fit.train_losses[-1] < 1e-3
    assert elapsed < 60.0


@pytest.fixture(scope="module")
def pipeline():
    """Desk-scale learned pipeline shared by criteria 6 and 7."""
    cfg = harness.ExperimentConfig(look_doas_deg=(60.0,),
                                   n_train_per_look=5000,
                                   n_test_per_look=500, seed=7)
    t0 = time.perf_counter()
    records = list(harness.scenario_stream(cfg, "train"))
    x = np.array([r.features for r in records])
    y = np.array([r.label_mask for r in records], dtype=float)
    sids = [r.scenario_id for r in records]
    tcfg = mlp.TrainConfig(rng_seed=1, split_seed=0, patience=80,
                           max_epochs=600, batch_size=64, learning_rate=5e-4,
                           monitor="selection")
    nets = [r.model for r in mlp.train_ensemble(x, y, tcfg, n_members=5,
                                                  scenario_ids=sids)]
    index = nnc.NncIndex(x, y.astype(int))
    result = harness.evaluate(cfg, ["dnn", "nnc"], models={"dnn": nets},
                              nnc_index=index, part="test")
    return SimpleNamespace(cfg=cfg, model=nets, result=result,
                           runtime_s=time.perf_counter() - t0)


def test_criterion_6_scaled_learning_quality(pipeline):
    dnn = pipeline.result.summaries["dnn"]
    base = pipeline.result.summaries["nnc"]
    margin = dnn.mean_sinr_db - base.mean_sinr_db
    print(f"criterion 6: exact match {dnn.exact_match_rate:.3f}, mean gap "
          f"{dnn.mean_gap_db:.3f} dB, lead over nearest neighbour "
          f"{margin:.3f} dB ({pipeline.runtime_s:.0f}s)")
    assert dnn.exact_match_rate >= 0.35
    assert dnn.mean_gap_db <= 1.2
    assert margin >= 0.2
    assert pipeline.runtime_s < 1800.0


def test_criterion_7_snapshot_robustness(pipeline):
    t0 = time.perf_counter()
    cfg = replace(pipeline.cfg, n_snapshots=512, toeplitz_average=True)
    rob = harness.snapshot_robustness(cfg, pipeline.model, part="test")
    elapsed = time.perf_counter() - t0
    print(f"criterion 7: mean |SINR shift| {rob.mean_abs_diff_db:.4f} dB, "
          f"identical masks {rob.mask_match_rate:.3f} ({elapsed:.0f}s)")
    assert rob.mean_abs_diff_db < 0.2
    assert elapsed < 600.0


def test_criterion_8_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    geom = scene.ArrayGeometry(10)
    k = sbsa.default_dft_length(10)
    noise_only = scene.Scenario(desired=scene.SourceSpec(60.0))
    for trial in range(25):
        desired, doas, powers = random_oracle_case(rng, 10)
        scn = build_scenario(desired, doas, powers)
        r_s, r_sn, r_xx = scene.correlation_matrices(geom, scn)
        for r in (r_s, r_sn, r_xx):
            assert np.allclose(r, r.conj().T, rtol=0, atol=1e-12)
        for off in range(10):  # Toeplitz: constant along every diagonal
            diag = np.diagonal(r_xx, off)
            assert np.allclose(diag, diag[0], rtol=0, atol=1e-12)

        p = int(rng.integers(2, 6))
        mask = np.zeros(10, dtype=int)
        mask[rng.choice(10, size=p, replace=False)] = 1
        corr = sbsa.selection_autocorrelation(mask)
        assert corr.sum() == p * p
        assert np.array_equal(corr, corr[::-1])
        assert corr[len(corr) // 2] == p

        total = sbsa.omega(mask, geom, scn, k)
        parts = sum(sbsa.omega(mask, geom,
                               build_scenario(desired, [d], [pw]), k)
                    for d, pw in zip(doas, powers))
        assert total == pytest.approx(parts, rel=1e-8)
        assert sbsa.omega(mask, geom, noise_only, k) == pytest.approx(0.0, abs=1e-12)

        net = mlp.init_model([5, 10], seed=trial)
        pred = mlp.predict_selection([net], rng.normal(size=(4, 5)), p)
        assert np.all(pred.sum(axis=1) == p)

        snaps = snapshots.simulate_snapshots(geom, scn, 64, seed=trial)
        r_hat = snapshots.toeplitz_average(snapshots.sample_covariance(snaps))
        assert np.array_equal(snapshots.toeplitz_average(r_hat), r_hat)

    # the per-scenario dominance audit runs inside evaluate and raises on
    # any method beating the enumerated optimum
    cfg = harness.ExperimentConfig(n_grid=10, n_select=4,
                                   look_doas_deg=(60.0,), n_train_per_look=1,
                                   n_test_per_look=40, seed=8)
    harness.evaluate(cfg, ["sbsa", "compact_ula", "sparse_ula", "random",
                           "worst_case"], part="test")
    elapsed = time.perf_counter() - t0
    print(f"criterion 8: invariants hold on 25 scenes + 40-scenario audit "
          f"({elapsed:.1f}s)")
    assert elapsed < 60.0


@pytest.mark.skipif(not FULL_SCALE,
                    reason="full-scale benchmark takes hours; set "
                           "SPARSEBEAM_FULL_SCALE=1 to run")
def test_full_scale_benchmark():
    """Full-scale benchmark: six looks, 30000 examples each, both labelers.

    Gates the mean exact-match rate and optimality gap across looks, plus
    the mean-SINR ordering chain (enumeration >= learned >= fallbacks) at
    0.15 dB slack per link.
    """
    looks = (15.0, 30.0, 45.0, 60.0, 75.0, 90.0)
    exacts, gaps = [], []
    for look in looks:
        cfg = harness.ExperimentConfig(look_doas_deg=(look,),
                                       n_train_per_look=30000,
                                       n_test_per_look=900, seed=7)
        models = {}
        index = None
        for name, source in (("dnn_en", "enumeration"), ("dnn_sbsa", "sbsa")):
            records = list(harness.scenario_stream(cfg, "train", source))
            x = np.array([r.features for r in records])
            y = np.array([r.label_mask for r in records], dtype=float)
            sids = [r.scenario_id for r in records]
            tcfg = mlp.TrainConfig(rng_seed=1, split_seed=0, patience=80,
                                   max_epochs=600, batch_size=64,
                                   learning_rate=5e-4, monitor="selection")
            results = mlp.train_ensemble(x, y, tcfg, n_members=5,
                                         scenario_ids=sids)
            models[name] = [r.model for r in results]
            if source == "enumeration":
                index = nnc.NncIndex(x, y.astype(int))
        res = harness.evaluate(cfg, ["dnn_en", "dnn_sbsa", "nnc", "sbsa",
                                     "random", "worst_case"],
                               models=models, nnc_index=index, part="test")
        s = res.summaries
        exacts.append(s["dnn_en"].exact_match_rate)
        gaps.append(s["dnn_en"].mean_gap_db)
        enum_mean = s["sbsa"].mean_sinr_db + s["sbsa"].mean_gap_db
        chain_a = (enum_mean, s["dnn_en"].mean_sinr_db, s["nnc"].mean_sinr_db)
        chain_b = (enum_mean, s["sbsa"].mean_sinr_db,
                   s["dnn_sbsa"].mean_sinr_db, s["random"].mean_sinr_db,
                   s["worst_case"].mean_sinr_db)
        for chain in (chain_a, chain_b):
            for hi, lo in zip(chain, chain[1:]):
                assert hi >= lo - 0.15
        print(f"look {look:g}: exact {exacts[-1]:.3f} gap {gaps[-1]:.3f} dB")
    assert float(np.mean(exacts)) >= 0.40
    assert float(np.mean(gaps)) <= 0.7
