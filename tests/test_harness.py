"""Experiment configuration, dataset streams, baselines, and evaluation."""

import numpy as np
import pytest

from sparsebeam import beamformer, cli, enumeration, harness, mlp, nnc, scene


def tiny_config(**overrides):
    base = dict(n_grid=8, n_select=3, look_doas_deg=(60.0,),
                n_train_per_look=12, n_test_per_look=8, seed=5)
    base.update(overrides)
    return harness.ExperimentConfig(**base)


def test_config_round_trip_and_hash(tmp_path):
    cfg = tiny_config(n_snapshots=64, label_source="sbsa")
    path = tmp_path / "cfg.json"
    harness.save_config(path, cfg)
    back = harness.load_config(path)
    assert back == cfg
    assert harness.config_hash(back) == harness.config_hash(cfg)
    assert harness.config_hash(tiny_config(seed=6)) != harness.config_hash(cfg)


def test_config_validation_and_alias():
    with pytest.raises(ValueError):
        tiny_config(n_select=9)
    with pytest.raises(ValueError):
        tiny_config(look_doas_deg=(0.0,))
    with pytest.raises(ValueError):
        tiny_config(inr_db_range=(20.0, 10.0))
    with pytest.raises(ValueError):
        tiny_config(label_source="oracle")
    with pytest.raises(ValueError):
        harness.config_from_dict({"n_grid": 8, "bogus_key": 1})
    assert tiny_config(label_source="enumerate").label_source == "enumeration"


def test_draw_scenario_respects_config_ranges():
    cfg = tiny_config(n_interferers_range=(2, 3), inr_db_range=(12.0, 14.0))
    rng = np.random.default_rng(0)
    grid = set(cfg.interferer_grid(exclude=60.0).tolist())
    for _ in range(40):
        scn = harness.draw_scenario(cfg, 60.0, rng)
        assert scn.desired.doa_deg == 60.0
        assert scn.desired.power == pytest.approx(1.0)
        assert 2 <= scn.n_interferers <= 3
        for src in scn.interferers:
            assert src.doa_deg in grid
            inr_db = 10 * np.log10(src.power / cfg.noise_power)
            assert 12.0 - 1e-9 <= inr_db <= 14.0 + 1e-9
        doas = [s.doa_deg for s in scn.interferers]
        assert doas == sorted(doas)
        assert len(set(doas)) == len(doas)


def test_scenario_stream_is_deterministic_and_labeled_optimally():
    cfg = tiny_config()
    a = list(harness.scenario_stream(cfg, "test"))
    b = list(harness.scenario_stream(cfg, "test"))
    assert len(a) == cfg.n_test_per_look
    for ra, rb in zip(a, b):
        assert ra.scenario_id == rb.scenario_id
        assert ra.scenario == rb.scenario
        assert np.array_equal(ra.features, rb.features)
        assert np.array_equal(ra.label_mask, rb.label_mask)
    geom = cfg.geometry
    for rec in a[:4]:
        best = enumeration.enumerate_best(geom, rec.scenario, cfg.n_select)
        assert np.array_equal(rec.label_mask, best.mask)
        assert rec.label_sinr.linear == pytest.approx(best.sinr.linear)
        assert rec.features.shape == (2 * cfg.n_grid - 1,)


def test_scenario_ids_carry_look_and_interferer_count():
    cfg = tiny_config()
    for rec in list(harness.scenario_stream(cfg, "test"))[:5]:
        look, l_tag, idx = rec.scenario_id.split("-")
        assert look == "look60"
        assert l_tag == f"L{rec.scenario.n_interferers}"
        assert len(idx) == 5


def test_train_and_test_parts_use_disjoint_streams():
    cfg = tiny_config(n_train_per_look=8, n_test_per_look=8)
    train = list(harness.scenario_stream(cfg, "train"))
    test = list(harness.scenario_stream(cfg, "test"))
    diffs = sum(ta.scenario != tb.scenario for ta, tb in zip(train, test))
    assert diffs > 0


def test_sbsa_labels_never_beat_enumeration_labels():
    cfg = tiny_config(n_test_per_look=6)
    enum_recs = list(harness.scenario_stream(cfg, "test", label_source="enumeration"))
    sbsa_recs = list(harness.scenario_stream(cfg, "test", label_source="sbsa"))
    for re_, rs in zip(enum_recs, sbsa_recs):
        assert rs.label_sinr.linear <= re_.label_sinr.linear * (1 + 1e-9)


def test_dataset_matches_stream(tmp_path):
    cfg = tiny_config(n_train_per_look=5)
    harness.save_config(tmp_path / "cfg.json", cfg)
    assert cli.main(["gen-data", str(tmp_path / "cfg.json"), "--part", "train",
                     "--out-dir", str(tmp_path)]) == 0
    x, y, sids = mlp.read_dataset_csv(tmp_path / "train.csv")
    recs = list(harness.scenario_stream(cfg, "train"))
    assert sids == [rec.scenario_id for rec in recs]
    assert np.array_equal(x, [rec.features for rec in recs])
    assert np.array_equal(y, [rec.label_mask for rec in recs])


def test_baseline_mask_shapes():
    assert beamformer.mask_bits(harness.compact_ula_mask(12, 6)) == "111111000000"
    assert beamformer.mask_bits(harness.sparse_ula_mask(12, 6)) == "101010101010"
    assert beamformer.mask_bits(harness.sparse_ula_mask(8, 2)) == "10000001"
    assert beamformer.mask_bits(harness.sparse_ula_mask(5, 1)) == "10000"
    rng = np.random.default_rng(1)
    draws = harness.random_masks(10, 4, 25, rng)
    assert draws.shape == (25, 10)
    assert np.all(draws.sum(axis=1) == 4)


def test_worst_case_mask_is_the_enumerated_minimum():
    cfg = tiny_config()
    rec = next(iter(harness.scenario_stream(cfg, "test")))
    worst = harness.worst_case_mask(cfg.geometry, rec.scenario, cfg.n_select)
    ref = enumeration.enumerate_worst(cfg.geometry, rec.scenario, cfg.n_select)
    assert np.array_equal(worst, ref.mask)


def test_select_from_exact_covariance_recovers_enumeration_best():
    cfg = tiny_config()
    geom = cfg.geometry
    for rec in list(harness.scenario_stream(cfg, "test"))[:5]:
        _, _, r_xx = scene.correlation_matrices(geom, rec.scenario)
        steer = scene.steering_vector(geom, rec.scenario.desired.doa_deg)
        mask = harness.select_from_covariance(r_xx, steer, cfg.n_select)
        assert np.array_equal(mask, rec.label_mask)


def test_finite_sample_trial_gap_is_nonnegative():
    cfg = tiny_config(n_snapshots=256)
    rec = next(iter(harness.scenario_stream(cfg, "test")))
    mask_exact, mask_est, gap_db = harness.finite_sample_trial(cfg, rec.scenario, seed=3)
    assert mask_exact.sum() == cfg.n_select
    assert mask_est.sum() == cfg.n_select
    assert gap_db >= -1e-9
    with pytest.raises(ValueError):
        harness.finite_sample_trial(tiny_config(), rec.scenario, seed=3)


def test_snapshot_robustness_pairs_streams():
    cfg = tiny_config(n_snapshots=512, n_test_per_look=6)
    model = [mlp.init_model([2 * cfg.n_grid - 1, 10, cfg.n_grid], seed=0)]
    res = harness.snapshot_robustness(cfg, model, part="test")
    assert res.diffs_db.shape == (6,)
    assert 0.0 <= res.mask_match_rate <= 1.0
    assert res.mean_abs_diff_db >= 0.0
    with pytest.raises(ValueError):
        harness.snapshot_robustness(tiny_config(), model)


def test_evaluate_audits_and_summarizes(tmp_path):
    cfg = tiny_config(n_test_per_look=6)
    train = list(harness.scenario_stream(cfg, "train"))
    x = np.stack([ex.features for ex in train])
    index = nnc.NncIndex(x, np.stack([ex.label_mask for ex in train]))
    model = [mlp.init_model([2 * cfg.n_grid - 1, 10, cfg.n_grid], seed=1)]
    methods = ["dnn", "sbsa", "nnc", "compact_ula", "sparse_ula", "random",
               "worst_case"]
    result = harness.evaluate(cfg, methods, models={"dnn": model},
                              nnc_index=index, n_random=20)
    assert len(result.rows) == 6
    s = result.summaries
    assert set(s) == set(methods)
    # the audit passed, so nothing beat the optimum; spot-check orderings
    for m in methods:
        assert s[m].mean_gap_db >= -1e-12
    assert s["sbsa"].mean_sinr_db >= s["worst_case"].mean_sinr_db
    assert s["random"].exact_match_rate is None
    assert 0.0 <= s["nnc"].exact_match_rate <= 1.0

    # per-scenario rows carry one mask and one dB value per method
    row = result.rows[0]
    assert row["random_mask_bits"] == ""
    for m in ("dnn", "sbsa", "nnc", "compact_ula", "sparse_ula", "worst_case"):
        assert set(row[f"{m}_mask_bits"]) <= {"0", "1"}
        assert isinstance(row[f"{m}_sinr_db"], float)


def test_evaluate_rejects_unknown_method_and_missing_index():
    cfg = tiny_config(n_test_per_look=2)
    with pytest.raises(ValueError):
        harness.evaluate(cfg, ["bogus"])
    with pytest.raises(ValueError):
        harness.evaluate(cfg, ["nnc"])


def test_report_csv_is_byte_identical_across_runs(tmp_path):
    cfg = tiny_config(n_test_per_look=5)
    methods = ["sbsa", "compact_ula", "random"]
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    harness.write_report_csv(p1, harness.evaluate(cfg, methods, n_random=10))
    harness.write_report_csv(p2, harness.evaluate(cfg, methods, n_random=10))
    assert p1.read_bytes() == p2.read_bytes()


def test_overlap_sweep_consistency(tmp_path):
    cfg = tiny_config()
    rec = next(iter(harness.scenario_stream(cfg, "test")))
    sweep = harness.overlap_sweep(cfg.geometry, rec.scenario, cfg.n_select)
    n = len(sweep.omegas)
    assert n == 56  # C(8, 3)
    assert np.all(np.diff(sweep.omegas) >= 0)
    best_pos = int(np.argmax(sweep.sinr_db))
    assert sweep.best_position == best_pos
    half = n // 2
    assert sweep.lower_half_mean_db == pytest.approx(
        float(np.mean(sweep.sinr_db[:half])))
    path = tmp_path / "sweep.csv"
    harness.write_sweep_csv(path, sweep)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "position,rank_id,omega,sinr_db"
    assert len(lines) == n + 1


def jittered_sweep_scenes(seed, count):
    """N=16 sweep scenes: four interferers jittered around fixed directions."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        doas = [float(np.clip(d + rng.normal(0.0, 0.5), 0.5, 179.5))
                for d in (154.0, 55.0, 117.0, 50.0)]
        powers = 10.0 ** rng.uniform(1.0, 2.0, size=4)
        yield scene.Scenario(desired=scene.SourceSpec(60.0), interferers=tuple(
            scene.SourceSpec(d, float(pw)) for d, pw in zip(doas, powers)))


def test_overlap_sweep_breaks_exact_ties_by_rank_id():
    geom = scene.ArrayGeometry(16)
    for scn in jittered_sweep_scenes(81, 3):
        sweep = harness.overlap_sweep(geom, scn, 6)
        assert sorted(sweep.rank_ids.tolist()) == list(range(len(sweep.rank_ids)))
        by_rank = np.empty_like(sweep.omegas)
        by_rank[sweep.rank_ids] = sweep.omegas
        # mirror images have equal lag counts, so they tie exactly
        for rank in range(0, len(by_rank), 97):
            mirror = [15 - i for i in enumeration.subset_unrank(rank, 16, 6)]
            assert by_rank[enumeration.subset_rank(mirror, 16)] == by_rank[rank]
        tied = np.diff(sweep.omegas) == 0
        assert np.all(np.diff(sweep.rank_ids)[tied] > 0)


@pytest.mark.parametrize("chunk", [7, 1 << 16])
def test_sweep_csv_is_independent_of_chunking(monkeypatch, tmp_path, chunk):
    geom = scene.ArrayGeometry(16)
    for i, scn in enumerate(jittered_sweep_scenes(82, 2)):
        want, got = tmp_path / f"want{i}.csv", tmp_path / f"got{i}.csv"
        harness.write_sweep_csv(want, harness.overlap_sweep(geom, scn, 6))
        with monkeypatch.context() as patch:
            patch.setattr(enumeration, "_CHUNK", chunk)
            harness.write_sweep_csv(got, harness.overlap_sweep(geom, scn, 6))
        assert got.read_bytes() == want.read_bytes()
