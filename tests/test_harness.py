"""Experiment configuration, dataset streams, baselines, and evaluation."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from sparsebeam import beamformer, cli, enumeration, harness, mlp, nnc, scene

from .oracles import csv_writer_bytes, oracle_evaluate, oracle_random_masks


def tiny_config(**overrides):
    base = dict(n_grid=8, n_select=3, look_doas_deg=(60.0,),
                n_train_per_look=12, n_test_per_look=8, seed=5)
    base.update(overrides)
    return harness.ExperimentConfig(**base)


def test_config_round_trip_and_hash(tmp_path):
    cfg = tiny_config(n_snapshots=64, label_source="sbsa")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(harness.config_to_dict(cfg)))
    back = harness.load_config(path)
    assert back == cfg
    assert harness.config_hash(back) == harness.config_hash(cfg)
    assert harness.config_hash(tiny_config(seed=6)) != harness.config_hash(cfg)


def test_config_validation_and_alias():
    # "enumerate" was once an alias of "enumeration"; it is now rejected
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
    with pytest.raises(ValueError, match="label_source"):
        tiny_config(label_source="enumerate")
    with pytest.raises(ValueError, match="label_source"):
        next(harness.scenario_stream(tiny_config(), "test", label_source="enumerate"))


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
    (tmp_path / "cfg.json").write_text(json.dumps(harness.config_to_dict(cfg)))
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


def assert_matches_shuffle_oracle(n_grid, p, counts, make_rng):
    """random_masks on one generator gives, call after call, the masks of
    oracle_random_masks on a twin, and leaves it where the oracle leaves it."""
    rng, twin = make_rng(), make_rng()
    for n_draws in counts:
        assert np.array_equal(harness.random_masks(n_grid, p, n_draws, rng),
                              oracle_random_masks(n_grid, p, n_draws, twin))
    assert state_json(rng) == state_json(twin)
    assert rng.random() == twin.random()


def state_json(rng):
    return json.dumps(rng.bit_generator.state, sort_keys=True, default=lambda a: a.tolist())


def buffered_pcg64(seed):
    """A PCG64 generator holding the high half of a word: a draw below 2^32
    takes a word's low half and keeps the other for the next one."""
    rng = np.random.default_rng(seed)
    rng.integers(10)
    assert rng.bit_generator.state["has_uint32"]
    return rng


OTHER_BIT_GENERATORS = [
    pytest.param(lambda s: np.random.Generator(np.random.Philox(s)), id="Philox"),
    pytest.param(lambda s: np.random.Generator(np.random.MT19937(s)), id="MT19937"),
    pytest.param(buffered_pcg64, id="buffered-half"),
]
MASK_SHAPES = [(12, 6), (8, 3), (16, 6), (20, 8), (12, 2), (24, 12), (2, 1), (256, 128), (8, 8)]


@pytest.mark.parametrize("n_grid, p", [(12, 6), (8, 3), (16, 6), (8, 8), (256, 128)])
def test_shuffle_oracle_equals_permuted_row_by_row(n_grid, p):
    # Generator.permuted(axis=1) shuffles the rows in order, each as
    # Generator.shuffle would: 200 seeded cases a shape, 1,000 in all
    for seed in range(200):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = np.zeros((1 + seed % 5, n_grid), dtype=int)
        rows[:, :p] = 1
        assert np.array_equal(rng.permuted(rows, axis=1),
                              oracle_random_masks(n_grid, p, len(rows), twin))
        assert state_json(rng) == state_json(twin)


def assert_shape_matches_shuffle_oracle(n_grid, p, make_rng):
    for seed in range(50):
        assert_matches_shuffle_oracle(n_grid, p, (1 + seed % 4, 1 + seed // 4 % 3),
                                      lambda: make_rng(seed))


@pytest.mark.parametrize("n_grid, p", MASK_SHAPES)
def test_random_masks_match_the_shuffle_oracle_bit_for_bit(n_grid, p):
    assert_shape_matches_shuffle_oracle(n_grid, p, np.random.default_rng)


@pytest.mark.parametrize("make_rng", OTHER_BIT_GENERATORS)
def test_random_masks_match_the_shuffle_oracle_on_other_bit_generators(make_rng):
    for n_grid, p in MASK_SHAPES:
        assert_shape_matches_shuffle_oracle(n_grid, p, make_rng)


def test_random_masks_draw_every_subset_uniformly():
    # all C(6,3) = 20 subsets of N=6/P=3 from 20,000 draws: chi-squared on
    # 19 degrees of freedom stays below 43.82, its 0.999 quantile (seed 0
    # and the bound fixed before the test was first run)
    masks = harness.random_masks(6, 3, 20_000, np.random.default_rng(0))
    assert np.all(masks.sum(axis=1) == 3)
    counts = np.bincount(masks @ (1 << np.arange(6)), minlength=64)
    subsets = [sum(1 << i for i in c) for c in itertools.combinations(range(6), 3)]
    expected = len(masks) / len(subsets)
    assert np.sum((counts[subsets] - expected) ** 2 / expected) < 43.82


@pytest.mark.parametrize("n_grid, p", [(12, 6), (256, 128)])
def test_random_masks_memory_is_bounded_by_its_output(n_grid, p):
    # the largest --n-random: the draw holds nothing beyond the masks
    n_draws = enumeration._BLOCK_CELLS // n_grid
    tracemalloc.start()
    try:
        masks = harness.random_masks(n_grid, p, n_draws, np.random.default_rng(9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert masks.shape == (n_draws, n_grid)
    assert peak <= 2 * masks.nbytes
    assert np.array_equal(masks, oracle_random_masks(n_grid, p, n_draws,
                                                     np.random.default_rng(9)))


def test_worst_case_mask_is_the_enumerated_minimum():
    cfg = tiny_config()
    geom, p = cfg.geometry, cfg.n_select
    rec = next(iter(harness.scenario_stream(cfg, "test")))
    worst = harness.method_mask("worst_case", geom, rec.scenario, p)
    ref = enumeration.enumerate_worst(geom, rec.scenario, p)
    assert np.array_equal(worst, ref.mask)
    assert np.array_equal(harness.method_mask("sparse_ula", geom, rec.scenario, p),
                          harness.sparse_ula_mask(cfg.n_grid, p))
    with pytest.raises(ValueError):
        harness.method_mask("random", geom, rec.scenario, p)


def test_method_mask_charges_its_search_to_budget():
    cfg = tiny_config()
    geom, p = cfg.geometry, cfg.n_select
    n = geom.n_grid
    scn = next(iter(harness.scenario_stream(cfg, "test"))).scenario
    # the worst case scores C(N,P) subsets; SBSA's first greedy step holds
    # N starts x (N-1) candidates of 10 N bytes, each charged 10 N / 64
    for method, count in (("worst_case", math.comb(n, p)),
                          ("sbsa", n * (n - 1) * 10 * n // 64)):
        with pytest.raises(enumeration.BudgetExceededError):
            harness.method_mask(method, geom, scn, p, budget=count - 1)
        harness.method_mask(method, geom, scn, p, budget=count)


def test_score_methods_scores_one_batch_and_audits_each_slice():
    cfg = tiny_config()
    geom, p = cfg.geometry, cfg.n_select
    scn = next(iter(harness.scenario_stream(cfg, "test"))).scenario
    best = enumeration.enumerate_best(geom, scn, p)
    worst = enumeration.enumerate_worst(geom, scn, p)
    draws = harness.random_masks(cfg.n_grid, p, 5, np.random.default_rng(0))
    masks = {"a": worst.mask, "b": draws, "c": best.mask}
    opt, vals = harness.score_methods(geom, scn, best.mask, masks, "s0")
    assert opt == best.sinr.linear
    assert [len(v) for v in vals.values()] == [1, 5, 1]
    assert vals["c"][0] == opt
    np.testing.assert_allclose(vals["b"], beamformer.masks_sinr(geom, scn, draws), rtol=1e-12)
    with pytest.raises(RuntimeError, match="optimality audit failed on s0"):
        harness.score_methods(geom, scn, worst.mask, masks, "s0")


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


def test_evaluate_runs_each_network_once_and_keeps_per_scene_masks(monkeypatch):
    # each network scores every scene of the run in one batch; every mask is
    # the one the per-scene decode of that scene's features picks
    cfg = tiny_config(n_grid=10, n_select=4, look_doas_deg=(30.0, 75.0),
                      n_train_per_look=60, n_test_per_look=24, seed=9)
    train = list(harness.scenario_stream(cfg, "train"))
    fits = mlp.train_ensemble(np.stack([r.features for r in train]),
                              np.stack([r.label_mask for r in train]).astype(float),
                              mlp.TrainConfig(hidden_sizes=(32, 16), max_epochs=5, batch_size=16),
                              n_members=3)
    model = [fit.model for fit in fits]
    calls = []
    predict = mlp.predict_selection
    monkeypatch.setattr(mlp, "predict_selection", lambda *a: calls.append(a) or predict(*a))
    result = harness.evaluate(cfg, ["dnn", "compact_ula"], models={"dnn": model})
    assert len(calls) == 1 and calls[0][1].shape == (48, 19)
    test = list(harness.scenario_stream(cfg, "test"))
    assert len(result.rows) == len(test) == 48
    for row, rec in zip(result.rows, test):
        assert row["dnn_mask_bits"] == beamformer.mask_bits(predict(model, rec.features, 4))


@pytest.mark.parametrize("overrides, n_random", [
    pytest.param({}, 30, id="exact-P3-random30"),
    pytest.param({"n_snapshots": 512}, 1, id="toeplitz512-P3-random1"),
    pytest.param({"n_select": 1, "n_snapshots": 512}, 30, id="toeplitz512-P1-random30"),
    pytest.param({"n_select": 8}, 1, id="exact-PN-random1"),
])
def test_evaluate_matches_the_per_scene_loop_bit_for_bit(monkeypatch, overrides, n_random):
    # the two passes pick, draw and score what the per-scene loop did: the
    # same rows and summaries to the last bit, and the same stack of masks
    # scored per scene (whose order can move the scores' last bits)
    cfg = tiny_config(look_doas_deg=(30.0, 75.0), n_test_per_look=5, seed=11, **overrides)
    train = list(harness.scenario_stream(cfg, "train"))
    index = nnc.NncIndex(np.stack([r.features for r in train]),
                         np.stack([r.label_mask for r in train]))
    models = {"dnn": [mlp.init_model([2 * cfg.n_grid - 1, 12, 6, cfg.n_grid], seed=s)
                      for s in (1, 2)]}
    methods = ["sbsa", "random", "dnn", "nnc", "worst_case", "compact_ula", "sparse_ula"]
    stacks = []
    scorer = beamformer.masks_sinr
    monkeypatch.setattr(beamformer, "masks_sinr",
                        lambda geom, scn, masks: stacks.append(masks) or scorer(geom, scn, masks))
    result = harness.evaluate(cfg, methods, models=models, nnc_index=index, n_random=n_random)
    got, stacks[:] = stacks[:], []
    rows, summaries = oracle_evaluate(cfg, methods, models=models, nnc_index=index,
                                      n_random=n_random)
    assert len(rows) == len(got) == len(stacks) == 10
    assert all(np.array_equal(a, b) for a, b in zip(got, stacks))
    assert repr(result.rows) == repr(rows)
    assert repr(result.summaries) == repr(summaries)


def test_predict_selection_batches_rows_under_the_cell_cap(monkeypatch):
    nets = [mlp.init_model([7, 5, 3, 4], seed=s) for s in range(2)]
    x = np.random.default_rng(3).normal(size=(23, 7))
    whole = mlp.predict_selection(nets, x, 2)
    sizes = []
    forward = mlp.forward
    monkeypatch.setattr(mlp, "forward", lambda net, rows: sizes.append(len(rows)) or
                        forward(net, rows))
    # 5 + 3 + 4 = 12 cells a row: at most 4 rows under a cap of 50 cells
    monkeypatch.setattr(mlp, "MAX_BATCH_CELLS", 50)
    assert np.array_equal(mlp.predict_selection(nets, x, 2), whole)
    assert sizes == [4, 4] * 5 + [3, 3]
    assert mlp.predict_selection(nets, x[:0], 2).shape == (0, 4)


def test_evaluate_rejects_unknown_method_and_missing_index():
    cfg = tiny_config(n_test_per_look=2)
    with pytest.raises(ValueError):
        harness.evaluate(cfg, ["bogus"])
    with pytest.raises(ValueError):
        harness.evaluate(cfg, ["nnc"])
    # the optimum owns the report's opt_* columns
    model = [mlp.init_model([2 * cfg.n_grid - 1, 4, cfg.n_grid], seed=0)]
    with pytest.raises(ValueError, match="'opt'"):
        harness.evaluate(cfg, ["opt"], models={"opt": model})
    # one name, one set of report columns and one match count
    with pytest.raises(ValueError, match="'compact_ula' is listed more than once"):
        harness.evaluate(cfg, ["compact_ula", "sbsa", "compact_ula"])
    # a network may not take a built-in method's name
    for name in ("sbsa", "nnc", "random"):
        with pytest.raises(ValueError, match=f"model name '{name}' is taken"):
            harness.evaluate(cfg, [name], models={name: model})


def test_evaluate_scores_each_scene_once_and_optimal_picks_report_the_optimum(
        monkeypatch, tmp_path):
    cfg = tiny_config(n_test_per_look=12)
    # an index over the test records themselves picks each scene's optimum
    test = list(harness.scenario_stream(cfg, "test"))
    index = nnc.NncIndex(np.stack([r.features for r in test]),
                         np.stack([r.label_mask for r in test]))
    calls = []
    scorer = beamformer.masks_sinr
    monkeypatch.setattr(beamformer, "masks_sinr",
                        lambda *a: calls.append(1) or scorer(*a))
    methods = ["nnc", "sbsa", "worst_case", "compact_ula", "sparse_ula", "random"]
    result = harness.evaluate(cfg, methods, nnc_index=index, n_random=10)
    assert len(calls) == len(result.rows) == 12
    path = tmp_path / "report.csv"
    harness.write_report_csv(path, result)
    lines = path.read_text().splitlines()
    head = lines[0].split(",")
    hits = 0
    for line in lines[1:]:
        cells = dict(zip(head, line.split(",")))
        for m in methods[:-1]:
            if cells[f"{m}_mask_bits"] == cells["opt_mask_bits"]:
                assert cells[f"{m}_sinr_db"] == cells["opt_sinr_db"]
                hits += 1
    assert result.summaries["nnc"].exact_match_rate == 1.0
    assert hits >= 12


def test_report_csv_is_byte_identical_across_runs(tmp_path):
    cfg = tiny_config(n_test_per_look=5)
    train = list(harness.scenario_stream(cfg, "train"))
    index = nnc.NncIndex(np.stack([ex.features for ex in train]),
                         np.stack([ex.label_mask for ex in train]))
    models = {"dnn": [mlp.init_model([2 * cfg.n_grid - 1, 10, cfg.n_grid], seed=4)]}
    methods = ["dnn", "nnc", "sbsa", "compact_ula", "sparse_ula", "random", "worst_case"]
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    for path in (p1, p2):
        result = harness.evaluate(cfg, methods, models=models, nnc_index=index, n_random=10)
        harness.write_report_csv(path, result)
    assert p1.read_bytes() == p2.read_bytes()
    # byte for byte what csv.writer writes for the same cells
    cols = ["scenario_id", "look_doa_deg", "n_interferers", "opt_mask_bits", "opt_sinr_db"]
    cols += [f"{m}_{c}" for m in methods for c in ("mask_bits", "sinr_db")]
    assert p1.read_bytes() == csv_writer_bytes(
        tmp_path / "want.csv", cols, [[row[c] for c in cols] for row in result.rows])


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
    rows = zip(range(n), sweep.rank_ids.tolist(), sweep.omegas.tolist(),
               sweep.sinr_db.tolist())
    assert path.read_bytes() == csv_writer_bytes(
        tmp_path / "want.csv", ["position", "rank_id", "omega", "sinr_db"], rows)


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


# at N = 16, 7 cells leave one row a block, and 65,536 cells fix the first
# index: eleven blocks of at most C(15, 5) = 3,003 rows, the last of one
@pytest.mark.parametrize("cells", [7, 1 << 16])
def test_sweep_csv_is_independent_of_chunking(monkeypatch, tmp_path, cells):
    geom = scene.ArrayGeometry(16)
    writers = {
        "sweep": lambda path, scn: harness.write_sweep_csv(
            path, harness.overlap_sweep(geom, scn, 6)),
        "ranked": lambda path, scn: enumeration.write_ranked_csv(
            path, enumeration.enumerate_all_ranked(geom, scn, 6)),
        "ranked-objective": lambda path, scn: enumeration.write_ranked_csv(
            path, enumeration.enumerate_all_ranked(geom, scn, 6, with_objective=True)),
    }
    for i, scn in enumerate(jittered_sweep_scenes(82, 2)):
        for name, write in writers.items():
            want, got = tmp_path / f"want-{name}{i}.csv", tmp_path / f"got-{name}{i}.csv"
            write(want, scn)
            with monkeypatch.context() as patch:
                patch.setattr(enumeration, "_BLOCK_CELLS", cells)
                write(got, scn)
            assert got.read_bytes() == want.read_bytes()
