"""Network primitives: gradients, the optimizer, training, serialization."""

import json
import struct

import numpy as np
import pytest

from sparsebeam import harness, mlp, scene

from .oracles import csv_writer_bytes, oracle_read_dataset, oracle_train_steps


def toy_dataset(n=64, n_features=9, n_out=5, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(1.0, 0.3, size=(n, n_features))
    x[:, 0] = np.abs(x[:, 0]) + 1.0  # leading column acts as a power term
    w = rng.normal(size=(n_features, n_out))
    y = (np.tanh(x @ w) > 0).astype(float)
    return x, y


def top_p(scores, p):
    """0/1 rows marking each row's p highest scores, lower index first on ties."""
    order = np.argsort(-scores, axis=1, kind="stable")[:, :p]
    masks = np.zeros(scores.shape, dtype=int)
    np.put_along_axis(masks, order, 1, axis=1)
    return masks


def test_extract_features_matrix_and_vector_agree():
    geom = scene.ArrayGeometry(n_grid=6)
    scn = scene.Scenario(
        desired=scene.SourceSpec(doa_deg=60.0),
        interferers=(scene.SourceSpec(doa_deg=100.0, power=30.0),))
    _, _, r_xx = scene.correlation_matrices(geom, scn)
    f_mat = mlp.extract_features(r_xx)
    f_vec = mlp.extract_features(r_xx[0])
    assert f_mat.shape == (2 * 6 - 1,)
    assert np.array_equal(f_mat, f_vec)
    assert np.array_equal(f_mat[:6], r_xx[0].real)
    assert np.array_equal(f_mat[6:], r_xx[0, 1:].imag)


def test_init_model_is_deterministic_with_xavier_bounds():
    a = mlp.init_model([9, 20, 5], seed=3)
    b = mlp.init_model([9, 20, 5], seed=3)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    limit0 = np.sqrt(6.0 / (9 + 20))
    assert np.abs(a.weights[0]).max() <= limit0
    assert all(np.all(bv == 0) for bv in a.biases)
    with pytest.raises(ValueError):
        mlp.init_model([5])


def test_forward_shapes():
    model = mlp.init_model([9, 12, 5], seed=0)
    x, _ = toy_dataset(n=7)
    out = mlp.forward(model, x)
    assert out.shape == (7, 5)
    single = mlp.forward(model, x[0])
    assert single.shape == (5,)
    assert np.allclose(single, out[0])


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    model = mlp.init_model([6, 10, 8, 4], seed=2)
    x = rng.normal(size=(5, 6))
    y = rng.uniform(size=(5, 4))
    masks = [rng.uniform(size=(5, 10)) < 0.9, rng.uniform(size=(5, 8)) < 0.9]
    loss, grads = mlp.mse_loss_and_grads(model, x, y, keep_prob=0.9,
                                         dropout_masks=masks)
    eps = 1e-6
    worst = 0.0
    for li in range(model.n_layers):
        w = model.weights[li]
        for pos in [(0, 0), (w.shape[0] // 2, w.shape[1] - 1)]:
            orig = w[pos]
            w[pos] = orig + eps
            up, _ = mlp.mse_loss_and_grads(model, x, y, keep_prob=0.9,
                                           dropout_masks=masks)
            w[pos] = orig - eps
            dn, _ = mlp.mse_loss_and_grads(model, x, y, keep_prob=0.9,
                                           dropout_masks=masks)
            w[pos] = orig
            num = (up - dn) / (2 * eps)
            den = max(abs(num), abs(grads["w"][li][pos]), 1e-12)
            worst = max(worst, abs(num - grads["w"][li][pos]) / den)
    assert worst < 1e-4


def test_adam_single_step_hand_reference():
    # one flat vector holds W0 (2x3), b0 (3), W1 (3x2) and b1 (2)
    model = mlp.init_model([2, 3, 2], seed=0)
    params = mlp._flat_params(model, float)
    assert params.size == mlp._param_count(model.layer_sizes) == 17
    g = np.linspace(-2.0, 2.0, params.size)
    p0 = params.copy()
    m, v = np.zeros_like(params), np.zeros_like(params)
    mlp.adam_step(params, g, m, v, 1, lr=0.1, scratch=np.empty_like(params))
    m_hat = (0.1 * g) / (1 - 0.9)
    v_hat = (0.001 * g * g) / (1 - 0.999)
    expected = p0 - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.allclose(params, expected, atol=1e-15)
    weights, biases = mlp._param_views(params, model.layer_sizes)
    exp_w, exp_b = mlp._param_views(expected, model.layer_sizes)
    for got, want in zip(weights + biases, exp_w + exp_b):
        assert np.allclose(got, want, atol=1e-15)


def test_training_reduces_loss_and_memorizes():
    x, y = toy_dataset(n=24, seed=4)
    cfg = mlp.TrainConfig(hidden_sizes=(32, 16), max_epochs=400, patience=400,
                          batch_size=8, validation_fraction=0.0,
                          keep_prob=1.0, rng_seed=0)
    res = mlp.train(x, y, cfg)
    assert res.train_losses[-1] < res.train_losses[0] * 0.1
    pred = mlp.forward(res.model, x)
    assert np.mean((pred - y) ** 2) < 1e-2


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_training_diverges_raises():
    # a step size big enough to overflow the weights, then the loss, to inf
    x, y = toy_dataset(n=16, seed=5)
    cfg = mlp.TrainConfig(hidden_sizes=(8,), max_epochs=5, learning_rate=1e38,
                          validation_fraction=0.0, rng_seed=0)
    with pytest.raises(mlp.TrainingDivergedError):
        mlp.train(x, y, cfg)


def test_early_stopping_restores_best_epoch():
    x, y = toy_dataset(n=60, seed=6)
    cfg = mlp.TrainConfig(hidden_sizes=(16,), max_epochs=200, patience=5,
                          validation_fraction=0.2, rng_seed=1)
    res = mlp.train(x, y, cfg)
    if res.stopped_early:
        assert len(res.val_losses) <= res.best_epoch + 5 + 2
    assert res.best_epoch >= 0
    assert min(res.val_losses) == pytest.approx(res.val_losses[res.best_epoch])


def test_selection_monitor_tracks_exact_match():
    x, y = toy_dataset(n=80, seed=7)
    y = np.zeros_like(y)
    y[:, :2] = 1.0  # constant 2-hot target, trivially learnable
    cfg = mlp.TrainConfig(hidden_sizes=(16,), max_epochs=300, patience=300,
                          batch_size=16, learning_rate=0.01, keep_prob=1.0,
                          validation_fraction=0.2, rng_seed=2,
                          monitor="selection")
    res = mlp.train(x, y, cfg)
    pred = mlp.predict_selection([res.model], x, 2)
    assert (pred == y).all(axis=1).mean() == 1.0


def test_predict_selection_cardinality_and_stable_ties():
    model = mlp.init_model([4, 3], seed=0)
    model.weights[0][:] = 0.0
    model.biases[0][:] = np.array([1.0, 1.0, 0.0])
    x = np.ones((2, 4))
    pred = mlp.predict_selection([model], x, 1)
    assert pred.sum() == 2
    assert np.all(pred[:, 0] == 1)  # earliest index wins exact ties
    with pytest.raises(ValueError):
        mlp.predict_selection([model], x, 5)


def test_power_normalization_makes_scaled_inputs_equivalent():
    x, y = toy_dataset(n=50, seed=9)
    cfg = mlp.TrainConfig(hidden_sizes=(16,), max_epochs=20, patience=20,
                          validation_fraction=0.0, rng_seed=4)
    res = mlp.train(x, y, cfg)
    a = mlp.forward(res.model, x[:5])
    b = mlp.forward(res.model, x[:5] * 7.5)
    assert np.allclose(a, b, atol=1e-12)


def test_train_ensemble_averages_member_scores():
    x, y = toy_dataset(n=40, seed=11)
    cfg = mlp.TrainConfig(hidden_sizes=(10,), max_epochs=8, patience=8,
                          validation_fraction=0.0, rng_seed=2)
    nets = [r.model for r in mlp.train_ensemble(x, y, cfg, n_members=3)]
    assert len(nets) == 3
    # members differ (independent inits) but the selection decodes their mean
    assert not np.array_equal(nets[0].weights[0], nets[1].weights[0])
    expect = np.mean([mlp.forward(m, x) for m in nets], axis=0)
    pred = mlp.predict_selection(nets, x, 2)
    assert np.all(pred.sum(axis=1) == 2)
    assert np.array_equal(pred, top_p(expect, 2))
    # one network decodes its own scores
    assert np.array_equal(mlp.predict_selection(nets[:1], x, 2),
                          top_p(mlp.forward(nets[0], x), 2))
    with pytest.raises(ValueError, match="ensemble size"):
        mlp.train_ensemble(x, y, cfg, n_members=0)


def test_ensemble_file_round_trip(tmp_path):
    x, y = toy_dataset(n=30, seed=12)
    cfg = mlp.TrainConfig(hidden_sizes=(8,), max_epochs=5, patience=5,
                          validation_fraction=0.0, rng_seed=6)
    nets = [r.model for r in mlp.train_ensemble(x, y, cfg, n_members=2)]
    path = tmp_path / "ens.bin"
    mlp.save_model(path, nets)
    back = mlp.load_model(path)
    assert path.read_bytes()[:4] == b"MLPE"
    assert len(back) == 2
    for got, net in zip(back, nets):
        assert np.array_equal(mlp.forward(got, x), mlp.forward(net, x))
    with open(f"{path}.json") as fh:
        assert json.load(fh)["ensemble_members"] == 2


def test_model_file_round_trip(tmp_path):
    x, y = toy_dataset(n=30, seed=10)
    cfg = mlp.TrainConfig(hidden_sizes=(12, 6), max_epochs=10, patience=10,
                          validation_fraction=0.0, rng_seed=5)
    res = mlp.train(x, y, cfg)
    path = tmp_path / "model.bin"
    mlp.save_model(path, [res.model])
    (back,) = mlp.load_model(path)
    assert path.read_bytes()[:4] == b"MLPB"
    assert back.layer_sizes == res.model.layer_sizes
    assert np.array_equal(back.feature_mean, res.model.feature_mean)
    assert np.array_equal(mlp.forward(back, x), mlp.forward(res.model, x))
    assert (tmp_path / "model.bin.json").exists()
    bogus = tmp_path / "junk.bin"
    bogus.write_bytes(b"XXXXXXXXXXXX")
    with pytest.raises(ValueError):
        mlp.load_model(bogus)


def test_train_follows_float64_reference_steps(monkeypatch):
    # the float32 steps must see the reference's shuffled rows and dropout
    # masks exactly, and its losses up to float32 rounding
    x, y = toy_dataset(n=40, seed=13)
    cfg = mlp.TrainConfig(hidden_sizes=(24, 16), batch_size=8, max_epochs=4,
                          patience=4, validation_fraction=0.0, keep_prob=0.9,
                          rng_seed=21)
    seen = []
    step = mlp.mse_loss_and_grads

    def record(model, xb, yb, **kw):
        loss, grads = step(model, xb, yb, **kw)
        masks = [m[:len(xb)] > 0 for m in kw["workspace"].masks]
        seen.append((xb.copy(), masks, loss))
        return loss, grads

    monkeypatch.setattr(mlp, "mse_loss_and_grads", record)
    mlp.train(x, y, cfg)
    ref = oracle_train_steps(x, y, cfg.hidden_sizes, 21, 8, 0.9,
                             cfg.learning_rate, 20)
    assert len(seen) == len(ref) == 20
    tol = 64 * np.finfo(np.float32).eps
    for (rows, masks, loss), (ref_rows, ref_masks, ref_loss) in zip(seen, ref):
        assert rows.dtype == np.float32
        assert np.array_equal(rows, ref_rows.astype(np.float32))
        assert all(np.array_equal(a, b) for a, b in zip(masks, ref_masks))
        assert abs(loss - ref_loss) <= tol * abs(ref_loss)


def test_trained_weights_are_float32_values_in_float64():
    x, y = toy_dataset(n=30, seed=14)
    cfg = mlp.TrainConfig(hidden_sizes=(12,), max_epochs=3, patience=3,
                          validation_fraction=0.2, rng_seed=8)
    model = mlp.train(x, y, cfg).model
    for arr in model.weights + model.biases:
        assert arr.dtype == np.float64
        assert np.array_equal(arr.astype(np.float32).astype(np.float64), arr)
    assert model.feature_mean.dtype == np.float64


def test_float32_trained_models_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(17)
    for trial in range(6):
        n_members = (1, 5)[trial % 2]
        n_feat, n_out = int(rng.integers(3, 10)), int(rng.integers(2, 7))
        hidden = tuple(int(h) for h in rng.integers(2, 12, size=trial % 3 + 1))
        x, y = toy_dataset(n=24, n_features=n_feat, n_out=n_out, seed=trial)
        cfg = mlp.TrainConfig(hidden_sizes=hidden, max_epochs=3, patience=3,
                              batch_size=int(rng.integers(3, 12)),
                              validation_fraction=0.2, rng_seed=trial)
        if n_members == 1:
            nets = [mlp.train(x, y, cfg).model]
        else:
            nets = [r.model for r in mlp.train_ensemble(x, y, cfg, n_members=n_members)]
        path = tmp_path / f"model{trial}.bin"
        mlp.save_model(path, nets)
        back = mlp.load_model(path)
        probe = rng.normal(1.0, 0.5, size=(11, n_feat))
        assert path.read_bytes()[:4] == (b"MLPB" if n_members == 1 else b"MLPE")
        assert len(back) == len(nets)
        for got, net in zip(back, nets):
            assert np.array_equal(mlp.forward(got, probe), mlp.forward(net, probe))


def test_loads_float64_ensemble_file(tmp_path):
    # an MLPE file written straight from the documented layout, holding
    # float64 values no float32 can represent, must load bit for bit
    rng = np.random.default_rng(18)
    sizes = [5, 4, 3]
    members = []
    blob = b"MLPE" + struct.pack("<I", 2)
    for _ in range(2):
        arrays = [rng.normal(size=(5, 4)), rng.normal(size=4),
                  rng.normal(size=(4, 3)), rng.normal(size=3),
                  rng.normal(size=5), rng.uniform(0.5, 2.0, size=5)]
        blob += struct.pack("<II3IB", 1, 3, *sizes, 3)
        blob += b"".join(a.astype("<f8").tobytes() for a in arrays)
        members.append(arrays)
    path = tmp_path / "float64.bin"
    path.write_bytes(blob)
    back = mlp.load_model(path)
    mlp.save_model(tmp_path / "again.bin", back)
    assert (tmp_path / "again.bin").read_bytes() == blob
    assert len(back) == 2
    for net, arrays in zip(back, members):
        got = [net.weights[0], net.biases[0], net.weights[1], net.biases[1],
               net.feature_mean, net.feature_scale]
        assert all(np.array_equal(a, b) for a, b in zip(got, arrays))
        assert np.any(arrays[0] != arrays[0].astype(np.float32))
    x = rng.normal(size=(7, 5))
    expect = np.mean([mlp.forward(m, x) for m in back], axis=0)
    assert np.array_equal(mlp.predict_selection(back, x, 2), top_p(expect, 2))
    # the loader refuses a member count of 0 and members of unequal shapes
    (tmp_path / "empty.bin").write_bytes(b"MLPE" + struct.pack("<I", 0))
    with pytest.raises(ValueError, match="member count 0"):
        mlp.load_model(tmp_path / "empty.bin")
    mlp.save_model(tmp_path / "mixed.bin", [mlp.init_model(sizes, seed=0),
                                            mlp.init_model([5, 6, 3], seed=0)])
    with pytest.raises(ValueError, match="share layer sizes"):
        mlp.load_model(tmp_path / "mixed.bin")
    # the writer refuses the member counts the loader refuses
    for count in (0, mlp.MAX_ENSEMBLE + 1):
        with pytest.raises(ValueError, match=f"got {count}"):
            mlp.save_model(tmp_path / "refused.bin", [mlp.init_model(sizes, seed=0)] * count)
    assert not (tmp_path / "refused.bin").exists()


@pytest.mark.parametrize("flags", [1, 2])
def test_loader_rejects_unknown_preprocessing_flags(tmp_path, flags):
    # a trained network's flag byte is 3 and a raw one's 0; the byte sits
    # after the magic, the format, the layer count and two layer sizes
    path = tmp_path / "model.bin"
    mlp.save_model(path, [mlp.init_model([5, 3], seed=0)])
    blob = bytearray(path.read_bytes())
    assert blob[20] == 0
    blob[20] = flags
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match=f"preprocessing flags {flags}"):
        mlp.load_model(path)


def test_split_train_validation_is_stratified_and_disjoint():
    ids = [f"look60-L{1 + (i % 4)}-{i:05d}" for i in range(200)]
    rng = np.random.default_rng(0)
    tr, va = mlp.split_train_validation(200, 0.1, rng, ids)
    assert len(set(tr) & set(va)) == 0
    assert len(tr) + len(va) == 200
    va_strata = [ids[i].split("-")[1] for i in va]
    for stratum in ("L1", "L2", "L3", "L4"):
        assert va_strata.count(stratum) == 5  # 10% of 50 per stratum


def test_dataset_csv_round_trip(tmp_path):
    cfg = harness.ExperimentConfig(n_grid=5, n_select=3, look_doas_deg=(60.0,),
                                   n_train_per_look=4, seed=11)
    rows = list(harness.scenario_stream(cfg, "train"))
    path = tmp_path / "data.csv"
    assert mlp.write_dataset_csv(path, rows) == 4
    x, y, sids = mlp.read_dataset_csv(path)
    assert sids == [r.scenario_id for r in rows]
    assert x.shape == (4, 9) and y.shape == (4, 5)
    assert np.array_equal(x, [r.features for r in rows])  # repr round trip
    assert np.array_equal(y, [r.label_mask for r in rows])

    def broken_stream():
        yield rows[0]
        raise ValueError("stream broke")

    with pytest.raises(ValueError, match="stream broke"):
        mlp.write_dataset_csv(tmp_path / "partial.csv", broken_stream())
    assert not (tmp_path / "partial.csv").exists()
    with pytest.raises(ValueError, match="empty"):
        mlp.write_dataset_csv(tmp_path / "empty.csv", iter([]))

    # byte for byte what csv.writer writes for the same cells, for either
    # labeler and for exact and finite-sample features
    for label_source, n_snapshots in [("enumeration", None), ("sbsa", None),
                                      ("enumeration", 512), ("sbsa", 512)]:
        records = list(harness.scenario_stream(
            harness.ExperimentConfig(n_grid=6, n_select=3, look_doas_deg=(60.0, 30.0),
                                     n_train_per_look=3, n_snapshots=n_snapshots, seed=2),
            "train", label_source))
        assert mlp.write_dataset_csv(path, records) == 6
        header = ["scenario_id", "look_doa_deg", *(f"f_{i}" for i in range(11)),
                  "label_mask_bits"]
        rows = [[r.scenario_id, r.look_doa_deg, *map(float, r.features),
                 "".join("01"[int(b)] for b in r.label_mask)] for r in records]
        assert path.read_bytes() == csv_writer_bytes(tmp_path / "want.csv", header, rows)


@pytest.mark.parametrize("n_snapshots", [None, 512])
@pytest.mark.parametrize("label_source", ["enumeration", "sbsa"])
@pytest.mark.parametrize("n_grid, n_select", [(5, 2), (12, 6), (16, 6)])
def test_read_dataset_matches_row_by_row_reference(tmp_path, n_grid, n_select,
                                                   label_source, n_snapshots):
    cfg = harness.ExperimentConfig(n_grid=n_grid, n_select=n_select,
                                   look_doas_deg=(60.0, 30.0), n_train_per_look=5,
                                   n_snapshots=n_snapshots, seed=n_grid)
    written = tmp_path / "written.csv"
    mlp.write_dataset_csv(written, harness.scenario_stream(cfg, "train", label_source))
    crlf = written.read_bytes()
    lf = crlf.replace(b"\r\n", b"\n")
    variants = {"crlf": crlf, "lf": lf, "no-final-break": crlf[:-2],
                # numpy would take "#" for a comment and the separator for space
                "odd-ids": lf.replace(b"\nlook", b"\n#\x1clook")}
    for name, blob in variants.items():
        path = tmp_path / f"{name}.csv"
        path.write_bytes(blob)
        x, y, ids = mlp.read_dataset_csv(path)
        want_x, want_y, want_ids = oracle_read_dataset(path)
        assert x.shape == want_x.shape == (10, 2 * n_grid - 1), name
        assert np.array_equal(x.view(np.int64), want_x.view(np.int64)), name
        assert y.dtype == want_y.dtype and np.array_equal(y, want_y), name
        assert ids == want_ids, name
    assert ids[0].startswith("#\x1clook")


def test_train_config_validation():
    with pytest.raises(ValueError):
        mlp.TrainConfig(keep_prob=0.0)
    with pytest.raises(ValueError):
        mlp.TrainConfig(validation_fraction=1.0)
    with pytest.raises(ValueError):
        mlp.TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        mlp.TrainConfig(monitor="accuracy")
    for rate in (0.0, -1e-3, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="learning_rate"):
            mlp.TrainConfig(learning_rate=rate)
