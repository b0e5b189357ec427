"""End-to-end command-line checks on tiny problems."""

import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import sparsebeam
from sparsebeam import cli, enumeration, harness, mlp, sbsa, scene

from .oracles import csv_writer_bytes


@pytest.fixture()
def config_path(tmp_path):
    cfg = harness.ExperimentConfig(n_grid=8, n_select=3, look_doas_deg=(60.0,),
                                   n_train_per_look=12, n_test_per_look=8,
                                   seed=5)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(harness.config_to_dict(cfg)))
    return str(path)


@pytest.fixture()
def scenario_path(tmp_path):
    scn = scene.Scenario(desired=scene.SourceSpec(60.0),
                         interferers=(scene.SourceSpec(110.0, 10.0),
                                      scene.SourceSpec(40.0, 3.0)))
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene.scenario_to_dict(scn)))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_gen_data_outputs_and_rerun_identical(config_path, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["gen-data", config_path, "--out-dir", str(out1)]) == 0
    assert cli.main(["gen-data", config_path, "--out-dir", str(out2)]) == 0
    with open(out1 / "gen-data_manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["counts"] == {"train": 12, "test": 8}
    assert manifest["config_sha256"] == harness.config_hash(
        harness.load_config(config_path))
    for name in ("train.csv", "test.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert len(read_csv(out1 / "train.csv")) == 13  # header + rows


def test_train_command_writes_loadable_model(config_path, tmp_path):
    data_dir, out = tmp_path / "data", tmp_path / "fit"
    cli.main(["gen-data", config_path, "--part", "train",
              "--out-dir", str(data_dir)])
    rc = cli.main(["train", str(data_dir / "train.csv"), "--out-dir", str(out),
                   "--model-name", "net.bin", "--hidden", "10", "--epochs", "3",
                   "--batch-size", "4", "--patience", "2", "--seed", "1",
                   "--monitor", "selection", "--split-seed", "0"])
    assert rc == 0
    (model,) = mlp.load_model(out / "net.bin")
    assert model.layer_sizes == [15, 10, 8]
    with open(out / "train_manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["train_config"]["monitor"] == "selection"
    assert manifest["train_config"]["split_seed"] == 0
    assert manifest["n_examples"] == 12
    assert manifest["ensemble_members"] == 1
    assert manifest["compute_dtype"] == "float32"
    assert manifest["members"][0]["fit_s"] > 0.0

    rc = cli.main(["train", str(data_dir / "train.csv"),
                   "--out-dir", str(out), "--model-name", "ens.bin",
                   "--hidden", "6", "--epochs", "2", "--batch-size", "4",
                   "--seed", "1", "--ensemble", "2"])
    assert rc == 0
    nets = mlp.load_model(out / "ens.bin")
    assert len(nets) == 2 and nets[0].layer_sizes == nets[1].layer_sizes == [15, 6, 8]


def test_eval_command_scores_model_and_nnc(config_path, tmp_path, capsys):
    data_dir, fit, out = tmp_path / "data", tmp_path / "fit", tmp_path / "eval"
    cli.main(["gen-data", config_path, "--out-dir", str(data_dir)])
    cli.main(["train", str(data_dir / "train.csv"), "--out-dir", str(fit),
              "--hidden", "10", "--epochs", "3", "--batch-size", "4",
              "--seed", "1"])
    rc = cli.main(["eval", config_path,
                   "--model", f"dnn={fit / 'model.bin'}",
                   "--train-dataset", str(data_dir / "train.csv"),
                   "--methods", "sbsa,compact_ula", "--n-random", "5",
                   "--out-dir", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "dnn:" in stdout and "nnc:" in stdout
    rows = read_csv(out / "report.csv")
    assert rows[0][0] == "scenario_id"
    assert len(rows) == 1 + 8  # header + test scenarios
    with open(out / "eval_manifest.json") as fh:
        manifest = json.load(fh)
    assert set(manifest["summaries"]) == {"dnn", "nnc", "sbsa", "compact_ula"}


@pytest.mark.parametrize("extra", [
    pytest.param(["--methods", "compact_ula,sbsa,compact_ula"], id="method-twice"),
    pytest.param(["--model", "dnn={model}", "--model", "dnn={model}"], id="model-twice"),
    pytest.param(["--model", "sbsa={model}"], id="model-is-builtin"),
    pytest.param(["--methods", ",,"], id="no-method"),
    pytest.param(["--methods", "compact_ula", "--model", "={model}"], id="model-unnamed"),
    # report.csv cells are not quoted, so a model name, which heads two of its
    # columns, may hold no separator, quote or line break
    *(pytest.param(["--model", f"{name}={{model}}"], id=f"model-name-{label}")
      for name, label in [("a,b", "comma"), ('a"b', "quote"), ("a\nb", "lf"), ("a\rb", "cr")]),
])
def test_eval_rejects_colliding_method_names(config_path, tmp_path, capsys, monkeypatch, extra):
    model = tmp_path / "model.bin"
    mlp.save_model(model, [mlp.init_model([15, 4, 8], seed=0)])

    def no_scenes(*args, **kwargs):
        pytest.fail("a scene was drawn before the method names were checked")

    monkeypatch.setattr(harness, "scenario_stream", no_scenes)
    out = tmp_path / "out"
    argv = ["eval", config_path, *(a.format(model=model) for a in extra), "--out-dir", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(out.glob("*"))


_BAD_SCENARIOS = [
    pytest.param('[60.0, 0.0]', "JSON object", id="list-document"),
    pytest.param('{"desired_doa_deg": 60.0, "snr_db": 0.0, "interferer_doas_deg": 154.0, '
                 '"inr_db": [12.0]}', "interferer_doas_deg", id="doas-number"),
    pytest.param('{"desired_doa_deg": 60.0, "snr_db": null}', "snr_db", id="snr-null"),
    pytest.param('{"desired_doa_deg": 60.0, "snr_db": 0.0, '
                 '"interferer_doas_deg": [[154.0, 55.0]], "inr_db": [12.0]}',
                 "interferer_doas_deg", id="doas-nested"),
    pytest.param('{"desired_doa_deg": 60.0}', "snr_db", id="snr-missing"),
    pytest.param('{"desired_doa_deg": 60.0, "snr_db": 0.0, "interferers_deg": [154.0], '
                 '"inrs_db": [12.0]}', "interferers_deg", id="keys-misspelled"),
    pytest.param('{"desired_doa_deg": true, "snr_db": 0.0}', "desired_doa_deg", id="doa-bool"),
    pytest.param('{"desired_doa_deg": 60.0, "snr_db": NaN}', "snr_db", id="snr-nan"),
    pytest.param('{"desired_doa_deg": 60.0, "snr_db": 0.0, "interferer_doas_deg": [154.0], '
                 f'"inr_db": [1{"0" * 400}]}}', "inr_db", id="inr-huge-integer"),
    pytest.param('{"desired_doa_deg": 60.0, "snr_db": 0.0, "noise_power": "1"}',
                 "noise_power", id="noise-string"),
]


@pytest.mark.parametrize("doc, field", _BAD_SCENARIOS)
def test_bad_scenario_exits_two_without_output(tmp_path, capsys, doc, field):
    path = tmp_path / "s.json"
    path.write_text(doc)
    out = tmp_path / "out"
    rc = cli.main(["sbsa", str(path), "--n-grid", "8", "--n-select", "3", "--out-dir", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and field in err and err.count("\n") == 1
    assert not list(out.glob("*"))


@pytest.mark.parametrize("command, budget", [
    ("sbsa", "-1"), ("enumerate", "0"), ("fig7", "0"), ("compare", "-1")])
def test_budget_below_one_exits_two(scenario_path, tmp_path, capsys, command, budget):
    out = tmp_path / "out"
    rc = cli.main([command, scenario_path, "--n-grid", "8", "--n-select", "3",
                   "--budget", budget, "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: budget must be >= 1, got {budget}\n"
    assert not list(out.glob("*"))


def test_sbsa_command(scenario_path, tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["sbsa", scenario_path, "--n-grid", "8", "--n-select", "3",
                   "--out-dir", str(out)])
    assert rc == 0
    assert "mask=" in capsys.readouterr().out
    assert (out / "sbsa_starts.csv").exists()
    with open(out / "sbsa_manifest.json") as fh:
        manifest = json.load(fh)
    bits = manifest["result_mask_bits"]
    assert len(bits) == 8 and bits.count("1") == 3
    # byte for byte what csv.writer writes for each start's steps; with one
    # sensor to place a start takes no step and its omega cell is empty
    header = ["start", "step", "chosen_index", "omega", "final_mask_bits", "final_sinr_db"]
    geom, scn = scene.ArrayGeometry(8), scene.load_scenario(scenario_path)
    for p in (3, 1):
        out = tmp_path / f"p{p}"
        assert cli.main(["sbsa", scenario_path, "--n-grid", "8", "--n-select", str(p),
                         "--out-dir", str(out)]) == 0
        rows = []
        for tr in sbsa.sbsa_select(geom, scn, p).starts:
            final = ["".join("01"[int(b)] for b in tr.mask), tr.sinr.db]
            rows += [[tr.start, k, idx, val, *final] for k, (idx, val) in
                     enumerate(tr.steps, start=1)] or [[tr.start, 0, tr.start, "", *final]]
        assert (out / "sbsa_starts.csv").read_bytes() == csv_writer_bytes(
            tmp_path / "want.csv", header, rows)
        assert len(rows) == 8 * max(p - 1, 1)


def test_enumerate_command_and_budget_exit_code(scenario_path, tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["enumerate", scenario_path, "--n-grid", "8",
                   "--n-select", "3", "--top", "2", "--out-dir", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.count("rank_id=") == 2
    assert len(read_csv(out / "ranked.csv")) == 1 + 56  # C(8,3) configurations
    rc = cli.main(["enumerate", scenario_path, "--n-grid", "8",
                   "--n-select", "3", "--budget", "5",
                   "--out-dir", str(tmp_path / "b")])
    assert rc == 3


def test_enumerate_negative_top_exits_two(scenario_path, tmp_path, capsys):
    argv = ["enumerate", scenario_path, "--n-grid", "8", "--n-select", "3"]
    assert cli.main(argv + ["--top", "-1", "--out-dir", str(tmp_path / "a")]) == 2
    assert capsys.readouterr().err == "error: --top must be >= 0, got -1\n"
    assert not (tmp_path / "a" / "ranked.csv").exists()
    assert cli.main(argv + ["--top", "0", "--out-dir", str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out == ""
    assert len(read_csv(tmp_path / "b" / "ranked.csv")) == 1 + 56


def test_enumerate_objective_ordering(scenario_path, tmp_path):
    out = tmp_path / "out"
    cli.main(["enumerate", scenario_path, "--n-grid", "8", "--n-select", "3",
              "--with-objective", "--out-dir", str(out)])
    rows = read_csv(out / "ranked.csv")[1:]
    omegas = [float(r[3]) for r in rows]
    assert omegas == sorted(omegas)


def test_fig7_command(scenario_path, tmp_path, capsys):
    out = tmp_path / "nested" / "out"  # out-dir is created on demand
    rc = cli.main(["fig7", scenario_path, "--n-grid", "8", "--n-select", "3",
                   "--out-dir", str(out)])
    assert rc == 0
    assert "half mean SINR" in capsys.readouterr().out
    assert len(read_csv(out / "sweep.csv")) == 1 + 56
    with open(out / "fig7_manifest.json") as fh:
        manifest = json.load(fh)
    assert {"lower_half_mean_db", "upper_half_mean_db",
            "best_position"} <= set(manifest)


def test_compare_command_gaps_nonnegative(scenario_path, tmp_path):
    out = tmp_path / "out"
    rc = cli.main(["compare", scenario_path, "--n-grid", "8", "--n-select", "3",
                   "--n-random", "10", "--out-dir", str(out)])
    assert rc == 0
    rows = read_csv(out / "compare.csv")
    methods = [r[0] for r in rows[1:]]
    assert methods == ["enumeration", "sbsa", "compact_ula", "sparse_ula",
                       "random", "worst_case"]
    for row in rows[1:]:
        assert float(row[3]) >= -1e-9
    # the optimum is scored in the methods' batch and matches the oracle's table
    best = enumeration.enumerate_best(scene.ArrayGeometry(8), scene.load_scenario(scenario_path), 3)
    assert rows[1][2:] == [repr(best.sinr.db), "0.0"]
    # byte for byte what csv.writer writes for the cells read back
    cells = [[name, bits, float(db), float(gap)] for name, bits, db, gap in rows[1:]]
    assert (out / "compare.csv").read_bytes() == csv_writer_bytes(
        tmp_path / "want.csv", rows[0], cells)


def test_bad_inputs_exit_code_two(tmp_path, scenario_path, capsys):
    assert cli.main(["gen-data", str(tmp_path / "missing.json"),
                     "--out-dir", str(tmp_path)]) == 2
    assert cli.main(["enumerate", scenario_path, "--n-grid", "8",
                     "--n-select", "9", "--out-dir", str(tmp_path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("inr_db", ["1e400", "5000"])
def test_overflowing_source_power_exit_code_two(tmp_path, capsys, inr_db):
    # 1e400 parses as an infinite dB value; 5000 dB overflows 10 ** (dB / 10)
    path = tmp_path / "scene.json"
    path.write_text('{"desired_doa_deg": 60.0, "snr_db": 0.0, '
                    f'"interferer_doas_deg": [110.0], "inr_db": [{inr_db}]}}')
    for command in ("fig7", "compare"):
        capsys.readouterr()
        rc = cli.main([command, str(path), "--n-grid", "8", "--n-select", "3",
                       "--out-dir", str(tmp_path / command)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def _write_aliasing_scene(path, inr_db):
    # the interferers' phase steps differ by pi, so they alias on every
    # other sensor; at 300 dB above the noise some subsets' scores lose
    # every digit
    doas = [math.degrees(math.acos(0.75)), math.degrees(math.acos(-0.25))]
    path.write_text(json.dumps({"desired_doa_deg": 70.0, "snr_db": 0.0,
                                "interferer_doas_deg": doas, "inr_db": [inr_db, inr_db]}))


@pytest.mark.parametrize("command", ["enumerate", "fig7", "compare", "sbsa"])
def test_degenerate_scene_exit_code_two(tmp_path, capsys, command):
    path = tmp_path / "scene.json"
    _write_aliasing_scene(path, 300)
    out = tmp_path / "out"
    argv = [command, str(path), "--n-grid", "8", "--n-select", "3"]
    assert cli.main(argv + ["--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(out.glob("*.csv"))
    # the same aliasing pair at 120 dB still scores every subset, in every command
    _write_aliasing_scene(path, 120)
    assert cli.main(argv + ["--out-dir", str(out)]) == 0
    if command == "sbsa":
        # and the greedy search finds the enumerated optimum
        assert cli.main(["enumerate", *argv[1:], "--out-dir", str(tmp_path / "enum")]) == 0
        top = read_csv(tmp_path / "enum" / "ranked.csv")[1]
        doc = json.loads((out / "sbsa_manifest.json").read_text())
        assert doc["result_mask_bits"] == top[1] == "10101000"
        assert doc["result_sinr_db"] == pytest.approx(float(top[2]), rel=1e-12)


def test_eval_rejects_dataset_of_another_size(config_path, tmp_path, capsys):
    data = tmp_path / "data"
    cfg = harness.load_config(config_path)
    for name, other in (("p5", replace(cfg, n_select=5)), ("n9", replace(cfg, n_grid=9))):
        (tmp_path / f"{name}.json").write_text(json.dumps(harness.config_to_dict(other)))
        cli.main(["gen-data", str(tmp_path / f"{name}.json"), "--part", "train",
                  "--out-dir", str(data / name)])
        capsys.readouterr()
        dataset = data / name / "train.csv"
        rc = cli.main(["eval", config_path, "--train-dataset", str(dataset),
                       "--methods", "compact_ula", "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {dataset}: ") and err.count("\n") == 1
        assert not (tmp_path / "out" / "report.csv").exists()


@pytest.mark.parametrize("sizes", [
    pytest.param([13, 4, 8], id="input-width"),
    pytest.param([15, 4, 9], id="output-width"),
])
def test_eval_checks_model_widths_before_any_scene(config_path, tmp_path, capsys, monkeypatch,
                                                   sizes):
    # the config has N = 8: a network must take 2N - 1 = 15 features and score 8 sensors
    model = tmp_path / "model.bin"
    mlp.save_model(model, [mlp.init_model(sizes, seed=0)] * 2)

    def no_scenes(*args, **kwargs):
        pytest.fail("a scene was drawn before the model was checked")

    monkeypatch.setattr(harness, "scenario_stream", no_scenes)
    rc = cli.main(["eval", config_path, "--model", f"dnn={model}", "--methods", "compact_ula",
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {model}: model 'dnn' takes {sizes[0]} features and scores {sizes[-1]} "
        "sensors, but the config needs 15 features and 8 sensors (N = 8)\n")
    assert not (tmp_path / "out" / "report.csv").exists()


def test_eval_report_does_not_depend_on_blas_threads(tmp_path):
    # every network scores all of a run's scenes in one batch, a GEMM, whose
    # last bits may follow the BLAS thread count; the masks must not
    cfg = harness.ExperimentConfig(n_grid=10, n_select=4, look_doas_deg=(30.0, 60.0, 100.0),
                                   n_train_per_look=40, n_test_per_look=20, seed=17)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(harness.config_to_dict(cfg)))
    data, fit = tmp_path / "data", tmp_path / "fit"
    assert cli.main(["gen-data", str(config), "--part", "train", "--out-dir", str(data)]) == 0
    assert cli.main(["train", str(data / "train.csv"), "--hidden", "64,32", "--epochs", "4",
                     "--ensemble", "3", "--seed", "2", "--out-dir", str(fit)]) == 0
    src = os.path.dirname(os.path.dirname(sparsebeam.__file__))
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "sparsebeam", "eval", str(config), "--model",
             f"dnn={fit / 'model.bin'}", "--methods", "compact_ula", "--out-dir", str(out)],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        reports.append((out / "report.csv").read_bytes())
    assert reports[0].count(b"\n") == 1 + 60
    assert reports[0] == reports[1]


def test_lone_fit_is_the_first_ensemble_member(config_path, tmp_path):
    data = tmp_path / "data"
    cli.main(["gen-data", config_path, "--part", "train", "--out-dir", str(data)])
    common = ["train", str(data / "train.csv"), "--hidden", "6", "--epochs", "3",
              "--batch-size", "4", "--val-fraction", "0.3", "--seed", "4"]
    assert cli.main([*common, "--ensemble", "1", "--out-dir", str(tmp_path / "one")]) == 0
    assert cli.main([*common, "--ensemble", "3", "--out-dir", str(tmp_path / "three")]) == 0
    (lone,) = mlp.load_model(tmp_path / "one" / "model.bin")
    first = mlp.load_model(tmp_path / "three" / "model.bin")[0]
    for a, b in zip(lone.weights + lone.biases, first.weights + first.biases):
        assert np.array_equal(a, b)


def test_truncated_model_file_exit_code_two(config_path, tmp_path, capsys):
    # cuts inside the magic, the header (format, layer count, member count,
    # layer sizes) and the payload, of a single network and of an ensemble
    net = mlp.init_model([15, 6, 8], seed=0)
    for name, model in (("net.bin", [net]), ("ens.bin", [net, net])):
        whole = tmp_path / name
        mlp.save_model(whole, model)
        blob = whole.read_bytes()
        for cut in (2, 6, 10, 14, 20, len(blob) - 10):
            trunc = tmp_path / f"cut{cut}-{name}"
            trunc.write_bytes(blob[:cut])
            capsys.readouterr()
            rc = cli.main(["eval", config_path, "--model", f"dnn={trunc}",
                           "--methods", "compact_ula", "--out-dir", str(tmp_path)])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1


# Each corrupts the rows of a gen-data file (N=8, P=3, 12 rows, so 18 fields)
# in place and returns the whole message train must print: the message of the
# row-by-row reference reader (oracle_read_dataset), except where noted.

def _short_row(rows, path):
    rows[3] = rows[3][:5] + rows[3][6:]
    return f"{path} line 4: 17 fields, expected 18"


def _mask_with_a_two(rows, path):
    rows[3][-1] = bits = "2" + rows[3][-1][1:]
    return f"{path} line 4: label {bits!r} is not 8 bits of 0/1"


def _mask_too_long(rows, path):
    rows[3][-1] = bits = rows[3][-1] + "0"
    return f"{path} line 4: label {bits!r} is not 8 bits of 0/1"


def _mask_of_other_weight(rows, path):
    rows[3][-1] = "11111111"
    return f"{path} line 4: label '11111111' selects 8 sensors, earlier rows 3"


def _non_finite_feature(rows, path):
    rows[3][4] = "nan"
    return f"{path} line 4: non-finite feature"


def _non_numeric_feature(rows, path):
    rows[3][4] = "abc"
    return f"{path} line 4: non-numeric field"


def _non_numeric_look(rows, path):
    rows[3][1] = "abc"
    return f"{path} line 4: non-numeric field"


def _blank_line(rows, path):
    rows.insert(3, [])
    return f"{path} line 4: 0 fields, expected 18"


def _extra_field(rows, path):
    rows[3].append("0")
    return f"{path} line 4: 19 fields, expected 18"


def _hash_in_id(rows, path):
    # the id is read whole, not cut at the "#" as at a comment
    rows[3][0] = "look#" + rows[3][0]
    rows[-1][-1] = bits = "2" + rows[-1][-1][1:]
    return f"{path} line 13: label {bits!r} is not 8 bits of 0/1"


def _bad_last_line(rows, path):
    rows[-1][7] = "1.5.0"
    return f"{path} line 13: non-numeric field"


def _header_only(rows, path):
    del rows[1:]
    return f"{path}: no data rows"


def _bad_header(rows, path):
    rows[0][1] = "look_deg"
    return "unrecognized dataset header"


def _separator_by_value(rows, path):
    # numpy would strip the separator as space; float() refuses it
    rows[3][4] = "\x1c" + rows[3][4]
    return f"{path} line 4: non-numeric field"


# float() accepts these, so the reference reader takes them as 10.0 and 12.0;
# the one-pass parse refuses them, naming their line

def _underscore_in_number(rows, path):
    rows[3][4] = "1_0"
    return f"{path} line 4: non-numeric field"


def _non_ascii_digits(rows, path):
    rows[3][4] = "\u0661\u0662"
    return f"{path} line 4: non-numeric field"


@pytest.mark.parametrize("corrupt", [_short_row, _mask_with_a_two, _mask_too_long,
                                     _mask_of_other_weight, _non_finite_feature,
                                     _non_numeric_feature, _non_numeric_look,
                                     _blank_line, _extra_field, _hash_in_id,
                                     _bad_last_line, _header_only, _bad_header,
                                     _separator_by_value, _underscore_in_number,
                                     _non_ascii_digits])
def test_train_rejects_bad_dataset_rows(config_path, tmp_path, capsys, corrupt):
    data = tmp_path / "data"
    cli.main(["gen-data", config_path, "--part", "train", "--out-dir", str(data)])
    rows = read_csv(data / "train.csv")
    assert len(rows) == 13
    bad = tmp_path / "bad.csv"
    message = corrupt(rows, bad)
    with open(bad, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    capsys.readouterr()
    rc = cli.main(["train", str(bad), "--hidden", "4", "--epochs", "1",
                   "--out-dir", str(tmp_path / "fit")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "fit" / "model.bin").exists()


@pytest.mark.parametrize("size", ["0", "-4"])
def test_train_rejects_ensemble_below_one(config_path, tmp_path, capsys, size):
    data = tmp_path / "data"
    cli.main(["gen-data", config_path, "--part", "train", "--out-dir", str(data)])
    capsys.readouterr()
    rc = cli.main(["train", str(data / "train.csv"), "--hidden", "4", "--epochs", "1",
                   "--ensemble", size, "--out-dir", str(tmp_path / "fit")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: ensemble size must be >= 1, got {size}\n"
    assert not (tmp_path / "fit" / "model.bin").exists()


def test_diverging_fit_exit_code_two(config_path, tmp_path, capsys):
    data = tmp_path / "data"
    cli.main(["gen-data", config_path, "--part", "train", "--out-dir", str(data)])
    capsys.readouterr()
    rc = cli.main(["train", str(data / "train.csv"), "--hidden", "8", "--epochs", "3",
                   "--learning-rate", "1e38", "--out-dir", str(tmp_path / "fit")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite") and err.count("\n") == 1
    assert not (tmp_path / "fit" / "model.bin").exists()


@pytest.mark.parametrize("rate", ["-1", "0", "nan", "inf"])
def test_train_rejects_bad_learning_rate(config_path, tmp_path, capsys, rate):
    data = tmp_path / "data"
    cli.main(["gen-data", config_path, "--part", "train", "--out-dir", str(data)])
    capsys.readouterr()
    rc = cli.main(["train", str(data / "train.csv"), "--hidden", "4", "--epochs", "2",
                   "--learning-rate", rate, "--out-dir", str(tmp_path / "fit")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: learning_rate must be finite and > 0") and err.count("\n") == 1
    assert not (tmp_path / "fit" / "model.bin").exists()


def test_train_checks_ensemble_cap_and_model_path_before_fitting(
        config_path, tmp_path, capsys, monkeypatch):
    data = tmp_path / "data"
    cli.main(["gen-data", config_path, "--part", "train", "--out-dir", str(data)])
    capsys.readouterr()

    def no_fit(*args, **kwargs):
        pytest.fail("train ran before its inputs were checked")

    monkeypatch.setattr(mlp, "train", no_fit)
    argv = ["train", str(data / "train.csv"), "--hidden", "4", "--epochs", "1"]
    rc = cli.main(argv + ["--ensemble", str(mlp.MAX_ENSEMBLE + 1),
                          "--out-dir", str(tmp_path / "a")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: ensemble size must be <= {mlp.MAX_ENSEMBLE}, got {mlp.MAX_ENSEMBLE + 1}\n")
    rc = cli.main(argv + ["--model-name", os.path.join("sub", "dir", "m.bin"),
                          "--out-dir", str(tmp_path / "b")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --model-name sub") and err.count("\n") == 1
    assert not list((tmp_path / "a").glob("*")) and not list((tmp_path / "b").glob("*"))


def _readme():
    """README's `sparsebeam` command lines, continuations joined, and its
    prose outside code blocks."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        text = fh.read().replace("\\\n", " ")
    commands, prose, fenced = [], [], False
    for line in text.splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif line.startswith("sparsebeam "):
            commands.append(line.split()[1:])
        elif not fenced:
            prose.append(line)
    return commands, "\n".join(prose)


def test_readme_commands_and_flags_match_the_parser():
    parser = cli.build_parser()
    commands, prose = _readme()
    assert len(commands) >= 7
    for argv in commands:
        parser.parse_args(argv)  # exits 2 on an unknown flag or subcommand
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices.values()
    options = {opt for sp in (parser, *subparsers) for opt in sp._option_string_actions}
    mentioned = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*[a-z]", prose))
    mentioned |= {tok for argv in commands for tok in argv if tok.startswith("--")}
    assert mentioned - options == set()


@pytest.mark.parametrize("argv", [
    pytest.param(["sbsa", "s.json", "--n-grid", "8", "--n-select", "3", "--seed", "1"],
                 id="sbsa-seed"),
    pytest.param(["enumerate", "s.json", "--n-grid", "8", "--n-select", "3", "--seed", "1"],
                 id="enumerate-seed"),
    pytest.param(["fig7", "s.json", "--n-grid", "8", "--n-select", "3", "--seed", "1"],
                 id="fig7-seed"),
    pytest.param(["sbsa", "s.json", "--n-grid", "8", "--n-select", "3", "--n-starts", "3"],
                 id="sbsa-n-starts"),
    pytest.param(["train", "d.csv", "--no-standardize"], id="train-no-standardize"),
    pytest.param(["train", "d.csv", "--no-power-norm"], id="train-no-power-norm"),
    pytest.param(["eval", "c.json", "--nnc-metric", "mae"], id="eval-nnc-metric"),
    pytest.param(["gen-data", "c.json", "--label-source", "enumerate"],
                 id="gen-data-label-source-enumerate"),
])
def test_parser_rejects_options_no_command_reads(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


class _ReadRecorder(argparse.Namespace):
    """A parsed namespace that records the name of every attribute read."""

    def __init__(self, args):
        super().__init__(**vars(args))
        self._read = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


def test_every_command_reads_every_option(config_path, scenario_path, tmp_path):
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    out = tmp_path / "out"
    scene_args = [scenario_path, "--n-grid", "8", "--n-select", "3"]
    runs = {
        "gen-data": [config_path],
        "train": [str(out / "train.csv"), "--hidden", "6", "--epochs", "2"],
        "eval": [config_path, "--model", f"dnn={out / 'model.bin'}",
                 "--train-dataset", str(out / "train.csv"), "--methods", "compact_ula",
                 "--n-random", "5"],
        "sbsa": scene_args,
        "enumerate": scene_args,
        "fig7": scene_args,
        "compare": [*scene_args, "--n-random", "5"],
    }
    assert set(runs) == set(subparsers)
    unread = {}
    for command, argv in runs.items():
        args = parser.parse_args([command, *argv, "--out-dir", str(out)])
        recorder = _ReadRecorder(args)
        os.makedirs(out, exist_ok=True)
        assert args.func(recorder) == 0
        options = {a.dest for a in subparsers[command]._actions if a.dest != "help"}
        unread[command] = sorted(options - recorder._read)
    assert unread == {command: [] for command in runs}


def test_version_and_module_entry(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "sparsebeam" in capsys.readouterr().out
    # the child process imports the same package the tests import
    src = os.path.dirname(os.path.dirname(sparsebeam.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "sparsebeam", "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    # numpy is the only runtime dependency: scipy is for the test oracles
    probe = ("import sys, sparsebeam.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# run in a child whose address space is capped, so an unbounded allocation
# fails there with MemoryError instead of exhausting the machine
_CAPPED_MAIN = """
import resource, sys
cap = 2 << 30
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))
from sparsebeam import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def run_capped(argv):
    src = os.path.dirname(os.path.dirname(sparsebeam.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", _CAPPED_MAIN, *argv],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("command", ["enumerate", "fig7", "compare", "sbsa"])
def test_oversized_grid_exits_on_budget_in_bounded_memory(scenario_path, tmp_path, command):
    proc = run_capped([command, scenario_path, "--n-grid", "100000", "--n-select", "1",
                       "--out-dir", str(tmp_path)])
    assert proc.returncode == 3, proc.stderr
    lines = proc.stderr.strip().splitlines()
    # sbsa is charged for its first greedy step, starts x (N-1) candidates
    want = "error: 100000 starts x 99999" if command == "sbsa" else "error: C(100000,1)"
    assert len(lines) == 1 and lines[0].startswith(want)


def test_sbsa_charges_first_greedy_step_to_budget(scenario_path, tmp_path, capsys):
    # 8 starts x 7 = 56 candidates of 80 bytes, each charged 80/64, fit a
    # budget of 70, not 69
    argv = ["sbsa", scenario_path, "--n-grid", "8", "--n-select", "3"]
    assert cli.main(argv + ["--budget", "70", "--out-dir", str(tmp_path / "a")]) == 0
    assert cli.main(argv + ["--budget", "69", "--out-dir", str(tmp_path / "b")]) == 3
    assert not (tmp_path / "b" / "sbsa_starts.csv").exists()
    proc = run_capped(["sbsa", scenario_path, "--n-grid", "3000", "--n-select", "2",
                       "--out-dir", str(tmp_path / "c")])
    assert proc.returncode == 3, proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: 3000 starts x 2999")


def test_sbsa_budget_message_counts_cells(scenario_path, tmp_path, capsys):
    # each candidate of 12 sensors holds 12 float64 lag counts and two int8
    # increments per sensor, 10 x 12 = 120 bytes
    rc = cli.main(["sbsa", scenario_path, "--n-grid", "12", "--n-select", "6",
                   "--budget", "5", "--out-dir", str(tmp_path)])
    assert rc == 3
    assert capsys.readouterr().err == (
        "error: 12 starts x 11 = 132 candidates of 120 bytes (12 float64 lag counts "
        "and 24 int8 increments) (each counted 120/64 times) exceeds the enumeration "
        "budget of 5\n")


def test_compare_charges_every_search_to_budget(scenario_path, tmp_path, capsys):
    # the optimum and the worst case score C(8,2) = 28 subsets, but SBSA's
    # first step holds 8 starts x 7 = 56 candidates of 80 bytes (70 x 64)
    argv = ["compare", scenario_path, "--n-grid", "8", "--n-select", "2"]
    assert cli.main(argv + ["--budget", "70", "--out-dir", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    assert cli.main(argv + ["--budget", "69", "--out-dir", str(tmp_path / "b")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: 8 starts x 7") and err.count("\n") == 1
    assert not (tmp_path / "b" / "compare.csv").exists()


@pytest.mark.parametrize("command, n_grid, codes", [
    pytest.param("sbsa", "800", (0, 3), id="800-codes0"),
    pytest.param("sbsa", "256", (0,), id="256-codes1"),
    pytest.param("compare", "800", (3,), id="compare-800"),
])
def test_sbsa_first_step_fits_bounded_memory(scenario_path, tmp_path, command, n_grid, codes):
    # the first step's lag counts of 639,200 candidates of 800 sensors are 3.8 GiB
    proc = run_capped([command, scenario_path, "--n-grid", n_grid, "--n-select", "2",
                       "--out-dir", str(tmp_path)])
    assert proc.returncode in codes, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == (proc.returncode != 0)


@pytest.mark.parametrize("override", [
    pytest.param('"inr_db_range": [10, 1e400]', id="inr-infinite"),
    pytest.param('"inr_db_range": [10, NaN]', id="inr-nan"),
    pytest.param('"inr_db_range": [10, 5000]', id="inr-overflow"),
    pytest.param('"snr_db": 5000', id="snr-overflow"),
    pytest.param(f'"snr_db": 1{"0" * 400}', id="snr-huge-integer"),
    pytest.param('"doa_variance_deg2": Infinity', id="variance-infinite"),
    pytest.param('"doa_variance_deg2": 1e6, "n_interferers_range": [3, 4]', id="variance-huge"),
    pytest.param('"n_grid": 8.0', id="n_grid-float"),
    pytest.param('"n_select": 2.5', id="n_select-float"),
    pytest.param('"n_train_per_look": 2.5', id="n_train_per_look-float"),
    pytest.param('"n_snapshots": 2.5', id="n_snapshots-float"),
    pytest.param('"seed": 1.5', id="seed-float"),
    pytest.param('"interferer_grid_deg": [10, 170, 1e-9]', id="grid-step-tiny"),
    pytest.param('"n_interferers_range": [1, 2.5]', id="n_interferers-float"),
    pytest.param('"toeplitz_average": "no"', id="toeplitz-string"),
    pytest.param('"n_grid": 100000', id="n_grid-huge"),
    pytest.param('"n_snapshots": 10000000000', id="n_snapshots-huge"),
])
def test_bad_config_exits_two_without_data(tmp_path, override):
    # the last duplicate key wins, so the override replaces the base value;
    # the child's address space is capped, so an unbounded grid cannot run
    path = tmp_path / "cfg.json"
    path.write_text('{"n_grid": 8, "n_select": 3, "look_doas_deg": [60.0], '
                    f'"n_train_per_look": 4, "n_test_per_look": 2, "seed": 5, {override}}}')
    proc = run_capped(["gen-data", str(path), "--out-dir", str(tmp_path / "out")])
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not list(tmp_path.glob("out/*.csv"))


@pytest.mark.parametrize("text, message", [
    pytest.param('{"n_grid": 8, "n_select": 3', "Expecting ',' delimiter", id="truncated"),
    pytest.param('{"n_grid": 8.0}', "n_grid must be an integer >= 2, got 8.0", id="field"),
])
def test_bad_config_error_names_the_file(tmp_path, capsys, text, message):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert cli.main(["gen-data", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: experiment config: {message}")
    assert err.count("\n") == 1


def test_train_batch_taller_than_the_data_runs_in_bounded_memory(config_path, tmp_path):
    # 100,000,000 rows of workspace would need far more than the 2 GiB cap;
    # the 12 training rows make every batch the whole set, as --batch-size 12
    data = tmp_path / "data"
    cli.main(["gen-data", config_path, "--part", "train", "--out-dir", str(data)])
    models = {}
    for batch in ("100000000", "12"):
        out = tmp_path / f"fit{batch}"
        proc = run_capped(["train", str(data / "train.csv"), "--hidden", "6", "--epochs", "3",
                           "--val-fraction", "0", "--batch-size", batch, "--seed", "1",
                           "--out-dir", str(out)])
        assert proc.returncode == 0, proc.stderr
        models[batch] = (out / "model.bin").read_bytes()
    assert models["100000000"] == models["12"]


@pytest.mark.parametrize("hidden, options, message", [
    pytest.param("1000000000", [], "hold 24000000008 parameters, more than the cap of 4194304",
                 id="one-huge-layer"),
    pytest.param("100000", ["--ensemble", "2"], "2 network(s) of layer sizes [15, 100000, 8]",
                 id="ensemble"),
    pytest.param("6,0", [], "hidden layer widths must be >= 1, got [6, 0]", id="zero-width"),
    pytest.param("170000", ["--batch-size", "2000", "--val-fraction", "0"],
                 "a batch of 2000 rows through layer widths [170000, 8] holds 340016000 cells, "
                 "more than the cap of 16777216", id="batch-cells"),
    pytest.param("170000", ["--batch-size", "64", "--val-fraction", "0.5"],
                 "the validation forward over 1000 rows through layer widths [170000, 8] holds "
                 "170008000 cells, more than the cap of 16777216", id="validation-cells"),
])
def test_train_rejects_oversized_network_before_allocating(config_path, tmp_path, hidden,
                                                            options, message):
    # a 15-10^9-8 network's first Xavier draw alone would be 112 GiB; each
    # member of the 15-100000-8 pair holds 2.4M parameters, 4.8M together; a
    # 15-170000-8 network holds 4.1M, under the cap, but its 2,000-row batch
    # buffers would need 6.8 GB, and a float64 forward over 1,000 validation
    # rows 1.27 GiB for its first layer alone
    if "--batch-size" in options:
        with open(config_path) as fh:
            cfg = json.load(fh)
        with open(config_path, "w") as fh:
            json.dump({**cfg, "n_train_per_look": 2000}, fh)
    data = tmp_path / "data"
    cli.main(["gen-data", config_path, "--part", "train", "--out-dir", str(data)])
    out = tmp_path / "fit"
    proc = run_capped(["train", str(data / "train.csv"), "--hidden", hidden, "--epochs", "1",
                       *options, "--out-dir", str(out)])
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]
    assert not list(out.glob("*"))


@pytest.mark.parametrize("label_source", ["enumeration", "sbsa"])
@pytest.mark.parametrize("size", [
    pytest.param(f'"n_grid": {harness.MAX_GRID}', id="n_grid"),
    pytest.param(f'"n_grid": 8, "n_snapshots": {harness.MAX_SNAPSHOT_CELLS // 8}',
                 id="snapshot-cells"),
])
def test_config_at_size_bounds_runs_in_bounded_memory(tmp_path, size, label_source):
    path = tmp_path / "cfg.json"
    path.write_text('{"n_select": 2, "look_doas_deg": [60.0], "n_train_per_look": 1, '
                    f'"n_test_per_look": 1, "seed": 5, "label_source": "{label_source}", '
                    f'{size}}}')
    proc = run_capped(["gen-data", str(path), "--out-dir", str(tmp_path / "out")])
    assert proc.returncode in (0, 3), proc.stderr
    assert "Traceback" not in proc.stderr
    if proc.returncode == 3:
        assert len(proc.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("n_random", ["0", "-2", "1000000000"])
@pytest.mark.parametrize("command", ["eval", "compare"])
def test_n_random_out_of_range_exits_two(config_path, scenario_path, tmp_path,
                                         command, n_random):
    out = tmp_path / "out"
    if command == "eval":
        argv = ["eval", config_path, "--methods", "random"]
    else:
        argv = ["compare", scenario_path, "--n-grid", "8", "--n-select", "3"]
    proc = run_capped([*argv, "--n-random", n_random, "--out-dir", str(out)])
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: n_random must be in [1, ")
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("command", ["eval", "compare"])
def test_n_random_is_checked_before_any_scene_is_drawn_or_searched(
        config_path, scenario_path, tmp_path, capsys, monkeypatch, command):
    def reached(*args, **kwargs):
        pytest.fail("a scene was drawn or searched before --n-random was checked")

    monkeypatch.setattr(harness, "scenario_stream", reached)
    monkeypatch.setattr(enumeration, "enumerate_best", reached)
    if command == "eval":
        argv = ["eval", config_path]
    else:
        argv = ["compare", scenario_path, "--n-grid", "8", "--n-select", "3"]
    assert cli.main([*argv, "--n-random", "0", "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: n_random must be in [1, 262144] on 8 sensors, got 0\n"


@pytest.mark.parametrize("argv, flag", [
    (["train", "d.csv"], "--seed"), (["train", "d.csv"], "--split-seed"),
    (["compare", "s.json", "--n-grid", "8", "--n-select", "3"], "--seed"),
    (["eval", "c.json"], "--seed")])
def test_negative_seed_exits_two_naming_its_flag(tmp_path, capsys, argv, flag):
    # refused before any input file is read
    out = tmp_path / "out"
    assert cli.main([*argv, flag, "-1", "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {flag} must be >= 0, got -1\n"
    assert not out.exists()


def test_every_manifest_has_provenance_keys(config_path, scenario_path, tmp_path):
    out = tmp_path / "out"
    scene_args = [scenario_path, "--n-grid", "8", "--n-select", "3", "--out-dir", str(out)]
    runs = [
        ["gen-data", config_path, "--out-dir", str(out)],
        ["train", str(out / "train.csv"), "--hidden", "6", "--epochs", "2",
         "--out-dir", str(out)],
        ["eval", config_path, "--model", f"dnn={out / 'model.bin'}",
         "--methods", "compact_ula", "--n-random", "5", "--out-dir", str(out)],
        *([command, *scene_args] for command in ("sbsa", "enumerate", "fig7", "compare")),
    ]
    for argv in runs:
        assert cli.main(argv) == 0
    manifests = sorted(out.glob("*_manifest.json"))
    assert len(manifests) == len(runs)
    for path in manifests:
        doc = json.loads(path.read_text())
        assert path.name == f"{doc['command']}_manifest.json"
        assert isinstance(doc["argv"], list)
        assert {"python", "numpy", "sparsebeam"} <= set(doc["versions"])
        assert "scipy" not in doc["versions"]
    doc = json.loads((out / "eval_manifest.json").read_text())
    assert doc["config_sha256"] == harness.config_hash(harness.load_config(config_path))
    assert doc["n_scenarios"] == 8
    assert doc["methods"] == ["compact_ula", "dnn"]
    assert set(doc["summaries"]["dnn"]) == {"mean_sinr_db", "mean_gap_db", "exact_match_rate"}
    assert doc["runtime_s"]["evaluate"] > 0.0
    # seconds spent drawing the scenes and producing each method's masks
    assert doc["runtime_s"]["evaluate"] >= doc["runtime_s"]["scenes"] > 0.0
    assert set(doc["runtime_s"]["select"]) == {"compact_ula", "dnn"}
    assert all(s >= 0.0 for s in doc["runtime_s"]["select"].values())
