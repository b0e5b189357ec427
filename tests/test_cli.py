"""End-to-end command-line checks on tiny problems."""

import csv
import json
import os
import subprocess
import sys

import pytest

import sparsebeam
from sparsebeam import cli, harness, mlp, scene


@pytest.fixture()
def config_path(tmp_path):
    cfg = harness.ExperimentConfig(n_grid=8, n_select=3, look_doas_deg=(60.0,),
                                   n_train_per_look=12, n_test_per_look=8,
                                   seed=5)
    path = tmp_path / "cfg.json"
    harness.save_config(path, cfg)
    return str(path)


@pytest.fixture()
def scenario_path(tmp_path):
    scn = scene.Scenario(desired=scene.SourceSpec(60.0),
                         interferers=(scene.SourceSpec(110.0, 10.0),
                                      scene.SourceSpec(40.0, 3.0)))
    path = tmp_path / "scene.json"
    scene.save_scenario(path, scn)
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
    model = mlp.load_model(out / "net.bin")
    assert model.layer_sizes == [15, 10, 8]
    assert model.normalize_power
    with open(out / "train_manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["train_config"]["monitor"] == "selection"
    assert manifest["train_config"]["split_seed"] == 0
    assert manifest["train_config"]["normalize_power"] is True
    assert manifest["n_examples"] == 12
    assert manifest["ensemble_members"] == 1
    assert manifest["compute_dtype"] == "float32"
    assert manifest["members"][0]["fit_s"] > 0.0

    rc = cli.main(["train", str(data_dir / "train.csv"),
                   "--out-dir", str(out), "--model-name", "ens.bin",
                   "--hidden", "6", "--epochs", "2", "--batch-size", "4",
                   "--seed", "1", "--ensemble", "2"])
    assert rc == 0
    ens = mlp.load_model(out / "ens.bin")
    assert isinstance(ens, mlp.EnsembleModel) and ens.n_members == 2


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


def test_truncated_model_file_exit_code_two(config_path, tmp_path, capsys):
    # cuts inside the magic, the header (format, layer count, member count,
    # layer sizes) and the payload, of a single network and of an ensemble
    net = mlp.init_model([15, 6, 8], seed=0)
    for name, model in (("net.bin", net), ("ens.bin", mlp.EnsembleModel([net, net]))):
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


def _short_row(row):
    return row[:5] + row[6:]


def _mask_with_a_two(row):
    return row[:-1] + ["2" + row[-1][1:]]


def _mask_too_long(row):
    return row[:-1] + [row[-1] + "0"]


def _mask_of_other_weight(row):
    return row[:-1] + ["1" * len(row[-1])]


def _non_finite_feature(row):
    return row[:4] + ["nan"] + row[5:]


def _non_numeric_feature(row):
    return row[:4] + ["abc"] + row[5:]


def _non_numeric_look(row):
    return row[:1] + ["abc"] + row[2:]


@pytest.mark.parametrize("corrupt", [_short_row, _mask_with_a_two, _mask_too_long,
                                     _mask_of_other_weight, _non_finite_feature,
                                     _non_numeric_feature, _non_numeric_look])
def test_train_rejects_bad_dataset_rows(config_path, tmp_path, capsys, corrupt):
    data = tmp_path / "data"
    cli.main(["gen-data", config_path, "--part", "train", "--out-dir", str(data)])
    rows = read_csv(data / "train.csv")
    rows[3] = corrupt(rows[3])
    bad = tmp_path / "bad.csv"
    with open(bad, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    capsys.readouterr()
    rc = cli.main(["train", str(bad), "--hidden", "4", "--epochs", "1",
                   "--out-dir", str(tmp_path / "fit")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 4" in err and err.count("\n") == 1
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


def test_fig7_rejects_aliasing_dft_length(scenario_path, tmp_path, capsys):
    rc = cli.main(["fig7", scenario_path, "--n-grid", "16", "--n-select", "3",
                   "--dft-length", "8", "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "dft_length 8 < 2N-1 = 31" in err and err.count("\n") == 1


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


@pytest.mark.parametrize("command", ["enumerate", "fig7", "compare"])
def test_oversized_grid_exits_on_budget_in_bounded_memory(scenario_path, tmp_path, command):
    src = os.path.dirname(os.path.dirname(sparsebeam.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN, command, scenario_path, "--n-grid", "100000",
         "--n-select", "1", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3, proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: C(100000,1)")
