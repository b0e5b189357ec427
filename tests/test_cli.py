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
    (model,) = mlp.load_model(out / "net.bin")
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
    # sbsa is charged for its first greedy step, starts x (N-1) candidate masks
    want = "error: 100000 starts x 99999" if command == "sbsa" else "error: C(100000,1)"
    assert len(lines) == 1 and lines[0].startswith(want)


def test_sbsa_charges_first_greedy_step_to_budget(scenario_path, tmp_path, capsys):
    # 8 starts x 7 candidates = 56 masks fit a budget of 56, not 55
    argv = ["sbsa", scenario_path, "--n-grid", "8", "--n-select", "3"]
    assert cli.main(argv + ["--budget", "56", "--out-dir", str(tmp_path / "a")]) == 0
    assert cli.main(argv + ["--budget", "55", "--out-dir", str(tmp_path / "b")]) == 3
    assert not (tmp_path / "b" / "sbsa_starts.csv").exists()
    proc = run_capped(["sbsa", scenario_path, "--n-grid", "3000", "--n-select", "2",
                       "--out-dir", str(tmp_path / "c")])
    assert proc.returncode == 3, proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: 3000 starts x 2999")


@pytest.mark.parametrize("override", [
    pytest.param('"inr_db_range": [10, 1e400]', id="inr-infinite"),
    pytest.param('"inr_db_range": [10, NaN]', id="inr-nan"),
    pytest.param('"inr_db_range": [10, 5000]', id="inr-overflow"),
    pytest.param('"snr_db": 5000', id="snr-overflow"),
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
        assert {"python", "numpy", "scipy", "sparsebeam"} <= set(doc["versions"])
    doc = json.loads((out / "eval_manifest.json").read_text())
    assert doc["config_sha256"] == harness.config_hash(harness.load_config(config_path))
    assert doc["n_scenarios"] == 8
    assert doc["methods"] == ["compact_ula", "dnn"]
    assert set(doc["summaries"]["dnn"]) == {"mean_sinr_db", "mean_gap_db", "exact_match_rate"}
    assert doc["runtime_s"]["evaluate"] > 0.0
