"""Seeded mutations of every input file, each run through the command that
reads it: a damaged file either works or fails cleanly.

Each case mutates one valid file once (a bit flip, a truncation, an
inserted byte, or a digit or separator swapped for another of its kind)
and runs it through in-process cli.main. The call must return 0, 2 or 3;
on 2 or 3 stderr is exactly one "error:" line; no warning is raised; and on
0 every number in the CSVs it wrote is finite.
"""

import json
import math
import warnings

import numpy as np
import pytest

from sparsebeam import cli, harness, scene

CASES_PER_FILE = 200
KINDS = ["config", "dataset", "model", "scenario"]
DIGITS, SEPARATORS = b"0123456789", b",.:;[]{}\" \n"


def mutate(blob: bytes, rng) -> bytes:
    kind = int(rng.integers(4))
    if kind == 3:
        group = DIGITS if rng.integers(2) else SEPARATORS
        at = [i for i, b in enumerate(blob) if b in group]
        if at:
            i = at[int(rng.integers(len(at)))]
            others = [b for b in group if b != blob[i]]
            return blob[:i] + bytes([others[int(rng.integers(len(others)))]]) + blob[i + 1:]
        kind = 0
    if kind == 0:
        i = int(rng.integers(len(blob)))
        return blob[:i] + bytes([blob[i] ^ 1 << int(rng.integers(8))]) + blob[i + 1:]
    if kind == 1:
        return blob[:int(rng.integers(len(blob)))]
    i = int(rng.integers(len(blob) + 1))
    return blob[:i] + bytes([int(rng.integers(256))]) + blob[i:]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid N=8, P=3 files of each kind and the argv that reads each one."""
    root = tmp_path_factory.mktemp("inputs")
    cfg = harness.ExperimentConfig(n_grid=8, n_select=3, look_doas_deg=(60.0,),
                                   n_train_per_look=12, n_test_per_look=3,
                                   n_snapshots=16, seed=5)
    config = root / "cfg.json"
    config.write_text(json.dumps(harness.config_to_dict(cfg)))
    assert cli.main(["gen-data", str(config), "--part", "train", "--out-dir", str(root)]) == 0
    dataset = root / "train.csv"
    train = ["--hidden", "4", "--epochs", "1", "--batch-size", "4", "--val-fraction", "0.25"]
    assert cli.main(["train", str(dataset), *train, "--out-dir", str(root)]) == 0
    model = root / "model.bin"
    scn = scene.Scenario(desired=scene.SourceSpec(60.0),
                         interferers=(scene.SourceSpec(110.0, 10.0),
                                      scene.SourceSpec(40.0, 3.0)))
    scenario = root / "scene.json"
    scenario.write_text(json.dumps(scene.scenario_to_dict(scn)))
    return {
        "config": (config, lambda path: ["gen-data", path, "--part", "test"]),
        "dataset": (dataset, lambda path: ["train", path, *train]),
        "model": (model, lambda path: ["eval", str(config), "--model", f"dnn={path}",
                                       "--methods", "dnn,random", "--n-random", "4"]),
        "scenario": (scenario, lambda path: ["compare", path, "--n-grid", "8",
                                             "--n-select", "3", "--n-random", "4"]),
    }


def csv_numbers(out_dir):
    for path in sorted(out_dir.glob("*.csv")):
        for line in path.read_text().splitlines():
            for cell in line.split(","):
                try:
                    yield path.name, float(cell)
                except ValueError:
                    continue


@pytest.mark.parametrize("kind", KINDS)
def test_mutated_input_file_works_or_fails_cleanly(inputs, tmp_path, capsys, kind):
    original, argv = inputs[kind]
    blob = original.read_bytes()
    rng = np.random.default_rng(KINDS.index(kind))
    codes = []
    for case in range(CASES_PER_FILE):
        path = tmp_path / f"case{case}{original.suffix}"
        path.write_bytes(mutate(blob, rng))
        out = tmp_path / f"out{case}"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main([*argv(str(path)), "--out-dir", str(out)])
        err = capsys.readouterr().err
        where = f"{kind} case {case}"
        assert not caught, f"{where}: {[str(w.message) for w in caught]}"
        assert rc in (0, 2, 3), where
        if rc:
            assert err.startswith("error: ") and err.count("\n") == 1, f"{where}: {err!r}"
        else:
            bad = [(name, x) for name, x in csv_numbers(out) if not math.isfinite(x)]
            assert not bad, f"{where}: {bad[:3]}"
        codes.append(rc)
    # the cases reach past the parsers: some files still work, some fail
    assert 0 in codes and 2 in codes
