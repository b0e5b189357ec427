"""The three benchmark workloads: inputs, set-up, one CLI call, output checks.

Each workload drives the package through `sparsebeam.cli.main([...])` on
inputs generated here from the workload seed. A call is one closed-loop
operation: the next call starts only after the previous one returned.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

import oracle

# the desk settings of the learned pipeline
DESK_TRAIN_FLAGS = ["--ensemble", "5", "--monitor", "selection",
                    "--learning-rate", "5e-4", "--batch-size", "64", "--split-seed", "0"]
SELECT_METHODS = "dnn,nnc,sbsa,random,worst_case,compact_ula,sparse_ula"
# relative tie band shared by the enumeration oracle and the optimality audit
DB_TIE = 10.0 * math.log10(1.0 + oracle.TIE_BAND)


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def call_seed(seed: int, i: int) -> int:
    """Program seed of call i; the warm-up call is i = -1."""
    return int(np.random.default_rng((seed, i + 1)).integers(2**31))


def experiment(n_grid: int, seed: int, **overrides) -> dict:
    """An experiment config with every field spelled out (one look at 60 deg)."""
    doc = {
        "n_grid": n_grid, "n_select": 6, "look_doas_deg": [60.0],
        "n_train_per_look": 1, "n_test_per_look": 1, "snr_db": 0.0,
        "inr_db_range": [10.0, 20.0], "n_interferers_range": [1, 4],
        "interferer_grid_deg": [10.0, 170.0, 1.0], "noise_power": 1.0,
        "doa_variance_deg2": 0.25, "n_snapshots": None, "toeplitz_average": True,
        "label_source": "enumeration", "seed": seed,
    }
    doc.update(overrides)
    return doc


def write_json(path: Path, doc: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return str(path)


def read_rows(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_dataset(path) -> tuple[np.ndarray, list[str]]:
    """(features, label bits) of a dataset CSV, parsed without the package."""
    rows = read_rows(path)[1:]
    return np.array([[float(v) for v in r[2:-1]] for r in rows]), [r[-1] for r in rows]


class Workload:
    name = ""
    item = "scene"         # what items_per_cpu_s counts
    output = ""            # the file whose sha256 identifies a call's output
    items_per_call = 1
    scenes_per_call = 1

    def __init__(self, seed: int, pkg):
        self.seed = seed
        self.pkg = pkg
        self.cli = pkg.cli

    def run_cli(self, argv: list[str]) -> None:
        rc = self.cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"set-up command {argv[0]} exited with {rc}")

    def params(self) -> dict:
        raise NotImplementedError

    def setup(self, d: Path) -> dict[str, str]:
        """Build what every call needs under `d`; returns digests of it."""
        return {}

    def argv(self, i: int, d: Path) -> list[str]:
        """Write call i's inputs under `d`; returns its argv without --out-dir."""
        raise NotImplementedError

    def check(self, i: int, out: Path) -> list[str]:
        """Problems found in call i's outputs (empty when correct)."""
        raise NotImplementedError

    def expected_counts(self) -> dict[str, int]:
        """Per-call counts the traced run must see exactly."""
        return {}

    def quality(self) -> dict[str, tuple[float, str, str]]:
        """Deterministic quality figures: name -> (value, unit, better)."""
        return {}


class Train(Workload):
    """train with the desk flags on a set-up dataset, fixed epochs, no early stop."""

    name = "train"
    item = "member-epoch-row"
    output = "model.bin"
    N, P, ROWS, HELD_OUT, MEMBERS, EPOCHS = 12, 6, 600, 100, 5, 1
    items_per_call = MEMBERS * EPOCHS * ROWS
    scenes_per_call = 0

    def __init__(self, seed, pkg):
        super().__init__(seed, pkg)
        self.first = None

    def params(self):
        return {"command": "train " + " ".join(DESK_TRAIN_FLAGS), "n_grid": self.N,
                "n_select": self.P, "dataset_rows": self.ROWS, "held_out_rows": self.HELD_OUT,
                "members": self.MEMBERS, "epochs": self.EPOCHS, "patience": self.EPOCHS}

    def setup(self, d):
        self.config = experiment(self.N, self.seed, n_train_per_look=self.ROWS,
                                 n_test_per_look=self.HELD_OUT)
        self.data = d / "data"
        self.run_cli(["gen-data", write_json(d / "data.json", self.config),
                      "--out-dir", str(self.data)])
        self.test = read_dataset(self.data / "test.csv")
        return {name: sha256(self.data / name) for name in ("train.csv", "test.csv")}

    def argv(self, i, d):
        return ["train", str(self.data / "train.csv"), *DESK_TRAIN_FLAGS,
                "--epochs", str(self.EPOCHS), "--patience", str(self.EPOCHS),
                "--seed", str(call_seed(self.seed, i))]

    def check(self, i, out):
        problems = []
        with open(out / "train_manifest.json") as fh:
            members = json.load(fh)["members"]
        if len(members) != self.MEMBERS:
            problems.append(f"{len(members)} members, expected {self.MEMBERS}")
        for m in members:
            losses = m["train_losses"] + m["val_losses"]
            if len(m["train_losses"]) != self.EPOCHS or not np.all(np.isfinite(losses)):
                problems.append("a member's losses are missing or not finite")
        model = self.pkg.mlp.load_model(out / "model.bin")
        masks = self.pkg.mlp.predict_selection(model, self.test[0], self.P)
        if masks.shape != (self.HELD_OUT, self.N) or np.any(masks.sum(axis=1) != self.P):
            problems.append("the reloaded model does not predict weight-P masks")
        if i == 0 and self.first is None:
            self.first = masks
        return problems

    def quality(self):
        if self.first is None:
            return {}
        bits = ["".join(str(int(b)) for b in m) for m in self.first]
        gaps = []
        for scn, pred in zip(oracle.drawn_scenes(self.config, "test"), bits):
            subsets, vals = oracle.all_subset_sinrs(self.N, self.P, scn)
            gaps.append(10.0 * math.log10(vals.max() / vals[subsets.index(oracle.mask_subset(pred))]))
        match = float(np.mean([a == b for a, b in zip(bits, self.test[1])]))
        return {"dnn_exact_match": (match, "fraction", "higher"),
                "dnn_gap_db": (float(np.mean(gaps)), "dB", "lower")}


class Select(Workload):
    """eval of every method on finite-sample scenes (512 snapshots, Toeplitz)."""

    name = "select"
    output = "report.csv"
    N, P, ROWS, SCENES, SNAPSHOTS, SETUP_EPOCHS = 12, 6, 400, 5, 512, 2
    items_per_call = scenes_per_call = SCENES

    def __init__(self, seed, pkg):
        super().__init__(seed, pkg)
        self.gaps = {m: [] for m in SELECT_METHODS.split(",")}
        self.matches = {m: 0 for m in SELECT_METHODS.split(",")}

    def params(self):
        return {"command": f"eval --methods {SELECT_METHODS}", "n_grid": self.N,
                "n_select": self.P, "scenes_per_call": self.SCENES,
                "n_snapshots": self.SNAPSHOTS, "toeplitz_average": True,
                "nnc_rows": self.ROWS, "dnn": "desk flags, "
                f"{self.SETUP_EPOCHS} epochs on the nnc rows"}

    def base(self, seed, **kw):
        return experiment(self.N, seed, n_snapshots=self.SNAPSHOTS, toeplitz_average=True, **kw)

    def setup(self, d):
        data = d / "data"
        self.train_csv = data / "train.csv"
        self.model = d / "fit" / "model.bin"
        self.run_cli(["gen-data", write_json(d / "data.json", self.base(
            self.seed, n_train_per_look=self.ROWS)), "--part", "train", "--out-dir", str(data)])
        self.run_cli(["train", str(self.train_csv), *DESK_TRAIN_FLAGS,
                      "--epochs", str(self.SETUP_EPOCHS), "--patience", str(self.SETUP_EPOCHS),
                      "--seed", "1", "--out-dir", str(self.model.parent)])
        return {"train.csv": sha256(self.train_csv), "model.bin": sha256(self.model)}

    def argv(self, i, d):
        cfg = self.base(call_seed(self.seed, i), n_test_per_look=self.SCENES)
        return ["eval", write_json(d / "select.json", cfg), "--model", f"dnn={self.model}",
                "--train-dataset", str(self.train_csv), "--methods", SELECT_METHODS]

    def check(self, i, out):
        rows = read_rows(out / "report.csv")
        head, body = rows[0], rows[1:]
        if len(body) != self.SCENES:
            return [f"{len(body)} report rows, expected {self.SCENES}"]
        col = {c: k for k, c in enumerate(head)}
        problems = []
        for r in body:
            opt = float(r[col["opt_sinr_db"]])
            for m in self.gaps:
                db = float(r[col[f"{m}_sinr_db"]])
                if db > opt + DB_TIE:
                    problems.append(f"{r[0]}: {m} beats the optimum")
                self.gaps[m].append(opt - db)
                self.matches[m] += r[col[f"{m}_mask_bits"]] == r[col["opt_mask_bits"]]
        return problems

    def expected_counts(self):
        starts, steps = self.N, self.P - 1
        omega_rows = starts * sum(self.N - 1 - k for k in range(steps))
        return {"enumeration.enumerate_best.calls": self.SCENES,
                "enumeration.enumerate_worst.calls": self.SCENES,
                "sbsa.sbsa_select.calls": self.SCENES,
                "sbsa.omega_batch.rows": self.SCENES * omega_rows,
                "nnc.rows_scanned": self.SCENES * self.ROWS}

    def quality(self):
        n = len(self.gaps["sbsa"])
        if not n:
            return {}
        return {"sbsa_gap_db": (float(np.mean(self.gaps["sbsa"])), "dB", "lower"),
                "dnn_gap_db": (float(np.mean(self.gaps["dnn"])), "dB", "lower"),
                "nnc_gap_db": (float(np.mean(self.gaps["nnc"])), "dB", "lower"),
                "sbsa_exact_match": (self.matches["sbsa"] / n, "fraction", "higher")}


class Sweep(Workload):
    """fig7 overlap-vs-SINR sweep, N=16, P=6, jittered 4-interferer scenes."""

    name = "sweep"
    output = "sweep.csv"
    N, P = 16, 6
    NOMINAL_DOAS = (154.0, 55.0, 117.0, 50.0)

    def params(self):
        return {"command": "fig7", "n_grid": self.N, "n_select": self.P,
                "interferers": "4 at (154, 55, 117, 50) deg + N(0, 0.5^2), INR U(10, 20) dB"}

    def scene(self, i):
        rng = np.random.default_rng((self.seed, i + 1))
        doas = [float(np.clip(d + rng.normal(0.0, 0.5), 0.5, 179.5)) for d in self.NOMINAL_DOAS]
        inrs = [float(v) for v in rng.uniform(10.0, 20.0, size=len(doas))]
        return {"desired_doa_deg": 60.0, "snr_db": 0.0, "interferer_doas_deg": doas,
                "inr_db": inrs, "noise_power": 1.0}

    def argv(self, i, d):
        return ["fig7", write_json(d / "scene.json", self.scene(i)),
                "--n-grid", str(self.N), "--n-select", str(self.P)]

    def check(self, i, out):
        rows = read_rows(out / "sweep.csv")[1:]
        count = math.comb(self.N, self.P)
        if len(rows) != count:
            return [f"{len(rows)} sweep rows, expected C(N,P) = {count}"]
        omegas = np.array([float(r[2]) for r in rows])
        problems = []
        if np.any(np.diff(omegas) < 0):
            problems.append("omegas are not non-decreasing")
        if sorted(int(r[1]) for r in rows) != list(range(count)):
            problems.append("rank ids are not a permutation of all subsets")
        pkg = self.pkg
        best = pkg.enumeration.enumerate_best(
            pkg.scene.ArrayGeometry(self.N), pkg.scene.scenario_from_dict(self.scene(i)), self.P)
        if abs(max(float(r[3]) for r in rows) - best.sinr.db) > DB_TIE:
            problems.append("best sweep SINR differs from enumerate_best")
        return problems

    def expected_counts(self):
        count = math.comb(self.N, self.P)
        return {"enumeration.enumerate_all_ranked.calls": 1,
                "sbsa.omega_batch.rows": count,
                "beamformer.subset_sinr_batch.subsets": count,
                "enumeration.subset_unrank.calls": count}


WORKLOADS = {w.name: w for w in (Train, Select, Sweep)}
