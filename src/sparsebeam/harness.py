"""End-to-end experiment pipeline: scenario draws, datasets, evaluation.

A single ExperimentConfig pins every free choice (grid, counts, power ranges,
seeds), and all randomness flows through named np.random streams derived from
(config seed, purpose code, look index), so datasets and reports regenerate
byte-identically. Evaluation lets each selector pick for all scenes, then
scores each scene's optimum, picks and random draws in one batch with the
enumeration oracle's subset scorer (score_methods), so a method picking the
optimum reports its value to the last digit; the audit fails a method only
when it beats the optimum by more than the shared relative tie band, since
distinct subsets (mirrors, translations) tie it only up to rounding.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import beamformer, enumeration, mlp, sbsa, snapshots
from .beamformer import REL_TIE_TOL, Sinr, mask_bits, mask_from_indices, write_csv
from .scene import (ArrayGeometry, Scenario, SourceSpec, check_real, correlation_matrices,
                    db_power)

# purpose codes for derived rng streams, so no two phases share a stream
_STREAM_TRAIN, _STREAM_TEST, _STREAM_RANDOM_BASELINE = 0, 1, 2
_PART_STREAM = {"train": _STREAM_TRAIN, "test": _STREAM_TEST}

SELECTION_METHODS = ("sbsa", "nnc", "compact_ula", "sparse_ula", "worst_case")
# every scenario draw builds the interferer angle grid, so its size is bounded;
# an SBSA label's first step holds N(N-1) candidates of 10 N bytes (160 MiB at
# MAX_GRID), and one scene's complex (T, N) snapshots are 64 MiB at the cap
MAX_INTERFERER_ANGLES, MAX_GRID, MAX_SNAPSHOT_CELLS = 1 << 20, 256, 1 << 22


def _check_int(name: str, value, low: int) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment run depends on, JSON-serializable.

    Counts are per look direction. n_snapshots None means exact correlation
    matrices; an integer switches features to finite-sample estimates
    (Toeplitz-averaged when toeplitz_average is set). label_source picks the
    default dataset labeler: "enumeration" (exhaustive optimum) or "sbsa".
    """

    n_grid: int = 12
    n_select: int = 6
    look_doas_deg: tuple[float, ...] = (15.0, 30.0, 45.0, 60.0, 75.0, 90.0)
    n_train_per_look: int = 30000
    n_test_per_look: int = 900
    snr_db: float = 0.0
    inr_db_range: tuple[float, float] = (10.0, 20.0)
    n_interferers_range: tuple[int, int] = (1, 4)
    interferer_grid_deg: tuple[float, float, float] = (10.0, 170.0, 1.0)
    noise_power: float = 1.0
    doa_variance_deg2: float = 0.25
    n_snapshots: int | None = None
    toeplitz_average: bool = True
    label_source: str = "enumeration"
    seed: int = 0

    def __post_init__(self):
        for name, low in (("n_grid", 2), ("n_select", 1), ("n_train_per_look", 1),
                          ("n_test_per_look", 1), ("seed", 0)):
            _check_int(name, getattr(self, name), low)
        if self.n_grid > MAX_GRID:
            raise ValueError(f"n_grid must be <= {MAX_GRID}, got {self.n_grid}")
        if self.n_snapshots is not None:
            _check_int("n_snapshots", self.n_snapshots, 1)
            if self.n_snapshots * self.n_grid > MAX_SNAPSHOT_CELLS:
                raise ValueError(f"n_snapshots x n_grid exceeds {MAX_SNAPSHOT_CELLS} cells")
        for count in self.n_interferers_range:
            _check_int("n_interferers_range", count, 0)
        for name in ("snr_db", "noise_power", "doa_variance_deg2"):
            check_real(name, getattr(self, name))
        for name in ("look_doas_deg", "inr_db_range", "interferer_grid_deg"):
            for value in getattr(self, name):
                check_real(name, value)
        if not isinstance(self.toeplitz_average, bool):
            raise ValueError(f"toeplitz_average must be a boolean, got {self.toeplitz_average!r}")
        if not self.n_select <= self.n_grid:
            raise ValueError("need 1 <= n_select <= n_grid")
        if not self.look_doas_deg:
            raise ValueError("at least one look direction is required")
        if any(not 0.0 < d < 180.0 for d in self.look_doas_deg):
            raise ValueError("look directions must lie strictly inside (0, 180)")
        lo, hi = self.n_interferers_range
        if not lo <= hi:
            raise ValueError("bad n_interferers_range")
        if self.inr_db_range[0] > self.inr_db_range[1]:
            raise ValueError("bad inr_db_range")
        start, stop, step = self.interferer_grid_deg
        if step <= 0 or not 0.0 < start <= stop < 180.0:
            raise ValueError("bad interferer_grid_deg")
        if (stop - start) / step >= MAX_INTERFERER_ANGLES:
            raise ValueError(f"interferer_grid_deg spans more than {MAX_INTERFERER_ANGLES} angles")
        if hi > self.interferer_grid(exclude=None).size - 1:
            raise ValueError("n_interferers_range exceeds the interferer grid")
        if self.doa_variance_deg2 < 0:
            raise ValueError("doa_variance_deg2 must be >= 0")
        if not self.noise_power > 0:
            raise ValueError("noise_power must be positive")
        for db in (self.snr_db, *self.inr_db_range):
            if not 0.0 < db_power(self.noise_power, db) < math.inf:
                raise ValueError(f"power of {db} dB overflows or underflows a float")
        if self.label_source not in ("enumeration", "sbsa"):
            raise ValueError(f"label_source must be enumeration or sbsa: {self.label_source!r}")

    @property
    def geometry(self) -> ArrayGeometry:
        return ArrayGeometry(self.n_grid)

    def interferer_grid(self, exclude: float | None) -> np.ndarray:
        """Candidate interferer angles; `exclude` removes the look direction."""
        start, stop, step = self.interferer_grid_deg
        grid = np.arange(start, stop + 0.5 * step, step)
        if exclude is not None:
            grid = grid[np.abs(grid - exclude) > 1e-9]
        return grid


def config_to_dict(cfg: ExperimentConfig) -> dict:
    out = {}
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        out[f.name] = list(v) if isinstance(v, tuple) else v
    return out


def config_from_dict(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ValueError("an experiment config must be a JSON object")
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(doc)
    for key in ("look_doas_deg", "inr_db_range", "n_interferers_range", "interferer_grid_deg"):
        if key in kwargs:
            if not isinstance(kwargs[key], list):
                raise ValueError(f"{key} must be a list")
            kwargs[key] = tuple(kwargs[key])
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    """config_from_dict of a JSON file; a ValueError names the file and that
    it was read as an experiment config."""
    try:
        with open(path) as fh:
            return config_from_dict(json.load(fh))
    except ValueError as exc:
        raise ValueError(f"{path}: experiment config: {exc}") from None


def json_sha256(doc) -> str:
    """sha256 of a JSON document in canonical form (sorted keys, no spaces)."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def config_hash(cfg: ExperimentConfig) -> str:
    return json_sha256(config_to_dict(cfg))


# --- scenario drawing -------------------------------------------------------


def draw_scenario(cfg: ExperimentConfig, look_doa_deg: float, rng) -> Scenario:
    """One random interference environment around a look direction.

    Fixed draw order (interferer count, angles, per-interferer INR) so a given
    rng state pins the scenario. Angles come from the configured grid without
    replacement, never colliding with the look direction; the desired source
    sits exactly at the look direction at the configured SNR.
    """
    lo, hi = cfg.n_interferers_range
    l = int(rng.integers(lo, hi + 1))
    grid = cfg.interferer_grid(exclude=look_doa_deg)
    doas = np.sort(rng.choice(grid, size=l, replace=False)) if l else np.empty(0)
    inrs = rng.uniform(*cfg.inr_db_range, size=l)
    desired = SourceSpec(
        doa_deg=float(look_doa_deg),
        power=cfg.noise_power * 10.0 ** (cfg.snr_db / 10.0),
    )
    interferers = tuple(
        SourceSpec(doa_deg=float(d), power=cfg.noise_power * 10.0 ** (float(i) / 10.0))
        for d, i in zip(doas, inrs)
    )
    return Scenario(desired=desired, interferers=interferers, noise_power=cfg.noise_power)


def _perturbed(nominal: Scenario, pert, rng) -> Scenario:
    # clamping makes an angle collision possible in principle; redraw if so
    for _ in range(100):
        seed = int(rng.integers(0, 2**63))
        try:
            return snapshots.perturb_scenario(nominal, pert, seed=seed)
        except ValueError:
            continue
    raise ValueError("doa_variance_deg2 too large to draw a collision-free perturbed scenario")


@dataclass
class ScenarioRecord:
    """One drawn environment with its features and supervised label."""

    scenario_id: str
    look_doa_deg: float
    scenario: Scenario
    features: np.ndarray
    label_mask: np.ndarray
    label_sinr: Sinr


def _features_for(cfg: ExperimentConfig, geom, scn, rng) -> np.ndarray:
    # the seed is drawn even on the exact path, so configs differing only in
    # n_snapshots walk identical scenario sequences (snapshot robustness runs
    # pair the two streams record by record)
    seed = int(rng.integers(0, 2**63))
    if cfg.n_snapshots is None:
        _, _, r = correlation_matrices(geom, scn)
    else:
        x = snapshots.simulate_snapshots(geom, scn, cfg.n_snapshots, seed=seed)
        r = snapshots.sample_covariance(x)
        if cfg.toeplitz_average:
            r = snapshots.toeplitz_average(r)
    return mlp.extract_features(r)


def scenario_stream(cfg: ExperimentConfig, part: str, label_source: str | None = None):
    """Yield ScenarioRecord for every (look, index) pair of a dataset part.

    Per record: draw a nominal environment, jitter every DOA by the configured
    Gaussian, compute lag features (exact or finite-sample per the config),
    and label with the best configuration of the jittered environment, found
    by full enumeration or by the greedy spectral-overlap search.
    """
    if part not in _PART_STREAM:
        raise ValueError(f"part must be one of {sorted(_PART_STREAM)}")
    if label_source is not None:
        cfg = replace(cfg, label_source=label_source)
    geom = cfg.geometry
    pert = snapshots.PerturbationSpec(cfg.doa_variance_deg2)
    n_items = cfg.n_train_per_look if part == "train" else cfg.n_test_per_look
    for look_idx, look in enumerate(cfg.look_doas_deg):
        rng = np.random.default_rng((cfg.seed, _PART_STREAM[part], look_idx))
        for i in range(n_items):
            nominal = draw_scenario(cfg, look, rng)
            scn = _perturbed(nominal, pert, rng) if cfg.doa_variance_deg2 > 0 else nominal
            feats = _features_for(cfg, geom, scn, rng)
            if cfg.label_source == "enumeration":
                best = enumeration.enumerate_best(geom, scn, cfg.n_select)
                label, label_sinr = best.mask, best.sinr
            else:
                res = sbsa.sbsa_select(geom, scn, cfg.n_select)
                label, label_sinr = res.mask, res.sinr
            yield ScenarioRecord(
                scenario_id=f"look{look:g}-L{nominal.n_interferers}-{i:05d}",
                look_doa_deg=float(look),
                scenario=scn,
                features=feats,
                label_mask=label,
                label_sinr=label_sinr,
            )


# --- fixed and random baselines ---------------------------------------------


def compact_ula_mask(n_grid: int, p: int) -> np.ndarray:
    """The first P grid locations: a compact uniform array."""
    return mask_from_indices(range(p), n_grid)


def sparse_ula_mask(n_grid: int, p: int) -> np.ndarray:
    """P locations at uniform stride floor((N-1)/(P-1)), anchored at 0."""
    if p == 1:
        return mask_from_indices([0], n_grid)
    stride = max(1, (n_grid - 1) // (p - 1))
    return mask_from_indices([i * stride for i in range(p)], n_grid)


def check_n_random(n_grid: int, n_draws: int) -> None:
    """One scene's random draws fill at most one enumeration block of cells."""
    limit = enumeration._BLOCK_CELLS // n_grid
    if not 1 <= n_draws <= limit:
        raise ValueError(f"n_random must be in [1, {limit}] on {n_grid} sensors, got {n_draws}")


def random_masks(n_grid: int, p: int, n_draws: int, rng) -> np.ndarray:
    """(n_draws, N) stack of uniformly drawn P-sensor masks, n_draws bounded
    by check_n_random."""
    check_n_random(n_grid, n_draws)
    out = np.zeros((n_draws, n_grid), dtype=int)
    for i in range(n_draws):
        out[i, rng.choice(n_grid, size=p, replace=False)] = 1
    return out


def method_mask(method: str, geom, scn, p: int,
                budget: int = enumeration.DEFAULT_BUDGET) -> np.ndarray:
    """Mask of a built-in method that needs only the scene: sbsa, worst_case,
    compact_ula or sparse_ula. The searches of sbsa and worst_case are
    charged to `budget`."""
    if method == "sbsa":
        return sbsa.sbsa_select(geom, scn, p, budget=budget).mask
    if method == "worst_case":
        return enumeration.enumerate_worst(geom, scn, p, budget=budget).mask
    if method == "compact_ula":
        return compact_ula_mask(geom.n_grid, p)
    if method == "sparse_ula":
        return sparse_ula_mask(geom.n_grid, p)
    raise ValueError(f"unknown method {method!r}")


def score_methods(geom, scn, opt_mask, masks: dict, sid: str) -> tuple[float, dict]:
    """Linear SINR of the optimum and of every method's mask rows, one scene.

    `masks` maps each method to one mask or a stack of mask rows. The
    optimum's mask is stacked first, so the batch has at least two rows and
    every row is scored on one path (numpy scores a lone row through another
    BLAS routine, which can differ in the last digits), in one masks_sinr
    call. Each method's slice must pass the optimality audit. Returns the
    optimum's value and method -> its rows' values.
    """
    blocks = [np.atleast_2d(m) for m in masks.values()]
    vals = beamformer.masks_sinr(geom, scn, np.vstack([opt_mask, *blocks]))
    opt = float(vals[0])
    out = dict(zip(masks, np.split(vals[1:], np.cumsum([len(b) for b in blocks])[:-1])))
    for method, method_vals in out.items():
        _audit(method_vals, opt, sid, method)
    return opt, out


@dataclass
class RobustnessResult:
    """Model selections on exact vs finite-sample features, same scenarios."""

    diffs_db: np.ndarray
    mask_match_rate: float

    @property
    def mean_abs_diff_db(self) -> float:
        return float(np.mean(np.abs(self.diffs_db)))


def snapshot_robustness(cfg: ExperimentConfig, model, part: str = "test") -> RobustnessResult:
    """How much finite-sample features move a trained selector's selections.

    `model` is a list of networks, as load_model returns. Runs the identical
    scenario sequence twice, feeding the networks exact lag features and
    n_snapshots-estimate features, and scores both selected configurations
    on the exact matrices. diffs_db[i] is exact-feature SINR minus
    estimate-feature SINR for scenario i (sign kept; positive means the
    estimate cost performance).
    """
    if cfg.n_snapshots is None:
        raise ValueError("config must set n_snapshots for a robustness run")
    cfg_exact = replace(cfg, n_snapshots=None)
    geom = cfg.geometry
    p = cfg.n_select
    diffs = []
    n_match = 0
    stream_a = scenario_stream(cfg_exact, part)
    stream_b = scenario_stream(cfg, part)
    for rec_a, rec_b in zip(stream_a, stream_b):
        if rec_a.scenario != rec_b.scenario:
            raise RuntimeError("scenario streams diverged; config seeds disagree")
        mask_a = mlp.predict_selection(model, rec_a.features, p)
        mask_b = mlp.predict_selection(model, rec_b.features, p)
        if np.array_equal(mask_a, mask_b):
            n_match += 1
            diffs.append(0.0)
            continue
        vals = beamformer.masks_sinr(geom, rec_a.scenario, np.stack([mask_a, mask_b]))
        diffs.append(float(beamformer.sinr_db(vals[0]) - beamformer.sinr_db(vals[1])))
    diffs = np.array(diffs)
    return RobustnessResult(diffs_db=diffs, mask_match_rate=n_match / max(len(diffs), 1))


# --- evaluation ---------------------------------------------------------------


@dataclass
class MethodSummary:
    mean_sinr_db: float
    mean_gap_db: float
    exact_match_rate: float | None


@dataclass
class EvaluationResult:
    method_names: list[str]
    rows: list[dict]
    summaries: dict[str, MethodSummary]
    # seconds: the whole run, drawing and labelling its scenes, and each
    # method's selections
    runtime_s: dict = field(default_factory=dict)


def evaluate(cfg: ExperimentConfig, methods, models=None, nnc_index=None,
             part: str = "test", n_random: int = 100) -> EvaluationResult:
    """Score selection methods against the enumeration optimum per scenario.

    `methods` mixes built-in names (sbsa, nnc, compact_ula, sparse_ula,
    random, worst_case) with keys of `models` (each a list of trained
    networks, as load_model returns, whose mean scores are decoded top-P).
    Names must be distinct, at least one, no model taking a built-in's name;
    n_random is checked before any scene is drawn. After the scenes are
    drawn and labelled, every method but random picks for all of them (each
    model in one predict_selection call). Then each scene draws its random
    masks from its own stream (never more than one scene's draws held) and
    score_methods scores them with the optimum's mask and all picks, stacked
    in `methods` order; beating the optimum beyond the tie band is a hard
    error. Summaries are means over the rows (random: of its draws' mean
    dB). runtime_s holds the run's seconds ("evaluate"), those of drawing
    and labelling its scenes ("scenes") and each method's selections
    ("select", method -> seconds).
    """
    models = models or {}
    if not methods:
        raise ValueError("at least one method is required")
    builtin = SELECTION_METHODS + ("random",)
    for m in methods:
        if m == "opt":
            raise ValueError("method name 'opt' is taken by the optimum's report columns")
        if methods.count(m) > 1:
            raise ValueError(f"method {m!r} is listed more than once")
        if m in models and m in builtin:
            raise ValueError(f"model name {m!r} is taken by a built-in method")
        if m in models:
            continue
        if m == "nnc" and nnc_index is None:
            raise ValueError("method 'nnc' requires an index")
        if m not in builtin:
            raise ValueError(f"unknown method {m!r}")
    if "random" in methods:
        check_n_random(cfg.n_grid, n_random)

    geom = cfg.geometry
    p = cfg.n_select
    select_s = dict.fromkeys(methods, 0.0)
    t0 = time.perf_counter()
    records = list(scenario_stream(cfg, part, label_source="enumeration"))
    t_scenes = time.perf_counter() - t0
    # select pass: every method but random picks one mask a scene, for all scenes
    features = np.array([rec.features for rec in records])
    picks = {}
    for m in methods:
        t = time.perf_counter()
        if m in models:
            picks[m] = mlp.predict_selection(models[m], features, p)
        elif m == "nnc":
            picks[m] = [np.asarray(nnc_index.predict(x), dtype=int) for x in features]
        elif m != "random":
            picks[m] = [method_mask(m, geom, rec.scenario, p) for rec in records]
        select_s[m] = time.perf_counter() - t
    # score pass: one scene's random draws, then all of its masks in one batch
    rows = []
    for i, rec in enumerate(records):
        if "random" in methods:
            t = time.perf_counter()
            rng = np.random.default_rng((cfg.seed, _STREAM_RANDOM_BASELINE, i))
            picks["random"] = random_masks(cfg.n_grid, p, n_random, rng)
            select_s["random"] += time.perf_counter() - t
        masks = {m: picks[m] if m == "random" else picks[m][i] for m in methods}
        opt, vals = score_methods(geom, rec.scenario, rec.label_mask, masks, rec.scenario_id)
        row = {
            "scenario_id": rec.scenario_id,
            "look_doa_deg": rec.look_doa_deg,
            "n_interferers": rec.scenario.n_interferers,
            "opt_mask_bits": mask_bits(rec.label_mask),
            "opt_sinr_db": float(beamformer.sinr_db(opt)),
        }
        for m in methods:
            row[f"{m}_mask_bits"] = "" if m == "random" else mask_bits(masks[m])
            row[f"{m}_sinr_db"] = float(np.mean(beamformer.sinr_db(vals[m])))
        rows.append(row)
    summaries = {m: MethodSummary(
        mean_sinr_db=float(np.mean([row[f"{m}_sinr_db"] for row in rows])),
        mean_gap_db=float(np.mean([row["opt_sinr_db"] - row[f"{m}_sinr_db"] for row in rows])),
        exact_match_rate=None if m == "random" else
        sum(row[f"{m}_mask_bits"] == row["opt_mask_bits"] for row in rows) / len(rows),
    ) for m in methods}
    return EvaluationResult(
        method_names=list(methods),
        rows=rows,
        summaries=summaries,
        runtime_s={"evaluate": time.perf_counter() - t0, "scenes": t_scenes,
                   "select": select_s},
    )


def _audit(vals: np.ndarray, opt_linear: float, sid: str, method: str) -> None:
    # distinct subsets can tie the optimum exactly (translating a subset, or
    # mirroring it, leaves its SINR unchanged on a uniform grid), and those
    # ties land within float jitter of each other; only a win outside the
    # shared tie band is a real inconsistency
    if np.any(vals > opt_linear * (1.0 + REL_TIE_TOL)):
        raise RuntimeError(
            f"optimality audit failed on {sid}: method {method} beat the enumerated optimum"
        )


def write_report_csv(path, result: EvaluationResult) -> None:
    """Per-scenario report; float cells use repr so reruns match byte-for-byte."""
    cols = ["scenario_id", "look_doa_deg", "n_interferers", "opt_mask_bits", "opt_sinr_db"]
    for m in result.method_names:
        cols += [f"{m}_mask_bits", f"{m}_sinr_db"]
    write_csv(path, cols, ([row[c] for c in cols] for row in result.rows))


# --- objective-vs-SINR sweep --------------------------------------------------


@dataclass
class OverlapSweep:
    """All configurations of one scenario ordered by ascending overlap."""

    omegas: np.ndarray
    sinr_db: np.ndarray
    rank_ids: np.ndarray
    lower_half_mean_db: float
    upper_half_mean_db: float
    best_position: int


def overlap_sweep(geom, scn, p: int, budget: int = enumeration.DEFAULT_BUDGET) -> OverlapSweep:
    """Exhaustive (overlap, SINR) sweep used for trend diagnostics.

    Sorts all C(N,P) configurations by the spectral-overlap objective and
    compares the mean SINR of the low-overlap half against the high-overlap
    half; a negative trend (lower overlap, higher SINR) is what justifies
    greedy overlap minimization.
    """
    ranking = enumeration.enumerate_all_ranked(geom, scn, p, with_objective=True, budget=budget)
    db = beamformer.sinr_db(ranking.sinr)
    half = len(db) // 2
    return OverlapSweep(
        omegas=ranking.omega,
        sinr_db=db,
        rank_ids=ranking.rank_ids,
        lower_half_mean_db=float(np.mean(db[:half])),
        upper_half_mean_db=float(np.mean(db[half:])),
        best_position=int(np.argmax(ranking.sinr)),
    )


def write_sweep_csv(path, sweep: OverlapSweep) -> None:
    write_csv(path, ["position", "rank_id", "omega", "sinr_db"], zip(
        range(len(sweep.omegas)), sweep.rank_ids.tolist(), sweep.omegas.tolist(),
        sweep.sinr_db.tolist()))
