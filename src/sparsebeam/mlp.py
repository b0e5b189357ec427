"""Feedforward selection network, trained from correlation-lag features.

Everything lives on numpy: Xavier-uniform init, ReLU hidden layers with
inverted dropout in training, a linear output head trained under mean squared
error against 0/1 selection masks, and ADAM with bias correction. The network
scores each grid location; a P-sensor configuration is read off as the
top-P scores. Feature standardization (per-feature mean/scale learned on the
training split) is stored inside the model so inference takes raw features.

A trained selector is a list of identically shaped networks, independent
restarts that disagree mostly near a decision boundary, so predict_selection's
mean of their scores recovers a few points of exact-match rate over one net.

Training computes in float32 (COMPUTE_DTYPE) in buffers allocated once per
fit; checkpoints are scored, stored and evaluated in float64, so model files
and inference are float64.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import re
import struct
import time
from dataclasses import dataclass, field, replace

import numpy as np

_MAGIC = b"MLPB"
_MAGIC_ENSEMBLE = b"MLPE"
_FORMAT = 1
_SCALE_FLOOR = 1e-12
_STRATUM_RE = re.compile(r"-L(\d+)-")

DEFAULT_HIDDEN = (450, 250, 80)
# training arithmetic; weights are stored and evaluated in float64
COMPUTE_DTYPE = np.float32


class TrainingDivergedError(RuntimeError):
    pass


def extract_features(r) -> np.ndarray:
    """Real feature vector of length 2N-1 from correlation lags.

    Accepts either the (N, N) correlation matrix (first row is used) or the
    length-N lag vector directly. Layout: real parts of lags 0..N-1, then
    imaginary parts of lags 1..N-1 (lag 0 is real for any Hermitian R).
    """
    r = np.asarray(r)
    lags = r[0, :] if r.ndim == 2 else r
    return np.concatenate([lags.real, lags[1:].imag])


@dataclass
class MlpModel:
    layer_sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    feature_mean: np.ndarray | None = None
    feature_scale: np.ndarray | None = None
    # divide each example by its zero-lag power before standardizing; makes
    # the net see interference shape rather than absolute level
    normalize_power: bool = False

    @property
    def n_layers(self) -> int:
        return len(self.weights)


def init_model(layer_sizes, seed: int = 0) -> MlpModel:
    """Xavier-uniform weights (limit sqrt(6/(fan_in+fan_out))), zero biases.

    Weights are drawn layer by layer from np.random.default_rng(seed), so the
    full parameter set is pinned by (layer_sizes, seed).
    """
    sizes = [int(s) for s in layer_sizes]
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError("layer_sizes needs >= 2 positive entries")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(layer_sizes=sizes, weights=weights, biases=biases)


def _normalize_power(x: np.ndarray) -> np.ndarray:
    lead = x[:, :1]
    denom = np.where(np.abs(lead) < _SCALE_FLOOR, 1.0, lead)
    return x / denom


def _standardize(model: MlpModel, x: np.ndarray) -> np.ndarray:
    if model.normalize_power:
        x = _normalize_power(x)
    if model.feature_mean is None:
        return x
    return (x - model.feature_mean) / model.feature_scale


def forward(net: MlpModel, x) -> np.ndarray:
    """One network's scores for a batch of raw feature vectors, shape
    (B, n_out); a 1-D input gives one row. Computes in float64."""
    a = _standardize(net, np.atleast_2d(np.asarray(x, dtype=float)))
    last = net.n_layers - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = a @ w + b
        if i < last:
            a = np.maximum(a, 0.0)
    return a[0] if np.asarray(x).ndim == 1 else a


def _param_views(flat: np.ndarray, sizes) -> tuple[list, list]:
    """Per-layer (weights, biases) views into one flat buffer laid out as
    W_0 (row-major), b_0, W_1, b_1, ..."""
    weights, biases, lo = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        hi = lo + fan_in * fan_out
        weights.append(flat[lo:hi].reshape(fan_in, fan_out))
        biases.append(flat[hi:hi + fan_out])
        lo = hi + fan_out
    return weights, biases


@dataclass
class AdamState:
    """First/second moment accumulators plus the shared step counter."""

    m_w: list[np.ndarray]
    v_w: list[np.ndarray]
    m_b: list[np.ndarray]
    v_b: list[np.ndarray]
    t: int = 0


def adam_init(model: MlpModel) -> AdamState:
    return AdamState(
        m_w=[np.zeros_like(w) for w in model.weights],
        v_w=[np.zeros_like(w) for w in model.weights],
        m_b=[np.zeros_like(b) for b in model.biases],
        v_b=[np.zeros_like(b) for b in model.biases],
    )


def adam_step(model: MlpModel, grads, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One in-place ADAM update with bias-corrected moment estimates.

    Each array is updated in its own dtype, through one scratch buffer shared
    by all of them. The bias corrections are folded into the step and eps:
    lr * (m / c1) / (sqrt(v / c2) + eps) equals
    (lr * sqrt(c2) / c1) * m / (sqrt(v) + eps * sqrt(c2)).
    """
    state.t += 1
    c1 = 1.0 - beta1 ** state.t
    root_c2 = math.sqrt(1.0 - beta2 ** state.t)
    # Python floats, so float32 buffers are updated in float32 arithmetic
    step, eps_hat = float(lr * root_c2 / c1), float(eps * root_c2)
    params = model.weights + model.biases
    scratch = np.empty(max(p.size for p in params), params[0].dtype)
    for p, g, m, v in zip(params, grads["w"] + grads["b"],
                          state.m_w + state.m_b, state.v_w + state.v_b):
        tmp = scratch[:p.size].reshape(p.shape)
        m *= beta1
        np.multiply(g, 1.0 - beta1, out=tmp)
        m += tmp
        v *= beta2
        np.multiply(g, 1.0 - beta2, out=tmp)
        tmp *= g
        v += tmp
        np.sqrt(v, out=tmp)
        tmp += eps_hat
        np.divide(m, tmp, out=tmp)
        tmp *= step
        p -= tmp


class TrainWorkspace:
    """Every buffer a mse_loss_and_grads call writes, allocated once for a fit.

    Per layer there is a gradient for the weights and the biases, an
    activation buffer (which backprop overwrites with that layer's error) and,
    per hidden layer, a scaled dropout mask, all `batch_size` rows tall;
    shorter batches use the leading rows.
    """

    def __init__(self, layer_sizes, batch_size: int, dtype=COMPUTE_DTYPE):
        sizes = [int(s) for s in layer_sizes]
        rows = int(batch_size)
        dtype = np.dtype(dtype)
        pairs = list(zip(sizes[:-1], sizes[1:]))
        self.grads = {"w": [np.empty((a, b), dtype) for a, b in pairs],
                      "b": [np.empty(b, dtype) for _, b in pairs]}
        self.acts = [np.empty((rows, s), dtype) for s in sizes[1:]]
        self.masks = [np.empty((rows, s), dtype) for s in sizes[1:-1]]
        width = max(sizes[1:-1], default=0)
        # dropout draws stay float64 so the rng stream matches rng.random(shape)
        self._draws = np.empty(rows * width)
        self._back = np.empty(rows * width, dtype)

    def draws(self, shape) -> np.ndarray:
        return self._draws[:shape[0] * shape[1]].reshape(shape)

    def back(self, shape) -> np.ndarray:
        return self._back[:shape[0] * shape[1]].reshape(shape)


def mse_loss_and_grads(model: MlpModel, x, y, *, keep_prob: float = 1.0,
                       rng=None, dropout_masks=None,
                       workspace: TrainWorkspace | None = None):
    """Loss (mean square error over batch x outputs) and parameter gradients.

    Computes in the dtype of model's weights, in the buffers of `workspace`
    (one is built for the call when none is given). Returns (loss, grads)
    where grads = {"w": [...], "b": [...]} aligned with model.weights /
    model.biases; they are the workspace's buffers, valid until its next
    call.
    """
    dtype = model.weights[0].dtype
    x = np.asarray(_standardize(model, np.atleast_2d(np.asarray(x))), dtype=dtype)
    y = np.atleast_2d(np.asarray(y, dtype=dtype))
    rows = x.shape[0]
    if y.shape != (rows, model.layer_sizes[-1]):
        raise ValueError(f"targets shape {y.shape} does not match output "
                         f"{(rows, model.layer_sizes[-1])}")
    if workspace is None:
        workspace = TrainWorkspace(model.layer_sizes, rows, dtype)
    acts = [buf[:rows] for buf in workspace.acts]
    last = model.n_layers - 1
    masks = [None] * last
    a = x
    for i, (w, b, out) in enumerate(zip(model.weights, model.biases, acts)):
        np.matmul(a, w, out=out)
        out += b
        if i < last:
            np.maximum(out, 0.0, out=out)
            if keep_prob < 1.0 and (dropout_masks is not None or rng is not None):
                mask = masks[i] = workspace.masks[i][:rows]
                if dropout_masks is not None:
                    mask[...] = dropout_masks[i]
                else:
                    np.less(rng.random(out=workspace.draws(mask.shape)), keep_prob,
                            out=mask)
                mask *= 1.0 / keep_prob
                out *= mask
        a = out

    delta = acts[last]
    delta -= y
    flat = delta.reshape(-1)
    loss = float(np.dot(flat, flat)) / flat.size
    delta *= 2.0 / flat.size
    grad_w, grad_b = workspace.grads["w"], workspace.grads["b"]
    for i in range(last, -1, -1):
        a_in = x if i == 0 else acts[i - 1]
        np.matmul(a_in.T, delta, out=grad_w[i])
        np.sum(delta, axis=0, out=grad_b[i])
        if i == 0:
            break
        back = workspace.back(a_in.shape)
        np.matmul(delta, model.weights[i].T, out=back)
        if masks[i - 1] is not None:
            back *= masks[i - 1]
        # a hidden output is positive exactly where its ReLU passed and its
        # unit was kept, so it gates the error in place of the pre-activation
        np.greater(a_in, 0.0, out=a_in)
        a_in *= back
        delta = a_in
    return loss, workspace.grads


@dataclass(frozen=True)
class TrainConfig:
    hidden_sizes: tuple[int, ...] = DEFAULT_HIDDEN
    learning_rate: float = 1e-3
    keep_prob: float = 0.9
    batch_size: int = 128
    max_epochs: int = 200
    patience: int = 20
    validation_fraction: float = 0.1
    standardize_features: bool = True
    normalize_power: bool = True
    rng_seed: int = 0
    # split_seed pins the train/validation split independently of rng_seed,
    # so metrics stay comparable when only the init/shuffle seed varies
    split_seed: int | None = None
    # checkpoint selection: "loss" keeps the lowest validation MSE epoch,
    # "selection" keeps the epoch with the highest exact top-P match rate
    monitor: str = "loss"

    def __post_init__(self):
        if not 0.0 < self.keep_prob <= 1.0:
            raise ValueError("keep_prob must be in (0, 1]")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in [0, 1)")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 0:
            raise ValueError("batch_size/max_epochs must be >= 1, patience >= 0")
        if self.monitor not in ("loss", "selection"):
            raise ValueError("monitor must be 'loss' or 'selection'")


@dataclass
class TrainResult:
    model: MlpModel
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False
    # wall seconds of the whole fit (telemetry)
    fit_s: float = 0.0


def _stratum_keys(scenario_ids):
    keys = []
    for sid in scenario_ids:
        m = _STRATUM_RE.search(sid)
        keys.append(m.group(1) if m else "")
    return keys


def split_train_validation(n: int, validation_fraction: float, rng,
                           scenario_ids=None):
    """Index split, stratified by the interferer-count tag in scenario ids.

    Ids shaped like "look60-L3-0017" contribute their L value as the stratum;
    ids without the tag fall into one shared stratum. Returns (train_idx,
    val_idx) as sorted integer arrays.
    """
    if validation_fraction == 0.0 or n < 2:
        return np.arange(n), np.arange(0)
    strata = {}
    keys = _stratum_keys(scenario_ids) if scenario_ids is not None else [""] * n
    for i, key in enumerate(keys):
        strata.setdefault(key, []).append(i)
    val = []
    for key in sorted(strata):
        idx = np.array(strata[key])
        perm = rng.permutation(len(idx))
        n_val = int(round(len(idx) * validation_fraction))
        n_val = min(n_val, len(idx) - 1)
        val.extend(idx[perm[:n_val]].tolist())
    val_idx = np.array(sorted(val), dtype=int)
    train_idx = np.setdiff1d(np.arange(n), val_idx)
    return train_idx, val_idx


# a diverging fit overflows on its way to the non-finite loss that ends it
# with TrainingDivergedError; numpy's warnings about it would only be noise
@np.errstate(over="ignore", invalid="ignore")
def train(features, labels, cfg: TrainConfig | None = None,
          scenario_ids=None, split=None) -> TrainResult:
    """Fit the selection network; early-stops on validation loss.

    features: (B, 2N-1) raw lag features; labels: (B, N) 0/1 masks. Keeps the
    parameters from the best validation epoch (train loss when there is no
    validation split). Raises TrainingDivergedError on non-finite loss.

    The steps compute in COMPUTE_DTYPE on one flat parameter buffer and one
    TrainWorkspace: the training rows are standardized once in float64 and
    cast, and dropout is drawn in float64 from the same rng as the shuffles.
    Each epoch's parameters are upcast to float64 and scored on the
    validation rows with forward/predict_selection; the returned model is
    float64.

    split is a precomputed (train_idx, val_idx) pair; it must be the
    split_train_validation result for cfg.split_seed, which train_ensemble
    computes once for all its members.
    """
    t0 = time.perf_counter()
    cfg = cfg or TrainConfig()
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("features and labels must be 2-D with matching rows")
    sizes = [x.shape[1], *cfg.hidden_sizes, y.shape[1]]

    rng = np.random.default_rng(cfg.rng_seed)
    if split is None:
        split_rng = rng if cfg.split_seed is None else np.random.default_rng(cfg.split_seed)
        split = split_train_validation(
            x.shape[0], cfg.validation_fraction, split_rng, scenario_ids)
    train_idx, val_idx = split
    x_tr, y_tr = x[train_idx], y[train_idx]
    x_val, y_val = x[val_idx], y[val_idx]

    model = init_model(sizes, seed=cfg.rng_seed)
    model.normalize_power = cfg.normalize_power
    if cfg.standardize_features:
        base = _normalize_power(x_tr) if model.normalize_power else x_tr
        model.feature_mean = base.mean(axis=0)
        model.feature_scale = np.maximum(base.std(axis=0), _SCALE_FLOOR)

    # the steps update the float32 parameters in place, through per-layer views
    params = np.concatenate([a.ravel() for pair in zip(model.weights, model.biases)
                             for a in pair]).astype(COMPUTE_DTYPE)
    live = MlpModel(model.layer_sizes, *_param_views(params, model.layer_sizes))
    adam = adam_init(live)
    workspace = TrainWorkspace(model.layer_sizes, cfg.batch_size)
    x_tr = _standardize(model, x_tr).astype(COMPUTE_DTYPE)
    y_tr = y_tr.astype(COMPUTE_DTYPE)
    x_buf = np.empty((cfg.batch_size, x_tr.shape[1]), COMPUTE_DTYPE)
    y_buf = np.empty((cfg.batch_size, y_tr.shape[1]), COMPUTE_DTYPE)

    result = TrainResult(model=model)
    best = ((np.inf,), None)
    bad_epochs = 0
    n_tr = x_tr.shape[0]
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(n_tr)
        batch_losses = []
        for lo in range(0, n_tr, cfg.batch_size):
            sel = order[lo:lo + cfg.batch_size]
            xb = np.take(x_tr, sel, axis=0, out=x_buf[:len(sel)], mode="clip")
            yb = np.take(y_tr, sel, axis=0, out=y_buf[:len(sel)], mode="clip")
            loss, grads = mse_loss_and_grads(
                live, xb, yb, keep_prob=cfg.keep_prob, rng=rng, workspace=workspace)
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
            adam_step(live, grads, adam, cfg.learning_rate)
            batch_losses.append(loss)
        train_loss = float(np.mean(batch_losses))
        result.train_losses.append(train_loss)

        flat = params.astype(np.float64)
        model.weights, model.biases = _param_views(flat, model.layer_sizes)
        if len(val_idx):
            pred = forward(model, x_val)
            val_loss = float(np.mean((pred - y_val) ** 2))
            result.val_losses.append(val_loss)
            if not np.isfinite(val_loss):
                raise TrainingDivergedError(
                    f"non-finite validation loss at epoch {epoch}")
            if cfg.monitor == "selection":
                p = int(round(float(y_val[0].sum())))
                chosen = predict_selection([model], x_val, p)
                acc = float((chosen == y_val).all(axis=1).mean())
                # exact-match first, validation loss breaks the ties the
                # coarse rate leaves behind
                monitor = (-acc, val_loss)
            else:
                monitor = (val_loss,)
        else:
            monitor = (train_loss,)

        if monitor < best[0]:
            best = (monitor, flat)
            result.best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > cfg.patience:
                result.stopped_early = True
                break

    if best[1] is not None:
        model.weights, model.biases = _param_views(best[1], model.layer_sizes)
    result.fit_s = time.perf_counter() - t0
    return result


def train_ensemble(features, labels, cfg: TrainConfig | None = None,
                   n_members: int = 5, scenario_ids=None) -> list[TrainResult]:
    """Independent restarts, one TrainResult each.

    Member i trains with rng_seed cfg.rng_seed + i; every member shares one
    train/validation split (cfg.split_seed, falling back to cfg.rng_seed) so
    all checkpoints are selected against the same held-out rows.
    """
    if n_members < 1:
        raise ValueError(f"ensemble size must be >= 1, got {n_members}")
    cfg = cfg or TrainConfig()
    split_seed = cfg.split_seed if cfg.split_seed is not None else cfg.rng_seed
    split = split_train_validation(len(features), cfg.validation_fraction,
                                   np.random.default_rng(split_seed), scenario_ids)
    members = []
    for i in range(n_members):
        member_cfg = replace(cfg, rng_seed=cfg.rng_seed + i, split_seed=split_seed)
        members.append(train(features, labels, member_cfg, scenario_ids=scenario_ids,
                             split=split))
    return members


def predict_selection(nets: list[MlpModel], features, p: int) -> np.ndarray:
    """Top-P decode of the networks' mean scores into a 0/1 mask (ties: lower
    index); 2-D input gives one mask per row."""
    x = np.asarray(features, dtype=float)
    single = x.ndim == 1
    scores = np.atleast_2d(np.mean([forward(net, x) for net in nets], axis=0))
    n = scores.shape[1]
    if not 1 <= p <= n:
        raise ValueError(f"P must satisfy 1 <= P <= {n}")
    order = np.argsort(-scores, axis=1, kind="stable")
    masks = np.zeros(scores.shape, dtype=int)
    np.put_along_axis(masks, order[:, :p], 1, axis=1)
    return masks[0] if single else masks


def _write_single(fh, model: MlpModel) -> None:
    flags = (1 if model.feature_mean is not None else 0)
    flags |= (2 if model.normalize_power else 0)
    fh.write(struct.pack("<II", _FORMAT, len(model.layer_sizes)))
    fh.write(struct.pack(f"<{len(model.layer_sizes)}I", *model.layer_sizes))
    fh.write(struct.pack("<B", flags))
    for w, b in zip(model.weights, model.biases):
        fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())
    if model.feature_mean is not None:
        fh.write(np.ascontiguousarray(model.feature_mean, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.feature_scale, dtype="<f8").tobytes())


class _ModelBytes:
    """A model file's bytes, handed out front to back without copying."""

    def __init__(self, data: bytes):
        self._view = memoryview(data)
        self._pos = 0

    def read(self, n: int) -> memoryview:
        """The next n bytes; ValueError when fewer remain."""
        if n > len(self._view) - self._pos:
            raise ValueError("model file truncated")
        self._pos += n
        return self._view[self._pos - n:self._pos]


def _read_single(fh: _ModelBytes) -> MlpModel:
    fmt, n_sizes = struct.unpack("<II", fh.read(8))
    if fmt != _FORMAT:
        raise ValueError(f"unsupported model format {fmt}")
    sizes = list(struct.unpack(f"<{n_sizes}I", fh.read(4 * n_sizes)))
    if len(sizes) < 2 or min(sizes) < 1:
        raise ValueError("implausible layer sizes in model file")
    (flags,) = struct.unpack("<B", fh.read(1))

    def read_array(shape):
        buf = fh.read(8 * math.prod(shape))
        return np.frombuffer(buf, dtype="<f8").reshape(shape).copy()

    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(read_array((fan_in, fan_out)))
        biases.append(read_array((fan_out,)))
    mean = scale = None
    if flags & 1:
        mean = read_array((sizes[0],))
        scale = read_array((sizes[0],))
    return MlpModel(layer_sizes=sizes, weights=weights, biases=biases,
                    feature_mean=mean, feature_scale=scale,
                    normalize_power=bool(flags & 2))


def save_model(path, nets: list[MlpModel]) -> None:
    """Binary weights file plus a JSON sidecar (path + ".json").

    Single-network layout: magic, then format, layer count, layer sizes, a
    preprocessing flag byte (bit 0: standardized, bit 1: power-normalized),
    then float64 little-endian arrays: per layer W (row-major) and b, then
    feature mean and scale when present. Two or more networks use their own
    magic followed by a count and that many single-network blocks.
    """
    lead = nets[0]
    with open(path, "wb") as fh:
        if len(nets) == 1:
            fh.write(_MAGIC)
        else:
            fh.write(_MAGIC_ENSEMBLE)
            fh.write(struct.pack("<I", len(nets)))
        for net in nets:
            _write_single(fh, net)
    n_params = sum(w.size + b.size for w, b in zip(lead.weights, lead.biases))
    sidecar = {
        "format": _FORMAT,
        "layer_sizes": list(lead.layer_sizes),
        "standardized_features": lead.feature_mean is not None,
        "power_normalized": lead.normalize_power,
        "ensemble_members": len(nets),
        "parameters": int(n_params),
    }
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> list[MlpModel]:
    """The networks of a save_model file; a truncated, malformed or mixed-shape
    file is a ValueError. The whole file is read first, so sizes in a corrupt
    header can make a read come up short but never allocate more than it holds."""
    with open(path, "rb") as raw:
        fh = _ModelBytes(raw.read())
    magic = fh.read(4)
    if magic == _MAGIC:
        return [_read_single(fh)]
    if magic != _MAGIC_ENSEMBLE:
        raise ValueError("not a model file")
    (count,) = struct.unpack("<I", fh.read(4))
    if not 1 <= count <= 4096:
        raise ValueError(f"implausible ensemble member count {count}")
    nets = [_read_single(fh) for _ in range(count)]
    if any(net.layer_sizes != nets[0].layer_sizes for net in nets):
        raise ValueError("ensemble members must share layer sizes")
    return nets


def write_dataset_csv(path, records) -> int:
    """Dataset CSV: scenario_id, look_doa_deg, f_0..f_{2N-2}, label_mask_bits.

    `records` is any iterable of harness.ScenarioRecord (a scenario_stream is
    written as it is drawn); returns the number of rows. Floats are written
    with repr so a read/write round trip is byte-stable. A stream that fails
    part-way leaves no file behind.
    """
    records = iter(records)
    first = next(records, None)
    if first is None:
        raise ValueError("refusing to write an empty dataset")
    n_feat = len(first.features)
    header = ["scenario_id", "look_doa_deg"]
    header += [f"f_{i}" for i in range(n_feat)]
    header += ["label_mask_bits"]
    fh = open(path, "w", newline="")
    try:
        with fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for count, rec in enumerate(itertools.chain([first], records), start=1):
                if len(rec.features) != n_feat:
                    raise ValueError("inconsistent feature lengths in dataset")
                row = [rec.scenario_id, repr(float(rec.look_doa_deg))]
                row += [repr(float(v)) for v in rec.features]
                row += ["".join(str(int(b)) for b in rec.label_mask)]
                writer.writerow(row)
    except BaseException:
        os.remove(path)
        raise
    return count


def read_dataset_csv(path) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """(features, labels, scenario_ids) of a write_dataset_csv file, checked.

    With 2N-1 feature columns in the header, every row must hold a numeric
    look_doa_deg, that many finite features and a label of exactly N
    characters, each 0 or 1, with the same number of ones on every row; a row
    that breaks this is a ValueError naming its line. Labels come back as a
    float (rows, N) array.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        n_feat = len(header) - 3
        if n_feat < 1 or n_feat % 2 == 0 \
                or header[:2] != ["scenario_id", "look_doa_deg"] \
                or header[-1] != "label_mask_bits":
            raise ValueError("unrecognized dataset header")
        n = (n_feat + 1) // 2
        weight = None
        numbers, labels, ids = [], [], []
        for row in reader:
            where = f"{path} line {reader.line_num}"
            if len(row) != n_feat + 3:
                raise ValueError(f"{where}: {len(row)} fields, expected {n_feat + 3}")
            try:
                values = [float(v) for v in row[1:-1]]
            except ValueError:
                raise ValueError(f"{where}: non-numeric field") from None
            if not all(map(math.isfinite, values[1:])):
                raise ValueError(f"{where}: non-finite feature")
            bits = row[-1]
            if len(bits) != n or set(bits) - {"0", "1"}:
                raise ValueError(f"{where}: label {bits!r} is not {n} bits of 0/1")
            if weight is None:
                weight = bits.count("1")
            elif bits.count("1") != weight:
                raise ValueError(f"{where}: label {bits!r} selects "
                                 f"{bits.count('1')} sensors, earlier rows {weight}")
            numbers.append(values)
            labels.append(bits)
            ids.append(row[0])
    if not ids:
        raise ValueError(f"{path}: no data rows")
    y = np.frombuffer("".join(labels).encode(), dtype=np.uint8).reshape(len(ids), n) - ord("0")
    return np.array(numbers)[:, 1:], y.astype(float), ids
