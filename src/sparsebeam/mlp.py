"""Feedforward selection network, trained from correlation-lag features.

Everything lives on numpy: Xavier-uniform init, ReLU hidden layers with
inverted dropout in training, a linear output head trained under mean squared
error against 0/1 selection masks, and ADAM with bias correction. The network
scores each grid location; a P-sensor configuration is read off as the
top-P scores. A trained network divides each example by its zero-lag power and
then standardizes it with the per-feature mean/scale learned on the training
split; both are stored inside the model so inference takes raw features.

A trained selector is a list of identically shaped networks, independent
restarts that disagree mostly near a decision boundary, so predict_selection's
mean of their scores recovers a few points of exact-match rate over one net.

Training computes in float32 (COMPUTE_DTYPE) in buffers allocated once per
fit. The parameters, their gradient and both ADAM moments are each one flat
vector in the model file's layout (_param_views: W_0, b_0, W_1, b_1, ...), so
adam_step is one elementwise update. Checkpoints are scored, stored and
evaluated in float64, so model files and inference are float64.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import struct
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import beamformer

_MAGIC = b"MLPB"
_MAGIC_ENSEMBLE = b"MLPE"
_FORMAT = 1
# most networks one model file holds; save_model and load_model both enforce it
MAX_ENSEMBLE = 4096
# most parameters one network or ensemble may hold (32 MiB of float64); a fit
# holds a few float32 and float64 copies of its network, so this bounds them
MAX_PARAMETERS = 1 << 22
# most rows x layer widths one batch, or one validation forward, may hold; the
# workspace keeps at most 20 bytes a cell (float32 activation, dropout mask and
# backprop error, and a float64 dropout draw), so this bounds it at 320 MiB, and
# the float64 forward at most three 128 MiB layers at a time
MAX_BATCH_CELLS = 1 << 24
# preprocessing flag byte of a raw network, and of a trained one (power-normalized, standardized)
_RAW, _TRAINED = 0, 3
_SCALE_FLOOR = 1e-12
_STRATUM_RE = re.compile(r"-L(\d+)-")
# the ASCII information separators: numpy strips them around a number as
# whitespace, float() refuses them, and so does read_dataset_csv
_INFO_SEPARATORS = "\x1c\x1d\x1e\x1f"

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
    # None for a raw network from init_model, which takes its input as given
    feature_mean: np.ndarray | None = None
    feature_scale: np.ndarray | None = None

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
    # the net sees interference shape rather than absolute level
    lead = x[:, :1]
    denom = np.where(np.abs(lead) < _SCALE_FLOOR, 1.0, lead)
    return x / denom


def _standardize(model: MlpModel, x: np.ndarray) -> np.ndarray:
    if model.feature_mean is None:
        return x
    return (_normalize_power(x) - model.feature_mean) / model.feature_scale


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


def _param_count(sizes) -> int:
    """Length of the flat layout of a network with these layer sizes."""
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))


def _flat_params(net: MlpModel, dtype) -> np.ndarray:
    """net's weights and biases as one new vector in the _param_views layout."""
    return np.concatenate([a.ravel() for pair in zip(net.weights, net.biases) for a in pair],
                          dtype=dtype)


def adam_step(params, grad, m, v, t: int, lr: float, *, scratch, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> None:
    """Step t (from 1) of ADAM with bias-corrected moment estimates, in place.

    params, grad and the moments m and v are flat vectors of one dtype, which
    the update computes in; scratch is a buffer of their size that the step
    overwrites. The bias corrections are folded into the step and eps:
    lr * (m / c1) / (sqrt(v / c2) + eps) equals
    (lr * sqrt(c2) / c1) * m / (sqrt(v) + eps * sqrt(c2)).
    """
    c1 = 1.0 - beta1 ** t
    root_c2 = math.sqrt(1.0 - beta2 ** t)
    # Python floats, so float32 buffers are updated in float32 arithmetic
    step, eps_hat = float(lr * root_c2 / c1), float(eps * root_c2)
    m *= beta1
    np.multiply(grad, 1.0 - beta1, out=scratch)
    m += scratch
    v *= beta2
    np.multiply(grad, 1.0 - beta2, out=scratch)
    scratch *= grad
    v += scratch
    np.sqrt(v, out=scratch)
    scratch += eps_hat
    np.divide(m, scratch, out=scratch)
    scratch *= step
    params -= scratch


class TrainWorkspace:
    """Every buffer a mse_loss_and_grads call writes, allocated once for a fit.

    The gradient is one flat vector, `grad`, in the _param_views layout;
    `grads` views it per layer. Per layer there is an activation buffer (which
    backprop overwrites with that layer's error) and, per hidden layer, a
    scaled dropout mask, all `batch_size` rows tall (train passes the largest
    batch it takes); shorter batches use the leading rows.
    """

    def __init__(self, layer_sizes, batch_size: int, dtype=COMPUTE_DTYPE):
        sizes = [int(s) for s in layer_sizes]
        rows = int(batch_size)
        dtype = np.dtype(dtype)
        self.grad = np.empty(_param_count(sizes), dtype)
        grad_w, grad_b = _param_views(self.grad, sizes)
        self.grads = {"w": grad_w, "b": grad_b}
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

    x is taken as given (train standardizes its rows once, up front).
    Computes in the dtype of model's weights, in the buffers of `workspace`
    (one is built for the call when none is given). Returns (loss, grads)
    where grads = {"w": [...], "b": [...]} aligned with model.weights /
    model.biases; they are the workspace's buffers, valid until its next
    call.
    """
    dtype = model.weights[0].dtype
    x = np.asarray(np.atleast_2d(np.asarray(x)), dtype=dtype)
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
    rng_seed: int = 0
    # split_seed pins the train/validation split independently of rng_seed,
    # so metrics stay comparable when only the init/shuffle seed varies
    split_seed: int | None = None
    # checkpoint selection: "loss" keeps the lowest validation MSE epoch,
    # "selection" keeps the epoch with the highest exact top-P match rate
    monitor: str = "loss"

    def __post_init__(self):
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0.0 < self.keep_prob <= 1.0:
            raise ValueError("keep_prob must be in (0, 1]")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in [0, 1)")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 0:
            raise ValueError("batch_size/max_epochs must be >= 1, patience >= 0")
        if self.monitor not in ("loss", "selection"):
            raise ValueError("monitor must be 'loss' or 'selection'")
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError(f"hidden layer widths must be >= 1, got {list(self.hidden_sizes)}")
        for name in ("rng_seed", "split_seed"):
            if (getattr(self, name) or 0) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


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

    The steps compute in COMPUTE_DTYPE on flat vectors in the _param_views
    layout (parameters, gradient and both ADAM moments) and one
    TrainWorkspace: the training rows are standardized once in float64 and
    cast, and dropout is drawn in float64 from the same rng as the shuffles.
    Each epoch's parameters are upcast to float64 and scored on the
    validation rows by one forward, whose scores also give the selection
    monitor's top-P masks; the returned model is float64.

    The train/validation split draws from its own generator, seeded with
    cfg.split_seed (falling back to cfg.rng_seed), so a lone fit equals the
    first member of train_ensemble. split is that (train_idx, val_idx) pair
    precomputed, which train_ensemble does once for all its members.
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
        split_seed = cfg.split_seed if cfg.split_seed is not None else cfg.rng_seed
        split = split_train_validation(x.shape[0], cfg.validation_fraction,
                                       np.random.default_rng(split_seed), scenario_ids)
    train_idx, val_idx = split
    x_tr, y_tr = x[train_idx], y[train_idx]
    x_val, y_val = x[val_idx], y[val_idx]

    model = init_model(sizes, seed=cfg.rng_seed)
    base = _normalize_power(x_tr)
    model.feature_mean = base.mean(axis=0)
    model.feature_scale = np.maximum(base.std(axis=0), _SCALE_FLOOR)

    # the passes read the float32 parameters through per-layer views; adam_step
    # updates them, with the gradient and moments, as flat vectors in place
    params = _flat_params(model, COMPUTE_DTYPE)
    live = MlpModel(model.layer_sizes, *_param_views(params, model.layer_sizes))
    m, v, scratch = np.zeros((3, params.size), COMPUTE_DTYPE)
    steps = itertools.count(1)
    n_tr = x_tr.shape[0]
    # no batch is taller than the training rows, whatever batch_size says
    rows = min(cfg.batch_size, n_tr)
    workspace = TrainWorkspace(model.layer_sizes, rows)
    x_tr = _standardize(model, x_tr).astype(COMPUTE_DTYPE)
    y_tr = y_tr.astype(COMPUTE_DTYPE)
    x_buf = np.empty((rows, x_tr.shape[1]), COMPUTE_DTYPE)
    y_buf = np.empty((rows, y_tr.shape[1]), COMPUTE_DTYPE)

    result = TrainResult(model=model)
    best = ((np.inf,), None)
    bad_epochs = 0
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(n_tr)
        batch_losses = []
        for lo in range(0, n_tr, cfg.batch_size):
            sel = order[lo:lo + cfg.batch_size]
            xb = np.take(x_tr, sel, axis=0, out=x_buf[:len(sel)], mode="clip")
            yb = np.take(y_tr, sel, axis=0, out=y_buf[:len(sel)], mode="clip")
            loss, _ = mse_loss_and_grads(
                live, xb, yb, keep_prob=cfg.keep_prob, rng=rng, workspace=workspace)
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
            adam_step(params, workspace.grad, m, v, next(steps), cfg.learning_rate,
                      scratch=scratch)
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
                # one network's scores are its ensemble mean, so this is
                # predict_selection([model], x_val, p) without a second forward
                chosen = _top_p(pred, int(round(float(y_val[0].sum()))))
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
    all checkpoints are selected against the same held-out rows. Checked
    before any fit: the members together hold at most MAX_PARAMETERS
    parameters, and neither a batch (at most the training rows) nor the
    validation rows hold more than MAX_BATCH_CELLS cells across the layer
    widths.
    """
    if n_members < 1:
        raise ValueError(f"ensemble size must be >= 1, got {n_members}")
    if n_members > MAX_ENSEMBLE:
        raise ValueError(f"ensemble size must be <= {MAX_ENSEMBLE}, got {n_members}")
    cfg = cfg or TrainConfig()
    sizes = [np.shape(features)[-1], *cfg.hidden_sizes, np.shape(labels)[-1]]
    count = n_members * _param_count(sizes)
    if count > MAX_PARAMETERS:
        raise ValueError(f"{n_members} network(s) of layer sizes {sizes} hold {count} "
                         f"parameters, more than the cap of {MAX_PARAMETERS}")
    split_seed = cfg.split_seed if cfg.split_seed is not None else cfg.rng_seed
    split = split_train_validation(len(features), cfg.validation_fraction,
                                   np.random.default_rng(split_seed), scenario_ids)
    widths = sum(sizes[1:])
    for what, rows in (("a batch of", min(cfg.batch_size, len(split[0]))),
                       ("the validation forward over", len(split[1]))):
        if rows * widths > MAX_BATCH_CELLS:
            raise ValueError(f"{what} {rows} rows through layer widths {sizes[1:]} holds "
                             f"{rows * widths} cells, more than the cap of {MAX_BATCH_CELLS}")
    members = []
    for i in range(n_members):
        member_cfg = replace(cfg, rng_seed=cfg.rng_seed + i, split_seed=split_seed)
        members.append(train(features, labels, member_cfg, scenario_ids=scenario_ids,
                             split=split))
    return members


def predict_selection(nets: list[MlpModel], features, p: int) -> np.ndarray:
    """Top-P decode of the networks' mean scores into a 0/1 mask (ties: lower
    index); 2-D input gives one mask per row. Rows go through each network in
    batches of at most MAX_BATCH_CELLS cells across its layer widths."""
    x = np.asarray(features, dtype=float)
    rows = np.atleast_2d(x)
    batch = max(1, MAX_BATCH_CELLS // sum(nets[0].layer_sizes[1:]))
    # no rows still make one (empty) batch
    scores = np.concatenate([np.mean([forward(net, rows[lo:lo + batch]) for net in nets], axis=0)
                             for lo in range(0, max(len(rows), 1), batch)])
    masks = _top_p(scores, p)
    return masks[0] if x.ndim == 1 else masks


def _top_p(scores: np.ndarray, p: int) -> np.ndarray:
    """0/1 mask of each (B, N) score row's P highest entries (ties: lower index)."""
    n = scores.shape[1]
    if not 1 <= p <= n:
        raise ValueError(f"P must satisfy 1 <= P <= {n}")
    order = np.argsort(-scores, axis=1, kind="stable")
    masks = np.zeros(scores.shape, dtype=int)
    np.put_along_axis(masks, order[:, :p], 1, axis=1)
    return masks


def _write_single(fh, model: MlpModel) -> None:
    fh.write(struct.pack("<II", _FORMAT, len(model.layer_sizes)))
    fh.write(struct.pack(f"<{len(model.layer_sizes)}I", *model.layer_sizes))
    fh.write(struct.pack("<B", _RAW if model.feature_mean is None else _TRAINED))
    fh.write(_flat_params(model, "<f8").tobytes())
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
    if flags not in (_RAW, _TRAINED):
        raise ValueError(f"unsupported preprocessing flags {flags} in model file")

    def read_array(shape):
        buf = fh.read(8 * math.prod(shape))
        return np.frombuffer(buf, dtype="<f8").reshape(shape).copy()

    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(read_array((fan_in, fan_out)))
        biases.append(read_array((fan_out,)))
    mean = scale = None
    if flags == _TRAINED:
        mean = read_array((sizes[0],))
        scale = read_array((sizes[0],))
    return MlpModel(layer_sizes=sizes, weights=weights, biases=biases,
                    feature_mean=mean, feature_scale=scale)


def save_model(path, nets: list[MlpModel]) -> None:
    """Binary weights file plus a JSON sidecar (path + ".json").

    Single-network layout: magic, then format, layer count, layer sizes, a
    preprocessing flag byte (3: trained, so power-normalized and standardized;
    0: raw; load_model rejects any other value), then float64 little-endian
    arrays: per layer W (row-major) and b, then feature mean and scale when
    trained. Two or more networks use their own
    magic followed by a count and that many single-network blocks; a file
    holds 1 to MAX_ENSEMBLE networks.
    """
    if not 1 <= len(nets) <= MAX_ENSEMBLE:
        raise ValueError(f"a model file holds 1 to {MAX_ENSEMBLE} networks, got {len(nets)}")
    lead = nets[0]
    with open(path, "wb") as fh:
        if len(nets) == 1:
            fh.write(_MAGIC)
        else:
            fh.write(_MAGIC_ENSEMBLE)
            fh.write(struct.pack("<I", len(nets)))
        for net in nets:
            _write_single(fh, net)
    sidecar = {
        "format": _FORMAT,
        "layer_sizes": list(lead.layer_sizes),
        "standardized_features": lead.feature_mean is not None,
        "power_normalized": lead.feature_mean is not None,
        "ensemble_members": len(nets),
        "parameters": _param_count(lead.layer_sizes),
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
    if not 1 <= count <= MAX_ENSEMBLE:
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
    header = ["scenario_id", "look_doa_deg", *(f"f_{i}" for i in range(len(first.features))),
              "label_mask_bits"]
    return beamformer.write_csv(path, header, (
        [rec.scenario_id, float(rec.look_doa_deg), *np.asarray(rec.features, float).tolist(),
         beamformer.mask_bits(rec.label_mask)]
        for rec in itertools.chain([first], records)))


def read_dataset_csv(path) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """(features, labels, scenario_ids) of a write_dataset_csv file, checked.

    With 2N-1 feature columns in the header, every row must hold a numeric
    look_doa_deg, that many finite features and a label of exactly N
    characters, each 0 or 1, with the same number of ones on every row; a row
    that breaks this is a ValueError naming its line (the header is line 1,
    and "\\r\\n", "\\r" and "\\n" each end a line). Labels come back as a
    float (rows, N) array. Quotes are not special: beamformer.write_csv
    writes none, so a '"' is part of its cell.

    The rows are checked all at once: each line's comma count, one
    _parse_numbers pass, one finiteness test and one byte view of the labels,
    which also builds them. Only when a check fails are the lines checked one
    by one, by _first_bad_row, to name the first bad one.
    """
    with open(path) as fh:
        text = fh.read()
    lines = text.split("\n")
    header, rows = lines[0].split(","), lines[1:]
    n_feat = len(header) - 3
    if n_feat < 1 or n_feat % 2 == 0 \
            or header[:2] != ["scenario_id", "look_doa_deg"] \
            or header[-1] != "label_mask_bits":
        raise ValueError("unrecognized dataset header")
    if rows and not rows[-1]:
        rows.pop()  # after the last line break
    if not rows:
        raise ValueError(f"{path}: no data rows")
    n = (n_feat + 1) // 2
    # first, as loadtxt would skip a blank line and ignore an extra field
    ok = all(line.count(",") == n_feat + 2 for line in rows)
    if ok:
        numbers = _parse_numbers(rows, n_feat)
        # label i fills row i of the view only when every label is n long;
        # else a "," falls among the bits, as no label holds one
        labels = (",".join([line.rpartition(",")[2] for line in rows]) + ",").encode()
        ok = numbers is not None and np.isfinite(numbers[:, 1:]).all() \
            and len(labels) == len(rows) * (n + 1)
    if ok:
        view = np.frombuffer(labels, np.uint8).reshape(len(rows), n + 1)
        y = view[:, :n] - ord("0")
        weights = y.sum(axis=1)
        ok = (y <= 1).all() and (weights == weights[0]).all()
    # each failed check fails on a line as well; a separator may sit in an id
    if not ok or any(c in text for c in _INFO_SEPARATORS):
        if (bad := _first_bad_row(path, rows, n_feat)) is not None:
            raise ValueError(bad)
    return numbers[:, 1:], y.astype(float), [line.partition(",")[0] for line in rows]


def _parse_numbers(lines, n_feat: int) -> np.ndarray | None:
    """The look_doa_deg and n_feat feature columns of dataset lines as one
    float64 (rows, 1 + n_feat) array, or None when a cell is not a number.

    numpy converts each cell with the C function float() uses, so a value is
    float()'s to the bit. Of what float() accepts it refuses "_" between
    digits and non-ASCII digits, and it accepts nothing float() refuses but
    _INFO_SEPARATORS around a number."""
    try:
        return np.loadtxt(lines, delimiter=",", usecols=range(1, n_feat + 2),
                          comments=None, ndmin=2)
    except ValueError:
        return None


def _first_bad_row(path, rows, n_feat: int) -> str | None:
    """The message naming the first of `rows` (line 2 on) that
    read_dataset_csv refuses, or None when it refuses none."""
    n = (n_feat + 1) // 2
    weight = None
    for num, line in enumerate(rows, start=2):
        where = f"{path} line {num}"
        fields = line.split(",") if line else []
        if len(fields) != n_feat + 3:
            return f"{where}: {len(fields)} fields, expected {n_feat + 3}"
        values = _parse_numbers([line], n_feat)
        if values is None or any(c in cell for cell in fields[1:-1] for c in _INFO_SEPARATORS):
            return f"{where}: non-numeric field"
        if not np.isfinite(values[:, 1:]).all():
            return f"{where}: non-finite feature"
        bits = fields[-1]
        if len(bits) != n or set(bits) - {"0", "1"}:
            return f"{where}: label {bits!r} is not {n} bits of 0/1"
        if weight is None:
            weight = bits.count("1")
        elif bits.count("1") != weight:
            return (f"{where}: label {bits!r} selects "
                    f"{bits.count('1')} sensors, earlier rows {weight}")
    return None
