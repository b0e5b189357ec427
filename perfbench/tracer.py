"""Call timing from outside the package, by wrapping module attributes.

Every function is wrapped at the attribute through which its callers look it
up: a module global for bare-name calls inside that module (mlp.forward,
beamformer.subset_sinr_batch), the importing module's global for names taken
with `from ... import` (harness.correlation_matrices), and the class for
methods (nnc.NncIndex.predict). Wrappers record only while a call into the
CLI is open, so the benchmark's own checks are never traced.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict

import numpy as np


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def percentile(values, q: float) -> float:
    """Linear-interpolated quantile q in [0, 1]; 0.0 for no values."""
    vals = sorted(values)
    if not vals:
        return 0.0
    pos = (len(vals) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def _rows(a) -> int:
    return int(np.atleast_2d(np.asarray(a)).shape[0])


def _train_flops(args, result) -> int:
    # forward plus backward of a dense net: 6 flops per weight per row
    model, x = args[0], args[1]
    sizes = model.layer_sizes
    return 6 * _rows(x) * sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))


def _distinct_starts(result) -> tuple[int, int]:
    return len({tuple(tr.mask.tolist()) for tr in result.starts}), len(result.starts)


def _file_bytes(args, result) -> int:
    return os.path.getsize(args[0])


# span name -> (counter name, hook computing a per-call count from
# (positional args, result))
COUNTERS = {
    "beamformer.subset_sinr_batch": ("beamformer.subset_sinr_batch.subsets",
                                     lambda a, r: len(r)),
    "sbsa.omega_batch": ("sbsa.omega_batch.rows", lambda a, r: len(r)),
    "mlp.forward": ("mlp.forward.rows", lambda a, r: _rows(r)),
    "mlp.mse_loss_and_grads": ("mlp.train_flop", _train_flops),
    "nnc.nearest_batch": ("nnc.rows_scanned",
                          lambda a, r: len(r) * a[0].features.shape[0]),
    "mlp.read_dataset_csv": ("mlp.read_dataset_csv.bytes", _file_bytes),
    "mlp.write_dataset_csv": ("mlp.write_dataset_csv.bytes", _file_bytes),
}

# (owner path under the package, attribute, span name). Span names follow the
# module that defines the function, so a function reached through several
# lookups (scene.correlation_matrices from harness) shares one name.
TARGETS = [
    ("harness", "scenario_stream", "harness.scenario_stream"),
    ("harness", "evaluate", "harness.evaluate"),
    ("harness", "random_masks", "harness.random_masks"),
    ("harness", "overlap_sweep", "harness.overlap_sweep"),
    ("harness", "write_report_csv", "harness.write_report_csv"),
    ("harness", "correlation_matrices", "scene.correlation_matrices"),
    ("scene", "correlation_matrices", "scene.correlation_matrices"),
    ("beamformer", "subset_sinr_batch", "beamformer.subset_sinr_batch"),
    ("beamformer", "masks_sinr", "beamformer.masks_sinr"),
    ("enumeration", "enumerate_best", "enumeration.enumerate_best"),
    ("enumeration", "enumerate_worst", "enumeration.enumerate_worst"),
    ("enumeration", "enumerate_all_ranked", "enumeration.enumerate_all_ranked"),
    ("sbsa", "sbsa_select", "sbsa.sbsa_select"),
    ("sbsa", "omega_batch", "sbsa.omega_batch"),
    ("mlp", "train_ensemble", "mlp.train_ensemble"),
    ("mlp", "train", "mlp.train"),
    ("mlp", "mse_loss_and_grads", "mlp.mse_loss_and_grads"),
    ("mlp", "adam_step", "mlp.adam_step"),
    ("mlp", "forward", "mlp.forward"),
    ("mlp", "predict_selection", "mlp.predict_selection"),
    ("mlp", "read_dataset_csv", "mlp.read_dataset_csv"),
    ("mlp", "write_dataset_csv", "mlp.write_dataset_csv"),
    ("mlp", "save_model", "mlp.save_model"),
    ("mlp", "load_model", "mlp.load_model"),
    ("nnc.NncIndex", "predict", "nnc.predict"),
    ("nnc.NncIndex", "nearest_batch", "nnc.nearest_batch"),
    ("snapshots", "simulate_snapshots", "snapshots.simulate_snapshots"),
    ("snapshots", "sample_covariance", "snapshots.sample_covariance"),
    ("snapshots", "toeplitz_average", "snapshots.toeplitz_average"),
]
SPAN_NAMES = list(dict.fromkeys(name for _, _, name in TARGETS))

# functions called thousands of times per scene: counted, not timed
COUNT_ONLY = [("enumeration", "subset_unrank", "enumeration.subset_unrank")]


def resolve(pkg, path: str):
    owner = pkg
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


class Tracer:
    """Spans (name, start, end, parent) plus per-name counters, in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.distinct: list[tuple[int, int]] = []
        self._stack: list[int] = []
        self._patches = Patches()
        self.active = False

    def install(self, pkg) -> None:
        for path, attr, name in TARGETS:
            owner = resolve(pkg, path)
            fn = owner.__dict__[attr]
            wrapped = self._wrap_gen(name, fn) if name == "harness.scenario_stream" \
                else self._wrap(name, fn)
            self._patches.set(owner, attr, wrapped)
        for path, attr, name in COUNT_ONLY:
            owner = resolve(pkg, path)
            self._patches.set(owner, attr, self._wrap_count(name, owner.__dict__[attr]))

    def uninstall(self) -> None:
        self._patches.restore()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.counters[name + ".calls"] += 1
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _wrap(self, name, fn):
        tracer = self
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.counters[name + ".errors"] += 1
                raise
            finally:
                tracer._close(idx)
            if counter is not None:
                tracer.counters[counter[0]] += counter[1](args, result)
            if name == "sbsa.sbsa_select":
                tracer.distinct.append(_distinct_starts(result))
            return result

        return wrapper

    def _wrap_gen(self, name, fn):
        # a generator does its work inside next(), so each step is one span
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = tracer._open(name) if tracer.active else None
                try:
                    item = next(it)
                except StopIteration:
                    if idx is not None:  # the exhausting step yields nothing
                        tracer.counters[name + ".calls"] -= 1
                    return
                except BaseException:
                    if idx is not None:
                        tracer.counters[name + ".errors"] += 1
                    raise
                finally:
                    if idx is not None:
                        tracer._close(idx)
                yield item

        return wrapper

    def _wrap_count(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counters[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def root(self, call):
        """Run `call` as one traced CLI call; returns its result."""
        self.active = True
        idx = self._open("cli")
        try:
            return call()
        finally:
            self._close(idx)
            self.active = False

    def self_times(self) -> tuple[dict, dict]:
        """(total seconds, self seconds) per span name."""
        total: dict = defaultdict(float)
        own: dict = defaultdict(float)
        for name, t0, t1, parent in self.spans:
            d = t1 - t0
            total[name] += d
            own[name] += d
            if parent >= 0:
                own[self.spans[parent][0]] -= d
        return dict(total), dict(own)

    def step_times(self) -> list[float]:
        """Seconds per training step: each mse_loss_and_grads span plus the
        adam_step span that follows it."""
        out, pending = [], None
        for name, t0, t1, _ in self.spans:
            if name == "mlp.mse_loss_and_grads":
                pending = t1 - t0
            elif name == "mlp.adam_step" and pending is not None:
                out.append(pending + t1 - t0)
                pending = None
        return out


class Stopwatch:
    """Bare perf_counter pairs around a few entry points, for untraced runs."""

    TARGETS = {
        "enum_select_ms": ("enumeration", "enumerate_best"),
        "sbsa_select_ms": ("sbsa", "sbsa_select"),
        "dnn_select_ms": ("mlp", "predict_selection"),
        "nnc_select_ms": ("nnc.NncIndex", "predict"),
    }

    def __init__(self):
        self.samples: dict[str, list[float]] = {k: [] for k in self.TARGETS}
        self._patches = Patches()
        self.active = False

    def install(self, pkg) -> None:
        for metric, (path, attr) in self.TARGETS.items():
            owner = resolve(pkg, path)
            self._patches.set(owner, attr, self._wrap(metric, owner.__dict__[attr]))

    def uninstall(self) -> None:
        self._patches.restore()

    def root(self, call):
        """Run `call` (one CLI call) with the stopwatches on."""
        self.active = True
        try:
            return call()
        finally:
            self.active = False

    def _wrap(self, metric, fn):
        watch = self
        sink = self.samples[metric]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not watch.active:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            sink.append((time.perf_counter() - t0) * 1e3)
            return result

        return wrapper

    def summary(self) -> dict[str, tuple[float, str, str]]:
        """p50, p90 and sample count of every entry point that ran."""
        out = {}
        for metric, samples in self.samples.items():
            if samples:
                out[metric + "_p50"] = (percentile(samples, 0.5), "ms", "lower")
                out[metric + "_p90"] = (percentile(samples, 0.9), "ms", "lower")
                out[metric + "_n"] = (len(samples), "count", "higher")
        return out


MODULES = ["harness", "scene", "beamformer", "enumeration", "sbsa", "mlp", "nnc", "snapshots"]


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric a traced run reports.

    Self times are shares of the traced CLI time, so a layer that does not run
    in a workload reads 0 % there; counts are per CLI call.
    """
    spec = [("cli.self_pct", "%", "lower")]
    spec += [(f"{m}.self_pct", "%", "lower") for m in MODULES]
    for name in SPAN_NAMES:
        spec += [(f"{name}.self_pct", "%", "lower"), (f"{name}.calls", "count/op", "lower"),
                 (f"{name}.errors", "count/op", "lower")]
    spec += [(name + ".calls", "count/op", "lower") for _, _, name in COUNT_ONLY]
    units = {"mlp.train_flop": "flop/op"}
    spec += [(c, units.get(c, "B/op" if c.endswith(".bytes") else "count/op"), "lower")
             for c, _ in COUNTERS.values()]
    spec += [
        ("scene.builds_per_scene", "count/scene", "lower"),
        ("beamformer.subsets_per_s", "1/s", "higher"),
        ("enumeration.passes_per_scene", "count/scene", "lower"),
        ("sbsa.distinct_per_start", "ratio", "higher"),
        ("mlp.train_steps_per_s", "1/s", "higher"),
        ("mlp.train_gflop_per_s", "GFLOP/s", "higher"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return spec


def layer_metrics(tracer: Tracer, n_ops: int, scenes: int, overhead_pct: float) -> dict:
    """Values for per_layer_spec() from one traced loop of n_ops CLI calls."""
    total, own = tracer.self_times()
    wall = total.get("cli", 0.0)
    c = tracer.counters

    def share(seconds):
        return 100.0 * seconds / wall if wall else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    out = {"cli.self_pct": share(own.get("cli", 0.0))}
    for m in MODULES:
        out[f"{m}.self_pct"] = share(sum(own.get(n, 0.0) for n in SPAN_NAMES
                                         if n.split(".")[0] == m))
    for name in SPAN_NAMES:
        out[f"{name}.self_pct"] = share(own.get(name, 0.0))
        out[f"{name}.calls"] = c[name + ".calls"] / n_ops
        out[f"{name}.errors"] = c[name + ".errors"] / n_ops
    for _, _, name in COUNT_ONLY:
        out[name + ".calls"] = c[name + ".calls"] / n_ops
    for counter, _ in COUNTERS.values():
        out[counter] = c[counter] / n_ops
    passes = sum(c[f"enumeration.{f}.calls"]
                 for f in ("enumerate_best", "enumerate_worst", "enumerate_all_ranked"))
    steps = tracer.step_times()
    out.update({
        "scene.builds_per_scene": ratio(c["scene.correlation_matrices.calls"], scenes),
        "beamformer.subsets_per_s": ratio(c["beamformer.subset_sinr_batch.subsets"],
                                          own.get("beamformer.subset_sinr_batch", 0.0)),
        "enumeration.passes_per_scene": ratio(passes, scenes),
        "sbsa.distinct_per_start": ratio(sum(d for d, _ in tracer.distinct),
                                         sum(s for _, s in tracer.distinct)),
        "mlp.train_steps_per_s": ratio(len(steps), sum(steps)),
        "mlp.train_gflop_per_s": ratio(c["mlp.train_flop"], sum(steps)) / 1e9,
        "trace.overhead_pct": overhead_pct,
    })
    return out
