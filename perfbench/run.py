"""Benchmark of the sparsebeam command line, one workload per run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train --seed 1 --seconds 32 --trace 0

The package is imported from the checkout's src/ and driven in-process
through sparsebeam.cli.main. With --trace 0 the run reports the end-to-end
metrics of BENCHMARK.json; with --trace 1 it times every module from outside
and reports the per-layer metrics. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Scratch files and run records
go under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads: a second thread is no faster here,
# and on a few shared cores it makes the timings follow other processes' load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# half of the set-ups run before the timed loop and half after it, so that
# setup_s samples the machine over the whole run like the call timings do
SETUP_REPEATS = 4
# counts that legitimately change from call to call (file sizes follow the data)
VARIABLE_COUNTS = (".bytes",)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="CLI time to measure (the sum of call latencies)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def blas_info():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                getter = getattr(lib, sym)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "sparsebeam").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment():
    import numpy as np
    import scipy

    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "machine": platform.machine(),
    }


class Runner:
    """One closed loop of CLI calls with one client: each call waits for the last."""

    def __init__(self, wl, work: Path):
        self.wl = wl
        self.inputs = work / "inputs"
        self.out = work / "out"
        self.latencies: list[float] = []
        self.cpu_times: list[float] = []
        self.failed = 0
        self.problems: list[str] = []
        self.digest0 = None

    def call(self, i: int, out: Path, recorder=None) -> tuple[float, float, str | None]:
        """Run call i into `out`; returns (wall seconds, CPU seconds, error or None)."""
        argv = self.wl.argv(i, self.inputs) + ["--out-dir", str(out)]
        main = self.wl.cli.main
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            rc = main(argv) if recorder is None else recorder.root(lambda: main(argv))
            err = None if rc == 0 else f"exit code {rc}"
        except Exception as exc:  # e.g. the optimality audit: a failed operation
            err = f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - t0, time.process_time() - c0, err

    def op(self, i: int, recorder=None) -> float:
        """Call i, timed and checked; returns its wall seconds."""
        dt, cpu, err = self.call(i, self.out, recorder)
        self.latencies.append(dt)
        self.cpu_times.append(cpu)
        if err is None and i == 0 and self.digest0 is None:
            self.digest0 = workloads.sha256(self.out / self.wl.output)
        problems = [err] if err else self.wl.check(i, self.out)
        if problems:
            self.failed += 1
            self.problems += [f"call {i}: {p}" for p in problems[:3]]
        return dt

    def loop(self, seconds: float, recorder=None) -> int:
        """Calls 0, 1, ... until their latencies add up to `seconds`."""
        timed, i = 0.0, 0
        while timed < seconds:
            timed += self.op(i, recorder)
            i += 1
        return i

    def rerun_first(self) -> None:
        """Call 0 again into a fresh directory: its output must be identical."""
        out = self.out.parent / "rerun"
        _, _, err = self.call(0, out)
        if err:
            self.problems.append(f"re-run of call 0: {err}")
        elif workloads.sha256(out / self.wl.output) != self.digest0:
            self.problems.append(f"re-run of call 0 wrote a different {self.wl.output}")


def set_up(wl, runner: Runner, work: Path, repeats: range):
    """Full set-ups numbered `repeats`, each with one untimed warm-up call.

    Returns the (wall, CPU) seconds of each and the digests of the files each
    wrote.
    """
    times, digests = [], []
    for k in repeats:
        d = work / f"setup{k}"
        t0, c0 = time.perf_counter(), time.process_time()
        found = wl.setup(d)
        _, _, err = runner.call(-1, d / "warmup")
        times.append((time.perf_counter() - t0, time.process_time() - c0))
        if err:
            raise RuntimeError(f"warm-up call failed: {err}")
        found["warm-up " + wl.output] = workloads.sha256(d / "warmup" / wl.output)
        digests.append(found)
        if k:
            shutil.rmtree(work / f"setup{k - 1}")
    return times, digests


def check_counts(per_op: list[dict], expected: dict) -> list[str]:
    problems = []
    first = per_op[0]
    for k, counts in enumerate(per_op[1:], start=1):
        diff = sorted(key for key in set(first) | set(counts)
                      if not key.endswith(VARIABLE_COUNTS) and first.get(key, 0) != counts.get(key, 0))
        if diff:
            problems.append(f"traced call {k}: counts differ from call 0 in {diff[:4]}")
            break
    for key, value in expected.items():
        if first.get(key, 0) != value:
            problems.append(f"{key} = {first.get(key, 0)} per call, expected {value}")
    return problems


def traced_loop(wl, runner: Runner, pkg, seconds: float):
    """Each call twice, untraced then traced, until the untraced calls add up
    to half of `seconds`; returns the tracer, the call count, per-layer
    metrics and the counts of traced call 0."""
    tr = tracer.Tracer()
    tr.install(pkg)
    per_op, plain, traced, n_ops = [], 0.0, 0.0, 0
    try:
        while plain < seconds / 2.0:
            plain += runner.op(n_ops)
            before = dict(tr.counters)
            traced += runner.op(n_ops, tr)
            per_op.append({k: v - before.get(k, 0) for k, v in tr.counters.items()})
            n_ops += 1
    finally:
        tr.uninstall()
    runner.problems += check_counts(per_op, wl.expected_counts())
    overhead = 100.0 * (traced - plain) / plain
    metrics = tracer.layer_metrics(tr, n_ops, n_ops * wl.scenes_per_call, overhead)
    return tr, n_ops, metrics, per_op[0]


def trace_table(tr, n_ops: int, items: int) -> list[dict]:
    total, own = tr.self_times()
    rows = []
    for name in sorted(total, key=lambda n: -own[n]):
        rows.append({"name": name, "calls_per_op": tr.counters[name + ".calls"] / n_ops,
                     "total_s": total[name], "self_s": own[name],
                     "self_pct": 100.0 * own[name] / total["cli"],
                     "self_ms_per_item": 1e3 * own[name] / items})
    return rows


def declared_metrics():
    with open(ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    return ({m["name"]: m for m in doc["end_to_end"]}, {m["name"]: m for m in doc["per_layer"]})


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sparsebeam" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'sparsebeam'}; run from the root of a "
              "sparsebeam checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sparsebeam
    import sparsebeam.cli  # noqa: F401  (the entry point every workload drives)

    if Path(sparsebeam.__file__).resolve().parent != (SRC / "sparsebeam").resolve():
        print(f"error: imported sparsebeam from {sparsebeam.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    e2e_spec, layer_spec = declared_metrics()

    wl = workloads.WORKLOADS[args.workload](args.seed, sparsebeam)
    records = ROOT / ".perfbench" / "records"
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(wl, work)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        before = range(SETUP_REPEATS // 2)
        setup_times, setup_digests = set_up(wl, runner, work, before)
        if args.trace:
            tr, n_ops, metrics, counts = traced_loop(wl, runner, sparsebeam, args.seconds)
        else:
            watch = tracer.Stopwatch()
            watch.install(sparsebeam)
            try:
                n_ops = runner.loop(args.seconds, watch)
            finally:
                watch.uninstall()
        runner.rerun_first()
        after = set_up(wl, runner, work, range(len(before), SETUP_REPEATS))
        setup_times += after[0]
        setup_digests += after[1]
        if any(d != setup_digests[0] for d in setup_digests):
            runner.problems.append("set-up outputs differ between repeats")
        extra = wl.quality()
    shutil.rmtree(work, ignore_errors=True)

    items = n_ops * wl.items_per_call
    extra["error_rate"] = (runner.failed / len(runner.latencies), "failed/attempted", "lower")
    details = {}
    records.mkdir(parents=True, exist_ok=True)
    if args.trace:
        spec = layer_spec
        details = {"trace": trace_table(tr, n_ops, items), "counts_per_call": counts}
        steps = tr.step_times()
        if steps:
            extra["mlp.train_step.ms_p50"] = (1e3 * tracer.percentile(steps, 0.5), "ms", "lower")
        with open(records / f"{wl.name}-seed{args.seed}-spans.jsonl", "w") as fh:
            for span in tr.spans:
                fh.write(json.dumps(span) + "\n")
    else:
        spec = e2e_spec
        lat, cpu = runner.latencies, runner.cpu_times
        metrics = {
            "setup_s": statistics.median(c for _, c in setup_times),
            "items_per_cpu_s": items / sum(cpu),
            "call_cpu_ms_p50": 1e3 * tracer.percentile(cpu, 0.5),
            "call_cpu_ms_p90": 1e3 * tracer.percentile(cpu, 0.9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        extra.update({
            "calls": (len(lat), "count", "higher"),
            "items_per_s": (items / sum(lat), "1/s", "higher"),
            "call_ms_p50": (1e3 * tracer.percentile(lat, 0.5), "ms", "lower"),
            "call_ms_p90": (1e3 * tracer.percentile(lat, 0.9), "ms", "lower"),
        })
        extra.update(watch.summary())
    if set(spec) != set(metrics):
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(set(spec) ^ set(metrics))}")

    correct = runner.failed == 0 and not runner.problems
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {n_ops} calls, "
          f"{items} {wl.item}s, {'outputs correct' if correct else 'OUTPUT CHECKS FAILED'}")
    print(f"  set-up {statistics.median(c for _, c in setup_times):.4g} CPU s, median of "
          f"{', '.join(f'{c:.4g}' for _, c in setup_times)}; wall "
          f"{', '.join(f'{w:.4g}' for w, _ in setup_times)} s")
    shown = {name: (value, spec[name]["unit"], spec[name]["better"])
             for name, value in metrics.items()}
    shown.update(extra)
    for name, (value, unit, better) in shown.items():
        print(f"  {name:<44} {value:>14.6g} {unit}  {better} is better")
    print(f"  sha256 {wl.output} of call 0: {runner.digest0}")
    for problem in runner.problems[:10]:
        print(f"  problem: {problem}")

    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "params": wl.params(), "environment": environment(), "correct": correct,
        "attempted": len(runner.latencies), "failed": runner.failed,
        "problems": runner.problems, "calls": n_ops, "setup_s_repeats": setup_times,
        "setup_digests": setup_digests[0], "output_digest": runner.digest0, "metrics": metrics,
        "extra": {k: {"value": v, "unit": u, "better": b} for k, (v, u, b) in extra.items()},
        **details,
    }
    path = records / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": correct, "attempted": len(runner.latencies), "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": spec[name]["unit"]}
                    for name, value in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
