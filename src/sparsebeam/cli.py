"""Command-line front end.

Subcommands: gen-data, train, eval, sbsa, enumerate, fig7, compare. Every
command writes CSV outputs plus a small JSON run manifest (inputs, config
hash, seeds, library versions) into --out-dir. Exit codes: 0 success, 2 bad
configuration or input, 3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from . import __version__, beamformer, enumeration, harness, mlp, nnc, sbsa, scene


def _versions() -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sparsebeam": __version__,
    }


def _sha256_of(doc) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _write_manifest(out_dir, command: str, doc: dict) -> None:
    payload = {"command": command, "argv": sys.argv, "versions": _versions()}
    payload.update(doc)
    path = os.path.join(out_dir, f"{command}_manifest.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_experiment(args) -> harness.ExperimentConfig:
    cfg = harness.load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _load_scene(args):
    geom = scene.ArrayGeometry(args.n_grid)
    scn = scene.load_scenario(args.scenario)
    return geom, scn


def _scene_doc(args, scn) -> dict:
    doc = {
        "scenario": scene.scenario_to_dict(scn),
        "n_grid": args.n_grid,
        "n_select": args.n_select,
    }
    doc["inputs_sha256"] = _sha256_of(doc)
    return doc


def cmd_gen_data(args) -> int:
    cfg = _load_experiment(args)
    parts = ["train", "test"] if args.part == "both" else [args.part]
    counts = {}
    t0 = time.perf_counter()
    for part in parts:
        path = os.path.join(args.out_dir, f"{part}.csv")
        counts[part] = mlp.write_dataset_csv(
            path, harness.scenario_stream(cfg, part, args.label_source))
        print(f"wrote {path} ({counts[part]} examples)")
    _write_manifest(args.out_dir, "gen-data", {
        "config": harness.config_to_dict(cfg),
        "config_sha256": harness.config_hash(cfg),
        "label_source": args.label_source or cfg.label_source,
        "counts": counts,
        "runtime_s": time.perf_counter() - t0,
    })
    return 0


def cmd_train(args) -> int:
    x, y, sids = mlp.read_dataset_csv(args.dataset)
    hidden = tuple(int(s) for s in args.hidden.split(",") if s.strip())
    cfg = mlp.TrainConfig(
        hidden_sizes=hidden,
        learning_rate=args.learning_rate,
        keep_prob=args.keep_prob,
        batch_size=args.batch_size,
        max_epochs=args.epochs,
        patience=args.patience,
        validation_fraction=args.val_fraction,
        standardize_features=not args.no_standardize,
        normalize_power=not args.no_power_norm,
        rng_seed=args.seed if args.seed is not None else 0,
        split_seed=args.split_seed,
        monitor=args.monitor,
    )
    t0 = time.perf_counter()
    # train_ensemble seeds its own split generator; train draws from the fit's rng
    if args.ensemble == 1:
        results = [mlp.train(x, y, cfg, scenario_ids=sids)]
    else:
        results = mlp.train_ensemble(x, y, cfg, n_members=args.ensemble,
                                     scenario_ids=sids)
    model_path = os.path.join(args.out_dir, args.model_name)
    mlp.save_model(model_path, [r.model for r in results])
    epochs = [r.best_epoch for r in results]
    print(f"wrote {model_path} (best epoch {epochs[0] if len(epochs) == 1 else epochs}, "
          f"final train loss {results[-1].train_losses[-1]:.6g})")
    _write_manifest(args.out_dir, "train", {
        "dataset": args.dataset,
        "n_examples": len(sids),
        "train_config": asdict(cfg),
        "model": args.model_name,
        "compute_dtype": np.dtype(mlp.COMPUTE_DTYPE).name,
        "ensemble_members": len(results),
        "members": [{
            "fit_s": r.fit_s,
            "best_epoch": r.best_epoch,
            "stopped_early": r.stopped_early,
            "train_losses": r.train_losses,
            "val_losses": r.val_losses,
        } for r in results],
        "runtime_s": time.perf_counter() - t0,
    })
    return 0


def cmd_eval(args) -> int:
    cfg = _load_experiment(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    models = {}
    for entry in args.model or []:
        name, _, path = entry.partition("=")
        if not path:
            raise ValueError(f"--model expects NAME=PATH, got {entry!r}")
        models[name] = mlp.load_model(path)
        if name not in methods:
            methods.append(name)
    nnc_index = None
    if args.train_dataset:
        x, y, _ = mlp.read_dataset_csv(args.train_dataset)
        nnc_index = nnc.NncIndex(x, y.astype(int), metric=args.nnc_metric)
        if "nnc" not in methods:
            methods.append("nnc")
    result = harness.evaluate(cfg, methods, models=models, nnc_index=nnc_index,
                              part=args.part, n_random=args.n_random)
    report = os.path.join(args.out_dir, "report.csv")
    harness.write_report_csv(report, result)
    _write_manifest(args.out_dir, "eval", {
        "config": harness.config_to_dict(cfg),
        "config_sha256": harness.config_hash(cfg),
        "n_scenarios": len(result.rows),
        "methods": result.method_names,
        "summaries": {m: {k: v for k, v in asdict(s).items() if k != "name"}
                      for m, s in result.summaries.items()},
        "runtime_s": result.runtime_s,
    })
    print(f"wrote {report} ({len(result.rows)} scenarios)")
    for m in result.method_names:
        s = result.summaries[m]
        rate = "" if s.exact_match_rate is None else f"  match={s.exact_match_rate:.3f}"
        print(f"  {m}: mean SINR {s.mean_sinr_db:.3f} dB, "
              f"gap {s.mean_gap_db:.3f} dB{rate}")
    return 0


def cmd_sbsa(args) -> int:
    geom, scn = _load_scene(args)
    cfg = sbsa.SbsaConfig(
        dft_length=args.dft_length,
        n_starts=args.n_starts,
        rng_seed=args.seed if args.seed is not None else 0,
    )
    # the first greedy step holds starts x (N-1) candidate masks at once
    n, starts = geom.n_grid, len(cfg.resolve_starts(geom.n_grid))
    enumeration.charge_budget(n, starts * (n - 1), args.budget,
                              f"{starts} starts x {n - 1} = {starts * (n - 1)} candidate masks")
    result = sbsa.sbsa_select(geom, scn, args.n_select, cfg)
    print(f"mask={beamformer.mask_bits(result.mask)} sinr_db={result.sinr.db!r}")
    path = os.path.join(args.out_dir, "sbsa_starts.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["start", "step", "chosen_index", "omega", "final_mask_bits",
                    "final_sinr_db"])
        for tr in result.starts:
            bits = beamformer.mask_bits(tr.mask)
            for step, (idx, val) in enumerate(tr.steps, start=1):
                w.writerow([tr.start, step, idx, repr(val), bits, repr(tr.sinr.db)])
            if not tr.steps:
                w.writerow([tr.start, 0, tr.start, "", bits, repr(tr.sinr.db)])
    doc = _scene_doc(args, scn)
    doc.update({
        "result_mask_bits": beamformer.mask_bits(result.mask),
        "result_sinr_db": result.sinr.db,
        "dft_length": cfg.resolve_dft_length(geom.n_grid),
    })
    _write_manifest(args.out_dir, "sbsa", doc)
    return 0


def cmd_enumerate(args) -> int:
    geom, scn = _load_scene(args)
    ranked = enumeration.enumerate_all_ranked(
        geom, scn, args.n_select, with_objective=args.with_objective,
        dft_length=args.dft_length, budget=args.budget)
    path = os.path.join(args.out_dir, "ranked.csv")
    enumeration.write_ranked_csv(path, ranked)
    for rc in ranked[: args.top]:
        extra = "" if rc.objective is None else f" omega={rc.objective!r}"
        print(f"rank_id={rc.rank_id} mask={beamformer.mask_bits(rc.mask)} "
              f"sinr_db={rc.sinr.db!r}{extra}")
    doc = _scene_doc(args, scn)
    doc.update({"n_configurations": len(ranked), "with_objective": args.with_objective})
    _write_manifest(args.out_dir, "enumerate", doc)
    return 0


def cmd_fig7(args) -> int:
    geom, scn = _load_scene(args)
    sweep = harness.overlap_sweep(geom, scn, args.n_select,
                                  dft_length=args.dft_length, budget=args.budget)
    path = os.path.join(args.out_dir, "sweep.csv")
    harness.write_sweep_csv(path, sweep)
    print(f"wrote {path} ({len(sweep.omegas)} configurations)")
    print(f"low-overlap half mean SINR:  {sweep.lower_half_mean_db:.3f} dB")
    print(f"high-overlap half mean SINR: {sweep.upper_half_mean_db:.3f} dB")
    print(f"best configuration at overlap position {sweep.best_position}")
    doc = _scene_doc(args, scn)
    doc.update({
        "lower_half_mean_db": sweep.lower_half_mean_db,
        "upper_half_mean_db": sweep.upper_half_mean_db,
        "best_position": sweep.best_position,
    })
    _write_manifest(args.out_dir, "fig7", doc)
    return 0


def cmd_compare(args) -> int:
    geom, scn = _load_scene(args)
    p = args.n_select
    best = enumeration.enumerate_best(geom, scn, p, budget=args.budget)
    entries = [("enumeration", best.mask)]
    entries.append(("sbsa", sbsa.sbsa_select(geom, scn, p).mask))
    entries.append(("compact_ula", harness.compact_ula_mask(geom.n_grid, p)))
    entries.append(("sparse_ula", harness.sparse_ula_mask(geom.n_grid, p)))
    entries.append(("worst_case", harness.worst_case_mask(geom, scn, p)))
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    draws = harness.random_masks(geom.n_grid, p, args.n_random, rng)

    rows = []
    for name, mask in entries:
        val = float(beamformer.masks_sinr(geom, scn, mask[None, :])[0])
        rows.append((name, beamformer.mask_bits(mask), beamformer.sinr_db(val)))
    rand_db = float(np.mean(beamformer.sinr_db(beamformer.masks_sinr(geom, scn, draws))))
    rows.insert(4, ("random", "", rand_db))

    path = os.path.join(args.out_dir, "compare.csv")
    opt_db = rows[0][2]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "mask_bits", "sinr_db", "gap_db"])
        for name, bits, db in rows:
            w.writerow([name, bits, repr(float(db)), repr(float(opt_db - db))])
    for name, bits, db in rows:
        label = f" {bits}" if bits else ""
        print(f"{name:>12}: {db:8.3f} dB (gap {opt_db - db:.3f} dB){label}")
    doc = _scene_doc(args, scn)
    doc.update({"methods": [r[0] for r in rows]})
    _write_manifest(args.out_dir, "compare", doc)
    return 0


def _add_scene_args(sp, default_budget=enumeration.DEFAULT_BUDGET):
    sp.add_argument("scenario", help="scenario JSON document")
    sp.add_argument("--n-grid", type=int, required=True, help="grid size N")
    sp.add_argument("--n-select", type=int, required=True, help="sensors to place P")
    sp.add_argument("--dft-length", type=int, default=None,
                    help="DFT length K >= 2N-1 of the overlap objective; K only "
                         "scales it (default 2 * next_pow2(N))")
    sp.add_argument("--budget", type=int, default=default_budget,
                    help="max configurations to enumerate; on grids wider than "
                         f"{enumeration.BUDGET_GRID} each counts N/{enumeration.BUDGET_GRID}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sparsebeam",
        description="Sparse receive-array design maximizing beamformer output SINR.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=None,
                        help="override the configured random seed")
        sp.add_argument("--out-dir", default=".", help="output directory")
        return sp

    sp = common(sub.add_parser("gen-data", help="generate labeled datasets"))
    sp.add_argument("config", help="experiment config JSON")
    sp.add_argument("--part", choices=["train", "test", "both"], default="both")
    sp.add_argument("--label-source", choices=["enumeration", "enumerate", "sbsa"],
                    default=None, help="override the configured labeler")
    sp.set_defaults(func=cmd_gen_data)

    sp = common(sub.add_parser("train", help="train the selection network"))
    sp.add_argument("dataset", help="training dataset CSV")
    sp.add_argument("--model-name", default="model.bin")
    sp.add_argument("--hidden", default="450,250,80")
    sp.add_argument("--learning-rate", type=float, default=1e-3)
    sp.add_argument("--keep-prob", type=float, default=0.9)
    sp.add_argument("--batch-size", type=int, default=128)
    sp.add_argument("--epochs", type=int, default=200)
    sp.add_argument("--patience", type=int, default=20)
    sp.add_argument("--val-fraction", type=float, default=0.1)
    sp.add_argument("--no-standardize", action="store_true")
    sp.add_argument("--no-power-norm", action="store_true",
                    help="skip dividing each example by its zero-lag power")
    sp.add_argument("--monitor", choices=("loss", "selection"), default="loss",
                    help="validation metric that picks the checkpoint")
    sp.add_argument("--split-seed", type=int, default=None,
                    help="pin the train/validation split independently of --seed")
    sp.add_argument("--ensemble", type=int, default=1,
                    help="average this many independent restarts (seeds "
                         "--seed, --seed+1, ...)")
    sp.set_defaults(func=cmd_train)

    sp = common(sub.add_parser("eval", help="score methods on test scenarios"))
    sp.add_argument("config", help="experiment config JSON")
    sp.add_argument("--model", action="append", metavar="NAME=PATH",
                    help="trained model to evaluate (repeatable)")
    sp.add_argument("--train-dataset", default=None,
                    help="training CSV for the nearest-neighbour baseline")
    sp.add_argument("--nnc-metric", choices=["mse", "mae"], default="mse")
    sp.add_argument("--methods",
                    default="sbsa,compact_ula,sparse_ula,random,worst_case")
    sp.add_argument("--n-random", type=int, default=100)
    sp.add_argument("--part", choices=["train", "test"], default="test")
    sp.set_defaults(func=cmd_eval)

    sp = common(sub.add_parser("sbsa", help="greedy spectral-overlap selection"))
    _add_scene_args(sp)
    sp.add_argument("--n-starts", type=int, default=None)
    sp.set_defaults(func=cmd_sbsa)

    sp = common(sub.add_parser("enumerate", help="exhaustive configuration ranking"))
    _add_scene_args(sp)
    sp.add_argument("--with-objective", action="store_true",
                    help="sort ascending by spectral overlap instead of SINR")
    sp.add_argument("--top", type=int, default=1, help="print the top K rows")
    sp.set_defaults(func=cmd_enumerate)

    sp = common(sub.add_parser(
        "fig7", help="exhaustive overlap-vs-SINR sweep for one scenario"))
    _add_scene_args(sp)
    sp.set_defaults(func=cmd_fig7)

    sp = common(sub.add_parser("compare", help="one-scenario method comparison"))
    _add_scene_args(sp)
    sp.add_argument("--n-random", type=int, default=100)
    sp.set_defaults(func=cmd_compare)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        os.makedirs(args.out_dir, exist_ok=True)
        return args.func(args)
    except enumeration.BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, mlp.TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
