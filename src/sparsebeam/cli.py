"""Command-line front end.

Subcommands: gen-data, train, eval, sbsa, enumerate, fig7, compare. Every
command writes CSV outputs plus a small JSON run manifest (inputs, config
hash, seeds, library versions) into --out-dir. Exit codes: 0 success, 2 bad
configuration or input, 3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from . import __version__, beamformer, enumeration, harness, mlp, nnc, sbsa, scene


def _versions() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sparsebeam": __version__,
    }


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
    doc["inputs_sha256"] = harness.json_sha256(doc)
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
        rng_seed=args.seed if args.seed is not None else 0,
        split_seed=args.split_seed,
        monitor=args.monitor,
    )
    model_path = os.path.join(args.out_dir, args.model_name)
    if not os.path.isdir(os.path.dirname(model_path) or "."):
        raise ValueError(f"--model-name {args.model_name}: no directory "
                         f"{os.path.dirname(model_path)} to write it in")
    t0 = time.perf_counter()
    results = mlp.train_ensemble(x, y, cfg, n_members=args.ensemble, scenario_ids=sids)
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
        if not name or not path:
            raise ValueError(f"--model expects NAME=PATH, got {entry!r}")
        # the name heads two report.csv columns, and CSV cells are not quoted
        if any(c in name for c in ',"\r\n'):
            raise ValueError(f"--model name {name!r} holds a comma, a quote or a line break")
        if name in models:
            raise ValueError(f"--model name {name!r} is given more than once")
        models[name] = mlp.load_model(path)
        sizes = models[name][0].layer_sizes
        if sizes[0] != 2 * cfg.n_grid - 1 or sizes[-1] != cfg.n_grid:
            raise ValueError(
                f"{path}: model {name!r} takes {sizes[0]} features and scores {sizes[-1]} "
                f"sensors, but the config needs {2 * cfg.n_grid - 1} features and "
                f"{cfg.n_grid} sensors (N = {cfg.n_grid})")
        if name not in methods:
            methods.append(name)
    nnc_index = None
    if args.train_dataset:
        x, y, _ = mlp.read_dataset_csv(args.train_dataset)
        if x.shape[1] != 2 * cfg.n_grid - 1 or int(y[0].sum()) != cfg.n_select:
            raise ValueError(
                f"{args.train_dataset}: {x.shape[1]} features with {int(y[0].sum())}-sensor "
                f"labels, but the config needs {2 * cfg.n_grid - 1} features "
                f"(N = {cfg.n_grid}) with {cfg.n_select}-sensor labels")
        nnc_index = nnc.NncIndex(x, y.astype(int))
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
        "summaries": {m: asdict(s) for m, s in result.summaries.items()},
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
    result = sbsa.sbsa_select(geom, scn, args.n_select, budget=args.budget)
    print(f"mask={beamformer.mask_bits(result.mask)} sinr_db={result.sinr.db!r}")
    rows = []
    for tr in result.starts:
        bits = beamformer.mask_bits(tr.mask)
        # a start that takes no step (P = 1) is one step-0 row with no omega
        steps = list(enumerate(tr.steps, start=1)) or [(0, (tr.start, ""))]
        rows += [[tr.start, step, idx, val, bits, tr.sinr.db] for step, (idx, val) in steps]
    beamformer.write_csv(os.path.join(args.out_dir, "sbsa_starts.csv"),
                         ["start", "step", "chosen_index", "omega", "final_mask_bits",
                          "final_sinr_db"], rows)
    doc = _scene_doc(args, scn)
    doc.update({
        "result_mask_bits": beamformer.mask_bits(result.mask),
        "result_sinr_db": result.sinr.db,
    })
    _write_manifest(args.out_dir, "sbsa", doc)
    return 0


def cmd_enumerate(args) -> int:
    if args.top < 0:
        raise ValueError(f"--top must be >= 0, got {args.top}")
    geom, scn = _load_scene(args)
    ranking = enumeration.enumerate_all_ranked(
        geom, scn, args.n_select, with_objective=args.with_objective, budget=args.budget)
    path = os.path.join(args.out_dir, "ranked.csv")
    enumeration.write_ranked_csv(path, ranking)
    for k, db in enumerate(beamformer.sinr_db(ranking.sinr[:args.top]).tolist()):
        bits = beamformer.mask_bits(beamformer.mask_from_indices(ranking.subsets[k], geom.n_grid))
        extra = "" if ranking.omega is None else f" omega={float(ranking.omega[k])!r}"
        print(f"rank_id={ranking.rank_ids[k]} mask={bits} sinr_db={db!r}{extra}")
    doc = _scene_doc(args, scn)
    doc.update({"n_configurations": len(ranking.rank_ids), "with_objective": args.with_objective})
    _write_manifest(args.out_dir, "enumerate", doc)
    return 0


def cmd_fig7(args) -> int:
    geom, scn = _load_scene(args)
    sweep = harness.overlap_sweep(geom, scn, args.n_select, budget=args.budget)
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
    enumeration._check_budget(geom.n_grid, p, args.budget)
    harness.check_n_random(geom.n_grid, args.n_random)
    best = enumeration.enumerate_best(geom, scn, p, budget=args.budget)
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    masks = {m: harness.method_mask(m, geom, scn, p, budget=args.budget)
             for m in ("sbsa", "compact_ula", "sparse_ula")}
    masks["random"] = harness.random_masks(geom.n_grid, p, args.n_random, rng)
    masks["worst_case"] = harness.method_mask("worst_case", geom, scn, p, budget=args.budget)
    opt, vals = harness.score_methods(geom, scn, best.mask, masks, args.scenario)

    opt_db = float(beamformer.sinr_db(opt))
    rows = [("enumeration", beamformer.mask_bits(best.mask), opt_db)]
    rows += [(m, "" if m == "random" else beamformer.mask_bits(masks[m]),
              float(np.mean(beamformer.sinr_db(vals[m])))) for m in masks]
    beamformer.write_csv(os.path.join(args.out_dir, "compare.csv"),
                         ["method", "mask_bits", "sinr_db", "gap_db"],
                         [(name, bits, db, opt_db - db) for name, bits, db in rows])
    for name, bits, db in rows:
        label = f" {bits}" if bits else ""
        print(f"{name:>12}: {db:8.3f} dB (gap {opt_db - db:.3f} dB){label}")
    doc = _scene_doc(args, scn)
    doc.update({"methods": [r[0] for r in rows]})
    _write_manifest(args.out_dir, "compare", doc)
    return 0


def _add_scene_args(sp):
    sp.add_argument("scenario", help="scenario JSON document")
    sp.add_argument("--n-grid", type=int, required=True, help="grid size N")
    sp.add_argument("--n-select", type=int, required=True, help="sensors to place P")
    sp.add_argument("--budget", type=int, default=enumeration.DEFAULT_BUDGET,
                    help="max configurations each search may score; on grids wider than "
                         f"{enumeration.BUDGET_GRID} each counts N/{enumeration.BUDGET_GRID}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sparsebeam",
        description="Sparse receive-array design maximizing beamformer output SINR.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, seed=True):
        if seed:
            sp.add_argument("--seed", type=int, default=None, help="random seed override")
        sp.add_argument("--out-dir", default=".", help="output directory")
        return sp

    sp = common(sub.add_parser("gen-data", help="generate labeled datasets"))
    sp.add_argument("config", help="experiment config JSON")
    sp.add_argument("--part", choices=["train", "test", "both"], default="both")
    sp.add_argument("--label-source", choices=["enumeration", "sbsa"],
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
    sp.add_argument("--methods",
                    default="sbsa,compact_ula,sparse_ula,random,worst_case")
    sp.add_argument("--n-random", type=int, default=100)
    sp.add_argument("--part", choices=["train", "test"], default="test")
    sp.set_defaults(func=cmd_eval)

    sp = common(sub.add_parser("sbsa", help="greedy spectral-overlap selection"), seed=False)
    _add_scene_args(sp)
    sp.set_defaults(func=cmd_sbsa)

    sp = common(sub.add_parser("enumerate", help="exhaustive configuration ranking"), seed=False)
    _add_scene_args(sp)
    sp.add_argument("--with-objective", action="store_true",
                    help="sort ascending by spectral overlap instead of SINR")
    sp.add_argument("--top", type=int, default=1, help="print the top K rows")
    sp.set_defaults(func=cmd_enumerate)

    sp = common(sub.add_parser(
        "fig7", help="exhaustive overlap-vs-SINR sweep for one scenario"), seed=False)
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
        for flag in ("--seed", "--split-seed"):
            seed = getattr(args, flag[2:].replace("-", "_"), None)
            if seed is not None and seed < 0:
                raise ValueError(f"{flag} must be >= 0, got {seed}")
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
