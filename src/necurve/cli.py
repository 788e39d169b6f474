"""Command-line front end.

Subcommands wire the library together: `generate` a synthetic dataset,
`train` one checkpoint, `evaluate` it on a dataset, `cross-validate` a
ranker end to end, `consistency` for the greedy-agreement curve,
`export-indicator` for window-indicator heatmaps, and `report` to re-emit
tables and plot data from a saved report.  Any failure prints a message to
stderr, removes partially written outputs, and exits nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from necurve.act import export_indicator
from necurve.curves import observed_count
from necurve.harness import (
    TrainConfig,
    consistency_analysis,
    cross_validate,
    evaluate,
    load_checkpoint_file,
    read_report_json,
    save_checkpoint_file,
    train,
    write_metrics_csv,
    write_plot_data,
    write_report_json,
)
from necurve.synth import (
    GeneratorConfig,
    generate_dataset,
    grouped_kfold,
    pair_and_label,
    read_records,
    write_records,
    write_split_manifest,
)

CONSISTENCY_FRACTIONS = (0.2, 0.4, 0.6, 0.8, 1.0)


def _load_json(path: str) -> dict:
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    return data


def _parse_fractions(text: str) -> tuple:
    return tuple(float(piece) for piece in text.split(",") if piece.strip())


def _train_config(args) -> TrainConfig:
    data = _load_json(args.config) if args.config else {}
    if "fractions" in data:
        data["fractions"] = tuple(data["fractions"])
    overrides = {
        "seed": args.seed,
        "ranker": args.ranker,
        "act_df": args.act_df,
        "gamma": args.gamma,
        "lam": args.lam,
        "mask_mode": args.mask_mode,
    }
    for key, value in overrides.items():
        if value is not None:
            data[key] = value
    if getattr(args, "fractions", None) is not None:
        data["fractions"] = _parse_fractions(args.fractions)
    if getattr(args, "no_metadata", False):
        data["use_metadata"] = False
    try:
        return TrainConfig(**data)
    except TypeError as err:
        raise ValueError(f"bad training config: {err}") from err


def _generator_config(args) -> GeneratorConfig:
    data = _load_json(args.config) if args.config else {}
    if args.seed is not None:
        data["seed"] = args.seed
    try:
        return GeneratorConfig(**data)
    except TypeError as err:
        raise ValueError(f"bad generator config: {err}") from err


def _write_json(payload, path: Path, created: list) -> None:
    created.append(path)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# -- subcommands ---------------------------------------------------------------


def cmd_generate(args, created: list) -> int:
    config = _generator_config(args)
    records = generate_dataset(config)
    out = Path(args.out)
    created.append(out)
    write_records(records, out)
    print(f"wrote {len(records)} records to {out}")
    return 0


def cmd_train(args, created: list) -> int:
    config = _train_config(args)
    records = read_records(args.data)
    splits = grouped_kfold(records, k=config.folds, seed=config.seed)
    if not 0 <= args.fold < len(splits):
        raise ValueError(f"fold must be in [0, {len(splits)}), got {args.fold}")
    fraction = args.fraction if args.fraction is not None else config.fractions[-1]
    checkpoint = train(splits[args.fold], config, fraction)
    out = Path(args.out)
    created.append(out)
    save_checkpoint_file(checkpoint, out)
    print(
        f"trained {config.ranker} on fold {args.fold} at fraction {fraction:g}: "
        f"best epoch {checkpoint.best_epoch}, "
        f"validation AUC {checkpoint.validation_auc}"
    )
    return 0


def cmd_evaluate(args, created: list) -> int:
    if not args.config:
        raise ValueError("evaluate needs --config pointing at a checkpoint file")
    checkpoint = load_checkpoint_file(args.config)
    records = read_records(args.data)
    pairs = pair_and_label(records, ordered=False)
    piece = evaluate(checkpoint, pairs, checkpoint.fraction)
    payload = dataclasses.asdict(piece)
    if args.out:
        _write_json(payload, Path(args.out), created)
    print(
        f"fraction {piece.fraction:g}: AUC {piece.auc:.4f}, "
        f"accuracy {piece.accuracy:.4f} over {piece.pairs} pairs"
    )
    return 0


def cmd_cross_validate(args, created: list) -> int:
    config = _train_config(args)
    records = read_records(args.data)
    report = cross_validate(records, config)
    report.consistency = consistency_analysis(records, "wne", config.fractions)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    created.append(outdir / "report.json")
    write_report_json([report], outdir / "report.json")
    created.append(outdir / "metrics.csv")
    write_metrics_csv([report], outdir / "metrics.csv")
    created.append(outdir / "splits.json")
    write_split_manifest(
        grouped_kfold(records, k=config.folds, seed=config.seed, build_pairs=False),
        outdir / "splits.json",
    )
    created.extend(Path(p) for p in write_plot_data([report], outdir / "plotdata"))
    if config.ranker.endswith("+act"):
        n_obs = observed_count(len(records[0].curve), max(config.fractions))
        heatmap = export_indicator(n_obs, config.gamma, "max-window", config.seed)
        _write_json(heatmap, outdir / "plotdata" / "indicator_heatmap.json", created)
    for fraction in config.fractions:
        print(
            f"{config.ranker} fraction {fraction:g}: "
            f"AUC {report.mean_auc(fraction):.4f} ± {report.sd_auc(fraction):.4f}, "
            f"accuracy {report.mean_accuracy(fraction):.4f} "
            f"± {report.sd_accuracy(fraction):.4f}"
        )
    return 0


def cmd_consistency(args, created: list) -> int:
    records = read_records(args.data)
    fractions = (
        _parse_fractions(args.fractions)
        if args.fractions is not None
        else CONSISTENCY_FRACTIONS
    )
    curves = {
        criterion: consistency_analysis(records, criterion, fractions)
        for criterion in ("lne", "wne")
    }
    if args.out:
        _write_json(curves, Path(args.out), created)
    for criterion, curve in curves.items():
        for point in curve:
            print(
                f"{criterion} fraction {point['fraction']:g}: "
                f"accuracy {point['accuracy']:.4f} over {point['pairs']} pairs"
            )
    return 0


def cmd_export_indicator(args, created: list) -> int:
    init_mode = {"max": "max-window", "min": "min-window"}.get(args.init, args.init)
    gamma = args.gamma if args.gamma is not None else 0.05
    seed = args.seed if args.seed is not None else 0
    payload = export_indicator(args.length, gamma, init_mode, seed)
    _write_json(payload, Path(args.out), created)
    print(f"wrote {args.length}x{args.length} indicator heatmap to {args.out}")
    return 0


def cmd_report(args, created: list) -> int:
    reports = read_report_json(args.data)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    created.append(outdir / "metrics.csv")
    write_metrics_csv(reports, outdir / "metrics.csv")
    created.extend(Path(p) for p in write_plot_data(reports, outdir / "plotdata"))
    print(f"emitted tables and plot data for {len(reports)} report(s) to {outdir}")
    return 0


# -- parser --------------------------------------------------------------------


def _add_common_train_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file of TrainConfig fields")
    sub.add_argument("--seed", type=int, help="master seed override")
    sub.add_argument("--ranker", choices=("greedy", "siamese", "siamese+act",
                                          "r2", "r2+act"))
    sub.add_argument("--act-df", type=int, dest="act_df", choices=(1, 2, 3),
                     help="window-transform degrees-of-freedom mode")
    sub.add_argument("--gamma", type=float, help="indicator temperature")
    sub.add_argument("--lambda", type=float, dest="lam",
                     help="reconstruction loss weight")
    sub.add_argument("--fractions", help="comma-separated observation fractions")
    sub.add_argument("--no-metadata", action="store_true",
                     help="ablate hyperparameter/architecture/domain inputs")
    sub.add_argument("--mask-mode",
                     choices=("strict-additive", "literal-multiplicative"),
                     help="window mask variant")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="necurve",
        description="Rank learning curves of normalized entropy.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("generate", help="synthesize a dataset")
    sub.add_argument("--config", help="JSON file of GeneratorConfig fields")
    sub.add_argument("--seed", type=int, help="generator seed override")
    sub.add_argument("--out", required=True, help="output JSONL path")
    sub.set_defaults(handler=cmd_generate)

    sub = subparsers.add_parser("train", help="train one fold's checkpoint")
    _add_common_train_flags(sub)
    sub.add_argument("--data", required=True, help="dataset JSONL path")
    sub.add_argument("--out", required=True, help="checkpoint output path")
    sub.add_argument("--fold", type=int, default=0, help="fold index to train")
    sub.add_argument("--fraction", type=float,
                     help="observation fraction (default: largest configured)")
    sub.set_defaults(handler=cmd_train)

    sub = subparsers.add_parser("evaluate", help="evaluate a checkpoint")
    sub.add_argument("--config", required=True, help="checkpoint file")
    sub.add_argument("--data", required=True, help="dataset JSONL path")
    sub.add_argument("--out", help="optional JSON metrics output")
    sub.set_defaults(handler=cmd_evaluate)

    sub = subparsers.add_parser("cross-validate",
                                help="grouped k-fold evaluation of one ranker")
    _add_common_train_flags(sub)
    sub.add_argument("--data", required=True, help="dataset JSONL path")
    sub.add_argument("--out", required=True, help="output directory")
    sub.set_defaults(handler=cmd_cross_validate)

    sub = subparsers.add_parser("consistency",
                                help="greedy-agreement curve per criterion")
    sub.add_argument("--data", required=True, help="dataset JSONL path")
    sub.add_argument("--out", help="optional JSON output")
    sub.add_argument("--fractions", help="comma-separated observation fractions")
    sub.set_defaults(handler=cmd_consistency)

    sub = subparsers.add_parser("export-indicator",
                                help="emit window-indicator heatmap JSON")
    sub.add_argument("--out", required=True, help="output JSON path")
    sub.add_argument("--length", type=int, default=100, help="curve length")
    sub.add_argument("--init", default="max",
                     help="initial window mode: max | min")
    sub.add_argument("--gamma", type=float, help="indicator temperature")
    sub.add_argument("--seed", type=int, help="initialization seed")
    sub.set_defaults(handler=cmd_export_indicator)

    sub = subparsers.add_parser("report",
                                help="re-emit tables and plot data from a report")
    sub.add_argument("--data", required=True, help="saved report.json path")
    sub.add_argument("--out", required=True, help="output directory")
    sub.set_defaults(handler=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    created: list[Path] = []
    try:
        return args.handler(args, created)
    except Exception as err:  # noqa: BLE001 - single CLI boundary
        for path in reversed(created):
            try:
                if path.is_file():
                    path.unlink()
                elif path.is_dir():
                    path.rmdir()
            except OSError:
                pass
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
