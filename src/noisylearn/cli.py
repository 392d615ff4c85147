"""Command-line interface.

Subcommands cover dataset generation, the three training stages, the full
pipeline, the decoupling study, the sampler/regularizer ablation, and
checkpoint evaluation. The data and stage commands read the pipeline's
config and draw the pipeline's stream seeds, so their artifacts equal
`pipeline`'s byte for byte. Exit codes: 0 on success, 2 for configuration
problems and for files that do not fit together, 3 for numeric failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import harness, io
from .errors import ConfigError, NumericError
from .harness import MetricsLog, derive_seed
from .semi import train_stage3
from .ssrl import train_encoder


def _load_data(path, params, params_path):
    """The dataset CSV at `path`, refused unless the first layer of the
    network loaded from `params_path` takes its rows."""
    ds = io.load_dataset_csv(path)
    layers = params.encoder + params.classifier
    if layers and layers[0].weight.shape[0] != ds.n_features:
        raise ConfigError(f"{path} has {ds.n_features} features but "
                          f"{params_path} takes {layers[0].weight.shape[0]}")
    return ds


def _cmd_gen_data(args) -> int:
    train, test = harness.generate_data(harness.load_config(args.config))
    io.save_dataset_csv(args.out, train)
    io.save_dataset_csv(args.test_out, test)
    print(f"wrote {args.out} ({len(train)} rows)")
    print(f"wrote {args.test_out} ({len(test)} rows)")
    return 0


def _cmd_stage1(args) -> int:
    config = harness.load_config(args.config)
    ds = io.load_dataset_csv(args.data)
    result = train_encoder(ds.X, config.stage1,
                           derive_seed(config.seed, harness.STREAM_STAGE1))
    io.save_checkpoint(args.out, result.encoder)
    if args.loss_csv is not None:
        log = MetricsLog()
        harness.log_stage1(log, result)
        log.to_csv(args.loss_csv)
    print(f"wrote {args.out} (final loss {result.loss_curve[-1]:.4f})")
    return 0


def _cmd_stage2(args) -> int:
    config = harness.load_config(args.config)
    encoder, _ = io.load_checkpoint(args.encoder)
    ds = _load_data(args.data, encoder, args.encoder)
    result = harness.run_stage2(encoder, ds, config.stage2,
                                derive_seed(config.seed, harness.STREAM_STAGE2))
    io.save_transfer(args.out, result.transfer, len(ds))
    if args.classifier_out is not None:
        io.save_checkpoint(args.classifier_out, result.probe.classifier)
    if args.hist_dir is not None:
        harness.emit_histograms(args.hist_dir, ds, result)
    n_l = len(result.transfer.labeled)
    print(f"wrote {args.out} (|L|={n_l}, |U|={len(ds) - n_l})")
    return 0


def _cmd_stage3(args) -> int:
    config = harness.load_config(args.config)
    encoder, _ = io.load_checkpoint(args.encoder)
    ds = _load_data(args.data, encoder, args.encoder)
    classifier, _ = io.load_checkpoint(args.classifier)
    transfer, n_samples = io.load_transfer(args.transfer)
    if (n_samples, transfer.n_classes) != (len(ds), ds.n_classes):
        raise ConfigError(
            f"{args.transfer} covers {n_samples} samples of "
            f"{transfer.n_classes} classes but {args.data} has {len(ds)} "
            f"of {ds.n_classes}")
    width = (encoder.encoder[-1].weight.shape[1] if encoder.encoder
             else ds.n_features)
    head = classifier.classifier
    if not head or head[0].weight.shape[0] != width:
        raise ConfigError(f"{args.classifier} has no head that takes the "
                          f"{width} outputs of {args.encoder}")
    if head[-1].weight.shape[1] != ds.n_classes:
        raise ConfigError(
            f"{args.classifier} has {head[-1].weight.shape[1]} outputs but "
            f"{args.data} has {ds.n_classes} classes")
    test = (_load_data(args.test_data, encoder, args.encoder)
            if args.test_data else None)
    result = train_stage3(encoder, classifier, transfer, ds, config.stage3,
                          derive_seed(config.seed, harness.STREAM_STAGE3),
                          test_dataset=test)
    io.save_checkpoint(args.out, result.params, ema=result.ema)
    log = MetricsLog()
    harness.log_stage3(log, result)
    log.to_csv(args.metrics)
    print(f"wrote {args.out}")
    return 0


def _cmd_pipeline(args) -> int:
    config = harness.load_config(args.config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = harness.run_pipeline(config)
    io.save_dataset_csv(out_dir / "train.csv", result.train)
    io.save_dataset_csv(out_dir / "test.csv", result.test)
    io.save_checkpoint(out_dir / "encoder.json", result.stage1.encoder)
    io.save_checkpoint(out_dir / "classifier.json",
                       result.stage2.probe.classifier)
    io.save_transfer(out_dir / "transfer.json", result.stage2.transfer,
                     len(result.train))
    io.save_checkpoint(out_dir / "model.json", result.stage3.params,
                       ema=result.stage3.ema)
    result.metrics.to_csv(out_dir / "metrics.csv")
    harness.emit_histograms(out_dir / "histograms", result.train,
                            result.stage2)
    acc, _ = harness.evaluate(result.stage3.params, result.test)
    print(f"final test accuracy {acc:.4f}; artifacts in {out_dir}")
    return 0


def _cmd_decouple(args) -> int:
    config = harness.load_config(args.config)
    log = harness.run_decoupling_experiment(config)
    log.to_csv(args.metrics)
    for regime in harness.DECOUPLING_REGIMES:
        accs = log.series(regime, "accuracy")
        best, last = harness.best_last(accs)
        print(f"{regime}: best {best:.4f} last {last:.4f}")
    return 0


def _cmd_ablate(args) -> int:
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    config = harness.load_config(args.config)
    merged = MetricsLog()
    for i in range(args.seeds):
        seed = config.seed if i == 0 else derive_seed(config.seed, 100 + i)
        run_config = dataclasses.replace(config, seed=seed)
        log = harness.run_ablation(run_config)
        suffix = f"_s{i}" if args.seeds > 1 else ""
        for run_id, epoch, split, metric, value in log.rows:
            merged.add(run_id + suffix, epoch, split, metric, value)
    merged.to_csv(args.metrics)
    for run_id in merged.run_ids():
        best = merged.series(run_id, "best_accuracy")
        last = merged.series(run_id, "last_accuracy")
        print(f"{run_id}: best {best[0]:.4f} last {last[0]:.4f}")
    return 0


def _cmd_eval(args) -> int:
    params, ema = io.load_checkpoint(args.model)
    if args.ema:
        if ema is None:
            raise ConfigError(f"checkpoint {args.model} has no ema weights")
        params = ema
    test = _load_data(args.data, params, args.model)
    acc, per_class = harness.evaluate(params, test)
    print(f"top1 {acc:.4f}")
    for c, value in enumerate(per_class):
        print(f"class {c}: {value:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisylearn",
        description="Noisy-label learning pipeline: contrastive encoding, "
                    "GMM label triage, semi-supervised retraining.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data",
                       help="write the config's noisy train and clean test CSVs")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--test-out", required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("stage1", help="contrastive encoder training")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--loss-csv", help="write the per-epoch loss curve here")
    p.set_defaults(func=_cmd_stage1)

    p = sub.add_parser("stage2", help="frozen-probe training and label transfer")
    p.add_argument("--config", required=True)
    p.add_argument("--encoder", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="transfer JSON path")
    p.add_argument("--classifier-out", help="save the trained probe here")
    p.add_argument("--hist-dir", help="emit loss/confidence histogram CSVs")
    p.set_defaults(func=_cmd_stage2)

    p = sub.add_parser("stage3", help="semi-supervised retraining")
    p.add_argument("--transfer", required=True)
    p.add_argument("--encoder", required=True)
    p.add_argument("--classifier", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--metrics", required=True)
    p.add_argument("--test-data")
    p.set_defaults(func=_cmd_stage3)

    p = sub.add_parser("pipeline", help="run all stages, persist artifacts")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("decouple",
                       help="four-regime representation/classifier study")
    p.add_argument("--config", required=True)
    p.add_argument("--metrics", required=True)
    p.set_defaults(func=_cmd_decouple)

    p = sub.add_parser("ablate", help="2x2 sampler/regularizer ablation")
    p.add_argument("--config", required=True)
    p.add_argument("--metrics", required=True)
    p.add_argument("--seeds", type=int, default=1)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a test CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--ema", action="store_true",
                   help="use the EMA weights stored in the checkpoint")
    p.set_defaults(func=_cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
