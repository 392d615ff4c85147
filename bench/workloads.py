"""The benchmark's workloads: a config, one job, and the checks on its outputs.

A job is what a user runs once: parse the config, then run the experiment.
`check` reads the job's outputs and returns the quality metrics and a list
of problems; a job with any problem counts as failed. The configs are the
README defaults cut to a few seconds a job (see NOTES.md).
"""

from __future__ import annotations

import contextlib
import csv
import math
import re
from dataclasses import dataclass
from io import StringIO
from pathlib import Path
from typing import Any, Callable

import numpy as np

from noisylearn import cli, harness, io
from spans import Tracer, cell_name

QUALITY = ("test_acc", "test_acc_ema", "l_precision", "l_fraction")


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict                                   # everything but the seed
    run: Callable[[Path, Path], Any]               # (config file, job dir)
    check: Callable[[Path, Any, Tracer], tuple[dict, list[str]]]
    required: tuple[str, ...]                      # spans a traced job must hit


def _triage(transfer, y_clean) -> tuple[dict, list[str]]:
    L = transfer.labeled_indices()
    labels = transfer.labeled_targets().argmax(axis=1)
    n = L.size + transfer.unlabeled_indices().size
    problems = []
    if L.size == 0:
        problems.append("L is empty")
    if L.size == n:
        problems.append("U is empty")
    precision = float(np.mean(labels == y_clean[L])) if L.size else 0.0
    return {"l_precision": precision, "l_fraction": L.size / n}, problems


def _finite(values, what: str) -> list[str]:
    bad = sum(1 for v in values if not math.isfinite(v))
    return [f"{bad} non-finite {what}"] if bad else []


# -- pipeline ------------------------------------------------------------------

def run_pipeline(config_path: Path, job_dir: Path):
    printed = StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main(["pipeline", "--config", str(config_path),
                         "--out-dir", str(job_dir)])
    return code, printed.getvalue()


def check_pipeline(job_dir: Path, output, tracer: Tracer):
    code, printed = output
    if code != 0:
        return {}, [f"cli exited with {code}"]
    params, ema = io.load_checkpoint(job_dir / "model.json")
    test = io.load_dataset_csv(job_dir / "test.csv")
    train = io.load_dataset_csv(job_dir / "train.csv")
    transfer, _ = io.load_transfer(job_dir / "transfer.json")
    acc, _ = harness.evaluate(params, test)
    acc_ema, _ = harness.evaluate(ema, test)
    quality, problems = _triage(transfer, train.y_clean)
    quality.update(test_acc=acc, test_acc_ema=acc_ema)
    shown = re.search(r"final test accuracy (\S+);", printed)
    if shown is None or shown.group(1) != f"{acc:.4f}":
        problems.append(f"reloaded model.json scores {acc:.4f}, cli printed "
                        f"{shown.group(1) if shown else 'nothing'}")
    with open(job_dir / "metrics.csv", newline="", encoding="utf-8") as fh:
        values = [float(row["value"]) for row in csv.DictReader(fh)]
    problems += _finite(values, "values in metrics.csv")
    return quality, problems


# -- ablate --------------------------------------------------------------------

def run_ablate(config_path: Path, job_dir: Path):
    return harness.run_ablation(harness.load_config(config_path))


def check_ablate(job_dir: Path, log, tracer: Tracer):
    (_, stage1), = tracer.kept["ssrl.train_encoder"]
    (args, stage2), = tracer.kept["harness.run_stage2"]
    cells = {cell_name(a["config"]): r
             for a, r in tracer.kept["semi.train_stage3"]}
    quality, problems = _triage(stage2.transfer, args["train"].y_clean)
    losses = stage1.loss_curve + stage2.probe.loss_curve
    for result in cells.values():
        losses += [row[k] for row in result.history
                   for k in ("l_sup", "l_unsup", "r_graph", "total")]
    problems += _finite(losses, "losses")
    for cbs in ("on", "off"):
        on, off = cells[f"cbs_{cbs}_gsr_on"], cells[f"cbs_{cbs}_gsr_off"]
        if on.history == off.history:
            problems.append(f"cbs_{cbs}: gsr on and off are identical, "
                            "so the graph was never used")
    quality["test_acc"] = log.series("cbs_on_gsr_on", "best_accuracy")[0]
    quality["test_acc_ema"] = max(log.series("cbs_on_gsr_on", "accuracy_ema"))
    return quality, problems


# -- decouple ------------------------------------------------------------------

def run_decouple(config_path: Path, job_dir: Path):
    return harness.run_decoupling_experiment(harness.load_config(config_path))


def check_decouple(job_dir: Path, log, tracer: Tracer):
    (_, (train, _)), = tracer.kept["harness.generate_data"]
    last = {r: log.series(r, "accuracy")[-1]
            for r in harness.DECOUPLING_REGIMES}
    losses = [v for r in harness.DECOUPLING_REGIMES
              for v in log.series(r, "ce_loss", split="train")]
    problems = _finite(losses, "losses")
    if not last[harness.REGIME_RETRAIN_CLASSIFIER] > last[harness.REGIME_NOISY]:
        problems.append(f"retrain_classifier {last['retrain_classifier']} does "
                        f"not beat noisy {last['noisy']} at the last epoch")
    test_acc = float(np.mean(list(last.values())))
    # No triage and no EMA here: every row keeps its noisy label, and the
    # EMA model is the model itself.
    quality = {"test_acc": test_acc, "test_acc_ema": test_acc,
               "l_precision": float(np.mean(train.y_noisy == train.y_clean)),
               "l_fraction": 1.0}
    return quality, problems


NOISE_80 = {"kind": "symmetric", "ratio": 0.8}

WORKLOADS = {w.name: w for w in (
    Workload("pipeline",
             {"noise": NOISE_80, "stage1": {"epochs": 15},
              "stage3": {"epochs": 2}},
             run_pipeline, check_pipeline,
             ("cli.main", "ssrl.nt_xent_loss", "io.save")),
    Workload("ablate",
             {"noise": NOISE_80, "stage1": {"epochs": 5},
              "stage3": {"epochs": 3}},
             run_ablate, check_ablate,
             ("graphreg.graph_regularizer", "semi.sampler")),
    Workload("decouple",
             {"dataset": {"n_per_class": 150},
              "noise": {"kind": "symmetric", "ratio": 0.4}},
             run_decouple, check_decouple,
             ("harness.train_supervised",)),
)}
