"""Experiment orchestration: configs, metrics, reference runs, artifacts.

Everything here is deterministic given (config, seed): named RNG streams
are derived from the master seed, runs append to a MetricsLog whose CSV
form is byte-stable, and artifacts round-trip through io. The three
experiment runners reproduce the qualitative studies: the four-regime
decoupling comparison, the full three-stage pipeline against its
baselines, and the 2x2 sampler/regularizer ablation.
"""

from __future__ import annotations

import csv
import ctypes
import dataclasses
import json
import math
import sys
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import numnet
from .credibility import (EM_TOL, Stage2Config, Stage2Result,
                          assess_credibility, per_sample_stats,
                          train_frozen_classifier, transfer_labels)
from .data import (DatasetSpec, LabeledDataset, NoiseSpec, apply_noise,
                   make_blobs, train_test_split)
from .errors import ConfigError
from .numnet import MlpParams
from .semi import MixMatchConfig, Stage3Result, train_stage3
from .ssrl import (ENCODER_WIDTHS, ContrastiveConfig, EncoderTrainResult,
                   embed, train_encoder)

Array = np.ndarray

# Named RNG streams derived from the master seed, one per consumer.
STREAM_DATA = 0
STREAM_SPLIT = 1
STREAM_NOISE = 2
STREAM_STAGE1 = 3
STREAM_STAGE2 = 4
STREAM_STAGE3 = 5
STREAM_INIT = 6
STREAM_SUPERVISED = 7


def derive_seed(master: int, stream: int) -> int:
    """Independent child seed for a named stream of a master seed."""
    return int(np.random.SeedSequence([master, stream]).generate_state(1)[0])


def _find_libc(name: str, *argtypes):
    """The C library's int function `name`, or None where it has none
    (not glibc)."""
    try:
        fn = getattr(ctypes.CDLL(None), name)
    except (AttributeError, OSError, TypeError):
        return None
    fn.argtypes, fn.restype = list(argtypes), ctypes.c_int
    return fn


_MALLOC_TRIM = _find_libc("malloc_trim", ctypes.c_size_t)
_MALLOPT = _find_libc("mallopt", ctypes.c_int, ctypes.c_int)

# glibc moves both thresholds with the largest block freed so far: the
# mmap threshold to that block's size and the trim threshold to twice it.
# Stage 1's 1 MB NT-Xent score buffer then set a 2 MB trim threshold, so
# every step gave about 2 MB of heap back to the kernel and faulted it in
# again (550-720 page faults a step at 512 rows). Fixed values stop that:
# the score buffer stays on the heap, and the 2.3 MB embedding tables are
# still mapped on their own and returned when freed.
if _MALLOPT is not None:
    _MALLOPT(-1, 16 << 20)      # M_TRIM_THRESHOLD, in glibc's <malloc.h>
    _MALLOPT(-3, 1536 << 10)    # M_MMAP_THRESHOLD


def _release_freed_memory() -> None:
    """Hand the heap pages a finished stage freed back to the OS.

    The runners call this between stages. glibc keeps freed heap pages
    resident until the free block at the top of the heap outgrows the
    trim threshold pinned above (16 MB). Without the trim, whether a
    stage's tables stay resident through the next stage depends on where
    a few small long-lived allocations landed, and a run's peak RSS can
    move by 3 MB with nothing but the length of its output path. A no-op
    where the C library has no `malloc_trim`.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

class MetricsLog:
    """Long-format metric rows with a byte-stable CSV rendering."""

    HEADER = ["run_id", "epoch", "split", "metric", "value"]

    def __init__(self):
        self.rows: list[tuple[str, int, str, str, float]] = []
        self._last_epoch: dict[tuple[str, str, str], int] = {}

    def add(self, run_id: str, epoch: int, split: str, metric: str,
            value: float) -> None:
        key = (run_id, split, metric)
        last = self._last_epoch.get(key)
        if last is not None and epoch <= last:
            raise ConfigError(
                f"metrics: epoch {epoch} not increasing for {key}")
        self._last_epoch[key] = epoch
        self.rows.append((run_id, int(epoch), split, metric, float(value)))

    def series(self, run_id: str, metric: str,
               split: str = "test") -> list[float]:
        """Values for one run/metric/split, in epoch order."""
        picked = [(e, v) for r, e, s, m, v in self.rows
                  if r == run_id and m == metric and s == split]
        return [v for _, v in sorted(picked)]

    def run_ids(self) -> list[str]:
        seen = dict.fromkeys(r for r, *_ in self.rows)
        return list(seen)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.HEADER)
            for run_id, epoch, split, metric, value in self.rows:
                writer.writerow([run_id, epoch, split, metric, repr(value)])


def best_last(accuracies: list[float]) -> tuple[float, float]:
    """Best = max over epochs; Last = mean of the final min(10, n)."""
    if not accuracies:
        raise ConfigError("best_last: empty accuracy sequence")
    return max(accuracies), float(np.mean(accuracies[-10:]))


def evaluate(params: MlpParams, test: LabeledDataset) -> tuple[float, Array]:
    """Top-1 accuracy against clean labels, plus per-class accuracy; the
    class is `numnet.predict_classes`, the argmax of the logits."""
    if len(test) == 0:
        raise ConfigError("evaluate: empty test set")
    hits = numnet.predict_classes(params, test.X) == test.y_clean
    per_class = np.zeros(test.n_classes)
    for c in range(test.n_classes):
        members = test.y_clean == c
        per_class[c] = hits[members].mean() if members.any() else 0.0
    return float(hits.mean()), per_class


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class SupervisedConfig:
    """End-to-end CE training used by the decoupling study and baselines."""

    epochs: int = 100
    batch_size: int = 128
    lr: float = 0.001
    eta_min: float = 0.001   # default: constant learning rate

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.lr <= 0 or not 0.0 <= self.eta_min <= self.lr:
            raise ConfigError("lr must be positive and eta_min in [0, lr]")


@dataclass
class ExperimentConfig:
    seed: int
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    test_fraction: float = 0.1
    stage1: ContrastiveConfig = field(default_factory=ContrastiveConfig)
    stage2: Stage2Config = field(default_factory=Stage2Config)
    stage3: MixMatchConfig = field(default_factory=MixMatchConfig)
    supervised: SupervisedConfig = field(default_factory=SupervisedConfig)

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(
                f"test_fraction must be in (0, 1), got {self.test_fraction}")
        C = self.dataset.n_classes
        for src, dst in (self.noise.pair_map or {}).items():
            if not (0 <= src < C and 0 <= dst < C) or src == dst:
                raise ConfigError(
                    f"noise.pair_map entry {src}->{dst} must join two "
                    f"different classes of [0, {C}) (dataset.n_classes)")


def _typed(value, hint, where: str):
    """`value` checked against the type `hint`; ints widen to floats, a
    float must be finite and an int of size below 2**63, as `io._number`
    reads them."""
    if dataclasses.is_dataclass(hint):
        return _build_dataclass(hint, value, where)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:                      # `X | None`
        return None if value is None else _typed(value, args[0], where)
    if origin is tuple and isinstance(value, (list, tuple)) \
            and len(value) == len(args):
        return tuple(_typed(v, a, f"{where}[{i}]")
                     for i, (v, a) in enumerate(zip(value, args)))
    if origin is dict and isinstance(value, dict):
        key_type, value_type = args
        out = {}
        for k, v in value.items():
            if (key_type is int and isinstance(k, str)     # JSON object keys
                    and k.removeprefix("-").isdecimal()):
                k = int(k)
            out[_typed(k, key_type, f"{where} key")] = _typed(
                v, value_type, f"{where}[{k!r}]")
        return out
    if hint is float and type(value) in (int, float):
        if abs(value) <= sys.float_info.max:     # not inf, nan or a huge int
            return float(value)
        raise ConfigError(f"{where} expects a finite float, got " + (
            repr(value) if type(value) is float else "an int too large for one"))
    if type(value) is hint:                            # so bool is not int
        if hint is int and abs(value) >= 2 ** 63:
            raise ConfigError(
                f"{where} expects an int of size below 2**63, got {value}")
        return value
    name = hint.__name__ if origin is None else str(hint)
    raise ConfigError(f"{where} expects {name}, got {type(value).__name__}")


def _build_dataclass(cls, data, context: str):
    where = f"config section {context}" if context else "config"
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object")
    hints = typing.get_type_hints(cls)
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    prefix = f"{context}." if context else ""
    values = {name: _typed(value, hints[name], prefix + name)
              for name, value in data.items()}
    try:
        return cls(**values)
    except ConfigError as e:        # a range check in cls.__post_init__
        raise ConfigError(f"{where}: {e}") from None


def load_config(path) -> ExperimentConfig:
    """Parse an experiment config JSON document; the seed is mandatory."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as e:     # bad JSON or UTF-8, or an int of 4,300+ digits
        raise ConfigError(f"config file {path}: not valid JSON ({e})") from e
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path}: top level must be an object")
    return config_from_dict(data)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from parsed JSON, checking every value's type."""
    if isinstance(data, dict) and "seed" not in data:
        raise ConfigError("config: 'seed' is required")
    return _build_dataclass(ExperimentConfig, data, "")


def generate_data(config: ExperimentConfig
                  ) -> tuple[LabeledDataset, LabeledDataset]:
    """Blobs -> stratified split -> noise on the training half only."""
    ds = make_blobs(config.dataset, derive_seed(config.seed, STREAM_DATA))
    train, test = train_test_split(ds, config.test_fraction,
                                   derive_seed(config.seed, STREAM_SPLIT))
    noise_rng = np.random.default_rng(derive_seed(config.seed, STREAM_NOISE))
    train = apply_noise(train, config.noise, noise_rng)
    return train, test


# ---------------------------------------------------------------------------
# Supervised reference training (decoupling regimes, CE baseline)
# ---------------------------------------------------------------------------

@dataclass
class SupervisedRunResult:
    params: MlpParams
    train_loss: list[float]
    test_accuracy: list[float]


def train_supervised(params: MlpParams, X: Array, y: Array, n_classes: int,
                     config: SupervisedConfig, seed: int,
                     frozen: tuple[str, ...] = (),
                     test_dataset: LabeledDataset | None = None
                     ) -> SupervisedRunResult:
    """Plain mini-batch CE training of `params` in place.

    `frozen` names parameter groups ("encoder", "classifier") excluded
    from updates; the decoupling regimes use it to pin one half.
    """
    batches = numnet.ce_batches(X, numnet.one_hot(y, n_classes),
                                config.batch_size, np.random.default_rng(seed))
    train_loss = []
    test_acc = []
    for losses in numnet.fit(params, numnet.adam(config.lr), config.epochs,
                             math.ceil(X.shape[0] / config.batch_size),
                             batches, config.eta_min, frozen=frozen):
        train_loss.append(float(np.mean(losses)))
        if test_dataset is not None:
            test_acc.append(numnet.accuracy(params, test_dataset.X,
                                            test_dataset.y_clean))
    return SupervisedRunResult(params=params, train_loss=train_loss,
                               test_accuracy=test_acc)


REGIME_CLEAN = "clean"
REGIME_RETRAIN_REPRESENTATION = "retrain_representation"
REGIME_RETRAIN_CLASSIFIER = "retrain_classifier"
REGIME_NOISY = "noisy"

DECOUPLING_REGIMES = (REGIME_CLEAN, REGIME_RETRAIN_REPRESENTATION,
                      REGIME_RETRAIN_CLASSIFIER, REGIME_NOISY)


def run_decoupling_experiment(config: ExperimentConfig) -> MetricsLog:
    """Four training regimes separating representation and classifier.

    All regimes share one initialization, schedule, and batch order. The
    clean regime trains everything on true labels; the two retrain regimes
    start from its final weights and retrain exactly one half on noisy
    labels (the other half frozen); the noisy regime trains everything on
    noisy labels from scratch.
    """
    if config.noise.ratio == 0.0:
        raise ConfigError("decoupling experiment requires a noise spec")
    train, test = generate_data(config)
    d, C = train.n_features, train.n_classes
    init = numnet.init_mlp([d, *ENCODER_WIDTHS], [ENCODER_WIDTHS[-1], C],
                           seed=derive_seed(config.seed, STREAM_INIT))
    loop_seed = derive_seed(config.seed, STREAM_SUPERVISED)
    log = MetricsLog()

    def record(run_id: str, result: SupervisedRunResult) -> None:
        for epoch, value in enumerate(result.train_loss):
            log.add(run_id, epoch, "train", "ce_loss", value)
        for epoch, value in enumerate(result.test_accuracy):
            log.add(run_id, epoch, "test", "accuracy", value)

    clean = train_supervised(init.clone(), train.X, train.y_clean, C,
                             config.supervised, loop_seed,
                             test_dataset=test)
    record(REGIME_CLEAN, clean)

    retrain_repr = MlpParams(encoder=init.encoder,
                             classifier=clean.params.classifier)
    record(REGIME_RETRAIN_REPRESENTATION,
           train_supervised(retrain_repr, train.X, train.y_noisy, C,
                            config.supervised, loop_seed,
                            frozen=("classifier",), test_dataset=test))

    retrain_cls = MlpParams(encoder=clean.params.encoder,
                            classifier=init.classifier)
    record(REGIME_RETRAIN_CLASSIFIER,
           train_supervised(retrain_cls, train.X, train.y_noisy, C,
                            config.supervised, loop_seed,
                            frozen=("encoder",), test_dataset=test))

    record(REGIME_NOISY,
           train_supervised(init.clone(), train.X, train.y_noisy, C,
                            config.supervised, loop_seed, test_dataset=test))
    return log


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------

@dataclass
class PipelineResult:
    train: LabeledDataset
    test: LabeledDataset
    stage1: EncoderTrainResult
    stage2: "Stage2Result"
    stage3: Stage3Result
    metrics: MetricsLog


def embed_dataset(encoder: MlpParams, ds: LabeledDataset) -> LabeledDataset:
    """`ds` with its rows replaced by their embedding under `encoder`."""
    return LabeledDataset(embed(encoder, ds.X), ds.y_clean, ds.y_noisy,
                          ds.n_classes)


def run_stage2(encoder: MlpParams, train: LabeledDataset,
               config: Stage2Config, seed: int,
               test_dataset: LabeledDataset | None = None) -> "Stage2Result":
    """Frozen-representation probe, credibility scores, and label transfer.

    The encoder embeds each dataset once; the probe and the per-sample
    statistics read those tables.
    """
    Z = embed_dataset(encoder, train)
    Zt = None if test_dataset is None else embed_dataset(encoder, test_dataset)
    probe = train_frozen_classifier(Z, config, seed, test_dataset=Zt)
    losses, confidences, y_pred = per_sample_stats(probe.classifier, Z)
    scores = assess_credibility(losses, confidences)
    transfer = transfer_labels(train.y_noisy, y_pred, scores, config,
                               train.n_classes)
    for name, gmm in (("loss", scores.loss_gmm),
                      ("confidence", scores.confidence_gmm)):
        if gmm is not None and not gmm.converged:
            # the last log-likelihood step tells a slow fit from a stuck one
            trace = gmm.log_likelihood_trace
            print(f"warning: {name} GMM EM hit max_iter={len(trace)} without "
                  f"converging (last step {trace[-1] - trace[-2]:+.1e}, "
                  f"tol {EM_TOL:g})", file=sys.stderr)
    n_l, n_u = len(transfer.labeled), len(transfer.unlabeled)
    if n_l == 0 or n_u == 0:
        print(f"warning: stage 2 left L or U empty: |L|={n_l}, |U|={n_u}",
              file=sys.stderr)
    missing = np.setdiff1d(np.arange(train.n_classes), transfer.labeled.label)
    if n_l and missing.size:
        print(f"warning: stage 2 left classes {missing.tolist()} out of L",
              file=sys.stderr)
    return Stage2Result(probe=probe, scores=scores, y_pred=y_pred,
                        transfer=transfer)


def _data_and_stages_1_2(config: ExperimentConfig) -> tuple[
        LabeledDataset, LabeledDataset, EncoderTrainResult, Stage2Result]:
    """Data, then stages 1 and 2, each followed by a heap release."""
    train, test = generate_data(config)
    stage1 = train_encoder(train.X, config.stage1,
                           derive_seed(config.seed, STREAM_STAGE1))
    _release_freed_memory()
    stage2 = run_stage2(stage1.encoder, train, config.stage2,
                        derive_seed(config.seed, STREAM_STAGE2),
                        test_dataset=test)
    _release_freed_memory()
    return train, test, stage1, stage2


def log_stage1(log: MetricsLog, stage1: EncoderTrainResult) -> None:
    """The stage-1 rows: the NT-Xent loss of each epoch."""
    for epoch, value in enumerate(stage1.loss_curve):
        log.add("stage1", epoch, "train", "nt_xent_loss", value)


def log_stage3(log: MetricsLog, stage3: Stage3Result) -> None:
    """The stage-3 rows: each epoch's loss parts and any test accuracies."""
    for row in stage3.history:
        epoch = row["epoch"]
        for metric in ("l_sup", "l_unsup", "r_graph", "total"):
            log.add("stage3", epoch, "train", metric, row[metric])
        if "test_acc" in row:
            log.add("stage3", epoch, "test", "accuracy", row["test_acc"])
            log.add("stage3", epoch, "test", "accuracy_ema",
                    row["test_acc_ema"])


def run_pipeline(config: ExperimentConfig) -> PipelineResult:
    """Stage-1 -> Stage-2 -> Stage-3 under one derived seed tree."""
    train, test, stage1, stage2 = _data_and_stages_1_2(config)
    log = MetricsLog()
    log_stage1(log, stage1)
    for epoch, value in enumerate(stage2.probe.loss_curve):
        log.add("stage2", epoch, "train", "ce_loss", value)
    for epoch, value in enumerate(stage2.probe.train_accuracy):
        log.add("stage2", epoch, "train", "accuracy", value)
    for epoch, value in enumerate(stage2.probe.test_accuracy):
        log.add("stage2", epoch, "test", "accuracy", value)

    stage3 = train_stage3(stage1.encoder, stage2.probe.classifier,
                          stage2.transfer, train, config.stage3,
                          derive_seed(config.seed, STREAM_STAGE3),
                          test_dataset=test)
    _release_freed_memory()
    log_stage3(log, stage3)

    return PipelineResult(train=train, test=test, stage1=stage1,
                          stage2=stage2, stage3=stage3, metrics=log)


# ---------------------------------------------------------------------------
# Ablation
# ---------------------------------------------------------------------------

ABLATION_CELLS = (
    ("cbs_on_gsr_on", True, True),
    ("cbs_on_gsr_off", True, False),
    ("cbs_off_gsr_on", False, True),
    ("cbs_off_gsr_off", False, False),
)


def run_ablation(config: ExperimentConfig) -> MetricsLog:
    """2x2 sampler/regularizer grid over one shared transfer.

    Stages 1 and 2 run once; the four stage-3 cells share that transfer,
    the training seed, and the schedule, toggling only use_cbs/use_gsr.
    Per-epoch test accuracy is logged per cell plus Best/Last summaries.
    """
    train, test, stage1, stage2 = _data_and_stages_1_2(config)
    stage3_seed = derive_seed(config.seed, STREAM_STAGE3)
    log = MetricsLog()
    for run_id, use_cbs, use_gsr in ABLATION_CELLS:
        cell_config = dataclasses.replace(config.stage3, use_cbs=use_cbs,
                                          use_gsr=use_gsr)
        result = train_stage3(stage1.encoder, stage2.probe.classifier,
                              stage2.transfer, train, cell_config,
                              stage3_seed, test_dataset=test)
        _release_freed_memory()
        accs = []
        for row in result.history:
            log.add(run_id, row["epoch"], "test", "accuracy", row["test_acc"])
            log.add(run_id, row["epoch"], "test", "accuracy_ema",
                    row["test_acc_ema"])
            accs.append(row["test_acc"])
        best, last = best_last(accs)
        final_epoch = result.history[-1]["epoch"]
        log.add(run_id, final_epoch, "test", "best_accuracy", best)
        log.add(run_id, final_epoch, "test", "last_accuracy", last)
    return log


# ---------------------------------------------------------------------------
# Histograms
# ---------------------------------------------------------------------------

N_BINS = 50


def _split_histogram(path, values: Array, mask: Array,
                     series_true: str, series_false: str) -> None:
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, N_BINS + 1)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series", "bin_left", "bin_right", "count"])
        for series, sel in ((series_true, mask), (series_false, ~mask)):
            counts, _ = np.histogram(values[sel], bins=edges)
            for b in range(N_BINS):
                writer.writerow([series, repr(float(edges[b])),
                                 repr(float(edges[b + 1])), int(counts[b])])


def emit_histograms(out_dir, train: LabeledDataset,
                    stage2: Stage2Result) -> dict[str, Path]:
    """Diagnostic CSVs of a stage-2 run on `train`: loss and confidence
    histograms plus L class counts.

    The loss histogram is split by the hidden clean/noisy ground truth and
    the confidence histogram by prediction correctness, both against
    y_clean, which the pipeline itself never reads.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "loss": out_dir / "loss_histogram.csv",
        "confidence": out_dir / "confidence_histogram.csv",
        "class_counts": out_dir / "labeled_class_counts.csv",
    }
    clean_mask = train.y_noisy == train.y_clean
    _split_histogram(paths["loss"], stage2.scores.losses, clean_mask,
                     "clean", "noisy")
    correct_mask = stage2.y_pred == train.y_clean
    _split_histogram(paths["confidence"], stage2.scores.confidences,
                     correct_mask, "correct", "wrong")
    transfer = stage2.transfer
    counts = np.bincount(transfer.labeled.label, minlength=transfer.n_classes)
    with open(paths["class_counts"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series", "bin_left", "bin_right", "count"])
        for c in range(transfer.n_classes):
            writer.writerow(["labeled", c, c + 1, int(counts[c])])
    return paths
