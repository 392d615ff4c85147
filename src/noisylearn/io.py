"""Artifact serialization: checkpoints, transfer partitions, mixtures, datasets.

All JSON artifacts are written canonically (sorted keys, no whitespace,
shortest round-trip float repr), so save -> load -> save is byte-identical.
Every document carries a format_version; unknown versions are rejected.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .credibility import Gmm1D, TransferredLabels, labeled_records
from .data import LabeledDataset
from .errors import CheckpointError
from .numnet import Layer, MlpParams

FORMAT_VERSION = 1


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _write_text(path, text: str) -> None:
    Path(path).write_text(text + "\n", encoding="utf-8")


def _load_document(path, kind: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise CheckpointError(f"{kind} file {path}: not valid JSON ({e})") from e
    if not isinstance(doc, dict):
        raise CheckpointError(f"{kind} file {path}: top level must be an object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{kind} file {path}: unsupported format_version {version!r}")
    return doc


# ---------------------------------------------------------------------------
# Model checkpoints
# ---------------------------------------------------------------------------

def _encode_params(params: MlpParams) -> tuple[dict, dict]:
    """Each group's layer shapes, and its layers as JSON blobs."""
    shapes, blobs = {}, {}
    for group in ("encoder", "classifier"):
        layers = getattr(params, group)
        shapes[group] = [[int(l.weight.shape[0]), int(l.weight.shape[1])]
                         for l in layers]
        blobs[group] = [{"weight": l.weight.ravel().tolist(),
                         "bias": l.bias.tolist()} for l in layers]
    return shapes, blobs


def _decode_values(blob: dict, key: str, size: int, field: str) -> np.ndarray:
    """`blob[key]`, a list of `size` finite numbers (JSON may hold NaN)."""
    values = blob.get(key)
    if not isinstance(values, list):
        raise CheckpointError(f"checkpoint field {field}.{key}: expected a "
                              f"list of numbers, got {type(values).__name__}")
    for j, v in enumerate(values):
        if (not isinstance(v, (int, float)) or isinstance(v, bool)
                or not math.isfinite(v)):
            raise CheckpointError(f"checkpoint field {field}.{key}[{j}]: "
                                  f"expected a finite number, got {v!r}")
    if len(values) != size:
        raise CheckpointError(f"checkpoint field {field}.{key}: expected "
                              f"{size} values, got {len(values)}")
    return np.asarray(values, dtype=np.float64)


def _decode_layers(shapes, blobs, field: str) -> list[Layer]:
    if not isinstance(shapes, list) or not isinstance(blobs, list):
        raise CheckpointError(f"checkpoint field {field}: malformed")
    if len(shapes) != len(blobs):
        raise CheckpointError(
            f"checkpoint field {field}: {len(shapes)} shapes for "
            f"{len(blobs)} layers")
    layers = []
    for i, (shape, blob) in enumerate(zip(shapes, blobs)):
        if (not isinstance(shape, list) or len(shape) != 2
                or not all(isinstance(s, int) and s > 0 for s in shape)):
            raise CheckpointError(f"checkpoint field shapes.{field}[{i}]: "
                                  f"expected [fan_in, fan_out], got {shape!r}")
        if not isinstance(blob, dict):
            raise CheckpointError(f"checkpoint field {field}[{i}]: expected "
                                  f"an object, got {type(blob).__name__}")
        fan_in, fan_out = shape
        w = _decode_values(blob, "weight", fan_in * fan_out, f"{field}[{i}]")
        b = _decode_values(blob, "bias", fan_out, f"{field}[{i}]")
        layers.append(Layer(w.reshape(fan_in, fan_out), b))
    return layers


def _decode_params(shapes: dict, blobs: dict, prefix: str = "") -> MlpParams:
    """The MlpParams whose groups `blobs` holds; errors name `prefix`+group."""
    return MlpParams(**{group: _decode_layers(shapes.get(group),
                                              blobs.get(group), prefix + group)
                        for group in ("encoder", "classifier")})


def save_checkpoint(path, params: MlpParams, ema: MlpParams | None = None) -> None:
    shapes, blobs = _encode_params(params)
    doc = {"format_version": FORMAT_VERSION, "shapes": shapes, **blobs,
           "ema": None}
    if ema is not None:
        ema_shapes, doc["ema"] = _encode_params(ema)
        if ema_shapes != shapes:
            raise CheckpointError("ema shapes do not mirror the parameters")
    _write_text(path, canonical_json(doc))


def load_checkpoint(path) -> tuple[MlpParams, MlpParams | None]:
    doc = _load_document(path, "checkpoint")
    shapes = doc.get("shapes")
    if not isinstance(shapes, dict):
        raise CheckpointError(f"checkpoint file {path}: missing shapes")
    params = _decode_params(shapes, doc)
    ema = doc.get("ema")
    if not isinstance(ema, (dict, type(None))):
        raise CheckpointError(f"checkpoint field ema: expected an object or "
                              f"null, got {type(ema).__name__}")
    return params, None if ema is None else _decode_params(shapes, ema, "ema.")


# ---------------------------------------------------------------------------
# Transfer partitions
# ---------------------------------------------------------------------------

def save_transfer(path, transfer: TransferredLabels, n_samples: int) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "n_samples": n_samples,
        "n_classes": transfer.n_classes,
        "thresholds": {"tau_clean": transfer.tau_clean,
                       "tau_right": transfer.tau_right},
        "L": [{"index": i, "label": y, "origin": o}
              for i, y, o in transfer.labeled.tolist()],
        "U": transfer.unlabeled.tolist(),
    }
    _write_text(path, canonical_json(doc))


def load_transfer(path) -> tuple[TransferredLabels, int]:
    doc = _load_document(path, "transfer")
    n_classes = doc.get("n_classes")
    n_samples = doc.get("n_samples")
    if not isinstance(n_classes, int) or n_classes < 2:
        raise CheckpointError(f"transfer file {path}: bad n_classes")
    if not isinstance(n_samples, int) or n_samples < 1:
        raise CheckpointError(f"transfer file {path}: bad n_samples")
    thresholds = doc.get("thresholds") or {}
    index, label, origin = [], [], []
    for row in doc.get("L", []):
        try:
            i, y, o = int(row["index"]), int(row["label"]), str(row["origin"])
        except (KeyError, TypeError, ValueError) as e:
            raise CheckpointError(f"transfer file {path}: bad L entry "
                                  f"{row!r}") from e
        if o not in ("kept", "corrected"):
            raise CheckpointError(f"transfer file {path}: bad origin {o!r}")
        if not 0 <= y < n_classes:
            raise CheckpointError(f"transfer file {path}: label out of range "
                                  f"in entry {row!r}")
        index.append(i)
        label.append(y)
        origin.append(o)
    unlabeled = [int(i) for i in doc.get("U", [])]
    seen = set(index) | set(unlabeled)
    if len(seen) != len(index) + len(unlabeled) or seen != set(range(n_samples)):
        raise CheckpointError(
            f"transfer file {path}: L and U must partition [0, {n_samples})")
    transfer = TransferredLabels(
        labeled=labeled_records(index, label, origin),
        unlabeled=np.array(unlabeled, dtype=np.int64),
        tau_clean=float(thresholds.get("tau_clean", 0.5)),
        tau_right=float(thresholds.get("tau_right", 0.5)),
        n_classes=n_classes,
    )
    return transfer, n_samples


# ---------------------------------------------------------------------------
# Mixture snapshots
# ---------------------------------------------------------------------------

def save_gmm(path, gmm: Gmm1D) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "means": gmm.means.tolist(),
        "variances": gmm.variances.tolist(),
        "weights": gmm.weights.tolist(),
        "converged": bool(gmm.converged),
        "log_likelihood_trace": [float(v) for v in gmm.log_likelihood_trace],
    }
    _write_text(path, canonical_json(doc))


def load_gmm(path) -> Gmm1D:
    """Read a mixture; files without the EM fields load as converged."""
    doc = _load_document(path, "gmm")
    converged = doc.get("converged", True)
    trace = doc.get("log_likelihood_trace", [])
    if not isinstance(converged, bool):
        raise CheckpointError(f"gmm file {path}: converged must be a boolean")
    if not (isinstance(trace, list) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in trace)):
        raise CheckpointError(
            f"gmm file {path}: log_likelihood_trace must be a list of numbers")
    try:
        return Gmm1D(means=np.asarray(doc["means"], dtype=np.float64),
                     variances=np.asarray(doc["variances"], dtype=np.float64),
                     weights=np.asarray(doc["weights"], dtype=np.float64),
                     log_likelihood_trace=[float(v) for v in trace],
                     converged=converged)
    except (KeyError, ValueError) as e:
        raise CheckpointError(f"gmm file {path}: {e}") from e


# ---------------------------------------------------------------------------
# Dataset CSV
# ---------------------------------------------------------------------------

def save_dataset_csv(path, dataset: LabeledDataset) -> None:
    # csv.writer's bytes: neither float reprs nor ints need quoting
    d = dataset.n_features
    header = [f"x_{j}" for j in range(d)] + ["y_clean", "y_noisy"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for x, yc, yn in zip(dataset.X, dataset.y_clean.tolist(),
                             dataset.y_noisy.tolist()):
            fh.write(f"{','.join(map(repr, x.tolist()))},{yc},{yn}\r\n")


def load_dataset_csv(path, n_classes: int | None = None) -> LabeledDataset:
    from array import array  # a 70 kB extension: load it only to read CSVs
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if (header is None or len(header) < 3
                or header[-2:] != ["y_clean", "y_noisy"]):
            raise CheckpointError(
                f"dataset file {path}: expected x_*,y_clean,y_noisy header")
        d = len(header) - 2
        if header[:d] != [f"x_{j}" for j in range(d)]:
            raise CheckpointError(f"dataset file {path}: malformed x_ columns")
        X, yc, yn = array("d"), array("q"), array("q")  # no float objects
        for line, row in enumerate(reader, start=2):
            if len(row) != d + 2:
                raise CheckpointError(
                    f"dataset file {path}: line {line}: row with {len(row)} "
                    f"fields, expected {d + 2}")
            try:
                X.extend(map(float, row[:d]))
                yc.append(int(row[d]))
                yn.append(int(row[d + 1]))
            except (ValueError, OverflowError) as e:
                raise CheckpointError(
                    f"dataset file {path}: line {line}: {e}") from None
    if not yc:
        raise CheckpointError(f"dataset file {path}: no rows")
    X = np.frombuffer(X, dtype=np.float64).reshape(-1, d)
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise CheckpointError(f"dataset file {path}: non-finite feature value "
                              f"in row {i} (line {i + 2})")
    yc, yn = (np.frombuffer(y, dtype=np.int64) for y in (yc, yn))
    if n_classes is None:
        n_classes = int(max(yc.max(), yn.max())) + 1
    for column, y in (("y_clean", yc), ("y_noisy", yn)):
        i = int(np.argmax((y < 0) | (y >= n_classes)))
        if not 0 <= y[i] < n_classes:
            raise CheckpointError(
                f"dataset file {path}: {column} {y[i]} outside "
                f"[0, {n_classes}) in row {i} (line {i + 2})")
    return LabeledDataset(X, yc, yn, n_classes)
