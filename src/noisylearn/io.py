"""Artifact serialization: checkpoints, transfer partitions, datasets.

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

from .credibility import TransferredLabels, labeled_records
from .data import LabeledDataset
from .errors import CheckpointError
from .numnet import Layer, MlpParams

FORMAT_VERSION = 1


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _write_text(path, text: str) -> None:
    Path(path).write_text(text + "\n", encoding="utf-8")


def _load_document(path, kind: str) -> tuple[dict, str]:
    """The JSON object in `path`, and the `where` that names its fields."""
    name = f"{kind} file {path}"
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise CheckpointError(f"{name}: not valid JSON ({e})") from e
    version = _object(f"{name}: top level", doc).get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{name}: unknown format_version {version!r}")
    return doc, f"{path}: {kind} field "


def _number(where: str, value, integer=False, j: int | None = None):
    """`value` if it is an integer of size below 2**63 (not a bool) or, unless
    `integer`, a finite number, returned as a float. `where`, "<path>: <kind>
    field <name>", starts each error, with `[j]` after it for element `j`."""
    if (type(value) is int and abs(value) < 2 ** 63
            or not integer and type(value) is float and math.isfinite(value)):
        return value if integer else float(value)
    raise CheckpointError(
        f"{where}{'' if j is None else f'[{j}]'}: expected "
        f"{'an integer' if integer else 'a finite number'}, got {value!r}")


def _numbers(where: str, values, size: int | None = None,
             integer: bool = False) -> np.ndarray:
    """A list of `_number`s (`size` of them if given) as an array."""
    if not isinstance(values, list):
        raise CheckpointError(
            f"{where}: expected a list, got {type(values).__name__}")
    for j, v in enumerate(values):
        _number(where, v, integer, j)
    if size is not None and len(values) != size:
        raise CheckpointError(
            f"{where}: expected {size} values, got {len(values)}")
    return np.asarray(values, dtype=np.int64 if integer else np.float64)


def _object(where: str, value) -> dict:
    if not isinstance(value, dict):
        raise CheckpointError(
            f"{where}: expected an object, got {type(value).__name__}")
    return value


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


def _decode_layers(shapes, blobs, where: str, field: str) -> list[Layer]:
    if not (isinstance(shapes, list) and isinstance(blobs, list)
            and len(shapes) == len(blobs)):
        raise CheckpointError(f"{where}{field}: expected one layer per shape")
    layers = []
    for i, (shape, blob) in enumerate(zip(shapes, blobs)):
        at = f"{where}shapes.{field}[{i}]"
        fan_in, fan_out = _numbers(at, shape, 2, integer=True)
        if min(fan_in, fan_out) < 1:
            raise CheckpointError(f"{at}: expected sizes >= 1, got {shape!r}")
        blob = _object(f"{where}{field}[{i}]", blob)
        w = _numbers(f"{where}{field}[{i}].weight", blob.get("weight"),
                     fan_in * fan_out)
        b = _numbers(f"{where}{field}[{i}].bias", blob.get("bias"), fan_out)
        layers.append(Layer(w.reshape(fan_in, fan_out), b))
    return layers


def _decode_params(shapes: dict, blobs: dict, where: str) -> MlpParams:
    """The MlpParams whose groups `blobs` holds; errors name `where`+group."""
    groups = {g: _decode_layers(shapes.get(g), blobs.get(g), where, g)
              for g in ("encoder", "classifier")}
    try:
        return MlpParams(**groups)
    except ValueError as e:     # layer widths that do not chain
        raise CheckpointError(f"{where}shapes: {e}") from e


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
    doc, where = _load_document(path, "checkpoint")
    shapes = _object(where + "shapes", doc.get("shapes"))
    params, ema = _decode_params(shapes, doc, where), doc.get("ema")
    if not isinstance(ema, (dict, type(None))):
        raise CheckpointError(f"{where}ema: expected an object or null, got "
                              f"{type(ema).__name__}")
    return params, (None if ema is None
                    else _decode_params(shapes, ema, where + "ema."))


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
    doc, where = _load_document(path, "transfer")
    n_classes, n_samples = (_number(where + name, doc.get(name), True)
                            for name in ("n_classes", "n_samples"))
    if n_classes < 2 or n_samples < 1:
        raise CheckpointError(f"{where}n_classes, n_samples: expected at "
                              f"least 2 and 1, got {n_classes}, {n_samples}")
    thresholds = _object(where + "thresholds", doc.get("thresholds"))
    tau = [_number(f"{where}thresholds.{name}", thresholds.get(name))
           for name in ("tau_clean", "tau_right")]
    rows, entry = doc.get("L"), f"{path}: bad L entry: transfer field L"
    if not (isinstance(rows, list) and all(isinstance(r, dict) for r in rows)):
        raise CheckpointError(f"{entry}: expected a list of objects")
    index, label = (_numbers(f"{entry}.{key}", [row.get(key) for row in rows],
                             integer=True) for key in ("index", "label"))
    origin = [row.get("origin") for row in rows]
    for o in origin:
        if o not in ("kept", "corrected"):
            raise CheckpointError(f"{entry}.origin: bad origin {o!r}")
    out = (label < 0) | (label >= n_classes)
    if out.any():
        raise CheckpointError(f"{entry}.label: label out of range in entry "
                              f"{rows[np.argmax(out)]!r}")
    unlabeled = _numbers(where + "U", doc.get("U"), integer=True)
    if len(index) + len(unlabeled) != n_samples or not np.array_equal(
            np.sort(np.concatenate([index, unlabeled])), np.arange(n_samples)):
        raise CheckpointError(
            f"{where}L, U: L and U must partition [0, {n_samples})")
    labeled = labeled_records(index, label, origin)
    return TransferredLabels(labeled, unlabeled, *tau, n_classes), n_samples


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


def load_dataset_csv(path) -> LabeledDataset:
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
    # the class count comes from the labels, so only a negative one is bad
    n_classes = int(max(yc.max(), yn.max())) + 1
    for column, y in (("y_clean", yc), ("y_noisy", yn)):
        i = int(np.argmax(y < 0))
        if y[i] < 0:
            raise CheckpointError(
                f"dataset file {path}: {column} {y[i]} outside "
                f"[0, {n_classes}) in row {i} (line {i + 2})")
    return LabeledDataset(X, yc, yn, n_classes)
