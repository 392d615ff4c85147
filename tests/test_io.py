import csv
import json
import math

import numpy as np
import pytest

from noisylearn import credibility, data, io, numnet
from noisylearn.errors import CheckpointError


def sample_params():
    params = numnet.init_mlp([4, 6], [6, 3], seed=31)
    # exercise values that stress float round-tripping
    params.encoder[0].weight[0, 0] = 1.0 / 3.0
    params.encoder[0].bias[1] = -1e-17
    return params


def test_checkpoint_round_trip_exact(tmp_path):
    path = tmp_path / "model.json"
    params = sample_params()
    io.save_checkpoint(path, params)
    loaded, ema = io.load_checkpoint(path)
    assert ema is None
    for (na, wa), (nb, wb) in zip(params.walk(), loaded.walk()):
        assert na == nb
        assert np.array_equal(wa, wb), na


def test_checkpoint_round_trip_with_ema(tmp_path):
    path = tmp_path / "model.json"
    params = sample_params()
    shadow = params.clone()
    shadow.classifier[0].weight[:] += 0.25
    io.save_checkpoint(path, params, ema=shadow)
    _, ema = io.load_checkpoint(path)
    assert ema is not None
    assert np.array_equal(ema.classifier[0].weight,
                          shadow.classifier[0].weight)


def test_checkpoint_rejects_version_mismatch(tmp_path):
    path = tmp_path / "model.json"
    io.save_checkpoint(path, sample_params())
    doc = json.loads(path.read_text())
    doc["format_version"] = 999
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError):
        io.load_checkpoint(path)


def test_checkpoint_rejects_corrupt_shapes(tmp_path):
    path = tmp_path / "model.json"
    io.save_checkpoint(path, sample_params())
    doc = json.loads(path.read_text())
    doc["encoder"][0]["weight"] = doc["encoder"][0]["weight"][:-2]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError) as err:
        io.load_checkpoint(path)
    assert "weight" in str(err.value)


def corrupted(tmp_path, params, corrupt):
    """A checkpoint of `params` with an EMA, after `corrupt` edits its JSON."""
    path = tmp_path / "model.json"
    io.save_checkpoint(path, params, ema=params.clone())
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("corrupt,field", [
    (lambda doc: doc.update(ema=[]), "field ema:"),
    (lambda doc: doc["encoder"].__setitem__(0, "layer"), "field encoder[0]:"),
    (lambda doc: doc["classifier"][0]["weight"].__setitem__(2, "0.5"),
     "field classifier[0].weight[2]:"),
    (lambda doc: doc["ema"]["encoder"][0]["bias"].__setitem__(0, None),
     "field ema.encoder[0].bias[0]:"),
    (lambda doc: doc["encoder"][0]["bias"].__setitem__(1, math.nan),
     "field encoder[0].bias[1]: expected a finite number, got nan"),
], ids=["ema_list", "layer_string", "weight_string", "ema_bias_null",
        "bias_nan"])
def test_checkpoint_rejects_malformed_layers_naming_the_field(tmp_path,
                                                              corrupt, field):
    with pytest.raises(CheckpointError) as err:
        io.load_checkpoint(corrupted(tmp_path, sample_params(), corrupt))
    assert field in str(err.value)


def test_checkpoint_rejects_a_layer_without_weights(tmp_path):
    # a 1x1 layer, where np.asarray(None) would give the one value expected
    path = corrupted(tmp_path, numnet.init_mlp([], [1, 1], seed=0),
                     lambda doc: doc["classifier"][0].pop("weight"))
    with pytest.raises(CheckpointError,
                       match=r"classifier\[0\]\.weight: expected a list"):
        io.load_checkpoint(path)


def test_checkpoint_rejects_corrupt_ema_naming_its_field(tmp_path):
    path = tmp_path / "model.json"
    params = sample_params()
    io.save_checkpoint(path, params, ema=params.clone())
    doc = json.loads(path.read_text())
    layer = doc["ema"]["encoder"][0]
    layer["weight"] = layer["weight"][:-2]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match=r"ema\.encoder\[0\]\.weight"):
        io.load_checkpoint(path)
    other = numnet.init_mlp([4, 5], [5, 3], seed=0)
    with pytest.raises(CheckpointError, match="ema shapes do not mirror"):
        io.save_checkpoint(path, params, ema=other)


def test_transfer_round_trip(tmp_path):
    path = tmp_path / "transfer.json"
    labeled = credibility.labeled_records([0, 2], [2, 1], ["kept", "corrected"])
    transfer = credibility.TransferredLabels(labeled, np.array([1, 3]), 0.5,
                                             0.6, 3)
    io.save_transfer(path, transfer, n_samples=4)
    assert path.read_text() == (
        '{"L":[{"index":0,"label":2,"origin":"kept"},'
        '{"index":2,"label":1,"origin":"corrected"}],"U":[1,3],'
        '"format_version":1,"n_classes":3,"n_samples":4,'
        '"thresholds":{"tau_clean":0.5,"tau_right":0.6}}\n')
    loaded, n = io.load_transfer(path)
    assert n == 4
    assert loaded.tau_clean == 0.5 and loaded.tau_right == 0.6
    assert loaded.n_classes == 3
    assert [(e.index, e.label, e.origin) for e in loaded.labeled] == \
        [(0, 2, "kept"), (2, 1, "corrected")]
    assert loaded.unlabeled.tolist() == [1, 3]
    io.save_transfer(tmp_path / "again.json", loaded, n_samples=4)
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_transfer_rejects_broken_partition(tmp_path):
    path = tmp_path / "transfer.json"
    labeled = credibility.labeled_records([0], [2], ["kept"])
    transfer = credibility.TransferredLabels(labeled, np.array([1]), 0.5, 0.5,
                                             3)
    io.save_transfer(path, transfer, n_samples=2)
    doc = json.loads(path.read_text())
    doc["U"] = [0]  # now overlaps L and misses index 1
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError):
        io.load_transfer(path)


@pytest.mark.parametrize("row, message", [
    ({"index": 0, "label": 2}, "bad L entry"),
    ({"index": "x", "label": 2, "origin": "kept"}, "bad L entry"),
    ({"index": 0, "label": 2, "origin": "guessed"}, "bad origin 'guessed'"),
    ({"index": 0, "label": 3, "origin": "kept"}, "label out of range"),
])
def test_transfer_rejects_bad_entries(tmp_path, row, message):
    path = tmp_path / "transfer.json"
    transfer = credibility.TransferredLabels(
        credibility.labeled_records([], [], []), np.array([0, 1]), 0.5, 0.5, 3)
    io.save_transfer(path, transfer, n_samples=2)
    loaded, _ = io.load_transfer(path)          # an empty L loads back
    assert len(loaded.labeled) == 0 and loaded.unlabeled.tolist() == [0, 1]
    doc = json.loads(path.read_text())
    doc["L"], doc["U"] = [row], [1]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match=message):
        io.load_transfer(path)


def save_sample_transfer(path):
    labeled = credibility.labeled_records([0, 2], [2, 1],
                                          ["kept", "corrected"])
    transfer = credibility.TransferredLabels(labeled, np.array([1, 3]), 0.5,
                                             0.6, 3)
    io.save_transfer(path, transfer, n_samples=4)


ARTIFACTS = {  # kind: (write a valid file, load one)
    "transfer": (save_sample_transfer, io.load_transfer),
    "checkpoint": (lambda path: io.save_checkpoint(
        path, sample_params(), ema=sample_params()), io.load_checkpoint),
}


@pytest.mark.parametrize("kind, corrupt, message", [
    ("transfer", lambda doc: doc.update(U=7),
     "transfer field U: expected a list, got int"),
    ("transfer", lambda doc: doc["U"].__setitem__(0, 2.5),
     "transfer field U[0]: expected an integer, got 2.5"),
    ("transfer", lambda doc: doc["U"].__setitem__(1, 2 ** 64),
     "transfer field U[1]: expected an integer, got 18446744073709551616"),
    ("transfer", lambda doc: doc["L"][1].update(index=0.7),
     "bad L entry: transfer field L.index[1]: expected an integer, got 0.7"),
    ("transfer", lambda doc: doc["L"][0].update(label=True),
     "bad L entry: transfer field L.label[0]: expected an integer, got True"),
    ("transfer", lambda doc: doc.update(L={"index": 0}),
     "bad L entry: transfer field L: expected a list of objects"),
    ("transfer", lambda doc: doc.update(n_samples=4.0),
     "transfer field n_samples: expected an integer, got 4.0"),
    ("transfer", lambda doc: doc.update(thresholds=[0.5, 0.6]),
     "transfer field thresholds: expected an object, got list"),
    ("transfer", lambda doc: doc["thresholds"].update(tau_clean="abc"),
     "transfer field thresholds.tau_clean: expected a finite number, "
     "got 'abc'"),
    ("transfer", lambda doc: doc.pop("thresholds"),
     "transfer field thresholds: expected an object, got NoneType"),
    ("transfer", lambda doc: doc["thresholds"].pop("tau_right"),
     "transfer field thresholds.tau_right: expected a finite number, "
     "got None"),
    ("transfer", lambda doc: doc.pop("L"),
     "bad L entry: transfer field L: expected a list of objects"),
    ("transfer", lambda doc: doc.pop("U"),
     "transfer field U: expected a list, got NoneType"),
    ("checkpoint", lambda doc: doc.update(ema=[]),
     "checkpoint field ema: expected an object or null, got list"),
    ("checkpoint", lambda doc: doc["shapes"]["encoder"][0].__setitem__(1, 0),
     "checkpoint field shapes.encoder[0]: expected sizes >= 1, got [4, 0]"),
    ("checkpoint", lambda doc: (
        doc["shapes"]["classifier"].__setitem__(0, [7, 3]),
        doc["classifier"][0].update(weight=[0.5] * 21)),
     "checkpoint field shapes: layer widths do not chain: 6 -> 7"),
], ids=["U_int", "U_fraction", "U_huge", "L_index_fraction", "L_label_bool",
        "L_object", "n_samples_float", "thresholds_list", "tau_string",
        "thresholds_missing", "tau_right_missing", "L_missing", "U_missing",
        "ema_list",
        "shape_zero", "widths_unchained"])
def test_artifact_errors_start_with_the_file_and_name_the_field(
        tmp_path, kind, corrupt, message):
    save, load = ARTIFACTS[kind]
    path = tmp_path / f"{kind}.json"
    save(path)
    load(path)                                  # the uncorrupted file loads
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError) as err:
        load(path)
    assert str(err.value).startswith(f"{path}: {message}"), str(err.value)


def test_dataset_csv_round_trip_exact(tmp_path):
    path = tmp_path / "data.csv"
    ds = data.make_blobs(data.DatasetSpec(n_classes=3, n_per_class=8,
                                          n_features=5), seed=32)
    noisy = data.apply_noise(ds, data.NoiseSpec(kind="symmetric", ratio=0.5),
                             np.random.default_rng(33))
    io.save_dataset_csv(path, noisy)
    loaded = io.load_dataset_csv(path)
    assert np.array_equal(loaded.X, noisy.X)
    assert np.array_equal(loaded.y_clean, noisy.y_clean)
    assert np.array_equal(loaded.y_noisy, noisy.y_noisy)
    assert loaded.n_classes == 3
    header = path.read_text().splitlines()[0]
    assert header == ",".join([f"x_{i}" for i in range(5)]
                              + ["y_clean", "y_noisy"])


def csv_writer_reference(path, dataset):
    """The dataset CSV as `csv.writer` writes it: the format's reference."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x_{j}" for j in range(dataset.n_features)]
                        + ["y_clean", "y_noisy"])
        for i in range(len(dataset)):
            writer.writerow([repr(float(v)) for v in dataset.X[i]]
                            + [int(dataset.y_clean[i]),
                               int(dataset.y_noisy[i])])


def test_dataset_csv_bytes_match_csv_writer(tmp_path):
    ds = data.make_blobs(data.DatasetSpec(n_classes=3, n_per_class=4,
                                          n_features=7), seed=35)
    X = ds.X.copy()
    X[0] = [-0.0, 5e-324, 1e-300, 1e300, 2.0, 0.1, 1.0 / 3.0]
    X[1] = -X[0]
    ds = data.LabeledDataset(X, ds.y_clean, ds.y_noisy, ds.n_classes)
    io.save_dataset_csv(tmp_path / "data.csv", ds)
    csv_writer_reference(tmp_path / "ref.csv", ds)
    written = (tmp_path / "data.csv").read_bytes()
    assert written == (tmp_path / "ref.csv").read_bytes()
    assert written.count(b"\r\n") == len(ds) + 1
    assert written.split(b"\r\n")[1].startswith(
        b"-0.0,5e-324,1e-300,1e+300,2.0,0.1,0.3333333333333333,")
    loaded = io.load_dataset_csv(tmp_path / "data.csv")
    assert loaded.X.tobytes() == ds.X.tobytes()
    assert np.array_equal(loaded.y_clean, ds.y_clean)
    assert np.array_equal(loaded.y_noisy, ds.y_noisy)


@pytest.mark.parametrize("line, message", [
    ("0.5,1.5,0,1,7", "line 3: row with 5 fields, expected 4"),
    ("0.5,1.5,0", "line 3: row with 3 fields, expected 4"),
    ("0.5,abc,0,1", "line 3: could not convert string to float: 'abc'"),
    ("0.5,1.5,0,x", "line 3: invalid literal for int"),
    ("0.5,1.5,0,99999999999999999999", "line 3: "),
    ("0.5,nan,0,1", r"non-finite feature value in row 1 \(line 3\)"),
    ("0.5,1.5,0,-1", r"y_noisy -1 outside \[0, 2\) in row 1 \(line 3\)"),
])
def test_dataset_csv_rejects_bad_rows(tmp_path, line, message):
    path = tmp_path / "data.csv"
    path.write_text(f"x_0,x_1,y_clean,y_noisy\n1.0,2.0,1,1\n{line}\n")
    with pytest.raises(CheckpointError, match=message):
        io.load_dataset_csv(path)


def test_canonical_json_is_stable():
    a = io.canonical_json({"b": 1, "a": [1.5, 2]})
    b = io.canonical_json({"a": [1.5, 2], "b": 1})
    assert a == b
    assert " " not in a


def test_files_end_with_newline(tmp_path):
    path = tmp_path / "model.json"
    io.save_checkpoint(path, sample_params())
    assert path.read_bytes().endswith(b"\n")
