import csv
import dataclasses
import json
import math
import pkgutil
import re
import subprocess
import sys

import numpy as np
import pytest

import noisylearn
from noisylearn import credibility, data, harness, io, numnet
from noisylearn.errors import ConfigError, NumericError
from util import child_env


def tiny_config(**overrides):
    base = {
        "seed": 3,
        "dataset": {"n_classes": 3, "n_per_class": 40, "n_features": 6,
                    "separation": 4.0, "sigma": 0.8},
        "noise": {"kind": "symmetric", "ratio": 0.4},
        "test_fraction": 0.2,
        "stage1": {"epochs": 4, "batch_size": 32},
        "stage2": {"epochs": 6},
        "stage3": {"epochs": 3, "batch_size": 16},
        "supervised": {"epochs": 5, "batch_size": 32},
    }
    base.update(overrides)
    return harness.config_from_dict(base)


# ---------------------------------------------------------------------------
# seeds


def test_derive_seed_stable_and_distinct():
    assert harness.derive_seed(0, 0) == 2968811710
    assert harness.derive_seed(0, harness.STREAM_STAGE1) == 2613022947
    streams = [harness.derive_seed(7, s) for s in range(8)]
    assert len(set(streams)) == 8
    assert harness.derive_seed(7, 0) != harness.derive_seed(8, 0)


# ---------------------------------------------------------------------------
# metrics log


def test_metrics_log_round_trip(tmp_path):
    log = harness.MetricsLog()
    log.add("run", 0, "test", "accuracy", 0.125)
    log.add("run", 1, "test", "accuracy", 1.0 / 3.0)
    log.add("run", 0, "train", "ce_loss", 2.5)
    path = tmp_path / "metrics.csv"
    log.to_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["run_id", "epoch", "split", "metric", "value"]
    assert rows[1] == ["run", "0", "test", "accuracy", "0.125"]
    # repr round-trips doubles exactly
    assert float(rows[2][4]) == 1.0 / 3.0


def test_metrics_log_rejects_out_of_order_epochs():
    log = harness.MetricsLog()
    log.add("run", 1, "test", "accuracy", 0.5)
    with pytest.raises(ConfigError):
        log.add("run", 1, "test", "accuracy", 0.6)
    with pytest.raises(ConfigError):
        log.add("run", 0, "test", "accuracy", 0.6)
    # independent series keep their own clocks
    log.add("run", 0, "train", "accuracy", 0.1)
    log.add("other", 0, "test", "accuracy", 0.2)


def test_metrics_log_series_and_run_ids():
    log = harness.MetricsLog()
    for epoch, value in enumerate([0.1, 0.4, 0.3]):
        log.add("a", epoch, "test", "accuracy", value)
    log.add("b", 0, "test", "accuracy", 0.9)
    assert log.series("a", "accuracy") == [0.1, 0.4, 0.3]
    assert log.run_ids() == ["a", "b"]


def test_best_last_windows():
    accs = [0.1, 0.9] + [0.5] * 10
    best, last = harness.best_last(accs)
    assert best == 0.9
    assert last == pytest.approx(0.5)
    best2, last2 = harness.best_last([0.2, 0.4])
    assert best2 == 0.4
    assert last2 == pytest.approx(0.3)


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_reports_per_class_accuracy():
    X = np.array([[1.0, 0.0], [1.0, 0.1], [0.0, 1.0], [0.1, 1.0]])
    test = data.LabeledDataset(X=X, y_clean=np.array([0, 0, 1, 1]),
                               y_noisy=np.array([0, 0, 1, 1]), n_classes=2)
    params = numnet.MlpParams(
        encoder=[], classifier=[numnet.Layer(np.eye(2), np.zeros(2))])
    top1, per_class = harness.evaluate(params, test)
    assert top1 == 1.0
    assert np.allclose(per_class, [1.0, 1.0])


def test_evaluate_takes_the_class_from_the_logits(monkeypatch):
    """The argmax of the logits, the lowest index on exact ties; no
    softmax runs, and non-finite logits raise."""
    X = np.array([[1.0, 1.0], [-1e-17, 0.0], [0.0, 1.0]])
    test = data.LabeledDataset(X=X, y_clean=np.array([0, 1, 1]),
                               y_noisy=np.array([0, 1, 1]), n_classes=2)
    params = numnet.MlpParams(
        encoder=[], classifier=[numnet.Layer(np.eye(2), np.zeros(2))])
    monkeypatch.setattr(numnet, "softmax_rows", None)
    top1, per_class = harness.evaluate(params, test)
    assert top1 == 1.0
    assert per_class.tolist() == [1.0, 1.0]
    params.classifier[0].weight[1, 1] = np.nan
    with pytest.raises(NumericError, match="non-finite logits"):
        harness.evaluate(params, test)


def test_evaluate_rejects_empty():
    ds = data.make_blobs(data.DatasetSpec(n_classes=2, n_per_class=2), seed=0)
    empty = ds.subset(np.array([], dtype=int))
    params = numnet.init_mlp([16, 4], [4, 2], seed=0)
    with pytest.raises(ConfigError):
        harness.evaluate(params, empty)


# ---------------------------------------------------------------------------
# config loading


def test_config_requires_seed():
    with pytest.raises(ConfigError):
        harness.config_from_dict({})


def test_config_rejects_unknown_keys():
    # the last two are switches that no longer exist
    for doc, key in (({"seed": 1, "dataset": {"n_clases": 3}}, "n_clases"),
                     ({"seed": 1, "mystery": True}, "mystery"),
                     ({"seed": 1, "run_stage3": False}, "run_stage3"),
                     ({"seed": 1, "stage3": {"count_ordered_pairs": False}},
                      "count_ordered_pairs")):
        with pytest.raises(ConfigError) as err:
            harness.config_from_dict(doc)
        assert key in str(err.value)


@pytest.mark.parametrize("section, values, field", [
    ("stage2", {"batch_size": 0}, "batch_size"),
    ("stage2", {"epochs": 0}, "epochs"),
    ("stage2", {"lr": 0}, "lr"),
    ("stage2", {"momentum": 1.0}, "momentum"),
    ("stage2", {"tau_clean": 1.5}, "tau_clean"),
    ("stage2", {"tau_right": -0.1}, "tau_right"),
    ("stage3", {"lr": 0}, "lr"),
    ("stage3", {"lr": 0.001, "eta_min": 0.01}, "eta_min"),
    ("stage3", {"eta_min": -0.1}, "eta_min"),
    ("stage1", {"learning_rate": 0}, "learning_rate"),
    ("stage1", {"learning_rate": 1e-4}, "eta_min"),
    ("supervised", {"lr": 0, "eta_min": 0}, "lr"),
    ("dataset", {"n_classes": 1}, "n_classes"),
    ("dataset", {"n_per_class": 0}, "n_per_class"),
    ("dataset", {"n_features": 1}, "n_features"),
    ("dataset", {"separation": 0.0}, "separation"),
    ("dataset", {"sigma": -1.0}, "sigma"),
    ("noise", {"ratio": 1.5}, "ratio"),
    ("noise", {"ratio": -0.1}, "ratio"),
    ("stage3", {"lambda_lu": -1.0}, "lambda_lu"),
    ("stage3", {"lambda_uu": -1.0}, "lambda_uu"),
    ("stage1", {"projection_width": 0}, "projection_width"),
    ("seed", -1, "seed"),
    # fields that the noise kind would ignore
    ("noise", {"kind": "none", "ratio": 0.4}, "ratio"),
    ("noise", {"kind": "none", "exclude_true_class": True},
     "exclude_true_class"),
    ("noise", {"kind": "none", "pair_map": {"0": 1}}, "pair_map"),
    ("noise", {"kind": "symmetric", "ratio": 0.4, "pair_map": {"0": 1}},
     "pair_map"),
    ("noise", {"kind": "asymmetric", "ratio": 0.4,
               "exclude_true_class": True}, "exclude_true_class"),
    ("test_fraction", 0, "test_fraction"),
    ("test_fraction", 1, "test_fraction"),
    ("test_fraction", 1.5, "test_fraction"),
    # the class bound comes from the dataset section, so no section is named
    ("noise", {"kind": "asymmetric", "ratio": 0.4, "pair_map": {"0": 0}},
     "noise.pair_map"),
    ("noise", {"kind": "asymmetric", "ratio": 0.4, "pair_map": {"0": 7}},
     "noise.pair_map"),
    ("dataset", {"n_per_class": 1}, "n_per_class"),
    # numbers a float field cannot hold
    ("dataset", {"separation": math.inf}, "dataset.separation"),
    ("stage1", {"learning_rate": 1e999}, "stage1.learning_rate"),
    ("stage2", {"lr": math.nan}, "stage2.lr"),
    ("stage3", {"lr": 10 ** 400}, "stage3.lr"),
    ("stage3", {"augmentation": {"scale_range": [0.8, -math.inf]}},
     "stage3.augmentation.scale_range[1]"),
    # ints a C long cannot hold
    ("dataset", {"n_per_class": 10 ** 30}, "dataset.n_per_class"),
    ("stage1", {"epochs": 2 ** 63}, "stage1.epochs"),
    ("seed", -2 ** 63, "seed"),
])
def test_config_range_errors_name_the_field(section, values, field):
    with pytest.raises(ConfigError) as err:
        harness.config_from_dict({"seed": 1, "dataset": {"n_classes": 3},
                                  section: values})
    message = str(err.value)
    if " expects " in message:             # a type check names the path
        assert message.startswith((
            f"{field} expects a finite float",
            f"{field} expects an int of size below 2**63")), message
    else:    # top-level fields and checks across sections name no section
        where = ("config: " if section in ("seed", "test_fraction")
                 or "." in field else f"config section {section}: ")
        assert where in message
        assert field in message


def test_config_file_that_json_cannot_read_is_a_config_error(tmp_path):
    path = tmp_path / "config.json"
    for raw in (b'{"seed": 1, "dataset": {"n_per_class": ' + b"1" * 5000
                + b"}}", b'{"seed": 1, "\xff": 0}'):
        path.write_bytes(raw)
        with pytest.raises(ConfigError, match="not valid JSON"):
            harness.load_config(path)


def test_config_defaults_and_coercions(tmp_path):
    doc = {"seed": 9,
           "noise": {"kind": "asymmetric", "ratio": 0.4,
                     "pair_map": {"0": 1, "2": 3}},
           "stage3": {"augmentation": {"jitter_sigma": 0.1,
                                       "scale_range": [0.9, 1.1],
                                       "drop_prob": 0.0}}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    config = harness.load_config(path)
    assert config.seed == 9
    assert config.noise.pair_map == {0: 1, 2: 3}
    assert config.stage3.augmentation.scale_range == (0.9, 1.1)
    assert config.stage2.tau_clean == 0.5
    assert config.stage3.lambda_u == 50.0


# ---------------------------------------------------------------------------
# data generation


def test_generate_data_noise_applies_to_train_only():
    config = tiny_config()
    train, test = harness.generate_data(config)
    assert np.any(train.y_noisy != train.y_clean)
    assert np.array_equal(test.y_noisy, test.y_clean)
    assert len(train) == 96 and len(test) == 24
    # balanced stratified split
    assert np.array_equal(np.bincount(test.y_clean), [8, 8, 8])


def test_generate_data_deterministic():
    a_train, a_test = harness.generate_data(tiny_config())
    b_train, b_test = harness.generate_data(tiny_config())
    assert np.array_equal(a_train.X, b_train.X)
    assert np.array_equal(a_train.y_noisy, b_train.y_noisy)
    assert np.array_equal(a_test.X, b_test.X)


# ---------------------------------------------------------------------------
# supervised reference loop


def test_train_supervised_respects_frozen_groups(tiny_blobs):
    params = numnet.init_mlp([6, 8], [8, 3], seed=4)
    frozen_before = [(n, a.copy()) for n, a in params.walk()
                     if n.startswith("encoder.")]
    config = harness.SupervisedConfig(epochs=3, batch_size=32)
    harness.train_supervised(params, tiny_blobs.X, tiny_blobs.y_clean, 3,
                             config, seed=5, frozen=("encoder",))
    for (name, old), (n2, new) in zip(
            frozen_before,
            [(n, a) for n, a in params.walk() if n.startswith("encoder.")]):
        assert np.array_equal(old, new), name


def test_train_supervised_learns_clean_blobs(tiny_blobs):
    params = numnet.init_mlp([6, 16, 8], [8, 3], seed=6)
    config = harness.SupervisedConfig(epochs=50, batch_size=32)
    result = harness.train_supervised(params, tiny_blobs.X,
                                      tiny_blobs.y_clean, 3, config, seed=7,
                                      test_dataset=tiny_blobs)
    assert result.test_accuracy[-1] > 0.95
    assert len(result.train_loss) == 50


# ---------------------------------------------------------------------------
# experiments on tiny configs


def test_decoupling_logs_all_regimes():
    log = harness.run_decoupling_experiment(tiny_config())
    assert set(log.run_ids()) == set(harness.DECOUPLING_REGIMES)
    for regime in harness.DECOUPLING_REGIMES:
        assert len(log.series(regime, "accuracy")) == 5
        assert len(log.series(regime, "ce_loss", split="train")) == 5


def test_pipeline_tiny_end_to_end():
    result = harness.run_pipeline(tiny_config())
    assert len(result.stage3.history) == 3
    assert result.stage2.transfer.n_classes == 3
    labeled = {e.index for e in result.stage2.transfer.labeled}
    assert labeled.union(result.stage2.transfer.unlabeled) == set(range(96))
    rows = result.metrics.series("stage3", "accuracy")
    assert len(rows) == 3


def test_run_stage2_warns_when_a_set_is_empty(capsys):
    config = tiny_config()
    train, _ = harness.generate_data(config)
    encoder = numnet.init_mlp([6, 8], [8, 3], seed=3)
    result = harness.run_stage2(encoder, train, config.stage2, seed=4)
    assert len(result.transfer.labeled) and len(result.transfer.unlabeled)
    assert capsys.readouterr().err == ""
    # tau_clean = 0 keeps every row, so U is empty
    keep_all = harness.Stage2Config(epochs=6, tau_clean=0.0)
    result = harness.run_stage2(encoder, train, keep_all, seed=4)
    assert len(result.transfer.unlabeled) == 0
    assert capsys.readouterr().err == (
        f"warning: stage 2 left L or U empty: |L|={len(train)}, |U|=0\n")


def test_run_stage2_warns_when_em_hits_max_iter(capsys, monkeypatch):
    config = tiny_config()
    train, _ = harness.generate_data(config)
    encoder = numnet.init_mlp([6, 8], [8, 3], seed=3)
    fit = credibility.fit_gmm_em
    monkeypatch.setattr(credibility, "fit_gmm_em",
                        lambda values: fit(values, max_iter=2))
    harness.run_stage2(encoder, train, config.stage2, seed=4)
    lines = capsys.readouterr().err.splitlines()[:2]
    assert len(lines) == 2
    for name, line in zip(("loss", "confidence"), lines):
        assert re.fullmatch(
            f"warning: {name} GMM EM hit max_iter=2 without converging "
            r"\(last step [+-]\d\.\de[+-]\d\d, tol 1e-06\)", line), line


def test_run_stage2_warns_when_a_class_has_no_L_row(capsys, monkeypatch):
    config = tiny_config()
    train, _ = harness.generate_data(config)
    encoder = numnet.init_mlp([6, 8], [8, 3], seed=3)
    transfer = harness.transfer_labels

    def without_class_1(*args):
        full = transfer(*args)
        out = full.labeled.label == 1
        assert out.any() and not out.all()
        return dataclasses.replace(
            full, labeled=full.labeled[~out],
            unlabeled=np.union1d(full.unlabeled, full.labeled.index[out]))

    monkeypatch.setattr(harness, "transfer_labels", without_class_1)
    result = harness.run_stage2(encoder, train, config.stage2, seed=4)
    assert 1 not in result.transfer.labeled.label
    assert capsys.readouterr().err == (
        "warning: stage 2 left classes [1] out of L\n")


def test_encoder_bytes_do_not_depend_on_labels(tmp_path):
    """Stage 1 reads the inputs only: no noise kind, ratio or later stage
    changes the encoder it writes."""
    settings = [
        {"noise": {"kind": "none"}},
        {"noise": {"kind": "symmetric", "ratio": 0.4}},
        {"noise": {"kind": "asymmetric", "ratio": 0.4}},
        {"noise": {"kind": "symmetric", "ratio": 0.9}},
    ]
    labels, encoders = set(), set()
    for i, overrides in enumerate(settings):
        result = harness.run_pipeline(tiny_config(**overrides))
        path = tmp_path / f"encoder_{i}.json"
        io.save_checkpoint(path, result.stage1.encoder)
        labels.add(result.train.y_noisy.tobytes())
        encoders.add(path.read_bytes())
    assert len(labels) == len(settings) and len(encoders) == 1


def test_ablation_grid_runs_all_cells():
    config = tiny_config()
    log = harness.run_ablation(config)
    ids = set(log.run_ids())
    assert ids == {"cbs_on_gsr_on", "cbs_on_gsr_off",
                   "cbs_off_gsr_on", "cbs_off_gsr_off"}
    for run_id in ids:
        assert len(log.series(run_id, "accuracy")) == 3
        assert len(log.series(run_id, "best_accuracy")) == 1


def test_runners_release_after_every_stage(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "_release_freed_memory",
                        lambda: calls.append(1))
    harness.run_pipeline(tiny_config())
    assert len(calls) == 3
    calls.clear()
    harness.run_ablation(tiny_config())
    assert len(calls) == 2 + len(harness.ABLATION_CELLS)


# ---------------------------------------------------------------------------
# histograms


def test_emit_histograms_layout(tmp_path):
    rng = np.random.default_rng(8)
    train = data.make_blobs(data.DatasetSpec(n_classes=3, n_per_class=30),
                            seed=9)
    train = data.apply_noise(train, data.NoiseSpec(kind="symmetric",
                                                   ratio=0.5),
                             np.random.default_rng(10))
    n = len(train)
    losses = rng.exponential(1.0, n)
    confs = rng.random(n)
    y_pred = rng.integers(0, 3, n)
    rows = np.arange(0, n, 2)
    labeled = credibility.labeled_records(rows, train.y_noisy[rows],
                                          ["kept"] * rows.size)
    transfer = credibility.TransferredLabels(
        labeled, np.arange(1, n, 2), 0.5, 0.5, 3)
    scores = credibility.CredibilityScores(p_clean=None, p_right=None,
                                           losses=losses, confidences=confs)
    stage2 = credibility.Stage2Result(probe=None, scores=scores,
                                      y_pred=y_pred, transfer=transfer)
    paths = harness.emit_histograms(tmp_path, train, stage2)
    assert set(paths) == {"loss", "confidence", "class_counts"}
    assert paths["loss"].name == "loss_histogram.csv"
    with open(paths["loss"]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["series", "bin_left", "bin_right", "count"]
    body = rows[1:]
    assert {r[0] for r in body} == {"clean", "noisy"}
    assert sum(1 for r in body if r[0] == "clean") == harness.N_BINS
    # counts per series sum to the series population
    n_clean = int(np.sum(train.y_noisy == train.y_clean))
    assert sum(int(r[3]) for r in body if r[0] == "clean") == n_clean
    assert sum(int(r[3]) for r in body if r[0] == "noisy") == n - n_clean
    with open(paths["class_counts"]) as fh:
        label_rows = list(csv.reader(fh))[1:]
    assert sum(int(r[3]) for r in label_rows) == len(labeled)
    assert [int(r[3]) for r in label_rows] == [
        sum(1 for e in labeled if e.label == c) for c in range(3)]


def test_emit_histograms_of_a_constant_statistic_span_one_unit(tmp_path):
    train = data.make_blobs(data.DatasetSpec(n_classes=3, n_per_class=10),
                            seed=9)
    n = len(train)
    rows = np.arange(n)
    transfer = credibility.TransferredLabels(
        credibility.labeled_records(rows, train.y_noisy, ["kept"] * n),
        np.arange(0), 0.5, 0.5, 3)
    scores = credibility.CredibilityScores(
        p_clean=None, p_right=None, losses=np.full(n, 0.25),
        confidences=np.full(n, 0.25))
    stage2 = credibility.Stage2Result(probe=None, scores=scores,
                                      y_pred=train.y_clean, transfer=transfer)
    paths = harness.emit_histograms(tmp_path, train, stage2)
    for kind, series in (("loss", "clean"), ("confidence", "correct")):
        with open(paths[kind]) as fh:
            body = [r for r in list(csv.reader(fh))[1:] if r[0] == series]
        assert len(body) == harness.N_BINS
        assert float(body[0][1]) == 0.25 and float(body[-1][2]) == 1.25
        assert [int(r[3]) for r in body] == [n] + [0] * (harness.N_BINS - 1)


@pytest.mark.parametrize("module", sorted(
    m.name for m in pkgutil.iter_modules(noisylearn.__path__)
    if m.name != "__main__"))   # importing __main__ runs the CLI
def test_each_module_imports_on_its_own(module):
    """A fresh interpreter imports `noisylearn.<module>` first and alone: the
    package imports nothing eagerly, so an import cycle would show here."""
    out = subprocess.run([sys.executable, "-c", f"import noisylearn.{module}"],
                         capture_output=True, text=True, env=child_env())
    assert out.returncode == 0, out.stderr
