import csv
import json
import subprocess
import sys

import pytest

from noisylearn import io, numnet
from util import child_env


def run_cli(*args, cwd):
    return subprocess.run([sys.executable, "-m", "noisylearn", *args],
                          capture_output=True, text=True, cwd=cwd,
                          env=child_env())


def write_tiny_config(path, **overrides):
    doc = {
        "seed": 5,
        "dataset": {"n_classes": 3, "n_per_class": 40, "n_features": 6,
                    "separation": 4.0, "sigma": 0.8},
        "noise": {"kind": "symmetric", "ratio": 0.4},
        "test_fraction": 0.2,
        "stage1": {"epochs": 4, "batch_size": 32},
        "stage2": {"epochs": 5},
        "stage3": {"epochs": 3, "batch_size": 16},
        "supervised": {"epochs": 4, "batch_size": 32},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


def test_stagewise_flow(tmp_path):
    config = str(write_tiny_config(tmp_path / "config.json"))
    gen = run_cli("gen-data", "--config", config, "--out", "train.csv",
                  "--test-out", "test.csv", cwd=tmp_path)
    assert gen.returncode == 0, gen.stderr
    assert (tmp_path / "train.csv").exists()
    assert (tmp_path / "test.csv").exists()

    s1 = run_cli("stage1", "--config", config, "--data", "train.csv",
                 "--out", "encoder.json", "--loss-csv", "stage1.csv",
                 cwd=tmp_path)
    assert s1.returncode == 0, s1.stderr
    with open(tmp_path / "stage1.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["run_id", "epoch", "split", "metric", "value"]
    assert len(rows) == 5
    assert all(row[3] == "nt_xent_loss" for row in rows[1:])

    s2 = run_cli("stage2", "--config", config, "--encoder", "encoder.json",
                 "--data", "train.csv", "--out", "transfer.json",
                 "--classifier-out", "classifier.json", "--hist-dir", "hists",
                 cwd=tmp_path)
    assert s2.returncode == 0, s2.stderr
    assert s2.stderr.splitlines() == [
        "warning: stage 2 left classes [2] out of L"]
    transfer = json.loads((tmp_path / "transfer.json").read_text())
    assert transfer["n_samples"] == 96
    assert len(transfer["L"]) + len(transfer["U"]) == 96
    assert (tmp_path / "hists" / "loss_histogram.csv").exists()

    s3 = run_cli("stage3", "--transfer", "transfer.json", "--encoder",
                 "encoder.json", "--classifier", "classifier.json",
                 "--config", config, "--data", "train.csv",
                 "--test-data", "test.csv", "--out", "model.json",
                 "--metrics", "stage3.csv", cwd=tmp_path)
    assert s3.returncode == 0, s3.stderr
    with open(tmp_path / "stage3.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["run_id", "epoch", "split", "metric", "value"]
    # 3 epochs x (4 loss parts + accuracy + accuracy_ema)
    assert len(rows) == 1 + 3 * 6
    assert {row[0] for row in rows[1:]} == {"stage3"}

    ev = run_cli("eval", "--model", "model.json", "--data", "test.csv",
                 cwd=tmp_path)
    assert ev.returncode == 0, ev.stderr
    assert ev.stdout.startswith("top1 ")
    assert "class 2:" in ev.stdout
    ev_ema = run_cli("eval", "--model", "model.json", "--data", "test.csv",
                     "--ema", cwd=tmp_path)
    assert ev_ema.returncode == 0, ev_ema.stderr


def test_stage_commands_reproduce_the_pipeline(tmp_path):
    config = str(write_tiny_config(tmp_path / "config.json"))
    warnings = {}
    for command, *paths in (
            ("gen-data", "--out", "train.csv", "--test-out", "test.csv"),
            ("stage1", "--data", "train.csv", "--out", "encoder.json",
             "--loss-csv", "stage1.csv"),
            ("stage2", "--encoder", "encoder.json", "--data", "train.csv",
             "--out", "transfer.json", "--classifier-out", "classifier.json",
             "--hist-dir", "hists"),
            ("stage3", "--transfer", "transfer.json", "--encoder",
             "encoder.json", "--classifier", "classifier.json", "--data",
             "train.csv", "--test-data", "test.csv", "--out", "model.json",
             "--metrics", "stage3.csv"),
            ("pipeline", "--out-dir", "run")):
        out = run_cli(command, "--config", config, *paths, cwd=tmp_path)
        assert out.returncode == 0, (command, out.stderr)
        warnings[command] = [line for line in out.stderr.splitlines()
                             if line.startswith("warning: ")]
    # the tiny config's L lacks class 2; both runs of stage 2 say so
    assert warnings["stage2"] == warnings["pipeline"] == [
        "warning: stage 2 left classes [2] out of L"]
    for name in ("train.csv", "test.csv", "encoder.json", "classifier.json",
                 "transfer.json", "model.json"):
        assert (tmp_path / name).read_bytes() == \
            (tmp_path / "run" / name).read_bytes(), name
    for name in ("loss_histogram.csv", "confidence_histogram.csv",
                 "labeled_class_counts.csv"):
        assert (tmp_path / "hists" / name).read_bytes() == \
            (tmp_path / "run" / "histograms" / name).read_bytes(), name

    def rows(name):
        with open(tmp_path / name, newline="") as fh:
            return list(csv.reader(fh))

    staged = rows("stage1.csv") + rows("stage3.csv")[1:]
    pipeline = [row for row in rows("run/metrics.csv") if row[0] != "stage2"]
    assert staged == pipeline


def test_pipeline_writes_artifacts(tmp_path):
    config = write_tiny_config(tmp_path / "config.json")
    out = run_cli("pipeline", "--config", str(config), "--out-dir", "run",
                  cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    run_dir = tmp_path / "run"
    for name in ("train.csv", "test.csv", "encoder.json", "classifier.json",
                 "model.json", "transfer.json", "metrics.csv"):
        assert (run_dir / name).exists(), name
    assert (run_dir / "histograms" / "confidence_histogram.csv").exists()


def test_decouple_prints_summary(tmp_path):
    config = write_tiny_config(tmp_path / "config.json")
    out = run_cli("decouple", "--config", str(config), "--metrics",
                  "decouple.csv", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    for regime in ("clean", "retrain_representation", "retrain_classifier",
                   "noisy"):
        assert regime in out.stdout
    with open(tmp_path / "decouple.csv") as fh:
        header = next(csv.reader(fh))
    assert header == ["run_id", "epoch", "split", "metric", "value"]


def test_ablate_multi_seed_suffixes(tmp_path):
    config = write_tiny_config(tmp_path / "config.json")
    out = run_cli("ablate", "--config", str(config), "--metrics",
                  "ablate.csv", "--seeds", "2", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    with open(tmp_path / "ablate.csv") as fh:
        run_ids = {row[0] for row in csv.reader(fh)} - {"run_id"}
    assert "cbs_on_gsr_on_s0" in run_ids
    assert "cbs_on_gsr_on_s1" in run_ids


def test_ablate_rejects_fewer_than_one_seed(tmp_path):
    config = write_tiny_config(tmp_path / "config.json")
    out = run_cli("ablate", "--config", str(config), "--metrics",
                  "ablate.csv", "--seeds", "0", cwd=tmp_path)
    assert out.returncode == 2, (out.returncode, out.stderr)
    assert "--seeds" in out.stderr, out.stderr
    assert not (tmp_path / "ablate.csv").exists()


def test_stage1_learning_rate_below_default_floor(tmp_path):
    # 1e-4 is below the schedule's default floor of 2e-4
    config = write_tiny_config(tmp_path / "config.json",
                               stage1={"learning_rate": 1e-4})
    out = run_cli("stage1", "--config", str(config), "--data", "train.csv",
                  "--out", "encoder.json", cwd=tmp_path)
    assert out.returncode == 2, (out.returncode, out.stderr)
    assert "config section stage1: " in out.stderr, out.stderr
    assert "eta_min" in out.stderr, out.stderr
    assert not (tmp_path / "encoder.json").exists()


def test_missing_file_exits_two(tmp_path):
    config = write_tiny_config(tmp_path / "config.json")
    out = run_cli("stage1", "--config", str(config), "--data", "nope.csv",
                  "--out", "x.json", cwd=tmp_path)
    assert out.returncode == 2
    assert "nope.csv" in out.stderr, out.stderr


def test_bad_config_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dataset": {"n_classes": 3}}))  # no seed
    out = run_cli("pipeline", "--config", str(bad), "--out-dir", "run",
                  cwd=tmp_path)
    assert out.returncode == 2
    assert "seed" in out.stderr
    # out-of-range values exit 2 at load time, naming section and field
    for section, values, field in (
            ("stage2", {"batch_size": 0}, "batch_size"),
            ("stage2", {"lr": 0}, "lr"),
            ("stage3", {"lr": 0}, "lr"),
            ("stage1", {"learning_rate": 0}, "learning_rate"),
            ("stage3", {"lr": 0.001, "eta_min": 0.002}, "eta_min"),
            ("dataset", {"n_classes": 1}, "n_classes"),
            ("noise", {"kind": "symmetric", "ratio": 0.5, "seed": 0},
             "seed")):
        config = write_tiny_config(tmp_path / "range.json",
                                   **{section: values})
        out = run_cli("pipeline", "--config", str(config), "--out-dir", "run",
                      cwd=tmp_path)
        assert out.returncode == 2, (section, values, out.stderr)
        assert f"config section {section}: " in out.stderr, out.stderr
        assert field in out.stderr, out.stderr
    # a removed switch is an unknown key like any other
    config = write_tiny_config(tmp_path / "removed.json", run_stage3=False)
    out = run_cli("pipeline", "--config", str(config), "--out-dir", "run",
                  cwd=tmp_path)
    assert out.returncode == 2, (out.returncode, out.stderr)
    assert "unknown keys ['run_stage3']" in out.stderr, out.stderr
    # what only data generation used to refuse, and numbers a float field
    # cannot hold, stop every command at load, before it writes anything
    gen_data(tmp_path, write_tiny_config(tmp_path / "good.json"))
    tiny = json.loads((tmp_path / "good.json").read_text())
    for overrides, field in (
            ({"test_fraction": 1.5}, "test_fraction"),
            ({"noise": {"kind": "asymmetric", "ratio": 0.4,
                        "pair_map": {"0": 0}}}, "noise.pair_map"),
            ({"dataset": {**tiny["dataset"], "n_per_class": 1}},
             "n_per_class"),
            ({"dataset": {**tiny["dataset"], "separation": float("inf")}},
             "dataset.separation expects a finite float, got inf"),
            ({"stage3": {**tiny["stage3"], "lr": 10 ** 400}},
             "stage3.lr expects a finite float"),
            ({"dataset": {**tiny["dataset"], "n_per_class": 10 ** 30}},
             "dataset.n_per_class expects an int of size below 2**63")):
        config = write_tiny_config(tmp_path / "load.json", **overrides)
        for command in (("stage1", "--data", "train.csv", "--out", "enc.json"),
                        ("pipeline", "--out-dir", "loaded"),
                        ("gen-data", "--out", "gen.csv",
                         "--test-out", "gen_test.csv")):
            out = run_cli(command[0], "--config", str(config), *command[1:],
                          cwd=tmp_path)
            assert out.returncode == 2, (command, overrides, out.stderr)
            assert field in out.stderr, out.stderr
        for written in ("enc.json", "loaded", "gen.csv", "gen_test.csv"):
            assert not (tmp_path / written).exists(), written


def test_mistyped_config_value_exits_two(tmp_path):
    config = write_tiny_config(tmp_path / "config.json",
                               stage1={"epochs": "4"})
    out = run_cli("pipeline", "--config", str(config), "--out-dir", "run",
                  cwd=tmp_path)
    assert out.returncode == 2, (out.returncode, out.stderr)
    assert "stage1.epochs expects int, got str" in out.stderr


def gen_data(tmp_path, config):
    out = run_cli("gen-data", "--config", str(config), "--out", "train.csv",
                  "--test-out", "test.csv", cwd=tmp_path)
    assert out.returncode == 0, out.stderr


def test_non_finite_csv_value_exits_two(tmp_path):
    config = write_tiny_config(tmp_path / "config.json")
    gen_data(tmp_path, config)
    lines = (tmp_path / "train.csv").read_text().splitlines()
    cells = lines[3].split(",")
    cells[1] = "nan"
    lines[3] = ",".join(cells)
    (tmp_path / "train.csv").write_text("\n".join(lines) + "\n")
    out = run_cli("stage1", "--config", str(config), "--data", "train.csv",
                  "--out", "enc.json", cwd=tmp_path)
    assert out.returncode == 2, (out.returncode, out.stderr)
    assert "train.csv" in out.stderr and "row 2 (line 4)" in out.stderr


def test_out_of_range_csv_label_exits_two(tmp_path):
    config = write_tiny_config(tmp_path / "config.json")
    gen_data(tmp_path, config)
    lines = (tmp_path / "train.csv").read_text().splitlines()
    cells = lines[3].split(",")
    cells[-2] = "-1"                     # y_clean of row 2
    lines[3] = ",".join(cells)
    (tmp_path / "train.csv").write_text("\n".join(lines) + "\n")
    out = run_cli("stage1", "--config", str(config), "--data", "train.csv",
                  "--out", "enc.json", cwd=tmp_path)
    assert out.returncode == 2, (out.returncode, out.stderr)
    assert "train.csv" in out.stderr, out.stderr
    assert "y_clean -1 outside [0, 3) in row 2 (line 4)" in out.stderr


def test_numeric_blowup_exits_three(tmp_path):
    # lr near float64 max overflows the probe weights to inf
    config = write_tiny_config(tmp_path / "config.json",
                               stage2={"epochs": 3, "lr": 1e307})
    gen_data(tmp_path, config)
    s1 = run_cli("stage1", "--config", str(config), "--data", "train.csv",
                 "--out", "enc.json", cwd=tmp_path)
    assert s1.returncode == 0, s1.stderr
    out = run_cli("stage2", "--config", str(config), "--encoder", "enc.json",
                  "--data", "train.csv", "--out", "t.json", cwd=tmp_path)
    assert out.returncode == 3, (out.returncode, out.stderr)
    assert "numeric failure" in out.stderr


def test_determinism_byte_identical_metrics(tmp_path):
    config = write_tiny_config(tmp_path / "config.json")
    for name in ("a", "b"):
        out = run_cli("pipeline", "--config", str(config), "--out-dir", name,
                      cwd=tmp_path)
        assert out.returncode == 0, out.stderr
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert a == b
    assert (tmp_path / "a" / "model.json").read_bytes() == \
        (tmp_path / "b" / "model.json").read_bytes()


# OpenBLAS splits a product over its threads only when the product is large
# enough. At two threads it split the 512 x 32 by 32 x 512 NT-Xent product
# of a stage-1 batch of 256, 512-row embedding blocks and the 256-row graph
# of a stage-3 batch of 128, but not a 120 x 16 by 16 x 64 product. In a
# supervised batch of 256 it split the 256 x 64 by 64 x 64 products of the
# middle layer (forward, and the push's `g wᵀ`) and its 64 x 256 by 256 x 64
# weight gradient, but not a batch of 128's. So the thread tests run on 640
# rows with those batch sizes.
THREAD_SPLIT = {
    "dataset": {"n_classes": 4, "n_per_class": 160, "n_features": 8},
    "stage1": {"epochs": 3, "batch_size": 256},
    "stage3": {"epochs": 2, "batch_size": 128},
    "supervised": {"epochs": 4, "batch_size": 256},
}


def outputs_at_one_and_two_blas_threads(tmp_path, command, *args):
    """`command` on the `THREAD_SPLIT` config at OPENBLAS_NUM_THREADS=1 and
    =2, each in a fresh directory: its stdout, stderr and the bytes of
    every file it wrote there."""
    config = write_tiny_config(tmp_path / "config.json", **THREAD_SPLIT)
    runs = []
    for threads in ("1", "2"):
        cwd = tmp_path / f"threads{threads}"
        cwd.mkdir()
        out = subprocess.run(
            [sys.executable, "-m", "noisylearn", command, "--config",
             str(config), *args], capture_output=True, text=True, cwd=cwd,
            env={**child_env(), "OPENBLAS_NUM_THREADS": threads})
        assert out.returncode == 0, out.stderr
        files = sorted(p for p in cwd.rglob("*") if p.is_file())
        runs.append((out.stdout, out.stderr, {
            str(p.relative_to(cwd)): p.read_bytes() for p in files}))
    return runs


def test_pipeline_is_byte_identical_at_one_and_two_blas_threads(tmp_path):
    """Every artifact and the printed summary."""
    runs = outputs_at_one_and_two_blas_threads(tmp_path, "pipeline",
                                               "--out-dir", "run")
    assert len(runs[0][2]) == 10
    assert runs[0] == runs[1]


def test_ablate_is_byte_identical_at_one_and_two_blas_threads(tmp_path):
    """The metrics CSV and the printed summary of all four cells, the
    graph-off and uniform-sampler ones included."""
    runs = outputs_at_one_and_two_blas_threads(tmp_path, "ablate",
                                               "--metrics", "ablate.csv")
    assert list(runs[0][2]) == ["ablate.csv"]
    assert len(runs[0][0].splitlines()) == 4
    assert runs[0] == runs[1]


def test_decouple_is_byte_identical_at_one_and_two_blas_threads(tmp_path):
    """The metrics CSV and the printed summary of all four regimes, the two
    with one group frozen included."""
    runs = outputs_at_one_and_two_blas_threads(tmp_path, "decouple",
                                               "--metrics", "decouple.csv")
    assert list(runs[0][2]) == ["decouple.csv"]
    assert len(runs[0][0].splitlines()) == 4
    assert runs[0] == runs[1]


@pytest.fixture(scope="module")
def stage2_dir(tmp_path_factory):
    """The stage-2 outputs of the tiny config, plus `wide.csv`: data of the
    same size with 8 features where the encoder reads 6."""
    cwd = tmp_path_factory.mktemp("stage2")
    config = str(write_tiny_config(cwd / "config.json"))
    wide = str(write_tiny_config(cwd / "wide.json", dataset={
        "n_classes": 3, "n_per_class": 40, "n_features": 8}))
    for command, *paths in (
            ("gen-data", "--config", config, "--out", "train.csv",
             "--test-out", "test.csv"),
            ("gen-data", "--config", wide, "--out", "wide.csv",
             "--test-out", "wide_test.csv"),
            ("stage1", "--config", config, "--data", "train.csv", "--out",
             "encoder.json"),
            ("stage2", "--config", config, "--encoder", "encoder.json",
             "--data", "train.csv", "--out", "transfer.json",
             "--classifier-out", "classifier.json")):
        out = run_cli(command, *paths, cwd=cwd)
        assert out.returncode == 0, (command, out.stderr)
    return cwd


def stage3_args(**files):
    names = {"transfer": "transfer.json", "encoder": "encoder.json",
             "classifier": "classifier.json", "data": "train.csv",
             "test-data": "test.csv", **files}
    args = ["stage3", "--config", "config.json", "--out", "model.json",
            "--metrics", "stage3.csv"]
    for flag, name in names.items():
        args += [f"--{flag}", name]
    return args


def assert_refused(out, *names):
    assert out.returncode == 2, (out.returncode, out.stderr)
    assert out.stderr.startswith("error: "), out.stderr
    for name in names:
        assert name in out.stderr, out.stderr


def test_stage2_rejects_data_the_encoder_cannot_read(stage2_dir):
    out = run_cli("stage2", "--config", "config.json", "--encoder",
                  "encoder.json", "--data", "wide.csv", "--out", "t.json",
                  cwd=stage2_dir)
    assert_refused(out, "wide.csv", "encoder.json", "8 features", "takes 6")
    assert not (stage2_dir / "t.json").exists()


def test_stage3_rejects_test_data_the_encoder_cannot_read(stage2_dir):
    out = run_cli(*stage3_args(**{"test-data": "wide_test.csv"}),
                  cwd=stage2_dir)
    assert_refused(out, "wide_test.csv", "encoder.json", "takes 6")
    assert not (stage2_dir / "model.json").exists()


def test_stage3_rejects_a_classifier_without_a_head(stage2_dir):
    out = run_cli(*stage3_args(classifier="encoder.json"), cwd=stage2_dir)
    assert_refused(out, "encoder.json has no head")
    assert not (stage2_dir / "model.json").exists()


def test_stage3_rejects_a_head_without_an_output_per_class(stage2_dir):
    # a head of the encoder's width with 2 outputs, for data with 3 classes
    io.save_checkpoint(stage2_dir / "two.json",
                       numnet.init_mlp([], [64, 2], seed=0))
    out = run_cli(*stage3_args(classifier="two.json"), cwd=stage2_dir)
    assert_refused(out, "two.json has 2 outputs", "train.csv has 3 classes")
    assert not (stage2_dir / "model.json").exists()


def test_stage3_rejects_a_transfer_of_another_class_count(stage2_dir):
    doc = json.loads((stage2_dir / "transfer.json").read_text())
    doc["n_classes"] = 4
    (stage2_dir / "four.json").write_text(json.dumps(doc))
    out = run_cli(*stage3_args(transfer="four.json"), cwd=stage2_dir)
    assert_refused(out, "four.json covers 96 samples of 4 classes",
                   "train.csv has 96 of 3")
    assert not (stage2_dir / "model.json").exists()


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(U=7), "transfer field U: expected a list"),
    (lambda doc: doc.update(U=[i + 0.5 for i in doc["U"]]),
     "transfer field U[0]: expected an integer"),
    (lambda doc: doc.pop("thresholds"),
     "transfer field thresholds: expected an object"),
    (lambda doc: doc.pop("L"),
     "bad L entry: transfer field L: expected a list of objects"),
    (lambda doc: doc.pop("U"), "transfer field U: expected a list"),
], ids=["U_int", "U_shifted_by_half", "thresholds_missing", "L_missing",
        "U_missing"])
def test_stage3_rejects_a_malformed_transfer_naming_the_file(stage2_dir, edit,
                                                             message):
    doc = json.loads((stage2_dir / "transfer.json").read_text())
    assert doc["U"]
    edit(doc)
    (stage2_dir / "odd.json").write_text(json.dumps(doc))
    out = run_cli(*stage3_args(transfer="odd.json"), cwd=stage2_dir)
    assert_refused(out, f"odd.json: {message}")
    assert not (stage2_dir / "model.json").exists()


def test_eval_rejects_data_the_model_cannot_read(stage2_dir):
    io.save_checkpoint(stage2_dir / "six.json",
                       numnet.init_mlp([6, 8], [8, 3], seed=0))
    out = run_cli("eval", "--model", "six.json", "--data", "wide_test.csv",
                  cwd=stage2_dir)
    assert_refused(out, "wide_test.csv", "six.json", "8 features", "takes 6")


def test_eval_rejects_a_malformed_checkpoint(stage2_dir):
    path = stage2_dir / "bad.json"
    io.save_checkpoint(path, numnet.init_mlp([6, 8], [8, 3], seed=0))
    doc = json.loads(path.read_text())
    doc["ema"] = []
    path.write_text(json.dumps(doc))
    out = run_cli("eval", "--model", "bad.json", "--data", "test.csv",
                  cwd=stage2_dir)
    assert_refused(out, "checkpoint field ema: expected an object or null",
                   "bad.json")
