"""End-to-end acceptance battery.

Each test checks one release criterion and emits a single
"ACCEPTANCE n PASS/FAIL: ..." line on the real stdout so the verdicts
survive pytest's capture. The heavyweight cases (6, 7, 8, 9, 11) run full
experiment harness entry points at their default settings.
"""

import dataclasses
import functools
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from noisylearn import credibility, graphreg, harness, numnet, semi
from noisylearn.credibility import TransferredLabels, labeled_records
from noisylearn.data import (DatasetSpec, default_pair_map,
                             inject_asymmetric_noise, inject_symmetric_noise,
                             make_blobs)
from tape_ops import cross_entropy_rows
from test_credibility import bimodal_sample, reference_em
from util import central_diff, child_env, max_rel_err


@pytest.fixture(scope="module", autouse=True)
def train_each_encoder_once():
    """Stage 1 reads only X, its config and its seed (see
    test_harness::test_encoder_bytes_do_not_depend_on_labels), so runs that
    differ only in noise or in later stages share one encoder. Each caller
    gets its own copy."""
    train, memo = harness.train_encoder, {}

    def memoized(X, config, seed):
        key = (X.tobytes(), repr(config), seed)
        if key not in memo:
            memo[key] = train(X, config, seed)
        result = memo[key]
        return dataclasses.replace(result, encoder=result.encoder.clone(),
                                   loss_curve=list(result.loss_curve))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "train_encoder", memoized)
        yield


def _report(capsys, n, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE {n} {verdict}: {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_01_gradient_correctness(capsys):
    t0 = time.perf_counter()

    # two-layer network with a cross-entropy head, batch of 8
    rng = np.random.default_rng(0)
    params = numnet.init_mlp([5, 16], [16, 4], seed=1)
    X = rng.normal(size=(8, 5))
    targets = numnet.one_hot(rng.integers(0, 4, size=8), 4)

    def mlp_loss(tape):
        return cross_entropy_rows(numnet.softmax_rows(tape.logits(X)), targets)

    _, grads = numnet.grad(params, mlp_loss)
    fd = central_diff(params, lambda p: float(
        mlp_loss(numnet.TapeMlp(p)).data))
    err_mlp = max_rel_err(grads, fd)

    # full stage-3 objective: mixed supervised + consistency + graph penalty
    cfg = semi.MixMatchConfig(batch_size=4)
    model = numnet.init_mlp([6, 16, 8], [8, 3], seed=2)
    guesser = numnet.init_mlp([6, 16, 8], [8, 3], seed=3)
    X_l = rng.normal(size=(4, 6))
    y_l = numnet.one_hot(rng.integers(0, 3, size=4), 3)
    X_u = rng.normal(size=(5, 6))
    batch = semi.prepare_mixmatch_batch(guesser, X_l, y_l, X_u, cfg,
                                        np.random.default_rng(7))
    Z = rng.normal(size=(9, 16))
    graph = graphreg.build_neighbor_graph(Z, tau=cfg.tau_c, n_labeled=4)

    def stage3_loss(tape):
        return semi.stage3_loss(tape, batch, graph, cfg)[0]

    _, grads3 = numnet.grad(model, stage3_loss)
    fd3 = central_diff(model, lambda p: float(
        stage3_loss(numnet.TapeMlp(p)).data),
        max_coords=12, rng=np.random.default_rng(11))
    err_stage3 = max_rel_err(grads3, fd3)

    dt = time.perf_counter() - t0
    ok = err_mlp < 1e-5 and err_stage3 < 1e-4 and dt < 10.0
    _report(capsys, 1, ok, f"max rel err mlp={err_mlp:.2e} (<1e-5), "
                   f"stage3 total={err_stage3:.2e} (<1e-4), {dt:.1f}s (<10s)")


def test_criterion_02_gmm_em_oracle(capsys):
    t0 = time.perf_counter()
    values = bimodal_sample(n=500, seed=42)
    fit = credibility.fit_gmm_em(values)

    mean_err = max(abs(fit.means[0] - 0.2), abs(fit.means[1] - 2.0))
    trace = np.asarray(fit.log_likelihood_trace)
    worst_drop = float(np.min(np.diff(trace))) if len(trace) > 1 else 0.0

    ref_means, ref_vars, ref_weights, ref_trace = reference_em(values)
    agrees = (np.allclose(fit.means, ref_means, atol=1e-8)
              and np.allclose(fit.variances, ref_vars, atol=1e-8)
              and np.allclose(fit.weights, ref_weights, atol=1e-8)
              and len(trace) == len(ref_trace)
              and np.allclose(trace, ref_trace, atol=1e-8))

    dt = time.perf_counter() - t0
    ok = mean_err < 0.1 and worst_drop >= -1e-9 and agrees and dt < 5.0
    _report(capsys, 2, ok, f"means ({fit.means[0]:.3f}, {fit.means[1]:.3f}) vs "
                   f"(0.2, 2.0) err {mean_err:.3f} (<0.1), worst LL step "
                   f"{worst_drop:.1e} (>=-1e-9), reference EM agreement "
                   f"{agrees}, {dt:.1f}s (<5s)")


def test_criterion_03_noise_statistics(capsys):
    ds = make_blobs(DatasetSpec(n_classes=10, n_per_class=1000, n_features=8),
                    seed=17)

    sym = inject_symmetric_noise(ds, 0.9, np.random.default_rng(23))
    flipped = float(np.mean(sym.y_noisy != sym.y_clean))

    asym = inject_asymmetric_noise(ds, 0.4, np.random.default_rng(29))
    mapped = np.isin(ds.y_clean, list(default_pair_map(10)))
    mapped_flip = float(np.mean(asym.y_noisy[mapped] != asym.y_clean[mapped]))
    unmapped_flips = int(np.sum(asym.y_noisy[~mapped] != asym.y_clean[~mapped]))

    ok = (abs(flipped - 0.81) <= 0.02
          and abs(mapped_flip - 0.40) <= 0.045
          and unmapped_flips == 0)
    _report(capsys, 3, ok, f"symmetric r=0.9 flipped {flipped:.4f} (0.81+-0.02); "
                   f"asymmetric r=0.4 mapped flip {mapped_flip:.4f} "
                   f"(0.40+-0.045), unmapped flips {unmapped_flips} (=0)")


def test_criterion_04_probability_and_graph_algebra(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)

    logits = rng.normal(size=(1000, 10)) * 5.0
    P = numnet.softmax(logits)
    closure = float(np.max(np.abs(P.sum(axis=1) - 1.0)))

    sharpened = graphreg.sharpen_t(numnet.Tensor(P), 0.5).data
    argmax_kept = bool(np.all(np.argmax(sharpened, axis=1)
                              == np.argmax(P, axis=1)))

    Z = rng.normal(size=(1000, 16))
    graph = graphreg.build_neighbor_graph(Z, tau=0.5, n_labeled=500)
    A = graph.affinity
    symmetric = bool(np.array_equal(A, A.T))
    in_range = bool(A.min() >= 0.0 and A.max() <= 0.5 + 1e-12)

    p_u = numnet.softmax(rng.normal(size=(500, 10)))
    y_l = numnet.one_hot(rng.integers(0, 10, size=500), 10)
    r_random = float(graphreg.graph_regularizer(graph, p_u, y_l, 0.01,
                                                0.005).data)
    agree = numnet.one_hot(np.full(500, 3), 10)
    r_agree = float(graphreg.graph_regularizer(graph, agree, agree, 0.01,
                                               0.005).data)

    dt = time.perf_counter() - t0
    ok = (closure <= 1e-12 and argmax_kept and symmetric and in_range
          and r_random >= 0.0 and r_agree == 0.0 and dt < 5.0)
    _report(capsys, 4, ok, f"simplex closure {closure:.1e} (<=1e-12), argmax kept "
                   f"{argmax_kept}, A symmetric {symmetric}, A range ok "
                   f"{in_range}, R random {r_random:.4f} (>=0), R agreement "
                   f"{r_agree} (=0), {dt:.1f}s (<5s)")


def test_criterion_05_balanced_sampler(capsys):
    labeled = labeled_records(np.arange(1000), [0] * 900 + [1] * 100,
                              ["kept"] * 1000)
    transfer = TransferredLabels(labeled=labeled,
                                 unlabeled=np.zeros(0, dtype=np.int64),
                                 tau_clean=0.5, tau_right=0.5, n_classes=2)
    state = semi.make_balanced_sampler(transfer)
    rng = np.random.default_rng(37)
    minority = 0
    total = 100_000
    for _ in range(100):
        pos = semi.balanced_sample_L(state, 1000, rng)
        minority += int(np.sum(labeled.label[pos] == 1))
    freq = minority / total
    ok = abs(freq - 0.5) <= 0.02
    _report(capsys, 5, ok, f"minority-class frequency {freq:.4f} over {total} draws "
                   f"from a 9:1 pool (0.5+-0.02)")


def test_criterion_06_decoupled_retraining_trends(capsys):
    t0 = time.perf_counter()
    config = harness.config_from_dict(
        {"seed": 0, "noise": {"kind": "symmetric", "ratio": 0.4}})
    log = harness.run_decoupling_experiment(config)

    series = {regime: log.series(regime, "accuracy")
              for regime in harness.DECOUPLING_REGIMES}
    last_epoch = {k: v[-1] for k, v in series.items()}
    gap = {k: harness.best_last(v)[0] - harness.best_last(v)[1]
           for k, v in series.items()}

    c = harness.REGIME_RETRAIN_CLASSIFIER
    b = harness.REGIME_RETRAIN_REPRESENTATION
    d = harness.REGIME_NOISY
    dt = time.perf_counter() - t0
    ok = (last_epoch[c] > last_epoch[b] and last_epoch[c] > last_epoch[d]
          and gap[d] >= 0.05 and gap[c] <= 0.02 and dt < 600.0)
    _report(capsys, 6, ok, f"last-epoch acc classifier {last_epoch[c]:.3f} > "
                   f"representation {last_epoch[b]:.3f} and > noisy "
                   f"{last_epoch[d]:.3f}; best-last gap noisy {gap[d]:.3f} "
                   f"(>=0.05), classifier {gap[c]:.3f} (<=0.02), "
                   f"{dt:.0f}s (<600s)")


@functools.cache
def seed_0_accuracies(ratio: float) -> tuple[float, float, float]:
    """Test accuracy at seed 0 under symmetric `ratio` noise of the full
    pipeline, of its stage-2 model, and of a cross-entropy baseline."""
    noise = {"kind": "symmetric", "ratio": ratio}

    full = harness.run_pipeline(
        harness.config_from_dict({"seed": 0, "noise": noise}))
    acc_full, _ = harness.evaluate(full.stage3.params, full.test)

    # stage 3 retrains copies, so the run still holds the stage-2 model
    no_s3 = numnet.MlpParams(full.stage1.encoder.encoder,
                             full.stage2.probe.classifier.classifier)
    acc_no_s3, _ = harness.evaluate(no_s3, full.test)

    # cross-entropy baseline on the identical noisy data and architecture
    d = full.train.X.shape[1]
    C = full.train.n_classes
    ce_params = numnet.init_mlp([d, 64, 64], [64, C],
                                seed=harness.derive_seed(0, harness.STREAM_INIT))
    harness.train_supervised(ce_params, full.train.X, full.train.y_noisy, C,
                             harness.SupervisedConfig(),
                             harness.derive_seed(0, harness.STREAM_SUPERVISED),
                             test_dataset=full.test)
    acc_ce, _ = harness.evaluate(ce_params, full.test)
    return acc_full, acc_no_s3, acc_ce


def test_criterion_07_pipeline_ordering(capsys):
    t0 = time.perf_counter()
    acc_full, acc_no_s3, acc_ce = seed_0_accuracies(0.8)

    dt = time.perf_counter() - t0
    ok = (acc_full >= acc_no_s3 >= acc_ce
          and acc_full - acc_ce >= 0.10 and dt < 1200.0)
    _report(capsys, 7, ok, f"final test acc full {acc_full:.3f} >= no-stage3 "
                   f"{acc_no_s3:.3f} >= CE {acc_ce:.3f}; margin "
                   f"{acc_full - acc_ce:.3f} (>=0.10), {dt:.0f}s (<1200s)")


def test_criterion_08_transfer_quality(capsys):
    config = harness.config_from_dict(
        {"seed": 0, "noise": {"kind": "symmetric", "ratio": 0.5}})
    train, _, _, stage2 = harness._data_and_stages_1_2(config)
    transfer = stage2.transfer
    y_clean = train.y_clean

    n = len(train)
    size = len(transfer.labeled)
    hits = sum(1 for e in transfer.labeled if e.label == y_clean[e.index])
    precision = hits / size if size else 0.0

    ok = precision >= 0.95 and size >= 0.5 * n
    _report(capsys, 8, ok, f"|L|={size} of N={n} ({size / n:.2f} >= 0.5), precision "
                   f"vs hidden clean labels {precision:.4f} (>=0.95)")


def test_criterion_09_ablation_direction(capsys):
    t0 = time.perf_counter()
    cells = [cell for cell, _, _ in harness.ABLATION_CELLS]
    lines = []
    margins = []
    for seed in (0, 1, 2):
        config = harness.config_from_dict(
            {"seed": seed, "noise": {"kind": "symmetric", "ratio": 0.9}})
        log = harness.run_ablation(config)
        best = {c: log.series(c, "best_accuracy")[0] for c in cells}
        last = {c: log.series(c, "last_accuracy")[0] for c in cells}
        margins.append(best["cbs_on_gsr_on"] - best["cbs_off_gsr_off"])
        grid = " ".join(f"{c} best={best[c]:.3f} last={last[c]:.3f}"
                        for c in cells)
        lines.append(f"seed {seed}: {grid}")
    with capsys.disabled():
        print("\n" + "\n".join(lines))

    dt = time.perf_counter() - t0
    ok = all(m >= -0.005 for m in margins) and dt < 1200.0
    _report(capsys, 9, ok, "cbs_on_gsr_on best >= cbs_off_gsr_off best - 0.005 on "
                   "seeds 0,1,2; margins "
                   + ", ".join(f"{m:+.3f}" for m in margins)
                   + f"; grids above, {dt:.0f}s")


def test_criterion_10_cli_determinism(capsys, tmp_path):
    config = {
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
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))

    outputs = {}
    for cmd, metrics in (("pipeline", None), ("ablate", "ablate.csv")):
        pair = []
        for attempt in ("a", "b"):
            if cmd == "pipeline":
                args = ["pipeline", "--config", str(path),
                        "--out-dir", f"{cmd}_{attempt}"]
                target = tmp_path / f"{cmd}_{attempt}" / "metrics.csv"
            else:
                args = ["ablate", "--config", str(path),
                        "--metrics", f"{cmd}_{attempt}.csv"]
                target = tmp_path / f"{cmd}_{attempt}.csv"
            proc = subprocess.run([sys.executable, "-m", "noisylearn", *args],
                                  capture_output=True, text=True,
                                  cwd=tmp_path, env=child_env())
            assert proc.returncode == 0, proc.stderr
            pair.append(target.read_bytes())
        outputs[cmd] = pair[0] == pair[1]

    ok = all(outputs.values())
    _report(capsys, 10, ok, "byte-identical metrics CSVs on repeated runs: "
                    + ", ".join(f"{k}={v}" for k, v in outputs.items()))


def test_criterion_11_noise_table_margins(capsys):
    # the paper's noise table: the gain of the full pipeline over plain
    # cross-entropy grows with the noise ratio (seed 0; the 0.8 run is
    # acceptance 7's)
    t0 = time.perf_counter()
    ratios = (0.2, 0.5, 0.8, 0.9)
    margins = []
    for ratio in ratios:
        acc_full, _, acc_ce = seed_0_accuracies(ratio)
        margins.append(acc_full - acc_ce)

    dt = time.perf_counter() - t0
    ok = (all(a <= b for a, b in zip(margins, margins[1:]))
          and dt < 1200.0)
    _report(capsys, 11, ok, "final - CE test acc margin does not decrease "
                    "over symmetric noise "
                    + " / ".join(f"{r}" for r in ratios) + ": "
                    + " / ".join(f"{m:+.3f}" for m in margins)
                    + f", {dt:.0f}s (<1200s)")
