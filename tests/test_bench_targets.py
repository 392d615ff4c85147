"""The benchmark must keep working against the package it measures.

bench/spans.py wraps noisylearn's public functions by name from outside
the package, and the bench's output checks read the stage-2 transfer. A
rename in src/ or a change to what the transfer exposes would otherwise
only surface when the benchmark runs; here it fails the unit suite.
"""

import inspect
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from noisylearn import credibility, harness, io, numnet, semi

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_module(name):
    sys.path.insert(0, str(BENCH))
    try:
        return __import__(name)
    finally:
        sys.path.remove(str(BENCH))


def test_timed_tracer_finds_every_target():
    spans = bench_module("spans")
    tracer = spans.Tracer(timed=True)
    originals = [getattr(t.owner, t.attr, None) for t in tracer.targets]
    with tracer:      # raises spans.MissingTarget if a name is gone
        assert all(getattr(t.owner, t.attr) is not fn
                   for t, fn in zip(tracer.targets, originals))
    assert all(getattr(t.owner, t.attr) is fn
               for t, fn in zip(tracer.targets, originals))


def test_bench_triage_reads_a_real_transfer():
    spans, workloads = bench_module("spans"), bench_module("workloads")
    config = harness.config_from_dict(
        {"seed": 3, "dataset": {"n_classes": 3, "n_per_class": 40,
                                "n_features": 6},
         "noise": {"kind": "symmetric", "ratio": 0.4}})
    train, _ = harness.generate_data(config)
    encoder = numnet.init_mlp([6, 8], [8, 3], seed=3)
    stage2 = harness.run_stage2(encoder, train, config.stage2, seed=4)
    transfer = stage2.transfer
    n_l, n_u = len(transfer.labeled), len(transfer.unlabeled)
    assert n_l and n_u

    values = Counter()
    spans._triage(values, {"train": train}, stage2)
    origin = transfer.labeled.origin
    corrected = transfer.labeled[origin == "corrected"]
    assert values["credibility.kept"] == np.sum(origin == "kept")
    assert values["credibility.corrected"] == corrected.size
    assert values["credibility.kept"] + values["credibility.corrected"] == n_l
    assert values["credibility.unknown"] == n_u
    assert values["credibility.corrected_right"] == np.sum(
        corrected.label == train.y_clean[corrected.index])

    quality, problems = workloads._triage(transfer, train.y_clean)
    assert problems == []
    assert quality["l_fraction"] == n_l / len(train)
    assert quality["l_precision"] == np.mean(
        transfer.labeled.label == train.y_clean[transfer.labeled.index])


def test_bench_hooks_read_parameters_the_traced_functions_have():
    """The hooks read these arguments by name from the bound call."""
    for fn, name in ((credibility.fit_gmm_em, "max_iter"),
                     (harness.run_stage2, "train"),
                     (io.save_dataset_csv, "path"),
                     (semi.train_stage3, "config")):
        assert name in inspect.signature(fn).parameters, (fn.__name__, name)


def test_traced_training_runs_one_backward_inside_each_grad():
    """bench/NOTES.md takes `numnet.forward.s` as `numnet.grad.s` minus
    `numnet.backward.s`, which holds while every traced gradient runs
    exactly one traced backward."""
    spans = bench_module("spans")
    rng = np.random.default_rng(5)
    X, y = rng.normal(size=(24, 4)), np.arange(24) % 3
    params = numnet.init_mlp([4, 8], [8, 3], seed=5)
    config = harness.SupervisedConfig(epochs=1, batch_size=8)
    tracer = spans.Tracer(timed=True)
    with tracer:
        harness.train_supervised(params, X, y, 3, config, seed=5)
    grads = [s[0] for s in tracer.spans if s[2] == "numnet.grad"]
    backwards = [s[1] for s in tracer.spans if s[2] == "numnet.backward"]
    assert tracer.calls("numnet.backward") == tracer.calls("numnet.grad") > 0
    assert backwards == grads    # each inside its own gradient
