"""Peak-allocation bounds on the stage-2 and stage-3 hot paths and io.

Each bound is a multiple of the bytes of the call's result (of the graph
penalty's weights for the penalty), measured with
`tracemalloc` (numpy reports its array buffers to it). The inputs are made
before tracing starts, so only what the call allocates counts. Stage 2
must embed each dataset once. The last two tests check glibc's heap: the
thresholds `harness` pins, and the release of freed heap pages that the
runners make between stages.
"""

import os
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest

from noisylearn import credibility, data, graphreg, harness, io, numnet, ssrl

from util import child_env, live_logits


def traced_peak(call):
    """`call()`'s result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        out = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_embed_allocates_two_layer_outputs_at_most():
    """Stage 2's 4,500-row float64 table: no head, no softmax, and one
    512-row block's layer outputs beside the table, 1.23x its bytes. One
    forward over every row took 2.01x."""
    encoder = numnet.init_mlp([16, 64, 64], [64, 32], seed=0)
    X = np.random.default_rng(1).normal(size=(4500, 16))
    Z, peak = traced_peak(lambda: ssrl.embed(encoder, X))
    assert peak <= 1.3 * Z.nbytes


def test_graph_table_allocates_the_table_and_one_block():
    """Stage 3's float32 table of 4,500 rows is built a block at a time:
    1.28x the table's bytes. One forward over a float32 copy of the rows
    took 2.27x."""
    encoder = numnet.init_mlp([16, 64, 64], [], seed=0)
    X = np.random.default_rng(1).normal(size=(4500, 16))
    table, peak = traced_peak(lambda: ssrl.embed(encoder, X, np.float32))
    assert table.dtype == np.float32 and table.shape == (4500, 64)
    assert peak <= 1.4 * table.nbytes


def test_graph_build_allocates_the_affinity_and_normalized_rows():
    Z = np.abs(np.random.default_rng(2).normal(size=(256, 64)))
    graph, peak = traced_peak(lambda: graphreg.build_neighbor_graph(Z, 0.5))
    assert peak <= 1.5 * graph.affinity.nbytes


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_graph_penalty_allocates_its_weights_and_little_else(dtype):
    """The stage-3 batch, 128 L + 128 U rows: the penalty holds its weights
    `B` (128 x 256 float64) and no n_u x n distance matrix: 1.59x (float64)
    and 1.58x (float32) B's bytes. A ufunc over a strided block of B
    buffers 8,192 elements an operand; filling the U-U block with an add
    and then a scale took 1.84x (float64), and holding `K`, `W` and `B` at
    once took 3.10x."""
    rng = np.random.default_rng(6)
    Z = np.abs(rng.normal(size=(256, 64))).astype(dtype)
    graph = graphreg.build_neighbor_graph(Z, 0.5, n_labeled=128)
    p = numnet.Tensor(rng.dirichlet(np.ones(10), size=128).astype(dtype),
                      lambda g: [])
    y = np.eye(10)[rng.integers(0, 10, size=128)]
    _, peak = traced_peak(
        lambda: graphreg.graph_regularizer(graph, p, y, 0.01, 0.005))
    assert peak <= 1.7 * (128 * 256 * 8)


def test_frozen_forward_allocates_two_layer_outputs_at_most():
    """The bias and the ReLU go in place in the product's buffer, so a
    layer allocates its output only, recorded or not; a forward with every
    group frozen drops each layer's input once the next output exists."""
    rng = np.random.default_rng(3)
    X = rng.normal(size=(2000, 64))
    one_layer = numnet.MlpParams(numnet.init_layers([64, 64], rng), [])
    logits = live_logits(one_layer)
    out, peak = traced_peak(lambda: logits(X))
    assert out._push is not None
    assert peak <= 1.1 * out.data.nbytes
    params = numnet.init_mlp([64, 64, 64], [64, 64, 64], seed=3)
    out, peak = traced_peak(lambda: numnet.frozen_forward(params, X))
    assert peak <= 2.1 * out.nbytes


def test_probabilities_allocate_two_tables_at_most():
    """Stage 2's head on 4,500 float64 embeddings: the logits and the
    shifted exponentials, divided in place into the probabilities, 2.29x
    one n x C table. A fresh buffer for the quotient took 3.29x."""
    rng = np.random.default_rng(7)
    head = numnet.MlpParams([], numnet.init_layers([64, 10], rng))
    y = rng.integers(0, 10, size=4500)
    ds = data.LabeledDataset(rng.normal(size=(4500, 64)), y, y, 10)
    P, peak = traced_peak(lambda: numnet.mlp_forward(head, ds.X))
    assert peak <= 2.4 * P.nbytes
    _, peak = traced_peak(lambda: credibility.per_sample_stats(head, ds))
    assert peak <= 2.4 * P.nbytes


def test_dataset_csv_load_allocates_about_the_array():
    """One flat buffer per column group, not a Python float per value."""
    ds = data.make_blobs(data.DatasetSpec(n_classes=10, n_per_class=450,
                                          n_features=16), seed=4)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "train.csv")
        io.save_dataset_csv(path, ds)
        loaded, peak = traced_peak(lambda: io.load_dataset_csv(path))
    assert loaded.X.shape == (4500, 16)
    assert peak <= 1.6 * loaded.X.nbytes


def test_run_stage2_embeds_each_dataset_once(monkeypatch):
    config = harness.config_from_dict(
        {"seed": 3, "dataset": {"n_classes": 3, "n_per_class": 40,
                                "n_features": 6},
         "noise": {"kind": "symmetric", "ratio": 0.4},
         "stage2": {"epochs": 2}})
    train, test = harness.generate_data(config)
    encoder = numnet.init_mlp([6, 8], [], seed=3)
    embedded = []

    def counting_embed(params, X, embed=ssrl.embed):
        embedded.append(X)
        return embed(params, X)

    monkeypatch.setattr(ssrl, "embed", counting_embed)
    monkeypatch.setattr(harness, "embed", counting_embed)
    harness.run_stage2(encoder, train, config.stage2, seed=4,
                       test_dataset=test)
    assert [id(X) for X in embedded] == [id(train.X), id(test.X)]


def resident_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


@pytest.mark.skipif(harness._MALLOC_TRIM is None
                    or not os.path.exists("/proc/self/statm"),
                    reason="needs glibc's malloc_trim and /proc")
def test_release_returns_free_heap_pages_between_live_blocks():
    """20 MB freed between live blocks stays resident until the release."""
    # 100 kB blocks sit on the heap, below glibc's smallest mmap threshold;
    # an 8 kB block after each keeps the freed ones from merging into the
    # top of the heap, which glibc would trim by itself
    blocks = [(np.ones(12_500), np.ones(1_000)) for _ in range(200)]
    held = resident_mb()
    pins = [pin for _, pin in blocks]
    del blocks
    freed = resident_mb()
    harness._release_freed_memory()
    assert held - freed < 5.0
    assert freed - resident_mb() > 15.0
    del pins


# Counts in a fresh interpreter: there, glibc's thresholds start where a
# user's run starts them, not where other tests' arrays have moved them.
STAGE1_FAULTS_PER_STEP = """
import resource
import numpy as np
from noisylearn import harness, numnet, ssrl
faults, fit = [], numnet.fit
def counting_fit(*args, **kwargs):
    for losses in fit(*args, **kwargs):
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        yield losses
numnet.fit = counting_fit
X = np.random.default_rng(5).normal(size=(2048, 16))
config = ssrl.ContrastiveConfig(epochs=2)   # 256 pairs, 512 rows a step
ssrl.train_encoder(X, config, seed=5)
print((faults[1] - faults[0]) / (len(X) // config.batch_size))
"""


@pytest.mark.skipif(harness._MALLOPT is None, reason="needs glibc's mallopt")
def test_stage1_steps_keep_their_heap_resident():
    """A stage-1 step at the bench's shape (512 rows) frees a 1 MB float32
    score buffer. Under glibc's moving thresholds that sets a 2 MB trim
    threshold, and each step gave the top of the heap back to the kernel
    and faulted it in again: 550-720 page faults a step. Under the
    thresholds `harness` pins, a step of the second epoch faults in almost
    nothing."""
    out = subprocess.run([sys.executable, "-c", STAGE1_FAULTS_PER_STEP],
                         capture_output=True, text=True, env=child_env())
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) < 50
