import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special

from noisylearn import data, numnet, ssrl
from noisylearn.errors import ConfigError

from tape_ops import (add, div, exp, leaf, log, mean, mul, power, reshape,
                      sub, sum_)
from util import logistic_probe_predict


# The kernel rounds its scores Zn·Zn/t to float32, an error of about
# EPS32/t each, and every value or per-row gradient it forms from them
# inherits an error of that order. Its bounds against the float64
# references below are 4 such units; the worst errors seen were 0.8 (value)
# and 0.3 (gradient) over 1,500 draws of the property test's inputs.
EPS32 = float(np.finfo(np.float32).eps)


def reference_nt_xent(Z, temperature):
    """Loop-based re-derivation: mean over anchors of -log softmax(partner)."""
    Z = np.asarray(Z, dtype=np.float64)
    norms = Z / np.linalg.norm(Z, axis=1, keepdims=True)
    n = len(Z)
    total = 0.0
    for i in range(n):
        partner = i ^ 1
        sims = np.array([np.dot(norms[i], norms[j]) / temperature
                         for j in range(n) if j != i])
        target = np.dot(norms[i], norms[partner]) / temperature
        m = sims.max()
        total += -(target - (m + math.log(np.exp(sims - m).sum())))
    return total / n


def nt_xent(Z, temperature):
    return float(ssrl.nt_xent_loss(Z, temperature).data)


def composed_nt_xent(Z, temperature):
    """NT-Xent as the tape composition it was before it became one node.

    The same steps in the same order, on the per-op nodes of `tape_ops`:
    `Zn @ Zn.T` is the broadcast product summed over features and
    `S[idx, partner]` a one-hot mask summed over columns.
    """
    Z = numnet.as_tensor(Z)
    n, d = Z.data.shape
    norms = power(sum_(mul(Z, Z), axis=1, keepdims=True), 0.5)
    Zn = div(Z, norms)
    gram = sum_(mul(reshape(Zn, n, 1, d), reshape(Zn, 1, n, d)), axis=2)
    S = add(mul(gram, 1.0 / temperature), np.eye(n) * ssrl.NEG_MASK)
    shift = S.data.max(axis=-1, keepdims=True)
    lse = add(log(sum_(exp(sub(S, shift)), axis=-1, keepdims=True)), shift)
    lse = reshape(lse, n)
    partner = numnet.one_hot(np.arange(n) ^ 1, n)
    return mean(sub(lse, sum_(mul(S, partner), axis=1)))


def value_and_grad(loss_fn, Z, temperature):
    t = leaf(Z.copy())
    out = loss_fn(t, temperature)
    out.backward()
    return float(out.data), t.grad


def test_nt_xent_gradient_matches_finite_differences():
    """Central differences anchor the float64 composition, which the
    kernel is bounded against below; they cannot resolve a float32
    forward at h = 1e-6."""
    Z = np.random.default_rng(3).normal(size=(8, 5)) + 0.3
    _, analytic = value_and_grad(composed_nt_xent, Z, 0.5)

    def composed(Z):
        return float(composed_nt_xent(Z, 0.5).data)

    numeric = np.zeros_like(Z)
    h = 1e-6
    for i, j in np.ndindex(*Z.shape):
        up, down = Z.copy(), Z.copy()
        up[i, j] += h
        down[i, j] -= h
        numeric[i, j] = (composed(up) - composed(down)) / (2 * h)
    scale = max(1.0, np.abs(numeric).max())
    assert np.max(np.abs(analytic - numeric)) < 1e-7 * scale


@given(pairs=st.integers(2, 12), d=st.integers(1, 9),
       temperature=st.floats(0.05, 2.0), log_scale=st.floats(-3.0, 3.0),
       seed=st.integers(0, 10_000))
@example(pairs=2, d=1, temperature=0.0625, log_scale=-2.75, seed=0)
# At 500 rows OpenBLAS's gemm gives Zn @ Zn.T entries that differ from their
# mirror images in the last bit, so the backward may not rely on the score
# matrix being symmetric.
@example(pairs=250, d=32, temperature=0.5, log_scale=0.0, seed=11)
@settings(max_examples=60, deadline=None)
def test_nt_xent_fused_equals_composed_tape(pairs, d, temperature, log_scale,
                                            seed):
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(2 * pairs, d)) * 10.0 ** rng.uniform(
        -1.0, 1.0, size=(2 * pairs, 1)) * 10.0 ** log_scale
    fused, g_fused = value_and_grad(ssrl.nt_xent_loss, Z, temperature)
    composed, g_composed = value_and_grad(composed_nt_xent, Z, temperature)
    assert abs(fused - composed) <= 4 * EPS32 / temperature
    # The normalisation backward divides row i by t * ||z_i||, so both the
    # gradient and the rounding error of either form grow like that; state
    # the bound per row in that unit. (With d = 1 every normalised row is
    # +-1 and the true gradient is 0, which an absolute bound cannot cover.)
    unit = 1.0 / (temperature * np.linalg.norm(Z, axis=1, keepdims=True))
    assert (np.max(np.abs(g_fused - g_composed) / unit)
            <= 4 * EPS32 / temperature)


@given(pairs=st.integers(2, 12), d=st.integers(1, 9),
       temperature=st.floats(0.05, 2.0), log_scale=st.floats(-3.0, 3.0),
       seed=st.integers(0, 10_000))
@example(pairs=256, d=32, temperature=0.5, log_scale=0.0, seed=11)
@settings(max_examples=60, deadline=None)
def test_nt_xent_on_float32_rows_runs_in_float32(pairs, d, temperature,
                                                  log_scale, seed):
    """Stage 1 hands NT-Xent float32 rows. Norms, normalised rows, the
    partner term and the projection back then run in float32 too, within
    the same bounds of the float64 composition on the same values; the
    worst errors seen were 0.53 (value) and 0.80 (gradient) over 200 draws.
    The gradient it hands back is float32."""
    rng = np.random.default_rng(seed)
    Z = (rng.normal(size=(2 * pairs, d)) * 10.0 ** rng.uniform(
        -1.0, 1.0, size=(2 * pairs, 1)) * 10.0 ** log_scale).astype(np.float32)
    fused, g_fused = value_and_grad(ssrl.nt_xent_loss, Z, temperature)
    Z = Z.astype(np.float64)
    composed, g_composed = value_and_grad(composed_nt_xent, Z, temperature)
    assert g_fused.dtype == np.float32
    assert abs(fused - composed) <= 4 * EPS32 / temperature
    unit = 1.0 / (temperature * np.linalg.norm(Z, axis=1, keepdims=True))
    assert (np.max(np.abs(g_fused - g_composed) / unit)
            <= 4 * EPS32 / temperature)


def test_nt_xent_low_temperature_keeps_row_sums_finite():
    # Orthonormal rows: every anchor sees three candidates at similarity 0,
    # its partner among them. A shift of 1/t would underflow each row's sum
    # to 0 at this temperature; the row-max shift keeps the loss exact.
    # Every score is exact in float32 here, so the gradient's only rounding
    # is that of 1/3, one EPS32 per unit, without the 1/t.
    Z = np.eye(4)
    value, grad = value_and_grad(ssrl.nt_xent_loss, Z, 1e-3)
    assert abs(value - math.log(3)) <= 1e-12
    _, g_composed = value_and_grad(composed_nt_xent, Z, 1e-3)
    unit = 1.0 / (1e-3 * np.linalg.norm(Z, axis=1, keepdims=True))
    assert np.max(np.abs(grad - g_composed) / unit) <= EPS32


def test_nt_xent_logsumexp_matches_scipy():
    Z = np.random.default_rng(4).normal(size=(10, 6)) * 3.0
    Zn = Z / np.linalg.norm(Z, axis=1, keepdims=True)
    S = Zn @ Zn.T / 0.1
    np.fill_diagonal(S, -np.inf)
    partner = S[np.arange(10), np.arange(10) ^ 1]
    expected = np.mean(special.logsumexp(S, axis=1) - partner)
    assert nt_xent(Z, 0.1) == pytest.approx(expected, rel=0,
                                            abs=4 * EPS32 / 0.1)


def test_nt_xent_matches_reference_on_random_rows():
    rng = np.random.default_rng(0)
    for trial in range(5):
        Z = rng.normal(size=(8, 5)) + 0.1
        for temp in (0.2, 0.5, 1.0):
            ours = nt_xent(Z, temp)
            assert ours == pytest.approx(reference_nt_xent(Z, temp), rel=0,
                                         abs=4 * EPS32 / temp)
            assert ours >= 0.0


def test_nt_xent_identical_rows_closed_form():
    Z = np.tile(np.array([1.0, 2.0, 3.0]), (6, 1))
    # all similarities equal, so each anchor sees 2B-1 = 5 equal candidates
    assert nt_xent(Z, 0.5) == pytest.approx(math.log(5), rel=1e-12)


def test_nt_xent_perfectly_aligned_pairs():
    # orthogonal pair directions: the positive dominates as temperature drops
    Z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    loose = nt_xent(Z, 1.0)
    tight = nt_xent(Z, 0.1)
    assert tight < loose


def test_nt_xent_scale_invariance():
    rng = np.random.default_rng(1)
    Z = rng.normal(size=(6, 4)) + 0.2
    assert nt_xent(Z, 0.5) == pytest.approx(nt_xent(Z * 37.0, 0.5), rel=1e-10)


def test_contrastive_config_validation():
    with pytest.raises(ConfigError):
        ssrl.ContrastiveConfig(batch_size=5)  # odd
    with pytest.raises(ConfigError):
        ssrl.ContrastiveConfig(batch_size=2)  # too small for negatives
    with pytest.raises(ConfigError):
        ssrl.ContrastiveConfig(temperature=0.0)


def test_train_encoder_learns_and_is_deterministic(tiny_blobs):
    config = ssrl.ContrastiveConfig(epochs=8, batch_size=32)
    a = ssrl.train_encoder(tiny_blobs.X, config, seed=5)
    b = ssrl.train_encoder(tiny_blobs.X, config, seed=5)
    assert a.loss_curve[-1] < a.loss_curve[0]
    assert len(a.loss_curve) == 8
    for (na, wa), (nb, wb) in zip(a.encoder.walk(), b.encoder.walk()):
        assert np.array_equal(wa, wb), na
    Z = ssrl.embed(a.encoder, tiny_blobs.X)
    assert Z.shape == (len(tiny_blobs), 64)
    assert np.all(Z >= 0)


def test_train_encoder_runs_the_network_in_float32(tiny_blobs, monkeypatch):
    """The view batch is float32, so the network runs in float32; the
    encoder it returns is float64."""
    seen = []
    logits = numnet.TapeMlp.logits

    def spy(self, X):
        out = logits(self, X)
        seen.append((X.dtype, out.data.dtype))
        return out
    monkeypatch.setattr(numnet.TapeMlp, "logits", spy)
    config = ssrl.ContrastiveConfig(epochs=2, batch_size=16)
    result = ssrl.train_encoder(tiny_blobs.X, config, seed=7)
    assert seen and set(seen) == {(np.dtype(np.float32),) * 2}
    assert all(a.dtype == np.float64 for _, a in result.encoder.walk())


@pytest.mark.parametrize("widths", [[16, 64, 64], [5, 7]])
def test_embed_is_the_representation_of_the_full_forward(widths):
    params = numnet.init_mlp(widths, [widths[-1], 10], seed=len(widths))
    X = np.random.default_rng(8).normal(size=(300, widths[0]))
    Z = X
    for layer in params.encoder:
        Z = np.maximum(Z @ layer.weight + layer.bias, 0.0)
    assert np.array_equal(ssrl.embed(params, X), Z)
    with pytest.raises(ValueError, match="input width"):
        ssrl.embed(params, X[:, 1:])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_embed_keeps_the_dtype_of_its_rows(dtype):
    """Stage 3 embeds its float32 rows into a float32 graph table; stage 2
    embeds float64 rows."""
    params = numnet.init_mlp([6, *ssrl.ENCODER_WIDTHS], [], seed=9)
    X = np.random.default_rng(9).normal(size=(50, 6)).astype(dtype)
    Z = ssrl.embed(params, X)
    assert Z.dtype == dtype
    assert np.allclose(Z, ssrl.embed(params, X.astype(np.float64)),
                       rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("n_rows", [1, 511, 512, 513, 1100])
def test_embed_blocks_equal_one_forward_bit_for_bit(n_rows):
    """Stage 2's float64 tables: blocks of `TABLE_BLOCK` rows, the last one
    short, give one forward over all the rows, bit for bit. At 513 rows
    the lone last row joins the block before it; alone, numpy would send
    it through gemv, whose last bits can differ from gemm's."""
    encoder = numnet.init_mlp([6, *ssrl.ENCODER_WIDTHS],
                              [ssrl.ENCODER_WIDTHS[-1], 10], seed=31)
    X = np.random.default_rng(31).normal(size=(n_rows, 6))
    table = ssrl.embed(encoder, X)
    whole = numnet.frozen_forward(encoder, X, head=False)
    assert table.dtype == whole.dtype == np.float64
    assert np.array_equal(table, whole)


@pytest.mark.parametrize("n_features", [1, 6, 16, 33])
def test_embed_of_a_row_subset_is_those_rows_of_the_table(n_features):
    """A row's embedding does not depend on the rows embedded with it.

    Bit for bit with the encoder the pipeline builds, of widths
    `[n_features, *ssrl.ENCODER_WIDTHS]`, for subsets of two rows or more:
    numpy sends a lone row through gemv instead of gemm, and other layer
    widths can take another OpenBLAS kernel for a short product than for
    a long one, so either may differ in the last bits.
    """
    params = numnet.init_mlp([n_features, *ssrl.ENCODER_WIDTHS],
                             [ssrl.ENCODER_WIDTHS[-1], 32], seed=0)
    X = np.random.default_rng(1).normal(size=(4500, n_features))
    table = ssrl.embed(params, X)
    rng = np.random.default_rng(2)
    for size in (2, 3, 7, 256, 600):
        idx = rng.integers(0, len(X), size=size)
        assert np.array_equal(ssrl.embed(params, X[idx]), table[idx])


def test_projection_head_is_separate_from_embedding(tiny_blobs):
    config = ssrl.ContrastiveConfig(epochs=2, batch_size=16,
                                    projection_width=7)
    res = ssrl.train_encoder(tiny_blobs.X, config, seed=7)
    # embedding width is unaffected by the projection head
    assert ssrl.embed(res.encoder, tiny_blobs.X).shape[1] == 64


def test_embedding_probe_beats_raw_probe_with_few_labels():
    """With heavy class overlap and 5 labels per class, a linear probe on the
    learned embedding generalizes better than the same probe on raw features.
    Averaged over five label draws; every stream is pinned."""
    ds = data.make_blobs(data.DatasetSpec(n_classes=4, n_per_class=500,
                                          n_features=8, separation=3.0,
                                          sigma=1.5), seed=5)
    train, test = data.train_test_split(ds, 0.2, seed=15)
    enc = ssrl.train_encoder(train.X, ssrl.ContrastiveConfig(epochs=200),
                             seed=9)
    Ztr = ssrl.embed(enc.encoder, train.X)
    Zte = ssrl.embed(enc.encoder, test.X)
    raw_accs, emb_accs = [], []
    for draw in range(5):
        rng = np.random.default_rng(100 + draw)
        idx = np.concatenate([
            rng.choice(np.flatnonzero(train.y_clean == c), 5, replace=False)
            for c in range(4)])
        raw_pred = logistic_probe_predict(train.X[idx], train.y_clean[idx],
                                          test.X, 4)
        emb_pred = logistic_probe_predict(Ztr[idx], train.y_clean[idx],
                                          Zte, 4)
        raw_accs.append(float(np.mean(raw_pred == test.y_clean)))
        emb_accs.append(float(np.mean(emb_pred == test.y_clean)))
    assert np.mean(emb_accs) > np.mean(raw_accs)
