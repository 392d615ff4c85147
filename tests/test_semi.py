import numpy as np
import pytest

from noisylearn import credibility, data, graphreg, numnet, semi
from noisylearn.errors import ConfigError


def identity_aug():
    return data.AugmentationSpec(jitter_sigma=0.0, scale_range=(1.0, 1.0),
                                 drop_prob=0.0)


def small_transfer(n_labeled, n_unlabeled, n_classes=3, label_of=None):
    labels = [label_of(i) if label_of else i % n_classes
              for i in range(n_labeled)]
    labeled = credibility.labeled_records(np.arange(n_labeled), labels,
                                          ["kept"] * n_labeled)
    unlabeled = np.arange(n_labeled, n_labeled + n_unlabeled)
    return credibility.TransferredLabels(labeled, unlabeled, 0.5, 0.5,
                                         n_classes)


# ---------------------------------------------------------------------------
# config


def test_mixmatch_config_defaults():
    config = semi.MixMatchConfig()
    assert config.T == 0.5
    assert config.alpha == 0.75
    assert config.lambda_u == 50.0
    assert config.K == 2
    assert config.lambda_lu == 0.01
    assert config.lambda_uu == 0.005
    assert config.tau_c == 0.5
    assert config.ema_decay == 0.999
    assert config.use_cbs and config.use_gsr


@pytest.mark.parametrize("kwargs", [
    dict(T=0.0), dict(alpha=0.0), dict(K=0), dict(batch_size=0),
    dict(lambda_u=-1.0), dict(tau_c=1.0), dict(ema_decay=1.5),
])
def test_mixmatch_config_validation(kwargs):
    with pytest.raises(ConfigError):
        semi.MixMatchConfig(**kwargs)


# ---------------------------------------------------------------------------
# mixup


def test_mixup_first_argument_dominates():
    rng = np.random.default_rng(0)
    x1 = np.zeros((200, 3))
    x2 = np.ones((200, 3))
    y1 = np.tile([1.0, 0.0], (200, 1))
    y2 = np.tile([0.0, 1.0], (200, 1))
    xm, ym = semi.mixup(x1, y1, x2, y2, 0.75, rng)
    assert np.all(ym[:, 0] >= 0.5)          # lam' = max(lam, 1-lam)
    assert np.all(xm >= 0.0) and np.all(xm <= 0.5 + 1e-12)


def test_mixup_folds_the_drawn_lambda_hand_value():
    lam = np.random.default_rng(3).beta(0.75, 0.75)
    assert lam < 0.5                        # so the fold engages
    xm, ym = semi.mixup(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]),
                        np.array([[0.0, 1.0]]), np.array([[0.0, 1.0]]),
                        0.75, np.random.default_rng(3))
    # the draw is folded through max(lam, 1-lam)
    assert np.allclose(xm, [[1.0 - lam, lam]])
    assert np.allclose(ym, [[1.0 - lam, lam]])


def test_mixup_rows_stay_convex():
    rng = np.random.default_rng(1)
    x1 = rng.normal(size=(50, 4))
    x2 = rng.normal(size=(50, 4))
    y1 = rng.dirichlet(np.ones(3), size=50)
    y2 = rng.dirichlet(np.ones(3), size=50)
    xm, ym = semi.mixup(x1, y1, x2, y2, 0.75, rng)
    assert np.all(xm <= np.maximum(x1, x2) + 1e-12)
    assert np.all(xm >= np.minimum(x1, x2) - 1e-12)
    assert np.allclose(ym.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mixup_features_keep_their_dtype_and_targets_are_float64(dtype):
    rng = np.random.default_rng(2)
    x1, x2 = (rng.normal(size=(20, 4)).astype(dtype) for _ in range(2))
    y1, y2 = (rng.dirichlet(np.ones(3), size=20) for _ in range(2))
    xm, ym = semi.mixup(x1, y1, x2, y2, 0.75, np.random.default_rng(3))
    assert xm.dtype == dtype and ym.dtype == np.float64


# ---------------------------------------------------------------------------
# label guessing


def test_guess_labels_uniform_head_is_uniform():
    params = numnet.MlpParams(
        encoder=[numnet.Layer(np.eye(4), np.zeros(4))],
        classifier=[numnet.Layer(np.zeros((4, 3)), np.zeros(3))])
    X = np.ones((5, 4))
    q = semi._guess_from_views(params, np.concatenate([X, X]), 2, T=1.0)
    assert np.allclose(q, 1.0 / 3.0, atol=1e-12)


def test_guess_labels_sharpens_below_unit_temperature():
    params = numnet.init_mlp([4, 8], [8, 3], seed=4)
    X = np.random.default_rng(5).normal(size=(6, 4))
    soft = semi._guess_from_views(params, X, 1, T=1.0)
    sharp = semi._guess_from_views(params, X, 1, T=0.5)
    assert np.allclose(sharp.sum(axis=1), 1.0, atol=1e-12)
    assert np.array_equal(sharp.argmax(axis=1), soft.argmax(axis=1))
    assert np.all(sharp.max(axis=1) >= soft.max(axis=1) - 1e-12)


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("rows", [1, 4, 7, 16, 128])
def test_guess_equals_per_view_forwards(K, rows):
    """Bitwise when every view starts on a BLAS kernel tile, as the
    multiple-of-4 batches of the configs here do; OpenBLAS's edge kernels
    for the leftover rows of a tile may round a row's products otherwise."""
    params = numnet.init_mlp([16, 64, 64], [64, 10], seed=K)
    views = [np.random.default_rng(rows + k).normal(size=(rows, 16))
             for k in range(K)]
    acc = numnet.mlp_forward(params, views[0])
    for view in views[1:]:
        acc = acc + numnet.mlp_forward(params, view)
    expected = graphreg.sharpen_t(numnet.Tensor(acc / K), 0.5).data
    got = semi._guess_from_views(params, np.concatenate(views), K, T=0.5)
    if rows % 4 == 0:
        assert got.tobytes() == expected.tobytes()
    else:
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# samplers


def test_balanced_sampler_equalizes_frequencies():
    transfer = small_transfer(1000, 0, n_classes=2,
                              label_of=lambda i: 0 if i < 900 else 1)
    state = semi.make_balanced_sampler(transfer)
    rng = np.random.default_rng(10)
    labels = []
    for _ in range(200):
        pos = semi.balanced_sample_L(state, 100, rng)
        labels.extend(transfer.labeled.label[pos])
    freq = np.mean(np.array(labels) == 1)
    assert abs(freq - 0.5) < 0.02


def test_balanced_sampler_skips_absent_classes():
    transfer = small_transfer(10, 0, n_classes=5, label_of=lambda i: i % 2)
    state = semi.make_balanced_sampler(transfer)
    pos = semi.balanced_sample_L(state, 50, np.random.default_rng(11))
    assert set(transfer.labeled.label[pos].tolist()) == {0, 1}


def reference_balanced_draws(transfer, batch, rng):
    """The scalar loop: a represented class uniformly, then one of its L
    positions uniformly, one `rng.integers` call per row."""
    by_class = {}
    for pos, label in enumerate(transfer.labeled.label.tolist()):
        by_class.setdefault(label, []).append(pos)
    classes = sorted(by_class)
    out = []
    for ci in rng.integers(0, len(classes), size=batch):
        pool = by_class[classes[ci]]
        out.append(pool[rng.integers(0, len(pool))])
    return out


def test_balanced_sampler_matches_scalar_loop():
    # uneven classes, one absent, and labels out of position order
    labels = [2, 0, 2, 2, 4, 0, 2, 4, 2, 2, 2]
    transfer = small_transfer(len(labels), 0, n_classes=5,
                              label_of=labels.__getitem__)
    state = semi.make_balanced_sampler(transfer)
    ours, ref = np.random.default_rng(41), np.random.default_rng(41)
    for batch in (1, 7, 128):
        pos = semi.balanced_sample_L(state, batch, ours)
        assert pos.tolist() == reference_balanced_draws(transfer, batch, ref)
    assert ours.bit_generator.state == ref.bit_generator.state
    assert ours.integers(0, 2**62) == ref.integers(0, 2**62)


def test_balanced_sampler_empty_L(tiny_blobs):
    # stage 3 refuses an empty L before it builds either sampler
    noisy, encoder, classifier = stage3_inputs(tiny_blobs)
    for use_cbs in (True, False):
        config = semi.MixMatchConfig(batch_size=16, epochs=1, use_cbs=use_cbs)
        with pytest.raises(ConfigError, match="empty L"):
            semi.train_stage3(encoder, classifier,
                              small_transfer(0, len(noisy)), noisy, config,
                              seed=24)


def test_uniform_sampler_follows_imbalance():
    transfer = small_transfer(1000, 0, n_classes=2,
                              label_of=lambda i: 0 if i < 900 else 1)
    rng = np.random.default_rng(12)
    labels = []
    for _ in range(100):
        pos = semi.uniform_sample_L(transfer, 100, rng)
        labels.extend(transfer.labeled.label[pos])
    assert abs(np.mean(np.array(labels) == 1) - 0.1) < 0.02


def test_u_candidates_drawn_from_whole_dataset(tiny_blobs):
    rng = np.random.default_rng(13)
    idx = semi.sample_U_candidates(tiny_blobs, 500, rng)
    assert idx.shape == (500,)
    assert idx.min() >= 0 and idx.max() < len(tiny_blobs)
    # with 120 source rows and 500 draws nearly every row should appear
    assert len(np.unique(idx)) > 100


# ---------------------------------------------------------------------------
# batch preparation and losses


def test_prepare_batch_shapes_and_targets():
    params = numnet.init_mlp([4, 8], [8, 3], seed=14)
    config = semi.MixMatchConfig(batch_size=6, K=2,
                                 augmentation=identity_aug())
    rng = np.random.default_rng(15)
    X_l = rng.normal(size=(6, 4))
    y_l = numnet.one_hot(rng.integers(0, 3, 6), 3)
    X_u = rng.normal(size=(6, 4))
    batch = semi.prepare_mixmatch_batch(params, X_l, y_l, X_u, config, rng)
    assert batch.X_sup.shape == (6, 4)
    assert batch.y_sup.shape == (6, 3)
    assert batch.X_unsup.shape == (12, 4)
    assert batch.q_unsup.shape == (12, 3)
    assert np.allclose(batch.y_sup.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(batch.q_unsup.sum(axis=1), 1.0, atol=1e-12)
    assert np.array_equal(batch.X_u_raw, X_u)
    assert np.array_equal(batch.y_l, y_l)


def test_prepare_batch_deterministic():
    params = numnet.init_mlp([4, 8], [8, 3], seed=16)
    config = semi.MixMatchConfig(batch_size=4, K=2)
    rng_inputs = np.random.default_rng(17)
    X_l = rng_inputs.normal(size=(4, 4))
    y_l = numnet.one_hot(rng_inputs.integers(0, 3, 4), 3)
    X_u = rng_inputs.normal(size=(4, 4))
    a = semi.prepare_mixmatch_batch(params, X_l, y_l, X_u, config,
                                    np.random.default_rng(18))
    b = semi.prepare_mixmatch_batch(params, X_l, y_l, X_u, config,
                                    np.random.default_rng(18))
    assert np.array_equal(a.X_sup, b.X_sup)
    assert np.array_equal(a.q_unsup, b.q_unsup)


def labeled_only_batch(X_l, y_l, config, rng):
    """The batch stage 3 once built on a path of its own when U was empty:
    the augmented L rows mixed with a shuffle of themselves."""
    x_hat = data.augment_batch(X_l, config.augmentation, rng)
    perm = rng.permutation(x_hat.shape[0])
    return semi.mixup(x_hat, y_l, x_hat[perm], y_l[perm], config.alpha, rng)


@pytest.mark.parametrize("K", [1, 2])
def test_prepare_batch_without_unlabeled_rows_is_the_labeled_only_batch(K):
    params = numnet.init_mlp([4, 8], [8, 3], seed=40)
    config = semi.MixMatchConfig(batch_size=8, K=K)
    rng_inputs = np.random.default_rng(41)
    X_l = rng_inputs.normal(size=(8, 4))
    y_l = numnet.one_hot(rng_inputs.integers(0, 3, 8), 3)
    rng, rng_old = np.random.default_rng(42), np.random.default_rng(42)
    batch = semi.prepare_mixmatch_batch(params, X_l, y_l, np.zeros((0, 4)),
                                        config, rng)
    X_sup, y_sup = labeled_only_batch(X_l, y_l, config, rng_old)
    for got, want in ((batch.X_sup, X_sup), (batch.y_sup, y_sup)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == rng_old.bit_generator.state
    assert batch.X_unsup.shape == (0, 4) and batch.q_unsup.shape == (0, 3)


def mixmatch_loss_values(params, X_l, y_l, X_u, config, rng):
    batch = semi.prepare_mixmatch_batch(params, X_l, y_l, X_u, config, rng)
    _, parts = semi.stage3_loss(numnet.TapeMlp(params), batch, None, config)
    return parts["l_sup"], parts["l_unsup"]


def test_mixmatch_losses_finite_and_nonnegative():
    params = numnet.init_mlp([4, 8], [8, 3], seed=19)
    config = semi.MixMatchConfig(batch_size=4, K=2)
    rng = np.random.default_rng(20)
    X_l = rng.normal(size=(4, 4))
    y_l = numnet.one_hot(rng.integers(0, 3, 4), 3)
    X_u = rng.normal(size=(4, 4))
    l_sup, l_unsup = mixmatch_loss_values(params, X_l, y_l, X_u, config, rng)
    assert np.isfinite(l_sup) and l_sup > 0.0
    assert np.isfinite(l_unsup) and l_unsup >= 0.0


def test_mixmatch_losses_perfect_model_near_zero():
    # a model that already nails hard one-hot targets on identical inputs
    W = np.zeros((2, 2))
    W[0, 0] = 100.0
    W[1, 1] = 100.0
    params = numnet.MlpParams(
        encoder=[numnet.Layer(np.eye(2) * 10.0, np.zeros(2))],
        classifier=[numnet.Layer(W, np.zeros(2))])
    config = semi.MixMatchConfig(batch_size=2, K=1, T=1.0,
                                 augmentation=identity_aug())
    X_l = np.array([[1.0, 0.0], [1.0, 0.0]])
    y_l = np.array([[1.0, 0.0], [1.0, 0.0]])
    X_u = np.array([[1.0, 0.0], [1.0, 0.0]])
    l_sup, l_unsup = mixmatch_loss_values(params, X_l, y_l, X_u, config,
                                          np.random.default_rng(21))
    assert l_sup < 1e-6
    assert l_unsup < 1e-6


# ---------------------------------------------------------------------------
# stage-3 loop


def stage3_inputs(tiny_blobs, ratio=0.5):
    noisy = data.apply_noise(tiny_blobs,
                             data.NoiseSpec(kind="symmetric", ratio=ratio),
                             np.random.default_rng(1))
    encoder = numnet.init_mlp([6, 16, 8], [8, 3], seed=22)
    classifier = numnet.MlpParams(
        encoder=[], classifier=numnet.init_layers(
            [8, 3], np.random.default_rng(23)))
    return noisy, encoder, classifier


def test_train_stage3_runs_and_logs(tiny_blobs):
    noisy, encoder, classifier = stage3_inputs(tiny_blobs)
    transfer = small_transfer(80, 40)
    config = semi.MixMatchConfig(batch_size=16, epochs=3, K=2)
    result = semi.train_stage3(encoder, classifier, transfer, noisy, config,
                               seed=24, test_dataset=tiny_blobs)
    assert len(result.history) == 3
    row = result.history[-1]
    for key in ("epoch", "l_sup", "l_unsup", "r_graph", "total",
                "test_acc", "test_acc_ema"):
        assert key in row
    assert row["epoch"] == 2
    assert np.isfinite(row["total"])


def test_train_stage3_deterministic(tiny_blobs):
    noisy, encoder, classifier = stage3_inputs(tiny_blobs)
    transfer = small_transfer(80, 40)
    config = semi.MixMatchConfig(batch_size=16, epochs=2, K=2)
    a = semi.train_stage3(encoder, classifier, transfer, noisy, config,
                          seed=25, test_dataset=tiny_blobs)
    b = semi.train_stage3(encoder, classifier, transfer, noisy, config,
                          seed=25, test_dataset=tiny_blobs)
    assert a.history == b.history
    for (na, wa), (_, wb) in zip(a.params.walk(), b.params.walk()):
        assert np.array_equal(wa, wb), na


def test_train_stage3_does_not_mutate_inputs(tiny_blobs):
    noisy, encoder, classifier = stage3_inputs(tiny_blobs)
    enc_before = [(n, a.copy()) for n, a in encoder.walk()]
    transfer = small_transfer(80, 40)
    config = semi.MixMatchConfig(batch_size=16, epochs=2)
    semi.train_stage3(encoder, classifier, transfer, noisy, config, seed=26)
    for (name, old), (_, new) in zip(enc_before, encoder.walk()):
        assert np.array_equal(old, new), name


def test_train_stage3_empty_unlabeled_branch(tiny_blobs):
    noisy, encoder, classifier = stage3_inputs(tiny_blobs)
    transfer = small_transfer(120, 0)
    config = semi.MixMatchConfig(batch_size=16, epochs=2)
    result = semi.train_stage3(encoder, classifier, transfer, noisy, config,
                               seed=27, test_dataset=tiny_blobs)
    assert all(row["l_unsup"] == 0.0 for row in result.history)
    assert all(row["r_graph"] == 0.0 for row in result.history)
    assert result.history[-1]["l_sup"] > 0.0


def test_train_stage3_gsr_off_zeroes_graph_term(tiny_blobs):
    noisy, encoder, classifier = stage3_inputs(tiny_blobs)
    transfer = small_transfer(80, 40)
    config = semi.MixMatchConfig(batch_size=16, epochs=2, use_gsr=False)
    result = semi.train_stage3(encoder, classifier, transfer, noisy, config,
                               seed=28)
    assert all(row["r_graph"] == 0.0 for row in result.history)


def test_train_stage3_runs_in_float32(tiny_blobs, monkeypatch):
    """The training rows are cast to float32 once: the three live forwards
    of each step, the label guess and the graph's table of embeddings are
    float32; the weights it returns are float64. The test accuracy runs on
    the float64 test rows."""
    noisy, encoder, classifier = stage3_inputs(tiny_blobs)
    seen, graphs = [], []
    logits, frozen_forward = numnet.TapeMlp.logits, numnet.frozen_forward

    def spy(self, X):
        out = logits(self, X)
        assert out._push is not None
        seen.append(("live", X.dtype, out.data.dtype))
        return out

    def frozen_spy(params, X, head=True):
        out = frozen_forward(params, X, head)
        seen.append(("logits" if head else "table", X.dtype, out.dtype))
        return out

    def graph_spy(Z, *args, build=semi.build_neighbor_graph, **kwargs):
        graphs.append(Z.dtype)
        return build(Z, *args, **kwargs)
    monkeypatch.setattr(numnet.TapeMlp, "logits", spy)
    monkeypatch.setattr(numnet, "frozen_forward", frozen_spy)
    monkeypatch.setattr(semi, "build_neighbor_graph", graph_spy)
    config = semi.MixMatchConfig(batch_size=16, epochs=1, K=2)
    result = semi.train_stage3(encoder, classifier, small_transfer(80, 40),
                               noisy, config, seed=30,
                               test_dataset=tiny_blobs)
    f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
    steps = len(graphs)
    assert steps == 8 and set(graphs) == {f32}
    assert seen.count(("live", f32, f32)) == 3 * steps
    assert seen.count(("logits", f32, f32)) == steps         # label guess
    assert seen.count(("logits", f64, f64)) == 2             # test accuracy
    assert seen.count(("table", f32, f32)) == 1              # 120 rows
    assert len(seen) == 4 * steps + 3
    assert all(a.dtype == np.float64 for _, a in result.params.walk())
    assert all(a.dtype == np.float64 for _, a in result.ema.walk())


@pytest.mark.parametrize("n_rows", [1, 511, 512, 513, 1100])
def test_graph_table_is_the_embedding_of_the_float32_rows(n_rows):
    """Stage 3's table of float64 rows: blocks of `ssrl.TABLE_BLOCK` rows,
    the last one short, give one float32 forward over all of them, bit for
    bit. At 513 rows the lone last row joins the block before it."""
    from noisylearn import ssrl
    encoder = numnet.init_mlp([6, *ssrl.ENCODER_WIDTHS],
                              [ssrl.ENCODER_WIDTHS[-1], 3], seed=31)
    X = np.random.default_rng(31).normal(size=(n_rows, 6))
    table = ssrl.embed(encoder, X, np.float32)
    whole = numnet.frozen_forward(encoder, X.astype(np.float32), head=False)
    assert table.dtype == whole.dtype == np.float32
    assert np.array_equal(table, whole)


def test_train_stage3_improves_on_easy_data(tiny_blobs):
    # the loop expects pretrained weights: encoder from the contrastive
    # stage, head from the frozen probe
    from noisylearn import credibility as cred, harness, ssrl
    noisy = data.apply_noise(tiny_blobs,
                             data.NoiseSpec(kind="symmetric", ratio=0.3),
                             np.random.default_rng(1))
    enc = ssrl.train_encoder(tiny_blobs.X,
                             ssrl.ContrastiveConfig(epochs=8, batch_size=32),
                             seed=5)
    probe = cred.train_frozen_classifier(
        harness.embed_dataset(enc.encoder, noisy),
        cred.Stage2Config(epochs=20), seed=23,
        test_dataset=harness.embed_dataset(enc.encoder, tiny_blobs))
    rows = np.arange(0, 120, 2)
    labeled = credibility.labeled_records(rows, tiny_blobs.y_clean[rows],
                                          ["kept"] * rows.size)
    transfer = credibility.TransferredLabels(
        labeled, np.arange(1, 120, 2), 0.5, 0.5, 3)
    config = semi.MixMatchConfig(batch_size=16, epochs=10)
    result = semi.train_stage3(enc.encoder, probe.classifier, transfer, noisy,
                               config, seed=29, test_dataset=tiny_blobs)
    accs = [row["test_acc"] for row in result.history]
    assert accs[-1] > 0.9
    assert accs[-1] >= probe.test_accuracy[-1]
