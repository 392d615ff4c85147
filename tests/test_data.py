import numpy as np
import pytest
from scipy import stats

from noisylearn import data
from noisylearn.errors import ConfigError

from util import logistic_probe_predict


# ---------------------------------------------------------------------------
# generator


def test_make_blobs_shapes_and_balance():
    ds = data.make_blobs(data.DatasetSpec(n_classes=4, n_per_class=30,
                                          n_features=8), seed=0)
    assert ds.X.shape == (120, 8)
    assert np.array_equal(np.bincount(ds.y_clean), [30, 30, 30, 30])
    assert np.array_equal(ds.y_clean, ds.y_noisy)
    assert ds.X.dtype == np.float64


def test_make_blobs_rows_are_shuffled():
    ds = data.make_blobs(data.DatasetSpec(n_classes=3, n_per_class=50), seed=1)
    assert not np.all(ds.y_clean[:-1] <= ds.y_clean[1:])


def test_make_blobs_orthonormal_center_distances():
    # with C <= d centers sit on orthogonal directions scaled by separation
    sep = 3.0
    ds = data.make_blobs(data.DatasetSpec(n_classes=4, n_per_class=400,
                                          n_features=8, separation=sep,
                                          sigma=0.05), seed=2)
    centers = np.stack([ds.X[ds.y_clean == c].mean(axis=0) for c in range(4)])
    dist = np.linalg.norm(centers[:, None] - centers[None], axis=-1)
    off = dist[~np.eye(4, dtype=bool)]
    assert np.allclose(off, sep * np.sqrt(2.0), atol=0.05)


def test_make_blobs_more_classes_than_features():
    ds = data.make_blobs(data.DatasetSpec(n_classes=5, n_per_class=10,
                                          n_features=2), seed=3)
    assert ds.X.shape == (50, 2)
    assert ds.n_classes == 5


def test_make_blobs_deterministic():
    a = data.make_blobs(data.DatasetSpec(n_per_class=20), seed=7)
    b = data.make_blobs(data.DatasetSpec(n_per_class=20), seed=7)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.y_clean, b.y_clean)


@pytest.mark.parametrize("kwargs", [
    dict(n_classes=1), dict(n_per_class=0), dict(n_features=1),
    dict(separation=0.0), dict(sigma=0.0),
])
def test_make_blobs_rejects_bad_arguments(kwargs):
    with pytest.raises((ConfigError, ValueError)):
        data.make_blobs(data.DatasetSpec(**kwargs), seed=0)


def test_tight_blobs_fully_separable():
    ds = data.make_blobs(data.DatasetSpec(n_classes=4, n_per_class=25,
                                          n_features=8, sigma=1e-6), seed=4)
    pred = logistic_probe_predict(ds.X, ds.y_clean, ds.X, 4)
    assert np.mean(pred == ds.y_clean) == 1.0


# ---------------------------------------------------------------------------
# dataset container


def test_dataset_arrays_read_only(tiny_blobs):
    with pytest.raises(ValueError):
        tiny_blobs.X[0, 0] = 99.0
    with pytest.raises(ValueError):
        tiny_blobs.y_noisy[0] = 1


def test_dataset_subset_and_with_labels(tiny_blobs):
    sub = tiny_blobs.subset(np.arange(10))
    assert len(sub) == 10
    relabeled = tiny_blobs.with_labels(np.zeros(len(tiny_blobs), dtype=int))
    assert np.all(relabeled.y_noisy == 0)
    assert np.array_equal(relabeled.y_clean, tiny_blobs.y_clean)


def test_dataset_validates_lengths():
    with pytest.raises((ConfigError, ValueError)):
        data.LabeledDataset(X=np.zeros((4, 2)),
                            y_clean=np.zeros(3, dtype=int),
                            y_noisy=np.zeros(4, dtype=int),
                            n_classes=2)


# ---------------------------------------------------------------------------
# symmetric noise


def test_symmetric_noise_flip_fraction_uniform_over_all():
    ds = data.make_blobs(data.DatasetSpec(n_classes=10, n_per_class=1000),
                         seed=5)
    noisy = data.inject_symmetric_noise(ds, 0.9, rng=np.random.default_rng(6))
    flipped = float(np.mean(noisy.y_noisy != noisy.y_clean))
    # resampling uniformly over all classes leaves r/C labels unchanged
    assert abs(flipped - 0.81) < 0.02
    assert np.array_equal(noisy.y_clean, ds.y_clean)


def test_symmetric_noise_exclude_true_class_flips_exactly_r():
    ds = data.make_blobs(data.DatasetSpec(n_classes=10, n_per_class=1000),
                         seed=5)
    noisy = data.inject_symmetric_noise(ds, 0.4, rng=np.random.default_rng(7),
                                        exclude_true_class=True)
    flipped = float(np.mean(noisy.y_noisy != noisy.y_clean))
    assert abs(flipped - 0.4) < 0.02


def test_symmetric_noise_targets_are_uniform():
    ds = data.make_blobs(data.DatasetSpec(n_classes=5, n_per_class=4000,
                                          n_features=4), seed=8)
    noisy = data.inject_symmetric_noise(ds, 1.0, rng=np.random.default_rng(9))
    counts = np.bincount(noisy.y_noisy, minlength=5)
    assert stats.chisquare(counts).pvalue > 0.01


def test_symmetric_noise_zero_ratio_is_identity():
    ds = data.make_blobs(data.DatasetSpec(n_classes=3, n_per_class=20),
                         seed=10)
    noisy = data.inject_symmetric_noise(ds, 0.0, rng=np.random.default_rng(0))
    assert np.array_equal(noisy.y_noisy, ds.y_clean)


def test_symmetric_noise_rejects_bad_ratio():
    # the ratio range is NoiseSpec's to check; apply_noise never sees it
    for ratio in (-0.1, 1.5):
        with pytest.raises(ConfigError, match="ratio"):
            data.NoiseSpec(kind="symmetric", ratio=ratio)


# ---------------------------------------------------------------------------
# asymmetric noise


def test_default_pair_map_shape():
    pm = data.default_pair_map(10)
    assert pm == {0: 1, 2: 3, 4: 5, 6: 7, 8: 9}
    for src, dst in pm.items():
        assert src != dst


def test_asymmetric_noise_only_touches_mapped_classes():
    ds = data.make_blobs(data.DatasetSpec(n_classes=10, n_per_class=1000),
                         seed=11)
    pm = data.default_pair_map(10)
    noisy = data.inject_asymmetric_noise(ds, 0.4, pair_map=pm,
                                         rng=np.random.default_rng(12))
    mapped = np.isin(ds.y_clean, list(pm))
    assert np.array_equal(noisy.y_noisy[~mapped], ds.y_clean[~mapped])
    frac = float(np.mean(noisy.y_noisy[mapped] != noisy.y_clean[mapped]))
    assert abs(frac - 0.4) < 0.045
    # flips land on the designated partner class
    for src, dst in pm.items():
        hit = (ds.y_clean == src) & (noisy.y_noisy != ds.y_clean)
        assert np.all(noisy.y_noisy[hit] == dst)


def test_apply_noise_dispatch():
    ds = data.make_blobs(data.DatasetSpec(n_classes=4, n_per_class=50),
                         seed=13)
    untouched = data.apply_noise(ds, data.NoiseSpec(kind="none", ratio=0.0),
                                 np.random.default_rng(3))
    assert np.array_equal(untouched.y_noisy, ds.y_clean)
    spec = data.NoiseSpec(kind="symmetric", ratio=0.5)
    sym = data.apply_noise(ds, spec, np.random.default_rng(3))
    again = data.apply_noise(ds, spec, np.random.default_rng(3))
    assert np.array_equal(sym.y_noisy, again.y_noisy)
    assert np.any(sym.y_noisy != ds.y_clean)


# ---------------------------------------------------------------------------
# augmentation


def test_augment_batch_shape_and_determinism():
    X = np.random.default_rng(14).normal(size=(40, 6))
    spec = data.AugmentationSpec()
    a = data.augment_batch(X, spec, np.random.default_rng(15))
    b = data.augment_batch(X, spec, np.random.default_rng(15))
    assert a.shape == X.shape
    assert np.array_equal(a, b)
    assert not np.array_equal(a, X)


def reference_augment_batch(X, spec, rng):
    """`augment_batch` in float64, as it ran before it kept float32 rows."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n, d = X.shape
    scales = rng.uniform(spec.scale_range[0], spec.scale_range[1], size=(n, 1))
    jitter = rng.normal(scale=spec.jitter_sigma, size=(n, d))
    mask = rng.random(size=(n, d)) >= spec.drop_prob
    return mask * (scales * X + jitter)


def test_augment_batch_keeps_float32_and_float64_rows():
    """float64 rows give the float64 views bit for bit, as stage 1 writes
    them into its float32 view buffer; float32 rows, as stage 3 feeds
    them, give float32 views of the same draws, within float32 rounding
    of the casts and the two operations, relative to the size of the
    terms summed."""
    X = np.random.default_rng(19).normal(size=(64, 16))
    spec = data.AugmentationSpec()
    ref = reference_augment_batch(X, spec, np.random.default_rng(20))
    out64 = data.augment_batch(X, spec, np.random.default_rng(20))
    assert out64.dtype == np.float64
    assert out64.tobytes() == ref.tobytes()
    X32 = X.astype(np.float32)
    out32 = data.augment_batch(X32, spec, np.random.default_rng(20))
    assert out32.dtype == np.float32
    ref32 = reference_augment_batch(X32, spec, np.random.default_rng(20))
    draws = np.random.default_rng(20)     # the scales and jitter drawn
    size = np.abs(draws.uniform(*spec.scale_range, size=(64, 1)) * X32)
    size += np.abs(draws.normal(scale=spec.jitter_sigma, size=X.shape))
    eps32 = np.finfo(np.float32).eps
    assert np.all(np.abs(out32 - ref32) <= 4 * eps32 * size)


def test_augment_batch_identity_spec():
    X = np.random.default_rng(16).normal(size=(10, 4))
    spec = data.AugmentationSpec(jitter_sigma=0.0, scale_range=(1.0, 1.0),
                                 drop_prob=0.0)
    out = data.augment_batch(X, spec, np.random.default_rng(0))
    assert np.array_equal(out, X)


def test_augment_batch_drop_rate():
    X = np.ones((2000, 10))
    spec = data.AugmentationSpec(jitter_sigma=0.0, scale_range=(1.0, 1.0),
                                 drop_prob=0.3)
    out = data.augment_batch(X, spec, np.random.default_rng(17))
    assert abs(np.mean(out == 0.0) - 0.3) < 0.02


def test_augment_batch_scale_bounds():
    X = np.ones((500, 1))
    spec = data.AugmentationSpec(jitter_sigma=0.0, scale_range=(0.8, 1.2),
                                 drop_prob=0.0)
    out = data.augment_batch(X, spec, np.random.default_rng(18))
    assert np.all(out >= 0.8 - 1e-12)
    assert np.all(out <= 1.2 + 1e-12)


# ---------------------------------------------------------------------------
# split


def test_train_test_split_stratified_counts():
    ds = data.make_blobs(data.DatasetSpec(n_classes=4, n_per_class=50),
                         seed=19)
    train, test = data.train_test_split(ds, 0.1, seed=20)
    assert len(train) == 180 and len(test) == 20
    assert np.array_equal(np.bincount(test.y_clean), [5, 5, 5, 5])


def test_train_test_split_disjoint_cover():
    ds = data.make_blobs(data.DatasetSpec(n_classes=3, n_per_class=30),
                         seed=21)
    train, test = data.train_test_split(ds, 0.2, seed=22)
    joined = np.vstack([train.X, test.X])
    assert joined.shape[0] == len(ds)
    # every original row appears exactly once across the two splits
    order = np.lexsort(joined.T)
    base = np.lexsort(ds.X.T)
    assert np.allclose(joined[order], ds.X[base])


def test_train_test_split_deterministic():
    ds = data.make_blobs(data.DatasetSpec(n_classes=3, n_per_class=30),
                         seed=23)
    a_train, a_test = data.train_test_split(ds, 0.25, seed=24)
    b_train, b_test = data.train_test_split(ds, 0.25, seed=24)
    assert np.array_equal(a_train.X, b_train.X)
    assert np.array_equal(a_test.X, b_test.X)


def test_train_test_split_keeps_at_least_one_per_side():
    ds = data.make_blobs(data.DatasetSpec(n_classes=2, n_per_class=3), seed=25)
    train, test = data.train_test_split(ds, 0.01, seed=26)
    assert np.all(np.bincount(test.y_clean, minlength=2) >= 1)
    assert np.all(np.bincount(train.y_clean, minlength=2) >= 1)
