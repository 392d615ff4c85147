"""Synthetic datasets, label-noise injection, and stochastic augmentation.

Data is a Gaussian-blob classification problem: one isotropic cluster per
class, cluster centers mutually orthogonal when the ambient dimension
permits. Labels can then be corrupted symmetrically (uniform flips) or
asymmetrically (class-to-class map), and inputs can be augmented with
jitter, scaling, and coordinate dropout for the contrastive and
semi-supervised stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .numnet import _as_float

Array = np.ndarray


@dataclass
class LabeledDataset:
    """Feature matrix plus clean and observed (possibly noisy) labels."""

    X: Array
    y_clean: Array
    y_noisy: Array
    n_classes: int

    def __post_init__(self):
        self.X = np.ascontiguousarray(self.X, dtype=np.float64)
        self.y_clean = np.ascontiguousarray(self.y_clean, dtype=np.int64)
        self.y_noisy = np.ascontiguousarray(self.y_noisy, dtype=np.int64)
        n = self.X.shape[0]
        if self.X.ndim != 2:
            raise ValueError("X must be 2-D (n_samples, n_features)")
        if self.y_clean.shape != (n,) or self.y_noisy.shape != (n,):
            raise ValueError("label arrays must be 1-D and match X rows")
        for name, y in (("y_clean", self.y_clean), ("y_noisy", self.y_noisy)):
            if y.size and (y.min() < 0 or y.max() >= self.n_classes):
                raise ValueError(f"{name} outside [0, {self.n_classes})")
        for a in (self.X, self.y_clean, self.y_noisy):
            a.setflags(write=False)

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def with_labels(self, y_noisy: Array) -> "LabeledDataset":
        """The same rows, shared read-only, with a copy of `y_noisy`."""
        return LabeledDataset(self.X, self.y_clean,
                              np.asarray(y_noisy).copy(), self.n_classes)

    def subset(self, indices: Array) -> "LabeledDataset":
        indices = np.asarray(indices)
        return LabeledDataset(self.X[indices], self.y_clean[indices],
                              self.y_noisy[indices], self.n_classes)


@dataclass
class DatasetSpec:
    """The blob problem `make_blobs` draws; a ConfigError names a bad field."""

    n_classes: int = 10
    n_per_class: int = 500
    n_features: int = 16
    separation: float = 4.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.n_classes < 2:
            raise ConfigError("n_classes must be >= 2")
        if self.n_per_class < 2:     # the split puts a row on each side
            raise ConfigError("n_per_class must be >= 2")
        if self.n_features < 2:
            raise ConfigError("n_features must be >= 2")
        if self.separation <= 0 or self.sigma <= 0:
            raise ConfigError("separation and sigma must be positive")


def make_blobs(spec: DatasetSpec, seed: int) -> LabeledDataset:
    """Isotropic Gaussian clusters with mutually orthogonal centers.

    When n_classes <= n_features the centers are an orthonormal frame
    (scaled by `separation`) obtained from a QR factorization of a seeded
    Gaussian matrix; otherwise each center is an independent unit-norm
    Gaussian direction, scaled the same way. Observed labels start equal to
    the clean ones.
    """
    n_classes, n_features = spec.n_classes, spec.n_features
    separation, n_per_class = spec.separation, spec.n_per_class
    rng = np.random.default_rng(seed)
    if n_classes <= n_features:
        q, _ = np.linalg.qr(rng.normal(size=(n_features, n_classes)))
        centers = q.T * separation
    else:
        directions = rng.normal(size=(n_classes, n_features))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        centers = directions * separation
    n = n_classes * n_per_class
    y = np.repeat(np.arange(n_classes), n_per_class)
    X = centers[y] + rng.normal(scale=spec.sigma, size=(n, n_features))
    perm = rng.permutation(n)
    X, y = X[perm], y[perm]
    return LabeledDataset(X, y, y.copy(), n_classes)


# ---------------------------------------------------------------------------
# Label noise
# ---------------------------------------------------------------------------

def inject_symmetric_noise(dataset: LabeledDataset, ratio: float,
                           rng: np.random.Generator,
                           exclude_true_class: bool = False) -> LabeledDataset:
    """Replace a `ratio` fraction of labels with uniform random classes.

    By default the replacement is uniform over all classes including the
    true one, so the expected fraction of labels actually changed is
    ratio * (C - 1) / C. With `exclude_true_class` the replacement is
    uniform over the other C - 1 classes and every selected label changes.
    """
    C = dataset.n_classes
    y = dataset.y_clean.copy()
    flip = rng.random(len(dataset)) < ratio
    if exclude_true_class:
        offsets = rng.integers(1, C, size=len(dataset))
        y[flip] = (y[flip] + offsets[flip]) % C
    else:
        draws = rng.integers(0, C, size=len(dataset))
        y[flip] = draws[flip]
    return dataset.with_labels(y)


def default_pair_map(n_classes: int) -> dict[int, int]:
    """Pair each even class with its successor: 0->1, 2->3, ..."""
    return {c: (c + 1) % n_classes for c in range(0, n_classes, 2)}


def inject_asymmetric_noise(dataset: LabeledDataset, ratio: float,
                            rng: np.random.Generator,
                            pair_map: dict[int, int] | None = None) -> LabeledDataset:
    """Flip a `ratio` fraction of each mapped class to its designated target.

    Only classes present in `pair_map` are corrupted. The default map
    sends each even class to the next class.
    """
    if pair_map is None:
        pair_map = default_pair_map(dataset.n_classes)
    y = dataset.y_clean.copy()
    flip = rng.random(len(dataset)) < ratio
    for src, dst in pair_map.items():
        sel = flip & (dataset.y_clean == src)
        y[sel] = dst
    return dataset.with_labels(y)


@dataclass
class NoiseSpec:
    """Declarative description of a corruption, for configs and the CLI."""

    kind: str = "symmetric"     # "symmetric" | "asymmetric" | "none"
    ratio: float = 0.0
    exclude_true_class: bool = False
    pair_map: dict[int, int] | None = None

    def __post_init__(self):
        if self.kind not in ("symmetric", "asymmetric", "none"):
            raise ConfigError(f"unknown noise kind: {self.kind!r}")
        if not 0.0 <= self.ratio <= 1.0:
            raise ConfigError(f"noise ratio must be in [0, 1], got {self.ratio}")
        ignored = {"none": ("ratio", "exclude_true_class", "pair_map"),
                   "symmetric": ("pair_map",),
                   "asymmetric": ("exclude_true_class",)}[self.kind]
        for name in ignored:
            if value := getattr(self, name):
                raise ConfigError(f"noise kind {self.kind!r} ignores {name}, "
                                  f"got {value!r}")


def apply_noise(dataset: LabeledDataset, spec: NoiseSpec,
                rng: np.random.Generator) -> LabeledDataset:
    """Run the corruption a NoiseSpec describes, drawing from `rng`."""
    if spec.ratio == 0.0:
        return dataset.with_labels(dataset.y_clean)
    if spec.kind == "symmetric":
        return inject_symmetric_noise(dataset, spec.ratio, rng,
                                      exclude_true_class=spec.exclude_true_class)
    return inject_asymmetric_noise(dataset, spec.ratio, rng, pair_map=spec.pair_map)


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------

@dataclass
class AugmentationSpec:
    """Stochastic input transform: scale, jitter, coordinate dropout."""

    jitter_sigma: float = 0.5
    scale_range: tuple[float, float] = (0.8, 1.2)
    drop_prob: float = 0.1

    def __post_init__(self):
        lo, hi = self.scale_range
        if not (0 < lo <= hi):
            raise ConfigError(f"bad scale_range: {self.scale_range}")
        if self.jitter_sigma < 0 or not 0 <= self.drop_prob < 1:
            raise ConfigError("jitter_sigma must be >= 0 and drop_prob in [0, 1)")


def augment_batch(X: Array, spec: AugmentationSpec,
                  rng: np.random.Generator) -> Array:
    """One stochastic view of each row: x' = mask * (s * x + jitter).

    float32 rows give float32 views, computed in float32 from the same
    draws; all else is computed in float64.
    """
    X = np.atleast_2d(_as_float(X))
    dtype = X.dtype
    n, d = X.shape
    scales = rng.uniform(spec.scale_range[0], spec.scale_range[1], size=(n, 1))
    jitter = rng.normal(scale=spec.jitter_sigma, size=(n, d)) if spec.jitter_sigma > 0 \
        else np.zeros((n, d))
    mask = rng.random(size=(n, d)) >= spec.drop_prob
    return mask * (scales.astype(dtype, copy=False) * X
                   + jitter.astype(dtype, copy=False))


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def train_test_split(dataset: LabeledDataset, test_fraction: float,
                     seed) -> tuple[LabeledDataset, LabeledDataset]:
    """Stratified split; each class contributes round(n_c * test_fraction) rows.

    `seed` is an integer or an existing Generator. `test_fraction` must lie
    in (0, 1) and each class needs 2 rows or more; a config that breaks
    either is refused when it loads.
    """
    rng = np.random.default_rng(seed)
    test_idx: list[Array] = []
    train_idx: list[Array] = []
    for c in range(dataset.n_classes):
        members = np.flatnonzero(dataset.y_clean == c)
        k = int(members.size * test_fraction + 0.5)
        k = min(max(k, 1), members.size - 1)
        perm = rng.permutation(members)
        test_idx.append(perm[:k])
        train_idx.append(perm[k:])
    train = np.sort(np.concatenate(train_idx))
    test = np.sort(np.concatenate(test_idx))
    return dataset.subset(train), dataset.subset(test)
