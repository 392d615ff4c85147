"""Label triage on top of a frozen representation.

A linear classifier is trained on the frozen encoder output with the
observed (noisy) labels, and two per-sample statistics are collected:
the cross-entropy loss of each sample under its observed label, and the
confidence the classifier assigns to its own predicted class. A
two-component 1-D Gaussian mixture is fit to each statistic by EM. The
posterior of the low-mean loss component scores how likely an observed
label is clean; the posterior of the high-mean confidence component
scores how likely the prediction is right. Thresholding the two scores
partitions the training set into kept, corrected, and unknown samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numnet
from .data import LabeledDataset
from .errors import ConfigError, DegenerateMixtureError, NumericError
from .numnet import MlpParams

Array = np.ndarray


# ---------------------------------------------------------------------------
# Frozen-representation classifier
# ---------------------------------------------------------------------------

@dataclass
class Stage2Config:
    epochs: int = 40
    lr: float = 0.002
    momentum: float = 0.9
    batch_size: int = 128
    tau_clean: float = 0.5
    tau_right: float = 0.5

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.lr <= 0 or not 0.0 <= self.momentum < 1.0:
            raise ConfigError("lr must be positive and momentum in [0, 1)")
        if not (0.0 <= self.tau_clean <= 1.0 and 0.0 <= self.tau_right <= 1.0):
            raise ConfigError("tau_clean and tau_right must lie in [0, 1]")


@dataclass
class ProbeTrainResult:
    classifier: MlpParams        # empty encoder, single linear layer
    loss_curve: list[float]
    train_accuracy: list[float]  # against the observed labels it trains on
    test_accuracy: list[float]   # against clean labels; empty without a test set


def train_frozen_classifier(dataset: LabeledDataset, config: Stage2Config,
                            seed: int,
                            test_dataset: LabeledDataset | None = None
                            ) -> ProbeTrainResult:
    """Fit a linear head on embedded rows against the observed labels.

    `dataset.X` (and `test_dataset.X`) hold the frozen encoder's
    embeddings; only the head's weights move.
    """
    rng = np.random.default_rng(seed)
    params = numnet.init_mlp([], [dataset.n_features, dataset.n_classes],
                             seed=int(rng.integers(2**31)))
    targets = numnet.one_hot(dataset.y_noisy, dataset.n_classes)
    batches = numnet.ce_batches(dataset.X, targets, config.batch_size, rng)
    loss_curve = []
    train_acc = []
    test_acc = []
    optimizer = numnet.sgd(config.lr, momentum=config.momentum)
    steps = math.ceil(len(dataset) / config.batch_size)
    # eta_min = lr: the cosine schedule collapses to a constant rate
    for losses in numnet.fit(params, optimizer, config.epochs, steps, batches,
                             eta_min=config.lr):
        loss_curve.append(float(np.mean(losses)))
        train_acc.append(numnet.accuracy(params, dataset.X, dataset.y_noisy))
        if test_dataset is not None:
            test_acc.append(numnet.accuracy(params, test_dataset.X,
                                            test_dataset.y_clean))
    return ProbeTrainResult(classifier=params, loss_curve=loss_curve,
                            train_accuracy=train_acc, test_accuracy=test_acc)


def per_sample_stats(classifier: MlpParams, dataset: LabeledDataset
                     ) -> tuple[Array, Array, Array]:
    """Per-sample (loss under observed label, predicted confidence, prediction).

    `dataset.X` holds the embedded rows the classifier reads.
    """
    P = numnet.mlp_forward(classifier, dataset.X)
    clamped = np.maximum(P, numnet.LOG_FLOOR)
    losses = -np.log(clamped[np.arange(len(dataset)), dataset.y_noisy])
    y_pred = P.argmax(axis=-1)
    confidences = P[np.arange(len(dataset)), y_pred]
    return losses, confidences, y_pred


# ---------------------------------------------------------------------------
# Two-component 1-D Gaussian mixture
# ---------------------------------------------------------------------------

VAR_FLOOR = 1e-6


@dataclass
class Gmm1D:
    """Two-component univariate mixture, components ordered by mean."""

    means: Array
    variances: Array
    weights: Array
    log_likelihood_trace: list[float] = field(default_factory=list, repr=False)
    converged: bool = True       # False when EM ran out of iterations


def _log_gauss(values: Array, mean: float, var: float) -> Array:
    return -0.5 * (np.log(2.0 * np.pi * var) + (values - mean) ** 2 / var)


EM_TOL = 1e-6  # the stopping step of `fit_gmm_em`


def fit_gmm_em(values: Array, max_iter: int = 200) -> Gmm1D:
    """EM fit of a two-component 1-D Gaussian mixture.

    Initialization is deterministic: component means at the 10th and 90th
    percentiles, equal weights, both variances set to the pooled variance.
    Responsibilities are computed in log space; variances are floored at
    1e-6. Iteration stops when the mean log-likelihood improves by less
    than `EM_TOL`; a fit that uses all `max_iter` iterations without that is
    marked `converged=False`. The returned components are sorted by mean.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size < 4:
        raise ConfigError("fit_gmm_em: need at least 4 observations")
    if not np.all(np.isfinite(values)):
        raise NumericError("fit_gmm_em: non-finite observations")
    if np.ptp(values) == 0.0:
        raise DegenerateMixtureError(
            "all observations identical; a two-component mixture fit is undefined")

    means = np.percentile(values, [10.0, 90.0]).astype(np.float64)
    if means[0] == means[1]:
        means = np.array([values.min(), values.max()], dtype=np.float64)
    pooled = max(float(values.var()), VAR_FLOOR)
    variances = np.array([pooled, pooled])
    weights = np.array([0.5, 0.5])

    trace: list[float] = []
    converged = False
    for _ in range(max_iter):
        # E-step in log space, one array per component
        log_joint, log_norm = _log_joint(values, weights, means, variances)
        resp = [np.exp(lj - log_norm) for lj in log_joint]
        trace.append(float(log_norm.mean()))

        # M-step; accumulate's last entry is the sequential sum that an
        # (n, 2) column sum gives, where a 1-D sum would pair terms up.
        # Over terms that are all -0.0 it is -0.0; `+ 0.0` gives the
        # column sum's +0.0.
        counts = np.maximum([np.add.accumulate(r)[-1] for r in resp], 1e-12)
        weights = counts / values.size
        means = np.array([np.add.accumulate(r * values)[-1] + 0.0
                          for r in resp]) / counts
        variances = np.array([np.add.accumulate(r * (values - m) ** 2)[-1]
                              for r, m in zip(resp, means)]) / counts
        variances = np.maximum(variances, VAR_FLOOR)

        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) < EM_TOL:
            converged = True
            break

    order = np.argsort(means, kind="stable")
    return Gmm1D(means=means[order], variances=variances[order],
                 weights=weights[order], log_likelihood_trace=trace,
                 converged=converged)


def _log_joint(values: Array, weights, means, variances
               ) -> tuple[list[Array], Array]:
    """Per-component log weight + log density, and their log-sum-exp."""
    log_joint = [np.log(weights[k]) + _log_gauss(values, means[k], variances[k])
                 for k in range(2)]
    row_max = np.maximum(*log_joint)
    log_norm = row_max + np.log(np.exp(log_joint[0] - row_max)
                                + np.exp(log_joint[1] - row_max))
    return log_joint, log_norm


def gmm_posterior(gmm: Gmm1D, values: Array, k: int) -> Array:
    """Posterior probability of component `k` (0 = low mean, 1 = high mean)
    at each of `values`, evaluated in log space."""
    log_joint, log_norm = _log_joint(values, gmm.weights, gmm.means,
                                     gmm.variances)
    return np.exp(log_joint[k] - log_norm)


# ---------------------------------------------------------------------------
# Label transfer
# ---------------------------------------------------------------------------

@dataclass
class CredibilityScores:
    """Per-sample clean/right posteriors plus the fitted mixtures."""

    p_clean: Array
    p_right: Array
    losses: Array
    confidences: Array
    loss_gmm: Gmm1D | None = None
    confidence_gmm: Gmm1D | None = None


LABELED_DTYPE = np.dtype([("index", np.int64), ("label", np.int64),
                          ("origin", "U9")])


def labeled_records(index, label, origin) -> np.recarray:
    """L rows as a record array: row index, assigned label, origin string."""
    return np.rec.fromarrays([index, label, origin], dtype=LABELED_DTYPE)


@dataclass
class TransferredLabels:
    """Partition of training rows into labeled (L) and unlabeled (U) sets.

    `labeled` is a record array (see `labeled_records`); each row has
    `.index`, `.label` and `.origin` ("kept" | "corrected"). `unlabeled`
    holds the U row indices. Stage 2 builds both in ascending row order.
    """

    labeled: np.recarray
    unlabeled: Array
    tau_clean: float
    tau_right: float
    n_classes: int

    def labeled_indices(self) -> Array:
        return self.labeled.index

    def labeled_targets(self) -> Array:
        """One-hot targets for the labeled set, in `labeled` order."""
        return numnet.one_hot(self.labeled.label, self.n_classes)

    def unlabeled_indices(self) -> Array:
        return self.unlabeled


def _minmax(values: Array) -> Array:
    span = np.ptp(values)
    if span == 0.0:
        return np.zeros_like(values)
    return (values - values.min()) / span


@dataclass
class Stage2Result:
    """Everything the stage produces: probe, scores, predictions, transfer."""

    probe: ProbeTrainResult
    scores: CredibilityScores
    y_pred: Array
    transfer: "TransferredLabels"


def assess_credibility(losses: Array, confidences: Array) -> CredibilityScores:
    """Fit both mixtures and score every sample.

    Losses are min-max normalized before the fit so the mixture geometry
    does not depend on the loss scale. p_clean is the posterior of the
    low-mean loss component; p_right the posterior of the high-mean
    confidence component. If a statistic is degenerate (constant across
    samples) its posterior falls back to all-ones, leaving the decision
    to the other statistic.
    """
    losses = np.asarray(losses, dtype=np.float64)
    confidences = np.asarray(confidences, dtype=np.float64)
    loss_gmm, p_clean = _fit_and_score(_minmax(losses), 0)
    confidence_gmm, p_right = _fit_and_score(confidences, 1)
    return CredibilityScores(p_clean=p_clean, p_right=p_right,
                             losses=losses, confidences=confidences,
                             loss_gmm=loss_gmm, confidence_gmm=confidence_gmm)


def _fit_and_score(values: Array, k: int) -> tuple[Gmm1D | None, Array]:
    """The mixture fit of `values` and each value's posterior of component
    `k`; no mixture and all-ones posteriors when `values` is constant."""
    try:
        gmm = fit_gmm_em(values)
    except DegenerateMixtureError:
        return None, np.ones_like(values)
    return gmm, gmm_posterior(gmm, values, k)


def transfer_labels(y_noisy: Array, y_pred: Array, scores: CredibilityScores,
                    config: Stage2Config, n_classes: int) -> TransferredLabels:
    """Partition samples by the two credibility scores.

    A sample whose observed label looks clean (p_clean >= tau_clean) keeps
    that label. Otherwise, if the classifier's own prediction looks right
    (p_right >= tau_right), the sample is relabeled with the prediction.
    Everything else becomes unlabeled. Both thresholds are inclusive.
    """
    y_noisy = np.asarray(y_noisy)
    y_pred = np.asarray(y_pred)
    kept = scores.p_clean >= config.tau_clean
    in_L = kept | (scores.p_right >= config.tau_right)
    index = np.flatnonzero(in_L)
    labeled = labeled_records(index, np.where(kept, y_noisy, y_pred)[index],
                              np.where(kept[index], "kept", "corrected"))
    return TransferredLabels(labeled=labeled, unlabeled=np.flatnonzero(~in_L),
                             tau_clean=config.tau_clean,
                             tau_right=config.tau_right, n_classes=n_classes)
