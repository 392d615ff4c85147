"""Semi-supervised retraining on transferred labels.

The final stage retrains encoder and classifier jointly on the L/U
partition: labeled batches come from L (optionally through a
class-balanced sampler), unlabeled batches from U (or, with the balanced
sampler, from the whole training set as candidates). Each step guesses
soft labels for the unlabeled rows from averaged augmented views, mixes
labeled and unlabeled examples pairwise, and minimizes

    total = L_sup + lambda_u * L_unsup + R

where R is the neighbor-graph penalty computed over the joint batch with
embeddings from the frozen first-stage encoder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numnet
from .credibility import TransferredLabels
from .data import AugmentationSpec, LabeledDataset, augment_batch
from .errors import ConfigError
from .graphreg import (NeighborGraph, build_neighbor_graph, graph_regularizer,
                       sharpen, sharpen_t)
from .numnet import MlpParams, Tensor

Array = np.ndarray


@dataclass
class MixMatchConfig:
    """Knobs for the semi-supervised stage."""

    T: float = 0.5                 # sharpening temperature
    alpha: float = 0.75            # Beta parameter for mixup
    lambda_u: float = 50.0         # unsupervised loss weight
    K: int = 2                     # augmented views per unlabeled sample
    batch_size: int = 128
    epochs: int = 30
    lambda_lu: float = 0.01        # labeled-unlabeled graph penalty weight
    lambda_uu: float = 0.005       # unlabeled-unlabeled graph penalty weight
    tau_c: float = 0.5             # graph affinity threshold
    use_cbs: bool = True           # class-balanced labeled sampling
    use_gsr: bool = True           # graph-structured penalty
    ema_decay: float = 0.999
    lr: float = 0.001
    eta_min: float = 0.0002
    guess_with_ema: bool = True
    count_ordered_pairs: bool = True
    augmentation: AugmentationSpec = field(default_factory=AugmentationSpec)

    def __post_init__(self):
        if self.T <= 0:
            raise ConfigError("T must be positive")
        if self.alpha <= 0:
            raise ConfigError("alpha must be positive")
        if self.lambda_u < 0:
            raise ConfigError("lambda_u must be non-negative")
        if self.K < 1:
            raise ConfigError("K must be >= 1")
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("batch_size and epochs must be >= 1")
        if not 0.0 <= self.tau_c < 1.0:
            raise ConfigError("tau_c must lie in [0, 1)")
        if not 0.0 <= self.ema_decay < 1.0:
            raise ConfigError("ema_decay must lie in [0, 1)")
        if self.lr <= 0 or not 0.0 <= self.eta_min <= self.lr:
            raise ConfigError("lr must be positive and eta_min in [0, lr]")


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

@dataclass
class BalancedSamplerState:
    """L positions grouped by assigned class, for 1/C class sampling."""

    order: Array    # L positions, stably sorted by label
    starts: Array   # where each represented class begins in `order`
    sizes: Array    # L rows per represented class, classes ascending


def make_balanced_sampler(transfer: TransferredLabels) -> BalancedSamplerState:
    labels = transfer.labeled.label
    if labels.size == 0:
        raise ConfigError("balanced sampler: L is empty")
    order = np.argsort(labels, kind="stable")
    _, starts, sizes = np.unique(labels[order], return_index=True,
                                 return_counts=True)
    return BalancedSamplerState(order=order, starts=starts, sizes=sizes)


def balanced_sample_L(state: BalancedSamplerState, batch: int,
                      rng: np.random.Generator) -> Array:
    """L positions drawn with replacement: class uniform among represented,
    then a row of that class."""
    classes = rng.integers(0, state.sizes.size, size=batch)
    return state.order[state.starts[classes]
                       + rng.integers(0, state.sizes[classes])]


def uniform_sample_L(transfer: TransferredLabels, batch: int,
                     rng: np.random.Generator) -> Array:
    """L positions drawn uniformly with replacement."""
    if len(transfer.labeled) == 0:
        raise ConfigError("uniform sampler: L is empty")
    return rng.integers(0, len(transfer.labeled), size=batch)


def sample_U_candidates(ds: LabeledDataset, batch: int,
                        rng: np.random.Generator) -> Array:
    """Uniform row indices into the whole training set; labels never attach."""
    if len(ds) == 0:
        raise ConfigError("sample_U_candidates: empty dataset")
    return rng.integers(0, len(ds), size=batch)


# ---------------------------------------------------------------------------
# MixMatch pieces
# ---------------------------------------------------------------------------

def _guess_from_views(params: MlpParams, views: list[Array], T: float) -> Array:
    acc = None
    for view in views:
        _, _, P = numnet.mlp_forward(params, view)
        acc = P if acc is None else acc + P
    return sharpen(acc / len(views), T)


def mixup(x1: Array, y1: Array, x2: Array, y2: Array, alpha: float,
          rng: np.random.Generator, lam: Array | float | None = None
          ) -> tuple[Array, Array]:
    """Convex combination biased toward the first argument.

    lam' = max(lam, 1 - lam) with lam ~ Beta(alpha, alpha) drawn per row,
    so the first argument always dominates. `lam` overrides the draw
    (used by tests and for forced reproductions).
    """
    if alpha <= 0:
        raise ConfigError("mixup: alpha must be positive")
    x1 = np.atleast_2d(np.asarray(x1, dtype=np.float64))
    x2 = np.atleast_2d(np.asarray(x2, dtype=np.float64))
    y1 = np.atleast_2d(np.asarray(y1, dtype=np.float64))
    y2 = np.atleast_2d(np.asarray(y2, dtype=np.float64))
    if x1.shape != x2.shape or y1.shape != y2.shape:
        raise ConfigError("mixup: mismatched operand shapes")
    n = x1.shape[0]
    if lam is None:
        lam = rng.beta(alpha, alpha, size=n)
    lam = np.broadcast_to(np.asarray(lam, dtype=np.float64), (n,))
    lam_prime = np.maximum(lam, 1.0 - lam)[:, None]
    x = lam_prime * x1 + (1.0 - lam_prime) * x2
    y = lam_prime * y1 + (1.0 - lam_prime) * y2
    return x, y


@dataclass
class MixedBatch:
    """One prepared training step: mixed examples plus raw graph inputs."""

    X_sup: Array       # (B, d) mixed labeled inputs
    y_sup: Array       # (B, C) mixed labeled targets
    X_unsup: Array     # (B*K, d) mixed unlabeled inputs
    q_unsup: Array     # (B*K, C) mixed unlabeled targets
    X_l_raw: Array     # (B, d) original labeled features
    y_l: Array         # (B, C) transferred one-hot labels
    X_u_raw: Array     # (B_u, d) original unlabeled features


def prepare_mixmatch_batch(guess_params: MlpParams, X_l: Array, y_l: Array,
                           X_u: Array, config: MixMatchConfig,
                           rng: np.random.Generator) -> MixedBatch:
    """Augment, guess, concatenate, shuffle, and mix one batch.

    The K augmented views of each unlabeled row feed both the label guess
    and the unlabeled half of the mix. Randomness comes only from `rng`,
    so a frozen batch can be replayed exactly.
    """
    X_l = np.atleast_2d(np.asarray(X_l, dtype=np.float64))
    y_l = np.atleast_2d(np.asarray(y_l, dtype=np.float64))
    X_u = np.atleast_2d(np.asarray(X_u, dtype=np.float64))
    if X_l.shape[0] != y_l.shape[0]:
        raise ConfigError("prepare_mixmatch_batch: labeled rows misaligned")
    x_hat_l = augment_batch(X_l, config.augmentation, rng)
    views = [augment_batch(X_u, config.augmentation, rng)
             for _ in range(config.K)]
    q = _guess_from_views(guess_params, views, config.T)
    u_all = np.concatenate(views, axis=0)
    q_all = np.concatenate([q] * config.K, axis=0)

    W_x = np.concatenate([x_hat_l, u_all], axis=0)
    W_y = np.concatenate([y_l, q_all], axis=0)
    perm = rng.permutation(W_x.shape[0])
    W_x, W_y = W_x[perm], W_y[perm]

    B = X_l.shape[0]
    X_sup, y_sup = mixup(x_hat_l, y_l, W_x[:B], W_y[:B], config.alpha, rng)
    X_unsup, q_unsup = mixup(u_all, q_all, W_x[B:], W_y[B:], config.alpha, rng)
    return MixedBatch(X_sup=X_sup, y_sup=y_sup, X_unsup=X_unsup,
                      q_unsup=q_unsup, X_l_raw=X_l, y_l=y_l, X_u_raw=X_u)


def mixmatch_losses_from(tape, batch: MixedBatch) -> tuple[Tensor, Tensor]:
    """Supervised CE and unsupervised squared-distance terms (0 without U)."""
    l_sup = numnet.softmax_cross_entropy(tape.logits(batch.X_sup), batch.y_sup)
    if not batch.X_unsup.shape[0]:
        return l_sup, numnet.as_tensor(0.0)
    _, _, P_unsup = tape.forward(batch.X_unsup)
    diff = P_unsup - batch.q_unsup
    return l_sup, (diff * diff).sum(axis=1).mean()


def stage3_loss(tape, batch: MixedBatch, graph: NeighborGraph | None,
                config: MixMatchConfig) -> tuple[Tensor, dict[str, float]]:
    """The stage-3 objective L_sup + lambda_u * L_unsup + R on one batch.

    R is the graph penalty on the sharpened predictions for the raw
    unlabeled rows, or zero without a graph. Returns the total on the tape
    and the values of its three parts.
    """
    l_sup, l_unsup = mixmatch_losses_from(tape, batch)
    if graph is None:
        r = numnet.as_tensor(0.0)
    else:
        p_hat = sharpen_t(numnet.softmax_rows(tape.logits(batch.X_u_raw)),
                          config.T)
        r = graph_regularizer(graph, p_hat, batch.y_l, config.lambda_lu,
                              config.lambda_uu,
                              count_ordered_pairs=config.count_ordered_pairs)
    total = l_sup + l_unsup * config.lambda_u + r
    return total, {"l_sup": float(l_sup.data), "l_unsup": float(l_unsup.data),
                   "r_graph": float(r.data)}


# ---------------------------------------------------------------------------
# The full stage
# ---------------------------------------------------------------------------

@dataclass
class Stage3Result:
    params: MlpParams            # final raw weights
    ema: MlpParams               # final EMA weights
    history: list[dict]          # one row per epoch


def _labeled_only_batch(X_l: Array, y_l: Array, config: MixMatchConfig,
                        rng: np.random.Generator) -> MixedBatch:
    """Mixup of augmented L rows with a shuffle of themselves (U is empty)."""
    x_hat = augment_batch(X_l, config.augmentation, rng)
    perm = rng.permutation(x_hat.shape[0])
    X_sup, y_sup = mixup(x_hat, y_l, x_hat[perm], y_l[perm], config.alpha, rng)
    empty = np.zeros((0, X_l.shape[1]))
    return MixedBatch(X_sup=X_sup, y_sup=y_sup, X_unsup=empty,
                      q_unsup=np.zeros((0, y_l.shape[1])), X_l_raw=X_l,
                      y_l=y_l, X_u_raw=empty)


def train_stage3(encoder_init: MlpParams, classifier_init: MlpParams,
                 transfer: TransferredLabels, ds: LabeledDataset,
                 config: MixMatchConfig, seed: int,
                 test_dataset: LabeledDataset | None = None,
                 graph_encoder: MlpParams | None = None) -> Stage3Result:
    """Retrain encoder and classifier jointly on the transferred labels.

    `encoder_init` and `classifier_init` seed the live network (both
    trainable from here on). `graph_encoder` supplies the fixed embeddings
    for the neighbor graph; it defaults to a snapshot of `encoder_init`,
    i.e. the first-stage representation. If U is empty the stage degrades
    to supervised training with mixup on L alone.
    """
    from .ssrl import embed

    if len(transfer.labeled) == 0:
        raise ConfigError("train_stage3: transfer has an empty L set")
    rng = np.random.default_rng(seed)
    params = MlpParams(encoder=encoder_init.clone().encoder,
                       classifier=classifier_init.clone().classifier)
    frozen_graph = (graph_encoder or encoder_init).clone()
    Z_table = embed(frozen_graph, ds.X)

    sampler = make_balanced_sampler(transfer) if config.use_cbs else None
    L_idx, L_targets = transfer.labeled.index, transfer.labeled_targets()
    U = transfer.unlabeled
    steps = math.ceil(len(ds) / config.batch_size)
    ema = numnet.ema_init(params, config.ema_decay)
    sums = dict.fromkeys(("l_sup", "l_unsup", "r_graph", "total"), 0.0)

    def step_loss(batch: MixedBatch, graph: NeighborGraph | None):
        def loss_fn(tape):
            total, parts = stage3_loss(tape, batch, graph, config)
            for key, value in {**parts, "total": float(total.data)}.items():
                sums[key] += value
            return total
        return loss_fn

    def batches():
        for _ in range(steps):
            if sampler is not None:
                pos = balanced_sample_L(sampler, config.batch_size, rng)
            else:
                pos = uniform_sample_L(transfer, config.batch_size, rng)
            l_idx, y_l = L_idx[pos], L_targets[pos]
            X_l = ds.X[l_idx]
            if U.size == 0:
                yield step_loss(_labeled_only_batch(X_l, y_l, config, rng), None)
                continue
            if config.use_cbs:
                u_idx = sample_U_candidates(ds, config.batch_size, rng)
            else:
                u_idx = U[rng.integers(0, U.size, size=config.batch_size)]
            guess_src = (numnet.ema_params(ema, params)
                         if config.guess_with_ema else params)
            batch = prepare_mixmatch_batch(guess_src, X_l, y_l, ds.X[u_idx],
                                           config, rng)
            graph = None
            if config.use_gsr:
                graph = build_neighbor_graph(
                    np.concatenate([Z_table[l_idx], Z_table[u_idx]]),
                    config.tau_c, n_labeled=l_idx.size)
            yield step_loss(batch, graph)

    history: list[dict] = []
    for epoch, _ in enumerate(numnet.fit(
            params, numnet.adam(config.lr), config.epochs, steps, batches,
            config.eta_min, ema=ema)):
        row = {"epoch": epoch}
        for key in sums:      # per-step means, summed in step order
            row[key], sums[key] = sums[key] / steps, 0.0
        if test_dataset is not None:
            _, _, P = numnet.mlp_forward(params, test_dataset.X)
            row["test_acc"] = float(np.mean(
                numnet.predict(P) == test_dataset.y_clean))
            shadow = numnet.ema_params(ema, params)
            _, _, P = numnet.mlp_forward(shadow, test_dataset.X)
            row["test_acc_ema"] = float(np.mean(
                numnet.predict(P) == test_dataset.y_clean))
        history.append(row)

    return Stage3Result(params=params, ema=numnet.ema_params(ema, params),
                        history=history)
