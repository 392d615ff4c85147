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
                       sharpen_t)
from .numnet import MlpParams, Tensor
from .ssrl import embed

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
    augmentation: AugmentationSpec = field(default_factory=AugmentationSpec)

    def __post_init__(self):
        if self.T <= 0:
            raise ConfigError("T must be positive")
        if self.alpha <= 0:
            raise ConfigError("alpha must be positive")
        if self.lambda_u < 0:
            raise ConfigError("lambda_u must be non-negative")
        if self.lambda_lu < 0 or self.lambda_uu < 0:
            raise ConfigError("lambda_lu and lambda_uu must be non-negative")
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
    return rng.integers(0, len(transfer.labeled), size=batch)


def sample_U_candidates(ds: LabeledDataset, batch: int,
                        rng: np.random.Generator) -> Array:
    """Uniform row indices into the whole training set; labels never attach."""
    return rng.integers(0, len(ds), size=batch)


# ---------------------------------------------------------------------------
# MixMatch pieces
# ---------------------------------------------------------------------------

def _guess_from_views(params: MlpParams, views: Array, K: int,
                      T: float) -> Array:
    """Sharpened mean prediction over `K` stacked blocks of view rows.

    One forward over all blocks, in the dtype of `views`; the blocks'
    predictions are summed in view order, as the per-view forwards were,
    and in float64, since the guess is a target.
    """
    probs = numnet.mlp_forward(params, views).astype(np.float64, copy=False)
    first, *rest = np.split(probs, K)
    return sharpen_t(numnet.as_tensor(sum(rest, first) / K), T).data


def mixup(x1: Array, y1: Array, x2: Array, y2: Array, alpha: float,
          rng: np.random.Generator) -> tuple[Array, Array]:
    """Convex combination biased toward the first argument.

    lam' = max(lam, 1 - lam) with lam ~ Beta(alpha, alpha) drawn per row,
    so the first argument always dominates. float32 features mix in
    float32, with lam' cast to it; the targets mix in float64.
    """
    lam = rng.beta(alpha, alpha, size=x1.shape[0])
    lam_prime = np.maximum(lam, 1.0 - lam)[:, None]
    lam_x = (lam_prime.astype(np.float32) if x1.dtype == np.float32
             else lam_prime)
    x = lam_x * x1 + (1.0 - lam_x) * x2
    y = lam_prime * y1 + (1.0 - lam_prime) * y2
    return x, y


@dataclass
class MixedBatch:
    """One prepared training step: mixed examples plus raw graph inputs."""

    X_sup: Array       # (B, d) mixed labeled inputs
    y_sup: Array       # (B, C) mixed labeled targets
    X_unsup: Array     # (B*K, d) mixed unlabeled inputs
    q_unsup: Array     # (B*K, C) mixed unlabeled targets
    y_l: Array         # (B, C) transferred one-hot labels
    X_u_raw: Array     # (B_u, d) original unlabeled features


def prepare_mixmatch_batch(guess_params: MlpParams, X_l: Array, y_l: Array,
                           X_u: Array, config: MixMatchConfig,
                           rng: np.random.Generator) -> MixedBatch:
    """Augment, guess, concatenate, shuffle, and mix one batch.

    The K augmented views of each unlabeled row feed both the label guess
    and the unlabeled half of the mix. Randomness comes only from `rng`,
    so a frozen batch can be replayed exactly. `X_u` may have zero rows:
    the labeled rows then mix with a shuffle of themselves.
    """
    x_hat_l = augment_batch(X_l, config.augmentation, rng)
    u_all = np.concatenate([augment_batch(X_u, config.augmentation, rng)
                            for _ in range(config.K)])
    q = _guess_from_views(guess_params, u_all, config.K, config.T)
    q_all = np.concatenate([q] * config.K, axis=0)

    W_x = np.concatenate([x_hat_l, u_all], axis=0)
    W_y = np.concatenate([y_l, q_all], axis=0)
    perm = rng.permutation(W_x.shape[0])
    W_x, W_y = W_x[perm], W_y[perm]

    B = X_l.shape[0]
    X_sup, y_sup = mixup(x_hat_l, y_l, W_x[:B], W_y[:B], config.alpha, rng)
    X_unsup, q_unsup = mixup(u_all, q_all, W_x[B:], W_y[B:], config.alpha, rng)
    return MixedBatch(X_sup=X_sup, y_sup=y_sup, X_unsup=X_unsup,
                      q_unsup=q_unsup, y_l=y_l, X_u_raw=X_u)


def consistency_loss(p: Tensor, targets: Array) -> Tensor:
    """`((p - targets)²).sum(axis=1).mean()` as one node.

    The backward replays the composition op for op: the mean's scale, then
    `g·d` from each factor of the square, added.
    """
    d = p.data - targets
    n = d.shape[0]

    def push(g):
        gd = g * (1.0 / n) * d
        return [(p, gd + gd)]
    return Tensor((d * d).sum(axis=1).sum() * (1.0 / n),
                  push if p._push else None)


def weighted_total(l_sup: Tensor, l_unsup: Tensor, r: Tensor,
                   lambda_u: float) -> Tensor:
    """`l_sup + l_unsup * lambda_u + r` as one node over the scalar parts.

    Its push hands the live parts on in that order, so the gradients of
    the forwards under them add in that order too.
    """
    def push(g):
        return [(t, gt) for t, gt in ((l_sup, g), (l_unsup, g * lambda_u),
                                      (r, g)) if t._push]
    return Tensor(l_sup.data + l_unsup.data * lambda_u + r.data,
                  push if l_sup._push or l_unsup._push or r._push else None)


def stage3_loss(tape, batch: MixedBatch, graph: NeighborGraph | None,
                config: MixMatchConfig) -> tuple[Tensor, dict[str, float]]:
    """The stage-3 objective L_sup + lambda_u * L_unsup + R on one batch.

    L_sup is the cross-entropy on the mixed labeled rows and L_unsup the
    mean squared distance of the mixed unlabeled rows' predictions from
    their targets, zero when the batch has no unlabeled rows. R is the
    graph penalty on the sharpened predictions for the raw unlabeled rows,
    or zero without a graph. Returns the total on the tape and the values
    of its three parts.
    """
    l_sup = numnet.softmax_cross_entropy(tape.logits(batch.X_sup), batch.y_sup)
    l_unsup = r = numnet.as_tensor(0.0)
    if batch.X_unsup.shape[0]:  # a mean over zero rows would divide by zero
        l_unsup = consistency_loss(
            numnet.softmax_rows(tape.logits(batch.X_unsup)), batch.q_unsup)
    if graph is not None:
        p_hat = sharpen_t(numnet.softmax_rows(tape.logits(batch.X_u_raw)),
                          config.T)
        r = graph_regularizer(graph, p_hat, batch.y_l, config.lambda_lu,
                              config.lambda_uu)
    total = weighted_total(l_sup, l_unsup, r, config.lambda_u)
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


def train_stage3(encoder_init: MlpParams, classifier_init: MlpParams,
                 transfer: TransferredLabels, ds: LabeledDataset,
                 config: MixMatchConfig, seed: int,
                 test_dataset: LabeledDataset | None = None) -> Stage3Result:
    """Retrain encoder and classifier jointly on the transferred labels.

    `encoder_init` and `classifier_init` seed the live network (both
    trainable from here on). The neighbor graph reads the fixed embeddings
    of `encoder_init`, the first-stage representation. Labels for U rows
    are guessed by the EMA weights. An empty U runs the same step with
    zero U rows: L mixes with itself, and there is no unsupervised term
    and no graph.

    Each step's rows are cast to float32, so augmentation, mixup, the
    label guess and the network run in float32 over float64 weights,
    gradients, Adam moments and EMA (mixed precision, as in stage 1);
    targets and loss values stay float64. The graph reads the rows of a
    float32 table of `encoder_init`'s embeddings (`ssrl.embed`), built once
    per call.
    """
    if len(transfer.labeled) == 0:
        raise ConfigError("train_stage3: transfer has an empty L set")
    rng = np.random.default_rng(seed)
    params = MlpParams(encoder=encoder_init.encoder,
                       classifier=classifier_init.classifier)

    sampler = make_balanced_sampler(transfer) if config.use_cbs else None
    L_idx, L_targets = transfer.labeled.index, transfer.labeled_targets()
    U = transfer.unlabeled
    table = None
    if config.use_gsr and U.size:
        table = embed(encoder_init, ds.X, np.float32)
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
            if U.size == 0:
                u_idx = U
            elif config.use_cbs:
                u_idx = sample_U_candidates(ds, config.batch_size, rng)
            else:
                u_idx = U[rng.integers(0, U.size, size=config.batch_size)]
            batch = prepare_mixmatch_batch(
                ema.params, ds.X[l_idx].astype(np.float32), y_l,
                ds.X[u_idx].astype(np.float32), config, rng)
            graph = None
            if table is not None:
                graph = build_neighbor_graph(
                    table[np.concatenate([l_idx, u_idx])], config.tau_c,
                    n_labeled=l_idx.size)
            yield step_loss(batch, graph)

    history: list[dict] = []
    for epoch, _ in enumerate(numnet.fit(
            params, numnet.adam(config.lr), config.epochs, steps, batches,
            config.eta_min, ema=ema)):
        row = {"epoch": epoch}
        for key in sums:      # per-step means, summed in step order
            row[key], sums[key] = sums[key] / steps, 0.0
        if test_dataset is not None:
            row["test_acc"] = numnet.accuracy(params, test_dataset.X,
                                              test_dataset.y_clean)
            row["test_acc_ema"] = numnet.accuracy(
                ema.params, test_dataset.X, test_dataset.y_clean)
        history.append(row)

    return Stage3Result(params=params, ema=numnet.ema_params(ema),
                        history=history)
