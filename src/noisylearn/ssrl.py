"""Self-supervised contrastive pretraining of the encoder.

Trains the encoder (through a small projection head) with the normalized
temperature-scaled cross-entropy objective on pairs of augmented views, so
the learned representation depends only on inputs, never on labels. The
projection head is discarded after training; downstream stages consume
the encoder output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numnet
from .data import AugmentationSpec, augment_batch
from .errors import ConfigError
from .numnet import MlpParams, Tensor

Array = np.ndarray

NEG_MASK = -1e12  # self-similarity score; its exp underflows to 0
ENCODER_WIDTHS = (64, 64)  # output widths of the encoder's layers
TABLE_BLOCK = 512          # rows a forward takes while `embed` fills a table


def nt_xent_loss(Z: Tensor, temperature: float) -> Tensor:
    """Contrastive loss over an interleaved batch of paired rows.

    Rows 2k and 2k+1 must be the two views of the same example, and there
    must be at least two pairs, as `train_encoder` makes them. `Z` is a
    tape Tensor; the result is a scalar Tensor. Each row is
    L2-normalized, all pairwise cosine similarities are scaled by
    `temperature`, the self term is masked out, and the loss is the mean
    cross-entropy of picking the partner row. It is one tape node whose
    backward pass is the closed form: softmax minus the partner one-hot,
    taken back through the similarity product and the row normalization.

    One n-by-n float32 buffer holds the scores, shifted by each row's
    maximum, and then their exponentials `E`. The backward is two float32
    products, `(E Zn) r + Eᵀ (Zn r)` with `r` the float32 reciprocal of
    the row sums, which never assume `E` is symmetric. The row sums and
    the log-sum-exp run in float64. The norms, the normalised rows, the
    partner term (taken from the rows) and the projection back through
    the normalization run in the dtype of `Z` (float32 in stage 1, whose
    network runs in float32; float64 otherwise), and so does the returned
    gradient. So the loss and its gradient carry float32 rounding of the
    scores, about 1e-7 / t.
    """
    n = Z.data.shape[0]
    idx = np.arange(n)
    partner = idx ^ 1  # 2k <-> 2k+1
    inv_t = 1.0 / temperature
    norms = (Z.data * Z.data).sum(axis=1, keepdims=True) ** 0.5
    Zn = Z.data / norms
    Zs = Zn.astype(np.float32, copy=False)
    # Two distinct operands make a plain gemm; `Zs @ Zs.T` would go through
    # syrk and an element-wise mirror of the triangle, which costs more.
    E = (Zs * np.float32(inv_t)) @ Zs.T
    E[idx, idx] = NEG_MASK
    shift = E.max(axis=1, keepdims=True)
    E -= shift
    np.exp(E, out=E)
    total = E.sum(axis=1, keepdims=True, dtype=np.float64)
    lse = np.log(total) + shift
    positive = (Zn * Zn[partner]).sum(axis=1) / temperature

    def push(g):
        rt = (1.0 / total).astype(np.float32)
        dZn = (E @ Zs) * rt + E.T @ (Zs * rt) - 2.0 * Zn[partner]
        dZn *= float(g) * (1.0 / n) * inv_t
        return [(Z, (dZn - Zn * (dZn * Zn).sum(axis=1, keepdims=True)) / norms)]
    return Tensor((lse[:, 0] - positive).sum() * (1.0 / n),
                  push if Z._push else None)


@dataclass
class ContrastiveConfig:
    """Knobs for the self-supervised stage."""

    temperature: float = 0.5
    batch_size: int = 256
    epochs: int = 200
    learning_rate: float = 1e-3
    eta_min: float = 2e-4
    projection_width: int = 32
    augmentation: AugmentationSpec = field(default_factory=AugmentationSpec)

    def __post_init__(self):
        if self.temperature <= 0:
            raise ConfigError("temperature must be positive")
        if self.batch_size < 4 or self.batch_size % 2 != 0:
            raise ConfigError("batch_size must be an even number >= 4")
        if self.epochs < 1 or self.projection_width < 1:
            raise ConfigError("epochs and projection_width must be >= 1")
        if self.learning_rate <= 0 or not 0 <= self.eta_min <= self.learning_rate:
            raise ConfigError("learning_rate must be positive and eta_min "
                              "in [0, learning_rate]")


@dataclass
class EncoderTrainResult:
    encoder: MlpParams          # trained encoder with empty classifier head
    loss_curve: list[float]     # mean contrastive loss per epoch


def train_encoder(X: Array, config: ContrastiveConfig,
                  seed: int) -> EncoderTrainResult:
    """Fit the encoder on unlabeled inputs with the contrastive objective.

    Each step draws a batch without labels, produces two augmented views of
    every element, interleaves them, and optimizes encoder + projection
    head jointly with Adam under a cosine schedule. Labels never enter.
    The encoder's layers have the widths `ENCODER_WIDTHS`. The views are
    float32, so the network and loss run in float32 over float64 weights.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ConfigError("train_encoder: X must be 2-D with at least 2 rows")
    rng = np.random.default_rng(seed)
    params = numnet.init_mlp([X.shape[1], *ENCODER_WIDTHS],
                             [ENCODER_WIDTHS[-1], config.projection_width],
                             seed=int(rng.integers(2**31)))
    n = X.shape[0]
    batch = min(config.batch_size, n if n % 2 == 0 else n - 1)
    steps = math.ceil(n / batch)

    def batches():
        for _ in range(steps):
            take = rng.choice(n, size=batch, replace=False)
            views = np.empty((2 * batch, X.shape[1]), dtype=np.float32)
            views[0::2] = augment_batch(X[take], config.augmentation, rng)
            views[1::2] = augment_batch(X[take], config.augmentation, rng)
            yield lambda logits, views=views: nt_xent_loss(
                logits(views), config.temperature)

    loss_curve = [float(np.mean(losses)) for losses in numnet.fit(
        params, numnet.adam(config.learning_rate), config.epochs, steps,
        batches, config.eta_min)]
    encoder = MlpParams(encoder=params.encoder, classifier=[])
    return EncoderTrainResult(encoder=encoder, loss_curve=loss_curve)


def embed(encoder: MlpParams, X: Array, dtype=None) -> Array:
    """Representation of the rows of `X` under a trained encoder, in `dtype`
    (by default float32 for float32 rows, else float64).

    Only the encoder's layers run (`numnet.frozen_forward` without the
    head), whatever head `encoder` carries. One table is filled
    `TABLE_BLOCK` rows at a time, so only one block's rows and layer
    outputs are held beside it. A lone last row joins the block before it,
    as numpy sends a one-row product through gemv, whose last bits can
    differ from gemm's. At `ENCODER_WIDTHS` the table then equals one
    forward over all its rows bit for bit.
    """
    X = np.asarray(X)
    if dtype is None:
        dtype = np.float32 if X.dtype == np.float32 else np.float64
    width = encoder.encoder[-1].bias.size if encoder.encoder else X.shape[-1]
    table = np.empty((X.shape[0], width), dtype=dtype)
    edges = [*range(0, max(len(X) - 1, 1), TABLE_BLOCK), len(X)]
    for start, stop in zip(edges, edges[1:]):
        table[start:stop] = numnet.frozen_forward(
            encoder, X[start:stop].astype(dtype, copy=False), head=False)
    return table
