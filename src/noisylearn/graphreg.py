"""Batch-level neighbor graph and the structural consistency penalty.

Within a mini-batch, an affinity graph is built from thresholded cosine
similarity of fixed embeddings: A_ij = max(cos(z_i, z_j) - tau, 0). The
penalty pulls each unlabeled sample's sharpened prediction toward the
labels of its labeled neighbors and toward the predictions of its
unlabeled neighbors, weighted by affinity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .numnet import Tensor, _as_float, as_tensor

Array = np.ndarray


@dataclass
class NeighborGraph:
    """Symmetric affinity matrix over one batch; rows [0, n_labeled) are L."""

    affinity: Array          # (n, n); diagonal present but inert in the penalty
    n_labeled: int           # the remaining rows are U

    @property
    def n_nodes(self) -> int:
        return self.affinity.shape[0]


def build_neighbor_graph(Z: Array, tau: float = 0.5,
                         n_labeled: int = 0) -> NeighborGraph:
    """Thresholded-cosine affinity over embedding rows.

    Entries are max(cos - tau, 0) for every pair including i = j, so they
    lie in [0, 1 - tau]. Self-edges are kept (they contribute nothing to
    the penalty, where same-node distances vanish). The matrix is built in
    place in the buffer of `Zn @ Zn.T`, which is bitwise symmetric: numpy
    computes a product with its own transpose as one triangle (BLAS syrk,
    or its symmetric fallback loop) mirrored into the other, and the
    elementwise shift and clamp keep that. It runs in the dtype of `Z`
    (float32 stays, all else becomes float64); a float32 product with its
    own transpose is a syrk as well.

    The first `n_labeled` rows are the labeled nodes of the penalty and
    the rest unlabeled; by default every row counts as unlabeled.
    """
    Z = _as_float(Z)
    norms = np.linalg.norm(Z, axis=1)
    if np.any(norms == 0.0):
        raise NumericError("build_neighbor_graph: zero-norm embedding row")
    Zn = Z / norms[:, None]
    A = Zn @ Zn.T
    A -= tau
    np.maximum(A, 0.0, out=A)
    return NeighborGraph(affinity=A, n_labeled=n_labeled)


SHARPEN_FLOOR = 1e-12


def sharpen_t(p: Tensor, temperature: float) -> Tensor:
    """Temperature-sharpen probability rows: p^(1/T), renormalized.

    Entries are clamped at 1e-12 before powering. T < 1 concentrates mass
    on the largest entries; T = 1 is the identity up to renormalization.
    The argmax of every row is preserved. One tape node; on a constant
    `p` (the label guess) nothing is recorded. The backward replays the
    chain rule of the composition clamp, power, row sum, divide op for op,
    so value and gradient match it bit for bit.
    """
    e = 1.0 / temperature
    clamped = np.maximum(p.data, SHARPEN_FLOOR)
    powered = clamped ** e
    s = powered.sum(axis=-1, keepdims=True)

    def push(g):
        ds = (-g * powered / (s * s)).sum(axis=-1, keepdims=True)
        dpow = (g / s + ds) * e * clamped ** (e - 1.0)   # divide, sum, pow
        return [(p, dpow * (p.data > SHARPEN_FLOOR))]     # clamp
    return Tensor(powered / s, push if p._push else None)


def graph_regularizer(graph: NeighborGraph, p_unlabeled, labels_labeled: Array,
                      lam_lu: float, lam_uu: float) -> Tensor:
    """Affinity-weighted disagreement penalty.

    p_unlabeled holds prediction rows for the graph's unlabeled nodes and
    labels_labeled target rows for its labeled nodes, both in node order.
    The penalty is

        lam_lu * sum_{u in U, v in L} A_uv ||p_u - y_v||^2
      + lam_uu * sum_{u != v in U}    A_uv ||p_u - p_v||^2

    with the unlabeled-unlabeled sum running over ordered pairs.
    p_unlabeled is a tape Tensor or an array; the result is a scalar
    Tensor. It is one tape node, and both its value and its gradient come
    from the graph Laplacian of the weights `B` below: the value is the
    Laplacian's quadratic form over the rows of all nodes, and the
    gradient is `2 (rowsum(B) P - B Q)`, whose two products the value
    shares. The affinity must be symmetric, as `build_neighbor_graph`
    makes it; it may be float32. The penalty is exactly zero when all rows
    agree, and zero up to rounding when only the connected pairs do.
    """
    n_l, n_u = graph.n_labeled, graph.n_nodes - graph.n_labeled
    p = as_tensor(p_unlabeled)
    labels_labeled = np.asarray(labels_labeled, dtype=np.float64)
    if n_u == 0 or not (n_l and lam_lu > 0 or n_u > 1 and lam_uu > 0):
        return as_tensor(0.0)  # no pair carries weight

    # The rows Q = [P; Y], shifted by P[0]: the shift keeps every distance
    # and makes all rows exactly zero when they agree, so value and
    # gradient are then 0 in whatever order BLAS sums products.
    P = p.data
    Q = np.concatenate([P, labels_labeled.reshape(n_l, P.shape[1])])
    Q -= P[0]
    # B = [lam_uu (A_UU + A_UU) | lam_lu A_UL], the U-U diagonal zero: the
    # weight of each unlabeled row against every row of Q, in float64 for a
    # float32 affinity too. A_UU is doubled because the U-U sum runs over
    # ordered pairs, so each unordered pair counts twice.
    A = graph.affinity
    B = np.empty((n_u, Q.shape[0]))
    np.add(A[n_l:, n_l:], A[n_l:, n_l:], out=B[:, :n_u])
    B[:, :n_u] *= lam_uu
    B[np.arange(n_u), np.arange(n_u)] = 0.0
    np.multiply(A[n_l:, :n_l], lam_lu, out=B[:, n_u:], dtype=np.float64)
    # The Laplacian rows of the unlabeled nodes, rowsum(B) Q_U - B Q, and of
    # the labeled ones, colsum(B_UL) Q_L - B_ULᵀ Q_U; the value is
    # tr(Qᵀ Lap Q), the sum of their rows' dot products with Q's.
    G = B.sum(axis=1, keepdims=True) * Q[:n_u] - B @ Q
    B_ul = B[:, n_u:]
    H = B_ul.sum(axis=0)[:, None] * Q[n_u:] - B_ul.T @ Q[:n_u]
    value = (Q[:n_u] * G).sum() + (Q[n_u:] * H).sum()

    def push(g):
        return [(p, (2.0 * g) * G)]
    return Tensor(value, push if p._push else None)
