import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from noisylearn import graphreg, numnet
from noisylearn.errors import NumericError

from tape_ops import (add, clip_min, div, leaf, mul, power, pushes,
                      recording, reshape, sub, sum_)
from util import softmax


def unit_rows(rows):
    Z = np.asarray(rows, dtype=float)
    return Z / np.linalg.norm(Z, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# graph construction


def test_affinity_hand_values():
    Z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    g = graphreg.build_neighbor_graph(Z, tau=0.5)
    assert g.affinity[0, 1] == pytest.approx(0.5)   # identical rows
    assert g.affinity[0, 2] == 0.0                  # orthogonal rows clipped
    assert g.affinity[0, 0] == pytest.approx(0.5)   # self-similarity kept


def test_affinity_threshold_shift():
    theta = np.arccos(0.8)
    Z = np.array([[1.0, 0.0], [np.cos(theta), np.sin(theta)]])
    g = graphreg.build_neighbor_graph(Z, tau=0.5)
    assert g.affinity[0, 1] == pytest.approx(0.3, abs=1e-12)


def test_affinity_symmetric_bitwise_and_bounded():
    rng = np.random.default_rng(0)
    for tau in (0.0, 0.3, 0.7):
        Z = rng.normal(size=(12, 5)) + 0.1
        g = graphreg.build_neighbor_graph(Z, tau=tau)
        assert np.array_equal(g.affinity, g.affinity.T)
        assert np.all(g.affinity >= 0.0)
        assert np.all(g.affinity <= 1.0 - tau + 1e-12)


EPS32 = float(np.finfo(np.float32).eps)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_affinity_keeps_the_dtype_of_its_rows(dtype):
    Z = np.abs(np.random.default_rng(5).normal(size=(9, 4))).astype(dtype)
    assert graphreg.build_neighbor_graph(Z, 0.5).affinity.dtype == dtype


@pytest.mark.parametrize("n", [2, 7, 33, 256])
@pytest.mark.parametrize("tau", [0.0, 0.5, 0.8])
def test_float32_affinity_symmetric_bitwise_and_bounded(n, tau):
    """The stage-3 graph: float32 rows of a ReLU encoder, two of them equal.

    A float32 product with its own transpose is a syrk too, so the matrix
    is bitwise symmetric. An entry exceeds 1 - tau only by the float32
    rounding of a cosine of 1: at most 4 EPS32 seen, bounded by 16.
    """
    Z = np.abs(np.random.default_rng(n).normal(size=(n, 64)))
    Z[1] = Z[0]
    A = graphreg.build_neighbor_graph(Z.astype(np.float32), tau).affinity
    assert A.dtype == np.float32
    assert np.array_equal(A, A.T)
    assert A.min() >= 0.0
    assert A.max() <= 1.0 - tau + 16 * EPS32


def triu_mirror_graph(Z, tau):
    """The affinity built as before the in-place construction: clamp, then
    mirror the strict upper triangle and add the diagonal back."""
    Zn = Z / np.linalg.norm(Z, axis=1)[:, None]
    R = np.maximum(Zn @ Zn.T - tau, 0.0)
    upper = np.triu(R, 1)
    return upper + upper.T + np.diag(np.diag(R))


@pytest.mark.parametrize("shape", [(256, 64), (1, 1), (2, 3), (7, 2),
                                   (33, 17), (129, 10)])
@pytest.mark.parametrize("tau", [0.0, 0.5])
@pytest.mark.parametrize("rectified", [True, False])
def test_affinity_equals_triu_mirror_construction_bytewise(shape, tau,
                                                           rectified):
    Z = np.random.default_rng(shape[0] * 100 + shape[1]).normal(size=shape)
    if rectified:    # encoder outputs are ReLU rows
        Z = np.abs(Z)
    A = graphreg.build_neighbor_graph(Z, tau=tau).affinity
    assert A.tobytes() == triu_mirror_graph(Z, tau).tobytes()
    assert np.array_equal(A, A.T)


def test_graph_rejects_bad_input():
    Z_bad = np.eye(3)
    Z_bad[1] = 0.0
    with pytest.raises(NumericError):
        graphreg.build_neighbor_graph(Z_bad, tau=0.5)


def test_graph_role_partition():
    # rows [0, n_labeled) are L, the rest U; the penalty pairs them so
    Z = unit_rows([[1, 0], [0.9, 0.1], [0, 1], [0.1, 0.9], [0.7, 0.7]])
    g = graphreg.build_neighbor_graph(Z, tau=0.2, n_labeled=2)
    assert g.n_labeled == 2 and g.n_nodes == 5
    assert graphreg.build_neighbor_graph(Z, tau=0.2).n_labeled == 0
    rng = np.random.default_rng(9)
    p = rng.dirichlet(np.ones(3), size=3)
    y = np.eye(3)[[0, 2]]
    A = g.affinity
    lu = sum(A[2 + u, v] * np.sum((p[u] - y[v]) ** 2)
             for u in range(3) for v in range(2))
    uu = sum(A[2 + u, 2 + w] * np.sum((p[u] - p[w]) ** 2)
             for u in range(3) for w in range(3) if u != w)
    got = float(graphreg.graph_regularizer(g, numnet.Tensor(p), y, 0.01,
                                           0.005).data)
    assert got == pytest.approx(0.01 * lu + 0.005 * uu, rel=1e-12)


# ---------------------------------------------------------------------------
# sharpening


def sharpen(p, temperature):
    """`sharpen_t` on a constant, as the stage-3 label guess calls it."""
    return graphreg.sharpen_t(numnet.Tensor(p), temperature).data


def test_sharpen_hand_value():
    out = sharpen(np.array([0.8, 0.2]), 0.5)
    assert np.allclose(out, [16.0 / 17.0, 1.0 / 17.0], atol=1e-12)


def test_sharpen_identity_at_unit_temperature():
    p = np.array([0.3, 0.45, 0.25])
    assert np.allclose(sharpen(p, 1.0), p, atol=1e-12)


@given(st.integers(0, 10_000), st.integers(2, 8),
       st.sampled_from([0.25, 0.5, 0.9]))
@settings(max_examples=50, deadline=None)
def test_sharpen_simplex_and_argmax(seed, c, temp):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(c))
    out = sharpen(p, temp)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(out >= 0.0)
    assert out.argmax() == p.argmax()


def test_sharpen_lowers_entropy():
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = rng.dirichlet(np.ones(5))
        out = sharpen(p, 0.5)
        h = lambda q: -np.sum(q * np.log(np.maximum(q, 1e-12)))
        assert h(out) <= h(p) + 1e-12


def test_sharpen_matrix_rows():
    rng = np.random.default_rng(2)
    P = rng.dirichlet(np.ones(4), size=6)
    out = sharpen(P, 0.5)
    assert out.shape == (6, 4)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)


def test_sharpen_handles_zero_entries():
    out = sharpen(np.array([1.0, 0.0]), 0.5)
    assert out[0] == pytest.approx(1.0, abs=1e-9)


def test_sharpen_clamps_a_zero_row_to_uniform():
    assert np.array_equal(sharpen(np.array([0.0, 0.0]), 0.5), [0.5, 0.5])


def test_sharpen_t_matches_numpy_version():
    rng = np.random.default_rng(3)
    P = rng.dirichlet(np.ones(5), size=7)
    squared = P ** 2.0
    assert np.allclose(sharpen(P, 0.5),
                       squared / squared.sum(axis=1, keepdims=True), atol=1e-12)


def composed_sharpen_t(p, temperature):
    """The four-node sharpen (clamp, power, row sum, divide) `sharpen_t` fuses."""
    powered = power(clip_min(p, 1e-12), 1.0 / temperature)
    return div(powered, sum_(powered, axis=-1, keepdims=True))


@given(n=st.integers(1, 6), c=st.integers(1, 6),
       spread=st.sampled_from([0.5, 5.0, 40.0, 200.0]),
       temperature=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
       seed=st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
@example(n=4, c=5, spread=200.0, temperature=0.5, seed=0)
@example(n=3, c=4, spread=40.0, temperature=0.25, seed=2)
def test_sharpen_t_equals_composition_bit_for_bit(n, c, spread, temperature,
                                                  seed):
    """Softmax rows from soft to near one-hot; at large spreads most
    entries lie under the 1e-12 clamp, where the gradient is cut."""
    rng = np.random.default_rng(seed)
    p = softmax(rng.normal(scale=spread, size=(n, c)))
    upstream = rng.normal(size=(n, c))
    leaves = [leaf(p.copy()) for _ in range(2)]
    with recording() as made:
        fused = graphreg.sharpen_t(leaves[0], temperature)
    composed = composed_sharpen_t(leaves[1], temperature)
    for out in (fused, composed):
        sum_(mul(out, upstream)).backward()
    assert pushes(made) == 1    # one node
    assert np.array_equal(fused.data, composed.data)
    assert np.array_equal(leaves[0].grad, leaves[1].grad)


def test_sharpen_t_clamp_engages_and_matches():
    p = np.array([[1.0, 0.0, 1e-13, 1e-11], [0.5, 0.5, 0.0, 0.0]])
    leaves = [leaf(p.copy()) for _ in range(2)]
    for t, fn in zip(leaves, (graphreg.sharpen_t, composed_sharpen_t)):
        sum_(mul(fn(t, 0.5), np.arange(8.0).reshape(2, 4))).backward()
    assert np.array_equal(leaves[0].grad, leaves[1].grad)
    assert np.all(leaves[0].grad[p <= 1e-12] == 0.0)


# ---------------------------------------------------------------------------
# regularizer


def agreement_setup():
    """Two labeled and two unlabeled nodes, all predictions equal targets."""
    Z = unit_rows([[1, 0], [1, 0], [1, 0], [1, 0]])
    g = graphreg.build_neighbor_graph(Z, tau=0.5, n_labeled=2)
    y = np.array([[1.0, 0.0], [1.0, 0.0]])
    p = numnet.Tensor([[1.0, 0.0], [1.0, 0.0]])
    return g, p, y


def test_regularizer_zero_on_agreement():
    g, p, y = agreement_setup()
    assert float(graphreg.graph_regularizer(g, p, y, 0.01, 0.005).data) == 0.0


def test_regularizer_nonnegative_random():
    rng = np.random.default_rng(4)
    for _ in range(20):
        Z = rng.normal(size=(6, 4)) + 0.2
        g = graphreg.build_neighbor_graph(Z, tau=0.1, n_labeled=3)
        p = numnet.Tensor(rng.dirichlet(np.ones(3), size=3))
        y = np.eye(3)
        assert float(graphreg.graph_regularizer(g, p, y, 0.01, 0.005).data) >= 0.0


def test_regularizer_hand_value():
    # one labeled / two unlabeled identical embeddings, tau 0.5 -> A = 0.5
    Z = unit_rows([[1, 0], [1, 0], [1, 0]])
    g = graphreg.build_neighbor_graph(Z, tau=0.5, n_labeled=1)
    y = np.array([[1.0, 0.0]])
    p = numnet.Tensor([[0.9, 0.1], [1.0, 0.0]])
    # LU: 0.5*(0.02) + 0.5*0 = 0.01; UU ordered both directions: 2*0.5*0.02
    expected = 0.01 * (0.5 * 0.02 + 0.5 * 0.0) + 0.005 * (2 * 0.5 * 0.02)
    got = float(graphreg.graph_regularizer(g, p, y, 0.01, 0.005).data)
    assert got == pytest.approx(expected, rel=1e-12)
    # counting each unordered pair once is half the U-U weight
    unordered = float(graphreg.graph_regularizer(g, p, y, 0.01, 0.0025).data)
    assert unordered == pytest.approx(0.01 * 0.5 * 0.02 + 0.005 * 0.5 * 0.02,
                                      rel=1e-12)


def test_regularizer_empty_unlabeled_is_zero():
    Z = unit_rows([[1, 0], [0, 1]])
    g = graphreg.build_neighbor_graph(Z, tau=0.0, n_labeled=2)
    out = graphreg.graph_regularizer(g, numnet.Tensor(np.zeros((0, 2))),
                                     np.eye(2), 0.01, 0.005)
    assert float(out.data) == 0.0


def test_regularizer_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    Z = rng.normal(size=(5, 3)) + 0.3
    g = graphreg.build_neighbor_graph(Z, tau=0.2, n_labeled=2)
    p0 = rng.dirichlet(np.ones(4), size=3)
    y = rng.dirichlet(np.ones(4), size=2)

    t = leaf(p0.copy())
    out = graphreg.graph_regularizer(g, t, y, 0.01, 0.005)
    out.backward()
    h = 1e-6
    fd = np.zeros_like(p0)
    for i in np.ndindex(p0.shape):
        bump = p0.copy()
        bump[i] += h
        up = float(graphreg.graph_regularizer(g, numnet.Tensor(bump), y,
                                              0.01, 0.005).data)
        bump[i] -= 2 * h
        down = float(graphreg.graph_regularizer(g, numnet.Tensor(bump), y,
                                                0.01, 0.005).data)
        fd[i] = (up - down) / (2 * h)
    assert np.max(np.abs(t.grad - fd)) < 1e-6


def difference_stack_regularizer(graph, p, labels_labeled, lam_lu, lam_uu):
    """The penalty as (u, l, C) and (u, u, C) difference stacks on the tape.

    This is the form the fused node replaced, kept as its reference: it
    builds every pairwise difference explicitly, so it is slow but plainly
    the sum the docstring states.
    """
    n_l, n_u = graph.n_labeled, graph.n_nodes - graph.n_labeled
    labels_labeled = np.asarray(labels_labeled, dtype=np.float64)
    if n_l and lam_lu > 0:
        diff_ul = sub(reshape(p, n_u, 1, -1), labels_labeled[None, :, :])
        lu_term = sum_(mul(graph.affinity[n_l:, :n_l],
                           sum_(mul(diff_ul, diff_ul), axis=2)))
    else:
        lu_term = numnet.Tensor(0.0)
    if n_u > 1 and lam_uu > 0:
        diff_uu = sub(reshape(p, n_u, 1, -1), reshape(p, 1, n_u, -1))
        W = np.triu(graph.affinity[n_l:, n_l:], 1) * 2.0
        uu_term = sum_(mul(W, sum_(mul(diff_uu, diff_uu), axis=2)))
    else:
        uu_term = numnet.Tensor(0.0)
    return add(mul(lu_term, lam_lu), mul(uu_term, lam_uu))


def gram_form_regularizer(graph, p, labels_labeled, lam_lu, lam_uu):
    """The penalty's value in the Gram form, and its gradient in the
    Laplacian form over the weights `W + Wᵀ` of the strict upper triangle.

    This is how `graph_regularizer` computed both before its value moved
    to the Laplacian form; kept as the reference for the value and, bit
    for bit, for the gradient. Returns the value and a function of the
    upstream gradient.
    """
    n_l, n_u = graph.n_labeled, graph.n_nodes - graph.n_labeled
    Q = np.concatenate([p, np.asarray(labels_labeled, dtype=np.float64)
                        .reshape(n_l, p.shape[1])])
    Q -= p[0]
    sq = (Q * Q).sum(axis=1)
    K = sq[:n_u, None] + sq[None, :] - 2.0 * (Q[:n_u] @ Q.T)
    W = np.triu(graph.affinity[n_l:, n_l:], 1)
    W *= 2.0
    A_ul = graph.affinity[n_l:, :n_l]
    value = (lam_lu * (A_ul * K[:, n_u:]).sum()
             + lam_uu * (W * K[:, :n_u]).sum())
    B = np.empty((n_u, Q.shape[0]))
    np.add(W, W.T, out=B[:, :n_u])
    B[:, :n_u] *= lam_uu
    np.multiply(A_ul, lam_lu, out=B[:, n_u:])

    def gradient(g):
        return (2.0 * g) * (B.sum(axis=1, keepdims=True) * Q[:n_u] - B @ Q)
    return value, gradient


@given(n_l=st.integers(0, 6), n_u=st.integers(1, 7), c=st.integers(1, 5),
       tau=st.sampled_from([0.0, 0.3, 0.8]),
       lam_lu=st.sampled_from([0.0, 0.01, 1.0]),
       lam_uu=st.sampled_from([0.0, 0.005, 2.0]),
       float32=st.booleans(), upstream=st.sampled_from([1.0, 0.37]),
       seed=st.integers(0, 2**16))
@example(n_l=128, n_u=128, c=10, tau=0.5, lam_lu=0.01, lam_uu=0.005,
         float32=True, upstream=1.0, seed=0)   # the stage-3 batch
@example(n_l=128, n_u=128, c=10, tau=0.5, lam_lu=0.01, lam_uu=0.005,
         float32=False, upstream=1.0, seed=1)
@settings(max_examples=150, deadline=None)
def test_regularizer_matches_the_gram_form(n_l, n_u, c, tau, lam_lu, lam_uu,
                                           float32, upstream, seed):
    """The value within the Gram form's rounding bound, and the gradient
    bit for bit, on float64 and float32 affinities; the predictions are
    float32 where the affinity is, as stage 3 feeds them. The weights are
    float64 products in both forms, so the reference reads the float32
    affinity's values as float64."""
    rng = np.random.default_rng(seed)
    Z = np.abs(rng.normal(size=(n_l + n_u, 8)))
    p = rng.dirichlet(np.ones(c), size=n_u)
    if float32:
        Z, p = Z.astype(np.float32), p.astype(np.float32)
    g = graphreg.build_neighbor_graph(Z, tau=tau, n_labeled=n_l)
    y = np.eye(c)[rng.integers(0, c, size=n_l)]
    if not (n_l and lam_lu > 0 or n_u > 1 and lam_uu > 0):
        return      # no pair carries weight: neither form runs
    t = leaf(p.copy())
    out = graphreg.graph_regularizer(g, t, y, lam_lu, lam_uu)
    mul(out, upstream).backward()
    A = g.affinity.astype(np.float64)
    ref, ref_gradient = gram_form_regularizer(
        graphreg.NeighborGraph(A, n_l), p, y, lam_lu, lam_uu)
    sq_p, sq_y = (p * p).sum(axis=1), (y * y).sum(axis=1)
    W = np.triu(A[n_l:, n_l:], 1) * 2.0
    scale = (lam_lu * (A[n_l:, :n_l] * (sq_p[:, None] + sq_y[None, :])).sum()
             + lam_uu * (W * (sq_p[:, None] + sq_p[None, :])).sum())
    assert abs(float(out.data) - ref) <= 1e-12 * scale
    assert np.array_equal(t.grad, ref_gradient(upstream))


def value_and_grad(penalty, graph, p, y, lam_lu, lam_uu):
    t = leaf(p.copy())
    out = penalty(graph, t, y, lam_lu, lam_uu)
    out.backward()
    return float(out.data), (t.grad if t.grad is not None
                             else np.zeros_like(p))


@given(n_l=st.integers(0, 6), n_u=st.integers(1, 7), c=st.integers(1, 5),
       tau=st.sampled_from([0.0, 0.3, 0.8]),
       lam_lu=st.sampled_from([0.0, 0.01, 1.0]),
       lam_uu=st.sampled_from([0.0, 0.005, 2.0]),
       soft_labels=st.booleans(), seed=st.integers(0, 2**16))
@example(n_l=0, n_u=1, c=3, tau=0.0, lam_lu=0.01, lam_uu=0.005,
         soft_labels=False, seed=0)
@example(n_l=0, n_u=5, c=4, tau=0.0, lam_lu=0.01, lam_uu=0.005,
         soft_labels=False, seed=1)
@example(n_l=4, n_u=5, c=4, tau=0.3, lam_lu=0.0, lam_uu=0.005,
         soft_labels=True, seed=2)
@example(n_l=4, n_u=5, c=4, tau=0.3, lam_lu=0.01, lam_uu=0.0,
         soft_labels=True, seed=3)
@settings(max_examples=150, deadline=None)
def test_regularizer_node_matches_difference_stacks(
        n_l, n_u, c, tau, lam_lu, lam_uu, soft_labels, seed):
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(n_l + n_u, 3)) + 0.5
    g = graphreg.build_neighbor_graph(Z, tau=tau, n_labeled=n_l)
    p = rng.dirichlet(np.ones(c), size=n_u)
    y = (rng.dirichlet(np.ones(c), size=n_l) if soft_labels
         else np.eye(c)[rng.integers(0, c, size=n_l)])
    got, got_grad = value_and_grad(graphreg.graph_regularizer, g, p, y,
                                   lam_lu, lam_uu)
    ref, ref_grad = value_and_grad(difference_stack_regularizer, g, p, y,
                                   lam_lu, lam_uu)
    # The Gram form cancels ||p||^2 + ||q||^2 against 2 p.q, so its rounding
    # error is relative to those squared norms, not to the (possibly tiny)
    # distances. Scale both bounds by the weighted sums of norms.
    A = g.affinity
    sq_p, sq_y = (p * p).sum(axis=1), (y * y).sum(axis=1)
    W = np.triu(A[n_l:, n_l:], 1) * 2.0
    scale = (lam_lu * (A[n_l:, :n_l] * (sq_p[:, None] + sq_y[None, :])).sum()
             + lam_uu * (W * (sq_p[:, None] + sq_p[None, :])).sum())
    assert abs(got - ref) <= 1e-12 * scale
    grad_scale = 2.0 * (lam_lu * A[n_l:, :n_l].sum()
                        + lam_uu * (W + W.T).sum())
    assert np.max(np.abs(got_grad - ref_grad)) <= 1e-12 * grad_scale


@pytest.mark.parametrize("rows", ["one_hot", "soft"])
@pytest.mark.parametrize("ordered", [True, False])
@pytest.mark.parametrize("n_l,n_u,c", [(17, 23, 10), (128, 128, 10),
                                       (0, 26, 20), (9, 9, 20), (3, 1, 4)])
def test_regularizer_exactly_zero_when_all_rows_agree(rows, ordered, n_l, n_u,
                                                      c):
    # The shapes include ones where a BLAS product of identical rows differs
    # in its last bit from entry to entry. Counting each unordered U-U pair
    # once is the same penalty at half the U-U weight.
    rng = np.random.default_rng(7)
    Z = rng.normal(size=(n_l + n_u, 6)) + 0.5
    g = graphreg.build_neighbor_graph(Z, tau=0.0, n_labeled=n_l)
    q = np.eye(c)[3] if rows == "one_hot" else rng.dirichlet(np.ones(c))
    t = leaf(np.tile(q, (n_u, 1)))
    out = graphreg.graph_regularizer(g, t, np.tile(q, (n_l, 1)), 0.01,
                                     0.005 if ordered else 0.0025)
    assert out._push is not None and float(out.data) == 0.0
    out.backward()
    assert not np.any(t.grad)
