import gc
import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from noisylearn import graphreg, io, numnet, semi, ssrl
from noisylearn.errors import NumericError

from tape_ops import (Node, add, clip_min, cross_entropy_rows, div, exp,
                      leaf, log, matmul, mean, mul, pushes, recording, relu,
                      reshape, sub, sum_)
from util import central_diff, live_logits, max_rel_err, softmax


EPS32 = float(np.finfo(np.float32).eps)


def finite_rows(n, d, seed):
    return np.random.default_rng(seed).normal(size=(n, d))


# ---------------------------------------------------------------------------
# tape primitives, each checked against central finite differences


def fd_scalar(build, arrays, h=1e-6):
    """FD gradient of build(*tensors) w.r.t. each input array."""
    tensors = [leaf(a.copy()) for a in arrays]
    out = build(*tensors)
    out.backward()
    analytic = [t.grad.copy() for t in tensors]
    numeric = []
    for k, a in enumerate(arrays):
        work = [arr.copy() for arr in arrays]
        g = np.zeros_like(a, dtype=float)
        flat = work[k].reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + h
            up = build(*[numnet.Tensor(w) for w in work]).data
            flat[i] = old - h
            down = build(*[numnet.Tensor(w) for w in work]).data
            flat[i] = old
            gflat[i] = (up - down) / (2 * h)
        numeric.append(g)
    return analytic, numeric


@pytest.mark.parametrize("name,build", [
    ("add", lambda a, b: sum_(add(a, b))),
    ("sub", lambda a, b: sum_(sub(a, b))),
    ("mul", lambda a, b: sum_(mul(a, b))),
    ("div", lambda a, b: sum_(div(a, add(mul(b, b), 1.0)))),
    ("matmul", lambda a, b: sum_(matmul(a, reshape(b, 4, 3)))),
    ("mean_axis", lambda a, b: sum_(mean(mul(a, b), axis=0))),
    ("chain", lambda a, b: mean(log(add(relu(matmul(a, reshape(b, 4, 3))),
                                        0.3)))),
])
def test_tape_ops_match_finite_differences(name, build):
    a = finite_rows(3, 4, 1) + 2.0
    b = finite_rows(3, 4, 2) + 2.0
    analytic, numeric = fd_scalar(build, [a, b])
    for ga, gn in zip(analytic, numeric):
        assert np.max(np.abs(ga - gn)) < 1e-6


def test_tape_exp_log_clip():
    a = np.abs(finite_rows(2, 3, 3)) + 0.5
    analytic, numeric = fd_scalar(lambda t: sum_(clip_min(log(exp(t)), 0.8)),
                                  [a])
    assert np.max(np.abs(analytic[0] - numeric[0])) < 1e-6


def test_tape_reshape():
    a = finite_rows(5, 3, 5)

    def build(t):
        flat = reshape(t, (15,))
        rows = sum_(reshape(t, (3, 5)), axis=1, keepdims=True)
        return sum_(mul(reshape(mul(flat, flat), (3, 5)), rows))

    analytic, numeric = fd_scalar(build, [a])
    assert np.max(np.abs(analytic[0] - numeric[0])) < 1e-6


@pytest.mark.parametrize("name,build", [
    ("self_add", lambda a, b: sum_(mul(add(a, a), b))),
    ("self_mul", lambda a, b: sum_(mul(mul(a, a), b))),
    ("add_then_reuse", lambda a, b: sum_(mul(add(add(a, b), a), b))),
    ("sub_then_reuse", lambda a, b: sum_(mul(sub(sub(a, b), a), a))),
])
def test_reused_leaves_match_finite_differences(name, build):
    a = finite_rows(3, 4, 14)
    b = finite_rows(3, 4, 15)
    analytic, numeric = fd_scalar(build, [a, b])
    for ga, gn in zip(analytic, numeric):
        assert np.max(np.abs(ga - gn)) < 1e-6


def test_node_feeding_two_consumers_matches_finite_differences():
    def build(a, b):
        h = relu(mul(a, b))             # one node, two consumers
        return sum_(mul(sum_(exp(h), axis=0), sum_(add(h, b), axis=0)))

    analytic, numeric = fd_scalar(build, [finite_rows(3, 4, 16) + 0.5,
                                          finite_rows(3, 4, 17) + 0.5])
    for ga, gn in zip(analytic, numeric):
        assert np.max(np.abs(ga - gn)) < 1e-6


def test_later_accumulation_leaves_other_leaves_untouched():
    a = leaf(finite_rows(2, 3, 18))
    b = leaf(finite_rows(2, 3, 19))
    sum_(add(add(a, b), a)).backward()  # b receives the array a got first
    b_grad = b.grad
    b_before = b_grad.copy()
    assert np.array_equal(a.grad, np.full((2, 3), 2.0))
    sum_(mul(a, 3.0)).backward()        # a second sweep lands on a only
    assert np.array_equal(a.grad, np.full((2, 3), 5.0))
    assert b.grad is b_grad and np.array_equal(b_grad, b_before)


def test_second_backward_on_a_spent_tape_raises():
    a = leaf(finite_rows(2, 3, 21))
    h = mul(a, 2.0)
    root = sum_(h)
    root.backward()
    spent = a.grad
    with pytest.raises(RuntimeError, match="already ran on this tape"):
        root.backward()
    with pytest.raises(RuntimeError, match="already ran on this tape"):
        sum_(mul(h, 3.0)).backward()    # a new root over a spent node
    assert a.grad is spent and np.array_equal(spent, np.full((2, 3), 2.0))
    logits = live_logits(numnet.init_mlp([3, 4], [4, 2], seed=22))(
        finite_rows(2, 3, 22))          # a numnet node under reference ones
    sum_(logits).backward()
    with pytest.raises(RuntimeError, match="already ran on this tape"):
        sum_(logits).backward()


def test_a_node_with_two_consumers_raises_instead_of_pushing_twice():
    """Each numnet node pushes once; fan-out belongs to the reference tape."""
    params = numnet.init_mlp([3, 4], [4, 2], seed=23)
    targets = numnet.one_hot(np.array([0, 1]), 2)

    def loss_fn(logits):
        out = logits(finite_rows(2, 3, 23))
        return semi.weighted_total(
            numnet.softmax_cross_entropy(out, targets),
            numnet.softmax_cross_entropy(out, targets[::-1]),
            numnet.Tensor(0.0), 1.0)

    with pytest.raises(RuntimeError,
                       match=r"^backward\(\) already ran on this tape$"):
        numnet.grad(params, loss_fn)


def test_constant_operand_gets_no_gradient_work():
    # The gradient for a constant divisor would be -g * a / 1e400: it
    # overflows, so computing it at all raises under errstate(all="raise").
    a = leaf(finite_rows(2, 3, 20))
    with np.errstate(all="raise"):
        sum_(div(a, np.full((2, 3), 1e200))).backward()
    assert np.array_equal(a.grad, 1.0 / np.full((2, 3), 1e200))


def test_broadcast_gradients_reduce_correctly():
    a = finite_rows(3, 4, 7)
    bias = finite_rows(1, 4, 8)[0]
    analytic, numeric = fd_scalar(
        lambda t, c: sum_(mul(add(t, c), add(t, c))), [a, bias])
    assert np.max(np.abs(analytic[1] - numeric[1])) < 1e-6


def public_members(cls) -> set[str]:
    return {name for name, value in vars(cls).items()
            if (callable(value) or isinstance(value, property))
            and not (name.startswith("_") and not name.endswith("__"))}


def test_tensor_has_only_the_ops_the_stages_use():
    """Ops that only tests compose belong in `tape_ops`, not on the tape."""
    ops = public_members(numnet.Tensor)
    assert ops - {"__init__"} == {"backward"}


def test_backward_rejects_nonfinite_root():
    t = leaf(np.array([1.0]))
    with np.errstate(divide="ignore"):
        bad = sum_(log(mul(t, 0.0)))  # log(0) = -inf
    with pytest.raises(NumericError):
        bad.backward()


# ---------------------------------------------------------------------------
# softmax / cross entropy / prediction


def test_softmax_hand_value():
    p = softmax(np.array([[1.0, 2.0, 3.0]]))
    expected = [0.09003057317038046, 0.24472847105479764, 0.6652409557748218]
    assert np.allclose(p[0], expected, atol=1e-12)
    assert p.shape == (1, 3)


def test_softmax_shift_invariance():
    logits = finite_rows(5, 4, 9)
    assert np.allclose(softmax(logits), softmax(logits + 123.0),
                       atol=1e-12)


def test_softmax_handles_large_logits():
    p = softmax(np.array([[1000.0, 0.0], [0.0, -1000.0]]))
    assert np.all(np.isfinite(p))
    assert np.allclose(p.sum(axis=1), 1.0)


def test_mlp_forward_rejects_nonfinite_logits():
    params = numnet.MlpParams([], [numnet.Layer(np.eye(2), np.zeros(2))])
    with pytest.raises(NumericError, match="non-finite logits"):
        numnet.mlp_forward(params, np.array([[np.nan, 0.0]]))


@given(st.integers(2, 6), st.integers(1, 8), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_softmax_simplex_closure(c, n, seed):
    logits = np.random.default_rng(seed).normal(scale=5.0, size=(n, c))
    p = softmax(logits)
    assert np.all(p >= 0)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)


def cross_entropy(p, y) -> float:
    """Mean row cross-entropy of plain arrays, through the tape op."""
    return float(cross_entropy_rows(numnet.Tensor(np.atleast_2d(p)),
                                    np.atleast_2d(y)).data)


def test_cross_entropy_uniform_predictor():
    p = np.full(10, 0.1)
    y = numnet.one_hot(np.array([4]), 10)[0]
    assert math.isclose(cross_entropy(p, y), math.log(10), rel_tol=1e-12)


def test_cross_entropy_hand_values():
    assert math.isclose(cross_entropy(np.array([0.5, 0.5]),
                                      np.array([1.0, 0.0])),
                        math.log(2), rel_tol=1e-12)
    assert math.isclose(cross_entropy(np.array([0.9, 0.1]),
                                      np.array([0.0, 1.0])),
                        -math.log(0.1), rel_tol=1e-12)
    # rows are averaged, and a zero probability is floored, not -inf
    assert math.isclose(cross_entropy(np.array([[0.5, 0.5], [1.0, 0.0]]),
                                      np.array([[1.0, 0.0], [0.0, 1.0]])),
                        (math.log(2) - math.log(numnet.LOG_FLOOR)) / 2,
                        rel_tol=1e-12)


def test_cross_entropy_shape_mismatch():
    with pytest.raises(ValueError):
        cross_entropy(np.full((3, 2), 0.5), np.zeros(4))


# ---------------------------------------------------------------------------
# fused nodes, bit for bit against the compositions they replace
#
# The compositions are built from the per-op nodes in `tape_ops`.


def composed_dense(X, w, b, rectify):
    out = add(matmul(X, w), b)
    return relu(out) if rectify else out


def composed_softmax_rows(logits):
    """The four-node softmax (shift, exp, row sum, divide) `softmax_rows` fuses."""
    shift = logits.data.max(axis=-1, keepdims=True)
    e = exp(sub(logits, shift))
    return div(e, sum_(e, axis=-1, keepdims=True))


def composed_softmax_cross_entropy(logits, targets):
    return cross_entropy_rows(composed_softmax_rows(logits), targets)


def twin_leaves(arrays, live):
    """Two independent sets of leaves over the same arrays."""
    return [[leaf(a.copy()) if flag else Node(a.copy())
             for a, flag in zip(arrays, live)] for _ in range(2)]


def assert_same_bits(fused, composed, leaves_f, leaves_c):
    assert np.array_equal(fused.data, composed.data)
    for lf, lc in zip(leaves_f, leaves_c):
        assert (lf.grad is None) == (lc.grad is None)
        if lf.grad is not None:
            assert np.array_equal(lf.grad, lc.grad)


def tape_leaves(params, frozen=()):
    """A leaf per parameter, by `walk` name; those of `frozen` groups take
    no gradient."""
    return {name: Node(a.copy()) if name.split(".")[0] in frozen
            else leaf(a.copy()) for name, a in params.walk()}


def composed_forward(leaves, X, head=True):
    """The per-layer composition that the live forward fuses, on
    `leaves`: the logits with `head`, else the encoder layers alone."""
    layers = [name[:-len(".weight")] for name in leaves
              if name.endswith(".weight")
              and (head or name.startswith("encoder."))]
    Z = numnet.Tensor(X)
    for i, layer in enumerate(layers):
        Z = composed_dense(Z, leaves[layer + ".weight"],
                           leaves[layer + ".bias"],
                           layer.startswith("encoder.") or i < len(layers) - 1)
    return Z


def composed_grad(leaves, root):
    """Sweep `root`; the live leaves' gradients by name, zero where unused,
    as `numnet.grad` gives them."""
    root.backward()
    return {name: t.grad if t.grad is not None else np.zeros_like(t.data)
            for name, t in leaves.items() if t._push is not None}


def assert_same_grads(fused, composed):
    fused = dict(fused.walk())
    assert fused.keys() == composed.keys()
    for name in fused:
        assert np.array_equal(fused[name], composed[name]), name


def weighted_sum(outs, weights):
    return reduce(add, [sum_(mul(o, k)) for o, k in zip(outs, weights)])


@given(n=st.integers(1, 6), widths=st.lists(st.integers(1, 5), min_size=3,
                                            max_size=5),
       n_encoder=st.integers(1, 2), consumers=st.integers(1, 3),
       head=st.booleans(),
       frozen=st.sampled_from([(), ("encoder",), ("classifier",),
                               ("encoder", "classifier")]),
       seed=st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
@example(n=4, widths=[3, 5, 4, 2], n_encoder=2, consumers=3, head=True,
         frozen=(), seed=0)
@example(n=4, widths=[3, 5, 4, 2], n_encoder=1, consumers=2, head=True,
         frozen=("encoder",), seed=1)
@example(n=4, widths=[3, 5, 4, 2], n_encoder=1, consumers=1, head=True,
         frozen=("classifier",), seed=2)
def test_forward_equals_composed_layers_bit_for_bit(n, widths, n_encoder,
                                                    consumers, head, frozen,
                                                    seed):
    """One network run on `consumers` inputs, as stage 3 runs it: each
    forward's gradients add into the same parameters in turn. Without
    `head` the network is the encoder alone."""
    rng = np.random.default_rng(seed)
    params = numnet.MlpParams(numnet.init_layers(widths[:n_encoder + 1], rng),
                              numnet.init_layers(widths[n_encoder:], rng))
    for _, a in params.walk():
        a[...] = rng.normal(size=a.shape)
    if not head:
        params = numnet.MlpParams(params.encoder, [])
    xs = [rng.normal(size=(n, widths[0])) for _ in range(consumers)]
    out_width = widths[-1] if head else widths[n_encoder]
    weights = [rng.normal(size=(n, out_width)) for _ in range(consumers)]
    outs_f = []

    def loss_fn(logits):
        outs_f.extend(logits(x) for x in xs)
        return weighted_sum(outs_f, weights)

    value, grads = numnet.grad(params, loss_fn, frozen=frozen)
    leaves = tape_leaves(params, frozen)
    outs_c = [composed_forward(leaves, x, head) for x in xs]
    root = weighted_sum(outs_c, weights)
    assert_same_grads(grads, composed_grad(leaves, root))
    assert value == float(root.data)
    for of, oc in zip(outs_f, outs_c):
        assert np.array_equal(of.data, oc.data)


@given(n=st.integers(1, 6), c=st.integers(1, 6),
       spread=st.sampled_from([0.5, 5.0, 40.0, 200.0]), soft=st.booleans(),
       upstream=st.floats(-4.0, 4.0), seed=st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
@example(n=5, c=6, spread=200.0, soft=False, upstream=1.0, seed=0)
@example(n=5, c=6, spread=200.0, soft=True, upstream=-2.5, seed=3)
def test_softmax_cross_entropy_equals_composition_bit_for_bit(
        n, c, spread, soft, upstream, seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(scale=spread, size=(n, c))
    if soft:
        targets = rng.random((n, c))
        targets /= targets.sum(axis=1, keepdims=True)
    else:
        targets = numnet.one_hot(rng.integers(0, c, size=n), c)
    leaves = twin_leaves([logits], [True])
    fused = numnet.softmax_cross_entropy(leaves[0][0], targets)
    composed = composed_softmax_cross_entropy(leaves[1][0], targets)
    mul(fused, upstream).backward()
    mul(composed, upstream).backward()
    assert_same_bits(fused, composed, *leaves)


def test_softmax_cross_entropy_floor_engages_and_matches():
    """Spread logits floor most probabilities at LOG_FLOOR, gradient and all."""
    logits = np.random.default_rng(7).normal(scale=200.0, size=(5, 6))
    targets = np.full((5, 6), 1.0 / 6)
    assert np.mean(softmax(logits) < numnet.LOG_FLOOR) > 0.5
    leaves = twin_leaves([logits], [True])
    fused = numnet.softmax_cross_entropy(leaves[0][0], targets)
    composed = composed_softmax_cross_entropy(leaves[1][0], targets)
    fused.backward()
    composed.backward()
    assert_same_bits(fused, composed, *leaves)


@given(n=st.integers(1, 6), c=st.integers(1, 6),
       spread=st.sampled_from([0.5, 5.0, 40.0, 200.0]),
       vector=st.booleans(), seed=st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
@example(n=5, c=6, spread=200.0, vector=False, seed=0)
@example(n=1, c=1, spread=0.5, vector=True, seed=1)
def test_softmax_rows_equals_composition_bit_for_bit(n, c, spread, vector,
                                                     seed):
    """Soft rows (small spread) through near-one-hot ones (large spread)."""
    rng = np.random.default_rng(seed)
    shape = (c,) if vector else (n, c)
    logits = rng.normal(scale=spread, size=shape)
    upstream = rng.normal(size=shape)
    leaves = twin_leaves([logits], [True])
    with recording() as made:
        fused = numnet.softmax_rows(leaves[0][0])
    composed = composed_softmax_rows(leaves[1][0])
    for out in (fused, composed):
        sum_(mul(out, upstream)).backward()
    assert pushes(made) == 1    # one node
    assert_same_bits(fused, composed, *leaves)


@pytest.mark.parametrize("frozen", [(), ("encoder",), ("classifier",)])
def test_ce_step_equals_composed_step_bit_for_bit(frozen):
    params = numnet.init_mlp([5, 8, 6], [6, 4, 3], seed=30)
    X = finite_rows(16, 5, 31)
    targets = numnet.one_hot(np.arange(16) % 3, 3)
    fused_fn = next(iter(numnet.ce_batches(
        X, targets, 16, np.random.default_rng(0))()))
    # ce_batches shuffles; the same rng order keeps the composed batch equal
    order = np.random.default_rng(0).permutation(16)
    v_f, g_f = numnet.grad(params, fused_fn, frozen=frozen)
    leaves = tape_leaves(params, frozen)
    loss = composed_softmax_cross_entropy(composed_forward(leaves, X[order]),
                                          targets[order])
    assert g_f.flat.size
    assert_same_grads(g_f, composed_grad(leaves, loss))
    assert v_f == float(loss.data)


def tape_nodes(build):
    """The pushes of a sweep from the root `build()` returns: one per
    recorded node, none for leaves and constants."""
    with recording() as made:
        root = build()
    root.backward()
    return pushes(made)


def test_ce_step_records_one_node_per_forward_plus_loss():
    params = numnet.init_mlp([5, 8, 6], [6, 3], seed=32)
    X = finite_rows(8, 5, 33)
    targets = numnet.one_hot(np.arange(8) % 3, 3)
    loss_fn = next(iter(numnet.ce_batches(X, targets, 8,
                                          np.random.default_rng(0))()))
    assert tape_nodes(lambda: loss_fn(live_logits(params))) == 2
    assert tape_nodes(lambda: composed_softmax_cross_entropy(
        composed_forward(tape_leaves(params), X), targets)) == 19


@given(n=st.integers(1, 6), c=st.integers(1, 5),
       upstream=st.floats(-60.0, 60.0), seed=st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
@example(n=1, c=1, upstream=50.0, seed=0)
def test_consistency_loss_equals_composition_bit_for_bit(n, c, upstream,
                                                         seed):
    rng = np.random.default_rng(seed)
    p = softmax(rng.normal(scale=3.0, size=(n, c)))
    targets = rng.dirichlet(np.ones(c), size=n)
    leaves = twin_leaves([p], [True])
    with recording() as made:
        fused = semi.consistency_loss(leaves[0][0], targets)
    diff = sub(leaves[1][0], targets)
    composed = mean(sum_(mul(diff, diff), axis=1))
    for out in (fused, composed):
        mul(out, upstream).backward()
    assert pushes(made) == 1    # one node
    assert_same_bits(fused, composed, *leaves)


def mixed_batch(rng, B, n_u, K, d, C):
    """Random stage-3 rows: B labeled, n_u unlabeled with K views each."""
    return semi.MixedBatch(
        X_sup=rng.normal(size=(B, d)), y_sup=rng.dirichlet(np.ones(C), size=B),
        X_unsup=rng.normal(size=(n_u * K, d)),
        q_unsup=rng.dirichlet(np.ones(C), size=n_u * K),
        y_l=numnet.one_hot(rng.integers(0, C, size=B), C),
        X_u_raw=rng.normal(size=(n_u, d)))


def composed_stage3_loss(leaves, batch, graph, config):
    """`semi.stage3_loss` with per-layer forwards, and its consistency and
    total terms composed from `tape_ops`."""
    l_sup = composed_softmax_cross_entropy(
        composed_forward(leaves, batch.X_sup), batch.y_sup)
    l_unsup = r = numnet.Tensor(0.0)
    if batch.X_unsup.shape[0]:
        diff = sub(composed_softmax_rows(
            composed_forward(leaves, batch.X_unsup)), batch.q_unsup)
        l_unsup = mean(sum_(mul(diff, diff), axis=1))
    if graph is not None:
        p_hat = graphreg.sharpen_t(composed_softmax_rows(
            composed_forward(leaves, batch.X_u_raw)), config.T)
        r = graphreg.graph_regularizer(graph, p_hat, batch.y_l,
                                       config.lambda_lu, config.lambda_uu)
    return add(add(l_sup, mul(l_unsup, config.lambda_u)), r)


@given(B=st.integers(1, 4), n_u=st.integers(0, 3), gsr=st.booleans(),
       lambda_u=st.sampled_from([0.0, 1.0, 50.0]),
       seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
@example(B=4, n_u=0, gsr=True, lambda_u=50.0, seed=0)    # zero U rows
@example(B=4, n_u=3, gsr=True, lambda_u=50.0, seed=1)
def test_stage3_step_equals_composed_step_bit_for_bit(B, n_u, gsr, lambda_u,
                                                      seed):
    """The three forwards' gradients add in the composition's order."""
    rng = np.random.default_rng(seed)
    config = semi.MixMatchConfig(K=2, lambda_u=lambda_u)
    params = numnet.init_mlp([4, 6, 5], [5, 3], seed=seed)
    batch = mixed_batch(rng, B, n_u, config.K, 4, 3)
    graph = None
    if gsr and n_u:
        graph = graphreg.build_neighbor_graph(
            np.abs(rng.normal(size=(B + n_u, 5))), tau=0.0, n_labeled=B)
    value, grads = numnet.grad(params, lambda logits: semi.stage3_loss(
        logits, batch, graph, config)[0])
    leaves = tape_leaves(params)
    total = composed_stage3_loss(leaves, batch, graph, config)
    assert_same_grads(grads, composed_grad(leaves, total))
    assert value == float(total.data)


def test_stage3_step_records_one_node_per_forward_and_term():
    """With the graph on: three forwards, the cross-entropy, two softmaxes,
    the consistency term, the sharpening, the graph penalty and the total."""
    rng = np.random.default_rng(40)
    params = numnet.init_mlp([4, 6, 5], [5, 3], seed=40)
    batch = mixed_batch(rng, 4, 3, 2, 4, 3)
    graph = graphreg.build_neighbor_graph(np.abs(rng.normal(size=(7, 5))),
                                          tau=0.0, n_labeled=4)
    assert tape_nodes(lambda: semi.stage3_loss(
        live_logits(params), batch, graph, semi.MixMatchConfig(K=2))[0]) == 10


def test_mlp_forward_is_the_tape_forward_on_constants():
    params = numnet.init_mlp([4, 8, 6], [6, 5, 3], seed=34)
    X = finite_rows(10, 4, 35)
    taped = numnet.softmax_rows(live_logits(params)(X))
    assert np.array_equal(numnet.mlp_forward(params, X), taped.data)
    with pytest.raises(ValueError):
        numnet.mlp_forward(params, finite_rows(10, 3, 35))
    params.classifier[-1].weight[0, 0] = np.nan
    with pytest.raises(NumericError):
        numnet.mlp_forward(params, X)


def test_tensor_keeps_float32_and_makes_the_rest_float64():
    assert numnet.Tensor(np.ones(2, np.float32)).data.dtype == np.float32
    for value in ([1, 2], 3.0, np.ones(2, np.float16), np.ones(2, np.int64)):
        assert numnet.Tensor(value).data.dtype == np.float64


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mlp_forward_keeps_the_dtype_of_its_rows(dtype):
    """Stage 3's label guess runs on float32 views; stage 2 on float64."""
    params = numnet.init_mlp([4, 8], [8, 3], seed=42)
    X = np.random.default_rng(42).normal(size=(10, 4)).astype(dtype)
    P = numnet.mlp_forward(params, X)
    assert P.dtype == dtype
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-6)


def test_float32_input_runs_the_network_in_float32():
    """Stage 1's mixed precision: a float32 input runs the forward and the
    push in float32, and the push adds into the float64 gradient.

    The input is exactly a float32 array, so the float64 run on the same
    values differs only by float32 arithmetic. Each gradient entry sums
    512 rows of products through three layers; over 20 draws the worst
    error was 4 units of EPS32 times the largest gradient entry, and the
    bound is 16.
    """
    params = numnet.init_mlp([16, 64, 64], [64, 32], seed=40)
    rng = np.random.default_rng(41)
    X32 = rng.normal(size=(512, 16)).astype(np.float32)
    W = rng.normal(size=(512, 32))

    def run(X):
        outs = []

        def loss_fn(logits):   # sum(out * W); its push hands on a float64 W
            out = logits(X)
            outs.append(out)
            return numnet.Tensor((out.data * W).sum(),
                                 lambda g: [(out, W * g)])
        _, grads = numnet.grad(params, loss_fn)
        return outs[0].data, grads.flat
    out32, g32 = run(X32)
    out64, g64 = run(X32.astype(np.float64))
    assert out32.dtype == np.float32 and out64.dtype == np.float64
    assert g32.dtype == np.float64
    assert not np.array_equal(g32, g64)
    assert np.abs(g32 - g64).max() <= 16 * EPS32 * np.abs(g64).max()


def test_frozen_forwards_build_no_gradient(monkeypatch):
    """`mlp_forward` and `ssrl.embed` run the forward with no live layer
    (`frozen_forward`), which lays out no gradient buffer."""
    params = numnet.init_mlp([4, 8, 6], [6, 3], seed=37)
    encoder = numnet.MlpParams(params.encoder, [])
    X = finite_rows(5, 4, 37)
    built, post_init = [], numnet.MlpParams.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)
    monkeypatch.setattr(numnet.MlpParams, "__post_init__", counting)
    numnet.mlp_forward(params, X)
    ssrl.embed(encoder, X)
    assert built == []


def test_predict_classes_is_the_argmax_of_the_logits(monkeypatch):
    """No softmax runs, and exact ties of the logits break to the lowest
    index. In the last row the first two logits differ by less than `exp`
    resolves, so their probabilities tie; the logits do not."""
    params = numnet.MlpParams([], [numnet.Layer(np.eye(3), np.zeros(3))])
    X = np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 2.0], [-1e-17, 0.0, -5.0]])
    P = numnet.mlp_forward(params, X)
    assert np.argmax(P, axis=-1).tolist() == [0, 1, 0]
    monkeypatch.setattr(numnet, "softmax_rows", None)
    assert numnet.predict_classes(params, X).tolist() == [0, 1, 1]
    assert numnet.accuracy(params, X, np.array([0, 1, 1])) == 1.0
    params.classifier[0].weight[2, 0] = np.nan
    for call in (numnet.predict_classes, lambda p, X: numnet.accuracy(
            p, X, np.zeros(3, dtype=int))):
        with pytest.raises(NumericError, match="non-finite logits"):
            call(params, X)


def test_one_hot_round_trip():
    y = np.array([2, 0, 1, 2])
    m = numnet.one_hot(y, 3)
    assert m.shape == (4, 3)
    assert np.array_equal(m.argmax(axis=1), y)
    assert np.array_equal(m.sum(axis=1), np.ones(4))


# ---------------------------------------------------------------------------
# schedule


def test_cosine_lr_endpoints_and_midpoint():
    assert numnet.cosine_lr(0, 100, 1e-3, 2e-4) == pytest.approx(1e-3)
    # eta_min + (lr0 - eta_min) * (1 + cos(pi/2)) / 2
    assert numnet.cosine_lr(50, 100, 1e-3, 2e-4) == pytest.approx(6e-4)
    assert numnet.cosine_lr(99, 100, 1e-3, 2e-4) > 2e-4
    assert numnet.cosine_lr(100, 100, 1e-3, 2e-4) == pytest.approx(2e-4)


# ---------------------------------------------------------------------------
# parameters and forward pass


def test_init_layers_he_uniform_bounds(rng):
    layers = numnet.init_layers([64, 32, 8], rng)
    assert [l.weight.shape for l in layers] == [(64, 32), (32, 8)]
    for layer in layers:
        fan_in = layer.weight.shape[0]
        limit = math.sqrt(6.0 / fan_in)
        assert np.max(np.abs(layer.weight)) <= limit
        assert np.array_equal(layer.bias, np.zeros(layer.weight.shape[1]))


def test_init_mlp_deterministic():
    a = numnet.init_mlp([5, 8], [8, 3], seed=42)
    b = numnet.init_mlp([5, 8], [8, 3], seed=42)
    for (na, wa), (nb, wb) in zip(a.walk(), b.walk()):
        assert na == nb
        assert np.array_equal(wa, wb)


def test_mlp_params_validates_width_chain():
    enc = numnet.init_layers([5, 8], np.random.default_rng(0))
    cls = numnet.init_layers([9, 3], np.random.default_rng(0))
    with pytest.raises(Exception):
        numnet.MlpParams(encoder=enc, classifier=cls)


def test_mlp_forward_embedding_is_rectified():
    params = numnet.init_mlp([4, 8, 6], [6, 3], seed=1)
    X = finite_rows(10, 4, 11)
    Z = numnet.frozen_forward(params, X, head=False)
    logits = numnet.frozen_forward(params, X)
    probs = numnet.mlp_forward(params, X)
    assert Z.shape == (10, 6)
    assert np.all(Z >= 0)  # activation applied after the last encoder layer
    assert logits.shape == (10, 3)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.min(logits) < 0  # the head itself stays linear


def test_clone_is_independent():
    params = numnet.init_mlp([3, 4], [4, 2], seed=2)
    copy = params.clone()
    copy.encoder[0].weight[0, 0] += 1.0
    assert params.encoder[0].weight[0, 0] != copy.encoder[0].weight[0, 0]


def test_walk_names_are_stable():
    params = numnet.init_mlp([3, 4, 5], [5, 2], seed=3)
    names = [name for name, _ in params.walk()]
    assert names == ["encoder.0.weight", "encoder.0.bias",
                     "encoder.1.weight", "encoder.1.bias",
                     "classifier.0.weight", "classifier.0.bias"]


# ---------------------------------------------------------------------------
# full-model gradients


def loss_on(params, X, y):
    targets = numnet.one_hot(y, int(y.max()) + 1)

    def fn(logits):
        return cross_entropy_rows(numnet.softmax_rows(logits(X)), targets)
    return fn


def test_mlp_gradient_matches_finite_differences():
    params = numnet.init_mlp([5, 8], [8, 3], seed=4)
    X = finite_rows(8, 5, 12)
    y = np.array([0, 1, 2, 0, 1, 2, 0, 1])
    _, analytic = numnet.grad(params, loss_on(params, X, y))

    targets = numnet.one_hot(y, 3)

    def scalar(p):
        return cross_entropy(numnet.mlp_forward(p, X), targets)

    numeric = central_diff(params, scalar)
    assert max_rel_err(analytic, numeric) < 1e-5


def test_frozen_groups_absent_from_gradients():
    params = numnet.init_mlp([5, 8], [8, 3], seed=5)
    X = finite_rows(6, 5, 13)
    y = np.array([0, 1, 2, 0, 1, 2])
    _, grads = numnet.grad(params, loss_on(params, X, y), frozen=("encoder",))
    assert grads.encoder == []
    assert [w.shape for w, _ in grads.classifier] == [(8, 3)]


def test_parameters_are_views_of_one_flat_buffer(tmp_path):
    """`init_mlp`, `clone` and a loaded checkpoint lay every array out in
    `flat`, in `walk` order; a clone shares no memory with its source."""
    params = numnet.init_mlp([3, 4, 5], [5, 2], seed=11)
    io.save_checkpoint(tmp_path / "model.json", params)
    loaded, _ = io.load_checkpoint(tmp_path / "model.json")
    copy = params.clone()
    assert not np.shares_memory(copy.flat, params.flat)
    for p in (params, copy, loaded):
        arrays = [a for _, a in p.walk()]
        assert all(a.base is p.flat for a in arrays)
        p.flat[:] = np.arange(p.flat.size)
        assert np.array_equal(np.concatenate([a.ravel() for a in arrays]),
                              np.arange(p.flat.size))


def test_frozen_gradient_holds_only_the_live_group():
    params = numnet.init_mlp([5, 8], [8, 4, 3], seed=12)
    X = finite_rows(6, 5, 13)
    y = np.array([0, 1, 2, 0, 1, 2])
    _, full = numnet.grad(params, loss_on(params, X, y))
    n_encoder = sum(w.size + b.size for w, b in params.encoder)
    for frozen, live in ((("encoder",), full.flat[n_encoder:]),
                         (("classifier",), full.flat[:n_encoder])):
        _, grads = numnet.grad(params, loss_on(params, X, y), frozen=frozen)
        assert getattr(grads, frozen[0]) == []
        assert np.array_equal(grads.flat, live)


# ---------------------------------------------------------------------------
# optimizers


def one_unit(weight, bias=0.0):
    """A head of one 1x1 layer, as parameters or as their gradient."""
    return numnet.MlpParams(
        encoder=[], classifier=[numnet.Layer(np.array([[weight]]),
                                             np.array([bias]))])


def test_sgd_momentum_hand_step():
    params = one_unit(1.0)
    opt = numnet.sgd(learning_rate=0.1, momentum=0.9)
    grads = one_unit(2.0)
    numnet.optimizer_step(opt, params, grads)
    assert params.classifier[0].weight[0, 0] == pytest.approx(1.0 - 0.1 * 2.0)
    numnet.optimizer_step(opt, params, grads)
    # velocity = 0.9*2 + 2 = 3.8
    assert params.classifier[0].weight[0, 0] == pytest.approx(0.8 - 0.1 * 3.8)


def test_adam_first_step_is_learning_rate_sized():
    params = one_unit(0.5)
    opt = numnet.adam(learning_rate=0.01)
    numnet.optimizer_step(opt, params, one_unit(3.0))
    # bias-corrected first step moves by ~lr regardless of gradient scale
    assert params.classifier[0].weight[0, 0] == pytest.approx(0.5 - 0.01, abs=1e-6)


def test_adam_second_step_matches_hand_arithmetic():
    params = one_unit(0.5)
    opt = numnet.adam(learning_rate=0.01)
    g1, g2 = np.array([[3.0]]), np.array([[-1.25]])
    numnet.optimizer_step(opt, params, one_unit(3.0))
    m = opt.moments[0]
    numnet.optimizer_step(opt, params, one_unit(-1.25))
    assert opt.moments[0] is m  # state kept, not re-made
    m1, v1 = 0.1 * g1, 0.001 * g1 * g1
    m2, v2 = 0.9 * m1 + 0.1 * g2, 0.999 * v1 + 0.001 * g2 * g2
    p1 = 0.5 - 0.01 * (m1 / (1 - 0.9)) / (np.sqrt(v1 / (1 - 0.999)) + 1e-8)
    p2 = p1 - 0.01 * (m2 / (1 - 0.9 ** 2)) / (np.sqrt(v2 / (1 - 0.999 ** 2))
                                             + 1e-8)
    assert params.classifier[0].weight[0, 0] == pytest.approx(p2[0, 0],
                                                              rel=1e-14)
    assert params.classifier[0].bias[0] == 0.0    # zero gradient, zero step
    assert [a.size for a in opt.moments] == [2, 2]


def test_optimizer_rejects_nonfinite_gradients():
    params = numnet.init_mlp([2, 2], [2, 2], seed=6)
    opt = numnet.sgd(learning_rate=0.1)
    grads = params.clone()
    grads.flat[:] = np.nan
    with pytest.raises(NumericError):
        numnet.optimizer_step(opt, params, grads)


@pytest.mark.parametrize("frozen", ["encoder", "classifier"])
def test_optimizer_leaves_a_frozen_group_unchanged(frozen):
    params = numnet.init_mlp([2, 3], [3, 2], seed=7)
    before = params.clone()
    opt = numnet.sgd(learning_rate=0.5)
    grads = live_groups(params, (frozen,))
    grads.flat[:] = 1.0
    numnet.optimizer_step(opt, params, grads)
    for group in ("encoder", "classifier"):
        for (w, b), (w0, b0) in zip(getattr(params, group),
                                    getattr(before, group)):
            assert np.array_equal(w, w0) == (group == frozen)
            assert np.array_equal(b, b0 - 0.5 * (group != frozen))


def live_groups(params, frozen):
    """A copy of `params` with the `frozen` groups emptied, shaped like the
    gradient `grad` returns for them."""
    return numnet.MlpParams(*([] if group in frozen else getattr(params, group)
                              for group in ("encoder", "classifier")))


def reference_step(state, params, grads):
    """The per-parameter update the flat buffers replace, state in dicts."""
    arrays = dict(params.walk())
    state["t"] += 1
    for name, g in grads.walk():
        p = arrays[name]
        if state["kind"] == "sgd":
            if state["momentum"] > 0.0:
                v = state["m"].setdefault(name, np.zeros_like(p))
                v *= state["momentum"]
                v += g
                p -= state["lr"] * v
            else:
                p -= state["lr"] * g
        else:
            m = state["m"].setdefault(name, np.zeros_like(p))
            v = state["v"].setdefault(name, np.zeros_like(p))
            m *= 0.9
            m += (1.0 - 0.9) * g
            v *= 0.999
            v += (1.0 - 0.999) * g * g
            m_hat = m / (1.0 - 0.9 ** state["t"])
            v_hat = v / (1.0 - 0.999 ** state["t"])
            p -= state["lr"] * m_hat / (np.sqrt(v_hat) + 1e-8)


@given(kind=st.sampled_from(["adam", "sgd", "sgd_momentum"]),
       frozen=st.sampled_from([(), ("encoder",), ("classifier",)]),
       steps=st.integers(1, 5), log_scale=st.floats(-8.0, 4.0),
       seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_flat_optimizer_equals_per_parameter_reference(kind, frozen, steps,
                                                       log_scale, seed):
    rng = np.random.default_rng(seed)
    flat_params = numnet.init_mlp([3, 5, 4], [4, 2], seed=seed)
    ref_params = flat_params.clone()
    opt = (numnet.adam(1e-3) if kind == "adam" else
           numnet.sgd(0.05, momentum=0.9 if kind == "sgd_momentum" else 0.0))
    ref = {"kind": opt.kind, "momentum": opt.momentum, "t": 0, "m": {}, "v": {}}
    grads = live_groups(flat_params, frozen)
    for _ in range(steps):
        opt.learning_rate = ref["lr"] = float(rng.uniform(1e-4, 0.1))
        grads.flat[:] = rng.normal(scale=10.0 ** log_scale,
                                   size=grads.flat.size)
        numnet.optimizer_step(opt, flat_params, grads)
        reference_step(ref, ref_params, grads)
    for (name, a), (_, b) in zip(flat_params.walk(), ref_params.walk()):
        assert np.array_equal(a, b), name
    assert opt.step_count == ref["t"]
    names = [name for name, _ in grads.walk()]
    kept = [np.concatenate([ref[k][n].ravel() for n in names])
            for k in ("m", "v") if ref[k]]
    assert len(opt.moments) == len(kept)
    for got, want in zip(opt.moments, kept):
        assert np.array_equal(got, want)


def test_optimizer_step_on_empty_grads_only_counts():
    params = numnet.init_mlp([2, 3], [3, 2], seed=8)
    before = {n: a.copy() for n, a in params.walk()}
    opt = numnet.adam(0.01)
    numnet.optimizer_step(opt, params, numnet.MlpParams([], []))
    assert opt.step_count == 1
    for name, arr in params.walk():
        assert np.array_equal(arr, before[name])


def test_optimizer_rejects_a_gradient_of_other_values():
    params = numnet.init_mlp([2, 3], [3, 2], seed=9)
    opt = numnet.adam(0.01)
    numnet.optimizer_step(opt, params, live_groups(params, ()))
    for frozen in ("encoder", "classifier"):
        with pytest.raises(ValueError, match=r"the first step's was of \[0, 17\)"):
            numnet.optimizer_step(opt, params, live_groups(params, (frozen,)))
    assert opt.step_count == 1
    # a head and an encoder of equal size: same size, other values
    params = numnet.init_mlp([2, 2], [2, 2], seed=9)
    opt = numnet.adam(0.01)
    numnet.optimizer_step(opt, params, live_groups(params, ("classifier",)))
    with pytest.raises(ValueError, match=r"\[6, 12\), but .* \[0, 6\)"):
        numnet.optimizer_step(opt, params, live_groups(params, ("encoder",)))


def test_nonfinite_gradient_message_names_the_first_bad_parameter():
    params = numnet.init_mlp([2, 3], [3, 2], seed=10)
    before = {n: a.copy() for n, a in params.walk()}
    grads = params.clone()
    grads.flat[:] = 1.0
    grads.encoder[0].bias[1] = np.inf
    grads.classifier[0].weight[0, 0] = np.nan
    opt = numnet.adam(0.01)
    with pytest.raises(NumericError, match=r"for encoder\.0\.bias$"):
        numnet.optimizer_step(opt, params, grads)
    assert opt.step_count == 0
    for name, arr in params.walk():
        assert np.array_equal(arr, before[name])


# ---------------------------------------------------------------------------
# a training step leaves no cyclic garbage


def ce_case(frozen):
    rng = np.random.default_rng(30)
    params = numnet.init_mlp([6, 16, 8], [8, 3], seed=30)
    X = rng.normal(size=(12, 6))
    T = numnet.one_hot(rng.integers(0, 3, size=12), 3)
    return params, lambda logits: numnet.softmax_cross_entropy(
        logits(X), T), frozen


def nt_xent_case():
    Z = np.random.default_rng(31).normal(size=(16, 6))
    params = numnet.init_mlp([6, 16, 8], [8, 4], seed=31)
    return params, lambda logits: ssrl.nt_xent_loss(logits(Z), 0.5), ()


def stage3_case():
    rng = np.random.default_rng(32)
    cfg = semi.MixMatchConfig(batch_size=4)
    params = numnet.init_mlp([6, 16, 8], [8, 3], seed=32)
    X_l = rng.normal(size=(4, 6))
    y_l = numnet.one_hot(rng.integers(0, 3, size=4), 3)
    batch = semi.prepare_mixmatch_batch(params, X_l, y_l,
                                        rng.normal(size=(5, 6)), cfg, rng)
    graph = graphreg.build_neighbor_graph(rng.normal(size=(9, 16)),
                                          tau=cfg.tau_c, n_labeled=4)
    assert graph.affinity.any()
    return params, lambda logits: semi.stage3_loss(logits, batch, graph,
                                                   cfg)[0], ()


@pytest.mark.parametrize("case", [
    lambda: ce_case(()), lambda: ce_case(("encoder",)), nt_xent_case,
    stage3_case], ids=["ce", "frozen_ce", "nt_xent", "stage3_graph"])
def test_training_step_leaves_no_cyclic_garbage(case):
    params, loss_fn, frozen = case()
    opt = numnet.adam(1e-3)
    gc.collect()
    gc.disable()
    try:
        _, grads = numnet.grad(params, loss_fn, frozen=frozen)
        numnet.optimizer_step(opt, params, grads)
        del grads
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# EMA


def test_ema_update_blends_toward_params():
    params = numnet.init_mlp([2, 2], [2, 2], seed=8)
    ema = numnet.ema_init(params, decay=0.9)
    for _, arr in params.walk():
        arr += 1.0
    numnet.ema_update(ema, params)
    shadow = numnet.ema_params(ema)
    # shadow = 0.9 * old + 0.1 * (old + 1) = live - 0.9
    for (_, live), (_, avg) in zip(params.walk(), shadow.walk()):
        assert np.allclose(avg, live - 0.9, atol=1e-12)


def test_ema_converges_to_constant_params():
    params = numnet.init_mlp([2, 2], [2, 2], seed=9)
    ema = numnet.ema_init(params, decay=0.5)
    for _ in range(60):
        numnet.ema_update(ema, params)
    shadow = numnet.ema_params(ema)
    for (_, live), (_, avg) in zip(params.walk(), shadow.walk()):
        assert np.allclose(avg, live, atol=1e-12)
    # the copy stays apart from later updates
    for _, arr in params.walk():
        arr += 1.0
    numnet.ema_update(ema, params)
    for (_, live), (_, avg) in zip(params.walk(), shadow.walk()):
        assert np.allclose(avg, live - 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# the training loop


def fit_setup(seed):
    params = numnet.init_mlp([5, 8], [8, 3], seed=seed)
    X = finite_rows(10, 5, seed)
    return params, numnet.ce_batches(X, numnet.one_hot(np.arange(10) % 3, 3),
                                     4, np.random.default_rng(seed))


def test_fit_yields_epochs_of_step_losses():
    params, batches = fit_setup(20)
    ema = numnet.ema_init(params, decay=0.5)
    start = ema.params.clone()
    epochs = list(numnet.fit(params, numnet.adam(0.01), 3, 3, batches, 0.001,
                             ema=ema))
    assert len(epochs) == 3
    assert all(len(losses) == 3 for losses in epochs)
    assert all(np.isfinite(v) for losses in epochs for v in losses)
    assert all(not np.array_equal(a, b) for (_, a), (_, b)
               in zip(ema.params.walk(), start.walk()))


def test_fit_leaves_frozen_group_bit_unchanged():
    params, batches = fit_setup(21)
    before = {n: a.copy() for n, a in params.walk()}
    for _ in numnet.fit(params, numnet.adam(0.01), 2, 3, batches, 0.001,
                        frozen=("encoder",)):
        pass
    for name, arr in params.walk():
        moved = not np.array_equal(arr, before[name])
        assert moved == name.startswith("classifier."), name


def rates_seen(eta_min):
    """The optimizer's rate before each of 2 x 3 steps, then after the last."""
    params, inner = fit_setup(22)
    opt = numnet.sgd(0.05, momentum=0.9)
    rates = []

    def batches():
        for loss_fn in inner():
            rates.append(opt.learning_rate)
            yield loss_fn

    for _ in numnet.fit(params, opt, 2, 3, batches, eta_min):
        pass
    return rates + [opt.learning_rate]


def test_fit_rate_is_constant_when_eta_min_equals_lr():
    assert rates_seen(0.05) == [0.05] * 7


def test_fit_follows_the_cosine_schedule():
    expected = [0.05] + [numnet.cosine_lr(s, 6, 0.05, 0.01) for s in range(6)]
    assert rates_seen(0.01) == expected
