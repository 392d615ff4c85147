import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from noisylearn import numnet
from noisylearn.errors import NumericError

from util import central_diff, max_rel_err


def finite_rows(n, d, seed):
    return np.random.default_rng(seed).normal(size=(n, d))


# ---------------------------------------------------------------------------
# tape primitives, each checked against central finite differences


def fd_scalar(build, arrays, h=1e-6):
    """FD gradient of build(*tensors) w.r.t. each input array."""
    tensors = [numnet.Tensor(a.copy(), requires_grad=True) for a in arrays]
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
    ("add", lambda a, b: (a + b).sum()),
    ("sub", lambda a, b: (a - b).sum()),
    ("mul", lambda a, b: (a * b).sum()),
    ("div", lambda a, b: (a / (b * b + 1.0)).sum()),
    ("matmul", lambda a, b: (a @ b.reshape(4, 3)).sum()),
    ("mean_axis", lambda a, b: (a * b).mean(axis=0).sum()),
    ("chain", lambda a, b: ((a @ b.reshape(4, 3)).relu() + 0.3).log().mean()),
])
def test_tape_ops_match_finite_differences(name, build):
    a = finite_rows(3, 4, 1) + 2.0
    b = finite_rows(3, 4, 2) + 2.0
    analytic, numeric = fd_scalar(build, [a, b])
    for ga, gn in zip(analytic, numeric):
        assert np.max(np.abs(ga - gn)) < 1e-6


def test_tape_exp_log_clip():
    a = np.abs(finite_rows(2, 3, 3)) + 0.5
    analytic, numeric = fd_scalar(lambda t: (t.exp().log().clip_min(0.8)).sum(), [a])
    assert np.max(np.abs(analytic[0] - numeric[0])) < 1e-6


def test_tape_reshape():
    a = finite_rows(5, 3, 5)

    def build(t):
        flat = t.reshape((15,))
        rows = t.reshape((3, 5)).sum(axis=1, keepdims=True)
        return ((flat * flat).reshape((3, 5)) * rows).sum()

    analytic, numeric = fd_scalar(build, [a])
    assert np.max(np.abs(analytic[0] - numeric[0])) < 1e-6


@pytest.mark.parametrize("name,build", [
    ("self_add", lambda a, b: ((a + a) * b).sum()),
    ("self_mul", lambda a, b: (a * a * b).sum()),
    ("add_then_reuse", lambda a, b: (((a + b) + a) * b).sum()),
    ("sub_then_reuse", lambda a, b: (((a - b) - a) * a).sum()),
])
def test_reused_leaves_match_finite_differences(name, build):
    a = finite_rows(3, 4, 14)
    b = finite_rows(3, 4, 15)
    analytic, numeric = fd_scalar(build, [a, b])
    for ga, gn in zip(analytic, numeric):
        assert np.max(np.abs(ga - gn)) < 1e-6


def test_node_feeding_two_consumers_matches_finite_differences():
    def build(a, b):
        h = (a * b).relu()              # one node, two consumers
        return (h.exp().sum(axis=0) * (h + b).sum(axis=0)).sum()

    analytic, numeric = fd_scalar(build, [finite_rows(3, 4, 16) + 0.5,
                                          finite_rows(3, 4, 17) + 0.5])
    for ga, gn in zip(analytic, numeric):
        assert np.max(np.abs(ga - gn)) < 1e-6


def test_later_accumulation_leaves_other_leaves_untouched():
    a = numnet.Tensor(finite_rows(2, 3, 18), requires_grad=True)
    b = numnet.Tensor(finite_rows(2, 3, 19), requires_grad=True)
    ((a + b) + a).sum().backward()      # b receives the array a got first
    b_grad = b.grad
    b_before = b_grad.copy()
    assert np.array_equal(a.grad, np.full((2, 3), 2.0))
    (a * 3.0).sum().backward()          # a second sweep lands on a only
    assert np.array_equal(a.grad, np.full((2, 3), 5.0))
    assert b.grad is b_grad and np.array_equal(b_grad, b_before)


def test_broadcast_gradients_reduce_correctly():
    a = finite_rows(3, 4, 7)
    bias = finite_rows(1, 4, 8)[0]
    analytic, numeric = fd_scalar(lambda t, c: ((t + c) * (t + c)).sum(), [a, bias])
    assert np.max(np.abs(analytic[1] - numeric[1])) < 1e-6


def test_backward_rejects_nonfinite_root():
    t = numnet.Tensor(np.array([1.0]), requires_grad=True)
    with np.errstate(divide="ignore"):
        bad = (t * 0.0).log().sum()  # log(0) = -inf
    with pytest.raises(NumericError):
        bad.backward()


# ---------------------------------------------------------------------------
# softmax / cross entropy / prediction


def test_softmax_hand_value():
    p = numnet.softmax(np.array([[1.0, 2.0, 3.0]]))
    expected = [0.09003057317038046, 0.24472847105479764, 0.6652409557748218]
    assert np.allclose(p[0], expected, atol=1e-12)
    assert p.shape == (1, 3)


def test_softmax_shift_invariance():
    logits = finite_rows(5, 4, 9)
    assert np.allclose(numnet.softmax(logits), numnet.softmax(logits + 123.0),
                       atol=1e-12)


def test_softmax_handles_large_logits():
    p = numnet.softmax(np.array([[1000.0, 0.0], [0.0, -1000.0]]))
    assert np.all(np.isfinite(p))
    assert np.allclose(p.sum(axis=1), 1.0)


def test_softmax_rejects_nonfinite():
    with pytest.raises(NumericError):
        numnet.softmax(np.array([[np.nan, 0.0]]))


@given(st.integers(2, 6), st.integers(1, 8), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_softmax_simplex_closure(c, n, seed):
    logits = np.random.default_rng(seed).normal(scale=5.0, size=(n, c))
    p = numnet.softmax(logits)
    assert np.all(p >= 0)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)


def cross_entropy(p, y) -> float:
    """Mean row cross-entropy of plain arrays, through the tape op."""
    return float(numnet.cross_entropy_rows(numnet.Tensor(np.atleast_2d(p)),
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
# `Tensor.__matmul__`, `Tensor.relu` and `cross_entropy_rows` over
# `softmax_rows` stay on the tape as the references for these checks.


def composed_dense(X, w, b, relu):
    out = X @ w + b
    return out.relu() if relu else out


def composed_softmax_cross_entropy(logits, targets):
    return numnet.cross_entropy_rows(numnet.softmax_rows(logits), targets)


def twin_leaves(arrays, live):
    """Two independent sets of leaves over the same arrays."""
    return [[numnet.Tensor(a.copy(), requires_grad=flag)
             for a, flag in zip(arrays, live)] for _ in range(2)]


def assert_same_bits(fused, composed, leaves_f, leaves_c):
    assert np.array_equal(fused.data, composed.data)
    for lf, lc in zip(leaves_f, leaves_c):
        assert (lf.grad is None) == (lc.grad is None)
        if lf.grad is not None:
            assert np.array_equal(lf.grad, lc.grad)


@given(n=st.integers(1, 6), d=st.integers(1, 5), h=st.integers(1, 5),
       c=st.integers(1, 4), consumers=st.integers(1, 3), relu=st.booleans(),
       x_live=st.booleans(), first_live=st.booleans(), w_live=st.booleans(),
       b_live=st.booleans(), seed=st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
@example(n=4, d=3, h=5, c=2, consumers=3, relu=True, x_live=False,
         first_live=True, w_live=True, b_live=True, seed=0)
@example(n=4, d=3, h=5, c=2, consumers=1, relu=False, x_live=True,
         first_live=False, w_live=False, b_live=False, seed=1)
def test_dense_equals_composed_layer_bit_for_bit(n, d, h, c, consumers, relu,
                                                 x_live, first_live, w_live,
                                                 b_live, seed):
    """Two layers whose weights feed `consumers` inputs each, as in stage 3."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=(n, d)) for _ in range(consumers)] + [
        rng.normal(size=(d, h)), rng.normal(size=h),
        rng.normal(size=(h, c)), rng.normal(size=c)]
    live = [x_live] * consumers + [first_live, first_live, w_live, b_live]
    weights = [rng.normal(size=(n, c)) for _ in range(consumers)]
    roots = []
    leaves = twin_leaves(arrays, live)
    for layer, ts in zip((numnet.dense, composed_dense), leaves):
        *xs, w1, b1, w2, b2 = ts
        outs = [layer(layer(x, w1, b1, True), w2, b2, relu) for x in xs]
        root = sum((o * k).sum() for o, k in zip(outs, weights))
        root.backward()
        roots.append((root, outs))
    (root_f, outs_f), (root_c, outs_c) = roots
    for of, oc in zip(outs_f, outs_c):
        assert np.array_equal(of.data, oc.data)
    assert_same_bits(root_f, root_c, *leaves)


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
    (fused * upstream).backward()
    (composed * upstream).backward()
    assert_same_bits(fused, composed, *leaves)


def test_softmax_cross_entropy_floor_engages_and_matches():
    """Spread logits floor most probabilities at LOG_FLOOR, gradient and all."""
    logits = np.random.default_rng(7).normal(scale=200.0, size=(5, 6))
    targets = np.full((5, 6), 1.0 / 6)
    assert np.mean(numnet.softmax(logits) < numnet.LOG_FLOOR) > 0.5
    leaves = twin_leaves([logits], [True])
    fused = numnet.softmax_cross_entropy(leaves[0][0], targets)
    composed = composed_softmax_cross_entropy(leaves[1][0], targets)
    fused.backward()
    composed.backward()
    assert_same_bits(fused, composed, *leaves)


def composed_mlp_ce(X, targets):
    """The CE step as the per-op composition the fused nodes replace."""
    def fn(tape):
        Z = numnet.as_tensor(X)
        for w, b in tape.encoder:
            Z = composed_dense(Z, w, b, True)
        last = len(tape.classifier) - 1
        for i, (w, b) in enumerate(tape.classifier):
            Z = composed_dense(Z, w, b, i < last)
        return composed_softmax_cross_entropy(Z, targets)
    return fn


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
    v_c, g_c = numnet.grad(params, composed_mlp_ce(X[order], targets[order]),
                           frozen=frozen)
    assert v_f == v_c
    assert g_f.keys() == g_c.keys() and g_f
    for name in g_f:
        assert np.array_equal(g_f[name], g_c[name]), name


def tape_nodes(root):
    """Recorded nodes under `root`: leaves and constants are not counted."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if node._parents and id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def test_ce_step_records_one_node_per_layer_plus_loss():
    params = numnet.init_mlp([5, 8, 6], [6, 3], seed=32)
    X = finite_rows(8, 5, 33)
    targets = numnet.one_hot(np.arange(8) % 3, 3)
    loss_fn = next(iter(numnet.ce_batches(X, targets, 8,
                                          np.random.default_rng(0))()))
    assert tape_nodes(loss_fn(numnet.TapeMlp(params))) == 4
    assert tape_nodes(composed_mlp_ce(X, targets)(numnet.TapeMlp(params))) == 19


def test_mlp_forward_is_the_tape_forward_on_constants():
    params = numnet.init_mlp([4, 8, 6], [6, 5, 3], seed=34)
    X = finite_rows(10, 4, 35)
    plain = numnet.mlp_forward(params, X)
    taped = numnet.TapeMlp(params).forward(X)
    for a, t in zip(plain, taped):
        assert np.array_equal(a, t.data)
    with pytest.raises(ValueError):
        numnet.mlp_forward(params, finite_rows(10, 3, 35))
    params.classifier[-1].weight[0, 0] = np.nan
    with pytest.raises(NumericError):
        numnet.mlp_forward(params, X)


def test_predict_breaks_ties_low():
    logits = np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 2.0]])
    assert numnet.predict(logits).tolist() == [0, 1]


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


def test_cosine_lr_rejects_bad_arguments():
    with pytest.raises(Exception):
        numnet.cosine_lr(0, 0, 1e-3, 2e-4)
    with pytest.raises(Exception):
        numnet.cosine_lr(101, 100, 1e-3, 2e-4)
    with pytest.raises(Exception):
        numnet.cosine_lr(0, 100, 1e-4, 2e-4)


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
    Z, logits, probs = numnet.mlp_forward(params, X)
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

    def fn(tape):
        _, _, p = tape.forward(X)
        return numnet.cross_entropy_rows(p, targets)
    return fn


def test_mlp_gradient_matches_finite_differences():
    params = numnet.init_mlp([5, 8], [8, 3], seed=4)
    X = finite_rows(8, 5, 12)
    y = np.array([0, 1, 2, 0, 1, 2, 0, 1])
    _, analytic = numnet.grad(params, loss_on(params, X, y))

    targets = numnet.one_hot(y, 3)

    def scalar(p):
        _, _, probs = numnet.mlp_forward(p, X)
        return cross_entropy(probs, targets)

    numeric = central_diff(params, scalar)
    assert max_rel_err(analytic, numeric) < 1e-5


def test_frozen_groups_absent_from_gradients():
    params = numnet.init_mlp([5, 8], [8, 3], seed=5)
    X = finite_rows(6, 5, 13)
    y = np.array([0, 1, 2, 0, 1, 2])
    _, grads = numnet.grad(params, loss_on(params, X, y), frozen=("encoder",))
    assert all(not k.startswith("encoder.") for k in grads)
    assert any(k.startswith("classifier.") for k in grads)


# ---------------------------------------------------------------------------
# optimizers


def test_sgd_momentum_hand_step():
    params = numnet.MlpParams(
        encoder=[],
        classifier=[numnet.Layer(np.array([[1.0]]), np.array([0.0]))])
    opt = numnet.sgd(learning_rate=0.1, momentum=0.9)
    grads = {"classifier.0.weight": np.array([[2.0]]),
             "classifier.0.bias": np.array([0.0])}
    numnet.optimizer_step(opt, params, grads)
    assert params.classifier[0].weight[0, 0] == pytest.approx(1.0 - 0.1 * 2.0)
    numnet.optimizer_step(opt, params, grads)
    # velocity = 0.9*2 + 2 = 3.8
    assert params.classifier[0].weight[0, 0] == pytest.approx(0.8 - 0.1 * 3.8)


def test_adam_first_step_is_learning_rate_sized():
    params = numnet.MlpParams(
        encoder=[],
        classifier=[numnet.Layer(np.array([[0.5]]), np.array([0.0]))])
    opt = numnet.adam(learning_rate=0.01)
    grads = {"classifier.0.weight": np.array([[3.0]]),
             "classifier.0.bias": np.array([0.0])}
    numnet.optimizer_step(opt, params, grads)
    # bias-corrected first step moves by ~lr regardless of gradient scale
    assert params.classifier[0].weight[0, 0] == pytest.approx(0.5 - 0.01, abs=1e-6)


def test_adam_second_step_matches_hand_arithmetic():
    params = numnet.MlpParams(
        encoder=[],
        classifier=[numnet.Layer(np.array([[0.5]]), np.array([0.0]))])
    opt = numnet.adam(learning_rate=0.01)
    g1, g2 = np.array([[3.0]]), np.array([[-1.25]])
    numnet.optimizer_step(opt, params, {"classifier.0.weight": g1})
    m = opt.buffers["classifier.0.weight"]
    numnet.optimizer_step(opt, params, {"classifier.0.weight": g2})
    assert opt.buffers["classifier.0.weight"] is m  # state kept, not re-made
    m1, v1 = 0.1 * g1, 0.001 * g1 * g1
    m2, v2 = 0.9 * m1 + 0.1 * g2, 0.999 * v1 + 0.001 * g2 * g2
    p1 = 0.5 - 0.01 * (m1 / (1 - 0.9)) / (np.sqrt(v1 / (1 - 0.999)) + 1e-8)
    p2 = p1 - 0.01 * (m2 / (1 - 0.9 ** 2)) / (np.sqrt(v2 / (1 - 0.999 ** 2))
                                             + 1e-8)
    assert params.classifier[0].weight[0, 0] == pytest.approx(p2[0, 0],
                                                              rel=1e-14)
    assert "classifier.0.bias" not in opt.buffers


def test_optimizer_rejects_nonfinite_gradients():
    params = numnet.init_mlp([2, 2], [2, 2], seed=6)
    opt = numnet.sgd(learning_rate=0.1)
    grads = {name: np.full_like(arr, np.nan) for name, arr in params.walk()}
    with pytest.raises(NumericError):
        numnet.optimizer_step(opt, params, grads)


def test_optimizer_skips_missing_keys():
    params = numnet.init_mlp([2, 3], [3, 2], seed=7)
    before = {n: a.copy() for n, a in params.walk()}
    opt = numnet.sgd(learning_rate=0.5)
    grads = {"classifier.0.weight": np.ones((3, 2))}
    numnet.optimizer_step(opt, params, grads)
    assert np.array_equal(params.encoder[0].weight, before["encoder.0.weight"])
    assert not np.array_equal(params.classifier[0].weight,
                              before["classifier.0.weight"])


# ---------------------------------------------------------------------------
# EMA


def test_ema_update_blends_toward_params():
    params = numnet.init_mlp([2, 2], [2, 2], seed=8)
    ema = numnet.ema_init(params, decay=0.9)
    for _, arr in params.walk():
        arr += 1.0
    numnet.ema_update(ema, params)
    shadow = numnet.ema_params(ema, params)
    # shadow = 0.9 * old + 0.1 * (old + 1) = live - 0.9
    for (_, live), (_, avg) in zip(params.walk(), shadow.walk()):
        assert np.allclose(avg, live - 0.9, atol=1e-12)


def test_ema_converges_to_constant_params():
    params = numnet.init_mlp([2, 2], [2, 2], seed=9)
    ema = numnet.ema_init(params, decay=0.5)
    for _ in range(60):
        numnet.ema_update(ema, params)
    shadow = numnet.ema_params(ema, params)
    for (_, live), (_, avg) in zip(params.walk(), shadow.walk()):
        assert np.allclose(avg, live, atol=1e-12)


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
    start = {n: a.copy() for n, a in ema.shadow.items()}
    epochs = list(numnet.fit(params, numnet.adam(0.01), 3, 3, batches, 0.001,
                             ema=ema))
    assert len(epochs) == 3
    assert all(len(losses) == 3 for losses in epochs)
    assert all(np.isfinite(v) for losses in epochs for v in losses)
    assert all(not np.array_equal(ema.shadow[n], a) for n, a in start.items())


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
