"""Minimal differentiable numeric core.

A small reverse-mode tape over numpy arrays, MLP parameter containers,
SGD/Adam optimizers, a cosine learning-rate schedule, a parameter EMA, and
the one training loop (`fit`) every stage runs. The tape records fused
nodes only, one per network forward and one per loss term: the network
forward (`TapeMlp.logits`), `softmax_rows` and `softmax_cross_entropy`
here, NT-Xent in `ssrl`, sharpening and the graph penalty in `graphreg`,
and the consistency term and the weighted total in `semi`. A node is its
value and one push; each node feeds one consumer, so `backward` hands
each push its whole gradient as it reaches it. Each push replays the
chain rule of the per-op composition it replaced; the tests build those
compositions on a general reference tape and check the nodes against
them bit for bit. It is not a general autodiff system: a node pushed into
twice raises. `frozen_forward` runs the same network forward on constants
and records nothing; every probability, prediction and embedding table
that takes no gradient comes from it.

A node computes in the dtype of its input: float32 stays float32, all else
becomes float64. Stages 1 and 3 feed float32 rows, so their networks (and
NT-Xent, and stage 3's softmax and sharpening) run in float32 over float64
master weights (mixed precision); a loss against float64 targets comes out
float64. Stage 2 and the supervised runs feed float64. Parameters,
gradients, optimizer state and the EMA are always float64. Runs are
deterministic for a fixed seed, and a test checks that one and two BLAS
threads give the same bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import NumericError

Array = np.ndarray
_SPENT = object()  # the push of a node a sweep has run


class Tensor:
    """A value on the tape and the one push that sends its gradient on.

    `push(g)` takes the gradient of the root with respect to this value
    and returns `(input, gradient)` pairs for the node's live inputs, in
    the order their gradients add. A constant has no push. Every node the
    stages build has one consumer, so a sweep reaches each node once, with
    its whole gradient, and needs no sort and no accumulation.
    """

    __slots__ = ("data", "_push")

    def __init__(self, data, push: Callable[[Array], Sequence] | None = None):
        self.data = _as_float(data)
        self._push = push

    def backward(self) -> None:
        """Sweep from a scalar root, last in, first out.

        So a node's first input and everything under it are done before its
        second input. Each push is spent as it runs: what it captured is
        freed, and a second sweep over the node raises.
        """
        if not np.isfinite(self.data):
            raise NumericError(f"non-finite loss: {float(self.data)}")
        stack = [(self, np.ones_like(self.data))] if self._push else []
        while stack:
            node, g = stack.pop()
            push, node._push = node._push, _SPENT
            if push is _SPENT:
                raise RuntimeError("backward() already ran on this tape")
            stack += reversed(push(g))


def _as_float(x) -> Array:
    """`x` as an array of its compute dtype: float32 stays, all else is float64."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(np.float64, copy=False)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _shifted_exp(logits: Array) -> tuple[Array, Array]:
    """`e = exp(logits - rowmax)` in one fresh buffer, and its row sums."""
    e = logits - logits.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    return e, e.sum(axis=-1, keepdims=True)


def softmax_rows(logits: Tensor) -> Tensor:
    """Row-wise softmax as one tape node; max-subtraction keeps it overflow-safe.

    The value is `exp(logits - max) / rowsum`; the subtracted row maximum
    is a constant, which is exact for both the value (shift invariance)
    and the gradient. The backward replays the chain rule of that
    composition op for op (divide, sum, exp), as `softmax_cross_entropy`
    does, so both match the composition bit for bit.
    """
    e, s = _shifted_exp(logits.data)

    def push(g):
        ds = (-g * e / (s * s)).sum(axis=-1, keepdims=True)
        return [(logits, (g / s + ds) * e)]
    return Tensor(e / s, push if logits._push else None)


LOG_FLOOR = 1e-12


def softmax_cross_entropy(logits: Tensor, targets: Array) -> Tensor:
    """Mean cross-entropy of `softmax_rows(logits)` against target rows.

    One node for the composition softmax, clamp at `LOG_FLOOR`, log, times
    the targets, row sum, mean and negation; the value runs those ops in
    order. The backward replays their chain rule op for op on arrays
    rather than using the closed form `(P * rowsum(T) - T) / n`, which is
    equal in exact arithmetic but not in the last bits.
    """
    T = np.asarray(targets, dtype=np.float64)
    e, s = _shifted_exp(logits.data)
    Pc = np.maximum(e / s, LOG_FLOOR)
    rows = (T * np.log(Pc)).sum(axis=-1)
    n = rows.size

    def push(g):
        M = -g * (1.0 / n)                       # neg, then mean
        dP = M * T / Pc * (Pc > LOG_FLOOR)       # times T, log, clip
        ds = (-dP * e / (s * s)).sum(axis=-1, keepdims=True)
        return [(logits, (dP / s + ds) * e)]     # divide, sum, exp
    return Tensor(-(rows.sum() * (1.0 / n)), push if logits._push else None)


# ---------------------------------------------------------------------------
# Plain (tape-free) numeric operations
# ---------------------------------------------------------------------------

def softmax(logits: Array) -> Array:
    """Stable softmax over the last axis of a vector or matrix of logits.

    The value of `softmax_rows`, bit for bit, computed in place without a
    tape node, in the dtype of `logits` (float32 stays, all else float64).
    """
    logits = _as_float(logits)
    if not np.all(np.isfinite(logits)):
        raise NumericError("softmax: non-finite logits")
    e, s = _shifted_exp(logits)
    e /= s
    return e


def one_hot(labels: Array, n_classes: int) -> Array:
    labels = np.asarray(labels)
    out = np.zeros((labels.size, n_classes), dtype=np.float64)
    out[np.arange(labels.size), labels] = 1.0
    return out


def cosine_lr(step: int, total_steps: int, lr0: float, eta_min: float) -> float:
    """Cosine decay from lr0 at step 0 down to eta_min at total_steps."""
    return eta_min + 0.5 * (lr0 - eta_min) * (1.0 + math.cos(math.pi * step / total_steps))


# ---------------------------------------------------------------------------
# MLP parameters
# ---------------------------------------------------------------------------

class Layer(NamedTuple):
    weight: Array  # (fan_in, fan_out)
    bias: Array    # (fan_out,)


@dataclass
class MlpParams:
    """Encoder and head parameters of the two-part network.

    The encoder applies ReLU after every layer, so the representation lives
    on the non-negative orthant; the classifier (or any other head) applies
    ReLU between its layers but emits raw outputs. An empty encoder makes
    the representation the identity, which is how a standalone head is
    trained on precomputed embeddings.

    Building one copies the layers into one float64 buffer, `flat`, in
    `walk` order, and every weight and bias is a view into it. Gradients,
    optimizer state and the EMA all work on that buffer.
    """

    encoder: list[Layer]
    classifier: list[Layer]
    flat: Array = field(init=False, repr=False)

    def __post_init__(self):
        layers = list(self.encoder) + list(self.classifier)
        for w, b in layers:
            if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[1]:
                raise ValueError("layer weight/bias shapes inconsistent")
        for (w, _), (above, _) in zip(layers, layers[1:]):
            if w.shape[1] != above.shape[0]:
                raise ValueError(f"layer widths do not chain: "
                                 f"{w.shape[1]} -> {above.shape[0]}")
        arrays = [a for layer in layers for a in layer]
        self.flat = np.concatenate([a.ravel() for a in arrays] or [np.empty(0)],
                                   dtype=np.float64)
        views, start = [], 0
        for a in arrays:
            views.append(self.flat[start:start + a.size].reshape(a.shape))
            start += a.size
        bound = [Layer(w, b) for w, b in zip(views[0::2], views[1::2])]
        n = len(self.encoder)
        self.encoder, self.classifier = bound[:n], bound[n:]

    def walk(self) -> Iterator[tuple[str, Array]]:
        """Yield (name, array) for every parameter, in a fixed order."""
        for group, layers in (("encoder", self.encoder), ("classifier", self.classifier)):
            for i, layer in enumerate(layers):
                yield f"{group}.{i}.weight", layer.weight
                yield f"{group}.{i}.bias", layer.bias

    def clone(self) -> "MlpParams":
        return MlpParams(self.encoder, self.classifier)


def init_layers(widths: Sequence[int], rng: np.random.Generator) -> list[Layer]:
    """He-uniform weights, zero biases, for consecutive width pairs."""
    layers = []
    for fan_in, fan_out in zip(widths, widths[1:]):
        limit = math.sqrt(6.0 / fan_in)
        w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        layers.append(Layer(w, np.zeros(fan_out)))
    return layers


def init_mlp(encoder_widths: Sequence[int], classifier_widths: Sequence[int],
             seed: int) -> MlpParams:
    """Seeded He-uniform initialization of encoder plus head."""
    rng = np.random.default_rng(seed)
    return MlpParams(
        encoder=init_layers(encoder_widths, rng),
        classifier=init_layers(classifier_widths, rng),
    )


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------

def _forward(X, params: MlpParams, grads: MlpParams | None, head: bool
             ) -> Tensor:
    """`A = relu(A @ w + b)` per layer, bias and ReLU in place.

    The layers are the encoder's, each with a ReLU, then with `head` the
    classifier's, with a ReLU between them and a raw output; a layer is
    live if `grads` holds its group. It runs in the dtype of `X`
    (`_as_float`), with each weight and bias cast to it; for float64 the
    cast is a no-op. Rows that do not fit the first layer raise ValueError.
    Layer inputs from the first live layer on are kept. The push casts its
    gradient to that dtype and replays each layer from the top: the ReLU
    mask, `Aᵀ g` and the column sum for a live layer, added into the
    float64 gradient, then `g wᵀ` if a live layer lies below. A forward
    with no live layer records no node and holds at most two layer outputs
    at once.
    """
    A = _as_float(X)
    dtype = A.dtype
    layers = []
    for group in ("encoder", "classifier") if head else ("encoder",):
        ps, gs = getattr(params, group), getattr(grads, group, None)
        layers += [(w.astype(dtype, copy=False), b.astype(dtype, copy=False),
                    group == "encoder" or i < len(ps) - 1,
                    gs[i] if gs else None) for i, (w, b) in enumerate(ps)]
    if layers and A.shape[-1] != layers[0][0].shape[0]:
        raise ValueError(f"input width {A.shape[-1]} does not match first "
                         f"layer fan-in {layers[0][0].shape[0]}")
    first = next((i for i, l in enumerate(layers) if l[3] is not None),
                 len(layers))
    kept = []
    for i, (w, b, relu, _) in enumerate(layers):
        if i >= first:
            kept.append(A)
        A = A @ w
        A += b
        if relu:
            np.maximum(A, 0.0, out=A)
    if first == len(layers):
        return Tensor(A)
    kept.append(A)

    def push(g):
        g = g.astype(dtype, copy=False)
        for i in range(len(layers) - 1, first - 1, -1):
            w, _, relu, grad = layers[i]
            if relu:
                g = g * (kept[i - first + 1] > 0.0)
            if grad is not None:
                gw, gb = grad
                gw += kept[i - first].T @ g
                gb += g.sum(axis=0)
            if i > first:
                g = g @ w.T
        return ()
    return Tensor(A, push)


def frozen_forward(params: MlpParams, X: Array, head: bool = True) -> Array:
    """The rows of `X` through `params` with every layer frozen, so no node
    is recorded and no gradient laid out: the logits with `head`, else the
    representation (the encoder's layers alone)."""
    return _forward(X, params, None, head).data


def mlp_forward(params: MlpParams, X: Array) -> Array:
    """Class probabilities of the rows of `X`, in their dtype (float32
    stays, all else float64)."""
    return softmax(frozen_forward(params, X))


def predict_classes(params: MlpParams, X: Array) -> Array:
    """Predicted class of each row of `X`: the argmax of its logits, the
    lowest index on exact ties. No softmax runs; non-finite logits raise
    NumericError, as they do in `mlp_forward`."""
    logits = frozen_forward(params, X)
    if not np.isfinite(logits).all():
        raise NumericError("predict_classes: non-finite logits")
    return np.argmax(logits, axis=-1)


def accuracy(params: MlpParams, X: Array, y: Array) -> float:
    """Share of the rows of `X` whose predicted class is their entry of `y`."""
    return float(np.mean(predict_classes(params, X) == y))


class TapeMlp:
    """Tape view of an MlpParams, whose arrays never become tape leaves.

    `logits` runs on a constant input and records one node when some layer
    is live (in a group not `frozen`); its push adds into `gradients()`.
    `grads`, the `gradients()` of an earlier tape over the same params and
    frozen groups, is zeroed and reused instead of building a new one. A
    tape with no live layer builds no gradient.
    """

    def __init__(self, params: MlpParams, frozen: Iterable[str] = (),
                 grads: MlpParams | None = None):
        frozen = set(frozen)
        unknown = frozen - {"encoder", "classifier"}
        if unknown:
            raise ValueError(f"unknown frozen groups: {sorted(unknown)}")
        self._params = params
        live = [[] if group in frozen else getattr(params, group)
                for group in ("encoder", "classifier")]
        if grads is None and any(live):   # the live layers in one buffer
            grads = MlpParams(*live)
        if grads is not None:
            grads.flat.fill(0.0)    # for the push's +=
        self._grads = grads

    def logits(self, X) -> Tensor:
        """Head layers on the representation: ReLU between them, raw output."""
        return _forward(X, self._params, self._grads, head=True)

    def gradients(self) -> MlpParams:
        """The live groups' gradients, zero where no forward used them; a
        frozen group is an empty list."""
        return self._grads or MlpParams([], [])


def grad(params: MlpParams, loss_fn: Callable[[TapeMlp], Tensor],
         frozen: Iterable[str] = (), out: MlpParams | None = None
         ) -> tuple[float, MlpParams]:
    """Evaluate `loss_fn` on a tape view of `params` and return gradients.

    `loss_fn` must build a scalar from tape operations. Parameter groups
    named in `frozen` are empty in the result. `out`, a result of an
    earlier call with the same params and `frozen`, is overwritten and
    returned instead of a new gradient.
    """
    tape = TapeMlp(params, frozen=frozen, grads=out)
    loss = loss_fn(tape)
    loss.backward()
    return float(loss.data), tape.gradients()


# ---------------------------------------------------------------------------
# Optimizers, schedule, EMA
# ---------------------------------------------------------------------------

@dataclass
class OptState:
    """SGD (optionally with momentum) or Adam state for an MlpParams.

    Adam runs with beta1 = 0.9, beta2 = 0.999 and eps = 1e-8. `moments`
    holds SGD's momentum, or Adam's first and second moments, as flat
    buffers in the layout of the first step's gradient `flat`; plain SGD
    keeps none.
    """

    kind: str
    learning_rate: float
    momentum: float = 0.0
    step_count: int = 0
    moments: list[Array] = field(default_factory=list, init=False, repr=False)
    _scratch: list[Array] = field(default_factory=list, init=False, repr=False)
    _start: int = field(default=0, init=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer kind: {self.kind}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


def sgd(learning_rate: float, momentum: float = 0.0) -> OptState:
    return OptState(kind="sgd", learning_rate=learning_rate, momentum=momentum)


def adam(learning_rate: float) -> OptState:
    return OptState(kind="adam", learning_rate=learning_rate)


def optimizer_step(state: OptState, params: MlpParams, grads: MlpParams) -> MlpParams:
    """Apply one update in place to the parameters `grads` holds.

    `grads` is a gradient from `grad`: its live groups are the encoder
    prefix of `params.flat`, the head suffix, or all of it. The arithmetic
    runs once over flat buffers, in the same operation order as a
    per-parameter update, so every bit matches one. Every step must cover
    the values the first step covered.
    """
    g = grads.flat
    start = 0 if grads.encoder else params.flat.size - g.size
    if not state._scratch:
        state._scratch = [np.empty(g.size), np.empty(g.size)]
        kept = 2 if state.kind == "adam" else int(state.momentum > 0.0)
        state.moments = [np.zeros(g.size) for _ in range(kept)]
        state._start = start
    a, s = state._scratch
    if (start, g.size) != (state._start, a.size):
        raise ValueError(f"optimizer_step: gradient of parameter values "
                         f"[{start}, {start + g.size}), but the first step's "
                         f"was of [{state._start}, {state._start + a.size})")
    if not np.isfinite(g).all():
        bad = next(n for n, x in grads.walk() if not np.isfinite(x).all())
        raise NumericError(f"non-finite gradient for {bad}")
    state.step_count += 1
    if state.kind == "adam":
        m, v = state.moments
        beta1, beta2 = 0.9, 0.999
        m *= beta1
        np.multiply(g, 1.0 - beta1, out=a)
        m += a
        v *= beta2
        np.multiply(g, 1.0 - beta2, out=a)
        a *= g
        v += a
        np.divide(m, 1.0 - beta1 ** state.step_count, out=a)
        a *= state.learning_rate
        np.divide(v, 1.0 - beta2 ** state.step_count, out=s)
        np.sqrt(s, out=s)
        s += 1e-8
        a /= s
    elif state.moments:
        v, = state.moments
        v *= state.momentum
        v += g
        np.multiply(v, state.learning_rate, out=a)
    else:
        np.multiply(g, state.learning_rate, out=a)
    params.flat[start:start + g.size] -= a
    return params


@dataclass
class EmaState:
    """Exponential moving average of a parameter set, kept as a model."""

    params: MlpParams
    decay: float


def ema_init(params: MlpParams, decay: float) -> EmaState:
    return EmaState(params=params.clone(), decay=decay)


def ema_update(ema: EmaState, params: MlpParams) -> EmaState:
    """ema.params <- decay * ema.params + (1 - decay) * params, elementwise."""
    s = ema.params.flat
    s *= ema.decay
    s += (1.0 - ema.decay) * params.flat
    return ema


def ema_params(ema: EmaState) -> MlpParams:
    """A copy of the averaged model, apart from later updates."""
    return ema.params.clone()


# ---------------------------------------------------------------------------
# The training loop
# ---------------------------------------------------------------------------

LossFn = Callable[[TapeMlp], Tensor]


def fit(params: MlpParams, opt: OptState, epochs: int, steps: int,
        batches: Callable[[], Iterable[LossFn]], eta_min: float,
        frozen: tuple[str, ...] = (), ema: EmaState | None = None
        ) -> Iterator[list[float]]:
    """Train `params` in place, yielding each epoch's step losses.

    `batches()` is called once per epoch and yields `steps` tape loss
    functions. Each step takes the gradient (skipping `frozen` groups),
    sets the rate on a cosine schedule from the optimizer's initial rate
    to `eta_min` over all epochs (constant when the two are equal),
    applies the update, and folds the weights into `ema` when given.
    """
    lr0 = opt.learning_rate
    grads = None    # built by the first step, refilled by every later one
    for epoch in range(epochs):
        losses = []
        for step, loss_fn in enumerate(batches(), epoch * steps):
            value, grads = grad(params, loss_fn, frozen=frozen, out=grads)
            opt.learning_rate = cosine_lr(step, steps * epochs, lr0, eta_min)
            optimizer_step(opt, params, grads)
            if ema is not None:
                ema_update(ema, params)
            losses.append(value)
        yield losses


def ce_batches(X: Array, targets: Array, batch_size: int,
               rng: np.random.Generator) -> Callable[[], Iterator[LossFn]]:
    """Batches for `fit`: mean cross-entropy on slices of a fresh shuffle.

    Each call draws a permutation of the rows from `rng` and yields one
    loss function per consecutive `batch_size` slice of it.
    """
    def batches() -> Iterator[LossFn]:
        order = rng.permutation(X.shape[0])
        for start in range(0, X.shape[0], batch_size):
            take = order[start:start + batch_size]
            yield lambda tape, xb=X[take], tb=targets[take]: (
                softmax_cross_entropy(tape.logits(xb), tb))

    return batches
