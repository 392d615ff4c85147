"""Minimal differentiable numeric core.

A small reverse-mode tape over float64 numpy arrays, MLP parameter
containers, SGD/Adam optimizers, a cosine learning-rate schedule, a
parameter EMA, and the one training loop (`fit`) every stage runs. The
tape supports exactly the compositions the training stages need: the
fused `dense` and `softmax_cross_entropy` nodes, softmax, elementwise
algebra and reductions, plus the fused NT-Xent node in `ssrl` and the
graph-penalty node in `graphreg`. It is not a general autodiff system.

Everything is float64. Runs are deterministic for a fixed seed as long as
execution stays single-threaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import NumericError

Array = np.ndarray


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """Node in the reverse-mode tape.

    Wraps a float64 ndarray. Nodes built from at least one gradient-requiring
    parent record a backward closure; constant subexpressions stay off the
    tape entirely.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def _accumulate(self, g: Array) -> None:
        # Not in place: __add__/__sub__ hand one array to both parents.
        self.grad = g if self.grad is None else self.grad + g

    # -- elementwise algebra -------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = _make(self.data + other.data, (self, other))
        if out._parents:
            def backward():
                _accum(self, _unbroadcast(out.grad, self.data.shape))
                _accum(other, _unbroadcast(out.grad, other.data.shape))
            out._backward = backward
        return out

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = _make(self.data - other.data, (self, other))
        if out._parents:
            def backward():
                _accum(self, _unbroadcast(out.grad, self.data.shape))
                _accum(other, _unbroadcast(-out.grad, other.data.shape))
            out._backward = backward
        return out

    def __neg__(self) -> "Tensor":
        out = _make(-self.data, (self,))
        if out._parents:
            def backward():
                _accum(self, -out.grad)
            out._backward = backward
        return out

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = _make(self.data * other.data, (self, other))
        if out._parents:
            def backward():
                _accum(self, _unbroadcast(out.grad * other.data, self.data.shape))
                _accum(other, _unbroadcast(out.grad * self.data, other.data.shape))
            out._backward = backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = _make(self.data / other.data, (self, other))
        if out._parents:
            def backward():
                _accum(self, _unbroadcast(out.grad / other.data, self.data.shape))
                _accum(other, _unbroadcast(
                    -out.grad * self.data / (other.data * other.data),
                    other.data.shape))
            out._backward = backward
        return out

    def __pow__(self, exponent: float) -> "Tensor":
        e = float(exponent)
        out = _make(self.data ** e, (self,))
        if out._parents:
            def backward():
                _accum(self, out.grad * e * self.data ** (e - 1.0))
            out._backward = backward
        return out

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = _make(self.data @ other.data, (self, other))
        if out._parents:
            def backward():
                _accum(self, out.grad @ other.data.T)
                _accum(other, self.data.T @ out.grad)
            out._backward = backward
        return out

    # -- nonlinearities ------------------------------------------------------

    def relu(self) -> "Tensor":
        out = _make(np.maximum(self.data, 0.0), (self,))
        if out._parents:
            mask = self.data > 0.0
            def backward():
                _accum(self, out.grad * mask)
            out._backward = backward
        return out

    def exp(self) -> "Tensor":
        out = _make(np.exp(self.data), (self,))
        if out._parents:
            def backward():
                _accum(self, out.grad * out.data)
            out._backward = backward
        return out

    def log(self) -> "Tensor":
        out = _make(np.log(self.data), (self,))
        if out._parents:
            def backward():
                _accum(self, out.grad / self.data)
            out._backward = backward
        return out

    def clip_min(self, floor: float) -> "Tensor":
        """Clamp below at `floor`; gradient is zero where the clamp engages."""
        out = _make(np.maximum(self.data, floor), (self,))
        if out._parents:
            mask = self.data > floor
            def backward():
                _accum(self, out.grad * mask)
            out._backward = backward
        return out

    # -- reductions and reshaping ---------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = _make(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out._parents:
            def backward():
                g = out.grad
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                _accum(self, np.broadcast_to(g, self.data.shape).copy())
            out._backward = backward
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def reshape(self, *shape) -> "Tensor":
        out = _make(self.data.reshape(*shape), (self,))
        if out._parents:
            def backward():
                _accum(self, out.grad.reshape(self.data.shape))
            out._backward = backward
        return out

    # -- backward pass ---------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar root; only leaves keep `.grad`."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar root")
        if not np.isfinite(self.data):
            raise NumericError(f"non-finite loss: {float(self.data)}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward()
                node.grad = None  # passed on; spent tapes wait for the GC


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _make(data: Array, parents: tuple[Tensor, ...]) -> Tensor:
    out = Tensor(data)
    live = tuple(p for p in parents if _live(p))
    if live:
        out._parents = live
        out.requires_grad = True
    return out


def _live(node: Tensor) -> bool:
    return node.requires_grad or bool(node._parents)


def _accum(node: Tensor, g: Array) -> None:
    if _live(node):
        node._accumulate(g)


def dense(X: Tensor, w: Tensor, b: Tensor, relu: bool) -> Tensor:
    """One layer, `X @ w + b`, rectified when `relu` is set, as one node.

    The same ops as `(X @ w + b).relu()`, so value and gradients match the
    composition bit for bit; the backward forms a parent's product only
    when that parent is live (frozen weights, constant inputs).
    """
    z = X.data @ w.data + b.data
    out = _make(np.maximum(z, 0.0) if relu else z, (X, w, b))
    if out._parents:
        def backward():
            g = out.grad * (out.data > 0.0) if relu else out.grad
            if _live(X):
                X._accumulate(g @ w.data.T)
            if _live(w):
                w._accumulate(X.data.T @ g)
            if _live(b):
                b._accumulate(g.sum(axis=0))
        out._backward = backward
    return out


def softmax_rows(logits: Tensor) -> Tensor:
    """Row-wise softmax on the tape; max-subtraction keeps it overflow-safe.

    The subtracted row maximum is treated as a constant, which is exact for
    both the value (shift invariance) and the gradient.
    """
    shift = logits.data.max(axis=-1, keepdims=True)
    e = (logits - shift).exp()
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy_rows(p: Tensor, targets: Array) -> Tensor:
    """Mean cross-entropy between probability rows and (soft) target rows."""
    logs = p.clip_min(LOG_FLOOR).log()
    return -(as_tensor(targets) * logs).sum(axis=-1).mean()


LOG_FLOOR = 1e-12


def softmax_cross_entropy(logits: Tensor, targets: Array) -> Tensor:
    """`cross_entropy_rows(softmax_rows(logits), targets)` as one node.

    The value runs the composition's ops in order. The backward replays
    its chain rule op for op on arrays rather than using the closed form
    `(P * rowsum(T) - T) / n`, which is equal in exact arithmetic but not
    in the last bits.
    """
    T = np.asarray(targets, dtype=np.float64)
    e = np.exp(logits.data - logits.data.max(axis=-1, keepdims=True))
    s = e.sum(axis=-1, keepdims=True)
    Pc = np.maximum(e / s, LOG_FLOOR)
    rows = (T * np.log(Pc)).sum(axis=-1)
    n = rows.size
    out = _make(-(rows.sum() * (1.0 / n)), (logits,))
    if out._parents:
        def backward():
            M = -out.grad * (1.0 / n)               # neg, then mean
            dP = M * T / Pc * (Pc > LOG_FLOOR)       # times T, log, clip
            ds = (-dP * e / (s * s)).sum(axis=-1, keepdims=True)
            logits._accumulate((dP / s + ds) * e)    # divide, sum, exp
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# Plain (tape-free) numeric operations
# ---------------------------------------------------------------------------

def softmax(logits: Array) -> Array:
    """Stable softmax over the last axis of a vector or matrix of logits."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise NumericError("softmax: non-finite logits")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def predict(p: Array) -> Array:
    """Argmax class per probability row; ties break to the lowest index."""
    p = np.asarray(p, dtype=np.float64)
    return np.argmax(p, axis=-1)


def one_hot(labels: Array, n_classes: int) -> Array:
    labels = np.asarray(labels)
    out = np.zeros((labels.size, n_classes), dtype=np.float64)
    out[np.arange(labels.size), labels] = 1.0
    return out


def cosine_lr(step: int, total_steps: int, lr0: float, eta_min: float) -> float:
    """Cosine decay from lr0 at step 0 down to eta_min at total_steps."""
    if total_steps <= 0:
        raise ValueError("cosine_lr: total_steps must be positive")
    if not 0 <= step <= total_steps:
        raise ValueError(f"cosine_lr: step {step} outside [0, {total_steps}]")
    if lr0 < eta_min:
        raise ValueError("cosine_lr: lr0 must be >= eta_min")
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
    """

    encoder: list[Layer]
    classifier: list[Layer]

    def __post_init__(self):
        widths = []
        for layer in list(self.encoder) + list(self.classifier):
            w, b = layer.weight, layer.bias
            if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[1]:
                raise ValueError("layer weight/bias shapes inconsistent")
            widths.append((w.shape[0], w.shape[1]))
        for (_, out_w), (in_w, _) in zip(widths, widths[1:]):
            if out_w != in_w:
                raise ValueError(f"layer widths do not chain: {out_w} -> {in_w}")

    def walk(self) -> Iterator[tuple[str, Array]]:
        """Yield (name, array) for every parameter, in a fixed order."""
        for group, layers in (("encoder", self.encoder), ("classifier", self.classifier)):
            for i, layer in enumerate(layers):
                yield f"{group}.{i}.weight", layer.weight
                yield f"{group}.{i}.bias", layer.bias

    def clone(self) -> "MlpParams":
        return MlpParams(
            encoder=[Layer(l.weight.copy(), l.bias.copy()) for l in self.encoder],
            classifier=[Layer(l.weight.copy(), l.bias.copy()) for l in self.classifier],
        )


GradDict = dict[str, Array]


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

def _check_input(params: MlpParams, X: Array) -> None:
    layers = params.encoder or params.classifier
    if layers and X.shape[-1] != layers[0].weight.shape[0]:
        raise ValueError(
            f"input width {X.shape[-1]} does not match first layer "
            f"fan-in {layers[0].weight.shape[0]}")


def mlp_forward(params: MlpParams, X: Array) -> tuple[Array, Array, Array]:
    """Forward pass: returns (representation Z, logits F, probabilities P).

    The tape forward on constants, so no node keeps parents or a backward.
    """
    X = np.asarray(X, dtype=np.float64)
    _check_input(params, X)
    tape = TapeMlp(params, frozen=("encoder", "classifier"))
    Z = tape.embed(X)
    F = tape.head(Z)
    return Z.data, F.data, softmax(F.data)


class TapeMlp:
    """Tape-lifted view of an MlpParams used inside gradient closures."""

    def __init__(self, params: MlpParams, frozen: Iterable[str] = ()):
        frozen = set(frozen)
        unknown = frozen - {"encoder", "classifier"}
        if unknown:
            raise ValueError(f"unknown frozen groups: {sorted(unknown)}")
        self.params = params
        self.encoder = [
            (Tensor(l.weight, requires_grad="encoder" not in frozen),
             Tensor(l.bias, requires_grad="encoder" not in frozen))
            for l in params.encoder
        ]
        self.classifier = [
            (Tensor(l.weight, requires_grad="classifier" not in frozen),
             Tensor(l.bias, requires_grad="classifier" not in frozen))
            for l in params.classifier
        ]
        self._frozen = frozen

    def embed(self, X) -> Tensor:
        Z = as_tensor(np.asarray(X, dtype=np.float64))
        for w, b in self.encoder:
            Z = dense(Z, w, b, relu=True)
        return Z

    def head(self, Z: Tensor) -> Tensor:
        """Head layers on a representation: ReLU between them, raw output."""
        F = Z
        last = len(self.classifier) - 1
        for i, (w, b) in enumerate(self.classifier):
            F = dense(F, w, b, relu=i < last)
        return F

    def logits(self, X) -> Tensor:
        return self.head(self.embed(X))

    def forward(self, X) -> tuple[Tensor, Tensor, Tensor]:
        Z = self.embed(X)
        F = self.head(Z)
        return Z, F, softmax_rows(F)

    def gradients(self) -> GradDict:
        grads: GradDict = {}
        tensors = {"encoder": self.encoder, "classifier": self.classifier}
        for group, layers in tensors.items():
            if group in self._frozen:
                continue
            for i, (w, b) in enumerate(layers):
                grads[f"{group}.{i}.weight"] = (
                    w.grad if w.grad is not None else np.zeros_like(w.data))
                grads[f"{group}.{i}.bias"] = (
                    b.grad if b.grad is not None else np.zeros_like(b.data))
        return grads


def grad(params: MlpParams, loss_fn: Callable[[TapeMlp], Tensor],
         frozen: Iterable[str] = ()) -> tuple[float, GradDict]:
    """Evaluate `loss_fn` on a tape view of `params` and return gradients.

    `loss_fn` must build a scalar from tape operations. Parameter groups
    named in `frozen` are omitted from the result.
    """
    tape = TapeMlp(params, frozen=frozen)
    loss = loss_fn(tape)
    if not isinstance(loss, Tensor):
        raise TypeError("loss_fn must return a tape Tensor")
    loss.backward()
    return float(loss.data), tape.gradients()


# ---------------------------------------------------------------------------
# Optimizers, schedule, EMA
# ---------------------------------------------------------------------------

@dataclass
class OptState:
    """SGD (optionally with momentum) or Adam state for an MlpParams."""

    kind: str
    learning_rate: float
    momentum: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    buffers: dict[str, Array] = field(default_factory=dict, repr=False)
    second_moments: dict[str, Array] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer kind: {self.kind}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


def sgd(learning_rate: float, momentum: float = 0.0) -> OptState:
    return OptState(kind="sgd", learning_rate=learning_rate, momentum=momentum)


def adam(learning_rate: float, beta1: float = 0.9, beta2: float = 0.999,
         eps: float = 1e-8) -> OptState:
    return OptState(kind="adam", learning_rate=learning_rate,
                    beta1=beta1, beta2=beta2, eps=eps)


def _buffer(store: dict[str, Array], name: str, like: Array) -> Array:
    """The state array under `name`, zero-filled the first time only."""
    buf = store.get(name)
    if buf is None:
        buf = store[name] = np.zeros_like(like)
    return buf


def optimizer_step(state: OptState, params: MlpParams, grads: GradDict) -> MlpParams:
    """Apply one update in place; parameters missing from `grads` are frozen."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for {name}")
    arrays = dict(params.walk())
    state.step_count += 1
    for name, g in grads.items():
        p = arrays[name]
        if state.kind == "sgd":
            if state.momentum > 0.0:
                v = _buffer(state.buffers, name, p)
                v *= state.momentum
                v += g
                p -= state.learning_rate * v
            else:
                p -= state.learning_rate * g
        else:
            m = _buffer(state.buffers, name, p)
            v = _buffer(state.second_moments, name, p)
            m *= state.beta1
            m += (1.0 - state.beta1) * g
            v *= state.beta2
            v += (1.0 - state.beta2) * g * g
            m_hat = m / (1.0 - state.beta1 ** state.step_count)
            v_hat = v / (1.0 - state.beta2 ** state.step_count)
            p -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)
    return params


@dataclass
class EmaState:
    """Exponential moving average of a parameter set."""

    shadow: dict[str, Array]
    decay: float

    def __post_init__(self):
        if not 0.0 <= self.decay < 1.0:
            raise ValueError("decay must be in [0, 1)")


def ema_init(params: MlpParams, decay: float) -> EmaState:
    return EmaState(shadow={name: a.copy() for name, a in params.walk()}, decay=decay)


def ema_update(ema: EmaState, params: MlpParams) -> EmaState:
    """shadow <- decay * shadow + (1 - decay) * params, elementwise."""
    for name, a in params.walk():
        s = ema.shadow[name]
        if s.shape != a.shape:
            raise ValueError(f"EMA shape mismatch for {name}")
        s *= ema.decay
        s += (1.0 - ema.decay) * a
    return ema


def ema_params(ema: EmaState, template: MlpParams) -> MlpParams:
    """Materialize the shadow as an MlpParams shaped like `template`."""
    out = template.clone()
    for name, a in out.walk():
        a[...] = ema.shadow[name]
    return out


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
    for epoch in range(epochs):
        losses = []
        for step, loss_fn in enumerate(batches(), epoch * steps):
            value, grads = grad(params, loss_fn, frozen=frozen)
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
