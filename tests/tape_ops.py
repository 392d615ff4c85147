"""Per-op tape nodes that no training stage records.

The stages run fused nodes: the `TapeMlp` forward, `softmax_rows`,
`softmax_cross_entropy`, `ssrl.nt_xent_loss`, `graphreg.sharpen_t`,
`graph_regularizer`, `semi.consistency_loss` and `semi.weighted_total`.
The tests check each against the composition it replaced, built from
these ops. Each op records one node through `numnet._make`, and its
backward skips any parent that takes no gradient. The elementwise ops
broadcast their operands, and their backward sums each gradient back to
its operand's shape.
"""

import numpy as np

from noisylearn import numnet
from noisylearn.numnet import Tensor, _accum, _make, as_tensor


def _unbroadcast(grad, shape: tuple[int, ...]):
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = _make(a.data + b.data, (a, b))
    if out._parents:
        def backward():
            if a.requires_grad:
                a._accumulate(_unbroadcast(out.grad, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(out.grad, b.data.shape))
        out._backward = backward
    return out


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = _make(a.data - b.data, (a, b))
    if out._parents:
        def backward():
            if a.requires_grad:
                a._accumulate(_unbroadcast(out.grad, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-out.grad, b.data.shape))
        out._backward = backward
    return out


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = _make(a.data * b.data, (a, b))
    if out._parents:
        def backward():
            if a.requires_grad:
                a._accumulate(_unbroadcast(out.grad * b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(out.grad * a.data, b.data.shape))
        out._backward = backward
    return out


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = _make(a.data.sum(axis=axis, keepdims=keepdims), (a,))
    if out._parents:
        def backward():
            g = out.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(g, a.data.shape).copy())
        out._backward = backward
    return out


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / n)


def neg(a: Tensor) -> Tensor:
    out = _make(-a.data, (a,))
    if out._parents:
        def backward():
            _accum(a, -out.grad)
        out._backward = backward
    return out


def div(a: Tensor, b) -> Tensor:
    b = as_tensor(b)
    out = _make(a.data / b.data, (a, b))
    if out._parents:
        def backward():
            if a.requires_grad:
                a._accumulate(_unbroadcast(out.grad / b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(
                    -out.grad * a.data / (b.data * b.data), b.data.shape))
        out._backward = backward
    return out


def power(a: Tensor, exponent: float) -> Tensor:
    e = float(exponent)
    out = _make(a.data ** e, (a,))
    if out._parents:
        def backward():
            _accum(a, out.grad * e * a.data ** (e - 1.0))
        out._backward = backward
    return out


def matmul(a: Tensor, b) -> Tensor:
    b = as_tensor(b)
    out = _make(a.data @ b.data, (a, b))
    if out._parents:
        def backward():
            _accum(a, out.grad @ b.data.T)
            _accum(b, a.data.T @ out.grad)
        out._backward = backward
    return out


def relu(a: Tensor) -> Tensor:
    return clip_min(a, 0.0)


def exp(a: Tensor) -> Tensor:
    out = _make(np.exp(a.data), (a,))
    if out._parents:
        def backward():
            _accum(a, out.grad * out.data)
        out._backward = backward
    return out


def log(a: Tensor) -> Tensor:
    out = _make(np.log(a.data), (a,))
    if out._parents:
        def backward():
            _accum(a, out.grad / a.data)
        out._backward = backward
    return out


def clip_min(a: Tensor, floor: float) -> Tensor:
    """Clamp below at `floor`; gradient is zero where the clamp engages."""
    out = _make(np.maximum(a.data, floor), (a,))
    if out._parents:
        mask = a.data > floor
        def backward():
            _accum(a, out.grad * mask)
        out._backward = backward
    return out


def reshape(a: Tensor, *shape) -> Tensor:
    out = _make(a.data.reshape(*shape), (a,))
    if out._parents:
        def backward():
            _accum(a, out.grad.reshape(a.data.shape))
        out._backward = backward
    return out


def cross_entropy_rows(p: Tensor, targets) -> Tensor:
    """Mean cross-entropy between probability rows and (soft) target rows."""
    logs = log(clip_min(p, numnet.LOG_FLOOR))
    return neg(mean(sum_(mul(targets, logs), axis=-1)))
