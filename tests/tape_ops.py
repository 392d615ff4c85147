"""Per-op tape nodes that no training stage records.

The stages run fused nodes (`numnet.dense`, `softmax_rows`,
`softmax_cross_entropy`, `ssrl.nt_xent_loss`, `graphreg.sharpen_t` and
`graph_regularizer`). The tests check each against the composition it
replaced, built from these ops and the `Tensor` algebra. Each op records
one node through `numnet._make`, and its backward skips any parent that
takes no gradient.
"""

import numpy as np

from noisylearn import numnet
from noisylearn.numnet import (Tensor, _accum, _live, _make, _unbroadcast,
                               as_tensor)


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
            if _live(a):
                a._accumulate(_unbroadcast(out.grad / b.data, a.data.shape))
            if _live(b):
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
    return neg((as_tensor(targets) * logs).sum(axis=-1).mean())
