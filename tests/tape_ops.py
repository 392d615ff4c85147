"""The reference tape: per-op nodes that no training stage records.

The stages run fused nodes: the `TapeMlp` forward, `softmax_rows`,
`softmax_cross_entropy`, `ssrl.nt_xent_loss`, `graphreg.sharpen_t`,
`graph_regularizer`, `semi.consistency_loss` and `semi.weighted_total`.
Each feeds one consumer, so `numnet`'s backward only hands each push its
gradient. The tests check each fused node against the composition it
replaced, built from the ops here, whose nodes may feed any number of
consumers. So a `Node` keeps the general sweep: sort the graph under the
root topologically, then run each node's push once every consumer has
added into its `grad`. A push returns the `(input, gradient)` pairs of
the node's live inputs and computes nothing for a constant one. The
elementwise ops broadcast their operands, and their pushes sum each
gradient back to its operand's shape.

The two tapes mix. An op reads a `numnet.Tensor` through `as_node`, which
pushes the summed gradient into it once, by `numnet`'s own sweep; and
that sweep pushes into a node through the node's `_push`, which adds the
gradient and sweeps on from there. So across the two tapes only leaves
fan out: a `numnet.Tensor` read by two ops raises, and so does a node
read by a `numnet.Tensor` and by any other consumer.
"""

import contextlib

import numpy as np

from noisylearn import numnet
from noisylearn.numnet import _SPENT


class Node(numnet.Tensor):
    """A reference-tape node; `leaf(x)` makes one that keeps its `grad`."""

    __slots__ = ("grad", "_parents", "_backward")

    def __init__(self, data, parents=(), push=None):
        live = tuple(p for p in parents if p._push is not None)
        super().__init__(data, self._pushed if live else None)
        self.grad = None
        self._parents = live
        self._backward = push if live else None

    def _accumulate(self, g) -> None:
        if self._push is _SPENT:    # swept before this consumer pushed
            raise RuntimeError("backward() already ran on this tape")
        # Not in place: `add` hands one array to both operands.
        self.grad = g if self.grad is None else self.grad + g

    def _pushed(self, g):
        """`numnet`'s push into this node: add `g`, then sweep from here."""
        self._push = self._pushed   # numnet spent it; a leaf stays live
        self._accumulate(g)
        self._sweep()
        return ()

    def _sweep(self) -> None:
        """Reverse-mode sweep from this node; only leaves keep `.grad`.

        The sweep spends the tape, so a second sweep over any of it raises.
        """
        topo: list[Node] = []
        seen: set[int] = set()
        stack: list[tuple[Node, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._push is _SPENT:
                raise RuntimeError("backward() already ran on this tape")
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        for node in reversed(topo):
            if node._backward is not None:
                for parent, g in node._backward(node.grad):
                    parent._accumulate(g)
                node.grad, node._backward, node._push = None, None, _SPENT


@contextlib.contextmanager
def recording():
    """Collect every node built in the block, `numnet`'s and the
    reference tape's, in a list."""
    made, init = [], numnet.Tensor.__init__

    def record(self, *args):
        init(self, *args)
        made.append(self)
    numnet.Tensor.__init__ = record
    try:
        yield made
    finally:
        numnet.Tensor.__init__ = init


def pushes(nodes) -> int:
    """How many of `nodes` a sweep pushed from; leaves and constants never
    push."""
    return sum(node._push is _SPENT for node in nodes)


def leaf(x) -> Node:
    """A live input: it adds up every gradient that reaches it in `grad`."""
    node = Node(x)
    node._push = node._pushed
    return node


def as_node(x) -> Node:
    """`x` on the reference tape. A live `numnet.Tensor` becomes a node
    without parents whose push sends its summed gradient into the tensor."""
    if isinstance(x, Node):
        return x
    if not isinstance(x, numnet.Tensor):
        return Node(x)
    if x._push is None:
        return Node(x.data)

    def push(g):   # numnet's sweep, from `x` with `g`
        numnet.Tensor(0.0, lambda _: [(x, g)]).backward()
        return ()
    node = leaf(x.data)
    node._backward = push
    return node


def _unbroadcast(grad, shape: tuple[int, ...]):
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a, b) -> Node:
    a, b = as_node(a), as_node(b)

    def push(g):
        return [(p, _unbroadcast(g, p.data.shape)) for p in (a, b) if p._push]
    return Node(a.data + b.data, (a, b), push)


def sub(a, b) -> Node:
    a, b = as_node(a), as_node(b)

    def push(g):
        if a._push:
            yield a, _unbroadcast(g, a.data.shape)
        if b._push:
            yield b, _unbroadcast(-g, b.data.shape)
    return Node(a.data - b.data, (a, b), push)


def mul(a, b) -> Node:
    a, b = as_node(a), as_node(b)

    def push(g):
        if a._push:
            yield a, _unbroadcast(g * b.data, a.data.shape)
        if b._push:
            yield b, _unbroadcast(g * a.data, b.data.shape)
    return Node(a.data * b.data, (a, b), push)


def sum_(a, axis=None, keepdims: bool = False) -> Node:
    a = as_node(a)

    def push(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return [(a, np.broadcast_to(g, a.data.shape).copy())]
    return Node(a.data.sum(axis=axis, keepdims=keepdims), (a,), push)


def mean(a, axis=None, keepdims: bool = False) -> Node:
    a = as_node(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / n)


def neg(a) -> Node:
    a = as_node(a)
    return Node(-a.data, (a,), lambda g: [(a, -g)])


def div(a, b) -> Node:
    a, b = as_node(a), as_node(b)

    def push(g):
        if a._push:
            yield a, _unbroadcast(g / b.data, a.data.shape)
        if b._push:
            yield b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)
    return Node(a.data / b.data, (a, b), push)


def power(a, exponent: float) -> Node:
    a, e = as_node(a), float(exponent)
    return Node(a.data ** e, (a,),
                lambda g: [(a, g * e * a.data ** (e - 1.0))])


def matmul(a, b) -> Node:
    a, b = as_node(a), as_node(b)

    def push(g):
        if a._push:
            yield a, g @ b.data.T
        if b._push:
            yield b, a.data.T @ g
    return Node(a.data @ b.data, (a, b), push)


def relu(a) -> Node:
    return clip_min(a, 0.0)


def exp(a) -> Node:
    a = as_node(a)
    e = np.exp(a.data)
    return Node(e, (a,), lambda g: [(a, g * e)])


def log(a) -> Node:
    a = as_node(a)
    return Node(np.log(a.data), (a,), lambda g: [(a, g / a.data)])


def clip_min(a, floor: float) -> Node:
    """Clamp below at `floor`; gradient is zero where the clamp engages."""
    a = as_node(a)
    mask = a.data > floor
    return Node(np.maximum(a.data, floor), (a,), lambda g: [(a, g * mask)])


def reshape(a, *shape) -> Node:
    a = as_node(a)
    return Node(a.data.reshape(*shape), (a,),
                lambda g: [(a, g.reshape(a.data.shape))])


def cross_entropy_rows(p, targets) -> Node:
    """Mean cross-entropy between probability rows and (soft) target rows."""
    logs = log(clip_min(p, numnet.LOG_FLOOR))
    return neg(mean(sum_(mul(targets, logs), axis=-1)))
