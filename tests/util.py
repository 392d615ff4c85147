"""Shared helpers for the test suite."""

import os
from pathlib import Path

import numpy as np

import noisylearn
from noisylearn import numnet


def child_env():
    """Environment for a child `python -m noisylearn` process.

    PYTHONPATH starts with the absolute directory that holds the noisylearn
    package this process imported, so the child runs the same code from any
    working directory, installed or not. Existing PYTHONPATH entries follow
    it; every other variable is passed on unchanged.
    """
    env = dict(os.environ)
    root = str(Path(noisylearn.__file__).resolve().parents[1])
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + os.pathsep + rest if rest else root
    return env


def central_diff(params, loss_fn, h=1e-6, max_coords=None, rng=None):
    """Central finite-difference gradients of a scalar loss over MlpParams.

    loss_fn takes the params object and returns a float; the params arrays
    are perturbed in place and restored. When max_coords is set, only a
    random subsample of coordinates per array is probed (rng required).
    """
    out = {}
    for name, arr in params.walk():
        flat = arr.reshape(-1)
        if max_coords is not None and flat.size > max_coords:
            coords = rng.choice(flat.size, size=max_coords, replace=False)
        else:
            coords = range(flat.size)
        grads = np.full(flat.size, np.nan)
        for i in coords:
            old = flat[i]
            flat[i] = old + h
            up = loss_fn(params)
            flat[i] = old - h
            down = loss_fn(params)
            flat[i] = old
            grads[i] = (up - down) / (2.0 * h)
        out[name] = grads.reshape(arr.shape)
    return out


def max_rel_err(analytic, numeric):
    """Worst relative disagreement over all probed coordinates.

    `analytic` is the gradient `MlpParams` that `numnet.grad` returns,
    `numeric` the name-keyed output of `central_diff`.
    """
    analytic = dict(analytic.walk())
    worst = 0.0
    for name, fd in numeric.items():
        a = analytic[name]
        mask = np.isfinite(fd)
        denom = np.maximum(np.abs(a[mask]) + np.abs(fd[mask]), 1e-6)
        if mask.any():
            worst = max(worst, float(np.max(np.abs(a[mask] - fd[mask]) / denom)))
    return worst


def live_logits(params):
    """The `logits` that `numnet.grad` hands a loss, with every layer of
    `params` live and pushing into a zeroed gradient buffer of its own."""
    grads = params.clone()
    grads.flat.fill(0.0)
    return lambda X: numnet._forward(X, params, grads, head=True)


def softmax(logits):
    """The value of the `softmax_rows` node on constant `logits`."""
    return numnet.softmax_rows(numnet.Tensor(logits)).data


def logistic_probe_predict(X_train, y_train, X_eval, n_classes,
                           steps=400, lr=0.5):
    """Full-batch multinomial logistic regression on standardized features."""
    mu = X_train.mean(axis=0)
    sd = X_train.std(axis=0) + 1e-8
    Xs = (X_train - mu) / sd
    Xe = (X_eval - mu) / sd
    W = np.zeros((Xs.shape[1], n_classes))
    b = np.zeros(n_classes)
    targets = np.eye(n_classes)[y_train]
    for _ in range(steps):
        probs = softmax(Xs @ W + b)
        g = (probs - targets) / len(Xs)
        W -= lr * (Xs.T @ g)
        b -= lr * g.sum(axis=0)
    return np.argmax(Xe @ W + b, axis=-1)
