"""Numpy layer primitives with exact backward passes.

Data layout is time-major (N, T, C): batch, time, channels, the layout the
windows arrive in. Convolutions slide along the time axis with stride 1
and zero same-padding, lowered to im2col plus one GEMM; pooling floor-
divides the length. Weights keep the (O, C, k) layout of the weight files.
Every forward returns (output, cache) and the matching backward consumes
(grad_output, cache).
"""

from __future__ import annotations

import numpy as np


def conv1d_forward(x, weight, bias):
    """Same-padded stride-1 correlation. x: (N, T, C), weight: (O, C, k), bias: (O,).

    out[n, t, o] = bias[o] + sum_{c,i} weight[o, c, i] * xpad[n, t + i, c].
    """
    n, t, c = x.shape
    o, _, k = weight.shape
    pad = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
    # column i*C + c of row (n, t) holds xpad[n, t + i, c]
    cols = np.concatenate([xp[:, i : i + t] for i in range(k)], axis=2).reshape(n * t, k * c)
    wcols = weight.transpose(2, 1, 0).reshape(k * c, o)
    out = cols @ wcols
    out += bias
    return out.reshape(n, t, o), (cols, wcols, weight, pad, t)


def conv1d_backward(dout, cache):
    cols, wcols, weight, pad, t = cache
    o, c, k = weight.shape
    n = dout.shape[0]
    d2 = dout.reshape(n * t, o)
    db = d2.sum(axis=0)
    dw = np.ascontiguousarray((cols.T @ d2).reshape(k, c, o).transpose(2, 1, 0))
    dcols = (d2 @ wcols.T).reshape(n, t, k, c)
    dxp = np.zeros((n, t + 2 * pad, c))
    for i in range(k):
        dxp[:, i : i + t] += dcols[:, :, i]
    return dxp[:, pad : pad + t], dw, db


def relu_forward(x):
    out = np.maximum(x, 0.0)
    return out, out


def relu_backward(dout, out):
    return dout * (out > 0.0)


def dropout_forward(x, p, mode, rng):
    """Inverted dropout: train-mode expectation equals the eval activation.

    A (N, T, C) mask is drawn in (N, C, T) element order, so a seeded run
    draws the same masks whatever the activation layout.
    """
    if mode != "train" or p <= 0.0:
        return x, None
    if x.ndim == 3:
        n, t, c = x.shape
        draw = rng.random((n, c, t)).transpose(0, 2, 1)
    else:
        draw = rng.random(x.shape)
    mask = (draw >= p) / (1.0 - p)
    return x * mask, mask


def dropout_backward(dout, mask):
    return dout if mask is None else dout * mask


def maxpool1d_forward(x, k):
    """Non-overlapping max pooling along T (stride == kernel), floor semantics."""
    n, t, c = x.shape
    t_out = t // k
    out = x[:, : t_out * k].reshape(n, t_out, k, c).max(axis=2)
    return out, (x, k)


def maxpool1d_backward(dout, cache):
    """Route each gradient to the first maximum of its pooling window."""
    x, k = cache
    n, t, c = x.shape
    t_out = t // k
    arg = x[:, : t_out * k].reshape(n, t_out, k, c).argmax(axis=2)  # ties -> first
    dx = np.zeros(x.shape)
    for i in range(k):
        dx[:, i : t_out * k : k] = dout * (arg == i)
    return dx


def dense_forward(x, weight, bias):
    """x: (N, D_in), weight: (D_out, D_in)."""
    return x @ weight.T + bias, x


def dense_backward(dout, x, weight):
    return dout @ weight, dout.T @ x, dout.sum(axis=0)


def log_softmax(logits):
    """Row-wise log-softmax with max subtraction."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def cross_entropy(logits, labels):
    """Mean negative log-likelihood plus the gradient wrt logits."""
    n = logits.shape[0]
    logp = log_softmax(logits)
    value = -logp[np.arange(n), labels].mean()
    grad = np.exp(logp)
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return value, grad
