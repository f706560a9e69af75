"""Numpy layer primitives with exact backward passes.

Data layout is time-major (N, T, C): batch, time, channels, the layout the
windows arrive in. Convolutions slide along the time axis with stride 1
and zero same-padding, lowered to one GEMM: each tap's shifted copy of
the input is written straight into its columns of one im2col buffer, and
only the padding rows are zeroed, so no padded copy of the input is made.
Pooling floor-divides the length. Weights keep the (O, C, k) layout of
the weight files.
Every forward returns (output, cache) and the matching backward consumes
(grad_output, cache). Outputs, gradients and masks keep the dtype of the
activations they are computed from.
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
    # column i*C + c of row (n, t) holds xpad[n, t + i, c] = x[n, t + i - pad, c]
    cols = np.empty((n, t, k, c), x.dtype)
    for i in range(k):
        s = i - pad
        lo, hi = (min(max(r, 0), t) for r in (-s, t - s))  # rows [lo, hi) read x[lo + s : hi + s]
        cols[:, :lo, i] = 0.0
        cols[:, hi:, i] = 0.0
        cols[:, lo:hi, i] = x[:, lo + s : hi + s]
    cols = cols.reshape(n * t, k * c)
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
    dxp = np.zeros((n, t + 2 * pad, c), dout.dtype)
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
    draws the same masks whatever the activation layout. The mask is drawn
    in float64 and cast to the activations' dtype, so a seeded run draws the
    same masks whatever the compute dtype.
    """
    if mode != "train" or p <= 0.0:
        return x, None
    if x.ndim == 3:
        n, t, c = x.shape
        draw = rng.random((n, c, t)).transpose(0, 2, 1)
    else:
        draw = rng.random(x.shape)
    mask = ((draw >= p) / (1.0 - p)).astype(x.dtype, copy=False)
    return x * mask, mask


def dropout_backward(dout, mask):
    return dout if mask is None else dout * mask


def maxpool1d_forward(x, k):
    """Non-overlapping max pooling along T (stride == kernel), floor semantics."""
    end = x.shape[1] // k * k
    out = x[:, 0:end:k].copy()
    for i in range(1, k):
        np.maximum(out, x[:, i:end:k], out=out)
    return out, (x, k)


def maxpool1d_backward(dout, cache):
    """Route each gradient to the first maximum of its pooling window, or to its
    first NaN: the element that argmax picks."""
    x, k = cache
    n, t, c = x.shape
    end = t // k * k
    w = x[:, :end].reshape(n, t // k, k, c)
    routed = np.empty(w.shape, bool)
    routed[:, :, 0] = True
    best = w[:, :, 0]
    for i in range(1, k):
        # element i takes the window when the winner so far is a number and not >= it
        take = ~(best >= w[:, :, i])
        take &= ~np.isnan(best)
        routed[:, :, :i] &= ~take[:, :, None]
        routed[:, :, i] = take
        if i < k - 1:
            best = np.where(take, w[:, :, i], best)
    dx = np.zeros(x.shape, x.dtype)
    np.multiply(dout[:, :, None], routed, out=dx[:, :end].reshape(w.shape))
    return dx


def dense_forward(x, weight, bias):
    """x: (N, D_in), weight: (D_out, D_in)."""
    out = x @ weight.T
    out += bias
    return out, x


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
