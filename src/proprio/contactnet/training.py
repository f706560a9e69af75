"""Mini-batch training loop and batched inference for the contact classifier.

Adam, mean-reduced cross-entropy, per-window z-score normalization
applied on the fly. Deterministic given the config seed: initialization,
shuffling and dropout masks all draw from one seeded generator. Returns
the parameters scoring the best validation accuracy along with a
per-epoch log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..dataio import WindowSet, normalize_window
from ..formats import DataError, write_csv
from . import layers as L
from . import network as net


# Adam moment decay rates and denominator epsilon (Kingma & Ba 2015 defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    """Adam settings, seed and compute dtype of one training run.

    `dtype` is the dtype of the parameters, activations, gradients and Adam
    moments: float32 by default, float64 for runs that must match a float64
    reference. Saved weights are float64 either way.
    """

    batch_size: int = 30
    learning_rate: float = 1e-4
    epochs: int = 30
    seed: int = 0
    dtype: type = net.DEFAULT_DTYPE

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 < self.learning_rate < float("inf"):
            raise ValueError(f"learning rate must be positive and finite, got {self.learning_rate}")


# Elements per Adam chunk: a chunk of the parameter, its gradient, m, v and
# the buffer (5 x 256 KB in float64, half that in float32) stays in a
# core's L2 for all 13 passes.
_CHUNK = 32768


class _Adam:
    """In-place Adam, walked one cache-sized chunk at a time.

    Each chunk of a tensor goes through the whole update, thirteen in-place
    ufunc calls through one chunk-sized buffer, before the next chunk
    starts, so its operands are read from memory once per step rather than
    once per call. Every element gets the same operations in the same order
    as in a whole-array pass, so the result is bit-identical to one.
    Parameters, ``m`` and ``v`` are contiguous, so their 1-D reshapes are
    views and the chunks write through to them. ``m``, ``v`` and the buffer
    take the parameters' dtype, and the step's scalars are Python floats, so
    no pass promotes a float32 chunk to float64.
    """

    def __init__(self, params, config):
        self.cfg = config
        self.step_count = 0
        self.m = [None if p is None else (np.zeros_like(p[0]), np.zeros_like(p[1])) for p in params]
        self.v = [None if p is None else (np.zeros_like(p[0]), np.zeros_like(p[1])) for p in params]
        self.buf = np.empty(_CHUNK, net.params_dtype(params))

    def step(self, params, grads):
        self.step_count += 1
        b1c = 1.0 - ADAM_BETA1**self.step_count
        b2c = 1.0 - ADAM_BETA2**self.step_count
        scale = self.cfg.learning_rate / b1c
        sqrt_b2c = math.sqrt(b2c)
        for i, grad in enumerate(grads):
            if grad is None:
                continue
            for j in range(2):
                flat_p, flat_g = params[i][j].reshape(-1), grad[j].reshape(-1)
                flat_m, flat_v = self.m[i][j].reshape(-1), self.v[i][j].reshape(-1)
                for start in range(0, flat_p.size, _CHUNK):
                    s = slice(start, start + _CHUNK)
                    p, g, m, v = flat_p[s], flat_g[s], flat_m[s], flat_v[s]
                    buf = self.buf[: p.size]
                    m *= ADAM_BETA1
                    np.multiply(g, 1.0 - ADAM_BETA1, out=buf)
                    m += buf
                    v *= ADAM_BETA2
                    np.multiply(g, g, out=buf)
                    buf *= 1.0 - ADAM_BETA2
                    v += buf
                    np.sqrt(v, out=buf)
                    buf /= sqrt_b2c
                    buf += ADAM_EPS
                    np.divide(m, buf, out=buf)
                    buf *= scale
                    np.subtract(p, buf, out=p)
        return params


def _batches(n, batch_size, rng):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def predict_codes(params, spec, windows: WindowSet, batch=256) -> np.ndarray:
    """Predicted code of every window: gather, normalize and classify `batch` at a time.

    The network runs in the parameters' dtype; cast loaded float64 weights
    with `network.cast_params` first to infer in float32.
    """
    n = len(windows)
    codes = np.zeros(n, dtype=np.int64)
    for start in range(0, n, batch):
        idx = np.arange(start, min(start + batch, n))
        x = normalize_window(windows.batch(idx), net.params_dtype(params))
        codes[idx] = net.predict_batch(params, spec, x)
    return codes


def evaluate_accuracy(params, spec, windows: WindowSet, batch_size=256):
    """Fraction of windows whose predicted code matches the label."""
    if windows.labels is None:
        raise DataError("window set has no labels")
    correct = np.count_nonzero(predict_codes(params, spec, windows, batch_size) == windows.labels)
    return int(correct) / len(windows)


def train(train_windows: WindowSet, config: TrainConfig, spec, val_windows=None):
    """Optimize the network; returns (best params, per-epoch log rows).

    Log rows are dicts with epoch, train_loss, train_acc, val_acc. "Best"
    means highest validation accuracy (training accuracy when no validation
    set is supplied), ties resolved to the earliest epoch. A label code of
    spec.n_classes or more raises DataError, and so does an epoch that ends
    with a non-finite weight or loss: its mean loss, or its last batch's loss
    scored again on the weights after its step, since no batch loss sees the
    weights a run ends with. That score runs in float32, the dtype `infer`
    runs in, so weights too large for it fail a float64 run too.
    """
    if len(train_windows) == 0:
        raise DataError("empty training set")
    if train_windows.labels is None:
        raise DataError("training windows carry no labels")
    top = int(train_windows.labels.max())
    if top >= spec.n_classes:
        raise DataError(f"largest label code {top} needs at least {top + 1} classes; the network has {spec.n_classes}")
    rng = np.random.default_rng(config.seed)
    params = net.init_params(spec, rng, config.dtype)
    adam = _Adam(params, config)

    best_params = [None if p is None else (p[0].copy(), p[1].copy()) for p in params]
    best_score = -1.0
    log = []
    n = len(train_windows)
    for epoch in range(1, config.epochs + 1):
        total_loss = 0.0
        total_correct = 0
        for idx in _batches(n, config.batch_size, rng):
            x = normalize_window(train_windows.batch(idx), config.dtype)
            y = train_windows.labels[idx]
            value, grads, logits = net.loss_and_grads(params, spec, x, y, "train", rng)
            adam.step(params, grads)
            del grads  # free them before the next backward allocates its own
            total_loss += value * len(idx)
            total_correct += int(np.sum(np.argmax(logits, axis=1) == y))
        train_loss = total_loss / n
        stepped_loss, _ = L.cross_entropy(net.forward(net.cast_params(params), spec, x), y)
        loss = train_loss if not math.isfinite(train_loss) else float(stepped_loss)
        if not math.isfinite(loss) or not all(np.isfinite(w).all() for p in params if p for w in p):
            raise DataError(f"training diverged in epoch {epoch}: loss {loss} at learning rate {config.learning_rate}")
        train_acc = total_correct / n
        if val_windows is not None and len(val_windows):
            val_acc = evaluate_accuracy(params, spec, val_windows)
        else:
            val_acc = train_acc
        log.append(
            {"epoch": epoch, "train_loss": train_loss, "train_acc": train_acc, "val_acc": val_acc}
        )
        if val_acc > best_score:
            best_score = val_acc
            best_params = [None if p is None else (p[0].copy(), p[1].copy()) for p in params]
    return best_params, log


def write_training_log(path, log):
    columns = ["epoch", "train_loss", "train_acc", "val_acc"]
    write_csv(path, columns, [[row[c] for c in columns] for row in log])
