"""Mini-batch training loop for the contact classifier.

Adam by default (plain SGD selectable), mean-reduced cross-entropy,
per-window z-score normalization applied on the fly. Deterministic given
the config seed: initialization, shuffling and dropout masks all draw from
one seeded generator. Returns the parameters scoring the best validation
accuracy along with a per-epoch log.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataio import WindowSet, normalize_window
from ..formats import write_csv
from . import network as net


class EmptyDatasetError(ValueError):
    pass


@dataclass
class TrainConfig:
    batch_size: int = 30
    learning_rate: float = 1e-4
    epochs: int = 30
    seed: int = 0
    optimizer: str = "adam"  # "adam" | "sgd"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.learning_rate <= 0.0:
            raise ValueError("learning rate must be positive")
        if self.optimizer not in _OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}; expected one of {sorted(_OPTIMIZERS)}")


# Elements per Adam chunk: a chunk of the parameter, its gradient, m, v and
# the buffer (5 x 256 KB in float64) stays in a core's L2 for all 13 passes.
_CHUNK = 32768


class _Adam:
    """In-place Adam, walked one cache-sized chunk at a time.

    Each chunk of a tensor goes through the whole update, thirteen in-place
    ufunc calls through one chunk-sized buffer, before the next chunk
    starts, so its operands are read from memory once per step rather than
    once per call. Every element gets the same operations in the same order
    as in a whole-array pass, so the result is bit-identical to one.
    Parameters, ``m`` and ``v`` are contiguous, so their 1-D reshapes are
    views and the chunks write through to them.
    """

    def __init__(self, params, config):
        self.cfg = config
        self.step_count = 0
        self.m = [None if p is None else (np.zeros_like(p[0]), np.zeros_like(p[1])) for p in params]
        self.v = [None if p is None else (np.zeros_like(p[0]), np.zeros_like(p[1])) for p in params]
        self.buf = np.empty(_CHUNK)

    def step(self, params, grads):
        cfg = self.cfg
        self.step_count += 1
        b1c = 1.0 - cfg.adam_beta1**self.step_count
        b2c = 1.0 - cfg.adam_beta2**self.step_count
        scale = cfg.learning_rate / b1c
        sqrt_b2c = np.sqrt(b2c)
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
                    m *= cfg.adam_beta1
                    np.multiply(g, 1.0 - cfg.adam_beta1, out=buf)
                    m += buf
                    v *= cfg.adam_beta2
                    np.multiply(g, g, out=buf)
                    buf *= 1.0 - cfg.adam_beta2
                    v += buf
                    np.sqrt(v, out=buf)
                    buf /= sqrt_b2c
                    buf += cfg.adam_eps
                    np.divide(m, buf, out=buf)
                    buf *= scale
                    np.subtract(p, buf, out=p)
        return params


class _Sgd:
    def __init__(self, params, config):
        self.cfg = config

    def step(self, params, grads):
        lr = self.cfg.learning_rate
        for i, grad in enumerate(grads):
            if grad is None:
                continue
            params[i] = (params[i][0] - lr * grad[0], params[i][1] - lr * grad[1])
        return params


_OPTIMIZERS = {"adam": _Adam, "sgd": _Sgd}


def _batches(n, batch_size, rng):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def evaluate_accuracy(params, spec, windows: WindowSet, batch_size=256):
    """Fraction of windows whose predicted code matches the label."""
    if windows.labels is None:
        raise EmptyDatasetError("window set has no labels")
    n = len(windows)
    correct = 0
    for start in range(0, n, batch_size):
        idx = np.arange(start, min(start + batch_size, n))
        x = normalize_window(windows.batch(idx))
        pred = net.predict_batch(params, spec, x)
        correct += int(np.sum(pred == windows.labels[idx]))
    return correct / n


def train(train_windows: WindowSet, config: TrainConfig, spec, val_windows=None):
    """Optimize the network; returns (best params, per-epoch log rows).

    Log rows are dicts with epoch, train_loss, train_acc, val_acc. "Best"
    means highest validation accuracy (training accuracy when no validation
    set is supplied), ties resolved to the earliest epoch.
    """
    if len(train_windows) == 0:
        raise EmptyDatasetError("empty training set")
    if train_windows.labels is None:
        raise EmptyDatasetError("training windows carry no labels")
    rng = np.random.default_rng(config.seed)
    params = net.init_params(spec, rng)
    opt = _OPTIMIZERS[config.optimizer](params, config)

    best_params = [None if p is None else (p[0].copy(), p[1].copy()) for p in params]
    best_score = -1.0
    log = []
    n = len(train_windows)
    for epoch in range(1, config.epochs + 1):
        total_loss = 0.0
        total_correct = 0
        for idx in _batches(n, config.batch_size, rng):
            x = normalize_window(train_windows.batch(idx))
            y = train_windows.labels[idx]
            value, grads, logits = net.loss_and_grads(params, spec, x, y, "train", rng)
            params = opt.step(params, grads)
            del grads  # free them before the next backward allocates its own
            total_loss += value * len(idx)
            total_correct += int(np.sum(np.argmax(logits, axis=1) == y))
        train_loss = total_loss / n
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
