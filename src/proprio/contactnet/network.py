"""Contact classifier network: architecture presets, forward/backward, I/O.

The default "2blocks" network is two convolution blocks (each: two same-
padded Conv1D layers, ReLU after each, dropout after the second, then a
halving max pool) followed by three fully connected layers sized 2048,
512 and 2^L. Ablation variants reuse the same layer vocabulary.

Weight files: magic "PCNW", version u16, a text descriptor of the layer
list, then per-tensor dims and float64 data, CRC32 trailer.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
import numpy as np

from . import layers as L

WEIGHTS_MAGIC = b"PCNW"
WEIGHTS_VERSION = 1


class ShapeMismatchError(ValueError):
    pass


class LabelOutOfRangeError(ValueError):
    pass


class ChecksumFailureError(ValueError):
    pass


class VersionMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class Conv:
    in_ch: int
    out_ch: int
    kernel: int = 3


@dataclass(frozen=True)
class Relu:
    pass


@dataclass(frozen=True)
class Dropout:
    p: float = 0.2


@dataclass(frozen=True)
class Pool:
    kernel: int = 2


@dataclass(frozen=True)
class Flatten:
    pass


@dataclass(frozen=True)
class Dense:
    in_dim: int
    out_dim: int


@dataclass(frozen=True)
class ArchitectureSpec:
    layers: tuple
    window: int
    in_channels: int
    n_classes: int
    name: str = "custom"


PRESET_NAMES = ("2blocks", "1block", "4blocks", "convpool")


def _block(in_ch, out_ch, dropout):
    return [
        Conv(in_ch, out_ch),
        Relu(),
        Conv(out_ch, out_ch),
        Relu(),
        Dropout(dropout),
        Pool(2),
    ]


def _head(flat_dim, n_classes, dropout):
    return [
        Flatten(),
        Dense(flat_dim, 2048),
        Relu(),
        Dropout(dropout),
        Dense(2048, 512),
        Relu(),
        Dropout(dropout),
        Dense(512, n_classes),
    ]


def preset(name, window=150, in_channels=54, n_classes=16, dropout=0.2) -> ArchitectureSpec:
    """Build a named architecture for the given window length."""
    t = window
    spec_layers = []
    if name == "2blocks":
        for ch_in, ch_out in ((in_channels, 64), (64, 128)):
            spec_layers += _block(ch_in, ch_out, dropout)
            t //= 2
        flat = 128 * t
    elif name == "1block":
        spec_layers += _block(in_channels, 64, dropout)
        t //= 2
        flat = 64 * t
    elif name == "4blocks":
        chans = (64, 128, 256, 512)
        ch_in = in_channels
        for ch_out in chans:
            spec_layers += _block(ch_in, ch_out, dropout)
            ch_in = ch_out
            t //= 2
        flat = 512 * t
    elif name == "convpool":
        spec_layers += [Conv(in_channels, 64), Relu(), Pool(2)]
        t //= 2
        spec_layers += [Conv(64, 128), Relu(), Pool(2)]
        t //= 2
        flat = 128 * t
    else:
        raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    if t < 1:
        raise ShapeMismatchError(f"window {window} too short for preset {name}")
    spec_layers += _head(flat, n_classes, dropout)
    return ArchitectureSpec(tuple(spec_layers), window, in_channels, n_classes, name)


def trace_shapes(spec: ArchitectureSpec):
    """Per-stage shapes [(C, T) or (flat,)], validating layer compatibility."""
    c, t = spec.in_channels, spec.window
    flat = None
    shapes = [(c, t)]
    for layer in spec.layers:
        if isinstance(layer, Conv):
            if flat is not None or layer.in_ch != c:
                raise ShapeMismatchError(f"conv expects {layer.in_ch} channels, has {c}")
            c = layer.out_ch
        elif isinstance(layer, Pool):
            if flat is not None:
                raise ShapeMismatchError("pool after flatten")
            t //= layer.kernel
            if t < 1:
                raise ShapeMismatchError("pooled length reached zero")
        elif isinstance(layer, Flatten):
            flat = c * t
        elif isinstance(layer, Dense):
            if flat is None:
                raise ShapeMismatchError("dense before flatten")
            if layer.in_dim != flat:
                raise ShapeMismatchError(
                    f"dense expects {layer.in_dim} inputs, has {flat}"
                )
            flat = layer.out_dim
        elif not isinstance(layer, (Relu, Dropout)):
            raise ShapeMismatchError(f"unknown layer {layer!r}")
        shapes.append((c, t) if flat is None else (flat,))
    if flat != spec.n_classes:
        raise ShapeMismatchError(f"final width {flat} != n_classes {spec.n_classes}")
    return shapes


def init_params(spec: ArchitectureSpec, rng) -> list:
    """Kaiming-uniform fan-in weights, zero biases; one entry per layer."""
    trace_shapes(spec)
    params = []
    for layer in spec.layers:
        if isinstance(layer, Conv):
            fan_in = layer.in_ch * layer.kernel
            bound = np.sqrt(6.0 / fan_in)
            w = rng.uniform(-bound, bound, size=(layer.out_ch, layer.in_ch, layer.kernel))
            params.append((w, np.zeros(layer.out_ch)))
        elif isinstance(layer, Dense):
            bound = np.sqrt(6.0 / layer.in_dim)
            w = rng.uniform(-bound, bound, size=(layer.out_dim, layer.in_dim))
            params.append((w, np.zeros(layer.out_dim)))
        else:
            params.append(None)
    return params


def _as_batch(window, spec):
    """(w, C) or (N, w, C) window array -> time-major (N, T, C) network input.

    Windows are already time-major, so no copy is made for float64 input.
    """
    x = np.asarray(window, dtype=float)
    single = x.ndim == 2
    if single:
        x = x[None]
    if x.ndim != 3 or x.shape[1] != spec.window or x.shape[2] != spec.in_channels:
        raise ShapeMismatchError(
            f"window shape {np.asarray(window).shape} incompatible with "
            f"(w={spec.window}, channels={spec.in_channels})"
        )
    return x, single


def _forward_cached(params, spec, x, mode, rng, caches=None):
    """Logits for a (N, T, C) batch.

    Each layer's cache is appended to `caches` when a list is given;
    inference passes none, so each cache is freed once its layer is done.
    """
    for layer, p in zip(spec.layers, params):
        if isinstance(layer, Conv):
            x, cache = L.conv1d_forward(x, p[0], p[1])
        elif isinstance(layer, Relu):
            x, cache = L.relu_forward(x)
        elif isinstance(layer, Dropout):
            x, cache = L.dropout_forward(x, layer.p, mode, rng)
        elif isinstance(layer, Pool):
            x, cache = L.maxpool1d_forward(x, layer.kernel)
        elif isinstance(layer, Flatten):
            # channel-major order keeps the first Dense weight's meaning
            cache = x.shape
            x = x.transpose(0, 2, 1).reshape(x.shape[0], -1)
        else:  # Dense
            x, cache = L.dense_forward(x, p[0], p[1])
        if caches is not None:
            caches.append(cache)
    return x


def forward(params, spec, window, mode="eval", rng=None):
    """Logits for one window (2-D input) or a batch (3-D input).

    Eval mode is deterministic; train mode needs an rng for dropout.
    """
    if mode == "train" and rng is None:
        rng = np.random.default_rng(0)
    x, single = _as_batch(window, spec)
    logits = _forward_cached(params, spec, x, mode, rng)
    return logits[0] if single else logits


def _backward_from_logits(params, spec, caches, dlogits):
    grads = [None] * len(params)
    dx = dlogits
    for i in range(len(spec.layers) - 1, -1, -1):
        layer, cache = spec.layers[i], caches[i]
        if isinstance(layer, Conv):
            dx, dw, db = L.conv1d_backward(dx, cache)
            grads[i] = (dw, db)
        elif isinstance(layer, Relu):
            dx = L.relu_backward(dx, cache)
        elif isinstance(layer, Dropout):
            dx = L.dropout_backward(dx, cache)
        elif isinstance(layer, Pool):
            dx = L.maxpool1d_backward(dx, cache)
        elif isinstance(layer, Flatten):
            n, t, c = cache
            dx = dx.reshape(n, c, t).transpose(0, 2, 1)
        else:  # Dense
            dx, dw, db = L.dense_backward(dx, cache, params[i][0])
            grads[i] = (dw, db)
    return grads


def loss(logits, label) -> float:
    """Cross-entropy -log softmax(logits)[label], max-subtracted."""
    logits = np.asarray(logits, dtype=float)
    if not 0 <= int(label) < logits.shape[-1]:
        raise LabelOutOfRangeError(f"label {label} outside [0, {logits.shape[-1] - 1}]")
    value, _ = L.cross_entropy(logits[None, :], np.array([int(label)]))
    return float(value)


def loss_and_grads(params, spec, windows, labels, mode="train", rng=None):
    """Batched loss (mean reduction) and parameter gradients."""
    if mode == "train" and rng is None:
        rng = np.random.default_rng(0)
    x, single = _as_batch(windows, spec)
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    if np.any(labels < 0) or np.any(labels >= spec.n_classes):
        raise LabelOutOfRangeError("label outside class range")
    caches = []
    logits = _forward_cached(params, spec, x, mode, rng, caches)
    value, dlogits = L.cross_entropy(logits, labels)
    grads = _backward_from_logits(params, spec, caches, dlogits)
    return float(value), grads, logits


def backward(params, spec, window, label, mode="train", rng=None):
    """Exact gradients of the single-window loss wrt every parameter."""
    _, grads, _ = loss_and_grads(params, spec, window, [int(label)], mode, rng)
    return grads


def predict(params, spec, window):
    """(code, probabilities) for one normalized window; ties -> lower class."""
    logits = forward(params, spec, window, mode="eval")
    logp = L.log_softmax(logits[None, :])[0]
    probs = np.exp(logp)
    return int(np.argmax(logits)), probs


def predict_batch(params, spec, windows):
    logits = forward(params, spec, windows, mode="eval")
    return np.argmax(logits, axis=1)


# ---------------------------------------------------------------------------
# serialization


def _descriptor(spec: ArchitectureSpec) -> str:
    lines = [
        f"name={spec.name}",
        f"window={spec.window}",
        f"in_channels={spec.in_channels}",
        f"n_classes={spec.n_classes}",
    ]
    for layer in spec.layers:
        if isinstance(layer, Conv):
            lines.append(f"layer=conv {layer.in_ch} {layer.out_ch} {layer.kernel}")
        elif isinstance(layer, Relu):
            lines.append("layer=relu")
        elif isinstance(layer, Dropout):
            lines.append(f"layer=dropout {layer.p!r}")
        elif isinstance(layer, Pool):
            lines.append(f"layer=pool {layer.kernel}")
        elif isinstance(layer, Flatten):
            lines.append("layer=flatten")
        else:
            lines.append(f"layer=dense {layer.in_dim} {layer.out_dim}")
    return "\n".join(lines)


# descriptor layer kind -> (layer class, converter of each field)
_LAYER_FIELDS = {
    "conv": (Conv, (int, int, int)),
    "relu": (Relu, ()),
    "dropout": (Dropout, (float,)),
    "pool": (Pool, (int,)),
    "flatten": (Flatten, ()),
    "dense": (Dense, (int, int)),
}


class SchemaError(ValueError):
    pass


def _parse_descriptor(text: str, path) -> ArchitectureSpec:
    meta = {}
    spec_layers = []
    for lineno, line in enumerate(text.splitlines(), 1):
        key, _, value = line.partition("=")
        if key != "layer":
            meta[key] = value
            continue
        kind, *fields = value.split() or [""]
        if kind not in _LAYER_FIELDS:
            raise SchemaError(f"{path}: descriptor line {lineno}: unknown layer kind {kind!r}")
        cls, converters = _LAYER_FIELDS[kind]
        if len(fields) != len(converters):
            raise SchemaError(
                f"{path}: descriptor line {lineno}: layer {kind} needs "
                f"{len(converters)} fields, has {len(fields)}"
            )
        try:
            spec_layers.append(cls(*(conv(f) for conv, f in zip(converters, fields))))
        except ValueError:
            raise SchemaError(f"{path}: descriptor line {lineno}: bad {kind} fields {fields}") from None
    dims = []
    for key in ("window", "in_channels", "n_classes"):
        if key not in meta:
            raise SchemaError(f"{path}: descriptor lacks field {key!r}")
        try:
            dims.append(int(meta[key]))
        except ValueError:
            raise SchemaError(f"{path}: descriptor field {key}={meta[key]!r} is not an integer") from None
    return ArchitectureSpec(tuple(spec_layers), *dims, meta.get("name", "custom"))


def save_params(params, spec: ArchitectureSpec, path):
    """Bit-exact weight file with a CRC32 trailer."""
    desc = _descriptor(spec).encode()
    tensors = [np.ascontiguousarray(t, dtype="<f8") for p in params if p is not None for t in p]
    chunks = [struct.pack("<HI", WEIGHTS_VERSION, len(desc)), desc, struct.pack("<I", len(tensors))]
    for arr in tensors:
        chunks += [struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape), arr]
    crc = 0
    with open(path, "wb") as f:
        f.write(WEIGHTS_MAGIC)
        for chunk in chunks:
            f.write(chunk)
            crc = zlib.crc32(chunk, crc)
        f.write(struct.pack("<I", crc))


def load_params(path):
    """Inverse of save_params; returns (params, spec)."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != WEIGHTS_MAGIC:
        raise SchemaError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 4 + 6 + 4:
        raise ChecksumFailureError(f"{path}: truncated file")
    body, (crc,) = blob[4:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) != crc:
        raise ChecksumFailureError(f"{path}: CRC mismatch")
    version, desc_len = struct.unpack("<HI", body[:6])
    if version != WEIGHTS_VERSION:
        raise VersionMismatchError(f"{path}: version {version}")
    off = 6
    spec = _parse_descriptor(body[off : off + desc_len].decode(), path)
    off += desc_len
    (n_tensors,) = struct.unpack("<I", body[off : off + 4])
    off += 4
    tensors = []
    for _ in range(n_tensors):
        ndim = body[off]
        off += 1
        shape = struct.unpack(f"<{ndim}I", body[off : off + 4 * ndim])
        off += 4 * ndim
        size = int(np.prod(shape)) * 8
        tensors.append(np.frombuffer(body[off : off + size], dtype="<f8").reshape(shape).astype(float))
        off += size
    params = []
    it = iter(tensors)
    for layer in spec.layers:
        if isinstance(layer, (Conv, Dense)):
            params.append((next(it), next(it)))
        else:
            params.append(None)
    trace_shapes(spec)
    return params, spec
