"""Contact classifier network: layer kinds, architecture presets, forward/backward, I/O.

The default "2blocks" network is two convolution blocks (each: two same-
padded Conv1D layers, ReLU after each, dropout after the second, then a
halving max pool) followed by three fully connected layers sized 2048,
512 and 2^L. Ablation variants reuse the same layer vocabulary.

Each layer kind (Conv, Relu, Dropout, Pool, Flatten, Dense) is one class
holding its shape rule, parameter shapes, forward and backward passes and
descriptor keyword; the network functions below are plain loops over
`spec.layers`, so adding a layer kind means adding one class. Same padding
keeps the length only for an odd kernel, so even conv kernels are rejected,
as is a dropout rate outside [0, 1).

Weight files: magic "PCNW", version u16, a text descriptor of the layer
list, then per-tensor dims and float64 data, CRC32 trailer.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, fields
from typing import get_type_hints

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


class _Layer:
    """Base of the layer kinds: one class holds everything about one kind.

    A kind is a frozen dataclass whose fields follow `kind` in its descriptor
    line. Shapes are (C, T) before Flatten and (flat,) after it; the
    defaults below fit a shape-preserving layer without parameters. Each
    kind defines forward(p, x, mode, rng) -> (out, cache) and
    backward(p, dx, cache) -> (dx, grads), where p and grads are
    (weight, bias) pairs for a layer with parameters and None otherwise.
    Passes call their primitive through the layers module at call time, so
    a profiler that replaces a primitive there sees every call.
    """

    kind = ""

    def out_shape(self, shape):
        """Output shape for an input shape; raises ShapeMismatchError."""
        return shape

    def param_shapes(self):
        return ()

    def describe(self):
        return " ".join([self.kind, *(str(getattr(self, f.name)) for f in fields(self))])


@dataclass(frozen=True)
class Conv(_Layer):
    in_ch: int
    out_ch: int
    kernel: int = 3
    kind = "conv"

    def out_shape(self, shape):
        if len(shape) != 2 or shape[0] != self.in_ch:
            raise ShapeMismatchError(f"conv expects {self.in_ch} channels, has shape {shape}")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ShapeMismatchError(f"conv kernel {self.kernel} is not a positive odd number")
        return (self.out_ch, shape[1])

    def param_shapes(self):
        return (self.out_ch, self.in_ch, self.kernel), (self.out_ch,)

    def forward(self, p, x, mode, rng):
        return L.conv1d_forward(x, p[0], p[1])

    def backward(self, p, dx, cache):
        dx, dw, db = L.conv1d_backward(dx, cache)
        return dx, (dw, db)


@dataclass(frozen=True)
class Relu(_Layer):
    kind = "relu"

    def forward(self, p, x, mode, rng):
        return L.relu_forward(x)

    def backward(self, p, dx, cache):
        return L.relu_backward(dx, cache), None


@dataclass(frozen=True)
class Dropout(_Layer):
    p: float = 0.2
    kind = "dropout"

    def out_shape(self, shape):
        if not 0.0 <= self.p < 1.0:
            raise ShapeMismatchError(f"dropout rate {self.p} outside [0, 1)")
        return shape

    def forward(self, p, x, mode, rng):
        return L.dropout_forward(x, self.p, mode, rng)

    def backward(self, p, dx, cache):
        return L.dropout_backward(dx, cache), None


@dataclass(frozen=True)
class Pool(_Layer):
    kernel: int = 2
    kind = "pool"

    def out_shape(self, shape):
        if len(shape) != 2:
            raise ShapeMismatchError("pool after flatten")
        if self.kernel < 1 or shape[1] // self.kernel < 1:
            raise ShapeMismatchError(f"pool {self.kernel} on length {shape[1]}: pooled length reached zero")
        return (shape[0], shape[1] // self.kernel)

    def forward(self, p, x, mode, rng):
        return L.maxpool1d_forward(x, self.kernel)

    def backward(self, p, dx, cache):
        return L.maxpool1d_backward(dx, cache), None


@dataclass(frozen=True)
class Flatten(_Layer):
    kind = "flatten"

    def out_shape(self, shape):
        if len(shape) != 2:
            raise ShapeMismatchError("flatten after flatten")
        return (shape[0] * shape[1],)

    def forward(self, p, x, mode, rng):
        # channel-major order keeps the first Dense weight's meaning
        return x.transpose(0, 2, 1).reshape(x.shape[0], -1), x.shape

    def backward(self, p, dx, cache):
        n, t, c = cache
        return dx.reshape(n, c, t).transpose(0, 2, 1), None


@dataclass(frozen=True)
class Dense(_Layer):
    in_dim: int
    out_dim: int
    kind = "dense"

    def out_shape(self, shape):
        if len(shape) != 1:
            raise ShapeMismatchError("dense before flatten")
        if shape[0] != self.in_dim:
            raise ShapeMismatchError(f"dense expects {self.in_dim} inputs, has {shape[0]}")
        return (self.out_dim,)

    def param_shapes(self):
        return (self.out_dim, self.in_dim), (self.out_dim,)

    def forward(self, p, x, mode, rng):
        return L.dense_forward(x, p[0], p[1])

    def backward(self, p, dx, cache):
        dx, dw, db = L.dense_backward(dx, cache, p[0])
        return dx, (dw, db)


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
    spec_layers = []
    if name == "2blocks":
        for ch_in, ch_out in ((in_channels, 64), (64, 128)):
            spec_layers += _block(ch_in, ch_out, dropout)
    elif name == "1block":
        spec_layers += _block(in_channels, 64, dropout)
    elif name == "4blocks":
        chans = (64, 128, 256, 512)
        ch_in = in_channels
        for ch_out in chans:
            spec_layers += _block(ch_in, ch_out, dropout)
            ch_in = ch_out
    elif name == "convpool":
        spec_layers += [Conv(in_channels, 64), Relu(), Pool(2)]
        spec_layers += [Conv(64, 128), Relu(), Pool(2)]
    else:
        raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    shape = (in_channels, window)
    for layer in spec_layers:
        shape = layer.out_shape(shape)
    spec_layers += _head(shape[0] * shape[1], n_classes, dropout)
    spec = ArchitectureSpec(tuple(spec_layers), window, in_channels, n_classes, name)
    trace_shapes(spec)
    return spec


def trace_shapes(spec: ArchitectureSpec):
    """Per-stage shapes [(C, T) or (flat,)], validating layer compatibility."""
    shapes = [(spec.in_channels, spec.window)]
    for layer in spec.layers:
        if not isinstance(layer, _Layer):
            raise ShapeMismatchError(f"unknown layer {layer!r}")
        shapes.append(layer.out_shape(shapes[-1]))
    if shapes[-1] != (spec.n_classes,):
        raise ShapeMismatchError(f"final shape {shapes[-1]} != (n_classes,) = ({spec.n_classes},)")
    return shapes


def init_params(spec: ArchitectureSpec, rng) -> list:
    """Kaiming-uniform fan-in weights, zero biases; one entry per layer."""
    trace_shapes(spec)
    params = []
    for layer in spec.layers:
        shapes = layer.param_shapes()
        if not shapes:
            params.append(None)
            continue
        w_shape, b_shape = shapes
        bound = np.sqrt(6.0 / math.prod(w_shape[1:]))  # fan-in: every weight axis but the output
        params.append((rng.uniform(-bound, bound, size=w_shape), np.zeros(b_shape)))
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
    if mode == "train" and rng is None:
        rng = np.random.default_rng(0)
    for layer, p in zip(spec.layers, params):
        x, cache = layer.forward(p, x, mode, rng)
        if caches is not None:
            caches.append(cache)
    return x


def forward(params, spec, window, mode="eval", rng=None):
    """Logits for one window (2-D input) or a batch (3-D input).

    Eval mode is deterministic; train mode needs an rng for dropout.
    """
    x, single = _as_batch(window, spec)
    logits = _forward_cached(params, spec, x, mode, rng)
    return logits[0] if single else logits


def loss(logits, label) -> float:
    """Cross-entropy -log softmax(logits)[label], max-subtracted."""
    logits = np.asarray(logits, dtype=float)
    if not 0 <= int(label) < logits.shape[-1]:
        raise LabelOutOfRangeError(f"label {label} outside [0, {logits.shape[-1] - 1}]")
    value, _ = L.cross_entropy(logits[None, :], np.array([int(label)]))
    return float(value)


def loss_and_grads(params, spec, windows, labels, mode="train", rng=None):
    """Batched loss (mean reduction) and parameter gradients."""
    x, single = _as_batch(windows, spec)
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    if np.any(labels < 0) or np.any(labels >= spec.n_classes):
        raise LabelOutOfRangeError("label outside class range")
    caches = []
    logits = _forward_cached(params, spec, x, mode, rng, caches)
    value, dx = L.cross_entropy(logits, labels)
    grads = [None] * len(params)
    for i in range(len(spec.layers) - 1, -1, -1):
        dx, grads[i] = spec.layers[i].backward(params[i], dx, caches[i])
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
    lines += [f"layer={layer.describe()}" for layer in spec.layers]
    return "\n".join(lines)


# descriptor layer kind -> layer class
_KINDS = {cls.kind: cls for cls in (Conv, Relu, Dropout, Pool, Flatten, Dense)}


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
        kind, *values = value.split() or [""]
        if kind not in _KINDS:
            raise SchemaError(f"{path}: descriptor line {lineno}: unknown layer kind {kind!r}")
        cls = _KINDS[kind]
        hints = get_type_hints(cls)
        converters = [hints[f.name] for f in fields(cls)]
        if len(values) != len(converters):
            raise SchemaError(
                f"{path}: descriptor line {lineno}: layer {kind} needs "
                f"{len(converters)} fields, has {len(values)}"
            )
        try:
            spec_layers.append(cls(*(conv(v) for conv, v in zip(converters, values))))
        except ValueError:
            raise SchemaError(f"{path}: descriptor line {lineno}: bad {kind} fields {values}") from None
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
    try:
        trace_shapes(spec)
    except ShapeMismatchError as exc:
        raise ShapeMismatchError(f"{path}: {exc}") from None
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
    for i, layer in enumerate(spec.layers):
        p = []
        for shape in layer.param_shapes():
            arr = next(it, None)
            if arr is None or arr.shape != shape:
                found = "no tensor" if arr is None else f"shape {arr.shape}"
                raise SchemaError(f"{path}: layer {i} ({layer.kind}) needs shape {shape}, file has {found}")
            p.append(arr)
        params.append(tuple(p) or None)
    if next(it, None) is not None:
        raise SchemaError(f"{path}: {len(tensors)} tensors, more than the layers take")
    return params, spec
