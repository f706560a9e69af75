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

The network computes in the dtype of its parameters: every input batch is
cast once to it, and every activation, gradient and Adam moment
follows it. `init_params` makes float32 parameters by default
(`DEFAULT_DTYPE`); float64 is kept for gradient checks and pinned logs.

Inference runs the per-window trunk, every layer up to and including
Flatten, on blocks of `TRUNK_BLOCK` windows, and the Dense head once on
the stacked rows, which keeps each conv's im2col matrix small. The result
is exact, bit for bit: in eval mode every row of every layer depends only
on its own window, and each block gives the same values as one pass. The
head stays whole because each block would stream the first Dense weight
again. Training keeps every cache and draws dropout masks over the whole
batch, so it is never blocked.

Weight files are framed `.pcnw` files (see `formats`) whose payload is the
descriptor length u32, the UTF-8 text descriptor of the layer list, the
tensor count u32, then per tensor its ndim u8, dims u32 and float64 data.
Float32 parameters upcast to float64 exactly on save; `load_params`
returns float64, and `cast_params` converts them for inference.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields
from typing import get_type_hints

import numpy as np

from ..formats import SchemaMismatchError, read_framed, write_framed
from ..formats import ChecksumFailureError, VersionMismatchError  # noqa: F401 (re-exported)
from . import layers as L

WEIGHTS_MAGIC = b"PCNW"
WEIGHTS_VERSION = 1

# compute dtype of new parameters: numpy has no float16 BLAS, and float32
# halves the memory traffic of every GEMM and Adam pass against float64
DEFAULT_DTYPE = np.float32

# Windows per block of the blocked eval trunk. For "2blocks" at window 150
# a block's largest im2col matrix is 9,600 x 192 float32 (7.4 MB), where a
# 256-window batch makes one of 29.5 MB that goes out to memory and back.
# On a 2-core Xeon a 256-window batch took 105-115 ms in blocks of 16 to
# 128 windows and 140 ms in one pass.
TRUNK_BLOCK = 64


class ShapeMismatchError(ValueError):
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


def _block(in_ch, out_ch, dropout):
    return [Conv(in_ch, out_ch), Relu(), Conv(out_ch, out_ch), Relu(), Dropout(dropout), Pool(2)]


def _conv_pool(in_ch, out_ch, dropout):
    return [Conv(in_ch, out_ch), Relu(), Pool(2)]


# preset name -> (stage builder, output channels of each conv stage)
_PRESETS = {
    "2blocks": (_block, (64, 128)),
    "1block": (_block, (64,)),
    "4blocks": (_block, (64, 128, 256, 512)),
    "convpool": (_conv_pool, (64, 128)),
}
PRESET_NAMES = tuple(_PRESETS)


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


def preset(name="2blocks", window=150, in_channels=54, n_classes=16, dropout=0.2) -> ArchitectureSpec:
    """Build a named architecture for the given window length."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    stage, widths = _PRESETS[name]
    spec_layers = []
    for ch_in, ch_out in zip((in_channels, *widths), widths):
        spec_layers += stage(ch_in, ch_out, dropout)
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


def init_params(spec: ArchitectureSpec, rng, dtype=DEFAULT_DTYPE) -> list:
    """Kaiming-uniform fan-in weights, zero biases; one entry per layer.

    The weights are drawn in float64 and then cast, so every dtype consumes
    the same random numbers.
    """
    trace_shapes(spec)
    params = []
    for layer in spec.layers:
        shapes = layer.param_shapes()
        if not shapes:
            params.append(None)
            continue
        w_shape, b_shape = shapes
        bound = np.sqrt(6.0 / math.prod(w_shape[1:]))  # fan-in: every weight axis but the output
        weight = rng.uniform(-bound, bound, size=w_shape).astype(dtype, copy=False)
        params.append((weight, np.zeros(b_shape, dtype)))
    return params


def cast_params(params, dtype=DEFAULT_DTYPE) -> list:
    """The parameters in `dtype` (the default compute dtype unless given); no copy of a tensor already in it."""
    return [None if p is None else tuple(t.astype(dtype, copy=False) for t in p) for p in params]


def params_dtype(params):
    """Compute dtype of a parameter list (float64 when no layer has parameters)."""
    return next((p[0].dtype for p in params if p is not None), np.dtype(np.float64))


def _as_batch(window, spec, dtype):
    """(w, C) or (N, w, C) window array -> time-major (N, T, C) network input.

    The batch is cast once to the compute dtype, so every GEMM sees one
    dtype; windows are already time-major, so input in that dtype is not copied.
    """
    x = np.asarray(window, dtype=dtype)
    single = x.ndim == 2
    if single:
        x = x[None]
    if x.ndim != 3 or x.shape[1] != spec.window or x.shape[2] != spec.in_channels:
        raise ShapeMismatchError(
            f"window shape {np.asarray(window).shape} incompatible with "
            f"(w={spec.window}, channels={spec.in_channels})"
        )
    return x, single


def _run_layers(layers, x, mode, rng, caches=None):
    for layer, p in layers:
        x, cache = layer.forward(p, x, mode, rng)
        if caches is not None:
            caches.append(cache)
    return x


def _forward_cached(params, spec, x, mode, rng, caches=None):
    """Logits for a (N, T, C) batch.

    Each layer's cache is appended to `caches` when a list is given;
    inference passes none, so each cache is freed once its layer is done,
    and outside train mode the trunk, the layers up to the first 1-D
    output, runs TRUNK_BLOCK windows at a time.
    """
    if mode == "train" and rng is None:
        rng = np.random.default_rng(0)
    layers = list(zip(spec.layers, params))
    if mode != "train" and caches is None and x.shape[0] > TRUNK_BLOCK:
        cut = next(i for i, shape in enumerate(trace_shapes(spec)) if len(shape) == 1)
        trunk, layers = layers[:cut], layers[cut:]
        blocks = range(0, x.shape[0], TRUNK_BLOCK)
        x = np.concatenate([_run_layers(trunk, x[s : s + TRUNK_BLOCK], mode, rng) for s in blocks])
    return _run_layers(layers, x, mode, rng, caches)


def forward(params, spec, window, mode="eval", rng=None):
    """Logits for one window (2-D input) or a batch (3-D input).

    Eval mode is deterministic; train mode needs an rng for dropout.
    """
    x, single = _as_batch(window, spec, params_dtype(params))
    logits = _forward_cached(params, spec, x, mode, rng)
    return logits[0] if single else logits


def loss(logits, label) -> float:
    """Cross-entropy -log softmax(logits)[label], max-subtracted."""
    logits = np.asarray(logits, dtype=float)
    if not 0 <= int(label) < logits.shape[-1]:
        raise ValueError(f"label {label} outside [0, {logits.shape[-1] - 1}]")
    value, _ = L.cross_entropy(logits[None, :], np.array([int(label)]))
    return float(value)


def loss_and_grads(params, spec, windows, labels, mode="train", rng=None):
    """Batched loss (mean reduction) and parameter gradients."""
    x, single = _as_batch(windows, spec, params_dtype(params))
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    if np.any(labels < 0) or np.any(labels >= spec.n_classes):
        raise ValueError(f"label outside class range [0, {spec.n_classes - 1}]")
    caches = []
    logits = _forward_cached(params, spec, x, mode, rng, caches)
    value, dx = L.cross_entropy(logits, labels)
    grads = [None] * len(params)
    for i in range(len(spec.layers) - 1, -1, -1):
        dx, grads[i] = spec.layers[i].backward(params[i], dx, caches[i])
    return float(value), grads, logits


def predict_batch(params, spec, windows):
    """Class code of each normalized window in a batch; ties -> lower class."""
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
            raise SchemaMismatchError(f"{path}: descriptor line {lineno}: unknown layer kind {kind!r}")
        cls = _KINDS[kind]
        hints = get_type_hints(cls)
        converters = [hints[f.name] for f in fields(cls)]
        if len(values) != len(converters):
            raise SchemaMismatchError(
                f"{path}: descriptor line {lineno}: layer {kind} needs "
                f"{len(converters)} fields, has {len(values)}"
            )
        try:
            spec_layers.append(cls(*(conv(v) for conv, v in zip(converters, values))))
        except ValueError:
            raise SchemaMismatchError(f"{path}: descriptor line {lineno}: bad {kind} fields {values}") from None
    dims = []
    for key in ("window", "in_channels", "n_classes"):
        if key not in meta:
            raise SchemaMismatchError(f"{path}: descriptor lacks field {key!r}")
        try:
            dims.append(int(meta[key]))
        except ValueError:
            raise SchemaMismatchError(f"{path}: descriptor field {key}={meta[key]!r} is not an integer") from None
    return ArchitectureSpec(tuple(spec_layers), *dims, meta.get("name", "custom"))


def save_params(params, spec: ArchitectureSpec, path):
    """Bit-exact weight file with a CRC32 trailer."""
    desc = _descriptor(spec).encode()
    tensors = [np.ascontiguousarray(t, dtype="<f8") for p in params if p is not None for t in p]
    chunks = [struct.pack("<I", len(desc)), desc, struct.pack("<I", len(tensors))]
    for arr in tensors:
        chunks += [struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape), arr]
    write_framed(path, WEIGHTS_MAGIC, WEIGHTS_VERSION, chunks)


def load_params(path):
    """Inverse of save_params; returns (params, spec), each tensor checked against its layer."""
    cur = read_framed(path, WEIGHTS_MAGIC, WEIGHTS_VERSION)
    (desc_len,) = cur.unpack("<I")
    spec = _parse_descriptor(cur.text(desc_len), path)
    try:
        trace_shapes(spec)
    except ShapeMismatchError as exc:
        raise ShapeMismatchError(f"{path}: {exc}") from None
    (n_tensors,) = cur.unpack("<I")
    params = []
    n_read = 0
    for i, layer in enumerate(spec.layers):
        p = []
        for shape in layer.param_shapes():
            dims = None
            if n_read < n_tensors:
                (ndim,) = cur.unpack("<B")
                dims = cur.unpack(f"<{ndim}I")
            if dims != shape:
                found = "no tensor" if dims is None else f"shape {dims}"
                raise SchemaMismatchError(f"{path}: layer {i} ({layer.kind}) needs shape {shape}, file has {found}")
            p.append(cur.array(shape))
            n_read += 1
        params.append(tuple(p) or None)
    if n_read < n_tensors:
        raise SchemaMismatchError(f"{path}: header counts {n_tensors} tensors, the layers take {n_read}")
    cur.end()
    return params, spec
