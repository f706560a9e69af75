"""Dataset schema, synchronization, window assembly and contact encoding.

A synchronized sample carries 54 core features in fixed order:
12 joint angles, 12 joint velocities, 3 linear accelerations, 3 angular
velocities, 12 foot positions (hip frame), 12 foot velocities (hip frame),
with legs ordered RF, LF, RH, LH. Optional per-frame extras: 12 joint
torques and a ground-truth contact code.

A dataset file holds one row of CSV_COLUMNS per frame, laid out by LAYOUT
(NaN marks a missing optional): a `.csv` path is a CSV table, any other a
framed `.pcds` file whose payload is the frame count u64 and the rows as
float64. `formats` holds the frame, the CSV rules and the error classes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from itertools import accumulate
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .formats import DataError, EmptyStreamError, SchemaMismatchError, check_times, read_csv, read_framed
from .formats import row_location, write_csv, write_framed
from .formats import ChecksumFailureError, VersionMismatchError  # noqa: F401 (re-exported)
from .kinematics import LEG_NAMES

DATASET_MAGIC = b"PCDS"
DATASET_VERSION = 1


# ---------------------------------------------------------------------------
# contact state encoding


def codes_to_bool(codes, num_legs: int) -> np.ndarray:
    """(N,) int codes -> (N, L) boolean matrix."""
    codes = np.asarray(codes, dtype=np.int64)
    if np.any(codes < 0) or np.any(codes >= (1 << num_legs)):
        raise DataError(f"contact code outside range [0, {(1 << num_legs) - 1}]")
    shifts = np.arange(num_legs - 1, -1, -1)
    return ((codes[:, None] >> shifts[None, :]) & 1).astype(bool)


def bool_to_codes(mat) -> np.ndarray:
    """(N, L) boolean matrix -> (N,) int codes, first leg = most significant bit."""
    mat = np.asarray(mat, dtype=bool)
    weights = 1 << np.arange(mat.shape[1] - 1, -1, -1)
    return mat @ weights


# ---------------------------------------------------------------------------
# frames


@dataclass
class FrameSequence:
    """Columnar storage of a frame stream (the practical in-memory form)."""

    t: np.ndarray  # (N,)
    q: np.ndarray  # (N, 12)
    qd: np.ndarray  # (N, 12)
    acc: np.ndarray  # (N, 3)
    gyro: np.ndarray  # (N, 3)
    pf: np.ndarray  # (N, 12)
    vf: np.ndarray  # (N, 12)
    tau: Optional[np.ndarray] = None  # (N, 12)
    gt: Optional[np.ndarray] = None  # (N,) int codes

    def __len__(self) -> int:
        return self.t.shape[0]

    def rows(self, index) -> "FrameSequence":
        """Frames `index` (a slice or index array) of every column; absent columns stay None."""
        columns = (getattr(self, f.name) for f in fields(self))
        return FrameSequence(*(None if col is None else col[index] for col in columns))

    def features(self) -> np.ndarray:
        """(N, 54) feature matrix in the fixed column order."""
        return np.hstack([getattr(self, name) for name, _ in _FEATURES])


_JOINTS = [f"{leg}{j}" for leg in LEG_NAMES for j in (1, 2, 3)]
_FEET = [f"{leg}_{axis}" for leg in LEG_NAMES for axis in "xyz"]
# (field, CSV column names) of the six feature groups, in feature order
_FEATURES = (
    ("q", [f"q_{n}" for n in _JOINTS]),
    ("qd", [f"dq_{n}" for n in _JOINTS]),
    ("acc", [f"acc_{a}" for a in "xyz"]),
    ("gyro", [f"gyro_{a}" for a in "xyz"]),
    ("pf", [f"pf_{n}" for n in _FEET]),
    ("vf", [f"vf_{n}" for n in _FEET]),
)
# (field, CSV column names) of each column group of a dataset row, in
# FrameSequence field order: the time, the features, the optional tau and gt
LAYOUT = (("t", ["t"]), *_FEATURES, ("tau", [f"tau_{n}" for n in _JOINTS]), ("gt", ["contact_code"]))
CSV_COLUMNS = [c for _, names in LAYOUT for c in names]
# field -> its row column: an index for a one-column field, else a slice
_COLUMNS = {
    name: start if len(names) == 1 else slice(start, start + len(names))
    for (name, names), start in zip(LAYOUT, accumulate((len(names) for _, names in LAYOUT), initial=0))
}


def hold(t_src, t_query) -> np.ndarray:
    """Zero-order hold: per query time, the index of the last source sample at or
    before it (1 ns of slack), clipped to [0, len(t_src) - 1]."""
    return np.clip(np.searchsorted(t_src, np.asarray(t_query) + 1e-9, side="right") - 1, 0, len(t_src) - 1)


def upsample(frames: FrameSequence, target_rate: float) -> FrameSequence:
    """Resample a stream onto a uniform grid at target_rate (Hz).

    Continuous channels are linearly interpolated; ground-truth contact
    codes are carried by zero-order hold. The grid starts at the first
    timestamp and never extends beyond the last (no extrapolation).
    """
    if len(frames) == 0:
        raise EmptyStreamError("cannot upsample an empty stream")
    t = frames.t
    if np.any(np.diff(t) <= 0.0):
        raise SchemaMismatchError("timestamps must strictly increase")
    if len(frames) > 1:
        native = 1.0 / float(np.median(np.diff(t)))
        if target_rate < native * (1.0 - 1e-9):
            raise ValueError(f"target rate {target_rate} below native {native:.3f}")
    dt = 1.0 / target_rate
    n_out = int(np.floor((t[-1] - t[0]) / dt + 1e-9)) + 1
    tg = t[0] + dt * np.arange(n_out)

    def resample(name):
        col = getattr(frames, name)
        if col is None:
            return None
        if name == "gt":
            return col[hold(t, tg)]
        return np.stack([np.interp(tg, t, col[:, j]) for j in range(col.shape[1])], axis=1)

    return FrameSequence(t=tg, **{name: resample(name) for name, _ in LAYOUT[1:]})


# ---------------------------------------------------------------------------
# windows


class WindowSet:
    """Lazy view of sliding windows over a shared feature matrix.

    Avoids materializing massively overlapping windows; training code pulls
    batches of row slices on demand.
    """

    def __init__(self, features, end_indices, labels, w):
        self.features = np.asarray(features, dtype=float)
        self.end_indices = np.asarray(end_indices, dtype=np.int64)
        self.labels = None if labels is None else np.asarray(labels, dtype=np.int64)
        self.w = int(w)
        ends = self.end_indices
        if ends.size and not (ends.min() >= self.w - 1 and ends.max() < self.features.shape[0]):
            raise ValueError(f"window ends must lie in [{self.w - 1}, {self.features.shape[0] - 1}]")

    def __len__(self) -> int:
        return self.end_indices.shape[0]

    def batch(self, idx) -> np.ndarray:
        """Stack windows idx into an (B, w, 54) array.

        Window s is row s of a read-only (starts, w, 54) view over the
        features, so the gather copies each window's rows once and builds
        no (B, w) index array.
        """
        f = self.features
        starts = max(f.shape[0] - self.w + 1, 0)
        view = as_strided(f, (starts, self.w, f.shape[1]), (f.strides[0], *f.strides), writeable=False)
        return view[self.end_indices[np.asarray(idx)] - (self.w - 1)]

    def subset(self, idx) -> "WindowSet":
        idx = np.asarray(idx)
        return WindowSet(
            self.features,
            self.end_indices[idx],
            None if self.labels is None else self.labels[idx],
            self.w,
        )


def window_set(frames: FrameSequence, w: int, stride: int = 1) -> WindowSet:
    """All valid windows of size w with the given stride between ends."""
    if w < 2:
        raise ValueError("window size must be >= 2")
    if stride < 1:
        raise ValueError(f"window stride {stride} must be >= 1")
    n = len(frames)
    if n < w:
        raise DataError(f"{n} frames cannot hold a window of {w}")
    if stride > n:
        raise DataError(f"window stride {stride} exceeds the {n} frames")
    ends = np.arange(w - 1, n, stride)
    labels = None if frames.gt is None else frames.gt[ends]
    return WindowSet(frames.features(), ends, labels, w)


def normalize_window(data) -> np.ndarray:
    """Z-score each channel over the time axis; sigma < 1e-8 zero-fills.

    Accepts (w, C) or a batch (N, w, C). Two passes in float64: the mean
    from a sum, then the variance of the centred data, so a large channel
    offset does not cancel; each channel is then scaled by 1/sigma, or by
    zero when sigma < 1e-8, which leaves degenerate channels exactly zero
    and NaN input NaN.
    """
    data = np.asarray(data, dtype=float)
    w = data.shape[-2]
    out = data - data.sum(axis=-2, keepdims=True) / w
    std = np.sqrt(np.einsum("...tc,...tc->...c", out, out) / w)
    scale = np.divide(1.0, std, out=np.zeros_like(std), where=std >= 1e-8)
    out *= scale[..., None, :]
    return out


def split_dataset(windows: WindowSet, seed: int):
    """Shuffled, disjoint, exhaustive 70/15/15 train/val/test split."""
    n = len(windows)
    if n < 10:
        raise DataError(f"need at least 10 windows, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(0.70 * n)
    n_val = int(0.15 * n)
    return (
        windows.subset(perm[:n_train]),
        windows.subset(perm[n_train : n_train + n_val]),
        windows.subset(perm[n_train + n_val :]),
    )


# ---------------------------------------------------------------------------
# file formats


def _pack_rows(frames: FrameSequence) -> np.ndarray:
    rows = np.full((len(frames), len(CSV_COLUMNS)), np.nan)
    for name, col in _COLUMNS.items():
        values = getattr(frames, name)
        if values is not None:
            rows[:, col] = values
    return rows


def _contact_codes(col, path) -> np.ndarray:
    """Float column of contact codes -> int64; each must be an integer in [0, 2^L - 1]."""
    n_codes = 1 << len(LEG_NAMES)
    bad = ~((col >= 0) & (col < n_codes) & (col == np.floor(col)))
    if bad.any():
        i = int(np.argmax(bad))
        raise SchemaMismatchError(
            f"{row_location(path, i)}: bad contact code {float(col[i])!r}, want an integer in [0, {n_codes - 1}]"
        )
    return col.astype(np.int64)


def _unpack_rows(rows: np.ndarray, path) -> FrameSequence:
    cols = {name: rows[:, col].copy() for name, col in _COLUMNS.items()}
    cols.update({name: None for name in ("tau", "gt") if np.all(np.isnan(cols[name]))})
    if cols["gt"] is not None:
        cols["gt"] = _contact_codes(cols["gt"], path)
    return FrameSequence(**cols)


def write_dataset(frames: FrameSequence, path):
    """Write a dataset; a .csv path gets a CSV table, any other a .pcds file."""
    rows = _pack_rows(frames)
    if str(path).endswith(".csv"):
        write_csv(path, CSV_COLUMNS, (row.tolist() for row in rows))
    else:
        payload = [struct.pack("<Q", len(frames)), rows.astype("<f8", copy=False)]
        write_framed(path, DATASET_MAGIC, DATASET_VERSION, payload)


def read_dataset(path) -> FrameSequence:
    """Read a dataset written by write_dataset, dispatching on the extension.

    Timestamps must be finite and strictly increasing; the first one that is
    not is reported as `path:line` for a CSV and by frame index for a .pcds.
    """
    if str(path).endswith(".csv"):
        rows = read_csv(path, CSV_COLUMNS)
    else:
        cur = read_framed(path, DATASET_MAGIC, DATASET_VERSION)
        (count,) = cur.unpack("<Q")
        if count == 0:
            raise EmptyStreamError(f"{path}: no frames")
        rows = cur.array((count, len(CSV_COLUMNS)))
        cur.end()
    check_times(rows[:, 0], path)
    return _unpack_rows(rows, path)


# contact stream files: t, decimal code

CONTACTS_COLUMNS = ["t", "contact_code"]


def write_contacts(path, t, codes):
    rows = zip(np.asarray(t, dtype=float).tolist(), np.asarray(codes, dtype=np.int64).tolist())
    write_csv(path, CONTACTS_COLUMNS, rows)


def read_contacts(path):
    """(t, codes) of a contacts CSV; timestamps are checked as read_dataset checks them, and
    a bad row is named by row_location, which gives `path:line` for a path ending in `.csv`."""
    rows = read_csv(path, CONTACTS_COLUMNS)
    check_times(rows[:, 0], path)
    return rows[:, 0], _contact_codes(rows[:, 1], path)
