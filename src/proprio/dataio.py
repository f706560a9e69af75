"""Dataset schema, synchronization, window assembly and contact encoding.

A synchronized sample carries 54 core features in fixed order:
12 joint angles, 12 joint velocities, 3 linear accelerations, 3 angular
velocities, 12 foot positions (hip frame), 12 foot velocities (hip frame),
with legs ordered RF, LF, RH, LH. Optional per-frame extras: 12 joint
torques and a ground-truth contact code.

A dataset file holds one row of CSV_COLUMNS per frame (NaN marks a missing
optional): a `.csv` path is a CSV table, any other a framed `.pcds` file
whose payload is the frame count u64 and the rows as float64. `formats`
holds the frame, the CSV rules and the error classes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .formats import EmptyStreamError, SchemaMismatchError, read_csv, read_framed, write_csv, write_framed
from .formats import ChecksumFailureError, VersionMismatchError  # noqa: F401 (re-exported)
from .kinematics import LEG_NAMES

N_FEATURES = 54
N_JOINTS = 12

DATASET_MAGIC = b"PCDS"
DATASET_VERSION = 1


class OutOfRangeError(ValueError):
    """Contact code outside [0, 2^L - 1]."""


class NonMonotoneTimestampsError(ValueError):
    pass


class InsufficientHistoryError(ValueError):
    """Window end index has fewer than w-1 predecessors."""


class TooFewWindowsError(ValueError):
    pass


# ---------------------------------------------------------------------------
# contact state encoding


def encode_contact(legs: Sequence[bool]) -> int:
    """Booleans (first leg = most significant bit) -> decimal code."""
    code = 0
    for c in legs:
        code = (code << 1) | int(bool(c))
    return code


def decode_contact(code: int, num_legs: int) -> tuple:
    """Decimal code -> per-leg booleans; inverse of encode_contact."""
    if not 0 <= code < (1 << num_legs):
        raise OutOfRangeError(f"code {code} outside [0, {(1 << num_legs) - 1}]")
    return tuple(bool((code >> (num_legs - 1 - i)) & 1) for i in range(num_legs))


@dataclass(frozen=True)
class ContactState:
    """Per-leg contact booleans plus their decimal code."""

    legs: tuple

    @property
    def code(self) -> int:
        return encode_contact(self.legs)

    @staticmethod
    def from_code(code: int, num_legs: int = 4) -> "ContactState":
        return ContactState(decode_contact(code, num_legs))


def codes_to_bool(codes, num_legs: int) -> np.ndarray:
    """(N,) int codes -> (N, L) boolean matrix."""
    codes = np.asarray(codes, dtype=np.int64)
    if np.any(codes < 0) or np.any(codes >= (1 << num_legs)):
        raise OutOfRangeError("contact code outside range")
    shifts = np.arange(num_legs - 1, -1, -1)
    return ((codes[:, None] >> shifts[None, :]) & 1).astype(bool)


def bool_to_codes(mat) -> np.ndarray:
    """(N, L) boolean matrix -> (N,) int codes."""
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

    def features(self) -> np.ndarray:
        """(N, 54) feature matrix in the fixed column order."""
        return np.hstack([self.q, self.qd, self.acc, self.gyro, self.pf, self.vf])


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
        raise NonMonotoneTimestampsError("timestamps must strictly increase")
    if len(frames) > 1:
        native = 1.0 / float(np.median(np.diff(t)))
        if target_rate < native * (1.0 - 1e-9):
            raise ValueError(f"target rate {target_rate} below native {native:.3f}")
    dt = 1.0 / target_rate
    n_out = int(np.floor((t[-1] - t[0]) / dt + 1e-9)) + 1
    tg = t[0] + dt * np.arange(n_out)

    def lin(arr):
        return np.stack([np.interp(tg, t, arr[:, j]) for j in range(arr.shape[1])], axis=1)

    gt = None
    if frames.gt is not None:
        idx = np.clip(np.searchsorted(t, tg + 1e-12, side="right") - 1, 0, len(t) - 1)
        gt = frames.gt[idx]
    return FrameSequence(
        t=tg,
        q=lin(frames.q),
        qd=lin(frames.qd),
        acc=lin(frames.acc),
        gyro=lin(frames.gyro),
        pf=lin(frames.pf),
        vf=lin(frames.vf),
        tau=None if frames.tau is None else lin(frames.tau),
        gt=gt,
    )


# ---------------------------------------------------------------------------
# windows


@dataclass
class Window:
    """w x 54 feature slice, rows oldest -> newest, labeled at the last row."""

    data: np.ndarray  # (w, 54)
    label: Optional[int]
    t_end: float = 0.0


class WindowSet:
    """Lazy view of sliding windows over a shared feature matrix.

    Avoids materializing massively overlapping windows; training code pulls
    batches of row slices on demand.
    """

    def __init__(self, features, end_indices, labels, w, t=None):
        self.features = np.asarray(features, dtype=float)
        self.end_indices = np.asarray(end_indices, dtype=np.int64)
        self.labels = None if labels is None else np.asarray(labels, dtype=np.int64)
        self.w = int(w)
        self.t = t

    def __len__(self) -> int:
        return self.end_indices.shape[0]

    def __getitem__(self, i: int) -> Window:
        n = int(self.end_indices[i])
        return Window(
            self.features[n - self.w + 1 : n + 1],
            None if self.labels is None else int(self.labels[i]),
            0.0 if self.t is None else float(self.t[n]),
        )

    def batch(self, idx) -> np.ndarray:
        """Stack windows idx into an (B, w, 54) array."""
        idx = np.asarray(idx)
        ends = self.end_indices[idx]
        offsets = np.arange(-self.w + 1, 1)
        return self.features[ends[:, None] + offsets[None, :]]

    def subset(self, idx) -> "WindowSet":
        idx = np.asarray(idx)
        return WindowSet(
            self.features,
            self.end_indices[idx],
            None if self.labels is None else self.labels[idx],
            self.w,
            self.t,
        )


def make_window(frames: FrameSequence, end_index: int, w: int) -> Window:
    """Window of w rows ending at end_index (inclusive), labeled there."""
    if w < 2:
        raise ValueError("window size must be >= 2")
    if end_index < w - 1:
        raise InsufficientHistoryError(
            f"end index {end_index} needs at least {w - 1} predecessors"
        )
    feats = frames.features()[end_index - w + 1 : end_index + 1]
    label = None if frames.gt is None else int(frames.gt[end_index])
    return Window(feats, label, float(frames.t[end_index]))


def window_set(frames: FrameSequence, w: int, stride: int = 1) -> WindowSet:
    """All valid windows of size w with the given stride between ends."""
    if w < 2:
        raise ValueError("window size must be >= 2")
    n = len(frames)
    if n < w:
        raise InsufficientHistoryError(f"{n} frames cannot hold a window of {w}")
    ends = np.arange(w - 1, n, stride)
    labels = None if frames.gt is None else frames.gt[ends]
    return WindowSet(frames.features(), ends, labels, w, frames.t)


def normalize_window(data) -> np.ndarray:
    """Z-score each channel over the time axis; sigma < 1e-8 zero-fills.

    Accepts (w, C) or a batch (N, w, C).
    """
    data = np.asarray(data, dtype=float)
    mean = data.mean(axis=-2, keepdims=True)
    std = data.std(axis=-2, keepdims=True)
    out = data - mean
    safe = std >= 1e-8
    np.divide(out, std, out=out, where=safe)
    out *= safe  # degenerate channels end up exactly zero
    return out


def split_dataset(windows: WindowSet, seed: int):
    """Shuffled, disjoint, exhaustive 70/15/15 train/val/test split."""
    n = len(windows)
    if n < 10:
        raise TooFewWindowsError(f"need at least 10 windows, got {n}")
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


def _csv_header() -> list:
    cols = ["t"]
    cols += [f"q_{l}{j}" for l in LEG_NAMES for j in (1, 2, 3)]
    cols += [f"dq_{l}{j}" for l in LEG_NAMES for j in (1, 2, 3)]
    cols += ["acc_x", "acc_y", "acc_z", "gyro_x", "gyro_y", "gyro_z"]
    cols += [f"pf_{l}_{a}" for l in LEG_NAMES for a in "xyz"]
    cols += [f"vf_{l}_{a}" for l in LEG_NAMES for a in "xyz"]
    cols += [f"tau_{l}{j}" for l in LEG_NAMES for j in (1, 2, 3)]
    cols += ["contact_code"]
    return cols


CSV_COLUMNS = _csv_header()


def _pack_rows(frames: FrameSequence) -> np.ndarray:
    n = len(frames)
    rows = np.full((n, 1 + N_FEATURES + N_JOINTS + 1), np.nan)
    rows[:, 0] = frames.t
    rows[:, 1:55] = frames.features()
    if frames.tau is not None:
        rows[:, 55:67] = frames.tau
    if frames.gt is not None:
        rows[:, 67] = frames.gt
    return rows


def _contact_codes(col, path) -> np.ndarray:
    """Float column of contact codes -> int64; each must be a non-negative integer."""
    bad = ~((col >= 0) & (col < 2.0**63) & (col == np.floor(col)))
    if bad.any():
        i = int(np.argmax(bad))
        raise SchemaMismatchError(f"{path}: data row {i + 1}: bad contact code {float(col[i])!r}")
    return col.astype(np.int64)


def _unpack_rows(rows: np.ndarray, path) -> FrameSequence:
    tau = rows[:, 55:67]
    gt = rows[:, 67]
    return FrameSequence(
        t=rows[:, 0].copy(),
        q=rows[:, 1:13].copy(),
        qd=rows[:, 13:25].copy(),
        acc=rows[:, 25:28].copy(),
        gyro=rows[:, 28:31].copy(),
        pf=rows[:, 31:43].copy(),
        vf=rows[:, 43:55].copy(),
        tau=None if np.all(np.isnan(tau)) else tau.copy(),
        gt=None if np.all(np.isnan(gt)) else _contact_codes(gt, path),
    )


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
    is_csv = str(path).endswith(".csv")
    if is_csv:
        rows = read_csv(path, CSV_COLUMNS)
    else:
        cur = read_framed(path, DATASET_MAGIC, DATASET_VERSION)
        (count,) = cur.unpack("<Q")
        if count == 0:
            raise EmptyStreamError(f"{path}: no frames")
        rows = cur.array((count, len(CSV_COLUMNS)))
        cur.end()
    t = rows[:, 0]
    bad = ~np.isfinite(t)
    bad[1:] |= ~(t[1:] > t[:-1])
    if bad.any():
        i = int(np.argmax(bad))
        where = f"{path}:{i + 2}" if is_csv else f"{path}: frame {i}"  # CSV line 1 is the header
        raise SchemaMismatchError(f"{where}: timestamp {float(t[i])!r} is not finite or does not exceed the one before it")
    return _unpack_rows(rows, path)


# contact stream files: t, decimal code

CONTACTS_COLUMNS = ["t", "contact_code"]


def write_contacts(path, t, codes):
    rows = zip(np.asarray(t, dtype=float).tolist(), np.asarray(codes, dtype=np.int64).tolist())
    write_csv(path, CONTACTS_COLUMNS, rows)


def read_contacts(path):
    rows = read_csv(path, CONTACTS_COLUMNS)
    return rows[:, 0], _contact_codes(rows[:, 1], path)
