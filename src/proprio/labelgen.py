"""Self-supervised contact labels from foot-height signals.

Zero-phase low-pass filter every leg's hip-frame foot height in one call,
then per leg find the interior extrema. Extrema alternate, so each peak
has at most one local minimum before it; every minimum that a peak
follows ends a contact window that reaches a fixed backoff back, bounded
at the start of the signal. A minimum after the last peak starts no
contact. Touchdown bounce transients are removed by the filter and
therefore never split a stance.

Foot height convention: hip-frame z, more negative = lower. Runs at the
native rate of the stream fed in (the backoff constant is in samples).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .formats import DataError

# Half-power (-3 dB) frequency in cycles/sample, per gait.
HALF_POWER_FREQ = {"trot": 0.04, "pronk": 0.08, "gallop": 0.08}

FILTER_ORDER = 4
SINGLE_MIN_BACKOFF = 30  # samples


@dataclass
class LabelGenConfig:
    gait: str = "trot"
    half_power_freq: Optional[float] = None  # cycles/sample; None -> per gait
    single_min_backoff: int = SINGLE_MIN_BACKOFF

    def cutoff(self) -> float:
        f = self.half_power_freq
        if f is None:
            try:
                f = HALF_POWER_FREQ[self.gait]
            except KeyError:
                raise ValueError(f"unknown gait {self.gait!r}") from None
        if not 0.0 < f < 0.5:
            raise ValueError(f"half-power frequency {f} outside (0, 0.5)")
        return f


def lowpass(signal, half_power_freq: float) -> np.ndarray:
    """Zero-phase Butterworth low-pass, -3 dB point at half_power_freq.

    signal is (N,) or (N, L), filtered along axis 0 (each column on its
    own, in one call). half_power_freq is normalized in cycles/sample.
    Forward-backward filtering with reflected edges keeps extrema aligned
    with the raw timeline and avoids spurious boundary extrema.

    scipy.signal is imported here, not at module level: it is the slowest
    import of the package, and only the low-pass stages need it.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.ndim not in (1, 2) or len(signal) < 16:
        raise DataError(f"need a signal of >= 16 samples along axis 0 (1-D or 2-D), got {signal.shape}")
    if not 0.0 < half_power_freq < 0.5:
        raise ValueError(f"half-power frequency {half_power_freq} outside (0, 0.5)")
    from scipy.signal import butter, filtfilt

    b, a = butter(FILTER_ORDER, 2.0 * half_power_freq)
    padlen = min(len(signal) - 1, 3 * max(len(a), len(b)) * int(1 + 0.05 / half_power_freq))
    return filtfilt(b, a, signal, axis=0, padtype="even", padlen=padlen)


def local_extrema(signal):
    """Indices of strict interior minima and maxima.

    Plateaus of equal values report the first index of the plateau;
    endpoints are never reported.
    """
    signal = np.asarray(signal, dtype=float)
    n = signal.size
    if n < 3:
        raise DataError(f"need at least 3 samples, got {n}")
    d = np.diff(signal)
    nz = np.flatnonzero(d)  # NaN counts as a fall, as `d > 0` is false for it
    rising = d[nz] > 0.0
    turn = rising[:-1] != rising[1:]
    # a plateau starts at the index after the nonzero diff that ends it
    start, was_rising = nz[:-1][turn] + 1, rising[:-1][turn]
    return start[~was_rising], start[was_rising]


def _label_one_leg(filtered, backoff) -> np.ndarray:
    """Contact mask of one low-passed foot-height signal.

    Extrema alternate, so at most one minimum falls between consecutive
    peaks; each minimum that a peak follows ends a contact that starts
    `backoff` samples earlier, bounded at 0 (none when backoff < 0). A
    backoff longer than the signal counts as its length.
    """
    min_idx, max_idx = local_extrema(filtered)
    end = min_idx[min_idx < max_idx.max(initial=-1)]
    n = filtered.size
    start = np.clip(end - min(backoff, n), 0, end + 1)
    edges = np.bincount(start, minlength=n + 1) - np.bincount(end + 1, minlength=n + 1)
    return np.cumsum(edges[:n]) > 0


def generate_labels(foot_heights, config: LabelGenConfig = LabelGenConfig()) -> np.ndarray:
    """Per-frame boolean contacts from per-leg foot heights.

    foot_heights: (N, L) array. Returns an (N, L) boolean array.
    """
    foot_heights = np.asarray(foot_heights, dtype=float)
    if foot_heights.ndim != 2:
        raise ValueError(f"expected an (N, L) array of foot heights, got shape {foot_heights.shape}")
    filtered = lowpass(foot_heights, config.cutoff())
    out = np.zeros(foot_heights.shape, dtype=bool)
    for leg, column in enumerate(filtered.T):
        out[:, leg] = _label_one_leg(column, config.single_min_backoff)
    return out
