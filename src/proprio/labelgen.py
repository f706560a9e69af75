"""Self-supervised contact labels from foot-height signals.

Offline pipeline per leg: zero-phase low-pass filter the hip-frame foot
height, find interior extrema, then mark contact between the local minima
that fall between consecutive peaks. When a single minimum sits between two
peaks, a fixed backoff extends the contact window backwards, bounded at the
start of the signal. Touchdown bounce transients are removed by the filter
and therefore never split a stance.

Foot height convention: hip-frame z, more negative = lower. Runs at the
native rate of the stream fed in (the backoff constant is in samples).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.signal import butter, filtfilt

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

    half_power_freq is normalized in cycles/sample. Forward-backward
    filtering with reflected edges keeps extrema aligned with the raw
    timeline and avoids spurious boundary extrema.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.ndim != 1 or signal.size < 16:
        raise DataError(f"need a 1-D signal of >= 16 samples, got {signal.shape}")
    if not 0.0 < half_power_freq < 0.5:
        raise ValueError(f"half-power frequency {half_power_freq} outside (0, 0.5)")
    b, a = butter(FILTER_ORDER, 2.0 * half_power_freq)
    padlen = min(signal.size - 1, 3 * max(len(a), len(b)) * int(1 + 0.05 / half_power_freq))
    return filtfilt(b, a, signal, padtype="even", padlen=padlen)


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


def _label_one_leg(height, cutoff, backoff) -> np.ndarray:
    filtered = lowpass(height, cutoff)
    min_idx, max_idx = local_extrema(filtered)
    n = height.size
    contacts = np.zeros(n, dtype=bool)
    i = j = 0
    num_min, num_max = len(min_idx), len(max_idx)
    while i < num_min and j < num_max:
        contact_start = min_idx[i]
        next_peak = max_idx[j]
        count = 0
        contact_end = -1
        while i < num_min and min_idx[i] < next_peak:
            contact_end = min_idx[i]
            i += 1
            count += 1
        if count == 1:
            contact_start = max(contact_end - backoff, 0)
        if count > 0:
            contacts[contact_start : contact_end + 1] = True
        j += 1
    return contacts


def generate_labels(foot_heights, config: LabelGenConfig = LabelGenConfig()) -> np.ndarray:
    """Per-frame boolean contacts from per-leg foot heights.

    foot_heights: (N, L) array. Returns an (N, L) boolean array.
    """
    foot_heights = np.asarray(foot_heights, dtype=float)
    if foot_heights.ndim != 2:
        raise ValueError(f"expected an (N, L) array of foot heights, got shape {foot_heights.shape}")
    cutoff = config.cutoff()
    out = np.zeros(foot_heights.shape, dtype=bool)
    for leg in range(foot_heights.shape[1]):
        out[:, leg] = _label_one_leg(foot_heights[:, leg], cutoff, config.single_min_backoff)
    return out
