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

The low-pass is scipy.signal's butter + filtfilt redone in numpy, so no
stage loads scipy.signal: the same (b, a) bit for bit, and the same start
state, edge extension and two passes. A pass is one FFT convolution with
the filter's impulse response instead of a recursion, so its output is the
exact filter's to about 1e-15 of the peak. scipy's own recursion rounds by
1e-13 at the trot cutoff and by 1.8e-11 at 0.01.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .formats import DataError

# Half-power (-3 dB) frequency in cycles/sample, per gait.
HALF_POWER_FREQ = {"trot": 0.04, "pronk": 0.08, "gallop": 0.08}

FILTER_ORDER = 4
SINGLE_MIN_BACKOFF = 30  # samples
_FRACTION_BITS = 200  # of the integer recursion that evaluates the filter's responses
DESIGN_CACHE_SIZE = 64  # cutoffs whose filter design lowpass keeps


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


def _butter(half_power_freq):
    """(b, a) of the FILTER_ORDER Butterworth low-pass, by scipy.signal.butter's
    own route and operation order, so the coefficients are bit for bit its:
    analog poles, tan prewarp, bilinear map (its zeros all land at -1), np.poly.
    """
    m = np.arange(-FILTER_ORDER + 1, FILTER_ORDER, 2, dtype=float)
    warped = float(4.0 * np.tan(np.pi * (2.0 * half_power_freq) / 2.0))
    poles = warped * -np.exp(1j * np.pi * m / (2 * FILTER_ORDER))
    gain = warped**FILTER_ORDER * np.real(1.0 / np.prod(4.0 - poles))
    b = gain * np.poly(-np.ones(FILTER_ORDER))
    a = np.poly((4.0 + poles) / (4.0 - poles))
    return b, a


def _free_response(state, a):
    """Zero-input output of the direct-form-II-transposed recursion from state.

    state and a (the denominator) are integers scaled by 2**_FRACTION_BITS,
    and the recursion rounds at 2**-_FRACTION_BITS, so the output is the
    filter's own, free of the rounding a double recursion adds at every
    sample. It runs until the state has decayed below 2**-80 of the peak
    output (the poles lie inside the unit circle) and returns correctly
    rounded doubles.
    """
    z = list(state)
    out, peak = [], 0
    while len(out) < len(z) or max(map(abs, z)) > peak >> 80:
        y = z[0]
        z = [zn - (c * y >> _FRACTION_BITS) for zn, c in zip(z[1:] + [0], a[1:])]
        out.append(y)
        peak = max(peak, abs(y))
    return np.array([y / (1 << _FRACTION_BITS) for y in out])


def _responses(b, a, zi):
    """The filter's impulse response and its zero-input response from state zi."""
    fb, fa, fz = ([int(math.ldexp(v, _FRACTION_BITS)) for v in c] for c in (b, a, zi))  # exact
    # the state that a unit impulse leaves after its own sample: b[1:] - a[1:] b[0]
    after_impulse = [bk - (ak * fb[0] >> _FRACTION_BITS) for bk, ak in zip(fb[1:], fa[1:])]
    return np.concatenate(([b[0]], _free_response(after_impulse, fa))), _free_response(fz, fa)


@functools.lru_cache(maxsize=DESIGN_CACHE_SIZE)
def _design(half_power_freq):
    """Read-only (b, a, impulse response, zero-input response from lfilter_zi's state).

    lfilter_zi's state is the one a constant unit input holds:
    (I - companion(a).T) zi = b[1:] - a[1:] b[0]. The two responses take
    almost all of a short lowpass call, and depend only on the cutoff.
    """
    b, a = _butter(half_power_freq)
    n = FILTER_ORDER
    i_minus_a = np.eye(n) - np.eye(n, k=1)
    i_minus_a[:, 0] += a[1:]
    design = (b, a) + _responses(b, a, np.linalg.solve(i_minus_a, b[1:] - a[1:] * b[0]))
    for arr in design:
        arr.flags.writeable = False
    return design


def _fft_size(n):
    """Smallest 2**i 3**j 5**k >= n: the lengths pocketfft transforms fastest."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << ((n - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def lowpass(signal, half_power_freq: float) -> np.ndarray:
    """Zero-phase Butterworth low-pass, -3 dB point at half_power_freq.

    signal is (N,) or (N, L), filtered along axis 0 (each column on its
    own, in one call). half_power_freq is normalized in cycles/sample.
    Forward-backward filtering with reflected edges keeps extrema aligned
    with the raw timeline and avoids spurious boundary extrema.

    It is scipy.signal.filtfilt(b, a, signal, axis=0, padtype="even",
    padlen=padlen) for (b, a) = butter(FILTER_ORDER, 2 * half_power_freq),
    in numpy: an even extension of padlen samples at each end, then a
    forward and a backward pass, each started at lfilter_zi's steady state
    zi times its first sample. A pass is the FFT convolution of its input
    with the impulse response, plus the first sample times the response to
    zi; both responses are exact (`_free_response`), so no state is rounded
    sample after sample, and are kept per cutoff (`_design`). How close
    this is to scipy: see the module notes.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.ndim not in (1, 2) or len(signal) < 16:
        raise DataError(f"need a signal of >= 16 samples along axis 0 (1-D or 2-D), got {signal.shape}")
    if not 0.0 < half_power_freq < 0.5:
        raise ValueError(f"half-power frequency {half_power_freq} outside (0, 0.5)")
    b, a, impulse, from_zi = _design(float(half_power_freq))

    padlen = min(len(signal) - 1, 3 * max(len(a), len(b)) * int(1 + 0.05 / half_power_freq))
    rows = signal.reshape(len(signal), -1).T
    y = np.concatenate((rows[:, padlen:0:-1], rows, rows[:, -2 : -(padlen + 2) : -1]), axis=1)
    size = y.shape[1]
    fft_len = _fft_size(size + len(impulse) - 1)
    spectrum = np.fft.rfft(impulse, fft_len)
    for _ in range(2):
        first = y[:, :1]
        with np.errstate(invalid="ignore"):  # an infinite sample turns its column to NaN, as in scipy
            y = np.fft.irfft(np.fft.rfft(y, fft_len) * spectrum, fft_len)[:, :size]
        y[:, : len(from_zi)] += first * from_zi[:size]
        y = y[:, ::-1]
    return y[:, padlen : size - padlen].T.reshape(signal.shape)


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
