import os
import subprocess
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.signal import butter, filtfilt, lfilter_zi  # the reference the numpy low-pass reproduces

import proprio
from proprio import baselines, gaitsim
from proprio.formats import DataError
from proprio.labelgen import (
    FILTER_ORDER,
    HALF_POWER_FREQ,
    LabelGenConfig,
    _butter,
    _design,
    _label_one_leg,
    generate_labels,
    local_extrema,
    lowpass,
)


def reference_local_extrema(signal):
    """Per-sample loop that local_extrema must match index for index."""
    signal = np.asarray(signal, dtype=float)
    minima, maxima = [], []
    prev_sign = 0
    plateau_start = 0
    for i in range(1, signal.size):
        d = signal[i] - signal[i - 1]
        if d == 0.0:
            continue
        sign = 1 if d > 0.0 else -1
        if prev_sign > 0 and sign < 0 and plateau_start > 0:
            maxima.append(plateau_start)
        elif prev_sign < 0 and sign > 0 and plateau_start > 0:
            minima.append(plateau_start)
        prev_sign = sign
        plateau_start = i
    return np.asarray(minima, dtype=np.int64), np.asarray(maxima, dtype=np.int64)


def reference_label_one_leg(filtered, backoff):
    """Two-pointer walk over minima and peaks that _label_one_leg must match
    index for index: the minima before each peak form one contact."""
    min_idx, max_idx = local_extrema(filtered)
    contacts = np.zeros(filtered.size, dtype=bool)
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


def sine_amplitude_ratio(freq, n=4096):
    """Measured filtfilt amplitude ratio via least-squares fit (FFT-free of
    the implementation under test)."""
    t = np.arange(n)
    x = np.sin(2 * np.pi * freq * t)
    y = lowpass(x, 0.04)
    # fit y = a sin + b cos on the interior (edge effects trimmed)
    sl = slice(n // 8, -n // 8)
    basis = np.stack([np.sin(2 * np.pi * freq * t[sl]), np.cos(2 * np.pi * freq * t[sl])], axis=1)
    coef, *_ = np.linalg.lstsq(basis, y[sl], rcond=None)
    return float(np.hypot(*coef))


class TestLowpass:
    def test_dc_gain(self):
        x = np.full(256, 2.5)
        np.testing.assert_allclose(lowpass(x, 0.04), x, atol=1e-9)

    def test_half_power_point(self):
        # forward-backward squares the response: ~0.5 amplitude at cutoff
        ratio = sine_amplitude_ratio(0.04)
        assert 0.49 < ratio < 0.51

    def test_stopband(self):
        assert sine_amplitude_ratio(0.20) < 0.05

    def test_passband(self):
        assert sine_amplitude_ratio(0.004) > 0.99

    def test_too_short(self):
        with pytest.raises(DataError, match=">= 16 samples"):
            lowpass(np.zeros(15), 0.04)
        with pytest.raises(DataError, match=">= 16 samples"):
            lowpass(np.zeros((15, 4)), 0.04)

    def test_columns_match_one_dimensional_calls(self):
        heights = _gait_heights(seed=8, duration=4.0)[0]
        both = lowpass(heights, 0.04)
        assert both.shape == heights.shape
        for leg in range(4):
            assert np.array_equal(both[:, leg], lowpass(heights[:, leg], 0.04))

    def test_bad_cutoff(self):
        with pytest.raises(ValueError):
            lowpass(np.zeros(100), 0.6)

    def test_design_cached_read_only_and_calls_repeat_byte_for_byte(self):
        signal = _test_signal(1000, 4, seed=3)
        first = lowpass(signal, 0.04)
        for freq in (0.04, np.float64(0.04)):
            assert lowpass(signal, freq).tobytes() == first.tobytes()
        design = _design(0.04)
        assert _design(0.04) is design and len(design) == 4
        for arr in design:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert lowpass(signal, 0.04).tobytes() == first.tobytes()


def _padlen(n, half_power_freq):
    return min(n - 1, 3 * (FILTER_ORDER + 1) * int(1 + 0.05 / half_power_freq))


def scipy_lowpass(signal, half_power_freq):
    """The scipy.signal call that lowpass replaces."""
    b, a = butter(FILTER_ORDER, 2.0 * half_power_freq)
    return filtfilt(b, a, signal, axis=0, padtype="even", padlen=_padlen(len(signal), half_power_freq))


def exact_lowpass(signal, half_power_freq):
    """filtfilt's recursion (lfilter's direct form II transposed, started at
    lfilter_zi times the first sample) on scipy's (b, a), in 60-digit decimals."""
    b, a = butter(FILTER_ORDER, 2.0 * half_power_freq)
    padlen = _padlen(len(signal), half_power_freq)
    ext = np.concatenate((signal[padlen:0:-1], signal, signal[-2 : -(padlen + 2) : -1]))
    with localcontext() as ctx:
        ctx.prec = 60
        bd, ad, zi = ([Decimal(float(v)) for v in arr] for arr in (b, a, lfilter_zi(b, a)))

        def one_pass(x):
            z, out = [zk * x[0] for zk in zi], []
            for xn in x:
                y = z[0] + bd[0] * xn
                z = [z[i + 1] + bd[i + 1] * xn - ad[i + 1] * y for i in range(3)] + [bd[4] * xn - ad[4] * y]
                out.append(y)
            return out

        y = one_pass(one_pass([Decimal(float(v)) for v in ext])[::-1])[::-1]
    return np.array([float(v) for v in y[padlen : len(y) - padlen]])


def _test_signal(n, columns, seed):
    """Random-walk foot heights around -0.3 m: one column or (n, columns)."""
    walk = -0.3 + 0.01 * np.cumsum(np.random.default_rng(seed).normal(size=(n, columns or 1)), axis=0)
    return walk if columns else walk[:, 0]


def _gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestAgainstScipy:
    @pytest.mark.parametrize("half_power_freq", np.r_[np.linspace(0.002, 0.498, 32), 0.01, 0.3, *HALF_POWER_FREQ.values()])
    def test_design_is_scipy_butter_bit_for_bit(self, half_power_freq):
        b, a = _butter(half_power_freq)
        want_b, want_a = butter(FILTER_ORDER, 2.0 * half_power_freq)
        assert b.tobytes() == want_b.tobytes() and a.tobytes() == want_a.tobytes()

    # lengths 16 and 17 take padlen = len - 1 at these cutoffs
    @pytest.mark.parametrize("half_power_freq", [0.04, 0.08, 0.15, 0.3])
    @pytest.mark.parametrize("n", [16, 17, 1001, 20000])
    @pytest.mark.parametrize("columns", [0, 3])
    def test_matches_scipy_filtfilt(self, half_power_freq, n, columns):
        signal = _test_signal(n, columns, seed=n)
        got = lowpass(signal, half_power_freq)
        assert got.shape == signal.shape
        assert _gap(got, scipy_lowpass(signal, half_power_freq)) <= 1e-12

    @pytest.mark.parametrize("half_power_freq", [0.01, 0.02])
    @pytest.mark.parametrize("n", [16, 17, 1001, 20000])
    def test_low_cutoffs_match_an_exact_recursion(self, half_power_freq, n):
        # below 0.04 scipy's own recursion rounds by more than 1e-12 (1.8e-11 at
        # 0.01), so lowpass is held to the exact filter and scipy is shown no closer
        columns = 2 if n < 20000 else 0
        signal = _test_signal(n, columns, seed=n + 1)
        got, ref = lowpass(signal, half_power_freq), scipy_lowpass(signal, half_power_freq)
        exact = np.stack([exact_lowpass(col, half_power_freq) for col in signal.reshape(n, -1).T], axis=1)
        exact = exact.reshape(signal.shape)
        assert _gap(got, exact) <= 1e-14
        assert _gap(got, ref) <= _gap(ref, exact) + 1e-13


def _labels_by_scipy(heights, cfg):
    filtered = scipy_lowpass(heights, cfg.cutoff())
    return np.stack([_label_one_leg(col, cfg.single_min_backoff) for col in filtered.T], axis=1)


@pytest.mark.parametrize("gait", gaitsim.GAITS)
def test_labels_and_grf_contacts_equal_the_scipy_based_ones(gait, legs):
    cfg = LabelGenConfig(gait if gait in HALF_POWER_FREQ else "trot")
    grf = baselines.GrfConfig()
    for seed in range(3):
        sim = gaitsim.simulate(gaitsim.GaitSpec(gait=gait, seed=seed, jitter=0.05), 4.0, legs)
        frames = sim.encoder_frames
        heights = frames.pf.reshape(-1, 4, 3)[:, :, 2]
        assert np.array_equal(generate_labels(heights, cfg), _labels_by_scipy(heights, cfg))
        forces, _ = baselines.estimate_grf(frames.tau, frames.q.reshape(-1, 4, 3), legs)
        by_scipy = np.abs(scipy_lowpass(forces[:, :, 2], grf.cutoff)) > grf.threshold
        assert np.array_equal(baselines.grf_threshold_detect(frames, grf, legs), by_scipy)


IMPORT_CHECK = """
import sys
import numpy as np
from proprio import baselines, gaitsim
from proprio.kinematics import default_legs
from proprio.labelgen import LabelGenConfig, generate_labels, lowpass
out = lowpass(np.sin(np.arange(64.0)), 0.04)
assert out.shape == (64,) and np.isfinite(out).all()
sim = gaitsim.simulate(gaitsim.GaitSpec(), 2.0, default_legs())
assert generate_labels(sim.encoder_frames.pf.reshape(-1, 4, 3)[:, :, 2], LabelGenConfig()).any()
assert baselines.grf_threshold_detect(sim.encoder_frames, baselines.GrfConfig(), default_legs()).any()
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""


def test_low_pass_stages_load_no_scipy():
    # a fresh process, since this one has loaded scipy for the references
    src = os.path.dirname(os.path.dirname(os.path.abspath(proprio.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", IMPORT_CHECK], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


class TestLocalExtrema:
    def test_single_peak(self):
        mins, maxs = local_extrema([0.0, 1.0, 0.0])
        assert list(maxs) == [1] and list(mins) == []

    def test_monotone(self):
        mins, maxs = local_extrema(np.linspace(0, 1, 32))
        assert len(mins) == 0 and len(maxs) == 0

    def test_sine_three_periods(self):
        n_per = 100
        t = np.arange(3 * n_per)
        x = np.sin(2 * np.pi * t / n_per)
        mins, maxs = local_extrema(x)
        assert len(maxs) == 3 and len(mins) == 3
        for k, m in enumerate(maxs):
            assert abs(m - (25 + 100 * k)) <= 1
        for k, m in enumerate(mins):
            assert abs(m - (75 + 100 * k)) <= 1

    def test_plateau_first_index(self):
        mins, maxs = local_extrema([0.0, 1.0, 1.0, 1.0, 0.0])
        assert list(maxs) == [1]
        mins, maxs = local_extrema([1.0, 0.0, 0.0, 2.0])
        assert list(mins) == [1]

    def test_endpoints_never_reported(self):
        mins, maxs = local_extrema([5.0, 1.0, 2.0, 0.5, 4.0])
        assert 0 not in list(mins) + list(maxs)
        assert 4 not in list(mins) + list(maxs)

    def test_too_short(self):
        with pytest.raises(DataError, match="need at least 3 samples"):
            local_extrema([1.0, 2.0])

    def test_matches_reference_loop_on_plateau_heavy_signals(self):
        # small integer alphabets make long plateaus and plateaus at the ends
        rng = np.random.default_rng(11)
        for _ in range(1500):
            n = int(rng.integers(3, 41))
            signal = rng.integers(0, int(rng.integers(2, 5)), size=n).astype(float)
            got, want = local_extrema(signal), reference_local_extrema(signal)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w), signal

    def test_nan_diff_counts_as_a_fall(self):
        signal = [0.0, 1.0, np.nan, 2.0, 0.0, 1.0]
        for g, w in zip(local_extrema(signal), reference_local_extrema(signal)):
            assert np.array_equal(g, w)


class TestLabelOneLeg:
    def test_matches_reference_loop(self):
        # random walks give many extrema; small integer alphabets give plateaus,
        # peaks without minima and minima after the last peak
        rng = np.random.default_rng(12)
        for k in range(1600):
            n = int(rng.integers(3, 201))
            if k % 2:
                signal = rng.integers(0, int(rng.integers(2, 5)), size=n).astype(float)
            else:
                signal = np.cumsum(rng.normal(size=n))
            backoff = int(rng.integers(0, 41))
            got = _label_one_leg(signal, backoff)
            assert got.dtype == bool and np.array_equal(got, reference_label_one_leg(signal, backoff)), (signal, backoff)

    def test_one_window_per_minimum_before_the_last_peak(self):
        # minima at 2 and 5, peaks at 1, 3 and 7, and a minimum-free tail
        signal = np.array([0.0, 2.0, 1.0, 3.0, 0.5, 0.2, 0.8, 4.0, 1.0])
        assert list(np.flatnonzero(_label_one_leg(signal, 1))) == [1, 2, 4, 5]
        assert list(np.flatnonzero(_label_one_leg(signal, 9))) == [0, 1, 2, 3, 4, 5]
        assert not _label_one_leg(signal, -1).any()
        for backoff in (-3, -1, 0, 1, 2, 9):
            assert np.array_equal(_label_one_leg(signal, backoff), reference_label_one_leg(signal, backoff))


class TestGenerateLabels:
    def test_constant_signal_no_contacts(self):
        heights = np.zeros((200, 4))
        labels = generate_labels(heights, LabelGenConfig("trot"))
        assert not labels.any()

    def test_output_shape(self):
        rng = np.random.default_rng(0)
        heights = rng.normal(size=(300, 2))
        labels = generate_labels(heights, LabelGenConfig("trot"))
        assert labels.shape == (300, 2)

    def test_unknown_gait(self):
        with pytest.raises(ValueError):
            LabelGenConfig("bound").cutoff()

    def test_gait_cutoffs(self):
        assert LabelGenConfig("trot").cutoff() == 0.04
        assert LabelGenConfig("pronk").cutoff() == 0.08
        assert LabelGenConfig("gallop").cutoff() == 0.08
        assert LabelGenConfig("trot", half_power_freq=0.1).cutoff() == 0.1

    def test_offset_invariance(self):
        heights = _gait_heights(seed=2)[0][:, :1]
        a = generate_labels(heights, LabelGenConfig("trot"))
        b = generate_labels(heights + 0.37, LabelGenConfig("trot"))
        assert np.array_equal(a, b)

    def test_interval_contains_minimum(self):
        heights = _gait_heights(seed=3)[0][:, :1]
        cfg = LabelGenConfig("trot")
        labels = generate_labels(heights, cfg)[:, 0]
        filt = lowpass(heights[:, 0], cfg.cutoff())
        mins, _ = local_extrema(filt)
        # every labeled contact interval holds at least one filtered minimum
        idx = np.flatnonzero(labels)
        segments = np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)
        for seg in segments:
            assert np.any((mins >= seg[0]) & (mins <= seg[-1]))


def _gait_heights(seed=0, duration=20.0, legs=None, **kw):
    from proprio.kinematics import default_legs

    legs = legs or default_legs()
    spec = gaitsim.GaitSpec(gait="trot", seed=seed, **kw)
    sim = gaitsim.simulate(spec, duration, legs)
    return sim.encoder_frames.pf.reshape(-1, 4, 3)[:, :, 2], sim


class TestAgainstSimulator:
    def test_agreement_without_bounce(self, legs):
        # clean trapezoid-like stance/swing wave: soft landing, no rattle
        heights, sim = _gait_heights(seed=4, legs=legs, bounce_rattle_ratio=0.0)
        labels = generate_labels(heights, LabelGenConfig("trot"))
        gt = sim.contacts_encoder
        assert (labels == gt).mean() >= 0.98
        # interior mismatches sit right at the transitions (the first and
        # last gait cycle see algorithm boundary effects and are skipped)
        period = int(500 * 1.0)
        for leg in range(4):
            sl = slice(period, len(gt) - period)
            mism = np.flatnonzero(labels[sl, leg] != gt[sl, leg]) + period
            if len(mism) == 0:
                continue
            trans = np.flatnonzero(np.diff(gt[:, leg].astype(int))) + 1
            dist = np.min(np.abs(mism[:, None] - trans[None, :]), axis=1)
            assert np.all(dist <= 10)

    def test_bounce_rejection(self, legs):
        heights, sim = _gait_heights(seed=5, legs=legs)  # bounce on by default
        labels = generate_labels(heights, LabelGenConfig("trot"))
        gt = sim.contacts_encoder
        assert (labels == gt).mean() >= 0.98
        for leg in range(4):
            label_rises = np.flatnonzero(labels[1:, leg] & ~labels[:-1, leg]) + 1
            true_rises = np.flatnonzero(gt[1:, leg] & ~gt[:-1, leg]) + 1
            # no stance acquires a second rising edge
            assert len(label_rises) <= len(true_rises)
            for r in label_rises:
                assert np.min(np.abs(true_rises - r)) <= 40

    def test_hand_constructed_bounce_trace(self):
        # one synthetic stride, morphology traced by hand: swing descent
        # with a firm landing speed, compression + bounce wiggle + floor
        # texture during stance, swing rise. The bounce's false extrema
        # must not split the stance or start a separate contact.
        fs = 500.0
        td, lo = 0.5, 1.3
        t = np.arange(int(1.5 * fs)) / fs  # ends at the next swing apex
        z = np.empty_like(t)
        # descent: sine hump until the knee, then a straight ramp into td
        knee_t, knee_z = td - 0.1, 0.03
        swing = t < td
        hump = 0.06 * np.sin(np.pi * t[swing] / td) ** 2
        ramp = knee_z + (0.008 - knee_z) * (t[swing] - knee_t) / (td - knee_t)
        z[swing] = np.where(t[swing] < knee_t, np.maximum(hump, knee_z), ramp)
        stance = (t >= td) & (t < lo)
        u = t[stance] - td
        z[stance] = (
            0.008 * np.clip(1 - u / 0.05, 0, None) ** 2
            + 0.006 * np.sin(2 * np.pi * u / 0.012) * np.exp(-u / 0.04)
            - 0.0004 * np.cos(2 * np.pi * 18 * (u - 0.06))
        )
        rise = t >= lo
        z[rise] = 0.06 * np.sin(np.pi * np.clip((t[rise] - lo) / 0.4, 0, 1)) ** 2
        labels = generate_labels(z[:, None], LabelGenConfig("trot"))[:, 0]
        rises = np.flatnonzero(labels[1:] & ~labels[:-1]) + 1
        assert len(rises) == 1  # exactly one rising edge for the stance
        assert abs(rises[0] - int(td * fs)) <= 20
        # the raw signal does contain the bounce's false extrema
        _, raw_maxs = local_extrema(z)
        assert np.any((raw_maxs > td * fs) & (raw_maxs < td * fs + 30))

    def test_filter_idempotence_on_labels(self, legs):
        heights, _ = _gait_heights(seed=6, legs=legs)
        cfg = LabelGenConfig("trot")
        once = generate_labels(heights, cfg)
        filtered = np.stack([lowpass(heights[:, i], cfg.cutoff()) for i in range(4)], axis=1)
        twice = generate_labels(filtered, cfg)
        assert (once != twice).mean() < 0.01

    def test_runtime(self, legs):
        import time

        heights, _ = _gait_heights(seed=7, duration=100.0, legs=legs)
        t0 = time.time()
        generate_labels(heights, LabelGenConfig("trot"))
        assert time.time() - t0 < 5.0
