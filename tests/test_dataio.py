import re

import numpy as np
import pytest

from proprio import dataio
from proprio.formats import DataError
from proprio.dataio import (
    ChecksumFailureError,
    EmptyStreamError,
    FrameSequence,
    SchemaMismatchError,
    bool_to_codes,
    codes_to_bool,
    normalize_window,
    split_dataset,
    upsample,
    window_set,
)


def random_frames(rng, n, rate=500.0, with_tau=True, with_gt=True):
    return FrameSequence(
        t=np.arange(n) / rate,
        q=rng.normal(size=(n, 12)),
        qd=rng.normal(size=(n, 12)),
        acc=rng.normal(size=(n, 3)),
        gyro=rng.normal(size=(n, 3)),
        pf=rng.normal(size=(n, 12)),
        vf=rng.normal(size=(n, 12)),
        tau=rng.normal(size=(n, 12)) if with_tau else None,
        gt=rng.integers(0, 16, size=n) if with_gt else None,
    )


class TestFrameRows:
    @pytest.mark.parametrize("optionals", [True, False], ids=["tau-and-gt", "no-optionals"])
    def test_rows_slice_every_column(self, optionals):
        frames = random_frames(np.random.default_rng(60), 10, with_tau=optionals, with_gt=optionals)
        for index in (slice(3, None), np.array([0, 4, 9])):
            sub = frames.rows(index)
            for name in ("t", "q", "qd", "acc", "gyro", "pf", "vf", "tau", "gt"):
                col = getattr(frames, name)
                if col is None:
                    assert getattr(sub, name) is None
                else:
                    assert np.array_equal(getattr(sub, name), col[index])


class TestContactEncoding:
    def test_paper_example(self):
        assert bool_to_codes([[0, 1, 1, 0]]).tolist() == [6]

    def test_extremes(self):
        assert bool_to_codes([[0, 0, 0, 0], [1, 1, 1, 1]]).tolist() == [0, 15]

    @pytest.mark.parametrize("num_legs", [2, 4])
    def test_roundtrip_exhaustive(self, num_legs):
        codes = np.arange(1 << num_legs)
        for code, legs in zip(codes, codes_to_bool(codes, num_legs)):
            assert bool_to_codes(legs[None, :]).tolist() == [code]

    def test_out_of_range(self):
        with pytest.raises(DataError, match=r"contact code outside range \[0, 15\]"):
            codes_to_bool([16], 4)
        with pytest.raises(DataError, match=r"contact code outside range \[0, 15\]"):
            codes_to_bool([-1], 4)

    def test_contact_state(self):
        # RF is the most significant bit: code 6 is 0110
        legs = codes_to_bool([6], 4)[0]
        assert legs.tolist() == [False, True, True, False]
        assert bool_to_codes(legs[None, :]).tolist() == [6]

    def test_matrix_helpers(self):
        codes = np.array([0, 6, 15])
        mat = dataio.codes_to_bool(codes, 4)
        assert np.array_equal(dataio.bool_to_codes(mat), codes)


class TestHold:
    T = np.array([0.0, 0.002, 0.004, 0.006])

    def test_equal_timestamp_picks_that_sample(self):
        assert np.array_equal(dataio.hold(self.T, self.T), [0, 1, 2, 3])

    def test_query_half_a_nanosecond_early_picks_the_sample(self):
        assert np.array_equal(dataio.hold(self.T, self.T[1:] - 0.5e-9), [1, 2, 3])
        assert np.array_equal(dataio.hold(self.T, self.T[1:] - 2e-9), [0, 1, 2])

    def test_between_samples_picks_the_earlier(self):
        assert np.array_equal(dataio.hold(self.T, [0.001, 0.0039, 0.005]), [0, 1, 2])

    def test_queries_outside_the_source_are_clipped(self):
        assert np.array_equal(dataio.hold(self.T, [-1.0, -1e-6, 0.007, 10.0]), [0, 0, 3, 3])


class TestUpsample:
    def test_identity_rate(self):
        rng = np.random.default_rng(0)
        frames = random_frames(rng, 50)
        up = upsample(frames, 500.0)
        np.testing.assert_allclose(up.t, frames.t, atol=1e-12)
        np.testing.assert_allclose(up.q, frames.q, atol=1e-12)

    def test_linear_signal_exact(self):
        rng = np.random.default_rng(1)
        frames = random_frames(rng, 100, rate=500.0)
        frames.q = np.tile(frames.t[:, None], (1, 12))  # q(t) = t
        up = upsample(frames, 1000.0)
        np.testing.assert_allclose(up.q, np.tile(up.t[:, None], (1, 12)), atol=1e-12)

    def test_sine_interpolation_bound(self):
        # linear interpolation error bound: (2 pi f)^2 / (8 fs^2)
        n = 501
        t = np.arange(n) / 500.0
        rng = np.random.default_rng(2)
        frames = random_frames(rng, n, rate=500.0)
        frames.q = np.tile(np.sin(2 * np.pi * 5 * t)[:, None], (1, 12))
        up = upsample(frames, 1000.0)
        truth = np.sin(2 * np.pi * 5 * up.t)
        bound = (2 * np.pi * 5) ** 2 / (8 * 500.0**2) + 1e-9
        assert np.max(np.abs(up.q[:, 0] - truth)) < bound

    def test_preserves_original_samples(self):
        rng = np.random.default_rng(3)
        frames = random_frames(rng, 40)
        up = upsample(frames, 1000.0)
        np.testing.assert_allclose(up.q[::2], frames.q, atol=1e-12)

    def test_gt_zero_order_hold(self):
        rng = np.random.default_rng(4)
        frames = random_frames(rng, 10)
        frames.gt = np.arange(10)
        up = upsample(frames, 1000.0)
        assert np.array_equal(up.gt[:4], [0, 0, 1, 1])

    def test_no_extrapolation(self):
        rng = np.random.default_rng(5)
        frames = random_frames(rng, 20)
        up = upsample(frames, 1000.0)
        assert up.t[-1] <= frames.t[-1] + 1e-12

    def test_empty_stream(self):
        rng = np.random.default_rng(6)
        frames = random_frames(rng, 1)
        frames.t = np.array([])
        frames.q = np.zeros((0, 12))
        with pytest.raises(EmptyStreamError):
            upsample(frames, 1000.0)

    def test_non_monotone(self):
        rng = np.random.default_rng(7)
        frames = random_frames(rng, 10)
        frames.t[5] = frames.t[3]
        with pytest.raises(SchemaMismatchError):
            upsample(frames, 1000.0)


class TestWindows:
    def test_two_row_window(self):
        rng = np.random.default_rng(8)
        frames = random_frames(rng, 3)
        ws = window_set(frames, 2)
        np.testing.assert_array_equal(ws.batch([1])[0], frames.features()[1:3])
        assert ws.labels[1] == frames.gt[2]

    def test_first_valid_window(self):
        rng = np.random.default_rng(9)
        frames = random_frames(rng, 10)
        ws = window_set(frames, 5)
        assert ws.end_indices[0] == 4
        np.testing.assert_array_equal(ws.batch([0])[0], frames.features()[0:5])
        with pytest.raises(DataError, match="4 frames cannot hold a window of 5"):
            window_set(frames.rows(slice(0, 4)), 5)

    def test_sliding_overlap(self):
        rng = np.random.default_rng(10)
        frames = random_frames(rng, 12)
        a, b = window_set(frames, 4).batch([3, 4])
        np.testing.assert_array_equal(a[1:], b[:-1])

    def test_window_set_batch(self):
        rng = np.random.default_rng(11)
        frames = random_frames(rng, 30)
        ws = window_set(frames, 5, stride=3)
        batch = ws.batch([0, 2])
        feats = frames.features()
        np.testing.assert_array_equal(batch[0], feats[0:5])
        np.testing.assert_array_equal(batch[1], feats[6:11])

    @pytest.mark.parametrize("stride", [0, -1])
    def test_stride_below_one_rejected(self, stride):
        frames = random_frames(np.random.default_rng(12), 30)
        with pytest.raises(ValueError, match="stride"):
            window_set(frames, 5, stride)

    def test_stride_beyond_the_frames_rejected(self):
        frames = random_frames(np.random.default_rng(12), 30)
        assert len(window_set(frames, 5, 30)) == 1
        with pytest.raises(DataError, match=f"window stride {10**20} exceeds the 30 frames"):
            window_set(frames, 5, 10**20)


def fancy_gather(windows, idx):
    """Window gather by one (B, w) row-index array, the strided batch's reference."""
    ends = windows.end_indices[np.asarray(idx, dtype=np.int64)]
    return windows.features[ends[:, None] + np.arange(-windows.w + 1, 1)[None, :]]


def merged_window_set(seed, lengths, w):
    """Several sequences' windows over one stacked feature matrix, as the acceptance suite builds them."""
    rng = np.random.default_rng(seed)
    sets = [window_set(random_frames(rng, n), w, stride=3) for n in lengths]
    offsets = np.cumsum([0] + [ws.features.shape[0] for ws in sets[:-1]])
    ends = np.concatenate([ws.end_indices + off for ws, off in zip(sets, offsets)])
    return dataio.WindowSet(np.vstack([ws.features for ws in sets]), ends, None, w)


class TestStridedBatch:
    @pytest.mark.parametrize(
        "order", ["contiguous", "shuffled", "repeated", "empty"],
    )
    def test_matches_fancy_index_gather(self, order):
        rng = np.random.default_rng(15)
        ws = window_set(random_frames(rng, 60), 9)
        idx = {
            "contiguous": np.arange(10, 30),
            "shuffled": rng.permutation(len(ws)),
            "repeated": np.array([4, 4, 0, 51, 4, 51]),
            "empty": np.array([], dtype=np.int64),
        }[order]
        got = ws.batch(idx)
        want = fancy_gather(ws, idx)
        assert got.shape == want.shape == (len(idx), 9, 54)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_result_is_a_fresh_writable_copy(self):
        ws = window_set(random_frames(np.random.default_rng(16), 20), 5)
        before = ws.features.copy()
        batch = ws.batch([0, 1])
        batch[:] = -1.0
        assert np.array_equal(ws.features, before)

    def test_subset_and_split(self):
        ws = window_set(random_frames(np.random.default_rng(17), 80), 12, stride=2)
        for part in (ws.subset([5, 1, 9]), *dataio.split_dataset(ws, seed=3)):
            idx = np.arange(len(part))[::-1]
            assert np.array_equal(part.batch(idx), fancy_gather(part, idx))

    def test_multi_sequence_set(self):
        ws = merged_window_set(18, (40, 25, 57), 10)
        idx = np.random.default_rng(19).permutation(len(ws))
        assert np.array_equal(ws.batch(idx), fancy_gather(ws, idx))
        # the last window of the first sequence ends on its last row
        assert np.array_equal(ws.batch([10])[0], ws.features[30:40])

    @pytest.mark.parametrize("end", [6, 20])
    def test_window_outside_features_rejected(self, end):
        # a window ending at row 6 of w = 8 would start before row 0
        with pytest.raises(ValueError, match=r"\[7, 19\]"):
            dataio.WindowSet(np.zeros((20, 54)), np.array([9, end]), None, 8)

    def test_fewer_rows_than_window(self):
        ws = dataio.WindowSet(np.zeros((5, 54)), np.array([], dtype=np.int64), None, 8)
        none = np.array([], dtype=np.int64)
        assert ws.batch(none).shape == fancy_gather(ws, none).shape == (0, 8, 54)


class TestNormalize:
    def test_constant_channel_zeroed(self):
        data = np.ones((10, 54)) * 3.7
        assert np.array_equal(normalize_window(data), np.zeros((10, 54)))

    def test_mean_and_std(self):
        rng = np.random.default_rng(12)
        data = rng.normal(2.0, 5.0, size=(64, 54))
        out = normalize_window(data)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-10)

    def test_scale_invariance(self):
        rng = np.random.default_rng(13)
        data = rng.normal(size=(32, 54))
        scaled = data.copy()
        scaled[:, 7] *= 10.0
        np.testing.assert_allclose(normalize_window(scaled), normalize_window(data), atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(14)
        data = rng.normal(size=(48, 54))
        once = normalize_window(data)
        np.testing.assert_allclose(normalize_window(once), once, atol=1e-9)

    def test_batch_constant_channel_exact_zeros(self):
        data = np.random.default_rng(20).normal(size=(6, 40, 54))
        data[:, :, 3] = 0.1  # a sum of 40 copies of 0.1 divided by 40 is not exactly 0.1
        data[2, :, 9] = -7.3e5
        out = normalize_window(data)
        assert np.all(out[:, :, 3] == 0.0) and np.all(out[2, :, 9] == 0.0)
        assert np.count_nonzero(out[:, :, 3:4] != 0.0) == 0
        np.testing.assert_allclose(out[:, :, 10].std(axis=1), 1.0, atol=1e-12)

    def test_batch_large_offset_channel(self):
        # 1e6 plus a 1e-3 spread: one-pass E[x^2] - E[x]^2 loses every digit here
        rng = np.random.default_rng(21)
        data = rng.normal(size=(5, 150, 54))
        data[:, :, 4] = 1e6 + 1e-3 * rng.normal(size=(5, 150))
        centred = data - data.mean(axis=1, keepdims=True)
        want = centred / np.sqrt((centred * centred).sum(axis=1, keepdims=True) / 150)
        out = normalize_window(data)
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out[:, :, 4].std(axis=1), 1.0, atol=1e-12)

    def test_batch_matches_mean_std_divide(self):
        rng = np.random.default_rng(22)
        data = rng.normal(3.0, 50.0, size=(8, 150, 54))
        std = data.std(axis=1, keepdims=True)
        want = (data - data.mean(axis=1, keepdims=True)) / std
        np.testing.assert_allclose(normalize_window(data), want, rtol=0, atol=9e-16)

    def test_batch_nan_stays_nan(self):
        data = np.random.default_rng(23).normal(size=(3, 20, 54))
        data[1, 7, 2] = np.nan
        out = normalize_window(data)
        assert np.all(np.isnan(out[1, :, 2]))
        assert np.isfinite(np.delete(out[1], 2, axis=1)).all() and np.isfinite(out[[0, 2]]).all()


class TestDatasetFiles:
    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(15)
        frames = random_frames(rng, 25)
        path = tmp_path / "d.csv"
        dataio.write_dataset(frames, path)
        back = dataio.read_dataset(path)
        np.testing.assert_array_equal(back.t, frames.t)
        np.testing.assert_array_equal(back.q, frames.q)
        np.testing.assert_array_equal(back.tau, frames.tau)
        np.testing.assert_array_equal(back.gt, frames.gt)

    def test_csv_without_optionals(self, tmp_path):
        rng = np.random.default_rng(16)
        frames = random_frames(rng, 5, with_tau=False, with_gt=False)
        path = tmp_path / "d.csv"
        dataio.write_dataset(frames, path)
        back = dataio.read_dataset(path)
        assert back.tau is None and back.gt is None

    def test_binary_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        frames = random_frames(rng, 40)
        path = tmp_path / "d.pcds"
        dataio.write_dataset(frames, path)
        back = dataio.read_dataset(path)
        for name in ("t", "q", "qd", "acc", "gyro", "pf", "vf", "tau", "gt"):
            assert np.array_equal(getattr(back, name), getattr(frames, name)), name

    def test_binary_and_csv_agree(self, tmp_path):
        rng = np.random.default_rng(18)
        frames = random_frames(rng, 10)
        dataio.write_dataset(frames, tmp_path / "d.csv")
        dataio.write_dataset(frames, tmp_path / "d.pcds")
        a = dataio.read_dataset(tmp_path / "d.csv")
        b = dataio.read_dataset(tmp_path / "d.pcds")
        np.testing.assert_array_equal(a.q, b.q)
        np.testing.assert_array_equal(a.t, b.t)

    def test_truncated_binary(self, tmp_path):
        rng = np.random.default_rng(19)
        frames = random_frames(rng, 10)
        path = tmp_path / "d.pcds"
        dataio.write_dataset(frames, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ChecksumFailureError):
            dataio.read_dataset(path)

    def test_corrupted_binary(self, tmp_path):
        rng = np.random.default_rng(20)
        frames = random_frames(rng, 10)
        path = tmp_path / "d.pcds"
        dataio.write_dataset(frames, path)
        blob = bytearray(path.read_bytes())
        blob[100] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumFailureError):
            dataio.read_dataset(path)

    def test_csv_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        cols = dataio.CSV_COLUMNS[:-15]  # 53 columns
        path.write_text(",".join(cols) + "\n" + ",".join(["0"] * len(cols)) + "\n")
        with pytest.raises(SchemaMismatchError, match=str(len(cols))):
            dataio.read_dataset(path)

    @pytest.mark.parametrize("ext, where", [(".csv", ":6: "), (".pcds", ": frame 4: ")])
    @pytest.mark.parametrize("fault", ["swapped", "repeated"])
    def test_timestamps_must_increase(self, tmp_path, ext, where, fault):
        frames = random_frames(np.random.default_rng(21), 8)
        if fault == "swapped":
            frames.t[[3, 4]] = frames.t[[4, 3]]
        else:
            frames.t[4] = frames.t[3]
        path = tmp_path / f"d{ext}"
        dataio.write_dataset(frames, path)
        with pytest.raises(SchemaMismatchError) as info:
            dataio.read_dataset(path)
        assert str(info.value).startswith(f"{path}{where}")

    def test_contacts_roundtrip(self, tmp_path):
        t = np.arange(5) * 0.1
        codes = np.array([0, 6, 15, 9, 3])
        path = tmp_path / "c.csv"
        dataio.write_contacts(path, t, codes)
        t2, c2 = dataio.read_contacts(path)
        np.testing.assert_array_equal(t2, t)
        np.testing.assert_array_equal(c2, codes)

    @pytest.mark.parametrize("code", [16.0, -1.0, 2.5])
    def test_contacts_bad_code_names_row(self, tmp_path, code):
        path = tmp_path / "c.csv"
        dataio.write_contacts(path, [0.0, 0.1, 0.2], [6, 0, 9])
        path.write_text(path.read_text().replace("0.1,0", f"0.1,{code!r}"))
        message = re.escape(f"{path}:3: bad contact code {code!r}, want an integer in [0, 15]")
        with pytest.raises(SchemaMismatchError, match=message):
            dataio.read_contacts(path)

    @pytest.mark.parametrize("ext", [".csv", ".pcds"])
    def test_dataset_code_16_names_row(self, tmp_path, ext):
        frames = random_frames(np.random.default_rng(2), 6)
        frames.gt[3] = 16
        path = tmp_path / f"d{ext}"
        dataio.write_dataset(frames, path)
        where = f"{path}:5" if ext == ".csv" else f"{path}: frame 3"
        with pytest.raises(SchemaMismatchError, match=re.escape(f"{where}: bad contact code 16.0")):
            dataio.read_dataset(path)


class TestSplit:
    def _windows(self, n):
        rng = np.random.default_rng(21)
        frames = random_frames(rng, n + 10)
        return window_set(frames, 8, stride=1).subset(np.arange(n))

    def test_counts_70_15_15(self):
        tr, va, te = split_dataset(self._windows(100), seed=0)
        assert (len(tr), len(va), len(te)) == (70, 15, 15)

    def test_deterministic(self):
        a = split_dataset(self._windows(57), seed=9)
        b = split_dataset(self._windows(57), seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x.end_indices, y.end_indices)

    def test_disjoint_exhaustive(self):
        windows = self._windows(83)
        tr, va, te = split_dataset(windows, seed=4)
        merged = np.concatenate([tr.end_indices, va.end_indices, te.end_indices])
        assert sorted(merged) == sorted(windows.end_indices)
        assert len(set(merged)) == len(merged)

    def test_too_few(self):
        with pytest.raises(DataError, match="need at least 10 windows, got 9"):
            split_dataset(self._windows(9), seed=0)


def test_upsample_rejects_downsampling():
    rng = np.random.default_rng(30)
    frames = random_frames(rng, 30, rate=500.0)
    with pytest.raises(ValueError):
        upsample(frames, 100.0)
