import numpy as np
import pytest

from proprio import dataio
from proprio.dataio import (
    ChecksumFailureError,
    ContactState,
    EmptyStreamError,
    FrameSequence,
    InsufficientHistoryError,
    NonMonotoneTimestampsError,
    OutOfRangeError,
    SchemaMismatchError,
    TooFewWindowsError,
    decode_contact,
    encode_contact,
    make_window,
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


class TestContactEncoding:
    def test_paper_example(self):
        assert encode_contact([0, 1, 1, 0]) == 6

    def test_extremes(self):
        assert encode_contact([0, 0, 0, 0]) == 0
        assert encode_contact([1, 1, 1, 1]) == 15

    @pytest.mark.parametrize("num_legs", [2, 4])
    def test_roundtrip_exhaustive(self, num_legs):
        for code in range(1 << num_legs):
            assert encode_contact(decode_contact(code, num_legs)) == code

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            decode_contact(16, 4)
        with pytest.raises(OutOfRangeError):
            decode_contact(-1, 4)

    def test_contact_state(self):
        state = ContactState.from_code(6, 4)
        assert state.legs == (False, True, True, False)
        assert state.code == 6

    def test_matrix_helpers(self):
        codes = np.array([0, 6, 15])
        mat = dataio.codes_to_bool(codes, 4)
        assert np.array_equal(dataio.bool_to_codes(mat), codes)


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
        with pytest.raises(NonMonotoneTimestampsError):
            upsample(frames, 1000.0)


class TestWindows:
    def test_two_row_window(self):
        rng = np.random.default_rng(8)
        frames = random_frames(rng, 3)
        win = make_window(frames, 2, 2)
        np.testing.assert_array_equal(win.data, frames.features()[1:3])
        assert win.label == frames.gt[2]

    def test_first_valid_window(self):
        rng = np.random.default_rng(9)
        frames = random_frames(rng, 10)
        win = make_window(frames, 4, 5)
        np.testing.assert_array_equal(win.data, frames.features()[0:5])
        with pytest.raises(InsufficientHistoryError):
            make_window(frames, 3, 5)

    def test_sliding_overlap(self):
        rng = np.random.default_rng(10)
        frames = random_frames(rng, 12)
        a = make_window(frames, 6, 4).data
        b = make_window(frames, 7, 4).data
        np.testing.assert_array_equal(a[1:], b[:-1])

    def test_window_set_batch(self):
        rng = np.random.default_rng(11)
        frames = random_frames(rng, 30)
        ws = window_set(frames, 5, stride=3)
        batch = ws.batch([0, 2])
        np.testing.assert_array_equal(batch[0], ws[0].data)
        np.testing.assert_array_equal(batch[1], ws[2].data)


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
        with pytest.raises(TooFewWindowsError):
            split_dataset(self._windows(9), seed=0)


def test_upsample_rejects_downsampling():
    rng = np.random.default_rng(30)
    frames = random_frames(rng, 30, rate=500.0)
    with pytest.raises(ValueError):
        upsample(frames, 100.0)
