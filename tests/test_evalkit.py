import numpy as np
import pytest

from proprio import evalkit
from proprio.formats import DataError
from proprio.evalkit import (
    Trajectory,
    align_trajectories,
    classification_metrics,
    trajectory_metrics,
)


def rotz(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rich_curve(n=500, t_end=10.0):
    t = np.linspace(0.0, t_end, n)
    p = np.stack([np.sin(0.7 * t) + 0.2 * t, 0.5 * np.cos(0.5 * t), 0.05 * np.sin(1.3 * t)], axis=1)
    return Trajectory(t, p)


class TestClassificationMetrics:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(0)
        gt = rng.random((100, 4)) > 0.5
        rep = classification_metrics(gt, gt)
        assert rep.full_state_accuracy == 1.0
        assert rep.leg_average_accuracy == 1.0
        assert rep.average_fpr == 0.0 and rep.average_fnr == 0.0

    def test_all_negative_absent_fnr(self):
        gt = np.zeros((50, 4), dtype=bool)
        rep = classification_metrics(np.zeros((50, 4), dtype=bool), gt)
        assert rep.average_fpr == 0.0
        assert rep.average_fnr is None
        assert all(x is None for x in rep.leg_fnr)

    def test_hand_built_confusion(self):
        # leg 0: tp=3 fp=2 tn=4 fn=1 over 10 frames
        gt = np.zeros((10, 4), dtype=bool)
        pred = np.zeros((10, 4), dtype=bool)
        gt[:4, 0] = True
        pred[:3, 0] = True  # 3 tp, 1 fn
        pred[4:6, 0] = True  # 2 fp -> 4 tn
        rep = classification_metrics(pred, gt)
        c = rep.counts[0]
        assert (c.tp, c.fp, c.tn, c.fn) == (3, 2, 4, 1)
        assert rep.leg_fpr[0] == 2 / 6
        assert rep.leg_fnr[0] == 1 / 4
        assert rep.leg_accuracy[0] == 7 / 10

    def test_full_state_at_most_min_leg(self):
        rng = np.random.default_rng(1)
        gt = rng.random((400, 4)) > 0.5
        pred = gt.copy()
        flip = rng.random((400, 4)) < 0.07
        pred ^= flip
        rep = classification_metrics(pred, gt)
        assert rep.full_state_accuracy <= rep.leg_accuracy.min() + 1e-12

    def test_duplication_invariance(self):
        rng = np.random.default_rng(2)
        gt = rng.random((64, 4)) > 0.4
        pred = gt ^ (rng.random((64, 4)) < 0.1)
        rep1 = classification_metrics(pred, gt)
        rep2 = classification_metrics(np.vstack([pred, pred]), np.vstack([gt, gt]))
        assert rep1.average_fpr == rep2.average_fpr
        assert rep1.average_fnr == rep2.average_fnr
        assert rep1.full_state_accuracy == rep2.full_state_accuracy

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match=r"shape mismatch: \(5, 4\) vs \(6, 4\)"):
            classification_metrics(np.zeros((5, 4), dtype=bool), np.zeros((6, 4), dtype=bool))

    def test_counts_sum_to_frames(self):
        rng = np.random.default_rng(3)
        gt = rng.random((77, 4)) > 0.5
        pred = rng.random((77, 4)) > 0.5
        rep = classification_metrics(pred, gt)
        for c in rep.counts:
            assert c.tp + c.fp + c.tn + c.fn == 77


class TestAlignment:
    def test_identity(self):
        gt = rich_curve()
        aligned, (rot, trans) = align_trajectories(gt, gt)
        np.testing.assert_allclose(rot, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(trans, 0.0, atol=1e-9)
        assert trajectory_metrics(aligned, gt).rmse < 1e-12

    def test_recovers_yaw_and_shift(self):
        gt = rich_curve()
        gmat = rotz(np.deg2rad(30.0))
        est = Trajectory(gt.t, gt.p @ gmat.T + np.array([1.0, -2.0, 0.3]))
        aligned, _ = align_trajectories(est, gt)
        assert trajectory_metrics(aligned, gt).rmse < 1e-9

    def test_linear_drift_after_initial_alignment(self):
        # est equals gt for the first 5 s, then drifts at 1 cm/s for 10 s
        t = np.linspace(0.0, 15.0, 1501)
        base = np.stack([np.sin(0.9 * t) + 0.1 * t, np.cos(0.4 * t), 0.02 * t], axis=1)
        drift_dir = np.array([1.0, 0.0, 0.0])
        ramp = np.clip(t - 5.0, 0.0, None) * 0.01
        est = Trajectory(t, base + ramp[:, None] * drift_dir)
        gt = Trajectory(t, base)
        head = slice(0, 500)
        _, (rot, trans) = align_trajectories(
            Trajectory(t[head], est.p[head]), Trajectory(t[head], gt.p[head])
        )
        corrected = Trajectory(t, est.p @ rot.T + trans)
        rep = trajectory_metrics(corrected, gt)
        assert abs(rep.final_drift - 0.1) < 1e-6

    def test_never_increases_rmse(self):
        rng = np.random.default_rng(4)
        gt = rich_curve()
        est = Trajectory(gt.t, gt.p + rng.normal(0, 0.05, gt.p.shape))
        before = trajectory_metrics(est, gt).rmse
        aligned, _ = align_trajectories(est, gt)
        assert trajectory_metrics(aligned, gt).rmse <= before + 1e-12

    def test_no_overlap(self):
        a = rich_curve()
        b = Trajectory(a.t + 1000.0, a.p)
        with pytest.raises(DataError, match="no timestamp overlap"):
            align_trajectories(a, b)


    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_tolerance_finite_non_negative(self, tol):
        gt = rich_curve()
        for score in (align_trajectories, trajectory_metrics):
            with pytest.raises(ValueError, match=f"association tolerance must be finite and non-negative, got {tol}"):
                score(gt, gt, tol)


class TestTrajectoryMetrics:
    def test_empty_estimate(self):
        gt = rich_curve()
        with pytest.raises(DataError, match="need poses on both trajectories"):
            trajectory_metrics(Trajectory(np.array([]), np.zeros((0, 3))), gt)

    def test_constant_offset(self):
        gt = rich_curve()
        offset = np.array([0.3, -0.4, 0.12])
        est = Trajectory(gt.t, gt.p + offset)
        rep = trajectory_metrics(est, gt)
        np.testing.assert_allclose(rep.rmse, np.linalg.norm(offset), atol=1e-12)
        aligned, _ = align_trajectories(est, gt)
        assert trajectory_metrics(aligned, gt).rmse < 1e-9

    def test_random_perturbation_rmse_band(self):
        rng = np.random.default_rng(5)
        n = 10_000
        t = np.linspace(0.0, 100.0, n)
        line = np.stack([t, np.zeros_like(t), np.zeros_like(t)], axis=1)
        gt = Trajectory(t, line)
        sigma = 0.02
        est = Trajectory(t, line + rng.normal(0.0, sigma, (n, 3)))
        rep = trajectory_metrics(est, gt, tol=0.1)
        expected = sigma * np.sqrt(3.0)
        assert abs(rep.rmse - expected) < 3.0 * sigma / np.sqrt(n)

    def test_drift_percentage(self):
        t = np.linspace(0.0, 10.0, 101)
        gt = Trajectory(t, np.stack([t, np.zeros_like(t), np.zeros_like(t)], axis=1))
        est = Trajectory(t, gt.p + np.array([0.0, 0.2, 0.0]) * (t / 10.0)[:, None])
        rep = trajectory_metrics(est, gt)
        np.testing.assert_allclose(rep.path_length, 10.0, atol=1e-12)
        np.testing.assert_allclose(rep.final_drift_pct, 2.0, atol=1e-9)


class TestExport:
    def test_classification_csv_golden(self, tmp_path):
        gt = np.zeros((10, 4), dtype=bool)
        gt[:5] = True
        rep = classification_metrics(gt, gt)
        path = tmp_path / "c.csv"
        evalkit.write_classification_csv(path, {"run": rep})
        expected = (
            "name,frames,full_state_acc,acc_RF,acc_LF,acc_RH,acc_LH,leg_avg_acc,"
            "fpr_RF,fpr_LF,fpr_RH,fpr_LH,avg_fpr,fnr_RF,fnr_LF,fnr_RH,fnr_LH,avg_fnr\n"
            "run,10,1.000000,1.000000,1.000000,1.000000,1.000000,1.000000,"
            "0.000000,0.000000,0.000000,0.000000,0.000000,"
            "0.000000,0.000000,0.000000,0.000000,0.000000\n"
        )
        assert path.read_text() == expected

    def test_absent_rates_serialized_empty(self, tmp_path):
        gt = np.zeros((10, 4), dtype=bool)
        rep = classification_metrics(gt, gt)
        path = tmp_path / "c.csv"
        evalkit.write_classification_csv(path, {"air": rep})
        row = path.read_text().splitlines()[1].split(",")
        assert row[-1] == ""  # absent FNR stays empty, never 0

    def test_svg_one_polyline_per_series(self, tmp_path):
        trajs = {"a": rich_curve(), "b": rich_curve(200)}
        path = tmp_path / "xy.svg"
        evalkit.write_trajectory_svg(path, trajs)
        text = path.read_text()
        assert text.count("<polyline") == 2
        assert text.startswith("<svg")

    def test_axes_svg_scales_each_panel_to_shared_bounds(self, tmp_path):
        # an estimate p and a ground truth 3p + 5 must not draw the same polyline
        est = rich_curve(50)
        gt = Trajectory(est.t, 3.0 * est.p + 5.0)
        path = tmp_path / "axes.svg"
        evalkit.write_axes_svg(path, {"estimate": est, "ground_truth": gt})
        lines = [line for line in path.read_text().splitlines() if line.startswith("<polyline")]
        assert len(lines) == 6
        for axis in range(3):
            y0, h = axis * 160 + 15.0, 130.0
            lo = min(est.p[:, axis].min(), gt.p[:, axis].min())
            hi = max(est.p[:, axis].max(), gt.p[:, axis].max())
            for line, traj in zip(lines[2 * axis : 2 * axis + 2], (est, gt)):
                coords = line.split('points="')[1].split('"')[0].split()
                py = np.array([float(c.split(",")[1]) for c in coords])
                np.testing.assert_allclose(py, y0 + h - (traj.p[:, axis] - lo) / (hi - lo) * h, atol=0.005)

    def test_export_report_bundle(self, tmp_path):
        gt = rich_curve()
        rep_t = trajectory_metrics(gt, gt)
        gt_c = np.ones((10, 4), dtype=bool)
        rep_c = classification_metrics(gt_c, gt_c)
        files = evalkit.export_report(
            tmp_path, {"net": rep_c}, {"gt": gt}, {"net": rep_t}
        )
        names = sorted(f.split("/")[-1] for f in files)
        assert names == [
            "classification.csv",
            "trajectory_axes.svg",
            "trajectory_metrics.csv",
            "trajectory_xy.svg",
        ]

    def test_deterministic_bytes(self, tmp_path):
        trajs = {"a": rich_curve()}
        p1, p2 = tmp_path / "1.svg", tmp_path / "2.svg"
        evalkit.write_trajectory_svg(p1, trajs)
        evalkit.write_trajectory_svg(p2, trajs)
        assert p1.read_bytes() == p2.read_bytes()

    def test_trajectory_file_roundtrip(self, tmp_path):
        traj = rich_curve(50)
        path = tmp_path / "t.csv"
        evalkit.write_trajectory(path, traj)
        back = evalkit.read_trajectory(path)
        np.testing.assert_array_equal(back.t, traj.t)
        np.testing.assert_array_equal(back.p, traj.p)


class TestReadTrajectory:
    """The reader checks what the dataset and contact readers check, naming `path:line`."""

    def _bad_file(self, tmp_path, edit):
        traj = rich_curve(20)
        t, p = traj.t.copy(), traj.p.copy()
        edit(t, p)
        path = tmp_path / "t.csv"
        evalkit.write_trajectory(path, Trajectory(t, p))
        return path

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_position(self, tmp_path, value):
        path = self._bad_file(tmp_path, lambda t, p: p.__setitem__((7, 1), value))
        with pytest.raises(DataError, match=rf"^{path}:9: position \[.*\] is not finite$"):
            evalkit.read_trajectory(path)

    def test_nan_timestamp(self, tmp_path):
        path = self._bad_file(tmp_path, lambda t, p: t.__setitem__(4, np.nan))
        with pytest.raises(DataError, match=rf"^{path}:6: timestamp nan is not finite"):
            evalkit.read_trajectory(path)

    def test_swapped_rows(self, tmp_path):
        path = self._bad_file(tmp_path, lambda t, p: t.__setitem__([10, 11], t[[11, 10]]))
        with pytest.raises(DataError, match=rf"^{path}:13: timestamp .* does not exceed the one before it"):
            evalkit.read_trajectory(path)

    def test_duplicated_row(self, tmp_path):
        def duplicate(t, p):
            t[12], p[12] = t[11], p[11]

        path = self._bad_file(tmp_path, duplicate)
        with pytest.raises(DataError, match=rf"^{path}:14: timestamp .* does not exceed the one before it"):
            evalkit.read_trajectory(path)
