"""Classification and trajectory metrics plus CSV/SVG report emission.

Full-state accuracy counts a frame correct only when every leg matches.
FPR = FP/(FP+TN) and FNR = FN/(FN+TP) per leg; a rate whose denominator is
zero is reported as absent (None), never as 0 — an all-negative stream has
no meaningful FNR.

Trajectory comparison aligns yaw and translation only (4 DoF): gravity
makes roll and pitch observable to the odometry filter, so aligning them
away would hide real error.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .formats import DataError, SchemaMismatchError, check_times, read_csv, row_location, write_csv
from .kinematics import LEG_NAMES

ASSOC_TOL_S = 0.002


@dataclass
class LegCounts:
    tp: int
    fp: int
    tn: int
    fn: int


@dataclass
class ClassificationReport:
    frames: int
    full_state_accuracy: float
    leg_accuracy: np.ndarray  # (L,)
    leg_average_accuracy: float
    leg_fpr: list  # per leg, None when FP+TN == 0
    leg_fnr: list  # per leg, None when FN+TP == 0
    average_fpr: Optional[float]
    average_fnr: Optional[float]
    counts: list  # LegCounts per leg


@dataclass
class TrajectoryReport:
    rmse: float  # m, over associated pairs
    final_drift: float  # m
    final_drift_pct: float  # % of ground-truth path length
    path_length: float  # m


@dataclass
class Trajectory:
    t: np.ndarray  # (N,)
    p: np.ndarray  # (N, 3)


def classification_metrics(pred, gt) -> ClassificationReport:
    """Compare two (N, L) boolean contact streams."""
    pred = np.asarray(pred, dtype=bool)
    gt = np.asarray(gt, dtype=bool)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    n = pred.shape[0]
    if n == 0:
        raise ValueError("empty streams")
    full = float(np.mean(np.all(pred == gt, axis=1)))
    leg_acc = (pred == gt).mean(axis=0)
    counts = [
        LegCounts(int(np.sum(p & g)), int(np.sum(p & ~g)), int(np.sum(~p & ~g)), int(np.sum(~p & g)))
        for p, g in zip(pred.T, gt.T)
    ]
    fprs = [c.fp / (c.fp + c.tn) if c.fp + c.tn > 0 else None for c in counts]
    fnrs = [c.fn / (c.fn + c.tp) if c.fn + c.tp > 0 else None for c in counts]
    have_fpr = [x for x in fprs if x is not None]
    have_fnr = [x for x in fnrs if x is not None]
    return ClassificationReport(
        frames=n,
        full_state_accuracy=full,
        leg_accuracy=leg_acc,
        leg_average_accuracy=float(leg_acc.mean()),
        leg_fpr=fprs,
        leg_fnr=fnrs,
        average_fpr=float(np.mean(have_fpr)) if have_fpr else None,
        average_fnr=float(np.mean(have_fnr)) if have_fnr else None,
        counts=counts,
    )


def _associate(t_est, t_gt, tol):
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"association tolerance must be finite and non-negative, got {tol} s")
    idx = np.searchsorted(t_gt, t_est)
    idx = np.clip(idx, 1, len(t_gt) - 1)
    left = idx - 1
    pick = np.where(np.abs(t_gt[idx] - t_est) < np.abs(t_gt[left] - t_est), idx, left)
    ok = np.abs(t_gt[pick] - t_est) <= tol
    return np.nonzero(ok)[0], pick[ok]


def align_trajectories(est: Trajectory, gt: Trajectory, tol: float = ASSOC_TOL_S):
    """4-DoF (yaw + translation) alignment minimizing position RMSE.

    Returns (aligned estimate, (rotation, translation)). Poses associate by
    nearest timestamp within tol seconds.
    """
    if len(est.t) < 2 or len(gt.t) < 2:
        raise DataError("need at least two poses per trajectory")
    ei, gi = _associate(est.t, gt.t, tol)
    if len(ei) < 2:
        raise DataError("no timestamp overlap within tolerance")
    a = est.p[ei]
    b = gt.p[gi]
    ca = a.mean(axis=0)
    cb = b.mean(axis=0)
    a0 = a - ca
    b0 = b - cb
    num = np.sum(a0[:, 0] * b0[:, 1] - a0[:, 1] * b0[:, 0])
    den = np.sum(a0[:, 0] * b0[:, 0] + a0[:, 1] * b0[:, 1])
    yaw = np.arctan2(num, den)
    c, s = np.cos(yaw), np.sin(yaw)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    trans = cb - rot @ ca
    return Trajectory(est.t.copy(), est.p @ rot.T + trans), (rot, trans)


def trajectory_metrics(est: Trajectory, gt: Trajectory, tol: float = ASSOC_TOL_S) -> TrajectoryReport:
    """RMSE / final drift / path length over associated (pre-aligned) poses."""
    if len(est.t) < 1 or len(gt.t) < 2:
        raise DataError("need poses on both trajectories")
    ei, gi = _associate(est.t, gt.t, tol)
    if len(ei) < 1:
        raise DataError("no timestamp overlap within tolerance")
    err = est.p[ei] - gt.p[gi]
    rmse = float(np.sqrt(np.mean(np.sum(err**2, axis=1))))
    drift = float(np.linalg.norm(err[-1]))
    path = float(np.sum(np.linalg.norm(np.diff(gt.p, axis=0), axis=1)))
    if path <= 0.0:
        raise ValueError("ground-truth path has zero length")
    return TrajectoryReport(
        rmse=rmse,
        final_drift=drift,
        final_drift_pct=100.0 * drift / path,
        path_length=path,
    )


# ---------------------------------------------------------------------------
# trajectory files (t, x, y, z)

TRAJECTORY_COLUMNS = ["t", "x", "y", "z"]


def write_trajectory(path, traj: Trajectory):
    rows = np.column_stack([traj.t, traj.p[:, :3]]).astype(float)
    write_csv(path, TRAJECTORY_COLUMNS, (row.tolist() for row in rows))


def read_trajectory(path) -> Trajectory:
    """A trajectory CSV. Timestamps are checked as the dataset and contact readers
    check them, and positions must be finite; a bad row is named `path:line`."""
    rows = read_csv(path, TRAJECTORY_COLUMNS)
    check_times(rows[:, 0], path)
    bad = ~np.isfinite(rows[:, 1:4]).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise SchemaMismatchError(f"{row_location(path, i)}: position {rows[i, 1:4].tolist()} is not finite")
    return Trajectory(rows[:, 0], rows[:, 1:4])


# ---------------------------------------------------------------------------
# report export


def _fmt(x):
    return "" if x is None else f"{x:.6f}"


def write_classification_csv(path, reports: Dict[str, ClassificationReport]):
    legs = LEG_NAMES
    header = ["name", "frames", "full_state_acc", *[f"acc_{n}" for n in legs], "leg_avg_acc"]
    header += [f"fpr_{n}" for n in legs] + ["avg_fpr"] + [f"fnr_{n}" for n in legs] + ["avg_fnr"]
    rows = [
        [name, rep.frames]
        + [_fmt(x) for x in (rep.full_state_accuracy, *rep.leg_accuracy, rep.leg_average_accuracy)]
        + [_fmt(x) for x in (*rep.leg_fpr, rep.average_fpr, *rep.leg_fnr, rep.average_fnr)]
        for name, rep in reports.items()
    ]
    write_csv(path, header, rows)


def write_trajectory_metrics_csv(path, reports: Dict[str, TrajectoryReport]):
    write_csv(
        path,
        ["name", "rmse_m", "final_drift_m", "final_drift_pct", "path_length_m"],
        [
            [name, _fmt(rep.rmse), _fmt(rep.final_drift), _fmt(rep.final_drift_pct), _fmt(rep.path_length)]
            for name, rep in reports.items()
        ],
    )


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _polyline(points, color):
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{coords}"/>'


def _scaled(series, box):
    """Map each (xs, ys) series into box by the bounds of all of them, so they stay comparable."""
    x0, y0, w, h = box
    all_x = np.concatenate([xs for xs, _ in series])
    all_y = np.concatenate([ys for _, ys in series])
    xmin, xmax = float(all_x.min()), float(all_x.max())
    ymin, ymax = float(all_y.min()), float(all_y.max())
    xr = xmax - xmin or 1.0
    yr = ymax - ymin or 1.0
    return [np.stack([x0 + (xs - xmin) / xr * w, y0 + h - (ys - ymin) / yr * h], axis=1) for xs, ys in series]


def _write_svg(path, width, height, body):
    """Write an SVG document of the given size: a white background, then the body elements."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        *body,
        "</svg>",
    ]
    with open(path, "w") as f:
        f.write("\n".join(parts) + "\n")


def write_trajectory_svg(path, trajectories: Dict[str, Trajectory]):
    """Bird's-eye XY plot, one polyline per trajectory, deterministic bytes."""
    width, height, margin = 640, 480, 40
    box = (margin, margin, width - 2 * margin, height - 2 * margin)
    scaled = _scaled([(t.p[:, 0], t.p[:, 1]) for t in trajectories.values()], box)
    body = []
    for i, (name, pts) in enumerate(zip(trajectories, scaled)):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        body.append(_polyline(pts, color))
        body.append(f'<text x="{margin}" y="{20 + 14 * i}" fill="{color}" font-size="12">{name}</text>')
    _write_svg(path, width, height, body)


def write_axes_svg(path, trajectories: Dict[str, Trajectory]):
    """Per-axis position vs time, three stacked panels."""
    width, panel_h, margin = 640, 160, 30
    body = []
    for axis, label in enumerate("xyz"):
        box = (margin, axis * panel_h + margin / 2, width - 2 * margin, panel_h - margin)
        scaled = _scaled([(t.t, t.p[:, axis]) for t in trajectories.values()], box)
        body += [_polyline(pts, _SVG_COLORS[i % len(_SVG_COLORS)]) for i, pts in enumerate(scaled)]
        body.append(f'<text x="4" y="{axis * panel_h + panel_h // 2}" font-size="12">{label}</text>')
    _write_svg(path, width, 3 * panel_h, body)


def export_report(
    outdir,
    classification: Optional[Dict[str, ClassificationReport]] = None,
    trajectories: Optional[Dict[str, Trajectory]] = None,
    trajectory_reports: Optional[Dict[str, TrajectoryReport]] = None,
):
    """Write the standard report files into outdir; returns written paths."""
    os.makedirs(outdir, exist_ok=True)
    jobs = [
        ("classification.csv", write_classification_csv, classification),
        ("trajectory_metrics.csv", write_trajectory_metrics_csv, trajectory_reports),
        ("trajectory_xy.svg", write_trajectory_svg, trajectories),
        ("trajectory_axes.svg", write_axes_svg, trajectories),
    ]
    written = []
    for name, write, data in jobs:
        if data:
            written.append(os.path.join(outdir, name))
            write(written[-1], data)
    return written
