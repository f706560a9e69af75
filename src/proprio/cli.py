"""Command-line front end: simulate, label, train, infer, filter, evaluate.

Offline batch semantics only; every subcommand is deterministic given
--seed and its inputs. Each stage is one function that its subcommand and
`pipeline` both call; `pipeline` labels with the cutoff of `[gaitsim] gait`
when labelgen knows it. Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys

import numpy as np

from . import baselines, dataio, evalkit, gaitsim, inekf, labelgen
from .config import load_config
from .contactnet import (
    TrainConfig,
    cast_params,
    evaluate_accuracy,
    load_params,
    predict_batch,  # noqa: F401 (called through predict_codes; perfbench/perlayer.py traces cli.predict_batch)
    predict_codes,
    preset,
    save_params,
    train,
    write_training_log,
)
from .formats import DataError, SchemaMismatchError

USAGE_ERROR = 1
DATA_ERROR = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="proprio", description=__doc__)
    parser.add_argument("--config", help="toolkit config file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=".", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sim", help="generate a synthetic dataset")
    p.add_argument("--duration", type=float, help="seconds (default from config)")
    p.add_argument("--format", choices=("csv", "bin"), default="csv")

    p = sub.add_parser("label", help="generate contact labels from foot heights")
    p.add_argument("--data", required=True)

    p = sub.add_parser("train", help="train the contact classifier")
    p.add_argument("--data", required=True, help="IMU-rate dataset with labels")
    p.add_argument("--epochs", type=int)

    p = sub.add_parser("infer", help="classify contacts for a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--weights", required=True)

    p = sub.add_parser("filter", help="run odometry from a dataset and contacts")
    p.add_argument("--data", required=True, help="IMU-rate dataset")
    p.add_argument("--contacts", required=True)

    p = sub.add_parser("baseline", help="run a baseline contact detector")
    p.add_argument("--method", choices=("grf", "gait"), required=True)
    p.add_argument("--data", required=True)

    p = sub.add_parser("eval", help="evaluate contacts and/or trajectories")
    p.add_argument("--pred")
    p.add_argument("--gt")
    p.add_argument("--traj-est")
    p.add_argument("--traj-gt")

    sub.add_parser("pipeline", help="end-to-end run on synthetic data")
    return parser


@contextlib.contextmanager
def _naming(where):
    """Prefix `where: ` onto a DataError raised in the block, so its message names the file."""
    try:
        yield
    except DataError as exc:
        raise DataError(f"{where}: {exc}") from exc


def _simulate(cfg, seed, duration, out, ext):
    """Simulate and write encoder.<ext>, imu.<ext> and trajectory_gt.csv into out."""
    sim = gaitsim.simulate(cfg.gaitsim.spec(seed=seed), duration, cfg.kinematics.legs())
    dataio.write_dataset(sim.encoder_frames, os.path.join(out, f"encoder.{ext}"))
    dataio.write_dataset(sim.imu_frames, os.path.join(out, f"imu.{ext}"))
    evalkit.write_trajectory(os.path.join(out, "trajectory_gt.csv"), evalkit.Trajectory(sim.imu_frames.t, sim.traj_pos))
    return sim


def cmd_sim(args, cfg):
    duration = args.duration if args.duration is not None else cfg.gaitsim.duration
    ext = "csv" if args.format == "csv" else "pcds"
    _simulate(cfg, args.seed, duration, args.out, ext)
    print(f"wrote encoder.{ext}, imu.{ext}, trajectory_gt.csv to {args.out}")
    return 0


def _label_stage(frames, labelgen_cfg, data, path):
    """Contact codes from the frames' foot heights; writes the labeled frames to path.

    Returns the labeled frames. A DataError names `data`, the frames' source.
    """
    heights = frames.pf.reshape(len(frames), -1, 3)[:, :, 2]
    with _naming(data):
        contacts = labelgen.generate_labels(heights, labelgen_cfg)
    labeled = dataclasses.replace(frames, gt=dataio.bool_to_codes(contacts))
    dataio.write_dataset(labeled, path)
    return labeled


def cmd_label(args, cfg):
    base, ext = os.path.splitext(os.path.basename(args.data))
    path = os.path.join(args.out, f"{base}_labeled{ext}")
    labeled = _label_stage(dataio.read_dataset(args.data), cfg.labelgen.to_labelgen(), args.data, path)
    dataio.write_contacts(os.path.join(args.out, f"{base}_labels.csv"), labeled.t, labeled.gt)
    print(f"wrote {path}")
    return 0


def _train_stage(frames, cfg, seed, epochs, out):
    """Window, split and train on labeled frames; writes weights.pcnw and trainlog.csv.

    Returns (params, spec, log, test windows).
    """
    cn = cfg.contactnet
    tc = TrainConfig(batch_size=cn.batch_size, learning_rate=cn.learning_rate, epochs=epochs, seed=seed)
    windows = dataio.window_set(frames, cn.window, cn.stride)
    train_set, val_set, test_set = dataio.split_dataset(windows, seed)
    spec = preset(cn.preset, window=cn.window, n_classes=cn.classes, dropout=cn.dropout)
    params, log = train(train_set, tc, spec, val_set)
    save_params(params, spec, os.path.join(out, "weights.pcnw"))
    write_training_log(os.path.join(out, "trainlog.csv"), log)
    return params, spec, log, test_set


def cmd_train(args, cfg):
    frames = dataio.read_dataset(args.data)
    if frames.gt is None:
        raise SchemaMismatchError(f"{args.data}: training dataset has no contact labels")
    epochs = args.epochs if args.epochs is not None else cfg.contactnet.epochs
    _, _, log, _ = _train_stage(frames, cfg, args.seed, epochs, args.out)
    print(f"wrote {os.path.join(args.out, 'weights.pcnw')} (best val acc {max(r['val_acc'] for r in log):.4f})")
    return 0


def _infer_stage(frames, params, spec, out):
    """Classify every stride-1 window in the compute dtype; writes contacts_pred.csv.

    Returns (window end times, codes).
    """
    windows = dataio.window_set(frames, spec.window, stride=1)
    codes = predict_codes(cast_params(params), spec, windows)
    t = frames.t[windows.end_indices]
    dataio.write_contacts(os.path.join(out, "contacts_pred.csv"), t, codes)
    return t, codes


def cmd_infer(args, cfg):
    frames = dataio.read_dataset(args.data)
    params, spec = load_params(args.weights)
    _infer_stage(frames, params, spec, args.out)
    print(f"wrote {os.path.join(args.out, 'contacts_pred.csv')}")
    return 0


def _run_filter(frames, t_c, codes, cfg, out, data, pose=(None, None, None)):
    """Filter the frames from the first one at or after t_c[0], with the codes held onto them, from
    pose (rot, vel, pos) and `[inekf] init_cov`; writes trajectory_est.csv. Names a bad frame's row of `data`."""
    first = int(np.argmax(frames.t >= t_c[0]))
    frames = frames.rows(slice(first, None))
    contacts = dataio.codes_to_bool(codes[dataio.hold(t_c, frames.t)], inekf.NUM_LEGS)
    init = inekf.make_initial_state(*pose, float(frames.t[0]), cfg.inekf.init_cov)
    try:
        t, _, _, pos = inekf.filter_sequence(frames, contacts, cfg.kinematics.legs(), cfg.inekf.noise(), init)
    except inekf.FrameError as exc:
        where = data if exc.row is None else dataio.row_location(data, first + exc.row)
        raise inekf.FrameError(f"{where}: {exc}") from exc
    est = evalkit.Trajectory(t, pos)
    evalkit.write_trajectory(os.path.join(out, "trajectory_est.csv"), est)
    return est


def cmd_filter(args, cfg):
    frames = dataio.read_dataset(args.data)
    t_c, codes = dataio.read_contacts(args.contacts)
    t = frames.t
    if t_c[0] > t[-1] or t_c[-1] < t[0]:
        raise DataError(
            f"{args.contacts} spans {t_c[0]:g}..{t_c[-1]:g} s, {args.data} {t[0]:g}..{t[-1]:g} s: no overlap"
        )
    _run_filter(frames, t_c, codes, cfg, args.out, args.data)
    print(f"wrote {os.path.join(args.out, 'trajectory_est.csv')}")
    return 0


def cmd_baseline(args, cfg):
    frames = dataio.read_dataset(args.data)
    with _naming(args.data):
        if args.method == "grf":
            contacts = baselines.grf_threshold_detect(frames, cfg.baselines.grf(), cfg.kinematics.legs())
        else:
            contacts = baselines.gait_cycle_detect(frames.t, cfg.baselines.schedule())
    path = os.path.join(args.out, f"contacts_{args.method}.csv")
    dataio.write_contacts(path, frames.t, dataio.bool_to_codes(contacts))
    print(f"wrote {path}")
    return 0


def _contact_report(t_pred, pred, t_gt, gt):
    """Compare every predicted code inside the ground truth's time span with the
    ground-truth code held onto it (zero-order hold), so the rates may differ."""
    inside = (t_pred >= t_gt[0] - 1e-9) & (t_pred <= t_gt[-1] + 1e-9)
    if not inside.any():
        raise DataError(f"no prediction inside the ground truth's span {t_gt[0]:g}..{t_gt[-1]:g} s")
    return evalkit.classification_metrics(
        dataio.codes_to_bool(pred[inside], inekf.NUM_LEGS),
        dataio.codes_to_bool(gt[dataio.hold(t_gt, t_pred[inside])], inekf.NUM_LEGS),
    )


def _trajectory_report(est, gt, cfg):
    """Align est to gt in yaw and translation, then score it: (aligned estimate, report)."""
    aligned, _ = evalkit.align_trajectories(est, gt, cfg.eval.assoc_tol)
    return aligned, evalkit.trajectory_metrics(aligned, gt, cfg.eval.assoc_tol)


def cmd_eval(args, cfg):
    for given, partner in (("pred", "gt"), ("gt", "pred"), ("traj_est", "traj_gt"), ("traj_gt", "traj_est")):
        if getattr(args, given) and not getattr(args, partner):
            raise UsageError(f"eval --{given} needs --{partner}".replace("_", "-"))
    class_reports = traj_reports = trajectories = None
    if args.pred:
        tp, cp = dataio.read_contacts(args.pred)
        tg, cg = dataio.read_contacts(args.gt)
        with _naming(f"{args.pred} against {args.gt}"):
            rep = _contact_report(tp, cp, tg, cg)
        class_reports = {"contacts": rep}
        print(f"full-state accuracy: {rep.full_state_accuracy:.4f} leg avg: {rep.leg_average_accuracy:.4f}")
    if args.traj_est:
        est = evalkit.read_trajectory(args.traj_est)
        gt = evalkit.read_trajectory(args.traj_gt)
        aligned, rep = _trajectory_report(est, gt, cfg)
        traj_reports = {"trajectory": rep}
        trajectories = {"estimate": aligned, "ground_truth": gt}
        print(f"ATE RMSE: {rep.rmse:.4f} m, final drift {rep.final_drift_pct:.2f}% of {rep.path_length:.2f} m")
    if not class_reports and not traj_reports:
        raise UsageError("eval needs --pred/--gt and/or --traj-est/--traj-gt")
    evalkit.export_report(args.out, class_reports, trajectories, traj_reports)
    return 0


def cmd_pipeline(args, cfg):
    """sim -> label -> train -> infer -> filter -> eval on synthetic data."""
    out = args.out
    sim = _simulate(cfg, args.seed, cfg.gaitsim.duration, out, "csv")
    imu = sim.imu_frames

    # self-supervised labels at the encoder rate with the simulated gait's cutoff, held onto the IMU frames
    labelgen_cfg = cfg.labelgen.to_labelgen()
    if cfg.gaitsim.gait in labelgen.HALF_POWER_FREQ:
        labelgen_cfg.gait = cfg.gaitsim.gait
    enc = _label_stage(
        sim.encoder_frames, labelgen_cfg, os.path.join(out, "encoder.csv"), os.path.join(out, "encoder_labeled.csv")
    )
    labeled = dataclasses.replace(imu, gt=enc.gt[dataio.hold(enc.t, imu.t)])

    params, spec, _, test_set = _train_stage(labeled, cfg, args.seed, cfg.contactnet.epochs, out)
    test_acc = evaluate_accuracy(params, spec, test_set)
    t_pred, codes = _infer_stage(imu, params, spec, out)
    dataio.write_contacts(os.path.join(out, "contacts_gt.csv"), imu.t, imu.gt)

    # filter from the first classified frame, at the true pose there
    first = spec.window - 1
    pose = (sim.traj_rot[first], sim.traj_vel[first], sim.traj_pos[first])
    est = _run_filter(imu, t_pred, codes, cfg, out, os.path.join(out, "imu.csv"), pose)
    gt_traj = evalkit.Trajectory(imu.t, sim.traj_pos)

    rep_c = _contact_report(t_pred, codes, imu.t, imu.gt)
    aligned, rep_t = _trajectory_report(est, gt_traj, cfg)
    evalkit.export_report(out, {"network": rep_c}, {"estimate": aligned, "ground_truth": gt_traj}, {"network": rep_t})
    print(
        f"pipeline done: test acc {test_acc:.4f}, contact acc {rep_c.leg_average_accuracy:.4f}, "
        f"drift {rep_t.final_drift_pct:.2f}% of {rep_t.path_length:.2f} m"
    )
    return 0


_COMMANDS = {
    "sim": cmd_sim,
    "label": cmd_label,
    "train": cmd_train,
    "infer": cmd_infer,
    "filter": cmd_filter,
    "baseline": cmd_baseline,
    "eval": cmd_eval,
    "pipeline": cmd_pipeline,
}

def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    try:
        cfg = load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command](args, cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
