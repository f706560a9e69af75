"""Command-line front end: simulate, label, train, infer, filter, evaluate.

Offline batch semantics only; every subcommand is deterministic given
--seed and its inputs. Exit codes: 0 success, 1 usage error, 2 data error.
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


def _ensure_out(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


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
    evalkit.write_trajectory(os.path.join(out, "trajectory_gt.csv"), evalkit.Trajectory(sim.traj_t, sim.traj_pos))
    return sim


def cmd_sim(args, cfg):
    out = _ensure_out(args)
    duration = args.duration if args.duration is not None else cfg.gaitsim.duration
    ext = "csv" if args.format == "csv" else "pcds"
    _simulate(cfg, args.seed, duration, out, ext)
    print(f"wrote encoder.{ext}, imu.{ext}, trajectory_gt.csv to {out}")
    return 0


def cmd_label(args, cfg):
    out = _ensure_out(args)
    frames = dataio.read_dataset(args.data)
    heights = frames.pf.reshape(len(frames), -1, 3)[:, :, 2]
    with _naming(args.data):
        contacts = labelgen.generate_labels(heights, cfg.labelgen.to_labelgen())
    frames.gt = dataio.bool_to_codes(contacts)
    base, ext = os.path.splitext(os.path.basename(args.data))
    path = os.path.join(out, f"{base}_labeled{ext}")
    dataio.write_dataset(frames, path)
    dataio.write_contacts(os.path.join(out, f"{base}_labels.csv"), frames.t, frames.gt)
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
    out = _ensure_out(args)
    frames = dataio.read_dataset(args.data)
    if frames.gt is None:
        raise SchemaMismatchError(f"{args.data}: training dataset has no contact labels")
    epochs = args.epochs if args.epochs is not None else cfg.contactnet.epochs
    _, _, log, _ = _train_stage(frames, cfg, args.seed, epochs, out)
    print(f"wrote {os.path.join(out, 'weights.pcnw')} (best val acc {max(r['val_acc'] for r in log):.4f})")
    return 0


def cmd_infer(args, cfg):
    out = _ensure_out(args)
    frames = dataio.read_dataset(args.data)
    params, spec = load_params(args.weights)
    windows = dataio.window_set(frames, spec.window, stride=1)
    codes = predict_codes(cast_params(params), spec, windows)
    path = os.path.join(out, "contacts_pred.csv")
    dataio.write_contacts(path, frames.t[windows.end_indices], codes)
    print(f"wrote {path}")
    return 0


def _run_filter(frames, t_c, codes, cfg, out, data, pose=(None, None, None)):
    """Filter the frames from the first one at or after t_c[0], with the codes held onto them, from
    pose (rot, vel, pos) and `[inekf] init_cov`; writes trajectory_est.csv. Names a bad frame's row of `data`."""
    legs = cfg.kinematics.legs()
    first = int(np.argmax(frames.t >= t_c[0]))
    frames = frames.rows(slice(first, None))
    contacts = dataio.codes_to_bool(codes[dataio.hold(t_c, frames.t)], len(legs))
    init = inekf.make_initial_state(*pose, float(frames.t[0]), cfg.inekf.init_cov)
    try:
        t, _, _, pos = inekf.filter_sequence(frames, contacts, legs, cfg.inekf.noise(), init)
    except inekf.FrameError as exc:
        where = data if exc.row is None else dataio.row_location(data, first + exc.row)
        raise inekf.FrameError(f"{where}: {exc}") from exc
    est = evalkit.Trajectory(t, pos)
    evalkit.write_trajectory(os.path.join(out, "trajectory_est.csv"), est)
    return est


def cmd_filter(args, cfg):
    out = _ensure_out(args)
    frames = dataio.read_dataset(args.data)
    t_c, codes = dataio.read_contacts(args.contacts)
    t = frames.t
    if t_c[0] > t[-1] or t_c[-1] < t[0]:
        raise DataError(
            f"{args.contacts} spans {t_c[0]:g}..{t_c[-1]:g} s, {args.data} {t[0]:g}..{t[-1]:g} s: no overlap"
        )
    _run_filter(frames, t_c, codes, cfg, out, args.data)
    print(f"wrote {os.path.join(out, 'trajectory_est.csv')}")
    return 0


def cmd_baseline(args, cfg):
    out = _ensure_out(args)
    frames = dataio.read_dataset(args.data)
    with _naming(args.data):
        if args.method == "grf":
            contacts = baselines.grf_threshold_detect(frames, cfg.baselines.grf(), cfg.kinematics.legs())
        else:
            contacts = baselines.gait_cycle_detect(frames.t, cfg.baselines.schedule())
    path = os.path.join(out, f"contacts_{args.method}.csv")
    dataio.write_contacts(path, frames.t, dataio.bool_to_codes(contacts))
    print(f"wrote {path}")
    return 0


def _contact_report(t_pred, pred, t_gt, gt, cfg):
    """Compare every predicted code inside the ground truth's time span with the
    ground-truth code held onto it (zero-order hold), so the rates may differ."""
    inside = (t_pred >= t_gt[0] - 1e-9) & (t_pred <= t_gt[-1] + 1e-9)
    if not inside.any():
        raise DataError(f"no prediction inside the ground truth's span {t_gt[0]:g}..{t_gt[-1]:g} s")
    num_legs = len(cfg.kinematics.legs())
    return evalkit.classification_metrics(
        dataio.codes_to_bool(pred[inside], num_legs),
        dataio.codes_to_bool(gt[dataio.hold(t_gt, t_pred[inside])], num_legs),
    )


def cmd_eval(args, cfg):
    out = _ensure_out(args)
    class_reports = {}
    traj_reports = {}
    trajectories = {}
    if args.pred and args.gt:
        tp, cp = dataio.read_contacts(args.pred)
        tg, cg = dataio.read_contacts(args.gt)
        with _naming(f"{args.pred} against {args.gt}"):
            rep = _contact_report(tp, cp, tg, cg, cfg)
        class_reports["contacts"] = rep
        print(f"full-state accuracy: {rep.full_state_accuracy:.4f} leg avg: {rep.leg_average_accuracy:.4f}")
    if args.traj_est and args.traj_gt:
        est = evalkit.read_trajectory(args.traj_est)
        gt = evalkit.read_trajectory(args.traj_gt)
        aligned, _ = evalkit.align_trajectories(est, gt, cfg.eval.assoc_tol)
        rep = evalkit.trajectory_metrics(aligned, gt, cfg.eval.assoc_tol)
        traj_reports["trajectory"] = rep
        trajectories = {"estimate": aligned, "ground_truth": gt}
        print(f"ATE RMSE: {rep.rmse:.4f} m, final drift {rep.final_drift_pct:.2f}% of {rep.path_length:.2f} m")
    if not class_reports and not traj_reports:
        raise UsageError("eval needs --pred/--gt and/or --traj-est/--traj-gt")
    evalkit.export_report(out, class_reports or None, trajectories or None, traj_reports or None)
    return 0


def cmd_pipeline(args, cfg):
    """sim -> label -> train -> infer -> filter -> eval on synthetic data."""
    out = _ensure_out(args)
    sim = _simulate(cfg, args.seed, cfg.gaitsim.duration, out, "csv")
    enc, imu = sim.encoder_frames, sim.imu_frames

    # self-supervised labels at the encoder rate, held onto the IMU frames
    heights = enc.pf.reshape(len(enc), -1, 3)[:, :, 2]
    gait_cfg = cfg.labelgen.to_labelgen()
    if cfg.gaitsim.gait in labelgen.HALF_POWER_FREQ:
        gait_cfg.gait = cfg.gaitsim.gait
    labels = dataio.bool_to_codes(labelgen.generate_labels(heights, gait_cfg))
    dataio.write_dataset(dataclasses.replace(enc, gt=labels), os.path.join(out, "encoder_labeled.csv"))
    labeled = dataclasses.replace(imu, gt=labels[dataio.hold(enc.t, imu.t)])

    params, spec, _, test_set = _train_stage(labeled, cfg, args.seed, cfg.contactnet.epochs, out)
    test_acc = evaluate_accuracy(params, spec, test_set)

    stream = dataio.window_set(imu, spec.window, stride=1)
    codes = predict_codes(params, spec, stream)
    t_pred = imu.t[stream.end_indices]
    dataio.write_contacts(os.path.join(out, "contacts_pred.csv"), t_pred, codes)
    dataio.write_contacts(os.path.join(out, "contacts_gt.csv"), imu.t, imu.gt)

    # filter from the first classified frame, at the true pose there
    first = int(stream.end_indices[0])
    pose = (sim.traj_rot[first], sim.traj_vel[first], sim.traj_pos[first])
    est = _run_filter(imu, t_pred, codes, cfg, out, os.path.join(out, "imu.csv"), pose)
    gt_traj = evalkit.Trajectory(sim.traj_t, sim.traj_pos)

    rep_c = _contact_report(t_pred, codes, imu.t, imu.gt, cfg)
    aligned, _ = evalkit.align_trajectories(est, gt_traj, cfg.eval.assoc_tol)
    rep_t = evalkit.trajectory_metrics(aligned, gt_traj, cfg.eval.assoc_tol)
    evalkit.export_report(
        out,
        {"network": rep_c},
        {"estimate": aligned, "ground_truth": gt_traj},
        {"network": rep_t},
    )
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
        return _COMMANDS[args.command](args, cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
