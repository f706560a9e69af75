"""Command-line front end: simulate, label, train, infer, filter, evaluate.

Offline batch semantics only; every subcommand is deterministic given
--seed and its inputs. Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import baselines, dataio, evalkit, gaitsim, inekf, labelgen
from .config import load_config
from .contactnet import (
    TrainConfig,
    evaluate_accuracy,
    load_params,
    predict_batch,
    preset,
    save_params,
    train,
    write_training_log,
)

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


def cmd_sim(args, cfg):
    out = _ensure_out(args)
    legs = cfg.kinematics.legs()
    duration = args.duration if args.duration is not None else cfg.gaitsim.duration
    sim = gaitsim.simulate(cfg.gaitsim.spec(seed=args.seed), duration, legs)
    ext = "csv" if args.format == "csv" else "pcds"
    dataio.write_dataset(sim.encoder_frames, os.path.join(out, f"encoder.{ext}"))
    dataio.write_dataset(sim.imu_frames, os.path.join(out, f"imu.{ext}"))
    evalkit.write_trajectory(
        os.path.join(out, "trajectory_gt.csv"),
        evalkit.Trajectory(sim.traj_t, sim.traj_pos),
    )
    print(f"wrote encoder.{ext}, imu.{ext}, trajectory_gt.csv to {out}")
    return 0


def cmd_label(args, cfg):
    out = _ensure_out(args)
    frames = dataio.read_dataset(args.data)
    heights = frames.pf.reshape(len(frames), -1, 3)[:, :, 2]
    contacts = labelgen.generate_labels(heights, cfg.labelgen.to_labelgen())
    frames.gt = dataio.bool_to_codes(contacts)
    base, ext = os.path.splitext(os.path.basename(args.data))
    path = os.path.join(out, f"{base}_labeled{ext}")
    dataio.write_dataset(frames, path)
    dataio.write_contacts(os.path.join(out, f"{base}_labels.csv"), frames.t, frames.gt)
    print(f"wrote {path}")
    return 0


def cmd_train(args, cfg):
    out = _ensure_out(args)
    frames = dataio.read_dataset(args.data)
    if frames.gt is None:
        raise dataio.SchemaMismatchError(f"{args.data}: training dataset has no contact labels")
    cn = cfg.contactnet
    windows = dataio.window_set(frames, cn.window, cn.stride)
    train_set, val_set, _ = dataio.split_dataset(windows, args.seed)
    spec = preset(cn.preset, window=cn.window, n_classes=cn.classes, dropout=cn.dropout)
    tc = TrainConfig(
        batch_size=cn.batch_size,
        learning_rate=cn.learning_rate,
        epochs=args.epochs if args.epochs is not None else cn.epochs,
        seed=args.seed,
        optimizer=cn.optimizer,
    )
    params, log = train(train_set, tc, spec, val_set)
    weights = os.path.join(out, "weights.pcnw")
    save_params(params, spec, weights)
    write_training_log(os.path.join(out, "trainlog.csv"), log)
    print(f"wrote {weights} (best val acc {max(r['val_acc'] for r in log):.4f})")
    return 0


def _infer_codes(frames, params, spec, batch=256):
    windows = dataio.window_set(frames, spec.window, stride=1)
    n = len(windows)
    codes = np.zeros(n, dtype=np.int64)
    for start in range(0, n, batch):
        idx = np.arange(start, min(start + batch, n))
        x = dataio.normalize_window(windows.batch(idx))
        codes[idx] = predict_batch(params, spec, x)
    t = frames.t[windows.end_indices]
    return t, codes, windows.end_indices


def cmd_infer(args, cfg):
    out = _ensure_out(args)
    frames = dataio.read_dataset(args.data)
    params, spec = load_params(args.weights)
    t, codes, _ = _infer_codes(frames, params, spec)
    path = os.path.join(out, "contacts_pred.csv")
    dataio.write_contacts(path, t, codes)
    print(f"wrote {path}")
    return 0


def _require_overlap(t_a, path_a, t_b, path_b):
    """Raise NoOverlapError naming both files when two time spans share no instant."""
    if t_a[0] > t_b[-1] or t_a[-1] < t_b[0]:
        raise evalkit.NoOverlapError(
            f"{path_a} spans {t_a[0]:g}..{t_a[-1]:g} s, {path_b} {t_b[0]:g}..{t_b[-1]:g} s: no overlap"
        )


def cmd_filter(args, cfg):
    out = _ensure_out(args)
    frames = dataio.read_dataset(args.data)
    t_c, codes = dataio.read_contacts(args.contacts)
    _require_overlap(t_c, args.contacts, frames.t, args.data)
    # align contacts to frames by nearest timestamp, zero-order hold before
    idx = np.clip(np.searchsorted(t_c, frames.t + 1e-9) - 1, 0, len(t_c) - 1)
    num_legs = len(cfg.kinematics.legs())
    contacts = dataio.codes_to_bool(codes[idx], num_legs)
    first = int(np.argmax(frames.t >= t_c[0]))
    sub = dataio.FrameSequence(
        frames.t[first:], frames.q[first:], frames.qd[first:], frames.acc[first:],
        frames.gyro[first:], frames.pf[first:], frames.vf[first:],
        None if frames.tau is None else frames.tau[first:],
        None if frames.gt is None else frames.gt[first:],
    )
    legs = cfg.kinematics.legs()
    t, rot, vel, pos = inekf.filter_sequence(sub, contacts[first:], legs, cfg.inekf.noise())
    path = os.path.join(out, "trajectory_est.csv")
    evalkit.write_trajectory(path, evalkit.Trajectory(t, pos, rot))
    print(f"wrote {path}")
    return 0


def cmd_baseline(args, cfg):
    out = _ensure_out(args)
    frames = dataio.read_dataset(args.data)
    if args.method == "grf":
        contacts = baselines.grf_threshold_detect(frames, cfg.baselines.grf(), cfg.kinematics.legs())
    else:
        contacts = baselines.gait_cycle_detect(frames.t, cfg.baselines.schedule())
    path = os.path.join(out, f"contacts_{args.method}.csv")
    dataio.write_contacts(path, frames.t, dataio.bool_to_codes(contacts))
    print(f"wrote {path}")
    return 0


def cmd_eval(args, cfg):
    out = _ensure_out(args)
    class_reports = {}
    traj_reports = {}
    trajectories = {}
    if args.pred and args.gt:
        tp, cp = dataio.read_contacts(args.pred)
        tg, cg = dataio.read_contacts(args.gt)
        _require_overlap(tp, args.pred, tg, args.gt)
        n = min(len(cp), len(cg))
        # align on the common timestamp range
        num_legs = 4
        idx = np.clip(np.searchsorted(tg, tp[:n] + 1e-9) - 1, 0, len(tg) - 1)
        rep = evalkit.classification_metrics(
            dataio.codes_to_bool(cp[:n], num_legs), dataio.codes_to_bool(cg[idx], num_legs)
        )
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
    legs = cfg.kinematics.legs()
    rng_seed = args.seed

    sim = gaitsim.simulate(cfg.gaitsim.spec(seed=rng_seed), cfg.gaitsim.duration, legs)
    dataio.write_dataset(sim.encoder_frames, os.path.join(out, "encoder.csv"))
    dataio.write_dataset(sim.imu_frames, os.path.join(out, "imu.csv"))
    evalkit.write_trajectory(
        os.path.join(out, "trajectory_gt.csv"), evalkit.Trajectory(sim.traj_t, sim.traj_pos)
    )

    # self-supervised labels at the encoder rate, upsampled onto IMU frames
    heights = sim.encoder_frames.pf.reshape(len(sim.encoder_frames), 4, 3)[:, :, 2]
    gait_cfg = cfg.labelgen.to_labelgen()
    if cfg.gaitsim.gait in labelgen.HALF_POWER_FREQ:
        gait_cfg.gait = cfg.gaitsim.gait
    labels_enc = labelgen.generate_labels(heights, gait_cfg)
    labeled = sim.encoder_frames
    labeled.gt = dataio.bool_to_codes(labels_enc)
    frames_imu = dataio.upsample(labeled, cfg.gaitsim.imu_rate)
    frames_imu.acc = sim.imu_frames.acc
    frames_imu.gyro = sim.imu_frames.gyro
    dataio.write_dataset(labeled, os.path.join(out, "encoder_labeled.csv"))

    cn = cfg.contactnet
    windows = dataio.window_set(frames_imu, cn.window, cn.stride)
    train_set, val_set, test_set = dataio.split_dataset(windows, rng_seed)
    spec = preset(cn.preset, window=cn.window, n_classes=cn.classes, dropout=cn.dropout)
    tc = TrainConfig(
        batch_size=cn.batch_size, learning_rate=cn.learning_rate, epochs=cn.epochs,
        seed=rng_seed, optimizer=cn.optimizer,
    )
    params, log = train(train_set, tc, spec, val_set)
    save_params(params, spec, os.path.join(out, "weights.pcnw"))
    write_training_log(os.path.join(out, "trainlog.csv"), log)
    test_acc = evaluate_accuracy(params, spec, test_set)

    t_pred, codes, ends = _infer_codes(sim.imu_frames, params, spec)
    dataio.write_contacts(os.path.join(out, "contacts_pred.csv"), t_pred, codes)
    dataio.write_contacts(
        os.path.join(out, "contacts_gt.csv"), sim.imu_frames.t, dataio.bool_to_codes(sim.contacts_imu)
    )

    # filter from the first classified frame
    first = int(ends[0])
    frames = sim.imu_frames
    sub = dataio.FrameSequence(
        frames.t[first:], frames.q[first:], frames.qd[first:], frames.acc[first:],
        frames.gyro[first:], frames.pf[first:], frames.vf[first:], None, None,
    )
    contacts = dataio.codes_to_bool(codes, 4)
    init = inekf.make_initial_state(
        rot=sim.traj_rot[first], vel=sim.traj_vel[first], pos=sim.traj_pos[first],
        t=float(frames.t[first]),
    )
    t_f, rot_f, vel_f, pos_f = inekf.filter_sequence(sub, contacts, legs, cfg.inekf.noise(), init)
    est = evalkit.Trajectory(t_f, pos_f)
    gt_traj = evalkit.Trajectory(sim.traj_t, sim.traj_pos)
    evalkit.write_trajectory(os.path.join(out, "trajectory_est.csv"), est)

    rep_c = evalkit.classification_metrics(contacts, sim.contacts_imu[ends])
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
