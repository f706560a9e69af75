import os
import struct
import zlib

import numpy as np
import pytest

from proprio import dataio
from proprio.cli import main
from proprio.contactnet import ArchitectureSpec, Dense, Flatten, save_params

FAST_CFG = """
[gaitsim]
duration = 5.0
noise_torque = 1.5
[contactnet]
window = 40
epochs = 1
stride = 25
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "toolkit.cfg"
    cfg.write_text(FAST_CFG)
    out = str(root / "out")
    code = main(["--config", str(cfg), "--out", out, "--seed", "3", "sim"])
    assert code == 0
    return root, str(cfg), out


def test_usage_error_exit_code():
    assert main(["frobnicate"]) == 1
    assert main([]) == 1


def test_sim_outputs(workdir):
    _, _, out = workdir
    for name in ("encoder.csv", "imu.csv", "trajectory_gt.csv"):
        assert os.path.exists(os.path.join(out, name))


def test_label_and_eval_roundtrip(workdir):
    root, cfg, out = workdir
    assert main(["--config", cfg, "--out", out, "label", "--data", f"{out}/encoder.csv"]) == 0
    assert os.path.exists(f"{out}/encoder_labels.csv")
    # identical files compare at accuracy 1.0
    code = main(
        ["--config", cfg, "--out", out, "eval",
         "--pred", f"{out}/encoder_labels.csv", "--gt", f"{out}/encoder_labels.csv"]
    )
    assert code == 0
    text = open(f"{out}/classification.csv").read().splitlines()
    assert text[1].split(",")[2] == "1.000000"


def test_baseline_commands(workdir):
    _, cfg, out = workdir
    assert main(["--config", cfg, "--out", out, "baseline", "--method", "gait", "--data", f"{out}/encoder.csv"]) == 0
    assert main(["--config", cfg, "--out", out, "baseline", "--method", "grf", "--data", f"{out}/encoder.csv"]) == 0
    t, codes = dataio.read_contacts(f"{out}/contacts_gait.csv")
    assert len(t) > 0 and codes.max() <= 15


def test_train_infer_filter_eval(workdir):
    root, cfg, out = workdir
    assert main(["--config", cfg, "--out", out, "--seed", "1", "train", "--data", f"{out}/imu.csv", "--epochs", "1"]) == 0
    assert os.path.exists(f"{out}/weights.pcnw")
    assert os.path.exists(f"{out}/trainlog.csv")
    assert main(["--config", cfg, "--out", out, "infer", "--data", f"{out}/imu.csv", "--weights", f"{out}/weights.pcnw"]) == 0
    assert main(["--config", cfg, "--out", out, "filter", "--data", f"{out}/imu.csv", "--contacts", f"{out}/contacts_pred.csv"]) == 0
    code = main(
        ["--config", cfg, "--out", out, "eval",
         "--traj-est", f"{out}/trajectory_est.csv", "--traj-gt", f"{out}/trajectory_gt.csv"]
    )
    assert code == 0
    assert os.path.exists(f"{out}/trajectory_metrics.csv")
    assert os.path.exists(f"{out}/trajectory_xy.svg")


def test_infer_window_mismatch_exit_2(workdir, tmp_path):
    root, cfg, out = workdir
    # dataset shorter than the trained window size cannot form one window
    frames = dataio.read_dataset(f"{out}/imu.csv")
    short = dataio.FrameSequence(
        frames.t[:20], frames.q[:20], frames.qd[:20], frames.acc[:20],
        frames.gyro[:20], frames.pf[:20], frames.vf[:20],
    )
    short_path = str(tmp_path / "short.csv")
    dataio.write_dataset(short, short_path)
    code = main(["--config", cfg, "--out", str(tmp_path), "infer", "--data", short_path, "--weights", f"{out}/weights.pcnw"])
    assert code == 2


def test_infer_weights_missing_tensors_exit_2(workdir, tmp_path, capsys):
    _, cfg, out = workdir
    spec = ArchitectureSpec((Flatten(), Dense(54 * 40, 16)), window=40, in_channels=54, n_classes=16)
    weights = str(tmp_path / "no_tensors.pcnw")
    save_params([None, None], spec, weights)
    code = main(["--config", cfg, "--out", str(tmp_path), "infer", "--data", f"{out}/imu.csv", "--weights", weights])
    assert code == 2
    err = capsys.readouterr().err
    assert weights in err and "layer 1 (dense)" in err


def test_infer_weights_count_past_end_exit_2(workdir, tmp_path, capsys):
    _, cfg, out = workdir
    spec = ArchitectureSpec((Flatten(), Dense(54 * 40, 16)), window=40, in_channels=54, n_classes=16)
    weights = tmp_path / "count_past_end.pcnw"
    save_params([None, (np.zeros((16, 54 * 40)), np.zeros(16))], spec, weights)
    blob = bytearray(weights.read_bytes())
    (desc_len,) = struct.unpack_from("<I", blob, 6)
    struct.pack_into("<I", blob, 10 + desc_len, 3)  # the file holds 2 tensors
    struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(blob[4:-4]))
    weights.write_bytes(bytes(blob))
    code = main(["--config", cfg, "--out", str(tmp_path), "infer", "--data", f"{out}/imu.csv", "--weights", str(weights)])
    assert code == 2
    assert str(weights) in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--data", "--weights"])
def test_infer_directory_path_exit_2(workdir, tmp_path, capsys, flag):
    _, cfg, out = workdir
    paths = {"--data": f"{out}/imu.csv", "--weights": f"{out}/weights.pcnw"}
    paths[flag] = str(tmp_path)
    code = main(
        ["--config", cfg, "--out", str(tmp_path / "out"), "infer",
         "--data", paths["--data"], "--weights", paths["--weights"]]
    )
    assert code == 2
    assert str(tmp_path) in capsys.readouterr().err


def test_filter_header_only_contacts_exit_2(workdir, tmp_path, capsys):
    _, cfg, out = workdir
    contacts = tmp_path / "empty.csv"
    contacts.write_text("t,contact_code\n")
    code = main(["--config", cfg, "--out", str(tmp_path), "filter", "--data", f"{out}/imu.csv", "--contacts", str(contacts)])
    assert code == 2
    assert str(contacts) in capsys.readouterr().err


@pytest.mark.parametrize("t", [[100.0, 101.0], [-10.0, -9.0]], ids=["after-data", "before-data"])
def test_filter_non_overlapping_contacts_exit_2(workdir, tmp_path, capsys, t):
    _, cfg, out = workdir
    contacts = tmp_path / "late.csv"
    dataio.write_contacts(contacts, t, [6, 6])
    code = main(["--config", cfg, "--out", str(tmp_path), "filter", "--data", f"{out}/imu.csv", "--contacts", str(contacts)])
    assert code == 2
    assert str(contacts) in capsys.readouterr().err


@pytest.mark.parametrize("t_pred", [[100.0, 100.9], [-100.9, -100.0]], ids=["pred-after-gt", "pred-before-gt"])
def test_eval_non_overlapping_contacts_exit_2(workdir, tmp_path, capsys, t_pred):
    _, cfg, _ = workdir
    pred, gt = tmp_path / "pred.csv", tmp_path / "gt.csv"
    dataio.write_contacts(pred, t_pred, [6, 9])
    dataio.write_contacts(gt, [0.0, 0.9], [6, 9])
    code = main(["--config", cfg, "--out", str(tmp_path), "eval", "--pred", str(pred), "--gt", str(gt)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(pred) in err and str(gt) in err


def test_eval_compares_every_prediction_in_common_span(workdir, tmp_path):
    # a 1 kHz prediction against 100 Hz ground truth: each prediction row is
    # compared with the last ground-truth code at or before it
    _, cfg, _ = workdir
    pred, gt = tmp_path / "pred.csv", tmp_path / "gt.csv"
    t_pred = np.arange(1001) / 1000.0
    dataio.write_contacts(pred, t_pred, np.where(t_pred < 0.5, 6, 9))
    dataio.write_contacts(gt, np.arange(101) / 100.0, np.full(101, 6))
    assert main(["--config", cfg, "--out", str(tmp_path), "eval", "--pred", str(pred), "--gt", str(gt)]) == 0
    row = open(tmp_path / "classification.csv").read().splitlines()[1].split(",")
    assert float(row[2]) == pytest.approx(500 / 1001, abs=1e-6)  # 6 -> 9 flips all four legs


def test_eval_no_prediction_inside_gt_span_exit_2(workdir, tmp_path, capsys):
    _, cfg, _ = workdir
    pred, gt = tmp_path / "pred.csv", tmp_path / "gt.csv"
    dataio.write_contacts(pred, [0.0, 1.0], [6, 9])
    dataio.write_contacts(gt, [0.3, 0.6], [6, 9])
    code = main(["--config", cfg, "--out", str(tmp_path), "eval", "--pred", str(pred), "--gt", str(gt)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(pred) in err and str(gt) in err


def test_label_unordered_timestamps_exit_2(workdir, tmp_path, capsys):
    _, cfg, out = workdir
    frames = dataio.read_dataset(f"{out}/encoder.csv")
    frames.t[[10, 11]] = frames.t[[11, 10]]
    path = tmp_path / "swapped.csv"
    dataio.write_dataset(frames, path)
    assert main(["--config", cfg, "--out", str(tmp_path), "label", "--data", str(path)]) == 2
    assert f"{path}:13:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "filter"])
def test_unordered_contact_timestamps_exit_2(workdir, tmp_path, capsys, command):
    _, cfg, out = workdir
    contacts = tmp_path / "unordered.csv"
    dataio.write_contacts(contacts, [0.0, 0.3, 0.1, 0.6], [6, 9, 6, 9])
    if command == "eval":
        pred = tmp_path / "pred.csv"
        dataio.write_contacts(pred, [0.0, 0.2, 0.5], [6, 6, 9])
        args = ["eval", "--pred", str(pred), "--gt", str(contacts)]
    else:
        args = ["filter", "--data", f"{out}/imu.csv", "--contacts", str(contacts)]
    assert main(["--config", cfg, "--out", str(tmp_path / "run"), *args]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {contacts}:4: timestamp 0.1 is not finite or does not exceed the one before it\n"


def _label_with_backoff(workdir, tmp_path, backoff):
    _, _, out = workdir
    cfg = tmp_path / f"backoff_{backoff}.cfg"
    cfg.write_text(FAST_CFG + f"[labelgen]\nbackoff = {backoff}\n")
    run = tmp_path / f"run_{backoff}"
    code = main(["--config", str(cfg), "--out", str(run), "label", "--data", f"{out}/encoder.csv"])
    return code, run / "encoder_labels.csv"


def test_label_negative_backoff_exit_2(workdir, tmp_path, capsys):
    code, labels = _label_with_backoff(workdir, tmp_path, -1)
    assert code == 2
    assert "[labelgen] backoff must be a non-negative number of samples, got -1" in capsys.readouterr().err
    assert not labels.exists()


def test_label_backoff_longer_than_signal_reaches_its_start(workdir, tmp_path):
    _, _, out = workdir
    n = len(dataio.read_dataset(f"{out}/encoder.csv"))
    code, huge = _label_with_backoff(workdir, tmp_path, 10**20)
    assert code == 0
    code, full = _label_with_backoff(workdir, tmp_path, n)
    assert code == 0
    assert huge.read_bytes() == full.read_bytes()


def test_label_too_few_rows_names_file(workdir, tmp_path, capsys):
    _, cfg, out = workdir
    path = tmp_path / "ten_rows.csv"
    dataio.write_dataset(dataio.read_dataset(f"{out}/encoder.csv").rows(slice(0, 10)), path)
    assert main(["--config", cfg, "--out", str(tmp_path), "label", "--data", str(path)]) == 2
    assert f"error: {path}: " in capsys.readouterr().err


def test_grf_baseline_without_torques_names_file(workdir, tmp_path, capsys):
    _, cfg, out = workdir
    frames = dataio.read_dataset(f"{out}/encoder.csv")
    frames.tau = None
    path = tmp_path / "no_torques.csv"
    dataio.write_dataset(frames, path)
    assert main(["--config", cfg, "--out", str(tmp_path), "baseline", "--method", "grf", "--data", str(path)]) == 2
    assert f"error: {path}: frames carry no torque channel" in capsys.readouterr().err


def test_train_unlabeled_dataset_names_file(workdir, tmp_path, capsys):
    _, cfg, out = workdir
    frames = dataio.read_dataset(f"{out}/imu.csv")
    frames.gt = None
    path = tmp_path / "nolabels.csv"
    dataio.write_dataset(frames, path)
    assert main(["--config", cfg, "--out", str(tmp_path), "train", "--data", str(path)]) == 2
    assert f"{path}: training dataset has no contact labels" in capsys.readouterr().err


def test_eval_header_only_trajectory_exit_2(workdir, tmp_path, capsys):
    _, cfg, out = workdir
    est = tmp_path / "empty_traj.csv"
    est.write_text("t,x,y,z\n")
    code = main(
        ["--config", cfg, "--out", str(tmp_path), "eval",
         "--traj-est", str(est), "--traj-gt", f"{out}/trajectory_gt.csv"]
    )
    assert code == 2
    assert str(est) in capsys.readouterr().err


def test_eval_nan_trajectory_position_exit_2(workdir, tmp_path, capsys):
    # it printed `ATE RMSE: nan m` and exited 0
    _, cfg, out = workdir
    lines = open(f"{out}/trajectory_gt.csv").read().splitlines()
    lines[5] = lines[5].split(",")[0] + ",nan,0,0"
    est = tmp_path / "nan_traj.csv"
    est.write_text("\n".join(lines) + "\n")
    code = main(["--config", cfg, "--out", str(tmp_path), "eval", "--traj-est", str(est), "--traj-gt", f"{out}/trajectory_gt.csv"])
    assert code == 2
    assert f"error: {est}:6: position [nan, 0.0, 0.0] is not finite" in capsys.readouterr().err


def test_train_dropout_one_exit_2(workdir, tmp_path):
    _, _, out = workdir
    cfg = tmp_path / "dropout.cfg"
    cfg.write_text(FAST_CFG + "dropout = 1.0\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "train", "--data", f"{out}/imu.csv"]) == 2


def test_eval_requires_inputs(workdir):
    _, cfg, out = workdir
    assert main(["--config", cfg, "--out", out, "eval"]) == 1


@pytest.mark.parametrize(
    "given, missing", [("--pred", "--gt"), ("--gt", "--pred"), ("--traj-est", "--traj-gt"), ("--traj-gt", "--traj-est")]
)
def test_eval_half_pair_is_usage_error(workdir, tmp_path, capsys, given, missing):
    # a flag without its partner is refused even when the other pair is whole
    _, cfg, out = workdir
    contacts, traj = str(tmp_path / "contacts.csv"), f"{out}/trajectory_gt.csv"
    dataio.write_contacts(contacts, [0.0, 0.5], [6, 9])
    files = {"--pred": contacts, "--gt": contacts, "--traj-est": traj, "--traj-gt": traj}
    argv = [given, files[given]] + [x for flag in files if flag not in (given, missing) for x in (flag, files[flag])]
    run = tmp_path / "run"
    assert main(["--config", cfg, "--out", str(run), "eval", *argv]) == 1
    assert capsys.readouterr().err == f"error: eval {given} needs {missing}\n"
    assert not any(run.iterdir())


def test_missing_file_exit_2(workdir):
    _, cfg, out = workdir
    assert main(["--config", cfg, "--out", out, "label", "--data", "/nonexistent.csv"]) == 2


def test_pipeline_smoke_and_determinism(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(
        """
[gaitsim]
duration = 4.0
[contactnet]
window = 30
epochs = 1
stride = 40
"""
    )
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["--config", str(cfg), "--out", out1, "--seed", "7", "pipeline"]) == 0
    for name in (
        "weights.pcnw", "trainlog.csv", "contacts_pred.csv", "trajectory_est.csv",
        "classification.csv", "trajectory_metrics.csv", "trajectory_xy.svg",
    ):
        assert os.path.exists(os.path.join(out1, name)), name
    assert main(["--config", str(cfg), "--out", out2, "--seed", "7", "pipeline"]) == 0
    for name in ("weights.pcnw", "contacts_pred.csv", "trajectory_est.csv", "trainlog.csv"):
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b, f"{name} differs between identical runs"
    # the subcommands run the pipeline's own stages: same inputs, same bytes
    out3 = str(tmp_path / "c")
    weights = os.path.join(out1, "weights.pcnw")
    assert main(["--config", str(cfg), "--out", out3, "infer", "--data", f"{out1}/imu.csv", "--weights", weights]) == 0
    assert main(["--config", str(cfg), "--out", out3, "label", "--data", f"{out1}/encoder.csv"]) == 0
    for name in ("contacts_pred.csv", "encoder_labeled.csv"):
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out3, name), "rb").read()
        assert a == b, f"{name} from the subcommand differs from the pipeline's"


def test_filter_reads_init_cov(workdir, tmp_path):
    _, cfg, out = workdir
    frames = dataio.read_dataset(f"{out}/imu.csv").rows(slice(0, 1000))
    dataio.write_dataset(frames, tmp_path / "imu.pcds")
    dataio.write_contacts(tmp_path / "contacts.csv", frames.t, frames.gt)
    wide = tmp_path / "wide.cfg"
    wide.write_text(open(cfg).read() + "[inekf]\ninit_cov = 1e-2\n")
    estimates = []
    for name, config in (("default", cfg), ("wide", str(wide))):
        run = tmp_path / name
        args = ["--data", str(tmp_path / "imu.pcds"), "--contacts", str(tmp_path / "contacts.csv")]
        assert main(["--config", config, "--out", str(run), "filter", *args]) == 0
        estimates.append((run / "trajectory_est.csv").read_bytes())
    assert estimates[0] != estimates[1]


@pytest.mark.parametrize("stride", [0, -1])
def test_train_stride_below_one_exit_2(workdir, tmp_path, capsys, stride):
    _, _, out = workdir
    cfg = tmp_path / "stride.cfg"
    cfg.write_text(FAST_CFG + f"stride = {stride}\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "train", "--data", f"{out}/imu.csv"]) == 2
    assert f"window stride {stride} must be >= 1" in capsys.readouterr().err


def test_train_zero_epochs_exit_2(workdir, tmp_path, capsys):
    _, cfg, out = workdir
    assert main(["--config", cfg, "--out", str(tmp_path), "train", "--data", f"{out}/imu.csv", "--epochs", "0"]) == 2
    assert "epochs must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "weights.pcnw").exists()


def test_sim_nan_duration_exit_2(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "sim", "--duration", "nan"]) == 2
    assert "duration must cover at least two gait periods" in capsys.readouterr().err


def test_sim_inf_duration_exit_2(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "sim", "--duration", "inf"]) == 2
    assert "must cover at least two gait periods and be finite" in capsys.readouterr().err


def test_sim_duration_past_the_sample_count_exit_2(tmp_path, capsys):
    # finite, but 1e308 s at 500 Hz is more samples than a float holds
    assert main(["--out", str(tmp_path), "sim", "--duration", "1e308"]) == 2
    assert "error: duration 1e+308 s at encoder_rate 500.0 Hz is not a finite sample count" in capsys.readouterr().err


def test_filter_nan_noise_exit_2(workdir, tmp_path, capsys):
    _, cfg, out = workdir
    frames = dataio.read_dataset(f"{out}/imu.csv").rows(slice(0, 1000))
    dataio.write_contacts(tmp_path / "contacts.csv", frames.t, frames.gt)
    bad = tmp_path / "nan.cfg"
    bad.write_text(open(cfg).read() + "[inekf]\ngyro_std = nan\n")
    args = ["--data", f"{out}/imu.csv", "--contacts", str(tmp_path / "contacts.csv")]
    assert main(["--config", str(bad), "--out", str(tmp_path / "run"), "filter", *args]) == 2
    assert "gyro_cov must be finite" in capsys.readouterr().err
    assert not (tmp_path / "run" / "trajectory_est.csv").exists()


def test_train_nan_learning_rate_exit_2(workdir, tmp_path, capsys):
    _, cfg, out = workdir
    bad = tmp_path / "nan.cfg"
    bad.write_text(open(cfg).read().replace("[contactnet]\n", "[contactnet]\nlearning_rate = nan\n"))
    assert main(["--config", str(bad), "--out", str(tmp_path), "train", "--data", f"{out}/imu.csv"]) == 2
    assert "learning rate must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "weights.pcnw").exists()


def _sim_with(tmp_path, cfg_text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(cfg_text)
    return main(["--config", str(cfg), "--out", str(tmp_path / "run"), "sim", "--duration", "2"])


def test_sim_inf_imu_rate_exit_2(tmp_path, capsys):
    assert _sim_with(tmp_path, "[gaitsim]\nimu_rate = inf\n") == 2
    assert "imu_rate must be positive and finite, got inf" in capsys.readouterr().err


def test_sim_nan_noise_exit_2(tmp_path, capsys):
    assert _sim_with(tmp_path, "[gaitsim]\nnoise_gyro = nan\n") == 2
    assert "noise sigma gyro must be finite and non-negative, got nan" in capsys.readouterr().err
    assert not (tmp_path / "run" / "imu.csv").exists()


@pytest.mark.parametrize("cfg_text,message", [
    ("[kinematics]\nl1 = nan\n", "leg geometry l1 must be finite, got nan"),
    ("[gaitsim]\nspeed = nan\n", "gait speed must be finite, got nan"),
])
def test_sim_nan_geometry_or_gait_exit_2(tmp_path, capsys, cfg_text, message):
    assert _sim_with(tmp_path, cfg_text) == 2
    assert message in capsys.readouterr().err


def test_filter_nan_gyro_row_exit_2(workdir, tmp_path, capsys):
    _, cfg, out = workdir
    frames = dataio.read_dataset(f"{out}/imu.csv").rows(slice(0, 1000))
    frames.gyro[500, 1] = np.nan
    dataio.write_dataset(frames, tmp_path / "imu.csv")
    dataio.write_contacts(tmp_path / "contacts.csv", frames.t, frames.gt)
    args = ["--data", str(tmp_path / "imu.csv"), "--contacts", str(tmp_path / "contacts.csv")]
    assert main(["--config", cfg, "--out", str(tmp_path / "run"), "filter", *args]) == 2
    assert f"non-finite IMU sample at t={frames.t[500]}" in capsys.readouterr().err


@pytest.mark.parametrize("ext", ["csv", "pcds"])
@pytest.mark.parametrize("kind,bad,start", [("nan_gyro", 500, 100), ("gap", 500, 100), ("nan_joint_first_row", 0, 0)])
def test_filter_bad_frame_names_file_and_row(workdir, tmp_path, capsys, ext, kind, bad, start):
    # the contacts begin at row `start`, so the filter's row 0 is the file's row `start`
    _, cfg, out = workdir
    frames = dataio.read_dataset(f"{out}/imu.csv").rows(slice(0, 1000))
    if kind == "nan_gyro":
        frames.gyro[bad, 1] = np.nan
    elif kind == "gap":
        frames.t = np.concatenate([frames.t[:bad], frames.t[bad:] + 0.2])
    else:
        frames.q[bad] = np.nan
    data = tmp_path / f"imu.{ext}"
    dataio.write_dataset(frames, data)
    dataio.write_contacts(tmp_path / "contacts.csv", frames.t[start:], frames.gt[start:])
    args = ["--data", str(data), "--contacts", str(tmp_path / "contacts.csv")]
    assert main(["--config", cfg, "--out", str(tmp_path / "run"), "filter", *args]) == 2
    where = f"{data}:{bad + 2}" if ext == "csv" else f"{data}: frame {bad}"
    message = {
        "nan_gyro": f"non-finite IMU sample at t={frames.t[bad]}",
        "gap": f"dt = {frames.t[bad] - frames.t[bad - 1]} exceeds the 0.1 s cap",
        "nan_joint_first_row": f"non-finite joint angles at t={frames.t[bad]}",
    }[kind]
    assert capsys.readouterr().err == f"error: {where}: {message}\n"
    assert not (tmp_path / "run" / "trajectory_est.csv").exists()


def test_filter_contact_code_out_of_range_names_file_and_row(workdir, tmp_path, capsys):
    _, cfg, out = workdir
    contacts = tmp_path / "contacts.csv"
    dataio.write_contacts(contacts, [0.0, 0.5, 1.0], [6, 16, 9])
    args = ["--data", f"{out}/imu.csv", "--contacts", str(contacts)]
    assert main(["--config", cfg, "--out", str(tmp_path / "run"), "filter", *args]) == 2
    assert f"error: {contacts}:3: bad contact code 16.0" in capsys.readouterr().err
    assert not (tmp_path / "run" / "trajectory_est.csv").exists()


def test_eval_pred_contact_code_out_of_range_names_file_and_row(workdir, tmp_path, capsys):
    _, cfg, _ = workdir
    pred, gt = tmp_path / "pred.csv", tmp_path / "gt.csv"
    dataio.write_contacts(pred, [0.0, 0.5], [16, 9])
    dataio.write_contacts(gt, [0.0, 0.5], [6, 9])
    assert main(["--config", cfg, "--out", str(tmp_path), "eval", "--pred", str(pred), "--gt", str(gt)]) == 2
    assert f"error: {pred}:2: bad contact code 16.0" in capsys.readouterr().err


def test_sim_unknown_gait_exit_2(tmp_path, capsys):
    assert _sim_with(tmp_path, "[gaitsim]\ngait = trott\n") == 2
    assert "unknown gait 'trott'" in capsys.readouterr().err
    assert not (tmp_path / "run" / "imu.csv").exists()


def test_optimizer_key_is_unknown(tmp_path, capsys):
    # Adam is the only optimizer, so the key is gone like any other unknown key
    assert _sim_with(tmp_path, "[contactnet]\noptimizer = adam\n") == 2
    assert f"{tmp_path / 'bad.cfg'}:2: unknown key 'optimizer'" in capsys.readouterr().err
