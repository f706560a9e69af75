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


def test_label_unordered_timestamps_exit_2(workdir, tmp_path, capsys):
    _, cfg, out = workdir
    frames = dataio.read_dataset(f"{out}/encoder.csv")
    frames.t[[10, 11]] = frames.t[[11, 10]]
    path = tmp_path / "swapped.csv"
    dataio.write_dataset(frames, path)
    assert main(["--config", cfg, "--out", str(tmp_path), "label", "--data", str(path)]) == 2
    assert f"{path}:13:" in capsys.readouterr().err


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


def test_train_dropout_one_exit_2(workdir, tmp_path):
    _, _, out = workdir
    cfg = tmp_path / "dropout.cfg"
    cfg.write_text(FAST_CFG + "dropout = 1.0\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "train", "--data", f"{out}/imu.csv"]) == 2


def test_eval_requires_inputs(workdir):
    _, cfg, out = workdir
    assert main(["--config", cfg, "--out", out, "eval"]) == 1


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
