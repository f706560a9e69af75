"""The three benchmark workloads, each driven through proprio's public API.

Every workload is a closed loop: one call at a time, the next only after
the previous returned. `setup(seed)` builds the inputs from the seed (proprio
sees only those inputs), `call()` runs one timed operation and checks its
output, returning (wall seconds, work, attempted, failed): work is the
amount the throughput counts (steps, windows, IMU frames), attempted and
failed count operations (steps, windows, pipeline runs). Only the work a
user waits for is inside the timed interval; the checks run after it.

Each workload class also names its throughput as a user would (`rate_name`)
and the operation `attempted` counts (`unit`).
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

from proprio import cli, dataio, gaitsim, inekf
from proprio.config import load_config
from proprio.contactnet import network

from perlayer import trace_targets

# Gait shared by the simulated inputs: a trot with stance jitter (fraction
# of the gait period) and a steady turn (rad/s), so feet switch contact
# about 8 times/s with about 2 feet down and the heading keeps changing.
JITTER = 0.05
TURN_RATE = 0.3
N_CLASSES = 16


def _frames(f, s):
    """Rows s of a FrameSequence, without torques or labels."""
    return dataio.FrameSequence(f.t[s], f.q[s], f.qd[s], f.acc[s], f.gyro[s], f.pf[s], f.vf[s], None, None)


def _gait_config(duration):
    cfg = load_config()
    cfg.gaitsim.jitter = JITTER
    cfg.gaitsim.turn_rate = TURN_RATE
    cfg.gaitsim.duration = duration
    return cfg


class OdometryTrot:
    """filter_sequence over 2.5 s segments of a 20 s trot, ground-truth contacts."""

    name = "odometry-trot"
    work = "filter steps"
    rate_name = "steps_per_s"
    unit = "steps"
    TROT_S = 20.0
    SEGMENT = 2500  # IMU frames per call at 1 kHz
    DRIFT_CEILING_PCT = 20.0  # sanity bound; healthy segments drift 1-5 %
    ORTHO_TOL = 1e-6
    traced_calls = 3
    expected = frozenset({
        "inekf.filter_sequence", "inekf.step", "inekf.propagate",
        "inekf.update_contact_kinematics", "inekf.augment_contact",
        "inekf.marginalize_contact", "kinematics.fk", "liegroup", "gaitsim.simulate",
    })

    def setup(self, seed, warm=True):
        cfg = _gait_config(self.TROT_S)
        self.legs = cfg.kinematics.legs()
        self.noise = cfg.inekf.noise()
        sim = gaitsim.simulate(cfg.gaitsim.spec(seed=seed), self.TROT_S, self.legs)
        f = sim.imu_frames
        self.segments = []
        for a in range(0, len(f) - self.SEGMENT + 1, self.SEGMENT):
            s = slice(a, a + self.SEGMENT)
            init = inekf.make_initial_state(
                rot=sim.traj_rot[a], vel=sim.traj_vel[a], pos=sim.traj_pos[a], t=float(f.t[a])
            )
            self.segments.append((_frames(f, s), sim.contacts_imu[s], init, sim.traj_pos[s]))
        self.next = 0
        self.drifts = []
        if warm:
            frames, contacts, init, _ = self.segments[0]
            head = slice(0, 100)
            inekf.filter_sequence(_frames(frames, head), contacts[head], self.legs, self.noise, init)

    def call(self):
        frames, contacts, init, gt_pos = self.segments[self.next % len(self.segments)]
        self.next += 1
        start = time.perf_counter()
        t, rot, vel, pos = inekf.filter_sequence(frames, contacts, self.legs, self.noise, init)
        wall = time.perf_counter() - start

        finite = np.isfinite(t) & np.isfinite(rot).all(axis=(1, 2)) & np.isfinite(vel).all(axis=1) & np.isfinite(pos).all(axis=1)
        gram = np.einsum("nji,njk->nik", rot, rot) - np.eye(3)
        ok = finite & (np.abs(np.nan_to_num(gram, nan=1.0)).max(axis=(1, 2)) < self.ORTHO_TOL)
        steps = len(t) - 1
        failed = int(np.count_nonzero(~ok[1:]))
        path = float(np.sum(np.linalg.norm(np.diff(gt_pos, axis=0), axis=1)))
        drift = 100.0 * float(np.linalg.norm(pos[-1] - gt_pos[-1])) / path
        if not drift <= self.DRIFT_CEILING_PCT:
            failed = steps
        else:
            self.drifts.append(drift)
        return wall, steps, steps, failed

    def quality(self):
        return {"drift_pct": (statistics.median(self.drifts), "%")} if self.drifts else {}

    def close(self):
        pass


class ClassifyStream:
    """Stride-1 windows of a 10 s stream, classified 256 at a time like `proprio infer`."""

    name = "classify-stream"
    work = "windows"
    rate_name = "windows_per_s"
    unit = "windows"
    STREAM_S = 10.0
    BATCH = 256
    traced_calls = 6
    expected = frozenset({
        "gaitsim.simulate", "dataio.window_set", "dataio.window_batch", "dataio.normalize_window",
        "contactnet.predict_batch", "contactnet.conv1d_forward", "contactnet.relu_forward",
        "contactnet.dropout_forward", "contactnet.maxpool1d_forward", "contactnet.dense_forward",
    })

    def setup(self, seed, warm=True):
        cfg = _gait_config(self.STREAM_S)
        sim = gaitsim.simulate(cfg.gaitsim.spec(seed=seed), self.STREAM_S, cfg.kinematics.legs())
        cn = cfg.contactnet
        self.spec = network.preset(cn.preset, window=cn.window, n_classes=cn.classes, dropout=cn.dropout)
        self.windows = dataio.window_set(sim.imu_frames, self.spec.window, stride=1)
        self.params = network.init_params(self.spec, np.random.default_rng(seed))
        self.n_batches = len(self.windows) // self.BATCH
        self.next = 0
        if warm:
            self.call()
            self.next = 0

    def call(self):
        b = self.next % self.n_batches
        self.next += 1
        idx = np.arange(b * self.BATCH, (b + 1) * self.BATCH)
        start = time.perf_counter()
        x = dataio.normalize_window(self.windows.batch(idx))
        codes = network.predict_batch(self.params, self.spec, x)
        wall = time.perf_counter() - start

        codes = np.asarray(codes)
        if codes.shape != (len(idx),) or not np.issubdtype(codes.dtype, np.integer):
            failed = len(idx)
        else:
            failed = int(np.count_nonzero((codes < 0) | (codes >= N_CLASSES)))
        return wall, len(idx), len(idx), failed

    def quality(self):
        return {}

    def close(self):
        pass


# A short jittered turning trot and two epochs at stride 8: about 160
# training windows per epoch, 1,850 stride-1 windows classified, 1,850
# filter steps. Training, inference and the CSV writers all take a real
# share of the wall time.
PIPELINE_CONFIG = f"""\
[gaitsim]
duration = 2.0
jitter = {JITTER}
turn_rate = {TURN_RATE}
[contactnet]
epochs = 2
stride = 8
"""
PIPELINE_IMU_FRAMES = 2001  # 2 s at the default 1 kHz IMU rate, both ends included


def _csv_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _finite_report(path):
    """Rows of a report CSV whose every field but `name` parses to a finite float."""
    rows = _csv_rows(path)
    for row in rows:
        for key, value in row.items():
            if key != "name" and not math.isfinite(float(value)):
                raise ValueError(f"{path}: {key}={value!r} is not finite")
    return rows


class PipelineShort:
    """`proprio pipeline` in-process through cli.main on a small config."""

    name = "pipeline-short"
    work = "IMU frames"
    rate_name = "frames_per_s"
    unit = "pipeline runs"
    traced_calls = 1

    def __init__(self, root):
        self.root = root
        self.workdir = None
        # the pipeline is the one workload that reaches every traced layer
        self.expected = frozenset(name for _, _, name, _ in trace_targets())

    def setup(self, seed, warm=True):
        self.close()
        self.seed = seed
        scratch = os.path.join(self.root, ".perfbench_tmp")
        os.makedirs(scratch, exist_ok=True)
        self.workdir = tempfile.mkdtemp(dir=scratch)
        self.config = os.path.join(self.workdir, "pipeline.cfg")
        with open(self.config, "w") as f:
            f.write(PIPELINE_CONFIG)
        self.drifts = []
        self.accs = []

    def call(self):
        out = tempfile.mkdtemp(dir=self.workdir)
        argv = ["--config", self.config, "--seed", str(self.seed), "--out", out, "pipeline"]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                rc = cli.main(argv)
                wall = time.perf_counter() - start
            failed = 0
            try:
                if rc != 0:
                    raise ValueError(f"pipeline exited {rc}")
                traj = _finite_report(os.path.join(out, "trajectory_metrics.csv"))
                cls = _finite_report(os.path.join(out, "classification.csv"))
                frames = len(_csv_rows(os.path.join(out, "contacts_gt.csv")))
                if frames != PIPELINE_IMU_FRAMES:
                    raise ValueError(f"contacts_gt.csv has {frames} rows, want {PIPELINE_IMU_FRAMES}")
                self.drifts.append(float(traj[0]["final_drift_pct"]))
                self.accs.append(float(cls[0]["leg_avg_acc"]))
            except (OSError, ValueError, KeyError, IndexError) as exc:
                print(f"pipeline output check failed: {exc}", file=sys.stderr)
                failed = 1
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return wall, PIPELINE_IMU_FRAMES, 1, failed

    def quality(self):
        if not self.drifts:
            return {}
        return {
            "drift_pct": (statistics.median(self.drifts), "%"),
            "contact_acc": (statistics.median(self.accs), "1"),
        }

    def close(self):
        if self.workdir is None:
            return
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(self.workdir))
        self.workdir = None


def make(name, root):
    return {
        OdometryTrot.name: OdometryTrot,
        ClassifyStream.name: ClassifyStream,
        PipelineShort.name: lambda: PipelineShort(root),
    }[name]()


NAMES = (OdometryTrot.name, ClassifyStream.name, PipelineShort.name)
