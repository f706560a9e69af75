"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with -s to see the per-criterion lines. The classifier used by A3, A5
and A7 is trained once (module-scoped fixture) on 20,000 synthetic windows.
"""

import time

import numpy as np
import pytest

from proprio import baselines, dataio, evalkit, gaitsim, inekf, labelgen
from proprio.contactnet import (
    ArchitectureSpec,
    Conv,
    Dense,
    Dropout,
    Flatten,
    Pool,
    Relu,
    TrainConfig,
    forward,
    init_params,
    load_params,
    loss,
    preset,
    save_params,
    train,
)
from proprio.contactnet import network as net
from proprio.dataio import WindowSet, codes_to_bool, normalize_window
from proprio.inekf import ImuSample, NoiseParams, make_initial_state

WINDOW = 150
CLASSES = 16


def _merge_window_sets(sets, w):
    offset = 0
    feats, ends, labels = [], [], []
    for ws in sets:
        feats.append(ws.features)
        ends.append(ws.end_indices + offset)
        labels.append(ws.labels)
        offset += ws.features.shape[0]
    return WindowSet(np.vstack(feats), np.concatenate(ends), np.concatenate(labels), w)


def _per_leg_accuracy(pred_codes, gt_codes, num_legs=4):
    pred = codes_to_bool(pred_codes, num_legs)
    gt = codes_to_bool(gt_codes, num_legs)
    return (pred == gt).mean(axis=0)


def _predict_codes(params, spec, windows, batch=256):
    n = len(windows)
    out = np.zeros(n, dtype=np.int64)
    for start in range(0, n, batch):
        idx = np.arange(start, min(start + batch, n))
        x = normalize_window(windows.batch(idx))
        out[idx] = net.predict_batch(params, spec, x)
    return out


@pytest.fixture(scope="module")
def training_data(legs):
    """20,000 labeled windows: noisy jittered trot + pronk + air trot."""
    recipes = (
        ("trot", 40.0, dict(seed=101, jitter=0.05, turn_rate=0.1)),
        ("pronk", 25.0, dict(seed=102, duty=0.45, speed=0.3)),
        ("air-trot", 16.0, dict(seed=103)),
    )
    sets = []
    for gait, duration, kw in recipes:
        spec = gaitsim.GaitSpec(gait=gait, **kw)
        sim = gaitsim.simulate(spec, duration, legs)
        sets.append(gaitsim.derive_windows(sim.imu_frames, WINDOW, stride=4))
    pool = _merge_window_sets(sets, WINDOW)
    assert len(pool) >= 20_000
    keep = np.random.default_rng(0).permutation(len(pool))[:20_000]
    return pool.subset(np.sort(keep))


@pytest.fixture(scope="module")
def trained(training_data):
    """The 2-block network trained at the protocol settings (batch 30,
    lr 1e-4); epochs capped for desk-scale runtime."""
    t0 = time.monotonic()
    train_set, val_set, test_set = dataio.split_dataset(training_data, seed=1)
    spec = preset("2blocks", window=WINDOW, in_channels=54, n_classes=CLASSES)
    cfg = TrainConfig(batch_size=30, learning_rate=1e-4, epochs=3, seed=5)
    params, log = train(train_set, cfg, spec, val_set)
    pred = _predict_codes(params, spec, test_set)
    runtime = time.monotonic() - t0
    return {
        "params": params,
        "spec": spec,
        "log": log,
        "test_pred": pred,
        "test_labels": test_set.labels,
        "runtime": runtime,
    }


class TestA1Gradients:
    LAYER_CASES = (
        ((Conv(3, 5), Flatten(), Dense(5 * 8, 4)), "conv"),
        ((Pool(2), Flatten(), Dense(3 * 4, 4)), "pool"),
        ((Relu(), Flatten(), Dense(3 * 8, 4)), "relu"),
        ((Dropout(0.3), Flatten(), Dense(3 * 8, 4)), "dropout"),
        ((Flatten(), Dense(24, 6), Relu(), Dense(6, 4)), "dense"),
    )

    def _max_rel_error(self, spec, params, window, label, h=1e-5, seed=11):
        def value():
            v, _, _ = net.loss_and_grads(
                params, spec, window, [label], "train", np.random.default_rng(seed)
            )
            return v

        _, grads, _ = net.loss_and_grads(
            params, spec, window, [label], "train", np.random.default_rng(seed)
        )
        worst = 0.0
        for i, p in enumerate(params):
            if p is None:
                continue
            for j in range(2):
                arr = p[j]
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    ix = it.multi_index
                    orig = arr[ix]
                    arr[ix] = orig + h
                    up = value()
                    arr[ix] = orig - h
                    down = value()
                    arr[ix] = orig
                    fd = (up - down) / (2 * h)
                    g = grads[i][j][ix]
                    worst = max(worst, abs(fd - g) / max(abs(fd), abs(g), 1e-8))
        return worst

    def test_a1_gradient_correctness(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(3)
        worst = 0.0
        for layers, _name in self.LAYER_CASES:
            spec = ArchitectureSpec(tuple(layers), window=8, in_channels=3, n_classes=4)
            params = init_params(spec, rng)
            worst = max(worst, self._max_rel_error(spec, params, rng.normal(size=(8, 3)), 1))
        tiny = ArchitectureSpec(
            (
                Conv(3, 4), Relu(), Conv(4, 8), Relu(), Dropout(0.2), Pool(2),
                Flatten(), Dense(32, 16), Relu(), Dropout(0.2),
                Dense(16, 8), Relu(), Dense(8, 4),
            ),
            window=8, in_channels=3, n_classes=4,
        )
        params = init_params(tiny, rng)
        worst = max(worst, self._max_rel_error(tiny, params, rng.normal(size=(8, 3)), 2))
        elapsed = time.monotonic() - t0
        assert worst < 1e-5
        assert elapsed < 60.0
        print(f"\nA1 PASS: max finite-difference relative error {worst:.2e} in {elapsed:.1f} s")


class TestA2Loss:
    def test_a2_loss_sanity(self):
        uniform_err = abs(loss(np.zeros(16), 7) - np.log(16.0))
        rng = np.random.default_rng(4)
        shift_err = 0.0
        for _ in range(100):
            logits = rng.normal(scale=3.0, size=16)
            label = int(rng.integers(16))
            shift_err = max(
                shift_err, abs(loss(logits, label) - loss(logits + 987.0, label))
            )
        assert uniform_err < 1e-9
        assert shift_err < 1e-12
        print(f"\nA2 PASS: uniform loss error {uniform_err:.1e}, shift error {shift_err:.1e}")


class TestA3Classification:
    def test_a3_synthetic_classification(self, trained):
        acc16 = float(np.mean(trained["test_pred"] == trained["test_labels"]))
        per_leg = _per_leg_accuracy(trained["test_pred"], trained["test_labels"])
        assert per_leg.mean() >= 0.95
        assert acc16 >= 0.90
        assert trained["runtime"] < 1800.0
        print(
            f"\nA3 PASS: 16-class {acc16:.4f}, leg-average {per_leg.mean():.4f} "
            f"({trained['runtime']:.0f} s for data+train+eval)"
        )


class TestA4LabelGeneration:
    def test_a4_label_generation(self, legs):
        spec = gaitsim.GaitSpec(gait="trot", seed=201)  # bounce on by default
        sim = gaitsim.simulate(spec, 100.0, legs)
        heights = sim.encoder_frames.pf.reshape(-1, 4, 3)[:, :, 2]
        t0 = time.monotonic()
        labels = labelgen.generate_labels(heights, labelgen.LabelGenConfig("trot"))
        elapsed = time.monotonic() - t0
        gt = sim.contacts_encoder
        agreement = float((labels == gt).mean())
        stray = 0
        for leg in range(4):
            lab_rises = np.flatnonzero(labels[1:, leg] & ~labels[:-1, leg]) + 1
            true_rises = np.flatnonzero(gt[1:, leg] & ~gt[:-1, leg]) + 1
            if len(lab_rises) > len(true_rises):
                stray += len(lab_rises) - len(true_rises)
            for r in lab_rises:
                if np.min(np.abs(true_rises - r)) > 40:
                    stray += 1
        assert agreement >= 0.98
        assert stray == 0
        assert elapsed < 5.0
        print(
            f"\nA4 PASS: agreement {agreement:.4f}, extra rising edges {stray}, "
            f"{elapsed:.2f} s per 100 s sequence"
        )


def _run_filter(sim, legs, contacts, start=0):
    frames = sim.imu_frames
    sub = dataio.FrameSequence(
        frames.t[start:], frames.q[start:], frames.qd[start:], frames.acc[start:],
        frames.gyro[start:], frames.pf[start:], frames.vf[start:],
    )
    init = make_initial_state(
        rot=sim.traj_rot[start], vel=sim.traj_vel[start], pos=sim.traj_pos[start],
        t=float(frames.t[start]),
    )
    return inekf.filter_sequence(sub, contacts[start:], legs, NoiseParams(), init)


class TestA5Filter:
    def test_a5_filter_correctness(self, legs, trained):
        # static stance, noiseless
        stand = gaitsim.simulate(
            gaitsim.GaitSpec(gait="stand", speed=0.0, noise=gaitsim.NOISELESS, vibration_amplitude=0.0),
            10.0, legs,
        )
        _, _, _, pos_s = _run_filter(stand, legs, stand.contacts_imu)
        static_err = float(np.linalg.norm(pos_s[-1] - stand.traj_pos[0]))
        assert static_err < 1e-6

        # noiseless trot, ground-truth contacts
        spec = gaitsim.GaitSpec(
            gait="trot", turn_rate=0.12, seed=202,
            noise=gaitsim.NOISELESS, bounce_amplitude=0.0,
        )
        sim = gaitsim.simulate(spec, 10.0, legs)
        path = float(np.sum(np.linalg.norm(np.diff(sim.traj_pos, axis=0), axis=1)))
        assert path > 4.9  # ~5 m path
        _, _, _, pos_gt = _run_filter(sim, legs, sim.contacts_imu)
        drift_gt = float(np.linalg.norm(pos_gt[-1] - sim.traj_pos[-1])) / path
        assert drift_gt < 0.01

        # the same run driven by the trained network's contacts
        windows = dataio.window_set(sim.imu_frames, WINDOW, stride=1)
        codes = _predict_codes(trained["params"], trained["spec"], windows)
        contacts = np.vstack(
            [sim.contacts_imu[: WINDOW - 1], codes_to_bool(codes, 4)]
        )
        start = WINDOW - 1
        _, _, _, pos_net = _run_filter(sim, legs, contacts, start=start)
        drift_net = float(np.linalg.norm(pos_net[-1] - sim.traj_pos[-1])) / path
        contact_acc = float((codes_to_bool(codes, 4) == sim.contacts_imu[start:]).mean())
        assert drift_net < 0.03
        print(
            f"\nA5 PASS: static {static_err:.2e} m, trot drift gt {100 * drift_gt:.3f}%, "
            f"network {100 * drift_net:.3f}% (contact acc {contact_acc:.4f})"
        )


class TestA6Invariance:
    def test_a6_yaw_equivariance_and_psd(self, legs):
        spec = gaitsim.GaitSpec(gait="trot", turn_rate=0.15, seed=203)
        sim = gaitsim.simulate(spec, 10.0, legs)
        fi = sim.imu_frames
        noise = NoiseParams()
        ang = 2.031
        c, s = np.cos(ang), np.sin(ang)
        gmat = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        base = make_initial_state(rot=sim.traj_rot[0], vel=sim.traj_vel[0], pos=sim.traj_pos[0], t=float(fi.t[0]))
        rotated = make_initial_state(
            rot=gmat @ sim.traj_rot[0], vel=gmat @ sim.traj_vel[0],
            pos=gmat @ sim.traj_pos[0], t=float(fi.t[0]),
        )
        _, rot_a, _, pos_a = inekf.filter_sequence(fi, sim.contacts_imu, legs, noise, base)
        _, rot_b, _, pos_b = inekf.filter_sequence(fi, sim.contacts_imu, legs, noise, rotated)
        equivariance = float(np.max(np.linalg.norm(pos_a @ gmat.T - pos_b, axis=1)))
        assert equivariance < 1e-6

        # 1e5-step run with a PSD/symmetry check at every step
        long_sim = gaitsim.simulate(gaitsim.GaitSpec(gait="trot", seed=204), 100.0, legs)
        lf = long_sim.imu_frames
        assert len(lf) >= 100_000
        state = make_initial_state(
            rot=long_sim.traj_rot[0], vel=long_sim.traj_vel[0],
            pos=long_sim.traj_pos[0], t=float(lf.t[0]),
        )
        alpha0 = lf.q[0].reshape(4, 3)
        for leg, want in enumerate(long_sim.contacts_imu[0]):
            if want:
                state = inekf.augment_contact(state, leg, alpha0, legs, noise)
        worst_asym = 0.0
        worst_eig = np.inf
        for i in range(1, len(lf)):
            imu = ImuSample(lf.gyro[i], lf.acc[i], float(lf.t[i]))
            state = inekf.step(state, imu, lf.q[i].reshape(4, 3), long_sim.contacts_imu[i], legs, noise)
            worst_asym = max(worst_asym, float(np.max(np.abs(state.cov - state.cov.T))))
            worst_eig = min(worst_eig, float(np.linalg.eigvalsh(state.cov).min()))
        assert worst_asym < 1e-10
        assert worst_eig > -1e-9
        print(
            f"\nA6 PASS: yaw equivariance {equivariance:.2e}, {len(lf) - 1} steps, "
            f"max asymmetry {worst_asym:.1e}, min eigenvalue {worst_eig:.1e}"
        )


class TestA7BaselineOrdering:
    def test_a7_baseline_ordering(self, legs, trained):
        spec = gaitsim.GaitSpec(gait="trot", seed=205, jitter=0.08, turn_rate=0.05)
        sim = gaitsim.simulate(spec, 30.0, legs)

        # network: predictions at the encoder rate (windows over IMU frames)
        windows = dataio.window_set(sim.imu_frames, WINDOW, stride=2)
        codes = _predict_codes(trained["params"], trained["spec"], windows)
        gt_net = codes_to_bool(sim.imu_frames.gt[windows.end_indices], 4)
        rep_net = evalkit.classification_metrics(codes_to_bool(codes, 4), gt_net)

        sched = baselines.GaitSchedule(
            period=spec.period,
            offsets=np.array([gaitsim.TROT_OFFSETS[n] for n in ("RF", "LF", "RH", "LH")]),
            duty=spec.duty,
        )
        rep_gait = evalkit.classification_metrics(
            baselines.gait_cycle_detect(sim.encoder_frames.t, sched), sim.contacts_encoder
        )
        rep_grf = evalkit.classification_metrics(
            baselines.grf_threshold_detect(sim.encoder_frames, baselines.GrfConfig(), legs),
            sim.contacts_encoder,
        )
        net_acc = rep_net.leg_average_accuracy
        gait_acc = rep_gait.leg_average_accuracy
        grf_acc = rep_grf.leg_average_accuracy
        assert net_acc > gait_acc > grf_acc
        print(
            f"\nA7 PASS: network {net_acc:.4f} > gait-cycle {gait_acc:.4f} > "
            f"force-threshold {grf_acc:.4f}"
        )


class TestA8Metrics:
    def test_a8_metric_definitions(self):
        # hand-built confusion counts
        gt = np.zeros((10, 4), dtype=bool)
        pred = np.zeros((10, 4), dtype=bool)
        gt[:4, 0] = True
        pred[:3, 0] = True
        pred[4:6, 0] = True
        rep = evalkit.classification_metrics(pred, gt)
        c = rep.counts[0]
        assert (c.tp, c.fp, c.tn, c.fn) == (3, 2, 4, 1)
        assert rep.leg_fpr[0] == 2 / (2 + 4)
        assert rep.leg_fnr[0] == 1 / (1 + 3)

        # all-negative stream: FPR 0, FNR absent
        zeros = np.zeros((32, 4), dtype=bool)
        rep_air = evalkit.classification_metrics(zeros, zeros)
        assert rep_air.average_fpr == 0.0
        assert rep_air.average_fnr is None
        print("\nA8 PASS: FPR/FNR definitions exact, absent rates reported as N/A")


class TestA9Formats:
    def test_a9_roundtrips_and_checksums(self, tmp_path, legs):
        rng = np.random.default_rng(6)
        n = 64
        frames = dataio.FrameSequence(
            t=np.arange(n) / 500.0,
            q=rng.normal(size=(n, 12)), qd=rng.normal(size=(n, 12)),
            acc=rng.normal(size=(n, 3)), gyro=rng.normal(size=(n, 3)),
            pf=rng.normal(size=(n, 12)), vf=rng.normal(size=(n, 12)),
            tau=rng.normal(size=(n, 12)), gt=rng.integers(0, 16, size=n),
        )
        dpath = tmp_path / "d.pcds"
        dataio.write_dataset(frames, dpath)
        back = dataio.read_dataset(dpath)
        for name in ("t", "q", "qd", "acc", "gyro", "pf", "vf", "tau", "gt"):
            assert np.array_equal(getattr(back, name), getattr(frames, name))

        blob = bytearray(dpath.read_bytes())
        blob[40] ^= 0xFF
        dpath.write_bytes(bytes(blob))
        with pytest.raises(dataio.ChecksumFailureError):
            dataio.read_dataset(dpath)

        spec = preset("1block", window=32, in_channels=54, n_classes=16)
        params = init_params(spec, rng)
        wpath = tmp_path / "w.pcnw"
        save_params(params, spec, wpath)
        loaded, spec2 = load_params(wpath)
        assert spec2 == spec
        for a, b in zip(params, loaded):
            if a is not None:
                assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        wblob = bytearray(wpath.read_bytes())
        wblob[-10] ^= 0x01
        wpath.write_bytes(bytes(wblob))
        with pytest.raises(net.ChecksumFailureError):
            load_params(wpath)
        print("\nA9 PASS: dataset and weight files roundtrip bit-exactly, corruption detected")


class TestA10Ablations:
    def test_a10_architecture_presets(self):
        rng = np.random.default_rng(7)
        w = 48
        n = 60
        x = rng.normal(size=(n, w, 54))
        y = rng.integers(0, 16, size=n)
        feats = x.reshape(n * w, 54)
        ends = np.arange(n) * w + (w - 1)
        toy = WindowSet(feats, ends, y, w)
        names = []
        for name in ("2blocks", "1block", "4blocks", "convpool"):
            spec = preset(name, window=w, in_channels=54, n_classes=16)
            shapes = net.trace_shapes(spec)
            assert shapes[-1] == (16,)
            cfg = TrainConfig(batch_size=30, learning_rate=1e-4, epochs=1, seed=8)
            params, log = train(toy, cfg, spec)
            assert np.isfinite(log[0]["train_loss"])
            logits = forward(params, spec, x[0])
            assert logits.shape == (16,)
            names.append(name)
        print(f"\nA10 PASS: presets {', '.join(names)} build, shape-check and train")
