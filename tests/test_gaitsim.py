import numpy as np
import pytest

from proprio import gaitsim, labelgen
from proprio.dataio import bool_to_codes, hold, upsample, window_set
from proprio.gaitsim import GaitSpec, NOISELESS, simulate
from proprio.kinematics import UnreachableTargetError, fk_position
from proprio.liegroup import so3_exp


class TestStand:
    def test_static_invariants(self, legs):
        spec = GaitSpec(gait="stand", speed=0.0, noise=NOISELESS, vibration_amplitude=0.0)
        sim = simulate(spec, 3.0, legs)
        assert sim.contacts_imu.all() and sim.contacts_encoder.all()
        # accel is exactly the gravity reaction, constant
        np.testing.assert_allclose(sim.imu_frames.acc[:, 2], 9.81, atol=1e-12)
        np.testing.assert_allclose(sim.imu_frames.acc[:, :2], 0.0, atol=1e-12)
        assert np.max(np.ptp(sim.imu_frames.pf, axis=0)) == 0.0
        assert np.max(np.ptp(sim.imu_frames.q, axis=0)) == 0.0


class TestAirGait:
    def test_never_in_contact(self, legs):
        spec = GaitSpec(gait="air-trot", noise=NOISELESS)
        sim = simulate(spec, 3.0, legs)
        assert not sim.contacts_imu.any() and not sim.contacts_encoder.any()
        assert (sim.imu_frames.gt == 0).all()

    def test_feet_cycle(self, legs):
        spec = GaitSpec(gait="air-trot", noise=NOISELESS)
        sim = simulate(spec, 3.0, legs)
        # feet move with the commanded stride but never reach the ground
        pf = sim.encoder_frames.pf.reshape(-1, 4, 3)
        assert np.ptp(pf[:, 0, 0]) > 0.05
        assert np.all(pf[:, :, 2] < -0.05)


class TestTrot:
    def test_path_length(self, legs):
        spec = GaitSpec(gait="trot", speed=0.5, noise=NOISELESS, bounce_amplitude=0.0, vibration_amplitude=0.0)
        sim = simulate(spec, 10.0, legs)
        path = np.sum(np.linalg.norm(np.diff(sim.traj_pos, axis=0), axis=1))
        assert abs(path - 5.0) < 1e-6

    def test_no_slip_during_stance(self, legs):
        spec = GaitSpec(gait="trot", noise=NOISELESS, bounce_amplitude=0.0, vibration_amplitude=0.0, seed=1)
        sim = simulate(spec, 6.0, legs)
        fi = sim.imu_frames
        pf = fi.pf.reshape(-1, 4, 3)
        feet_world = np.einsum("nij,nlj->nli", sim.traj_rot, pf + legs.hip) + sim.traj_pos[:, None]
        worst = 0.0
        for leg in range(4):
            in_contact = sim.contacts_imu[:, leg]
            idx = np.flatnonzero(in_contact)
            segments = np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)
            for seg in segments:
                if len(seg) < 8:
                    continue
                worst = max(worst, float(np.max(np.ptp(feet_world[seg, leg], axis=0))))
        assert worst < 1e-9

    def test_commanded_targets_reproduced(self, legs):
        # fk of the generated joint angles reproduces the foot stream
        spec = GaitSpec(gait="trot", noise=NOISELESS, seed=2)
        sim = simulate(spec, 3.0, legs)
        fe = sim.encoder_frames
        q = fe.q.reshape(-1, 4, 3)
        pf = fe.pf.reshape(-1, 4, 3)
        np.testing.assert_allclose(fk_position(legs, q) - legs.hip, pf, atol=1e-8)

    def test_imu_double_integration(self, legs):
        spec = GaitSpec(gait="trot", turn_rate=0.1, noise=NOISELESS, bounce_amplitude=0.0, vibration_amplitude=0.0)
        sim = simulate(spec, 10.0, legs)
        fi = sim.imu_frames
        g = np.array([0.0, 0.0, -9.81])
        rot = sim.traj_rot[0].copy()
        vel = sim.traj_vel[0].copy()
        pos = sim.traj_pos[0].copy()
        for i in range(1, len(fi)):
            dt = float(fi.t[i] - fi.t[i - 1])
            acc_w = rot @ fi.acc[i - 1] + g
            pos = pos + vel * dt + 0.5 * acc_w * dt * dt
            vel = vel + acc_w * dt
            rot = rot @ so3_exp(fi.gyro[i - 1] * dt)
        assert np.linalg.norm(pos - sim.traj_pos[-1]) < 1e-3

    def test_determinism(self, legs):
        a = simulate(GaitSpec(gait="trot", seed=3), 3.0, legs)
        b = simulate(GaitSpec(gait="trot", seed=3), 3.0, legs)
        assert np.array_equal(a.imu_frames.q, b.imu_frames.q)
        assert np.array_equal(a.encoder_frames.tau, b.encoder_frames.tau)
        assert np.array_equal(a.contacts_imu, b.contacts_imu)

    def test_two_rates(self, legs):
        sim = simulate(GaitSpec(gait="trot", seed=4), 3.0, legs)
        dt_enc = np.diff(sim.encoder_frames.t)
        dt_imu = np.diff(sim.imu_frames.t)
        np.testing.assert_allclose(dt_enc, 1 / 500.0, atol=1e-12)
        np.testing.assert_allclose(dt_imu, 1 / 1000.0, atol=1e-12)


class TestValidation:
    def test_duration_too_short(self, legs):
        with pytest.raises(ValueError):
            simulate(GaitSpec(gait="trot", period=1.0), 1.5, legs)

    def test_duration_nan(self, legs):
        with pytest.raises(ValueError, match="two gait periods"):
            simulate(GaitSpec(gait="trot"), float("nan"), legs)

    def test_duration_inf(self, legs):
        with pytest.raises(ValueError, match="finite"):
            simulate(GaitSpec(gait="trot"), float("inf"), legs)

    def test_unreachable_geometry(self, legs):
        spec = GaitSpec(gait="trot", body_height=0.60)  # deeper than the leg
        with pytest.raises(UnreachableTargetError, match="leg 0: target distance outside"):
            simulate(spec, 3.0, legs)

    @pytest.mark.parametrize("gait", ["trott", "gallop", "", "Trot"])
    def test_unknown_gait_rejected(self, gait):
        with pytest.raises(ValueError, match=r"unknown gait .*'trot', 'pronk', 'stand', 'air-trot'"):
            GaitSpec(gait=gait)

    def test_bad_duty(self):
        with pytest.raises(ValueError):
            GaitSpec(duty=1.2)

    @pytest.mark.parametrize("name", ["imu_rate", "encoder_rate", "bounce_decay"])
    @pytest.mark.parametrize("rate", [float("inf"), float("nan"), 0.0, -500.0])
    def test_rates_positive_and_finite(self, name, rate):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite, got {rate}"):
            GaitSpec(**{name: rate})

    @pytest.mark.parametrize("name", ["speed", "turn_rate", "step_length", "step_height", "body_height", "mass"])
    @pytest.mark.parametrize("value", [float("nan"), float("-inf")])
    def test_gait_values_finite(self, name, value):
        with pytest.raises(ValueError, match=f"gait {name} must be finite, got {value}"):
            GaitSpec(**{name: value})

    @pytest.mark.parametrize("name", ["jitter", "bounce_amplitude", "vibration_amplitude"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.1])
    def test_gait_values_finite_non_negative(self, name, value):
        with pytest.raises(ValueError, match=f"gait {name} must be finite and non-negative, got {value}"):
            GaitSpec(**{name: value})

    @pytest.mark.parametrize("jitter", [0.81, 1.5])
    def test_jitter_at_most_max(self, jitter):
        with pytest.raises(ValueError, match=f"gait jitter must be at most 0.8 of a period, got {jitter}"):
            GaitSpec(jitter=jitter)
        GaitSpec(jitter=gaitsim.MAX_JITTER)

    @pytest.mark.parametrize("mass", [-1.0, 0.0])
    def test_mass_positive(self, mass):
        with pytest.raises(ValueError, match=f"mass must be positive and finite, got {mass}"):
            GaitSpec(mass=mass)

    @pytest.mark.parametrize("period", [float("nan"), float("inf"), 0.0])
    def test_period_positive_and_finite(self, period):
        with pytest.raises(ValueError, match="period must be positive"):
            GaitSpec(period=period)

    @pytest.mark.parametrize("name", ["encoder", "joint_rate", "gyro", "accel", "torque"])
    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.1])
    def test_sensor_noise_finite_non_negative(self, name, sigma):
        with pytest.raises(ValueError, match=f"noise sigma {name} must be finite and non-negative, got {sigma}"):
            gaitsim.SensorNoise(**{name: sigma})


class TestDeriveWindows:
    def test_stand_all_full_contact(self, legs):
        sim = simulate(GaitSpec(gait="stand", speed=0.0, noise=NOISELESS), 3.0, legs)
        windows = window_set(sim.imu_frames, w=150, stride=10)
        assert np.all(windows.labels == 15)

    def test_air_all_zero(self, legs):
        sim = simulate(GaitSpec(gait="air-trot", noise=NOISELESS), 3.0, legs)
        windows = window_set(sim.imu_frames, w=150, stride=10)
        assert np.all(windows.labels == 0)

    def test_labels_align_with_touchdowns(self, legs):
        sim = simulate(GaitSpec(gait="trot", seed=5), 4.0, legs)
        windows = window_set(sim.imu_frames, w=150, stride=1)
        codes = sim.imu_frames.gt[windows.end_indices]
        assert np.array_equal(windows.labels, codes)

    def test_held_encoder_labels_match_upsampled_labels(self, legs):
        # the IMU frames carry the encoder channels upsampled, so holding
        # encoder-rate labels onto them is the same as upsampling the
        # labeled encoder stream
        spec = GaitSpec(gait="trot", seed=8, jitter=0.02)
        sim = simulate(spec, 3.0, legs)
        enc, imu = sim.encoder_frames, sim.imu_frames
        labels = bool_to_codes(labelgen.generate_labels(enc.pf.reshape(len(enc), 4, 3)[:, :, 2]))
        held = labels[hold(enc.t, imu.t)]
        enc.gt = labels
        up = upsample(enc, spec.imu_rate)
        for name in ("t", "q", "qd", "pf", "vf", "tau"):
            assert np.array_equal(getattr(imu, name), getattr(up, name)), name
        assert np.array_equal(held, up.gt)

    def test_jitter_moves_contacts(self, legs):
        a = simulate(GaitSpec(gait="trot", seed=6, jitter=0.0), 4.0, legs)
        b = simulate(GaitSpec(gait="trot", seed=6, jitter=0.05), 4.0, legs)
        assert (a.contacts_imu != b.contacts_imu).mean() > 0.01


class TestSchedule:
    def test_one_draw_keeps_the_per_leg_order(self):
        # each leg's touchdown jitters, then its liftoff jitters, leg after leg
        spec = GaitSpec(gait="trot", jitter=0.01)
        td, lo = gaitsim._stance_schedule(spec, 3.0, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        k = np.arange(-2, 6)
        for leg, name in enumerate(("RF", "LF", "RH", "LH")):
            base = (k + gaitsim.TROT_OFFSETS[name]) * spec.period
            np.testing.assert_array_equal(td[leg], base + rng.uniform(-0.01, 0.01, k.shape) * spec.period)
            lo_leg = base + spec.duty * spec.period + rng.uniform(-0.01, 0.01, k.shape) * spec.period
            np.testing.assert_array_equal(lo[leg], lo_leg)

    @pytest.mark.parametrize("jitter", [0.0, 0.3, gaitsim.MAX_JITTER])
    def test_last_touchdown_lies_past_the_run(self, jitter):
        # so clipping the lookup to K - 2 never changes a stance flag
        duration = 3.0
        spec = GaitSpec(gait="trot", jitter=jitter)
        td, lo = gaitsim._stance_schedule(spec, duration, np.random.default_rng(1))
        assert np.all(td[:, -1] > duration + spec.period)
        t = np.arange(0.0, duration + 5e-4, 1e-3)
        idx, stance = gaitsim._stance(td, lo, t)
        for leg in range(4):
            last = np.searchsorted(td[leg], t, side="right") - 1
            assert np.array_equal(idx[:, leg], last)
            assert np.array_equal(stance[:, leg], (t >= td[leg, last]) & (t < lo[leg, last]))

    @pytest.mark.parametrize("jitter", [0.2, gaitsim.MAX_JITTER])
    def test_both_phases_keep_a_tenth_of_a_period(self, jitter):
        # a delayed touchdown delays its liftoff too, so no stance shrinks below the floor
        floor = 0.1 * (1.0 - 1e-12)
        for seed in range(40):
            td, lo = gaitsim._stance_schedule(GaitSpec(gait="trot", jitter=jitter), 10.0, np.random.default_rng(seed))
            assert np.all(lo - td >= floor) and np.all(td[:, 1:] - lo[:, :-1] >= floor)

    def test_no_liftoff_moves_up_to_a_fifth_of_a_period(self):
        # below 0.2 the delays leave every liftoff where the clip put it
        spec = GaitSpec(gait="trot", jitter=0.2)
        for seed in range(40):
            td, lo = gaitsim._stance_schedule(spec, 10.0, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            k = np.arange(td.shape[1]) - 2
            draws = rng.uniform(-0.2, 0.2, size=(4, 2) + k.shape)
            td0 = (k + gaitsim._gait_offsets(spec)[:, None]) + draws[:, 0]
            lo0 = np.clip(k + gaitsim._gait_offsets(spec)[:, None] + spec.duty + draws[:, 1], td0 + 0.1, td0 + 0.9)
            np.testing.assert_array_equal(lo, lo0)

    def test_trajectory_runs_on_the_imu_clock(self, legs):
        # the true trajectory is sampled at the IMU frames' times; no copy of them is kept
        sim = simulate(GaitSpec(gait="trot", noise=NOISELESS), 2.0, legs)
        assert len(sim.traj_pos) == len(sim.traj_rot) == len(sim.imu_frames)
        assert not hasattr(sim, "traj_t")
