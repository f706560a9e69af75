import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg.lapack import dgesv  # an independent LAPACK reference for the gain

import proprio
from proprio import gaitsim, inekf
from proprio.config import load_config
from proprio.inekf import (
    DIM,
    MAX_DT,
    NUM_LEGS,
    FilterState,
    FrameError,
    NoiseParams,
    augment_contact,
    make_initial_state,
    marginalize_contact,
    propagate,
    step,
    update_contact_kinematics,
)
from proprio.kinematics import fk_jacobian, fk_position
from proprio.liegroup import (
    ORTHOGONALITY_TOL,
    GroupElement,
    adjoint,
    orthogonality_defect,
    sek3_compose,
    sek3_exp,
    skew,
    so3_exp,
)

GRAVITY = np.array([0.0, 0.0, -9.81])
STANCE = np.tile([0.0, 0.5, 1.0], (4, 1))


def noise_params():
    return NoiseParams()


def one_frame(state, gyro, accel, alpha, t, legs, noise=NoiseParams()):
    """The record of one step from state.t to t (row 1 of a two-row sequence)."""
    gyro, accel, q = (np.tile(np.ravel(v), (2, 1)) for v in (gyro, accel, alpha))
    records = inekf.frame_records([state.t, t], gyro, accel, q, legs, noise, state.t)
    next(records)
    return next(records)


def kinematic_frame(alpha, legs, noise=NoiseParams()):
    """The record of an initial frame: its foot positions and encoder covariances."""
    q = np.reshape(alpha, (1, -1))
    return next(inekf.frame_records([0.0], np.zeros((1, 3)), np.zeros((1, 3)), q, legs, noise, 0.0))


def hover_frame(state, t, legs):
    # accel that exactly cancels gravity in the body frame
    return one_frame(state, np.zeros(3), state.rotation.T @ (-GRAVITY), STANCE, t, legs)


def assert_psd(p, tol=1e-9):
    np.testing.assert_allclose(p, p.T, atol=1e-10)
    assert np.linalg.eigvalsh(p).min() > -tol


def assert_zero_slots(state):
    """Every leg out of contact has an exactly zero column and covariance block."""
    assert state.mean.cols.shape == (2 + NUM_LEGS, 3)
    assert state.cov.shape == (DIM, DIM)
    for leg, on in enumerate(state.contacts):
        if not on:
            blk = slice(9 + 3 * leg, 12 + 3 * leg)
            assert not np.any(state.mean.cols[2 + leg])
            assert not np.any(state.cov[blk, :])
            assert not np.any(state.cov[:, blk])


class TestPropagate:
    def test_hover_keeps_state(self, legs):
        state = make_initial_state(rot=so3_exp([0.1, -0.2, 0.3]))
        out = propagate(state, hover_frame(state, 0.001, legs), noise_params())
        np.testing.assert_allclose(out.velocity, 0.0, atol=1e-15)
        np.testing.assert_allclose(out.position, 0.0, atol=1e-18)
        np.testing.assert_allclose(out.rotation, state.rotation, atol=1e-15)

    def test_constant_acceleration_closed_form(self, legs):
        # net world acceleration of 1 m/s^2 along x for one second at 1 kHz
        state = make_initial_state()
        noise = noise_params()
        dt = 1e-3
        accel_world = np.array([1.0, 0.0, 0.0])
        for k in range(1000):
            accel = state.rotation.T @ (accel_world - GRAVITY)
            frame = one_frame(state, np.zeros(3), accel, STANCE, state.t + dt, legs)
            state = propagate(state, frame, noise)
        assert abs(state.velocity[0] - 1.0) < 1e-6
        assert abs(state.position[0] - 0.5) < 1e-4

    def test_zero_noise_is_exact_conjugation(self, legs):
        rng = np.random.default_rng(0)
        state = make_initial_state(rot=so3_exp(rng.normal(size=3)), vel=rng.normal(size=3))
        p0 = np.zeros((DIM, DIM))
        p0[:9, :9] = np.diag(rng.uniform(0.1, 1.0, 9))
        state = FilterState(state.mean, state.contacts, p0, 0.0)
        zero = NoiseParams(
            gyro_cov=np.zeros((3, 3)), accel_cov=np.zeros((3, 3)),
            contact_cov=np.zeros((3, 3)), encoder_cov=np.zeros((3, 3)),
        )
        dt = 1e-3
        out = propagate(state, one_frame(state, rng.normal(size=3), rng.normal(size=3), STANCE, dt, legs), zero)
        gx = np.zeros((DIM, DIM))
        gx[3:6, 0:3] = np.array([[0, 9.81, 0], [-9.81, 0, 0], [0, 0, 0]]) * dt
        phi = np.eye(DIM) + gx
        phi[6:9, 0:3] = gx[3:6, 0:3] * dt / 2.0
        phi[6:9, 3:6] = np.eye(3) * dt
        np.testing.assert_allclose(out.cov, phi @ p0 @ phi.T, atol=1e-15)
        assert_psd(out.cov)
        assert_zero_slots(out)

    @pytest.mark.parametrize("code", range(1 << NUM_LEGS))
    def test_matches_dense_reference_per_contact_set(self, legs, code):
        contacts = tuple(bool(code >> leg & 1) for leg in range(NUM_LEGS))
        on = np.r_[np.ones(9, bool), np.repeat(contacts, 3)]
        rng = np.random.default_rng(20 + code)
        cols = rng.normal(size=(2 + NUM_LEGS, 3))
        cols[2:][~np.array(contacts)] = 0.0
        a = rng.normal(size=(DIM, DIM)) * on[:, None]
        state = FilterState(GroupElement(so3_exp(rng.normal(size=3)), cols), contacts, a @ a.T * 1e-3, 0.0)
        gyro, accel = rng.normal(size=3), rng.normal(size=3) - GRAVITY
        noise = noise_params()
        out = propagate(state, one_frame(state, gyro, accel, STANCE, 1e-3, legs), noise)
        ref = ref_propagate(state, gyro, accel, 1e-3, noise)
        np.testing.assert_allclose(out.cov, ref.cov, rtol=0, atol=1e-15)
        np.testing.assert_allclose(out.mean.rot, ref.mean.rot, rtol=0, atol=1e-15)
        np.testing.assert_allclose(out.mean.cols, ref.mean.cols, rtol=0, atol=1e-15)
        assert np.array_equal(out.cov, out.cov.T)
        assert_zero_slots(out)
        assert out.contacts == contacts

    def test_dt_validation(self, legs):
        state = make_initial_state()
        with pytest.raises(FrameError, match=r"^dt = 0\.0$"):
            propagate(state, hover_frame(state, 0.0, legs), noise_params())
        with pytest.raises(FrameError, match=r"^dt = 0\.5 exceeds the 0\.1 s cap$"):
            propagate(state, hover_frame(state, 0.5, legs), noise_params())

    @pytest.mark.parametrize("cov_diag", [-1e-6, float("nan"), float("inf")])
    def test_initial_covariance_validation(self, cov_diag):
        with pytest.raises(ValueError, match="initial covariance"):
            make_initial_state(cov_diag=cov_diag)

    @pytest.mark.parametrize("field,value", [
        ("gyro_cov", np.eye(3) * np.nan), ("encoder_cov", np.diag([1.0, -1.0, 1.0])),
        ("gravity", np.array([0.0, 0.0, np.inf])), ("gravity", np.array([0.0, 1e3, -1.0])),
        ("new_contact_prior", np.nan),
    ])
    def test_noise_validation(self, field, value):
        with pytest.raises(ValueError, match=field):
            NoiseParams(**{field: value})


class TestUpdate:
    def _stance_state(self, legs, alpha):
        state = make_initial_state(pos=[0.0, 0.0, 0.3])
        noise = noise_params()
        for leg in range(4):
            state = augment_contact(state, leg, kinematic_frame(alpha, legs), noise)
        return state, noise

    def test_zero_innovation_no_change(self, legs):
        alpha = np.tile([0.0, 0.4, 0.9], (4, 1))
        state, noise = self._stance_state(legs, alpha)
        out = update_contact_kinematics(state, kinematic_frame(alpha, legs), noise)
        np.testing.assert_allclose(out.mean.rot, state.mean.rot, atol=1e-12)
        np.testing.assert_allclose(out.mean.cols, state.mean.cols, atol=1e-12)

    def test_noisy_encoder_trace_non_increasing(self, legs):
        rng = np.random.default_rng(1)
        alpha = np.tile([0.0, 0.4, 0.9], (4, 1))
        state, noise = self._stance_state(legs, alpha)
        prev = np.trace(state.cov[6:9, 6:9])
        for _ in range(1000):
            noisy = alpha + rng.normal(0.0, 0.002, alpha.shape)
            state = update_contact_kinematics(state, kinematic_frame(noisy, legs), noise)
            cur = np.trace(state.cov[6:9, 6:9])
            assert cur <= prev + 1e-12
            prev = cur

    def test_psd_after_many_random_updates(self, legs):
        rng = np.random.default_rng(2)
        alpha = np.tile([0.0, 0.5, 1.0], (4, 1))
        state, noise = self._stance_state(legs, alpha)
        draws = [(alpha + rng.normal(0.0, 0.01, alpha.shape), rng.random(4) > 0.3) for _ in range(10_000)]
        n = len(draws)
        q = np.array([noisy.ravel() for noisy, _ in draws])
        frames = inekf.frame_records(np.arange(n) * 1e-3, np.zeros((n, 3)), np.zeros((n, 3)), q, legs, noise, 0.0)
        for i, ((_, want), frame) in enumerate(zip(draws, frames)):
            want[0] |= not want.any()
            state = inekf._reconcile_contacts(state, want, frame, noise)
            state = update_contact_kinematics(state, frame, noise)
            if i % 500 == 0:
                assert_psd(state.cov)
                assert_zero_slots(state)
        assert_psd(state.cov)

    def test_no_contact_is_identity(self, legs):
        state = make_initial_state()
        assert update_contact_kinematics(state, kinematic_frame(np.zeros((4, 3)), legs), noise_params()) is state

    def test_singular_innovation_raises(self, legs):
        # no covariance and no measurement noise: S = H P H^T + N is exactly zero
        zero = NoiseParams(contact_cov=np.zeros((3, 3)), encoder_cov=np.zeros((3, 3)), new_contact_prior=0.0)
        frame = kinematic_frame(STANCE, legs, zero)
        state = augment_contact(make_initial_state(cov_diag=0.0), 2, frame, zero)
        with pytest.raises(np.linalg.LinAlgError):
            update_contact_kinematics(state, frame, zero)


class TestAugmentMarginalize:
    def test_identity_pose_foot_position(self, legs):
        alpha = np.tile([0.0, 0.4, 0.8], (4, 1))
        state = make_initial_state()
        out = augment_contact(state, 1, kinematic_frame(alpha, legs), noise_params())
        np.testing.assert_allclose(
            out.mean.cols[2 + 1], fk_position(legs, alpha)[1], atol=1e-15
        )

    def test_foot_positions_live_in_the_mean_only(self, legs):
        # a contact's foot position is column 2 + leg of the mean; no accessor copies it
        state = augment_contact(make_initial_state(), 3, kinematic_frame(np.zeros((4, 3)), legs), noise_params())
        assert state.contacts[3] and np.any(state.mean.cols[2 + 3])
        assert not hasattr(state, "contact_position")

    def test_zero_innovation_after_augment(self, legs):
        alpha = np.tile([0.1, 0.5, 1.1], (4, 1))
        state = make_initial_state(rot=so3_exp([0.05, 0.1, -0.3]), pos=[1.0, 2.0, 0.3])
        noise = noise_params()
        frame = kinematic_frame(alpha, legs)
        state = augment_contact(state, 2, frame, noise)
        out = update_contact_kinematics(state, frame, noise)
        np.testing.assert_allclose(out.position, state.position, atol=1e-12)

    def test_covariance_grows_and_stays_psd(self, legs):
        alpha = np.zeros((4, 3))
        alpha[:, 2] = 1.0
        state = make_initial_state()
        noise = noise_params()
        for leg in (0, 3):
            state = augment_contact(state, leg, kinematic_frame(alpha, legs), noise)
            blk = slice(9 + 3 * leg, 12 + 3 * leg)
            # the new block copies the position error and adds encoder noise and prior
            np.testing.assert_array_equal(state.cov[blk, 0:9], state.cov[6:9, 0:9])
            assert np.all(np.diag(state.cov[blk, blk]) > np.diag(state.cov[6:9, 6:9]))
            assert state.cov.shape == (DIM, DIM)
            assert_psd(state.cov)
            assert_zero_slots(state)
        assert state.contacts == (True, False, False, True)

    def test_already_registered(self, legs):
        alpha = np.zeros((4, 3))
        alpha[:, 2] = 1.0
        state = make_initial_state()
        frame = kinematic_frame(alpha, legs)
        state = augment_contact(state, 0, frame, noise_params())
        with pytest.raises(ValueError, match="leg 0 is already in contact"):
            augment_contact(state, 0, frame, noise_params())

    def test_augment_marginalize_roundtrip(self, legs):
        alpha = np.tile([0.0, 0.6, 1.2], (4, 1))
        rng = np.random.default_rng(3)
        base = make_initial_state(rot=so3_exp(rng.normal(size=3) * 0.3), pos=rng.normal(size=3), cov_diag=1e-3)
        grown = augment_contact(base, 2, kinematic_frame(alpha, legs), noise_params())
        assert np.any(grown.mean.cols[4]) and grown.contacts[2]
        back = marginalize_contact(grown, 2)
        assert np.array_equal(back.mean.cols, base.mean.cols)
        assert np.array_equal(back.cov, base.cov)
        assert back.contacts == base.contacts

    def test_marginalize_keeps_other_contact(self, legs):
        alpha = np.tile([0.0, 0.6, 1.2], (4, 1))
        state = make_initial_state()
        noise = noise_params()
        frame = kinematic_frame(alpha, legs)
        state = augment_contact(state, 0, frame, noise)
        state = augment_contact(state, 3, frame, noise)
        out = marginalize_contact(state, 0)
        assert out.contacts == (False, False, False, True)
        assert_zero_slots(out)
        assert np.array_equal(out.mean.cols[2 + 3], state.mean.cols[2 + 3])
        kept = np.ix_(np.r_[0:9, 12:DIM], np.r_[0:9, 12:DIM])
        assert np.array_equal(out.cov[kept], state.cov[kept])

    def test_unregistered_marginalize(self, legs):
        with pytest.raises(ValueError, match="leg 1 is not in contact"):
            marginalize_contact(make_initial_state(), 1)


class TestStep:
    def test_all_zero_contacts_is_dead_reckoning(self, legs):
        rng = np.random.default_rng(4)
        noise = noise_params()
        s_step = make_initial_state()
        s_prop = make_initial_state()
        alpha = np.tile([0.0, 0.5, 1.0], (4, 1))
        for k in range(1, 200):
            frame = one_frame(s_step, rng.normal(0, 0.1, 3), rng.normal(0, 0.1, 3) - GRAVITY, alpha, k * 1e-3, legs)
            s_step = step(s_step, frame, [False] * 4, noise)
            s_prop = propagate(s_prop, frame, noise)
        np.testing.assert_allclose(s_step.position, s_prop.position, atol=0)
        np.testing.assert_allclose(s_step.cov, s_prop.cov, atol=0)

    def test_static_stance_stays_put(self, legs):
        spec = gaitsim.GaitSpec(gait="stand", speed=0.0, noise=gaitsim.NOISELESS, vibration_amplitude=0.0)
        sim = gaitsim.simulate(spec, 10.0, legs)
        init = make_initial_state(pos=sim.traj_pos[0], t=float(sim.imu_frames.t[0]))
        t, rot, vel, pos = inekf.filter_sequence(sim.imu_frames, sim.contacts_imu, legs, noise_params(), init)
        assert np.linalg.norm(pos[-1] - sim.traj_pos[0]) < 1e-6

    def test_trot_drift_below_one_percent(self, legs):
        spec = gaitsim.GaitSpec(
            gait="trot", turn_rate=0.15, noise=gaitsim.NOISELESS,
            bounce_amplitude=0.0, vibration_amplitude=0.0, seed=7,
        )
        sim = gaitsim.simulate(spec, 10.0, legs)
        init = make_initial_state(
            rot=sim.traj_rot[0], vel=sim.traj_vel[0], pos=sim.traj_pos[0],
            t=float(sim.imu_frames.t[0]),
        )
        t, rot, vel, pos = inekf.filter_sequence(sim.imu_frames, sim.contacts_imu, legs, noise_params(), init)
        drift = np.linalg.norm(pos[-1] - sim.traj_pos[-1])
        path = np.sum(np.linalg.norm(np.diff(sim.traj_pos, axis=0), axis=1))
        assert drift / path < 0.01

    def test_non_finite_inputs_rejected(self, legs):
        state = make_initial_state()
        with pytest.raises(FrameError, match="non-finite IMU sample"):
            step(state, one_frame(state, [np.nan, 0, 0], np.zeros(3), np.zeros((4, 3)), 0.001, legs),
                 [False] * 4, noise_params())
        alpha = np.zeros((4, 3))
        alpha[0, 0] = np.inf
        with pytest.raises(FrameError, match="non-finite joint angles"):
            step(state, one_frame(state, np.zeros(3), np.zeros(3), alpha, 0.001, legs), [False] * 4, noise_params())

    def test_timestamps_must_increase(self, legs):
        state = make_initial_state(t=1.0)
        with pytest.raises(FrameError, match=r"^dt = -0\.5$"):
            frame = one_frame(state, np.zeros(3), np.zeros(3), np.zeros((4, 3)), 0.5, legs)
            step(state, frame, [False] * 4, noise_params())

    def test_unchanged_contact_set_skips_reconcile(self, legs, monkeypatch):
        noise = noise_params()
        state = make_initial_state(pos=[0.0, 0.0, 0.3])
        for leg in (0, 3):
            state = augment_contact(state, leg, kinematic_frame(STANCE, legs), noise)
        calls = []
        for name in ("augment_contact", "marginalize_contact"):
            fn = getattr(inekf, name)
            monkeypatch.setattr(inekf, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
        frame = hover_frame(state, 0.001, legs)
        same = (True, False, False, True)
        for contacts in (same, list(same), np.array(same)):
            step(state, frame, contacts, noise)
        assert calls == []
        step(state, frame, np.array([True, True, False, False]), noise)
        assert sorted(calls) == ["augment_contact", "marginalize_contact"]

    def test_contact_row_forms_agree(self):
        frames, contacts, legs, noise, init = jittered_gait(2.0, 0.02)
        frames, contacts = frames.rows(slice(0, 500)), contacts[:500]
        records = list(inekf.frame_records(frames.t, frames.gyro, frames.acc, frames.q, legs, noise, init.t))
        finals = []
        for form in (lambda row: tuple(row.tolist()), lambda row: row.tolist(), lambda row: row):
            state = inekf._reconcile_contacts(init, form(contacts[0]), records[0], noise)
            for row, frame in zip(contacts[1:], records[1:]):
                state = step(state, frame, form(row), noise)
            finals.append(state)
        for state in finals[1:]:
            assert state.contacts == finals[0].contacts
            for a, b in ((state.mean.rot, finals[0].mean.rot), (state.mean.cols, finals[0].mean.cols),
                         (state.cov, finals[0].cov)):
                assert np.array_equal(a, b)


class TestInvariants:
    def test_yaw_equivariance(self, legs):
        spec = gaitsim.GaitSpec(gait="trot", turn_rate=0.2, seed=5)
        sim = gaitsim.simulate(spec, 4.0, legs)
        fi = sim.imu_frames
        ang = 1.234
        c, s = np.cos(ang), np.sin(ang)
        gmat = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
        noise = noise_params()
        base = make_initial_state(rot=sim.traj_rot[0], vel=sim.traj_vel[0], pos=sim.traj_pos[0], t=float(fi.t[0]))
        rotated = make_initial_state(
            rot=gmat @ sim.traj_rot[0], vel=gmat @ sim.traj_vel[0], pos=gmat @ sim.traj_pos[0], t=float(fi.t[0])
        )
        _, r_a, _, p_a = inekf.filter_sequence(fi, sim.contacts_imu, legs, noise, base)
        _, r_b, _, p_b = inekf.filter_sequence(fi, sim.contacts_imu, legs, noise, rotated)
        assert np.max(np.linalg.norm(p_a @ gmat.T - p_b, axis=1)) < 1e-6
        assert np.max(np.abs(np.einsum("ij,njk->nik", gmat, r_a) - r_b)) < 1e-6

    def test_covariance_psd_through_gait(self, legs):
        spec = gaitsim.GaitSpec(gait="trot", seed=6)
        sim = gaitsim.simulate(spec, 3.0, legs)
        fi = sim.imu_frames
        noise = noise_params()
        state = make_initial_state(rot=sim.traj_rot[0], vel=sim.traj_vel[0], pos=sim.traj_pos[0], t=float(fi.t[0]))
        records = inekf.frame_records(fi.t, fi.gyro, fi.acc, fi.q, legs, noise, state.t)
        frame0 = next(records)
        for leg, want in enumerate(sim.contacts_imu[0]):
            if want:
                state = augment_contact(state, leg, frame0, noise)
        for i, frame in enumerate(records, 1):
            state = step(state, frame, sim.contacts_imu[i], noise)
            assert_psd(state.cov)

    def test_deterministic(self, legs):
        spec = gaitsim.GaitSpec(gait="trot", seed=8)
        sim = gaitsim.simulate(spec, 3.0, legs)
        noise = noise_params()
        out1 = inekf.filter_sequence(sim.imu_frames, sim.contacts_imu, legs, noise)
        out2 = inekf.filter_sequence(sim.imu_frames, sim.contacts_imu, legs, noise)
        for a, b in zip(out1, out2):
            assert np.array_equal(a, b)


# Positions and rotations that the filter with a resizing state (a contact
# column appended at touchdown and deleted at lift-off) gave at steps
# 1000..5000 of the run below. Any reformulation of the step must keep them.
PINNED = {
    1000: ([0.4937740988689198, 0.0749121497564384, 0.28573532309573435],
           [[0.9551385008996194, -0.2961590703796024, 0.00049913035284053],
            [0.29615863019382016, 0.9551384316993494, 0.0008012818663641813],
            [-0.0007140454750800089, -0.0006175133990517801, 0.9999995544080278]]),
    2000: ([0.9431583401800752, 0.2928264016491178, 0.29492904696131483],
           [[0.8245258564159189, -0.5658242718747889, -7.388470352102797e-05],
            [0.5658241493892807, 0.8245255762751051, 0.0007784832075083187],
            [-0.00037956486630617793, -0.0006836852828988741, 0.9999996942524207]]),
    3000: ([1.3077177508474018, 0.6321795365835386, 0.30890149892436614],
           [[0.6206843244143434, -0.7840603390792699, -0.0005950707505693013],
            [0.7840602955176951, 0.6206845615338867, -0.0003578633631016272],
            [0.0006499376977165226, -0.0002444511687860924, 0.999999758912272]]),
    4000: ([1.5559002029694649, 1.0644050937615495, 0.33279856560840615],
           [[0.3610224466295887, -0.9325570822809897, -0.00028516159513164354],
            [0.9325569642436393, 0.36102254721371746, -0.0004783764177446495],
            [0.0005490630818061715, -9.322480673073263e-05, 0.9999998449194134]]),
    5000: ([1.6642917486394964, 1.5497000918582036, 0.3518319023162784],
           [[0.07054065406369002, -0.9975088657719231, -0.00028076796588338],
            [0.9975087999200136, 0.07054051444726529, 0.0004794826762543065],
            [-0.0004584827037937336, -0.00031389153829937985, 0.9999998456328327]]),
}


def jittered_gait(seconds, flip_rate, gait="trot"):
    """Seed-101 turning gait (jitter 0.05, turn 0.3 rad/s) with a share of
    contact entries flipped by default_rng(0)."""
    cfg = load_config()
    cfg.gaitsim.gait = gait
    cfg.gaitsim.jitter = 0.05
    cfg.gaitsim.turn_rate = 0.3
    legs = cfg.kinematics.legs()
    sim = gaitsim.simulate(cfg.gaitsim.spec(seed=101), seconds, legs)
    contacts = sim.contacts_imu ^ (np.random.default_rng(0).random(sim.contacts_imu.shape) < flip_rate)
    init = make_initial_state(
        rot=sim.traj_rot[0], vel=sim.traj_vel[0], pos=sim.traj_pos[0], t=float(sim.imu_frames.t[0])
    )
    return sim.imu_frames, contacts, legs, cfg.inekf.noise(), init


class TestFixedSlots:
    def test_pinned_trot_with_flipped_contacts(self):
        frames, contacts, legs, noise, init = jittered_gait(5.0, 0.01)
        assert len(frames) == 5001
        _, rot, _, pos = inekf.filter_sequence(frames, contacts, legs, noise, init)
        for i, (p, r) in PINNED.items():
            np.testing.assert_allclose(pos[i], p, rtol=0, atol=1e-9)
            np.testing.assert_allclose(rot[i], r, rtol=0, atol=1e-9)

    def test_zero_slots_through_every_stage(self):
        frames, contacts, legs, noise, state = jittered_gait(2.0, 0.05)
        assert_zero_slots(state)
        switches = 0
        head = frames.rows(slice(0, 600))
        records = inekf.frame_records(head.t, head.gyro, head.acc, head.q, legs, noise, state.t)
        next(records)
        for i, frame in enumerate(records, 1):
            state = propagate(state, frame, noise)
            assert_zero_slots(state)
            for leg, want in enumerate(contacts[i]):
                if want != state.contacts[leg]:
                    switches += 1
                    state = augment_contact(state, leg, frame, noise) if want else marginalize_contact(state, leg)
                    assert_zero_slots(state)
            state = update_contact_kinematics(state, frame, noise)
            assert_zero_slots(state)
        assert switches > 50

    def test_contact_width_checked(self):
        frames, contacts, legs, noise, init = jittered_gait(2.0, 0.0)
        with pytest.raises(FrameError, match="contact matrix"):
            inekf.filter_sequence(frames, contacts[:, :3], legs, noise, init)
        with pytest.raises(FrameError, match="contact matrix"):
            inekf.filter_sequence(frames, contacts[:-1], legs, noise, init)


def ref_propagate(state, gyro, accel, t, noise):
    """Propagation as a dense per-frame computation: the dt checks, a 21-wide
    Phi and Ad Qc Ad^T through adjoint."""
    dt = t - state.t
    if not dt > 0.0:
        raise FrameError(f"dt = {dt}")
    if dt > MAX_DT:
        raise FrameError(f"dt = {dt} exceeds the {MAX_DT} s cap")
    rot, cols = state.mean.rot, state.mean.cols
    accel_world = rot @ accel + noise.gravity
    new_cols = cols.copy()
    new_cols[0] = cols[0] + accel_world * dt
    new_cols[1] = cols[1] + cols[0] * dt + 0.5 * accel_world * dt * dt
    phi = np.eye(DIM)
    gx = skew(noise.gravity)
    phi[3:6, 0:3] = gx * dt
    phi[6:9, 0:3] = gx * (0.5 * dt * dt)
    phi[6:9, 3:6] = np.eye(3) * dt
    qc = np.zeros((DIM, DIM))
    qc[0:3, 0:3] = noise.gyro_cov
    qc[3:6, 3:6] = noise.accel_cov
    for leg, on in enumerate(state.contacts):
        if on:
            qc[9 + 3 * leg : 12 + 3 * leg, 9 + 3 * leg : 12 + 3 * leg] = noise.contact_cov
    ad = adjoint(state.mean)
    cov = phi @ (state.cov + ad @ qc @ ad.T * dt) @ phi.T
    return FilterState(GroupElement(rot @ so3_exp(gyro * dt), new_cols), state.contacts, (cov + cov.T) / 2, t)


def ref_filter_step(state, gyro, accel, alpha, t, contacts, legs, noise):
    """One step as a dense per-frame computation, the form the filter's
    step must reproduce: ref_propagate, FK of every leg, a stacked H and the
    Joseph product."""
    if not (np.all(np.isfinite(gyro)) and np.all(np.isfinite(accel))):
        raise FrameError(f"non-finite IMU sample at t={t}")
    if not np.all(np.isfinite(alpha)):
        raise FrameError(f"non-finite joint angles at t={t}")
    state = ref_propagate(state, gyro, accel, t, noise)
    feet, jacs = fk_position(legs, alpha), fk_jacobian(legs, alpha)

    for leg, want in enumerate(contacts):
        blk = slice(9 + 3 * leg, 12 + 3 * leg)
        if want and not state.contacts[leg]:
            cols, cov = state.mean.cols.copy(), state.cov.copy()
            cols[2 + leg] = cols[1] + state.mean.rot @ feet[leg]
            cov[blk, :] = cov[6:9, :]
            cov[:, blk] = cov[:, 6:9]
            g_mat = state.mean.rot @ jacs[leg]
            cov[blk, blk] += g_mat @ noise.encoder_cov @ g_mat.T + noise.new_contact_prior * np.eye(3)
            flags = state.contacts[:leg] + (True,) + state.contacts[leg + 1 :]
            state = FilterState(GroupElement(state.mean.rot, cols), flags, (cov + cov.T) / 2, t)
        elif not want and state.contacts[leg]:
            state = marginalize_contact(state, leg)

    active = [leg for leg, on in enumerate(state.contacts) if on]
    if not active:
        return state
    rot, m = state.mean.rot, 3 * len(active)
    innovation, h_mat, n_mat = np.zeros(m), np.zeros((m, DIM)), np.zeros((m, m))
    for row, leg in enumerate(active):
        jac = jacs[leg]
        sl = slice(3 * row, 3 * row + 3)
        innovation[sl] = rot @ feet[leg] + state.mean.cols[1] - state.mean.cols[2 + leg]
        h_mat[sl, 6:9] = -np.eye(3)
        h_mat[sl, 9 + 3 * leg : 12 + 3 * leg] = np.eye(3)
        n_mat[sl, sl] = rot @ (jac @ noise.encoder_cov @ jac.T + noise.contact_cov) @ rot.T
    pht = state.cov @ h_mat.T
    gain = np.linalg.solve((h_mat @ pht + n_mat).T, pht.T).T
    mean = sek3_compose(sek3_exp(gain @ innovation), state.mean)
    ikh = np.eye(DIM) - gain @ h_mat
    cov = ikh @ state.cov @ ikh.T + gain @ n_mat @ gain.T
    return FilterState(mean, state.contacts, (cov + cov.T) / 2, t)


def ref_filter(frames, contacts, legs, noise, state):
    """(positions, rotations) of ref_filter_step over a FrameSequence."""
    q = frames.q.reshape(len(frames), -1, 3)
    for leg, want in enumerate(contacts[0]):
        if want:
            state = augment_contact(state, leg, kinematic_frame(q[0], legs, noise), noise)
    pos, rot = [state.position], [state.rotation]
    for i in range(1, len(frames)):
        state = ref_filter_step(
            state, frames.gyro[i], frames.acc[i], q[i], float(frames.t[i]), contacts[i], legs, noise
        )
        pos.append(state.position)
        rot.append(state.rotation)
    return np.array(pos), np.array(rot)


class TestFrameRecords:
    SMALL_CHUNK = 64

    def _run(self, monkeypatch, n=5 * SMALL_CHUNK - 20):
        monkeypatch.setattr(inekf, "CHUNK", self.SMALL_CHUNK)
        frames, contacts, legs, noise, init = jittered_gait(2.0, 0.02)
        return frames.rows(slice(0, n)), contacts[:n].copy(), legs, noise, init

    def test_chunked_run_matches_dense_reference(self, monkeypatch):
        frames, contacts, legs, noise, init = self._run(monkeypatch)
        c = self.SMALL_CHUNK
        # a touchdown on the first row of the second chunk, a lift-off on the first of the third
        contacts[c - 1, 0], contacts[c, 0] = False, True
        contacts[2 * c - 1, 1], contacts[2 * c, 1] = True, False
        assert len(frames) > 4 * c
        _, rot, _, pos = inekf.filter_sequence(frames, contacts, legs, noise, init)
        ref_pos, ref_rot = ref_filter(frames, contacts, legs, noise, init)
        np.testing.assert_allclose(pos, ref_pos, rtol=0, atol=1e-9)
        np.testing.assert_allclose(rot, ref_rot, rtol=0, atol=1e-9)

    def test_kinematics_once_per_chunk(self, monkeypatch):
        # one call covers every leg
        frames, contacts, legs, noise, init = self._run(monkeypatch)
        calls = []
        for name in ("fk_position", "fk_jacobian"):
            fn = getattr(inekf, name)
            monkeypatch.setattr(inekf, name, lambda *a, fn=fn: calls.append(1) or fn(*a))
        inekf.filter_sequence(frames, contacts, legs, noise, init)
        chunks = -(-len(frames) // self.SMALL_CHUNK)
        assert len(calls) == 2 * chunks

    @pytest.mark.parametrize("kind", ["gyro", "accel", "joint", "repeated_t", "gap", "nan_gyro_and_repeated_t"])
    def test_bad_row_in_second_chunk(self, monkeypatch, kind):
        frames, contacts, legs, noise, init = self._run(monkeypatch)
        bad = self.SMALL_CHUNK + 10
        t = frames.t.copy()
        if kind in ("gyro", "nan_gyro_and_repeated_t"):
            frames.gyro[bad, 1] = np.nan
        if kind == "accel":
            frames.acc[bad, 2] = np.inf
        if kind == "joint":
            frames.q[bad, 7] = np.nan
        if kind in ("repeated_t", "nan_gyro_and_repeated_t"):
            t[bad] = t[bad - 1]
        if kind == "gap":
            t[bad:] += 2 * MAX_DT
        frames.t = t
        frames.acc[bad + 5, 0] = np.nan  # a later bad row must not be the one reported
        with pytest.raises(FrameError) as ref:
            ref_filter(frames, contacts, legs, noise, init)
        with pytest.raises(ref.type) as got:
            inekf.filter_sequence(frames, contacts, legs, noise, init)
        assert str(got.value) == str(ref.value)
        expected = {
            "gyro": f"non-finite IMU sample at t={t[bad]}",
            "accel": f"non-finite IMU sample at t={t[bad]}",
            "joint": f"non-finite joint angles at t={t[bad]}",
            "repeated_t": "dt = 0.0",
            "gap": f"dt = {t[bad] - t[bad - 1]} exceeds the {MAX_DT} s cap",
            "nan_gyro_and_repeated_t": f"non-finite IMU sample at t={t[bad]}",
        }
        assert str(got.value) == expected[kind]
        assert got.value.row == bad

    def test_first_row_joint_angles_checked(self, monkeypatch):
        # row 0's angles place the feet already down, so a NaN there must raise
        frames, contacts, legs, noise, init = self._run(monkeypatch)
        contacts[0, 1] = True
        frames.q[0, 4] = np.nan
        with pytest.raises(FrameError) as got:
            inekf.filter_sequence(frames, contacts, legs, noise, init)
        assert str(got.value) == f"non-finite joint angles at t={init.t}"
        assert got.value.row == 0

    def test_first_row_imu_is_not_used(self, monkeypatch):
        frames, contacts, legs, noise, init = self._run(monkeypatch)
        ref = inekf.filter_sequence(frames, contacts, legs, noise, init)
        frames.gyro[0] = np.nan
        frames.acc[0] = np.nan
        for a, b in zip(ref, inekf.filter_sequence(frames, contacts, legs, noise, init)):
            assert np.array_equal(a, b)

    def test_init_rotation_projected_before_first_record(self, monkeypatch):
        frames, contacts, legs, noise, init = self._run(monkeypatch)
        rot = init.rotation * (1.0 + 5e-7)
        assert 5e-7 < orthogonality_defect(rot) < 2e-6
        init = FilterState(GroupElement(rot, init.mean.cols), init.contacts, init.cov, init.t)
        _, rots, _, _ = inekf.filter_sequence(frames, contacts, legs, noise, init)
        assert max(map(orthogonality_defect, rots)) < ORTHOGONALITY_TOL

    def test_rotation_checked_at_each_chunk_start(self, monkeypatch):
        frames, contacts, legs, noise, init = self._run(monkeypatch)
        c = self.SMALL_CHUNK
        stepped = []
        real_step = inekf.step

        def perturbing_step(state, frame, row, noise):
            stepped.append(1)
            if len(stepped) == c + 10:  # record c + 10, inside the second chunk
                mean = GroupElement(state.mean.rot * (1.0 + 5e-7), state.mean.cols)
                state = FilterState(mean, state.contacts, state.cov, state.t)
            return real_step(state, frame, row, noise)

        monkeypatch.setattr(inekf, "step", perturbing_step)
        _, rots, _, _ = inekf.filter_sequence(frames, contacts, legs, noise, init)
        defects = np.array([orthogonality_defect(r) for r in rots])
        assert defects[: c + 10].max() < ORTHOGONALITY_TOL
        assert defects[c + 10 : 2 * c].min() > 5e-7  # carried to the end of the chunk
        assert defects[2 * c :].max() < ORTHOGONALITY_TOL


class TestPhiCache:
    def test_read_only_and_equal_to_formula(self):
        noise = noise_params()
        for dt in (1e-3, 2.5e-3, MAX_DT):
            phi, phi_t = noise.phi(dt)
            ref = np.eye(DIM)
            gx = skew(noise.gravity)
            ref[3:6, 0:3] = gx * dt
            ref[6:9, 0:3] = gx * (0.5 * dt * dt)
            ref[6:9, 3:6] = np.eye(3) * dt
            np.testing.assert_allclose(phi, ref, rtol=1e-15, atol=0)
            assert np.array_equal(phi_t, phi.T) and phi_t.flags.c_contiguous
            for arr in (phi, phi_t):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0, 0] = 2.0
            again = noise.phi(dt)
            assert again[0] is phi and again[1] is phi_t
            for contacts in ((False,) * NUM_LEGS, (True, False, False, True)):
                q_dt = noise.process_cov_dt(contacts, dt)
                assert np.array_equal(q_dt, noise.process_cov[contacts] * dt) and not q_dt.flags.writeable
                assert noise.process_cov_dt(contacts, dt) is q_dt

    def test_bounded_when_every_dt_differs(self):
        noise = noise_params()
        n = 3 * inekf.PHI_CACHE_SIZE
        frames, contacts, legs, _, init = jittered_gait(2.0, 0.0)
        frames = frames.rows(slice(0, n))
        frames.t = init.t + np.cumsum(np.linspace(1e-3, 2e-3, n)) - 1e-3
        assert len(np.unique(np.diff(frames.t))) == n - 1
        inekf.filter_sequence(frames, contacts[:n], legs, noise, init)
        assert len(noise._phi) == inekf.PHI_CACHE_SIZE
        dt = float(frames.t[-1] - frames.t[-2])
        assert dt not in noise._phi
        phi, phi_t = noise.phi(dt)
        assert not phi.flags.writeable and not phi_t.flags.writeable
        np.testing.assert_array_equal(phi, np.eye(DIM) + noise.n_dt * dt + noise.n_dt2 * (dt * dt))
        assert len(noise._phi) == inekf.PHI_CACHE_SIZE

    def test_process_noise_cache_bounded(self):
        noise = noise_params()
        contacts = (True,) * NUM_LEGS
        limit = inekf.PHI_CACHE_SIZE << NUM_LEGS
        for dt in 1e-3 + 1e-9 * np.arange(limit + 5):
            q_dt = noise.process_cov_dt(contacts, float(dt))
            assert np.array_equal(q_dt, noise.process_cov[contacts] * dt) and not q_dt.flags.writeable
        assert len(noise._q_dt) == limit


def matrix_form_propagate(state, frame, noise):
    """propagate in the whole-matrix form Phi P Phi^T + (Phi G)(Q dt)(Phi G)^T,
    Phi built on every step; the step's four-GEMM form must reproduce it."""
    rot = state.mean.rot
    cols = state.mean.cols
    dt = frame.dt

    dv = (np.dot(rot, frame.accel) + noise.gravity) * dt
    new_cols = cols.copy()
    new_cols[0] += dv
    new_cols[1] += (cols[0] + 0.5 * dv) * dt
    mean = GroupElement(np.dot(rot, frame.d_rot), new_cols)

    phi = np.eye(DIM) + noise.n_dt * dt + noise.n_dt2 * (dt * dt)
    phi_g = np.dot(phi, adjoint(state.mean))
    cov = np.dot(np.dot(phi, state.cov), phi.T)
    cov += np.dot(np.dot(phi_g, noise.process_cov[state.contacts] * dt), phi_g.T)
    return FilterState(mean, state.contacts, (cov + cov.T) / 2.0, frame.t)


def exp_then_compose_update(state, frame, noise):
    """update_contact_kinematics with exp(K v) formed as an element and then
    composed, the measurement covariance added per leg from the frame's
    encoder covariance, and the Joseph term added out of place."""
    legs = np.flatnonzero(state.contacts)
    if legs.size == 0:
        return state
    rows = 3 * np.arange(legs.size)[:, None] + np.arange(3)
    h = np.zeros((3 * legs.size, DIM))
    h[rows.ravel(), (9 + 3 * legs[:, None] + np.arange(3)).ravel()] = 1.0
    h[rows.ravel(), np.tile(np.arange(6, 9), legs.size)] = -1.0
    rot = state.mean.rot
    cols = state.mean.cols
    innovation = (np.dot(frame.foot[legs], rot.T) + cols[1] - cols[2 + legs]).ravel()
    meas_cov = rot @ (frame.enc[legs] + noise.contact_cov) @ rot.T

    pht = np.dot(state.cov, h.T)
    s_mat = np.dot(h, pht)
    s_mat[np.repeat(rows, 3, axis=1).ravel(), np.tile(rows, 3).ravel()] += meas_cov.ravel()
    _, _, gain_t, info = dgesv(s_mat.T, pht.T)
    assert info == 0
    gain = gain_t.T
    mean = sek3_compose(sek3_exp(np.dot(gain, innovation)), state.mean)
    wk = np.dot(np.dot(gain, 0.5 * s_mat) - pht, gain.T)
    return FilterState(mean, state.contacts, state.cov + (wk + wk.T), state.t)


def assert_states_close(got, ref, atol):
    assert got.contacts == ref.contacts and got.t == ref.t
    for a, b in ((got.mean.rot, ref.mean.rot), (got.mean.cols, ref.mean.cols), (got.cov, ref.cov)):
        np.testing.assert_allclose(a, b, rtol=0, atol=atol)


class TestMatrixFormReference:
    @pytest.mark.parametrize("gait,flip_rate", [("trot", 0.05), ("pronk", 0.1)])
    def test_step_matches_reference_on_every_contact_set(self, gait, flip_rate):
        frames, contacts, legs, noise, state = jittered_gait(2.0, flip_rate, gait)
        records = inekf.frame_records(frames.t, frames.gyro, frames.acc, frames.q, legs, noise, state.t)
        state = inekf._reconcile_contacts(state, tuple(contacts[0]), next(records), noise)
        chain = state
        seen = set()
        for row, frame in zip(contacts[1:].tolist(), records):
            # one step from the same state, and the reference run on its own from row 0
            got = step(state, frame, row, noise)
            ref = matrix_form_propagate(state, frame, noise)
            ref = exp_then_compose_update(inekf._reconcile_contacts(ref, tuple(row), frame, noise), frame, noise)
            assert_states_close(got, ref, 1e-12)
            assert np.array_equal(got.cov, got.cov.T)
            chain = matrix_form_propagate(chain, frame, noise)
            chain = exp_then_compose_update(inekf._reconcile_contacts(chain, tuple(row), frame, noise), frame, noise)
            state = got
            seen.add(state.contacts)
        assert len(seen) == 1 << NUM_LEGS
        assert_states_close(state, chain, 1e-12)


NO_SCIPY_CHECK = """
import sys
import numpy as np
from proprio import cli, inekf
from proprio.kinematics import default_legs


def assert_no_scipy(after):
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, f"{after} loaded {loaded}"


assert_no_scipy("import")
frame = next(inekf.frame_records([0.0], np.zeros((1, 3)), np.zeros((1, 3)), np.tile([0.0, 0.5, 1.0], (1, 4)),
                                 default_legs(), inekf.NoiseParams(), 0.0))
state = inekf.augment_contact(inekf.make_initial_state(), 0, frame, inekf.NoiseParams())
inekf.update_contact_kinematics(state, frame, inekf.NoiseParams())
assert_no_scipy("a gain")
out, cfg = sys.argv[1], sys.argv[2]
assert cli.main(["--out", out, "sim", "--duration", "2"]) == 0
assert cli.main(["--out", out, "label", "--data", f"{out}/imu.csv"]) == 0
assert cli.main(["--out", out, "filter", "--data", f"{out}/imu.csv", "--contacts", f"{out}/imu_labels.csv"]) == 0
assert_no_scipy("filter")
assert cli.main(["--config", cfg, "--out", f"{out}/pipe", "pipeline"]) == 0
assert_no_scipy("pipeline")
"""


def test_filter_stages_load_no_scipy(tmp_path):
    # a fresh process, since this one has loaded scipy for the dgesv reference
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text("[gaitsim]\nduration = 2\n[contactnet]\nepochs = 1\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(proprio.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_CHECK, str(tmp_path), str(cfg)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert os.path.exists(tmp_path / "trajectory_est.csv") and os.path.exists(tmp_path / "pipe" / "trajectory_est.csv")
