import numpy as np
import pytest

from proprio import evalkit, gaitsim
from proprio.formats import SchemaMismatchError
from proprio.baselines import (
    GaitSchedule,
    GrfConfig,
    estimate_grf,
    gait_cycle_detect,
    grf_threshold_detect,
)
from proprio.kinematics import fk_jacobian
from proprio.labelgen import lowpass

TROT_OFFSETS = np.array([0.0, 0.5, 0.5, 0.0])


class TestEstimateGrf:
    def test_zero_torque_zero_force(self, legs):
        alpha = np.tile([0.1, 0.5, 1.1], (4, 1))
        forces, flags = estimate_grf(np.zeros(12), alpha, legs)
        assert np.array_equal(forces, np.zeros((4, 3)))
        assert not flags.any()

    def test_forward_construction_recovery(self, legs):
        rng = np.random.default_rng(0)
        alpha = np.tile([0.05, 0.45, 1.2], (4, 1))
        target = np.tile([0.0, 0.0, -9.81 * 2.3], (4, 1))
        tau = np.einsum("lji,lj->li", fk_jacobian(legs, alpha), target).ravel()
        forces, flags = estimate_grf(tau, alpha, legs)
        np.testing.assert_allclose(forces, target, atol=1e-9)
        assert not flags.any()

    def test_linearity(self, legs):
        rng = np.random.default_rng(1)
        alpha = np.tile([0.0, 0.4, 1.0], (4, 1))
        tau = rng.normal(size=12)
        f1, _ = estimate_grf(tau, alpha, legs)
        f2, _ = estimate_grf(2.0 * tau, alpha, legs)
        np.testing.assert_allclose(f2, 2.0 * f1, atol=1e-12)

    def test_singular_leg_flagged_no_nan(self, legs):
        alpha = np.tile([0.0, 0.4, 1.0], (4, 1))
        alpha[2] = [0.0, 0.3, 0.0]  # straight leg
        forces, flags = estimate_grf(np.ones(12), alpha, legs)
        assert flags[2] and not flags[0]
        assert np.all(np.isfinite(forces))

    def test_mixed_batch_equals_per_row_estimates(self, legs):
        rng = np.random.default_rng(4)
        alpha = rng.normal(0.0, 0.5, size=(30, 4, 3))
        alpha[::3, :, 2] = 0.0  # straight knees: every leg singular on these rows
        alpha[1::4, 1, 2] = 0.0  # and one singular leg among regular ones
        tau = rng.normal(0.0, 10.0, size=(30, 12))
        forces, flags = estimate_grf(tau, alpha, legs)
        assert flags.any() and not flags.all() and flags.all(axis=1).any()
        for i in range(len(tau)):
            f_i, flags_i = estimate_grf(tau[i], alpha[i], legs)
            assert np.array_equal(f_i, forces[i]) and np.array_equal(flags_i, flags[i])
        # a singular leg takes the pseudo-inverse
        jac = fk_jacobian(legs, alpha)
        for i, leg in zip(*np.nonzero(flags)):
            pinv = np.linalg.pinv(jac[i, leg].T)
            np.testing.assert_allclose(forces[i, leg], pinv @ tau[i, 3 * leg : 3 * leg + 3], rtol=1e-12, atol=1e-12)


class TestGrfThreshold:
    def test_all_below_threshold(self, legs):
        from proprio.dataio import FrameSequence

        rng = np.random.default_rng(2)
        n = 400
        frames = FrameSequence(
            t=np.arange(n) / 500.0,
            q=np.tile([0.0, 0.4, 1.0], (n, 4)),
            qd=np.zeros((n, 12)),
            acc=np.zeros((n, 3)),
            gyro=np.zeros((n, 3)),
            pf=np.zeros((n, 12)),
            vf=np.zeros((n, 12)),
            tau=rng.normal(0.0, 0.01, size=(n, 12)),
        )
        contacts = grf_threshold_detect(frames, GrfConfig(threshold=50.0), legs)
        assert not contacts.any()

    def test_missing_torques(self, legs):
        from proprio.dataio import FrameSequence

        frames = FrameSequence(
            t=np.arange(20) / 500.0, q=np.zeros((20, 12)), qd=np.zeros((20, 12)),
            acc=np.zeros((20, 3)), gyro=np.zeros((20, 3)),
            pf=np.zeros((20, 12)), vf=np.zeros((20, 12)), tau=None,
        )
        with pytest.raises(SchemaMismatchError, match="no torque channel"):
            grf_threshold_detect(frames, GrfConfig(), legs)

    def test_threshold_monotonicity(self, legs):
        sim = gaitsim.simulate(gaitsim.GaitSpec(gait="trot", seed=3), 5.0, legs)
        low = grf_threshold_detect(sim.encoder_frames, GrfConfig(threshold=10.0), legs)
        high = grf_threshold_detect(sim.encoder_frames, GrfConfig(threshold=25.0), legs)
        assert not np.any(high & ~low)  # raising the threshold never adds positives

    def test_matches_per_leg_lowpass(self, legs):
        sim = gaitsim.simulate(gaitsim.GaitSpec(gait="trot", seed=6), 4.0, legs)
        frames, config = sim.encoder_frames, GrfConfig()
        forces, _ = estimate_grf(frames.tau, frames.q.reshape(-1, 4, 3), legs)
        per_leg = np.stack(
            [np.abs(lowpass(forces[:, leg, 2], config.cutoff)) > config.threshold for leg in range(4)], axis=1
        )
        got = grf_threshold_detect(frames, config, legs)
        assert got.any() and not got.all()
        assert np.array_equal(got, per_leg)

    def test_accuracy_band_on_trot(self, legs):
        sim = gaitsim.simulate(gaitsim.GaitSpec(gait="trot", seed=4), 20.0, legs)
        pred = grf_threshold_detect(sim.encoder_frames, GrfConfig(), legs)
        rep = evalkit.classification_metrics(pred, sim.contacts_encoder)
        assert 0.60 <= rep.leg_average_accuracy <= 0.95


class TestGaitCycle:
    def test_duty_near_one_always_contact(self):
        sched = GaitSchedule(period=1.0, offsets=TROT_OFFSETS, duty=0.999)
        t = np.linspace(0.0, 5.0, 777)
        assert gait_cycle_detect(t, sched).all()

    def test_trot_phase_relations(self):
        sched = GaitSchedule(period=0.8, offsets=TROT_OFFSETS, duty=0.5)
        t = np.linspace(0.0, 4.0, 1000)
        c = gait_cycle_detect(t, sched)
        assert np.array_equal(c[:, 0], c[:, 3])  # RF and LH together
        assert np.array_equal(c[:, 0], ~c[:, 1])  # RF opposite LF

    def test_offsets_are_touchdown_phases(self):
        # leg i touches down at (k + offset_i) * period, the simulator's convention
        sched = GaitSchedule(period=1.0, offsets=[0.0, 0.25, 0.5, 0.75], duty=0.5)
        t = np.arange(0.0, 2.0, 0.125)
        c = gait_cycle_detect(t, sched)
        touchdowns = [t[1:][c[1:, leg] & ~c[:-1, leg]].tolist() for leg in range(4)]
        assert touchdowns == [[1.0], [0.25, 1.25], [0.5, 1.5], [0.75, 1.75]]

    def test_periodicity(self):
        sched = GaitSchedule(period=0.7, offsets=TROT_OFFSETS, duty=0.41)
        t = np.linspace(0.0, 2.0, 500)
        np.testing.assert_array_equal(gait_cycle_detect(t, sched), gait_cycle_detect(t + 0.7, sched))

    def test_exact_match_without_jitter(self, legs):
        spec = gaitsim.GaitSpec(gait="trot", seed=5, jitter=0.0)
        sim = gaitsim.simulate(spec, 6.0, legs)
        sched = GaitSchedule(period=spec.period, offsets=TROT_OFFSETS, duty=spec.duty)
        pred = gait_cycle_detect(sim.encoder_frames.t, sched)
        assert (pred == sim.contacts_encoder).mean() == 1.0

    def test_jitter_breaks_schedule(self, legs):
        spec = gaitsim.GaitSpec(gait="trot", seed=6, jitter=0.05)
        sim = gaitsim.simulate(spec, 10.0, legs)
        sched = GaitSchedule(period=spec.period, offsets=TROT_OFFSETS, duty=spec.duty)
        pred = gait_cycle_detect(sim.encoder_frames.t, sched)
        rep = evalkit.classification_metrics(pred, sim.contacts_encoder)
        assert rep.leg_average_accuracy < 1.0
        assert rep.average_fpr > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            GaitSchedule(period=1.0, offsets=np.array([0.0, 1.2, 0.5, 0.0]), duty=0.5)
        with pytest.raises(ValueError):
            GaitSchedule(period=1.0, offsets=TROT_OFFSETS, duty=0.0)
        with pytest.raises(ValueError, match=r"need one phase offset per leg \(RF,LF,RH,LH\), got \[0.0, 0.5, 0.5\]"):
            GaitSchedule(period=1.0, offsets=[0.0, 0.5, 0.5], duty=0.5)
        with pytest.raises(ValueError, match=r"phase offsets must lie in \[0, 1\)"):
            GaitSchedule(period=1.0, offsets=np.array([0.0, np.nan, 0.5, 0.0]), duty=0.5)

    @pytest.mark.parametrize("period", [float("nan"), float("inf"), 0.0, -1.0])
    def test_period_positive_and_finite(self, period):
        with pytest.raises(ValueError, match=f"gait period must be positive and finite, got {period}"):
            GaitSchedule(period=period, offsets=TROT_OFFSETS, duty=0.5)

    @pytest.mark.parametrize("start", [float("nan"), float("inf"), float("-inf")])
    def test_start_time_finite(self, start):
        with pytest.raises(ValueError, match=f"gait start time must be finite, got {start}"):
            GaitSchedule(period=1.0, offsets=TROT_OFFSETS, duty=0.5, start_time=start)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
    def test_grf_threshold_finite(self, threshold):
        with pytest.raises(ValueError, match=f"force threshold must be finite, got {threshold}"):
            GrfConfig(threshold=threshold)
