import numpy as np
import pytest

from proprio.kinematics import (
    LegGeometry,
    UnreachableTargetError,
    fk_jacobian,
    fk_position,
    ik_position,
)

from conftest import random_reachable_angles


def fd_jacobian(geom, alpha, h=1e-6):
    jac = np.zeros((3, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        jac[:, j] = (fk_position(geom, alpha + e) - fk_position(geom, alpha - e)) / (2 * h)
    return jac


class TestForwardKinematics:
    def test_zero_angles(self, one_leg):
        # hand expansion of the chain at zero angles
        expected = one_leg.hip + [0.0, one_leg.lateral_sign * one_leg.abd, -(one_leg.l1 + one_leg.l2)]
        np.testing.assert_allclose(fk_position(one_leg, [0, 0, 0]), expected, atol=1e-15)

    def test_folded_knee(self, one_leg):
        # planar two-link: fully folded knee leaves |l1 - l2| below the hip
        p = fk_position(one_leg, [0.0, 0.0, np.pi])
        expected_z = one_leg.hip[2] - abs(one_leg.l1 - one_leg.l2)
        np.testing.assert_allclose(p[2], expected_z, atol=1e-12)

    def test_periodicity(self, one_leg):
        rng = np.random.default_rng(0)
        alpha = rng.uniform(-1.0, 1.0, 3)
        base = fk_position(one_leg, alpha)
        for j in range(3):
            shifted = alpha.copy()
            shifted[j] += 2 * np.pi
            np.testing.assert_allclose(fk_position(one_leg, shifted), base, atol=1e-12)

    def test_batch_shape(self, one_leg):
        alphas = np.zeros((7, 3))
        assert fk_position(one_leg, alphas).shape == (7, 3)


class TestJacobian:
    def test_finite_difference(self, one_leg):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(100):
            alpha = rng.uniform(-1.2, 1.2, 3)
            alpha[2] = rng.uniform(0.3, 2.7)  # stay away from the straight leg
            jac = fk_jacobian(one_leg, alpha)
            ref = fd_jacobian(one_leg, alpha)
            worst = max(worst, np.max(np.abs(jac - ref)) / max(1.0, np.max(np.abs(ref))))
        assert worst < 1e-6

    def test_straight_leg_singularity(self, one_leg):
        jac = fk_jacobian(one_leg, [0.2, 0.4, 0.0])
        assert np.linalg.matrix_rank(jac, tol=1e-10) == 2

    def test_abduction_column_geometry(self, one_leg):
        # rotating about body x: column equals e_x cross the hip-to-foot vector
        rng = np.random.default_rng(2)
        for _ in range(20):
            alpha = rng.uniform(-1.0, 1.0, 3)
            jac = fk_jacobian(one_leg, alpha)
            lever = fk_position(one_leg, alpha) - one_leg.hip
            np.testing.assert_allclose(jac[:, 0], np.cross([1, 0, 0], lever), atol=1e-12)

    def test_abduction_column_normal_to_sagittal_plane(self):
        # with no abduction offset, the column at zero angles is pure y
        geom = LegGeometry(0.0, 0.21, 0.19, np.zeros(3), 1)
        jac = fk_jacobian(geom, [0.0, 0.0, 0.0])
        assert jac[0, 0] == 0.0 and jac[2, 0] == 0.0
        assert jac[1, 0] > 0.0


class TestFootVelocity:
    def test_matches_time_differentiation(self, one_leg):
        # alpha(t) smooth; J alpha_dot must match d/dt fk_position
        def alpha(t):
            return np.array([0.3 * np.sin(t), 0.5 * np.cos(2 * t), 1.0 + 0.4 * np.sin(3 * t)])

        def alpha_dot(t):
            return np.array([0.3 * np.cos(t), -1.0 * np.sin(2 * t), 1.2 * np.cos(3 * t)])

        for t in np.linspace(0.0, 2.0, 9):
            v = fk_jacobian(one_leg, alpha(t)) @ alpha_dot(t)
            h = 1e-6
            v_fd = (fk_position(one_leg, alpha(t + h)) - fk_position(one_leg, alpha(t - h))) / (2 * h)
            np.testing.assert_allclose(v, v_fd, atol=1e-4)


class TestInverseKinematics:
    def test_roundtrip_from_angles(self, one_leg):
        rng = np.random.default_rng(5)
        alphas = random_reachable_angles(rng, 200)
        for alpha in alphas:
            target = fk_position(one_leg, alpha)
            np.testing.assert_allclose(ik_position(one_leg, target), alpha, atol=1e-8)

    def test_position_roundtrip_random_targets(self, one_leg):
        rng = np.random.default_rng(6)
        count = 0
        worst = 0.0
        while count < 1000:
            alpha = random_reachable_angles(rng)
            target = fk_position(one_leg, alpha)
            back = fk_position(one_leg, ik_position(one_leg, target))
            worst = max(worst, float(np.max(np.abs(back - target))))
            count += 1
        assert worst < 1e-8

    def test_boundary_unreachable(self, one_leg):
        target = one_leg.hip + [0.0, one_leg.lateral_sign * one_leg.abd, -(one_leg.l1 + one_leg.l2)]
        ik_position(one_leg, target + [0, 0, 1e-4])  # just inside works
        with pytest.raises(UnreachableTargetError):
            ik_position(one_leg, target - [0, 0, 1e-3])

    def test_law_of_cosines_knee(self, one_leg):
        # straight-down nominal stance
        depth = 0.32
        target = one_leg.hip + [0.0, one_leg.lateral_sign * one_leg.abd, -depth]
        alpha = ik_position(one_leg, target)
        l1, l2 = one_leg.l1, one_leg.l2
        expected = np.arccos((depth**2 - l1**2 - l2**2) / (2 * l1 * l2))
        np.testing.assert_allclose(alpha[2], expected, atol=1e-10)

    def test_inside_abduction_cylinder(self, one_leg):
        with pytest.raises(UnreachableTargetError):
            ik_position(one_leg, one_leg.hip + [0.2, 0.0, 0.0])


class TestGeometryValidation:
    @pytest.mark.parametrize("name", ["abd", "l1", "l2"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_lengths_finite(self, name, value):
        kwargs = dict(abd=0.06, l1=0.2, l2=0.2, hip=np.zeros(3), lateral_sign=1)
        kwargs[name] = value
        with pytest.raises(ValueError, match=f"leg geometry {name} must be finite, got {value}"):
            LegGeometry(**kwargs)

    def test_hip_finite(self):
        with pytest.raises(ValueError, match="leg geometry hip must be finite"):
            LegGeometry(0.06, 0.2, 0.2, np.array([0.19, np.nan, 0.0]), 1)


class TestLegAxis:
    def test_matches_single_leg_calls(self, legs):
        rng = np.random.default_rng(7)
        alpha = random_reachable_angles(rng, 4 * 50).reshape(50, 4, 3)
        feet, jacs = fk_position(legs, alpha), fk_jacobian(legs, alpha)
        angles = ik_position(legs, feet)
        assert feet.shape == angles.shape == (50, 4, 3) and jacs.shape == (50, 4, 3, 3)
        for leg in range(4):
            one = LegGeometry(legs.abd, legs.l1, legs.l2, legs.hip[leg], int(legs.lateral_sign[leg]))
            assert np.array_equal(feet[:, leg], fk_position(one, alpha[:, leg]))
            assert np.array_equal(jacs[:, leg], fk_jacobian(one, alpha[:, leg]))
            assert np.array_equal(angles[:, leg], ik_position(one, feet[:, leg]))

    def test_unreachable_target_names_its_leg(self, legs, one_leg):
        feet = fk_position(legs, np.tile([0.0, 0.4, 1.0], (5, 4, 1)))
        deep = feet.copy()
        deep[3, 2, 2] -= 1.0
        with pytest.raises(UnreachableTargetError, match=r"^leg 2: target distance outside"):
            ik_position(legs, deep)
        at_hip = feet.copy()
        at_hip[1, 1] = legs.hip[1]
        with pytest.raises(UnreachableTargetError, match=r"^leg 1: target inside the abduction cylinder"):
            ik_position(legs, at_hip)
        with pytest.raises(UnreachableTargetError, match=r"^target distance outside"):
            ik_position(one_leg, deep[3, 2])
