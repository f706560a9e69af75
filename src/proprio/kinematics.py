"""Analytic 3-DoF leg kinematics for a point-foot quadruped.

Chain per leg (body frame: x forward, y left, z up):

    hip -> Rx(abduction) -> [0, sign*abd, 0] -> Ry(hip flexion)
        -> [0, 0, -l1] -> Ry(knee) -> [0, 0, -l2] -> foot

A LegGeometry describes one leg, or L legs at once: then its hip is (L, 3)
and its lateral sign (L,), and joint angles and positions carry the leg
axis as (..., L, 3). All functions broadcast over the leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LEG_NAMES = ("RF", "LF", "RH", "LH")

# Workspace margin (m) kept away from the straight-leg / folded-leg radii.
REACH_MARGIN = 1e-6


class UnreachableTargetError(ValueError):
    """IK target lies outside the leg workspace."""


@dataclass(frozen=True)
class LegGeometry:
    """Geometry of one leg, or of L legs sharing their link lengths.

    abd: lateral abduction link offset (m), applied along +/-y.
    l1, l2: thigh and shank lengths (m).
    hip: hip position in the body frame, (3,) or (L, 3).
    lateral_sign: +1 for left legs, -1 for right legs; a scalar or (L,).
    """

    abd: float
    l1: float
    l2: float
    hip: np.ndarray
    lateral_sign: int | np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "hip", np.asarray(self.hip, dtype=float))
        for name in ("abd", "l1", "l2", "hip"):
            value = getattr(self, name)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"leg geometry {name} must be finite, got {value}")
        if self.l1 <= 0 or self.l2 <= 0:
            raise ValueError("link lengths must be positive")


def default_legs(abd=0.062, l1=0.209, l2=0.195, hip_x=0.19, hip_y=0.049):
    """The four legs in RF, LF, RH, LH order, Mini-Cheetah-scale defaults."""
    sx, sy = np.array([[1, -1], [1, 1], [-1, -1], [-1, 1]]).T  # per leg
    return LegGeometry(abd, l1, l2, np.stack([sx * hip_x, sy * hip_y, np.zeros(len(sx))], axis=-1), sy)


def _leg_plane_terms(geom, alpha):
    """Sagittal-plane foot coordinates before the abduction rotation."""
    a2, a3 = alpha[..., 1], alpha[..., 2]
    # Ry(a3) @ [0,0,-l2] + [0,0,-l1]
    ix = -geom.l2 * np.sin(a3)
    iz = -geom.l1 - geom.l2 * np.cos(a3)
    c2, s2 = np.cos(a2), np.sin(a2)
    x = c2 * ix + s2 * iz
    z = -s2 * ix + c2 * iz
    return x, z


def fk_position(geom: LegGeometry, alpha) -> np.ndarray:
    """Foot position in the body frame for joint angles (..., 3)."""
    alpha = np.asarray(alpha, dtype=float)
    x, z_leg = _leg_plane_terms(geom, alpha)
    y_leg = geom.lateral_sign * geom.abd
    c1, s1 = np.cos(alpha[..., 0]), np.sin(alpha[..., 0])
    out = np.empty(alpha.shape[:-1] + (3,))
    out[..., 0] = x
    out[..., 1] = c1 * y_leg - s1 * z_leg
    out[..., 2] = s1 * y_leg + c1 * z_leg
    return out + geom.hip


def fk_jacobian(geom: LegGeometry, alpha) -> np.ndarray:
    """Analytic Jacobian d(foot position)/d(alpha), shape (..., 3, 3)."""
    alpha = np.asarray(alpha, dtype=float)
    a1, a2, a3 = alpha[..., 0], alpha[..., 1], alpha[..., 2]
    c1, s1 = np.cos(a1), np.sin(a1)
    c2, s2 = np.cos(a2), np.sin(a2)
    c3, s3 = np.cos(a3), np.sin(a3)

    ix = -geom.l2 * s3
    iz = -geom.l1 - geom.l2 * c3
    y_leg = geom.lateral_sign * geom.abd
    z_leg = -s2 * ix + c2 * iz

    jac = np.empty(alpha.shape[:-1] + (3, 3))
    # d/d(abduction): rotation about body x of the whole leg vector
    jac[..., 0, 0] = 0.0
    jac[..., 1, 0] = -s1 * y_leg - c1 * z_leg
    jac[..., 2, 0] = c1 * y_leg - s1 * z_leg
    # d/d(hip flexion): Ry' applied to the planar leg vector
    dx2 = -s2 * ix + c2 * iz
    dz2 = -c2 * ix - s2 * iz
    jac[..., 0, 1] = dx2
    jac[..., 1, 1] = -s1 * dz2
    jac[..., 2, 1] = c1 * dz2
    # d/d(knee): Ry(a2) @ Ry'(a3) @ [0,0,-l2]
    ux = c2 * (-geom.l2 * c3) + s2 * (geom.l2 * s3)
    uz = -s2 * (-geom.l2 * c3) + c2 * (geom.l2 * s3)
    jac[..., 0, 2] = ux
    jac[..., 1, 2] = -s1 * uz
    jac[..., 2, 2] = c1 * uz
    return jac


def _wrap_angle(a):
    return (a + np.pi) % (2.0 * np.pi) - np.pi


def _require_reach(geom, bad, why):
    """Raise UnreachableTargetError if any target is `bad`; for L legs, name the first leg with one."""
    if np.any(bad):
        if geom.hip.ndim == 2:
            why = f"leg {int(np.argmax(bad.reshape(-1, bad.shape[-1]).any(axis=0)))}: {why}"
        raise UnreachableTargetError(why)


def ik_position(geom: LegGeometry, target) -> np.ndarray:
    """Joint angles reaching a body-frame foot target, knee-backward branch.

    Raises UnreachableTargetError when the target is outside the reachable
    annulus (with a small margin) or inside the abduction cylinder.
    """
    target = np.asarray(target, dtype=float)
    r = target - geom.hip
    d = geom.lateral_sign * geom.abd

    rho_sq = r[..., 1] ** 2 + r[..., 2] ** 2
    h_sq = rho_sq - d * d
    _require_reach(geom, h_sq <= 0.0, "target inside the abduction cylinder")
    h = np.sqrt(h_sq)
    a1 = _wrap_angle(np.arctan2(r[..., 2], r[..., 1]) - np.arctan2(-h, d))

    dist_sq = r[..., 0] ** 2 + h_sq
    dist = np.sqrt(dist_sq)
    lo = abs(geom.l1 - geom.l2) + REACH_MARGIN
    hi = geom.l1 + geom.l2 - REACH_MARGIN
    _require_reach(geom, (dist < lo) | (dist > hi), f"target distance outside [{lo:.6f}, {hi:.6f}]")

    cos_knee = (dist_sq - geom.l1**2 - geom.l2**2) / (2.0 * geom.l1 * geom.l2)
    a3 = np.arccos(np.clip(cos_knee, -1.0, 1.0))  # knee-backward: a3 in [0, pi]

    ix = -geom.l2 * np.sin(a3)
    iz = -geom.l1 - geom.l2 * np.cos(a3)
    a2 = _wrap_angle(np.arctan2(r[..., 0], -h) - np.arctan2(ix, iz))

    return np.stack([a1, a2, a3], axis=-1)
