"""Comparison contact detectors: force thresholding and gait scheduling.

The force detector maps joint torques through the kinematic Jacobian
transpose (static approximation, no dynamics terms), low-passes every
leg's vertical component in one call and thresholds its magnitude. The
schedule detector reproduces a commanded gait cycle: a leg touches down at
start + (k + offset) * period, as in `gaitsim`, and stays down for the duty
fraction of the period.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formats import SchemaMismatchError
from .kinematics import LEG_NAMES, fk_jacobian
from .labelgen import lowpass

SINGULAR_SVMIN = 1e-4


@dataclass
class GrfConfig:
    threshold: float = 15.0  # N
    cutoff: float = 0.04  # cycles/sample, half-power frequency

    def __post_init__(self):
        if not np.isfinite(self.threshold):
            raise ValueError(f"force threshold must be finite, got {self.threshold}")
        if self.threshold <= 0.0:
            raise ValueError("force threshold must be positive")


@dataclass
class GaitSchedule:
    period: float  # s
    offsets: np.ndarray  # (4,), per-leg touchdown phase in [0, 1) of the period, in LEG_NAMES order
    duty: float
    start_time: float = 0.0

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets, dtype=float)
        if not 0.0 < self.period < np.inf:
            raise ValueError(f"gait period must be positive and finite, got {self.period}")
        if not np.isfinite(self.start_time):
            raise ValueError(f"gait start time must be finite, got {self.start_time}")
        if not 0.0 < self.duty < 1.0:
            raise ValueError("duty factor must lie in (0, 1)")
        if self.offsets.shape != (len(LEG_NAMES),):
            raise ValueError(f"need one phase offset per leg ({','.join(LEG_NAMES)}), got {self.offsets.tolist()}")
        if not np.all((self.offsets >= 0.0) & (self.offsets < 1.0)):
            raise ValueError("phase offsets must lie in [0, 1)")


def estimate_grf(tau, alpha, legs):
    """Per-leg ground-reaction force estimate f = (J^T)^-1 tau.

    tau: (..., 12) torques, alpha: (..., 4, 3) joint angles, legs: the four
    legs' LegGeometry. Returns (forces (..., 4, 3), singular_flags (..., 4));
    near-singular legs fall back to a pseudo-inverse and are flagged.
    """
    tau = np.asarray(tau, dtype=float)
    tau_legs = tau.reshape(tau.shape[:-1] + (-1, 3))
    jac_t = np.swapaxes(fk_jacobian(legs, alpha), -1, -2)
    flags = np.linalg.svd(jac_t, compute_uv=False)[..., -1] < SINGULAR_SVMIN
    # one solve with the identity standing in for singular legs, which alone
    # then take the pseudo-inverse
    safe = np.where(flags[..., None, None], np.eye(3), jac_t)
    forces = np.linalg.solve(safe, tau_legs[..., None])[..., 0]
    if flags.any():
        forces[flags] = np.einsum("nij,nj->ni", np.linalg.pinv(jac_t[flags]), tau_legs[flags])
    return forces, flags


def grf_threshold_detect(frames, config: GrfConfig, legs) -> np.ndarray:
    """(N, 4) contact booleans by thresholding filtered vertical force."""
    if frames.tau is None:
        raise SchemaMismatchError("frames carry no torque channel")
    alpha = frames.q.reshape(-1, 4, 3)
    forces, _ = estimate_grf(frames.tau, alpha, legs)
    return np.abs(lowpass(forces[:, :, 2], config.cutoff)) > config.threshold


def gait_cycle_detect(timestamps, schedule: GaitSchedule) -> np.ndarray:
    """(N, L) contact booleans from the commanded gait cycle."""
    t = np.asarray(timestamps, dtype=float)
    phase = (t[:, None] - schedule.start_time) / schedule.period - schedule.offsets[None, :]
    return np.mod(phase, 1.0) < schedule.duty
