"""Contact-aided right-invariant EKF on SE_{L+2}(3), on one fixed layout.

Leg l owns column 2+l of the mean (v, p, d_0..d_{L-1}) and block
9+3l : 12+3l of the covariance, which is in right-invariant error
coordinates (rotation, v, p, d_0..d_{L-1}). Zero-slot rule: while leg l is
out of contact its column and its block rows and columns are exactly zero.
The adjoint of a zero column adds no noise, and a zero block stays zero
through Phi P Phi^T and the Joseph update, so no step needs a mask.

Propagation integrates the IMU strapdown equations on the mean and moves
the covariance with the exact state transition of the right-invariant
error (block-nilpotent, so the matrix exponential closes in three terms).
Forward-kinematic corrections of feet in contact apply the gain on the
left through the group exponential; a touchdown fills the leg's slot and
a lift-off zeroes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .kinematics import LEG_NAMES, LegGeometry, fk_jacobian, fk_position
from .liegroup import (
    GroupElement,
    ORTHOGONALITY_TOL,
    adjoint,
    orthogonality_defect,
    project_rotation,
    sek3_compose,
    sek3_exp,
    skew,
    so3_exp,
)

MAX_DT = 0.1  # sanity cap on a single propagation step (s)
NUM_LEGS = len(LEG_NAMES)
DIM = 9 + 3 * NUM_LEGS  # covariance size


class NonPositiveDtError(ValueError):
    pass


class UnregisteredContactError(KeyError):
    pass


class AlreadyRegisteredError(KeyError):
    pass


class InvalidInputError(ValueError):
    """NaN/Inf sensor values; the caller decides how to recover."""


@dataclass
class NoiseParams:
    """Process/measurement noise, isotropic defaults.

    gyro/accel are IMU white-noise covariances; contact is the heuristic
    foot-slip covariance used both as process noise on contact columns and
    as additive measurement noise; encoder covariance maps through the
    kinematic Jacobian. new_contact_prior inflates freshly augmented
    contact columns.
    """

    gyro_cov: np.ndarray = field(default_factory=lambda: np.eye(3) * 1e-4)
    accel_cov: np.ndarray = field(default_factory=lambda: np.eye(3) * 1e-2)
    contact_cov: np.ndarray = field(default_factory=lambda: np.eye(3) * 1e-2)
    encoder_cov: np.ndarray = field(default_factory=lambda: np.eye(3) * 4e-6)
    gravity: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, -9.81]))
    new_contact_prior: float = 1e-4

    def __post_init__(self):
        for name in ("gyro_cov", "accel_cov", "contact_cov", "encoder_cov"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(arr)) or np.any(np.diag(arr) < 0.0):
                raise ValueError(f"{name} must be finite with a non-negative diagonal")
            setattr(self, name, arr)
        self.gravity = np.asarray(self.gravity, dtype=float)
        if not (np.all(np.isfinite(self.gravity)) and 0.0 <= self.new_contact_prior < np.inf):
            raise ValueError("gravity must be finite and new_contact_prior finite and non-negative")


@dataclass
class ImuSample:
    gyro: np.ndarray  # (3,) rad/s
    accel: np.ndarray  # (3,) m/s^2
    t: float


@dataclass
class FilterState:
    """Filter mean, contact flags, covariance, and time.

    Leg l owns mean column 2+l and covariance block 9+3l : 12+3l. While
    contacts[l] is False that column and the block's rows and columns
    are exactly zero.
    """

    mean: GroupElement  # (2+L, 3) columns: v, p, d_0..d_{L-1}
    contacts: Tuple[bool, ...]  # one plain bool per leg
    cov: np.ndarray  # (9+3L, 9+3L), right-invariant coordinates
    t: float

    @property
    def rotation(self) -> np.ndarray:
        return self.mean.rot

    @property
    def velocity(self) -> np.ndarray:
        return self.mean.cols[0]

    @property
    def position(self) -> np.ndarray:
        return self.mean.cols[1]

    def contact_position(self, leg: int) -> np.ndarray:
        if not self.contacts[leg]:
            raise UnregisteredContactError(leg)
        return self.mean.cols[2 + leg]


def make_initial_state(rot=None, vel=None, pos=None, t=0.0, cov_diag=1e-6) -> FilterState:
    if not 0.0 <= cov_diag < np.inf:
        raise ValueError(f"initial covariance diagonal {cov_diag} is negative or not finite")
    cols = np.zeros((2 + NUM_LEGS, 3))
    cols[0] = 0.0 if vel is None else vel
    cols[1] = 0.0 if pos is None else pos
    mean = GroupElement(np.eye(3) if rot is None else np.asarray(rot, dtype=float), cols)
    cov = np.diag([cov_diag] * 9 + [0.0] * (DIM - 9))
    return FilterState(mean, (False,) * NUM_LEGS, cov, float(t))


def _symmetrize(p: np.ndarray) -> np.ndarray:
    return (p + p.T) / 2.0


def _leg_block(leg: int) -> slice:
    """Covariance block of leg's contact column."""
    return slice(9 + 3 * leg, 12 + 3 * leg)


def propagate(state: FilterState, imu: ImuSample, dt: float, noise: NoiseParams) -> FilterState:
    """Strapdown mean integration plus right-invariant covariance update."""
    if not dt > 0.0:
        raise NonPositiveDtError(f"dt = {dt}")
    if dt > MAX_DT:
        raise NonPositiveDtError(f"dt = {dt} exceeds the {MAX_DT} s cap")
    omega = np.asarray(imu.gyro, dtype=float)
    accel = np.asarray(imu.accel, dtype=float)
    g = noise.gravity

    rot = state.mean.rot
    vel = state.mean.cols[0]
    pos = state.mean.cols[1]

    accel_world = rot @ accel + g
    new_rot = rot @ so3_exp(omega * dt)
    if orthogonality_defect(new_rot) > ORTHOGONALITY_TOL:
        new_rot = project_rotation(new_rot)
    new_cols = state.mean.cols.copy()
    new_cols[0] = vel + accel_world * dt
    new_cols[1] = pos + vel * dt + 0.5 * accel_world * dt * dt
    mean = GroupElement(new_rot, new_cols)

    # Phi = exp(A dt) with A the (autonomous) right-invariant error matrix;
    # A is nilpotent here, so the exponential closes exactly.
    phi = np.eye(DIM)
    gx = skew(g)
    phi[3:6, 0:3] = gx * dt
    phi[6:9, 0:3] = gx * (0.5 * dt * dt)
    phi[6:9, 3:6] = np.eye(3) * dt

    qc = np.zeros((DIM, DIM))
    qc[0:3, 0:3] = noise.gyro_cov
    qc[3:6, 3:6] = noise.accel_cov
    for leg, on in enumerate(state.contacts):
        if on:
            blk = _leg_block(leg)
            qc[blk, blk] = noise.contact_cov
    ad = adjoint(state.mean)
    q_hat = ad @ qc @ ad.T
    cov = _symmetrize(phi @ (state.cov + q_hat * dt) @ phi.T)
    return FilterState(mean, state.contacts, cov, state.t + dt)


def update_contact_kinematics(state: FilterState, alpha: np.ndarray, legs, noise: NoiseParams) -> FilterState:
    """Stacked forward-kinematic correction for the feet in contact.

    alpha: (L, 3) joint angles indexed by leg id. The feet in contact are
    the state's contact flags.
    """
    active = [leg for leg, on in enumerate(state.contacts) if on]
    if not active:
        return state

    alpha = np.asarray(alpha, dtype=float)
    rot = state.mean.rot
    pos = state.mean.cols[1]
    m = 3 * len(active)
    innovation = np.zeros(m)
    h_mat = np.zeros((m, DIM))
    n_mat = np.zeros((m, m))
    for row, leg in enumerate(active):
        geom: LegGeometry = legs[leg]
        foot_body = fk_position(geom, alpha[leg])
        jac = fk_jacobian(geom, alpha[leg])
        d = state.mean.cols[2 + leg]
        sl = slice(3 * row, 3 * row + 3)
        innovation[sl] = rot @ foot_body + pos - d
        h_mat[sl, 6:9] = -np.eye(3)
        h_mat[sl, _leg_block(leg)] = np.eye(3)
        n_mat[sl, sl] = rot @ (jac @ noise.encoder_cov @ jac.T + noise.contact_cov) @ rot.T

    pht = state.cov @ h_mat.T
    s_mat = h_mat @ pht + n_mat
    gain = np.linalg.solve(s_mat.T, pht.T).T
    delta = gain @ innovation
    mean = sek3_compose(sek3_exp(delta), state.mean)
    if orthogonality_defect(mean.rot) > ORTHOGONALITY_TOL:
        mean = GroupElement(project_rotation(mean.rot), mean.cols)
    ikh = np.eye(DIM) - gain @ h_mat
    cov = _symmetrize(ikh @ state.cov @ ikh.T + gain @ n_mat @ gain.T)
    return FilterState(mean, state.contacts, cov, state.t)


def augment_contact(
    state: FilterState, leg: int, alpha: np.ndarray, legs, noise: NoiseParams
) -> FilterState:
    """Fill leg's slot with d = p + R h_p(alpha) and its covariance."""
    if state.contacts[leg]:
        raise AlreadyRegisteredError(leg)
    alpha = np.asarray(alpha, dtype=float)
    geom: LegGeometry = legs[leg]
    rot = state.mean.rot
    foot_body = fk_position(geom, alpha[leg])
    jac = fk_jacobian(geom, alpha[leg])

    cols = state.mean.cols.copy()
    cols[2 + leg] = cols[1] + rot @ foot_body
    mean = GroupElement(rot, cols)

    # the new error block copies the position error, plus encoder noise
    blk = _leg_block(leg)
    cov = state.cov.copy()
    cov[blk, :] = cov[6:9, :]
    cov[:, blk] = cov[:, 6:9]
    g_mat = rot @ jac
    cov[blk, blk] += g_mat @ noise.encoder_cov @ g_mat.T + noise.new_contact_prior * np.eye(3)

    contacts = state.contacts[:leg] + (True,) + state.contacts[leg + 1 :]
    return FilterState(mean, contacts, _symmetrize(cov), state.t)


def marginalize_contact(state: FilterState, leg: int) -> FilterState:
    """Zero leg's contact column and its covariance rows/columns."""
    if not state.contacts[leg]:
        raise UnregisteredContactError(leg)
    cols = state.mean.cols.copy()
    cols[2 + leg] = 0.0
    blk = _leg_block(leg)
    cov = state.cov.copy()
    cov[blk, :] = 0.0
    cov[:, blk] = 0.0
    contacts = state.contacts[:leg] + (False,) + state.contacts[leg + 1 :]
    return FilterState(GroupElement(state.mean.rot, cols), contacts, cov, state.t)


def _reconcile_contacts(state: FilterState, contacts, alpha, legs, noise) -> FilterState:
    """Augment legs that touched down and marginalize legs that lifted off."""
    for leg, want in enumerate(contacts):
        if want and not state.contacts[leg]:
            state = augment_contact(state, leg, alpha, legs, noise)
        elif not want and state.contacts[leg]:
            state = marginalize_contact(state, leg)
    return state


def step(
    state: FilterState,
    imu: ImuSample,
    alpha: np.ndarray,
    contacts,
    legs,
    noise: NoiseParams,
) -> FilterState:
    """One filter cycle: propagate, reconcile the contact set, correct.

    contacts: per-leg booleans (detected contact states). dt comes from the
    IMU timestamp; timestamps must strictly increase.
    """
    alpha = np.asarray(alpha, dtype=float)
    if not (np.all(np.isfinite(imu.gyro)) and np.all(np.isfinite(imu.accel))):
        raise InvalidInputError(f"non-finite IMU sample at t={imu.t}")
    if not np.all(np.isfinite(alpha)):
        raise InvalidInputError(f"non-finite joint angles at t={imu.t}")
    dt = imu.t - state.t
    state = propagate(state, imu, dt, noise)
    state = _reconcile_contacts(state, contacts, alpha, legs, noise)
    return update_contact_kinematics(state, alpha, legs, noise)


def filter_sequence(frames, contacts, legs, noise, init: Optional[FilterState] = None):
    """Run the filter over a FrameSequence with an (N, L) contact matrix.

    Returns (t, rotations, velocities, positions) arrays. The initial state
    defaults to identity at the first timestamp; its contact set is
    reconciled with the first frame's before stepping.
    """
    contacts = np.asarray(contacts, dtype=bool)
    n = len(frames)
    if contacts.shape != (n, NUM_LEGS):
        raise InvalidInputError(f"contact matrix has shape {contacts.shape}, want ({n}, {NUM_LEGS})")
    state = init if init is not None else make_initial_state(t=float(frames.t[0]))
    state = _reconcile_contacts(state, contacts[0], frames.q[0].reshape(-1, 3), legs, noise)

    t_out = np.empty(n)
    rot_out = np.empty((n, 3, 3))
    vel_out = np.empty((n, 3))
    pos_out = np.empty((n, 3))
    t_out[0] = state.t
    rot_out[0] = state.rotation
    vel_out[0] = state.velocity
    pos_out[0] = state.position
    for i in range(1, n):
        imu = ImuSample(frames.gyro[i], frames.acc[i], float(frames.t[i]))
        state = step(state, imu, frames.q[i].reshape(-1, 3), contacts[i], legs, noise)
        t_out[i] = state.t
        rot_out[i] = state.rotation
        vel_out[i] = state.velocity
        pos_out[i] = state.position
    return t_out, rot_out, vel_out, pos_out
