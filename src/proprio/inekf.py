"""Contact-aided right-invariant EKF on SE_{L+2}(3).

State mean is a GroupElement whose columns are (v, p, d_1..d_L) with one
column per foot currently in contact; covariance lives in right-invariant
error coordinates ordered (rotation, v, p, d_1..d_L).

Propagation integrates the IMU strapdown equations on the mean and moves
the covariance with the exact state transition of the right-invariant
error (block-nilpotent, so the matrix exponential closes in three terms).
Forward-kinematic corrections of feet in contact apply the gain on the
left through the group exponential; contacts are augmented into and
marginalized out of the state as they start and stop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .kinematics import LegGeometry, fk_jacobian, fk_position
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
            if np.any(np.diag(arr) < 0.0):
                raise ValueError(f"{name} has negative diagonal entries")
            setattr(self, name, arr)
        self.gravity = np.asarray(self.gravity, dtype=float)


@dataclass
class ImuSample:
    gyro: np.ndarray  # (3,) rad/s
    accel: np.ndarray  # (3,) m/s^2
    t: float


@dataclass
class FilterState:
    """Filter mean, contact registry, covariance, and time."""

    mean: GroupElement  # columns: v, p, d_1..d_L
    registry: Dict[int, int]  # leg id -> column index in mean.cols (>= 2)
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
        if leg not in self.registry:
            raise UnregisteredContactError(leg)
        return self.mean.cols[self.registry[leg]]


def make_initial_state(rot=None, vel=None, pos=None, t=0.0, cov_diag=1e-6) -> FilterState:
    if not cov_diag >= 0.0:
        raise ValueError(f"initial covariance diagonal {cov_diag} is negative or NaN")
    mean = GroupElement(
        np.eye(3) if rot is None else np.asarray(rot, dtype=float),
        np.stack(
            [
                np.zeros(3) if vel is None else np.asarray(vel, dtype=float),
                np.zeros(3) if pos is None else np.asarray(pos, dtype=float),
            ]
        ),
    )
    return FilterState(mean, {}, np.eye(9) * cov_diag, float(t))


def _symmetrize(p: np.ndarray) -> np.ndarray:
    return (p + p.T) / 2.0


def _column_block(col_index: int) -> slice:
    """Covariance block of column col_index (v=0 -> 3:6, p=1 -> 6:9, ...)."""
    start = 3 * (col_index + 1)
    return slice(start, start + 3)


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
    dim = state.cov.shape[0]
    phi = np.eye(dim)
    gx = skew(g)
    phi[3:6, 0:3] = gx * dt
    phi[6:9, 0:3] = gx * (0.5 * dt * dt)
    phi[6:9, 3:6] = np.eye(3) * dt

    qc = np.zeros((dim, dim))
    qc[0:3, 0:3] = noise.gyro_cov
    qc[3:6, 3:6] = noise.accel_cov
    for col in state.registry.values():
        blk = _column_block(col)
        qc[blk, blk] = noise.contact_cov
    ad = adjoint(state.mean)
    q_hat = ad @ qc @ ad.T
    cov = _symmetrize(phi @ (state.cov + q_hat * dt) @ phi.T)
    return FilterState(mean, dict(state.registry), cov, state.t + dt)


def update_contact_kinematics(
    state: FilterState,
    alpha: np.ndarray,
    active_contacts,
    legs,
    noise: NoiseParams,
) -> FilterState:
    """Stacked forward-kinematic correction for the feet in contact.

    alpha: (L_total, 3) joint angles indexed by leg id. Every leg in
    active_contacts must already be registered.
    """
    active = sorted(active_contacts)
    if not active:
        return state
    for leg in active:
        if leg not in state.registry:
            raise UnregisteredContactError(leg)

    alpha = np.asarray(alpha, dtype=float)
    rot = state.mean.rot
    pos = state.mean.cols[1]
    dim = state.cov.shape[0]
    m = 3 * len(active)
    innovation = np.zeros(m)
    h_mat = np.zeros((m, dim))
    n_mat = np.zeros((m, m))
    for row, leg in enumerate(active):
        geom: LegGeometry = legs[leg]
        col = state.registry[leg]
        foot_body = fk_position(geom, alpha[leg])
        jac = fk_jacobian(geom, alpha[leg])
        d = state.mean.cols[col]
        sl = slice(3 * row, 3 * row + 3)
        innovation[sl] = rot @ foot_body + pos - d
        h_mat[sl, 6:9] = -np.eye(3)
        h_mat[sl, _column_block(col)] = np.eye(3)
        n_mat[sl, sl] = rot @ (jac @ noise.encoder_cov @ jac.T + noise.contact_cov) @ rot.T

    pht = state.cov @ h_mat.T
    s_mat = h_mat @ pht + n_mat
    gain = np.linalg.solve(s_mat.T, pht.T).T
    delta = gain @ innovation
    mean = sek3_compose(sek3_exp(delta), state.mean)
    if orthogonality_defect(mean.rot) > ORTHOGONALITY_TOL:
        mean = GroupElement(project_rotation(mean.rot), mean.cols)
    ikh = np.eye(dim) - gain @ h_mat
    cov = _symmetrize(ikh @ state.cov @ ikh.T + gain @ n_mat @ gain.T)
    return FilterState(mean, dict(state.registry), cov, state.t)


def augment_contact(
    state: FilterState, leg: int, alpha: np.ndarray, legs, noise: NoiseParams
) -> FilterState:
    """Append a new contact column d = p + R h_p(alpha) with its covariance."""
    if leg in state.registry:
        raise AlreadyRegisteredError(leg)
    alpha = np.asarray(alpha, dtype=float)
    geom: LegGeometry = legs[leg]
    rot = state.mean.rot
    pos = state.mean.cols[1]
    foot_body = fk_position(geom, alpha[leg])
    jac = fk_jacobian(geom, alpha[leg])

    d_new = pos + rot @ foot_body
    cols = np.vstack([state.mean.cols, d_new[None, :]])
    mean = GroupElement(rot, cols)

    dim = state.cov.shape[0]
    f_mat = np.zeros((dim + 3, dim))
    f_mat[:dim, :dim] = np.eye(dim)
    f_mat[dim:, 6:9] = np.eye(3)  # new error block copies the position error
    g_mat = rot @ jac
    cov = f_mat @ state.cov @ f_mat.T
    cov[dim:, dim:] += g_mat @ noise.encoder_cov @ g_mat.T + noise.new_contact_prior * np.eye(3)

    registry = dict(state.registry)
    registry[leg] = state.mean.k
    return FilterState(mean, registry, _symmetrize(cov), state.t)


def marginalize_contact(state: FilterState, leg: int) -> FilterState:
    """Remove a contact column and its covariance rows/columns."""
    if leg not in state.registry:
        raise UnregisteredContactError(leg)
    col = state.registry[leg]
    cols = np.delete(state.mean.cols, col, axis=0)
    mean = GroupElement(state.mean.rot, cols)
    blk = _column_block(col)
    keep = [i for i in range(state.cov.shape[0]) if not blk.start <= i < blk.stop]
    cov = state.cov[np.ix_(keep, keep)]
    registry = {
        l: (c - 1 if c > col else c) for l, c in state.registry.items() if l != leg
    }
    return FilterState(mean, registry, cov.copy(), state.t)


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
    active = []
    for leg, want in enumerate(contacts):
        have = leg in state.registry
        if want and not have:
            state = augment_contact(state, leg, alpha, legs, noise)
        elif not want and have:
            state = marginalize_contact(state, leg)
        if want:
            active.append(leg)
    if active:
        state = update_contact_kinematics(state, alpha, active, legs, noise)
    return state


def filter_sequence(frames, contacts, legs, noise, init: Optional[FilterState] = None):
    """Run the filter over a FrameSequence with an (N, L) contact matrix.

    Returns (t, rotations, velocities, positions) arrays. The initial state
    defaults to identity at the first timestamp; contacts present in the
    first frame are augmented before stepping.
    """
    contacts = np.asarray(contacts, dtype=bool)
    n = len(frames)
    if contacts.shape[0] != n:
        raise InvalidInputError("contact stream length differs from frame count")
    state = init if init is not None else make_initial_state(t=float(frames.t[0]))
    alpha0 = frames.q[0].reshape(-1, 3)
    for leg, want in enumerate(contacts[0]):
        if want and leg not in state.registry:
            state = augment_contact(state, leg, alpha0, legs, noise)

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
