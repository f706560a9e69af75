"""Contact-aided right-invariant EKF on SE_{L+2}(3), on one fixed layout.

Leg l owns column 2+l of the mean (v, p, d_0..d_{L-1}) and block
9+3l : 12+3l of the covariance, which is in right-invariant error
coordinates (rotation, v, p, d_0..d_{L-1}). Zero-slot rule: while leg l is
out of contact its column and its block rows and columns are exactly zero.
The adjoint of a zero column adds no noise, and a zero block stays zero
through Phi P Phi^T and the Joseph update, so no step needs a mask.

The filter runs in two parts:

- frame_records, the per-sequence pass, checks the inputs and computes all
  that a step needs and the state does not change: dt, the rotation
  increments so3_exp(omega dt), and every leg's body-frame foot position
  and kinematic Jacobian. It does so in a few vectorised calls per CHUNK
  frames; CHUNK = 4096 keeps those arrays near 2 MB for any sequence length.
- step (propagate, reconcile the contact set, correct) does the
  state-dependent algebra block by block:
  - Ad Qc Ad^T = S (R Qg R^T) S^T plus R Qa R^T on the velocity block and
    R Qc R^T on each contact block, with S = [I; skew(c_0); ...] built
    from the mean columns in one product;
  - Phi = I + N exactly (the error dynamics are nilpotent), and N is
    nonzero only in the v and p rows over the rot, v, p columns;
  - H is +I on a contact block and -I on the position block, so P H^T and
    H P H^T are column and row differences, and the Joseph update
    (I - KH) P (I - KH)^T + K N K^T is P + W K^T + K W^T with
    W = K S / 2 - P H^T.

Propagation integrates the IMU strapdown equations on the mean. The
forward-kinematic correction of the feet in contact applies the gain on
the left through the group exponential; a touchdown fills the leg's slot
and a lift-off zeroes it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .kinematics import LEG_NAMES, fk_jacobian, fk_position
from .liegroup import (  # noqa: F401 (adjoint: perfbench/perlayer.py traces liegroup through inekf)
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
CHUNK = 4096  # frames per batch of precomputed records (~0.5 KB each)
_EYE3 = np.eye(3)


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


class Frame(NamedTuple):
    """The state-independent inputs of one step (see frame_records)."""

    t: float  # timestamp (s)
    dt: float  # time since the previous frame (s)
    accel: np.ndarray  # (3,) specific force, body frame
    d_rot: np.ndarray  # (3, 3) rotation increment so3_exp(gyro dt)
    foot: np.ndarray  # (L, 3) body-frame foot positions
    jac: np.ndarray  # (L, 3, 3) foot Jacobians d foot / d alpha


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


class _Layout(NamedTuple):
    legs: np.ndarray  # legs in contact
    blocks: Tuple[slice, ...]  # their covariance blocks
    leg_idx: np.ndarray  # their covariance rows, 3 per leg
    pos_idx: np.ndarray  # the position rows, repeated once per leg
    diag_idx: Tuple[np.ndarray, np.ndarray]  # the 3x3 diagonal blocks of an innovation matrix


@functools.lru_cache(maxsize=None)
def _contact_layout(contacts: Tuple[bool, ...]) -> Optional[_Layout]:
    """Index arrays of a contact set; None when no foot is down."""
    legs = np.flatnonzero(contacts)
    if legs.size == 0:
        return None
    rows = 3 * np.arange(legs.size)[:, None] + np.arange(3)
    return _Layout(
        legs,
        tuple(_leg_block(leg) for leg in legs.tolist()),
        (9 + 3 * legs[:, None] + np.arange(3)).ravel(),
        np.tile(np.arange(6, 9), legs.size),
        (np.repeat(rows, 3, axis=1).ravel(), np.tile(rows, 3).ravel()),
    )


def propagate(state: FilterState, frame: Frame, noise: NoiseParams) -> FilterState:
    """Strapdown mean integration plus right-invariant covariance update."""
    rot = state.mean.rot
    cols = state.mean.cols
    dt = frame.dt

    accel_world = rot @ frame.accel + noise.gravity
    new_rot = rot @ frame.d_rot
    if orthogonality_defect(new_rot) > ORTHOGONALITY_TOL:
        new_rot = project_rotation(new_rot)
    new_cols = cols.copy()
    new_cols[0] = cols[0] + accel_world * dt
    new_cols[1] = cols[1] + cols[0] * dt + 0.5 * accel_world * dt * dt
    mean = GroupElement(new_rot, new_cols)

    # P + Ad Qc Ad^T dt: Ad's rotation column is S R, each other column R on its block
    s_mat = np.concatenate((_EYE3, skew(cols).reshape(-1, 3)))
    cov = state.cov + s_mat @ (rot @ noise.gyro_cov @ rot.T * dt) @ s_mat.T
    cov[3:6, 3:6] += rot @ noise.accel_cov @ rot.T * dt
    layout = _contact_layout(state.contacts)
    if layout is not None:
        slip = rot @ noise.contact_cov @ rot.T * dt
        for blk in layout.blocks:
            cov[blk, blk] += slip
    # Phi (P + Q dt) Phi^T with Phi = I + N; N's rows v and p over rot, v, p
    gx = skew(noise.gravity)
    n_rows = np.zeros((6, 9))
    n_rows[0:3, 0:3] = gx * dt
    n_rows[3:6, 0:3] = gx * (0.5 * dt * dt)
    n_rows[3:6, 3:6] = _EYE3 * dt
    cov[3:9] += n_rows @ cov[:9]
    cov[:, 3:9] += cov[:, :9] @ n_rows.T
    return FilterState(mean, state.contacts, _symmetrize(cov), frame.t)


def update_contact_kinematics(state: FilterState, frame: Frame, noise: NoiseParams) -> FilterState:
    """Stacked forward-kinematic correction for the feet in contact.

    The feet in contact are the state's contact flags; their body-frame
    positions and Jacobians come from the frame record.
    """
    layout = _contact_layout(state.contacts)
    if layout is None:
        return state
    legs = layout.legs
    rot = state.mean.rot
    cols = state.mean.cols
    innovation = (frame.foot[legs] @ rot.T + cols[1] - cols[2 + legs]).ravel()
    jac = frame.jac[legs]
    meas_cov = rot @ (jac @ noise.encoder_cov @ jac.swapaxes(1, 2) + noise.contact_cov) @ rot.T

    # H is +I on each leg's block and -I on the position block
    pht = state.cov[:, layout.leg_idx] - state.cov[:, layout.pos_idx]
    s_mat = pht[layout.leg_idx] - pht[layout.pos_idx]
    s_mat[layout.diag_idx] += meas_cov.ravel()
    gain = np.linalg.solve(s_mat.T, pht.T).T
    mean = sek3_compose(sek3_exp(gain @ innovation), state.mean)
    if orthogonality_defect(mean.rot) > ORTHOGONALITY_TOL:
        mean = GroupElement(project_rotation(mean.rot), mean.cols)
    # Joseph form (I - KH) P (I - KH)^T + K N K^T = P + W K^T + K W^T
    w = gain @ (0.5 * s_mat) - pht
    wk = w @ gain.T
    return FilterState(mean, state.contacts, state.cov + (wk + wk.T), state.t)


def augment_contact(state: FilterState, leg: int, frame: Frame, noise: NoiseParams) -> FilterState:
    """Fill leg's slot with d = p + R h_p(alpha) and its covariance."""
    if state.contacts[leg]:
        raise AlreadyRegisteredError(leg)
    rot = state.mean.rot
    cols = state.mean.cols.copy()
    cols[2 + leg] = cols[1] + rot @ frame.foot[leg]
    mean = GroupElement(rot, cols)

    # the new error block copies the position error, plus encoder noise
    blk = _leg_block(leg)
    cov = state.cov.copy()
    cov[blk, :] = cov[6:9, :]
    cov[:, blk] = cov[:, 6:9]
    g_mat = rot @ frame.jac[leg]
    cov[blk, blk] += g_mat @ noise.encoder_cov @ g_mat.T + noise.new_contact_prior * _EYE3

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


def _reconcile_contacts(state: FilterState, contacts, frame: Frame, noise) -> FilterState:
    """Augment legs that touched down and marginalize legs that lifted off."""
    for leg, want in enumerate(contacts):
        if want and not state.contacts[leg]:
            state = augment_contact(state, leg, frame, noise)
        elif not want and state.contacts[leg]:
            state = marginalize_contact(state, leg)
    return state


def step(state: FilterState, frame: Frame, contacts, noise: NoiseParams) -> FilterState:
    """One filter cycle: propagate, reconcile the contact set, correct.

    frame: this frame's record from frame_records, whose dt runs from the
    state's time to frame.t. contacts: per-leg booleans (detected contact
    states).
    """
    state = propagate(state, frame, noise)
    state = _reconcile_contacts(state, contacts, frame, noise)
    return update_contact_kinematics(state, frame, noise)


def _check_chunk(t, dt, gyro, accel, alpha, skip_first):
    """Raise for the earliest bad row: non-finite IMU, non-finite angles, bad dt."""
    ok_imu = np.isfinite(gyro).all(axis=1) & np.isfinite(accel).all(axis=1)
    ok_q = np.isfinite(alpha).all(axis=(1, 2))
    ok = ok_imu & ok_q & (dt > 0.0) & (dt <= MAX_DT)
    ok[0] |= skip_first
    if ok.all():
        return
    i = int(np.argmin(ok))
    if not ok_imu[i]:
        raise InvalidInputError(f"non-finite IMU sample at t={float(t[i])}")
    if not ok_q[i]:
        raise InvalidInputError(f"non-finite joint angles at t={float(t[i])}")
    if not dt[i] > 0.0:
        raise NonPositiveDtError(f"dt = {float(dt[i])}")
    raise NonPositiveDtError(f"dt = {float(dt[i])} exceeds the {MAX_DT} s cap")


def frame_records(t, gyro, accel, q, legs, t0: float):
    """Yield the Frame record of every row, computed CHUNK rows at a time.

    t (N,), gyro and accel (N, 3), q (N, 3L). Row 0 is the initial frame:
    the filter only reconciles contacts on it, so its record has t = t0 and
    dt = 0 and none of its values is checked. Row i >= 1 propagates from
    row i-1 (row 1 from t0). A chunk with a non-finite IMU sample or joint
    angle, or a dt outside (0, MAX_DT], raises InvalidInputError or
    NonPositiveDtError for its earliest such row, finiteness first.
    """
    t, gyro, accel, q = (np.asarray(x, dtype=float) for x in (t, gyro, accel, q))
    t_prev = float(t0)
    for a in range(0, len(t), CHUNK):
        rows = slice(a, a + CHUNK)
        times = t[rows].copy()
        if a == 0:
            times[0] = t_prev
        dt = np.diff(times, prepend=t_prev)
        t_prev = float(times[-1])
        g, acc = gyro[rows], accel[rows]
        alpha = q[rows].reshape(len(times), -1, 3)
        _check_chunk(times, dt, g, acc, alpha, a == 0)

        d_rot = so3_exp(g * dt[:, None])
        foot = np.empty(alpha.shape)
        jac = np.empty(alpha.shape + (3,))
        for leg, geom in enumerate(legs):
            foot[:, leg] = fk_position(geom, alpha[:, leg])
            jac[:, leg] = fk_jacobian(geom, alpha[:, leg])
        yield from map(Frame._make, zip(times.tolist(), dt.tolist(), acc, d_rot, foot, jac))


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
    records = frame_records(frames.t, frames.gyro, frames.acc, frames.q, legs, state.t)
    state = _reconcile_contacts(state, contacts[0], next(records), noise)

    t_out = np.empty(n)
    rot_out = np.empty((n, 3, 3))
    vel_out = np.empty((n, 3))
    pos_out = np.empty((n, 3))
    t_out[0] = state.t
    rot_out[0] = state.rotation
    vel_out[0] = state.velocity
    pos_out[0] = state.position
    for i, frame in enumerate(records, 1):
        state = step(state, frame, contacts[i], noise)
        t_out[i] = state.t
        rot_out[i] = state.rotation
        vel_out[i] = state.velocity
        pos_out[i] = state.position
    return t_out, rot_out, vel_out, pos_out
