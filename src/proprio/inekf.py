"""Contact-aided right-invariant EKF on SE_{L+2}(3), on one fixed layout.

Leg l owns column 2+l of the mean (v, p, d_0..d_{L-1}) and block
9+3l : 12+3l of the covariance, which is in right-invariant error
coordinates (rotation, v, p, d_0..d_{L-1}). Zero-slot rule: while leg l is
out of contact its column and its block rows and columns are exactly zero.
The process noise Q has a zero block for such a leg, the adjoint of a zero
column is R on the leg's own block alone, and a zero block stays zero
through Phi (P + G (Q dt) G^T) Phi^T and the Joseph update, so no step
needs a mask.

The filter runs in two parts:

- frame_records, the per-sequence pass, checks the inputs and computes all
  that a step needs and the state does not change: dt, the rotation
  increments so3_exp(omega dt), every leg's body-frame foot position, its
  encoder covariance J Sigma_enc J^T through the kinematic Jacobian, and
  its measurement covariance J Sigma_enc J^T + contact_cov. It does so in
  a few vectorised calls per CHUNK frames; CHUNK = 4096 keeps those arrays
  near 4 MB for any sequence length.
- step (propagate, reconcile the contact set, correct) does the
  state-dependent algebra on whole 21x21 matrices:
  - propagate sets P to Phi (P + G (Q dt) G^T) Phi^T with G =
    adjoint(mean), four GEMMs. Phi = I + N_dt dt + N_dt2 dt^2 is exact (the
    error dynamics are nilpotent), and Q is the block-diagonal (gyro,
    accel, contact x L) covariance with the blocks of the legs out of
    contact zeroed;
  - H is +I on a contact block and -I on the position block, cached per
    contact set, so each entry of H P and H P H^T is one exact difference;
    the gain comes transposed, K^T = S^-T H P (P is symmetric), from
    numpy.linalg.solve; exp(K v) is formed and left-composed with the mean
    in one pass (sek3_exp_compose); and the Joseph update
    (I - KH) P (I - KH)^T + K N K^T is P + W K^T + K W^T with
    W^T = S^T K^T / 2 - H P, so P H^T is never formed, and P added in
    place to the symmetric W K^T + K W^T.

NoiseParams is frozen and caches, once, N_dt and N_dt2 (the skew(g)
blocks) and Q for every contact set, and Phi and Q dt for the first
PHI_CACHE_SIZE distinct dt (a 1 kHz stream has a handful).

Symmetry is enforced once per step: propagate symmetrizes the covariance;
augment_contact adds a symmetric block and the Joseph form
(W K^T + K W^T) + P adds a symmetric matrix, so the covariance leaving
every stage is exactly symmetric. Orthogonality is checked once per CHUNK
frames: filter_sequence measures the rotation's defect at the start of
each chunk of frame records, the first included, and projects it back onto
SO(3) when the defect exceeds ORTHOGONALITY_TOL. A step adds round-off of
order 1e-16 to the defect, so a chunk leaves it far below that tolerance.

Propagation integrates the IMU strapdown equations on the mean. The
forward-kinematic correction of the feet in contact applies the gain on
the left through the group exponential; a touchdown fills the leg's slot
and a lift-off zeroes it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .formats import DataError
from .kinematics import LEG_NAMES, fk_jacobian, fk_position
from .liegroup import (  # noqa: F401 (perfbench traces sek3_exp and sek3_compose by their names here)
    GroupElement,
    ORTHOGONALITY_TOL,
    adjoint,
    orthogonality_defect,
    project_rotation,
    sek3_compose,
    sek3_exp,
    sek3_exp_compose,
    skew,
    so3_exp,
)

MAX_DT = 0.1  # sanity cap on a single propagation step (s)
MAX_GRAVITY = 1000.0  # sanity cap on the gravity norm (m/s^2)
NUM_LEGS = len(LEG_NAMES)
DIM = 9 + 3 * NUM_LEGS  # covariance size
CHUNK = 4096  # frames per batch of precomputed records (~1 KB each)
PHI_CACHE_SIZE = 64  # distinct dt whose Phi NoiseParams keeps
_EYE3 = np.eye(3)
_EYE = np.eye(DIM)


class FrameError(DataError):
    """A bad input frame; row is its index in the sequence, when known."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


def _frozen_array(value) -> np.ndarray:
    arr = np.array(value, dtype=float, order="C")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class NoiseParams:
    """Process/measurement noise, isotropic defaults.

    gyro/accel are IMU white-noise covariances; contact is the heuristic
    foot-slip covariance used both as process noise on contact columns and
    as additive measurement noise; encoder covariance maps through the
    kinematic Jacobian. new_contact_prior inflates freshly augmented
    contact columns.

    Frozen, with read-only arrays: after validation __post_init__ caches
    what every step reuses, Phi's constant matrices N_dt and N_dt2 (so that
    Phi = I + N_dt dt + N_dt2 dt^2) and process_cov, the process noise Q of
    each contact set, keyed by its tuple of per-leg bools. phi(dt) keeps
    the read-only Phi and its transpose of the first PHI_CACHE_SIZE
    distinct dt it is asked for, and process_cov_dt the read-only Q dt of
    the first PHI_CACHE_SIZE * 2**NUM_LEGS (contact set, dt) pairs.
    """

    gyro_cov: np.ndarray = field(default_factory=lambda: np.eye(3) * 1e-4)
    accel_cov: np.ndarray = field(default_factory=lambda: np.eye(3) * 1e-2)
    contact_cov: np.ndarray = field(default_factory=lambda: np.eye(3) * 1e-2)
    encoder_cov: np.ndarray = field(default_factory=lambda: np.eye(3) * 4e-6)
    gravity: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, -9.81]))
    new_contact_prior: float = 1e-4
    process_cov: dict = field(init=False, repr=False, compare=False)
    n_dt: np.ndarray = field(init=False, repr=False, compare=False)
    n_dt2: np.ndarray = field(init=False, repr=False, compare=False)
    _phi: dict = field(init=False, repr=False, compare=False)
    _q_dt: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("gyro_cov", "accel_cov", "contact_cov", "encoder_cov"):
            arr = _frozen_array(getattr(self, name))
            if not np.all(np.isfinite(arr)) or np.any(np.diag(arr) < 0.0):
                raise ValueError(f"{name} must be finite with a non-negative diagonal")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "gravity", _frozen_array(self.gravity))
        if not (np.all(np.isfinite(self.gravity)) and 0.0 <= self.new_contact_prior < np.inf):
            raise ValueError("gravity must be finite and new_contact_prior finite and non-negative")
        g_norm = float(np.linalg.norm(self.gravity))
        if g_norm > MAX_GRAVITY:
            raise ValueError(f"gravity norm {g_norm} m/s^2 exceeds the {MAX_GRAVITY} m/s^2 cap")
        gx = skew(self.gravity)
        n_dt = np.zeros((DIM, DIM))
        n_dt[3:6, 0:3] = gx
        n_dt[6:9, 3:6] = _EYE3
        n_dt2 = np.zeros((DIM, DIM))
        n_dt2[6:9, 0:3] = 0.5 * gx
        blocks = np.arange(3 + NUM_LEGS)
        process_cov = {}
        for contacts in itertools.product((False, True), repeat=NUM_LEGS):
            q = np.zeros((3 + NUM_LEGS, 3, 3 + NUM_LEGS, 3))
            diag = [self.gyro_cov, self.accel_cov, 0.0 * _EYE3] + [self.contact_cov * on for on in contacts]
            q[blocks, :, blocks, :] = diag
            process_cov[contacts] = _frozen_array(q.reshape(DIM, DIM))
        for name, arr in (("n_dt", n_dt), ("n_dt2", n_dt2)):
            object.__setattr__(self, name, _frozen_array(arr))
        object.__setattr__(self, "process_cov", process_cov)
        object.__setattr__(self, "_phi", {})
        object.__setattr__(self, "_q_dt", {})

    def phi(self, dt: float) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only (Phi, Phi^T) of the step dt, Phi = I + N_dt dt + N_dt2 dt^2.

        The transpose is C-contiguous, which BLAS multiplies faster than a
        transposed view. Only the first PHI_CACHE_SIZE distinct dt are kept,
        so a stream whose every dt differs costs one build per step and no
        memory growth.
        """
        pair = self._phi.get(dt)
        if pair is None:
            phi = _EYE + self.n_dt * dt + self.n_dt2 * (dt * dt)
            pair = _frozen_array(phi), _frozen_array(phi.T)
            if len(self._phi) < PHI_CACHE_SIZE:
                self._phi[dt] = pair
        return pair

    def process_cov_dt(self, contacts: Tuple[bool, ...], dt: float) -> np.ndarray:
        """Read-only process_cov[contacts] * dt; the first PHI_CACHE_SIZE * 2**NUM_LEGS pairs are kept."""
        key = contacts, dt
        q_dt = self._q_dt.get(key)
        if q_dt is None:
            q_dt = _frozen_array(self.process_cov[contacts] * dt)
            if len(self._q_dt) < PHI_CACHE_SIZE << NUM_LEGS:
                self._q_dt[key] = q_dt
        return q_dt


class Frame(NamedTuple):
    """The state-independent inputs of one step (see frame_records)."""

    t: float  # timestamp (s)
    dt: float  # time since the previous frame (s)
    accel: np.ndarray  # (3,) specific force, body frame
    d_rot: np.ndarray  # (3, 3) rotation increment so3_exp(gyro dt)
    foot: np.ndarray  # (L, 3) body-frame foot positions
    enc: np.ndarray  # (L, 3, 3) encoder covariance of each foot, J Sigma_enc J^T (body frame)
    meas_cov: np.ndarray  # (L, 3, 3) its measurement covariance, enc + contact_cov (body frame)


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
    """(p + p^T) / 2, bit for bit; adding to a C-contiguous copy of p^T is faster than to the view."""
    out = p.T.copy()
    out += p
    out *= 0.5
    return out


def _leg_block(leg: int) -> slice:
    """Covariance block of leg's contact column."""
    return slice(9 + 3 * leg, 12 + 3 * leg)


class _Layout(NamedTuple):
    legs: np.ndarray  # legs in contact
    h: np.ndarray  # (3m, DIM) measurement Jacobian: +I on each leg's block, -I on the position block
    h_t: np.ndarray  # its transpose, C-contiguous
    h_mean: np.ndarray  # (3m, 3K) -H[:, 3:]: p - d_l of each leg from the flat mean columns
    diag_flat: np.ndarray  # flat indices of an innovation matrix's 3x3 diagonal blocks, in (row, leg, column) order


@functools.lru_cache(maxsize=None)
def _contact_layout(contacts: Tuple[bool, ...]) -> Optional[_Layout]:
    """Index arrays and H of a contact set; None when no foot is down."""
    legs = np.flatnonzero(contacts)
    if legs.size == 0:
        return None
    rows = 3 * np.arange(legs.size)[:, None] + np.arange(3)
    h = np.zeros((3 * legs.size, DIM))
    h[rows.ravel(), (9 + 3 * legs[:, None] + np.arange(3)).ravel()] = 1.0
    h[rows.ravel(), np.tile(np.arange(6, 9), legs.size)] = -1.0
    block = 3 * np.arange(legs.size)[:, None]
    diag_flat = (block + np.arange(3)[:, None, None]) * (3 * legs.size) + block + np.arange(3)
    return _Layout(legs, h, np.ascontiguousarray(h.T), -h[:, 3:], diag_flat.ravel())


def propagate(state: FilterState, frame: Frame, noise: NoiseParams) -> FilterState:
    """Strapdown mean integration plus right-invariant covariance update.

    The covariance it returns is exactly symmetric; the rotation is not
    re-projected here (filter_sequence checks it once per chunk).
    """
    rot = state.mean.rot
    cols = state.mean.cols
    dt = frame.dt

    # v += dv and p += (v + dv / 2) dt with dv = (R a + g) dt, in place
    dv = np.dot(rot, frame.accel)
    dv += noise.gravity
    dv *= dt
    dp = 0.5 * dv
    dp += cols[0]
    dp *= dt
    new_cols = cols.copy()
    new_cols[0] += dv
    new_cols[1] += dp
    mean = GroupElement(np.dot(rot, frame.d_rot), new_cols)

    # Phi (P + G (Q dt) G^T) Phi^T with G = Ad(mean) before the step
    phi, phi_t = noise.phi(dt)
    g = adjoint(state.mean)
    cov = np.dot(np.dot(g, noise.process_cov_dt(state.contacts, dt)), g.T)
    cov += state.cov
    cov = np.dot(np.dot(phi, cov), phi_t)
    return FilterState(mean, state.contacts, _symmetrize(cov), frame.t)


def update_contact_kinematics(state: FilterState, frame: Frame, noise: NoiseParams) -> FilterState:
    """Stacked forward-kinematic correction for the feet in contact.

    The feet in contact are the state's contact flags; their body-frame
    positions and measurement covariances come from the frame record. A
    singular innovation matrix raises np.linalg.LinAlgError.
    """
    layout = _contact_layout(state.contacts)
    if layout is None:
        return state
    rot = state.mean.rot
    # R h(alpha) + p - d_l per leg; each entry of the second term is one exact difference
    innovation = np.dot(frame.foot.take(layout.legs, axis=0), rot.T).ravel()
    innovation += np.dot(layout.h_mean, state.mean.cols.ravel())
    meas_cov = np.dot(np.dot(rot, frame.meas_cov.take(layout.legs, axis=0)), rot.T)  # (3, m, 3)

    # each entry of H P and H P H^T is one difference of two entries, so exact
    hp = np.dot(layout.h, state.cov)
    s_mat = np.dot(hp, layout.h_t)
    s_mat.reshape(-1)[layout.diag_flat] += meas_cov.ravel()
    gain_t = np.linalg.solve(s_mat.T, hp)  # K^T = S^-T H P, as P is symmetric
    mean = sek3_exp_compose(np.dot(innovation, gain_t), state.mean)
    # Joseph form (I - KH) P (I - KH)^T + K N K^T = P + W K^T + K W^T with
    # W^T = S^T K^T / 2 - H P; the symmetric W K^T + K W^T formed first and P added in place
    w_t = np.dot(s_mat.T, gain_t)
    w_t *= 0.5
    w_t -= hp
    wk = np.dot(w_t.T, gain_t)
    cov = wk.T.copy()
    cov += wk
    cov += state.cov
    return FilterState(mean, state.contacts, cov, state.t)


def augment_contact(state: FilterState, leg: int, frame: Frame, noise: NoiseParams) -> FilterState:
    """Fill leg's slot with d = p + R h_p(alpha) and its covariance."""
    if state.contacts[leg]:
        raise ValueError(f"leg {leg} is already in contact")
    rot = state.mean.rot
    cols = state.mean.cols.copy()
    cols[2 + leg] = cols[1] + rot @ frame.foot[leg]
    mean = GroupElement(rot, cols)

    # the new error block copies the position error, plus encoder noise
    blk = _leg_block(leg)
    cov = state.cov.copy()
    cov[blk, :] = cov[6:9, :]
    cov[:, blk] = cov[:, 6:9]
    cov[blk, blk] += _symmetrize(rot @ frame.enc[leg] @ rot.T) + noise.new_contact_prior * _EYE3

    contacts = state.contacts[:leg] + (True,) + state.contacts[leg + 1 :]
    return FilterState(mean, contacts, cov, state.t)


def marginalize_contact(state: FilterState, leg: int) -> FilterState:
    """Zero leg's contact column and its covariance rows/columns."""
    if not state.contacts[leg]:
        raise ValueError(f"leg {leg} is not in contact")
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
    states), any sequence; when it equals state.contacts the reconcile is
    skipped. The rotation is not re-projected here (filter_sequence checks
    it once per chunk).
    """
    state = propagate(state, frame, noise)
    contacts = tuple(contacts)
    if contacts != state.contacts:
        state = _reconcile_contacts(state, contacts, frame, noise)
    return update_contact_kinematics(state, frame, noise)


def _orthonormalized(state: FilterState) -> FilterState:
    """state with its rotation projected onto SO(3) when the defect exceeds ORTHOGONALITY_TOL."""
    rot = state.mean.rot
    if orthogonality_defect(rot) <= ORTHOGONALITY_TOL:
        return state
    return FilterState(GroupElement(project_rotation(rot), state.mean.cols), state.contacts, state.cov, state.t)


def _check_chunk(t, dt, gyro, accel, alpha, start):
    """Raise for the earliest bad row: non-finite IMU, non-finite angles, bad dt.

    start is the index of the chunk's first row; row 0 of the sequence is
    the initial frame, of which only the joint angles count.
    """
    ok_imu = np.isfinite(gyro).all(axis=1) & np.isfinite(accel).all(axis=1)
    ok_q = np.isfinite(alpha).all(axis=(1, 2))
    ok_dt = (dt > 0.0) & (dt <= MAX_DT)
    if start == 0:
        ok_imu[0] = ok_dt[0] = True
    ok = ok_imu & ok_q & ok_dt
    if ok.all():
        return
    i = int(np.argmin(ok))
    row = start + i
    if not ok_imu[i]:
        raise FrameError(f"non-finite IMU sample at t={float(t[i])}", row)
    if not ok_q[i]:
        raise FrameError(f"non-finite joint angles at t={float(t[i])}", row)
    if not dt[i] > 0.0:
        raise FrameError(f"dt = {float(dt[i])}", row)
    raise FrameError(f"dt = {float(dt[i])} exceeds the {MAX_DT} s cap", row)


def frame_records(t, gyro, accel, q, legs, noise: NoiseParams, t0: float):
    """Yield the Frame record of every row, computed CHUNK rows at a time.

    t (N,), gyro and accel (N, 3), q (N, 3L), legs the LegGeometry of all L
    legs. Row 0 is the initial frame: the filter only reconciles contacts on
    it, so its record has t = t0 and dt = 0, and its IMU sample is never used
    and not checked; its joint angles place the feet already down and must
    be finite. Row i >= 1 propagates from row i-1 (row 1 from t0). A chunk
    with a non-finite IMU sample or joint angle, or a dt outside
    (0, MAX_DT], raises FrameError for its earliest such row, finiteness
    first; the error's row is that row's index.
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
        _check_chunk(times, dt, g, acc, alpha, a)

        d_rot = so3_exp(g * dt[:, None])
        foot = fk_position(legs, alpha)
        jac = fk_jacobian(legs, alpha)
        enc = np.einsum("...ij,jk,...lk->...il", jac, noise.encoder_cov, jac, optimize=True)
        meas_cov = enc + noise.contact_cov
        yield from map(Frame._make, zip(times.tolist(), dt.tolist(), acc, d_rot, foot, enc, meas_cov))


def filter_sequence(frames, contacts, legs, noise, init: Optional[FilterState] = None):
    """Run the filter over a FrameSequence with an (N, L) contact matrix.

    Returns (t, rotations, velocities, positions) arrays. The initial state
    defaults to identity at the first timestamp; its contact set is
    reconciled with the first frame's before stepping. At the start of
    every CHUNK records, the first included, the rotation is projected
    onto SO(3) when its orthogonality defect exceeds ORTHOGONALITY_TOL.
    A bad frame raises FrameError whose row is its index.
    """
    contacts = np.asarray(contacts, dtype=bool)
    n = len(frames)
    if contacts.shape != (n, NUM_LEGS):
        raise FrameError(f"contact matrix has shape {contacts.shape}, want ({n}, {NUM_LEGS})")
    rows = list(map(tuple, contacts.tolist()))
    state = init if init is not None else make_initial_state(t=float(frames.t[0]))
    records = frame_records(frames.t, frames.gyro, frames.acc, frames.q, legs, noise, state.t)
    state = _reconcile_contacts(_orthonormalized(state), rows[0], next(records), noise)

    t_out = np.empty(n)
    rot_out = np.empty((n, 3, 3))
    vel_pos = np.empty((n, 2, 3))
    t_out[0] = state.t
    rot_out[0] = state.mean.rot
    vel_pos[0] = state.mean.cols[:2]
    for i, frame in enumerate(records, 1):
        if i % CHUNK == 0:
            state = _orthonormalized(state)
        state = step(state, frame, rows[i], noise)
        t_out[i] = state.t
        rot_out[i] = state.mean.rot
        vel_pos[i] = state.mean.cols[:2]
    return t_out, rot_out, vel_pos[:, 0], vel_pos[:, 1]
