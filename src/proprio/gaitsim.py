"""Synthetic quadruped gait generator: the desk-scale ground-truth oracle.

Produces kinematically consistent sensor streams (joint encoders, IMU,
foot kinematics, synthetic torques), true contact states, and the true
body trajectory. Feet are anchored in the world during stance (the no-slip
property the odometry filter relies on) and follow smooth swing profiles
between anchors. Encoder-rate and IMU-rate streams mimic a 500/1000 Hz
sensor split; the IMU-rate stream carries native IMU channels and
interpolated kinematic channels.

Touchdown realism: each touchdown adds a critically-damped settle plus a
fast decaying-sine rattle to the foot height. The rattle is the visible
"bounce" in raw data; a zero-phase low-pass removes it entirely, while the
settle keeps the filtered height monotone through the transient. A small
body-height vibration, harmonically locked to the gait, textures the
stance floor with evenly spaced height minima; its phase is chosen so the
first filtered minimum trails touchdown by `LABEL_LEAD_S`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
import numpy as np

from .dataio import FrameSequence, bool_to_codes, upsample
from .kinematics import LEG_NAMES, fk_jacobian, fk_position, ik_position

GRAVITY = np.array([0.0, 0.0, -9.81])

# Ground gaits anchor stance feet in the world; an air gait cycles the feet
# in the body frame and never touches the ground.
GAITS = ("trot", "pronk", "stand", "air-trot")

# Largest stance-boundary jitter, as a fraction of the period. A 10 s sweep
# (trot and pronk, 80 seeds) ran every seed up to 0.8; from 0.85 some swings
# ask IK for targets out of reach.
MAX_JITTER = 0.8

# Touchdown transient shape: rattle oscillation period, rattle amplitude as
# a fraction of the bounce amplitude, and the compression window as a
# multiple of the configured decay.
RATTLE_PERIOD_S = 0.012
RATTLE_AMPLITUDE_RATIO = 0.75
COMPRESSION_RATIO = 1.25

# Swing fraction where the landing compression blend starts.
LANDING_BLEND_START = 0.6

# Peak-normalized swing height bumps: the quartic-tail shape keeps the apex
# sharply curved, the linear-tail shape lands with finite downward speed.
_BUMP_NORM = 729.0 / 16.0
_BUMP_LAND_NORM = 27.0 / 4.0
_MAX_LANDING_WEIGHT = 0.35

TROT_OFFSETS = {"RF": 0.0, "LF": 0.5, "RH": 0.5, "LH": 0.0}

# Body-height vibration cycles per gait period (locks its phase to the
# gait) and the delay of the first stance height minimum after touchdown.
VIBRATION_CYCLES = 18
LABEL_LEAD_S = 0.060

# Synthetic torques: swing inertia (kg), and how long the commanded torque
# leads touchdown and outlasts liftoff (s), the way a controller
# feed-forward does; this is what makes force thresholding an unreliable
# contact detector.
LEG_MASS = 0.7
TORQUE_ANTICIPATION_S = 0.10
TORQUE_HOLD_S = 0.06


@dataclass
class SensorNoise:
    """Per-channel Gaussian sigma; zeros give noiseless streams."""

    encoder: float = 0.0015  # rad
    joint_rate: float = 0.02  # rad/s
    gyro: float = 0.02  # rad/s
    accel: float = 0.1  # m/s^2
    torque: float = 1.5  # N*m

    def __post_init__(self):
        for f in fields(self):
            sigma = getattr(self, f.name)
            if not 0.0 <= sigma < np.inf:
                raise ValueError(f"noise sigma {f.name} must be finite and non-negative, got {sigma}")


NOISELESS = SensorNoise(0.0, 0.0, 0.0, 0.0, 0.0)


@dataclass
class GaitSpec:
    gait: str = "trot"  # one of GAITS
    period: float = 1.0  # s
    duty: float = 0.5084
    step_length: float = 0.5  # m, air-gait swing amplitude
    step_height: float = 0.10  # m
    body_height: float = 0.28  # m
    speed: float = 0.5  # m/s
    turn_rate: float = 0.0  # rad/s
    jitter: float = 0.0  # stance-boundary jitter, fraction of period
    bounce_amplitude: float = 0.008  # m
    bounce_decay: float = 0.040  # s
    bounce_rattle_ratio: float = RATTLE_AMPLITUDE_RATIO  # 0 = soft landing only
    vibration_amplitude: float = 4e-4  # m, body-height texture
    mass: float = 9.0  # kg
    encoder_rate: float = 500.0  # Hz
    imu_rate: float = 1000.0  # Hz
    noise: SensorNoise = field(default_factory=SensorNoise)
    seed: int = 0

    def __post_init__(self):
        if self.gait not in GAITS:
            raise ValueError(f"unknown gait {self.gait!r}; expected one of {GAITS}")
        if not (0.0 < self.period < np.inf and 0.0 < self.duty < 1.0):
            raise ValueError("period must be positive and duty in (0, 1)")
        for name in ("speed", "turn_rate", "step_length", "step_height", "body_height", "mass"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"gait {name} must be finite, got {value}")
        for name in ("jitter", "bounce_amplitude", "vibration_amplitude"):
            value = getattr(self, name)
            if not 0.0 <= value < np.inf:
                raise ValueError(f"gait {name} must be finite and non-negative, got {value}")
        if self.jitter > MAX_JITTER:
            raise ValueError(f"gait jitter must be at most {MAX_JITTER} of a period, got {self.jitter}")
        for name in ("bounce_decay", "mass", "encoder_rate", "imu_rate"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass
class SimulationResult:
    encoder_frames: FrameSequence  # encoder rate, torques + gt codes
    imu_frames: FrameSequence  # IMU rate, native IMU channels, gt codes
    contacts_encoder: np.ndarray  # (N_enc, 4) bool
    contacts_imu: np.ndarray  # (N_imu, 4) bool
    traj_rot: np.ndarray  # (N_imu, 3, 3)
    traj_pos: np.ndarray  # (N_imu, 3)
    traj_vel: np.ndarray  # (N_imu, 3)


def _swing_bump(s, land_w=0.0):
    """Unit-scale vertical swing profile; land_w blends in a component with
    finite landing speed so the descent stays steep through touchdown."""
    apex = _BUMP_NORM * s**2 * (1.0 - s) ** 4
    land = _BUMP_LAND_NORM * s**2 * (1.0 - s)
    return (1.0 - land_w) * apex + land_w * land


def _swing_bump_dot(s, land_w=0.0):
    apex = _BUMP_NORM * (2.0 * s * (1.0 - s) ** 4 - 4.0 * s**2 * (1.0 - s) ** 3)
    land = _BUMP_LAND_NORM * (2.0 * s - 3.0 * s**2)
    return (1.0 - land_w) * apex + land_w * land


def _cycloid(s):
    return s - np.sin(2.0 * np.pi * s) / (2.0 * np.pi)


def _cycloid_dot(s):
    return 1.0 - np.cos(2.0 * np.pi * s)


class _BodyMotion:
    """Closed-form planar body trajectory plus vertical vibration."""

    def __init__(self, spec: GaitSpec):
        moving = spec.gait in ("trot", "pronk")
        self.v = spec.speed if moving else 0.0
        self.w = spec.turn_rate if moving else 0.0
        self.h0 = spec.body_height
        self.va = spec.vibration_amplitude
        self.vf = VIBRATION_CYCLES / spec.period
        # body-height maxima (stance foot-height minima) at
        # t = LABEL_LEAD_S + k / vf relative to each unjittered touchdown
        self.vphi = np.pi / 2.0 - 2.0 * np.pi * self.vf * LABEL_LEAD_S

    def yaw(self, t):
        return self.w * t

    def pos(self, t):
        t = np.asarray(t, dtype=float)
        if abs(self.w) > 1e-12:
            x = self.v / self.w * np.sin(self.w * t)
            y = self.v / self.w * (1.0 - np.cos(self.w * t))
        else:
            x = self.v * t
            y = np.zeros_like(t)
        z = self.h0 + self.va * np.sin(2.0 * np.pi * self.vf * t + self.vphi)
        return np.stack([x, y, z], axis=-1)

    def vel(self, t):
        t = np.asarray(t, dtype=float)
        vx = self.v * np.cos(self.w * t)
        vy = self.v * np.sin(self.w * t)
        vz = self.va * 2.0 * np.pi * self.vf * np.cos(2.0 * np.pi * self.vf * t + self.vphi)
        return np.stack([vx, vy, vz], axis=-1)

    def acc(self, t):
        t = np.asarray(t, dtype=float)
        ax = -self.v * self.w * np.sin(self.w * t)
        ay = self.v * self.w * np.cos(self.w * t)
        az = -self.va * (2.0 * np.pi * self.vf) ** 2 * np.sin(
            2.0 * np.pi * self.vf * t + self.vphi
        )
        return np.stack([ax, ay, az], axis=-1)

    def rot(self, t):
        t = np.asarray(t, dtype=float)
        c, s = np.cos(self.w * t), np.sin(self.w * t)
        out = np.zeros(t.shape + (3, 3))
        out[..., 0, 0] = c
        out[..., 0, 1] = -s
        out[..., 1, 0] = s
        out[..., 1, 1] = c
        out[..., 2, 2] = 1.0
        return out


def _gait_offsets(spec: GaitSpec):
    if spec.gait in ("trot", "air-trot"):
        return np.array([TROT_OFFSETS[n] for n in LEG_NAMES])
    return np.zeros(len(LEG_NAMES))


def _stance_schedule(spec: GaitSpec, duration: float, rng):
    """Jittered (touchdown, liftoff) times, two (L, K) arrays from two periods before the run
    to two past it, give or take the jitter; one draw holds each leg's touchdown, then liftoff jitters."""
    t_period = spec.period
    if spec.gait == "stand":
        # one stance from long before the run to long after it: no foot swings,
        # and the touchdown transient has died out
        return np.tile([-1e9, 2e9], (len(LEG_NAMES), 1)), np.tile([1e9, 3e9], (len(LEG_NAMES), 1))
    k = np.arange(-2, int(np.ceil(duration / t_period)) + 3)
    td = (k + _gait_offsets(spec)[:, None]) * t_period
    lo = td + spec.duty * t_period
    if spec.jitter > 0.0:
        draws = rng.uniform(-spec.jitter, spec.jitter, size=(len(LEG_NAMES), 2) + k.shape) * t_period
        td = td + draws[:, 0]
        lo = lo + draws[:, 1]
        # keep both phases at least 10% of a period long
        lo = np.clip(lo, td + 0.1 * t_period, td + 0.9 * t_period)
        # a touchdown too soon after the liftoff before it waits, and so may its liftoff;
        # with a jitter of at most 0.2 no liftoff moves
        for j in range(1, k.size):
            td[:, j] = np.maximum(td[:, j], lo[:, j - 1] + 0.1 * t_period)
            lo[:, j] = np.maximum(lo[:, j], td[:, j] + 0.1 * t_period)
    return td, lo


def _stance(td, lo, t):
    """(N, L) index of each leg's last touchdown at or before t, clipped to [0, K - 2] so a
    swing has a next touchdown, and (N, L) stance flags, for the foot model and the contacts.

    The schedule runs two periods past the run, so with a jitter below a period (MAX_JITTER)
    no sample reaches the last touchdown and the top clip never changes a flag.
    """
    idx = np.stack([np.searchsorted(td_leg, t, side="right") for td_leg in td], axis=-1) - 1
    idx = np.clip(idx, 0, td.shape[1] - 2)
    leg = np.arange(len(td))
    return idx, (t[:, None] >= td[leg, idx]) & (t[:, None] < lo[leg, idx])


def _touchdown_transient(u, spec: GaitSpec):
    """Foot-height offset u seconds after touchdown (vectorized, >=0 only).

    Quadratic compression decays the landing height to zero with a finite
    initial slope, keeping the filtered height strictly descending through
    the transient; the fast decaying sine is the visible bounce, entirely
    above the low-pass cutoff.
    """
    u = np.asarray(u, dtype=float)
    amp, tau = spec.bounce_amplitude, spec.bounce_decay
    if amp <= 0.0:
        return np.zeros_like(u), np.zeros_like(u)
    t_c = COMPRESSION_RATIO * tau
    uu = np.clip(u, 0.0, None)
    rem = np.clip(1.0 - uu / t_c, 0.0, None)
    z = amp * rem**2
    zdot = -2.0 * amp * rem / t_c
    live_r = (u >= 0.0) & (u < 5.0 * tau)
    ur = np.where(live_r, uu, 0.0)
    wr = 2.0 * np.pi / RATTLE_PERIOD_S
    ra = spec.bounce_rattle_ratio * amp
    rattle = ra * np.sin(wr * ur) * np.exp(-ur / tau)
    rattle_dot = ra * np.exp(-ur / tau) * (wr * np.cos(wr * ur) - np.sin(wr * ur) / tau)
    z = z + np.where(live_r, rattle, 0.0)
    zdot = np.where(rem > 0.0, zdot, 0.0) + np.where(live_r, rattle_dot, 0.0)
    return z, zdot


def _foot_world_ground(spec, body, pivots, td, lo, t):
    """World foot trajectories (N, L, 3) of a ground gait, legs with abduction
    pivots `pivots` (L, 3): anchors plus swing."""
    # anchor: ground point under the abduction pivot at mid-stance
    t_mid = (td + lo) / 2.0
    yaw_mid = body.yaw(t_mid)
    c, s = np.cos(yaw_mid), np.sin(yaw_mid)
    px, py = pivots[:, None, 0], pivots[:, None, 1]
    anchors = body.pos(t_mid)[..., :2] + np.stack([c * px - s * py, s * px + c * py], axis=-1)

    idx, in_stance = _stance(td, lo, t)
    pos = np.zeros(idx.shape + (3,))
    vel = np.zeros(idx.shape + (3,))

    # stance: anchored, plus the touchdown transient on height
    tz, tzdot = _touchdown_transient(t[:, None] - td[np.arange(len(td)), idx], spec)
    pos[in_stance, :2] = anchors[in_stance.nonzero()[1], idx[in_stance]]
    pos[in_stance, 2] = tz[in_stance]
    vel[in_stance, 2] = tzdot[in_stance]

    # swing: cycloid in the plane, bump plus settle blend in height
    sw = ~in_stance
    n, leg = sw.nonzero()
    j = idx[sw]
    t0 = lo[leg, j]
    t1 = td[leg, j + 1]
    dur = t1 - t0
    sphase = (t[n] - t0) / dur
    a0 = anchors[leg, j]
    a1 = anchors[leg, j + 1]
    blend = _cycloid(sphase)[:, None]
    pos[sw, :2] = a0 + (a1 - a0) * blend
    vel[sw, :2] = (a1 - a0) * _cycloid_dot(sphase)[:, None] / dur[:, None]
    # Landing-speed blend: with a touchdown transient configured, the bump
    # mix descends at the compression's initial speed so the height keeps
    # falling monotonically through touchdown; the small smoothstep offset
    # lifts the endpoint to the compression height.
    amp = spec.bounce_amplitude
    land_w = _landing_weight(spec)
    r = np.clip((sphase - LANDING_BLEND_START) / (1.0 - LANDING_BLEND_START), 0.0, 1.0)
    w_r = r * r * (3.0 - 2.0 * r)
    dw_r = 6.0 * r * (1.0 - r) / (1.0 - LANDING_BLEND_START)
    pos[sw, 2] = spec.step_height * _swing_bump(sphase, land_w) + amp * w_r
    vel[sw, 2] = (
        spec.step_height * _swing_bump_dot(sphase, land_w) + amp * dw_r
    ) / dur
    return pos, vel


def _landing_weight(spec: GaitSpec) -> float:
    """Bump-mix weight whose landing speed matches the compression slope."""
    if spec.bounce_amplitude <= 0.0 or spec.step_height <= 0.0:
        return 0.0
    t_c = COMPRESSION_RATIO * spec.bounce_decay
    t_swing = (1.0 - spec.duty) * spec.period
    w = 2.0 * spec.bounce_amplitude * t_swing / (t_c * _BUMP_LAND_NORM * spec.step_height)
    return min(w, _MAX_LANDING_WEIGHT)


def _foot_body_air(spec, pivots, offsets, t):
    """Body-frame cycling foot targets (N, L, 3) around abduction pivots `pivots`
    (L, 3), legs at phase `offsets`, for air gaits (no ground)."""
    phase = (t[:, None] / spec.period + offsets) % 1.0
    two_pi = 2.0 * np.pi
    x = pivots[:, 0] + 0.25 * spec.step_length * np.sin(two_pi * phase)
    z = -spec.body_height + 0.5 * spec.step_height * (1.0 - np.cos(two_pi * phase))
    pos = np.stack([x, np.broadcast_to(pivots[:, 1], phase.shape), z], axis=-1)
    vel = np.stack(
        [
            0.25 * spec.step_length * two_pi / spec.period * np.cos(two_pi * phase),
            np.zeros_like(phase),
            0.5 * spec.step_height * two_pi / spec.period * np.sin(two_pi * phase),
        ],
        axis=-1,
    )
    return pos, vel


def simulate(spec: GaitSpec, duration: float, legs) -> SimulationResult:
    """Generate a synthetic run of the given duration (s)."""
    if not 2.0 * spec.period <= duration < np.inf:
        raise ValueError(f"duration must cover at least two gait periods and be finite, got {duration}")
    rng = np.random.default_rng(spec.seed)
    body = _BodyMotion(spec)
    grounded = spec.gait != "air-trot"

    dt_enc = 1.0 / spec.encoder_rate
    n_enc = int(round(duration * spec.encoder_rate)) + 1
    t_enc = dt_enc * np.arange(n_enc)

    td, lo = _stance_schedule(spec, duration, rng)

    rot_enc = body.rot(t_enc)
    pos_enc = body.pos(t_enc)
    vel_enc = body.vel(t_enc)
    omega_body = np.array([0.0, 0.0, body.w])

    contacts_enc = _stance(td, lo, t_enc)[1] & grounded
    pivots = legs.hip.copy()  # each leg's abduction pivot
    pivots[:, 1] += legs.lateral_sign * legs.abd
    if grounded:
        foot_w, foot_wv = _foot_world_ground(spec, body, pivots, td, lo, t_enc)
        target_b = np.einsum("nji,nlj->nli", rot_enc, foot_w - pos_enc[:, None])
        # d/dt R^T (x - p) = R^T (dx - v) - omega x R^T (x - p)
        target_bv = np.einsum("nji,nlj->nli", rot_enc, foot_wv - vel_enc[:, None]) - np.cross(omega_body, target_b)
        del foot_w, foot_wv  # all legs at once: free them before IK
    else:  # air gait: body-frame cycling
        target_b, target_bv = _foot_body_air(spec, pivots, _gait_offsets(spec), t_enc)
    q_true = ik_position(legs, target_b)
    jac_true = fk_jacobian(legs, q_true)
    qd_true = np.linalg.solve(jac_true, target_bv[..., None])[..., 0]

    noise = spec.noise
    q_meas = q_true + rng.normal(0.0, 1.0, q_true.shape) * noise.encoder
    qd_meas = qd_true + rng.normal(0.0, 1.0, qd_true.shape) * noise.joint_rate

    pf = fk_position(legs, q_meas) - legs.hip
    vf = np.einsum("nlij,nlj->nli", fk_jacobian(legs, q_meas), qd_meas)

    tau = _synthetic_torques(spec, jac_true, qd_true, contacts_enc, rot_enc, t_enc, rng)

    # IMU channels on the encoder grid feed the encoder-rate frames; the
    # IMU-rate frames get them natively below.
    def imu_channels(t, rot):
        acc_w = body.acc(t)
        acc_b = np.einsum("nji,nj->ni", rot, acc_w - GRAVITY)
        gyr = np.tile(omega_body, (len(t), 1))
        return acc_b, gyr

    acc_enc, gyro_enc = imu_channels(t_enc, rot_enc)
    gt_enc = bool_to_codes(contacts_enc)
    frames_enc = FrameSequence(
        t=t_enc,
        q=q_meas.reshape(n_enc, 12),
        qd=qd_meas.reshape(n_enc, 12),
        acc=acc_enc + rng.normal(0.0, 1.0, acc_enc.shape) * noise.accel,
        gyro=gyro_enc + rng.normal(0.0, 1.0, gyro_enc.shape) * noise.gyro,
        pf=pf.reshape(n_enc, 12),
        vf=vf.reshape(n_enc, 12),
        tau=tau.reshape(n_enc, 12),
        gt=gt_enc,
    )

    frames_imu = upsample(frames_enc, spec.imu_rate)
    t_imu = frames_imu.t
    rot_imu = body.rot(t_imu)
    acc_imu, gyro_imu = imu_channels(t_imu, rot_imu)
    frames_imu.acc = acc_imu + rng.normal(0.0, 1.0, acc_imu.shape) * noise.accel
    frames_imu.gyro = gyro_imu + rng.normal(0.0, 1.0, gyro_imu.shape) * noise.gyro
    contacts_imu = _stance(td, lo, t_imu)[1] & grounded
    frames_imu.gt = bool_to_codes(contacts_imu)

    return SimulationResult(
        encoder_frames=frames_enc,
        imu_frames=frames_imu,
        contacts_encoder=contacts_enc,
        contacts_imu=contacts_imu,
        traj_rot=rot_imu,
        traj_pos=body.pos(t_imu),
        traj_vel=body.vel(t_imu),
    )


def _dilate(mask, before, after):
    out = mask.copy()
    for shift in range(1, before + 1):
        out[:-shift] |= mask[shift:]
    for shift in range(1, after + 1):
        out[shift:] |= mask[:-shift]
    return out


def _synthetic_torques(spec, jac, qd_true, contacts, rot, t, rng):
    """Commanded-torque model: weight sharing through J^T plus swing inertia.

    `jac` is the (n, 4, 3, 3) foot Jacobian at the true joint angles. The
    torque window is dilated around true stance (feed-forward anticipation
    and hold), so force thresholding systematically mispredicts the
    transitions.
    """
    n = len(t)
    rate = spec.encoder_rate
    before = int(round(TORQUE_ANTICIPATION_S * rate))
    after = int(round(TORQUE_HOLD_S * rate))
    loaded = _dilate(contacts, before, after)
    n_loaded = loaded.sum(axis=1)
    share = np.zeros(n)
    np.divide(spec.mass * 9.81, n_loaded, out=share, where=n_loaded > 0)

    f_world = np.zeros((n, 4, 3))
    f_world[..., 2] = np.where(loaded, share[:, None], 0.0)
    # swing inertia: reaction to accelerating the leg mass
    foot_vel = np.einsum("nlij,nlj->nli", jac, qd_true)
    foot_acc = np.gradient(foot_vel, t, axis=0)
    f_inertial = -LEG_MASS * foot_acc * (~contacts)[..., None]
    f_body = np.einsum("nji,nlj->nli", rot, f_world) + f_inertial
    tau = np.einsum("nlji,nlj->nli", jac, f_body)
    tau += rng.normal(0.0, 1.0, tau.shape) * spec.noise.torque
    return tau

