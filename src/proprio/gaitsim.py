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
first filtered minimum trails touchdown by `label_lead_s`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import numpy as np

from .dataio import FrameSequence, WindowSet, bool_to_codes, upsample, window_set
from .kinematics import LegGeometry, fk_jacobian, fk_position, ik_position

GRAVITY = np.array([0.0, 0.0, -9.81])

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


class UnreachableFootTargetError(ValueError):
    """Spec geometry cannot realize the commanded foot trajectory."""


@dataclass
class SensorNoise:
    """Per-channel Gaussian sigma; zeros give noiseless streams."""

    encoder: float = 0.0015  # rad
    joint_rate: float = 0.02  # rad/s
    gyro: float = 0.02  # rad/s
    accel: float = 0.1  # m/s^2
    torque: float = 1.5  # N*m

    def scaled(self, factor: float) -> "SensorNoise":
        return SensorNoise(*(factor * v for v in (self.encoder, self.joint_rate, self.gyro, self.accel, self.torque)))


NOISELESS = SensorNoise(0.0, 0.0, 0.0, 0.0, 0.0)


@dataclass
class GaitSpec:
    gait: str = "trot"  # trot | pronk | stand | air-trot
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
    vibration_cycles: int = 18  # per gait period (locks phase to the gait)
    label_lead_s: float = 0.060  # first stance height minimum after touchdown
    leg_mass: float = 0.7  # kg, swing inertia for synthetic torques
    mass: float = 9.0  # kg
    # commanded torque leads touchdown and outlasts liftoff, the way a
    # controller feed-forward does; this is what makes force thresholding
    # an unreliable contact detector
    torque_anticipation_s: float = 0.10
    torque_hold_s: float = 0.06
    encoder_rate: float = 500.0  # Hz
    imu_rate: float = 1000.0  # Hz
    noise: SensorNoise = field(default_factory=SensorNoise)
    seed: int = 0

    def __post_init__(self):
        if self.period <= 0.0 or not 0.0 < self.duty < 1.0:
            raise ValueError("period must be positive and duty in (0, 1)")
        if self.encoder_rate <= 0.0 or self.imu_rate <= 0.0:
            raise ValueError("sample rates must be positive")


@dataclass
class SimulationResult:
    encoder_frames: FrameSequence  # encoder rate, torques + gt codes
    imu_frames: FrameSequence  # IMU rate, native IMU channels, gt codes
    contacts_encoder: np.ndarray  # (N_enc, 4) bool
    contacts_imu: np.ndarray  # (N_imu, 4) bool
    traj_t: np.ndarray  # (N_imu,)
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
        self.vf = spec.vibration_cycles / spec.period
        # body-height maxima (stance foot-height minima) at
        # t = label_lead_s + k / vf relative to each unjittered touchdown
        self.vphi = np.pi / 2.0 - 2.0 * np.pi * self.vf * spec.label_lead_s

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
        return np.array([TROT_OFFSETS[n] for n in ("RF", "LF", "RH", "LH")])
    return np.zeros(4)


def _stance_schedule(spec: GaitSpec, duration: float, rng):
    """Per-leg jittered (touchdown, liftoff) arrays covering the run."""
    offsets = _gait_offsets(spec)
    t_period = spec.period
    n_cycles = int(np.ceil(duration / t_period)) + 3
    schedule = []
    for leg in range(4):
        k = np.arange(-2, n_cycles)
        td = (k + offsets[leg]) * t_period
        lo = td + spec.duty * t_period
        if spec.jitter > 0.0:
            td = td + rng.uniform(-spec.jitter, spec.jitter, size=td.shape) * t_period
            lo = lo + rng.uniform(-spec.jitter, spec.jitter, size=lo.shape) * t_period
            # keep both phases at least 10% of a period long
            lo = np.clip(lo, td + 0.1 * t_period, td + 0.9 * t_period)
            td[1:] = np.maximum(td[1:], lo[:-1] + 0.1 * t_period)
        schedule.append((td, lo))
    return schedule


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


def _foot_world_ground(spec, body, leg_geom, td, lo, t):
    """World foot trajectory for a ground gait leg: anchors plus swing."""
    # anchor: ground point under the abduction pivot at mid-stance
    t_mid = (td + lo) / 2.0
    yaw_mid = body.yaw(t_mid)
    c, s = np.cos(yaw_mid), np.sin(yaw_mid)
    pivot = leg_geom.hip + np.array([0.0, leg_geom.lateral_sign * leg_geom.abd, 0.0])
    anchors = body.pos(t_mid)[:, :2] + np.stack(
        [c * pivot[0] - s * pivot[1], s * pivot[0] + c * pivot[1]], axis=-1
    )

    idx = np.searchsorted(td, t, side="right") - 1
    idx = np.clip(idx, 0, len(td) - 2)
    in_stance = (t >= td[idx]) & (t < lo[idx])

    pos = np.zeros(t.shape + (3,))
    vel = np.zeros(t.shape + (3,))

    # stance: anchored, plus the touchdown transient on height
    u = t - td[idx]
    tz, tzdot = _touchdown_transient(u, spec)
    pos[in_stance, :2] = anchors[idx[in_stance]]
    pos[in_stance, 2] = tz[in_stance]
    vel[in_stance, 2] = tzdot[in_stance]

    # swing: cycloid in the plane, bump plus settle blend in height
    sw = ~in_stance
    j = idx[sw]
    t0 = lo[j]
    t1 = td[j + 1]
    dur = t1 - t0
    sphase = (t[sw] - t0) / dur
    a0 = anchors[j]
    a1 = anchors[j + 1]
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


def _foot_body_air(spec, leg_geom, offset, t):
    """Body-frame cycling foot target for air gaits (no ground)."""
    phase = (t / spec.period + offset) % 1.0
    pivot = leg_geom.hip + np.array([0.0, leg_geom.lateral_sign * leg_geom.abd, 0.0])
    two_pi = 2.0 * np.pi
    x = pivot[0] + 0.25 * spec.step_length * np.sin(two_pi * phase)
    z = -spec.body_height + 0.5 * spec.step_height * (1.0 - np.cos(two_pi * phase))
    pos = np.stack([x, np.full_like(t, pivot[1]), z], axis=-1)
    vel = np.stack(
        [
            0.25 * spec.step_length * two_pi / spec.period * np.cos(two_pi * phase),
            np.zeros_like(t),
            0.5 * spec.step_height * two_pi / spec.period * np.sin(two_pi * phase),
        ],
        axis=-1,
    )
    return pos, vel


def _contacts_at(schedule, t):
    out = np.zeros(t.shape + (4,), dtype=bool)
    for leg, (td, lo) in enumerate(schedule):
        idx = np.clip(np.searchsorted(td, t, side="right") - 1, 0, len(td) - 1)
        out[:, leg] = (t >= td[idx]) & (t < lo[idx])
    return out


def simulate(spec: GaitSpec, duration: float, legs) -> SimulationResult:
    """Generate a synthetic run of the given duration (s)."""
    if duration < 2.0 * spec.period:
        raise ValueError("duration must cover at least two gait periods")
    rng = np.random.default_rng(spec.seed)
    body = _BodyMotion(spec)
    grounded = spec.gait in ("trot", "pronk", "stand")

    dt_enc = 1.0 / spec.encoder_rate
    n_enc = int(round(duration * spec.encoder_rate)) + 1
    t_enc = dt_enc * np.arange(n_enc)

    if spec.gait == "stand":
        schedule = [(np.array([-1e9]), np.array([1e9]))] * 4
    else:
        schedule = _stance_schedule(spec, duration, rng)

    rot_enc = body.rot(t_enc)
    pos_enc = body.pos(t_enc)
    vel_enc = body.vel(t_enc)
    omega_body = np.array([0.0, 0.0, body.w])

    q_true = np.zeros((n_enc, 4, 3))
    qd_true = np.zeros((n_enc, 4, 3))
    contacts_enc = np.zeros((n_enc, 4), dtype=bool)
    for leg in range(4):
        geom: LegGeometry = legs[leg]
        if spec.gait == "stand":
            t_mid = np.array([0.0])
            td = np.array([-1e9, 2e9])
            lo = np.array([1e9, 3e9])
            foot_w, foot_wv = _foot_world_ground(
                replace(spec, bounce_amplitude=0.0), body, geom, td, lo, t_enc
            )
            contacts_enc[:, leg] = True
        elif grounded:
            td, lo = schedule[leg]
            foot_w, foot_wv = _foot_world_ground(spec, body, geom, td, lo, t_enc)
            idx = np.clip(np.searchsorted(td, t_enc, side="right") - 1, 0, len(td) - 1)
            contacts_enc[:, leg] = (t_enc >= td[idx]) & (t_enc < lo[idx])
        else:  # air gait: body-frame cycling, never in contact
            offset = _gait_offsets(spec)[leg]
            target_b, target_bv = _foot_body_air(spec, geom, offset, t_enc)
            foot_w = foot_wv = None

        if foot_w is not None:
            rel = foot_w - pos_enc
            target_b = np.einsum("nji,nj->ni", rot_enc, rel)
            # d/dt R^T (x - p) = R^T (dx - v) - omega x R^T (x - p)
            target_bv = np.einsum("nji,nj->ni", rot_enc, foot_wv - vel_enc) - np.cross(
                omega_body, target_b
            )
        try:
            q_true[:, leg] = ik_position(geom, target_b)
        except ValueError as exc:
            raise UnreachableFootTargetError(f"leg {leg}: {exc}") from exc
        qd_true[:, leg] = np.linalg.solve(
            fk_jacobian(geom, q_true[:, leg]), target_bv[..., None]
        )[..., 0]

    noise = spec.noise
    q_meas = q_true + rng.normal(0.0, 1.0, q_true.shape) * noise.encoder
    qd_meas = qd_true + rng.normal(0.0, 1.0, qd_true.shape) * noise.joint_rate

    pf = np.zeros((n_enc, 4, 3))
    vf = np.zeros((n_enc, 4, 3))
    for leg in range(4):
        geom = legs[leg]
        pf[:, leg] = fk_position(geom, q_meas[:, leg]) - geom.hip
        vf[:, leg] = np.einsum(
            "nij,nj->ni", fk_jacobian(geom, q_meas[:, leg]), qd_meas[:, leg]
        )

    tau = _synthetic_torques(spec, legs, q_true, qd_true, contacts_enc, rot_enc, body, t_enc, rng)

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
    contacts_imu = _contacts_at(schedule, t_imu) if spec.gait != "stand" else np.ones(
        (len(t_imu), 4), dtype=bool
    )
    if spec.gait == "air-trot":
        contacts_imu[:] = False
        contacts_enc[:] = False
    frames_imu.gt = bool_to_codes(contacts_imu)

    return SimulationResult(
        encoder_frames=frames_enc,
        imu_frames=frames_imu,
        contacts_encoder=contacts_enc,
        contacts_imu=contacts_imu,
        traj_t=t_imu,
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


def _synthetic_torques(spec, legs, q_true, qd_true, contacts, rot, body, t, rng):
    """Commanded-torque model: weight sharing through J^T plus swing inertia.

    The torque window is dilated around true stance (feed-forward
    anticipation and hold), so force thresholding systematically
    mispredicts the transitions.
    """
    n = len(t)
    rate = spec.encoder_rate
    before = int(round(spec.torque_anticipation_s * rate))
    after = int(round(spec.torque_hold_s * rate))
    loaded = np.stack(
        [_dilate(contacts[:, leg], before, after) for leg in range(4)], axis=1
    )
    n_loaded = loaded.sum(axis=1)
    share = np.zeros(n)
    np.divide(spec.mass * 9.81, n_loaded, out=share, where=n_loaded > 0)

    tau = np.zeros((n, 4, 3))
    for leg in range(4):
        geom = legs[leg]
        jac = fk_jacobian(geom, q_true[:, leg])
        f_world = np.zeros((n, 3))
        f_world[:, 2] = np.where(loaded[:, leg], share, 0.0)
        # swing inertia: reaction to accelerating the leg mass
        foot_vel = np.einsum("nij,nj->ni", jac, qd_true[:, leg])
        foot_acc = np.gradient(foot_vel, t, axis=0)
        f_inertial = -spec.leg_mass * foot_acc * (~contacts[:, leg])[:, None]
        f_body = np.einsum("nji,nj->ni", rot, f_world) + f_inertial
        tau[:, leg] = np.einsum("nji,nj->ni", jac, f_body)
    tau += rng.normal(0.0, 1.0, tau.shape) * spec.noise.torque
    return tau


def derive_windows(frames: FrameSequence, w: int, stride: int = 1) -> WindowSet:
    """Labeled windows from a simulated frame stream (gt codes required)."""
    if frames.gt is None:
        raise ValueError("frames carry no ground-truth contact codes")
    return window_set(frames, w, stride)
