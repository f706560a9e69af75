"""Plain-text toolkit configuration.

Grammar: section headers in brackets, one key=value per line, '#' starts a
comment, blank lines ignored. Unknown sections or keys are rejected with
their file location. Every key has a documented default, so an empty file
is a valid configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import baselines, gaitsim, inekf, kinematics, labelgen


class ConfigError(ValueError):
    pass


@dataclass
class KinematicsConfig:
    abd: float = 0.062
    l1: float = 0.209
    l2: float = 0.195
    hip_x: float = 0.19
    hip_y: float = 0.049

    def legs(self):
        return kinematics.default_legs(self.abd, self.l1, self.l2, self.hip_x, self.hip_y)


@dataclass
class InekfConfig:
    gyro_std: float = 0.01  # rad/s
    accel_std: float = 0.1  # m/s^2
    contact_std: float = 0.1  # m/s
    encoder_std: float = 0.002  # rad
    gravity_z: float = -9.81
    contact_prior: float = 1e-4
    init_cov: float = 1e-6  # initial covariance diagonal, right-invariant coordinates

    def noise(self) -> inekf.NoiseParams:
        return inekf.NoiseParams(
            gyro_cov=np.eye(3) * self.gyro_std**2,
            accel_cov=np.eye(3) * self.accel_std**2,
            contact_cov=np.eye(3) * self.contact_std**2,
            encoder_cov=np.eye(3) * self.encoder_std**2,
            gravity=np.array([0.0, 0.0, self.gravity_z]),
            new_contact_prior=self.contact_prior,
        )


@dataclass
class ContactnetConfig:
    preset: str = "2blocks"
    window: int = 150
    classes: int = 16
    batch_size: int = 30
    learning_rate: float = 1e-4
    epochs: int = 30
    dropout: float = 0.2
    stride: int = 4  # window stride when deriving training sets


@dataclass
class LabelgenConfig:
    gait: str = "trot"
    half_power_freq: float = 0.0  # 0 means: use the per-gait default
    backoff: int = 30

    def to_labelgen(self) -> labelgen.LabelGenConfig:
        if self.backoff < 0:
            raise ConfigError(f"[labelgen] backoff must be a non-negative number of samples, got {self.backoff}")
        return labelgen.LabelGenConfig(
            gait=self.gait,
            half_power_freq=self.half_power_freq or None,
            single_min_backoff=self.backoff,
        )


@dataclass
class BaselinesConfig:
    grf_threshold: float = 15.0
    grf_cutoff: float = 0.04
    gait_period: float = 1.0
    gait_duty: float = 0.5084
    gait_offsets: str = "0.0,0.5,0.5,0.0"
    gait_start: float = 0.0

    def grf(self) -> baselines.GrfConfig:
        return baselines.GrfConfig(threshold=self.grf_threshold, cutoff=self.grf_cutoff)

    def schedule(self) -> baselines.GaitSchedule:
        offsets = [float(v) for v in self.gait_offsets.split(",")]
        return baselines.GaitSchedule(
            period=self.gait_period,
            offsets=np.asarray(offsets),
            duty=self.gait_duty,
            start_time=self.gait_start,
        )


@dataclass
class GaitsimConfig:
    gait: str = "trot"
    period: float = 1.0
    duty: float = 0.5084
    step_length: float = 0.5
    step_height: float = 0.10
    body_height: float = 0.28
    speed: float = 0.5
    turn_rate: float = 0.0
    jitter: float = 0.0
    bounce_amp: float = 0.008
    bounce_decay: float = 0.040
    vibration_amp: float = 4e-4
    mass: float = 9.0
    encoder_rate: float = 500.0
    imu_rate: float = 1000.0
    noise_encoder: float = 0.0015
    noise_joint_rate: float = 0.02
    noise_gyro: float = 0.02
    noise_accel: float = 0.1
    noise_torque: float = 1.5
    duration: float = 20.0

    def spec(self, seed=0) -> gaitsim.GaitSpec:
        return gaitsim.GaitSpec(
            gait=self.gait,
            period=self.period,
            duty=self.duty,
            step_length=self.step_length,
            step_height=self.step_height,
            body_height=self.body_height,
            speed=self.speed,
            turn_rate=self.turn_rate,
            jitter=self.jitter,
            bounce_amplitude=self.bounce_amp,
            bounce_decay=self.bounce_decay,
            vibration_amplitude=self.vibration_amp,
            mass=self.mass,
            encoder_rate=self.encoder_rate,
            imu_rate=self.imu_rate,
            noise=gaitsim.SensorNoise(
                encoder=self.noise_encoder,
                joint_rate=self.noise_joint_rate,
                gyro=self.noise_gyro,
                accel=self.noise_accel,
                torque=self.noise_torque,
            ),
            seed=seed,
        )


@dataclass
class EvalConfig:
    assoc_tol: float = 0.002


@dataclass
class ToolkitConfig:
    kinematics: KinematicsConfig = field(default_factory=KinematicsConfig)
    inekf: InekfConfig = field(default_factory=InekfConfig)
    contactnet: ContactnetConfig = field(default_factory=ContactnetConfig)
    labelgen: LabelgenConfig = field(default_factory=LabelgenConfig)
    baselines: BaselinesConfig = field(default_factory=BaselinesConfig)
    gaitsim: GaitsimConfig = field(default_factory=GaitsimConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)


def _coerce(raw: str, target_type, where: str):
    try:
        if target_type is float:
            return float(raw)
        if target_type is int:
            return int(raw)
        return raw
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {target_type.__name__}") from None


def parse_config(path) -> ToolkitConfig:
    cfg = ToolkitConfig()
    section = None
    section_fields = None
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            where = f"{path}:{lineno}"
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if text.startswith("[") and text.endswith("]"):
                name = text[1:-1].strip()
                if not hasattr(cfg, name):
                    raise ConfigError(f"{where}: unknown section [{name}]")
                section = getattr(cfg, name)
                section_fields = {fl.name: fl for fl in fields(section)}
                continue
            if "=" not in text:
                raise ConfigError(f"{where}: expected key=value, got {text!r}")
            if section is None:
                raise ConfigError(f"{where}: key outside any [section]")
            key, _, raw = text.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in section_fields:
                raise ConfigError(f"{where}: unknown key {key!r}")
            setattr(section, key, _coerce(raw, type(getattr(section, key)), where))
    return cfg


def load_config(path=None) -> ToolkitConfig:
    if path is None:
        return ToolkitConfig()
    return parse_config(path)
