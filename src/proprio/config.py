"""Plain-text toolkit configuration.

Grammar: section headers in brackets, one key=value per line, '#' starts a
comment, blank lines ignored. Unknown sections or keys are rejected with
their file location. Every key has a default, so an empty file is valid.

Sections only forward their values to the library objects that use them,
which own every default and range check: a key's default is read from its
library twin, and only values no library object holds (`duration`,
`stride`, the `[inekf]` sigmas) keep their numbers here.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from . import baselines, contactnet, evalkit, gaitsim, inekf, kinematics, labelgen
from .gaitsim import GaitSpec, SensorNoise


class ConfigError(ValueError):
    pass


def _defaults(func) -> dict:
    """Keyword defaults of a library function, which owns those values."""
    return {name: p.default for name, p in inspect.signature(func).parameters.items()}


_LEGS = _defaults(kinematics.default_legs)
_FILTER_NOISE = inekf.NoiseParams()
_NET = _defaults(contactnet.preset)
# [gaitsim] keys whose GaitSpec field has a longer name; `noise_<x>` keys go to SensorNoise.<x>
_SPEC_RENAMES = {"bounce_amp": "bounce_amplitude", "vibration_amp": "vibration_amplitude"}


@dataclass
class KinematicsConfig:
    abd: float = _LEGS["abd"]
    l1: float = _LEGS["l1"]
    l2: float = _LEGS["l2"]
    hip_x: float = _LEGS["hip_x"]
    hip_y: float = _LEGS["hip_y"]

    def legs(self):
        return kinematics.default_legs(**vars(self))


@dataclass
class InekfConfig:
    gyro_std: float = 0.01  # rad/s
    accel_std: float = 0.1  # m/s^2
    contact_std: float = 0.1  # m/s
    encoder_std: float = 0.002  # rad
    gravity_z: float = float(_FILTER_NOISE.gravity[2])
    contact_prior: float = _FILTER_NOISE.new_contact_prior
    init_cov: float = _defaults(inekf.make_initial_state)["cov_diag"]  # right-invariant coordinates

    def noise(self) -> inekf.NoiseParams:
        """NoiseParams with each std squared to a variance v (covariance v I)."""
        covs = {}
        for n in ("gyro", "accel", "contact", "encoder"):
            std = getattr(self, f"{n}_std")
            if not (std >= 0.0 and std * std < np.inf):
                raise ConfigError(
                    f"[inekf] {n}_std must be non-negative with a finite square, as {n}_cov must be finite, got {std}"
                )
            covs[f"{n}_cov"] = std * std
        gravity = np.array([0.0, 0.0, self.gravity_z])
        return inekf.NoiseParams(**covs, gravity=gravity, new_contact_prior=self.contact_prior)


@dataclass
class ContactnetConfig:
    preset: str = _NET["name"]
    window: int = _NET["window"]
    batch_size: int = contactnet.TrainConfig.batch_size
    learning_rate: float = contactnet.TrainConfig.learning_rate
    epochs: int = contactnet.TrainConfig.epochs
    dropout: float = _NET["dropout"]
    stride: int = 4  # window stride when deriving training sets

    @property
    def classes(self) -> int:
        """One class per contact code: a bit for each leg."""
        return 1 << len(kinematics.LEG_NAMES)


@dataclass
class LabelgenConfig:
    gait: str = labelgen.LabelGenConfig.gait
    half_power_freq: float = 0.0  # 0 means: use the per-gait default
    backoff: int = labelgen.LabelGenConfig.single_min_backoff

    def to_labelgen(self) -> labelgen.LabelGenConfig:
        if self.backoff < 0:
            raise ConfigError(f"[labelgen] backoff must be a non-negative number of samples, got {self.backoff}")
        return labelgen.LabelGenConfig(self.gait, self.half_power_freq or None, self.backoff)


@dataclass
class BaselinesConfig:
    grf_threshold: float = baselines.GrfConfig.threshold
    grf_cutoff: float = baselines.GrfConfig.cutoff
    # the schedule detector's default is the simulated trot
    gait_period: float = GaitSpec.period
    gait_duty: float = GaitSpec.duty
    gait_offsets: str = ",".join(str(gaitsim.TROT_OFFSETS[leg]) for leg in kinematics.LEG_NAMES)
    gait_start: float = baselines.GaitSchedule.start_time

    def grf(self) -> baselines.GrfConfig:
        return baselines.GrfConfig(threshold=self.grf_threshold, cutoff=self.grf_cutoff)

    def schedule(self) -> baselines.GaitSchedule:
        offsets = [float(v) for v in self.gait_offsets.split(",")]
        return baselines.GaitSchedule(self.gait_period, offsets, self.gait_duty, self.gait_start)


@dataclass
class GaitsimConfig:
    gait: str = GaitSpec.gait
    period: float = GaitSpec.period
    duty: float = GaitSpec.duty
    step_length: float = GaitSpec.step_length
    step_height: float = GaitSpec.step_height
    body_height: float = GaitSpec.body_height
    speed: float = GaitSpec.speed
    turn_rate: float = GaitSpec.turn_rate
    jitter: float = GaitSpec.jitter
    bounce_amp: float = GaitSpec.bounce_amplitude
    bounce_decay: float = GaitSpec.bounce_decay
    vibration_amp: float = GaitSpec.vibration_amplitude
    mass: float = GaitSpec.mass
    encoder_rate: float = GaitSpec.encoder_rate
    imu_rate: float = GaitSpec.imu_rate
    noise_encoder: float = SensorNoise.encoder
    noise_joint_rate: float = SensorNoise.joint_rate
    noise_gyro: float = SensorNoise.gyro
    noise_accel: float = SensorNoise.accel
    noise_torque: float = SensorNoise.torque
    duration: float = 20.0  # s

    def spec(self, seed=0) -> GaitSpec:
        values = {_SPEC_RENAMES.get(key, key): value for key, value in vars(self).items() if key != "duration"}
        noise = {key[len("noise_") :]: values.pop(key) for key in list(values) if key.startswith("noise_")}
        return GaitSpec(**values, noise=SensorNoise(**noise), seed=seed)


@dataclass
class EvalConfig:
    assoc_tol: float = evalkit.ASSOC_TOL_S


@dataclass
class ToolkitConfig:
    kinematics: KinematicsConfig = field(default_factory=KinematicsConfig)
    inekf: InekfConfig = field(default_factory=InekfConfig)
    contactnet: ContactnetConfig = field(default_factory=ContactnetConfig)
    labelgen: LabelgenConfig = field(default_factory=LabelgenConfig)
    baselines: BaselinesConfig = field(default_factory=BaselinesConfig)
    gaitsim: GaitsimConfig = field(default_factory=GaitsimConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)


def parse_config(path) -> ToolkitConfig:
    cfg = ToolkitConfig()
    section = None
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            where = f"{path}:{lineno}"
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if text.startswith("[") and text.endswith("]"):
                name = text[1:-1].strip()
                if name not in vars(cfg):
                    raise ConfigError(f"{where}: unknown section [{name}]")
                section = getattr(cfg, name)
                continue
            if "=" not in text:
                raise ConfigError(f"{where}: expected key=value, got {text!r}")
            if section is None:
                raise ConfigError(f"{where}: key outside any [section]")
            key, raw = (part.strip() for part in text.split("=", 1))
            if key not in vars(section):
                raise ConfigError(f"{where}: unknown key {key!r}")
            kind = type(getattr(section, key))  # float, int or str
            try:
                setattr(section, key, kind(raw))
            except ValueError:
                raise ConfigError(f"{where}: cannot parse {raw!r} as {kind.__name__}") from None
    return cfg


def load_config(path=None) -> ToolkitConfig:
    return ToolkitConfig() if path is None else parse_config(path)
