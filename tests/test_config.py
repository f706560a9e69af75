from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from proprio import contactnet, dataio, gaitsim, inekf, kinematics
from proprio.baselines import GrfConfig
from proprio.cli import main
from proprio.config import ConfigError, ToolkitConfig, load_config, parse_config
from proprio.gaitsim import GaitSpec
from proprio.labelgen import LabelGenConfig


def test_empty_config_is_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    cfg = parse_config(path)
    assert cfg.kinematics.l1 == 0.209
    assert cfg.contactnet.batch_size == 30
    assert cfg.contactnet.learning_rate == 1e-4
    assert cfg.contactnet.epochs == 30


def test_missing_path_gives_defaults():
    cfg = load_config(None)
    assert isinstance(cfg, ToolkitConfig)


def test_overrides(tmp_path):
    path = tmp_path / "t.cfg"
    path.write_text(
        """
# comment line
[kinematics]
l1 = 0.25  # thigh
[contactnet]
batch_size = 12
preset = 1block
[gaitsim]
speed = 0.8
"""
    )
    cfg = parse_config(path)
    assert cfg.kinematics.l1 == 0.25
    assert cfg.contactnet.batch_size == 12
    assert cfg.contactnet.preset == "1block"
    assert cfg.gaitsim.speed == 0.8


def test_unknown_key_reports_location(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[kinematics]\nl9 = 3\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:2"):
        parse_config(path)


def test_class_count_follows_the_leg_table(tmp_path):
    assert ToolkitConfig().contactnet.classes == 1 << len(kinematics.LEG_NAMES) == 16
    path = tmp_path / "classes.cfg"
    path.write_text("[contactnet]\nclasses = 16\n")
    with pytest.raises(ConfigError, match=r"classes\.cfg:2: unknown key 'classes'"):
        parse_config(path)


def test_unknown_section(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[magic]\n")
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(path)


def test_key_outside_section(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("l1 = 3\n")
    with pytest.raises(ConfigError, match="outside"):
        parse_config(path)


def test_bad_value_type(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[kinematics]\nl1 = soft\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config(path)


def test_derived_objects(tmp_path):
    path = tmp_path / "t.cfg"
    path.write_text("[inekf]\ngyro_std = 0.5\n[baselines]\ngait_duty = 0.4\n")
    cfg = parse_config(path)
    noise = cfg.inekf.noise()
    assert noise.gyro_cov == 0.25  # one variance, the std squared
    sched = cfg.baselines.schedule()
    assert sched.duty == 0.4
    assert cfg.kinematics.legs().hip.shape == (4, 3)


def test_defaults_are_the_library_defaults():
    cfg = ToolkitConfig()
    assert cfg.gaitsim.spec() == GaitSpec()
    assert cfg.labelgen.to_labelgen() == LabelGenConfig()
    assert cfg.baselines.grf() == GrfConfig()
    noise, ref = cfg.inekf.noise(), inekf.NoiseParams()
    for name in ("gyro_cov", "accel_cov", "contact_cov", "encoder_cov", "gravity"):
        np.testing.assert_allclose(getattr(noise, name), getattr(ref, name), rtol=1e-15, atol=0.0)
    assert noise.new_contact_prior == ref.new_contact_prior
    init = inekf.make_initial_state(cov_diag=cfg.inekf.init_cov)
    np.testing.assert_array_equal(init.cov, inekf.make_initial_state().cov)
    sched = cfg.baselines.schedule()  # the simulated trot
    assert (sched.period, sched.duty, sched.start_time) == (GaitSpec.period, GaitSpec.duty, 0.0)
    np.testing.assert_array_equal(sched.offsets, [gaitsim.TROT_OFFSETS[leg] for leg in kinematics.LEG_NAMES])
    got, want = cfg.kinematics.legs(), kinematics.default_legs()
    for f in fields(kinematics.LegGeometry):
        np.testing.assert_array_equal(getattr(got, f.name), getattr(want, f.name))
    cn = cfg.contactnet
    assert contactnet.TrainConfig(cn.batch_size, cn.learning_rate, cn.epochs) == contactnet.TrainConfig()
    assert contactnet.preset(cn.preset, cn.window, n_classes=cn.classes, dropout=cn.dropout) == contactnet.preset()
    # every key keeps its declared type
    for section in fields(cfg):
        for key in fields(getattr(cfg, section.name)):
            assert type(getattr(getattr(cfg, section.name), key.name)).__name__ == key.type, (section.name, key.name)


# Hostile-value sweep: every key of every section, each value through a
# subcommand that reads that key. A non-finite value in a float key must
# exit 2; anything else must exit 0 or 2, never raise.
HOSTILE = ("nan", "inf", "-inf", "-1", "0", "1e20", "1e308")
BIG_INT = str(10**20)  # 1e20 does not parse as an int key
# valid values that never finish, left out of the sweep
NEVER_FINISH = {("contactnet", "epochs", BIG_INT): "trains 10**20 epochs"}


@pytest.fixture(scope="module")
def sweep_data(tmp_path_factory):
    """A 2 s simulated run in .pcds, plus its first 300 IMU frames (with their true
    contact codes) as a dataset and as a contacts CSV."""
    d = tmp_path_factory.mktemp("sweep")
    out = str(d / "data")
    assert main(["--out", out, "sim", "--duration", "2", "--format", "bin"]) == 0
    imu = dataio.read_dataset(f"{out}/imu.pcds")
    short = imu.rows(slice(0, 300))
    dataio.write_dataset(short, f"{out}/short.pcds")
    dataio.write_contacts(f"{out}/contacts.csv", short.t, short.gt)
    return d, out


def _commands(out):
    """Arguments of a subcommand that reads each key, by (section, key), (section, key prefix) or section."""
    sim = ["sim", "--duration", "2", "--format", "bin"]
    train = ["train", "--data", f"{out}/short.pcds"]
    return {
        "kinematics": sim,
        "gaitsim": sim,
        ("gaitsim", "duration"): ["sim", "--format", "bin"],
        "inekf": ["filter", "--data", f"{out}/short.pcds", "--contacts", f"{out}/contacts.csv"],
        "labelgen": ["label", "--data", f"{out}/encoder.pcds"],
        "baselines": ["baseline", "--method", "grf", "--data", f"{out}/encoder.pcds"],
        ("baselines", "gait"): ["baseline", "--method", "gait", "--data", f"{out}/imu.pcds"],
        "contactnet": train + ["--epochs", "1"],
        ("contactnet", "epochs"): train,
        "eval": ["eval", "--traj-est", f"{out}/trajectory_gt.csv", "--traj-gt", f"{out}/trajectory_gt.csv"],
    }


def test_hostile_value_sweep(sweep_data):
    d, out = sweep_data
    commands = _commands(out)
    ok = d / "ok.cfg"
    ok.write_text("[contactnet]\nepochs = 1\n")
    for command in commands.values():  # each runs to the end on sane values
        assert main(["--config", str(ok), "--out", str(d / "run"), *command]) == 0, command
    defaults = ToolkitConfig()
    bad = []
    for section in fields(defaults):
        for key in fields(getattr(defaults, section.name)):
            kind = type(getattr(getattr(defaults, section.name), key.name))
            command = (
                commands.get((section.name, key.name))
                or commands.get((section.name, key.name.split("_")[0]))
                or commands[section.name]
            )
            for value in HOSTILE:
                if kind is int and value == "1e20":
                    value = BIG_INT
                if (section.name, key.name, value) in NEVER_FINISH:
                    continue
                path = d / "hostile.cfg"
                path.write_text(f"[{section.name}]\n{key.name} = {value}\n")
                case = f"[{section.name}] {key.name} = {value}"
                try:
                    code = main(["--config", str(path), "--out", str(d / "run"), *command])
                except Exception as exc:  # noqa: BLE001 (any escape is a failure)
                    bad.append(f"{case}: raised {type(exc).__name__}: {exc}")
                    continue
                nonfinite = kind is float and not np.isfinite(float(value))
                if code != 2 and (nonfinite or code != 0):
                    bad.append(f"{case}: exit {code}")
    assert not bad, "\n".join(bad)


def test_readme_block_lists_every_key_at_its_default(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Configuration\n", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.cfg"
    path.write_text(block)
    assert parse_config(path) == ToolkitConfig()
    keys = {line.split("=", 1)[0].strip() for line in block.splitlines() if "=" in line.split("#", 1)[0]}
    cfg = ToolkitConfig()
    assert keys == {key.name for section in fields(cfg) for key in fields(getattr(cfg, section.name))}


GAIT = ("baselines", "gait")


@pytest.mark.parametrize(
    ("text", "command", "message"),
    [
        ("[gaitsim]\njitter = inf", "gaitsim", "gait jitter must be finite and non-negative, got inf"),
        ("[gaitsim]\njitter = nan", "gaitsim", "gait jitter must be finite and non-negative, got nan"),
        ("[gaitsim]\nbounce_decay = 0", "gaitsim", "bounce_decay must be positive and finite, got 0.0"),
        ("[gaitsim]\nmass = -1", "gaitsim", "mass must be positive and finite, got -1.0"),
        ("[baselines]\ngrf_threshold = nan", "baselines", "force threshold must be finite, got nan"),
        ("[baselines]\ngait_period = nan", GAIT, "gait period must be positive and finite, got nan"),
        ("[baselines]\ngait_period = 0", GAIT, "gait period must be positive and finite, got 0.0"),
        ("[baselines]\ngait_start = inf", GAIT, "gait start time must be finite, got inf"),
        ("[baselines]\ngait_start = -inf", GAIT, "gait start time must be finite, got -inf"),
        ("[baselines]\ngait_offsets = 0", GAIT, "need one phase offset per leg (RF,LF,RH,LH), got [0.0]"),
        ("[eval]\nassoc_tol = nan", "eval", "association tolerance must be finite and non-negative, got nan s"),
        ("[eval]\nassoc_tol = -1", "eval", "association tolerance must be finite and non-negative, got -1.0 s"),
        (f"[contactnet]\nstride = {BIG_INT}", "contactnet", f"window stride {BIG_INT} exceeds the 300 frames"),
        ("[inekf]\ngravity_z = 1e20", "inekf", "gravity norm 1e+20 m/s^2 exceeds the 1000.0 m/s^2 cap"),
        (
            "[contactnet]\nlearning_rate = 1e20\nbatch_size = 5",
            "contactnet",
            "training diverged in epoch 1: loss nan at learning rate 1e+20",
        ),
        # one batch per epoch: the divergence shows only on the stepped weights
        ("[contactnet]\nlearning_rate = 1e20", "contactnet",
         "training diverged in epoch 1: loss nan at learning rate 1e+20"),
        ("[gaitsim]\njitter = 1.5", "gaitsim", "gait jitter must be at most 0.8 of a period, got 1.5"),
        # a std is squared to a variance: a negative one or one whose square overflows is refused
        ("[inekf]\ngyro_std = -1", "inekf",
         "[inekf] gyro_std must be non-negative with a finite square, as gyro_cov must be finite, got -1.0"),
        ("[inekf]\naccel_std = 1e200", "inekf",
         "[inekf] accel_std must be non-negative with a finite square, as accel_cov must be finite, got 1e+200"),
        ("[inekf]\ncontact_std = -1e308", "inekf",
         "[inekf] contact_std must be non-negative with a finite square, as contact_cov must be finite, got -1e+308"),
        ("[inekf]\nencoder_std = inf", "inekf",
         "[inekf] encoder_std must be non-negative with a finite square, as encoder_cov must be finite, got inf"),
        ("[gaitsim]\nduration = 1e308", ("gaitsim", "duration"),
         "duration 1e+308 s at encoder_rate 500.0 Hz is not a finite sample count"),
        ("[gaitsim]\nencoder_rate = 1e308", "gaitsim",
         "duration 2.0 s at encoder_rate 1e+308 Hz is not a finite sample count"),
        ("[gaitsim]\nimu_rate = 1e308", "gaitsim", "duration 2.0 s at imu_rate 1e+308 Hz is not a finite sample count"),
    ],
)
def test_out_of_range_value_exits_2_naming_it(sweep_data, tmp_path, capsys, text, command, message):
    _, out = sweep_data
    commands = _commands(out)
    path = tmp_path / "bad.cfg"
    path.write_text(text + "\n")
    run = tmp_path / "run"
    capsys.readouterr()
    assert main(["--config", str(path), "--out", str(run), *commands[command]]) == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")  # after any numpy warning
    assert not (run / "weights.pcnw").exists()
