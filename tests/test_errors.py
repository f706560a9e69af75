"""The package's exception classes: one hierarchy, and every one maps to a CLI exit code."""

import importlib
import inspect
import pkgutil

import proprio

EXPECTED = {
    "proprio.formats.DataError",
    "proprio.formats.SchemaMismatchError",
    "proprio.formats.ChecksumFailureError",
    "proprio.formats.VersionMismatchError",
    "proprio.formats.EmptyStreamError",
    "proprio.inekf.FrameError",
    "proprio.config.ConfigError",
    "proprio.contactnet.network.ShapeMismatchError",
    "proprio.kinematics.UnreachableTargetError",
    "proprio.cli.UsageError",
}


def defined_exceptions():
    """{qualified name: class} of every exception class defined in a proprio module."""
    found = {}
    for info in pkgutil.walk_packages(proprio.__path__, "proprio."):
        module = importlib.import_module(info.name)
        for name, obj in inspect.getmembers(module, inspect.isclass):
            if issubclass(obj, BaseException) and obj.__module__ == info.name:
                found[f"{info.name}.{name}"] = obj
    return found


def test_exception_classes_are_the_ten_kept():
    assert set(defined_exceptions()) == EXPECTED


def test_every_error_but_usage_is_a_value_error():
    # cli.main turns a ValueError into exit 2 and a UsageError into exit 1
    for name, cls in defined_exceptions().items():
        assert issubclass(cls, ValueError) != (name == "proprio.cli.UsageError"), name
