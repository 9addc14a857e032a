"""The frozen value types are NamedTuples, which import without the methods a
dataclass generates. Only the types that need what a tuple cannot give stay
dataclasses."""

import dataclasses
import importlib
import inspect
import pkgutil

import ensim
from ensim import engine
from ensim.attacker import Zone
from ensim.radio import Emission

# each type that needs a dataclass, and why
DATACLASSES = {
    "crypto.TemporaryExposureKey",  # validates itself (__post_init__)
    "crypto.Metadata",  # validates itself (__post_init__)
    "device.DeviceState",  # mutable, with underscore fields
    "engine.ScenarioConfig",  # `doc` is left out of == and hash
    "engine.RunResult",  # mutable
}


def _classes():
    """Every class defined at module level in `ensim`, by "module.Name"."""
    for info in pkgutil.iter_modules(ensim.__path__):
        module = importlib.import_module(f"ensim.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                yield f"{info.name}.{name}", obj


def test_only_the_types_that_need_it_are_dataclasses():
    assert {name for name, cls in _classes() if dataclasses.is_dataclass(cls)} == DATACLASSES


def test_a_zone_is_read_in_its_field_order():
    # the config's [x_min, y_min, x_max, y_max] builds a Zone by position
    zone = engine.ZONE([1, 2, 3, 4], "zone")
    assert type(zone) is Zone
    assert zone == Zone(x_min=1, y_min=2, x_max=3, y_max=4)


def test_emission_is_a_dict_key_by_value():
    payload = bytes(range(31))
    cache = {Emission("a", payload, "aa:aa:aa:aa:aa:aa"): "direct"}
    assert cache[Emission("a", bytes(payload), "aa:aa:aa:aa:aa:aa", False)] == "direct"
    assert Emission("a", payload, "aa:aa:aa:aa:aa:aa", True) not in cache
    assert Emission("a", payload, "aa:aa:aa:aa:aa:ab") not in cache
    assert hash(Emission("b", payload, "m")) == hash(Emission("b", payload, "m"))
    # the power is its node's, not the frame's
    assert Emission._fields == ("node_id", "payload", "mac", "relay")
