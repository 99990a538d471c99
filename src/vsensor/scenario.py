"""Declarative scenario files: devices, stimuli, composites, serial reads.

A scenario is a JSON document (same carrier and canonical form as
datasheets) describing a full simulation run.  All randomness flows from
the scenario's single ``seed``: per-stimulus seeds are hash-derived from
it plus stable indices, never from the clock or OS entropy.
"""

from __future__ import annotations

import inspect
import struct
from contextlib import contextmanager
from dataclasses import dataclass, fields

from . import compose as compose_mod
from .devkit import DeviceError, SensorDevice, power_on
from .sensors import (
    PersonPinPolicy,
    gaze_detector,
    person_detector,
    tap_sensor,
    text_reader,
    voice_sensor_pin,
    voice_sensor_serial,
)
from .stimuli import derive_seed
from .stimuli.audio import ScriptWindow
from .stimuli.imu import TapWindow
from .stimuli.scene import SceneFrame, SceneParams
from .stimuli.sevenseg import DisplayFrame, DisplayLayout, DisplayParams, Reading
from .vbus import I2C_ADDRESS_MAX, I2C_ADDRESS_MIN, Bus, BusError, Direction


class ScenarioError(Exception):
    """Malformed scenario document."""


@dataclass
class ScenarioResult:
    bus: Bus
    devices: dict[str, SensorDevice]
    wiring: dict[str, dict[str, str]]


def _with_defaults(given: object, defaults: dict, where: str) -> dict:
    """``defaults`` overridden by ``given``, whose keys must all be known."""
    if not isinstance(given, dict):
        raise ScenarioError(f"{where} must be an object")
    unknown = sorted(set(given) - set(defaults))
    if unknown:
        raise ScenarioError(f"unknown {where} key(s) {unknown}")
    return {**defaults, **given}


def _fields(cls, **overrides) -> dict:
    """The fields of ``cls`` but ``seed`` (set per stimulus), with defaults."""
    return {f.name: overrides.get(f.name, f.default) for f in fields(cls) if f.name != "seed"}


# scenario kind -> its factory, whose parameters less ``params`` are the
# kind's config keys with their defaults (see config_defaults)
KINDS = {
    "PERSON": person_detector,
    "GAZE": gaze_detector,
    "TAP": tap_sensor,
    "VOICE_PIN": voice_sensor_pin,
    "VOICE_SERIAL": voice_sensor_serial,
    "TEXT_READER": text_reader,
}


def config_defaults(factory) -> dict:
    """``factory``'s parameters but ``params``, with defaults; ``policy`` is an object."""
    return {name: {} if name == "policy" else p.default
            for name, p in inspect.signature(factory).parameters.items() if name != "params"}


# combinator -> (function, keys naming its input lines, numeric keys with
# their defaults).  gaze_voice's keys name devices, read through the lines
# their DETECT and STATE pins are wired to.
_COMBINATORS = {
    "gaze_voice": (compose_mod.gaze_voice, ("gaze", "voice"),
                   {"window_ms": compose_mod.DEFAULT_GAZE_WINDOW_MS}),
    "gated_event": (compose_mod.gated_event, ("event", "gate"), {"window_ms": 0}),
    "debounce": (compose_mod.debounce, ("line",), {"hold_ms": 0}),
    "pulse_stretch": (compose_mod.pulse_stretch, ("line",), {"ms": 0}),
    "sr_latch": (compose_mod.sr_latch, ("set", "reset"), {}),
    "invert": (compose_mod.invert, ("line",), {}),
}


@contextmanager
def _located(path: str):
    """Report a malformed entry as a ScenarioError that names where it is."""
    try:
        yield
    except (ScenarioError, DeviceError, BusError) as e:
        raise ScenarioError(f"{path}: {e}") from e
    except (KeyError, TypeError, ValueError) as e:
        raise ScenarioError(f"{path}: {type(e).__name__}: {e}") from e
    except struct.error as e:  # a value that does not fit its parameter field
        raise ScenarioError(f"{path}: bad value: {e}") from e


def _entries(doc: dict, key: str) -> list[dict]:
    items = doc.get(key, [])
    if not isinstance(items, list) or not all(isinstance(x, dict) for x in items):
        raise ScenarioError(f"{key} must be a list of objects")
    return items


def _build_device(spec: dict) -> SensorDevice:
    kind = spec["kind"]
    if kind not in KINDS:
        raise ScenarioError(f"unknown device kind {kind!r}")
    factory = KINDS[kind]
    config = _with_defaults(spec["config"], config_defaults(factory), "config")
    if "policy" in config:
        policy = _with_defaults(config["policy"], _fields(PersonPinPolicy), "config.policy")
        config["policy"] = PersonPinPolicy(**policy)
    # a params file replaces the built blob as it is, so an empty file fails BAD_CRC
    params = spec["params"]
    if params is not None:
        if not isinstance(params, str):
            raise ScenarioError(f"params must be a file path, not {params!r}")
        with open(params, "rb") as f:
            config["params"] = f.read()
    return factory(**config)


def _default_wiring(device_id: str, device: SensorDevice) -> dict[str, str]:
    wiring = {}
    signal = set(device.interface.signal_pins())
    for pin in device.interface.pin_names():
        wiring[pin] = f"{device_id}.{pin}" if pin in signal else pin.lower()
    return wiring


def _parse_reading(text: object) -> Reading:
    if not isinstance(text, str):
        raise ScenarioError("display needs a 'reading' string")
    negative = text.startswith("-")
    body = text[1:] if negative else text
    whole, _, frac = body.partition(".")
    return Reading(negative, whole, frac)


def _scene_frames(e: dict, seed: int):
    for k in range(e["count"]):
        frame = SceneFrame(SceneParams(**e["params"], seed=derive_seed(seed, k)))
        yield e["at"] + k * e["every_ms"], frame


def _display_frames(e: dict, seed: int):
    reading = _parse_reading(e["reading"])
    layout = DisplayLayout(**e["layout"])
    for k in range(e["count"]):
        params = DisplayParams(**e["params"], seed=derive_seed(seed, k))
        yield e["at"] + k * e["every_ms"], DisplayFrame(reading, layout, params)


# modality -> (builder of (at, stimulus) pairs from (entry, seed), the
# entry's keys besides modality, at and seed, with defaults).  A dict
# default is a nested object checked key by key; params and layout take
# their dataclass fields.  Each stimulus is checked as it is built and
# synthesized when its device first reads it (SceneFrame and the like).
_MODALITIES = {
    "scene": (_scene_frames,
              {"every_ms": 100, "count": 1,
               "params": _fields(SceneParams, person_present=False)}),
    "imu": (lambda e, seed: [(e["at"], TapWindow(e["taps"], e["duration_ms"],
                                                 e["noise_sigma"], seed))],
            {"taps": [], "duration_ms": 1000, "noise_sigma": 0.03}),
    "audio": (lambda e, seed: [(e["at"], ScriptWindow(e["script"], e["vocabulary"], seed,
                                                      e["duration_ms"], e["noise_sigma"]))],
              {"script": [], "vocabulary": ["on", "off"], "duration_ms": None,
               "noise_sigma": 0.08}),
    "display": (_display_frames,
                {"reading": None, "every_ms": 500, "count": 1, "params": _fields(DisplayParams),
                 "layout": _fields(DisplayLayout)}),
}


def _feed_stimulus(device: SensorDevice, spec: dict, base: int) -> None:
    modality = spec.get("modality")
    if modality not in _MODALITIES:
        raise ScenarioError(f"unknown stimulus modality {modality!r}")
    build, keys = _MODALITIES[modality]
    entry = _with_defaults(spec, {"modality": None, "at": 0, "seed": None, **keys}, modality)
    booleans = [k for k in ("at", "count", "every_ms", "duration_ms") if type(entry.get(k)) is bool]
    if booleans:  # JSON true/false would pass as the integers 1/0
        raise ScenarioError(f"{modality}: {booleans} must be integers, not booleans")
    if "seed" in spec and type(spec["seed"]) is not int:
        raise ScenarioError(f"{modality}: seed must be an integer, not {spec['seed']!r}")
    short = [f"{k} >= {low}" for k, low in (("at", 0), ("count", 1), ("every_ms", 1))
             if k in entry and not (type(entry[k]) is int and entry[k] >= low)]
    if short:
        raise ScenarioError(f"{modality}: needs integers {', '.join(short)}")
    for key, default in keys.items():
        if isinstance(default, dict):
            entry[key] = _with_defaults(entry[key], default, key)
    for at, stimulus in build(entry, base):
        device.feed_stimulus(stimulus, at)


def _register_composites(result: ScenarioResult, specs: list) -> None:
    for i, spec in enumerate(specs):
        with _located(f"composites[{i}]"):
            name = spec.get("combinator")
            if name not in _COMBINATORS:
                raise ScenarioError(f"unknown combinator {name!r}")
            fn, inputs, numeric = _COMBINATORS[name]
            keys = {"combinator": name, "line_id": None, **dict.fromkeys(inputs), **numeric}
            args = _with_defaults(spec, keys, name)
            missing = [k for k in ("line_id", *inputs) if not args[k]]
            if missing:
                raise ScenarioError(f"{name}: missing key(s) {missing}")
            numbers = [args[k] for k in numeric]
            if not all(type(n) is int and n >= 0 for n in numbers):  # rejects JSON booleans
                raise ScenarioError(f"{name}: {list(numeric)} must be integers >= 0")
            sources = [args[k] for k in inputs]
            if name == "gaze_voice":
                pins = [result.devices[s].interface.signal_pins() for s in sources]
                if pins != [["DETECT"], ["STATE"]]:
                    raise ScenarioError("gaze_voice: gaze must be PERSON/GAZE, voice VOICE_PIN")
                sources = [result.wiring[s][p] for s, (p,) in zip(sources, pins)]
            result.bus.add_virtual_line(
                args["line_id"],
                lambda b, fn=fn, sources=sources, numbers=numbers: fn(
                    *map(b.trace, sources), *numbers
                ),
            )


# the keys of a scenario, of each device entry and of each serial read
_SCENARIO_KEYS = {"seed": 0, "duration_ms": 0, "devices": [], "composites": [], "serial_reads": []}
_DEVICE_KEYS = {"id": None, "kind": None, "config": {}, "params": None, "wiring": None,
                "stimuli": []}
_READ_KEYS = {"at", "address", "n"}


def run_scenario(doc: dict) -> ScenarioResult:
    """Build and run a scenario document to completion."""
    if not isinstance(doc, dict):
        raise ScenarioError("a scenario must be an object")
    doc = _with_defaults(doc, _SCENARIO_KEYS, "scenario")
    duration = doc["duration_ms"]
    if type(duration) is not int or duration < 1:  # rejects JSON booleans
        raise ScenarioError("duration_ms must be an integer >= 1")
    seed = doc["seed"]
    if type(seed) is not int:  # rejects JSON booleans
        raise ScenarioError(f"seed must be an integer, not {seed!r}")
    bus = Bus()
    result = ScenarioResult(bus, {}, {})
    for i, spec in enumerate(_entries(doc, "devices")):
        with _located(f"devices[{i}]"):
            spec = _with_defaults(spec, _DEVICE_KEYS, "device")
            device_id = spec["id"]
            if not device_id or device_id in result.devices:
                raise ScenarioError(f"missing or duplicate device id {device_id!r}")
            device = _build_device(spec)
            wiring = spec["wiring"] or _default_wiring(device_id, device)
            power_on(device, bus, wiring)
            stimuli = _entries(spec, "stimuli")
        result.devices[device_id] = device
        result.wiring[device_id] = wiring
        for j, stimulus in enumerate(stimuli):
            with _located(f"devices[{i}].stimuli[{j}]"):
                base = stimulus.get("seed", derive_seed(seed, device_id, j))
                _feed_stimulus(device, stimulus, base)
    _register_composites(result, _entries(doc, "composites"))
    reads = _entries(doc, "serial_reads")
    for i, read in enumerate(reads):
        if not read.keys() <= _READ_KEYS:
            raise ScenarioError(f"serial_reads[{i}]: unknown key(s) "
                                f"{sorted(read.keys() - _READ_KEYS)}")
        at, address, n = read.get("at"), read.get("address"), read.get("n", 1)
        integers = all(type(v) is int for v in (at, address, n))  # rejects JSON booleans
        if not (integers and 0 < at <= duration and n >= 0):
            raise ScenarioError(
                f"serial_reads[{i}]: needs integers at in (0, {duration}], address and n"
            )
        if not I2C_ADDRESS_MIN <= address <= I2C_ADDRESS_MAX:
            raise ScenarioError(f"serial_reads[{i}]: address 0x{address:02x} outside "
                                f"[0x{I2C_ADDRESS_MIN:02x}, 0x{I2C_ADDRESS_MAX:02x}]")
    clock = 0
    for read in sorted(reads, key=lambda r: r["at"]):
        at, address = read["at"], read["address"]
        if at > clock:
            bus.advance(at - clock)
            clock = at
        bus.i2c_transfer(address, Direction.READ, read.get("n", 1))
    if clock < duration:
        bus.advance(duration - clock)
    return result
