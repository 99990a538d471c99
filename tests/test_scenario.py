"""The kind and stimulus tables: their schemas come from the factories and
the stimulus dataclasses, and the README lists every key.  Every stimulus
is checked when fed and synthesized when its device first reads it."""

import json
import re
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from vsensor import sensors, vbus
from vsensor.scenario import _MODALITIES, KINDS, config_defaults, run_scenario
from vsensor.stimuli import audio, imu, scene, sevenseg
from vsensor.stimuli.audio import ScriptWindow, synth_audio
from vsensor.stimuli.imu import TapWindow, synth_imu
from vsensor.stimuli.scene import SceneParams
from vsensor.stimuli.sevenseg import (DisplayFrame, DisplayLayout, DisplayParams, Reading,
                                      render_display)

NESTED = {
    ("scene", "params"): SceneParams,
    ("display", "params"): DisplayParams,
    ("display", "layout"): DisplayLayout,
}


def test_every_nested_key_set_is_named():
    nested = {(m, k) for m, (_, keys) in _MODALITIES.items()
              for k, default in keys.items() if isinstance(default, dict)}
    assert nested == set(NESTED)


@pytest.mark.parametrize("modality,key", list(NESTED), ids=[f"{m}.{k}" for m, k in NESTED])
def test_nested_keys_are_dataclass_fields_minus_seed(modality, key):
    cls = NESTED[modality, key]
    defaults = _MODALITIES[modality][1][key]
    assert set(defaults) == {f.name for f in fields(cls)} - {"seed"}
    for f in fields(cls):
        if f.name in defaults and f.name != "person_present":
            assert defaults[f.name] == f.default, f.name


def test_person_present_defaults_to_false():
    assert _MODALITIES["scene"][1]["params"]["person_present"] is False


def _readme_row(first_cell: str) -> str:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = [ln for ln in readme.splitlines() if ln.startswith(f"| {first_cell} |")]
    assert len(rows) == 1, first_cell
    return rows[0]


@pytest.mark.parametrize("kind", list(KINDS))
def test_readme_lists_every_config_key(kind):
    row = _readme_row(f"`{kind}`")
    assert all(f"`{k}`" in row for k in config_defaults(KINDS[kind])), row


def test_config_keys_are_factory_keywords_and_policy_is_an_object():
    assert list(config_defaults(KINDS["PERSON"])) == ["policy", "threshold", "figure"]
    assert config_defaults(KINDS["GAZE"])["policy"] == {}
    assert all("params" not in config_defaults(f) for f in KINDS.values())


@pytest.mark.parametrize("modality", list(_MODALITIES))
def test_readme_lists_every_stimulus_key(modality):
    row = _readme_row(f"`{modality}`")
    assert all(f"`{k}`" in row for k in _MODALITIES[modality][1]), row


@pytest.mark.parametrize("modality,key", list(NESTED),
                         ids=[cls.__name__ for cls in NESTED.values()])
def test_readme_lists_every_dataclass_key(modality, key):
    row = _readme_row(f"`{NESTED[modality, key].__name__}`")
    assert all(f"`{k}`" in row for k in _MODALITIES[modality][1][key]), row


# -- deferred stimuli ------------------------------------------------------------

# modality -> (generator's module and name, the device-side readers that read it)
SYNTHESIS = {
    "scene": ((scene, "render_scene"), ("person_present", "gaze_present")),
    "display": ((sevenseg, "render_display"), ("decode_display",)),
    "audio": ((audio, "synth_audio"), ("detect_keywords",)),
    "imu": ((imu, "synth_imu"), ("detect_tap",)),
}


def test_a_stimulus_is_synthesized_only_when_its_device_reads_it(monkeypatch):
    doc = json.loads((Path(__file__).resolve().parent.parent / "fixtures" /
                      "all_kinds_scenario.json").read_text())
    # three frames due at one TEXT_READER step, of which it decodes the newest
    doc["devices"].append({"id": "tr2", "kind": "TEXT_READER", "config": {"address": 0x3C},
                           "stimuli": [{"modality": "display", "reading": "1.5", "at": 100,
                                        "count": 3, "every_ms": 1}]})
    calls, at_first_advance = Counter(), []

    def counted(key, fn):
        return lambda *a, **k: calls.update([key]) or fn(*a, **k)

    for modality, ((module, name), readers) in SYNTHESIS.items():
        monkeypatch.setattr(module, name, counted(modality, getattr(module, name)))
        for reader in readers:
            monkeypatch.setattr(sensors, reader,
                                counted(("read", modality), getattr(sensors, reader)))
    advance = vbus.Bus.advance
    monkeypatch.setattr(vbus.Bus, "advance", lambda bus, ms: (
        at_first_advance or at_first_advance.append(Counter(calls)), advance(bus, ms))[1])
    run_scenario(doc)
    fed = Counter(s["modality"] for d in doc["devices"] for s in d["stimuli"]
                  for _ in range(s.get("count", 1)))
    assert at_first_advance == [Counter()]
    for modality in SYNTHESIS:
        assert 0 < calls[modality] == calls["read", modality] <= fed[modality], modality
    # a detector reads a frame only when the pin's next level depends on it
    assert calls["display"] == fed["display"] - 2 and calls["scene"] < fed["scene"]


# (deferred type, its eager generator, arguments both take)
DEFERRED = [
    (TapWindow, synth_imu, ([120, 640], 1000, 0.03, 11)),
    (ScriptWindow, synth_audio, ([["on", 300], ["often", 1180]], ["on", "off"], 5, None, 0.08)),
    (DisplayFrame, render_display, (Reading(True, "12", "05"), DisplayLayout(rotation=90),
                                    DisplayParams(seed=3))),
]


@pytest.mark.parametrize("cls,generator,args", DEFERRED, ids=[d[0].__name__ for d in DEFERRED])
def test_a_deferred_stimulus_is_its_generators_output(cls, generator, args):
    name = {TapWindow: "samples", ScriptWindow: "frames", DisplayFrame: "pixels"}[cls]
    deferred = cls(*args)
    assert name not in vars(deferred)
    expected = getattr(generator(*args), name)
    first, second = getattr(deferred, name), getattr(deferred, name)
    assert first is second and first.dtype == expected.dtype
    assert np.array_equal(first, expected)


# (deferred type, its eager generator, malformed arguments both take)
MALFORMED = [
    (TapWindow, synth_imu, ([1000], 1000, 0.03, 1)),
    (TapWindow, synth_imu, ([10.5], 1000, 0.03, 1)),
    (TapWindow, synth_imu, ([], 5, 0.03, 1)),
    (TapWindow, synth_imu, ([], 1000.0, 0.03, 1)),
    (TapWindow, synth_imu, ([], 1000, -0.0, 1)),
    (TapWindow, synth_imu, ([], 1000, float("nan"), 1)),
    (TapWindow, synth_imu, ([], 1000, "0.1", 1)),
    (TapWindow, synth_imu, ([], 1000, 0.03, -1)),
    (ScriptWindow, synth_audio, ([["up", 0]], ["on"], 1)),
    (ScriptWindow, synth_audio, ([["on", 0, 1]], ["on"], 1)),
    (ScriptWindow, synth_audio, ([["on", -20]], ["on"], 1)),
    (ScriptWindow, synth_audio, ([["on", 20.0]], ["on"], 1)),
    (ScriptWindow, synth_audio, ([], ["on"], 1, -20)),
    (ScriptWindow, synth_audio, ([], ["on"], 1, None, float("inf"))),
    (ScriptWindow, synth_audio, ([], ["on"], 1.5)),
    (ScriptWindow, synth_audio, ([], 5, 1)),
    (DisplayFrame, render_display, (Reading(False, "12345678", ""), DisplayLayout(),
                                    DisplayParams())),
    (DisplayFrame, render_display, (Reading(False, "1", ""), DisplayLayout(x=120),
                                    DisplayParams())),
    (DisplayFrame, render_display, (Reading(False, "1", "5"), DisplayLayout(
        x=0, y=0, frame_width=15, frame_height=15), DisplayParams())),
]


@pytest.mark.parametrize("cls,generator,args", MALFORMED,
                         ids=[f"{m[0].__name__}-{i}" for i, m in enumerate(MALFORMED)])
def test_a_deferred_stimulus_is_checked_as_its_generator_checks(cls, generator, args):
    with pytest.raises((TypeError, ValueError)) as eager:
        generator(*args)
    with pytest.raises(type(eager.value), match=f"^{re.escape(str(eager.value))}$"):
        cls(*args)

