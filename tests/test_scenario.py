"""The kind and stimulus tables: their schemas come from the factories and
the stimulus dataclasses, and the README lists every key."""

from dataclasses import fields
from pathlib import Path

import pytest

from vsensor.scenario import _MODALITIES, KINDS, config_defaults
from vsensor.stimuli.scene import SceneParams
from vsensor.stimuli.sevenseg import DisplayLayout, DisplayParams

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
