"""Machine-readable ML-sensor datasheets.

Carrier is UTF-8 JSON with a fixed ten-section schema (``schema: 1``,
extension ``.mlsd.json``).  Canonical form is sorted keys, two-space
indent, LF line endings, one trailing newline; ``parse`` and
``render(machine)`` are mutually inverse on canonical documents.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .devkit import (CodedError, Finding, InterfaceDecl, PinRole, SensorDevice, SerialDecl,
                     audit, declared_channels)
from .stimuli import is_integer
from .vbus import ExposureRecord

SCHEMA_VERSION = 1

_SECTION_TITLES = {
    "overview": "Overview",
    "compliance": "Compliance",
    "model_characteristics": "Model Characteristics",
    "dataset_nutrition": "Dataset Nutrition",
    "privacy_security_label": "Privacy & Security Label",
    "environmental_impact": "Environmental Impact",
    "end_to_end_performance": "End-to-End Performance",
    "form_factor": "Form Factor",
    "hardware_characteristics": "Hardware Characteristics",
    "comm_spec_pinout": "Communication Spec & Pinout",
}
SECTIONS = tuple(_SECTION_TITLES)

# required fields per section; a value of "unreported" satisfies the
# environmental-impact fields (section must exist, calculator does not)
_REQUIRED_FIELDS = {
    "overview": ("description", "features", "use_cases"),
    "model_characteristics": (
        "sensor_kind",
        "architecture",
        "input_modality",
        "input_shape",
        "train_set_size",
        "test_set_size",
        "open_source",
        "validation_authority",
    ),
    "dataset_nutrition": ("provenance", "licensing", "ethical_review", "known_skews"),
    "privacy_security_label": (
        "data_collected",
        "data_exposed",
        "update_policy",
        "network_capability",
    ),
    "environmental_impact": ("training_footprint", "per_inference_energy"),
    "end_to_end_performance": ("report", "envelope"),
    "form_factor": ("dimensions_mm", "mounting"),
    "hardware_characteristics": (
        "operating_temperature_c",
        "power_mw",
        "input_voltage_v",
        "esd_rating",
    ),
    "comm_spec_pinout": ("pins", "serial", "timing", "declared_outputs"),
}

class DatasheetError(CodedError):
    """Datasheet misuse."""


@dataclass
class ParseError:
    message: str
    line: int | None = None
    column: int | None = None


@dataclass
class Violation:
    section: str
    code: str  # MISSING_SECTION, MISSING_FIELD, INCONSISTENT, FORBIDDEN_VALUE
    message: str


@dataclass
class Datasheet:
    doc: dict


def canonical_json(doc: dict) -> str:
    """The one canonical serialization used by every file this tool writes."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _reject_duplicates(pairs: list[tuple[str, object]]) -> dict:
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"duplicate key {key!r}")
        out[key] = value
    return out


def parse(document: str) -> Datasheet | list[ParseError]:
    """Parse a datasheet document; returns errors instead of raising."""
    try:
        doc = json.loads(document, object_pairs_hook=_reject_duplicates)
    except json.JSONDecodeError as e:
        return [ParseError(e.msg, e.lineno, e.colno)]
    except ValueError as e:
        return [ParseError(str(e))]
    if not isinstance(doc, dict):
        return [ParseError("top level must be an object", 1, 1)]
    return Datasheet(doc)


def validate(ds: Datasheet) -> list[Violation]:
    """Structural validation; empty list iff the datasheet is valid."""
    v: list[Violation] = []
    doc = ds.doc
    if doc.get("schema") != SCHEMA_VERSION:
        v.append(
            Violation(
                "schema", "MISSING_FIELD", f"schema: {SCHEMA_VERSION} field required"
            )
        )
    for name in SECTIONS:
        if name not in doc:
            v.append(Violation(name, "MISSING_SECTION", f"section {name!r} absent"))
            continue
        section = doc[name]
        if name == "compliance":
            if not isinstance(section, list) or not all(
                isinstance(m, str) and m for m in section
            ):
                v.append(
                    Violation(
                        name, "INCONSISTENT", "compliance must be a list of marks"
                    )
                )
            continue
        if not isinstance(section, dict):
            v.append(Violation(name, "INCONSISTENT", f"section {name!r} must be an object"))
            continue
        for field_name in _REQUIRED_FIELDS.get(name, ()):
            if field_name not in section:
                v.append(
                    Violation(
                        name, "MISSING_FIELD", f"{name}.{field_name} is required"
                    )
                )
    psl = doc.get("privacy_security_label")
    if isinstance(psl, dict) and psl.get("network_capability") not in (None, "none"):
        v.append(
            Violation(
                "privacy_security_label",
                "FORBIDDEN_VALUE",
                f"network_capability must be \"none\", got "
                f"{psl.get('network_capability')!r}",
            )
        )
    v.extend(_check_pinout_consistency(doc.get("comm_spec_pinout")))
    v.sort(key=lambda x: (x.section, x.code, x.message))
    return v


def _check_pinout_consistency(pinout: object) -> list[Violation]:
    if not isinstance(pinout, dict):
        return []
    v: list[Violation] = []
    pins = pinout.get("pins")
    if isinstance(pins, list):
        names = []
        for pin in pins:
            if (
                not isinstance(pin, dict)
                or not isinstance(pin.get("name"), str)
                or pin.get("role") not in [r.value for r in PinRole]
            ):
                v.append(
                    Violation(
                        "comm_spec_pinout",
                        "INCONSISTENT",
                        f"malformed pin entry {pin!r}",
                    )
                )
                continue
            names.append(pin["name"])
        if len(names) != len(set(names)):
            v.append(
                Violation("comm_spec_pinout", "INCONSISTENT", "duplicate pin names")
            )
    elif pins is not None:
        v.append(Violation("comm_spec_pinout", "INCONSISTENT", "pins must be a list"))
    serial = pinout.get("serial")
    if serial is not None and not (isinstance(serial, dict) and all(
            is_integer(serial.get(k)) for k in ("address", "register_map_len"))):
        v.append(Violation("comm_spec_pinout", "INCONSISTENT",
                           "serial address and register_map_len must be integers"))
    elif serial is not None and not isinstance(serial.get("packet_spec_id"), str):
        v.append(Violation("comm_spec_pinout", "INCONSISTENT",
                           "serial packet_spec_id must be a string"))
    timing = pinout.get("timing")
    if timing is not None and (
        not isinstance(timing, dict)
        or not all(is_integer(x) and x >= 1 for x in timing.values())
    ):
        v.append(
            Violation(
                "comm_spec_pinout",
                "INCONSISTENT",
                "timing must map names to positive integer milliseconds",
            )
        )
    return v


def render(ds: Datasheet, mode: str = "machine") -> str:
    """Render a valid datasheet; machine mode is byte-stable canonical form."""
    violations = validate(ds)
    if violations:
        raise DatasheetError(
            "INVALID_DATASHEET",
            f"{len(violations)} violation(s), first: {violations[0].message}",
        )
    if mode == "machine":
        return canonical_json(ds.doc)
    if mode != "human":
        raise ValueError(f"unknown render mode {mode!r}")
    return _render_human(ds)


def _human_value(value: object, indent: int = 0) -> list[str]:
    pad = "  " * indent
    if isinstance(value, dict):
        out = []
        for key in value:
            sub = _human_value(value[key], indent + 1)
            if len(sub) == 1 and not sub[0].startswith("  " * (indent + 1) + "-"):
                out.append(f"{pad}- {key}: {sub[0].strip()}")
            else:
                out.append(f"{pad}- {key}:")
                out.extend(sub)
        return out
    if isinstance(value, list):
        return [f"{pad}- {json.dumps(item, ensure_ascii=False)}" for item in value]
    return [f"{pad}{json.dumps(value, ensure_ascii=False)}"]


def _render_human(ds: Datasheet) -> str:
    title = ds.doc["overview"].get("description", "ML sensor")
    lines = [f"# ML Sensor Datasheet — {title}", ""]
    for name in SECTIONS:
        lines.append(f"## {_SECTION_TITLES[name]}")
        lines.extend(_human_value(ds.doc[name]))
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


# -- live cross-check --------------------------------------------------------


def _interface_doc(interface: InterfaceDecl, timing: dict[str, int]) -> dict:
    """The comm_spec_pinout section a truthful datasheet must carry."""
    serial = interface.serial
    return {
        "pins": [{"name": n, "role": r.value} for n, r in interface.pins],
        "serial": asdict(serial) if serial is not None else None,
        "timing": dict(timing),
        "declared_outputs": interface.declared_outputs,
    }


def interface_from_pinout(pinout: object) -> InterfaceDecl:
    """Inverse of ``_interface_doc``; ValueError if absent or malformed."""
    if not isinstance(pinout, dict):
        raise ValueError("datasheet has no comm_spec_pinout section")
    try:
        pins = [(p["name"], PinRole(p["role"])) for p in pinout["pins"]]
        bad = _check_pinout_consistency(pinout)
        if bad:
            raise ValueError(bad[0].message)
        serial = pinout.get("serial")
        decl = SerialDecl(
            serial["address"], serial["register_map_len"], serial["packet_spec_id"]
        ) if serial else None
        return InterfaceDecl(pins, decl, pinout.get("declared_outputs", "-"))
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"malformed comm_spec_pinout: {e}") from e


def cross_check(
    ds: Datasheet,
    device: SensorDevice,
    run_log: list[ExposureRecord],
    wiring: dict[str, str] | None = None,
) -> list[Finding]:
    """Compare a datasheet against a live device and its exposure log."""
    violations = validate(ds)
    if violations:
        raise DatasheetError(
            "INVALID_DATASHEET", f"cannot cross-check: {violations[0].message}"
        )
    findings: list[Finding] = []
    interface = device.interface
    pinout = ds.doc["comm_spec_pinout"]
    truth = _interface_doc(interface, device.timing())

    def pins(doc: dict) -> list[tuple[str, str]]:
        return [(p["name"], p["role"]) for p in doc.get("pins", [])]

    kind = ds.doc["model_characteristics"]["sensor_kind"]
    for key, code, declared, actual in (
        ("sensor_kind", "KIND_MISMATCH", kind, device.kind.name),
        ("pins", "PINOUT_MISMATCH", pins(pinout), pins(truth)),
        ("serial", "PINOUT_MISMATCH", pinout.get("serial"), truth["serial"]),
        ("declared_outputs", "PINOUT_MISMATCH", pinout.get("declared_outputs"),
         truth["declared_outputs"]),
        ("timing", "TIMING_MISMATCH", pinout.get("timing", {}), truth["timing"]),
    ):
        if declared != actual:
            findings.append(
                Finding(code, f"datasheet {key} {declared} != device {key} {actual}")
            )
    verdict = audit(run_log, interface, wiring)
    findings.extend(verdict.findings)
    findings.extend(_exposure_findings(ds, run_log, verdict.channels))
    return findings


def _exposure_findings(ds: Datasheet, run_log: list[ExposureRecord],
                       channels: list[str | None]) -> list[Finding]:
    """Observed channels (one per record) absent from the privacy label's
    data_exposed list; one outside every declared channel is ``<channel>:<detail>``."""
    declared = set(ds.doc["privacy_security_label"].get("data_exposed", []))
    observed: dict[str, int] = {}
    for rec, channel in zip(run_log, channels):
        observed.setdefault(channel or f"{rec.channel}:{rec.detail}", rec.time_ms)
    return [Finding("UNDECLARED_EXPOSURE", f"observed {token} (first at t={at}) missing from "
                    "privacy_security_label.data_exposed")
            for token, at in sorted(observed.items()) if token not in declared]


def attach_performance(ds: Datasheet, report_doc: dict) -> Datasheet:
    """Return a copy with end_to_end_performance filled from a report.

    ``report_doc`` is a conformance report document (``.cfr.json`` form);
    its protocol sensor kind must match model_characteristics.sensor_kind.
    """
    ds_kind = ds.doc.get("model_characteristics", {}).get("sensor_kind")
    report_kind = report_doc.get("protocol", {}).get("sensor_kind")
    if ds_kind != report_kind:
        raise DatasheetError(
            "KIND_MISMATCH",
            f"report kind {report_kind!r} != datasheet kind {ds_kind!r}",
        )
    doc = json.loads(json.dumps(ds.doc))  # deep copy, JSON types only
    doc["end_to_end_performance"] = {
        "report": {
            "cells": report_doc.get("cells"),
            "protocol": report_doc.get("protocol"),
            "tool_version": report_doc.get("tool_version"),
        },
        "envelope": report_doc.get("envelope"),
    }
    return Datasheet(doc)


def datasheet_for_device(device: SensorDevice) -> dict:
    """A minimal truthful document for a device; fixture/test scaffolding."""
    kind = device.kind.name
    return {
        "schema": SCHEMA_VERSION,
        "overview": {
            "description": f"{kind.replace('_', ' ').title()} ML sensor",
            "features": [f"self-contained {kind.lower()} inference"],
            "use_cases": ["embedded sensing"],
        },
        "compliance": ["RoHS"],
        "model_characteristics": {
            "sensor_kind": kind,
            "architecture": "deterministic-template-v1",
            "input_modality": "scene" if kind in ("PERSON", "GAZE", "TEXT_READER")
            else ("imu" if kind == "TAP" else "audio-features"),
            "input_shape": [96, 96] if kind in ("PERSON", "GAZE") else "stream",
            "train_set_size": 0,
            "test_set_size": 0,
            "open_source": True,
            "validation_authority": "self-reported",
        },
        "dataset_nutrition": {
            "provenance": "synthetic, generated from seeded parameters",
            "licensing": "CC0",
            "ethical_review": False,
            "known_skews": ["synthetic distribution only"],
        },
        "privacy_security_label": {
            "data_collected": ["none retained"],
            "data_exposed": declared_channels(device.interface),
            "update_policy": "parameters immutable after power-on",
            "network_capability": "none",
        },
        "environmental_impact": {
            "training_footprint": "unreported",
            "per_inference_energy": "unreported",
        },
        "end_to_end_performance": {"report": "unreported", "envelope": "unreported"},
        "form_factor": {"dimensions_mm": [10, 10, 2], "mounting": "surface"},
        "hardware_characteristics": {
            "operating_temperature_c": [0, 70],
            "power_mw": 50,
            "input_voltage_v": 3.3,
            "esd_rating": "HBM 2kV",
        },
        "comm_spec_pinout": _interface_doc(device.interface, device.timing()),
    }
