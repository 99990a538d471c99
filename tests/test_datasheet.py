import json
from pathlib import Path

import pytest

from vsensor import datasheet, devkit
from vsensor.datasheet import (
    SECTIONS,
    Datasheet,
    DatasheetError,
    Finding,
    Violation,
    attach_performance,
    canonical_json,
    cross_check,
    datasheet_for_device,
    parse,
    render,
    validate,
)
from vsensor.devkit import declared_channels, exposure_channels, power_on
from vsensor.scenario import KINDS
from vsensor.sensors import gaze_detector, person_detector, text_reader, voice_sensor_pin
from vsensor.stimuli.scene import SceneParams, render_scene
from vsensor.vbus import Bus, ExposureRecord

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load(name: str) -> Datasheet:
    parsed = parse((FIXTURES / name).read_text())
    assert isinstance(parsed, Datasheet)
    return parsed


class TestParse:
    def test_fixture_has_ten_sections(self):
        ds = load("person.mlsd.json")
        assert all(name in ds.doc for name in SECTIONS)
        assert len(SECTIONS) == 10

    def test_duplicate_section_rejected(self):
        text = '{"schema": 1, "compliance": [], "compliance": []}'
        errors = parse(text)
        assert isinstance(errors, list)
        assert "duplicate key" in errors[0].message

    def test_syntax_error_with_position(self):
        errors = parse('{"schema": 1,,}')
        assert isinstance(errors, list)
        assert errors[0].line == 1 and errors[0].column is not None

    def test_non_object_top_level(self):
        assert isinstance(parse("[1, 2]"), list)


class TestValidate:
    def test_complete_fixture_clean(self):
        assert validate(load("person.mlsd.json")) == []

    def test_empty_document_all_sections_missing(self):
        violations = validate(Datasheet({"schema": 1}))
        missing = [v for v in violations if v.code == "MISSING_SECTION"]
        assert len(missing) == 10

    def test_missing_nutrition_fixture(self):
        violations = validate(load("missing_nutrition.mlsd.json"))
        assert [(v.section, v.code) for v in violations] == [
            ("dataset_nutrition", "MISSING_SECTION")
        ]

    def test_network_capability_forbidden(self):
        violations = validate(load("network_wifi.mlsd.json"))
        assert [(v.section, v.code) for v in violations] == [
            ("privacy_security_label", "FORBIDDEN_VALUE")
        ]

    def test_missing_field(self):
        ds = load("person.mlsd.json")
        del ds.doc["form_factor"]["mounting"]
        violations = validate(ds)
        assert [(v.section, v.code) for v in violations] == [
            ("form_factor", "MISSING_FIELD")
        ]

    @pytest.mark.parametrize("schema", [None, 2, "1"])
    def test_schema_1_required(self, schema):
        ds = load("person.mlsd.json")
        del ds.doc["schema"]
        if schema is not None:
            ds.doc["schema"] = schema
        assert [(v.section, v.code, v.message) for v in validate(ds)] == [
            ("schema", "MISSING_FIELD", "schema: 1 field required")]

    def test_violations_sorted(self):
        ds = Datasheet({"schema": 1})
        violations = validate(ds)
        keys = [(v.section, v.code) for v in violations]
        assert keys == sorted(keys)

    def test_duplicate_pin_names_inconsistent(self):
        ds = load("person.mlsd.json")
        ds.doc["comm_spec_pinout"]["pins"].append(
            {"name": "DETECT", "role": "signal_out"}
        )
        assert any(v.code == "INCONSISTENT" for v in validate(ds))

    @pytest.mark.parametrize("section,field,value,message", [
        ("comm_spec_pinout", "pins", [{"name": 5, "role": "power"}],
         "malformed pin entry {'name': 5, 'role': 'power'}"),
        ("comm_spec_pinout", "pins", "VDD,GND,DETECT", "pins must be a list"),
        ("comm_spec_pinout", "timing", {"cadence_ms": 1.5},
         "timing must map names to positive integer milliseconds"),
        ("comm_spec_pinout", "timing", {"cadence_ms": True},
         "timing must map names to positive integer milliseconds"),
        ("comm_spec_pinout", "serial",
         {"address": "0x29", "register_map_len": 8, "packet_spec_id": "bcd-reading-v1"},
         "serial address and register_map_len must be integers"),
        ("comm_spec_pinout", "serial", {"address": 41, "packet_spec_id": "bcd-reading-v1"},
         "serial address and register_map_len must be integers"),
        ("comm_spec_pinout", "serial", {"address": 41, "register_map_len": 8},
         "serial packet_spec_id must be a string"),
        ("compliance", None, ["CE", ""], "compliance must be a list of marks"),
        ("form_factor", None, ["10x10 mm"], "section 'form_factor' must be an object"),
    ], ids=["malformed_pin", "pins_not_list", "timing_not_int", "timing_bool",
            "serial_address_string", "serial_no_register_map_len",
            "serial_no_packet_spec_id", "compliance_not_marks",
            "section_not_object"])
    def test_inconsistent_section(self, section, field, value, message):
        ds = load("person.mlsd.json")
        if field is None:
            ds.doc[section] = value
        else:
            ds.doc[section][field] = value
        assert validate(ds) == [Violation(section, "INCONSISTENT", message)]

    @pytest.mark.parametrize("serial", [
        {"address": 41, "register_map_len": 8},
        {"address": 41, "register_map_len": 8, "packet_spec_id": 5},
        {"address": "0x29", "register_map_len": 8, "packet_spec_id": "bcd-reading-v1"},
    ])
    def test_audit_rejects_the_serial_entries_validate_rejects(self, serial):
        ds = load("person.mlsd.json")
        ds.doc["comm_spec_pinout"]["serial"] = serial
        [violation] = validate(ds)
        with pytest.raises(ValueError, match=f"malformed comm_spec_pinout: {violation.message}"):
            datasheet.interface_from_pinout(ds.doc["comm_spec_pinout"])


class TestRender:
    def test_machine_canonical_and_stable(self):
        ds = load("person.mlsd.json")
        a, b = render(ds, "machine"), render(ds, "machine")
        assert a == b
        assert a.endswith("\n") and "\r" not in a

    def test_machine_round_trip(self):
        ds = load("person.mlsd.json")
        text = render(ds, "machine")
        again = parse(text)
        assert isinstance(again, Datasheet) and again.doc == ds.doc
        assert render(again, "machine") == text

    def test_fixture_is_canonical_on_disk(self):
        raw = (FIXTURES / "person.mlsd.json").read_text()
        assert render(parse(raw), "machine") == raw

    def test_human_mode_has_all_headings(self):
        text = render(load("person.mlsd.json"), "human")
        assert text.count("\n## ") == 10

    def test_invalid_datasheet_rejected(self):
        with pytest.raises(DatasheetError) as e:
            render(load("missing_nutrition.mlsd.json"))
        assert e.value.code == "INVALID_DATASHEET"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown render mode 'bogus'"):
            render(load("person.mlsd.json"), "bogus")


class TestCrossCheck:
    def run_person(self):
        bus = Bus()
        dev = person_detector()
        wiring = {"VDD": "vdd", "GND": "gnd", "DETECT": "p1.DETECT"}
        power_on(dev, bus, wiring)
        frame = render_scene(SceneParams(True, False, 1.0, 800, 4.0, seed=1))
        for k in range(5):
            dev.feed_stimulus(frame, k * 100)
        bus.advance(600)
        return dev, bus, wiring

    def test_honest_fixture_clean(self):
        dev, bus, wiring = self.run_person()
        findings = cross_check(load("person.mlsd.json"), dev, bus.exposure_log, wiring)
        assert findings == []

    def test_pinout_mismatch_fixture(self):
        dev, bus, wiring = self.run_person()
        findings = cross_check(
            load("pinout_mismatch.mlsd.json"), dev, bus.exposure_log, wiring
        )
        assert [f.code for f in findings] == ["PINOUT_MISMATCH"]

    def test_serial_shape_mismatch(self):
        ds = load("person.mlsd.json")
        bus = Bus()
        dev = text_reader()
        power_on(dev, bus, {"VDD": "vdd", "GND": "gnd"})
        findings = cross_check(ds, dev, [], {})
        assert "PINOUT_MISMATCH" in [f.code for f in findings]

    def test_timing_mismatch(self):
        dev, bus, wiring = self.run_person()
        ds = load("person.mlsd.json")
        ds.doc["comm_spec_pinout"]["timing"]["cadence_ms"] = 250
        findings = cross_check(ds, dev, bus.exposure_log, wiring)
        assert [f.code for f in findings] == ["TIMING_MISMATCH"]

    def test_unwired_line_maps_to_pin_by_suffix(self):
        dev = person_detector()
        ds = Datasheet(datasheet_for_device(dev))
        log = [ExposureRecord(100, "PIN", "p1.DETECT", 1)]
        assert cross_check(ds, dev, log, None) == []
        log.append(ExposureRecord(200, "PIN", "x.OTHER", 1))
        exposure = [f for f in cross_check(ds, dev, log, None)
                    if f.code == "UNDECLARED_EXPOSURE"]
        assert len(exposure) == 1
        assert "observed PIN:x.OTHER (first at t=200)" in exposure[0].message

    def test_invalid_datasheet_cannot_be_cross_checked(self):
        dev, bus, wiring = self.run_person()
        with pytest.raises(DatasheetError) as e:
            cross_check(load("missing_nutrition.mlsd.json"), dev, bus.exposure_log, wiring)
        assert e.value.code == "INVALID_DATASHEET"

    def test_kind_and_declared_outputs_compared(self):
        # the PERSON sheet matches a GAZE device pin for pin and in timing;
        # only its kind and the meaning of DETECT tell them apart
        bus = Bus()
        dev = gaze_detector()
        power_on(dev, bus, {"VDD": "vdd", "GND": "gnd", "DETECT": "g.DETECT"})
        findings = cross_check(load("person.mlsd.json"), dev, [], None)
        assert [(f.code, f.message) for f in findings] == [
            ("KIND_MISMATCH", "datasheet sensor_kind PERSON != device sensor_kind GAZE"),
            ("PINOUT_MISMATCH",
             "datasheet declared_outputs DETECT: one bit, high while a person is present "
             "!= device declared_outputs DETECT: one bit, high while someone looks at "
             "the device"),
        ]
        assert cross_check(load("gaze.mlsd.json"), dev, [], None) == []

    def test_wired_run_does_not_suffix_map_other_lines(self):
        # with wiring, only the wired line is DETECT: a record on another
        # "<id>.DETECT" line is undeclared to the audit and to data_exposed
        dev, bus, wiring = self.run_person()
        log = bus.exposure_log + [ExposureRecord(700, "PIN", "x.DETECT", 1)]
        findings = cross_check(load("person.mlsd.json"), dev, log, wiring)
        assert [(f.code, f.message) for f in findings] == [
            ("UNDECLARED_CHANNEL", "pin emission on undeclared line 'x.DETECT' at t=700"),
            ("UNDECLARED_EXPOSURE", "observed PIN:x.DETECT (first at t=700) missing from "
             "privacy_security_label.data_exposed"),
        ]

    def test_serial_records(self):
        bus = Bus()
        dev = text_reader()
        power_on(dev, bus, {"VDD": "vdd", "GND": "gnd"})
        ds = Datasheet(datasheet_for_device(dev))
        log = [ExposureRecord(100, "SERIAL", "0x29", 64)]
        assert cross_check(ds, dev, log, None) == []
        log += [ExposureRecord(200, "SERIAL", "0x29", 72),
                ExposureRecord(300, "SERIAL", "0x55", 8)]
        assert [(f.code, f.message) for f in cross_check(ds, dev, log, None)] == [
            ("OVERSIZED_PAYLOAD", "9-byte payload exceeds register map length 8 at t=200"),
            ("UNDECLARED_CHANNEL", "serial emission at undeclared address 0x55 at t=300"),
            ("UNDECLARED_EXPOSURE", "observed SERIAL:0x55 (first at t=300) missing from "
             "privacy_security_label.data_exposed"),
        ]
        ds.doc["privacy_security_label"]["data_exposed"] = []
        exposure = [f.message for f in cross_check(ds, dev, log[:1], None)]
        assert exposure == ["observed SERIAL:0x29 (first at t=100) missing from "
                            "privacy_security_label.data_exposed"]

    def test_undeclared_exposure(self):
        dev, bus, wiring = self.run_person()
        ds = load("person.mlsd.json")
        ds.doc["privacy_security_label"]["data_exposed"] = []
        findings = cross_check(ds, dev, bus.exposure_log, wiring)
        assert [f.code for f in findings] == ["UNDECLARED_EXPOSURE"]

    def test_log_attributed_once(self, monkeypatch):
        # the audit findings and the data_exposed check read one attribution
        calls = []

        def counted(*args):
            calls.append(args)
            return exposure_channels(*args)

        monkeypatch.setattr(devkit, "exposure_channels", counted)
        monkeypatch.setattr(datasheet, "exposure_channels", counted, raising=False)
        dev, bus, wiring = self.run_person()
        log = bus.exposure_log + [ExposureRecord(700, "PIN", "x.DETECT", 1)]
        assert devkit.audit(log, dev.interface, wiring).channels[-1] is None
        assert len(calls) == 1
        assert len(cross_check(load("person.mlsd.json"), dev, log, wiring)) == 2
        assert len(calls) == 2


class TestAttachPerformance:
    REPORT = {
        "protocol": {"sensor_kind": "PERSON", "seed": 1},
        "cells": [{"distance_m": 1.0, "lux": 800, "tpr": 1.0, "fpr": 0.0}],
        "envelope": {"max_distance_m": 1.0, "min_lux": 800,
                     "tpr_min": 0.9, "fpr_max": 0.05},
        "tool_version": "1.0",
    }

    def test_populates_and_validates(self):
        ds = attach_performance(load("person.mlsd.json"), self.REPORT)
        assert ds.doc["end_to_end_performance"]["envelope"]["max_distance_m"] == 1.0
        assert validate(ds) == []

    def test_kind_mismatch(self):
        bad = json.loads(json.dumps(self.REPORT))
        bad["protocol"]["sensor_kind"] = "TAP"
        with pytest.raises(DatasheetError) as e:
            attach_performance(load("person.mlsd.json"), bad)
        assert e.value.code == "KIND_MISMATCH"

    def test_second_attach_replaces_first(self):
        ds = attach_performance(load("person.mlsd.json"), self.REPORT)
        second = json.loads(json.dumps(self.REPORT))
        second["envelope"]["max_distance_m"] = 2.0
        ds2 = attach_performance(ds, second)
        assert ds2.doc["end_to_end_performance"]["envelope"]["max_distance_m"] == 2.0


def test_gaze_fixture_is_the_default_gaze_sheet():
    text = canonical_json(datasheet_for_device(gaze_detector()))
    assert (FIXTURES / "gaze.mlsd.json").read_text(encoding="utf-8") == text


def test_voice_pin_fixture_is_the_default_voice_pin_sheet():
    text = canonical_json(datasheet_for_device(voice_sensor_pin()))
    assert (FIXTURES / "voice_pin.mlsd.json").read_text(encoding="utf-8") == text


def test_datasheet_for_device_truthful_for_every_kind():
    for factory in KINDS.values():
        dev = factory()
        ds = Datasheet(datasheet_for_device(dev))
        assert validate(ds) == []
        assert cross_check(ds, dev, []) == []
        assert ds.doc["privacy_security_label"]["data_exposed"] == declared_channels(
            dev.interface)
