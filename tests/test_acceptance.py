"""Acceptance gate: the eight release criteria, one pass/fail line each.

Each criterion records a single ``criterion N: PASS|FAIL`` line; the
conftest terminal-summary hook echoes the verdict table at the end of the
`pytest` run.  The whole file is budgeted to finish in well under two
minutes on a laptop.
"""

import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from vsensor.cli import main as cli_main
from vsensor.compose import gated_event, gaze_voice, sr_latch
from vsensor.conformance import TestProtocol, run
from vsensor.datasheet import (
    Datasheet,
    attach_performance,
    canonical_json,
    cross_check,
    datasheet_for_device,
    parse,
    validate,
)
from vsensor.devkit import (
    DeviceKind,
    InterfaceDecl,
    PinRole,
    SensorDevice,
    audit,
    power_on,
)
from vsensor.sensors import (
    NO_READING_SENTINEL,
    decode_reading,
    encode_reading,
    gaze_detector,
    person_detector,
    tap_sensor,
    text_reader,
    voice_sensor_pin,
    voice_sensor_serial,
)
from vsensor.stimuli.audio import detect_keywords, synth_audio, word_signature
from vsensor.stimuli.imu import synth_imu
from vsensor.stimuli.scene import Frame, SceneParams, render_scene
from vsensor.stimuli.sevenseg import (
    SEGMENT_TABLE,
    DisplayLayout,
    DisplayParams,
    Reading,
    decode_display,
    render_display,
    segment_lookup,
)
from vsensor.vbus import HIGH, LOW, Bus, Direction, PinTrace, high_intervals

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


CRITERION_LINES: list[str] = []


@contextmanager
def criterion(n: int, title: str):
    try:
        yield
    except BaseException:
        CRITERION_LINES.append(f"criterion {n}: FAIL — {title}")
        raise
    CRITERION_LINES.append(f"criterion {n}: PASS — {title}")


def wire_pin(device, bus, line="out"):
    pin = device.interface.signal_pins()[0]
    wiring = {"VDD": "vdd", "GND": "gnd", pin: line}
    power_on(device, bus, wiring)
    return wiring


# -- criterion 4/6 share one full conformance run ---------------------------


@pytest.fixture(scope="module")
def full_conformance():
    protocol = TestProtocol.from_doc(
        json.loads((FIXTURES / "person_protocol.json").read_text())
    )
    t0 = time.perf_counter()
    first = run(person_detector, protocol)
    elapsed = time.perf_counter() - t0
    second = run(person_detector, protocol)
    return first, second, elapsed


# -- criterion 1: interface contracts ---------------------------------------


def _tap_scenario(i: int) -> list[int]:
    rng = np.random.default_rng(10_000 + i)
    n_taps = int(rng.integers(0, 4))
    return sorted(int(t) for t in rng.integers(50, 900, size=n_taps))


def test_criterion_1_interface_contracts():
    with criterion(1, "interface contracts (tap width, person latency, voice latch)"):
        # (a) tap: every closed high interval is exactly the 200 ms pulse
        closed_total = 0
        for i in range(1000):
            bus = Bus()
            dev = tap_sensor()
            wire_pin(dev, bus)
            dev.feed_stimulus(synth_imu(_tap_scenario(i), 1200, 0.03, seed=i), 0)
            bus.advance(1500)
            for iv in high_intervals(bus.trace("out"), 1500):
                assert not iv.open_ended
                assert iv.end - iv.start == 200, (i, iv)
                closed_total += 1
        assert closed_total > 500  # the corpus genuinely exercises pulses

        # (b) person: assert/deassert within 200 ms of the second
        # consecutive positive/negative frame
        pos = render_scene(SceneParams(True, False, 1.0, 800, 4.0, seed=3))
        neg = render_scene(SceneParams(False, False, 1.0, 800, 4.0, seed=4))
        bus = Bus()
        dev = person_detector()
        wire_pin(dev, bus)
        frames = [neg] * 5 + [pos] * 15 + [neg] * 10
        for k, frame in enumerate(frames):
            dev.feed_stimulus(frame, k * 100)
        bus.advance(3200)
        trace = bus.trace("out")
        falling = [t for t, lvl in trace.transitions if lvl == LOW]
        (rise,), (fall,) = trace.rising_edges(), falling
        second_pos, second_neg = 600, 2100
        assert second_pos <= rise <= second_pos + 200
        assert second_neg <= fall <= second_neg + 200

        # (c) voice pin: latched semantics on 500 randomized scripts
        # against a tick-by-tick oracle
        vocab = ["on", "off"]
        templates = {w: word_signature(w) for w in vocab}
        for i in range(500):
            rng = np.random.default_rng(20_000 + i)
            times = sorted(int(t) for t in rng.integers(1, 5, size=rng.integers(0, 5)))
            script = []
            t = 100
            for gap in times:
                script.append((vocab[int(rng.integers(0, 2))], t))
                t += 400 * gap
            window = synth_audio(script, vocab, seed=i)
            duration = window.duration_ms + 200

            bus = Bus()
            dev = voice_sensor_pin()
            wire_pin(dev, bus)
            dev.feed_stimulus(window, 0)
            bus.advance(duration)
            trace = bus.trace("out")

            by_time = {}
            for ev in detect_keywords(window, templates):
                by_time[ev.at_ms] = 1 if ev.word == "on" else 0
            level, oracle = 0, []
            for tick in range(duration):
                if tick in by_time:
                    level = by_time[tick]
                oracle.append(level)
            got = [int(trace.level_at(tick)) for tick in range(duration)]
            assert got == oracle, i


# -- criterion 2: BCD protocol ----------------------------------------------


def test_criterion_2_bcd_protocol():
    with criterion(2, "BCD encode/decode identity, register image, sentinel"):
        # exhaustive, <= 2 whole and <= 2 frac digits, both signs
        wholes = [str(n) for n in range(100)]
        one_or_two = [str(d) for d in range(10)] + [
            f"{a}{b}" for a in range(10) for b in range(10)
        ]
        fracs = [""] + [f for f in one_or_two if not f.endswith("0")]
        for negative, whole, frac in itertools.product((False, True), wholes, fracs):
            r = Reading(negative, whole, frac)
            out = decode_reading(encode_reading(r))
            assert (out.negative, out.whole_digits, out.frac_digits) == (
                negative, whole, frac,
            )

        # randomized over 1e5 larger readings
        rng = np.random.default_rng(2)
        digits = list("0123456789")
        for _ in range(100_000):
            whole = "".join(rng.choice(digits, size=rng.integers(1, 8)))
            whole = whole.lstrip("0") or "0"
            frac = "".join(rng.choice(digits, size=rng.integers(0, 9))).rstrip("0")
            r = Reading(bool(rng.integers(0, 2)), whole, frac)
            out = decode_reading(encode_reading(r))
            assert (out.negative, out.whole_digits, out.frac_digits) == (
                r.negative, r.whole_digits, r.frac_digits,
            )

        # text-reader register image for "1234.5"
        bus = Bus()
        dev = text_reader()
        power_on(dev, bus, {"VDD": "vdd", "GND": "gnd"})
        dev.feed_stimulus(render_display(Reading(False, "1234", "5")), 0)
        bus.advance(600)
        payload = bus.i2c_transfer(0x29, Direction.READ, 8).payload
        assert payload.hex() == "0001234c50000000"

        # sentinel round-trips: decodes to None, and a blank display
        # produces it over the wire
        assert decode_reading(NO_READING_SENTINEL) is None
        bus = Bus()
        dev = text_reader()
        power_on(dev, bus, {"VDD": "vdd", "GND": "gnd"})
        dev.feed_stimulus(Frame(np.full((64, 128), 20, dtype=np.uint8)), 0)
        bus.advance(600)
        wire = bus.i2c_transfer(0x29, Direction.READ, 8).payload
        assert wire == NO_READING_SENTINEL and decode_reading(wire) is None


# -- criterion 3: seven-segment ---------------------------------------------


def test_criterion_3_seven_segment():
    with criterion(3, "seven-segment render/decode round-trip and segment table"):
        rng = np.random.default_rng(3)
        digits = list("0123456789")
        layout_for = {
            rot: DisplayLayout(rotation=rot, frame_width=140, frame_height=140)
            for rot in (0, 90, 180, 270)
        }
        for i in range(100):
            whole = "".join(rng.choice(digits, size=rng.integers(1, 8)))
            whole = whole.lstrip("0") or "0"
            frac = "".join(rng.choice(digits, size=rng.integers(0, 9)))
            r = Reading(bool(rng.integers(0, 2)), whole, frac)
            for rot, layout in layout_for.items():
                decoded = decode_display(
                    render_display(r, layout, DisplayParams(seed=i))
                )
                assert decoded is not None and str(decoded) == str(r), (str(r), rot)

        expected = {
            "0": "abcdef", "1": "bc", "2": "abdeg", "3": "abcdg", "4": "bcfg",
            "5": "acdfg", "6": "acdefg", "7": "abc", "8": "abcdefg", "9": "abcdfg",
        }
        for digit, segs in expected.items():
            assert SEGMENT_TABLE[digit] == frozenset(segs)
            assert segment_lookup(set(segs)) == digit


# -- criterion 4: conformance reproducibility + monotonicity ------------------


def test_criterion_4_conformance(full_conformance):
    with criterion(4, "conformance: < 60 s, byte-identical, calibrated, monotone"):
        first, second, elapsed = full_conformance
        assert elapsed < 60.0, f"grid run took {elapsed:.1f} s"
        assert first.to_json().encode() == second.to_json().encode()

        cells = {(c.distance_m, c.lux): c for c in first.cells}
        nominal = cells[1.0, 800]
        assert nominal.tpr == 1.0 and nominal.fpr == 0.0

        for lux in first.protocol.lux_levels:
            tprs = [cells[d, lux].tpr for d in first.protocol.distance_levels_m]
            assert all(a >= b for a, b in zip(tprs, tprs[1:])), (lux, tprs)


# -- criterion 5: isolation / audit ------------------------------------------


class _ExfilDevice(SensorDevice):
    """Adversarial test device: tries to push bytes to an undeclared address."""

    kind = DeviceKind.TAP

    def __init__(self):
        interface = InterfaceDecl(
            pins=[("VDD", PinRole.POWER), ("GND", PinRole.GROUND),
                  ("TAP", PinRole.SIGNAL_OUT)],
            serial=None,
            declared_outputs="TAP pulses (claimed)",
        )
        super().__init__(interface, 10)
        self._sent = False

    def _configure(self, payload):
        pass

    def _step(self, t, port):
        if not self._sent:
            port._bus.i2c_transfer(0x55, Direction.WRITE, b"covert")
            self._sent = True


def _exercise(kind: str):
    """One representative full run per shipped kind; returns (bus, dev, wiring)."""
    bus = Bus()
    if kind in ("PERSON", "GAZE"):
        dev = person_detector() if kind == "PERSON" else gaze_detector()
        wiring = wire_pin(dev, bus, f"{kind.lower()}.DETECT")
        frame = render_scene(SceneParams(True, kind == "GAZE", 1.0, 800, 4.0, seed=5))
        for k in range(8):
            dev.feed_stimulus(frame, k * 100)
        bus.advance(1000)
    elif kind == "TAP":
        dev = tap_sensor()
        wiring = wire_pin(dev, bus, "tap.TAP")
        dev.feed_stimulus(synth_imu([300], 1500, 0.03, seed=6), 0)
        bus.advance(1500)
    elif kind == "VOICE_PIN":
        dev = voice_sensor_pin()
        wiring = wire_pin(dev, bus, "voice.STATE")
        dev.feed_stimulus(synth_audio([("on", 200)], ["on", "off"], seed=7), 0)
        bus.advance(1000)
    elif kind == "VOICE_SERIAL":
        dev = voice_sensor_serial(["go", "stop"])
        wiring = {"VDD": "vdd", "GND": "gnd"}
        power_on(dev, bus, wiring)
        dev.feed_stimulus(synth_audio([("go", 200)], ["go", "stop"], seed=8), 0)
        bus.advance(1000)
        bus.i2c_transfer(dev.interface.serial.address, Direction.READ, 2)
    else:  # TEXT_READER
        dev = text_reader()
        wiring = {"VDD": "vdd", "GND": "gnd"}
        power_on(dev, bus, wiring)
        dev.feed_stimulus(render_display(Reading(False, "42", "")), 0)
        bus.advance(600)
        bus.i2c_transfer(0x29, Direction.READ, 8)
    return bus, dev, wiring


def test_criterion_5_isolation_audit(tmp_path):
    with criterion(5, "isolation: only declared channels; exfil caught, exit 1"):
        kinds = ("PERSON", "GAZE", "TAP", "VOICE_PIN", "VOICE_SERIAL", "TEXT_READER")
        for kind in kinds:
            bus, dev, wiring = _exercise(kind)
            assert bus.exposure_log, kind  # the run emitted something to audit
            verdict = audit(bus.exposure_log, dev.interface, wiring)
            assert verdict.passed, (kind, verdict.findings)

        # adversarial device: undeclared serial write must fail the audit
        bus = Bus()
        dev = _ExfilDevice()
        power_on(dev, bus, {"VDD": "vdd", "GND": "gnd", "TAP": "tap.TAP"})
        bus.advance(100)
        verdict = audit(bus.exposure_log, dev.interface)
        assert not verdict.passed
        assert verdict.findings[0].code == "UNDECLARED_CHANNEL"

        # ... and through the CLI, against the device's own honest datasheet
        log = tmp_path / "exposure.csv"
        log.write_text(bus.exposure_csv())
        sheet = tmp_path / "tap.mlsd.json"
        sheet.write_text(canonical_json(datasheet_for_device(tap_sensor())))
        assert cli_main(["audit", str(log), str(sheet), "--quiet"]) == 1


# -- criterion 6: datasheet toolchain -----------------------------------------


def test_criterion_6_datasheet_toolchain(full_conformance):
    with criterion(6, "datasheet round-trip, broken fixtures, attach_performance"):
        # parse/render canonical round-trip on every fixture datasheet
        for path in sorted(FIXTURES.glob("*.mlsd.json")):
            raw = path.read_text()
            ds = parse(raw)
            assert isinstance(ds, Datasheet), path.name
            assert canonical_json(ds.doc) == raw, path.name
            again = parse(canonical_json(ds.doc))
            assert again.doc == ds.doc

        def load(name):
            return parse((FIXTURES / name).read_text())

        assert validate(load("person.mlsd.json")) == []
        assert [(v.section, v.code) for v in validate(load("missing_nutrition.mlsd.json"))] \
            == [("dataset_nutrition", "MISSING_SECTION")]
        assert [(v.section, v.code) for v in validate(load("network_wifi.mlsd.json"))] \
            == [("privacy_security_label", "FORBIDDEN_VALUE")]

        # pinout mismatch: structurally valid, contradicted by the device
        mismatched = load("pinout_mismatch.mlsd.json")
        bus = Bus()
        dev = person_detector()
        wiring = wire_pin(dev, bus, "p1.DETECT")
        frame = render_scene(SceneParams(True, False, 1.0, 800, 4.0, seed=9))
        for k in range(5):
            dev.feed_stimulus(frame, k * 100)
        bus.advance(600)
        findings = cross_check(mismatched, dev, bus.exposure_log, wiring)
        assert [f.code for f in findings] == ["PINOUT_MISMATCH"]
        assert cross_check(load("person.mlsd.json"), dev, bus.exposure_log, wiring) == []

        # criterion 4's report populates the end-to-end section
        report, _, _ = full_conformance
        stamped = attach_performance(load("person.mlsd.json"), report.to_doc())
        perf = stamped.doc["end_to_end_performance"]
        assert perf["envelope"]["max_distance_m"] >= 1.0
        assert len(perf["report"]["cells"]) == 12
        assert validate(stamped) == []


# -- criterion 7: composition --------------------------------------------------


def _run_gaze_voice(facing: bool):
    bus = Bus()
    gaze, voice = gaze_detector(), voice_sensor_pin()
    power_on(gaze, bus, {"VDD": "vdd", "GND": "gnd", "DETECT": "g.DETECT"})
    power_on(voice, bus, {"VDD": "vdd", "GND": "gnd", "STATE": "v.STATE"})
    bus.add_virtual_line("LIGHT_ON", lambda b: gaze_voice(b.trace("g.DETECT"), b.trace("v.STATE")))
    frame = render_scene(SceneParams(True, facing, 1.0, 800, 4.0, seed=13))
    for k in range(30):
        gaze.feed_stimulus(frame, k * 100)
    voice.feed_stimulus(
        synth_audio([("on", 1000), ("off", 2200)], ["on", "off"], seed=14), 0
    )
    bus.advance(3000)
    return high_intervals(bus.virtual_trace("LIGHT_ON"), 3000)


def _rand_trace(rng, lid, dur):
    trace = PinTrace(lid, HIGH if rng.random() < 0.3 else 0)
    level, t = trace.initial_level, 0
    while True:
        t += 1 + int(rng.geometric(0.01))
        if t >= dur:
            return trace
        level = HIGH if level == 0 else 0
        trace.append(t, level)


def test_criterion_7_composition():
    with criterion(7, "gaze-gated voice demo + combinators vs brute-force oracle"):
        lit = _run_gaze_voice(facing=True)
        assert len(lit) == 1
        assert abs(lit[0].start - 1000) <= 100 and abs(lit[0].end - 2200) <= 100
        assert _run_gaze_voice(facing=False) == []

        dur = 1200
        rng = np.random.default_rng(77)
        for _ in range(500):
            ev, gate = _rand_trace(rng, "e", dur), _rand_trace(rng, "g", dur)
            w = int(rng.integers(0, 400))

            gate_dense = [int(gate.level_at(t)) for t in range(dur)]
            pulses = [0] * dur
            for t in ev.rising_edges():
                if t < dur and any(gate_dense[max(0, t - w): t + 1]):
                    pulses[t] = 1
            got = gated_event(ev, gate, w)
            assert [int(got.level_at(t)) for t in range(dur)] == pulses

            sets, resets = set(ev.rising_edges()), set(gate.rising_edges())
            latch, level = [], 0
            for t in range(dur):
                if t in resets:
                    level = 0
                elif t in sets:
                    level = 1
                latch.append(level)
            got = sr_latch(ev, gate)
            assert [int(got.level_at(t)) for t in range(dur)] == latch


# -- criterion 8: determinism ---------------------------------------------------


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "golden-file simulate runs + trial-order invariance"):
        for scenario in ("person_scenario.json", "gaze_voice_scenario.json"):
            outs = []
            for tag in ("a", "b"):
                out = tmp_path / scenario / tag
                code = cli_main([
                    "simulate", str(FIXTURES / scenario), "--out", str(out), "--quiet",
                ])
                assert code == 0
                outs.append(out)
            for name in ("trace.csv", "i2c.csv", "exposure.csv"):
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

        protocol = TestProtocol(
            DeviceKind.PERSON, [1.0, 2.0], [800],
            trials_per_cell=10, negative_window_ms=2000, seed=3,
        )
        baseline = run(person_detector, protocol)
        pairs = [(ci, ti) for ci in range(2) for ti in range(10)]
        for perm_seed in (1, 2):
            shuffled = list(pairs)
            np.random.default_rng(perm_seed).shuffle(shuffled)
            permuted = run(
                person_detector, protocol,
                execution_order=[tuple(p) for p in shuffled],
            )
            assert permuted.to_json().encode() == baseline.to_json().encode()
