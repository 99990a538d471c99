import struct
from contextlib import contextmanager
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsensor import conformance
from vsensor.devkit import DeviceError, DeviceKind, pack_blob, power_on
from vsensor.scenario import KINDS
from vsensor.sensors import (
    PersonDetectorDevice,
    PersonPinPolicy,
    _DetectorPinDevice,
    gaze_detector,
    person_detector,
    tap_sensor,
    text_reader,
    voice_sensor_pin,
    voice_sensor_serial,
)
from vsensor.stimuli.imu import synth_imu
from vsensor.stimuli.audio import synth_audio, word_signature
from vsensor.stimuli.scene import Frame, SceneParams, render_scene
from vsensor.stimuli.sevenseg import Reading, _render_patch, decode_display, render_display
from vsensor.vbus import HIGH, LOW, Bus, Direction, high_intervals

POS = render_scene(SceneParams(True, False, 1.0, 800, 4.0, seed=1))
NEG = render_scene(SceneParams(False, False, 1.0, 800, 4.0, seed=2))
FACING = render_scene(SceneParams(True, True, 1.0, 800, 4.0, seed=3))


def wire(device, bus, out_line):
    pin = device.interface.signal_pins()[0]
    power_on(device, bus, {"VDD": "vdd", "GND": "gnd", pin: out_line})
    return out_line


class TestPersonDetector:
    def run_frames(self, frames, duration=None):
        bus = Bus()
        dev = person_detector()
        wire(dev, bus, "out")
        for k, frame in enumerate(frames):
            dev.feed_stimulus(frame, k * 100)
        duration = duration or (len(frames) + 2) * 100
        bus.advance(duration)
        return high_intervals(bus.trace("out"), duration)

    def test_enter_and_leave(self):
        ivs = self.run_frames([POS] * 20 + [NEG] * 10)
        assert [(i.start, i.end) for i in ivs] == [(200, 2100)]

    def test_single_frame_flicker_suppressed(self):
        ivs = self.run_frames([NEG] * 5 + [POS] + [NEG] * 5)
        assert ivs == []

    def test_empty_room_stays_low(self):
        assert self.run_frames([NEG] * 10) == []

    def test_policy_rise_frames(self):
        bus = Bus()
        dev = person_detector(PersonPinPolicy(rise_frames=3))
        wire(dev, bus, "out")
        for k in range(10):
            dev.feed_stimulus(POS, k * 100)
        bus.advance(1100)
        assert bus.trace("out").rising_edges() == [300]

    def test_wrong_blob_kind(self):
        with pytest.raises(DeviceError) as e:
            person_detector(params=pack_blob(DeviceKind.TAP, struct.pack("<fH", 1.0, 100)))
        assert e.value.code == "KIND_MISMATCH"

    def test_wrong_modality(self):
        dev = person_detector()
        with pytest.raises(DeviceError) as e:
            dev.feed_stimulus(synth_imu([], 100, 0.01, 0), 0)
        assert e.value.code == "MODALITY_MISMATCH"

    def test_interchangeable_interfaces(self):
        a = person_detector()
        b = person_detector(threshold=0.95, figure="rodent")
        assert a.interface == b.interface


# -- frames read only when the pin depends on them ------------------------------


@contextmanager
def counter_debounce():
    """The detectors as two run counters that read every frame, stepped at
    every tick: the oracle whose pin the lazy reads must give."""

    def step(self, t, port):
        due = self._pop_stimuli(t)
        frame = due[-1][1] if due else None
        positive = frame is not None and self._present(frame)
        pos, neg = vars(self).get("_runs", (0, 0))
        self._runs = pos, neg = (pos + 1, 0) if positive else (0, neg + 1)
        if not self._asserted and pos >= self.policy.rise_frames:
            self._asserted = True
            port.drive(self.pin_name, HIGH, t)
        elif self._asserted and neg >= self.policy.fall_frames:
            self._asserted = False
            port.drive(self.pin_name, LOW, t)

    with patch.object(_DetectorPinDevice, "_step", step), \
            patch.object(_DetectorPinDevice, "_idle", lambda self: False):
        yield


def stub_frame(positive: bool) -> Frame:
    frame = Frame(np.zeros((16, 16), np.uint8))
    frame.positive = positive
    return frame


def run_stub_frames(policy, feeds, cuts, duration):
    """DETECT's transitions and the frames read, for (clock, at, positive)
    feeds, each fed once the clock reaches ``clock``."""
    reads = []

    def present(self, frame):
        reads.append(frame)
        return frame.positive

    bus = Bus()
    dev = person_detector(policy)
    wire(dev, bus, "out")
    frames = [(clock, at, stub_frame(positive)) for clock, at, positive in feeds]
    with patch.object(PersonDetectorDevice, "_present", present):
        for point in sorted({0, duration, *cuts, *(clock for clock, _, _ in feeds)}):
            if point > bus.clock:
                bus.advance(point - bus.clock)
            for clock, at, frame in frames:
                if clock == point:
                    dev.feed_stimulus(frame, at)
    return bus.trace("out").transitions, len(reads)


DURATION = 2000
# off-grid times, plus a few that collide with each other and with ticks
_AT = st.one_of(st.integers(0, DURATION), st.sampled_from([0, 100, 105]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rise=st.integers(1, 4), fall=st.integers(1, 4),
       feeds=st.lists(st.tuples(st.sampled_from([0, 0, 300, 1000]), _AT, st.booleans()),
                      max_size=30),
       cuts=st.lists(st.integers(1, DURATION - 1), max_size=5))
def test_lazy_reads_give_the_counter_pin(rise, fall, feeds, cuts):
    policy = PersonPinPolicy(rise_frames=rise, fall_frames=fall)
    transitions, reads = run_stub_frames(policy, feeds, cuts, DURATION)
    with counter_debounce():
        every_frame, oracle_reads = run_stub_frames(policy, feeds, cuts, DURATION)
    assert transitions == every_frame
    assert reads <= oracle_reads


@pytest.mark.parametrize("rise, reads", [(2, 24), (3, 16)])
def test_negative_frames_read(rise, reads):
    # frames at 0, 100, ..., 4900: the one at 0 is superseded at tick 100, so
    # the counters read 49; a negative once read blocks the next rise - 1
    # rise windows too, so about one frame in rise_frames is read
    feeds = [(0, k * 100, False) for k in range(50)]
    policy = PersonPinPolicy(rise_frames=rise)
    assert run_stub_frames(policy, feeds, [], 5000) == ([], reads)
    with counter_debounce():
        assert run_stub_frames(policy, feeds, [], 5000) == ([], 49)


def test_boundary_report_equals_the_counter_report():
    # at sigma 8 the 7 m cell lies on the decision boundary, so its trials
    # see mixed runs of readings, which no perfect fixture grid reaches
    protocol = conformance.TestProtocol(
        DeviceKind.PERSON, [3.0, 7.0], [5.0], trials_per_cell=10,
        negative_window_ms=1000, noise_sigma=8.0, seed=3)
    report = conformance.run(person_detector, protocol)
    assert 0 < next(c.tpr for c in report.cells if (c.distance_m, c.lux) == (7.0, 5.0)) < 1
    with counter_debounce():
        assert conformance.run(person_detector, protocol).to_json() == report.to_json()


class TestGazeDetector:
    def test_facing_asserts_away_does_not(self):
        for frame, expect in ((FACING, True), (POS, False)):
            bus = Bus()
            dev = gaze_detector()
            wire(dev, bus, "out")
            for k in range(10):
                dev.feed_stimulus(frame, k * 100)
            bus.advance(1200)
            assert bool(bus.trace("out").rising_edges()) == expect

    def test_same_pin_names_as_person(self):
        assert gaze_detector().interface.pin_names() == \
            person_detector().interface.pin_names()


class TestTapSensor:
    def test_exact_pulse_width(self):
        bus = Bus()
        dev = tap_sensor()
        wire(dev, bus, "out")
        dev.feed_stimulus(synth_imu([1000], 3000, 0.03, seed=1), 0)
        bus.advance(3000)
        assert [(i.start, i.end) for i in high_intervals(bus.trace("out"), 3000)] \
            == [(1000, 1200)]

    def test_refractory_absorption(self):
        bus = Bus()
        dev = tap_sensor()
        wire(dev, bus, "out")
        dev.feed_stimulus(synth_imu([1000, 1100], 3000, 0.03, seed=2), 0)
        bus.advance(3000)
        assert [(i.start, i.end) for i in high_intervals(bus.trace("out"), 3000)] \
            == [(1000, 1200)]

    def test_custom_pulse_width(self):
        bus = Bus()
        dev = tap_sensor(pulse_ms=50)
        wire(dev, bus, "out")
        dev.feed_stimulus(synth_imu([500], 2000, 0.03, seed=3), 0)
        bus.advance(2000)
        ivs = high_intervals(bus.trace("out"), 2000)
        assert len(ivs) == 1 and ivs[0].end - ivs[0].start == 50

    def test_no_taps_no_intervals(self):
        bus = Bus()
        dev = tap_sensor()
        wire(dev, bus, "out")
        dev.feed_stimulus(synth_imu([], 2000, 0.03, seed=4), 0)
        bus.advance(2000)
        assert high_intervals(bus.trace("out"), 2000) == []


class TestVoicePin:
    def run_script(self, script, duration=3000, seed=5):
        bus = Bus()
        dev = voice_sensor_pin()
        wire(dev, bus, "out")
        dev.feed_stimulus(synth_audio(script, ["on", "off"], seed), 0)
        bus.advance(duration)
        return bus.trace("out"), duration

    def test_latched_on_off(self):
        trace, dur = self.run_script([("on", 300), ("off", 900)])
        ivs = high_intervals(trace, dur)
        assert len(ivs) == 1
        assert abs(ivs[0].start - 300) <= 100 and abs(ivs[0].end - 900) <= 100

    def test_off_first_is_idempotent(self):
        trace, dur = self.run_script([("off", 300)])
        assert high_intervals(trace, dur) == []

    def test_repeated_on_idempotent(self):
        trace, dur = self.run_script([("on", 300), ("on", 900)])
        assert len(high_intervals(trace, dur)) == 1


class TestVoiceSerial:
    VOCAB = ["go", "stop", "left"]

    def make(self, bus):
        dev = voice_sensor_serial(self.VOCAB)
        power_on(dev, bus, {"VDD": "vdd", "GND": "gnd"})
        return dev

    def test_packet_layout_and_fifo(self):
        bus = Bus()
        dev = self.make(bus)
        dev.feed_stimulus(
            synth_audio([("stop", 100), ("go", 500)], self.VOCAB, seed=6), 0
        )
        bus.advance(1500)
        reads = [bus.i2c_transfer(0x2A, Direction.READ, 2).payload for _ in range(3)]
        assert reads == [b"\x01\x00", b"\x00\x01", b"\xff\xff"]

    def test_overflow_drops_oldest(self):
        bus = Bus()
        dev = self.make(bus)
        # enqueue 17 recognitions directly through the step path
        script = [("go", 250 * k) for k in range(17)]
        dev.feed_stimulus(synth_audio(script, self.VOCAB, seed=7), 0)
        bus.advance(250 * 17 + 500)
        packets = [bus.i2c_transfer(0x2A, Direction.READ, 2).payload for _ in range(17)]
        real = [p for p in packets if p != b"\xff\xff"]
        assert len(real) == 16
        assert real[0][1] == 1  # sequence 0 (the oldest) was dropped
        assert dev.dropped_packets == 1

    def test_vocabulary_size_blob_guard(self):
        with pytest.raises(DeviceError) as e:
            one_word = struct.pack("<fB", 0.82, 1) + bytes(13 * 4)
            voice_sensor_serial(["a", "b"], params=pack_blob(DeviceKind.VOICE, one_word))
        assert e.value.code == "KIND_MISMATCH"


class TestTextReader:
    def read_registers(self, frame, advance=600):
        bus = Bus()
        dev = text_reader()
        power_on(dev, bus, {"VDD": "vdd", "GND": "gnd"})
        dev.feed_stimulus(frame, 0)
        bus.advance(advance)
        return bus.i2c_transfer(0x29, Direction.READ, 8).payload

    def test_spec_register_value(self):
        payload = self.read_registers(render_display(Reading(False, "1234", "5")))
        assert payload.hex() == "0001234c50000000"

    def test_no_display_sentinel(self):
        blank = Frame(np.full((64, 128), 20, dtype=np.uint8))
        assert self.read_registers(blank) == b"\xff" * 8

    def test_reading_beyond_bcd_capacity_sentinel(self):
        # the decoder has no digit limit; the BCD codec's 7 whole digits do
        pixels = np.full((32, 96), 20.0)
        pixels[8:19, 8:82] = _render_patch(Reading(False, "123456789", "5"), 235.0)
        frame = Frame(pixels.astype(np.uint8))
        assert decode_display(frame) == Reading(False, "123456789", "5")
        assert self.read_registers(frame) == b"\xff" * 8

    def test_before_first_refresh_sentinel(self):
        bus = Bus()
        dev = text_reader()
        power_on(dev, bus, {"VDD": "vdd", "GND": "gnd"})
        bus.advance(100)
        assert bus.i2c_transfer(0x29, Direction.READ, 8).payload == b"\xff" * 8

    def test_custom_address(self):
        bus = Bus()
        dev = text_reader(address=0x30)
        power_on(dev, bus, {"VDD": "vdd", "GND": "gnd"})
        bus.advance(10)
        assert bus.i2c_transfer(0x30, Direction.READ, 8).payload == b"\xff" * 8


def _voice_payload(threshold, words):
    signatures = b"".join(np.asarray(word_signature(w), "<f4").tobytes() for w in words)
    return struct.pack("<fB", threshold, len(words)) + signatures


# each kind's default parameter payload, packed by hand in the .mlsp layout
DEFAULT_PAYLOADS = {
    "PERSON": (DeviceKind.PERSON, struct.pack("<fB", 0.8, 0)),
    "GAZE": (DeviceKind.GAZE, struct.pack("<f", 0.8)),
    "TAP": (DeviceKind.TAP, struct.pack("<fH", 1.0, 100)),
    "VOICE_PIN": (DeviceKind.VOICE, _voice_payload(0.82, ["on", "off"])),
    "VOICE_SERIAL": (DeviceKind.VOICE, _voice_payload(0.82, ["on", "off"])),
    "TEXT_READER": (DeviceKind.TEXT_READER, b""),
}


class TestBlobs:
    @pytest.mark.parametrize("kind", list(KINDS))
    def test_default_payload(self, kind):
        device = KINDS[kind]()
        assert (device.kind, device._params_payload) == DEFAULT_PAYLOADS[kind]

    def test_packed_blobs_configure_the_detectors(self):
        rodent = pack_blob(DeviceKind.PERSON, struct.pack("<fB", 0.95, 1))
        params = person_detector(params=rodent)._detector_params
        assert (params.threshold, params.figure) == (np.float32(0.95), "rodent")
        tap = tap_sensor(params=pack_blob(DeviceKind.TAP, struct.pack("<fH", 2.5, 40)))
        assert (tap._detector_params.threshold_g, tap._detector_params.refractory_ms) == (2.5, 40)
        blob = pack_blob(DeviceKind.VOICE, _voice_payload(0.9, ["go", "stop"]))
        voice = voice_sensor_serial(["go", "stop"], params=blob)
        assert voice._threshold == np.float32(0.9)
        for word in ("go", "stop"):
            expect = np.asarray(word_signature(word), "<f4").astype(np.float64)
            assert np.array_equal(voice._templates[word], expect)

    def test_factory_keywords_pack_the_same_blob(self):
        assert person_detector(threshold=0.95, figure="rodent")._params_payload == \
            struct.pack("<fB", 0.95, 1)
        assert tap_sensor(threshold_g=2.5, refractory_ms=40)._params_payload == \
            struct.pack("<fH", 2.5, 40)
        assert voice_sensor_serial(["go", "stop"], threshold=0.9)._params_payload == \
            _voice_payload(0.9, ["go", "stop"])
