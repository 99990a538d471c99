import gc
import pickle
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsensor.devkit import (
    DeviceError,
    DeviceKind,
    InterfaceDecl,
    PinRole,
    SensorDevice,
    SerialDecl,
    audit,
    declared_channels,
    exposure_channels,
    pack_blob,
    parse_exposure_csv,
    power_on,
    unpack_blob,
)
from vsensor.vbus import HIGH, Bus, Direction, ExposureRecord


class TestParameterBlobs:
    def test_round_trip(self):
        blob = pack_blob(DeviceKind.TAP, b"\x01\x02\x03")
        version, kind, payload = unpack_blob(blob)
        assert (version, kind, payload) == (1, DeviceKind.TAP, b"\x01\x02\x03")

    def test_crc_detects_corruption(self):
        blob = bytearray(pack_blob(DeviceKind.TAP, b"\x01\x02\x03"))
        blob[12] ^= 0xFF
        with pytest.raises(DeviceError) as e:
            unpack_blob(bytes(blob))
        assert e.value.code == "BAD_CRC"

    def test_truncated_blob(self):
        blob = pack_blob(DeviceKind.TAP, b"\x01\x02\x03")
        with pytest.raises(DeviceError) as e:
            unpack_blob(blob[:-1])
        assert e.value.code == "BAD_CRC"

    def test_unknown_kind(self):
        blob = bytearray(pack_blob(DeviceKind.TAP, b""))
        # kind byte lives at offset 5; refresh the CRC after patching it
        blob[5] = 99
        import struct
        import zlib

        body = bytes(blob[:-4])
        patched = body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        with pytest.raises(DeviceError) as e:
            unpack_blob(patched)
        assert e.value.code == "KIND_MISMATCH"

    def test_device_error_pickles(self):
        # a conformance worker sends its errors to the parent pickled
        e = pickle.loads(pickle.dumps(DeviceError("BAD_CRC", "blob CRC mismatch")))
        assert type(e) is DeviceError and (e.code, e.message) == ("BAD_CRC", "blob CRC mismatch")
        assert str(e) == "BAD_CRC: blob CRC mismatch"


class _StubDevice(SensorDevice):
    kind = DeviceKind.TAP

    def __init__(self):
        interface = InterfaceDecl(
            pins=[("VDD", PinRole.POWER), ("GND", PinRole.GROUND),
                  ("TAP", PinRole.SIGNAL_OUT)],
            serial=None,
            declared_outputs="TAP pulses",
        )
        super().__init__(interface, 10)
        self.configured = None

    def _configure(self, payload):
        self.configured = payload

    def _step(self, t, port):
        pass


class TestDeviceLifecycle:
    def test_load_parameters(self):
        dev = _StubDevice()
        dev.load_parameters(pack_blob(DeviceKind.TAP, b"hi"))
        assert dev.configured == b"hi"

    def test_kind_mismatch(self):
        dev = _StubDevice()
        with pytest.raises(DeviceError) as e:
            dev.load_parameters(pack_blob(DeviceKind.PERSON, b""))
        assert e.value.code == "KIND_MISMATCH"

    def test_params_immutable_after_power_on(self):
        dev = _StubDevice()
        dev.load_parameters(pack_blob(DeviceKind.TAP, b""))
        power_on(dev, Bus(), {"VDD": "vdd", "GND": "gnd", "TAP": "t"})
        with pytest.raises(DeviceError) as e:
            dev.load_parameters(pack_blob(DeviceKind.TAP, b""))
        assert e.value.code == "POWERED"

    def test_missing_pin(self):
        with pytest.raises(DeviceError) as e:
            power_on(_StubDevice(), Bus(), {"VDD": "vdd", "GND": "gnd"})
        assert e.value.code == "MISSING_PIN"

    def test_double_power_on(self):
        dev = _StubDevice()
        wiring = {"VDD": "vdd", "GND": "gnd", "TAP": "t"}
        power_on(dev, Bus(), wiring)
        with pytest.raises(DeviceError) as e:
            power_on(dev, Bus(), wiring)
        assert e.value.code == "POWERED"

    def test_signal_line_created_low(self):
        bus = Bus()
        power_on(_StubDevice(), bus, {"VDD": "vdd", "GND": "gnd", "TAP": "t"})
        assert bus.trace("t").current_level() == 0

    def test_address_conflict(self):
        class SerialDev(_StubDevice):
            def __init__(self):
                super().__init__()
                self._interface = InterfaceDecl(
                    pins=[("VDD", PinRole.POWER), ("GND", PinRole.GROUND)],
                    serial=SerialDecl(0x29, 2, "x"),
                    declared_outputs="serial",
                )

            def serial_read(self, n, at):
                return b"\x00" * n

        bus = Bus()
        power_on(SerialDev(), bus, {"VDD": "vdd", "GND": "gnd"})
        with pytest.raises(DeviceError) as e:
            power_on(SerialDev(), bus, {"VDD": "vdd", "GND": "gnd"})
        assert e.value.code == "ADDRESS_CONFLICT"

    def test_modality_enforced(self):
        class Picky(_StubDevice):
            _modality = bytes

        dev = Picky()
        dev.feed_stimulus(b"ok", 0)
        with pytest.raises(DeviceError) as e:
            dev.feed_stimulus(42, 0)
        assert e.value.code == "MODALITY_MISMATCH"


class TestStimulusQueue:
    def test_pop_due_in_time_order_fifo_among_ties(self):
        dev = _StubDevice()
        feeds = [(30, "a"), (10, "b"), (20, "c"), (10, "d"), (30, "e"),
                 (5, "f"), (20, "g"), (40, "h"), (10, "i")]
        for at, name in feeds:
            dev.feed_stimulus(name, at)
        assert dev._pop_stimuli(4) == []
        assert dev._pop_stimuli(20) == [
            (5, "f"), (10, "b"), (10, "d"), (10, "i"), (20, "c"), (20, "g"),
        ]
        assert dev._pop_stimuli(20) == []
        dev.feed_stimulus("j", 30)
        dev.feed_stimulus("k", 25)
        assert dev._pop_stimuli(30) == [(25, "k"), (30, "a"), (30, "e"), (30, "j")]
        assert dev._pop_stimuli(10**9) == [(40, "h")]

    # each op feeds a stimulus at a time or pops up to a time; the reference
    # queue is a list sorted by time, FIFO among equal times, whose consumed
    # prefix is deleted at every pop
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 40)), max_size=60))
    def test_queue_matches_a_sorted_list(self, ops):
        class Parked(_StubDevice):
            def _idle(self):
                return True  # so _next_due gives the queue's first time

        dev, reference = Parked(), []
        for k, (feed, t) in enumerate(ops):
            if feed:
                dev.feed_stimulus(k, t)
                reference.append((t, k))
                reference.sort(key=lambda e: e[0])
            else:
                due = [e for e in reference if e[0] <= t]
                reference = reference[len(due):]
                assert dev._pop_stimuli(t) == due
            assert dev._next_due() == (reference[0][0] if reference else None)
        assert dev._pop_stimuli(10**9) == reference

    def test_a_consumed_stimulus_is_not_kept(self):
        class Stimulus:
            pass

        dev = _StubDevice()
        stimuli = [Stimulus() for _ in range(8)]
        for k, stimulus in enumerate(stimuli):
            dev.feed_stimulus(stimulus, k)
        refs = [weakref.ref(x) for x in stimuli]
        del stimulus, stimuli
        dev._pop_stimuli(0)  # one of eight: the queue keeps its slot
        gc.collect()
        assert [r() is None for r in refs] == [True] + [False] * 7


class TestAudit:
    INTERFACE = InterfaceDecl(
        pins=[("VDD", PinRole.POWER), ("GND", PinRole.GROUND),
              ("DETECT", PinRole.SIGNAL_OUT)],
        serial=SerialDecl(0x29, 8, "bcd-reading-v1"),
        declared_outputs="detect + registers",
    )

    def test_clean_log_passes(self):
        log = [
            ExposureRecord(5, "PIN", "dev.DETECT", 1),
            ExposureRecord(9, "SERIAL", "0x29", 64),
        ]
        verdict = audit(log, self.INTERFACE)
        assert verdict.passed and verdict.findings == []

    def test_undeclared_pin(self):
        verdict = audit([ExposureRecord(5, "PIN", "dev.LEAK", 1)], self.INTERFACE)
        assert not verdict.passed
        assert verdict.findings[0].code == "UNDECLARED_CHANNEL"

    def test_undeclared_serial_address(self):
        verdict = audit([ExposureRecord(5, "SERIAL", "0x55", 8)], self.INTERFACE)
        assert [f.code for f in verdict.findings] == ["UNDECLARED_CHANNEL"]

    def test_oversized_payload(self):
        verdict = audit([ExposureRecord(5, "SERIAL", "0x29", 9 * 8)], self.INTERFACE)
        assert [f.code for f in verdict.findings] == ["OVERSIZED_PAYLOAD"]

    def test_wiring_pins_down_line_names(self):
        log = [ExposureRecord(5, "PIN", "weird-line", 1)]
        assert audit(log, self.INTERFACE, {"DETECT": "weird-line"}).passed
        assert not audit(log, self.INTERFACE, {"DETECT": "other"}).passed

    @pytest.mark.parametrize("channel,detail,wiring,expected", [
        ("PIN", "DETECT", None, "PIN:DETECT"),
        ("PIN", "dev.DETECT", None, "PIN:DETECT"),
        ("PIN", "DETECTOR", None, None),
        ("PIN", "dev.DETECT", {"DETECT": "dev.DETECT"}, "PIN:DETECT"),
        # with wiring, only the wired line counts: no suffix or bare-name match
        ("PIN", "x.DETECT", {"DETECT": "dev.DETECT"}, None),
        ("PIN", "DETECT", {"DETECT": "dev.DETECT"}, None),
        # a non-signal pin's line is no exposure channel
        ("PIN", "vdd", {"VDD": "vdd", "DETECT": "dev.DETECT"}, None),
        ("SERIAL", "0x29", None, "SERIAL:0x29"),
        ("SERIAL", "0x29", {"DETECT": "dev.DETECT"}, "SERIAL:0x29"),
        ("SERIAL", "0x2a", None, None),
        ("RADIO", "0x29", None, None),
    ])
    def test_exposure_channels(self, channel, detail, wiring, expected):
        log = [ExposureRecord(5, channel, detail, 8)] * 2
        assert exposure_channels(log, self.INTERFACE, wiring) == [expected] * 2

    @pytest.mark.parametrize("pins,outputs,message", [
        ([("A", PinRole.SIGNAL_OUT)], "", "declared_outputs must be non-empty"),
        ([("A", PinRole.SIGNAL_OUT), ("A", PinRole.SIGNAL_OUT)], "a",
         "SIGNAL_OUT pin names must be unique"),
    ])
    def test_interface_decl_checks(self, pins, outputs, message):
        with pytest.raises(ValueError, match=message):
            InterfaceDecl(pins, None, outputs)

    def test_declared_channels(self):
        assert declared_channels(self.INTERFACE) == ["PIN:DETECT", "SERIAL:0x29"]
        pins_only = InterfaceDecl([("A", PinRole.SIGNAL_OUT), ("B", PinRole.SIGNAL_OUT)],
                                  None, "two bits")
        assert declared_channels(pins_only) == ["PIN:A", "PIN:B"]

    def test_unknown_channel_finding(self):
        verdict = audit([ExposureRecord(5, "RADIO", "0x29", 8)], self.INTERFACE)
        assert [(f.code, f.message) for f in verdict.findings] == [
            ("UNDECLARED_CHANNEL", "unknown channel 'RADIO'")]

    def test_exposure_csv_round_trip(self):
        bus = Bus()
        bus.add_line("x")
        bus.advance(3)
        bus.drive("x", HIGH, 3)
        bus.record_pin_exposure(3, "x")
        records = parse_exposure_csv(bus.exposure_csv())
        assert records == bus.exposure_log

    @pytest.mark.parametrize("channel,detail,message", [
        ("SERIAL", "zz", "SERIAL detail 'zz' is not a hex address"),
        ("RADIO", "0x29", "unknown channel 'RADIO'"),
    ])
    def test_exposure_csv_rejects_bad_record(self, channel, detail, message):
        bus = Bus()
        bus.i2c_transfer(0x29, Direction.WRITE, b"\x01")  # logged though NACKed
        text = bus.exposure_csv()
        assert parse_exposure_csv(text) == bus.exposure_log
        bad = text.replace("SERIAL,0x29", f"{channel},{detail}")
        with pytest.raises(ValueError, match=message):
            parse_exposure_csv(bad)

    @pytest.mark.parametrize("text", ["", "time,channel,detail,bits\n5,PIN,x,1\n"])
    def test_exposure_csv_rejects_bad_header(self, text):
        with pytest.raises(ValueError, match="bad exposure log header"):
            parse_exposure_csv(text)


def test_real_device_audit_end_to_end():
    from vsensor.sensors import tap_sensor
    from vsensor.stimuli.imu import synth_imu

    bus = Bus()
    dev = tap_sensor()
    wiring = {"VDD": "vdd", "GND": "gnd", "TAP": "tap.TAP"}
    power_on(dev, bus, wiring)
    dev.feed_stimulus(synth_imu([500], 2000, 0.03, seed=1), 0)
    bus.advance(2000)
    assert len(bus.exposure_log) == 2  # one rising + one falling transition
    assert audit(bus.exposure_log, dev.interface, wiring).passed
