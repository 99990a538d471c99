"""The five concrete ML-sensor devices with bit-exact interface semantics.

Pin names are fixed per kind: PERSON/GAZE -> {VDD, GND, DETECT},
TAP -> {VDD, GND, TAP}, VOICE (pin mode) -> {VDD, GND, STATE}.  Serial
register layouts are big-endian words.  Two devices of the same kind
always expose identical interface declarations regardless of their
loaded parameters.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .devkit import (
    CodedError,
    DeviceError,
    DeviceKind,
    InterfaceDecl,
    PinRole,
    SensorDevice,
    SerialDecl,
    pack_blob,
)
from .stimuli.audio import (
    FEATURE_DIM,
    MATCH_THRESHOLD,
    FeatureWindow,
    check_vocabulary,
    detect_keywords,
    word_signature,
)
from .stimuli.imu import ImuWindow, TapParams, detect_tap
from .stimuli.scene import Frame, GazeParams, PersonParams, gaze_present, person_present
from .stimuli.sevenseg import MAX_FRAC_DIGITS, MAX_WHOLE_DIGITS, Reading, decode_display
from .vbus import HIGH, LOW, LogicLevel

VOICE_FIFO_DEPTH = 16
VOICE_EMPTY_SENTINEL = b"\xff\xff"
NO_READING_SENTINEL = b"\xff" * 8

SIGN_POSITIVE = 0xC
SIGN_NEGATIVE = 0xD


# -- signed packed-BCD reading protocol -------------------------------------


class BcdError(CodedError):
    """Raised on encode/decode protocol violations."""


def encode_reading(r: Reading) -> bytes:
    """Pack a display reading into two big-endian 32-bit words.

    Whole word: 7 packed-BCD digits zero-padded left plus a trailing sign
    nibble (0xC positive, 0xD negative).  Fraction word: 8 packed-BCD
    digits left-aligned from tenths, zero-padded right.
    """
    if len(r.whole_digits) > MAX_WHOLE_DIGITS:
        raise BcdError("TOO_MANY_DIGITS", f"whole part {r.whole_digits!r} > 7 digits")
    if len(r.frac_digits) > MAX_FRAC_DIGITS:
        raise BcdError("TOO_MANY_DIGITS", f"fraction {r.frac_digits!r} > 8 digits")
    # the packed BCD of decimal digits is those digits read as hex
    sign = SIGN_NEGATIVE if r.negative else SIGN_POSITIVE
    whole_word = int(r.whole_digits, 16) << 4 | sign
    frac_word = int(r.frac_digits.ljust(MAX_FRAC_DIGITS, "0"), 16)
    return struct.pack(">II", whole_word, frac_word)


def decode_reading(data: bytes) -> Reading | None:
    """Exact inverse of encode_reading; None for the no-reading sentinel.

    Decoded digits are canonical: leading zeros of the whole part and
    trailing zeros of the fraction are not representable on the wire.
    """
    if len(data) != 8:
        raise BcdError("MALFORMED_NIBBLE", f"expected 8 bytes, got {len(data)}")
    if data == NO_READING_SENTINEL:
        return None
    whole_word, frac_word = struct.unpack(">II", data)
    sign = whole_word & 0xF
    if sign not in (SIGN_POSITIVE, SIGN_NEGATIVE):
        raise BcdError("MALFORMED_NIBBLE", f"bad sign nibble 0x{sign:X}")
    whole, frac = f"{whole_word >> 4:07x}", f"{frac_word:08x}"
    # the first bad digit as the nibbles are read: whole from the right
    for digits, where in ((whole[::-1], "whole"), (frac, "fraction")):
        bad = next((c for c in digits if c > "9"), None)
        if bad:
            raise BcdError("MALFORMED_NIBBLE", f"nibble 0x{bad.upper()} in {where} digit position")
    whole, frac = whole.lstrip("0") or "0", frac.rstrip("0")
    return Reading(sign == SIGN_NEGATIVE, whole, frac)


# -- construction -------------------------------------------------------------


def _interface(declared_outputs: str, signal_pin: str | None = None,
               serial: SerialDecl | None = None) -> InterfaceDecl:
    """VDD and GND, then the one signal pin if the device has one."""
    pins = [("VDD", PinRole.POWER), ("GND", PinRole.GROUND)]
    if signal_pin:
        pins.append((signal_pin, PinRole.SIGNAL_OUT))
    return InterfaceDecl(pins, serial, declared_outputs)


def _loaded(device: SensorDevice, params: bytes | None, payload: bytes):
    """``device`` with ``params`` loaded, or ``payload`` packed for its kind if None.

    Each factory below is its kind's one definition: its parameters are
    the kind's scenario config keys, and their defaults are the kind's.
    """
    device.load_parameters(pack_blob(device.kind, payload) if params is None else params)
    return device


# -- person / gaze -----------------------------------------------------------


@dataclass
class PersonPinPolicy:
    frame_period_ms: int = 100
    rise_frames: int = 2
    fall_frames: int = 2

    def __post_init__(self) -> None:
        if min(self.frame_period_ms, self.rise_frames, self.fall_frames) < 1:
            raise ValueError("policy values must be >= 1")


class _DetectorPinDevice(SensorDevice):
    """Shared DETECT pin semantics: rise/fall frame debounce of ``_present(frame)``,
    which is pure, so a frame is read only when the pin's next level depends on it."""

    _modality = Frame
    pin_name = "DETECT"
    declared_outputs: str  # what the DETECT bit means for this detector

    def __init__(self, policy: PersonPinPolicy):
        self.policy = policy
        super().__init__(_interface(self.declared_outputs, self.pin_name),
                         policy.frame_period_ms)
        # the last max(rise, fall) readings, newest last: a bool, or a Frame
        # not read yet; a frameless step, or none yet, reads False
        self._readings = [False] * max(policy.rise_frames, policy.fall_frames)
        self._asserted = False

    def timing(self) -> dict[str, int]:
        return {
            "cadence_ms": self.cadence_ms,
            "frame_period_ms": self.policy.frame_period_ms,
            "rise_frames": self.policy.rise_frames,
            "fall_frames": self.policy.fall_frames,
        }

    def _idle(self) -> bool:
        # deasserted after a known negative, which blocks every rise window
        # that a skipped frameless step (one more negative) would change
        return not self._asserted and self._readings[-1] is False

    def _step(self, t, port) -> None:
        due = self._pop_stimuli(t)
        readings = self._readings
        del readings[0]
        readings.append(due[-1][1] if due else False)
        level = self._asserted
        n = self.policy.fall_frames if level else self.policy.rise_frames
        window = range(len(readings) - n, len(readings))
        # a known reading of the current level blocks the flip; else read the
        # unread frames newest first, each once, until one blocks it
        if any(readings[i] is level for i in window):
            return
        for i in reversed(window):
            if isinstance(readings[i], Frame):
                readings[i] = bool(self._present(readings[i]))
                if readings[i] is level:
                    return
        self._asserted = not level
        port.drive(self.pin_name, LOW if level else HIGH, t)


class PersonDetectorDevice(_DetectorPinDevice):
    kind = DeviceKind.PERSON
    declared_outputs = "DETECT: one bit, high while a person is present"

    def _configure(self, payload: bytes) -> None:
        threshold, figure_code = struct.unpack("<fB", payload)
        figure = {0: "person", 1: "rodent"}[figure_code]
        self._detector_params = PersonParams(threshold=threshold, figure=figure)

    def _present(self, frame: Frame) -> bool:
        return person_present(frame, self._detector_params)


class GazeDetectorDevice(_DetectorPinDevice):
    kind = DeviceKind.GAZE
    declared_outputs = "DETECT: one bit, high while someone looks at the device"

    def _configure(self, payload: bytes) -> None:
        (threshold,) = struct.unpack("<f", payload)
        self._detector_params = GazeParams(threshold=threshold)

    def _present(self, frame: Frame) -> bool:
        return gaze_present(frame, self._detector_params)


def person_detector(
    policy: PersonPinPolicy | None = None, params: bytes | None = None, *,
    threshold: float = PersonParams.threshold, figure: str = PersonParams.figure,
) -> PersonDetectorDevice:
    payload = struct.pack("<fB", threshold, {"person": 0, "rodent": 1}[figure])
    return _loaded(PersonDetectorDevice(policy or PersonPinPolicy()), params, payload)


def gaze_detector(
    policy: PersonPinPolicy | None = None, params: bytes | None = None, *,
    threshold: float = GazeParams.threshold,
) -> GazeDetectorDevice:
    payload = struct.pack("<f", threshold)
    return _loaded(GazeDetectorDevice(policy or PersonPinPolicy()), params, payload)


# -- tap ----------------------------------------------------------------------


class TapSensorDevice(SensorDevice):
    kind = DeviceKind.TAP
    _modality = ImuWindow
    CADENCE_MS = 10

    def __init__(self, pulse_ms: int):
        if pulse_ms < 1:
            raise ValueError("pulse_ms must be >= 1")
        self.pulse_ms = pulse_ms
        interface = _interface(f"TAP: one bit, {pulse_ms} ms pulse per detected tap", "TAP")
        super().__init__(interface, self.CADENCE_MS)
        self._pulse_end: int | None = None

    def timing(self) -> dict[str, int]:
        return {"cadence_ms": self.cadence_ms, "pulse_ms": self.pulse_ms}

    def _idle(self) -> bool:
        return True  # a step acts only on the windows due

    def _configure(self, payload: bytes) -> None:
        threshold_g, refractory_ms = struct.unpack("<fH", payload)
        self._detector_params = TapParams(threshold_g, refractory_ms)

    def _step(self, t, port) -> None:
        for at, window in self._pop_stimuli(t):
            for rel in detect_tap(window, self._detector_params):
                tap_at = at + rel
                if self._pulse_end is not None and tap_at <= self._pulse_end:
                    continue  # absorbed by the active pulse
                port.drive("TAP", HIGH, tap_at)
                port.drive("TAP", LOW, tap_at + self.pulse_ms)
                self._pulse_end = tap_at + self.pulse_ms


def tap_sensor(
    pulse_ms: int = 200, params: bytes | None = None, *,
    threshold_g: float = TapParams.threshold_g, refractory_ms: int = TapParams.refractory_ms,
) -> TapSensorDevice:
    payload = struct.pack("<fH", threshold_g, refractory_ms)
    return _loaded(TapSensorDevice(pulse_ms), params, payload)


# -- voice ---------------------------------------------------------------------


class _VoiceCore(SensorDevice):
    _modality = FeatureWindow

    def _idle(self) -> bool:
        return True  # a step acts only on the windows due

    def _configure(self, payload: bytes) -> None:
        threshold, n_words = struct.unpack_from("<fB", payload)
        if len(self._vocabulary) != n_words:
            raise DeviceError(
                "KIND_MISMATCH",
                f"blob carries {n_words} words, device expects {len(self._vocabulary)}",
            )
        signatures = np.frombuffer(payload, "<f4", n_words * FEATURE_DIM, offset=5)
        self._threshold = threshold
        self._templates = dict(zip(self._vocabulary,
                                   signatures.reshape(n_words, FEATURE_DIM).astype(np.float64)))

    def _recognitions(self, t: int) -> list[tuple[int, str]]:
        """(absolute time, word) events from all due windows, time-ordered."""
        events = []
        for at, window in self._pop_stimuli(t):
            for ev in detect_keywords(window, self._templates, self._threshold):
                events.append((at + ev.at_ms, ev.word))
        events.sort(key=lambda e: e[0])
        return events


class VoicePinDevice(_VoiceCore):
    """Latched STATE line: "on" drives HIGH, "off" drives LOW."""

    kind = DeviceKind.VOICE
    CADENCE_MS = 100

    def __init__(self):
        self._vocabulary = ["on", "off"]
        interface = _interface("STATE: one bit, latched high on 'on', low on 'off'", "STATE")
        super().__init__(interface, self.CADENCE_MS)

    def _step(self, t, port) -> None:
        # coalesce same-millisecond events so the trace stays well-formed
        by_time: dict[int, LogicLevel] = {}
        for when, word in self._recognitions(t):
            by_time[when] = HIGH if word == "on" else LOW
        for when in sorted(by_time):
            port.drive("STATE", by_time[when], when)


class VoiceSerialDevice(_VoiceCore):
    """Command packets over serial: 16-deep FIFO of (index, sequence)."""

    kind = DeviceKind.VOICE
    CADENCE_MS = 100

    def __init__(self, vocabulary: list[str], address: int):
        if not (1 <= len(vocabulary) <= 255):
            raise ValueError("vocabulary size must be in [1, 255]")
        check_vocabulary(vocabulary)  # so each word is one packet index
        self._vocabulary = list(vocabulary)
        serial = SerialDecl(address, register_map_len=2, packet_spec_id="cmd-packet-v1")
        interface = _interface("serial: 2-byte command packets (index, sequence)", serial=serial)
        super().__init__(interface, self.CADENCE_MS)
        self._fifo: list[bytes] = []
        self._sequence = 0
        self._dropped = 0

    @property
    def dropped_packets(self) -> int:
        return self._dropped

    def _step(self, t, port) -> None:
        for _, word in self._recognitions(t):
            packet = bytes([self._vocabulary.index(word), self._sequence])
            self._sequence = (self._sequence + 1) & 0xFF
            self._fifo.append(packet)
            if len(self._fifo) > VOICE_FIFO_DEPTH:
                self._fifo.pop(0)
                self._dropped += 1

    def serial_read(self, n: int, at: int) -> bytes:
        out = b""
        while len(out) < n:
            out += self._fifo.pop(0) if self._fifo else VOICE_EMPTY_SENTINEL
        return out[:n]


def _voice_payload(vocabulary: Sequence[str], threshold: float) -> bytes:
    """Threshold, word count, then each word's signature as 13 float32s."""
    signatures = np.array([word_signature(w) for w in vocabulary], dtype="<f4")
    return struct.pack("<fB", threshold, len(vocabulary)) + signatures.tobytes()


def voice_sensor_pin(
    params: bytes | None = None, *, threshold: float = MATCH_THRESHOLD
) -> VoicePinDevice:
    device = VoicePinDevice()
    return _loaded(device, params, _voice_payload(device._vocabulary, threshold))


def voice_sensor_serial(
    vocabulary: Sequence[str] = ("on", "off"),
    address: int = 0x2A,
    params: bytes | None = None, *,
    threshold: float = MATCH_THRESHOLD,
) -> VoiceSerialDevice:
    device = VoiceSerialDevice(vocabulary, address)
    return _loaded(device, params, _voice_payload(vocabulary, threshold))


# -- text reader ----------------------------------------------------------------


class TextReaderDevice(SensorDevice):
    """Reads a seven-segment display into two 32-bit BCD registers."""

    kind = DeviceKind.TEXT_READER
    _modality = Frame
    REFRESH_PERIOD_MS = 500

    def __init__(self, address: int):
        serial = SerialDecl(address, register_map_len=8, packet_spec_id="bcd-reading-v1")
        interface = _interface("serial: signed BCD whole and fraction words", serial=serial)
        super().__init__(interface, self.REFRESH_PERIOD_MS)
        self._registers = NO_READING_SENTINEL

    def timing(self) -> dict[str, int]:
        return {"cadence_ms": self.cadence_ms, "refresh_period_ms": self.REFRESH_PERIOD_MS}

    def _configure(self, payload: bytes) -> None:
        pass  # decode pipeline has no tunable parameters in v1

    def _idle(self) -> bool:
        return True  # a step acts only on the frame due

    def _step(self, t, port) -> None:
        due = self._pop_stimuli(t)
        if not due:
            return
        reading = decode_display(due[-1][1])
        if reading is None:
            self._registers = NO_READING_SENTINEL
        else:
            try:
                self._registers = encode_reading(reading)
            except BcdError:
                self._registers = NO_READING_SENTINEL

    def serial_read(self, n: int, at: int) -> bytes:
        padded = self._registers + b"\x00" * max(0, n - len(self._registers))
        return padded[:n]


def text_reader(address: int = 0x29, params: bytes | None = None) -> TextReaderDevice:
    return _loaded(TextReaderDevice(address), params, b"")
