"""Sensor-device framework: interface declarations, parameter blobs,
power lifecycle, the isolation boundary, and the exposure audit.

A device's host-facing surface is its InterfaceDecl plus whatever crosses
the bus (pin transitions, serial payloads).  Stimuli enter through a
private channel that no host-side query can read back.
"""

from __future__ import annotations

import bisect
import re
import struct
import zlib
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

from .vbus import EXPOSURE_COLUMNS, Bus, ExposureRecord, LogicLevel, LOW, _time_of

BLOB_MAGIC = b"MLSP"
BLOB_VERSION = 1

_HEX_ADDRESS = re.compile(r"0x[0-9a-fA-F]+")  # a SERIAL record's detail


class DeviceKind(Enum):
    PERSON = 1
    GAZE = 2
    TAP = 3
    VOICE = 4
    TEXT_READER = 5


class PinRole(Enum):
    POWER = "power"
    GROUND = "ground"
    SIGNAL_OUT = "signal_out"


class DeviceError(Exception):
    """Device misuse; ``code`` is a stable machine-readable identifier."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message

    def __reduce__(self):
        # pickle the constructor's own arguments, so that an error raised in
        # a conformance worker process can be rebuilt in the parent
        return type(self), (self.code, self.message)


@dataclass
class SerialDecl:
    address: int
    register_map_len: int
    packet_spec_id: str


@dataclass
class InterfaceDecl:
    """Everything a device is allowed to expose, declared up front."""

    pins: list[tuple[str, PinRole]]
    serial: SerialDecl | None
    declared_outputs: str

    def __post_init__(self) -> None:
        if not self.declared_outputs:
            raise ValueError("declared_outputs must be non-empty")
        signal_names = [n for n, r in self.pins if r == PinRole.SIGNAL_OUT]
        if len(signal_names) != len(set(signal_names)):
            raise ValueError("SIGNAL_OUT pin names must be unique")

    def signal_pins(self) -> list[str]:
        return [n for n, r in self.pins if r == PinRole.SIGNAL_OUT]

    def pin_names(self) -> list[str]:
        return [n for n, _ in self.pins]


# -- parameter blobs -------------------------------------------------------


def pack_blob(kind: DeviceKind, payload: bytes) -> bytes:
    """Frame detector parameters: MLSP magic, version, kind, length, CRC32."""
    head = BLOB_MAGIC + struct.pack("<BBI", BLOB_VERSION, kind.value, len(payload))
    body = head + payload
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def unpack_blob(blob: bytes) -> tuple[int, DeviceKind, bytes]:
    """Parse and verify a parameter blob; raises DeviceError BAD_CRC."""
    if len(blob) < 14 or blob[:4] != BLOB_MAGIC:
        raise DeviceError("BAD_CRC", "malformed parameter blob framing")
    version, kind_code, payload_len = struct.unpack("<BBI", blob[4:10])
    if len(blob) != 10 + payload_len + 4:
        raise DeviceError("BAD_CRC", "parameter blob length mismatch")
    body, crc_bytes = blob[:-4], blob[-4:]
    (crc,) = struct.unpack("<I", crc_bytes)
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise DeviceError("BAD_CRC", "parameter blob CRC mismatch")
    try:
        kind = DeviceKind(kind_code)
    except ValueError:
        raise DeviceError("KIND_MISMATCH", f"unknown device kind {kind_code}")
    return version, kind, blob[10 : 10 + payload_len]


# -- devices ---------------------------------------------------------------


class DevicePort:
    """Bus adapter handed to a powered device.

    The only way a device can emit anything: pin drives (recorded as
    exposure events) and serial reads serviced through the bus.
    """

    def __init__(self, bus: Bus, pin_lines: dict[str, str]):
        self._bus = bus
        self._pin_lines = pin_lines

    def drive(self, pin: str, level: LogicLevel, at: int) -> None:
        line_id = self._pin_lines[pin]
        if self._bus.lines[line_id].append(at, level):
            self._bus.record_pin_exposure(at, line_id)


class SensorDevice:
    """A powered virtual component: declared interface, private state,
    private stimulus channel.  Subclasses implement the inference core as
    ``_configure(payload)``, given each loaded parameter payload, and
    ``_step(t, port)``, called at multiples of ``cadence_ms`` once powered.
    A device that declares a serial interface also implements
    ``serial_read(n, at)`` over its read-only register map.

    The base device is stepped at every tick.  A kind whose ``_idle()`` says
    that a step with no stimulus due would change nothing is parked instead:
    it is stepped at the first tick at or after its next queued stimulus,
    and feeding it wakes it.
    """

    kind: DeviceKind
    _modality: type | None = None

    def __init__(self, interface: InterfaceDecl, cadence_ms: int):
        self._interface = interface
        self._cadence_ms = cadence_ms
        self._powered = False
        self._params_payload: bytes | None = None
        # (at, stimulus), sorted by time; FIFO among equal times.  The queue is
        # _stimuli[_head:]; the consumed slots before it hold None.
        self._stimuli: list[tuple[int, object] | None] = []
        self._head = 0
        self._wake: Callable[[int], None] | None = None  # set by power_on

    # host-facing surface: interface, kind, cadence -- nothing else

    @property
    def interface(self) -> InterfaceDecl:
        return self._interface

    @property
    def cadence_ms(self) -> int:
        return self._cadence_ms

    def timing(self) -> dict[str, int]:
        """Timing constants cross-checked against the datasheet."""
        return {"cadence_ms": self._cadence_ms}

    def load_parameters(self, blob: bytes) -> None:
        """Calibration-time parameter upload; forbidden once powered."""
        if self._powered:
            raise DeviceError("POWERED", "parameter update after power-on forbidden")
        _, kind, payload = unpack_blob(blob)
        if kind != self.kind:
            raise DeviceError(
                "KIND_MISMATCH", f"blob kind {kind.name} != device kind {self.kind.name}"
            )
        self._configure(payload)
        self._params_payload = payload

    def feed_stimulus(self, stimulus: object, at: int) -> None:
        """Queue a synthetic physical input on the private channel; a powered
        device is woken for it (see ``Bus.wake``)."""
        if self._modality is not None and not isinstance(stimulus, self._modality):
            raise DeviceError(
                "MODALITY_MISMATCH",
                f"{type(stimulus).__name__} into {self.kind.name} device",
            )
        bisect.insort_right(self._stimuli, (at, stimulus), lo=self._head, key=_time_of)
        if self._wake is not None:
            self._wake(at)

    def _idle(self) -> bool:
        """True when a step with no stimulus due would change nothing."""
        return False

    def _next_due(self) -> int | None:
        """When the device next needs a step, as ``Bus.attach_stepper`` asks:
        now (0) unless idle, else at its next stimulus, or None if none is queued."""
        if not self._idle():
            return 0
        queue, head = self._stimuli, self._head
        return queue[head][0] if head < len(queue) else None

    def _pop_stimuli(self, t: int) -> list[tuple[int, object]]:
        """Drain queued stimuli with timestamp <= t, oldest first.  Amortised
        O(1) a stimulus: the consumed slots are dropped once they are at least
        half the list, and until then hold None, so no stimulus outlives its use."""
        queue, head = self._stimuli, self._head
        cut = bisect.bisect_right(queue, t, lo=head, key=_time_of)
        due = queue[head:cut]
        queue[head:cut] = [None] * (cut - head)
        if 2 * cut >= len(queue):
            del queue[:cut]
            cut = 0
        self._head = cut
        return due


def power_on(device: SensorDevice, bus: Bus, wiring: dict[str, str]) -> SensorDevice:
    """Wire and attach a device; it steps at its cadence from now on, when it
    has anything to do (see ``SensorDevice``)."""
    if device._powered:
        raise DeviceError("POWERED", "device already powered")
    missing = [p for p in device.interface.pin_names() if p not in wiring]
    if missing:
        raise DeviceError("MISSING_PIN", f"wiring missing pins {missing}")
    serial = device.interface.serial
    if serial is not None and serial.address in bus.serial_responders:
        raise DeviceError(
            "ADDRESS_CONFLICT", f"address 0x{serial.address:02x} already occupied"
        )
    pin_lines = {}
    for pin in device.interface.signal_pins():
        line_id = wiring[pin]
        if line_id not in bus.lines:
            bus.add_line(line_id, LOW)
        pin_lines[pin] = line_id
    port = DevicePort(bus, pin_lines)
    device._powered = True
    handle = bus.attach_stepper(device.cadence_ms, lambda t: device._step(t, port),
                                device._next_due)
    device._wake = lambda at: bus.wake(handle, at)
    if serial is not None:
        bus.attach_serial(serial.address, device)
    return device


# -- exposure audit --------------------------------------------------------


@dataclass
class Finding:
    code: str  # UNDECLARED_CHANNEL, OVERSIZED_PAYLOAD, or a datasheet cross-check code
    message: str


@dataclass
class AuditVerdict:
    passed: bool
    findings: list[Finding] = field(default_factory=list)
    channels: list[str | None] = field(default_factory=list)  # per record, as audited


def declared_channels(interface: InterfaceDecl) -> list[str]:
    """``PIN:<pin>`` for each signal pin, then ``SERIAL:0x<aa>`` if declared."""
    serial = interface.serial
    return [f"PIN:{p}" for p in interface.signal_pins()] + (
        [f"SERIAL:0x{serial.address:02x}"] if serial else [])


def exposure_channels(run_log: list[ExposureRecord], interface: InterfaceDecl,
                      wiring: dict[str, str] | None = None) -> list[str | None]:
    """The declared channel (an entry of ``declared_channels``) each record crossed, or None.

    With ``wiring`` (pin name -> line id), a PIN record crosses the signal
    pin wired to its line; without, the pin named by the line or by its
    "<device>.<PIN>" suffix.  A SERIAL record crosses the declared address.
    """
    declared, serial = declared_channels(interface), interface.serial

    def channel(kind: str, detail: str) -> str | None:
        if kind == "PIN":
            for pin, token in zip(interface.signal_pins(), declared):
                if (wiring.get(pin) == detail if wiring
                        else detail == pin or detail.endswith("." + pin)):
                    return token
        elif kind == "SERIAL" and serial and int(detail, 16) == serial.address:
            return declared[-1]
        return None

    # one attribution per distinct (channel, detail), not per record
    table = {key: channel(*key) for key in {(r.channel, r.detail) for r in run_log}}
    return [table[r.channel, r.detail] for r in run_log]


def audit(run_log: list[ExposureRecord], interface: InterfaceDecl,
          wiring: dict[str, str] | None = None) -> AuditVerdict:
    """Every record must cross a declared channel (``exposure_channels``),
    and no serial payload may exceed the register map."""
    findings: list[Finding] = []
    serial = interface.serial
    channels = exposure_channels(run_log, interface, wiring)
    for rec, channel in zip(run_log, channels):
        if channel is None:
            if rec.channel == "PIN":
                what = f"pin emission on undeclared line {rec.detail!r} at t={rec.time_ms}"
            elif rec.channel == "SERIAL":
                what = f"serial emission at undeclared address {rec.detail} at t={rec.time_ms}"
            else:
                what = f"unknown channel {rec.channel!r}"
            findings.append(Finding("UNDECLARED_CHANNEL", what))
        elif rec.channel == "SERIAL" and rec.bits // 8 > serial.register_map_len:
            findings.append(Finding("OVERSIZED_PAYLOAD", f"{rec.bits // 8}-byte payload exceeds "
                                    f"register map length {serial.register_map_len} "
                                    f"at t={rec.time_ms}"))
    return AuditVerdict(passed=not findings, findings=findings, channels=channels)


def parse_exposure_csv(text: str) -> list[ExposureRecord]:
    """Inverse of Bus.exposure_csv."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or lines[0] != ",".join(EXPOSURE_COLUMNS):
        raise ValueError("bad exposure log header")
    out = []
    for ln in lines[1:]:
        t, channel, detail, bits = ln.split(",")
        if channel not in ("PIN", "SERIAL"):
            raise ValueError(f"unknown channel {channel!r} in {ln!r}")
        if channel == "SERIAL" and not _HEX_ADDRESS.fullmatch(detail):
            raise ValueError(f"SERIAL detail {detail!r} is not a hex address in {ln!r}")
        out.append(ExposureRecord(int(t), channel, detail, int(bits)))
    return out
