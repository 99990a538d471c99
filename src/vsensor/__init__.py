"""Deterministic emulation framework for self-contained ML sensors.

Virtual devices run reference inference cores behind thin pin/serial
interfaces on a simulated bus; the package adds a machine-readable
datasheet toolchain, an exposure audit, a conformance harness, and
pin-level composition combinators.
"""

__version__ = "1.0.0"

from .vbus import (  # noqa: F401
    HIGH,
    LOW,
    Bus,
    BusError,
    Direction,
    HighInterval,
    I2CTransaction,
    LogicLevel,
    PinTrace,
    Status,
    high_intervals,
)
from .devkit import (  # noqa: F401
    DeviceError,
    DeviceKind,
    InterfaceDecl,
    PinRole,
    SensorDevice,
    SerialDecl,
    audit,
    pack_blob,
    power_on,
    unpack_blob,
)
from .sensors import (  # noqa: F401
    PersonPinPolicy,
    decode_reading,
    encode_reading,
    gaze_detector,
    person_detector,
    tap_sensor,
    text_reader,
    voice_sensor_pin,
    voice_sensor_serial,
)
