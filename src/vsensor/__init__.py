"""Deterministic emulation framework for self-contained ML sensors.

Virtual devices run reference inference cores behind thin pin/serial
interfaces on a simulated bus; the package adds a machine-readable
datasheet toolchain, an exposure audit, a conformance harness, and
pin-level composition combinators.
"""

__version__ = "1.0.0"
