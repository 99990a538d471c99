"""Discrete-time virtual hardware substrate.

Logic lines with recorded transition traces, a simplified atomic I2C
transaction channel, and a millisecond simulation clock.  A Bus is
single-owner: it is stepped from one caller and never shared between
threads.  Time is integer milliseconds since power-on.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from operator import itemgetter
from typing import Callable, NamedTuple

_time_of = itemgetter(0)


class LogicLevel(IntEnum):
    LOW = 0
    HIGH = 1


LOW = LogicLevel.LOW
HIGH = LogicLevel.HIGH

I2C_ADDRESS_MIN = 0x08
I2C_ADDRESS_MAX = 0x77
# a SERIAL exposure record's detail per address, one shared string each
_ADDRESS_DETAIL = tuple(f"0x{a:02x}" for a in range(I2C_ADDRESS_MAX + 1))


class Direction(Enum):
    READ = "read"
    WRITE = "write"


class Status(Enum):
    ACK = "ack"
    NACK = "nack"


class BusError(Exception):
    """Raised on misuse of the bus (unknown line, time travel, bad dt)."""


@dataclass
class HighInterval:
    """Half-open interval [start, end) during which a line was HIGH."""

    start: int
    end: int
    open_ended: bool = False

    @property
    def length(self) -> int:
        return self.end - self.start


class I2CTransaction(NamedTuple):
    """One I2C transfer: a row of the run record's I2C log."""

    time_ms: int
    address: int
    direction: Direction
    status: Status
    payload: bytes


class ExposureRecord(NamedTuple):
    """One device emission crossing the isolation boundary: a row of the
    run record's exposure log."""

    time_ms: int
    channel: str  # "PIN" or "SERIAL"
    detail: str  # line_id for PIN, hex address for SERIAL
    bits: int


# column names of the run encoders: CSV headers and JSON record fields
TRACE_COLUMNS = ("time_ms", "line_id", "level")
I2C_COLUMNS = tuple("payload_hex" if f == "payload" else f for f in I2CTransaction._fields)
EXPOSURE_COLUMNS = ExposureRecord._fields


@dataclass
class PinTrace:
    """Time-ordered logic-level transitions on one named line.

    Transitions are strictly increasing in time and alternate levels;
    the level before the first transition is ``initial_level``.  ``append``
    is the one checked way to add a transition.  A transition list passed
    to the constructor is taken as it is, so it must already hold this
    invariant, with the first level differing from ``initial_level`` and
    every level a ``LogicLevel``.
    """

    line_id: str
    initial_level: LogicLevel = LOW
    transitions: list[tuple[int, LogicLevel]] = field(default_factory=list)

    def level_at(self, t: int) -> LogicLevel:
        """Level in force at time t (last transition at or before t)."""
        i = bisect.bisect_right(self.transitions, t, key=_time_of)
        if i == 0:
            return self.initial_level
        return self.transitions[i - 1][1]

    def last_time(self) -> int:
        return self.transitions[-1][0] if self.transitions else -1

    def current_level(self) -> LogicLevel:
        return self.transitions[-1][1] if self.transitions else self.initial_level

    def append(self, t: int, level: LogicLevel) -> bool:
        """Record the line being driven to ``level`` at time ``t``.

        Returns True if a transition was appended, False if the drive was
        an idempotent no-op.  Raises BusError when t precedes the last
        recorded transition.
        """
        level = LogicLevel(level)
        if level == self.current_level():
            return False
        if self.transitions and t <= self.transitions[-1][0]:
            raise BusError(
                f"time travel: drive on {self.line_id!r} at t={t} not after "
                f"last transition t={self.transitions[-1][0]}"
            )
        self.transitions.append((t, level))
        return True

    def rising_edges(self) -> list[int]:
        # levels alternate, so the HIGHs are every other transition, from
        # the first one when the line starts LOW and the second when HIGH
        return [t for t, _ in self.transitions[int(self.initial_level)::2]]


def high_spans(trace: PinTrace) -> list[tuple[int | None, int | None]]:
    """Half-open [s, e) HIGH spans, the package's one HIGH-span format.

    ``s`` is None for the span a HIGH initial level opens, ``e`` None for a
    span still open at the end.  Levels alternate, so a HIGH opens a span
    and a LOW closes it.  ``trace_from_spans`` is the inverse.
    """
    bounds: list[int | None] = [t for t, _ in trace.transitions]
    if trace.initial_level == HIGH:
        bounds.insert(0, None)
    if len(bounds) % 2:
        bounds.append(None)
    return list(zip(bounds[::2], bounds[1::2]))


def trace_from_spans(line_id: str, spans: list[tuple[int | None, int | None]]) -> PinTrace:
    """The trace that is HIGH exactly on ``spans``, the inverse of ``high_spans``.

    ``spans`` are in ``high_spans`` format, sorted by start; overlapping and
    adjacent spans merge.
    """
    bounds: list[int | None] = []  # s0, e0, s1, e1, ... of the merged spans
    end = None  # bounds[-1]
    for s, e in spans:
        if not bounds or (end is not None and s > end):
            bounds += (s, e)
            end = e
        elif end is not None and (e is None or e > end):
            bounds[-1] = end = e
    initial = HIGH if bounds and bounds[0] is None else LOW
    levels = itertools.cycle((LOW, HIGH) if initial == HIGH else (HIGH, LOW))
    times = [t for t in bounds if t is not None]
    return PinTrace(line_id, initial, list(zip(times, levels)))


def high_intervals(trace: PinTrace, run_end: int | None = None) -> list[HighInterval]:
    """``high_spans`` as intervals.  An initial HIGH starts at 0; a span still
    open at the end closes at ``run_end`` (default: the last transition time)
    and is flagged open-ended."""
    end = trace.last_time() if run_end is None else run_end
    out = []
    for s, e in high_spans(trace):
        s = 0 if s is None else s
        if e is not None or end >= s:
            out.append(HighInterval(s, e) if e is not None else HighInterval(s, end, True))
    return out


def _csv(columns: tuple[str, ...], rows) -> str:
    """A header line of ``columns``, then the formatted ``rows``, LF-ended."""
    return "\n".join([",".join(columns), *rows]) + "\n"


class Bus:
    """Single-threaded simulation bus: lines, serial responders, clock."""

    def __init__(self) -> None:
        self.clock: int = 0
        self.lines: dict[str, PinTrace] = {}
        self.serial_responders: dict[int, object] = {}
        self.exposure_log: list[ExposureRecord] = []
        self.i2c_log: list[I2CTransaction] = []
        self.virtual_lines: dict[str, Callable[["Bus"], PinTrace]] = {}
        # per stepper: cadence, step callback, next-due callback, attach clock
        self._steppers: list[tuple[int, Callable[[int], None],
                                   Callable[[], int | None] | None, int]] = []
        # (due_ms, attach index): steppers due together run in attach order.
        # An entry whose time is not its stepper's _armed time is stale: the
        # stepper was stepped or re-armed sooner since, and the entry is dropped.
        self._due: list[tuple[int, int]] = []
        self._armed: list[int | None] = []  # per stepper: its due time, None when parked
        # the last step begun, (time, attach index): the steps at or before it
        # in (time, index) order have run; (clock, inf) between advances
        self._stepped: tuple[int, float] = (0, math.inf)

    # -- lines -----------------------------------------------------------

    def add_line(self, line_id: str, initial_level: LogicLevel = LOW) -> PinTrace:
        if line_id in self.lines:
            raise BusError(f"duplicate line {line_id!r}")
        trace = PinTrace(line_id, initial_level)
        self.lines[line_id] = trace
        return trace

    def drive(self, line_id: str, level: LogicLevel, at: int) -> bool:
        """Drive a line; returns True when a transition was recorded."""
        if line_id not in self.lines:
            raise BusError(f"unknown line {line_id!r}")
        if at < self.clock:
            raise BusError(f"time travel: drive at t={at} < clock={self.clock}")
        return self.lines[line_id].append(at, level)

    # -- devices ---------------------------------------------------------

    def attach_stepper(self, cadence_ms: int, fn: Callable[[int], None],
                       next_due: Callable[[], int | None] | None = None) -> int:
        """Register ``fn(t)``, stepped at multiples t of cadence_ms after the
        clock; returns the stepper's handle for ``wake``.

        Without ``next_due`` the stepper runs at every tick.  With it, the bus
        asks ``next_due()`` on attaching and after each step when the stepper
        next has work: it runs at its first tick at or after that time (a time
        already past means its next tick), and None parks it until ``wake``.
        """
        if cadence_ms < 1:
            raise BusError("cadence must be >= 1 ms")
        handle = len(self._steppers)
        self._steppers.append((cadence_ms, fn, next_due, self.clock))
        self._armed.append(None)
        at = self.clock if next_due is None else next_due()
        if at is not None:
            self.wake(handle, at)
        return handle

    def wake(self, handle: int, at: int) -> None:
        """Make a stepper due at its first tick at or after ``at`` that has not
        run yet, unless it is due sooner already."""
        cadence, _, _, attached = self._steppers[handle]
        t, i = self._stepped
        # ticks up to t have run, and at t too for the steppers up to i;
        # a stepper never runs at or before the clock it was attached at
        start = max(at, attached + 1, t + (handle <= i))
        tick = -(-start // cadence) * cadence
        armed = self._armed[handle]
        if armed is None or tick < armed:
            self._armed[handle] = tick
            heapq.heappush(self._due, (tick, handle))

    def attach_serial(self, address: int, responder: object) -> None:
        if not (I2C_ADDRESS_MIN <= address <= I2C_ADDRESS_MAX):
            raise BusError(f"address 0x{address:02x} outside [0x08, 0x77]")
        if address in self.serial_responders:
            raise BusError(f"address 0x{address:02x} already occupied")
        self.serial_responders[address] = responder

    # -- time ------------------------------------------------------------

    def advance(self, dt: int) -> None:
        """Advance the clock by dt ms, running each stepper due up to the new
        clock in (time, attach index) order; a parked stepper is not run."""
        if dt < 1:
            raise BusError("dt must be >= 1")
        end = self.clock + dt
        due, armed = self._due, self._armed
        while due and due[0][0] <= end:
            t, i = heapq.heappop(due)
            if armed[i] != t:
                continue  # stale entry
            cadence, fn, next_due, _ = self._steppers[i]
            # popped and unarmed before the step, so a wake during it re-arms
            armed[i] = None
            self.clock, self._stepped = t, (t, i)
            try:
                fn(t)
            except BaseException:
                armed[i] = t  # a stepper that raises stays due at t
                heapq.heappush(due, (t, i))
                raise
            at = t + cadence if next_due is None else next_due()
            if at is not None:
                self.wake(i, at)
        self.clock, self._stepped = end, (end, math.inf)

    # -- serial ----------------------------------------------------------

    def i2c_transfer(
        self, address: int, direction: Direction, n_or_bytes: int | bytes
    ) -> I2CTransaction:
        """Atomic I2C transaction, logged as one row.

        Register maps are read-only, so a write is NACKed at any address, as
        is any transfer to a free address; a NACK is not an error.  Every
        payload byte that crosses the wire is an emission: serviced reads
        and write attempts both enter the exposure log.
        """
        if not (I2C_ADDRESS_MIN <= address <= I2C_ADDRESS_MAX):
            raise BusError(f"address 0x{address:02x} outside [0x08, 0x77]")
        responder = self.serial_responders.get(address)
        payload, status, bits = b"", Status.NACK, 0
        if direction == Direction.WRITE:
            bits = 8 * len(n_or_bytes)
        elif responder is not None:
            payload = bytes(responder.serial_read(n_or_bytes, self.clock))
            if len(payload) != n_or_bytes:
                raise BusError(
                    f"responder at 0x{address:02x} returned {len(payload)} "
                    f"bytes, expected {n_or_bytes}"
                )
            status, bits = Status.ACK, 8 * n_or_bytes
        if bits:
            self.exposure_log.append(
                ExposureRecord(self.clock, "SERIAL", _ADDRESS_DETAIL[address], bits)
            )
        txn = I2CTransaction(self.clock, address, direction, status, payload)
        self.i2c_log.append(txn)
        return txn

    def record_pin_exposure(self, at: int, line_id: str) -> None:
        self.exposure_log.append(ExposureRecord(at, "PIN", line_id, 1))

    # -- virtual lines ---------------------------------------------------

    def add_virtual_line(
        self, line_id: str, compute: Callable[["Bus"], PinTrace]
    ) -> None:
        if line_id in self.lines or line_id in self.virtual_lines:
            raise BusError(f"duplicate line {line_id!r}")
        self.virtual_lines[line_id] = compute

    def virtual_trace(self, line_id: str) -> PinTrace:
        """The line computed over the live traces, cut at the clock: an edge
        the computation dates later (a debounce hold still running) is not
        shown until the clock reaches it, and is gone if the input changes
        first."""
        if line_id not in self.virtual_lines:
            raise BusError(f"unknown virtual line {line_id!r}")
        trace = self.virtual_lines[line_id](self)
        seen = bisect.bisect_right(trace.transitions, self.clock, key=_time_of)
        return PinTrace(line_id, trace.initial_level, trace.transitions[:seen])

    def trace(self, line_id: str) -> PinTrace:
        """Real or virtual trace by line id."""
        if line_id in self.lines:
            return self.lines[line_id]
        return self.virtual_trace(line_id)

    # -- run encoders ----------------------------------------------------

    def traces(self) -> dict[str, PinTrace]:
        """Every real trace, then every virtual one (computed once) by id."""
        virtual = {lid: self.virtual_trace(lid) for lid in sorted(self.virtual_lines)}
        return {**self.lines, **virtual}

    def trace_csv(self) -> str:
        """CSV of TRACE_COLUMNS, sorted by (time, line)."""
        rows = [(t, lid, int(lvl)) for lid, trace in self.traces().items()
                for t, lvl in trace.transitions]
        rows.sort()
        return _csv(TRACE_COLUMNS, [f"{t},{lid},{lvl}" for t, lid, lvl in rows])

    def exposure_csv(self) -> str:
        """CSV of EXPOSURE_COLUMNS, sorted by row: time, channel, detail, bits."""
        return _csv(EXPOSURE_COLUMNS, (
            f"{t},{channel},{detail},{bits}"
            for t, channel, detail, bits in sorted(self.exposure_log)
        ))

    def i2c_csv(self) -> str:
        """CSV of I2C_COLUMNS in log order."""
        return _csv(I2C_COLUMNS, (
            f"{t},0x{address:02x},{direction.value},{status.value},{payload.hex()}"
            for t, address, direction, status, payload in self.i2c_log
        ))

    def run_doc(self) -> dict:
        """The run as one JSON document; I2C and exposure lists in log order."""
        return {
            "traces": {
                lid: {
                    "initial_level": int(trace.initial_level),
                    "transitions": [[t, int(lvl)] for t, lvl in trace.transitions],
                }
                for lid, trace in self.traces().items()
            },
            "i2c": [
                dict(zip(I2C_COLUMNS, (t, address, direction.value, status.value, payload.hex())))
                for t, address, direction, status, payload in self.i2c_log
            ],
            "exposure": [r._asdict() for r in self.exposure_log],
        }
