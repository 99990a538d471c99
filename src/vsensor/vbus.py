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
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import NamedTuple


class LogicLevel(IntEnum):
    LOW = 0
    HIGH = 1


LOW = LogicLevel.LOW
HIGH = LogicLevel.HIGH
_LEVELS = (LOW, HIGH)  # indexed by level

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


@dataclass(slots=True)
class HighInterval:
    """Half-open interval [start, end) during which a line was HIGH."""

    start: int
    end: int
    open_ended: bool = False


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


class Transitions(Sequence):
    """A trace's edges as read-only ``(time, level)`` pairs, derived from its
    times: O(1) length, truth and indexing, and equal to the list it yields."""

    __slots__ = ("_times", "_levels")

    def __init__(self, times: list[int], initial_level: LogicLevel) -> None:
        # edge k leaves the initial level flipped k + 1 times
        self._times, self._levels = times, (_LEVELS[1 - initial_level], _LEVELS[initial_level])

    def __len__(self) -> int:
        return len(self._times)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self._times)))]
        return self._times[k], self._levels[(k % len(self._times)) & 1]

    def __iter__(self):
        return zip(self._times, itertools.cycle(self._levels))

    def __eq__(self, other) -> bool:
        return list(self) == (list(other) if isinstance(other, Transitions) else other)


@dataclass(init=False)
class PinTrace:
    """One named line: its ``initial_level`` and the strictly increasing
    ``times`` of its edges, so levels alternate by construction.  ``append``
    is the one checked way to add an edge; ``transitions`` views the edges as
    ``(time, level)`` pairs.  The constructor raises ValueError for
    ``transitions`` that are not strictly increasing or repeat a level.
    """

    line_id: str
    initial_level: LogicLevel
    times: list[int]

    def __init__(self, line_id: str, initial_level: LogicLevel = LOW, transitions=()) -> None:
        self.line_id, self.initial_level, self.times = line_id, LogicLevel(initial_level), []
        for t, level in transitions:
            if self.times and t <= self.times[-1]:
                raise ValueError(f"{line_id!r}: transition at t={t} is not after the one before it")
            if not self.append(t, level):
                raise ValueError(f"{line_id!r}: transition at t={t} does not change the level")

    @property
    def transitions(self) -> Transitions:
        return Transitions(self.times, self.initial_level)

    def level_at(self, t: int) -> LogicLevel:
        """Level in force at time t (last transition at or before t)."""
        return _LEVELS[self.initial_level ^ (bisect.bisect_right(self.times, t) & 1)]

    def last_time(self) -> int:
        return self.times[-1] if self.times else -1

    def current_level(self) -> LogicLevel:
        return _LEVELS[self.initial_level ^ (len(self.times) & 1)]

    def append(self, t: int, level: LogicLevel) -> bool:
        """Record the line being driven to ``level`` at time ``t``.

        Returns True if a transition was appended, False if the drive was
        an idempotent no-op.  Raises BusError when t precedes the last
        recorded transition.
        """
        if LogicLevel(level) == self.current_level():
            return False
        if self.times and t <= self.times[-1]:
            raise BusError(
                f"time travel: drive on {self.line_id!r} at t={t} not after "
                f"last transition t={self.times[-1]}"
            )
        self.times.append(t)
        return True

    def rising_edges(self) -> list[int]:
        # levels alternate: the HIGHs are every other edge, from edge initial_level
        return self.times[self.initial_level::2]


def _from_times(line_id: str, initial_level: LogicLevel, times: list[int]) -> PinTrace:
    """The trace of ``times``, which the caller builds strictly increasing."""
    trace = PinTrace(line_id, initial_level)
    trace.times = times
    return trace


def high_intervals(trace: PinTrace, run_end: int | None = None) -> list[HighInterval]:
    """The trace's HIGH spans, the package's one HIGH-span form.  An initial
    HIGH starts at 0; a span still open at the end closes at ``run_end``
    (default: the last transition time) and is flagged open-ended."""
    times, lead = trace.times, trace.initial_level
    end = trace.last_time() if run_end is None else run_end
    out = [HighInterval(0, times[0])] if lead and times else []
    out += map(HighInterval, times[lead::2], times[lead + 1::2])
    start = times[-1] if times else 0
    if trace.current_level() and end >= start:
        out.append(HighInterval(start, end, True))
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
                                   Callable[[], int | None], int]] = []
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
                       next_due: Callable[[], int | None] = lambda: 0) -> int:
        """Register ``fn(t)``, stepped at multiples t of cadence_ms after the
        clock; returns the stepper's handle for ``wake``.

        The bus asks ``next_due()`` on attaching and after each step when the
        stepper next has work: it runs at its first tick at or after that time
        (a time already past, as the default 0 is, means its next tick), and
        None parks it until ``wake``.
        """
        if cadence_ms < 1:
            raise BusError("cadence must be >= 1 ms")
        handle = len(self._steppers)
        self._steppers.append((cadence_ms, fn, next_due, self.clock))
        self._armed.append(None)
        at = next_due()
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
            _, fn, next_due, _ = self._steppers[i]
            # popped and unarmed before the step, so a wake during it re-arms
            armed[i] = None
            self.clock, self._stepped = t, (t, i)
            try:
                fn(t)
            except BaseException:
                armed[i] = t  # a stepper that raises stays due at t
                heapq.heappush(due, (t, i))
                raise
            at = next_due()
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
        first.  Each call recomputes the line from its inputs' whole traces, in
        O(edges) time, so polling it at every tick costs O(ticks × edges)."""
        if line_id not in self.virtual_lines:
            raise BusError(f"unknown virtual line {line_id!r}")
        trace = self.virtual_lines[line_id](self)
        seen = bisect.bisect_right(trace.times, self.clock)
        return _from_times(line_id, trace.initial_level, trace.times[:seen])

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
        rows = sorted((t, lid, int(lvl)) for lid, trace in self.traces().items()
                      for t, lvl in trace.transitions)
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
