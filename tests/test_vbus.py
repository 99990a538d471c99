import itertools
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vsensor.devkit import parse_exposure_csv, power_on
from vsensor.scenario import run_scenario
from vsensor.sensors import text_reader, voice_sensor_serial
from vsensor.vbus import (
    EXPOSURE_COLUMNS,
    HIGH,
    I2C_COLUMNS,
    LOW,
    TRACE_COLUMNS,
    Bus,
    BusError,
    Direction,
    ExposureRecord,
    I2CTransaction,
    PinTrace,
    Status,
    high_intervals,
    high_spans,
    trace_from_spans,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestPinTrace:
    def test_initial_level_before_first_transition(self):
        tr = PinTrace("x", HIGH)
        assert tr.level_at(0) == HIGH
        assert tr.level_at(10**9) == HIGH

    def test_append_and_level_at(self):
        tr = PinTrace("x")
        assert tr.append(5, HIGH) is True
        assert tr.append(10, LOW) is True
        assert tr.transitions == [(5, HIGH), (10, LOW)]
        assert tr.level_at(4) == LOW
        assert tr.level_at(5) == HIGH
        assert tr.level_at(9) == HIGH
        assert tr.level_at(10) == LOW

    def test_idempotent_drive(self):
        tr = PinTrace("x")
        tr.append(5, HIGH)
        assert tr.append(7, HIGH) is False
        assert tr.transitions == [(5, HIGH)]

    def test_time_travel_rejected(self):
        tr = PinTrace("x")
        tr.append(5, HIGH)
        with pytest.raises(BusError):
            tr.append(5, LOW)
        with pytest.raises(BusError):
            tr.append(4, LOW)

    def test_edges(self):
        tr = PinTrace("x")
        tr.append(5, HIGH)
        tr.append(10, LOW)
        tr.append(20, HIGH)
        assert tr.rising_edges() == [5, 20]
        assert [t for t, lvl in tr.transitions if lvl == LOW] == [10]


class TestHighIntervals:
    def test_closed_intervals(self):
        tr = PinTrace("x")
        tr.append(5, HIGH)
        tr.append(10, LOW)
        tr.append(20, HIGH)
        tr.append(25, LOW)
        ivs = high_intervals(tr)
        assert [(i.start, i.end, i.open_ended) for i in ivs] == [
            (5, 10, False),
            (20, 25, False),
        ]
        assert ivs[0].length == 5

    def test_open_ended_interval(self):
        tr = PinTrace("x")
        tr.append(5, HIGH)
        ivs = high_intervals(tr, run_end=100)
        assert [(i.start, i.end, i.open_ended) for i in ivs] == [(5, 100, True)]

    def test_initial_high(self):
        tr = PinTrace("x", HIGH)
        tr.append(7, LOW)
        assert [(i.start, i.end) for i in high_intervals(tr)] == [(0, 7)]


@st.composite
def _traces(draw):
    """A well-formed trace: either initial level, edges at distinct ms from 0."""
    trace = PinTrace("x", draw(st.sampled_from([LOW, HIGH])))
    for t in sorted(draw(st.sets(st.integers(0, 60), max_size=12))):
        trace.append(t, LOW if trace.current_level() == HIGH else HIGH)
    return trace


class TestHighSpans:
    def test_format(self):
        tr = PinTrace("x", HIGH, [(3, LOW), (5, HIGH), (9, LOW), (12, HIGH)])
        assert high_spans(tr) == [(None, 3), (5, 9), (12, None)]
        assert high_spans(PinTrace("x", LOW, [(0, HIGH), (4, LOW)])) == [(0, 4)]
        assert high_spans(PinTrace("x")) == []
        assert high_spans(PinTrace("x", HIGH)) == [(None, None)]

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(_traces())
    @example(PinTrace("x"))
    @example(PinTrace("x", HIGH))
    @example(PinTrace("x", LOW, [(0, HIGH)]))
    @example(PinTrace("x", HIGH, [(0, LOW)]))
    def test_trace_from_spans_inverts_high_spans(self, trace):
        back = trace_from_spans("y", high_spans(trace))
        assert back.line_id == "y"
        assert back.initial_level == trace.initial_level
        assert back.transitions == trace.transitions

    def test_overlapping_and_adjacent_spans_merge(self):
        spans = [(None, 2), (2, 4), (6, 9), (7, 8), (9, 11), (13, None), (15, 20)]
        tr = trace_from_spans("x", spans)
        assert tr.initial_level == HIGH
        assert tr.transitions == [(4, LOW), (6, HIGH), (11, LOW), (13, HIGH)]

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 60), st.integers(1, 15)), max_size=8),
        st.none() | st.integers(0, 30),
        st.booleans(),
    )
    def test_trace_from_spans_is_the_union(self, pieces, head_end, open_end):
        spans = sorted((s, s + n) for s, n in pieces)
        if head_end is not None:
            spans.insert(0, (None, head_end))
        if open_end and spans:
            spans[-1] = (spans[-1][0], None)
        trace = trace_from_spans("x", spans)
        for t in range(-1, 80):
            high = any((s is None or s <= t) and (e is None or t < e) for s, e in spans)
            assert trace.level_at(t) == (HIGH if high else LOW), t
        levels = [trace.initial_level] + [lvl for _, lvl in trace.transitions]
        assert all(a != b for a, b in zip(levels, levels[1:]))
        assert all(a < b for (a, _), (b, _) in zip(trace.transitions, trace.transitions[1:]))
        # merged: no two output spans overlap or touch
        out = high_spans(trace)
        assert all(e < s for (_, e), (s, _) in zip(out, out[1:]))


class TestBus:
    def test_advance_empty_bus(self):
        bus = Bus()
        bus.advance(100)
        assert bus.clock == 100

    def test_advance_zero_rejected(self):
        with pytest.raises(BusError, match="dt must be >= 1"):
            Bus().advance(0)

    def test_drive_unknown_line(self):
        with pytest.raises(BusError, match="unknown line"):
            Bus().drive("nope", HIGH, 0)

    def test_drive_before_clock_rejected(self):
        bus = Bus()
        bus.add_line("x")
        bus.advance(50)
        with pytest.raises(BusError, match="time travel"):
            bus.drive("x", HIGH, 49)

    def test_duplicate_line_rejected(self):
        bus = Bus()
        bus.add_line("x")
        with pytest.raises(BusError, match="duplicate"):
            bus.add_line("x")

    def test_stepper_cadence(self):
        bus = Bus()
        calls = []
        bus.attach_stepper(10, calls.append)
        bus.advance(35)
        assert calls == [10, 20, 30]
        bus.advance(5)
        assert calls == [10, 20, 30, 40]

    def test_cadence_below_one_rejected(self):
        with pytest.raises(BusError, match="cadence must be >= 1 ms"):
            Bus().attach_stepper(0, lambda t: None)

    def test_i2c_nack_on_free_address(self):
        bus = Bus()
        txn = bus.i2c_transfer(0x30, Direction.READ, 4)
        assert txn.status == Status.NACK
        assert txn.payload == b""

    def test_i2c_address_range(self):
        bus = Bus()
        with pytest.raises(BusError):
            bus.i2c_transfer(0x07, Direction.READ, 1)
        with pytest.raises(BusError):
            bus.attach_serial(0x78, object())

    def test_i2c_read_and_exposure(self):
        class Responder:
            def serial_read(self, n, at):
                return bytes(range(n))

        bus = Bus()
        bus.attach_serial(0x29, Responder())
        bus.advance(5)
        txn = bus.i2c_transfer(0x29, Direction.READ, 3)
        assert txn.status == Status.ACK
        assert txn.payload == b"\x00\x01\x02"
        assert bus.exposure_log == [(5, "SERIAL", "0x29", 24)]

    def test_i2c_write_logs_exposure_even_on_nack(self):
        bus = Bus()
        bus.advance(7)
        txn = bus.i2c_transfer(0x55, Direction.WRITE, b"secret")
        assert txn.status == Status.NACK
        assert bus.exposure_log == [(7, "SERIAL", "0x55", 48)]

    def test_i2c_write_to_device_without_serial_write(self):
        bus = Bus()
        power_on(text_reader(), bus, {"VDD": "vdd", "GND": "gnd"})
        bus.advance(3)
        txn = bus.i2c_transfer(0x29, Direction.WRITE, b"\x01")
        # register maps are read-only: the write is NACKed and logged as one
        # row, and the byte that crossed the wire is still an emission
        assert bus.i2c_log == [txn] == [(3, 0x29, Direction.WRITE, Status.NACK, b"")]
        assert bus.exposure_log == [(3, "SERIAL", "0x29", 8)]

    def test_i2c_short_response_rejected(self):
        class Bad:
            def serial_read(self, n, at):
                return b"\x00"

        bus = Bus()
        bus.attach_serial(0x29, Bad())
        with pytest.raises(BusError, match="expected 4"):
            bus.i2c_transfer(0x29, Direction.READ, 4)

    def test_address_conflict(self):
        bus = Bus()
        bus.attach_serial(0x29, object())
        with pytest.raises(BusError, match="occupied"):
            bus.attach_serial(0x29, object())

    def test_trace_csv_shape(self):
        bus = Bus()
        bus.add_line("b")
        bus.add_line("a")
        bus.drive("a", HIGH, 3)
        bus.drive("b", HIGH, 3)
        csv = bus.trace_csv()
        assert csv.splitlines() == ["time_ms,line_id,level", "3,a,1", "3,b,1"]
        assert csv.endswith("\n")

    def test_virtual_line(self):
        bus = Bus()
        bus.add_line("src")
        bus.drive("src", HIGH, 2)

        def compute(b):
            tr = PinTrace("?")
            for t, lvl in b.trace("src").transitions:
                tr.append(t + 1, lvl)
            return tr

        bus.add_virtual_line("derived", compute)
        assert bus.virtual_trace("derived").transitions == [(3, HIGH)]
        assert "derived" in bus.trace_csv()
        with pytest.raises(BusError, match="duplicate"):
            bus.add_virtual_line("src", compute)
        with pytest.raises(BusError, match="unknown virtual line 'nope'"):
            bus.trace("nope")


# A stepper: (cadence_ms, lead_ms, pattern).  At its k-th call, time t, it
# drives its own line to pattern[k % len(pattern)] at t + lead_ms; a
# non-zero lead dates the edge past the clock, as the tap devices do.
_STEPPER = st.tuples(
    st.integers(1, 40),
    st.integers(0, 30),
    st.lists(st.sampled_from([LOW, HIGH]), min_size=1, max_size=4),
)


@st.composite
def _runs(draw):
    steppers = draw(st.lists(_STEPPER, min_size=1, max_size=4))
    total = draw(st.integers(1, 400))
    cuts = draw(st.lists(st.integers(1, max(1, total - 1)), max_size=12, unique=True))
    bounds = [0] + sorted(c for c in cuts if c < total) + [total]
    splits = [b - a for a, b in zip(bounds, bounds[1:])]
    return steppers, total, splits


def _simulate(steppers, splits):
    bus = Bus()
    calls = []

    def make(i, lead, pattern):
        levels = itertools.cycle(pattern)

        def step(t):
            calls.append((t, i))
            bus.drive(f"l{i}", next(levels), t + lead)

        return step

    for i, (cadence, lead, pattern) in enumerate(steppers):
        bus.add_line(f"l{i}")
        bus.attach_stepper(cadence, make(i, lead, pattern))
    for dt in splits:
        bus.advance(dt)
    traces = {lid: list(tr.transitions) for lid, tr in bus.lines.items()}
    return traces, calls, bus.clock


class TestAdvanceProperties:
    @settings(max_examples=150, deadline=None)
    @given(_runs())
    def test_split_independence(self, run):
        steppers, total, splits = run
        traces, calls, clock = _simulate(steppers, splits)
        whole_traces, whole_calls, _ = _simulate(steppers, [total])
        assert clock == total
        assert traces == whole_traces
        assert calls == whole_calls
        # steppers run in time order, ties in attach order
        expected_calls = sorted(
            (k * cadence, i)
            for i, (cadence, _, _) in enumerate(steppers)
            for k in range(1, total // cadence + 1)
        )
        assert calls == expected_calls

    def test_same_ms_steppers_run_in_attach_order(self):
        bus = Bus()
        calls = []
        bus.attach_stepper(10, lambda t: calls.append(("slow", t)))
        bus.attach_stepper(5, lambda t: calls.append(("fast", t)))
        bus.attach_stepper(10, lambda t: calls.append(("late", t)))
        bus.advance(20)
        assert calls == [
            ("fast", 5),
            ("slow", 10), ("fast", 10), ("late", 10),
            ("fast", 15),
            ("slow", 20), ("fast", 20), ("late", 20),
        ]


def test_run_doc_records_match_csv_columns():
    """Each run.json record has its CSV's columns, in order, with the same values."""
    doc = json.loads((FIXTURES / "all_kinds_scenario.json").read_text())
    bus = run_scenario(doc).bus
    run = bus.run_doc()
    # each column tuple is its row type's fields
    assert ExposureRecord._fields == EXPOSURE_COLUMNS == ("time_ms", "channel", "detail", "bits")
    assert I2CTransaction._fields == ("time_ms", "address", "direction", "status", "payload")
    assert I2C_COLUMNS == (*I2CTransaction._fields[:-1], "payload_hex")

    header, *rows = bus.trace_csv().splitlines()
    assert header.split(",") == list(TRACE_COLUMNS)
    transitions = [f"{t},{lid},{lvl}" for lid, trace in run["traces"].items()
                   for t, lvl in trace["transitions"]]
    assert sorted(rows) == sorted(transitions) and rows

    header, *rows = bus.i2c_csv().splitlines()
    assert header.split(",") == list(I2C_COLUMNS)
    assert len(rows) == len(run["i2c"]) > 0
    for row, rec in zip(rows, run["i2c"]):
        assert list(rec) == list(I2C_COLUMNS)
        rec = {**rec, "address": f"0x{rec['address']:02x}"}
        assert row.split(",") == [str(v) for v in rec.values()]

    header, *rows = bus.exposure_csv().splitlines()
    assert header.split(",") == list(EXPOSURE_COLUMNS)
    records = sorted(run["exposure"], key=lambda r: (r["time_ms"], r["channel"], r["detail"]))
    assert len(rows) == len(records) > 0
    for row, rec in zip(rows, records):
        assert list(rec) == list(EXPOSURE_COLUMNS)
        assert row.split(",") == [str(v) for v in rec.values()]


# A transfer: (ms to advance first, address, direction, n to read, bytes to
# write).  0x29 is a text reader, 0x2a a serial voice sensor, 0x30 is free.
_TRANSFER = st.tuples(
    st.integers(0, 300),
    st.sampled_from([0x29, 0x2A, 0x30]),
    st.sampled_from(list(Direction)),
    st.integers(0, 12),
    st.binary(max_size=12),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_TRANSFER, max_size=20))
def test_run_record_logs_one_i2c_row_per_transfer(transfers):
    bus = Bus()
    power_on(text_reader(0x29), bus, {"VDD": "vdd", "GND": "gnd"})
    power_on(voice_sensor_serial(address=0x2A), bus, {"VDD": "vdd", "GND": "gnd"})
    bus.add_line("x")  # PIN records to interleave with the SERIAL ones
    bus.attach_stepper(70, lambda t: bus.drive("x", t // 70 % 2, t)
                       and bus.record_pin_exposure(t, "x"))
    for dt, address, direction, n, data in transfers:
        if dt:
            bus.advance(dt)
        bus.i2c_transfer(address, direction, n if direction == Direction.READ else data)

    assert len(bus.i2c_log) == len(transfers)
    bits = []
    for txn, (_, address, direction, n, data) in zip(bus.i2c_log, transfers):
        acked = direction == Direction.READ and address != 0x30
        assert (txn.address, txn.direction) == (address, direction)
        assert txn.status == (Status.ACK if acked else Status.NACK)
        assert len(txn.payload) == (n if acked else 0)
        bits.append(8 * (len(data) if direction == Direction.WRITE else n if acked else 0))
    serial = [r for r in bus.exposure_log if r.channel == "SERIAL"]
    assert [r.bits for r in serial] == [b for b in bits if b]
    rows = {(txn.time_ms, f"0x{txn.address:02x}") for txn in bus.i2c_log}
    assert all((r.time_ms, r.detail) in rows for r in serial)

    # the CSV and JSON encodings agree, and the exposure CSV parses back
    run = bus.run_doc()
    _, *rows = bus.i2c_csv().splitlines()
    assert rows == [",".join(map(str, {**rec, "address": f"0x{rec['address']:02x}"}.values()))
                    for rec in run["i2c"]]
    _, *rows = bus.exposure_csv().splitlines()
    records = sorted(run["exposure"], key=lambda rec: tuple(rec.values()))
    assert rows == [",".join(map(str, rec.values())) for rec in records]
    assert parse_exposure_csv(bus.exposure_csv()) == sorted(bus.exposure_log)
