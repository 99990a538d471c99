import itertools
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vsensor.compose import debounce
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
    HighInterval,
    I2CTransaction,
    LogicLevel,
    PinTrace,
    Status,
    high_intervals,
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

    def test_constructor_rejects_times_not_strictly_increasing(self):
        with pytest.raises(ValueError, match="t=5 is not after"):
            PinTrace("x", LOW, [(5, HIGH), (5, LOW)])
        with pytest.raises(ValueError, match="t=3 is not after"):
            PinTrace("x", LOW, [(5, HIGH), (3, LOW)])

    def test_constructor_rejects_a_first_level_equal_to_the_initial_one(self):
        with pytest.raises(ValueError, match="t=5 does not change the level"):
            PinTrace("x", HIGH, [(5, HIGH)])

    def test_constructor_rejects_levels_that_do_not_alternate(self):
        with pytest.raises(ValueError, match="t=9 does not change the level"):
            PinTrace("x", LOW, [(5, HIGH), (7, LOW), (9, LOW)])
        with pytest.raises(ValueError, match="is not a valid LogicLevel"):
            PinTrace("x", LOW, [(5, 2)])

    def test_transitions_is_a_read_only_view_of_the_times(self):
        tr = PinTrace("x", HIGH, [(3, LOW), (8, HIGH)])
        assert tr.times == [3, 8]
        with pytest.raises(TypeError):
            tr.transitions[0] = (4, LOW)
        with pytest.raises(AttributeError):
            tr.transitions = []
        assert tr.transitions != [(3, LOW)] and tr.transitions != ((3, LOW), (8, HIGH))


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
        assert ivs[0].end - ivs[0].start == 5
        assert ivs[0] == HighInterval(5, 10) and ivs[0] != HighInterval(5, 10, True)
        assert not hasattr(ivs[0], "__dict__")  # slotted: a long trace keeps many

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


def _high_runs(trace, run_end):
    """``high_intervals`` read off the dense levels at -1 .. 70: each HIGH run
    [s, e), with an initial HIGH's run starting at 0, and a run still HIGH at
    70 closed at run_end (the last edge if None) when it starts by then."""
    levels = [trace.level_at(t) for t in range(-1, 71)]
    starts = [t for t in range(71) if levels[t + 1] > levels[t]]
    ends = [t for t in range(71) if levels[t + 1] < levels[t]]
    if levels[0]:
        starts.insert(0, 0)
    runs = [(s, e, False) for s, e in zip(starts, ends)]
    end = trace.last_time() if run_end is None else run_end
    if levels[-1] and end >= starts[-1]:
        runs.append((starts[-1], end, True))
    return runs


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_traces())
def test_high_intervals_are_the_dense_high_runs(trace):
    last = trace.last_time()
    for run_end in (None, last - 3, last, last + 3):
        got = [(iv.start, iv.end, iv.open_ended) for iv in high_intervals(trace, run_end)]
        assert got == _high_runs(trace, run_end)


def _alternating(initial, times):
    """The (time, level) pairs of edges at ``times`` from ``initial``, as a plain list."""
    pairs, level = [], initial
    for t in sorted(times):
        level = HIGH if level == LOW else LOW
        pairs.append((t, level))
    return pairs


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from([LOW, HIGH]), st.sets(st.integers(0, 60), max_size=12), st.data())
@example(LOW, set(), None)
@example(HIGH, {0}, None)
def test_transitions_view_matches_a_list_of_pairs(initial, times, data):
    pairs = _alternating(initial, times)
    trace = PinTrace("x", initial, pairs)
    view = trace.transitions
    assert len(view) == len(pairs) and bool(view) == bool(pairs)
    assert view == pairs and pairs == view and list(view) == pairs
    assert view == PinTrace("y", initial, pairs).transitions
    assert list(reversed(view)) == pairs[::-1]
    for k in range(-len(pairs), len(pairs)):
        assert view[k] == pairs[k] and type(view[k][1]) is LogicLevel
    for k in (len(pairs), -len(pairs) - 1):
        with pytest.raises(IndexError):
            view[k]
    cuts = [slice(1, None), slice(None, -1), slice(None, None, -1), slice(-3, None, 2)]
    if data is not None:
        cuts.append(data.draw(st.slices(len(pairs))))
    for cut in cuts:
        assert view[cut] == pairs[cut]

    last = pairs[-1][0] if pairs else 0
    for t in range(-1, last + 2):
        assert trace.level_at(t) == ([initial] + [lvl for at, lvl in pairs if at <= t])[-1], t
    assert trace.current_level() == (pairs[-1][1] if pairs else initial)
    assert trace.last_time() == (pairs[-1][0] if pairs else -1)
    assert trace.rising_edges() == [t for t, lvl in pairs if lvl == HIGH]

    level = trace.current_level()
    assert trace.append(last + 5, level) is False  # no-op: the level is in force
    assert view == pairs
    other = HIGH if level == LOW else LOW
    if pairs:
        with pytest.raises(BusError, match="time travel"):
            trace.append(last, other)
        assert view == pairs
    assert trace.append(last + 5, other) is True
    assert view == pairs + [(last + 5, other)]  # the view reads the live times


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
        bus.advance(3)  # the derived edge is at 3, so shown from clock 3
        assert bus.virtual_trace("derived").transitions == [(3, HIGH)]
        assert "derived" in bus.trace_csv()
        with pytest.raises(BusError, match="duplicate"):
            bus.add_virtual_line("src", compute)
        with pytest.raises(BusError, match="unknown virtual line 'nope'"):
            bus.trace("nope")

    def test_virtual_line_holds_no_edge_past_the_clock(self):
        bus = Bus()
        bus.add_line("L")
        bus.add_virtual_line("db", lambda b: debounce(b.trace("L"), 50))
        bus.advance(100)
        bus.drive("L", HIGH, 100)
        bus.advance(20)
        # the hold runs until 150, so at 120 the debounced HIGH is not out yet
        assert bus.virtual_trace("db").transitions == []
        bus.advance(10)
        bus.drive("L", LOW, 130)
        for _ in range(3):
            bus.advance(50)
            assert bus.virtual_trace("db").transitions == []
            assert "db" not in bus.trace_csv()


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
