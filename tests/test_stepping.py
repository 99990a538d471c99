"""Event-driven stepping: a device with nothing due is parked, not stepped.

A parked run must give the same trace, I2C and exposure CSVs as the same
run with every device stepped at every tick, which is what each kind's
``_idle`` returning False gives.
"""

import json
from contextlib import ExitStack, contextmanager
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsensor import sensors
from vsensor.devkit import power_on
from vsensor.scenario import KINDS, _build_device, _default_wiring, _feed_stimulus, run_scenario
from vsensor.vbus import Bus, BusError, Direction

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# the classes that declare when their devices are idle
IDLE_CLASSES = [c for c in vars(sensors).values() if isinstance(c, type) and "_idle" in vars(c)]


@contextmanager
def stepping_every_tick():
    """Every device kind reports itself busy, so no device is parked."""
    with ExitStack() as stack:
        for cls in IDLE_CLASSES:
            stack.enter_context(patch.object(cls, "_idle", lambda self: False))
        yield


@contextmanager
def counting_steps():
    """A dict whose "steps" counts every device ``_step`` call."""
    count = {"steps": 0}
    with ExitStack() as stack:
        for cls in {type(factory()) for factory in KINDS.values()}:
            def step(self, t, port, inner=cls._step):
                count["steps"] += 1
                return inner(self, t, port)
            stack.enter_context(patch.object(cls, "_step", step))
        yield count


def test_every_kind_declares_idleness():
    for factory in KINDS.values():
        device = factory()
        assert device._idle()  # freshly built: nothing asserted, no run in progress
        with stepping_every_tick():
            assert not device._idle()


# -- parked runs equal runs stepped at every tick ------------------------------

DURATION = 1500
# off-grid times, plus a few that collide with each other and with ticks
_AT = st.one_of(st.integers(0, DURATION), st.sampled_from([0, 100, 105]))
_SCENE = st.fixed_dictionaries({
    "modality": st.just("scene"), "at": _AT, "count": st.integers(1, 3),
    "every_ms": st.sampled_from([30, 100, 130, 250]),
    "params": st.sampled_from([{"person_present": False}, {"person_present": True},
                               {"person_present": True, "facing_camera": True}]),
})
_AUDIO = st.fixed_dictionaries({
    "modality": st.just("audio"), "at": _AT,
    "script": st.lists(st.tuples(st.sampled_from(["on", "off"]), st.integers(0, 400)),
                       max_size=2),
})
STIMULI = {
    "PERSON": _SCENE,
    "GAZE": _SCENE,
    "TAP": st.fixed_dictionaries({
        "modality": st.just("imu"), "at": _AT, "duration_ms": st.just(600),
        "taps": st.lists(st.integers(0, 550), max_size=2),
    }),
    "VOICE_PIN": _AUDIO,
    "VOICE_SERIAL": _AUDIO,
    "TEXT_READER": st.fixed_dictionaries({
        "modality": st.just("display"), "at": _AT, "count": st.integers(1, 2),
        "every_ms": st.sampled_from([100, 250]), "reading": st.sampled_from(["12.5", "-3", "0"]),
    }),
}
_POLICY = st.fixed_dictionaries({
    "frame_period_ms": st.sampled_from([50, 100]),
    "rise_frames": st.integers(1, 3), "fall_frames": st.integers(1, 3),
})
CONFIGS = {"PERSON": st.fixed_dictionaries({"policy": _POLICY}),
           "GAZE": st.fixed_dictionaries({"policy": _POLICY}),
           "TAP": st.fixed_dictionaries({"pulse_ms": st.sampled_from([30, 120])})}
READS = {"VOICE_SERIAL": (0x2A, 2), "TEXT_READER": (0x29, 8)}
_CLOCK = st.one_of(st.just(0), st.integers(0, DURATION - 1))


@st.composite
def runs(draw):
    """All six kinds; feeds at clock 0 or later (dated before or after the
    clock), serial reads and clock cuts."""
    configs = {kind: draw(CONFIGS.get(kind, st.just({}))) for kind in KINDS}
    feeds = [(clock, kind, spec) for kind in KINDS
             for clock, spec in draw(st.lists(st.tuples(_CLOCK, STIMULI[kind]), max_size=2))]
    reads = draw(st.lists(st.tuples(st.integers(1, DURATION), st.sampled_from(sorted(READS))),
                          max_size=4))
    cuts = draw(st.lists(st.integers(1, DURATION - 1), max_size=6))
    return configs, feeds, reads, cuts


def simulate(configs, feeds, reads, cuts):
    """The three CSVs of the run, and the bus error that ended it, if any."""
    bus = Bus()
    devices = {}
    for kind, config in configs.items():
        device = _build_device({"kind": kind, "config": config, "params": None})
        power_on(device, bus, _default_wiring(kind, device))
        devices[kind] = device
    error = None
    try:
        for point in sorted({0, *cuts, *(c for c, _, _ in feeds), *(r for r, _ in reads)}):
            if point > bus.clock:
                bus.advance(point - bus.clock)
            for j, (clock, kind, spec) in enumerate(feeds):
                if clock == point:
                    _feed_stimulus(devices[kind], spec, j)
            for at, kind in reads:
                if at == point:
                    bus.i2c_transfer(READS[kind][0], Direction.READ, READS[kind][1])
        if bus.clock < DURATION:
            bus.advance(DURATION - bus.clock)
    except BusError as e:  # a pulse dated before the line's last edge, in both runs
        error = str(e)
    return bus.trace_csv(), bus.i2c_csv(), bus.exposure_csv(), error


@settings(max_examples=25, deadline=None, derandomize=True)
@given(runs())
def test_parked_run_equals_run_stepped_every_tick(run):
    parked = simulate(*run)
    with stepping_every_tick():
        every_tick = simulate(*run)
    assert parked == every_tick


# -- step counts ------------------------------------------------------------------


def test_all_kinds_fixture_step_count():
    # 608 steps when every device steps at every tick of the 4 s run
    doc = json.loads((FIXTURES / "all_kinds_scenario.json").read_text())
    with counting_steps() as count:
        run_scenario(doc)
    # a detector left holding an unread frame is not idle, so it takes one
    # more frameless step than one that read that frame at once would
    assert count["steps"] == 86
    with stepping_every_tick(), counting_steps() as count:
        run_scenario(doc)
    assert count["steps"] == 608


# -- the bus's stepper schedule -------------------------------------------------------


class TestWake:
    def test_parked_stepper_runs_only_when_woken(self):
        bus = Bus()
        calls = []
        handle = bus.attach_stepper(10, calls.append, lambda: None)
        bus.advance(100)
        assert calls == []
        bus.wake(handle, 155)
        bus.wake(handle, 42)  # dated before the clock: its next tick
        bus.advance(100)
        assert calls == [110]  # parked again after 110, so not at 160

    def test_next_due_picks_the_tick_at_or_after_it(self):
        bus = Bus()
        calls = []
        pending = [25, 60, None]
        bus.attach_stepper(10, calls.append, lambda: pending.pop(0))
        bus.advance(200)
        assert calls == [30, 60]

    def test_earlier_wake_re_arms_and_drops_the_later_entry(self):
        bus = Bus()
        calls = []
        handle = bus.attach_stepper(10, calls.append, lambda: 90 if not calls else None)
        bus.wake(handle, 30)
        bus.advance(200)
        assert calls == [30]

    def test_wake_during_a_step_keeps_attach_order(self):
        # a stepper attached after the waker still runs at the waker's tick;
        # one attached before it has had that tick, so it runs at its next
        bus = Bus()
        calls = []
        before = bus.attach_stepper(10, lambda t: calls.append(("before", t)), lambda: None)

        def waker(t):
            calls.append(("waker", t))
            if t == 20:
                bus.wake(before, t)
                bus.wake(after, t)

        bus.attach_stepper(10, waker, lambda: None if calls and calls[-1] == ("waker", 20) else 0)
        after = bus.attach_stepper(10, lambda t: calls.append(("after", t)), lambda: None)
        bus.advance(50)
        assert calls == [("waker", 10), ("waker", 20), ("after", 20), ("before", 30)]

    def test_self_wake_during_its_step_is_not_lost(self):
        bus = Bus()
        calls = []

        def step(t):
            calls.append(t)
            if t == 10:
                bus.wake(handle, t)

        handle = bus.attach_stepper(10, step, lambda: None)
        bus.wake(handle, 0)
        bus.advance(50)
        assert calls == [10, 20]

    def test_stepper_that_raises_stays_due(self):
        bus = Bus()
        calls = []

        def step(t):
            calls.append(t)
            if len(calls) == 1:
                raise RuntimeError("boom")

        bus.attach_stepper(10, step, lambda: None)
        bus.wake(0, 10)
        with pytest.raises(RuntimeError):
            bus.advance(50)
        assert bus.clock == 10
        bus.advance(40)
        assert calls == [10, 10]

    def test_stepper_attached_in_a_step_starts_after_it(self):
        bus = Bus()
        calls = []
        handles = []

        def attach(t):
            if not handles:
                handles.append(bus.attach_stepper(5, calls.append, lambda: None))
                bus.wake(handles[0], t)

        bus.attach_stepper(10, attach)
        bus.advance(30)
        assert calls == [15]
