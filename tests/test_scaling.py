"""Coarse complexity guards for the bus and trace core.

Each workload is sized so that linear-time code finishes in well under a
second, while code that rescans or re-sorts per operation takes several
seconds or more.  The 3 s bound is loose on purpose, so that a slow or
shared machine does not make these flaky.  Quadratic work done in C (a list
copied, re-sorted or shifted per item) costs only nanoseconds per item and
step, so the guards where it could slip in run on LONG or more items.
"""

import time

from vsensor.compose import debounce, gated_event, invert, pulse_stretch, sr_latch
from vsensor.devkit import power_on
from vsensor.sensors import tap_sensor
from vsensor.stimuli.imu import synth_imu
from vsensor.vbus import HIGH, LOW, Bus, HighInterval, PinTrace, high_intervals

BOUND_S = 3.0
N = 20_000
LONG = 8 * N


def _toggling_trace(line_id, n, offset):
    trace = PinTrace(line_id)
    for k in range(n):
        trace.append(offset + 7 * k, HIGH if k % 2 == 0 else LOW)
    return trace


def _elapsed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _timed(fn):
    """fn's result, asserting that fn ran within the bound."""
    out = []
    assert _elapsed(lambda: out.append(fn())) < BOUND_S
    return out[0]


def test_gated_event_is_linear():
    event = _toggling_trace("e", N, 0)
    gate = _toggling_trace("g", N, 3)
    out = _timed(lambda: gated_event(event, gate, 50))
    # every event edge but the first, at 0 ms, sees a gate pulse 11 ms earlier
    assert out.rising_edges() == event.rising_edges()[1:]


def test_invert_is_linear():
    line = _toggling_trace("x", N, 0)
    out = _timed(lambda: invert(line))
    assert out.transitions == [(t, LOW if lvl == HIGH else HIGH) for t, lvl in line.transitions]


def test_debounce_is_linear():
    line = _toggling_trace("x", LONG, 0)
    # every level holds 7 ms, so a 5 ms hold passes each edge 5 ms late
    out = _timed(lambda: debounce(line, 5))
    assert out.transitions == [(t + 5, lvl) for t, lvl in line.transitions]


def test_pulse_stretch_is_linear():
    line = _toggling_trace("x", N, 0)
    # 7 ms pulses every 14 ms stretch to 10 ms without merging
    out = _timed(lambda: pulse_stretch(line, 10))
    assert out.transitions == [(t + 3 * (lvl == LOW), lvl) for t, lvl in line.transitions]


def test_sr_latch_is_linear():
    set_line = _toggling_trace("s", LONG, 0)
    reset_line = _toggling_trace("r", LONG, 3)
    # each set is reset 3 ms later
    out = _timed(lambda: sr_latch(set_line, reset_line))
    assert out.transitions == [(t, lvl) for k in range(0, LONG, 2) for t, lvl in
                               ((7 * k, HIGH), (7 * k + 3, LOW))]


def test_high_intervals_is_linear():
    line = _toggling_trace("x", LONG + 1, 0)
    # 7 ms pulses every 14 ms, and the last one still open at the run's end
    out = _timed(lambda: high_intervals(line, 7 * LONG + 5))
    assert out == [HighInterval(14 * k, 14 * k + 7) for k in range(LONG // 2)] + [
        HighInterval(7 * LONG, 7 * LONG + 5, True)]


def test_feed_stimulus_is_linear():
    # 320,000 stimuli fed, then popped in one call
    n = 16 * N
    device = tap_sensor()
    window = synth_imu([], 100, 0.0, 0)
    popped = []

    def feed_then_pop_all():
        for k in range(n):
            device.feed_stimulus(window, 10 * k)
        popped.extend(device._pop_stimuli(10 * n))

    assert _elapsed(feed_then_pop_all) < BOUND_S
    assert len(popped) == n


def test_stimulus_queue_pops_in_linear_time():
    # 320,000 stimuli popped one step at a time: a queue that moves every
    # remaining entry on each pop (list.pop(0), or deleting the consumed
    # prefix) takes over 10 s on a 2-core Xeon VM
    n = 16 * N
    device = tap_sensor()
    window = synth_imu([], 100, 0.0, 0)
    popped = []

    def feed_then_pop():
        for k in range(n):
            device.feed_stimulus(window, 10 * k)
        for k in range(n):
            popped.extend(device._pop_stimuli(10 * k))

    assert _elapsed(feed_then_pop) < BOUND_S
    assert [at for at, _ in popped] == list(range(0, 10 * n, 10))


def test_level_at_is_logarithmic():
    trace = _toggling_trace("x", N, 0)
    answers = []
    elapsed = _elapsed(lambda: answers.extend(trace.level_at(q) for q in range(N)))
    assert elapsed < BOUND_S
    assert answers[:8] == [HIGH] * 7 + [LOW]


def test_transitions_view_reads_in_constant_time():
    # a trace stores its edge times; a view that built its (time, level)
    # list on each read would make these N reads of an N-edge trace quadratic
    trace = _toggling_trace("x", N, 0)
    reads = []

    def read():
        for _ in range(N):
            reads.append((len(trace.transitions), trace.transitions[-1], trace.current_level()))

    assert _elapsed(read) < BOUND_S
    assert reads[-1] == (N, (7 * (N - 1), LOW), LOW)


def test_long_advance_is_linear():
    bus = Bus()
    bus.add_line("x")
    bus.attach_stepper(10, lambda t: bus.drive("x", 1 - bus.lines["x"].current_level(), t))

    def run():
        for _ in range(2_000_000 // 100):  # 2,000 simulated seconds
            bus.advance(100)

    assert _elapsed(run) < BOUND_S
    assert len(bus.lines["x"].transitions) == 200_000


def test_parked_device_is_stepped_per_stimulus_not_per_tick():
    # TAP's cadence is 10 ms, but with nothing due it is parked: a window at
    # the end of a 10,000,000 ms advance costs one step, not a million
    bus = Bus()
    device = power_on(tap_sensor(), bus, {"VDD": "vdd", "GND": "gnd", "TAP": "tap"})
    device.feed_stimulus(synth_imu([500], 1000, 0.03, seed=1), 9_998_000)
    steps = []
    step = device._step
    device._step = lambda t, port: (steps.append(t), step(t, port))
    _timed(lambda: bus.advance(10_000_000))
    assert steps == [9_998_000]
    assert len(bus.lines["tap"].rising_edges()) == 1
