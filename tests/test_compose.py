import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_vbus import _alternating, _traces

from vsensor.compose import (
    debounce,
    gated_event,
    gaze_voice,
    invert,
    pulse_stretch,
    sr_latch,
)
from vsensor.vbus import HIGH, LOW, Bus, LogicLevel, PinTrace


def trace(transitions, initial=LOW, lid="x"):
    tr = PinTrace(lid, initial)
    for t, lvl in transitions:
        tr.append(t, lvl)
    return tr


def dense(tr, dur):
    return [int(tr.level_at(t)) for t in range(dur)]


def assert_well_formed(tr):
    """Times strictly increase, levels alternate from a first level that
    differs from the initial one, and every level is a LogicLevel: the
    checked ``append`` path takes every transition as a change."""
    assert isinstance(tr.initial_level, LogicLevel)
    assert all(isinstance(lvl, LogicLevel) for _, lvl in tr.transitions)
    rebuilt = PinTrace(tr.line_id, tr.initial_level)
    assert all(rebuilt.append(t, lvl) for t, lvl in tr.transitions)


@st.composite
def _pairs(draw):
    """Two ``_traces()``; the second often takes edge times of the first as
    its own, so that rising edges of the two tie."""
    a, b = draw(_traces()), draw(_traces())
    times = set(b.times)
    if a.times:
        times |= draw(st.sets(st.sampled_from(a.times)))
    return a, PinTrace("b", b.initial_level, _alternating(b.initial_level, times))


def rand_trace(rng, lid, dur=1500, rate=0.01):
    tr = PinTrace(lid, HIGH if rng.random() < 0.3 else LOW)
    lvl, t = tr.initial_level, 0
    while True:
        t += 1 + int(rng.geometric(rate))
        if t >= dur:
            return tr
        lvl = HIGH if lvl == LOW else LOW
        tr.append(t, lvl)


class TestGatedEvent:
    def test_spec_example(self):
        ev = trace([(900, HIGH), (901, LOW)])
        gate = trace([(700, HIGH), (1000, LOW)], lid="g")
        assert gated_event(ev, gate, 500).transitions == [(900, HIGH), (901, LOW)]

    def test_gate_never_high(self):
        ev = trace([(900, HIGH), (901, LOW)])
        assert gated_event(ev, PinTrace("g"), 500).transitions == []

    def test_window_zero_inclusive_boundary(self):
        ev = trace([(900, HIGH), (901, LOW)])
        gate = trace([(900, HIGH)], lid="g")
        assert gated_event(ev, gate, 0).transitions == [(900, HIGH), (901, LOW)]

    def test_gate_expired_before_window(self):
        ev = trace([(900, HIGH), (901, LOW)])
        gate = trace([(100, HIGH), (200, LOW)], lid="g")
        assert gated_event(ev, gate, 500).transitions == []

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            gated_event(PinTrace("e"), PinTrace("g"), -1)
        with pytest.raises(ValueError, match="hold_ms must be >= 0"):
            debounce(PinTrace("x"), -1)
        with pytest.raises(ValueError, match="ms must be >= 0"):
            pulse_stretch(PinTrace("x"), -1)


class TestDebounce:
    def test_glitch_suppressed(self):
        glitchy = trace([(100, HIGH), (120, LOW)])
        assert debounce(glitchy, 50).transitions == []

    def test_stable_change_passes_with_delay(self):
        stable = trace([(100, HIGH)])
        assert debounce(stable, 50).transitions == [(150, HIGH)]


class TestPulseStretch:
    def test_merge_close_pulses(self):
        tr = trace([(100, HIGH), (110, LOW), (200, HIGH), (210, LOW)])
        out = pulse_stretch(tr, 300)
        assert out.transitions == [(100, HIGH), (500, LOW)]

    def test_long_pulse_unchanged(self):
        tr = trace([(100, HIGH), (900, LOW)])
        assert pulse_stretch(tr, 300).transitions == tr.transitions

    def test_initial_high_is_kept_and_a_rise_at_zero_is_stretched(self):
        out = pulse_stretch(trace([(10, LOW)], initial=HIGH), 300)
        assert (out.initial_level, out.transitions) == (HIGH, [(10, LOW)])
        out = pulse_stretch(trace([(0, HIGH), (10, LOW)]), 300)
        assert (out.initial_level, out.transitions) == (LOW, [(0, HIGH), (300, LOW)])


class TestSrLatch:
    def test_set_then_reset(self):
        s = trace([(100, HIGH), (101, LOW)], lid="s")
        r = trace([(500, HIGH), (501, LOW)], lid="r")
        assert sr_latch(s, r).transitions == [(100, HIGH), (500, LOW)]

    def test_reset_wins_tie(self):
        s = trace([(100, HIGH), (101, LOW)], lid="s")
        r = trace([(100, HIGH), (101, LOW)], lid="r")
        assert sr_latch(s, r).transitions == []


class TestInvert:
    def test_complement(self):
        tr = trace([(5, HIGH), (9, LOW)])
        out = invert(tr)
        assert out.initial_level == HIGH
        assert out.transitions == [(5, LOW), (9, HIGH)]


class TestBruteForceOracles:
    """Combinator outputs equal dense tick-by-tick simulation."""

    DUR = 1500

    def oracle_gated(self, ev, gate, w):
        g = dense(gate, self.DUR)
        out = [0] * self.DUR
        for t in ev.rising_edges():
            if t < self.DUR and any(g[max(0, t - w): t + 1]):
                out[t] = 1
        return out

    def oracle_latch(self, s, r):
        sets, resets = set(s.rising_edges()), set(r.rising_edges())
        out, lvl = [], 0
        for t in range(self.DUR):
            if t in resets:
                lvl = 0
            elif t in sets:
                lvl = 1
            out.append(lvl)
        return out

    def oracle_debounce(self, line, hold, horizon):
        """At t the output takes the input's level once the input has held
        it over [t - hold, t - 1]; before the first transition the input is
        at its initial level."""
        x = [int(line.initial_level)] * hold + dense(line, horizon)
        out, lvl = [], int(line.initial_level)
        for t in range(horizon):
            held = x[t:t + hold + 1]  # the input over [t - hold, t]
            if all(v == held[0] for v in held[:-1]):
                lvl = held[0]
            out.append(lvl)
        return out

    def oracle_stretch(self, line, ms):
        """Each rising edge r holds the output HIGH over [r, r + ms)."""
        out = dense(line, self.DUR + ms)
        for r in line.rising_edges():
            out[r:r + ms] = [1] * ms
        return out

    def test_gated_event_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            ev, gate = rand_trace(rng, "e"), rand_trace(rng, "g")
            w = int(rng.integers(0, 400))
            out = gated_event(ev, gate, w)
            assert_well_formed(out)
            assert dense(out, self.DUR) == self.oracle_gated(ev, gate, w)

    def test_sr_latch_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            s, r = rand_trace(rng, "s"), rand_trace(rng, "r")
            out = sr_latch(s, r)
            assert_well_formed(out)
            assert dense(out, self.DUR) == self.oracle_latch(s, r)

    def test_pulse_stretch_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            line, ms = rand_trace(rng, "l"), int(rng.integers(0, 400))
            out = pulse_stretch(line, ms)
            assert_well_formed(out)
            assert dense(out, self.DUR + ms) == self.oracle_stretch(line, ms)

    def test_debounce_oracle(self):
        rng = np.random.default_rng(12)
        initial_high = 0
        for k in range(200):
            line = rand_trace(rng, "l")
            hold = int(rng.integers(1, 120)) if k % 10 else 0
            initial_high += line.initial_level == HIGH
            out = debounce(line, hold)
            assert_well_formed(out)
            horizon = self.DUR + hold + 1  # past the last output edge
            assert dense(out, horizon) == self.oracle_debounce(line, hold, horizon)
        assert initial_high > 0

    def test_invert_oracle(self):
        rng = np.random.default_rng(13)
        initial_high = 0
        for _ in range(200):
            line = rand_trace(rng, "l")
            initial_high += line.initial_level == HIGH
            out = invert(line)
            assert_well_formed(out)
            assert dense(out, self.DUR) == [1 - v for v in dense(line, self.DUR)]
        assert initial_high > 0

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(_pairs(), st.integers(0, 30))
    # initial HIGH on both inputs
    @example((PinTrace("a", HIGH, [(3, LOW), (9, HIGH)]), PinTrace("b", HIGH, [(5, LOW)])), 4)
    # set and reset rise together at 5 with the latch LOW, and at 20 with it HIGH
    @example((PinTrace("a", LOW, _alternating(LOW, [5, 6, 12, 13, 20, 21])),
              PinTrace("b", LOW, _alternating(LOW, [5, 6, 20, 21]))), 3)
    # the first pulse stretched to 5 ends where the next one starts
    @example((PinTrace("a", LOW, _alternating(LOW, [0, 2, 5, 7])), PinTrace("b")), 5)
    # the last pulse stretched to 10 runs into the span still open from 9
    @example((PinTrace("a", LOW, _alternating(LOW, [5, 7, 9])), PinTrace("b")), 5)
    # the gate, HIGH before 0, is outside the event's window clipped to [0, 5]
    @example((PinTrace("a", LOW, _alternating(LOW, [5, 6])), PinTrace("b", HIGH, [(0, LOW)])), 10)
    @example((PinTrace("a", HIGH, _alternating(HIGH, [1, 2, 4, 7])), PinTrace("b")), 0)
    def test_combinators_equal_their_oracles(self, pair, ms):
        a, b = pair
        assert dense(gated_event(a, b, ms), self.DUR) == self.oracle_gated(a, b, ms)
        assert dense(sr_latch(a, b), self.DUR) == self.oracle_latch(a, b)
        horizon = self.DUR + ms + 1
        assert dense(debounce(a, ms), horizon) == self.oracle_debounce(a, ms, horizon)
        assert dense(pulse_stretch(a, ms), self.DUR + ms) == self.oracle_stretch(a, ms)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(_traces(), _traces(), st.integers(0, 30))
    def test_outputs_are_well_formed(self, a, b, ms):
        for out in (gated_event(a, b, ms), invert(a), debounce(a, ms),
                    pulse_stretch(a, ms), sr_latch(a, b), gaze_voice(a, b, ms)):
            assert_well_formed(out)

    def test_no_combinator_drives_its_output_edge_by_edge(self, monkeypatch):
        rng = np.random.default_rng(14)
        a, b = rand_trace(rng, "a"), rand_trace(rng, "b")

        def refuse(self, t, level):
            raise AssertionError("a combinator called PinTrace.append")

        monkeypatch.setattr(PinTrace, "append", refuse)
        assert a.transitions and b.transitions
        for combine in (lambda: gated_event(a, b, 50), lambda: invert(a),
                        lambda: debounce(a, 20), lambda: pulse_stretch(a, 50),
                        lambda: sr_latch(a, b), lambda: gaze_voice(a, b)):
            combine()

    def test_purity(self):
        rng = np.random.default_rng(9)
        ev, gate = rand_trace(rng, "e"), rand_trace(rng, "g")
        a = gated_event(ev, gate, 100)
        b = gated_event(ev, gate, 100)
        assert a.transitions == b.transitions

    def test_causality(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            ev, gate = rand_trace(rng, "e"), rand_trace(rng, "g")
            out = gated_event(ev, gate, 200)
            edges = set(ev.rising_edges())
            assert all(t in edges for t in out.rising_edges())


class TestGazeVoiceDemo:
    def run_demo(self, facing):
        from vsensor.devkit import power_on
        from vsensor.sensors import gaze_detector, voice_sensor_pin
        from vsensor.stimuli.audio import synth_audio
        from vsensor.stimuli.scene import SceneParams, render_scene
        from vsensor.vbus import high_intervals

        bus = Bus()
        gaze, voice = gaze_detector(), voice_sensor_pin()
        power_on(gaze, bus, {"VDD": "vdd", "GND": "gnd", "DETECT": "g.DETECT"})
        power_on(voice, bus, {"VDD": "vdd", "GND": "gnd", "STATE": "v.STATE"})
        bus.add_virtual_line(
            "LIGHT_ON", lambda b: gaze_voice(b.trace("g.DETECT"), b.trace("v.STATE")))
        frame = render_scene(SceneParams(True, facing, 1.0, 800, 4.0, seed=11))
        for k in range(30):
            gaze.feed_stimulus(frame, k * 100)
        voice.feed_stimulus(
            synth_audio([("on", 1000), ("off", 2200)], ["on", "off"], seed=12), 0
        )
        bus.advance(3000)
        light = bus.virtual_trace("LIGHT_ON")
        assert_well_formed(light)
        return high_intervals(light, 3000)

    def test_on_with_gaze_lights_up(self):
        ivs = self.run_demo(facing=True)
        assert len(ivs) == 1
        assert abs(ivs[0].start - 1000) <= 100 and abs(ivs[0].end - 2200) <= 100

    def test_on_without_gaze_stays_low(self):
        assert self.run_demo(facing=False) == []


class TestScenarioComposites:
    def test_composite_over_a_composite(self):
        from vsensor.scenario import run_scenario

        def tap(device_id, taps):
            return {"id": device_id, "kind": "TAP",
                    "stimuli": [{"modality": "imu", "taps": taps, "noise_sigma": 0.0}]}

        doc = {"duration_ms": 1000, "devices": [tap("a", [100, 700]), tap("b", [50])],
               "composites": [
                   {"combinator": "gated_event", "line_id": "g", "event": "a.TAP",
                    "gate": "b.TAP", "window_ms": 100},
                   {"combinator": "invert", "line_id": "n", "line": "g"}]}
        bus = run_scenario(doc).bus
        gated = gated_event(bus.trace("a.TAP"), bus.trace("b.TAP"), 100)
        assert len(gated.rising_edges()) == 1
        nested = bus.virtual_trace("n")
        assert nested.initial_level == HIGH
        assert nested.transitions == invert(gated).transitions

    def test_gaze_voice_reads_the_wired_lines(self):
        from vsensor.scenario import run_scenario

        looking = {"person_present": True, "facing_camera": True, "illuminance_lux": 800}
        doc = {"duration_ms": 3000, "seed": 2024, "devices": [
            {"id": "gz", "kind": "GAZE", "wiring": {"VDD": "vdd", "GND": "gnd", "DETECT": "eye"},
             "stimuli": [{"modality": "scene", "count": 30, "params": looking}]},
            {"id": "vc", "kind": "VOICE_PIN", "wiring": {"VDD": "vdd", "GND": "gnd", "STATE": "mic"},
             "stimuli": [{"modality": "audio", "script": [["on", 1000], ["off", 2200]]}]}],
            "composites": [{"combinator": "gaze_voice", "line_id": "LIGHT_ON",
                            "gaze": "gz", "voice": "vc"}]}
        bus = run_scenario(doc).bus
        assert set(bus.lines) == {"eye", "mic"}
        light = bus.virtual_trace("LIGHT_ON")
        assert_well_formed(light)
        assert len(light.rising_edges()) == 1
        assert light.transitions == gaze_voice(bus.trace("eye"), bus.trace("mic"), 500).transitions
