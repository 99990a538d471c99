"""Pin-level composability combinators.

Every combinator is a pure transform from source PinTraces to a derived
PinTrace, usable both offline on recorded traces and online as a Bus
virtual line (the online form recomputes from the live traces, so the
two modes agree by construction).  A trace is its initial level and its
edge times (``transitions`` is a view of them), so each combinator builds
its output edge times in one pass, in time linear in the input edges; none
drives its output edge by edge.  Tie-break rules are fixed: the gated-event
window boundary is inclusive, and the latch reset wins ties.
"""

from __future__ import annotations

from .vbus import HIGH, LOW, LogicLevel, PinTrace, _from_times, high_spans, trace_from_spans

DEFAULT_GAZE_WINDOW_MS = 500

_NEVER = float("inf")


def _settle(line_id: str, initial: LogicLevel, drives) -> PinTrace:
    """The trace that time-ordered (t, level) drives leave from ``initial``.

    The first drive of each run of equal levels is a transition, unless it
    repeats the level already in force (as ``PinTrace.append`` would skip).
    """
    times, level = [], initial
    for t, lvl in drives:
        if lvl != level:
            times.append(t)
            level = lvl
    return _from_times(line_id, initial, times)


def gated_event(event: PinTrace, gate: PinTrace, window_ms: int) -> PinTrace:
    """One-tick pulse per event rising edge with the gate recently HIGH.

    A rising edge at t qualifies when the gate was HIGH at any instant in
    the closed window [t - window_ms, t], clipped at 0.
    """
    if window_ms < 0:
        raise ValueError("window_ms must be >= 0")
    # Rising edges and gate spans are both time-ordered and window starts
    # (t - window_ms, or 0) never decrease, so a span that ends at or before
    # one window's start is behind every later window too: one pass walks
    # the spans, and an edge qualifies when the first span not behind its
    # window has begun.  A line's rising edges are at least 2 ms apart, so
    # the pulses never touch.
    spans = iter(high_spans(gate) + [(_NEVER, _NEVER)])
    s, e = next(spans)
    s = -_NEVER if s is None else s
    times = []
    for t in event.rising_edges():
        while e is not None and (e <= t - window_ms or e <= 0):
            s, e = next(spans)
        if s <= t:
            times += (t, t + 1)
    return _from_times(f"gated({event.line_id})", LOW, times)


def invert(line: PinTrace) -> PinTrace:
    """Logical complement of a trace: the same edges from the other level."""
    return _from_times(f"not({line.line_id})", 1 - line.initial_level, line.times.copy())


def debounce(line: PinTrace, hold_ms: int) -> PinTrace:
    """Output follows input only after the input is stable for hold_ms."""
    if hold_ms < 0:
        raise ValueError("hold_ms must be >= 0")
    # a level reaches the output hold_ms after it is driven, unless the
    # input changes again within hold_ms
    drives = ((t + hold_ms, lvl) for (t, lvl), t_next
              in zip(line.transitions, line.times[1:] + [_NEVER]) if t_next - t >= hold_ms)
    return _settle(f"debounce({line.line_id})", line.initial_level, drives)


def pulse_stretch(line: PinTrace, ms: int) -> PinTrace:
    """Each rising edge holds the output HIGH for at least ms."""
    if ms < 0:
        raise ValueError("ms must be >= 0")
    # a span that the initial level opens has no rising edge to stretch
    spans = [(s, e if s is None or e is None or e - s >= ms else s + ms)
             for s, e in high_spans(line)]
    return trace_from_spans(f"stretch({line.line_id})", spans)


def sr_latch(set_line: PinTrace, reset_line: PinTrace) -> PinTrace:
    """HIGH after a set rising edge until a reset rising edge; reset wins ties."""
    want = dict.fromkeys(set_line.rising_edges(), HIGH)
    want.update(dict.fromkeys(reset_line.rising_edges(), LOW))  # reset wins ties
    return _settle(f"latch({set_line.line_id},{reset_line.line_id})", LOW, sorted(want.items()))


def gaze_voice(
    gaze: PinTrace, state: PinTrace, window_ms: int = DEFAULT_GAZE_WINDOW_MS
) -> PinTrace:
    """Gaze-gated light switch: say "on"/"off" while looking at it.

    HIGH from a gaze-gated "on" (``state`` rising edge) until a
    gaze-gated "off" (``state`` falling edge).
    """
    return sr_latch(gated_event(state, gaze, window_ms),
                    gated_event(invert(state), gaze, window_ms))
