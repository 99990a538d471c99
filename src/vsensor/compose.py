"""Pin-level composability combinators.

Every combinator is a pure transform from source PinTraces to a derived
PinTrace, usable both offline on recorded traces and online as a Bus
virtual line (the online form recomputes from the live traces, so the
two modes agree by construction).  A trace is its initial level and its
edge times (``transitions`` is a view of them); edge k flips the level for
the (k + 1)th time.  So each combinator walks its inputs' edge times by
parity, with no (time, level) pairs or span lists, and builds its output
edge times in one pass, in time linear in the input edges; none drives its
output edge by edge.  Tie-break rules are fixed: the gated-event window
boundary is inclusive, and the latch reset wins ties.
"""

from __future__ import annotations

from itertools import cycle

from .vbus import LOW, PinTrace, _from_times

DEFAULT_GAZE_WINDOW_MS = 500

_NEVER = float("inf")


def gated_event(event: PinTrace, gate: PinTrace, window_ms: int) -> PinTrace:
    """One-tick pulse per event rising edge with the gate recently HIGH.

    A rising edge at t qualifies when the gate was HIGH at any instant in
    the closed window [t - window_ms, t], clipped at 0.
    """
    if window_ms < 0:
        raise ValueError("window_ms must be >= 0")
    # gate HIGH spans run from bounds[j - 1] to bounds[j], odd j; window starts
    # (t - window_ms, or 0) never decrease, so one pass skips the spans that end
    # by each window's start, and an edge qualifies when the next span has begun.
    # A line's rising edges are 2 ms apart or more, so the pulses never touch.
    bounds = [-_NEVER] * gate.initial_level + gate.times + [_NEVER, _NEVER]
    j, times = 1, []
    while bounds[j] <= 0:  # a span that ends by 0 is behind every window
        j += 2
    for t in event.rising_edges():
        while bounds[j] <= t - window_ms:
            j += 2
        if bounds[j - 1] <= t:
            times += (t, t + 1)
    return _from_times(f"gated({event.line_id})", LOW, times)


def invert(line: PinTrace) -> PinTrace:
    """Logical complement of a trace: the same edges from the other level."""
    return _from_times(f"not({line.line_id})", 1 - line.initial_level, line.times.copy())


def debounce(line: PinTrace, hold_ms: int) -> PinTrace:
    """Output follows input only after the input is stable for hold_ms."""
    if hold_ms < 0:
        raise ValueError("hold_ms must be >= 0")
    # edge k reaches the output hold_ms later if the input holds that long, and
    # changes it when k & 1 differs from the last such edge's parity (1 at first)
    times, last = [], 1
    for parity, t, t_next in zip(cycle((0, 1)), line.times, line.times[1:] + [_NEVER]):
        if t_next - t >= hold_ms and parity != last:
            times.append(t + hold_ms)
            last = parity
    return _from_times(f"debounce({line.line_id})", line.initial_level, times)


def pulse_stretch(line: PinTrace, ms: int) -> PinTrace:
    """Each rising edge holds the output HIGH for at least ms."""
    if ms < 0:
        raise ValueError("ms must be >= 0")
    # each stretched HIGH span merges into the last output span when it starts
    # by that span's end; an initial HIGH's span has no rising edge to stretch
    src, lead = line.times, line.initial_level
    times, end = src[:lead], (src[0] if lead and src else -_NEVER)
    for s, e in zip(src[lead::2], src[lead + 1::2]):
        if e - s < ms:
            e = s + ms
        if s > end:
            times += (s, e)
            end = e
        elif e > end:
            times[-1] = end = e
    if line.current_level() and len(src) > lead:  # a span still open at the end
        if src[-1] > end:
            times.append(src[-1])
        else:
            times.pop()
    return _from_times(f"stretch({line.line_id})", lead, times)


def sr_latch(set_line: PinTrace, reset_line: PinTrace) -> PinTrace:
    """HIGH after a set rising edge until a reset rising edge; reset wins ties."""
    # a rising edge at t sorts as 2t for a reset and 2t + 1 for a set, so a
    # reset sorts first at a tie; a set (odd key) flips a LOW latch unless it
    # follows a reset at its ms, and a reset (even key) flips a HIGH one
    keys = sorted([2 * t for t in reset_line.rising_edges()]
                  + [2 * t + 1 for t in set_line.rising_edges()])
    times, high, prev = [], 0, None
    for key in keys:
        if key & 1 != high and (high or key - 1 != prev):
            times.append(key >> 1)
            high ^= 1
        prev = key
    return _from_times(f"latch({set_line.line_id},{reset_line.line_id})", LOW, times)


def gaze_voice(
    gaze: PinTrace, state: PinTrace, window_ms: int = DEFAULT_GAZE_WINDOW_MS
) -> PinTrace:
    """Gaze-gated light switch: say "on"/"off" while looking at it.

    HIGH from a gaze-gated "on" (``state`` rising edge) until a
    gaze-gated "off" (``state`` falling edge).
    """
    return sr_latch(gated_event(state, gaze, window_ms),
                    gated_event(invert(state), gaze, window_ms))
