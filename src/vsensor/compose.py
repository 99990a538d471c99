"""Pin-level composability combinators.

Every combinator is a pure transform from source PinTraces to a derived
PinTrace, usable both offline on recorded traces and online as a Bus
virtual line (the online form recomputes from the live traces, so the
two modes agree by construction).  Tie-break rules are fixed: the
gated-event window boundary is inclusive, and the latch reset wins ties.
"""

from __future__ import annotations

from .vbus import HIGH, LOW, PinTrace, high_spans, trace_from_spans

DEFAULT_GAZE_WINDOW_MS = 500


def gated_event(event: PinTrace, gate: PinTrace, window_ms: int) -> PinTrace:
    """One-tick pulse per event rising edge with the gate recently HIGH.

    A rising edge at t qualifies when the gate was HIGH at any instant in
    the closed window [t - window_ms, t]; adjacent pulses merge.
    """
    if window_ms < 0:
        raise ValueError("window_ms must be >= 0")
    # Rising edges and gate spans are both time-ordered and window starts
    # never decrease, so a span that ends at or before one window's start
    # is behind every later window too: one pointer walks the spans.
    spans = high_spans(gate)
    j = 0
    pulses = []
    for t in event.rising_edges():
        a = max(0, t - window_ms)
        while j < len(spans) and spans[j][1] is not None and spans[j][1] <= a:
            j += 1
        if j < len(spans) and (spans[j][0] is None or spans[j][0] <= t):
            pulses.append((t, t + 1))
    return trace_from_spans(f"gated({event.line_id})", pulses)


def invert(line: PinTrace) -> PinTrace:
    """Logical complement of a trace."""
    out = PinTrace(
        f"not({line.line_id})",
        HIGH if line.initial_level == LOW else LOW,
    )
    for t, lvl in line.transitions:
        out.append(t, HIGH if lvl == LOW else LOW)
    return out


def debounce(line: PinTrace, hold_ms: int) -> PinTrace:
    """Output follows input only after the input is stable for hold_ms."""
    if hold_ms < 0:
        raise ValueError("hold_ms must be >= 0")
    out = PinTrace(f"debounce({line.line_id})", line.initial_level)
    n = len(line.transitions)
    for i, (t, lvl) in enumerate(line.transitions):
        next_t = line.transitions[i + 1][0] if i + 1 < n else None
        if next_t is None or next_t - t >= hold_ms:
            out.append(t + hold_ms, lvl)
    return out


def pulse_stretch(line: PinTrace, ms: int) -> PinTrace:
    """Each rising edge holds the output HIGH for at least ms."""
    if ms < 0:
        raise ValueError("ms must be >= 0")
    # a span that the initial level opens has no rising edge to stretch
    spans = [(s, e if s is None or e is None else max(e, s + ms)) for s, e in high_spans(line)]
    return trace_from_spans(f"stretch({line.line_id})", spans)


def sr_latch(set_line: PinTrace, reset_line: PinTrace) -> PinTrace:
    """HIGH after a set rising edge until a reset rising edge; reset wins ties."""
    sets = set(set_line.rising_edges())
    resets = set(reset_line.rising_edges())
    out = PinTrace(f"latch({set_line.line_id},{reset_line.line_id})")
    level = LOW
    for t in sorted(sets | resets):
        want = LOW if t in resets else HIGH  # reset wins ties
        if want != level:
            out.append(t, want)
            level = want
    return out


def gaze_voice(
    gaze: PinTrace, state: PinTrace, window_ms: int = DEFAULT_GAZE_WINDOW_MS
) -> PinTrace:
    """Gaze-gated light switch: say "on"/"off" while looking at it.

    HIGH from a gaze-gated "on" (``state`` rising edge) until a
    gaze-gated "off" (``state`` falling edge).
    """
    return sr_latch(gated_event(state, gaze, window_ms),
                    gated_event(invert(state), gaze, window_ms))
