"""Spans around calls into each module's public functions, per-layer
metrics computed from them, and short scaling sweeps.

A wrapper replaces a function wherever a ``vsensor`` module binds it by
name (``detect_person`` lives in ``vsensor.stimuli.scene`` and is also
looked up from ``vsensor.sensors``), and a method on the class that
defines it.  Spans keep name, start, end, parent and round in memory
until the run ends.  Targets the program no longer has are skipped, so
their metrics read 0.
"""

from __future__ import annotations

import importlib
import json
import math
import random
import statistics
import sys
import time
from pathlib import Path

# (metric prefix, module, attribute) of free functions
FUNCTIONS = [
    ("scene.render_scene", "vsensor.stimuli.scene", "render_scene"),
    ("scene.detect_person", "vsensor.stimuli.scene", "detect_person"),
    ("scene.detect_gaze", "vsensor.stimuli.scene", "detect_gaze"),
    ("scene.match_score", "vsensor.stimuli.scene", "match_score"),
    ("imu.synth_imu", "vsensor.stimuli.imu", "synth_imu"),
    ("imu.detect_tap", "vsensor.stimuli.imu", "detect_tap"),
    ("audio.synth_audio", "vsensor.stimuli.audio", "synth_audio"),
    ("audio.detect_keywords", "vsensor.stimuli.audio", "detect_keywords"),
    ("sevenseg.render_display", "vsensor.stimuli.sevenseg", "render_display"),
    ("sevenseg.decode_display", "vsensor.stimuli.sevenseg", "decode_display"),
    ("devkit.audit", "vsensor.devkit", "audit"),
    ("datasheet.cross_check", "vsensor.datasheet", "cross_check"),
    ("datasheet.validate", "vsensor.datasheet", "validate"),
    ("compose.gated_event", "vsensor.compose", "gated_event"),
    ("compose.invert", "vsensor.compose", "invert"),
    ("compose.debounce", "vsensor.compose", "debounce"),
    ("compose.pulse_stretch", "vsensor.compose", "pulse_stretch"),
    ("compose.sr_latch", "vsensor.compose", "sr_latch"),
    ("vbus.high_intervals", "vsensor.vbus", "high_intervals"),
]
# (metric prefix, module, class, method)
METHODS = [
    ("vbus.advance", "vsensor.vbus", "Bus", "advance"),
    ("vbus.level_at", "vsensor.vbus", "PinTrace", "level_at"),
    ("vbus.trace_csv", "vsensor.vbus", "Bus", "trace_csv"),
    ("vbus.i2c_csv", "vsensor.vbus", "Bus", "i2c_csv"),
    ("vbus.exposure_csv", "vsensor.vbus", "Bus", "exposure_csv"),
    ("devkit.feed_stimulus", "vsensor.devkit", "SensorDevice", "feed_stimulus"),
]
PER_EDGE = {"compose.gated_event", "compose.invert", "compose.debounce",
            "compose.pulse_stretch", "compose.sr_latch", "vbus.high_intervals"}
SYNTH = ("scene.render_scene", "imu.synth_imu", "audio.synth_audio", "sevenseg.render_display")
DETECTORS = ("scene.detect_person", "scene.detect_gaze", "imu.detect_tap",
             "audio.detect_keywords", "sevenseg.decode_display")
DUMPS = ("vbus.trace_csv", "vbus.i2c_csv", "vbus.exposure_csv")
P90_MIN_CALLS = 100


def _detections(name: str, result) -> int:
    if name in ("scene.detect_person", "scene.detect_gaze"):
        return int(bool(getattr(result, "present", False)))
    if name == "sevenseg.decode_display":
        return int(result is not None)
    return len(result)


def _lookup(module_name: str, attr: str):
    """The named attribute, or None when the program no longer has it."""
    try:
        return getattr(importlib.import_module(module_name), attr, None)
    except ImportError:
        return None


class Tracer:
    """In-memory span recorder; one instance per traced phase."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.rounds: list[int] = []
        self.sizes: list[int] = []
        self.detections: dict[int, int] = {}
        self.buses: dict[int, list] = {}
        self.round = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _open(self, name: str, size: int) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.rounds.append(self.round)
        self.sizes.append(size)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    def _wrap(self, name: str, fn):
        per_edge = name in PER_EDGE
        detector = name in DETECTORS
        is_advance = name == "vbus.advance"
        tracer = self

        def wrapper(*args, **kwargs):
            size = 0
            if per_edge:
                size = sum(len(a.transitions) for a in args if hasattr(a, "transitions"))
            elif is_advance:
                tracer.buses.setdefault(id(args[0]), [tracer.round, args[0]])
            idx = tracer._open(name, size)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.starts[idx] = t0
                tracer.ends[idx] = t1
            if detector:
                tracer.detections[tracer.round] = (
                    tracer.detections.get(tracer.round, 0) + _detections(name, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def begin_round(self, index: int) -> int:
        self.round = index
        idx = self._open("round", 0)
        self.starts[idx] = time.perf_counter()
        return idx

    def end_round(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    # -- installing --------------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "vsensor" or n.startswith("vsensor.")) and m is not None]
        for name, module_name, attr in FUNCTIONS:
            original = _lookup(module_name, attr)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for name, module_name, cls_name, attr in METHODS:
            cls = _lookup(module_name, cls_name)
            original = cls.__dict__.get(attr) if cls is not None else None
            if original is not None:
                self._patch(cls, attr, self._wrap(name, original))

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    # -- output ------------------------------------------------------------------

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as f:
            for i, name in enumerate(self.names):
                f.write(json.dumps({
                    "id": i, "name": name, "start": self.starts[i], "end": self.ends[i],
                    "parent": self.parents[i], "round": self.rounds[i],
                    "size": self.sizes[i]}) + "\n")


# -- metrics from spans ------------------------------------------------------------


def _median_p90(values: list[float]) -> tuple[float, float]:
    if not values:
        return 0.0, 0.0
    med = statistics.median(values)
    if len(values) < P90_MIN_CALLS:
        return med, 0.0
    return med, statistics.quantiles(values, n=10)[-1]


def layer_metrics(tr: Tracer, trials: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics; counts come from the first traced round only, which
    ran ``trials`` conformance trials."""
    dur = [e - s for s, e in zip(tr.starts, tr.ends)]
    child_time = [0.0] * len(dur)
    for i, p in enumerate(tr.parents):
        if p >= 0:
            child_time[p] += dur[i]
    by_name: dict[str, list[int]] = {}
    for i, name in enumerate(tr.names):
        by_name.setdefault(name, []).append(i)
    rounds = sorted({r for r in tr.rounds if r >= 0})
    first = rounds[0] if rounds else 0

    def per_call_us(name: str) -> tuple[float, float]:
        med, p90 = _median_p90([dur[i] for i in by_name.get(name, [])])
        return med * 1e6, p90 * 1e6

    def per_round_ms(names, self_time: bool = False) -> float:
        totals = {r: 0.0 for r in rounds}
        for name in names:
            for i in by_name.get(name, []):
                totals[tr.rounds[i]] += dur[i] - (child_time[i] if self_time else 0.0)
        return statistics.median(totals.values()) * 1e3 if totals else 0.0

    def first_round_calls(name: str) -> int:
        return sum(1 for i in by_name.get(name, []) if tr.rounds[i] == first)

    m: dict[str, tuple[float, str]] = {}
    for name in ("scene.render_scene", "scene.detect_person", "scene.detect_gaze",
                 "scene.match_score", "audio.detect_keywords", "imu.detect_tap",
                 "sevenseg.decode_display", "devkit.feed_stimulus", "vbus.level_at"):
        med, p90 = per_call_us(name)
        m[f"{name}_us"] = (med, "us")
        m[f"{name}_us.p90"] = (p90, "us")
    m["datasheet.validate_us"] = (per_call_us("datasheet.validate")[0], "us")
    m["scene.match_score_calls"] = (first_round_calls("scene.match_score"), "count")
    frames = first_round_calls("scene.render_scene")
    m["conformance.frames_per_trial"] = (frames / trials if trials else 0.0, "frames")
    m["scenario.synth_ms"] = (per_round_ms(SYNTH), "ms")
    m["vbus.advance_self_ms"] = (per_round_ms(["vbus.advance"], self_time=True), "ms")
    m["vbus.advance_calls"] = (first_round_calls("vbus.advance"), "count")
    m["vbus.dump_ms"] = (per_round_ms(DUMPS), "ms")
    m["devkit.audit_ms"] = (per_round_ms(["devkit.audit"]), "ms")
    m["datasheet.cross_check_ms"] = (per_round_ms(["datasheet.cross_check"]), "ms")
    for name in sorted(PER_EDGE):
        per_edge = [dur[i] / tr.sizes[i] * 1e6 for i in by_name.get(name, []) if tr.sizes[i]]
        m[f"{name}_us_per_edge"] = (statistics.median(per_edge) if per_edge else 0.0, "us")
    buses = [bus for r, bus in tr.buses.values() if r == first]
    m["vbus.transitions"] = (sum(len(t.transitions) for b in buses for t in b.lines.values()), "count")
    m["vbus.exposure_records"] = (sum(len(b.exposure_log) for b in buses), "count")
    m["vbus.i2c_transactions"] = (sum(len(b.i2c_log) for b in buses), "count")
    m["sensors.detections"] = (tr.detections.get(first, 0), "count")
    m["devkit.stimuli_fed"] = (first_round_calls("devkit.feed_stimulus"), "count")
    return m


# -- scaling sweeps ------------------------------------------------------------------


def _slope(sizes: list[int], times: list[float]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(max(t, 1e-9)) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _best_of(fn, repeats: int = 3) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _trace(vbus, transitions):
    trace = vbus.PinTrace("x")
    for t, lvl in transitions:
        trace.append(t, vbus.LogicLevel(lvl))
    return trace


def sweeps(seed: int) -> dict[str, tuple[float, str]]:
    """Log-log slopes of time against size; 1 means linear."""
    from vsensor import compose, sensors, vbus
    from vsensor.stimuli.imu import synth_imu

    import workloads

    rng = random.Random(workloads.derive(seed, "sweep"))
    out: dict[str, tuple[float, str]] = {}

    sizes = [250, 500, 1000]
    times = []
    for n in sizes:
        event = _trace(vbus, workloads.edges(rng, n, 20, 120))
        gate = _trace(vbus, workloads.edges(rng, n, 20, 120))
        times.append(_best_of(lambda: compose.gated_event(event, gate, workloads.GATE_WINDOW_MS)))
    out["compose.gated_event_exp"] = (_slope(sizes, times), "1")

    window = synth_imu([], 100, 0.0, 0)
    sizes = [1000, 2000, 4000]
    times = []
    for n in sizes:
        def feed(n=n):
            device = sensors.tap_sensor()
            for k in range(n):
                device.feed_stimulus(window, 10 * k)
        times.append(_best_of(feed))
    out["devkit.feed_stimulus_exp"] = (_slope(sizes, times), "1")

    sizes = [40_000, 80_000, 160_000]
    times = []
    for n in sizes:
        def run(n=n):
            bus = vbus.Bus()
            bus.add_line("x")
            bus.attach_stepper(50, lambda t: bus.drive("x", 1 - bus.lines["x"].current_level(), t))
            for _ in range(n // 100):
                bus.advance(100)
        times.append(_best_of(run))
    out["vbus.advance_exp"] = (_slope(sizes, times), "1")

    sizes = [1000, 4000, 16000]
    times = []
    for n in sizes:
        trace = _trace(vbus, workloads.edges(rng, n, 20, 120))
        end = trace.last_time()
        queries = [rng.randrange(0, end) for _ in range(200)]
        times.append(_best_of(lambda: [trace.level_at(q) for q in queries]))
    out["vbus.level_at_exp"] = (_slope(sizes, times), "1")
    return out
