"""Seeded inputs of the three benchmark workloads.

Every input is a pure function of the benchmark seed and a round index, so
the same ``--seed`` gives the same inputs.  The program only ever sees the
generated documents and traces, never the seed itself.

A *round* is one pass of a workload's operations over one input set.  The
timed loop runs whole rounds, cycling over ``INPUT_SETS`` distinct input
sets, so a later memoisation of whole runs cannot turn repeats into hits
within the first ``INPUT_SETS`` rounds.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

INPUT_SETS = 8

# -- conformance_grid --------------------------------------------------------

PERSON_GRID = {"distance_levels_m": [1.0, 2.0, 3.0, 5.0], "lux_levels": [50, 200, 800]}
GAZE_GRID = {"distance_levels_m": [1.0, 2.0], "lux_levels": [200, 800]}
TRIALS_PER_CELL = 10

# -- scenario_longrun --------------------------------------------------------

SCENARIO_MS = 480_000
POLL_MS = 100
TAP_PULSE_MS = 200
TAP_EVERY_MS = 2000
VOICE_EVERY_MS = 6000  # voice windows start on the 20 ms audio feature hop
SERIAL_EVERY_MS = 5000
DISPLAY_EVERY_MS = 2000
CAMERA_EVERY_MS = 40_000
CAMERA_BURST = 3
GAZE_BURST = 3
GAZE_SHARE = 0.25  # share of voice windows with a gaze burst
COMMAND_WORDS = ["up", "down", "left", "right", "stop"]
TEXT_READER_ADDRESS = 0x29
VOICE_SERIAL_ADDRESS = 0x2A
COMPOSITES = [
    {"combinator": "gated_event", "line_id": "tap_gated", "event": "tap.TAP",
     "gate": "cam.DETECT", "window_ms": 500},
    {"combinator": "debounce", "line_id": "state_db", "line": "voice.STATE", "hold_ms": 50},
    {"combinator": "pulse_stretch", "line_id": "tap_long", "line": "tap.TAP", "ms": 400},
    {"combinator": "gaze_voice", "line_id": "LIGHT_ON", "gaze": "gz", "voice": "voice",
     "window_ms": 500},
]

# -- trace_compose -----------------------------------------------------------

COMPOSE_EDGES = 3000
LEVEL_AT_QUERIES = 2000
GATE_WINDOW_MS = 40
DEBOUNCE_HOLD_MS = 15
STRETCH_MS = 30


def derive(seed: int, *parts: object) -> int:
    """Stable 31-bit seed from the benchmark seed and any labels."""
    tag = ":".join(["vsensor-bench", str(seed)] + [str(p) for p in parts])
    return int.from_bytes(hashlib.sha256(tag.encode()).digest()[:4], "little") >> 1


# -- conformance_grid ----------------------------------------------------------


def protocol_doc(kind: str, grid: dict, seed: int, trials: int = TRIALS_PER_CELL,
                 negative_window_ms: int = 5000) -> dict:
    """A protocol shaped like fixtures/person_protocol.json."""
    return {
        "sensor_kind": kind,
        "distance_levels_m": list(grid["distance_levels_m"]),
        "lux_levels": list(grid["lux_levels"]),
        "trials_per_cell": trials,
        "positive_fraction": 0.5,
        "latency_budget_ms": 1000,
        "negative_window_ms": negative_window_ms,
        "noise_sigma": 4.0,
        "seed": seed,
    }


def conformance_inputs(seed: int, index: int) -> list[dict]:
    """The PERSON and GAZE protocols of one round."""
    return [
        protocol_doc("PERSON", PERSON_GRID, derive(seed, "person", index)),
        protocol_doc("GAZE", GAZE_GRID, derive(seed, "gaze", index)),
    ]


def trials_in(doc: dict) -> int:
    return len(doc["distance_levels_m"]) * len(doc["lux_levels"]) * doc["trials_per_cell"]


# -- scenario_longrun ------------------------------------------------------------


@dataclass
class ScenarioPlan:
    """A generated scenario document plus what each stimulus should cause."""

    doc: dict
    taps: list[int] = field(default_factory=list)  # absolute tap times
    voice_words: list[tuple[str, int]] = field(default_factory=list)
    commands: list[str] = field(default_factory=list)
    displays: list[tuple[int, str]] = field(default_factory=list)  # (at, reading)
    bursts: dict[str, list[tuple[int, int]]] = field(default_factory=dict)


def _reading(rng: random.Random) -> str:
    whole = str(rng.randrange(0, 10 ** rng.randint(1, 4)))
    frac = "".join(str(rng.randrange(10)) for _ in range(rng.randint(0, 3)))
    text = whole + ("." + frac if frac else "")
    negative = rng.random() < 0.3 and text.strip("0.") != ""
    return ("-" if negative else "") + text


def scenario_plan(seed: int, index: int, duration_ms: int = SCENARIO_MS) -> ScenarioPlan:
    """All six device kinds, sparse stimuli, 100 ms host polls, composites."""
    rng = random.Random(derive(seed, "scenario", index))
    plan = ScenarioPlan(doc={})
    plan.bursts = {"cam": [], "gz": []}

    tap_stimuli = []
    for at in range(1000, duration_ms - 1200, TAP_EVERY_MS):
        taps: list[int] = []
        for _ in range(rng.randint(0, 2)):
            t = 10 * rng.randint(2, 96)
            if all(abs(t - u) > TAP_PULSE_MS + 20 for u in taps):
                taps.append(t)
        taps.sort()
        plan.taps += [at + t for t in taps]
        tap_stimuli.append({"modality": "imu", "at": at, "duration_ms": 1000,
                            "taps": taps})

    voice_stimuli, gaze_stimuli = [], []
    word = "on"
    for at in range(500, duration_ms - 3000, VOICE_EVERY_MS):
        script = []
        for base in (300, 1500):
            t = base + rng.randint(0, 200)
            script.append([word, t])
            plan.voice_words.append((word, at + t))
            word = "off" if word == "on" else "on"
        voice_stimuli.append({"modality": "audio", "at": at, "script": script,
                              "vocabulary": ["on", "off"]})
        if rng.random() < GAZE_SHARE:
            start = 100 * ((at + rng.randint(0, 1600)) // 100)
            plan.bursts["gz"].append((start, GAZE_BURST))
            gaze_stimuli.append(_scene(start, GAZE_BURST, facing=True, distance=1.0))

    command_stimuli = []
    for at in range(3000, duration_ms - 3000, SERIAL_EVERY_MS):
        words = [rng.choice(COMMAND_WORDS) for _ in range(rng.randint(1, 3))]
        plan.commands += words
        command_stimuli.append({
            "modality": "audio", "at": at, "vocabulary": COMMAND_WORDS,
            "script": [[w, 200 + 600 * k] for k, w in enumerate(words)],
        })

    display_stimuli = []
    for at in range(250, duration_ms, DISPLAY_EVERY_MS):
        text = _reading(rng)
        plan.displays.append((at, text))
        display_stimuli.append({
            "modality": "display", "at": at, "reading": text,
            "layout": {"x": 8, "y": 8, "rotation": rng.choice([0, 90, 180, 270]),
                       "frame_width": 96, "frame_height": 96},
        })

    camera_stimuli = []
    for block in range(0, duration_ms - CAMERA_EVERY_MS + 1, CAMERA_EVERY_MS):
        start = block + 100 * rng.randint(10, 150)
        plan.bursts["cam"].append((start, CAMERA_BURST))
        camera_stimuli.append(
            _scene(start, CAMERA_BURST, facing=False, distance=1.0)
        )

    polls = []
    for t in range(POLL_MS, duration_ms + 1, POLL_MS):
        polls.append({"at": t, "address": VOICE_SERIAL_ADDRESS, "n": 2})
        polls.append({"at": t, "address": TEXT_READER_ADDRESS, "n": 8})

    plan.doc = {
        "seed": derive(seed, "scenario-seed", index),
        "duration_ms": duration_ms,
        "devices": [
            _device("tap", "TAP", "TAP", tap_stimuli, {"pulse_ms": TAP_PULSE_MS}),
            _device("voice", "VOICE_PIN", "STATE", voice_stimuli),
            _device("cmd", "VOICE_SERIAL", None, command_stimuli,
                    {"vocabulary": COMMAND_WORDS, "address": VOICE_SERIAL_ADDRESS}),
            _device("tr", "TEXT_READER", None, display_stimuli,
                    {"address": TEXT_READER_ADDRESS}),
            _device("cam", "PERSON", "DETECT", camera_stimuli),
            _device("gz", "GAZE", "DETECT", gaze_stimuli),
        ],
        "composites": [dict(c) for c in COMPOSITES],
        "serial_reads": polls,
    }
    return plan


def _scene(at: int, count: int, facing: bool, distance: float) -> dict:
    return {
        "modality": "scene", "at": at, "every_ms": 100, "count": count,
        "params": {"person_present": True, "facing_camera": facing,
                   "distance_m": distance, "illuminance_lux": 800, "noise_sigma": 4.0},
    }


def _device(device_id: str, kind: str, pin: str | None, stimuli: list[dict],
            config: dict | None = None) -> dict:
    wiring = {"VDD": "vdd", "GND": "gnd"}
    if pin is not None:
        wiring[pin] = f"{device_id}.{pin}"
    spec = {"id": device_id, "kind": kind, "wiring": wiring, "stimuli": stimuli}
    if config:
        spec["config"] = config
    return spec


# -- trace_compose ---------------------------------------------------------------


@dataclass
class ComposeInputs:
    """Recorded traces as (initial level, transition list) pairs."""

    event: list[tuple[int, int]]
    gate: list[tuple[int, int]]
    noisy: list[tuple[int, int]]
    reset: list[tuple[int, int]]
    queries: list[int]
    run_end: int


def edges(rng: random.Random, n: int, short_ms: int, long_ms: int) -> list[tuple[int, int]]:
    """n alternating transitions starting LOW; gaps mix glitches and holds."""
    out, t, level = [], 0, 0
    for _ in range(n):
        t += rng.randint(1, short_ms) if rng.random() < 0.4 else rng.randint(short_ms, long_ms)
        level ^= 1
        out.append((t, level))
    return out


def compose_inputs(seed: int, index: int, n: int = COMPOSE_EDGES) -> ComposeInputs:
    rng = random.Random(derive(seed, "compose", index))
    event = edges(rng, n, 20, 120)
    gate = edges(rng, n, 20, 120)
    noisy = edges(rng, n, DEBOUNCE_HOLD_MS, 80)
    reset = edges(rng, n, 30, 160)
    run_end = max(tr[-1][0] for tr in (event, gate, noisy, reset)) + 100
    queries = [rng.randrange(0, run_end) for _ in range(LEVEL_AT_QUERIES)]
    return ComposeInputs(event, gate, noisy, reset, queries, run_end)


def write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
