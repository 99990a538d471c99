"""Conformance harness: labeled stimuli across a distance × illuminance
grid, reporting per-cell true/false positive rates and assertion latency.

Every trial runs on a fresh bus and device with an index-derived seed, so
trial execution order cannot influence the report.  That also lets the
trials run in one forked worker process per usable CPU while the report
stays byte-identical to an in-process run.  The grid axes apply
to the scene-modality kinds (PERSON, GAZE); for a GAZE sensor the
negative trials show a person facing away — the discriminative case —
rather than an empty room.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from .datasheet import canonical_json
from .devkit import DeviceError, DeviceKind, power_on
from .sensors import gaze_detector, person_detector
from .stimuli import derive_seed
from .stimuli.scene import SceneFrame, SceneParams
from .vbus import Bus

TOOL_VERSION = "1.0"
DEFAULT_NOISE_SIGMA = 4.0
# the kinds a distance/lux grid applies to, with the factory that builds one
GRID_FACTORIES = {DeviceKind.PERSON: person_detector, DeviceKind.GAZE: gaze_detector}


@dataclass
class TestProtocol:
    __test__ = False  # keep pytest from collecting this as a test class

    sensor_kind: DeviceKind
    distance_levels_m: list[float]
    lux_levels: list[float]
    trials_per_cell: int = 200
    positive_fraction: float = 0.5
    latency_budget_ms: int = 1000
    negative_window_ms: int = 5000
    noise_sigma: float = DEFAULT_NOISE_SIGMA
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.distance_levels_m or not self.lux_levels:
            raise ValueError("grids must be non-empty")
        for name in ("trials_per_cell", "latency_budget_ms", "negative_window_ms", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, not {value!r}")
        if self.trials_per_cell < 10:
            raise ValueError("trials_per_cell must be >= 10")
        for name in ("latency_budget_ms", "negative_window_ms"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if not (0.0 < self.positive_fraction < 1.0):
            raise ValueError("positive_fraction must be in (0, 1)")
        if not 1 <= self.positive_trials < self.trials_per_cell:
            raise ValueError(
                f"positive_fraction {self.positive_fraction} of {self.trials_per_cell} "
                "trials leaves no positive or no negative trials"
            )
        if self.sensor_kind not in GRID_FACTORIES:
            raise ValueError(
                f"distance/lux grid applies to {[k.name for k in GRID_FACTORIES]}, "
                f"not {self.sensor_kind.name}"
            )
        for distance_m in self.distance_levels_m:
            for lux in self.lux_levels:  # the scene's own bounds
                SceneParams(True, False, distance_m, lux, self.noise_sigma)

    @property
    def positive_trials(self) -> int:
        """Trials per cell that show a positive scene: the lowest indices."""
        return round(self.trials_per_cell * self.positive_fraction)

    def to_doc(self) -> dict:
        return {**asdict(self), "sensor_kind": self.sensor_kind.name}

    @classmethod
    def from_doc(cls, doc: dict) -> "TestProtocol":
        return cls(**{**doc, "sensor_kind": DeviceKind[doc["sensor_kind"]]})


@dataclass
class CellResult:
    distance_m: float
    lux: float
    trials: int
    tpr: float
    fpr: float
    mean_latency_ms: float | None
    p95_latency_ms: int | None


@dataclass
class OperatingEnvelope:
    max_distance_m: float
    min_lux: float
    tpr_min: float
    fpr_max: float


@dataclass
class ConformanceReport:
    protocol: TestProtocol
    cells: list[CellResult]
    tool_version: str = TOOL_VERSION
    envelope_summary: OperatingEnvelope | None = None

    def to_doc(self) -> dict:
        env = self.envelope_summary
        return {
            "protocol": self.protocol.to_doc(),
            "cells": [asdict(c) for c in self.cells],
            "envelope": asdict(env) if env else None,
            "tool_version": self.tool_version,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_doc())

    @classmethod
    def from_doc(cls, doc: dict) -> "ConformanceReport":
        env = doc.get("envelope")
        return cls(
            TestProtocol.from_doc(doc["protocol"]),
            [CellResult(**c) for c in doc["cells"]],
            doc.get("tool_version", TOOL_VERSION),
            OperatingEnvelope(**env) if env else None,
        )


def _run_trial(
    factory, protocol: TestProtocol, distance_m: float, lux: float,
    positive: bool, seed: int,
) -> tuple[bool, int | None]:
    """(asserted within window, first assertion latency ms or None)."""
    rng = np.random.default_rng(seed)
    bus = Bus()
    device = factory()
    pin = device.interface.signal_pins()[0]
    power_on(device, bus, {"VDD": "vdd", "GND": "gnd", pin: "out"})
    frame_period = device.cadence_ms
    window = protocol.latency_budget_ms if positive else protocol.negative_window_ms
    gaze = protocol.sensor_kind == DeviceKind.GAZE
    # a gaze negative is the discriminative case: person present, facing away
    scene = SceneParams(positive or gaze, positive and gaze, distance_m, lux,
                        protocol.noise_sigma, 0)
    # the line starts LOW, so its first transition is the first assertion;
    # stop there, since that assertion fixes the outcome
    trace = bus.lines["out"]
    t = 0
    while t < window and not trace.times:
        frame_seed = int(rng.integers(0, 2**63))
        device.feed_stimulus(SceneFrame(replace(scene, seed=frame_seed)), t)
        bus.advance(frame_period)
        t += frame_period
    if not trace.times:
        return False, None
    latency = trace.times[0]
    if positive and latency > protocol.latency_budget_ms:
        return False, latency
    return True, latency


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


_forked_trial = None  # set in each forked worker by _set_forked_trial


def _set_forked_trial(trial) -> None:
    global _forked_trial
    _forked_trial = trial


def _call_forked_trial(pair: tuple[int, int]) -> tuple[bool, int | None]:
    return _forked_trial(pair)


def _map_trials(trial, pairs: list[tuple[int, int]]) -> list[tuple[bool, int | None]]:
    """``trial`` applied to each pair, in order, on one worker per usable CPU.

    Workers are forked, so ``trial`` and the factory it closes over (tests
    pass lambdas) are inherited rather than pickled; only the pairs and the
    (asserted, latency) results cross a pipe.  With one CPU, or without
    ``fork``, the trials run in this process.  No worker outlives the call.
    """
    workers = min(_usable_cpus(), len(pairs))
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [trial(pair) for pair in pairs]
    pool = multiprocessing.get_context("fork").Pool(workers, _set_forked_trial, (trial,))
    try:
        # chunksize 1: a negative trial feeds 50 frames and renders only the
        # ones it reads, far more than a positive one that stops early, so
        # deal trials out one at a time
        results = pool.map(_call_forked_trial, pairs, chunksize=1)
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()
    return results


def run(
    factory,
    protocol: TestProtocol,
    execution_order: list[tuple[int, int]] | None = None,
) -> ConformanceReport:
    """Run the full grid; deterministic given the protocol (incl. seed).

    ``execution_order`` may permute the (cell index, trial index) pairs;
    trials are isolated and index-seeded, so the assembled report is
    identical for every permutation, and for any number of workers.
    """
    probe = factory()
    if probe.kind != protocol.sensor_kind:
        raise DeviceError(
            "FACTORY_KIND_MISMATCH",
            f"factory builds {probe.kind.name}, protocol wants "
            f"{protocol.sensor_kind.name}",
        )
    grid = [
        (d, lux)
        for d in protocol.distance_levels_m
        for lux in protocol.lux_levels
    ]
    n_pos = protocol.positive_trials
    pairs = [
        (ci, ti)
        for ci in range(len(grid))
        for ti in range(protocol.trials_per_cell)
    ]
    if execution_order is None:
        execution_order = pairs
    elif sorted(execution_order) != pairs:
        raise ValueError("execution_order must permute the full trial set")

    def trial(pair: tuple[int, int]) -> tuple[bool, int | None]:
        ci, ti = pair
        distance_m, lux = grid[ci]
        return _run_trial(
            factory,
            protocol,
            distance_m,
            lux,
            ti < n_pos,
            derive_seed(protocol.seed, ci, ti),
        )

    outcomes = dict(zip(execution_order, _map_trials(trial, execution_order)))
    cells: list[CellResult] = []
    n_neg = protocol.trials_per_cell - n_pos
    for ci, (distance_m, lux) in enumerate(grid):
        results = [outcomes[(ci, ti)] for ti in range(protocol.trials_per_cell)]
        # an asserted positive's latency is the first assertion, never None
        latencies = sorted(latency for asserted, latency in results[:n_pos] if asserted)
        fp = sum(asserted for asserted, _ in results[n_pos:])
        cells.append(
            CellResult(
                distance_m=distance_m,
                lux=lux,
                trials=protocol.trials_per_cell,
                tpr=round(len(latencies) / n_pos, 6),
                fpr=round(fp / n_neg, 6),
                mean_latency_ms=round(sum(latencies) / len(latencies), 2)
                if latencies
                else None,
                p95_latency_ms=latencies[max(0, -(-95 * len(latencies) // 100) - 1)]
                if latencies
                else None,
            )
        )
    report = ConformanceReport(protocol, cells)
    report.envelope_summary = envelope(report)
    return report


def envelope(
    report: ConformanceReport, tpr_min: float = 0.9, fpr_max: float = 0.05
) -> OperatingEnvelope | None:
    """Largest (max distance, min lux) box whose cells all meet thresholds.

    Among qualifying boxes the maximum distance wins, then the minimum
    lux; None when no cell qualifies.
    """
    distances = sorted(set(c.distance_m for c in report.cells))
    luxes = sorted(set(c.lux for c in report.cells), reverse=True)
    best: tuple[float, float] | None = None
    for max_d in distances:
        for min_lux in luxes:
            box = [
                c
                for c in report.cells
                if c.distance_m <= max_d and c.lux >= min_lux
            ]
            if all(c.tpr >= tpr_min and c.fpr <= fpr_max for c in box):
                if (
                    best is None
                    or max_d > best[0]
                    or (max_d == best[0] and min_lux < best[1])
                ):
                    best = (max_d, min_lux)
    if best is None:
        return None
    return OperatingEnvelope(best[0], best[1], tpr_min, fpr_max)
