import hashlib
import multiprocessing
import random

import numpy as np
import pytest

from vsensor import conformance
from vsensor.conformance import (
    ConformanceReport,
    TestProtocol,
    envelope,
    run,
)
from vsensor.devkit import DeviceError, DeviceKind, SensorDevice
from vsensor.sensors import PersonDetectorDevice, person_detector, tap_sensor
from vsensor.stimuli import derive_seed, scene
from vsensor.stimuli.scene import SceneFrame, SceneParams

SMALL = TestProtocol(
    DeviceKind.PERSON,
    [1.0, 2.0],
    [200, 800],
    trials_per_cell=10,
    negative_window_ms=2000,
    seed=7,
)


@pytest.fixture(scope="module")
def small_report():
    return run(person_detector, SMALL)


class TestProtocolValidation:
    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            TestProtocol(DeviceKind.PERSON, [], [800])

    def test_too_few_trials(self):
        with pytest.raises(ValueError):
            TestProtocol(DeviceKind.PERSON, [1.0], [800], trials_per_cell=5)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            TestProtocol(DeviceKind.PERSON, [1.0], [800], positive_fraction=1.0)

    def test_grid_kinds_only(self):
        with pytest.raises(ValueError):
            TestProtocol(DeviceKind.TAP, [1.0], [800])

    def test_doc_round_trip(self):
        doc = SMALL.to_doc()
        assert TestProtocol.from_doc(doc).to_doc() == doc


class TestRun:
    def test_grid_shape(self, small_report):
        assert len(small_report.cells) == 4
        assert all(c.trials == 10 for c in small_report.cells)

    def test_nominal_cell_perfect(self, small_report):
        cell = next(c for c in small_report.cells if (c.distance_m, c.lux) == (1.0, 800))
        assert cell.tpr == 1.0 and cell.fpr == 0.0

    @pytest.mark.parametrize("budget,tpr,latency", [(150, 0.0, None), (200, 1.0, 200.0)],
                             ids=["late", "in_time"])
    def test_assertion_after_budget_is_a_miss(self, budget, tpr, latency, monkeypatch):
        # the second positive frame raises DETECT at 200 ms; in-process, so
        # that line coverage sees the trial
        monkeypatch.setattr(conformance, "_usable_cpus", lambda: 1)
        protocol = TestProtocol(DeviceKind.PERSON, [1.0], [800], trials_per_cell=10,
                                latency_budget_ms=budget, negative_window_ms=300, seed=7)
        cell = run(person_detector, protocol).cells[0]
        assert (cell.tpr, cell.mean_latency_ms) == (tpr, latency)

    def test_renders_only_frames_read(self, monkeypatch):
        # a negative trial feeds a frame every step but reads only those the
        # DETECT pin's next level depends on; in-process, so the counts see
        # every trial
        monkeypatch.setattr(conformance, "_usable_cpus", lambda: 1)
        counts = {"fed": 0, "rendered": 0, "read": 0}

        def counted(key, fn):
            def call(*args):
                counts[key] += 1
                return fn(*args)
            return call

        monkeypatch.setattr(SensorDevice, "feed_stimulus",
                            counted("fed", SensorDevice.feed_stimulus))
        monkeypatch.setattr(scene, "render_scene", counted("rendered", scene.render_scene))
        monkeypatch.setattr(PersonDetectorDevice, "_present",
                            counted("read", PersonDetectorDevice._present))
        protocol = TestProtocol(DeviceKind.PERSON, [1.0, 3.0], [50], trials_per_cell=10,
                                negative_window_ms=1000, seed=3)
        run(person_detector, protocol)
        assert 0 < counts["rendered"] == counts["read"] < counts["fed"]

    def test_scene_frame_renders_once(self, monkeypatch):
        params = SceneParams(True, False, 2.0, 200.0, 4.0, 17)
        expected = scene.render_scene(params).pixels
        renders = []
        render = scene.render_scene
        monkeypatch.setattr(scene, "render_scene", lambda p: renders.append(p) or render(p))
        frame = SceneFrame(params)
        person_detector().feed_stimulus(frame, 0)
        assert renders == []
        first, second = frame.pixels, frame.pixels
        assert renders == [params] and first is second
        assert first.dtype == np.uint8 and np.array_equal(first, expected)

    def test_reproducible(self, small_report):
        again = run(person_detector, SMALL)
        assert again.to_json() == small_report.to_json()

    def test_trial_order_permutation_invariant(self, small_report):
        pairs = [(ci, ti) for ci in range(4) for ti in range(10)]
        random.Random(123).shuffle(pairs)
        shuffled = run(person_detector, SMALL, execution_order=pairs)
        assert shuffled.to_json() == small_report.to_json()

    def test_bad_execution_order_rejected(self):
        with pytest.raises(ValueError):
            run(person_detector, SMALL, execution_order=[(0, 0)])

    def test_factory_kind_mismatch(self):
        with pytest.raises(DeviceError) as e:
            run(tap_sensor, SMALL)
        assert e.value.code == "FACTORY_KIND_MISMATCH"

    def test_trial_seeds_index_derived(self):
        # a trial's seed is derive_seed(protocol seed, cell, trial): the first
        # 8 bytes, little-endian, of SHA-256 of "seed:cell:trial", the
        # derivation every golden report was made with
        rng = random.Random(5)
        for _ in range(750):
            s, c, t = rng.randrange(-2**40, 2**40), rng.randrange(50), rng.randrange(500)
            digest = hashlib.sha256(f"{s}:{c}:{t}".encode()).digest()
            assert derive_seed(s, c, t) == int.from_bytes(digest[:8], "little")
        assert derive_seed(7, 0, 0) != derive_seed(7, 0, 1)

    def test_report_doc_round_trip(self, small_report):
        doc = small_report.to_doc()
        assert ConformanceReport.from_doc(doc).to_doc() == doc


class TestEnvelope:
    def report_with(self, rates):
        # rates: {(d, lux): (tpr, fpr)}
        from vsensor.conformance import CellResult

        cells = [
            CellResult(d, lux, 10, tpr, fpr, 200.0, 200)
            for (d, lux), (tpr, fpr) in rates.items()
        ]
        return ConformanceReport(SMALL, cells)

    def test_partial_qualification(self):
        rep = self.report_with({
            (1.0, 200): (1.0, 0.0), (1.0, 800): (1.0, 0.0),
            (2.0, 200): (0.95, 0.0), (2.0, 800): (1.0, 0.0),
            (3.0, 200): (0.5, 0.0), (3.0, 800): (0.7, 0.0),
        })
        env = envelope(rep)
        assert (env.max_distance_m, env.min_lux) == (2.0, 200)

    def test_trivial_thresholds_cover_grid(self, small_report):
        env = envelope(small_report, tpr_min=0.0, fpr_max=1.0)
        assert env.max_distance_m == 2.0 and env.min_lux == 200

    def test_impossible_thresholds(self, small_report):
        assert envelope(small_report, tpr_min=1.01) is None


def _shuffled_pairs(protocol):
    cells = len(protocol.distance_levels_m) * len(protocol.lux_levels)
    pairs = [(ci, ti) for ci in range(cells) for ti in range(protocol.trials_per_cell)]
    random.Random(5).shuffle(pairs)
    return pairs


def _fails_on_third_build():
    """A factory whose third call raises; in a worker, counting from its fork."""
    builds = []

    def factory():
        builds.append(None)
        if len(builds) == 3:
            raise DeviceError("THIRD_BUILD", "factory refuses its third device")
        return person_detector()

    return factory


class TestWorkers:
    """Trials run in one forked worker per usable CPU; the report must not
    show how many there were, and no worker may outlive ``run``."""

    TINY = TestProtocol(
        DeviceKind.PERSON, [1.0, 3.0], [50], trials_per_cell=10,
        negative_window_ms=1000, seed=3,
    )

    @pytest.mark.parametrize("factory,order", [
        (person_detector, None),
        (lambda: person_detector(threshold=0.6), None),
        (person_detector, _shuffled_pairs(TINY)),
    ], ids=["person_detector", "lambda_factory", "shuffled_order"])
    def test_report_independent_of_cpu_count(self, factory, order, monkeypatch):
        reports = []
        for cpus in (1, 2):
            monkeypatch.setattr(conformance, "_usable_cpus", lambda: cpus)
            reports.append(run(factory, self.TINY, execution_order=order).to_json())
        assert reports[0] == reports[1]

    def test_no_worker_left_after_return(self, monkeypatch):
        monkeypatch.setattr(conformance, "_usable_cpus", lambda: 2)
        run(person_detector, self.TINY)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_trial_error_reaches_caller_unchanged(self, cpus, monkeypatch):
        monkeypatch.setattr(conformance, "_usable_cpus", lambda: cpus)
        with pytest.raises(DeviceError) as e:
            run(_fails_on_third_build(), self.TINY)
        assert type(e.value) is DeviceError and e.value.code == "THIRD_BUILD"
        assert multiprocessing.active_children() == []
