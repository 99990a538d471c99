import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsensor.stimuli import scene as scene_mod
from vsensor.stimuli.scene import (
    DEFAULT_SCALE_HEIGHTS,
    FRAME_SIZE,
    Frame,
    GazeParams,
    PersonParams,
    SceneParams,
    _figure_template,
    _template_bank,
    detect_gaze,
    detect_person,
    figure_height_px,
    gaze_present,
    integral_images,
    match_score,
    person_present,
    prepare_template,
    render_scene,
)
from vsensor.stimuli.sevenseg import Reading, render_display


def scene(present=True, facing=False, d=1.0, lux=800.0, sigma=4.0, seed=0, figure="person"):
    return render_scene(SceneParams(present, facing, d, lux, sigma, seed, figure))


class TestSceneParams:
    def test_facing_implies_present(self):
        with pytest.raises(ValueError):
            SceneParams(False, True, 1.0, 800, 4.0, 0)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            SceneParams(True, False, 0.1, 800, 4.0, 0)
        with pytest.raises(ValueError):
            SceneParams(True, False, 1.0, 0.5, 4.0, 0)
        with pytest.raises(ValueError):
            SceneParams(True, False, 1.0, 800, 4.0, 0, figure="cat")
        with pytest.raises(ValueError, match="noise_sigma"):
            SceneParams(True, False, 1.0, 800, -1.0, 0)

    @pytest.mark.parametrize("pixels,message", [
        (np.zeros(256), "pixels must be a 2-D array"),
        (np.zeros((15, 96)), "frame dimensions must be >= 16"),
        (np.zeros((96, 15)), "frame dimensions must be >= 16"),
    ], ids=["one_dimensional", "short", "narrow"])
    def test_frame_shape_checks(self, pixels, message):
        with pytest.raises(ValueError, match=message):
            Frame(pixels)


class TestRenderScene:
    def test_deterministic(self):
        a, b = scene(seed=7), scene(seed=7)
        assert np.array_equal(a.pixels, b.pixels)

    def test_seed_changes_pixels(self):
        assert not np.array_equal(scene(seed=1).pixels, scene(seed=2).pixels)

    def test_shape_and_dtype(self):
        f = scene()
        assert f.pixels.shape == (FRAME_SIZE, FRAME_SIZE)
        assert f.pixels.dtype == np.uint8

    def test_figure_height_scales_inverse_with_distance(self):
        assert figure_height_px(1.0) == 50
        assert figure_height_px(5.0) == 10
        assert figure_height_px(1.0) / figure_height_px(5.0) == 5.0

    def test_rendered_bbox_tracks_height(self):
        # figure pixels stand out from the flat background at sigma=0
        for d in (1.0, 2.0, 5.0):
            img = scene(d=d, sigma=0.0).pixels.astype(float)
            bg = scene(present=False, d=d, sigma=0.0).pixels.astype(float)
            ys = np.nonzero(np.abs(img - bg).max(axis=1) > 30)[0]
            h = ys.max() - ys.min() + 1
            assert abs(h - figure_height_px(d)) <= 2


class TestMatchScore:
    def test_perfect_self_match(self):
        rng = np.random.default_rng(0)
        img = rng.normal(100, 20, (40, 40))
        template = img[10:30, 5:25].copy()
        assert match_score(img, prepare_template(template, img.shape)) == pytest.approx(
            1.0, abs=1e-9)

    def test_gain_invariance(self):
        img = scene(seed=3).pixels.astype(np.float64)
        template = img[20:50, 30:60].copy()
        prepared = prepare_template(template, img.shape)
        base = match_score(img, prepared)
        for gain in (0.5, 2.0):
            assert match_score(img * gain, prepared) == pytest.approx(base, abs=1e-6)

    def test_score_clipped_to_unit_interval(self):
        rng = np.random.default_rng(1)
        img = rng.normal(0, 1, (30, 30))
        template = rng.normal(0, 1, (8, 8))
        assert 0.0 <= match_score(img, prepare_template(template, img.shape)) <= 1.0

    def test_unscorable_templates(self):
        img = np.random.default_rng(2).normal(0, 1, (20, 20))
        assert prepare_template(np.full((5, 5), 7.0), img.shape) is None  # flat
        assert prepare_template(np.eye(21), img.shape) is None  # larger than the frame
        assert prepare_template(np.eye(21), (24, 24)) is not None
        assert match_score(img, None) == 0.0


class TestTemplateBank:
    def test_alternating_frame_shapes(self):
        # one bank per frame shape: scores must not depend on which shapes
        # were scored before, so compare against a cold bank every time
        display = render_display(Reading(False, "1234", "5")).pixels
        frames = [Frame(f) for f in (
            scene(seed=3).pixels, display, scene(seed=4).pixels[40:60, 38:58],
            scene(facing=True, seed=5).pixels, display, scene(seed=6).pixels[30:50, 40:60],
        )]
        detectors = (detect_person, detect_gaze,
                     lambda f: detect_person(f, PersonParams(figure="rodent")))
        _template_bank.cache_clear()
        warm = [det(f).score for f in frames for det in detectors]
        cold = []
        for f in frames:
            for det in detectors:
                _template_bank.cache_clear()
                cold.append(det(f).score)
        assert warm == cold
        assert {f.pixels.shape for f in frames} == {(96, 96), (64, 128), (20, 20)}


class TestDetectPerson:
    def test_positive_grid(self):
        for d in (1.0, 2.0, 3.0, 5.0):
            for lux in (50, 800):
                det = detect_person(scene(d=d, lux=lux, seed=11))
                assert det.present, (d, lux, det.score)

    def test_empty_scene_negative(self):
        for seed in range(20):
            det = detect_person(scene(present=False, seed=seed))
            assert not det.present, (seed, det.score)

    def test_score_invariance_under_gain(self):
        f = scene(seed=5)
        det = detect_person(f)
        scaled = Frame(np.clip(f.pixels.astype(float) * 0.5, 0, 255).astype(np.uint8))
        # gain-invariance of the correlation core, through the uint8 carrier
        assert detect_person(scaled).score == pytest.approx(det.score, abs=0.05)

    def test_rodent_calibration_swap(self):
        rodent_scene = scene(figure="rodent", seed=6)
        assert not detect_person(rodent_scene).present
        rodent_params = PersonParams(figure="rodent")
        assert detect_person(rodent_scene, rodent_params).present
        assert not detect_person(scene(seed=6), rodent_params).present

    def test_monotone_degradation_in_distance(self):
        # averaged over seeds, TPR non-increasing with distance per lux level
        seeds = range(40)
        for lux in (50, 200, 800):
            rates = []
            for d in (1.0, 2.0, 3.0, 5.0):
                hits = sum(
                    detect_person(scene(d=d, lux=lux, seed=s)).present for s in seeds
                )
                rates.append(hits / len(list(seeds)))
            assert all(a >= b for a, b in zip(rates, rates[1:])), (lux, rates)


class TestDetectGaze:
    def test_facing_positive(self):
        for seed in range(10):
            assert detect_gaze(scene(facing=True, seed=seed)).present

    def test_facing_away_negative(self):
        for seed in range(20):
            det = detect_gaze(scene(facing=False, seed=seed))
            assert not det.present, (seed, det.score)

    def test_empty_negative(self):
        assert not detect_gaze(scene(present=False, seed=0)).present

    def test_threshold_configurable(self):
        f = scene(facing=True, seed=1)
        assert not detect_gaze(f, GazeParams(threshold=1.01)).present


# thresholds on both sides of the bounded path's (0, 1] domain
THRESHOLDS = [0.0, 1e-7, 0.5, np.float32(0.8), 0.95, 1.0, 1.5, -0.1, float("nan")]


def assert_decisions_exact(frame, threshold, figure="person"):
    """The bounded decisions equal the exact scores' comparisons."""
    person = PersonParams(threshold=threshold, figure=figure)
    gaze = GazeParams(threshold=threshold)
    assert person_present(frame, person) == (detect_person(frame, person).score >= threshold)
    assert gaze_present(frame, gaze) == (detect_gaze(frame, gaze).score >= threshold)


@pytest.fixture
def rejections(monkeypatch):
    """Counts of scales the bound rejected and scales it let through."""
    counts = {True: 0, False: 0}
    bound = scene_mod._cannot_reach

    def counted(*args):
        rejected = bound(*args)
        counts[rejected] += 1
        return rejected

    monkeypatch.setattr(scene_mod, "_cannot_reach", counted)
    return counts


class TestPresentDecision:
    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(present=st.booleans(), facing=st.booleans(), d=st.floats(0.25, 10.0),
           lux=st.floats(1.0, 2000.0), sigma=st.floats(0.0, 16.0),
           seed=st.integers(0, 2**32 - 1), figure=st.sampled_from(["person", "rodent"]),
           detector_figure=st.sampled_from(["person", "rodent"]),
           threshold=st.floats(0.3, 1.0))
    def test_matches_exact_scores(self, present, facing, d, lux, sigma, seed, figure,
                                  detector_figure, threshold):
        frame = scene(present or facing, facing, d, lux, sigma, seed, figure)
        assert_decisions_exact(frame, threshold, detector_figure)

    def test_boundary_grid(self, rejections):
        # sigma 8 puts PERSON at 3-7 m and GAZE at 1.5-3 m near the 0.8
        # threshold; 40 seeds a cell reach frames whose best window is not
        # the first of its 2x2 block, where a bound on one window would fail.
        # GAZE's facing-away negatives score 0.46-0.75 here, and about one
        # scale in six of them passes the bound and runs the NCC chain
        person = [scene(True, False, d, lux, 8.0, seed)
                  for d in (3.0, 5.0, 7.0) for lux in (5.0, 50.0) for seed in range(40)]
        gaze = [scene(True, True, d, lux, 8.0, seed)
                for d in (1.5, 2.0, 2.5, 3.0) for lux in (5.0, 50.0) for seed in range(40)]
        gaze += [scene(True, False, d, lux, 8.0, seed)
                 for d in (1.0, 2.0, 3.0) for lux in (5.0, 50.0) for seed in range(20)]
        scores = [detect_person(f).score for f in person] + [detect_gaze(f).score for f in gaze]
        decided = [person_present(f) for f in person] + [gaze_present(f) for f in gaze]
        assert decided == [x >= 0.8 for x in scores]
        assert min(abs(x - 0.8) for x in scores) < 0.01  # the grid reaches the boundary
        assert 0 < sum(decided) < len(decided)
        assert rejections[True] and rejections[False]

    @pytest.mark.parametrize("threshold", THRESHOLDS, ids=str)
    def test_frame_shapes_and_thresholds(self, threshold):
        wide = np.concatenate([scene(seed=8, d=2.0).pixels[16:80, 16:80],
                               scene(facing=True, seed=9).pixels[16:80, 16:80]], axis=1)
        small = scene(seed=10, d=7.0, sigma=0.0).pixels[36:56, 38:58]
        frames = [scene(seed=11), scene(present=False, seed=12), Frame(wide), Frame(small),
                  Frame(scene(seed=13).pixels.astype(np.float64) * 0.5)]
        assert [f.pixels.shape for f in frames[2:4]] == [(64, 128), (20, 20)]
        for f in frames:
            assert_decisions_exact(f, threshold)

    def test_exact_integral_images(self):
        # integral_images is int64, so exact, for integer pixels and float64
        # otherwise; on the same values both give every NCC to the same bit
        wide = np.concatenate([scene(seed=8, d=2.0).pixels[16:80, 16:80],
                               scene(facing=True, seed=9).pixels[16:80, 16:80]], axis=1)
        saturated = np.full((FRAME_SIZE, FRAME_SIZE), 255, dtype=np.uint8)
        signed = (scene(seed=14).pixels.astype(np.int16) - 128) * 3  # negative values too
        halves = scene(facing=True, seed=15).pixels * 0.5
        for px in (scene(seed=11).pixels, scene(False, seed=12, sigma=16.0).pixels, wide,
                   scene(seed=10).pixels[36:56, 38:58], saturated, signed, halves):
            img = px.astype(np.float64)
            sums, floats = integral_images(px), integral_images(img)
            exact = np.issubdtype(px.dtype, np.integer)
            assert sums.dtype == (np.int64 if exact else np.float64)
            assert floats.dtype == np.float64 and sums.shape == (2, *np.add(px.shape, 1))
            assert sums.astype(np.float64).tobytes() == floats.tobytes()
            img_fft = np.fft.rfft2(img)
            bank = [p for facing, head_only in ((False, False), (True, True))
                    for p in _template_bank("person", facing, head_only,
                                            DEFAULT_SCALE_HEIGHTS, px.shape)]
            assert bank
            for p in bank:
                num = scene_mod._numerator(img_fft, p, px.shape)
                assert scene_mod._ncc_max(num, sums, p) == scene_mod._ncc_max(num, floats, p)
                assert match_score(img, p) == match_score(img, p, img_fft, sums)

    @pytest.mark.parametrize("threshold", [0.999999, 1.0])
    def test_exact_template_copy(self, threshold):
        # a frame holding a bank template scores 1 up to rounding
        template = _figure_template("person", 25, False, False).astype(np.uint8)
        pixels = np.full((FRAME_SIZE, FRAME_SIZE), 30, dtype=np.uint8)
        th, tw = template.shape
        pixels[20 : 20 + th, 41 : 41 + tw] = template
        assert detect_person(Frame(pixels)).score > 0.999
        assert_decisions_exact(Frame(pixels), threshold)
