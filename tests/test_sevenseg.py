import numpy as np
import pytest

from vsensor.stimuli.scene import Frame, SceneParams, render_scene
from vsensor.stimuli.sevenseg import (
    SEGMENT_TABLE,
    DisplayLayout,
    DisplayParams,
    LayoutOverflow,
    Reading,
    _decode_upright,
    _render_patch,
    decode_display,
    render_display,
    segment_lookup,
)

BIG = DisplayLayout(frame_width=140, frame_height=140)


class TestReading:
    def test_validation(self):
        with pytest.raises(ValueError):
            Reading(False, "", "")
        with pytest.raises(ValueError):
            Reading(False, "12a", "")
        with pytest.raises(ValueError):
            Reading(False, "1", "x")

    def test_str(self):
        assert str(Reading(True, "7", "25")) == "-7.25"
        assert str(Reading(False, "0", "")) == "0"


class TestSegmentTable:
    def test_standard_ten_digits(self):
        expected = {
            "0": "abcdef", "1": "bc", "2": "abdeg", "3": "abcdg", "4": "bcfg",
            "5": "acdfg", "6": "acdefg", "7": "abc", "8": "abcdefg", "9": "abcdfg",
        }
        for digit, segs in expected.items():
            assert SEGMENT_TABLE[digit] == frozenset(segs)
            assert segment_lookup(set(segs)) == digit

    def test_non_digit_pattern(self):
        assert segment_lookup({"a", "b"}) is None


class TestRenderDisplay:
    def test_deterministic(self):
        r = Reading(False, "42", "")
        a = render_display(r)
        b = render_display(r)
        assert np.array_equal(a.pixels, b.pixels)

    def test_eight_lights_all_segments(self):
        img = render_display(Reading(False, "8", ""), p=DisplayParams(noise_sigma=0.0))
        # one fully-lit 7-segment cell: both verticals and all three bars
        lit = img.pixels > 120
        assert lit.any()

    def test_layout_overflow(self):
        with pytest.raises(LayoutOverflow):
            render_display(Reading(False, "123456789", ""))
        with pytest.raises(LayoutOverflow):
            render_display(Reading(False, "1", "123456789"))

    def test_right_angle_rotations_only(self):
        with pytest.raises(ValueError, match="rotation must be one of"):
            DisplayLayout(rotation=45)

    @pytest.mark.parametrize("field,value", [("x", 8.5), ("y", True), ("frame_width", "96"),
                                             ("frame_height", 64.0)])
    def test_layout_takes_integers(self, field, value):
        with pytest.raises(TypeError, match=f"{field} must be an integer, not {value!r}"):
            DisplayLayout(**{field: value})
        assert getattr(DisplayLayout(**{field: np.int64(9)}), field) == 9

    def test_params_take_a_number(self):
        with pytest.raises(TypeError, match="illuminance_lux must be a number, not 'bright'"):
            DisplayParams(illuminance_lux="bright")
        assert DisplayParams(illuminance_lux=np.float32(300)).illuminance_lux == 300


class TestDecodeDisplay:
    def test_round_trip_spec_examples(self):
        for text, reading in [
            ("1234.5", Reading(False, "1234", "5")),
            ("0.25", Reading(False, "0", "25")),
            ("42", Reading(False, "42", "")),
        ]:
            decoded = decode_display(render_display(reading))
            assert decoded is not None and str(decoded) == text

    def test_rotation_180(self):
        r = Reading(False, "42", "")
        img = render_display(r, DisplayLayout(rotation=180))
        decoded = decode_display(img)
        assert decoded is not None and str(decoded) == "42"

    def test_all_rotations_with_sign(self):
        r = Reading(True, "90", "5")
        for rot in (0, 90, 180, 270):
            layout = DisplayLayout(rotation=rot, frame_width=140, frame_height=140)
            decoded = decode_display(render_display(r, layout))
            assert decoded is not None and str(decoded) == "-90.5", rot

    def test_blank_frame(self):
        blank = Frame(np.full((64, 128), 20, dtype=np.uint8))
        assert decode_display(blank) is None

    def test_random_round_trips(self):
        rng = np.random.default_rng(0)
        for i in range(40):
            whole = "".join(
                rng.choice(list("0123456789"), size=rng.integers(1, 8))
            ).lstrip("0") or "0"
            frac = "".join(rng.choice(list("0123456789"), size=rng.integers(0, 9)))
            r = Reading(bool(rng.integers(0, 2)), whole, frac)
            rot = int(rng.choice([0, 90, 180, 270]))
            layout = DisplayLayout(rotation=rot, frame_width=140, frame_height=140)
            decoded = decode_display(
                render_display(r, layout, DisplayParams(seed=i))
            )
            assert decoded is not None and str(decoded) == str(r), (str(r), rot)

    def test_scene_frame_is_no_display(self):
        frame = render_scene(SceneParams(True, False, 1.0, 800, 4.0, seed=1))
        assert np.ptp(frame.pixels) >= 60  # enough contrast to try every rotation
        assert decode_display(frame) is None


ONE, MINUS_EIGHT = Reading(False, "1", ""), Reading(True, "8", "")
ALL = slice(None)


# lit masks: a reading's bare patch (marker, cells, point; no margin) with
# (rows, columns, lit) edits; a cell is 5 px wide at a 7 px pitch after a
# 2 px marker and a 2 px gap, and the point fills rows 9-10 of a gap
@pytest.mark.parametrize("reading,edits,expected", [
    (Reading(False, "12", "5"), [], Reading(False, "12", "5")),
    (ONE, [(ALL, slice(None, -2), False), (ALL, slice(-2, None), True)], None),
    (ONE, [(ALL, 2, True)], None),
    (ONE, [(slice(6, 10), 8, False)], None),
    (ONE, [(slice(9, 11), slice(9, 11), False)], None),
    (MINUS_EIGHT, [(slice(9, 11), slice(16, 18), False),
                   (slice(9, 11), slice(9, 11), True)], None),
], ids=["bare_patch_decodes", "marker_at_right_edge", "no_gap_after_marker",
        "segments_no_digit", "no_point", "point_after_sign"])
def test_decode_upright_rejects(reading, edits, expected):
    lit = _render_patch(reading, 1.0) > 0
    for rows, cols, value in edits:
        lit[rows, cols] = value
    assert _decode_upright(lit) == expected
