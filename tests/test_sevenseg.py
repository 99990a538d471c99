import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsensor.stimuli.scene import MIN_FRAME_PX, Frame, SceneParams, _contrast, render_scene
from vsensor.stimuli.sevenseg import (
    _SEG_SAMPLE,
    CELL_H,
    CELL_W,
    GAP,
    MARKER_W,
    MAX_FRAC_DIGITS,
    MAX_WHOLE_DIGITS,
    MINUS_SEGMENTS,
    PITCH,
    SEGMENT_TABLE,
    SEGMENTS,
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
    ys, xs = np.nonzero(lit)  # the lit box, and the patch's columns to its right
    box = lit[ys.min() : ys.max() + 1, xs.min() : xs.max() + 1]
    assert _decode_upright(box, lit.shape[1] - 1 - xs.max()) == expected


# -- the decode against the four-way full-frame decode it replaced ----------------

def _oracle_decode_upright(lit):
    ys, xs = np.nonzero(lit)
    y0, y1 = int(ys.min()), int(ys.max())
    x0 = int(xs.min())
    if y1 - y0 + 1 != CELL_H:
        return None
    box = lit[y0 : y1 + 1]
    if x0 + MARKER_W >= lit.shape[1]:
        return None
    if not box[:, x0 : x0 + MARKER_W].all():
        return None
    if box[:, x0 + MARKER_W].all():
        return None
    cells_x = x0 + MARKER_W + GAP
    glyphs, dot_after = [], []
    i = 0
    while True:
        cx = cells_x + i * PITCH
        if cx + CELL_W > lit.shape[1]:
            break
        cell = box[:, cx : cx + CELL_W]
        if not cell.any():
            break
        segs = {s for s in SEGMENTS if cell[_SEG_SAMPLE[s]]}
        digit = segment_lookup(segs)
        if digit is not None:
            glyphs.append(digit)
        elif segs == MINUS_SEGMENTS and i == 0:
            glyphs.append("-")
        else:
            return None
        gap = box[CELL_H - 2 :, cx + CELL_W : cx + CELL_W + GAP]
        if gap.size and gap.any():
            dot_after.append(i)
        i += 1
    if not glyphs or len(dot_after) != 1:
        return None
    negative = glyphs[0] == "-"
    digits = glyphs[1:] if negative else glyphs
    split = dot_after[0] - (1 if negative else 0) + 1
    if split < 1 or split > len(digits):
        return None
    return Reading(negative, "".join(digits[:split]), "".join(digits[split:]))


def _oracle_decode_display(frame):
    """Every rotation of the whole frame, thresholded as float64."""
    img = frame.pixels.astype(np.float64)
    lo, hi = float(img.min()), float(img.max())
    if hi - lo < 60.0:
        return None
    mid = (lo + hi) / 2.0
    for k in range(4):
        reading = _oracle_decode_upright(np.rot90(img, -k) >= mid)
        if reading is not None:
            return reading
    return None


_digits = st.text("0123456789", min_size=1, max_size=MAX_WHOLE_DIGITS)
_readings = st.builds(Reading, st.booleans(), _digits,
                      st.text("0123456789", max_size=MAX_FRAC_DIGITS))


@st.composite
def _displays(draw, clean=False):
    """A reading drawn at a fitting rotation, place and frame size, with the
    frame's (reading, lux, noise); noise-free and well lit when ``clean``."""
    reading = draw(_readings)
    rotation = draw(st.sampled_from([0, 90, 180, 270]))
    ph, pw = _render_patch(reading, 1.0).shape
    if rotation in (90, 270):
        ph, pw = pw, ph
    width = draw(st.integers(max(MIN_FRAME_PX, pw), pw + 40))
    height = draw(st.integers(max(MIN_FRAME_PX, ph), ph + 40))
    layout = DisplayLayout(draw(st.integers(0, width - pw)), draw(st.integers(0, height - ph)),
                           rotation, width, height)
    lux = draw(st.floats(100.0 if clean else 1.0, 2000.0))
    noise = 0.0 if clean else draw(st.one_of(st.just(0.0), st.floats(0.0, 80.0)))
    frame = render_display(reading, layout, DisplayParams(lux, noise, draw(st.integers(0, 99))))
    return frame, reading, lux, noise


@st.composite
def _junk(draw):
    """Random frames, and displays with pixels changed next to them or all
    over, cut by the frame's edge, or in float64."""
    kind = draw(st.sampled_from(["random", "near", "flipped", "cropped", "float"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        shape = (draw(st.integers(16, 48)), draw(st.integers(16, 48)))
        return Frame(rng.integers(0, 256, shape, dtype=np.uint8))
    frame, _, _, _ = draw(_displays(clean=kind == "near"))
    px = frame.pixels.copy()
    if kind == "near":  # in the display's rows, up to a cell pitch past its ends
        lo, hi = int(px.min()), int(px.max())
        ys, xs = np.nonzero(px == hi)
        grow_y, grow_x = (1, PITCH) if np.ptp(xs) > np.ptp(ys) else (PITCH, 1)
        for _ in range(draw(st.integers(1, 3))):
            y = draw(st.integers(max(0, ys.min() - grow_y), min(px.shape[0] - 1, ys.max() + grow_y)))
            x = draw(st.integers(max(0, xs.min() - grow_x), min(px.shape[1] - 1, xs.max() + grow_x)))
            px[y, x] = draw(st.sampled_from([hi, lo, (lo + hi) // 2, (lo + hi + 1) // 2]))
    elif kind == "flipped":
        flips = rng.random(px.shape) < draw(st.sampled_from([0.001, 0.01, 0.05]))
        px[flips] = np.where(px[flips] > 128, 20, 255)
    elif kind == "cropped":
        h, w = px.shape
        px = px[draw(st.integers(0, h - 16)):, : draw(st.integers(16, w))]
    else:
        return Frame(px + rng.random(px.shape))
    return Frame(px)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_displays())
def test_decode_equals_the_four_way_decode_on_displays(drawn):
    frame, reading, lux, noise = drawn
    decoded = decode_display(frame)
    assert decoded == _oracle_decode_display(frame)
    if noise == 0 and 235.0 * _contrast(lux) >= 60.0:  # the contrast the decode needs
        assert decoded == reading


@settings(max_examples=600, derandomize=True, deadline=None)
@given(_junk())
def test_decode_equals_the_four_way_decode_on_junk(frame):
    assert decode_display(frame) == _oracle_decode_display(frame)
