"""Seven-segment display rendering and decoding.

A display is drawn as a full-height orientation marker bar followed by
glyph cells (digits, optional leading minus) with a decimal-point dot in
the inter-cell gap after the last whole digit.  The decoder locates the
lit bounding box and tries the right-angle rotations that make it one cell
(CELL_H rows) tall, skipping the others in O(1).  It requires the marker
bar on the left, samples each segment per cell, and maps each cell's
segment code through the standard decode table.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import check_noise, is_integer
from .scene import MIN_FRAME_PX, Frame, _contrast

# digit capacity of the text reader's two 32-bit BCD words
MAX_WHOLE_DIGITS = 7
MAX_FRAC_DIGITS = 8

# cell-local geometry (pixels)
CELL_W = 5
CELL_H = 11
GAP = 2
PITCH = CELL_W + GAP
MARKER_W = 2

SEGMENTS = ("a", "b", "c", "d", "e", "f", "g")

SEGMENT_TABLE: dict[str, frozenset[str]] = {
    "0": frozenset("abcdef"),
    "1": frozenset("bc"),
    "2": frozenset("abdeg"),
    "3": frozenset("abcdg"),
    "4": frozenset("bcfg"),
    "5": frozenset("acdfg"),
    "6": frozenset("acdefg"),
    "7": frozenset("abc"),
    "8": frozenset("abcdefg"),
    "9": frozenset("abcdfg"),
}
_SEGMENTS_TO_DIGIT = {v: k for k, v in SEGMENT_TABLE.items()}
MINUS_SEGMENTS = frozenset("g")

# cell-local pixel spans per segment: (rows, cols)
_SEG_SPANS = {
    "a": ((0, 1), (0, CELL_W)),
    "g": ((CELL_H // 2, CELL_H // 2 + 1), (0, CELL_W)),
    "d": ((CELL_H - 1, CELL_H), (0, CELL_W)),
    "f": ((1, CELL_H // 2), (0, 1)),
    "b": ((1, CELL_H // 2), (CELL_W - 1, CELL_W)),
    "e": ((CELL_H // 2 + 1, CELL_H - 1), (0, 1)),
    "c": ((CELL_H // 2 + 1, CELL_H - 1), (CELL_W - 1, CELL_W)),
}
# sampling midpoints (row, col) per segment
_SEG_SAMPLE = {
    "a": (0, CELL_W // 2),
    "g": (CELL_H // 2, CELL_W // 2),
    "d": (CELL_H - 1, CELL_W // 2),
    "f": (CELL_H // 4, 0),
    "b": (CELL_H // 4, CELL_W - 1),
    "e": (3 * CELL_H // 4, 0),
    "c": (3 * CELL_H // 4, CELL_W - 1),
}
# a cell's samples: each segment's midpoint, then the decimal point's pixels
# (the bottom two rows of the gap after the cell), and their bits in its code
_DOT = 1 << len(SEGMENTS)
_SAMPLE_ROWS, _SAMPLE_COLS = np.array(
    [_SEG_SAMPLE[s] for s in SEGMENTS]
    + [(r, CELL_W + c) for r in (CELL_H - 2, CELL_H - 1) for c in range(GAP)]).T
_SAMPLE_BITS = np.array([1 << k for k in range(len(SEGMENTS))] + [_DOT] * 2 * GAP)
_MARKER = [True] * MARKER_W + [False]  # the lit box's first columns all lit: marker, gap


class LayoutOverflow(ValueError):
    """Reading does not fit the display layout."""


@dataclass
class Reading:
    """Digits exactly as displayed; no leading-zero normalization."""

    negative: bool
    whole_digits: str
    frac_digits: str

    def __post_init__(self) -> None:
        # only the digits 0-9 have segments ("²".isdigit() is true)
        if not self.whole_digits or not set(self.whole_digits) <= SEGMENT_TABLE.keys():
            raise ValueError("whole_digits must be a non-empty decimal string")
        if not set(self.frac_digits) <= SEGMENT_TABLE.keys():
            raise ValueError("frac_digits must be a decimal string")

    def __str__(self) -> str:
        sign = "-" if self.negative else ""
        frac = f".{self.frac_digits}" if self.frac_digits else ""
        return f"{sign}{self.whole_digits}{frac}"


@dataclass
class DisplayLayout:
    x: int = 8
    y: int = 8
    rotation: int = 0  # degrees counterclockwise, multiple of 90
    frame_width: int = 128
    frame_height: int = 64

    def __post_init__(self) -> None:
        if self.rotation not in (0, 90, 180, 270):
            raise ValueError("rotation must be one of 0, 90, 180, 270")
        for name in ("x", "y", "frame_width", "frame_height"):
            if not is_integer(getattr(self, name)):
                raise TypeError(f"{name} must be an integer, not {getattr(self, name)!r}")
        if min(self.x, self.y) < 0:
            raise ValueError("x and y must be >= 0")


@dataclass
class DisplayParams:
    """Scene-lite environment for a rendered display."""

    illuminance_lux: float = 500.0
    noise_sigma: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.illuminance_lux, numbers.Real):
            raise TypeError(f"illuminance_lux must be a number, not {self.illuminance_lux!r}")
        check_noise(self.noise_sigma, self.seed)


def segment_lookup(segments: set[str] | frozenset[str]) -> str | None:
    """Exact standard-table lookup; None for non-digit patterns."""
    return _SEGMENTS_TO_DIGIT.get(frozenset(segments))


# each code -> its digit, "-" for the minus sign, None for any other pattern
_GLYPHS = [segment_lookup({s for k, s in enumerate(SEGMENTS) if code >> k & 1})
           for code in range(1 << len(SEGMENTS))]
_GLYPHS[sum(1 << SEGMENTS.index(s) for s in MINUS_SEGMENTS)] = "-"


def _glyph_cells(r: Reading) -> list[frozenset[str]]:
    cells = []
    if r.negative:
        cells.append(MINUS_SEGMENTS)
    cells += [SEGMENT_TABLE[d] for d in r.whole_digits]
    cells += [SEGMENT_TABLE[d] for d in r.frac_digits]
    return cells


def _patch_shape(n_cells: int) -> tuple[int, int]:
    return CELL_H, MARKER_W + GAP + n_cells * PITCH


def _render_patch(r: Reading, on: float) -> np.ndarray:
    """Marker + cells + dot on a zero background."""
    cells = _glyph_cells(r)
    dot_after = (1 if r.negative else 0) + len(r.whole_digits) - 1
    patch = np.zeros(_patch_shape(len(cells)))
    patch[:, :MARKER_W] = on
    for i, segs in enumerate(cells):
        x0 = MARKER_W + GAP + i * PITCH
        for s in segs:
            (r0, r1), (c0, c1) = _SEG_SPANS[s]
            patch[r0:r1, x0 + c0 : x0 + c1] = on
    # decimal point in the gap after the last whole digit
    dx = MARKER_W + GAP + dot_after * PITCH + CELL_W
    patch[CELL_H - 2 : CELL_H, dx : dx + GAP] = on
    return patch


def check_display(r: Reading, layout: DisplayLayout) -> None:
    """Raise what ``render_display(r, layout, ...)`` would raise: the reading
    must fit the text reader's registers and, drawn at ``layout``, its frame."""
    if len(r.whole_digits) > MAX_WHOLE_DIGITS:
        raise LayoutOverflow(f"{len(r.whole_digits)} whole digits > {MAX_WHOLE_DIGITS}")
    if len(r.frac_digits) > MAX_FRAC_DIGITS:
        raise LayoutOverflow(f"{len(r.frac_digits)} fractional digits > {MAX_FRAC_DIGITS}")
    ph, pw = _patch_shape(len(_glyph_cells(r)))
    if layout.rotation in (90, 270):
        ph, pw = pw, ph
    if layout.y + ph > layout.frame_height or layout.x + pw > layout.frame_width:
        raise LayoutOverflow("rendered display exceeds frame bounds")
    if min(layout.frame_width, layout.frame_height) < MIN_FRAME_PX:
        raise ValueError(f"frame dimensions must be >= {MIN_FRAME_PX}")  # as Frame checks


def render_display(
    r: Reading, layout: DisplayLayout | None = None, p: DisplayParams | None = None
) -> Frame:
    """Deterministic seven-segment rendering of a reading."""
    layout = layout or DisplayLayout()
    p = p or DisplayParams()
    check_display(r, layout)
    on = 20.0 + 235.0 * _contrast(p.illuminance_lux)
    patch = np.rot90(_render_patch(r, on), layout.rotation // 90)
    img = np.full((layout.frame_height, layout.frame_width), 20.0)
    ph, pw = patch.shape
    region = img[layout.y : layout.y + ph, layout.x : layout.x + pw]
    img[layout.y : layout.y + ph, layout.x : layout.x + pw] = np.maximum(region, patch)
    rng = np.random.default_rng(p.seed)
    if p.noise_sigma > 0:
        img += rng.normal(0.0, p.noise_sigma, img.shape)
    return Frame(np.clip(img, 0, 255, out=img).astype(np.uint8))


class DisplayFrame(Frame):
    """The frame ``render_display(reading, layout, params)``, checked when
    made, rendered on the first read of its pixels and then kept."""

    def __init__(self, reading: Reading, layout: DisplayLayout, params: DisplayParams) -> None:
        check_display(reading, layout)
        self._args = (reading, layout, params)

    @cached_property
    def pixels(self) -> np.ndarray:
        return render_display(*self._args).pixels


def _decode_upright(box: np.ndarray, room: int) -> Reading | None:
    """Read an upright display off its lit box, CELL_H rows tall, with
    ``room`` unlit columns of the frame to the box's right."""
    # orientation marker: two fully-lit columns then a gap column
    if box[:, : MARKER_W + 1].all(axis=0).tolist() != _MARKER:
        return None
    width = box.shape[1] + min(room, PITCH)  # a cell that starts further right is unlit
    lit = np.zeros((CELL_H, width + PITCH), bool)
    lit[:, : box.shape[1]] = box
    # the cells that fit in the frame, up to the first one with no lit pixel
    fit = max(0, (width - CELL_W - MARKER_W - GAP) // PITCH + 1)
    cells = lit[:, MARKER_W + GAP : MARKER_W + GAP + fit * PITCH].reshape(CELL_H, fit, PITCH)
    n = (cells[:, :, :CELL_W].any(axis=(0, 2)).tolist() + [False]).index(False)
    codes = (_SAMPLE_BITS @ cells[_SAMPLE_ROWS, :n, _SAMPLE_COLS]).tolist()
    glyphs = [_GLYPHS[c & _DOT - 1] for c in codes]
    dot_after = [i for i, c in enumerate(codes) if c >= _DOT]
    if not glyphs or None in glyphs or "-" in glyphs[1:] or len(dot_after) != 1:
        return None
    negative = glyphs[0] == "-"
    digits = glyphs[1:] if negative else glyphs
    split = dot_after[0] - (1 if negative else 0) + 1
    if split < 1 or split > len(digits):
        return None
    whole = "".join(digits[:split])
    frac = "".join(digits[split:])
    return Reading(negative, whole, frac)


def decode_display(frame: Frame) -> Reading | None:
    """Locate and read a seven-segment display at any right-angle rotation.
    Only the rotations that make the lit box CELL_H rows tall are read, as
    no other can hold a display; each reads the box alone."""
    px = frame.pixels
    lo, hi = px.min().item(), px.max().item()
    if hi - lo < 60.0:
        return None  # no display-contrast content
    # integer pixels are compared in their own dtype, with the mid-level's ceiling
    lit = px >= (lo + hi + 1) // 2 if px.dtype.kind in "iu" else px.astype(float) >= (lo + hi) / 2
    ys, xs = lit.any(axis=1).nonzero()[0], lit.any(axis=0).nonzero()[0]
    y0, y1, x0, x1 = int(ys[0]), int(ys[-1]), int(xs[0]), int(xs[-1])
    box = lit[y0 : y1 + 1, x0 : x1 + 1]
    # np.rot90(box, -k) for k = 0..3 as views, each with the frame's columns to its right
    turns = ((box, lit.shape[1] - 1 - x1), (box.T[:, ::-1], y0),
             (box[::-1, ::-1], x0), (box.T[::-1], lit.shape[0] - 1 - y1))
    for turned, room in turns:
        if len(turned) == CELL_H and (reading := _decode_upright(turned, room)):
            return reading
    return None
