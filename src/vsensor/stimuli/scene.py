"""Synthetic grayscale scenes and the template-correlation detectors.

A scene is a 96x96 frame containing background texture and optionally a
parameterized figure (a person, facing or not, or a rodent for
calibration-transfer experiments).  Apparent figure height scales as
1/distance; contrast scales with log illuminance; pixel noise is
Gaussian and seeded.

Detection is maximum normalized cross-correlation of the frame against
a figure template over a coarse scale/translation grid.  NCC is
invariant to global gain, so illuminance affects detectability only
through the noise-to-contrast ratio.  ``person_present``/``gaze_present``
give the same decisions without the score, skipping each scale whose
score an upper bound keeps below the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import check_noise

FRAME_SIZE = 96
MIN_FRAME_PX = 16  # the smallest frame side a Frame takes
FIGURE_BASE_HEIGHT_PX = 50  # apparent height at 1 m
MIN_FIGURE_HEIGHT_PX = 6
MAX_FIGURE_HEIGHT_PX = 88
CONTRAST_FULL_SCALE = 150.0  # intensity delta at the lux ceiling
LUX_CEILING = 2000.0

FIGURES = ("person", "rodent")


@dataclass
class Frame:
    pixels: np.ndarray  # row-major 8-bit grayscale

    def __post_init__(self) -> None:
        self.pixels = np.asarray(self.pixels)
        if self.pixels.ndim != 2:
            raise ValueError("pixels must be a 2-D array")
        if min(self.pixels.shape) < MIN_FRAME_PX:
            raise ValueError(f"frame dimensions must be >= {MIN_FRAME_PX}")


@dataclass
class SceneParams:
    person_present: bool
    facing_camera: bool = False
    distance_m: float = 1.0
    illuminance_lux: float = 500.0
    noise_sigma: float = 4.0
    seed: int = 0
    figure: str = "person"

    def __post_init__(self) -> None:
        if not (0.25 <= self.distance_m <= 10.0):
            raise ValueError("distance_m must be in [0.25, 10]")
        if not (1.0 <= self.illuminance_lux <= 2000.0):
            raise ValueError("illuminance_lux must be in [1, 2000]")
        check_noise(self.noise_sigma, self.seed)
        if self.facing_camera and not self.person_present:
            raise ValueError("facing_camera implies person_present")
        if self.figure not in FIGURES:
            raise ValueError(f"figure must be one of {FIGURES}")


@dataclass
class Detection:
    present: bool
    score: float


def _contrast(lux: float) -> float:
    return float(np.log10(max(lux, 1.0)) / np.log10(LUX_CEILING))


def _smooth_field(rng: np.random.Generator, n: int, coarse: int = 6) -> np.ndarray:
    """Bilinearly upsampled coarse Gaussian grid: smooth, featureless texture."""
    g = rng.normal(0.0, 1.0, (coarse, coarse))
    xs = np.linspace(0.0, coarse - 1.0, n)
    i0 = np.floor(xs).astype(int)
    i1 = np.minimum(i0 + 1, coarse - 1)
    w = xs - i0
    cols = g[:, i0] * (1.0 - w) + g[:, i1] * w  # (coarse, n)
    rows = cols[i0, :] * (1.0 - w)[:, None] + cols[i1, :] * w[:, None]
    return rows


def figure_height_px(distance_m: float) -> int:
    return int(np.clip(round(FIGURE_BASE_HEIGHT_PX / distance_m),
                       MIN_FIGURE_HEIGHT_PX, MAX_FIGURE_HEIGHT_PX))


def _draw_person(img: np.ndarray, cx: int, top: int, h: int,
                 facing: bool, level: float) -> None:
    """Head + shoulders + torso silhouette of total height h."""
    hh, ww = img.shape
    r = max(1, round(h * 0.14))
    head_cy = top + r
    torso_top = top + 2 * r
    torso_w = max(2, round(h * 0.36))
    yy, xx = np.ogrid[:hh, :ww]
    # torso: tapered block (shoulders wider than hips)
    for y in range(torso_top, min(top + h, hh)):
        frac = (y - torso_top) / max(1, (top + h - torso_top))
        half = max(1, round(torso_w * (1.0 - 0.25 * frac) / 2))
        x0, x1 = max(0, cx - half), min(ww, cx + half + 1)
        img[y, x0:x1] = level
    # head disc
    head = (yy - head_cy) ** 2 + (xx - cx) ** 2 <= r * r
    if facing:
        img[head] = level
        # facial features: dark eyes and mouth
        er = max(1, r // 4)
        for ex in (cx - max(1, round(r * 0.45)), cx + max(1, round(r * 0.45))):
            eye = (yy - (head_cy - max(1, round(r * 0.25)))) ** 2 + (xx - ex) ** 2 <= er * er
            img[eye] = level * 0.25
        my = head_cy + max(1, round(r * 0.4))
        mh = max(1, round(r * 0.5))
        img[my : my + max(1, er), cx - mh : cx + mh + 1] = level * 0.25
    else:
        # back of the head: uniformly dark hair
        img[head] = level * 0.35


def _draw_rodent(img: np.ndarray, cx: int, top: int, h: int, level: float) -> None:
    """Low, wide body with a tail: deliberately unlike the person shape."""
    hh, ww = img.shape
    yy, xx = np.ogrid[:hh, :ww]
    cy = top + h - max(2, round(h * 0.25))
    a = max(2, round(h * 0.65))  # semi-axis along x
    b = max(1, round(h * 0.25))  # semi-axis along y
    body = ((xx - cx) / a) ** 2 + ((yy - cy) / b) ** 2 <= 1.0
    img[body] = level
    # head bump at the right end
    hr = max(1, round(h * 0.18))
    head = (xx - (cx + a)) ** 2 + (yy - (cy - b // 2)) ** 2 <= hr * hr
    img[head] = level
    # tail: thin line to the left
    ty = min(hh - 1, cy + b // 2)
    x0 = max(0, cx - a - round(h * 0.8))
    img[ty, x0 : max(0, cx - a)] = level


def render_scene(p: SceneParams) -> Frame:
    """Deterministic scene synthesis; the simulated calibrated monitor."""
    rng = np.random.default_rng(p.seed)
    n = FRAME_SIZE
    # smooth background texture: coarse seeded grid upsampled to full size
    img = 24.0 + 6.0 * _smooth_field(rng, n)
    jitter = rng.integers(-4, 5, size=2)
    contrast = _contrast(p.illuminance_lux)
    level = 24.0 + CONTRAST_FULL_SCALE * contrast
    # person_present doubles as "figure present" for non-person figures
    if p.person_present:
        h = figure_height_px(p.distance_m)
        cx = n // 2 + int(jitter[0])
        top = (n - h) // 2 + int(jitter[1])
        if p.figure == "person":
            _draw_person(img, cx, top, h, p.facing_camera, level)
        else:
            _draw_rodent(img, cx, top, h, level)
    if p.noise_sigma > 0:
        img = img + rng.normal(0.0, p.noise_sigma, (n, n))
    return Frame(np.clip(img, 0, 255).astype(np.uint8))


class SceneFrame(Frame):
    """The frame ``render_scene(params)``, rendered on the first read of its
    pixels and then kept: a frame that no detector reads is never rendered."""

    def __init__(self, params: SceneParams) -> None:
        self.params = params

    @cached_property
    def pixels(self) -> np.ndarray:
        return render_scene(self.params).pixels


# -- templates --------------------------------------------------------------


def _figure_template(figure: str, h: int, facing: bool, head_only: bool) -> np.ndarray:
    """Clean figure rendering cropped to its bounding box, as float64."""
    pad = 4
    canvas = np.zeros((h + 2 * pad, h + 2 * pad), dtype=np.float64)
    cx = canvas.shape[1] // 2
    if figure == "person":
        _draw_person(canvas, cx, pad, h, facing, 200.0)
        if head_only:
            r = max(1, round(h * 0.14))
            canvas = canvas[: pad + 2 * r + 2, :]
    else:
        _draw_rodent(canvas, cx, pad, h, 200.0)
    ys, xs = np.nonzero(canvas)
    y0, y1 = ys.min(), ys.max() + 1
    x0, x1 = xs.min(), xs.max() + 1
    m = 1  # thin margin of background around the figure
    y0, x0 = max(0, y0 - m), max(0, x0 - m)
    y1 = min(canvas.shape[0], y1 + m)
    x1 = min(canvas.shape[1], x1 + m)
    return np.ascontiguousarray(canvas[y0:y1, x0:x1])


def prepare_template(template: np.ndarray, shape: tuple[int, int]) -> tuple | None:
    """(height, width, norm, conjugate spectrum of the mean-removed template
    zero-padded to ``shape``): what match_score needs of a template, or None
    when it cannot score in a frame of that shape (larger, or flat)."""
    th, tw = template.shape
    if th > shape[0] or tw > shape[1]:
        return None
    tz = template - template.mean()
    tn = float(np.sqrt((tz * tz).sum()))
    if tn == 0.0:
        return None
    padded = np.zeros(shape)
    padded[:th, :tw] = tz
    return th, tw, tn, np.conj(np.fft.rfft2(padded))


@lru_cache(maxsize=64)
def _template_bank(figure: str, facing: bool, head_only: bool, heights: tuple[int, ...],
                   frame_shape: tuple[int, int]) -> tuple[tuple, ...]:
    """The prepared figure template of each scale that can score in the frame."""
    bank = (prepare_template(_figure_template(figure, h, facing, head_only), frame_shape)
            for h in heights)
    return tuple(p for p in bank if p is not None)


def match_score(
    pixels: np.ndarray,
    prepared: tuple | None,
    img_fft: np.ndarray | None = None,
    window_sums: np.ndarray | None = None,
) -> float:
    """Max normalized cross-correlation of a prepared template over the
    image at every translation, clipped to [0, 1]; 0.0 for None.
    Invariant to global positive gain on the image.

    The numerator is computed by FFT cross-correlation; window
    mean/variance come from integral images.  The optional precomputed
    ``img_fft``/``window_sums`` let a caller share per-frame work across
    template scales.
    """
    if prepared is None:
        return 0.0
    img = np.asarray(pixels, dtype=np.float64)
    if img_fft is None:
        img_fft = np.fft.rfft2(img)
    if window_sums is None:
        window_sums = integral_images(np.asarray(pixels))
    return _ncc_max(_numerator(img_fft, prepared, img.shape), window_sums, prepared)


def _numerator(img_fft: np.ndarray, prepared: tuple, shape: tuple[int, int]) -> np.ndarray:
    """The template's cross-correlation with the image at every translation
    where it fits: the NCC numerator."""
    th, tw, _, template_fft = prepared
    corr = np.fft.irfft2(img_fft * template_fft, s=shape)
    return corr[: shape[0] - th + 1, : shape[1] - tw + 1]


def _ncc_max(num: np.ndarray, window_sums: np.ndarray, prepared: tuple) -> float:
    """match_score from the numerator and integral_images of the pixels:
    each window's NCC, max, clipped."""
    th, tw, tn, _ = prepared
    s_int, q_int = window_sums
    wsum = _window_sum(s_int, th, tw)
    wsq = _window_sum(q_int, th, tw)
    var = wsq - wsum * wsum / (th * tw)
    denom = np.sqrt(np.maximum(var, 0.0)) * tn
    with np.errstate(divide="ignore", invalid="ignore"):
        ncc = np.where(denom > 1e-9, num / denom, 0.0)
    return float(np.clip(ncc.max(initial=0.0), 0.0, 1.0))


def _cannot_reach(num: np.ndarray, sums: np.ndarray, prepared: tuple,
                  threshold: float) -> bool:
    """True when no translation's NCC can reach ``threshold`` (in (0, 1]).

    Translations go in 2x2 blocks from (i0, j0).  Every window of a block
    holds its core, rows [i0+1, i0+th) x cols [j0+1, j0+tw), and a sum of
    squared deviations only grows under inclusion, so each window's NCC is
    at most the block's largest numerator over tn * sqrt(SSD of the core).
    ``sums`` is integral_images of integer pixels, so the core sums are
    exact.  The relative slack on the threshold covers the rounding of sqrt
    and divide in _ncc_max (and of a float32 threshold); the 1e-3 taken off
    the SSD covers the rounding of its float variance.
    """
    th, tw, tn, _ = prepared
    hn, wn = num.shape
    rows = num[0::2].copy()  # row pairs' maxima; an odd last row stands alone
    np.maximum(rows[: hn // 2], num[1::2], out=rows[: hn // 2])
    peak = rows[:, 0::2].copy()  # then column pairs'
    np.maximum(peak[:, : wn // 2], rows[:, 1::2], out=peak[:, : wn // 2])
    np.maximum(peak, 0.0, out=peak)
    bh, bw = peak.shape
    core_rows = sums[:, th : th + 2 * bh - 1 : 2] - sums[:, 1 : 2 * bh : 2]
    s, q = core_rows[:, :, tw : tw + 2 * bw - 1 : 2] - core_rows[:, :, 1 : 2 * bw : 2]
    n = (th - 1) * (tw - 1)
    # n * SSD(core) = n * sum(x^2) - sum(x)^2, an exact integer
    bound = (threshold * (1 - 1e-6) * tn) ** 2 * (n * q - s * s - n * 1e-3)
    return bool((n * peak * peak < bound).all())


def integral_images(pixels: np.ndarray) -> np.ndarray:
    """Zero-padded cumulative sums of the pixels and of their squares, stacked
    into one (2, h + 1, w + 1) array: int64, so exact, for integer pixels and
    float64 otherwise."""
    px = pixels.astype(np.int64 if np.issubdtype(pixels.dtype, np.integer) else np.float64)
    sums = np.zeros((2, px.shape[0] + 1, px.shape[1] + 1), dtype=px.dtype)
    np.cumsum(np.cumsum(px, axis=0), axis=1, out=sums[0, 1:, 1:])
    np.cumsum(np.cumsum(px * px, axis=0), axis=1, out=sums[1, 1:, 1:])
    return sums


def _window_sum(integral: np.ndarray, th: int, tw: int) -> np.ndarray:
    return (
        integral[th:, tw:]
        - integral[:-th, tw:]
        - integral[th:, :-tw]
        + integral[:-th, :-tw]
    )


DEFAULT_SCALE_HEIGHTS = (50, 34, 25, 17, 12, 10, 8)


@dataclass
class PersonParams:
    threshold: float = 0.8
    figure: str = "person"
    scale_heights: tuple[int, ...] = DEFAULT_SCALE_HEIGHTS


@dataclass
class GazeParams:
    threshold: float = 0.8
    scale_heights: tuple[int, ...] = (50, 34, 25)


def _multi_scale_score(frame: Frame, figure: str, facing: bool, head_only: bool,
                       heights: tuple[int, ...]) -> float:
    pixels = frame.pixels
    img = np.asarray(pixels, dtype=np.float64)
    img_fft = np.fft.rfft2(img)
    sums = integral_images(pixels)
    bank = _template_bank(figure, facing, head_only, tuple(heights), img.shape)
    return max((match_score(img, p, img_fft, sums) for p in bank), default=0.0)


def _multi_scale_reaches(frame: Frame, figure: str, facing: bool, head_only: bool,
                         heights: tuple[int, ...], threshold: float) -> bool:
    """``_multi_scale_score(...) >= threshold``, skipping the NCC chain of
    each scale whose bound cannot reach the threshold (see _cannot_reach)."""
    pixels = frame.pixels
    if pixels.dtype != np.uint8 or not 0 < threshold <= 1:
        return _multi_scale_score(frame, figure, facing, head_only, heights) >= threshold
    img = pixels.astype(np.float64)
    img_fft = np.fft.rfft2(img)
    sums = integral_images(pixels)
    for p in _template_bank(figure, facing, head_only, tuple(heights), img.shape):
        num = _numerator(img_fft, p, img.shape)
        if (not _cannot_reach(num, sums, p, float(threshold))
                and _ncc_max(num, sums, p) >= threshold):
            return True
    return False


def detect_person(frame: Frame, params: PersonParams | None = None) -> Detection:
    """Whole-figure template match; fires on any person, facing or not."""
    params = params or PersonParams()
    best = _multi_scale_score(frame, params.figure, False, False, params.scale_heights)
    return Detection(present=best >= params.threshold, score=best)


def person_present(frame: Frame, params: PersonParams | None = None) -> bool:
    """``detect_person(frame, params).present``, without the score."""
    params = params or PersonParams()
    return _multi_scale_reaches(frame, params.figure, False, False, params.scale_heights,
                                params.threshold)


def detect_gaze(frame: Frame, params: GazeParams | None = None) -> Detection:
    """Facing-head template match; fires only on a camera-facing person."""
    params = params or GazeParams()
    best = _multi_scale_score(frame, "person", True, True, params.scale_heights)
    return Detection(present=best >= params.threshold, score=best)


def gaze_present(frame: Frame, params: GazeParams | None = None) -> bool:
    """``detect_gaze(frame, params).present``, without the score."""
    params = params or GazeParams()
    return _multi_scale_reaches(frame, "person", True, True, params.scale_heights,
                                params.threshold)
