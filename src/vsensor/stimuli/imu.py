"""Synthetic accelerometer streams and the reference tap detector.

Windows are 100 Hz triaxial samples in g-units.  A tap injects a damped
~30 ms transient with a 3 g peak on a seeded random axis on top of
gravity plus Gaussian noise.  Detection is first-difference high-pass,
magnitude, threshold crossing, and a 100 ms refractory debounce.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import check_noise, is_integer

SAMPLE_RATE_HZ = 100
SAMPLE_PERIOD_MS = 1000 // SAMPLE_RATE_HZ
MAX_ACCEL_G = 16.0
TAP_PEAK_G = 3.0
# damped transient over 30 ms (3 samples at 100 Hz)
TAP_SHAPE_G = (TAP_PEAK_G, -1.6, 0.7)


@dataclass
class ImuWindow:
    samples: np.ndarray  # (n, 3) ax, ay, az in g, one row per SAMPLE_PERIOD_MS

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 2 or self.samples.shape[1] != 3:
            raise ValueError("samples must be an (n, 3) array")
        if self.samples.shape[0] == 0:
            raise ValueError("window must be non-empty")
        if np.abs(self.samples).max() > MAX_ACCEL_G:
            raise ValueError(f"|axis value| must be <= {MAX_ACCEL_G} g")

    @property
    def duration_ms(self) -> int:
        return self.samples.shape[0] * SAMPLE_PERIOD_MS


@dataclass
class TapParams:
    threshold_g: float = 1.0
    refractory_ms: int = 100


def check_imu(tap_times: list[int], duration_ms: int, noise_sigma: float, seed: int) -> None:
    """Raise what ``synth_imu`` would raise for these arguments."""
    if not (is_integer(duration_ms) and duration_ms >= SAMPLE_PERIOD_MS):
        raise ValueError(f"duration_ms must be an integer >= {SAMPLE_PERIOD_MS}, "
                         f"not {duration_ms!r}")
    if not all(map(is_integer, tap_times)):
        raise ValueError(f"tap_times must be integers, not {tap_times!r}")
    if any(not (0 <= t < duration_ms) for t in tap_times):
        raise ValueError("tap_times must lie within the window")
    check_noise(noise_sigma, seed)


def synth_imu(
    tap_times: list[int], duration_ms: int, noise_sigma: float, seed: int
) -> ImuWindow:
    """Gravity baseline plus noise, with a tap transient at each time."""
    check_imu(tap_times, duration_ms, noise_sigma, seed)
    n = duration_ms // SAMPLE_PERIOD_MS
    rng = np.random.default_rng(seed)
    samples = np.zeros((n, 3))
    samples[:, 2] = 1.0  # gravity on z
    if noise_sigma > 0:
        samples += rng.normal(0.0, noise_sigma, (n, 3))
    for t in sorted(tap_times):
        i0 = t // SAMPLE_PERIOD_MS
        axis = int(rng.integers(0, 3))
        for k, amp in enumerate(TAP_SHAPE_G):
            if i0 + k < n:
                samples[i0 + k, axis] += amp
    return ImuWindow(np.clip(samples, -MAX_ACCEL_G, MAX_ACCEL_G))


class TapWindow(ImuWindow):
    """The window ``synth_imu(tap_times, duration_ms, noise_sigma, seed)``,
    checked when made, synthesized on the first read of its samples and then
    kept."""

    def __init__(self, tap_times: list[int], duration_ms: int, noise_sigma: float,
                 seed: int) -> None:
        check_imu(tap_times, duration_ms, noise_sigma, seed)
        self._args = (tuple(tap_times), duration_ms, noise_sigma, seed)

    @cached_property
    def samples(self) -> np.ndarray:
        return synth_imu(*self._args).samples


def high_pass_magnitude(window: ImuWindow) -> np.ndarray:
    """First-difference high-pass per axis, then Euclidean magnitude.

    Output index i corresponds to sample i (diff against sample i-1;
    index 0 is zero).
    """
    d = np.diff(window.samples, axis=0, prepend=window.samples[:1])
    return np.sqrt((d * d).sum(axis=1))


def detect_tap(window: ImuWindow, params: TapParams | None = None) -> list[int]:
    """Times (ms, window-relative) of debounced threshold crossings."""
    params = params or TapParams()
    mag = high_pass_magnitude(window)
    refractory = max(1, params.refractory_ms // SAMPLE_PERIOD_MS)
    out: list[int] = []
    last = -refractory
    for i, m in enumerate(mag):
        if m >= params.threshold_g and i - last >= refractory:
            out.append(i * SAMPLE_PERIOD_MS)
            last = i
    return out
