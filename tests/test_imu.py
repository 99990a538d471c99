import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsensor.stimuli.imu import (
    SAMPLE_PERIOD_MS,
    ImuWindow,
    TapParams,
    detect_tap,
    high_pass_magnitude,
    synth_imu,
)


class TestImuWindow:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ImuWindow(np.zeros((10, 2)))
        with pytest.raises(ValueError):
            ImuWindow(np.zeros((0, 3)))

    def test_range_validation(self):
        bad = np.zeros((5, 3))
        bad[2, 1] = 17.0
        with pytest.raises(ValueError):
            ImuWindow(bad)

    def test_duration(self):
        assert ImuWindow(np.zeros((100, 3))).duration_ms == 1000


class TestSynthImu:
    def test_deterministic(self):
        a = synth_imu([500], 2000, 0.05, seed=3)
        b = synth_imu([500], 2000, 0.05, seed=3)
        assert np.array_equal(a.samples, b.samples)

    def test_tap_outside_window_rejected(self):
        with pytest.raises(ValueError):
            synth_imu([2000], 2000, 0.05, seed=0)

    def test_no_taps_stays_quiet(self):
        w = synth_imu([], 5000, 0.05, seed=1)
        mag = high_pass_magnitude(w)
        assert mag.max() < 1.0 + 5 * 0.05  # below threshold + 5 sigma

    def test_tap_peak_location(self):
        w = synth_imu([500], 2000, 0.05, seed=2)
        mag = high_pass_magnitude(w)
        peak_ms = int(np.argmax(mag)) * SAMPLE_PERIOD_MS
        assert 470 <= peak_ms <= 560


class TestDetectTap:
    def test_closed_loop_two_taps(self):
        w = synth_imu([500, 900], 2000, 0.03, seed=4)
        taps = detect_tap(w)
        assert len(taps) == 2
        assert abs(taps[0] - 500) <= 30 and abs(taps[1] - 900) <= 30

    def test_refractory_merges_close_taps(self):
        w = synth_imu([500, 550], 2000, 0.03, seed=5)
        assert len(detect_tap(w)) == 1

    def test_noise_only_no_detections(self):
        w = synth_imu([], 5000, 0.01, seed=6)
        assert detect_tap(w) == []

    def test_threshold_parameter(self):
        w = synth_imu([500], 2000, 0.03, seed=7)
        assert detect_tap(w, TapParams(threshold_g=15.0)) == []


def _loop_detect_tap(window, params):
    """The per-sample loop that ``detect_tap`` replaced."""
    mag = high_pass_magnitude(window)
    refractory = max(1, params.refractory_ms // SAMPLE_PERIOD_MS)
    out, last = [], -refractory
    for i, m in enumerate(mag):
        if m >= params.threshold_g and i - last >= refractory:
            out.append(i * SAMPLE_PERIOD_MS)
            last = i
    return out


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.integers(0, 99), max_size=8), st.sampled_from([80, 90, 100, 110]),
       st.floats(0.0, 0.6), st.floats(0.2, 4.0), st.sampled_from([10, 50, 100, 250]),
       st.integers(0, 99))
def test_detect_tap_equals_the_per_sample_loop(slots, spacing, noise, threshold, refractory, seed):
    # taps on a grid of about one refractory period, so some land exactly one apart
    taps = sorted({min(999, s * spacing) for s in slots})
    window = synth_imu(taps, 1000, noise, seed)
    params = TapParams(threshold, refractory)
    assert detect_tap(window, params) == _loop_detect_tap(window, params)
