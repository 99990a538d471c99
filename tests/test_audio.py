import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsensor.stimuli.audio import (
    ENERGY_FLOOR,
    FEATURE_DIM,
    HOP_MS,
    REFRACTORY_MS,
    WORD_FRAMES,
    FeatureWindow,
    KeywordEvent,
    detect_keywords,
    synth_audio,
    word_signature,
)

VOCAB = ["on", "off"]
TEMPLATES = {w: word_signature(w) for w in VOCAB}


def detect_keyword(window, templates):
    """First detection in the window, or None."""
    events = detect_keywords(window, templates)
    return events[0] if events else None


class TestSignatures:
    def test_unit_norm_and_deterministic(self):
        a, b = word_signature("on"), word_signature("on")
        assert np.array_equal(a, b)
        assert np.linalg.norm(a) == pytest.approx(1.0)

    def test_distinct_words_nearly_orthogonal(self):
        cos = word_signature("on") @ word_signature("off")
        assert abs(cos) < 0.6

    def test_signature_seeded_by_word(self):
        # derive_seed("word", w) is the SHA-256 of "word:<w>" that every
        # signature has been drawn from
        for word in ("on", "off", "yes", "stop", "lumière"):
            digest = hashlib.sha256(f"word:{word}".encode()).digest()
            v = np.random.default_rng(int.from_bytes(digest[:8], "little")).normal(0.0, 1.0, 13)
            assert np.array_equal(word_signature(word), v / np.linalg.norm(v))

    def test_confusable_often_near_off(self):
        cos = word_signature("often") @ word_signature("off")
        assert cos == pytest.approx(0.88, abs=1e-9)

    def test_computed_once_and_read_only(self):
        # the one shared copy cannot be changed by a caller
        sig = word_signature("often")
        assert word_signature("often") is sig and not sig.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            sig[0] = 0.0
        # bit-identical to a signature computed afresh
        for word in ("often", "stop"):
            assert np.array_equal(word_signature.__wrapped__(word), word_signature(word))


class TestSynthAudio:
    def test_deterministic(self):
        a = synth_audio([("on", 100)], VOCAB, seed=1)
        b = synth_audio([("on", 100)], VOCAB, seed=1)
        assert np.array_equal(a.frames, b.frames)

    def test_unknown_word_rejected(self):
        with pytest.raises(ValueError):
            synth_audio([("banana", 0)], VOCAB, seed=0)

    def test_shape(self):
        w = synth_audio([], VOCAB, seed=0, duration_ms=1000)
        assert w.frames.shape == (50, FEATURE_DIM)

    def test_feature_window_validation(self):
        with pytest.raises(ValueError):
            FeatureWindow(np.zeros((10, 5)))
        with pytest.raises(ValueError, match="feature values must be finite"):
            FeatureWindow(np.full((10, FEATURE_DIM), np.nan))

    def test_word_starts_on_hop_at_or_before_script_time(self):
        # scripted at 1,698 ms, the word is embedded from frame 84 (1,680 ms)
        clean = synth_audio([("on", 1698)], VOCAB, seed=0, noise_sigma=0.0)
        voiced = np.flatnonzero(np.linalg.norm(clean.frames, axis=1))
        assert voiced[0] == 84 and voiced[0] * HOP_MS == 1680
        for seed in range(25):
            ev = detect_keyword(synth_audio([("on", 1698)], VOCAB, seed), TEMPLATES)
            assert ev is not None and ev.word == "on"
            assert abs(ev.at_ms - 1680) <= 40, (seed, ev.at_ms)


class TestDetectKeywords:
    def test_single_word_closed_loop(self):
        for seed in range(25):
            ev = detect_keyword(synth_audio([("on", 300)], VOCAB, seed), TEMPLATES)
            assert ev is not None and ev.word == "on"
            assert abs(ev.at_ms - 300) <= 40, (seed, ev.at_ms)

    def test_silence_no_detection(self):
        for seed in range(25):
            w = synth_audio([], VOCAB, seed, duration_ms=5000)
            assert detect_keywords(w, TEMPLATES) == []

    def test_multi_word_order_and_identity(self):
        w = synth_audio([("on", 200), ("off", 800)], VOCAB, seed=9)
        words = [e.word for e in detect_keywords(w, TEMPLATES)]
        assert words == ["on", "off"]

    def test_often_distractor_false_positive(self):
        # the homonym problem: "often" fools the "off" matched filter
        hits = sum(
            any(
                e.word == "off"
                for e in detect_keywords(
                    synth_audio([("often", 300)], VOCAB, s), TEMPLATES
                )
            )
            for s in range(50)
        )
        assert hits > 0

    def test_raised_threshold_rejects_distractor(self):
        rejected = sum(
            not detect_keywords(synth_audio([("often", 300)], VOCAB, s), TEMPLATES, 0.93)
            for s in range(25)
        )
        kept = sum(
            bool(detect_keywords(synth_audio([("off", 300)], VOCAB, s), TEMPLATES, 0.93))
            for s in range(25)
        )
        assert rejected >= 20 and kept == 25

    def test_no_templates_no_detection(self):
        assert detect_keywords(synth_audio([("on", 300)], VOCAB, seed=3), {}) == []

    def test_refractory_single_event_per_word(self):
        w = synth_audio([("on", 300)], VOCAB, seed=3)
        assert len(detect_keywords(w, TEMPLATES)) == 1


def _loop_detect_keywords(window, templates, threshold):
    """The per-frame loop that ``detect_keywords`` replaced."""
    words = sorted(templates)
    mat = np.stack([templates[w] / np.linalg.norm(templates[w]) for w in words])
    norms = np.linalg.norm(window.frames, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = np.where(norms[:, None] >= ENERGY_FLOOR,
                       (window.frames @ mat.T) / norms[:, None], 0.0)
    best, which = cos.max(axis=1), cos.argmax(axis=1)
    refractory = max(1, REFRACTORY_MS // HOP_MS)
    out, last, n = [], -refractory, len(best)
    for i in range(n):
        if best[i] < threshold or i - last < refractory:
            continue
        j = i + int(np.argmax(best[i : i + refractory]))
        k0, k1 = max(0, j - WORD_FRAMES), min(n, j + WORD_FRAMES)
        proj = np.maximum(window.frames[k0:k1] @ mat[which[j]], 0.0)
        center = float((np.arange(k0, k1) * proj).sum() / proj.sum())
        onset = max(0, round((center - (WORD_FRAMES - 1) / 2) * HOP_MS))
        out.append(KeywordEvent(words[which[j]], onset, float(best[j])))
        last = j
    return out


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["on", "off", "often"]), st.integers(0, 12)),
                max_size=6),
       st.integers(0, 60), st.floats(0.0, 0.4), st.floats(0.5, 0.95), st.integers(0, 99))
def test_detect_keywords_equals_the_per_frame_loop(slots, tail, noise, threshold, seed):
    # words one refractory period (10 frames) apart, and words cut by the window's end
    script = [(w, k * REFRACTORY_MS) for w, k in slots]
    duration = max([t for _, t in script], default=0) + tail * HOP_MS
    window = synth_audio(script, VOCAB, seed, duration, noise)
    assert (detect_keywords(window, TEMPLATES, threshold)
            == _loop_detect_keywords(window, TEMPLATES, threshold))
