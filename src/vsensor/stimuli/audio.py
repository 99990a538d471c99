"""Synthetic audio-feature streams and the matched-filter keyword core.

Audio never appears as waveforms: a FeatureWindow is a sequence of
13-dimensional feature vectors on a 20 ms hop.  Each vocabulary word has
a deterministic unit-norm signature; the generator embeds a signature
under a raised-cosine envelope plus noise, and the detector is a
per-template cosine matched filter with a threshold and a refractory.

The distractor "often" is constructed as a deliberate near-match for
"off" so that false-positive behavior is exercisable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import check_noise, derive_seed, is_integer

FEATURE_DIM = 13
HOP_MS = 20
WORD_FRAMES = 10  # every word occupies 10 frames (200 ms)
NOISE_SIGMA = 0.08
MATCH_THRESHOLD = 0.82
ENERGY_FLOOR = 0.5  # frames below this norm are noise, never matched
REFRACTORY_MS = 200
CONFUSABLE = {"often": ("off", 0.88)}  # distractor -> (target, cosine)


@dataclass
class FeatureWindow:
    frames: np.ndarray  # (n, 13), one row per HOP_MS

    def __post_init__(self) -> None:
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[1] != FEATURE_DIM:
            raise ValueError(f"frames must be (n, {FEATURE_DIM})")
        if not np.isfinite(self.frames).all():
            raise ValueError("feature values must be finite")

    @property
    def duration_ms(self) -> int:
        return self.frames.shape[0] * HOP_MS


@dataclass
class KeywordEvent:
    word: str
    at_ms: int  # estimated word onset, window-relative
    score: float


def _word_vector(word: str) -> np.ndarray:
    v = np.random.default_rng(derive_seed("word", word)).normal(0.0, 1.0, FEATURE_DIM)
    return v / np.linalg.norm(v)


@lru_cache(maxsize=256, typed=True)  # typed: 1 and True hash alike but seed apart
def word_signature(word: str) -> np.ndarray:
    """Deterministic unit-norm feature signature for a word, computed once
    per word and shared, so it is read-only."""
    if word in CONFUSABLE:
        target, cos = CONFUSABLE[word]
        base = word_signature(target)
        raw = _word_vector(word)
        orth = raw - base * (raw @ base)
        orth /= np.linalg.norm(orth)
        sig = cos * base + np.sqrt(1.0 - cos * cos) * orth
    else:
        sig = _word_vector(word)
    sig.flags.writeable = False
    return sig


def check_audio(script: list[tuple[str, int]], vocabulary: list[str], seed: int,
                duration_ms: int | None = None, noise_sigma: float = NOISE_SIGMA) -> None:
    """Raise what ``synth_audio`` would raise for these arguments."""
    known = set(vocabulary) | set(CONFUSABLE)
    for word, start_ms in script:
        if word not in known:
            raise ValueError(f"script word {word!r} not in vocabulary or distractors")
        if not (is_integer(start_ms) and start_ms >= 0):
            raise ValueError(f"script time {start_ms!r} must be an integer >= 0")
    if duration_ms is not None and not (is_integer(duration_ms) and duration_ms >= 0):
        raise ValueError(f"duration_ms must be an integer >= 0, not {duration_ms!r}")
    check_noise(noise_sigma, seed)


def synth_audio(
    script: list[tuple[str, int]],
    vocabulary: list[str],
    seed: int,
    duration_ms: int | None = None,
    noise_sigma: float = NOISE_SIGMA,
) -> FeatureWindow:
    """Embed per-word signatures on the feature hop, plus noise.

    A word scripted at ``start_ms`` starts at feature frame
    ``start_ms // HOP_MS``, the 20 ms hop at or before its scripted time:
    a word scripted at 1,698 ms is embedded from 1,680 ms.

    Script words may be vocabulary words or distractor ids (anything with
    a signature, e.g. "often").
    """
    check_audio(script, vocabulary, seed, duration_ms, noise_sigma)
    if duration_ms is None:
        last = max((t for _, t in script), default=0)
        duration_ms = last + WORD_FRAMES * HOP_MS + 200
    n = duration_ms // HOP_MS
    rng = np.random.default_rng(seed)
    frames = rng.normal(0.0, noise_sigma, (n, FEATURE_DIM))
    envelope = np.sin(np.pi * (np.arange(WORD_FRAMES) + 0.5) / WORD_FRAMES)
    for word, start_ms in script:
        i0 = start_ms // HOP_MS
        sig = word_signature(word)
        for k in range(WORD_FRAMES):
            if i0 + k < n:
                frames[i0 + k] += envelope[k] * sig
    return FeatureWindow(frames)


class ScriptWindow(FeatureWindow):
    """The window ``synth_audio(script, vocabulary, seed, duration_ms,
    noise_sigma)``, checked when made, synthesized on the first read of its
    frames and then kept."""

    def __init__(self, script: list[tuple[str, int]], vocabulary: list[str], seed: int,
                 duration_ms: int | None = None, noise_sigma: float = NOISE_SIGMA) -> None:
        check_audio(script, vocabulary, seed, duration_ms, noise_sigma)
        self._args = (tuple(map(tuple, script)), tuple(vocabulary), seed, duration_ms,
                      noise_sigma)

    @cached_property
    def frames(self) -> np.ndarray:
        return synth_audio(*self._args).frames


def detect_keywords(
    window: FeatureWindow,
    templates: dict[str, np.ndarray],
    threshold: float = MATCH_THRESHOLD,
) -> list[KeywordEvent]:
    """All matched-filter detections, time-ordered, with refractory.

    Per frame the best-scoring template is considered; frames below the
    energy floor never match.  A detection is the strongest frame within
    one refractory horizon of the first above-threshold frame; the onset
    estimate is the centroid of the (non-negative) template projection
    around that peak, shifted back by half a word — the projection traces
    the symmetric word envelope, so its centroid sits at the word center.
    """
    if not templates:
        return []
    words = sorted(templates)
    mat = np.stack([templates[w] / np.linalg.norm(templates[w]) for w in words])
    norms = np.linalg.norm(window.frames, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = np.where(
            norms[:, None] >= ENERGY_FLOOR,
            (window.frames @ mat.T) / norms[:, None],
            0.0,
        )
    best = cos.max(axis=1)
    which = cos.argmax(axis=1)
    refractory = max(1, REFRACTORY_MS // HOP_MS)
    out: list[KeywordEvent] = []
    last = -refractory
    n = len(best)
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
