"""Deterministic synthetic stimulus generators and the reference
inference cores that stand in for trained models.

Every generator is a pure function of its arguments including the seed;
every detector is a pure function of its inputs.  Import each name from
its submodule: ``scene``, ``imu``, ``audio`` or ``sevenseg``.  The one
seed derivation, ``derive_seed``, and the one noise rule, ``check_noise``,
live here.
"""

import hashlib
import math
import numbers


def derive_seed(base: object, *parts: object) -> int:
    """The first 8 bytes, little-endian, of SHA-256 of ``base:part:...``."""
    tag = ":".join([str(base)] + [str(p) for p in parts])
    return int.from_bytes(hashlib.sha256(tag.encode()).digest()[:8], "little")


def check_noise(noise_sigma: float, seed: int) -> None:
    """Every generator's rule for its seeded Gaussian noise: a finite
    ``noise_sigma`` >= 0 (not -0.0, which numpy's ``normal`` rejects) and an
    integer seed >= 0, as ``numpy.random.default_rng`` takes."""
    if not 0 <= noise_sigma < math.inf or math.copysign(1.0, noise_sigma) < 0:
        raise ValueError(f"noise_sigma must be >= 0 and finite, not {noise_sigma!r}")
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, not {seed!r}")
