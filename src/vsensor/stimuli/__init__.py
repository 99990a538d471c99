"""Deterministic synthetic stimulus generators and the reference
inference cores that stand in for trained models.

Every generator is a pure function of its arguments including the seed;
every detector is a pure function of its inputs.  Import each name from
its submodule: ``scene``, ``imu``, ``audio`` or ``sevenseg``.  The one
seed derivation, ``derive_seed``, lives here.
"""

import hashlib


def derive_seed(base: object, *parts: object) -> int:
    """The first 8 bytes, little-endian, of SHA-256 of ``base:part:...``."""
    tag = ":".join([str(base)] + [str(p) for p in parts])
    return int.from_bytes(hashlib.sha256(tag.encode()).digest()[:8], "little")
