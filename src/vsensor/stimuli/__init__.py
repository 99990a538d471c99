"""Deterministic synthetic stimulus generators and the reference
inference cores that stand in for trained models.

Every generator is a pure function of its arguments including the seed;
every detector is a pure function of its inputs.  Import each name from
its submodule: ``scene``, ``imu``, ``audio`` or ``sevenseg``.
"""
