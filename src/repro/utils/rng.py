"""Deterministic random number management.

Every stochastic component in the library (weight initialisation, synthetic data
generation, pattern-selection calibration) draws from a
``numpy.random.Generator`` obtained through this module so that experiments are
reproducible bit-for-bit across runs.
"""

from __future__ import annotations

import numpy as np

_GLOBAL_SEED = 0
_GLOBAL_RNG = np.random.default_rng(_GLOBAL_SEED)


def set_global_seed(seed: int) -> None:
    """Reset the library-wide random generator.

    Parameters
    ----------
    seed:
        Any non-negative integer.  Calling this twice with the same seed makes all
        subsequent library randomness identical.
    """
    global _GLOBAL_SEED, _GLOBAL_RNG
    _GLOBAL_SEED = int(seed)
    _GLOBAL_RNG = np.random.default_rng(_GLOBAL_SEED)


def get_global_seed() -> int:
    """Return the seed last passed to :func:`set_global_seed` (0 by default)."""
    return _GLOBAL_SEED


def default_rng(seed: int | None = None) -> np.random.Generator:
    """Return a generator.

    With ``seed=None`` the shared library generator is returned (its state advances
    as it is used); with an explicit seed a fresh, independent generator is created.
    """
    if seed is None:
        return _GLOBAL_RNG
    return np.random.default_rng(seed)


def spawn_rng(name: str, seed: int | None = None) -> np.random.Generator:
    """Create an independent generator derived from a name and a base seed.

    Useful to decorrelate streams (e.g. "weights" vs "data") while keeping each
    stream individually reproducible.
    """
    base = _GLOBAL_SEED if seed is None else int(seed)
    # Derive a child seed from the stream name in a platform-independent way.
    digest = np.frombuffer(name.encode("utf8"), dtype=np.uint8)
    child = (int(digest.sum()) * 1_000_003 + base) % (2**32)
    return np.random.default_rng(child)
