"""Weight initialisation schemes.

All initialisers draw from an explicit ``numpy.random.Generator`` so model
construction is deterministic given a seed (important for reproducing the pattern
selection calibration of Section IV.B, which uses random kernels in [-1, 1]).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.utils.rng import default_rng


def _fan_in_out(shape: Sequence[int]) -> Tuple[int, int]:
    """Compute fan-in / fan-out for linear (out, in) and conv (out, in, kh, kw) weights."""
    if len(shape) == 2:
        fan_out, fan_in = shape
        return fan_in, fan_out
    if len(shape) == 4:
        out_channels, in_channels, kh, kw = shape
        receptive = kh * kw
        return in_channels * receptive, out_channels * receptive
    size = int(np.prod(shape))
    return size, size


def kaiming_normal(shape: Sequence[int], rng: Optional[np.random.Generator] = None,
                   nonlinearity: str = "relu") -> np.ndarray:
    """He-normal initialisation (default for conv layers feeding ReLU-like units)."""
    rng = rng if rng is not None else default_rng()
    fan_in, _ = _fan_in_out(shape)
    gain = np.sqrt(2.0) if nonlinearity in ("relu", "silu", "leaky_relu") else 1.0
    std = gain / np.sqrt(max(fan_in, 1))
    return (rng.standard_normal(shape) * std).astype(np.float32)


def xavier_uniform(shape: Sequence[int], rng: Optional[np.random.Generator] = None) -> np.ndarray:
    rng = rng if rng is not None else default_rng()
    fan_in, fan_out = _fan_in_out(shape)
    bound = np.sqrt(6.0 / max(fan_in + fan_out, 1))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def uniform(shape: Sequence[int], low: float = -1.0, high: float = 1.0,
            rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Uniform initialisation in [low, high]; Section IV.B uses [-1, 1] random kernels."""
    rng = rng if rng is not None else default_rng()
    return rng.uniform(low, high, size=shape).astype(np.float32)


def zeros(shape: Sequence[int]) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)


def ones(shape: Sequence[int]) -> np.ndarray:
    return np.ones(shape, dtype=np.float32)


def constant(shape: Sequence[int], value: float) -> np.ndarray:
    return np.full(shape, value, dtype=np.float32)
