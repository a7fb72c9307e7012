"""Shared utilities: seeded RNG, logging, latency percentiles and serialization helpers."""

from repro.utils.rng import default_rng, set_global_seed, spawn_rng
from repro.utils.logging import get_logger
from repro.utils.profiling import LatencyStats, percentile
from repro.utils.serialization import load_state_dict, save_state_dict

__all__ = [
    "default_rng",
    "set_global_seed",
    "spawn_rng",
    "get_logger",
    "LatencyStats",
    "percentile",
    "load_state_dict",
    "save_state_dict",
]
