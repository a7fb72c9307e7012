"""Analytic models of the paper's evaluation hardware (RTX 2080Ti, Jetson TX2)."""

from repro.hardware.compression import (
    ModelSizeEstimate,
    compressed_layer_bytes,
    estimate_model_size,
    storage_compression_ratio,
)
from repro.hardware.cost_model import (
    BYTES_PER_WEIGHT,
    LayerCost,
    ModelCostProfile,
    profile_model,
)
from repro.hardware.energy import EnergyEstimate, energy_reduction_percent, estimate_energy
from repro.hardware.latency import (
    LatencyEstimate,
    LayerLatency,
    estimate_latency,
)
from repro.hardware.platform import (
    DEFAULT_SKIP_EFFICIENCY,
    JETSON_TX2,
    PLATFORMS,
    RTX_2080TI,
    PlatformSpec,
    get_platform,
)
from repro.hardware.sparsity import LayerSparsity, SparsityProfile, structure_for_method

__all__ = [
    "ModelSizeEstimate", "compressed_layer_bytes", "estimate_model_size",
    "storage_compression_ratio",
    "BYTES_PER_WEIGHT", "LayerCost", "ModelCostProfile", "profile_model",
    "EnergyEstimate", "energy_reduction_percent", "estimate_energy",
    "LatencyEstimate", "LayerLatency", "estimate_latency",
    "DEFAULT_SKIP_EFFICIENCY", "JETSON_TX2", "PLATFORMS", "RTX_2080TI", "PlatformSpec",
    "get_platform",
    "LayerSparsity", "SparsityProfile", "structure_for_method",
]
