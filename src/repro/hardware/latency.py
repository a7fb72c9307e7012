"""Sparsity-aware inference-latency model.

For every compute layer the execution time is the maximum of its compute time and
its memory time (a classic roofline argument), plus a small per-layer overhead; the
model total adds a fixed per-inference overhead.  Pruning reduces the compute time
according to the layer's sparsity and the platform's ability to exploit that
sparsity structure, and reduces the weight traffic according to the compressed
weight footprint.

These are analytical figures for the paper's platforms; the wall-clock speedup
from pruning on the host is measured by :func:`repro.engine.measure_speedup`,
and the pipeline publishes the two side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.hardware.compression import compressed_layer_bytes
from repro.hardware.cost_model import LayerCost, ModelCostProfile
from repro.hardware.platform import PlatformSpec
from repro.hardware.sparsity import SparsityProfile


@dataclass
class LayerLatency:
    """Latency breakdown for one layer."""

    name: str
    compute_seconds: float
    memory_seconds: float
    overhead_seconds: float

    @property
    def total_seconds(self) -> float:
        return max(self.compute_seconds, self.memory_seconds) + self.overhead_seconds


@dataclass
class LatencyEstimate:
    """Latency estimate of a (possibly pruned) model on one platform."""

    platform: str
    framework: str
    total_seconds: float
    layers: List[LayerLatency] = field(default_factory=list)
    effective_macs: float = 0.0
    memory_bytes: float = 0.0

    @property
    def total_milliseconds(self) -> float:
        return self.total_seconds * 1e3

    @property
    def fps(self) -> float:
        return 1.0 / self.total_seconds if self.total_seconds > 0 else float("inf")


def _effective_macs(layer: LayerCost, sparsity: float, structure: str,
                    platform: PlatformSpec) -> float:
    """MACs that still cost time after sparsity-aware skipping."""
    if sparsity <= 0.0 or structure == "dense":
        return layer.macs
    efficiency = platform.skip_efficiency_for(structure)
    skipped_fraction = sparsity * efficiency
    effective = layer.macs * (1.0 - skipped_fraction)
    if structure == "pattern":
        # Grouping kernels that share a pattern amortises index handling (Section IV.C).
        effective /= platform.pattern_grouping_speedup
    return effective


def estimate_latency(
    profile: ModelCostProfile,
    platform: PlatformSpec,
    sparsity: Optional[SparsityProfile] = None,
) -> LatencyEstimate:
    """Estimate end-to-end inference latency.

    Parameters
    ----------
    profile:
        Static cost profile of the model (from :func:`repro.hardware.cost_model.profile_model`).
    platform:
        The target platform model.
    sparsity:
        Per-layer sparsity (from a pruning report); ``None`` or an empty profile
        evaluates the dense base model.
    """
    sparsity = sparsity or SparsityProfile.dense()
    layers: List[LayerLatency] = []
    total_effective_macs = 0.0
    total_bytes = 0.0

    for layer in profile.layers:
        layer_sparsity = sparsity.for_layer(layer.name)
        if layer_sparsity is None:
            s, structure = 0.0, "dense"
        else:
            s, structure = layer_sparsity.sparsity, layer_sparsity.structure

        effective_macs = _effective_macs(layer, s, structure, platform)
        weight_bytes = compressed_layer_bytes(layer, s, structure)
        moved_bytes = weight_bytes + layer.activation_bytes

        compute_seconds = effective_macs / platform.throughput_for(layer.layer_type)
        memory_seconds = moved_bytes / platform.memory_bandwidth
        layers.append(LayerLatency(layer.name, compute_seconds, memory_seconds,
                                   platform.per_layer_overhead_seconds))
        total_effective_macs += effective_macs
        total_bytes += moved_bytes

    total = platform.fixed_overhead_seconds + sum(l.total_seconds for l in layers)
    return LatencyEstimate(
        platform=platform.name,
        framework=sparsity.framework,
        total_seconds=total,
        layers=layers,
        effective_macs=total_effective_macs,
        memory_bytes=total_bytes,
    )
