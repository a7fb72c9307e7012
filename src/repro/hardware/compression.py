"""Sparse-weight storage formats and model-size accounting.

The paper's "compression rate" is reported from the pruned models' storage: pruned
parameters can be skipped entirely by software compression (Section II.B quotes the
Ampere sparse-weight compression as an example).  Three storage formats are
modelled so the size of every pruned model can be computed from its masks:

* ``dense``      — 4 bytes per weight, no metadata,
* ``pattern``    — per 3x3 kernel: the k surviving values plus one pattern-index
  byte (only a handful of patterns exist, so one byte suffices); 1x1-pooled layers
  use the same encoding on their temporary 3x3 groups,
* ``unstructured`` — CSR-style: the surviving values plus a 1-bit occupancy bitmap,
* ``structured`` — the pruned filters/channels are simply dropped from the dense
  tensor (no metadata beyond a per-layer channel list).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.report import PruningReport
from repro.hardware.cost_model import BYTES_PER_WEIGHT, LayerCost, ModelCostProfile
from repro.hardware.sparsity import SparsityProfile, structure_for_method

PATTERN_INDEX_BYTES = 1.0         # one byte identifies one of the <=21 patterns
STRUCTURED_METADATA_BYTES = 2.0   # per-kept-channel index


def compressed_layer_bytes(layer: LayerCost, sparsity: float, structure: str) -> float:
    """Storage footprint (bytes) of one layer's weights after pruning."""
    dense_bytes = layer.weight_bytes
    if sparsity <= 0.0 or structure == "dense":
        return dense_bytes
    kept_values = layer.weight_count * (1.0 - sparsity)
    value_bytes = kept_values * BYTES_PER_WEIGHT

    if structure == "pattern":
        kernel_cells = layer.kernel_size[0] * layer.kernel_size[1]
        if kernel_cells >= 9:
            num_kernels = layer.weight_count / kernel_cells
        else:
            # 1x1-pooled layers: one pattern index per temporary 3x3 group of weights.
            num_kernels = layer.weight_count / 9.0
        return value_bytes + num_kernels * PATTERN_INDEX_BYTES

    if structure == "structured":
        return value_bytes + STRUCTURED_METADATA_BYTES * max(kept_values / max(layer.weight_count, 1), 0)

    # Unstructured: values + bitmap (1 bit per original position).
    bitmap_bytes = layer.weight_count / 8.0
    return value_bytes + bitmap_bytes


@dataclass
class ModelSizeEstimate:
    """Storage footprint of a model before/after pruning."""

    framework: str
    dense_bytes: float
    compressed_bytes: float
    per_layer_bytes: Dict[str, float] = field(default_factory=dict)

    @property
    def compression_ratio(self) -> float:
        return self.dense_bytes / max(self.compressed_bytes, 1.0)


def estimate_model_size(profile: ModelCostProfile,
                        sparsity: Optional[SparsityProfile] = None) -> ModelSizeEstimate:
    """Storage footprint of a model given its cost profile and sparsity profile."""
    sparsity = sparsity or SparsityProfile.dense()
    per_layer: Dict[str, float] = {}
    dense_total = 0.0
    compressed_total = 0.0
    for layer in profile.layers:
        dense_total += layer.weight_bytes
        layer_sparsity = sparsity.for_layer(layer.name)
        if layer_sparsity is None:
            bytes_here = layer.weight_bytes
        else:
            bytes_here = compressed_layer_bytes(layer, layer_sparsity.sparsity,
                                                layer_sparsity.structure)
        per_layer[layer.name] = bytes_here
        compressed_total += bytes_here
    return ModelSizeEstimate(sparsity.framework, dense_total, compressed_total, per_layer)


def storage_compression_ratio(profile: ModelCostProfile, report: PruningReport) -> float:
    """Convenience: storage compression ratio of a pruning report."""
    return estimate_model_size(profile, SparsityProfile.from_report(report)).compression_ratio
