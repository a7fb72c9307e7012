"""Pruning reports: per-layer and whole-model sparsity accounting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.masks import MaskSet
from repro.nn.layers.conv import Conv2d
from repro.nn.module import Module


@dataclass
class LayerReport:
    """Pruning outcome for one layer."""

    layer_name: str
    kernel_size: tuple
    total_weights: int
    kept_weights: int
    method: str = ""
    group_parent: Optional[str] = None

    @property
    def sparsity(self) -> float:
        if self.total_weights == 0:
            return 0.0
        return 1.0 - self.kept_weights / self.total_weights


@dataclass
class PruningReport:
    """Whole-model pruning outcome produced by every pruner in the library."""

    framework: str
    model_name: str
    layers: List[LayerReport] = field(default_factory=list)
    masks: MaskSet = field(default_factory=MaskSet)
    total_parameters: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------ accounting
    @property
    def pruned_parameters(self) -> int:
        return self.masks.pruned_parameters()

    @property
    def kept_parameters(self) -> int:
        return self.total_parameters - self.pruned_parameters

    @property
    def overall_sparsity(self) -> float:
        """Fraction of *all* model parameters that are zero after pruning."""
        if self.total_parameters == 0:
            return 0.0
        return self.pruned_parameters / self.total_parameters

    @property
    def compression_ratio(self) -> float:
        """Total parameters over kept parameters (the paper's "reduction ratio")."""
        return self.total_parameters / max(self.kept_parameters, 1)

    # ------------------------------------------------------------------ presentation
    def summary(self) -> Dict[str, float]:
        return {
            "framework": self.framework,
            "model": self.model_name,
            "total_parameters": self.total_parameters,
            "kept_parameters": self.kept_parameters,
            "overall_sparsity": round(self.overall_sparsity, 4),
            "compression_ratio": round(self.compression_ratio, 3),
            "num_pruned_layers": len(self.layers),
            **self.extra,
        }

    def to_table(self) -> str:
        """Human-readable per-layer table (used by the examples)."""
        lines = [
            f"{'layer':48s} {'kernel':>7s} {'total':>10s} {'kept':>10s} {'sparsity':>9s}  method",
            "-" * 100,
        ]
        for layer in self.layers:
            kernel = f"{layer.kernel_size[0]}x{layer.kernel_size[1]}"
            lines.append(
                f"{layer.layer_name:48s} {kernel:>7s} {layer.total_weights:>10d} "
                f"{layer.kept_weights:>10d} {layer.sparsity:>8.1%}  {layer.method}"
            )
        lines.append("-" * 100)
        lines.append(
            f"{'TOTAL':48s} {'':>7s} {self.total_parameters:>10d} "
            f"{self.kept_parameters:>10d} {self.overall_sparsity:>8.1%}  "
            f"compression {self.compression_ratio:.2f}x"
        )
        return "\n".join(lines)


def build_layer_report(layer_name: str, layer: Conv2d, mask: np.ndarray, method: str,
                       group_parent: Optional[str] = None) -> LayerReport:
    """Convenience constructor used by the pruners."""
    return LayerReport(
        layer_name=layer_name,
        kernel_size=layer.kernel_size,
        total_weights=int(mask.size),
        kept_weights=int(mask.sum()),
        method=method,
        group_parent=group_parent,
    )
