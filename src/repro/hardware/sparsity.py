"""Per-layer sparsity descriptors bridging pruning reports and the hardware model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.report import PruningReport

# Mapping from the method labels emitted by the pruners to sparsity structures the
# platform model understands.
_METHOD_TO_STRUCTURE = {
    "pattern-3x3": "pattern",
    "pattern-1x1-pooled": "pattern",
    "patdnn-4ep+connectivity": "pattern",
    "magnitude-layer": "unstructured",
    "magnitude-global": "unstructured",
    "growing-reg+l1": "unstructured",
    "filter-l1": "structured",
    "bn-channel": "structured",
}


def structure_for_method(method: str) -> str:
    """Map a pruner's method label onto 'pattern' / 'unstructured' / 'structured'."""
    if method in _METHOD_TO_STRUCTURE:
        return _METHOD_TO_STRUCTURE[method]
    lowered = method.lower()
    if "pattern" in lowered or "patdnn" in lowered:
        return "pattern"
    if "filter" in lowered or "channel" in lowered:
        return "structured"
    if lowered in ("", "dense"):
        return "dense"
    return "unstructured"


@dataclass
class LayerSparsity:
    """Sparsity of one layer plus its structure type."""

    layer_name: str
    sparsity: float
    structure: str

    @property
    def density(self) -> float:
        return 1.0 - self.sparsity


@dataclass
class SparsityProfile:
    """Per-layer sparsity view of a pruning report, keyed by layer name."""

    framework: str
    layers: Dict[str, LayerSparsity] = field(default_factory=dict)

    def for_layer(self, layer_name: str) -> Optional[LayerSparsity]:
        return self.layers.get(layer_name)

    @classmethod
    def from_report(cls, report: PruningReport) -> "SparsityProfile":
        profile = cls(framework=report.framework)
        for layer in report.layers:
            profile.layers[layer.layer_name] = LayerSparsity(
                layer_name=layer.layer_name,
                sparsity=layer.sparsity,
                structure=structure_for_method(layer.method),
            )
        return profile

    @classmethod
    def dense(cls) -> "SparsityProfile":
        """An empty profile representing the unpruned base model (BM)."""
        return cls(framework="BM")
