"""Shared infrastructure for the baseline pruning frameworks.

Every baseline (PATDNN, SparseML magnitude, Network Slimming, Pruning Filters,
Neural Pruning) implements the same
:class:`Pruner` interface as R-TOSS so that the comparison experiments (Figs. 4-7)
can iterate over frameworks uniformly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.masks import MaskSet, PruningMask
from repro.core.report import PruningReport, build_layer_report
from repro.nn.layers.conv import Conv2d
from repro.nn.module import Module
from repro.nn.tensor import Tensor, as_example_input


class Pruner:
    """Base class: produces a :class:`PruningReport` and applies masks in place."""

    #: Short label used in figures/tables (e.g. "PD", "NMS", "NS", "PF", "NP").
    name: str = "base"

    def prune(self, model: Module, example_input=None,
              model_name: Optional[str] = None) -> PruningReport:
        """Prune ``model`` in place.  Subclasses implement :meth:`compute_masks`.

        ``example_input`` accepts a tensor, a numpy batch or a plain shape tuple
        (see :func:`repro.nn.tensor.as_example_input`).
        """
        example_input = as_example_input(example_input)
        report = PruningReport(
            framework=self.name,
            model_name=model_name or type(model).__name__,
            total_parameters=model.num_parameters(),
        )
        for layer_name, layer, mask, method in self.compute_masks(model, example_input):
            report.masks.add(PruningMask(layer_name, "weight", mask))
            report.layers.append(build_layer_report(layer_name, layer, mask, method))
        report.masks.apply(model)
        return report

    def compute_masks(
        self, model: Module, example_input: Optional[Tensor]
    ) -> Iterable[Tuple[str, Conv2d, np.ndarray, str]]:  # pragma: no cover - abstract
        """Yield (layer name, layer, keep-mask, method label) tuples."""
        raise NotImplementedError


def prunable_conv_layers(model: Module, skip_names: Tuple[str, ...] = ()) -> Dict[str, Conv2d]:
    """All convolution layers of a model, minus any whose name contains a skip tag."""
    layers: Dict[str, Conv2d] = {}
    for name, module in model.named_modules():
        if isinstance(module, Conv2d) and not any(tag in name for tag in skip_names):
            layers[name] = module
    return layers


def global_magnitude_threshold(layers: Dict[str, Conv2d], sparsity: float) -> float:
    """Weight-magnitude threshold that achieves ``sparsity`` across all layers."""
    if not 0.0 <= sparsity < 1.0:
        raise ValueError(f"sparsity must be in [0, 1), got {sparsity}")
    magnitudes = np.concatenate([np.abs(l.weight.data).reshape(-1) for l in layers.values()])
    if sparsity == 0.0:
        return -1.0
    return float(np.quantile(magnitudes, sparsity))

