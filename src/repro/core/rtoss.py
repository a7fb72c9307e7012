"""The R-TOSS pruning framework (paper Section IV, Fig. 2).

Pipeline:

1. trace the model's computational graph and run the DFS layer grouping
   (Algorithm 1, :mod:`repro.core.dfs_grouping`),
2. build the kernel-pattern library for the chosen entry count
   (Section IV.B, :mod:`repro.core.patterns`),
3. for every group, starting at the parent layer:
   * 3x3 convolutions → per-kernel pattern selection (Algorithm 2,
     :mod:`repro.core.kernel_pruning`); children restrict their search to the
     patterns their parent actually used,
   * 1x1 convolutions → the 1x1→3x3 transformation (Algorithm 3,
     :mod:`repro.core.one_by_one`),
   * other kernel sizes are left dense,
4. optionally (off by default — Section III argues against it) apply connectivity
   pruning, which removes whole kernels; this exists for the ablation study and to
   build the PATDNN baseline,
5. apply all masks to the model and return a :class:`PruningReport`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.config import RTOSSConfig
from repro.core.dfs_grouping import GroupingResult, group_model, trivial_grouping
from repro.core.kernel_pruning import prune_3x3_layer
from repro.core.masks import MaskSet, PruningMask
from repro.core.one_by_one import prune_pointwise_layer
from repro.core.patterns import PatternLibrary, build_pattern_library
from repro.core.report import PruningReport, build_layer_report
from repro.nn.layers.conv import Conv2d
from repro.nn.module import Module
from repro.nn.tensor import Tensor, as_example_input
from repro.utils.logging import get_logger

#: Anything accepted where an example input is expected: a traced tensor, a plain
#: numpy batch, or just the input *shape* (the zero tensor is built internally).
ExampleInput = Union[Tensor, np.ndarray, Sequence[int], None]

logger = get_logger("core.rtoss")


class RTOSSPruner:
    """Semi-structured pruner implementing the full R-TOSS framework.

    One instance encapsulates the whole pipeline of the paper's Fig. 2: DFS
    layer grouping (Algorithm 1), kernel-pattern library construction
    (Section IV.B), per-kernel 3x3 pattern selection (Algorithm 2) and the
    1x1 transformation (Algorithm 3), followed by mask application.

    Parameters
    ----------
    config:
        An :class:`repro.core.config.RTOSSConfig`; the defaults reproduce
        R-TOSS-3EP.  The most commonly changed knobs are ``entries`` (2 for
        the highest-sparsity 2EP variant), ``max_patterns`` (library size,
        paper default 21), ``use_dfs_grouping`` and ``prune_pointwise``.

    Example
    -------
    >>> from repro.core import RTOSSConfig, RTOSSPruner
    >>> from repro.models import tiny_detector
    >>> from repro.nn import Tensor
    >>> import numpy as np
    >>> model = tiny_detector()
    >>> example = Tensor(np.zeros((1, 3, 96, 96), dtype=np.float32))
    >>> report = RTOSSPruner(RTOSSConfig(entries=2)).prune(model, example)
    >>> 0.5 < report.overall_sparsity < 0.9
    True

    The returned :class:`repro.core.report.PruningReport` carries the
    :class:`repro.core.masks.MaskSet` used to prune, which is also what the
    execution engine compiles (``repro.engine.compile_model(model,
    report.masks)``) to turn the sparsity into measured speedups.
    """

    def __init__(self, config: Optional[RTOSSConfig] = None) -> None:
        self.config = config or RTOSSConfig()
        self._library: Optional[PatternLibrary] = None

    # ------------------------------------------------------------------ components
    @property
    def library(self) -> PatternLibrary:
        """The kernel-pattern library (built lazily, cached)."""
        if self._library is None:
            self._library = build_pattern_library(
                self.config.entries,
                self.config.max_patterns,
                self.config.calibration_kernels,
                self.config.seed,
            )
        return self._library

    def group(self, model: Module, example_input: ExampleInput) -> GroupingResult:
        """Algorithm 1 (or the trivial per-layer grouping when disabled)."""
        example_input = as_example_input(example_input)
        if self.config.use_dfs_grouping and example_input is not None:
            return group_model(model, example_input)
        return trivial_grouping(model)

    # ------------------------------------------------------------------ main entry
    def prune(self, model: Module, example_input: ExampleInput = None,
              model_name: Optional[str] = None) -> PruningReport:
        """Prune ``model`` in place and return the report.

        ``example_input`` is required for DFS grouping (it is used to trace the
        computational graph); without it the pruner falls back to per-layer groups.
        A shape tuple such as ``(1, 3, 64, 64)`` works anywhere a tensor does.
        """
        cfg = self.config
        grouping = self.group(model, example_input)
        library = self.library

        report = PruningReport(
            framework=cfg.variant_name,
            model_name=model_name or type(model).__name__,
            total_parameters=model.num_parameters(),
        )
        report.extra["num_groups"] = grouping.num_groups
        report.extra["pattern_library_size"] = len(library)

        detection_head_names = self._detection_head_layers(model)

        for group in grouping.groups:
            parent_usage: Optional[Dict[int, int]] = None
            for position, layer_name in enumerate(group.members):
                layer = grouping.conv_layers[layer_name]
                if not cfg.prune_detection_head and layer_name in detection_head_names:
                    continue
                if any(tag in layer_name for tag in cfg.dense_layer_names):
                    continue
                is_parent = position == 0
                allowed = None if is_parent else parent_usage
                mask, method, usage = self._prune_layer(layer, library, allowed)
                if mask is None:
                    continue
                if cfg.use_connectivity_pruning and layer.is_spatial_3x3:
                    mask = self._apply_connectivity(layer, mask)
                    method += "+connectivity"
                report.masks.add(PruningMask(layer_name, "weight", mask))
                report.layers.append(
                    build_layer_report(layer_name, layer, mask, method, group.parent)
                )
                if is_parent and usage:
                    parent_usage = usage

        report.masks.apply(model)
        logger.info(
            "%s pruned %s: sparsity %.1f%%, compression %.2fx",
            cfg.variant_name, report.model_name,
            100 * report.overall_sparsity, report.compression_ratio,
        )
        return report

    # ------------------------------------------------------------------ per-layer
    def _prune_layer(self, layer: Conv2d, library: PatternLibrary,
                     allowed: Optional[Dict[int, int]]):
        """Dispatch a convolution to Algorithm 2, Algorithm 3 or leave it dense."""
        cfg = self.config
        weight = layer.weight.data
        if weight.size < 9 * cfg.min_channels:
            return None, "", None
        if layer.is_spatial_3x3:
            assignment = prune_3x3_layer(
                layer, library, allowed_patterns=allowed,
                use_reference=cfg.use_reference_kernel_pruning,
            )
            return assignment.mask, "pattern-3x3", assignment.pattern_usage
        if layer.is_pointwise and cfg.prune_pointwise:
            assignment = prune_pointwise_layer(layer, library, allowed_patterns=allowed)
            return assignment.mask, "pattern-1x1-pooled", assignment.pattern_usage
        return None, "", None

    def _apply_connectivity(self, layer: Conv2d, mask: np.ndarray) -> np.ndarray:
        """Connectivity pruning: zero whole kernels with the smallest L2 norms.

        Only used when ``use_connectivity_pruning`` is enabled (ablation / PATDNN).
        """
        ratio = self.config.connectivity_ratio
        if ratio <= 0.0:
            return mask
        weight = layer.weight.data
        out_channels, in_channels = weight.shape[:2]
        norms = np.sqrt((weight**2).sum(axis=(2, 3))).reshape(-1)
        num_prune = int(round(norms.size * ratio))
        if num_prune == 0:
            return mask
        prune_idx = np.argsort(norms)[:num_prune]
        mask = mask.copy().reshape(out_channels * in_channels, *weight.shape[2:])
        mask[prune_idx] = False
        return mask.reshape(weight.shape)

    def _detection_head_layers(self, model: Module) -> set:
        """Names of final prediction convolutions (heuristic: 'detect'/'head'/'pred')."""
        names = set()
        for name, module in model.named_modules():
            if not isinstance(module, Conv2d):
                continue
            lowered = name.lower()
            if any(tag in lowered for tag in ("detect", "pred", "head")):
                names.add(name)
        return names


def prune_with_rtoss(model: Module, entries: int = 3,
                     example_input: ExampleInput = None,
                     model_name: Optional[str] = None,
                     **config_overrides) -> PruningReport:
    """One-call convenience API: prune ``model`` with R-TOSS-``entries``EP."""
    config = RTOSSConfig(entries=entries, **config_overrides)
    return RTOSSPruner(config).prune(model, example_input, model_name)
