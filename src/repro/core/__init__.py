"""R-TOSS: the paper's semi-structured pruning framework."""

from repro.core.config import RTOSSConfig
from repro.core.dfs_grouping import (
    GroupingResult,
    LayerGroup,
    group_layers_dfs,
    group_model,
    trivial_grouping,
)
from repro.core.kernel_pruning import (
    PatternAssignment,
    assign_patterns,
    assign_patterns_reference,
    prune_3x3_layer,
)
from repro.core.masks import MaskSet, PruningMask
from repro.core.one_by_one import (
    PointwiseAssignment,
    pool_flat_weights,
    prune_pointwise_layer,
    prune_pointwise_weights,
)
from repro.core.patterns import (
    DEFAULT_LIBRARY_SIZE,
    KernelPattern,
    PatternLibrary,
    build_pattern_library,
    connected_patterns,
    enumerate_patterns,
    num_candidate_patterns,
    standard_libraries,
)
from repro.core.report import LayerReport, PruningReport, build_layer_report
from repro.core.rtoss import RTOSSPruner, prune_with_rtoss

__all__ = [
    "RTOSSConfig",
    "GroupingResult", "LayerGroup", "group_layers_dfs", "group_model", "trivial_grouping",
    "PatternAssignment", "assign_patterns", "assign_patterns_reference", "prune_3x3_layer",
    "MaskSet", "PruningMask",
    "PointwiseAssignment", "pool_flat_weights", "prune_pointwise_layer",
    "prune_pointwise_weights",
    "DEFAULT_LIBRARY_SIZE", "KernelPattern", "PatternLibrary", "build_pattern_library",
    "connected_patterns", "enumerate_patterns", "num_candidate_patterns", "standard_libraries",
    "LayerReport", "PruningReport", "build_layer_report",
    "RTOSSPruner", "prune_with_rtoss",
]
