"""Baseline pruning frameworks compared against R-TOSS (paper Section V.C)."""

from repro.pruning.base import Pruner, global_magnitude_threshold, prunable_conv_layers
from repro.pruning.channel_pruning import NetworkSlimmingPruner, find_conv_bn_pairs
from repro.pruning.connectivity import connectivity_mask
from repro.pruning.filter_pruning import FilterPruner
from repro.pruning.magnitude import MagnitudePruner
from repro.pruning.neural_pruning import NeuralPruner
from repro.pruning.patdnn import PatDNNPruner
from repro.pruning.registry import (
    FrameworkEntry,
    available_frameworks,
    build_framework,
    framework_accepts,
    framework_entries,
    framework_entry,
    paper_suite,
    paper_suite_entries,
    register_framework,
)

__all__ = [
    "Pruner", "global_magnitude_threshold", "prunable_conv_layers",
    "NetworkSlimmingPruner", "find_conv_bn_pairs",
    "connectivity_mask",
    "FilterPruner",
    "MagnitudePruner",
    "NeuralPruner",
    "PatDNNPruner",
    "FrameworkEntry", "available_frameworks", "build_framework",
    "framework_accepts", "framework_entries", "framework_entry",
    "paper_suite", "paper_suite_entries", "register_framework",
]
