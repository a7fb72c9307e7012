"""End-to-end evaluation: accuracy estimation, per-platform latency/energy, comparisons."""

from repro.evaluation.accuracy_proxy import (
    BASELINE_MAP,
    AccuracyEstimate,
    baseline_map_for,
    estimate_pruned_map,
)
from repro.evaluation.comparison import (
    compare_frameworks,
    normalised_metric,
    results_by_framework,
)
from repro.evaluation.evaluator import (
    DetectorEvaluator,
    FrameworkResult,
    snapshot_weight_energy,
    weight_energy_retention,
)
from repro.evaluation.tables import format_bar_chart, format_comparison, format_table

__all__ = [
    "BASELINE_MAP", "AccuracyEstimate", "baseline_map_for", "estimate_pruned_map",
    "compare_frameworks",
    "normalised_metric", "results_by_framework",
    "DetectorEvaluator", "FrameworkResult",
    "snapshot_weight_energy", "weight_energy_retention",
    "format_bar_chart", "format_comparison", "format_table",
]
