"""Ablations of the R-TOSS design choices (DFS grouping, 1x1 transform, connectivity)
and one-call checks of the framework's hot kernels on benchmark-sized inputs."""

import numpy as np

from repro.core.dfs_grouping import group_model
from repro.core.kernel_pruning import assign_patterns, assign_patterns_reference
from repro.core.one_by_one import prune_pointwise_weights
from repro.core.patterns import build_pattern_library
from repro.evaluation.tables import format_table
from repro.experiments.ablation import (
    ablation_checks,
    run_rtoss_ablation,
    run_vectorisation_ablation,
)
from repro.models.yolov5 import yolov5s
from repro.nn.tensor import Tensor


def test_ablation_design_choices():
    rows = run_rtoss_ablation()

    print()
    print(format_table([row.as_dict() for row in rows],
                       title="R-TOSS design-choice ablation (YOLOv5s)"))
    checks = ablation_checks(rows)
    assert all(checks.values()), checks


def test_ablation_vectorised_vs_reference_assignment():
    result = run_vectorisation_ablation(out_channels=128, in_channels=64)
    print(f"\nvectorised Algorithm 2: {result.speedup:.0f}x faster than the literal "
          f"pseudo-code on {result.kernels} kernels (identical output: {result.identical})")
    assert result.identical
    assert result.speedup > 10.0


# ----------------------------------------------------------------------- hot kernels
def test_bench_pattern_assignment_vectorised():
    library = build_pattern_library(3)
    weights = np.random.default_rng(0).standard_normal((256, 128, 3, 3)).astype(np.float32)
    assignment = assign_patterns(weights, library)
    assert assignment.mask.shape == weights.shape


def test_bench_pattern_assignment_reference():
    library = build_pattern_library(3)
    weights = np.random.default_rng(0).standard_normal((16, 8, 3, 3)).astype(np.float32)
    assignment = assign_patterns_reference(weights, library)
    assert assignment.mask.shape == weights.shape


def test_bench_pointwise_transformation():
    library = build_pattern_library(2)
    weights = np.random.default_rng(0).standard_normal((512, 256, 1, 1)).astype(np.float32)
    assignment = prune_pointwise_weights(weights, library)
    assert assignment.mask.shape == weights.shape


def test_bench_dfs_grouping_yolov5s():
    model = yolov5s()
    example = Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32))
    result = group_model(model, example)
    assert result.num_groups >= 1
