"""Evaluation pipeline: accuracy proxy, evaluator, comparisons, table rendering."""

import numpy as np
import pytest

from repro.core.config import RTOSSConfig
from repro.core.rtoss import RTOSSPruner
from repro.evaluation import (
    DetectorEvaluator,
    baseline_map_for,
    compare_frameworks,
    estimate_pruned_map,
    format_bar_chart,
    format_comparison,
    format_table,
    normalised_metric,
    results_by_framework,
)
from repro.models.tiny import TinyDetector, TinyDetectorConfig
from repro.pruning import FilterPruner, MagnitudePruner


def _tiny_factory():
    return TinyDetector(TinyDetectorConfig(num_classes=3, image_size=64, base_channels=8))


@pytest.fixture(scope="module")
def tiny_evaluator():
    return DetectorEvaluator(_tiny_factory, "tiny", baseline_map_for("tiny"),
                             image_size=64, probe_size=64, trace_size=64)


class TestAccuracyProxy:
    def _report(self, entries=3):
        model = _tiny_factory()
        from repro.nn.tensor import Tensor
        return RTOSSPruner(RTOSSConfig(entries=entries)).prune(
            model, Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32)), "tiny")

    def test_estimate_fields(self):
        estimate = estimate_pruned_map(self._report(), baseline_map=60.0)
        assert estimate.baseline_map == 60.0
        assert estimate.estimated_map > 0
        assert -0.6 <= estimate.relative_change <= 0.25
        assert "regularisation" in estimate.components

    def test_structured_pruning_penalised_more_than_pattern(self):
        pattern_report = self._report()
        model = _tiny_factory()
        structured_report = FilterPruner(ratio=0.5).prune(model, model_name="tiny")
        pattern = estimate_pruned_map(pattern_report, 60.0).relative_change
        structured = estimate_pruned_map(structured_report, 60.0).relative_change
        assert pattern > structured

    def test_small_model_capacity_penalty(self):
        # The TinyDetector has ~30k parameters: far below the capacity the task needs,
        # so heavy pruning must be predicted to hurt, not help.
        estimate = estimate_pruned_map(self._report(entries=2), baseline_map=60.0)
        assert estimate.relative_change < 0.0

    def test_unknown_baseline_key_raises(self):
        with pytest.raises(KeyError):
            baseline_map_for("resnet-152")

    def test_known_baseline_keys(self):
        assert baseline_map_for("yolov5s") > baseline_map_for("retinanet")


class TestDetectorEvaluator:
    def test_baseline_result(self, tiny_evaluator):
        baseline = tiny_evaluator.evaluate_baseline()
        assert baseline.framework == "BM"
        assert baseline.compression_ratio == 1.0
        assert set(baseline.latency_seconds) == {"RTX 2080Ti", "Jetson TX2"}
        assert all(v == 1.0 for v in baseline.speedup.values())

    def test_pruned_result_consistency(self, tiny_evaluator):
        result = tiny_evaluator.evaluate(RTOSSPruner(RTOSSConfig(entries=3)))
        assert result.framework == "R-TOSS-3EP"
        assert result.compression_ratio > 1.5
        assert all(s > 1.0 for s in result.speedup.values())
        assert all(0 < r < 100 for r in result.energy_reduction_percent.values())
        assert result.report is not None and result.accuracy is not None

    def test_framework_name_override(self, tiny_evaluator):
        result = tiny_evaluator.evaluate(MagnitudePruner(0.5), framework_name="NMS")
        assert result.framework == "NMS"

    def test_row_is_flat(self, tiny_evaluator):
        row = tiny_evaluator.evaluate_baseline().row()
        assert "latency_ms[Jetson TX2]" in row
        assert isinstance(row["compression_ratio"], float)

    def test_profile_cached(self, tiny_evaluator):
        assert tiny_evaluator.profile is tiny_evaluator.profile


class TestComparison:
    @pytest.fixture(scope="class")
    def results(self):
        evaluator = DetectorEvaluator(_tiny_factory, "tiny", 60.0,
                                      image_size=64, probe_size=64, trace_size=64)
        suite = {
            "NMS": lambda: MagnitudePruner(0.6),
            "R-TOSS-2EP": lambda: RTOSSPruner(RTOSSConfig(entries=2)),
        }
        return compare_frameworks(evaluator, suite)

    def test_baseline_included_first(self, results):
        assert results[0].framework == "BM"
        assert len(results) == 3

    def test_results_by_framework(self, results):
        mapping = results_by_framework(results)
        assert set(mapping) == {"BM", "NMS", "R-TOSS-2EP"}

    def test_normalised_metric(self, results):
        ratios = normalised_metric(results, "compression_ratio")
        assert ratios["BM"] == 1.0
        assert ratios["R-TOSS-2EP"] > ratios["NMS"] > 1.0
        speedups = normalised_metric(results, "speedup", "Jetson TX2")
        assert speedups["R-TOSS-2EP"] > 1.0
        with pytest.raises(ValueError):
            normalised_metric(results, "speedup")
        with pytest.raises(KeyError):
            normalised_metric(results, "nonsense")


class TestFormatting:
    def test_format_table_alignment(self):
        rows = [{"a": 1.23456, "b": "x"}, {"a": 2.0, "b": "longer"}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "|" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert format_table([], title="nothing") == "nothing"

    def test_format_bar_chart(self):
        chart = format_bar_chart({"R-TOSS": 4.4, "PD": 2.0}, title="ratios", unit="x")
        assert "R-TOSS" in chart and "#" in chart

    def test_format_comparison(self, tiny_evaluator):
        results = [tiny_evaluator.evaluate_baseline()]
        text = format_comparison(results, metrics=("compression_ratio", "mAP"))
        assert "framework" in text and "BM" in text
