"""The R-TOSS orchestrator: configs, reports, headline compression ratios."""

import numpy as np
import pytest

from repro.core.config import RTOSSConfig
from repro.core.rtoss import RTOSSPruner, prune_with_rtoss
from repro.models.tiny import TinyDetector, TinyDetectorConfig
from repro.nn.layers.conv import Conv2d
from repro.nn.tensor import Tensor


def _tiny():
    return TinyDetector(TinyDetectorConfig(num_classes=3, image_size=64, base_channels=8))


def _input(size=64):
    return Tensor(np.zeros((1, 3, size, size), dtype=np.float32))


class TestConfig:
    def test_variant_names(self):
        assert RTOSSConfig(entries=2).variant_name == "R-TOSS-2EP"
        assert RTOSSConfig(entries=3).variant_name == "R-TOSS-3EP"
        assert RTOSSConfig(entries=4).entries == 4
        assert RTOSSConfig(entries=5).entries == 5

    def test_invalid_entries(self):
        with pytest.raises(ValueError):
            RTOSSConfig(entries=0)
        with pytest.raises(ValueError):
            RTOSSConfig(entries=9)

    def test_invalid_connectivity_ratio(self):
        with pytest.raises(ValueError):
            RTOSSConfig(connectivity_ratio=1.0)


class TestRTOSSPruner:
    def test_prune_report_fields(self):
        model = _tiny()
        report = RTOSSPruner(RTOSSConfig(entries=3)).prune(model, _input(), "tiny")
        assert report.framework == "R-TOSS-3EP"
        assert report.model_name == "tiny"
        assert report.total_parameters == model.num_parameters()
        assert 0.3 < report.overall_sparsity < 0.8
        assert len(report.layers) > 0
        assert report.extra["num_groups"] >= 1

    def test_weights_actually_zeroed(self):
        model = _tiny()
        RTOSSPruner(RTOSSConfig(entries=2)).prune(model, _input())
        sparsities = [m.weight_sparsity() for m in model.modules()
                      if isinstance(m, Conv2d) and m.weight.size >= 9]
        assert max(sparsities) > 0.5

    def test_entry_size_ordering_of_compression(self):
        ratios = {}
        for entries in (2, 3, 4, 5):
            report = RTOSSPruner(RTOSSConfig(entries=entries)).prune(_tiny(), _input())
            ratios[entries] = report.compression_ratio
        assert ratios[2] > ratios[3] > ratios[4] > ratios[5] > 1.0

    def test_pointwise_disabled_reduces_sparsity(self):
        with_pw = RTOSSPruner(RTOSSConfig(entries=3)).prune(_tiny(), _input())
        without_pw = RTOSSPruner(RTOSSConfig(entries=3, prune_pointwise=False)).prune(
            _tiny(), _input())
        assert with_pw.overall_sparsity > without_pw.overall_sparsity

    def test_connectivity_option_increases_sparsity(self):
        base = RTOSSPruner(RTOSSConfig(entries=3)).prune(_tiny(), _input())
        with_conn = RTOSSPruner(RTOSSConfig(entries=3, use_connectivity_pruning=True,
                                            connectivity_ratio=0.25)).prune(_tiny(), _input())
        assert with_conn.overall_sparsity > base.overall_sparsity

    def test_dense_layer_names_respected(self):
        config = RTOSSConfig(entries=2, dense_layer_names=("head",))
        report = RTOSSPruner(config).prune(_tiny(), _input())
        assert all("head" not in layer.layer_name for layer in report.layers)

    def test_without_example_input_falls_back_to_trivial_grouping(self):
        report = RTOSSPruner(RTOSSConfig(entries=3)).prune(_tiny(), None)
        assert report.extra["num_groups"] == len(report.layers) or report.extra["num_groups"] > 0
        assert report.overall_sparsity > 0.3

    def test_sparsity_by_kernel_size(self):
        report = RTOSSPruner(RTOSSConfig(entries=3)).prune(_tiny(), _input())

        def sparsity(kernel_size):
            layers = [l for l in report.layers if l.kernel_size == kernel_size]
            return 1.0 - (sum(l.kept_weights for l in layers)
                          / sum(l.total_weights for l in layers))

        assert sparsity((3, 3)) == pytest.approx(1 - 3 / 9, abs=0.05)
        assert sparsity((1, 1)) > 0.4

    def test_reference_mode_matches_vectorised(self):
        fast = RTOSSPruner(RTOSSConfig(entries=3)).prune(_tiny(), _input())
        slow = RTOSSPruner(RTOSSConfig(entries=3, use_reference_kernel_pruning=True)).prune(
            _tiny(), _input())
        assert fast.overall_sparsity == pytest.approx(slow.overall_sparsity, abs=1e-6)

    def test_library_cached(self):
        pruner = RTOSSPruner(RTOSSConfig(entries=3))
        assert pruner.library is pruner.library

    def test_report_table_renders(self):
        report = RTOSSPruner(RTOSSConfig(entries=3)).prune(_tiny(), _input())
        table = report.to_table()
        assert "TOTAL" in table and "compression" in table

    def test_summary_contains_headline_numbers(self):
        report = RTOSSPruner(RTOSSConfig(entries=2)).prune(_tiny(), _input())
        summary = report.summary()
        assert summary["framework"] == "R-TOSS-2EP"
        assert summary["compression_ratio"] > 1.0


class TestConvenienceAPI:
    def test_prune_with_rtoss(self):
        report = prune_with_rtoss(_tiny(), entries=2, example_input=_input(), model_name="tiny")
        assert report.framework == "R-TOSS-2EP"
        assert report.compression_ratio > 2.0


class TestPaperHeadlineNumbers:
    """The paper's headline YOLOv5s compression ratios (Table 3, Fig. 4)."""

    @pytest.mark.parametrize("entries,paper_ratio,tolerance", [
        (2, 4.4, 0.5), (3, 2.9, 0.4), (4, 2.24, 0.35), (5, 1.79, 0.3),
    ])
    def test_yolov5s_compression_close_to_paper(self, yolov5s_model, entries, paper_ratio,
                                                tolerance):
        # Prune a fresh copy so the shared session fixture stays dense.
        from repro.models import yolov5s
        report = RTOSSPruner(RTOSSConfig(entries=entries)).prune(
            yolov5s(), _input(64), "yolov5s")
        assert abs(report.compression_ratio - paper_ratio) < tolerance
