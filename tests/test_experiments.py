"""Experiment drivers: kernel census, Table 1/2 checks, ablations, training pipeline.

The heavyweight drivers (Table 3, Figs. 4-7 on the full-size models) are exercised by
the benchmark suite; here we cover the fast drivers and the shared machinery with
small models so the test suite stays quick.
"""

import numpy as np
import pytest

from repro.core.config import RTOSSConfig
from repro.core.rtoss import RTOSSPruner
from repro.experiments import (
    PAPER_TABLE3,
    TinyTrainingConfig,
    ablation_checks,
    census_for_model,
    evaluate_tiny_map,
    motivation_checks,
    prune_and_finetune,
    run_kernel_census,
    run_table1,
    run_vectorisation_ablation,
    table1_checks,
    train_tiny_detector,
)
from repro.experiments.figures import fig4_checks, fig5_checks, fig6_checks, fig7_checks
from repro.models.tiny import tiny_detector


class TestMotivation:
    def test_census_on_tiny_model(self):
        census = census_for_model(tiny_detector(), "tiny")
        assert census.total_layers > 0
        assert 0.0 <= census.pointwise_share <= 1.0
        assert census.as_dict()["Conv layers"] == census.total_layers

    def test_yolov5s_census_matches_paper(self):
        censuses = run_kernel_census(("yolov5s",))
        checks = motivation_checks(censuses)
        assert all(checks.values()), checks
        assert censuses[0].pointwise_share == pytest.approx(0.6842, abs=0.1)


class TestTable1:
    def test_reference_rows_and_checks(self):
        # Restrict to the reference-only portion (no model construction) by checking
        # the published numbers; the measured column is covered by the benchmark.
        from repro.models.model_zoo import TABLE1_REFERENCES
        assert len(TABLE1_REFERENCES) == 6
        two_stage = [r for r in TABLE1_REFERENCES if r.detector_type == "two-stage"]
        single_stage = [r for r in TABLE1_REFERENCES if r.detector_type == "single-stage"]
        assert len(two_stage) == 3 and len(single_stage) == 3
        assert max(r.paper_fps for r in two_stage) < min(r.paper_fps for r in single_stage)


class TestPaperConstants:
    def test_table3_reference_values_present(self):
        assert set(PAPER_TABLE3) == {"yolov5s", "retinanet"}
        for model, variants in PAPER_TABLE3.items():
            assert set(variants) == {2, 3, 4, 5}

    def test_paper_reduction_ordering(self):
        for variants in PAPER_TABLE3.values():
            assert variants[2]["reduction"] > variants[3]["reduction"] > \
                variants[4]["reduction"] > variants[5]["reduction"]


class TestAblation:
    def test_vectorisation_is_equivalent_and_faster(self):
        result = run_vectorisation_ablation(out_channels=32, in_channels=16)
        assert result.identical
        assert result.speedup > 3.0
        assert result.kernels == 512


class TestFigureChecks:
    """The check functions themselves, on synthetic result dictionaries."""

    def test_fig4_checks(self):
        ratios = {"BM": 1.0, "PD": 1.7, "NMS": 2.5, "NS": 1.6, "PF": 1.6, "NP": 1.9,
                  "R-TOSS-3EP": 3.0, "R-TOSS-2EP": 4.4}
        assert all(fig4_checks(ratios).values())

    def test_fig5_checks_yolo_and_retina(self):
        maps = {"BM": 75.0, "PD": 77.0, "NMS": 76.5, "NS": 72.0, "PF": 72.0, "NP": 76.0,
                "R-TOSS-3EP": 78.0, "R-TOSS-2EP": 75.5}
        assert all(fig5_checks(maps, "yolov5s").values())
        maps_retina = dict(maps, **{"R-TOSS-2EP": 80.0, "R-TOSS-3EP": 78.5})
        assert all(fig5_checks(maps_retina, "retinanet").values())

    def test_fig6_checks(self):
        speedups = {"RTX 2080Ti": {"BM": 1.0, "PD": 1.4, "NMS": 1.2, "NS": 1.4, "PF": 1.4,
                                   "NP": 1.2, "R-TOSS-3EP": 1.7, "R-TOSS-2EP": 1.9}}
        assert all(fig6_checks(speedups).values())

    def test_fig7_checks(self):
        reductions = {"Jetson TX2": {"BM": 0.0, "PD": 30.0, "NMS": 20.0, "NS": 33.0,
                                     "PF": 33.0, "NP": 17.0, "R-TOSS-3EP": 46.0,
                                     "R-TOSS-2EP": 53.0}}
        assert all(fig7_checks(reductions).values())


class TestTinyTrainingPipeline:
    @pytest.fixture(scope="class")
    def training(self):
        return train_tiny_detector(TinyTrainingConfig(
            num_scenes=24, train_steps=20, finetune_steps=4, batch_size=6))

    def test_loss_decreases(self, training):
        assert training.loss_history[-1] < training.loss_history[0]

    def test_split_sizes(self, training):
        assert len(training.train_indices) + len(training.val_indices) == 24

    def test_evaluate_returns_map(self, training):
        metrics = evaluate_tiny_map(training)
        assert 0.0 <= metrics["mAP"] <= 1.0
        assert metrics["num_ground_truth"] > 0

    def test_prune_and_finetune_outcome(self, training):
        baseline = evaluate_tiny_map(training)["mAP"]
        outcome = prune_and_finetune(training, RTOSSPruner(RTOSSConfig(entries=3)), baseline)
        assert outcome.framework == "R-TOSS-3EP"
        assert outcome.report.overall_sparsity > 0.3
        assert 0.0 <= outcome.map_after_finetune <= 1.0
        # The outcome carries the pruned, fine-tuned model its mAP measured:
        # the masks hold on it, and fine-tuning moved the weights they keep.
        trained = dict(training.model.named_modules())
        for name, module in outcome.model.named_modules():
            mask = getattr(module, "pruning_masks", {}).get("weight")
            if mask is not None:
                assert np.all(module.weight.data[mask == 0] == 0), name
                assert not np.array_equal(module.weight.data,
                                          trained[name].weight.data * mask), name
        assert evaluate_tiny_map(training, outcome.model)["mAP"] == outcome.map_after_finetune
        # The original trained model is untouched by the prune-and-finetune run.
        assert evaluate_tiny_map(training)["mAP"] == pytest.approx(baseline, abs=1e-9)
