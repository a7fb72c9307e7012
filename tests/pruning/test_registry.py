"""The pruning-framework registry: the single source of truth for factories."""

import numpy as np
import pytest

from repro.evaluation.comparison import default_framework_suite
from repro.models.tiny import TinyDetector, TinyDetectorConfig
from repro.pruning.registry import (
    available_frameworks,
    build_framework,
    framework_accepts,
    framework_entries,
    framework_entry,
    paper_suite,
    register_framework,
)


def _tiny():
    return TinyDetector(TinyDetectorConfig(num_classes=3, image_size=64, base_channels=8))


class TestRegistryContents:
    def test_all_expected_frameworks_registered(self):
        names = available_frameworks()
        for expected in ("rtoss-2ep", "rtoss-3ep", "rtoss-4ep", "rtoss-5ep",
                         "pd", "nms", "ns", "pf", "np"):
            assert expected in names

    def test_every_registered_framework_builds_and_prunes_tiny(self):
        for name in available_frameworks():
            model = _tiny()
            pruner = build_framework(name)
            report = pruner.prune(model, (1, 3, 64, 64), "tiny")
            assert report.overall_sparsity > 0.0, f"{name} pruned nothing"
            assert len(report.masks) > 0, f"{name} produced no masks"
            # Masks were applied: pruned weights are exactly zero.
            modules = dict(model.named_modules())
            for mask in report.masks:
                weights = getattr(modules[mask.layer_name], mask.parameter_name).data
                assert np.all(weights[mask.mask == 0] == 0.0)

    def test_lookup_by_label_and_case_insensitive(self):
        assert framework_entry("R-TOSS-3EP").name == "rtoss-3ep"
        assert framework_entry("RTOSS-3EP").name == "rtoss-3ep"
        assert framework_entry("NMS").name == "nms"

    def test_unknown_framework_lists_available(self):
        with pytest.raises(KeyError, match="rtoss-3ep"):
            framework_entry("does-not-exist")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_framework("rtoss-3ep")(lambda: None)

    def test_entries_sorted_and_described(self):
        entries = framework_entries()
        assert [entry.name for entry in entries] == available_frameworks()
        assert all(entry.description for entry in entries)


class TestFactoryOverrides:
    def test_build_with_override(self):
        pruner = build_framework("nms", sparsity=0.25)
        report = pruner.prune(_tiny(), (1, 3, 64, 64), "tiny")
        assert report.masks.overall_sparsity() == pytest.approx(0.25, abs=0.05)

    def test_seed_threads_into_rtoss_config(self):
        pruner = build_framework("rtoss-3ep", seed=7)
        assert pruner.config.seed == 7
        assert pruner.config.entries == 3

    def test_framework_accepts(self):
        assert framework_accepts("rtoss-2ep", "seed")
        assert framework_accepts("rtoss-2ep", "dense_layer_names")
        assert framework_accepts("rtoss-2ep", "prune_pointwise")  # via **config_overrides
        assert not framework_accepts("nms", "seed")
        assert not framework_accepts("pf", "dense_layer_names")


class TestPaperSuite:
    def test_matches_paper_order(self):
        # Figs. 4-7 order, after the base model (BM).
        assert tuple(paper_suite()) == ("PD", "NMS", "NS", "PF", "NP", "R-TOSS-3EP", "R-TOSS-2EP")

    def test_default_framework_suite_delegates_to_registry(self):
        suite = default_framework_suite()
        assert list(suite) == list(paper_suite())
        assert suite["R-TOSS-2EP"]().config.entries == 2

    def test_dense_layer_names_forwarded_only_to_supporting_frameworks(self):
        suite = paper_suite(dense_layer_names=("head",))
        rtoss = suite["R-TOSS-3EP"]()
        assert rtoss.config.dense_layer_names == ("head",)
        # Frameworks without the parameter still build fine.
        assert suite["PF"]() is not None
