"""Utilities: RNG determinism, serialization, logging, latency percentiles."""

import logging
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.logging import get_logger, set_verbosity
from repro.utils.profiling import LatencyStats, percentile
from repro.utils.rng import default_rng, get_global_seed, set_global_seed, spawn_rng
from repro.utils.serialization import load_state_dict, save_state_dict


class TestRNG:
    def test_set_global_seed_reproducible(self):
        set_global_seed(7)
        a = default_rng().random(5)
        set_global_seed(7)
        b = default_rng().random(5)
        np.testing.assert_array_equal(a, b)
        assert get_global_seed() == 7

    def test_explicit_seed_independent_of_global(self):
        a = default_rng(3).random(4)
        b = default_rng(3).random(4)
        np.testing.assert_array_equal(a, b)

    def test_spawn_rng_streams_differ(self):
        weights = spawn_rng("weights", 0).random(4)
        data = spawn_rng("data", 0).random(4)
        assert not np.array_equal(weights, data)

    def test_spawn_rng_deterministic(self):
        np.testing.assert_array_equal(spawn_rng("x", 1).random(3), spawn_rng("x", 1).random(3))


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        state = {"conv.weight": np.random.default_rng(0).random((3, 3)).astype(np.float32),
                 "bn.bias": np.zeros(4, dtype=np.float32)}
        path = save_state_dict(state, os.path.join(tmp_path, "ckpt"))
        assert path.endswith(".npz")
        loaded = load_state_dict(path)
        assert set(loaded) == set(state)
        np.testing.assert_array_equal(loaded["conv.weight"], state["conv.weight"])

    def test_load_without_extension(self, tmp_path):
        state = {"w": np.ones(3, dtype=np.float32)}
        save_state_dict(state, os.path.join(tmp_path, "model"))
        loaded = load_state_dict(os.path.join(tmp_path, "model"))
        np.testing.assert_array_equal(loaded["w"], state["w"])

    def test_model_state_dict_roundtrip(self, tiny_model, tmp_path):
        path = save_state_dict(tiny_model.state_dict(), os.path.join(tmp_path, "tiny"))
        from repro.models.tiny import TinyDetector, TinyDetectorConfig
        other = TinyDetector(TinyDetectorConfig(num_classes=3, image_size=64, base_channels=8))
        other.load_state_dict(load_state_dict(path))
        np.testing.assert_array_equal(other.head.weight.data, tiny_model.head.weight.data)


class TestLogging:
    def test_logger_namespaced(self):
        logger = get_logger("unit-test")
        assert logger.name == "repro.unit-test"
        set_verbosity(logging.WARNING)
        set_verbosity(logging.INFO)


class TestLatencyStats:
    def test_percentile_matches_numpy_linear_interpolation(self):
        rng = np.random.default_rng(5)
        values = rng.random(37).tolist()
        for q in (0, 10, 50, 90, 95, 99, 100):
            assert percentile(values, q) == pytest.approx(np.percentile(values, q))

    def test_percentile_edge_cases(self):
        assert percentile([], 50) == 0.0
        assert percentile([4.2], 99) == 4.2
        with pytest.raises(ValueError, match="percentile"):
            percentile([1.0], 101)

    def test_summary_reports_percentiles_in_ms(self):
        stats = LatencyStats()
        stats.extend(ms / 1000.0 for ms in [1.0, 2.0, 3.0, 4.0, 100.0])
        summary = stats.summary()
        assert summary["count"] == 5
        assert summary["p50_ms"] == pytest.approx(3.0)
        assert summary["p95_ms"] > summary["p50_ms"]
        assert summary["max_ms"] == pytest.approx(100.0)
        assert summary["mean_ms"] == pytest.approx(22.0)

    def test_empty_summary_is_all_zero(self):
        summary = LatencyStats().summary()
        assert summary == {"count": 0, "mean_ms": 0.0, "p50_ms": 0.0,
                           "p95_ms": 0.0, "p99_ms": 0.0, "max_ms": 0.0}

    @given(runs=st.lists(st.tuples(st.floats(0.0, 10.0), st.integers(0, 40)),
                         min_size=1, max_size=30),
           capacity=st.integers(1, 64))
    def test_a_weighted_add_is_that_many_single_adds(self, runs, capacity):
        """``add(v, n)`` records a run that settled together in one call: count,
        sum and max as ``n`` single adds, the reservoir bounded, and -- while
        nothing has been down-sampled -- the very same samples."""
        weighted, singles = LatencyStats(capacity), LatencyStats(capacity)
        for value, count in runs:
            weighted.add(value, count)
            for _ in range(count):
                singles.add(value)
        assert weighted.count == singles.count == sum(count for _, count in runs)
        assert weighted.total_seconds == pytest.approx(singles.total_seconds)
        assert weighted.max_seconds == singles.max_seconds
        assert len(weighted.samples) == min(weighted.count, capacity)
        assert set(weighted.samples) <= {value for value, count in runs if count}
        if weighted.count <= capacity:
            assert weighted.samples == singles.samples

    def test_profiling_doctests_pass(self):
        """The module's doctests are part of its contract (LatencyStats/percentile)."""
        import doctest

        import repro.utils.profiling as profiling

        failures, tested = doctest.testmod(profiling)
        assert failures == 0
        assert tested > 0
