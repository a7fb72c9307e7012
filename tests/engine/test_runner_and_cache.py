"""BatchRunner, layout-cache, refresh and measurement behaviour of the engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.rtoss import prune_with_rtoss
from repro.engine import (
    BatchRunner,
    compile_model,
    layout_cache_stats,
    measure_speedup,
    reset_layout_cache_stats,
)
from repro.engine.fuse import FusedConv
from repro.engine.native import DISABLE_ENV, sparse_kernel_available
from repro.evaluation.evaluator import DetectorEvaluator
from repro.models.tiny import TinyDetector, TinyDetectorConfig
from repro.nn.tensor import Tensor, is_grad_enabled, no_grad

TOL = 1e-5


def _pruned_tiny(entries: int = 2):
    model = TinyDetector(TinyDetectorConfig(num_classes=3, image_size=64, base_channels=8))
    report = prune_with_rtoss(
        model, entries=entries,
        example_input=Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32)),
    )
    return model, report


# --------------------------------------------------------------------------- no_grad
def test_no_grad_context_disables_and_restores_tape():
    w = Tensor([2.0], requires_grad=True)
    assert is_grad_enabled()
    with no_grad():
        assert not is_grad_enabled()
        y = w * 3.0
        assert not y.requires_grad
        with no_grad():      # nesting keeps the disabled state
            assert not is_grad_enabled()
        assert not is_grad_enabled()
    assert is_grad_enabled()
    assert (w * 3.0).requires_grad


# --------------------------------------------------------------------------- runner
def test_batch_runner_matches_single_batch(rng):
    model, report = _pruned_tiny()
    compiled = compile_model(model, report.masks)
    x = rng.standard_normal((7, 3, 64, 64)).astype(np.float32)
    full = BatchRunner(compiled, batch_size=7).run(x)
    chunked = BatchRunner(compiled, batch_size=3).run(x)
    np.testing.assert_allclose(full, chunked, atol=0, rtol=0)
    assert full.shape[0] == 7


def test_batch_runner_stats_and_plain_module(rng):
    model, _ = _pruned_tiny()
    runner = BatchRunner(model, batch_size=2)   # plain module: dense no-grad path
    x = rng.standard_normal((5, 3, 64, 64)).astype(np.float32)
    out = runner.run(x)
    stats = runner.last_stats
    assert out.shape[0] == 5
    assert stats.batches == 3
    assert stats.images == 5
    assert stats.seconds > 0
    assert stats.images_per_second > 0
    assert stats.batch_latency().count == 3


def test_runner_stats_zero_seconds_reports_zero_throughput():
    """A zero-duration run must report 0.0 images/second, not float('inf')."""
    from repro.engine import RunnerStats

    stats = RunnerStats()
    assert stats.images_per_second == 0.0
    stats.images = 5                      # images recorded but no time elapsed
    assert stats.images_per_second == 0.0
    assert stats.as_dict()["images_per_second"] == 0.0
    stats.record(5, 0.5)
    assert stats.images_per_second == pytest.approx(20.0)


def test_runner_stats_batch_latency_percentiles():
    """RunnerStats exposes per-batch percentiles through LatencyStats."""
    from repro.engine import RunnerStats

    stats = RunnerStats()
    for seconds in (0.010, 0.020, 0.030, 0.040):
        stats.record(2, seconds)
    summary = stats.batch_latency().summary()
    assert summary["count"] == 4
    assert summary["p50_ms"] == pytest.approx(25.0)
    assert summary["max_ms"] == pytest.approx(40.0)


def test_runner_stats_memory_is_bounded_and_aggregates_stay_exact():
    """A long-lived DynamicBatcher records one batch after another for the life
    of the server: the per-batch durations must not grow without bound."""
    from repro.engine import RunnerStats
    from repro.utils.profiling import LatencyStats

    stats = RunnerStats()
    for index in range(10_000):
        stats.record(4, 0.001 + (index % 7) * 1e-4)
    latency = stats.batch_latency()
    assert len(latency.samples) <= LatencyStats.DEFAULT_CAPACITY
    assert stats.batches == latency.count == 10_000
    assert stats.images == 40_000
    assert stats.seconds == pytest.approx(latency.total_seconds)
    assert latency.max_seconds == pytest.approx(0.0016)


def test_batch_runner_rejects_empty_and_bad_batch_size():
    model, _ = _pruned_tiny()
    with pytest.raises(ValueError):
        BatchRunner(model, batch_size=0)
    runner = BatchRunner(model, batch_size=2)
    with pytest.raises(ValueError):
        runner.run(np.zeros((0, 3, 64, 64), dtype=np.float32))


# --------------------------------------------------------------------------- cache
def test_layout_cache_reused_across_calls(rng):
    """Direct-kernel layouts are built on the first call and hit afterwards;
    the portable path (``REPRO_NO_NATIVE=1``) has none to build."""
    model, report = _pruned_tiny()
    compiled = compile_model(model, report.masks)
    native = sparse_kernel_available()
    try:
        reset_layout_cache_stats()
        x = Tensor(rng.standard_normal((2, 3, 64, 64)).astype(np.float32))
        compiled(x)
        first = layout_cache_stats().misses
        assert (first > 0) == native
        compiled(x)
        assert layout_cache_stats().misses == first, "second call must hit the cache"
        assert (layout_cache_stats().hits > 0) == native
    finally:
        reset_layout_cache_stats()


def test_refresh_picks_up_weight_changes(rng):
    model, report = _pruned_tiny()
    compiled = compile_model(model, report.masks)
    x = Tensor(rng.standard_normal((1, 3, 64, 64)).astype(np.float32))
    before = compiled(x).data.copy()
    # Fine-tuning-style update: scale surviving weights, keep the mask.
    for _, param in model.named_parameters():
        param.data *= 1.5
    report.masks.reapply(model)
    compiled.refresh()
    after = compiled(x).data
    assert not np.allclose(before, after)
    model.eval()
    dense = model(x).data
    # Scaling every parameter by 1.5 blows intermediate activations up by
    # ~2x per layer; the fused executor folds BN into the conv weights,
    # which legitimately reorders the float32 math, so the comparison must
    # scale with the output magnitude rather than use a fixed 1e-4.
    tolerance = 1e-5 * max(1.0, float(np.abs(dense).max()))
    np.testing.assert_allclose(after, dense, atol=tolerance, rtol=0)


@pytest.mark.parametrize("kernel_mode", ["native", "portable"])
def test_refresh_follows_a_mask_change(kernel_mode, monkeypatch, rng):
    """Re-pruning between forwards: one more whole column and one more single
    weight go, and ``refresh()`` re-packs — no recompile, the new mask rules."""
    if kernel_mode == "portable":
        monkeypatch.setenv(DISABLE_ENV, "1")
    elif not sparse_kernel_available():
        pytest.skip("fp32 sparse kernel unavailable")
    model, report = _pruned_tiny(entries=3)
    compiled = compile_model(model, report.masks)
    x = rng.standard_normal((2, 3, 64, 64)).astype(np.float32)
    compiled.forward_raw(x)
    name, plan = next((name, plan) for name, plan in compiled.plans.items()
                      if plan.kernel_size == (3, 3) and plan.density <= 0.5)
    layer = dict(model.named_modules())[name]
    nnz_before = plan.csr()[1].size

    mask = layer.keep_mask().copy()
    rows = mask.reshape(mask.shape[0], -1)
    kept = plan.weight_matrix != 0.0
    col = int(np.flatnonzero(kept.any(axis=0))[0])
    row, other = np.argwhere(kept[:, col + 1:])[0]
    zeroed = int(kept[:, col].sum()) + 1
    rows[:, col] = 0.0
    rows[row, col + 1 + other] = 0.0
    layer.pruning_masks["weight"] = mask
    layer.weight.data *= mask
    compiled.refresh()

    out = compiled.forward_raw(x)
    model.eval()
    dense = model(Tensor(x)).data
    assert np.abs(out - dense).max() <= TOL * max(1.0, np.abs(dense).max())
    assert compiled.plans[name] is plan and plan.csr()[1].size == nnz_before - zeroed
    if kernel_mode == "native":
        (op,) = [op for op in compiled._fused_program.steps
                 if isinstance(op, FusedConv) and op.plan is plan]
        assert op.direct is not None and op.csr_val.size == nnz_before - zeroed


def test_refresh_masks_drifted_weights(rng):
    """Fine-tuning without masks.reapply() must not leak pruned weights into the
    compiled path: refresh() re-packs with the keep-mask applied."""
    model, report = _pruned_tiny()
    compiled = compile_model(model, report.masks)
    # Simulate dense-path gradient drift: every weight (masked ones too)
    # moves away from zero, and reapply() is *not* called.
    for _, param in model.named_parameters():
        param.data += 0.01
    compiled.refresh()
    x = Tensor(rng.standard_normal((1, 3, 64, 64)).astype(np.float32))
    compiled_out = compiled(x).data
    # Ground truth: the masked-dense forward.
    report.masks.reapply(model)
    model.eval()
    masked_dense = model(x).data
    np.testing.assert_allclose(compiled_out, masked_dense, atol=1e-5, rtol=0)


def test_mask_signature_stable_and_sensitive():
    _, report_a = _pruned_tiny(entries=2)
    _, report_b = _pruned_tiny(entries=2)
    _, report_c = _pruned_tiny(entries=3)
    assert report_a.masks.signature() == report_b.masks.signature()
    assert report_a.masks.signature() != report_c.masks.signature()


def test_runner_and_bench_handle_multi_output_models(rng):
    """Detectors returning tuples of tensors (multi-scale heads) work end to end."""
    from repro.nn.layers.conv import Conv2d
    from repro.nn.module import Module

    class TwoHead(Module):
        def __init__(self):
            super().__init__()
            self.trunk = Conv2d(3, 8, 3, rng=np.random.default_rng(0))
            self.head_a = Conv2d(8, 4, 1, padding=0, rng=np.random.default_rng(1))
            self.head_b = Conv2d(8, 6, 3, stride=2, rng=np.random.default_rng(2))

        def forward(self, x):
            features = self.trunk(x)
            return self.head_a(features), self.head_b(features)

    model = TwoHead()
    x = rng.standard_normal((5, 3, 16, 16)).astype(np.float32)
    compiled = compile_model(model)
    out_a, out_b = BatchRunner(compiled, batch_size=2).run(x)
    assert out_a.shape[0] == 5 and out_b.shape[0] == 5
    m = measure_speedup(model, x=x, repeats=1, warmup=0, model_name="twohead")
    assert m.max_abs_diff < 1e-5  # diff computed across the whole tuple


# --------------------------------------------------------------------------- bench
def test_measure_speedup_reports_equivalent_outputs():
    model, report = _pruned_tiny()
    m = measure_speedup(model, masks=report.masks, repeats=1, warmup=0,
                        batch=1, image_size=64, model_name="tiny")
    assert m.max_abs_diff < 1e-5
    assert m.dense_seconds > 0 and m.compiled_seconds > 0
    assert m.compiled_layers > 0
    row = m.row()
    assert "measured_speedup" in row and "dense_ms" in row
    # The mode census comes from the executed plans, not a hardcoded label.
    assert any("+bn" in mode for mode in m.mode_census), m.mode_census
    # Measuring never rewires the model: it stays the taped dense path.
    out = model(Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32)))
    assert out.requires_grad


def test_evaluator_measured_column():
    factory = lambda: TinyDetector(
        TinyDetectorConfig(num_classes=3, image_size=64, base_channels=8))
    evaluator = DetectorEvaluator(factory, "tiny", baseline_map=60.0,
                                  image_size=64, probe_size=32, trace_size=64,
                                  measure_engine=True, measure_batch=1,
                                  measure_repeats=1)
    from repro.core.config import RTOSSConfig
    from repro.core.rtoss import RTOSSPruner

    result = evaluator.evaluate(RTOSSPruner(RTOSSConfig(entries=2)))
    measured = result.measured
    assert measured is not None
    assert measured.max_abs_diff < 1e-5
    # The published column is the shipped engine's timing: what forward_raw
    # runs (the fused program), not a second executor's.
    assert measured.engine_mode == "fused"
    row = result.row()
    assert row["measured_speedup[host]"] == round(
        measured.dense_seconds / measured.compiled_seconds, 2)
    assert row["measured_latency_ms[host]"] == round(measured.compiled_seconds * 1e3, 2)

    # The measured columns must survive table rendering even when the first
    # (baseline) row lacks them — format_table unions columns across rows.
    from repro.evaluation.tables import format_table

    baseline = evaluator.evaluate_baseline()
    table = format_table([baseline.row(), row])
    assert "measured_speedup[host]" in table
