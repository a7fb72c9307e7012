"""Observability tax: the disabled profiler hook must cost ≤2% per forward.

``FusedProgram.run`` reads this thread's profiler slot before executing — one
attribute read and an ``is None`` branch when profiling is off (the steady
state for every serving deployment).  This benchmark measures that entry
against the raw executor body (``_run`` with the profiler pre-resolved to
``None``) as the median of paired per-forward ratios, and gates it at
``MAX_DISABLED_OVERHEAD``.  A failure here means instrumentation crept into
the per-forward path — per-op work must stay behind the profiler check.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.core.rtoss import prune_with_rtoss
from repro.engine import compile_model
from repro.models.tiny import TinyDetector, TinyDetectorConfig
from repro.nn.tensor import Tensor

IMAGE_SIZE = 96
BATCH = 4
PAIRS = 400

#: Acceptance ceiling: instrumented entry / raw body, profiler disabled.
MAX_DISABLED_OVERHEAD = 1.02


def _fused_program():
    model = TinyDetector(TinyDetectorConfig(num_classes=3, image_size=IMAGE_SIZE,
                                            base_channels=16))
    report = prune_with_rtoss(
        model, entries=2,
        example_input=Tensor(np.zeros((1, 3, IMAGE_SIZE, IMAGE_SIZE),
                                      dtype=np.float32)),
        model_name="tiny",
    )
    compiled = compile_model(model, report.masks, apply_masks=False)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((BATCH, 3, IMAGE_SIZE, IMAGE_SIZE)).astype(np.float32)
    compiled.forward_raw(x)  # trace + fuse + warm the arena
    program = compiled._fused_program
    assert program is not None, "fused program must engage for the overhead gate"
    return compiled, program, x


def _measure_overhead(program, x):
    """Median over ``PAIRS`` back-to-back (instrumented, raw) forwards of their ratio.

    The two forwards of a pair run next to each other, in alternating order,
    so both sample the same scheduler and clock conditions and a slow slice of
    the host moves one pair, not the estimate.  (A ratio of two minima over a
    few blocks of forwards wandered +-10% on a shared two-core host: each
    minimum is one lucky block.)  Returns (ratio, median instrumented forward,
    median raw forward) in seconds.
    """
    program.run(x)
    program._run(x, None)
    clock = time.perf_counter
    instrumented = []
    raw = []
    for pair in range(PAIRS):
        if pair % 2:
            started = clock()
            program.run(x)
            instrumented.append(clock() - started)
        started = clock()
        program._run(x, None)
        raw.append(clock() - started)
        if not pair % 2:
            started = clock()
            program.run(x)
            instrumented.append(clock() - started)
    ratio = statistics.median(a / b for a, b in zip(instrumented, raw))
    return ratio, statistics.median(instrumented), statistics.median(raw)


def test_disabled_profiler_overhead_is_bounded():
    compiled, program, x = _fused_program()
    ratio, instrumented, raw = _measure_overhead(program, x)
    if ratio > MAX_DISABLED_OVERHEAD:
        # Wall-clock ratios this close to 1.0 are scheduler-sensitive, so
        # one re-measure separates a real regression from a busy slice.
        retry_ratio, retry_inst, retry_raw = _measure_overhead(program, x)
        if retry_ratio < ratio:
            ratio, instrumented, raw = retry_ratio, retry_inst, retry_raw

    print(f"\ndisabled-profiler overhead: {ratio:.4f}x "
          f"(raw {raw * 1e6:.0f}us/forward, median of {PAIRS} paired ratios)")

    assert ratio <= MAX_DISABLED_OVERHEAD, (
        f"profiler-disabled forward is {ratio:.4f}x the raw executor body "
        f"(budget {MAX_DISABLED_OVERHEAD}x) — instrumentation has leaked into "
        "the per-forward hot path")


def test_profiled_run_attributes_every_op():
    """Sanity companion to the overhead gate: with a profiler attached, the
    same program reports per-op totals that cover the graph (the overhead
    gate would be meaningless if the enabled path did not actually profile)."""
    from repro.obs.profiler import EngineProfiler

    compiled, program, x = _fused_program()
    profiler = EngineProfiler()
    with program.profiled(profiler):
        program.run(x)
    report = profiler.report()
    steps = len(program)
    assert report["runs"] == 1
    assert len(report["ops"]) > 0
    assert sum(row["calls"] for row in report["ops"]) == steps
    conv_rows = [row for row in report["ops"] if row["kind"] == "conv"]
    assert conv_rows and all("phases_ms" in row for row in conv_rows)
