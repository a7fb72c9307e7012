"""Measured engine speedup — the wall-clock companion to Fig. 6 (report-only).

Fig. 6 reports *modeled* platform speedups from :mod:`repro.hardware`; this
benchmark runs the pruned network for real through the pattern-aware execution
engine (masked full-width plans + BN folding + activation epilogues + workspace
arena — the one path serving runs) and prints what it measures: the paper's own
claim on the shipped executor (``pruning_speedup`` = fused-dense / fused-pruned
on the same TinyDetector, arms paired per round, next to the modeled TX2
figure).  ``pytest
benchmarks/test_engine_speedup.py -s`` shows the table.

It gates no wall-clock ratio: a single-shot ratio on a shared 2-core host
swings with the scheduler, and the referee for engine speed is the repo
benchmark (``python3 -m bench``, paired runs).  What every run still asserts
is that each measured number belongs to an *equivalent* output (max abs diff
< 1e-5 on the fused path).  The deterministic invariants that used to ride
along here — zero arena misses after warm-up, plans skipping masked taps —
live in ``tests/engine/test_fused_executor.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.rtoss import prune_with_rtoss
from repro.engine import compile_model, measure_speedup
from repro.evaluation.tables import format_table
from repro.hardware import JETSON_TX2, SparsityProfile, estimate_latency, profile_model
from repro.models.tiny import TinyDetector, TinyDetectorConfig
from repro.nn.tensor import Tensor
from repro.utils.rng import set_global_seed

IMAGE_SIZE = 96
BATCH = 4
REPEATS = 5


def _pruned_tiny(entries: int):
    model = TinyDetector(TinyDetectorConfig(num_classes=3, image_size=IMAGE_SIZE,
                                            base_channels=16))
    report = prune_with_rtoss(
        model, entries=entries,
        example_input=Tensor(np.zeros((1, 3, IMAGE_SIZE, IMAGE_SIZE), dtype=np.float32)),
        model_name="tiny",
    )
    return model, report


def _dense_twin():
    """The unpruned TinyDetector (same seed) through the same fused executor."""
    set_global_seed(0)
    return compile_model(TinyDetector(TinyDetectorConfig(
        num_classes=3, image_size=IMAGE_SIZE, base_channels=16)))


def _measure(entries: int):
    dense_engine = _dense_twin()
    set_global_seed(0)
    model, report = _pruned_tiny(entries)
    measurement = measure_speedup(
        model, dense_engine, masks=report.masks, repeats=REPEATS, warmup=1,
        batch=BATCH, image_size=IMAGE_SIZE, model_name=f"tiny/R-TOSS-{entries}EP",
    )
    # Modeled (Fig. 6 style) speedup of the same pruned model for context.
    profile = profile_model(model, IMAGE_SIZE, 64, model_name="tiny")
    dense_modeled = estimate_latency(profile, JETSON_TX2)
    pruned_modeled = estimate_latency(profile, JETSON_TX2, SparsityProfile.from_report(report))
    modeled_speedup = dense_modeled.total_seconds / pruned_modeled.total_seconds
    return measurement, modeled_speedup


def test_engine_speedup_rtoss_2ep():
    measurement, modeled = _measure(2)

    row = measurement.row()
    row["modeled_speedup[Jetson TX2]"] = round(modeled, 2)
    print()
    print(format_table([row], title="Engine speedup, R-TOSS-2EP on TinyDetector "
                                    "(measured on host CPU vs modeled)"))

    # The measured speedup only counts on equivalent outputs.
    assert measurement.max_abs_diff < 1e-5
    assert measurement.engine_mode == "fused"
    assert measurement.pruning_speedup > 0.0, "the dense twin was not measured"


def test_engine_speedup_rtoss_3ep():
    measurement, modeled = _measure(3)
    row = measurement.row()
    row["modeled_speedup[Jetson TX2]"] = round(modeled, 2)
    print()
    print(format_table([row], title="Engine speedup, R-TOSS-3EP on TinyDetector "
                                    "(measured on host CPU vs modeled)"))
    assert measurement.max_abs_diff < 1e-5
    assert measurement.pruning_speedup > 0.0, "the dense twin was not measured"
