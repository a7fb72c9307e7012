"""Serving throughput — dynamic micro-batching vs sequential single-image calls.

**Report-only.**  A closed-loop client fleet is pushed through
:class:`repro.serving.InferenceService` and timed against the same number of
sequential single-image ``BatchRunner`` calls; the ratio is printed and
written to ``BENCH_serving.json`` next to this file, and nothing here asserts
on it.  It used to be gated at 1.25x; since PR 13 the forward is cheaper than
a closed-loop client's round trip, and the single-shot ratio swings with the
host (0.87 at the PR 15 re-anchor, 1.0–2.8 across one afternoon on the same
2-core machine) — the gate measured the host.  The referee for speed
is the frozen ``bench/`` (``python3 -m bench --workload serve_inproc``); what
this file used to assert about *correctness* — served ≡ sequential, every
closed-loop request completes, micro-batches form under concurrency — lives in
``tests/serving/test_service_and_loadgen.py`` with no clock in it.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.rtoss import prune_with_rtoss
from repro.engine import BatchRunner, compile_model, max_abs_output_diff
from repro.evaluation.tables import format_table
from repro.models.tiny import TinyDetector, TinyDetectorConfig
from repro.nn.tensor import Tensor
from repro.serving import BatchPolicy, InferenceService, closed_loop

IMAGE_SIZE = 64
REQUESTS = 96
CONCURRENCY = 8
MAX_BATCH = 8

RESULT_PATH = Path(__file__).resolve().parent / "BENCH_serving.json"


def _merge_result(update: dict) -> None:
    """Read-update-write: the gateway benchmark shares BENCH_serving.json."""
    data = {}
    if RESULT_PATH.exists():
        try:
            data = json.loads(RESULT_PATH.read_text())
        except ValueError:
            data = {}
    data.update(update)
    RESULT_PATH.write_text(json.dumps(data, indent=2) + "\n")


def _pruned_compiled():
    model = TinyDetector(TinyDetectorConfig(num_classes=3, image_size=IMAGE_SIZE,
                                            base_channels=16))
    report = prune_with_rtoss(
        model, entries=2,
        example_input=Tensor(np.zeros((1, 3, IMAGE_SIZE, IMAGE_SIZE), dtype=np.float32)),
        model_name="tiny",
    )
    return compile_model(model, report.masks)


def _measure():
    compiled = _pruned_compiled()
    rng = np.random.default_rng(0)
    images = rng.standard_normal((REQUESTS, 3, IMAGE_SIZE, IMAGE_SIZE)).astype(np.float32)

    # Sequential baseline: one image per call through the same compiled engine —
    # the unbatched status quo a naive service loop would pay.
    sequential_runner = BatchRunner(compiled, batch_size=1)
    sequential_runner.run(images[:4])                      # warm layout caches
    started = time.perf_counter()
    sequential_out = sequential_runner.run(images)
    sequential_seconds = time.perf_counter() - started
    sequential_rps = REQUESTS / sequential_seconds

    with InferenceService(compiled,
                          policy=BatchPolicy(max_batch_size=MAX_BATCH)) as service:
        served_out = service.submit_many(images)           # also correctness check
        load = closed_loop(service, images, requests=REQUESTS,
                           concurrency=CONCURRENCY)
        report = service.report()

    max_diff = max_abs_output_diff(served_out, sequential_out)
    return {
        "sequential_rps": sequential_rps,
        "service_rps": load.throughput_rps,
        "speedup": load.throughput_rps / sequential_rps,
        "max_abs_diff": float(max_diff),
        "load": load.as_dict(),
        "service": report,
    }


@pytest.mark.benchmark(group="serving")
def test_serving_throughput_report(benchmark):
    result = benchmark.pedantic(_measure, rounds=1, iterations=1)

    row = {
        "requests": REQUESTS,
        "concurrency": CONCURRENCY,
        "sequential_rps": round(result["sequential_rps"], 1),
        "service_rps": round(result["service_rps"], 1),
        "speedup": round(result["speedup"], 2),
        "p50_ms": result["load"]["latency"]["p50_ms"],
        "p99_ms": result["load"]["latency"]["p99_ms"],
        "mean_batch": result["service"]["batches"]["mean_size"],
        "max_abs_diff": result["max_abs_diff"],
    }
    print()
    print(format_table([row], title="Serving throughput, R-TOSS-2EP TinyDetector "
                                    "(micro-batched service vs sequential calls; "
                                    "report-only)"))

    _merge_result(result)
