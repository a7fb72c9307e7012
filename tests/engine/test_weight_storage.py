"""A compiled convolution holds its weights once, in the form its executor reads.

A plan at most ``DIRECT_MAX_DENSITY`` dense keeps CSR, a denser one a
full-width matrix, and the fused program takes the values over; the column
statistics that ``bench/frames.py`` reports are read from the structure the
plans recorded.  Both kernel modes (``make test-engine`` also runs this file
with ``REPRO_NO_NATIVE=1``).
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.rtoss import prune_with_rtoss
from repro.engine import compile_model, sparse_kernel_available
from repro.engine.fuse import FusedConv
from repro.models.registry import build_model

#: (model, image size) -> (kept, total) columns for dense, R-TOSS-2EP, R-TOSS-3EP.
COLUMNS = {
    ("tiny", 64): [(1355, 1355), (1349, 1355), (1355, 1355)],
    ("yolov5n", 160): [(16028, 16028), (16024, 16028), (16028, 16028)],
    ("retinanet_lite", 64): [(41235, 41235), (41232, 41235), (41235, 41235)],
}


def _compiled(name: str, size: int, entries):
    model = build_model(name, num_classes=3)
    report = (prune_with_rtoss(model, entries=entries, example_input=(1, 3, size, size))
              if entries else None)
    return model, compile_model(model, report.masks if report else None)


@pytest.mark.parametrize("name,size", list(COLUMNS))
def test_column_statistics_read_the_recorded_structure(name, size, rng):
    """``kept_columns`` / ``total_columns`` keep their values, and each plan's
    density and kept columns are those of its full-width masked matrix —
    before the first forward takes the values and after."""
    x = rng.standard_normal((1, 3, size, size)).astype(np.float32)
    for entries, expected in zip((None, 2, 3), COLUMNS[(name, size)]):
        _, compiled = _compiled(name, size, entries)
        for plan in compiled.plans.values():
            matrix = plan.full_width()
            assert plan.shape == matrix.shape and plan.nnz == np.count_nonzero(matrix)
            assert plan.density == np.count_nonzero(matrix) / matrix.size
            assert plan.kept_columns == int(np.any(matrix != 0.0, axis=0).sum())
            assert plan.sparse == (plan.density <= 0.5)
        summary = compiled.summary()
        assert (compiled.kept_columns(), compiled.total_columns()) == expected
        compiled.forward_raw(x)
        assert all(plan.values is None for plan in compiled.plans.values())
        assert (compiled.kept_columns(), compiled.total_columns()) == expected
        assert [row["density"] for row in compiled.summary()] == [
            row["density"] for row in summary]


def _arrays(obj):
    """Every ndarray an op or plan holds directly, in a slot, a field or a tuple."""
    names = getattr(type(obj), "__slots__", ()) or vars(obj)
    for name in names:
        value = getattr(obj, name, None)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                yield name, item


def test_a_compiled_convolution_keeps_one_copy_of_its_weights():
    """R-TOSS-2EP ``retinanet_lite`` @ 64, compiled and run once.

    No conv the direct kernel runs holds an ``(O, I*kh*kw)`` array, and what the
    engine retains — everything compile and the forward allocated and kept,
    less the workspace arena — is at most the CSR bytes (values, ``flat``,
    ``rowptr`` and the direct layouts' offsets) plus one full-width matrix per
    dense plan and per conv that runs gather + GEMM.  A plan that kept its
    full-width masked matrix, next to a folded copy in every BN-folded conv,
    retained ~125 MiB here against a ~37 MiB budget.
    """
    size = 64
    model = build_model("retinanet_lite", num_classes=3)
    report = prune_with_rtoss(model, entries=2, example_input=(1, 3, size, size))
    x = np.random.default_rng(0).standard_normal((1, 3, size, size)).astype(np.float32)
    sparse_kernel_available()                       # the library loads outside the trace
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        compiled = compile_model(model, report.masks)
        compiled.forward_raw(x)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()

    convs = [op for op in compiled._fused_program.steps if isinstance(op, FusedConv)]
    budget = 0
    for plan in compiled.plans.values():
        if plan.sparse:
            rowptr, flat = plan.csr()
            budget += 4 * plan.nnz + flat.nbytes + rowptr.nbytes
            budget += sum(layout.operands["off"].nbytes for layout in plan._layouts.values())
        else:
            budget += 4 * plan.shape[0] * plan.shape[1]
    for op in convs:
        rows, width = op.plan.shape
        if op.direct is not None:
            held = [name for name, array in [*_arrays(op), *_arrays(op.plan)]
                    if array.shape == (rows, width)]
            assert not held, f"{op.layer_name} runs direct and holds full-width {held}"
        elif op.plan.sparse:
            budget += 4 * rows * width                  # its one scattered GEMM matrix
    if sparse_kernel_available():
        assert all(op.direct is not None for op in convs)
    arena = compiled.arena_stats()["bytes_allocated"]
    slack = 2 << 20                                    # graph, ops, bindings, biases
    assert retained <= budget + arena + slack, (
        f"retained {retained / 2**20:.1f} MiB, budget {budget / 2**20:.1f} MiB "
        f"+ arena {arena / 2**20:.1f} MiB")
