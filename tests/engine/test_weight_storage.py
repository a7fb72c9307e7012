"""A compiled convolution holds its weights once, in the form its executor reads.

A plan at most ``DIRECT_MAX_DENSITY`` dense keeps CSR row pointers plus a
bitmap of its nonzeros, a denser one a full-width matrix, and the fused
program takes the values over; the column statistics that ``bench/frames.py``
reports are read from the structure the plans recorded.  Pruning masks are
bool.  Both kernel modes (``make test-engine`` also runs this file with
``REPRO_NO_NATIVE=1``).
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


def _retained(build):
    """``build()``'s result and the bytes it allocated and kept (``tracemalloc``)."""
    sparse_kernel_available()                       # the library loads outside the trace
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        gc.collect()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_a_compiled_convolution_keeps_one_copy_of_its_weights():
    """R-TOSS-2EP ``retinanet_lite`` @ 64, compiled and run once.

    No conv the direct kernel runs holds an ``(O, I*kh*kw)`` array, and what the
    engine retains — everything compile and the forward allocated and kept,
    less the workspace arena — is at most the sparse bytes (values, ``rowptr``,
    one bit per matrix entry and the direct layouts' offsets) plus one
    full-width matrix per dense plan and per conv that runs gather + GEMM.  A
    plan that kept its full-width masked matrix, next to a folded copy in every
    BN-folded conv, retained ~125 MiB here against a ~22 MiB budget; int32
    ``flat`` positions in place of the bitmap added 10 MiB.
    """
    size = 64
    model = build_model("retinanet_lite", num_classes=3)
    report = prune_with_rtoss(model, entries=2, example_input=(1, 3, size, size))
    x = np.random.default_rng(0).standard_normal((1, 3, size, size)).astype(np.float32)

    def build():
        compiled = compile_model(model, report.masks)
        compiled.forward_raw(x)
        return compiled

    compiled, retained = _retained(build)
    convs = [op for op in compiled._fused_program.steps if isinstance(op, FusedConv)]
    budget = 0
    for plan in compiled.plans.values():
        rows, width = plan.shape
        offsets = sum(layout.operands["off"].nbytes for layout in plan._layouts.values())
        if plan.sparse:
            stored = 4 * plan.nnz + 4 * (rows + 1) + -(-rows * width // 8) + offsets
        else:
            stored = 4 * rows * width + offsets
        assert plan.stored_bytes == stored, plan.layer_name
        budget += stored
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


def test_pruned_masks_are_bool_and_retain_a_byte_per_weight():
    """Every mask ``prune_with_rtoss`` returns is bool, and pruning retains at
    most one byte per masked weight (the masks; the weights are zeroed in
    place) plus slack — float32 masks retained four."""
    size = 160
    model = build_model("yolov5n", num_classes=3)
    report, retained = _retained(
        lambda: prune_with_rtoss(model, entries=3, example_input=(1, 3, size, size)))
    masks = list(report.masks)
    assert masks and all(mask.mask.dtype == np.bool_ for mask in masks)
    slack = 1 << 20                                    # report, graph of the trace
    assert retained <= report.masks.masked_parameters() + slack, (
        f"retained {retained / 2**20:.2f} MiB for "
        f"{report.masks.masked_parameters() / 2**20:.2f} M masked weights")


@pytest.mark.skipif(not sparse_kernel_available(),
                    reason="the portable path multiplies a full-width matrix per pruned conv")
def test_rtoss_3ep_retains_less_than_the_dense_model():
    """``retinanet_lite`` @ 64 built, pruned, compiled and run once on the
    direct sparse kernel: the R-TOSS-3EP arm holds fewer bytes than the dense
    arm (float32 masks and int32 ``flat`` positions made it hold ~45 MiB more)."""
    size = 64
    x = np.zeros((1, 3, size, size), dtype=np.float32)

    def arm(entries):
        def build():
            model, compiled = _compiled("retinanet_lite", size, entries)
            compiled.forward_raw(x)
            return model, compiled
        return _retained(build)[1]

    dense, pruned = arm(None), arm(3)
    assert pruned < dense, f"3EP {pruned / 2**20:.1f} MiB, dense {dense / 2**20:.1f} MiB"
