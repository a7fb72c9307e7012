"""Each native glue op against its numpy body, value for value.

``MaxPoolOp``, ``ConcatOp``, binary ``EwiseOp`` add, ``UpsampleOp`` and the
stand-alone ReLU run a bound native call where the library loaded and their
numpy body otherwise; the two must be interchangeable.  The sweeps feed both
the values that separate a careful kernel from a careless one — NaN, +-inf,
-0.0 — through contiguous arrays, strided views and ``GetitemOp``-style slices,
at odd shapes and several batch sizes, and compare:

* concat, upsample and add bit for bit (NaN payloads included);
* max-pool and ReLU with ``==`` plus NaNs in the same places: the sign of a
  zero that ties with another zero is the one thing ``np.maximum`` itself does
  not fix (its SIMD body and its scalar tail disagree).
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.engine import sparse_kernel_available
from repro.engine.arena import WorkspaceArena
from repro.engine.fuse import ActOp, ConcatOp, EwiseOp, GetitemOp, MaxPoolOp, UpsampleOp
from repro.engine.native import load_sparse_kernel
from repro.engine.trace import OpNode

pytestmark = pytest.mark.skipif(
    not sparse_kernel_available(),
    reason="fp32 native library unavailable (no AVX-512F, no compiler, or REPRO_NO_NATIVE)")

SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, -1.0], dtype=np.float32)


def _node(kind, inputs, **params):
    return OpNode(index=7, kind=kind, name=kind, inputs=tuple(inputs), outputs=(len(inputs),),
                  params=params)


def _values(shape, rng, special_share=0.3):
    """Standard-normal data with a share of NaN / +-inf / signed zeros mixed in."""
    data = rng.standard_normal(shape).astype(np.float32)
    special = rng.random(shape) < special_share
    data[special] = rng.choice(SPECIALS, size=int(special.sum()))
    return data


def _layouts(data):
    """The same values as a contiguous array, a strided view and a sliced view."""
    yield "contiguous", data
    wide = np.zeros((*data.shape[:-1], 2 * data.shape[-1]), dtype=np.float32)
    wide[..., ::2] = data
    yield "strided", wide[..., ::2]
    tall = np.zeros((data.shape[0], data.shape[1] + 3, *data.shape[2:]), dtype=np.float32)
    tall[:, 2:-1] = data
    yield "getitem", GetitemOpView(tall, (slice(None), slice(2, -1)))


class GetitemOpView:
    """An input that reaches the op through a real :class:`GetitemOp` step."""

    def __init__(self, base, index):
        self.base, self.index = base, index

    def resolve(self, arena):
        values = [self.base, None]
        GetitemOp(OpNode(index=3, kind="getitem", name="getitem", inputs=(0,), outputs=(1,),
                         params={"index": self.index})).execute(values, arena)
        return values[1]


def _run(op_factory, inputs, native):
    """Two forwards through one arena (the second takes the bound fast path)."""
    op = op_factory()
    op.native = load_sparse_kernel() if native else None
    arena = WorkspaceArena()
    with np.errstate(invalid="ignore"):       # inf + -inf is part of the sweep
        for _ in range(2):
            values = [x.resolve(arena) if isinstance(x, GetitemOpView) else x for x in inputs]
            values.append(None)
            op.execute(values, arena)
    return values[-1].copy()


def _assert_same(native, portable, bits):
    assert native.shape == portable.shape and native.dtype == portable.dtype
    if bits:
        assert np.array_equal(native.view(np.uint32), portable.view(np.uint32))
    else:
        assert np.array_equal(native, portable, equal_nan=True)


@pytest.mark.parametrize("batch", [1, 2, 5])
@pytest.mark.parametrize("kernel, stride, padding", [
    ((2, 2), (2, 2), (0, 0)), ((3, 3), (2, 2), (1, 1)), ((5, 5), (1, 1), (2, 2)),
    ((3, 3), (1, 1), (0, 0)), ((3, 3), (3, 3), (1, 1)), ((3, 2), (1, 2), (1, 0)),
    ((1, 1), (1, 1), (0, 0)), ((2, 5), (3, 1), (1, 2)), ((9, 9), (1, 1), (4, 4))])
def test_maxpool(kernel, stride, padding, batch, rng):
    # ((5, 5), (1, 1), (2, 2)) is SPPF's pool; the widths cover 1-4 vectors and
    # their tails, also for the stride-1 column pass (loads, not a gather)
    for hw in [(13, 9), (5, 5), (1, 1), (2, 37), (18, 17), (20, 20), (4, 50), (3, 64)]:
        if hw[0] + 2 * padding[0] < kernel[0] or hw[1] + 2 * padding[1] < kernel[1]:
            continue
        data = _values((batch, 3, *hw), rng, special_share=0.1)
        for name, x in _layouts(data):
            def factory():
                return MaxPoolOp(_node("maxpool", (0,), kernel=kernel, stride=stride,
                                       padding=padding))
            _assert_same(_run(factory, [x], True), _run(factory, [x], False), bits=False)


def test_maxpool_window_inside_the_halo_is_minus_inf(rng):
    """Padding as wide as the kernel: corner windows see nothing but halo."""
    def factory():
        return MaxPoolOp(_node("maxpool", (0,), kernel=(2, 2), stride=(2, 2), padding=(2, 2)))
    x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
    native = _run(factory, [x], True)
    assert np.isneginf(native[:, :, 0, 0]).all()
    _assert_same(native, _run(factory, [x], False), bits=True)


@pytest.mark.parametrize("axis", [1, -3, 0, 2, 3])
@pytest.mark.parametrize("parts", [1, 2, 4])
def test_concat(axis, parts, rng):
    for batch in (1, 3):
        shapes = []
        for _ in range(parts):
            shape = [batch, 5, 7, 3]
            shape[axis] = int(rng.integers(1, 6))
            shapes.append(tuple(shape))
        datas = [_values(shape, rng) for shape in shapes]
        for layouts in itertools.islice(itertools.product(*[list(_layouts(d)) for d in datas]), 9):
            inputs = [x for _, x in layouts]
            def factory():
                return ConcatOp(_node("concat", range(parts), axis=axis))
            _assert_same(_run(factory, inputs, True), _run(factory, inputs, False), bits=True)


def test_concat_of_mismatched_parts_raises_numpys_error(rng):
    op = ConcatOp(_node("concat", (0, 1), axis=1))
    op.native = load_sparse_kernel()
    values = [np.zeros((1, 2, 4, 4), np.float32), np.zeros((1, 2, 4, 5), np.float32), None]
    with pytest.raises(ValueError, match="must match exactly"):
        op.execute(values, WorkspaceArena())


@pytest.mark.parametrize("shape", [(1, 1, 1, 1), (1, 3, 5, 7), (4, 2, 9, 16), (2, 3, 1, 33)])
def test_add_and_relu(shape, rng):
    a, b = _values(shape, rng), _values(shape, rng)
    for (_, x), (_, y) in itertools.product(_layouts(a), _layouts(b)):
        def add():
            return EwiseOp(_node("ewise", (0, 1), ufunc="add"))
        _assert_same(_run(add, [x, y], True), _run(add, [x, y], False), bits=True)
        def relu():
            return ActOp(_node("act", (0,), act="relu", negative_slope=None))
        _assert_same(_run(relu, [x], True), _run(relu, [x], False), bits=False)


def test_broadcasting_and_constant_arithmetic_keep_the_numpy_body(rng):
    """Only same-shape tensor + tensor is bound natively; the rest is numpy's."""
    a, row = _values((2, 3, 4, 5), rng), _values((1, 3, 1, 1), rng)
    def broadcast():
        return EwiseOp(_node("ewise", (0, 1), ufunc="add"))
    _assert_same(_run(broadcast, [a, row], True), a + row, bits=True)
    def scaled():
        return EwiseOp(_node("ewise", (0,), ufunc="multiply", const=np.float32(0.5),
                             const_first=True))
    _assert_same(_run(scaled, [a], True), np.float32(0.5) * a, bits=True)
    def module_add():
        return EwiseOp(_node("add", (0, 1)))
    _assert_same(_run(module_add, [a, a], True), a + a, bits=True)


@pytest.mark.parametrize("scale", [1, 2, 3, 5, 17])
@pytest.mark.parametrize("shape", [(1, 1, 1, 1), (1, 4, 5, 5), (3, 2, 7, 20), (2, 3, 10, 1),
                                   (1, 2, 3, 33), (2, 1, 2, 47)])
def test_upsample(shape, scale, rng):
    data = _values(shape, rng)
    for name, x in _layouts(data):
        def factory():
            return UpsampleOp(_node("upsample", (0,), scale=scale))
        _assert_same(_run(factory, [x], True), _run(factory, [x], False), bits=True)
