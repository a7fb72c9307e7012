"""Segment execution against batch-1 forwards and the dense oracle, over generated graphs.

A forward walks *segments* (:class:`repro.engine.fuse.Segment`): each maximal
run of natively bound steps is one ``run_segment`` call that loops images
outermost on one-image buffers, every Python-bodied step is a segment of its
own on whole-batch arrays, and slots that cross the boundary are addressed per
image through a patch table.  Hypothesis draws small graphs that put every
kind of boundary somewhere — conv chains with concat / add / max-pool /
upsample / stand-alone ReLU / an add that broadcasts (a native body that does
not bind); a Python-bodied step (stand-alone sigmoid,
``x * const``, GELU replayed as a module, a stand-alone BatchNorm, an unpruned
conv on the GEMM path) at the start, in the middle, at the end or nowhere; a
boundary slot fanning out to several native readers; model outputs that are
read again downstream or listed twice; channel-slice views feeding a native
step; and graphs that reverse the batch, so rows are *not* independent and the
run stays whole-batch — and asserts, at batch 1–8, natively and pinned to the
portable path:

* a batch's result is bit for bit the stack of its batch-1 forwards;
* it is within ``1e-5 * max(1, |oracle|)`` of the dense masked forward;
* running the same sizes again (cached cuts, other sizes in between) changes
  nothing.

Deterministic tests below pin a tail that starts mid-segment (from a conv
whose plane fits one vector on, groups of images run step by step; batches up
to 17), a native body that does not bind (its run ends there, and the cut is
kept under the full input shape like every other), the profile of a segment
and of ``retinanet_lite``'s tail, and the cut of real models: a pruned ``yolov5n`` / ``retinanet_lite`` frame — dense 6x6 / 7x7 stem
included — is one native call, and ``tiny`` (the model ``serve_*`` runs) is
cut exactly as before the stems became native.
``--hypothesis-seed=N`` reproduces a failure.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_conv_oracle import portable          # pins the portable path, as REPRO_NO_NATIVE=1 does

from repro.core.rtoss import prune_with_rtoss
from repro.engine import BatchRunner, compile_model, sparse_kernel_available
from repro.engine.fuse import Segment
from repro.engine.native import load_sparse_kernel
from repro.engine.runner import map_structure
from repro.models.registry import build_model
from repro.models.tiny import TinyDetector, TinyDetectorConfig
from repro.nn.layers.activation import GELU, ReLU, Sigmoid, SiLU
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.merge import Add, Concat
from repro.nn.layers.norm import BatchNorm2d
from repro.nn.layers.pooling import MaxPool2d
from repro.nn.layers.upsample import Upsample
from repro.nn.module import Module
from repro.nn.tensor import Tensor

TOL = 1e-5

NATIVE_KINDS = ("conv", "conv", "conv", "add", "concat", "maxpool", "upsample", "relu", "gate")
PYTHON_KINDS = ("sigmoid", "scale", "gelu", "bn", "dense_conv")


# ------------------------------------------------------------------ generation
@st.composite
def graphs(draw):
    """``nodes`` — ``(kind, source tensors, params)``, tensor 0 being the input —
    plus which tensors are model outputs and the batch sizes to run."""
    shapes = [(draw(st.integers(2, 5)), *[draw(st.sampled_from([4, 6, 8]))] * 2)]
    length = draw(st.integers(3, 9))
    python_at = {"start": 0, "middle": length // 2, "end": length - 1,
                 "nowhere": -1}[draw(st.sampled_from(["start", "middle", "end", "nowhere"]))]
    nodes = []
    for step in range(length):
        kind = draw(st.sampled_from(PYTHON_KINDS if step == python_at else NATIVE_KINDS))
        src = draw(st.integers(0, len(shapes) - 1))
        c, h, w = shapes[src]
        if draw(st.integers(0, 5)) == 0 and c >= 2:
            # read the source through a channel-slice view (a GetitemOp step)
            lo = draw(st.integers(0, c - 1))
            hi = draw(st.integers(lo + 1, c))
            nodes.append(("getitem", (src,), {"lo": lo, "hi": hi}))
            shapes.append((hi - lo, h, w))
            src, c = len(shapes) - 1, hi - lo
        params = {}
        sources = (src,)
        if kind in ("conv", "dense_conv"):
            params = {"cout": draw(st.integers(2, 6)), "k": draw(st.sampled_from([1, 3])),
                      "bn": draw(st.booleans()),
                      "act": draw(st.sampled_from([None, "relu", "silu"]))}
            shape = (params["cout"], h, w)
        elif kind in ("add", "concat"):
            # a partner of the same spatial size (same shape for add): an
            # earlier tensor when there is one, else the source itself
            same = [i for i, other in enumerate(shapes)
                    if other[1:] == (h, w) and (kind == "concat" or other[0] == c)]
            sources = (src, draw(st.sampled_from(same)))
            shape = (c + shapes[sources[1]][0], h, w) if kind == "concat" else (c, h, w)
        elif kind == "maxpool":
            fits = [(k, s, p) for k, s, p in [(2, 2, 0), (3, 1, 1), (3, 2, 1)] if h + 2 * p >= k]
            params = {"geometry": draw(st.sampled_from(fits))}
            k, s, p = params["geometry"]
            shape = (c, (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1)
        elif kind == "upsample":
            if h > 8:
                kind = "relu"
            shape = (c, 2 * h, 2 * w) if kind == "upsample" else (c, h, w)
        else:
            shape = (c, h, w)
        nodes.append((kind, sources, params))
        shapes.append(shape)
    real = [i + 1 for i, node in enumerate(nodes)]
    outputs = draw(st.lists(st.sampled_from(real), min_size=1, max_size=3))
    return {"nodes": nodes, "in_shape": shapes[0], "shapes": shapes, "outputs": outputs,
            "flip": draw(st.integers(0, 6)) == 0,
            "batches": draw(st.lists(st.integers(1, 8), min_size=1, max_size=3)),
            "seed": draw(st.integers(0, 2 ** 31 - 1))}


def _pruned_conv(cin, cout, k, pruned, rng):
    conv = Conv2d(cin, cout, kernel_size=k, padding=k // 2, rng=rng)
    conv.bias.data[...] = rng.standard_normal(cout).astype(np.float32)
    if pruned:
        # at most 1 in 3 weights survives, at least one per kernel row: the direct kernel
        keep = (rng.random(conv.weight.data.shape) < 0.3).astype(np.float32)
        keep.reshape(cout, -1)[np.arange(cout), rng.integers(0, cin * k * k, cout)] = 1.0
        conv.weight.data *= keep
        conv.pruning_masks["weight"] = keep
    return conv


def _batchnorm(channels, rng):
    norm = BatchNorm2d(channels)
    norm.running_mean[...] = rng.standard_normal(channels).astype(np.float32)
    norm.running_var[...] = (0.2 + rng.random(channels)).astype(np.float32)
    norm.weight.data[...] = rng.standard_normal(channels).astype(np.float32)
    norm.bias.data[...] = rng.standard_normal(channels).astype(np.float32)
    return norm


class Generated(Module):
    """Interprets a drawn node list; every node owns the modules it needs."""

    def __init__(self, case):
        super().__init__()
        rng = np.random.default_rng(case["seed"])
        self.case = case
        channels = [case["in_shape"][0]]
        for index, (kind, sources, params) in enumerate(case["nodes"]):
            cin = channels[sources[0]]
            layers = []
            if kind in ("conv", "dense_conv"):
                layers.append(_pruned_conv(cin, params["cout"], params["k"], kind == "conv", rng))
                if params["bn"]:
                    layers.append(_batchnorm(params["cout"], rng))
                if params["act"]:
                    layers.append({"relu": ReLU, "silu": SiLU}[params["act"]]())
                cin = params["cout"]
            elif kind == "getitem":
                cin = params["hi"] - params["lo"]
            elif kind == "concat":
                layers.append(Concat(1))
                cin += channels[sources[1]]
            elif kind == "maxpool":
                k, s, p = params["geometry"]
                layers.append(MaxPool2d(k, s, p))
            else:
                if kind == "gate":              # x + its per-channel maximum, (n, c, 1, 1)
                    layers.append(MaxPool2d(case["shapes"][sources[0]][1]))
                make = {"add": Add, "gate": Add, "relu": ReLU, "sigmoid": Sigmoid, "gelu": GELU,
                        "upsample": lambda: Upsample(2), "bn": lambda: _batchnorm(cin, rng),
                        "scale": lambda: None}[kind]
                layers.append(make())
            for position, layer in enumerate(layers):
                if layer is not None:
                    setattr(self, f"n{index}_{position}", layer)
            channels.append(cin)
        self.tail = ReLU()

    def forward(self, x):
        tensors = [x]
        for index, (kind, sources, params) in enumerate(self.case["nodes"]):
            layers = [getattr(self, f"n{index}_{position}") for position in range(3)
                      if hasattr(self, f"n{index}_{position}")]
            value = tensors[sources[0]]
            if kind == "getitem":
                value = value[:, params["lo"]:params["hi"]]
            elif kind == "scale":
                value = value * 0.5
            elif kind == "gate":
                value = layers[1](value, layers[0](value))
            elif kind in ("add", "concat"):
                pair = [value, tensors[sources[1]]]
                value = layers[0](pair) if kind == "concat" else layers[0](*pair)
            else:
                for layer in layers:
                    value = layer(value)
            tensors.append(value)
        outputs = [tensors[index] for index in self.case["outputs"]]
        if self.case["flip"]:
            # rows swap places: not one independent row per image any more
            outputs[0] = self.tail(outputs[0][::-1])
        return tuple(outputs)


def _flat(value):
    flat = []
    map_structure(flat.append, value)
    return flat


def _assert_bits(got, want):
    for a, b in zip(_flat(got), _flat(want), strict=True):
        assert a.shape == b.shape and np.array_equal(a.view(np.uint32), b.view(np.uint32))


def _stack_of_singles(compiled, x):
    singles = [_flat(compiled.forward_raw(x[i:i + 1])) for i in range(x.shape[0])]
    return [np.concatenate(parts) for parts in zip(*singles)]


def check_case(case, expect_native):
    model = Generated(case)
    model.eval()
    rng = np.random.default_rng(case["seed"] + 1)
    frames = rng.standard_normal((max(8, *case["batches"]), *case["in_shape"])).astype(np.float32)
    compiled = compile_model(model)
    first = {}
    for size in case["batches"] * 2:
        x = frames[:size]
        out = compiled.forward_raw(x)
        assert compiled.engine_mode == "fused", compiled.fuse_failure
        oracle = BatchRunner(model, batch_size=size).run(x)
        for got, want in zip(_flat(out), _flat(oracle), strict=True):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= TOL * max(1.0, np.abs(want).max())
        if not case["flip"]:
            _assert_bits(out, _stack_of_singles(compiled, x))
        _assert_bits(out, first.setdefault(size, out))          # and again from the cached cut
    program = compiled._fused_program
    assert program.per_image != case["flip"]
    cuts = [bound for (key, _), bound in program._arena()._bindings.items() if key == "segments"]
    native = [segment for cut, _ in cuts for segment in cut if isinstance(segment, Segment)]
    assert bool(native) == (expect_native and any(op.natively() for op in program.steps))
    assert all(segment.per_image == program.per_image for segment in native)
    return compiled


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_segments_match_batch_one_forwards_and_the_dense_oracle(case):
    if sparse_kernel_available():
        check_case(case, expect_native=True)
    with portable():
        check_case(case, expect_native=False)


# --------------------------------------------------------------- deterministic
#: A tail that starts mid-segment: an 8x8 plane, pooled to 2x2, where a conv's
#: plane fits one vector; glue in the tail (add, relu, upsample to 4x4), a 1x1
#: conv on 4x4 (16 positions: one vector again), a concat with a head tensor and
#: a 3x3 conv on 4x4 (22 positions: once per image in the tail).  The outputs are
#: a head tensor, a tail tensor read again downstream and the last one.
TAIL_NODES = [
    ("conv", (0,), {"cout": 4, "k": 3, "bn": True, "act": "silu"}),     # 1: 8x8
    ("maxpool", (1,), {"geometry": (2, 2, 0)}),                         # 2: 4x4
    ("maxpool", (2,), {"geometry": (2, 2, 0)}),                         # 3: 2x2
    ("conv", (3,), {"cout": 12, "k": 3, "bn": False, "act": "relu"}),   # 4: tail
    ("conv", (4,), {"cout": 12, "k": 1, "bn": True, "act": None}),      # 5
    ("add", (4, 5), {}),                                                # 6
    ("relu", (6,), {}),                                                 # 7
    ("upsample", (7,), {}),                                             # 8: 4x4
    ("conv", (8,), {"cout": 4, "k": 1, "bn": False, "act": "silu"}),    # 9
    ("concat", (9, 2), {}),                                             # 10
    ("conv", (10,), {"cout": 3, "k": 3, "bn": True, "act": None}),      # 11
]
TAIL_SHAPES = [(3, 8, 8), (4, 8, 8), (4, 4, 4), (4, 2, 2), (12, 2, 2), (12, 2, 2), (12, 2, 2),
               (12, 2, 2), (12, 4, 4), (4, 4, 4), (8, 4, 4), (3, 4, 4)]


@pytest.mark.parametrize("seed, flip", [(0, False), (1, False), (2, True)])
def test_a_tail_that_starts_mid_segment_runs_groups_of_images(seed, flip):
    """From the first conv whose plane fits one vector on, a segment runs step
    by step over groups of eight images: batch == stacked batch-1 forwards bit
    for bit == dense oracle for full, partial and several groups — natively one
    segment, whose tail starts at that conv, and one call per forward.  With
    the batch reversed (rows not independent) the runs are whole-batch: such a
    conv then shares its lanes among the batch's images up to a group of 8."""
    case = {"nodes": TAIL_NODES, "in_shape": TAIL_SHAPES[0], "shapes": TAIL_SHAPES,
            "outputs": [11, 4, 1], "flip": flip, "batches": [1, 3, 8, 9, 17], "seed": seed}
    compiled = check_case(case, expect_native=True)
    if sparse_kernel_available() and not flip:
        program = compiled._fused_program
        names = [op.node.kind for op in program.steps]
        for (segment,) in _kept_cuts(compiled).values():             # one cut per batch size
            assert isinstance(segment, Segment) and segment.ops == program.steps
            assert segment.tail == names.index("conv", 1) == 3   # after conv, 2 max-pools
        (segment,) = _kept_cuts(compiled)[(17, *TAIL_SHAPES[0])]
        calls = []
        native = segment._call
        segment._call = lambda *args: calls.append(args[1]) or native(*args)
        compiled.forward_raw(np.zeros((17, *TAIL_SHAPES[0]), dtype=np.float32))
        assert calls == [17]
    with portable():
        check_case(case, expect_native=False)


def _pruned_tiny():
    model = TinyDetector(TinyDetectorConfig(num_classes=3, image_size=64, base_channels=8))
    report = prune_with_rtoss(
        model, entries=2, example_input=Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32)))
    return model, report


class _Gated(Module):
    """conv, global max-pool, ``y + its maxima`` — (n, c, h, w) + (n, c, 1, 1) —, conv:
    every step has a native body, but a broadcasting add's does not bind."""

    def __init__(self, rng):
        super().__init__()
        self.first, self.second = _pruned_conv(3, 4, 3, True, rng), _pruned_conv(4, 5, 3, True, rng)
        self.pool, self.add = MaxPool2d(8), Add()

    def forward(self, x):
        y = self.first(x)
        return self.second(self.add(y, self.pool(y)))


def test_a_native_body_that_does_not_bind_keeps_its_cut_under_the_full_shape(rng):
    """Every step looks native, but the broadcasting add does not bind: it is a
    Python step between two native runs.  Each batch size gets its own cut
    (the exports between the runs are sized by the batch), kept under the full
    input shape — and no batch ever runs through tables made for another."""
    model = _Gated(rng)
    model.eval()
    compiled = compile_model(model)
    frames = rng.standard_normal((8, 3, 8, 8)).astype(np.float32)
    program = compiled._float_program(frames[:2])
    outs = {size: compiled.forward_raw(frames[:size]) for size in (2, 8, 1, 3, 5, 8, 2)}
    assert program.per_image
    singles = _stack_of_singles(compiled, frames)
    for size, out in outs.items():
        assert out.shape[0] == size
        _assert_bits([out], [singles[0][:size]])
    oracle = BatchRunner(model, batch_size=8).run(frames)
    assert np.abs(outs[8] - oracle).max() <= TOL * max(1.0, np.abs(oracle).max())
    arena = program._arena()
    cuts = {shape: plan[0] for (key, shape), plan in arena._bindings.items() if key == "segments"}
    assert {shape[0] for shape, cut in cuts.items() if cut} == {1, 2, 3, 5, 8}
    if sparse_kernel_available():
        assert all(len(cut) == 3 and not isinstance(cut[1], Segment) for cut in cuts.values() if cut)
        # the last run writes the model output: an export ([:count] of it is copied
        # out once), not a result copied out in the call and sliced again
        assert all(cut[2].exports and not cut[2].results for cut in cuts.values() if cut)


@pytest.mark.skipif(not sparse_kernel_available(), reason="needs the native library")
def test_a_profiled_forward_is_the_same_call_with_stamps(rng):
    """Profiling adds no second execution path: same bits, every step reported
    once per forward, conv phases stamped by the library and summed over images."""
    model, report = _pruned_tiny()
    compiled = compile_model(model, report.masks)
    x = rng.standard_normal((4, 3, 64, 64)).astype(np.float32)
    plain = compiled.forward_raw(x)
    with compiled.profiled() as profiler:
        for _ in range(3):
            _assert_bits(compiled.forward_raw(x), plain)
    profile = profiler.report(digits=9)
    names = [op.profile_name() for op in compiled._fused_program.steps]     # the two adds share one
    assert profile["runs"] == 3
    assert {row["op"]: row["calls"] for row in profile["ops"]} == {
        name: 3 * names.count(name) for name in names}
    assert all(row["total_ms"] > 0 for row in profile["ops"])
    for row in profile["ops"]:
        if row["kind"] == "conv":
            phases = row["phases_ms"]
            assert set(phases) == {"gather", "gemm", "epilogue"} and phases["gemm"] > 0
            assert abs(sum(phases.values()) - row["total_ms"]) <= 1e-6
    assert profile["op_total_ms"] <= profile["total_ms"]
    _assert_bits(compiled.forward_raw(x), plain)


class _CountingLock:
    """A lock that counts how often it is taken."""

    def __init__(self):
        self._lock, self.taken = threading.Lock(), 0

    def __enter__(self):
        self.taken += 1
        return self._lock.__enter__()

    def __exit__(self, *exc):
        return self._lock.__exit__(*exc)


@pytest.mark.skipif(not sparse_kernel_available(), reason="needs the native library")
def test_a_profiled_segment_reports_every_step_under_one_profiler_lock(rng):
    """A segment hands its steps to the profiler in one ``record_ops`` call:
    the lock is taken once for the segment and once for the run, and the report
    is the per-step one — every step's name, kind, mode, calls and phase keys."""
    model, report = _pruned_tiny()
    compiled = compile_model(model, report.masks)
    x = rng.standard_normal((2, 3, 64, 64)).astype(np.float32)
    compiled.forward_raw(x)
    with compiled.profiled() as profiler:
        profiler._lock = lock = _CountingLock()
        for _ in range(3):
            compiled.forward_raw(x)
    assert lock.taken == 3 * 2
    steps = compiled._fused_program.steps
    want = {}
    for op in steps:
        row = want.setdefault(op.profile_name(), [op.node.kind, op.mode, 0, None])
        row[2] += 3
        row[3] = ["epilogue", "gather", "gemm"] if op.node.kind == "conv" else None
    got = {row["op"]: [row["kind"], row["mode"], row["calls"],
                       sorted(row["phases_ms"]) if "phases_ms" in row else None]
           for row in profiler.report()["ops"]}
    assert got == want


def _kept_cuts(compiled):
    """Input shape -> the cut this thread's arena keeps for it."""
    return {shape: plan[0] for (key, shape), plan
            in compiled._fused_program._arena()._bindings.items() if key == "segments"}


def _kept_cut(compiled):
    """The one cut this thread's arena keeps for the program."""
    (cut,) = _kept_cuts(compiled).values()
    return cut


def _cut(compiled):
    """:func:`_kept_cut`, a segment as its steps' modes, a Python step as its
    mode (glue: its kind)."""
    return [[op.mode or op.node.kind for op in step.ops] if isinstance(step, Segment)
            else step.mode or step.node.kind for step in _kept_cut(compiled)]


@pytest.mark.skipif(not sparse_kernel_available(), reason="needs the native library")
@pytest.mark.parametrize("name, size", [("yolov5n", 160), ("retinanet_lite", 64)])
def test_a_pruned_frame_with_a_dense_stem_is_one_native_call(name, size, rng, monkeypatch):
    """The frames workloads' 2EP programs: the dense stem runs the dense direct
    kernel, so one segment covers every step and a forward of any batch is one
    ``run_segment`` call — no GEMM, no ``bias_act_f32``."""
    model = build_model(name, num_classes=3)
    report = prune_with_rtoss(model, entries=2, example_input=(1, 3, size, size))
    compiled = compile_model(model, report.masks)
    frames = rng.standard_normal((8, 3, size, size)).astype(np.float32)
    first = compiled.forward_raw(frames[:1])
    compiled.forward_raw(frames)
    program, cuts = compiled._fused_program, _kept_cuts(compiled)
    assert len(cuts) == 2 and all(len(cut) == 1 and cut[0].ops == program.steps
                                  for cut in cuts.values())
    stems = [op for op in program.steps if "+dense-direct" in op.mode]
    assert len(stems) == 1 and max(stems[0].plan.kernel_size) > 3
    calls = []
    for (segment,) in cuts.values():
        native = segment._call
        segment._call = lambda *args, native=native: calls.append(args[1]) or native(*args)
    monkeypatch.setattr(load_sparse_kernel(), "bias_act", lambda *args: calls.append("gemm"))
    batch = compiled.forward_raw(frames)
    _assert_bits(compiled.forward_raw(frames[:1]), first)
    assert calls == [8, 1]
    _assert_bits(_flat(batch), _stack_of_singles(compiled, frames))


@pytest.mark.skipif(not sparse_kernel_available(), reason="needs the native library")
def test_a_profiled_batch_major_tail_stamps_every_step(rng):
    """``retinanet_lite``@64's tail starts at ``layer3.0.downsample`` (a 1x1 on a
    4x4 plane: 16 positions).  A profiled batch-8 forward is the same one call:
    every tail conv — those that take a group in one call (layer4, P6 / P7)
    among them — reports its staging / kernel phases, and the steps' stamps
    account for the forward's wall time."""
    model = build_model("retinanet_lite", num_classes=3)
    report = prune_with_rtoss(model, entries=2, example_input=(1, 3, 64, 64))
    compiled = compile_model(model, report.masks)
    frames = rng.standard_normal((8, 3, 64, 64)).astype(np.float32)
    plain = compiled.forward_raw(frames)
    (segment,) = _kept_cut(compiled)
    assert segment.ops[segment.tail].layer_name == "backbone.layer3.0.downsample.0"
    with compiled.profiled() as profiler:
        _assert_bits(_flat(compiled.forward_raw(frames)), _flat(plain))
    profile = profiler.report(digits=9)
    rows = {row["op"]: row for row in profile["ops"]}
    tail = {op.profile_name() for op in segment.ops[segment.tail:] if op.node.kind == "conv"}
    assert {"backbone.layer4.1.conv2", "fpn.p6", "fpn.p7"} <= tail
    for name in tail:
        phases = rows[name]["phases_ms"]
        assert set(phases) == {"gather", "gemm", "epilogue"} and phases["gemm"] > 0, name
        assert abs(sum(phases.values()) - rows[name]["total_ms"]) <= 1e-6
    assert 0.9 * profile["total_ms"] <= profile["op_total_ms"] <= profile["total_ms"]


@pytest.mark.skipif(not sparse_kernel_available(), reason="needs the native library")
def test_tiny_is_cut_as_before_the_stems_became_native():
    """``tiny`` has no conv larger than 3x3: its dense twin keeps every conv a
    Python step (gather + GEMM) between one-step glue segments, and its 2EP
    program stays one segment — the ``serve_*`` workloads run the same code."""
    im, pw, act = "sparse-im2col-gemm", "pointwise-gemm", "+bn+silu"
    dense = [im + act, im + act, pw + act, pw + act, im + act, ["ewise"], pw + act, ["concat"],
             pw + act, im + act, pw + act, pw + act, im + act, ["ewise"], pw + act, ["concat"],
             pw + act, pw + act, pw]
    x = np.zeros((2, 3, 64, 64), dtype=np.float32)
    model = TinyDetector(TinyDetectorConfig(num_classes=3, image_size=64, base_channels=8))
    compiled = compile_model(model)
    compiled.forward_raw(x)
    assert _cut(compiled) == dense
    model, report = _pruned_tiny()
    compiled = compile_model(model, report.masks)
    compiled.forward_raw(x)
    assert _cut(compiled) == [[step.replace("gemm", "gemm+direct") if isinstance(step, str)
                               else step[0] for step in dense]]
