"""Graph tracer: record one symbolic forward pass as a flat op-plan list.

A model's own ``forward`` runs every operation — convolutions, BatchNorm,
activations, pooling, residual adds, concats — through the autograd
:class:`~repro.nn.tensor.Tensor` layer with a fresh allocation per op.  The
tracer removes that ceiling: it runs the model forward **once** on a real input
and records every operation into a flat :class:`GraphPlan` — a list of
:class:`OpNode` over integer value slots — that the fusion pass
(:mod:`repro.engine.fuse`) turns into an allocation-free fused executor.

How the recording works
-----------------------
* Every *leaf* module (Conv2d, BatchNorm2d, activations, pooling, ...) is
  wrapped for the duration of the trace; one call becomes one op node, keyed
  by the module's semantic kind (``conv`` / ``bn`` / ``act`` / ...).  Modules
  the executor has no raw kernel for become generic ``module`` nodes and are
  replayed through their own forward (correct, just not allocation-free).
* The small set of *glue* primitives models use between modules — tensor
  ``+ - * /``, slicing, :func:`repro.nn.functional.concat` — is patched for
  the duration of the trace so inline ops in non-module ``forward`` bodies
  (residual shortcuts, CSP concats, Focus slicing) are recorded too.
* Anything else fails the trace with :class:`TraceError`; the caller
  (:class:`~repro.engine.compiler.CompiledModel`) logs it once and keeps the
  model's dense no-grad forward, so an untraceable model is never wrong, only
  slower.

Tracing assumes a *static* graph: the recorded op list must be valid for any
input batch shape.  Models whose control flow depends on values cannot be
traced faithfully — none of the detectors in :mod:`repro.models` do that.

The trace itself is a compile-time, single-threaded affair (a process-wide
lock serializes tracers); patched primitives only record on the tracing
thread, so concurrent inference on other threads proceeds untouched.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.merge import Add, Concat
from repro.nn.layers.norm import BatchNorm2d
from repro.nn.layers.pooling import MaxPool2d
from repro.nn.layers.upsample import Upsample
from repro.nn.module import Identity, Module
from repro.nn.tensor import Tensor, no_grad


class TraceError(RuntimeError):
    """The model's forward contains an operation the tracer cannot record."""


@dataclass(frozen=True)
class Slot:
    """Placeholder for a traced tensor inside a structure template."""

    index: int


@dataclass
class OpNode:
    """One recorded operation over value slots.

    ``kind`` is the executor dispatch key: ``conv``, ``bn``, ``act``, ``add``,
    ``concat``, ``getitem``, ``ewise``, ``maxpool``, ``upsample``, ``module``.
    ``module`` nodes replay through the module object itself; all other kinds
    execute as raw numpy with arena-backed buffers (:mod:`repro.engine.fuse`).
    """

    index: int
    kind: str
    name: str
    inputs: Tuple[int, ...]
    outputs: Tuple[int, ...]
    module: Optional[Module] = None
    params: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:  # compact, for debugging traces
        return (f"OpNode({self.index}, {self.kind!r}, {self.name!r}, "
                f"in={list(self.inputs)}, out={list(self.outputs)})")


@dataclass
class GraphPlan:
    """A traced forward pass: flat op list + slot-structured output template."""

    ops: List[OpNode]
    input_slot: int
    output_template: Any
    num_slots: int
    #: Batch size of the traced example (used by the fusion pass to decide
    #: whether segments may provably run image by image).
    example_batch: int = 0

    def output_slots(self) -> List[int]:
        slots: List[int] = []
        _collect_slots(self.output_template, slots)
        return slots

    def __len__(self) -> int:
        return len(self.ops)


def _collect_slots(template: Any, out: List[int]) -> None:
    if isinstance(template, Slot):
        out.append(template.index)
    elif isinstance(template, (list, tuple)):
        for item in template:
            _collect_slots(item, out)
    elif isinstance(template, dict):
        for item in template.values():
            _collect_slots(item, out)


def build_template(value: Any, to_slot) -> Any:
    """Replace every Tensor in a nested structure with a :class:`Slot`."""
    if isinstance(value, Tensor):
        return Slot(to_slot(value))
    if isinstance(value, (list, tuple)):
        return type(value)(build_template(item, to_slot) for item in value)
    if isinstance(value, dict):
        return {key: build_template(item, to_slot) for key, item in value.items()}
    return value


def fill_template(template: Any, resolve) -> Any:
    """Inverse of :func:`build_template`: replace Slots via ``resolve(index)``."""
    if isinstance(template, Slot):
        return resolve(template.index)
    if isinstance(template, (list, tuple)):
        return type(template)(fill_template(item, resolve) for item in template)
    if isinstance(template, dict):
        return {key: fill_template(item, resolve) for key, item in template.items()}
    return template


# --------------------------------------------------------------------- tracer
#: Serializes traces process-wide (the glue patches are module/class-global).
_TRACE_LOCK = threading.Lock()


def _reinit_after_fork() -> None:
    """Fork-safety for the trace lock (engine/plan.py pattern).

    ``_TRACE_LOCK`` is held for the whole duration of a trace (scoped
    module/class patching), which is plenty of time for a cluster worker
    restart to fork underneath it; the child would then deadlock on its first
    ``trace_module`` (e.g. warming a freshly loaded artifact).  The child is
    single-threaded, so no trace is actually in progress there: re-arm the
    lock.  (A fork exactly mid-trace would also inherit the scoped patches;
    the serving cluster forks workers before serving traffic, and a child
    that does re-trace merely records through the patched glue again.)
    """
    global _TRACE_LOCK
    _TRACE_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):  # not on Windows ("spawn" children re-import)
    os.register_at_fork(after_in_child=_reinit_after_fork)


class _Tracer:
    def __init__(self) -> None:
        self.ops: List[OpNode] = []
        self.slots: Dict[int, int] = {}
        self.next_slot = 0
        self.thread_id = threading.get_ident()
        self.leaf_depth = 0
        # id() is only unique while the object lives — keep every traced tensor
        # alive so a recycled id can never alias two different values.
        self._keepalive: List[Tensor] = []

    # ------------------------------------------------------------ slot helpers
    def register(self, tensor: Tensor) -> int:
        existing = self.slots.get(id(tensor))
        if existing is not None:
            return existing
        slot = self.next_slot
        self.next_slot += 1
        self.slots[id(tensor)] = slot
        self._keepalive.append(tensor)
        return slot

    def lookup(self, tensor: Tensor, context: str) -> int:
        slot = self.slots.get(id(tensor))
        if slot is None:
            raise TraceError(
                f"{context}: consumes a tensor produced by an operation the "
                "tracer did not record")
        return slot

    def active_here(self) -> bool:
        return self.thread_id == threading.get_ident() and self.leaf_depth == 0

    # ------------------------------------------------------------ op recording
    def record(self, kind: str, name: str, inputs: Tuple[int, ...],
               output: Tensor, module: Optional[Module] = None,
               params: Optional[Dict[str, Any]] = None) -> None:
        self.ops.append(OpNode(
            index=len(self.ops), kind=kind, name=name, inputs=inputs,
            outputs=(self.register(output),), module=module,
            params=dict(params or {}),
        ))

    def record_leaf(self, name: str, module: Module, args, kwargs, output) -> None:
        tensors_in = list(_iter_tensors((args, kwargs)))
        input_slots = tuple(self.lookup(t, name or type(module).__name__)
                            for t in tensors_in)
        tensors_out = list(_iter_tensors(output))
        if not tensors_out:
            raise TraceError(f"{name}: module produced no tensors")
        if all(id(t) in self.slots for t in tensors_out):
            # Pass-through module (Identity, eval-mode Dropout): the outputs
            # are existing values — nothing to replay.
            return

        kind, params = _classify_leaf(module)
        expected_arity = _KIND_ARITY.get(kind)
        if expected_arity is not None:
            wanted_in, wanted_out = expected_arity
            if ((wanted_in is not None and len(tensors_in) != wanted_in)
                    or len(tensors_out) != wanted_out):
                # A specialised kind with an unexpected arity; replay generically.
                kind, params = "module", {}
        if kind == "module":
            params = {
                "args_template": build_template(
                    (args, kwargs), lambda t: self.lookup(t, name)),
                "out_template": build_template(output, self.register),
                # Traced output shapes: the fusion pass checks these to decide
                # whether the module preserved the batch axis.
                "out_shapes": tuple(tuple(t.shape) for t in tensors_out),
            }
        out_slots = tuple(self.register(t) for t in tensors_out)
        self.ops.append(OpNode(
            index=len(self.ops), kind=kind, name=name, inputs=input_slots,
            outputs=out_slots, module=module, params=params,
        ))


#: (inputs, outputs) each specialised kind must have; None input = any count.
_KIND_ARITY = {
    "conv": (1, 1), "bn": (1, 1), "act": (1, 1), "maxpool": (1, 1),
    "upsample": (1, 1), "add": (2, 1), "concat": (None, 1),
}


def _classify_leaf(module: Module) -> Tuple[str, Dict[str, Any]]:
    if isinstance(module, Conv2d):
        return "conv", {}
    if isinstance(module, BatchNorm2d):
        return "bn", {}
    act_tag = getattr(module, "act_tag", None)
    if act_tag is not None:
        return "act", {"act": act_tag,
                       "negative_slope": getattr(module, "negative_slope", None)}
    if isinstance(module, MaxPool2d):
        return "maxpool", {
            "kernel": F._pair(module.kernel_size),
            "stride": F._pair(module.stride),
            "padding": F._pair(module.padding),
        }
    if isinstance(module, Upsample):
        return "upsample", {"scale": int(module.scale_factor)}
    if isinstance(module, Concat):
        return "concat", {"axis": module.axis}
    if isinstance(module, Add):
        return "add", {}
    if isinstance(module, Identity):
        return "module", {}
    return "module", {}


def _iter_tensors(value):
    if isinstance(value, Tensor):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _iter_tensors(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _iter_tensors(item)


# ----------------------------------------------------------------- glue patches
def _record_binary(tracer: _Tracer, ufunc_name: str, left, right, result) -> None:
    """Record ``left <ufunc> right`` where either side may be a non-Tensor constant."""
    if isinstance(left, Tensor) and isinstance(right, Tensor):
        slots = (tracer.lookup(left, ufunc_name), tracer.lookup(right, ufunc_name))
        tracer.record("ewise", ufunc_name, slots, result,
                      params={"ufunc": ufunc_name})
        return
    tensor, const = (left, right) if isinstance(left, Tensor) else (right, left)
    const = np.asarray(const, dtype=np.float32).copy()
    tracer.record(
        "ewise", ufunc_name, (tracer.lookup(tensor, ufunc_name),), result,
        params={"ufunc": ufunc_name, "const": const,
                "const_first": not isinstance(left, Tensor)})


#: (method, ufunc, swapped): swapped=True means the math order is
#: ``other <op> self``.  The r-variants of sub/div delegate to the plain
#: variants internally — recording is suppressed during the original call
#: (see the leaf_depth bump in the wrapper), so each op records exactly once,
#: at the outermost patched frame, with the operands in math order.
_BINARY_PATCHES = (
    ("__add__", "add", False), ("__radd__", "add", True),
    ("__sub__", "subtract", False), ("__rsub__", "subtract", True),
    ("__mul__", "multiply", False), ("__rmul__", "multiply", True),
    ("__truediv__", "divide", False), ("__rtruediv__", "divide", True),
)


class _GluePatches:
    """Context manager installing the trace hooks on Tensor and F.concat."""

    def __init__(self, tracer: _Tracer) -> None:
        self.tracer = tracer
        self._saved: Dict[str, Any] = {}

    def __enter__(self) -> "_GluePatches":
        tracer = self.tracer

        def suppress():
            # Reuse the leaf-depth counter to keep nested patched calls (an
            # original that delegates to another patched method) from
            # double-recording; only the tracing thread ever bumps it here.
            class _Suppress:
                def __enter__(self_s):
                    if tracer.thread_id == threading.get_ident():
                        tracer.leaf_depth += 1
                    else:
                        self_s.bumped = False
                        return self_s
                    self_s.bumped = True
                    return self_s

                def __exit__(self_s, *exc):
                    if self_s.bumped:
                        tracer.leaf_depth -= 1

            return _Suppress()

        for method_name, ufunc_name, swapped in _BINARY_PATCHES:
            original = getattr(Tensor, method_name, None)
            if original is None:
                continue
            self._saved[method_name] = original

            def wrapper(self_t, other, _orig=original, _ufunc=ufunc_name,
                        _swapped=swapped):
                record = tracer.active_here()
                with suppress():
                    result = _orig(self_t, other)
                if record and isinstance(result, Tensor):
                    left, right = (other, self_t) if _swapped else (self_t, other)
                    _record_binary(tracer, _ufunc, left, right, result)
                return result

            setattr(Tensor, method_name, wrapper)

        original_neg = Tensor.__neg__
        self._saved["__neg__"] = original_neg

        def neg_wrapper(self_t, _orig=original_neg):
            record = tracer.active_here()
            with suppress():
                result = _orig(self_t)
            if record:
                tracer.record("ewise", "negative",
                              (tracer.lookup(self_t, "negative"),), result,
                              params={"ufunc": "negative"})
            return result

        Tensor.__neg__ = neg_wrapper

        original_getitem = Tensor.__getitem__
        self._saved["__getitem__"] = original_getitem

        def getitem_wrapper(self_t, index, _orig=original_getitem):
            record = tracer.active_here()
            with suppress():
                result = _orig(self_t, index)
            if record:
                parts = index if isinstance(index, tuple) else (index,)
                if any(isinstance(part, Tensor) for part in parts):
                    raise TraceError("tensor-valued indexing is not traceable")
                tracer.record("getitem", "getitem",
                              (tracer.lookup(self_t, "getitem"),), result,
                              params={"index": index})
            return result

        Tensor.__getitem__ = getitem_wrapper

        original_concat = F.concat
        self._saved["concat"] = original_concat

        def concat_wrapper(tensors, axis=1, _orig=original_concat):
            operands = list(tensors)  # materialize before the original consumes it
            record = tracer.active_here()
            with suppress():
                result = _orig(operands, axis=axis)
            if record:
                if not all(isinstance(t, Tensor) for t in operands):
                    raise TraceError("concat over non-Tensor operands")
                slots = tuple(tracer.lookup(t, "concat") for t in operands)
                tracer.record("concat", "concat", slots, result,
                              params={"axis": int(axis)})
            return result

        F.concat = concat_wrapper

        original_upsample = F.upsample_nearest2d
        self._saved["upsample_nearest2d"] = original_upsample

        def upsample_wrapper(x, scale_factor=2, _orig=original_upsample):
            record = tracer.active_here()
            with suppress():
                result = _orig(x, scale_factor=scale_factor)
            if record:
                tracer.record("upsample", "upsample_nearest2d",
                              (tracer.lookup(x, "upsample_nearest2d"),), result,
                              params={"scale": int(scale_factor)})
            return result

        F.upsample_nearest2d = upsample_wrapper

        original_sigmoid = F.sigmoid
        self._saved["sigmoid"] = original_sigmoid

        def sigmoid_wrapper(x, _orig=original_sigmoid):
            record = tracer.active_here()
            with suppress():
                result = _orig(x)
            if record:
                tracer.record("act", "sigmoid",
                              (tracer.lookup(x, "sigmoid"),), result,
                              params={"act": "sigmoid", "negative_slope": None})
            return result

        F.sigmoid = sigmoid_wrapper
        return self

    _F_PATCHES = {"concat": "concat", "upsample_nearest2d": "upsample_nearest2d",
                  "sigmoid": "sigmoid"}

    def __exit__(self, *exc) -> None:
        for method_name, original in self._saved.items():
            if method_name in self._F_PATCHES:
                setattr(F, self._F_PATCHES[method_name], original)
            else:
                setattr(Tensor, method_name, original)


class _LeafWrappers:
    """Wrap every leaf module's forward to mark leaf scope and record ops."""

    def __init__(self, tracer: _Tracer, model: Module) -> None:
        self.tracer = tracer
        self.model = model
        self._restore: List[Tuple[Module, bool, Any]] = []

    def __enter__(self) -> "_LeafWrappers":
        tracer = self.tracer
        for name, module in self.model.named_modules():
            if not name or next(module.children(), None) is not None:
                continue
            had_instance = "forward" in module.__dict__
            previous = module.__dict__.get("forward", None)
            inner = previous if previous is not None else module.forward

            def wrapper(*args, _inner=inner, _name=name, _module=module, **kwargs):
                if tracer.thread_id != threading.get_ident():
                    return _inner(*args, **kwargs)
                record_here = tracer.leaf_depth == 0
                tracer.leaf_depth += 1
                try:
                    output = _inner(*args, **kwargs)
                finally:
                    tracer.leaf_depth -= 1
                if record_here:
                    tracer.record_leaf(_name, _module, args, kwargs, output)
                return output

            module.forward = wrapper
            self._restore.append((module, had_instance, previous))
        return self

    def __exit__(self, *exc) -> None:
        for module, had_instance, previous in reversed(self._restore):
            if had_instance:
                module.forward = previous
            else:
                module.__dict__.pop("forward", None)


# ----------------------------------------------------------------------- trace
def trace_graph(model: Module, example: np.ndarray) -> GraphPlan:
    """Run ``model`` once on ``example`` and return the recorded op-plan list.

    The model is run in eval mode under ``no_grad``.  Raises
    :class:`TraceError` when any operation cannot be recorded — callers fall
    back to the model's own dense forward.
    """
    example = np.ascontiguousarray(example, dtype=np.float32)
    with _TRACE_LOCK:
        tracer = _Tracer()
        was_training = model.training
        try:
            model.eval()
            root = Tensor(example)
            input_slot = tracer.register(root)
            with no_grad(), _GluePatches(tracer), _LeafWrappers(tracer, model):
                output = model(root)
            template = build_template(
                output, lambda t: tracer.lookup(t, "model output"))
            if not tracer.ops:
                raise TraceError("forward pass recorded no operations")
            return GraphPlan(
                ops=tracer.ops,
                input_slot=input_slot,
                output_template=template,
                num_slots=tracer.next_slot,
                example_batch=int(example.shape[0]) if example.ndim else 0,
            )
        finally:
            model.train(was_training)
