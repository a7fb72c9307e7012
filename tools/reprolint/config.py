"""Project configuration for reprolint: what is guarded, what is hot.

Two registration mechanisms exist for each concept; both are honored:

* **in-source** -- a ``_guarded_by_`` class attribute (dict of attribute name
  -> lock attribute name, or tuple of acceptable lock names when a Condition
  aliases the lock), and ``# reprolint: hot`` / ``# reprolint: holds=<lock>``
  markers on ``def`` lines.  Preferred: the declaration lives next to the
  code it protects.
* **this table** -- for classes/functions whose source should stay untouched
  or that live outside the repo's control.

Lock-discipline merges both (in-source wins per attribute).  See
``docs/analysis.md`` for the registration walkthrough.
"""

from __future__ import annotations

from typing import Dict, Tuple

# Class name -> {attribute: (acceptable lock attribute names, ...)}.
# The in-source `_guarded_by_` convention covers the live classes; entries
# here back up classes we do not want to annotate (or third-party shims).
# Read-only config; reprolint lints itself.  # reprolint: disable=mutable-global
GUARDED_ATTRS: Dict[str, Dict[str, Tuple[str, ...]]] = {}

# Module-level guarded state: path suffix -> {global name: (module lock names)}.
# `with <lock>:` at module scope (or inside any function in that module)
# satisfies the rule for these names.
MODULE_GUARDED: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "repro/engine/plan.py": {"_GLOBAL_CACHE_STATS": ("_STATS_LOCK",)},
}

# Hot-path functions by qualname ("Class.method" or bare "function").  The
# `# reprolint: hot` def-line marker is the in-source equivalent.  Entries
# here cover the long tail of fused-executor internals so fuse.py is not
# wallpapered with markers.
HOT_FUNCTIONS = {
    # fused fp32 executor (engine/fuse.py)
    "FusedConv.execute",
    "FusedConv._gather_columns",
    "FusedConv._pointwise_input",
    "_activation_kernel",
    "_apply_activation_inplace",
    "ScaleShiftOp.execute",
    "_BoundOp.execute",
    "GetitemOp.execute",
    # ... and the per-(arena, input shapes) bodies the glue steps bind: the
    # portable numpy ones; a native one is a step of a Segment
    "ActOp._bind.<locals>.run",
    "EwiseOp._bind.<locals>.run",
    "ConcatOp._bind.<locals>.run",
    "MaxPoolOp._bind.<locals>.run",
    "UpsampleOp._bind.<locals>.run",
    # the segment loop and a native segment's call wrapper (engine/fuse.py,
    # engine/arena.py); FusedProgram._run and Segment.execute carry the
    # in-source marker as well
    "FusedProgram._run",
    "Segment.execute",
    "Segment._point",
    "WorkspaceArena.binding",
    # serving frame path (serving/cluster/channel.py, serving/gateway.py):
    # one copy per frame is the budget, and it is not made in these
    "encode_frame",
    "decode_frame",
    "frame_buffers",
    "send_buffers",
    "FrameSplitter.feed",
    "_Connection.buffer_updated",
    "_Connection._drain",
    "GatewayClient._reader_loop",
    # serving request path, per request and per micro-batch (serving/batcher.py,
    # serving/cluster/worker.py, serving/gateway.py): a burst travels as views
    # of the frame it arrived in; the one gather a mixed batch needs goes into
    # the batcher's staging buffer (DynamicBatcher._stack), and the one copy a
    # reply owes its caller is made by WorkerProcess._reply_outputs
    "DynamicBatcher.submit",
    "DynamicBatcher.submit_group",
    "DynamicBatcher._execute",
    "responder_loop",
    "WorkerProcess._handle",
    "GatewayServer._handle_infer",
    # metrics record path, per admission / micro-batch / reply frame
    # (serving/metrics.py, serving/cluster/metrics.py, obs/registry.py): a
    # settled run is one weighted call whatever its image count, and the only
    # storage that grows is the bounded reservoir behind Histogram
    "ServingMetrics.record_admission",
    "ServingMetrics.record_batch",
    "GatewayMetrics.record_completion",
    "ClusterMetrics.record_completion",
    "Histogram.observe",
    "Counter.inc",
}

# numpy module-level calls that allocate a fresh array.  A call carrying an
# `out=` keyword writes into caller-provided storage and is exempt;
# `np.array(..., copy=False)` is an aliasing view and is exempt too.
NP_ALLOCATORS = {
    "zeros",
    "ones",
    "empty",
    "full",
    "zeros_like",
    "ones_like",
    "empty_like",
    "full_like",
    "array",
    "asarray",
    "ascontiguousarray",
    "asfortranarray",
    "copy",
    "concatenate",
    "stack",
    "vstack",
    "hstack",
    "dstack",
    "pad",
    "tile",
    "repeat",
    "arange",
    "linspace",
    "einsum",
    "matmul",
    "dot",
    "where",
    "maximum",
    "minimum",
    "clip",
    "exp",
    "tanh",
}

# ndarray methods that allocate regardless of arguments...
NDARRAY_ALLOC_METHODS = {"copy", "flatten", "tolist"}
# ...and ones that only allocate without copy=False.
NDARRAY_COPY_KW_METHODS = {"astype"}

# Methods that mutate a container in place (lock-discipline treats
# `self.<guarded>.append(...)` like a store).
MUTATING_METHODS = {
    "append",
    "extend",
    "insert",
    "remove",
    "pop",
    "popleft",
    "appendleft",
    "clear",
    "add",
    "discard",
    "update",
    "setdefault",
    "sort",
    "reverse",
}
