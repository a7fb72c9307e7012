"""Pattern-aware sparse execution engine (measured, not modeled, speedups).

The pruning side of the repo decides *what* to prune (``repro.core``); this
package makes pruning pay off at inference time on the host CPU:

* :mod:`repro.engine.plan` — compile step: lower each pruned convolution to
  its masked weights in one form — CSR for a sparse layer, the full-width
  ``(O, I*kh*kw)`` matrix for a denser one — with the direct kernel's
  per-shape layouts cached per (layer, input shape),
* :mod:`repro.engine.compiler` — :func:`compile_model` builds the plans;
  :meth:`CompiledModel.forward_raw` is the one no-grad inference path (the
  model itself is never rewired, so training on it stays correct),
* :mod:`repro.engine.trace` — graph tracer: records one forward pass into a
  flat op-plan list (:class:`~repro.engine.trace.GraphPlan`),
* :mod:`repro.engine.fuse` — fusion pass + the executor: folds BatchNorm
  into the packed conv weights, fuses ReLU/LeakyReLU/SiLU into the GEMM
  epilogue and runs every op as raw numpy over workspace-arena buffers,
* :mod:`repro.engine.arena` — shape-keyed workspace arena: zero large-array
  allocations in steady-state inference,
* :mod:`repro.engine.runner` — :class:`BatchRunner`, the batched front door
  used by the evaluator and the CLI (fixed-size chunks, a short last one),
* :mod:`repro.engine.native` — optional AVX-512 C kernels (compiled on first
  use, silently absent on other hosts): the fp32 direct sparse-convolution
  kernel that skips pruned weights *inside* the kernel, which is what makes
  fused-pruned beat fused-dense, and the native glue ops between convs,
* :mod:`repro.engine.bench` — :func:`measure_speedup`, the wall-clock
  speedup from pruning (fused-dense twin vs fused-pruned engine, paired per
  round) with a built-in output-equivalence check.

There is one executor, fp32: quantization (:mod:`repro.compression.quantization`)
shrinks the stored artifact, it does not change how a forward runs
(docs/engine.md says why there is no integer executor).

A model the tracer cannot record (``detr`` / ``detr_lite`` in the registry)
runs its own dense forward under ``no_grad`` instead — exact, just not fused.

Quick use::

    from repro.engine import compile_model, measure_speedup

    report = RTOSSPruner(RTOSSConfig(entries=2)).prune(model, example)
    engine = compile_model(model, report.masks)
    outputs = engine(batch)                       # fused no-grad inference
    dense_engine = compile_model(unpruned_twin)   # same architecture, no masks
    m = measure_speedup(model, dense_engine, compiled=engine)
    print(m.pruning_speedup, m.max_abs_diff)
"""

from repro.engine.arena import WorkspaceArena
from repro.engine.bench import (
    EngineMeasurement,
    max_abs_output_diff,
    mean_abs_output_diff,
    measure_speedup,
)
from repro.engine.compiler import CompiledModel, compile_model
from repro.engine.fuse import FusedProgram, fuse_graph
from repro.engine.native import native_available, sparse_kernel_available
from repro.engine.plan import (
    ConvPlan,
    compile_conv_plan,
    layout_cache_stats,
    reset_layout_cache_stats,
)
from repro.engine.runner import BatchRunner, RunnerStats
from repro.engine.trace import GraphPlan, TraceError, trace_graph

__all__ = [
    "BatchRunner",
    "CompiledModel",
    "ConvPlan",
    "EngineMeasurement",
    "FusedProgram",
    "GraphPlan",
    "RunnerStats",
    "TraceError",
    "WorkspaceArena",
    "compile_conv_plan",
    "compile_model",
    "fuse_graph",
    "layout_cache_stats",
    "max_abs_output_diff",
    "mean_abs_output_diff",
    "measure_speedup",
    "native_available",
    "reset_layout_cache_stats",
    "sparse_kernel_available",
    "trace_graph",
]
