"""Model compiler: lower a pruned model to per-layer plans and one fused program.

:func:`compile_model` walks a model and lowers every eligible convolution into a
:class:`repro.engine.plan.ConvPlan`.  The first inference call traces the model
into a flat op plan (:mod:`repro.engine.trace`) and lowers it into a
:class:`repro.engine.fuse.FusedProgram` — BatchNorm folded into the packed conv
weights, activations fused into the GEMM epilogue (pruned layers as one native
direct sparse-convolution call where that kernel loaded), every intermediate
written into a shape-keyed workspace arena.  That program is *the* no-grad inference
path: :meth:`CompiledModel.forward_raw` (and everything that delegates to it —
``__call__``, :class:`repro.engine.runner.BatchRunner`, the serving layer).

The model itself is never modified: no layer ``forward`` is shadowed, so a
gradient-enabled call on the raw model is always the dense taped forward
(training / fine-tuning stay correct by construction), and that same dense
forward — under :class:`repro.nn.tensor.no_grad` — is the fallback for the
rare model whose traced op list the fusion pass cannot lower, and the oracle
every equivalence test compares against.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from typing import Dict, List, Optional

import numpy as np

from repro.core.masks import MaskSet
from repro.engine.arena import merge_stats
from repro.engine.plan import ConvPlan, compile_conv_plan
from repro.nn.layers.conv import Conv2d
from repro.nn.module import Module
from repro.nn.tensor import Tensor, no_grad
from repro.utils.logging import get_logger

logger = get_logger("engine.compiler")

#: Distinguishes concurrent engines in the obs registry's label sets.
_ENGINE_SERIAL = itertools.count(1)


class _ProfilerSlot(threading.local):
    """This thread's profiler while a ``CompiledModel.profiled()`` block is open."""

    profiler = None


class CompiledModel:
    """A model paired with its pattern-aware execution engine.

    Calling a ``CompiledModel`` runs a no-grad, eval-mode forward pass through
    the fused program: compiled convolutions execute their masked weight
    matrices, everything the model's own ``forward`` does between them
    (BatchNorm, activations, concats, residual adds, ...) runs as recorded raw
    ops, so arbitrary traceable architectures are supported.

    Use as::

        report = RTOSSPruner(config).prune(model, example)
        engine = compile_model(model, report.masks)
        out = engine(batch)            # no-grad fused inference
        loss = model(batch)            # the raw model stays the dense taped path

    The underlying model object is shared, not copied, and never rewired:
    weight updates between calls are picked up via :meth:`refresh`.

    Thread-safety contract (relied on by :mod:`repro.serving`): once the model
    is in eval mode, concurrent ``__call__`` / ``forward_raw`` /
    :class:`~repro.engine.runner.BatchRunner` use from multiple threads is safe
    — the first call traces under a lock, program execution only reads
    compiled state, and the per-shape layout caches take a per-plan lock on
    miss (:meth:`repro.engine.plan.ConvPlan.direct_layout_for`).
    :meth:`refresh` is single-writer: it re-packs plans and must not race
    concurrent inference.  Callers that serve a model warm it with one forward
    pass first (which settles ``eval()`` and the trace), then fan out; see
    :class:`repro.serving.pool.ModelPool`.
    """

    # reprolint lock-discipline contract: traced/lowered program state is
    # built lazily by whichever forward gets there first and mutates only
    # under the fuse lock.
    _guarded_by_ = {
        "_fused_program": "_fuse_lock",
        "_fuse_failed": "_fuse_lock",
    }

    def __init__(self, model: Module, plans: Dict[str, ConvPlan],
                 mask_signature: Optional[str] = None) -> None:
        self.model = model
        self.plans = plans
        self.mask_signature = mask_signature
        self._fused_program = None
        self._fuse_failed: Optional[str] = None
        self._fuse_lock = threading.Lock()
        self._tls = _ProfilerSlot()
        self._engine_label = f"{type(model).__name__}#{next(_ENGINE_SERIAL)}"
        # Publish arena/engine-mode counters into the process metrics registry
        # (weak collector: this engine's series vanish when it is collected).
        from repro.obs.registry import get_registry

        get_registry().register_collector(
            f"engine.{self._engine_label}", self.collect_metrics)

    # ------------------------------------------------------------------ lifecycle
    def attach(self) -> None:
        """No-op: the engine installs nothing on the model's layers.

        Kept (with :meth:`detach`) only because the frozen benchmark driver
        ``bench/frames.py`` brackets its dense oracle with ``detach()`` /
        ``attach()``; the raw model is always the dense path.
        """

    def detach(self) -> None:
        """No-op counterpart of :meth:`attach`."""

    def refresh(self) -> None:
        """Re-sync plans with the model's current weights and keep-masks.

        Every plan re-packs its values and structure
        (:meth:`ConvPlan.refresh_weights`), so changed weight values and a
        changed mask (e.g. after re-pruning) are both picked up.  The fused
        program holds what it executes — the weights it took from the plans,
        BN folded in — so it is dropped and lazily re-traced on the next
        forward.
        """
        with self._fuse_lock:
            self._fused_program = None
            self._fuse_failed = None
        modules = dict(self.model.named_modules())
        for name, plan in self.plans.items():
            plan.refresh_weights(modules[name])

    # ------------------------------------------------------------------ fusion
    def _float_program(self, data: np.ndarray):
        """The fused program, traced lazily on the first forward.

        Returns None when the fusion pass rejected the trace (logged once; the
        dense no-grad forward keeps serving).  Concurrent first calls serialize on
        the fuse lock so the model is traced exactly once.
        """
        program = self._fused_program
        if program is not None or self._fuse_failed is not None:
            return program
        from repro.engine.fuse import fuse_graph
        from repro.engine.trace import TraceError, trace_graph

        with self._fuse_lock:
            if self._fused_program is None and self._fuse_failed is None:
                try:
                    graph = trace_graph(self.model, data)
                    self._fused_program = fuse_graph(graph, self.plans)
                    logger.info(
                        "fused %s: %d traced ops -> %d fused steps",
                        type(self.model).__name__, len(graph), len(self._fused_program))
                except TraceError as error:
                    self._fuse_failed = str(error)
                    logger.info(
                        "%s does not fuse (dense no-grad forward kept): %s",
                        type(self.model).__name__, error)
            return self._fused_program

    @property
    def fused_active(self) -> bool:
        """True once a fused program has been traced and is in use."""
        return self._fused_program is not None

    @property
    def fuse_failure(self) -> Optional[str]:
        """Why tracing failed (None while fused or not yet attempted)."""
        return self._fuse_failed

    @property
    def engine_mode(self) -> str:
        """Which executor forwards run: ``fused`` or ``eager``.

        ``eager`` is the model's own dense no-grad forward: what an engine
        reports before its first trace, and what untraceable models keep.
        """
        return "fused" if self.fused_active else "eager"

    def arena_stats(self) -> Dict[str, int]:
        """Workspace-arena counters of the fused program (zeros before it exists)."""
        program = self._fused_program
        if program is None:
            return merge_stats(())
        return program.arena_stats()

    # ------------------------------------------------------------------ profiling
    @contextmanager
    def profiled(self):
        """Profile just this thread's forwards, yielding a fresh profiler.

        The :class:`repro.obs.EngineProfiler` is scoped to the calling thread
        (the fused program's thread-local slot), so concurrent batches on the
        same engine each get their own attribution.  Its
        :meth:`~repro.obs.EngineProfiler.report` is the per-op table: each op
        row carries calls/total/mean/share and, for compiled convs, the
        ``phases_ms`` gather/gemm/epilogue split.  The profiler binds to the
        fused program each forward in the block runs, so a block around the
        first forward (which traces) or around a :meth:`refresh` still counts
        every forward.  The dense forward of an untraceable model has no
        per-op attribution.
        """
        from repro.obs.profiler import EngineProfiler

        profiler = EngineProfiler()
        outer = self._tls.profiler
        self._tls.profiler = profiler
        try:
            yield profiler
        finally:
            self._tls.profiler = outer

    def collect_metrics(self):
        """Obs-registry collector: arena counters + engine mode gauge."""
        from repro.obs.registry import Sample

        labels = {"engine": self._engine_label}
        stats = self.arena_stats()
        samples = [
            Sample("repro_engine_arena_hits_total", labels, float(stats["hits"]),
                   "counter"),
            Sample("repro_engine_arena_misses_total", labels, float(stats["misses"]),
                   "counter"),
            Sample("repro_engine_arena_bytes", labels, float(stats["bytes_allocated"]),
                   "gauge"),
            Sample("repro_engine_arena_buffers", labels, float(stats["buffers"]),
                   "gauge"),
        ]
        mode_labels = dict(labels, mode=self.engine_mode)
        samples.append(Sample("repro_engine_mode", mode_labels, 1.0, "gauge"))
        return samples

    # ------------------------------------------------------------------ inference
    def __call__(self, x) -> Tensor:
        """:meth:`forward_raw` for Tensor (or array) input, outputs wrapped in Tensors."""
        data = x.data if isinstance(x, Tensor) else x
        return _wrap_tensors(self.forward_raw(data))

    def forward_raw(self, data: np.ndarray) -> np.ndarray:
        """Numpy-in / numpy-out, no-grad, eval-mode inference: the one engine path.

        Runs the fused program.  This is what :mod:`repro.serving` resolves
        models to: raw arrays in, raw arrays out, no Tensor wrapping.  A model
        the fusion pass cannot lower runs its own dense forward under
        ``no_grad`` instead (:attr:`fuse_failure` says why).
        """
        data = np.ascontiguousarray(data, dtype=np.float32)
        if self.model.training:
            self.model.eval()
        with no_grad():
            program = self._float_program(data)
            if program is not None:
                profiler = self._tls.profiler
                if profiler is None:
                    return program.run(data)
                with program.profiled(profiler):
                    return program.run(data)
            from repro.engine.runner import _to_numpy

            return _to_numpy(self.model(Tensor(data)))

    # ------------------------------------------------------------------ reporting
    def summary(self) -> List[Dict[str, object]]:
        """One row per compiled layer.

        The ``mode`` column always reports the mode string of what actually
        executes: once traced, a folded layer shows e.g.
        ``sparse-im2col-gemm+bn+silu`` instead of the bare plan label, and
        ``sparse-im2col-gemm+direct+bn+silu`` when the native direct sparse
        kernel runs it (:func:`repro.engine.native.sparse_kernel_available`),
        ``...+dense-direct+...`` for the dense direct kernel of a wide stem.
        """
        program = self._fused_program
        fused_modes = program.conv_modes() if program is not None else {}
        rows = []
        for name, plan in self.plans.items():
            row = plan.summary()
            if name in fused_modes:
                row["mode"] = fused_modes[name]
            rows.append(row)
        return rows

    @property
    def num_compiled_layers(self) -> int:
        return len(self.plans)

    def total_columns(self) -> int:
        """im2col columns (``I * kh * kw``) summed over the compiled layers.

        A statistic of the masks, kept (with :meth:`kept_columns`) only because
        the frozen benchmark driver ``bench/frames.py`` reports
        ``kept_columns() / total_columns()``; the engine executes every column.
        Read from the shapes the plans recorded.
        """
        return sum(plan.shape[1] for plan in self.plans.values())

    def kept_columns(self) -> int:
        """Columns with at least one nonzero weight, summed over the compiled
        layers (see :meth:`total_columns`); each plan counted them at packing."""
        return sum(plan.kept_columns for plan in self.plans.values())


def _wrap_tensors(value):
    """Wrap a (possibly nested) numpy output structure into Tensors."""
    from repro.engine.runner import map_structure  # deferred: runner imports us

    return map_structure(Tensor, value)


def compile_model(model: Module, masks: Optional[MaskSet] = None,
                  apply_masks: bool = True, int8: bool = False) -> CompiledModel:
    """Compile a (pruned) model for pattern-aware sparse inference.

    Parameters
    ----------
    model:
        Any :class:`repro.nn.module.Module`; its :class:`Conv2d` layers are
        lowered to plans, and the first forward traces everything around them
        into the fused program (BN folding, activation epilogues, workspace
        arena).  Untraceable models keep their own dense no-grad forward.
    masks:
        The pruning masks to compile against.  When given (and ``apply_masks``),
        they are (re)applied first so the layer weights and registered masks are
        guaranteed consistent; the mask-set signature is recorded for caching.
        ``None`` compiles whatever zero structure the weights already have — a
        dense model compiles too.
    apply_masks:
        Set to ``False`` if the masks were already applied and re-zeroing is
        undesirable.
    int8:
        Must be ``False``: int8 execution was removed (docs/engine.md, "No int8
        executor").  Kept, like :meth:`CompiledModel.attach`, only because the
        frozen benchmark code in ``bench/frames.py`` passes it.
    """
    if int8:
        raise ValueError("int8 execution was removed; the engine runs one fp32 program")
    mask_signature = None
    if masks is not None:
        if apply_masks:
            masks.apply(model)
        mask_signature = masks.signature()

    plans = {name: compile_conv_plan(module, name)
             for name, module in model.named_modules() if isinstance(module, Conv2d)}

    model.eval()
    compiled = CompiledModel(model, plans, mask_signature)
    logger.info("compiled %d conv layers", compiled.num_compiled_layers)
    return compiled
