"""Measured (wall-clock) latency of the compiled engine vs the dense path.

Everything in :mod:`repro.hardware` is an analytical *model* of latency on the
paper's platforms; this module is the complement — it actually runs the pruned
network on the host CPU and times it.  :func:`measure_speedup` produces an
:class:`EngineMeasurement` with three numbers:

* ``dense_seconds`` — the repo's status-quo inference path (taped autograd
  im2col convolution), i.e. what every caller paid before the engine existed,
* ``dense_nograd_seconds`` — the same dense kernels under ``no_grad``; comparing
  against this isolates the execution-strategy win from the tape-overhead win,
* ``compiled_seconds`` — the engine, i.e. exactly what
  :meth:`~repro.engine.compiler.CompiledModel.forward_raw` (and therefore
  serving) runs: the fused fp32 program,

and — given an unpruned compiled twin — ``pruning_speedup``, the paper's own
claim stated on the shipped executor: fused-dense over fused-pruned, both arms
timed in the same rounds.  It also records the max absolute output difference
between the dense and the engine outputs, so every reported speedup is tied
to a verified-equivalent computation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.masks import MaskSet
from repro.engine.compiler import CompiledModel, compile_model
from repro.engine.runner import BatchRunner, _to_numpy
from repro.nn.module import Module
from repro.nn.tensor import Tensor


def time_callable(fn: Callable[[], object], repeats: int = 5, warmup: int = 1) -> float:
    """Median wall-clock seconds of ``fn()`` over ``repeats`` runs."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def paired_speedup(base: Callable[[], object], other: Callable[[], object],
                   rounds: int = 9, warmup: int = 1) -> Tuple[float, float, float]:
    """``(base seconds, other seconds, base/other)`` with both arms in every round.

    Each round times both callables back to back, alternating which goes
    first, so the two sides of the ratio see the same machine state; the ratio
    is the median of the per-round ratios (a host that slows down for a second
    moves both arms of a round, not the ratio), the seconds are medians.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    for _ in range(warmup):
        base()
        other()
    samples = {0: [], 1: []}
    arms = (base, other)
    for index in range(rounds):
        for arm in ((0, 1) if index % 2 == 0 else (1, 0)):
            start = time.perf_counter()
            arms[arm]()
            samples[arm].append(time.perf_counter() - start)
    ratios = [b / o for b, o in zip(samples[0], samples[1]) if o > 0.0]
    return (float(np.median(samples[0])), float(np.median(samples[1])),
            float(np.median(ratios)) if ratios else float("inf"))


@dataclass
class EngineMeasurement:
    """Outcome of one dense-vs-engine wall-clock comparison."""

    model_name: str
    input_shape: Tuple[int, ...]
    repeats: int
    dense_seconds: float
    dense_nograd_seconds: float
    compiled_seconds: float
    max_abs_diff: float
    compiled_layers: int = 0
    fallback_layers: int = 0
    #: Executor ``compiled_seconds`` timed: ``"fused"``, or ``"eager"`` when
    #: the model is untraceable and its dense no-grad forward served.
    engine_mode: str = ""
    #: Layers per executed mode string, taken from the compiled summary (the
    #: fused op's own ``mode``, never a hardcoded label).
    mode_census: Dict[str, int] = field(default_factory=dict)
    #: Wall-clock of the *unpruned* twin through the same fused executor, and
    #: ``fused-dense / fused-pruned`` paired per round — the speedup *from
    #: pruning* (0.0 unless ``measure_speedup(dense_engine=...)`` was given).
    fused_dense_seconds: float = 0.0
    pruning_speedup: float = 0.0

    @property
    def sparse_kernel(self) -> bool:
        """Whether any layer ran the native fp32 direct sparse kernel (gates
        only trust ``pruning_speedup > 1`` when it did)."""
        return any("+direct" in mode for mode in self.mode_census)

    @property
    def speedup(self) -> float:
        """Engine speedup over the status-quo (taped) dense path."""
        return self.dense_seconds / self.compiled_seconds if self.compiled_seconds else float("inf")

    @property
    def nograd_speedup(self) -> float:
        """Engine speedup over the no-grad dense path (execution strategy only)."""
        if not self.compiled_seconds:
            return float("inf")
        return self.dense_nograd_seconds / self.compiled_seconds

    def row(self) -> Dict[str, object]:
        """Flat dictionary for the table formatters (the Fig. 6 'measured' row)."""
        row = {
            "model": self.model_name,
            "input": "x".join(str(dim) for dim in self.input_shape),
            "engine_mode": self.engine_mode,
            "dense_ms": round(self.dense_seconds * 1e3, 2),
            "dense_nograd_ms": round(self.dense_nograd_seconds * 1e3, 2),
            "compiled_ms": round(self.compiled_seconds * 1e3, 2),
            "measured_speedup": round(self.speedup, 2),
            "measured_speedup_nograd": round(self.nograd_speedup, 2),
            "max_abs_diff": float(self.max_abs_diff),
        }
        if self.pruning_speedup:
            row["fused_dense_ms"] = round(self.fused_dense_seconds * 1e3, 2)
            row["pruning_speedup"] = round(self.pruning_speedup, 2)
        return row


def measure_speedup(
    model: Module,
    x: Optional[np.ndarray] = None,
    masks: Optional[MaskSet] = None,
    repeats: int = 5,
    warmup: int = 1,
    batch_size: Optional[int] = None,
    model_name: str = "",
    image_size: int = 96,
    batch: int = 4,
    seed: int = 0,
    compiled: Optional[CompiledModel] = None,
    dense_engine: Optional[CompiledModel] = None,
) -> EngineMeasurement:
    """Measure dense vs engine inference latency on the host CPU.

    Parameters
    ----------
    model:
        The (already pruned, or about-to-be-masked via ``masks``) model.
    x:
        NCHW input batch; a deterministic random batch of shape
        ``(batch, 3, image_size, image_size)`` is generated when omitted.
    masks:
        Optional mask set re-applied before compiling (see
        :func:`repro.engine.compiler.compile_model`).
    repeats / warmup:
        Timing protocol; the median of ``repeats`` runs is reported.
    batch_size:
        Runner batch size (defaults to the full input in one batch).
    compiled:
        An existing :class:`CompiledModel` of ``model`` to measure instead of
        compiling a fresh one (saves a full plan build).
    dense_engine:
        The compiled *unpruned* twin of ``model`` (same architecture and seed,
        no masks).  When given, ``pruning_speedup`` reports fused-dense over
        fused-pruned — the paper's claim on the shipped executor — with both
        arms timed in the same rounds (:func:`paired_speedup`).
    """
    if x is None:
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((batch, 3, image_size, image_size)).astype(np.float32)
    x = np.ascontiguousarray(x, dtype=np.float32)
    if batch_size is None:
        batch_size = x.shape[0]

    model.eval()
    if masks is not None:
        masks.apply(model)

    # Status-quo dense path: taped autograd forward, exactly what callers ran
    # before the engine existed.
    dense_out = _to_numpy(model(Tensor(x)))
    dense_seconds = time_callable(lambda: model(Tensor(x)), repeats, warmup)

    # Dense kernels without tape construction (isolates the strategy win).
    dense_runner = BatchRunner(model, batch_size=batch_size)
    dense_nograd_seconds = time_callable(lambda: dense_runner.run(x), repeats, warmup)

    if compiled is None:
        compiled = compile_model(model, masks, apply_masks=False)
    elif compiled.model is not model:
        raise ValueError("`compiled` was built for a different model instance")
    runner = BatchRunner(compiled, batch_size=batch_size)
    compiled_out = runner.run(x)  # traces + warms the arena
    max_abs_diff = max_abs_output_diff(compiled_out, dense_out)
    engine_mode = compiled.engine_mode
    compiled_seconds = time_callable(lambda: runner.run(x), repeats, warmup)

    fused_dense_seconds = pruning_speedup = 0.0
    if dense_engine is not None:
        twin_runner = BatchRunner(dense_engine, batch_size=batch_size)
        fused_dense_seconds, _, pruning_speedup = paired_speedup(
            lambda: twin_runner.run(x), lambda: runner.run(x),
            rounds=max(repeats, 3), warmup=max(warmup, 1))

    mode_census: Dict[str, int] = {}
    for layer_row in compiled.summary():
        mode = str(layer_row["mode"])
        mode_census[mode] = mode_census.get(mode, 0) + 1

    return EngineMeasurement(
        model_name=model_name or type(model).__name__,
        input_shape=tuple(x.shape),
        repeats=repeats,
        dense_seconds=dense_seconds,
        dense_nograd_seconds=dense_nograd_seconds,
        compiled_seconds=compiled_seconds,
        max_abs_diff=max_abs_diff,
        compiled_layers=compiled.num_compiled_layers,
        fallback_layers=len(compiled.fallback_layers),
        engine_mode=engine_mode,
        mode_census=mode_census,
        fused_dense_seconds=fused_dense_seconds,
        pruning_speedup=pruning_speedup,
    )


def max_abs_output_diff(compiled_out, dense_out) -> float:
    """Max absolute difference over matching (possibly nested) outputs.

    Handles single arrays, tuples/lists (multi-scale detector heads) and dicts;
    mismatched structures yield NaN.  Used by the benchmark's equivalence check
    and by the pipeline's artifact reload verification.
    """
    if isinstance(dense_out, np.ndarray):
        if not isinstance(compiled_out, np.ndarray) or compiled_out.shape != dense_out.shape:
            return float("nan")
        if dense_out.size == 0:
            return 0.0
        return float(np.abs(compiled_out - dense_out).max())
    if isinstance(dense_out, (tuple, list)):
        if not isinstance(compiled_out, (tuple, list)) or len(compiled_out) != len(dense_out):
            return float("nan")
        diffs = [max_abs_output_diff(c, d) for c, d in zip(compiled_out, dense_out)]
        return max(diffs) if diffs else 0.0
    if isinstance(dense_out, dict):
        if not isinstance(compiled_out, dict) or set(compiled_out) != set(dense_out):
            return float("nan")
        diffs = [max_abs_output_diff(compiled_out[key], dense_out[key]) for key in dense_out]
        return max(diffs) if diffs else 0.0
    return float("nan")


def mean_abs_output_diff(candidate_out, reference_out) -> float:
    """Mean absolute difference over every element of matching outputs.

    The companion of :func:`max_abs_output_diff` for error *budgets*, where a
    mean is the right aggregate (a max is dominated by the single worst
    element).  Structure handling matches :func:`max_abs_output_diff`; the
    mean weights every element equally across the (possibly nested) outputs.
    """
    total, count = _abs_diff_sums(candidate_out, reference_out)
    if count == 0:
        return 0.0
    if not np.isfinite(total):
        return float("nan")
    return float(total / count)


def _abs_diff_sums(candidate, reference) -> Tuple[float, int]:
    if isinstance(reference, np.ndarray):
        if not isinstance(candidate, np.ndarray) or candidate.shape != reference.shape:
            return float("nan"), 1
        if reference.size == 0:
            return 0.0, 0
        diff = np.abs(np.asarray(candidate, dtype=np.float64)
                      - np.asarray(reference, dtype=np.float64))
        return float(diff.sum()), int(diff.size)
    if isinstance(reference, (tuple, list)):
        if not isinstance(candidate, (tuple, list)) or len(candidate) != len(reference):
            return float("nan"), 1
        pairs = [_abs_diff_sums(c, r) for c, r in zip(candidate, reference)]
        return sum(p[0] for p in pairs), sum(p[1] for p in pairs)
    if isinstance(reference, dict):
        if not isinstance(candidate, dict) or set(candidate) != set(reference):
            return float("nan"), 1
        pairs = [_abs_diff_sums(candidate[key], reference[key]) for key in reference]
        return sum(p[0] for p in pairs), sum(p[1] for p in pairs)
    return float("nan"), 1
