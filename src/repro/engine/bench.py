"""Measured (wall-clock) speedup from pruning on the shipped executor.

Everything in :mod:`repro.hardware` is an analytical *model* of latency on the
paper's platforms; this module is the complement — it actually runs the pruned
network on the host CPU and times it.  :func:`measure_speedup` times two arms
through the fused executor that
:meth:`~repro.engine.compiler.CompiledModel.forward_raw` (and therefore
serving) runs, both in the same rounds:

* ``fused_dense_seconds`` — the caller's *unpruned* twin of the model,
* ``compiled_seconds`` — the pruned engine,

and reports ``pruning_speedup`` = fused-dense / fused-pruned, the paper's own
claim stated on the shipped executor.  It also records the max absolute
difference between the engine output and one untimed no-grad forward of the
pruned model, so every reported speedup is tied to a verified-equivalent
computation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.masks import MaskSet
from repro.engine.compiler import CompiledModel, compile_model
from repro.engine.runner import _to_numpy
from repro.nn.module import Module
from repro.nn.tensor import Tensor, no_grad


def _paired_speedup(base: Callable[[], object], other: Callable[[], object],
                    rounds: int, warmup: int) -> Tuple[float, float, float]:
    """``(base seconds, other seconds, base/other)`` with both arms in every round.

    Each round times both callables back to back, alternating which goes
    first, so the two sides of the ratio see the same machine state; the ratio
    is the median of the per-round ratios (a host that slows down for a second
    moves both arms of a round, not the ratio), the seconds are medians.
    """
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
    """Outcome of one fused-dense vs fused-pruned wall-clock comparison."""

    model_name: str
    input_shape: Tuple[int, ...]
    repeats: int
    #: Median wall-clock of the *unpruned* twin and of the pruned engine, both
    #: through the fused executor, and ``fused-dense / fused-pruned`` paired
    #: per round — the speedup *from pruning*.
    fused_dense_seconds: float
    compiled_seconds: float
    pruning_speedup: float
    max_abs_diff: float
    compiled_layers: int = 0
    #: Executor ``compiled_seconds`` timed: ``"fused"``, or ``"eager"`` when
    #: the model is untraceable and its dense no-grad forward served.
    engine_mode: str = ""
    #: Layers per executed mode string, taken from the compiled summary (the
    #: fused op's own ``mode``, never a hardcoded label).
    mode_census: Dict[str, int] = field(default_factory=dict)

    def row(self) -> Dict[str, object]:
        """Flat dictionary for the table formatters (the Fig. 6 'measured' row)."""
        return {
            "model": self.model_name,
            "input": "x".join(str(dim) for dim in self.input_shape),
            "engine_mode": self.engine_mode,
            "fused_dense_ms": round(self.fused_dense_seconds * 1e3, 2),
            "compiled_ms": round(self.compiled_seconds * 1e3, 2),
            "pruning_speedup": round(self.pruning_speedup, 2),
            "max_abs_diff": float(self.max_abs_diff),
        }


def measure_speedup(
    model: Module,
    dense_engine: CompiledModel,
    x: Optional[np.ndarray] = None,
    masks: Optional[MaskSet] = None,
    repeats: int = 5,
    warmup: int = 1,
    model_name: str = "",
    image_size: int = 96,
    batch: int = 4,
    seed: int = 0,
    compiled: Optional[CompiledModel] = None,
) -> EngineMeasurement:
    """Measure the speedup from pruning on the host CPU.

    Parameters
    ----------
    model:
        The (already pruned, or about-to-be-masked via ``masks``) model.
    dense_engine:
        The compiled *unpruned* twin of ``model`` (same architecture, no
        masks): the base of ``pruning_speedup``.
    x:
        NCHW input batch; a deterministic random batch of shape
        ``(batch, 3, image_size, image_size)`` is generated when omitted.
    masks:
        Optional mask set re-applied before compiling (see
        :func:`repro.engine.compiler.compile_model`).
    repeats / warmup:
        Timing protocol: both arms run in every one of ``max(repeats, 3)``
        rounds, order alternating; the ratio is the median of the per-round
        ratios, the seconds are medians.
    compiled:
        An existing :class:`CompiledModel` of ``model`` to measure instead of
        compiling a fresh one (saves a full plan build).
    """
    if x is None:
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((batch, 3, image_size, image_size)).astype(np.float32)
    x = np.ascontiguousarray(x, dtype=np.float32)

    model.eval()
    if masks is not None:
        masks.apply(model)
    if compiled is None:
        compiled = compile_model(model, masks, apply_masks=False)
    elif compiled.model is not model:
        raise ValueError("`compiled` was built for a different model instance")

    # Equivalence oracle, untimed: the pruned model's own no-grad forward.
    with no_grad():
        dense_out = _to_numpy(model(Tensor(x)))
    max_abs_diff = max_abs_output_diff(compiled.forward_raw(x), dense_out)

    fused_dense_seconds, compiled_seconds, pruning_speedup = _paired_speedup(
        lambda: dense_engine.forward_raw(x), lambda: compiled.forward_raw(x),
        rounds=max(repeats, 3), warmup=max(warmup, 1))

    mode_census: Dict[str, int] = {}
    for layer_row in compiled.summary():
        mode = str(layer_row["mode"])
        mode_census[mode] = mode_census.get(mode, 0) + 1

    return EngineMeasurement(
        model_name=model_name or type(model).__name__,
        input_shape=tuple(x.shape),
        repeats=repeats,
        fused_dense_seconds=fused_dense_seconds,
        compiled_seconds=compiled_seconds,
        pruning_speedup=pruning_speedup,
        max_abs_diff=max_abs_diff,
        compiled_layers=compiled.num_compiled_layers,
        engine_mode=compiled.engine_mode,
        mode_census=mode_census,
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
