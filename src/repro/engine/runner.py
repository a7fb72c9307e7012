"""Batched inference runner over the compiled execution engine.

:class:`BatchRunner` is the front door the evaluator, the CLI and the examples
use to push work through a :class:`repro.engine.compiler.CompiledModel`: it
splits an input stack into batches, runs each batch under ``no_grad`` and
re-assembles the outputs, collecting wall-clock statistics along the way.

It also accepts a plain :class:`repro.nn.module.Module`, in which case the same
batching/timing machinery drives the dense no-grad path — that is how the
engine benchmarks obtain an apples-to-apples dense baseline, and how tests
obtain their dense oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence, Union

import numpy as np

from repro.engine.compiler import CompiledModel
from repro.nn.module import Module
from repro.nn.tensor import Tensor, no_grad


@dataclass
class RunnerStats:
    """Wall-clock statistics of one :meth:`BatchRunner.run` call.

    The serving layer's :class:`repro.serving.batcher.DynamicBatcher` reuses
    this class to account for its executed micro-batches, so engine and service
    report throughput through the same numbers.
    """

    batches: int = 0
    images: int = 0
    seconds: float = 0.0

    @property
    def images_per_second(self) -> float:
        # A zero-duration (e.g. empty or unstarted) run has no meaningful
        # throughput; report 0.0 rather than a propagating float("inf").
        return self.images / self.seconds if self.seconds > 0 else 0.0

    def record(self, batch_images: int, elapsed_seconds: float) -> None:
        """Account one executed batch."""
        self.batches += 1
        self.images += int(batch_images)
        self.seconds += float(elapsed_seconds)

    def as_dict(self) -> dict:
        return {
            "batches": self.batches,
            "images": self.images,
            "seconds": round(self.seconds, 4),
            "images_per_second": round(self.images_per_second, 2),
        }


def _to_numpy(output) -> Union[np.ndarray, tuple, list, dict]:
    """Recursively unwrap Tensors so outputs can be concatenated/stored."""
    if isinstance(output, Tensor):
        return output.data
    if isinstance(output, (tuple, list)):
        return type(output)(_to_numpy(item) for item in output)
    if isinstance(output, dict):
        return {key: _to_numpy(value) for key, value in output.items()}
    return output


def _split_outputs(output, count: int) -> List:
    """Split one batched output into ``count`` single-image outputs.

    The structure-preserving inverse of :func:`_concat_outputs`: every array is
    sliced along the batch axis (keeping a batch dimension of 1), tuples/lists/
    dicts are split element-wise.  Used by the serving layer to hand each
    request of a micro-batch its own slice of the batched result.
    """
    if isinstance(output, np.ndarray):
        if output.shape[0] != count:
            raise ValueError(
                f"cannot split batch axis of length {output.shape[0]} into {count} requests")
        return [output[index:index + 1] for index in range(count)]
    if isinstance(output, (tuple, list)):
        parts = [_split_outputs(item, count) for item in output]
        return [type(output)(part[index] for part in parts) for index in range(count)]
    if isinstance(output, dict):
        parts = {key: _split_outputs(value, count) for key, value in output.items()}
        return [{key: parts[key][index] for key in output} for index in range(count)]
    raise TypeError(f"cannot split output of type {type(output).__name__}")


def map_structure(fn, value, strict: bool = False):
    """Apply ``fn`` to every array leaf of a nested output structure.

    Tuples/lists/dicts are rebuilt; non-array leaves pass through unchanged
    unless ``strict`` (then they raise, for callers that must touch every
    leaf).  This is the one traversal shared by the output helpers below and
    by :func:`repro.engine.compiler._wrap_tensors`.
    """
    if isinstance(value, np.ndarray):
        return fn(value)
    if isinstance(value, (tuple, list)):
        return type(value)(map_structure(fn, item, strict) for item in value)
    if isinstance(value, dict):
        return {key: map_structure(fn, item, strict) for key, item in value.items()}
    if strict:
        raise TypeError(f"cannot process output of type {type(value).__name__}")
    return value


def _copy_if_aliased(output, buffer: np.ndarray):
    """Copy any array in a nested output that shares memory with ``buffer``."""
    return map_structure(
        lambda array: array.copy() if np.shares_memory(array, buffer) else array,
        output)


def _concat_outputs(outputs: List):
    """Concatenate per-batch outputs along the batch axis, structure-preserving."""
    first = outputs[0]
    if isinstance(first, np.ndarray):
        return np.concatenate(outputs, axis=0)
    if isinstance(first, (tuple, list)):
        return type(first)(
            _concat_outputs([batch[index] for batch in outputs])
            for index in range(len(first))
        )
    if isinstance(first, dict):
        return {key: _concat_outputs([batch[key] for batch in outputs]) for key in first}
    return outputs


class BatchRunner:
    """Feed batches of inputs through a compiled (or plain) model.

    Parameters
    ----------
    model:
        A :class:`CompiledModel` (the intended use) or any plain module — plain
        modules are still run under ``no_grad`` in eval mode so the comparison
        against the engine only measures execution strategy, not tape overhead.
    batch_size:
        Inputs are chunked to at most this many images per forward pass.

    Example
    -------
    >>> engine = compile_model(model, report.masks)      # doctest: +SKIP
    >>> runner = BatchRunner(engine, batch_size=8)       # doctest: +SKIP
    >>> outputs = runner.run(images)                     # doctest: +SKIP
    >>> runner.last_stats.images_per_second              # doctest: +SKIP
    """

    def __init__(self, model: Union[CompiledModel, Module], batch_size: int = 8) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.model = model
        self.batch_size = int(batch_size)
        self.last_stats = RunnerStats()

    # ------------------------------------------------------------------ execution
    def _forward(self, batch: np.ndarray):
        if isinstance(self.model, CompiledModel):
            return self.model.forward_raw(batch)
        if self.model.training:
            self.model.eval()
        with no_grad():
            return _to_numpy(self.model(Tensor(batch)))

    def run(self, inputs: Union[np.ndarray, Tensor, Sequence[np.ndarray]]):
        """Run every input image and return the stacked outputs.

        ``inputs`` may be a stacked NCHW array/Tensor, run in chunks of at most
        ``batch_size`` images (the last one shorter, never padded), or a
        sequence of NCHW batches, each run as given; outputs are concatenated
        along the batch axis (tuples/dicts of tensors are concatenated
        element-wise).
        """
        if isinstance(inputs, Tensor):
            inputs = inputs.data
        if isinstance(inputs, np.ndarray):
            inputs = [inputs[offset:offset + self.batch_size]
                      for offset in range(0, inputs.shape[0], self.batch_size)]

        stats = RunnerStats()
        outputs = []
        for batch in inputs:
            batch = np.ascontiguousarray(batch, dtype=np.float32)
            start = time.perf_counter()
            outputs.append(self._forward(batch))
            stats.record(batch.shape[0], time.perf_counter() - start)
        self.last_stats = stats
        if not outputs:
            raise ValueError("BatchRunner.run received no input batches")
        return _concat_outputs(outputs)
