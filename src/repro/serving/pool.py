"""Warmed deployable models, loaded once per path.

:class:`PooledModel` is one served model: a loaded
:class:`~repro.pipeline.artifact.DeployableArtifact` (or compiled model, or
plain module), warmed with one forward pass at construction so serving threads
never pay it, plus its batch entry point.  Every serving stack holds exactly
one; :class:`~repro.serving.service.InferenceService` builds it from the
artifact it was started with.

:class:`ModelPool` is the load-once cache in front of it: :meth:`ModelPool.get`
loads, recompiles and warms an artifact path on its first call and returns the
same entry on every later one.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.nn.module import Module
from repro.nn.tensor import Tensor, no_grad
from repro.pipeline.artifact import DeployableArtifact
from repro.utils.logging import get_logger

logger = get_logger("serving.pool")


def as_batch_callable(model: Any) -> Callable[[np.ndarray], Any]:
    """A ``stacked NCHW batch -> numpy outputs`` callable for any servable model.

    Accepts anything with ``forward_raw`` (:class:`DeployableArtifact`,
    :class:`repro.engine.compiler.CompiledModel`) or a plain
    :class:`~repro.nn.module.Module`, which is run dense under ``no_grad``.
    """
    forward_raw = getattr(model, "forward_raw", None)
    if callable(forward_raw):
        return forward_raw
    if isinstance(model, Module):
        from repro.engine.runner import _to_numpy

        def run(batch: np.ndarray):
            if model.training:
                model.eval()
            with no_grad():
                return _to_numpy(model(Tensor(batch)))

        return run
    raise TypeError(f"cannot serve a {type(model).__name__}; expected a "
                    "DeployableArtifact, CompiledModel, Module or artifact path")


class PooledModel:
    """One served model, warmed: a loaded artifact (or model) plus its batch entry point.

    ``model`` is an artifact ``.npz`` path (loaded here) or an object
    :func:`as_batch_callable` accepts.  Construction runs one throwaway
    forward pass, which settles everything the compiled engine mutates
    lazily — layer ``eval()`` flags, the engine's trace and the per-shape
    layout caches — and is what makes later *concurrent* inference safe (see
    the thread-safety contract on :class:`repro.engine.compiler.CompiledModel`).
    """

    def __init__(self, model: Any) -> None:
        if isinstance(model, str):
            logger.info("loading artifact %s", model)
            model = DeployableArtifact.load(model)
        self.model = model
        self.run = as_batch_callable(model)
        self.run(np.zeros((1, *self.default_image_shape()), dtype=np.float32))

    @property
    def engine_mode(self) -> str:
        """Executor this entry serves through: ``fused``/``eager``/``dense``."""
        compiled = self.compiled_model
        return compiled.engine_mode if compiled is not None else "dense"

    @property
    def compiled_model(self) -> Optional[Any]:
        """The :class:`~repro.engine.compiler.CompiledModel` behind this entry.

        ``None`` for plain-module entries; the batcher profiles traced batches
        through it.
        """
        from repro.engine.compiler import CompiledModel

        target = self.model
        compiled = getattr(target, "compiled", None)    # DeployableArtifact unwrap
        if compiled is not None:
            target = compiled
        return target if isinstance(target, CompiledModel) else None

    def default_image_shape(self) -> Tuple[int, int, int]:
        """Best-effort ``(C, H, W)`` warmup shape for the served model."""
        spec = getattr(self.model, "spec", None)
        if spec is not None:
            return tuple(spec.framework.example_shape()[1:])
        target = getattr(self.model, "model", self.model)   # CompiledModel unwrap
        config = getattr(target, "config", None)
        size = int(getattr(config, "image_size", 64) or 64)
        return (3, size, size)


class ModelPool:
    """Thread-safe load-once cache of :class:`PooledModel` entries by artifact path."""

    # reprolint lock-discipline contract: the entry map mutates only under the
    # pool lock.
    _guarded_by_ = {"_entries": "_lock"}

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[str, PooledModel] = {}

    def get(self, path: str) -> PooledModel:
        """The warmed model for ``path``, loaded on the first call only.

        The load runs under the lock, so concurrent first calls share it.
        """
        key = os.path.abspath(path)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entries[key] = PooledModel(path)
            return entry
