"""The serving front door: one model + its batcher + optional detection postprocessing.

:class:`InferenceService` is what a deployment embeds: it serves exactly the
artifact it was started with — one warmed
:class:`~repro.serving.pool.PooledModel` behind one
:class:`~repro.serving.batcher.DynamicBatcher` — and exposes

* :meth:`~InferenceService.submit` — admit one image, get an
  :class:`~repro.serving.batcher.InferenceFuture` (raises
  :class:`~repro.serving.batcher.QueueFullError` under overload),
* :meth:`~InferenceService.submit_group` — admit a burst of images as one
  unit (one future over all of them); ``submit`` is its N = 1 case,
* :meth:`~InferenceService.submit_many` — blocking convenience for a stack of
  images (a blocking group submit, then one wait); returns outputs
  concatenated in request order, so it is directly comparable against a
  sequential :class:`~repro.engine.runner.BatchRunner` run,
* :meth:`~InferenceService.shutdown` — graceful drain (no admitted request is
  dropped), also entered via the context-manager protocol.

Postprocessing (YOLO head decoding + NMS via :mod:`repro.detection`) plugs in
as a per-image callable so detection services return
:class:`~repro.detection.metrics.Detection` lists instead of raw head tensors;
:func:`make_yolo_postprocess` builds one for single-scale YOLO-style models
(e.g. the TinyDetector every benchmark serves).
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional, Sequence, Union

import numpy as np

from repro.engine.compiler import CompiledModel
from repro.nn.module import Module
from repro.obs.tracing import TraceContext, mint_traces
from repro.pipeline.artifact import DeployableArtifact
from repro.serving.api import DEFAULT_PRIORITY
from repro.serving.batcher import (
    BatchPolicy,
    DynamicBatcher,
    Images,
    InferenceFuture,
    one_image,
    collect,
)
from repro.serving.metrics import ServingMetrics
from repro.serving.pool import PooledModel


def make_yolo_postprocess(model: Module, conf_threshold: float = 0.25,
                          iou_threshold: float = 0.45, max_detections: int = 300):
    """Per-image postprocess callable for single-scale YOLO-style models.

    The model must expose ``anchors`` and a config with ``image_size`` and
    ``num_classes`` (the :class:`~repro.models.tiny.TinyDetector` contract).
    The returned callable takes one raw head output of batch size 1 and returns
    the image's list of :class:`~repro.detection.metrics.Detection`.
    """
    from repro.detection.postprocess import decode_yolo_single_scale

    anchors = np.asarray(model.anchors, dtype=np.float32)
    image_size = int(model.config.image_size)
    num_classes = int(model.config.num_classes)

    def postprocess(raw: np.ndarray):
        detections = decode_yolo_single_scale(
            raw, anchors, image_size, num_classes,
            conf_threshold=conf_threshold, iou_threshold=iou_threshold,
            max_detections=max_detections,
        )
        return detections[0]

    return postprocess


class InferenceService:
    """High-throughput inference over one deployable artifact.

    Parameters
    ----------
    model:
        What to serve: an artifact ``.npz`` path, a loaded
        :class:`DeployableArtifact`, a :class:`CompiledModel` or a plain
        :class:`Module`.  It is loaded (a path) and warmed before the service
        accepts traffic, and served until :meth:`shutdown`.
    policy:
        Micro-batching :class:`BatchPolicy` (batch size / queue bound).
    postprocess:
        Optional per-image callable applied to each request's output (see
        :func:`make_yolo_postprocess`).
    name:
        The ``service=`` label of the metrics, and the served model's name in
        :meth:`report` (a path is named there by its file name instead).
    """

    def __init__(
        self,
        model: Union[str, DeployableArtifact, CompiledModel, Module],
        policy: Optional[BatchPolicy] = None,
        postprocess=None,
        metrics: Optional[ServingMetrics] = None,
        name: str = "default",
    ) -> None:
        self.policy = policy or BatchPolicy()
        self.metrics = metrics or ServingMetrics(name=name)
        model_name = os.path.basename(model) if isinstance(model, str) else name
        self.model = PooledModel(model)
        self._batcher = DynamicBatcher(
            self.model.run, policy=self.policy, metrics=self.metrics,
            postprocess=postprocess, name=model_name, engine=self.model.compiled_model)

    # ------------------------------------------------------------------ serving
    def submit(self, image: np.ndarray, block: bool = False,
               timeout: Optional[float] = None,
               trace: Optional[TraceContext] = None,
               priority: str = DEFAULT_PRIORITY,
               deadline_ms: Optional[float] = None) -> InferenceFuture:
        """Admit one ``(C, H, W)`` image; returns its future.

        Non-blocking by default: raises
        :class:`~repro.serving.errors.QueueFullError` when the bounded queue
        is at capacity (admission control), so overload is visible to callers
        instead of silently growing latency.  A group of one through
        :meth:`submit_group`, which documents the rest.
        """
        return self.submit_group(
            one_image(image), block=block, timeout=timeout,
            traces=None if trace is None else (trace,),
            priority=priority, deadline_ms=deadline_ms)

    def submit_group(self, images: Images, block: bool = False,
                     timeout: Optional[float] = None,
                     traces: Optional[Sequence[TraceContext]] = None,
                     priority: str = DEFAULT_PRIORITY,
                     deadline_ms: Optional[float] = None) -> InferenceFuture:
        """Admit a burst — an ``(N, C, H, W)`` stack or N images — as one unit.

        Returns one future over the N requests; it settles micro-batch by
        micro-batch (:meth:`~repro.serving.batcher.InferenceFuture.add_run_callback`)
        and resolves to the outputs concatenated in request order.  Queue
        space is counted per image: what does not fit is refused with
        :class:`~repro.serving.errors.QueueFullError` (``block=True``: waits
        for space instead), and only a burst of which nothing was admitted
        raises here — see :meth:`DynamicBatcher.submit_group`.

        ``priority`` (a :data:`repro.serving.api.PRIORITY_CLASSES` name) and
        ``deadline_ms`` feed the batcher's SLO-aware scheduler and are shared
        by the burst: higher classes batch first, infeasible deadlines are
        rejected at admission with
        :class:`~repro.serving.errors.DeadlineExceededError`, and a request
        whose deadline expires while queued is dropped — never executed.

        When tracing is on (:func:`repro.obs.set_tracing` or ``REPRO_TRACE=1``)
        each request is minted a :class:`~repro.obs.tracing.TraceContext` that
        follows it through queue, batch and engine; cluster workers and the
        gateway pass the rehydrated parent ``traces`` in instead, so one
        ``trace_id`` spans the whole hop.
        """
        if traces is None:
            traces = mint_traces(len(images))     # None unless tracing is enabled
        return self._batcher.submit_group(
            images, block=block, timeout=timeout, traces=traces,
            priority=priority, deadline_ms=deadline_ms)

    def submit_many(self, images: Union[np.ndarray, Sequence[np.ndarray]],
                    timeout: Optional[float] = None) -> Any:
        """Submit a stack of images with backpressure and wait for all results.

        One blocking :meth:`submit_group` and one wait.  Outputs come back
        concatenated along the batch axis **in request order** (independent of
        micro-batch composition), so ``service.submit_many(x)`` is directly
        comparable to ``BatchRunner(compiled).run(x)``.  With a ``postprocess``
        installed the return value is the list of per-image postprocessed
        results instead.
        """
        future = self.submit_group(images, block=True, timeout=timeout)
        return collect((future,), timeout)

    # ------------------------------------------------------------------ lifecycle
    def shutdown(self, timeout: Optional[float] = None) -> None:
        """Drain the batcher and stop admissions (idempotent)."""
        self._batcher.shutdown(timeout)

    def __enter__(self) -> "InferenceService":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    @property
    def closed(self) -> bool:
        return self._batcher.closed

    # ------------------------------------------------------------------ reporting
    def report(self) -> Dict[str, Any]:
        """Serving metrics + the executor mode + the effective batch policy."""
        name = self._batcher.name
        report = dict(self.metrics.report())
        # Executor mode (fused/eager/dense).  Cluster workers relay this
        # report, so `repro serve --workers N` shows which path each process
        # actually serves through.
        report["engine_modes"] = {name: self.model.engine_mode}
        report["policy"] = {
            "max_batch_size": self.policy.max_batch_size,
            "queue_capacity": self.policy.queue_capacity,
        }
        report["engine"] = {name: self._batcher.stats.as_dict()}
        return report

    def stats(self) -> Dict[str, Any]:
        """:class:`~repro.serving.api.InferenceTarget` alias of :meth:`report`."""
        return self.report()
