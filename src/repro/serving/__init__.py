"""High-throughput inference serving over deployable artifacts.

The rest of the repo produces a fast pruned model
(:class:`~repro.pipeline.artifact.DeployableArtifact` + the compiled engine);
this package keeps it resident and pushes concurrent request streams through
it — every serving stack serves exactly the one artifact it was started with
— — the layer that turns measured *kernel* speedups into measured
*end-to-end* throughput under a latency budget, which is the R-TOSS paper's
real-time claim:

* :mod:`repro.serving.pool` — :class:`PooledModel`, one loaded, warmed,
  compiled model, and :class:`ModelPool`, which loads each artifact path once,
* :mod:`repro.serving.batcher` — :class:`DynamicBatcher`, a thread-safe queue
  that coalesces requests — single images, or bursts admitted as one unit —
  into micro-batches of up to ``max_batch_size`` — an idle worker runs what
  is queued at once — with bounded-queue admission control, and
  :class:`InferenceFuture`, the handle to one request or to a burst of them,
* :mod:`repro.serving.service` — :class:`InferenceService`, the front door:
  ``submit()`` / ``submit_group()`` / ``submit_many()`` / graceful
  ``shutdown()``, with optional detection postprocessing
  (:func:`make_yolo_postprocess`),
* :mod:`repro.serving.metrics` — :class:`ServingMetrics`, p50/p95/p99 latency,
  throughput, queue depth and batch-size distribution as plain dicts,
* :mod:`repro.serving.api` — the formal :class:`InferenceTarget` protocol
  (``submit`` / ``submit_group`` / ``submit_many`` / ``shutdown`` / ``stats``)
  and the priority classes every implementation schedules by,
* :mod:`repro.serving.errors` — the unified exception hierarchy with stable
  wire codes (:class:`QueueFullError`, :class:`DeadlineExceededError`, ...),
* :mod:`repro.serving.loadgen` — closed-loop, Poisson open-loop and
  mixed-priority synthetic load generators (they target any
  :class:`InferenceTarget`: a service, a cluster, or a gateway client),
* :mod:`repro.serving.cluster` — the multi-process cluster: worker processes
  each hosting a full service behind a pickle-free ndarray pipe, a
  :class:`Router` with pluggable policies, heartbeat-supervised restart with
  in-flight re-dispatch, and :class:`ClusterMetrics`,
* :mod:`repro.serving.gateway` — the network front door: a
  :class:`GatewayServer` speaking length-prefixed array frames over TCP with
  per-client admission control, priority classes and deadline propagation,
  and the matching wire-level :class:`GatewayClient` with bounded
  auto-reconnect,
* :mod:`repro.serving.assembly` — :func:`build_target`, the one factory from
  a :class:`~repro.pipeline.spec.ServeSpec` tree to a running stack
  (policy, service or router, gateway + client) behind one
  :class:`ServingStack` handle that tears it all down in order,
* :mod:`repro.serving.chaos` — :class:`FaultInjector`, seeded deterministic
  fault injection (worker crashes, hangs, heartbeat loss, torn frames,
  response latency) plus :func:`run_chaos_drill`, the scripted
  kill-it-under-load resilience drill behind ``repro chaos``.

Quick use::

    from repro.serving import BatchPolicy, InferenceService

    with InferenceService("artifacts/tiny.npz",
                          policy=BatchPolicy(max_batch_size=8)) as service:
        future = service.submit(image)           # (C, H, W) -> InferenceFuture
        output = future.result()
        print(service.report()["latency"])       # p50/p95/p99 ...

or the whole stack an artifact's spec describes — in-process service or
worker fleet, TCP gateway — from that spec alone::

    from repro.pipeline import DeployableArtifact
    from repro.serving import build_target

    artifact = DeployableArtifact.load("artifacts/tiny.npz")
    with build_target(artifact, artifact.spec.serve) as stack:
        outputs = stack.target.submit_many(images)

or from the command line::

    python -m repro.cli serve --artifact artifacts/tiny.npz \\
        --requests 64 --concurrency 8
"""

from repro.serving.api import (
    DEFAULT_PRIORITY,
    PRIORITY_CLASSES,
    InferenceTarget,
    priority_index,
    priority_name,
)
from repro.serving.assembly import ServingStack, build_target
from repro.serving.batcher import (
    BatchPolicy,
    DynamicBatcher,
    InferenceFuture,
    QueueFullError,
    ServiceClosedError,
)
from repro.serving.chaos import ChaosDrillReport, FaultInjector, run_chaos_drill
from repro.serving.cluster import (
    ArtifactSwapError,
    ClusterMetrics,
    RemoteInferenceError,
    Router,
    WorkerProcess,
    WorkerUnavailableError,
    available_routing_policies,
)
from repro.serving.errors import (
    AdmissionRejectedError,
    BadRequestError,
    DeadlineExceededError,
    GatewayDisconnectedError,
    ServingError,
)
from repro.serving.gateway import GatewayClient, GatewayServer
from repro.serving.loadgen import (
    ClassLoad,
    ClassReport,
    LoadReport,
    closed_loop,
    mixed_priority_load,
    open_loop,
    poisson_gaps,
)
from repro.serving.metrics import GatewayMetrics, ServingMetrics
from repro.serving.pool import ModelPool, PooledModel, as_batch_callable
from repro.serving.service import InferenceService, make_yolo_postprocess

__all__ = [
    "DEFAULT_PRIORITY",
    "PRIORITY_CLASSES",
    "AdmissionRejectedError",
    "ArtifactSwapError",
    "BadRequestError",
    "BatchPolicy",
    "ChaosDrillReport",
    "ClassLoad",
    "ClassReport",
    "ClusterMetrics",
    "DeadlineExceededError",
    "DynamicBatcher",
    "FaultInjector",
    "GatewayClient",
    "GatewayDisconnectedError",
    "GatewayMetrics",
    "GatewayServer",
    "InferenceFuture",
    "InferenceService",
    "InferenceTarget",
    "LoadReport",
    "ModelPool",
    "PooledModel",
    "QueueFullError",
    "RemoteInferenceError",
    "Router",
    "ServiceClosedError",
    "ServingError",
    "ServingMetrics",
    "ServingStack",
    "WorkerProcess",
    "WorkerUnavailableError",
    "as_batch_callable",
    "available_routing_policies",
    "build_target",
    "closed_loop",
    "make_yolo_postprocess",
    "mixed_priority_load",
    "open_loop",
    "poisson_gaps",
    "run_chaos_drill",
    "priority_index",
    "priority_name",
]
