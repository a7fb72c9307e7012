"""Multi-process serving cluster: shard inference across worker processes.

PR 3's :class:`~repro.serving.service.InferenceService` is thread-based — one
GIL, at most one core of compiled-kernel work no matter how many clients push
load.  This package scales it horizontally on one host:

* :mod:`repro.serving.cluster.worker` — :class:`WorkerProcess`, an
  ``InferenceService`` (one warmed model + its DynamicBatcher) hosted in a
  ``multiprocessing`` subprocess behind a pickle-free ndarray pipe channel,
* :mod:`repro.serving.cluster.channel` — :class:`ArrayChannel`, the raw-bytes
  framing that moves images and (possibly nested) outputs across the process
  boundary without pickling arrays,
* :mod:`repro.serving.cluster.router` — :class:`Router`, the front door:
  pluggable routing policies (round-robin, least-outstanding), one
  supervisor thread (health-check heartbeats, worker restart,
  in-flight request re-dispatch) over a fleet whose size is fixed at
  construction, and zero-downtime rolling ``swap_artifact``
  (:class:`ArtifactSwapError` on rollback) — the shell that performs what
* :mod:`repro.serving.cluster.fleet` decides: the clock-free slot table with
  every supervision rule (quick-death counting, backoff pacing, abandonment,
  degradation, the swap step),
* :mod:`repro.serving.cluster.metrics` — :class:`ClusterMetrics`, per-worker
  and aggregate p50/p95/p99 latency and throughput.

Quick use::

    from repro.pipeline.spec import ClusterSpec
    from repro.serving import BatchPolicy
    from repro.serving.cluster import Router

    with Router("artifacts/tiny.npz", workers=4,
                policy=BatchPolicy(max_batch_size=8),
                routing="least-outstanding",
                cluster=ClusterSpec(heartbeat_timeout=5.0)) as router:
        outputs = router.submit_many(images)     # == sequential BatchRunner
        print(router.report()["cluster"])        # p50/p95/p99, throughput ...

The supervision contract (heartbeats, restart backoff, shedding) is the
:class:`~repro.pipeline.spec.ClusterSpec` node, handed over whole;
:func:`repro.serving.build_target` builds the same router from an artifact's
``ServeSpec``.

or from the command line::

    python -m repro.cli serve --artifact artifacts/tiny.npz --workers 4
"""

from repro.serving.cluster.channel import (
    ArrayChannel,
    ChannelClosedError,
    flatten_arrays,
    unflatten_arrays,
)
from repro.serving.cluster.metrics import ClusterMetrics
from repro.serving.cluster.router import (
    ROUTING_POLICIES,
    ArtifactSwapError,
    LeastOutstandingPolicy,
    RoundRobinPolicy,
    Router,
    available_routing_policies,
    build_routing_policy,
)
from repro.serving.cluster.worker import (
    RemoteInferenceError,
    WorkerProcess,
    WorkerUnavailableError,
)

__all__ = [
    "ROUTING_POLICIES",
    "ArrayChannel",
    "ArtifactSwapError",
    "ChannelClosedError",
    "ClusterMetrics",
    "LeastOutstandingPolicy",
    "RemoteInferenceError",
    "RoundRobinPolicy",
    "Router",
    "WorkerProcess",
    "WorkerUnavailableError",
    "available_routing_policies",
    "build_routing_policy",
    "flatten_arrays",
    "unflatten_arrays",
]
