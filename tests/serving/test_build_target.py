"""`repro.serving.build_target`: one factory from a ServeSpec to a running stack.

* the **topology matrix** — workers in {1, 2} x gateway in {off, on} on the
  tiny artifact: outputs match a sequential ``BatchRunner``, the wire is
  bit-identical to in-process, and ``stats()`` keeps its per-backend shape;
* the **teardown order** — an exception in the body (or during the build)
  stops client -> gateway -> backend, leaving no worker process or
  listening port behind;
* the **spec is consumed whole** — every node reaches the part that reads it.
"""

from __future__ import annotations

import dataclasses
import socket

import pytest

from repro.cli import main as cli_main
from repro.engine import BatchRunner, max_abs_output_diff
from repro.pipeline import DeployableArtifact
from repro.pipeline.spec import ClusterSpec, GatewaySpec, ServeSpec
from repro.serving import (
    GatewayClient,
    InferenceService,
    Router,
    ServingStack,
    build_target,
)

SERVICE_STATS = {"batches", "engine", "engine_modes", "latency", "policy",
                 "queue", "requests", "throughput_rps"}
ROUTER_STATS = {"artifact", "cluster", "degraded", "policy", "routing",
                "worker_artifacts", "worker_services", "workers"}

SPEC = ServeSpec(max_batch_size=4, queue_capacity=64)


def port_is_closed(host: str, port: int) -> bool:
    try:
        socket.create_connection((host, port), timeout=1.0).close()
    except OSError:
        return True
    return False


# ------------------------------------------------------------- topology matrix
@pytest.mark.parametrize("gateway", [None, GatewaySpec()], ids=["direct", "gateway"])
@pytest.mark.parametrize("workers", [1, 2])
def test_topology_matrix(serve_artifact, artifact_path, images, workers, gateway):
    sequential = BatchRunner(serve_artifact.compiled, batch_size=1).run(images)
    spec = dataclasses.replace(SPEC, workers=workers, routing="least-outstanding")
    with build_target(artifact_path, spec, gateway=gateway) as stack:
        assert isinstance(stack, ServingStack)
        assert isinstance(stack.backend, Router if workers > 1 else InferenceService)
        assert stack.clustered == (workers > 1)

        served = stack.target.submit_many(images)
        assert max_abs_output_diff(served, sequential) < 1e-5

        backend_stats = stack.backend.stats()
        assert set(backend_stats) == (ROUTER_STATS if workers > 1 else SERVICE_STATS)
        # The spec's knobs are the ones running, not the library defaults.
        assert backend_stats["policy"] == {
            "max_batch_size": 4, "queue_capacity": 64}
        if workers > 1:
            assert backend_stats["routing"] == "least-outstanding"
            assert len(stack.backend.workers) == workers

        if gateway is None:
            assert stack.target is stack.backend and stack.gateway is None
        else:
            assert isinstance(stack.target, GatewayClient)
            # The serialization hop adds no numerics.
            inproc = stack.backend.submit_many(images)
            assert max_abs_output_diff(served, inproc) == 0.0
            wire_stats = stack.target.stats()
            assert set(wire_stats) == {"gateway", "target"}
            assert set(wire_stats["target"]) == set(backend_stats)
            address = (stack.gateway.host, stack.gateway.port)
    if gateway is not None:
        assert port_is_closed(*address)


def test_loaded_artifact_is_served_as_the_object(artifact_path, images):
    artifact = DeployableArtifact.load(artifact_path)
    # In-process: the object itself, pinned under its run's name (no reload).
    with build_target(artifact, SPEC) as stack:
        assert stack.backend.metrics.name == artifact.spec.name
        assert stack.target.submit(images[0]).result(60.0) is not None
    # Cluster: workers load the file the artifact was loaded from / saved to.
    assert artifact.path == artifact_path
    with build_target(artifact, dataclasses.replace(SPEC, workers=2)) as stack:
        assert stack.backend.artifact_path == artifact_path
    # An artifact with no file behind it can only be served in-process.
    in_memory = dataclasses.replace(artifact, path=None)
    with pytest.raises(ValueError, match="path"):
        build_target(in_memory, dataclasses.replace(SPEC, workers=2))


# ------------------------------------------------------- the spec, consumed whole
def test_the_cluster_node_reaches_the_router(artifact_path):
    cluster = ClusterSpec(heartbeat_interval=0.1, heartbeat_timeout=2.0,
                          shed_low_priority=False)
    spec = dataclasses.replace(SPEC, workers=2, cluster=cluster)
    with build_target(artifact_path, spec) as stack:
        assert stack.backend.cluster is cluster


# ------------------------------------------------------------------- teardown
class Boom(Exception):
    pass


def test_body_exception_tears_down_front_to_back(artifact_path, monkeypatch):
    """An exception in the body unwinds the stack front to back: the gateway
    stops taking connections before the router closes under it."""
    order = []
    real_stop = Router.shutdown

    def recording_shutdown(router, *args, **kwargs):
        order.append(("router-shutdown", port_is_closed(*address)))
        return real_stop(router, *args, **kwargs)

    monkeypatch.setattr(Router, "shutdown", recording_shutdown)
    spec = dataclasses.replace(SPEC, workers=2)
    with pytest.raises(Boom):
        with build_target(artifact_path, spec, gateway=GatewaySpec()) as stack:
            workers = stack.backend.workers
            address = (stack.gateway.host, stack.gateway.port)
            assert not port_is_closed(*address)
            raise Boom

    # The gateway was closed before the router closed under it ...
    assert order == [("router-shutdown", True)]
    assert stack.backend.closed
    # ... and nothing is left behind.
    for worker in workers:
        worker.process.join(10.0)
        assert not worker.process.is_alive()
    assert port_is_closed(*address)
    stack.shutdown()        # idempotent


def test_failed_build_leaves_nothing_running(artifact_path, monkeypatch):
    """A gateway that cannot bind fails the build *after* the router is up; it
    must be gone when the error reaches the caller."""
    built = []
    real_init = Router.__init__

    def recording_init(router, *args, **kwargs):
        real_init(router, *args, **kwargs)
        built.append(router)

    monkeypatch.setattr(Router, "__init__", recording_init)
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)
        port = taken.getsockname()[1]
        spec = dataclasses.replace(SPEC, workers=2)
        with pytest.raises(RuntimeError, match="failed to bind"):
            build_target(artifact_path, spec, gateway=GatewaySpec(port=port))
    (router,) = built
    assert router.closed
    for worker in router.workers:
        assert not worker.process.is_alive()


def test_cli_exit_2_when_the_gateway_cannot_bind(artifact_path, capsys):
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)
        code = cli_main(["serve", "--artifact", artifact_path, "--no-verify",
                         "--gateway", f"127.0.0.1:{taken.getsockname()[1]}"])
    assert code == 2
    assert "could not start the serving target" in capsys.readouterr().err
