"""`repro.serving.build_target`: one factory from a ServeSpec to a running stack.

* the **topology matrix** — workers in {1, 2} x gateway in {off, on} on the
  tiny artifact: outputs match a sequential ``BatchRunner``, the wire is
  bit-identical to in-process, and ``stats()`` keeps its per-backend shape;
* the **teardown order** — an exception in the body (or during the build)
  stops client -> gateway -> autoscaler -> backend, leaving no supervisor
  thread, worker process or listening port behind;
* the **spec is consumed whole** — every node reaches the part that reads it,
  including the chaos schedule reaching the gateway.
"""

from __future__ import annotations

import dataclasses
import socket

import pytest

from repro.cli import main as cli_main
from repro.engine import BatchRunner, max_abs_output_diff
from repro.pipeline import DeployableArtifact
from repro.pipeline.spec import (
    AutoscalerSpec,
    ChaosSpec,
    ClusterSpec,
    GatewaySpec,
    ServeSpec,
)
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
        assert stack.autoscaler is None

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
def test_cluster_and_autoscaler_nodes_reach_their_consumers(artifact_path):
    cluster = ClusterSpec(
        heartbeat_interval=0.1, heartbeat_timeout=2.0, shed_low_priority=False,
        autoscaler=AutoscalerSpec(enabled=True, min_workers=2, max_workers=3,
                                  interval_s=30.0))
    spec = dataclasses.replace(SPEC, workers=2, cluster=cluster)
    with build_target(artifact_path, spec) as stack:
        assert stack.backend.cluster is cluster
        assert stack.autoscaler.spec is cluster.autoscaler
        assert stack.autoscaler.router is stack.backend
        assert stack.autoscaler._thread.is_alive()
        thread = stack.autoscaler._thread
    assert not thread.is_alive()


def test_armed_chaos_reaches_workers_and_gateway(artifact_path, images):
    """`gateway_latency_ms` used to be counted by `any_faults()` yet injected
    nowhere: no non-test code handed the gateway an injector."""
    chaos = ChaosSpec(enabled=True, seed=3, warmup_s=0.0, duration_s=60.0,
                      gateway_latency_ms=40.0)
    # Armed chaos runs on the cluster backend even at workers == 1.
    with build_target(artifact_path, SPEC, gateway=GatewaySpec(), chaos=chaos) as stack:
        assert stack.clustered and stack.backend.chaos is chaos
        injector = stack.gateway.injector
        assert injector is not None and injector.spec is chaos
        # One window for the whole fleet: workers and gateway go quiet together.
        assert injector.until_wall == stack.backend.chaos_until_wall
        assert injector.response_delay_s() == pytest.approx(0.040)
        assert stack.target.submit(images[0], block=True).result(60.0) is not None

    disarmed = dataclasses.replace(chaos, enabled=False)
    with build_target(artifact_path, SPEC, gateway=GatewaySpec(), chaos=disarmed) as stack:
        assert stack.backend.chaos is None and stack.gateway.injector is None


def test_chaos_cli_refuses_a_drill_that_can_inject_nothing(artifact_path, tmp_path,
                                                          capsys):
    # `repro chaos` fronts no gateway, so this spec would drill nothing and
    # (at the parent) exit 0.
    spec_file = tmp_path / "gateway_only.json"
    spec_file.write_text('{"chaos": {"gateway_latency_ms": 5.0}}')
    code = cli_main(["chaos", "--artifact", artifact_path, "--spec", str(spec_file)])
    assert code == 2
    assert "gateway_latency_ms" in capsys.readouterr().err


# ------------------------------------------------------------------- teardown
class Boom(Exception):
    pass


def test_body_exception_tears_down_front_to_back(artifact_path, monkeypatch):
    """`_serve_cluster` started the Autoscaler, then returned early (mismatch,
    bind error) from *outside* the `finally` that stopped it — shutting the
    Router down under a live supervisor thread."""
    order = []
    real_stop = Router.shutdown

    def recording_shutdown(router, *args, **kwargs):
        order.append(("router-shutdown", scaler_thread.is_alive()))
        return real_stop(router, *args, **kwargs)

    monkeypatch.setattr(Router, "shutdown", recording_shutdown)
    spec = dataclasses.replace(
        SPEC, workers=2,
        cluster=ClusterSpec(autoscaler=AutoscalerSpec(enabled=True, interval_s=0.05)))
    with pytest.raises(Boom):
        with build_target(artifact_path, spec, gateway=GatewaySpec()) as stack:
            scaler_thread = stack.autoscaler._thread
            workers = stack.backend.workers
            address = (stack.gateway.host, stack.gateway.port)
            assert scaler_thread.is_alive() and not port_is_closed(*address)
            raise Boom

    # The supervisor was joined before the router closed under it ...
    assert order == [("router-shutdown", False)]
    assert stack.backend.closed
    # ... and nothing is left behind.
    for worker in workers:
        worker.process.join(10.0)
        assert not worker.process.is_alive()
    assert port_is_closed(*address)
    stack.shutdown()        # idempotent


def test_failed_build_leaves_nothing_running(artifact_path, monkeypatch):
    """A gateway that cannot bind fails the build *after* the router and the
    autoscaler are up; both must be gone when the error reaches the caller."""
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
        spec = dataclasses.replace(
            SPEC, workers=2,
            cluster=ClusterSpec(autoscaler=AutoscalerSpec(enabled=True)))
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
