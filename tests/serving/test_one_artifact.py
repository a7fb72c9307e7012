"""Every serving stack serves exactly the artifact it was started with.

* **The wire cannot pick a model.**  Infer frames whose headers name other
  artifacts — files that do not exist, and a saved artifact with different
  weights — are answered by the served artifact, bit for bit, and make the
  server neither load anything nor start a thread; every service keeps one
  batcher.
* **One protocol, one signature.**  Every parameter of the
  :class:`~repro.serving.api.InferenceTarget` protocol exists on each
  implementation with the same kind and default.
"""

from __future__ import annotations

import inspect
import socket
import struct
import threading

import numpy as np
import pytest

from repro.pipeline import DeployableArtifact, Pipeline, RunSpec
from repro.pipeline.spec import ClusterSpec, GatewaySpec
from repro.serving import BatchPolicy, GatewayClient, InferenceService, Router
from repro.serving.api import InferenceTarget
from repro.serving.cluster.channel import decode_frame, encode_frame, unflatten_arrays
from repro.serving.gateway import GatewayServer
from repro.serving.metrics import GatewayMetrics, ServingMetrics

PREFIX = struct.Struct("!I")


@pytest.fixture(scope="module")
def other_artifact_path(serve_artifact, tmp_path_factory) -> str:
    """An artifact of the same model with different weights (3EP masks), saved."""
    data = serve_artifact.spec.to_dict()
    data.update(name="tiny_other", framework=dict(data["framework"], name="rtoss-3ep"))
    spec = RunSpec.from_dict(data)
    path = tmp_path_factory.mktemp("other") / "tiny_other.npz"
    return Pipeline.from_spec(spec).run().save(str(path))


def read_reply(sock: socket.socket):
    def exact(count):
        data = b""
        while len(data) < count:
            piece = sock.recv(count - len(data))
            assert piece, "gateway hung up"
            data += piece
        return data

    (length,) = PREFIX.unpack(exact(4))
    return decode_frame(exact(length))


def infer_naming(sock: socket.socket, images: np.ndarray, models, first_id: int = 0) -> list:
    """Infer frame ``i`` carries ``images[i]`` and a header naming ``models[i]``
    (no ``model`` key for ``None``); returns the outputs in that order."""
    for index, model in enumerate(models):
        meta = {"id": first_id + index}
        if model is not None:
            meta["model"] = model
        payload = encode_frame("infer", meta, [images[index]])
        sock.sendall(PREFIX.pack(len(payload)) + payload)
    replies = {}
    while len(replies) < len(models):
        message = read_reply(sock)
        assert message.kind == "result", message.meta
        replies[message.meta["id"] - first_id] = unflatten_arrays(
            message.meta["treedef"], message.arrays)
    return [replies[index] for index in range(len(models))]


@pytest.mark.parametrize("backend", ["service", "router"])
def test_frame_headers_naming_other_models_are_served_by_the_started_artifact(
        backend, serve_artifact, artifact_path, other_artifact_path, images, tmp_path):
    models = [str(tmp_path / f"missing-{index}.npz") for index in range(7)]
    models.append(other_artifact_path)
    expected = serve_artifact.forward_raw(images[:len(models)])
    # Different weights: serving the named artifact would show in the replies.
    other = DeployableArtifact.load(other_artifact_path).forward_raw(images[:1])
    assert not np.array_equal(other, expected[:1])
    policy = BatchPolicy(max_batch_size=4, queue_capacity=64)
    if backend == "service":
        target = InferenceService(artifact_path, policy=policy,
                                  metrics=ServingMetrics(name="one", register=False))
    else:
        target = Router(artifact_path, workers=2, policy=policy,
                        routing="least-outstanding",
                        cluster=ClusterSpec(heartbeat_interval=0.1))
    server = GatewayServer(target, GatewaySpec(port=0),
                           metrics=GatewayMetrics(register=False)).start()
    try:
        with socket.create_connection((server.host, server.port), timeout=60.0) as sock:
            infer_naming(sock, images, [None])          # connection + every thread up
            threads = threading.active_count()
            replies = infer_naming(sock, images, models, first_id=1)
            assert threading.active_count() <= threads
        for index, reply in enumerate(replies):
            np.testing.assert_array_equal(reply, expected[index:index + 1])
        if backend == "service":
            services = [target.report()]
        else:
            services = list(target.report(worker_stats_timeout=10.0)["worker_services"].values())
            assert len(services) == 2
        for report in services:
            assert len(report["engine"]) == 1 and len(report["engine_modes"]) == 1
    finally:
        server.shutdown()
        target.shutdown()


PROTOCOL_METHODS = ("submit", "submit_group", "submit_many", "shutdown", "stats")


@pytest.mark.parametrize("method", PROTOCOL_METHODS)
@pytest.mark.parametrize("implementation", [InferenceService, Router, GatewayClient],
                         ids=lambda cls: cls.__name__)
def test_implementations_keep_the_protocol_signature(implementation, method):
    declared = inspect.signature(getattr(InferenceTarget, method)).parameters
    actual = inspect.signature(getattr(implementation, method)).parameters
    for name, parameter in declared.items():
        assert name in actual, f"{implementation.__name__}.{method} lacks {name!r}"
        assert actual[name].kind == parameter.kind, (implementation, method, name)
        assert actual[name].default == parameter.default, (implementation, method, name)
