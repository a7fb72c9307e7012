"""One factory from a :class:`~repro.pipeline.spec.ServeSpec` to a running stack.

The spec tree is the serving configuration and :func:`build_target` is the one
place that reads it: the micro-batching knobs become the ``BatchPolicy``,
``workers`` picks the backend (in-process ``InferenceService`` or a ``Router``
fleet of that fixed size), the ``cluster`` node goes to the router whole, and
a gateway node to a ``GatewayServer`` with a connected ``GatewayClient`` in
front.  ``repro serve|metrics|top`` build every target through it;
usage is in the :mod:`repro.serving` docstring.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Any, Optional, Union

from repro.pipeline.artifact import DeployableArtifact
from repro.pipeline.spec import GatewaySpec, ServeSpec
from repro.serving.batcher import BatchPolicy
from repro.serving.cluster.router import Router
from repro.serving.gateway import GatewayClient, GatewayServer
from repro.serving.service import InferenceService

__all__ = ["ServingStack", "build_target"]


@dataclass
class ServingStack:
    """What :func:`build_target` assembled, torn down as one."""

    #: The ``InferenceTarget`` to drive load at: the wire client when a
    #: gateway fronts the stack, else the backend itself.
    target: Any = None
    #: The in-process end of the stack; its ``report()`` / ``metrics``
    #: describe what actually served.
    backend: Union[InferenceService, Router, None] = None
    gateway: Optional[GatewayServer] = None
    # Unwinds in reverse build order — client, gateway, backend —
    # each step running even if an earlier one raised.
    _teardown: contextlib.ExitStack = field(
        default_factory=contextlib.ExitStack, init=False, repr=False
    )

    @property
    def clustered(self) -> bool:
        """True when the backend is a worker-process fleet."""
        return isinstance(self.backend, Router)

    def shutdown(self) -> None:
        """Stop every part, front to back (idempotent)."""
        self._teardown.close()

    def __enter__(self) -> "ServingStack":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def build_target(
    artifact_or_path: Union[str, DeployableArtifact],
    serve_spec: ServeSpec,
    gateway: Optional[GatewaySpec] = None,
) -> ServingStack:
    """Start the serving stack ``serve_spec`` describes over one artifact.

    ``gateway`` fronts the backend with a TCP gateway bound per that node and
    makes a connected wire client the stack's ``target``.  Workers load the
    artifact from its file, so an in-memory one (``path is None``) only serves
    in-process.
    If a step fails, what was already started is shut down before the error
    propagates.
    """
    policy = BatchPolicy(
        max_batch_size=serve_spec.max_batch_size,
        queue_capacity=serve_spec.queue_capacity,
    )
    is_path = isinstance(artifact_or_path, str)
    stack = ServingStack()
    on_shutdown = stack._teardown.callback
    try:
        if serve_spec.workers > 1:
            path = artifact_or_path if is_path else artifact_or_path.path
            if path is None:
                raise ValueError(
                    "a worker cluster loads the artifact in each process: "
                    "save() it (or pass its path) first"
                )
            backend = Router(
                path,
                workers=serve_spec.workers,
                policy=policy,
                routing=serve_spec.routing,
                cluster=serve_spec.cluster,
            )
            on_shutdown(backend.shutdown)
        else:
            # A loaded artifact is served as the object it is (no second
            # load + recompile), under its run's name.
            name = {} if is_path else {"name": artifact_or_path.spec.name}
            backend = InferenceService(
                artifact_or_path,
                policy=policy,
                **name,
            )
            on_shutdown(backend.shutdown)
        stack.backend = stack.target = backend
        if gateway is not None:
            stack.gateway = GatewayServer(backend, gateway).start()
            on_shutdown(stack.gateway.shutdown)
            stack.target = GatewayClient(stack.gateway.host, stack.gateway.port)
            on_shutdown(stack.target.shutdown)
    except BaseException:
        stack.shutdown()
        raise
    return stack
