"""The formal serving API: the :class:`InferenceTarget` protocol + priorities.

Everything that serves inference in this repo — the in-process
:class:`~repro.serving.service.InferenceService`, the multi-process
:class:`~repro.serving.cluster.router.Router`, and the network
:class:`~repro.serving.gateway.GatewayClient` — exposes the same five-method
surface, so load generators, benchmarks and the CLI can swap one for another
without caring where the model actually runs:

* ``submit`` — admit one ``(C, H, W)`` image, get an
  :class:`~repro.serving.batcher.InferenceFuture`; non-blocking submits raise
  a typed :class:`~repro.serving.errors.ServingError` on rejection,
* ``submit_group`` — admit a burst (an ``(N, C, H, W)`` stack or N images) as
  one unit, get one future over the N requests: admitted, routed, framed and
  answered per micro-batch instead of per image.  ``submit`` is its N = 1
  case.  Limits count images — the requests past one fail with the typed
  error while the others go on — and only a burst of which nothing was
  admitted raises,
* ``submit_many`` — blocking convenience over a stack (group submits, one
  wait), outputs concatenated in request order (directly comparable to a
  sequential :class:`~repro.engine.runner.BatchRunner` run),
* ``shutdown`` — graceful drain / disconnect (idempotent),
* ``stats`` — the target's metrics report as one nested plain dict.

This used to live as an informal Protocol inside :mod:`repro.serving.loadgen`
covering ``submit`` only; the gateway PR promoted it here and widened it to
the full lifecycle so the wire client could join the family.

Priority classes
----------------
Requests carry a **priority class** (``high`` / ``normal`` / ``low``) and an
optional **deadline** (``deadline_ms``, remaining milliseconds of the
client's latency budget).  The scheduler orders work by class, rejects
requests whose deadline is already infeasible at admission, and drops —
never executes — requests that expire while queued.  The class names are the
serializable contract shared with :class:`repro.pipeline.spec.GatewaySpec`
(which must not import serving), mirroring how routing-policy names work.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Optional,
    Protocol,
    Sequence,
    Union,
    runtime_checkable,
)

import numpy as np

from repro.pipeline.spec import PRIORITY_CLASS_NAMES

if TYPE_CHECKING:  # typing only: batcher imports this module for the helpers
    from repro.serving.batcher import InferenceFuture

__all__ = [
    "DEFAULT_PRIORITY",
    "PRIORITY_CLASSES",
    "InferenceTarget",
    "priority_index",
    "priority_name",
]

#: Priority classes, best first.  Index = scheduling rank (lower runs first).
PRIORITY_CLASSES = PRIORITY_CLASS_NAMES

DEFAULT_PRIORITY = "normal"

assert DEFAULT_PRIORITY in PRIORITY_CLASSES


def priority_index(priority: Union[str, int]) -> int:
    """Scheduling rank of a class name (``high`` -> 0); validates the name."""
    if isinstance(priority, int):
        if not 0 <= priority < len(PRIORITY_CLASSES):
            raise ValueError(
                f"priority index must be in [0, {len(PRIORITY_CLASSES)}), got {priority}")
        return priority
    try:
        return PRIORITY_CLASSES.index(priority)
    except ValueError:
        raise ValueError(
            f"unknown priority class {priority!r}; "
            f"expected one of {list(PRIORITY_CLASSES)}") from None


def priority_name(index: int) -> str:
    """Class name of a scheduling rank (inverse of :func:`priority_index`)."""
    return PRIORITY_CLASSES[priority_index(index)]


@runtime_checkable
class InferenceTarget(Protocol):
    """What drives inference: one service, a cluster router, or a wire client.

    Structural (duck-typed) protocol: annotate with it, or check capability
    with ``isinstance`` (``runtime_checkable`` verifies the methods exist).
    """

    def submit(
        self,
        image: np.ndarray,
        block: bool = False,
        timeout: Optional[float] = None,
        priority: str = DEFAULT_PRIORITY,
        deadline_ms: Optional[float] = None,
    ) -> InferenceFuture: ...

    def submit_group(
        self,
        images: Union[np.ndarray, Sequence[np.ndarray]],
        block: bool = False,
        timeout: Optional[float] = None,
        priority: str = DEFAULT_PRIORITY,
        deadline_ms: Optional[float] = None,
    ) -> InferenceFuture: ...

    def submit_many(
        self,
        images: Union[np.ndarray, Sequence[np.ndarray]],
        timeout: Optional[float] = None,
    ) -> Any: ...

    def shutdown(self, timeout: Optional[float] = None) -> None: ...

    def stats(self) -> Dict[str, Any]: ...
