"""Declarative run specifications: the serializable input of the pipeline.

A :class:`RunSpec` describes one end-to-end deployment run — which model to
build, which pruning framework to apply, whether to quantize, whether to
compile/measure with the execution engine, and how to evaluate — as a tree of
plain dataclasses that round-trips losslessly to/from dicts and JSON files::

    spec = RunSpec.from_json_file("examples/specs/tiny_rtoss3ep.json")
    spec.to_dict() == RunSpec.from_dict(spec.to_dict()).to_dict()   # True

Unknown keys are rejected (with the offending section and key named) so a typo
in a spec file fails loudly instead of silently running defaults.
"""

from __future__ import annotations

import dataclasses
import json
import operator
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Type, TypeVar

SpecT = TypeVar("SpecT", bound="_SpecNode")

#: Routing policies a ServeSpec may name.  This is the serializable contract;
#: the implementations live in repro.serving.cluster.router, whose registry is
#: asserted to match this tuple (the spec layer must not import serving).
ROUTING_POLICY_NAMES = ("round-robin", "least-outstanding")

#: Request priority classes a GatewaySpec may configure, best first.  Same
#: contract pattern as ROUTING_POLICY_NAMES: repro.serving.api asserts its
#: scheduler classes match this tuple (the spec layer must not import serving).
PRIORITY_CLASS_NAMES = ("high", "normal", "low")


#: Rules a field declaration may carry: name -> (predicate(value, bound), wording).
#: Write-once table, never mutated.  # reprolint: disable=mutable-global
_RULES = {
    "ge": (operator.ge, "be >= {}"),
    "gt": (operator.gt, "be > {}"),
    "le": (operator.le, "be <= {}"),
    "choices": (lambda value, allowed: value in allowed, "be one of {}"),
    "nonempty": (lambda value, _: bool(value), "be non-empty"),
}


def _bounded(default: Any, **rules: Any) -> Any:
    """A spec field with a default and the ``_RULES`` its value must satisfy.

    They ride in the dataclass field's ``metadata``; ``_SpecNode.__post_init__``
    checks them on every construction.
    """
    return field(default=default, metadata=rules)


class _SpecNode:
    """Shared validation and dict/JSON plumbing for every spec dataclass."""

    def __post_init__(self) -> None:
        """Check each field against its declared rules, then the node's own.

        A wrong-typed value (``"64"`` for a number) fails its rule like an
        out-of-range one: every rejection is a ``ValueError`` naming the field.
        """
        owner = type(self).__name__
        for spec_field in dataclasses.fields(self):
            value = getattr(self, spec_field.name)
            for rule, bound in spec_field.metadata.items():
                holds, wording = _RULES[rule]
                try:
                    ok = holds(value, bound)
                except TypeError:
                    ok = False
                if not ok:
                    raise ValueError(f"{owner}.{spec_field.name} must "
                                     f"{wording.format(bound)}, got {value!r}")
        self._check()

    def _check(self) -> None:
        """Coercions and cross-field rules of one node (declared bounds hold)."""

    @classmethod
    def from_dict(cls: Type[SpecT], data: Optional[Dict[str, Any]]) -> SpecT:
        """Build a spec from a plain dict, rejecting unknown keys."""
        if data is not None and not isinstance(data, dict):
            raise ValueError(f"{cls.__name__}: expected a mapping, "
                             f"got {type(data).__name__} ({data!r})")
        data = dict(data or {})
        allowed = {f.name: f for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - set(allowed))
        if unknown:
            raise ValueError(
                f"{cls.__name__}: unknown key(s) {unknown}; "
                f"allowed keys: {sorted(allowed)}")
        kwargs: Dict[str, Any] = {}
        for name, spec_field in allowed.items():
            if name not in data:
                continue
            value = data[name]
            node_type = _spec_node_type(spec_field)
            if node_type is not None:
                value = node_type.from_dict(value)
            kwargs[name] = value
        try:
            return cls(**kwargs)
        except TypeError as error:
            # A wrong-typed value can still surface as TypeError from a
            # coercion or cross-field comparison; keep the ValueError contract.
            raise ValueError(f"{cls.__name__}: invalid value ({error})") from error

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (tuples become lists, nested specs become dicts)."""
        out: Dict[str, Any] = {}
        for spec_field in dataclasses.fields(self):
            value = getattr(self, spec_field.name)
            if isinstance(value, _SpecNode):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            out[spec_field.name] = value
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls: Type[SpecT], text: str) -> SpecT:
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> str:
        """Write the spec as JSON to ``path`` (returns the path)."""
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")
        return path

    @classmethod
    def from_json_file(cls: Type[SpecT], path: str) -> SpecT:
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


def _str_tuple(value: Any, owner: str, field_name: str) -> Tuple[str, ...]:
    """Coerce a list of strings to a tuple, rejecting a bare string.

    ``tuple("head")`` would silently become ``('h', 'e', 'a', 'd')`` and match
    almost every layer name as a substring — fail loudly instead.
    """
    if isinstance(value, str):
        raise ValueError(f"{owner}.{field_name} must be a list of strings, "
                         f"got the string {value!r} (did you mean [{value!r}]?)")
    try:
        items = tuple(value)
    except TypeError:
        raise ValueError(f"{owner}.{field_name} must be a list of strings, "
                         f"got {value!r}") from None
    if not all(isinstance(item, str) for item in items):
        raise ValueError(f"{owner}.{field_name} must contain only strings, got {items!r}")
    return items


def _spec_node_type(spec_field: dataclasses.Field) -> Optional[Type["_SpecNode"]]:
    """The _SpecNode subclass of a dataclass field, if it holds a nested spec."""
    field_type = spec_field.type
    if isinstance(field_type, type) and issubclass(field_type, _SpecNode):
        return field_type
    # Under ``from __future__ import annotations`` field types are strings.
    if isinstance(field_type, str):
        candidate = globals().get(field_type)
        if isinstance(candidate, type) and issubclass(candidate, _SpecNode):
            return candidate
    return None


# ----------------------------------------------------------------------- sections
@dataclass
class ModelSpec(_SpecNode):
    """Which detector to build (resolved through :mod:`repro.models.registry`)."""

    #: Registry model name ('tiny', 'yolov5s', 'retinanet', ...).
    name: str = _bounded("tiny", nonempty=True)
    #: Keyword arguments forwarded to the model factory (e.g. num_classes).
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def _check(self) -> None:
        self.kwargs = dict(self.kwargs)


@dataclass
class FrameworkSpec(_SpecNode):
    """Which pruning framework to apply (resolved through the framework registry)."""

    #: Registry framework name or paper label ('rtoss-3ep', 'R-TOSS-3EP', 'nms', ...).
    name: str = _bounded("rtoss-3ep", nonempty=True)
    #: Keyword overrides forwarded to the framework factory.
    overrides: Dict[str, Any] = field(default_factory=dict)
    #: Input resolution used to trace the graph for DFS grouping (Algorithm 1);
    #: the detector strides need at least 32.
    trace_size: int = _bounded(64, ge=32)

    def _check(self) -> None:
        self.overrides = dict(self.overrides)

    def example_shape(self) -> Tuple[int, int, int, int]:
        """Shape of the zero tensor used to trace the model."""
        return (1, 3, int(self.trace_size), int(self.trace_size))


@dataclass
class QuantizationSpec(_SpecNode):
    """Optional post-training quantization after pruning."""

    enabled: bool = False
    #: Bit width of the symmetric per-channel quantization.
    bits: int = _bounded(8, choices=(4, 8, 16))
    #: Layer-name substrings excluded from quantization.
    skip_names: Tuple[str, ...] = ()

    def _check(self) -> None:
        self.skip_names = _str_tuple(self.skip_names, "QuantizationSpec", "skip_names")


@dataclass
class EngineSpec(_SpecNode):
    """Compilation (and optional wall-clock measurement) with the execution engine."""

    enabled: bool = True
    #: Also time the compiled engine against its unpruned twin on the host
    #: CPU (``pruning_speedup``, fused-dense / fused-pruned).
    measure: bool = False
    #: Input resolution of the measured forward passes.
    image_size: int = _bounded(64, ge=32)
    #: Measurement batch size.
    batch: int = _bounded(2, ge=1)
    #: Timing repeats (the median is reported).
    repeats: int = _bounded(3, ge=1)


@dataclass
class EvaluationSpec(_SpecNode):
    """Analytic evaluation (latency/energy/size models + accuracy estimate)."""

    enabled: bool = True
    #: Input resolution the latency/energy models evaluate at (paper: 640).
    image_size: int = _bounded(64, ge=32)
    #: Resolution of the cost-model probe forward pass.
    probe_size: int = _bounded(64, ge=32)
    #: Baseline mAP anchor; None looks the model up in BASELINE_MAP (60.0 fallback).
    baseline_map: Optional[float] = None
    #: Platform keys or display names understood by repro.hardware.get_platform.
    platforms: Tuple[str, ...] = ("rtx_2080ti", "jetson_tx2")

    def _check(self) -> None:
        self.platforms = _str_tuple(self.platforms, "EvaluationSpec", "platforms")


@dataclass
class GatewaySpec(_SpecNode):
    """Network gateway configuration nested inside :class:`ServeSpec`.

    Consumed by ``repro serve --gateway`` and
    :class:`repro.serving.gateway.GatewayServer`: where to listen, the
    per-client admission-control knobs (token bucket + in-flight bound) and
    the per-priority-class SLO deadlines applied to requests that do not
    carry their own ``deadline_ms``.
    """

    #: Listen address; port 0 binds an ephemeral port (tests, smoke runs).
    host: str = _bounded("127.0.0.1", nonempty=True)
    port: int = _bounded(0, ge=0, le=65535)
    #: Per-client token-bucket refill rate in requests/s; 0 disables the
    #: rate limiter (the in-flight bound still applies).
    rate_limit_rps: float = _bounded(0.0, ge=0)
    #: Token-bucket capacity (burst size) when the rate limiter is on.
    burst: int = _bounded(32, ge=1)
    #: Bound on one client's simultaneously in-flight requests.
    max_inflight_per_client: int = _bounded(64, ge=1)
    #: Per-class SLO deadline in ms applied when a request carries none
    #: (e.g. {"high": 50.0}); classes absent here get no implied deadline.
    slo_ms: Dict[str, float] = field(default_factory=dict)
    #: Reject frames larger than this many MiB (malformed/hostile input).
    max_frame_mb: float = _bounded(64.0, gt=0)

    def _check(self) -> None:
        self.slo_ms = dict(self.slo_ms)
        for name, value in self.slo_ms.items():
            if name not in PRIORITY_CLASS_NAMES:
                raise ValueError(
                    f"GatewaySpec.slo_ms key {name!r} is not a priority class "
                    f"(expected one of {list(PRIORITY_CLASS_NAMES)})")
            if not isinstance(value, (int, float)) or value <= 0:
                raise ValueError(
                    f"GatewaySpec.slo_ms[{name!r}] must be a positive number "
                    f"of milliseconds, got {value!r}")


@dataclass
class ClusterSpec(_SpecNode):
    """Supervision knobs nested inside :class:`ServeSpec`.

    Consumed by ``repro serve --workers N`` and
    :class:`repro.serving.cluster.Router`: the heartbeat liveness contract,
    the bounded exponential-backoff restart policy for crash-looping
    artifacts, and graceful degradation.  The fleet size is
    ``ServeSpec.workers``, fixed for the router's life.
    """

    #: Seconds between worker heartbeat frames.
    heartbeat_interval: float = _bounded(0.25, gt=0)
    #: Monitor declares a worker dead after this long without a heartbeat.
    heartbeat_timeout: float = 10.0
    #: Quick deaths tolerated per slot before the slot is abandoned.
    max_restart_attempts: int = _bounded(5, ge=1)
    #: A worker dying sooner than this after spawn counts as a quick death.
    min_worker_uptime: float = _bounded(1.0, ge=0)
    #: Restart backoff: ~base * 2^(failures-2) seconds with jitter, capped at
    #: max.  The first restart is immediate; backoff kicks in on repeats.
    restart_backoff_s: float = _bounded(0.1, ge=0)
    restart_backoff_max_s: float = 5.0
    #: While degraded (any slot abandoned/respawning), shed 'low'-priority
    #: requests at admission instead of queueing work the fleet cannot absorb.
    shed_low_priority: bool = True

    def _check(self) -> None:
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise ValueError(
                f"ClusterSpec.heartbeat_timeout must exceed heartbeat_interval "
                f"({self.heartbeat_interval}), got {self.heartbeat_timeout}")
        if self.restart_backoff_max_s < self.restart_backoff_s:
            raise ValueError(
                f"ClusterSpec.restart_backoff_max_s must be >= restart_backoff_s "
                f"({self.restart_backoff_s}), got {self.restart_backoff_max_s}")


@dataclass
class ServeSpec(_SpecNode):
    """Serving configuration baked into an artifact.

    The whole tree — this node plus its ``gateway`` / ``cluster`` children —
    is what :func:`repro.serving.build_target` turns into a running
    serving stack; ``repro serve`` applies its flags as a
    ``dataclasses.replace`` over it.  The ``requests`` / ``concurrency`` pair
    parameterizes the CLI's default load-generation run.
    """

    #: The most requests one micro-batch takes off the queue.
    max_batch_size: int = _bounded(8, ge=1)
    #: Bounded admission queue; beyond it requests are rejected.
    queue_capacity: int = _bounded(256, ge=1)
    #: Default load-generation volume of the `serve` CLI subcommand.
    requests: int = _bounded(64, ge=1)
    #: Default closed-loop client count of the `serve` CLI subcommand.
    concurrency: int = _bounded(8, ge=1)
    #: Worker processes; >1 serves through the multi-process cluster
    #: (repro.serving.cluster) instead of one in-process service, sharding
    #: load across cores.
    workers: int = _bounded(1, ge=1)
    #: Cluster routing policy (see repro.serving.cluster.available_routing_policies).
    routing: str = _bounded("round-robin", choices=ROUTING_POLICY_NAMES)
    #: Network gateway configuration (repro serve --gateway / GatewayServer).
    gateway: GatewaySpec = field(default_factory=GatewaySpec)
    #: Cluster supervision knobs (heartbeats, restart backoff, shedding)
    #: applied when workers > 1.
    cluster: ClusterSpec = field(default_factory=ClusterSpec)


@dataclass
class RunSpec(_SpecNode):
    """One end-to-end deployment run: prune → (finetune) → quantize → compile → evaluate."""

    #: Display name of the run; also the default artifact stem.
    name: str = _bounded("run", nonempty=True)
    #: Seeds the global ``repro.utils.rng`` stream, the pruner's ``seed``
    #: (unless ``framework.overrides`` sets one) and the engine measurement's
    #: input draw.  It does not seed the model weights: those come from the
    #: model config's own ``seed`` (``TinyDetectorConfig.seed`` = 29, YOLOv5
    #: 7, RetinaNet 11), which no registered model builder takes as an argument.
    seed: int = 0
    model: ModelSpec = field(default_factory=ModelSpec)
    framework: FrameworkSpec = field(default_factory=FrameworkSpec)
    quantization: QuantizationSpec = field(default_factory=QuantizationSpec)
    engine: EngineSpec = field(default_factory=EngineSpec)
    evaluation: EvaluationSpec = field(default_factory=EvaluationSpec)
    serve: ServeSpec = field(default_factory=ServeSpec)
    #: Where Pipeline.run() saves the DeployableArtifact; None skips saving
    #: unless the caller (e.g. the CLI) chooses a path.
    artifact_path: Optional[str] = None

    def _check(self) -> None:
        self.seed = int(self.seed)

    @classmethod
    def load(cls, path: str) -> "RunSpec":
        """Alias of :meth:`from_json_file` (the CLI's ``run --spec`` entry point)."""
        return cls.from_json_file(path)
