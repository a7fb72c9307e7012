"""RunSpec: declarative, serializable pipeline configuration."""

import dataclasses
import json

import pytest

from repro.pipeline import spec as spec_module
from repro.pipeline.spec import (
    ClusterSpec,
    EngineSpec,
    EvaluationSpec,
    FrameworkSpec,
    GatewaySpec,
    ModelSpec,
    QuantizationSpec,
    RunSpec,
    ServeSpec,
)

FULL_SPEC_DICT = {
    "name": "full",
    "seed": 11,
    "model": {"name": "tiny", "kwargs": {"num_classes": 3, "base_channels": 8}},
    "framework": {"name": "rtoss-2ep", "overrides": {"prune_pointwise": False},
                  "trace_size": 96},
    "quantization": {"enabled": True, "bits": 4, "skip_names": ["head"]},
    "engine": {"enabled": True, "measure": True,
               "image_size": 96, "batch": 4, "repeats": 2},
    "evaluation": {"enabled": True, "image_size": 96, "probe_size": 64,
                   "baseline_map": 55.5, "platforms": ["jetson_tx2"]},
    "serve": {"max_batch_size": 4, "queue_capacity": 32,
              "requests": 24, "concurrency": 3, "workers": 4,
              "routing": "least-outstanding",
              "gateway": {"host": "127.0.0.1", "port": 8707,
                          "rate_limit_rps": 500.0, "burst": 16,
                          "max_inflight_per_client": 32,
                          "slo_ms": {"high": 50.0, "normal": 200.0},
                          "max_frame_mb": 16.0},
              "cluster": {"heartbeat_interval": 0.1, "heartbeat_timeout": 3.0,
                          "max_restart_attempts": 2, "min_worker_uptime": 0.5,
                          "restart_backoff_s": 0.05,
                          "restart_backoff_max_s": 2.0,
                          "shed_low_priority": False}},
    "artifact_path": "artifacts/full.npz",
}


class TestDefaults:
    def test_default_spec_is_valid(self):
        spec = RunSpec()
        assert spec.model.name == "tiny"
        assert spec.framework.name == "rtoss-3ep"
        assert not spec.quantization.enabled
        assert spec.engine.enabled and spec.evaluation.enabled

    def test_sections_default_when_missing_from_dict(self):
        spec = RunSpec.from_dict({"name": "minimal"})
        assert spec.name == "minimal"
        assert spec.framework.trace_size == 64
        assert spec.quantization.bits == 8
        # The serving section carries usable policy defaults.
        assert spec.serve.max_batch_size == 8
        assert spec.serve.queue_capacity == 256


class TestRoundTrip:
    def test_dict_round_trip_is_lossless(self):
        spec = RunSpec.from_dict(FULL_SPEC_DICT)
        assert spec.to_dict() == RunSpec.from_dict(spec.to_dict()).to_dict()
        assert spec.to_dict() == FULL_SPEC_DICT

    def test_json_round_trip(self):
        spec = RunSpec.from_dict(FULL_SPEC_DICT)
        again = RunSpec.from_json(spec.to_json())
        assert again.to_dict() == spec.to_dict()
        # to_json emits plain JSON (lists, not tuples).
        assert json.loads(spec.to_json())["quantization"]["skip_names"] == ["head"]

    def test_file_round_trip(self, tmp_path):
        spec = RunSpec.from_dict(FULL_SPEC_DICT)
        path = spec.save(str(tmp_path / "spec.json"))
        assert RunSpec.load(path).to_dict() == spec.to_dict()

    def test_tuple_fields_coerced(self):
        spec = RunSpec.from_dict(FULL_SPEC_DICT)
        assert spec.quantization.skip_names == ("head",)
        assert spec.evaluation.platforms == ("jetson_tx2",)


class TestUnknownKeyRejection:
    def test_top_level_unknown_key(self):
        with pytest.raises(ValueError, match=r"RunSpec: unknown key\(s\) \['modle'\]"):
            RunSpec.from_dict({"modle": {"name": "tiny"}})

    def test_nested_unknown_key_names_section(self):
        cases = [({"framework": {"name": "rtoss-3ep", "entriess": 3}},
                  r"FrameworkSpec: unknown key\(s\) \['entriess'\]"),
                 # the int8 executor is gone, and so is its switch
                 ({"engine": {"int8": True}}, r"EngineSpec: unknown key\(s\) \['int8'\]"),
                 # the batcher is work-conserving: no coalescing wait to set
                 ({"serve": {"max_wait_ms": 2.0}},
                  r"ServeSpec: unknown key\(s\) \['max_wait_ms'\]"),
                 # the fleet keeps the size it was built with: no autoscaler
                 ({"serve": {"cluster": {"autoscaler": {}}}},
                  r"ClusterSpec: unknown key\(s\) \['autoscaler'\]")]
        for data, message in cases:
            with pytest.raises(ValueError, match=message):
                RunSpec.from_dict(data)

    def test_error_lists_allowed_keys(self):
        with pytest.raises(ValueError, match="allowed keys"):
            RunSpec.from_dict({"quantization": {"bitz": 8}})

    def test_non_mapping_section_rejected(self):
        with pytest.raises(ValueError, match="QuantizationSpec: expected a mapping"):
            RunSpec.from_dict({"quantization": True})

    def test_bare_string_for_list_field_rejected(self):
        # tuple("head") would silently become ('h','e','a','d') substrings.
        with pytest.raises(ValueError, match=r"skip_names must be a list"):
            QuantizationSpec(skip_names="head")
        with pytest.raises(ValueError, match=r"platforms must be a list"):
            EvaluationSpec(platforms="jetson_tx2")

    def test_wrong_typed_values_surface_as_value_error(self):
        # The documented contract is ValueError for any malformed spec data.
        with pytest.raises(ValueError, match="FrameworkSpec"):
            RunSpec.from_dict({"framework": {"trace_size": "64"}})
        with pytest.raises(ValueError, match="skip_names"):
            RunSpec.from_dict({"quantization": {"skip_names": 5}})


class TestValidation:
    def test_bits_validated(self):
        with pytest.raises(ValueError, match="bits"):
            QuantizationSpec(bits=3)

    def test_trace_size_validated(self):
        with pytest.raises(ValueError, match="trace_size"):
            FrameworkSpec(trace_size=8)

    def test_engine_batch_validated(self):
        with pytest.raises(ValueError, match="batch"):
            EngineSpec(batch=0)

    def test_serve_spec_validated(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            ServeSpec(max_batch_size=0)
        with pytest.raises(ValueError, match="queue_capacity"):
            ServeSpec(queue_capacity=0)
        with pytest.raises(ValueError, match="requests"):
            ServeSpec(requests=0)
        with pytest.raises(ValueError, match="concurrency"):
            ServeSpec(concurrency=-1)
        with pytest.raises(ValueError, match="workers"):
            ServeSpec(workers=0)
        with pytest.raises(ValueError, match="routing"):
            ServeSpec(routing="random")

    def test_serve_cluster_fields_round_trip_and_match_registry(self):
        spec = RunSpec.from_dict({"serve": {"workers": 4, "routing": "least-outstanding"}})
        assert spec.serve.workers == 4
        assert spec.serve.routing == "least-outstanding"
        assert RunSpec.from_dict(spec.to_dict()).serve.routing == "least-outstanding"
        # The serializable names must be exactly the implemented policies.
        from repro.pipeline.spec import ROUTING_POLICY_NAMES
        from repro.serving.cluster import available_routing_policies

        assert tuple(ROUTING_POLICY_NAMES) == available_routing_policies()
        # Default stays single-process so `repro serve` is cheap by default.
        assert ServeSpec().workers == 1 and ServeSpec().routing == "round-robin"

    def test_serve_unknown_key_rejected(self):
        with pytest.raises(ValueError, match=r"ServeSpec: unknown key\(s\) \['batchsize'\]"):
            RunSpec.from_dict({"serve": {"batchsize": 4}})

    def test_gateway_unknown_key_rejected_like_other_sections(self):
        with pytest.raises(ValueError, match=r"GatewaySpec: unknown key\(s\) \['prot'\]"):
            RunSpec.from_dict({"serve": {"gateway": {"prot": 8707}}})

    def test_gateway_round_trip(self):
        data = {"serve": {"gateway": {"port": 8707,
                                      "slo_ms": {"high": 25.0}}}}
        spec = RunSpec.from_dict(data)
        assert spec.serve.gateway.port == 8707
        assert spec.serve.gateway.slo_ms == {"high": 25.0}
        again = RunSpec.from_dict(spec.to_dict())
        assert again.serve.gateway.port == 8707
        assert again.to_dict() == spec.to_dict()
        # Defaults: ephemeral port, no rate limit.
        assert ServeSpec().gateway.port == 0
        assert ServeSpec().gateway.rate_limit_rps == 0.0

    def test_gateway_spec_validated(self):
        with pytest.raises(ValueError, match="port"):
            GatewaySpec(port=70000)
        with pytest.raises(ValueError, match="host"):
            GatewaySpec(host="")
        with pytest.raises(ValueError, match="rate_limit_rps"):
            GatewaySpec(rate_limit_rps=-1.0)
        with pytest.raises(ValueError, match="burst"):
            GatewaySpec(burst=0)
        with pytest.raises(ValueError, match="max_inflight_per_client"):
            GatewaySpec(max_inflight_per_client=0)
        with pytest.raises(ValueError, match="slo_ms"):
            GatewaySpec(slo_ms={"urgent": 10.0})
        with pytest.raises(ValueError, match="slo_ms"):
            GatewaySpec(slo_ms={"high": -5.0})
        with pytest.raises(ValueError, match="max_frame_mb"):
            GatewaySpec(max_frame_mb=0.0)

    def test_cluster_round_trip(self):
        data = {"serve": {"cluster": {"heartbeat_interval": 0.1,
                                      "heartbeat_timeout": 2.0,
                                      "max_restart_attempts": 7}}}
        spec = RunSpec.from_dict(data)
        assert spec.serve.cluster.heartbeat_interval == 0.1
        assert spec.serve.cluster.heartbeat_timeout == 2.0
        assert spec.serve.cluster.max_restart_attempts == 7
        again = RunSpec.from_dict(spec.to_dict())
        assert again.to_dict() == spec.to_dict()
        assert again.serve.cluster.max_restart_attempts == 7
        # Defaults: supervision on, shedding on.
        assert ServeSpec().cluster.shed_low_priority
        assert ServeSpec().cluster.max_restart_attempts == 5

    def test_cluster_unknown_key_rejected(self):
        with pytest.raises(ValueError,
                           match=r"ClusterSpec: unknown key\(s\) \['hartbeat'\]"):
            RunSpec.from_dict({"serve": {"cluster": {"hartbeat": 1.0}}})

    def test_a_spec_file_with_the_removed_chaos_node_is_refused(self):
        """Fault injection left the serving spec; an old spec that still
        carries a ``chaos`` node fails loudly instead of being ignored."""
        with pytest.raises(ValueError, match=r"ServeSpec: unknown key\(s\) \['chaos'\]"):
            RunSpec.from_dict({"serve": {"chaos": {}}})

    def test_cluster_spec_validated(self):
        from repro.pipeline.spec import ClusterSpec

        with pytest.raises(ValueError, match="heartbeat_interval"):
            ClusterSpec(heartbeat_interval=0.0)
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            ClusterSpec(heartbeat_interval=1.0, heartbeat_timeout=0.5)
        with pytest.raises(ValueError, match="max_restart_attempts"):
            ClusterSpec(max_restart_attempts=-1)
        with pytest.raises(ValueError, match="restart_backoff"):
            ClusterSpec(restart_backoff_s=-0.1)
        with pytest.raises(ValueError, match="restart_backoff_max_s"):
            ClusterSpec(restart_backoff_s=2.0, restart_backoff_max_s=1.0)

    def test_priority_classes_match_serving_registry(self):
        # The serializable names must be exactly the classes serving schedules.
        from repro.pipeline.spec import PRIORITY_CLASS_NAMES
        from repro.serving.api import PRIORITY_CLASSES

        assert tuple(PRIORITY_CLASS_NAMES) == tuple(PRIORITY_CLASSES)

    def test_evaluation_probe_validated(self):
        with pytest.raises(ValueError):
            EvaluationSpec(probe_size=8)

    def test_empty_model_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            ModelSpec(name="")

    def test_example_shape(self):
        assert FrameworkSpec(trace_size=96).example_shape() == (1, 3, 96, 96)


# ------------------------------------------------------------ declared bounds
#: (node, field, a value just inside the declared bound, one just outside).
#: Written out by hand — not derived from the declarations — so a bound that
#: drifts in spec.py fails here; `test_every_declared_rule_is_in_the_table`
#: keeps the table complete.
BOUNDS = [
    (ModelSpec, "name", "t", ""),
    (FrameworkSpec, "name", "n", ""),
    (FrameworkSpec, "trace_size", 32, 31),
    (QuantizationSpec, "bits", 16, 15),
    (EngineSpec, "image_size", 32, 31),
    (EngineSpec, "batch", 1, 0),
    (EngineSpec, "repeats", 1, 0),
    (EvaluationSpec, "image_size", 32, 31),
    (EvaluationSpec, "probe_size", 32, 31),
    (GatewaySpec, "host", "h", ""),
    (GatewaySpec, "port", 0, -1),
    (GatewaySpec, "port", 65535, 65536),
    (GatewaySpec, "rate_limit_rps", 0.0, -0.001),
    (GatewaySpec, "burst", 1, 0),
    (GatewaySpec, "max_inflight_per_client", 1, 0),
    (GatewaySpec, "max_frame_mb", 0.001, 0.0),
    (ClusterSpec, "heartbeat_interval", 0.001, 0.0),
    (ClusterSpec, "max_restart_attempts", 1, 0),
    (ClusterSpec, "min_worker_uptime", 0.0, -0.001),
    (ClusterSpec, "restart_backoff_s", 0.0, -0.001),
    (ServeSpec, "max_batch_size", 1, 0),
    (ServeSpec, "queue_capacity", 1, 0),
    (ServeSpec, "requests", 1, 0),
    (ServeSpec, "concurrency", 1, 0),
    (ServeSpec, "workers", 1, 0),
    (ServeSpec, "routing", "least-outstanding", "random"),
    (RunSpec, "name", "r", ""),
]

#: Cross-field rules: (node, the field the error names, accepted, rejected).
CROSS_FIELD = [
    (ClusterSpec, "heartbeat_timeout",
     dict(heartbeat_interval=1.0, heartbeat_timeout=1.001),
     dict(heartbeat_interval=1.0, heartbeat_timeout=1.0)),
    (ClusterSpec, "restart_backoff_max_s",
     dict(restart_backoff_s=2.0, restart_backoff_max_s=2.0),
     dict(restart_backoff_s=2.0, restart_backoff_max_s=1.999)),
    (GatewaySpec, "slo_ms",
     dict(slo_ms={"low": 0.001}), dict(slo_ms={"low": 0.0})),
]

SPEC_NODES = [ModelSpec, FrameworkSpec, QuantizationSpec, EngineSpec, EvaluationSpec,
              GatewaySpec, ClusterSpec, ServeSpec, RunSpec]


class TestDeclaredBounds:
    @pytest.mark.parametrize(
        "node,name,inside,outside", BOUNDS,
        ids=[f"{node.__name__}.{name}={outside!r}" for node, name, _, outside in BOUNDS])
    def test_each_bound_admits_its_edge_and_rejects_the_next_value(
            self, node, name, inside, outside):
        assert getattr(node(**{name: inside}), name) == inside
        with pytest.raises(ValueError, match=rf"{node.__name__}\.{name} must"):
            node(**{name: outside})
        # The same rejection through the dict/JSON entry point.
        with pytest.raises(ValueError, match=rf"{node.__name__}\.{name} must"):
            node.from_dict({name: outside})

    @pytest.mark.parametrize(
        "node,name,accepted,rejected", CROSS_FIELD,
        ids=[f"{node.__name__}.{name}" for node, name, _, _ in CROSS_FIELD])
    def test_cross_field_rules(self, node, name, accepted, rejected):
        node(**accepted)
        with pytest.raises(ValueError, match=rf"{node.__name__}\.{name}"):
            node(**rejected)

    def test_every_declared_rule_is_in_the_table(self):
        declared = {(node, spec_field.name, rule)
                    for node in SPEC_NODES
                    for spec_field in dataclasses.fields(node)
                    for rule in spec_field.metadata}
        tabled = set()
        for node, name, _, outside in BOUNDS:
            metadata = next(f.metadata for f in dataclasses.fields(node) if f.name == name)
            # The rule an outside value breaks is the one the row covers.
            for rule, bound in metadata.items():
                holds = spec_module._RULES[rule][0]
                if not holds(outside, bound):
                    tabled.add((node, name, rule))
        assert declared == tabled

    def test_spec_nodes_list_is_complete(self):
        nodes = {value for value in vars(spec_module).values()
                 if isinstance(value, type)
                 and issubclass(value, spec_module._SpecNode)
                 and value is not spec_module._SpecNode}
        assert nodes == set(SPEC_NODES)

    def test_wrong_typed_value_names_the_field(self):
        with pytest.raises(ValueError, match=r"ServeSpec\.max_batch_size"):
            ServeSpec(max_batch_size="4")
        with pytest.raises(ValueError, match=r"ClusterSpec\.restart_backoff_s"):
            ClusterSpec(restart_backoff_s=None)


class TestEveryNodeRoundTrips:
    @pytest.mark.parametrize("node", SPEC_NODES, ids=lambda node: node.__name__)
    def test_defaults_round_trip(self, node):
        spec = node()
        assert node.from_dict(spec.to_dict()) == spec
        assert node.from_json(spec.to_json()) == spec

    def test_non_default_tree_round_trips_node_by_node(self):
        run = RunSpec.from_dict(FULL_SPEC_DICT)
        nodes = [run, run.model, run.framework, run.quantization, run.engine,
                 run.evaluation, run.serve, run.serve.gateway, run.serve.cluster]
        assert {type(node) for node in nodes} == set(SPEC_NODES)
        for node in nodes:
            assert type(node).from_dict(node.to_dict()) == node
