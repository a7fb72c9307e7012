"""Every dotted `repro.…` name the docs use still exists (``tools.docs_names``,
which ``make docs-check`` runs)."""

from __future__ import annotations

import pytest

from tools.docs_names import documented_names, resolves, stale_names


def test_every_documented_repro_name_resolves():
    assert len(documented_names()) > 10, "the scan found next to no names: is the pattern broken?"
    assert stale_names() == {}


def test_the_scan_reads_prose_code_spans_and_fenced_blocks(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text(
        "Prose names repro.nn.graph; a span names `repro.engine.trace.trace_graph`.\n"
        "```\n  trace computational graph          repro.nn.graph.trace\n```\n"
        "A path src/repro/nn is no name, nor is repro_engine_mode.\n")
    assert stale_names(tmp_path) == {"repro.nn.graph": ["README.md"],
                                     "repro.nn.graph.trace": ["README.md"]}


@pytest.mark.parametrize("name,expected", [
    ("repro.serving.cluster.fleet", True),                      # a module
    ("repro.serving.cluster.fleet.SlotTable.roll", True),       # attributes of one
    ("repro.serving.cluster.router.Router.swap_artifact", True),
    ("repro.pipeline.spec.ClusterSpec.heartbeat_interval", True),   # a field with a default
    ("repro.pipeline.spec.ServeSpec.cluster", True),            # ... built by default_factory
    ("repro.pipeline.spec.ServeSpec.cluster.heartbeat_interval", True),
    ("repro.serving.assembly.ServingStack.backend", True),
    ("repro.nonexistent", False),                               # no such module at all
    ("repro.pipeline.spec.ServeSpec.cluster.autoscaler", False),
    # Every name the fleet's fixed size deleted:
    ("repro.serving.elastic", False),                           # a deleted module
    ("repro.serving.elastic.Autoscaler", False),
    ("repro.serving.cluster.fleet.SlotTable.shrink", False),    # a deleted method
    ("repro.serving.cluster.fleet.SlotTable.next_slot", False),
    ("repro.serving.cluster.fleet.scale_decision", False),
    ("repro.serving.cluster.router.Router.add_worker", False),
    ("repro.serving.cluster.router.Router.remove_worker", False),
    ("repro.serving.cluster.metrics.ClusterMetrics.recent_p95_ms", False),
    ("repro.serving.assembly.ServingStack.autoscaler", False),
    ("repro.pipeline.spec.AutoscalerSpec", False),
    ("repro.pipeline.spec.ClusterSpec.autoscaler", False),
    # Algorithm 1 groups layers on the engine's op list; the second tracer is gone:
    ("repro.engine.trace.trace_graph", True),
    ("repro.core.dfs_grouping.conv_graph", True),
    ("repro.nn.graph", False),
    ("repro.nn.graph.ModelGraph", False),
    ("repro.nn.trace", False),
])
def test_the_resolver_tells_a_live_name_from_a_deleted_one(name, expected):
    assert resolves(name) is expected
