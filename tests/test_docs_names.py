"""Every `repro.…` name the docs put in backticks still exists.

A deletion that leaves its name in ``README.md`` or ``docs/*.md`` sends a
reader to a module or attribute that is gone.  This guard collects each inline
code span that starts with a dotted ``repro.`` name (fenced blocks are
skipped: they hold commands and sample sessions, not references) and checks
that the name imports as a module or resolves as an attribute of one.
"""

from __future__ import annotations

import dataclasses
import importlib
import re
import typing
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FENCE = re.compile(r"^```.*?^```", re.S | re.M)
NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)")


def documented_names():
    """``{name: [file, ...]}`` for every backticked dotted ``repro.`` name."""
    names = {}
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        text = FENCE.sub("", path.read_text(encoding="utf-8"))
        for name in NAME.findall(text):
            names.setdefault(name, []).append(path.relative_to(ROOT).as_posix())
    return names


def resolves(name: str) -> bool:
    """The longest importable prefix of ``name``, then attributes for the rest.

    A dataclass field built by ``default_factory`` is no class attribute, so
    it resolves through the class's fields, to its annotated type.
    """
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[cut:]:
            if hasattr(target, attribute):
                target = getattr(target, attribute)
            elif isinstance(target, type) and dataclasses.is_dataclass(target) and any(
                    spec_field.name == attribute for spec_field in dataclasses.fields(target)):
                target = typing.get_type_hints(target)[attribute]
            else:
                return False
        return True
    return False


def test_every_documented_repro_name_resolves():
    names = documented_names()
    assert len(names) > 10, "the scan found next to no names: is the pattern broken?"
    stale = {name: sorted(set(files)) for name, files in names.items() if not resolves(name)}
    assert stale == {}


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
])
def test_the_resolver_tells_a_live_name_from_a_deleted_one(name, expected):
    assert resolves(name) is expected
