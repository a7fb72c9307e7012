"""Algorithm 1: parent-child layer grouping via depth-first search.

The paper reduces the cost of iterative pattern pruning by grouping layers: a DFS
over the model's computational graph assigns every convolution layer a *parent*;
the kernel patterns selected for the parent are shared with (re-used by) all its
children, so the expensive full pattern search runs only once per group.

Rules (Section IV.A):

* a layer with no convolutional predecessor becomes its own parent (a new group),
* otherwise the layer joins the group of the first parent found by the DFS,
* a parent can have many children but every child has exactly one parent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.nn.graph import ModelGraph, trace
from repro.nn.layers.conv import Conv2d
from repro.nn.module import Module
from repro.nn.tensor import Tensor


@dataclass
class LayerGroup:
    """One parent-child group of convolution layers."""

    parent: str
    children: List[str] = field(default_factory=list)

    @property
    def members(self) -> List[str]:
        """Parent first, then its children."""
        return [self.parent] + list(self.children)

    def __len__(self) -> int:
        return 1 + len(self.children)

    def __contains__(self, layer_name: str) -> bool:
        return layer_name == self.parent or layer_name in self.children


@dataclass
class GroupingResult:
    """Output of Algorithm 1: the list of groups plus convenience lookups."""

    groups: List[LayerGroup]
    parent_of: Dict[str, str]
    conv_layers: Dict[str, Conv2d]

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def num_layers(self) -> int:
        return len(self.parent_of)

    def summary(self) -> Dict[str, int]:
        return {
            "num_conv_layers": self.num_layers,
            "num_groups": self.num_groups,
            "largest_group": max((len(g) for g in self.groups), default=0),
        }


def group_layers_dfs(graph: ModelGraph) -> GroupingResult:
    """Run Algorithm 1 on a traced model graph."""
    conv_graph = graph.conv_graph()
    conv_layers = graph.conv_layers()

    parent_of: Dict[str, str] = {}
    groups: Dict[str, LayerGroup] = {}

    # Deterministic traversal order: depth-first from the graph roots, in the order
    # the layers appear in the model definition (``conv_graph`` is keyed in model
    # order, and so are the predecessor lists built from it).
    predecessors: Dict[str, List[str]] = {name: [] for name in conv_graph}
    for source, targets in conv_graph.items():
        for target in targets:
            predecessors[target].append(source)
    roots = [n for n in conv_graph if not predecessors[n]]
    visited: List[str] = []
    seen = set()

    def dfs(node: str) -> None:
        if node in seen:
            return
        seen.add(node)
        visited.append(node)
        for successor in conv_graph[node]:
            dfs(successor)

    for root in roots:
        dfs(root)
    # Any layer unreachable from a root (e.g. isolated or cyclic regions) still gets
    # processed so the grouping covers every convolution.
    for node in conv_graph:
        if node not in seen:
            dfs(node)

    for layer_name in visited:
        parents = [p for p in predecessors[layer_name] if p in parent_of]
        if not parents:
            # No convolutional parent: this layer opens its own group (lines 7-9).
            parent_of[layer_name] = layer_name
            groups[layer_name] = LayerGroup(layer_name)
        else:
            # Join the group of the first discovered parent (lines 5-6).  The parent
            # of the group is the root of that group, so pattern sharing cascades.
            direct_parent = parents[0]
            group_parent = parent_of[direct_parent]
            parent_of[layer_name] = group_parent
            groups[group_parent].children.append(layer_name)

    ordered_groups = [groups[name] for name in groups]
    return GroupingResult(ordered_groups, parent_of, conv_layers)


def group_model(model: Module, example_input: Tensor) -> GroupingResult:
    """Trace ``model`` with ``example_input`` and apply Algorithm 1."""
    graph = trace(model, example_input)
    return group_layers_dfs(graph)


def trivial_grouping(model: Module) -> GroupingResult:
    """Every convolution is its own parent (used by the DFS-ablation benchmark)."""
    conv_layers = {
        name: module for name, module in model.named_modules() if isinstance(module, Conv2d)
    }
    groups = [LayerGroup(name) for name in conv_layers]
    parent_of = {name: name for name in conv_layers}
    return GroupingResult(groups, parent_of, conv_layers)
