"""Algorithm 1: parent-child layer grouping via depth-first search.

The paper reduces the cost of iterative pattern pruning by grouping layers: a DFS
over the model's computational graph assigns every convolution layer a *parent*;
the kernel patterns selected for the parent are shared with (re-used by) all its
children, so the expensive full pattern search runs only once per group.

Rules (Section IV.A):

* a layer with no convolutional predecessor becomes its own parent (a new group),
* otherwise the layer joins the group of the first parent found by the DFS,
* a parent can have many children but every child has exactly one parent.

The computational graph is the engine's traced op list
(:func:`repro.engine.trace.trace_graph`, one forward pass; the paper obtains it
"using the gradients obtained from backpropagation", any faithful connectivity
record works).  Every op that ran a leaf module is a node; the glue ops between
modules (``ewise``, ``getitem``, ``concat``, ...) are walked through to the
leaf producers of each input.  A tensor no recorded op produced (any op outside
the patched glue: ``.reshape``, ``.transpose``, ``F.relu``, ...) is an
input-less ``opaque`` node, where that walk stops: a conv reached only through
such an op opens its own group, and :func:`group_model` logs a warning naming it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.engine.trace import GraphPlan, OpNode, trace_graph
from repro.nn.layers.conv import Conv2d
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.utils.logging import get_logger

#: The :func:`leaf_successors` key listing the leaves that read an ``opaque`` tensor.
UNRECORDED = "<unrecorded>"


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


def leaf_successors(graph: GraphPlan) -> Dict[str, List[str]]:
    """Leaf-module name → the leaf modules that consume its output, each list
    in the order its edges were first seen (op order), plus :data:`UNRECORDED`."""
    producer: Dict[int, OpNode] = {}
    successors: Dict[str, List[str]] = {}

    def leaf_producers(slot: int, visited: set) -> List[str]:
        # The model input has no leaf producer; an opaque node stands for one.
        if slot in visited or slot not in producer:
            return []
        visited.add(slot)
        node = producer[slot]
        if node.module is not None or node.kind == "opaque":
            return [UNRECORDED if node.module is None else node.name]
        return [name for source in node.inputs for name in leaf_producers(source, visited)]

    for node in graph.ops:
        if node.module is not None:
            for slot in node.inputs:
                for source in leaf_producers(slot, set()):
                    targets = successors.setdefault(source, [])
                    if source != node.name and node.name not in targets:
                        targets.append(node.name)
        for slot in node.outputs:
            producer[slot] = node
    return successors


def conv_layers_of(model: Module) -> Dict[str, Conv2d]:
    """Qualified name → Conv2d for every convolution of ``model``, in model order."""
    return {name: module for name, module in model.named_modules() if isinstance(module, Conv2d)}


def conv_graph(model: Module, graph: GraphPlan) -> Dict[str, List[str]]:
    """Project the leaf-module graph onto convolutions, keyed in model order.

    An edge conv_a → conv_b is added when there is a path from conv_a to conv_b
    in the leaf-module graph that does not pass through any other convolution.
    """
    convs = conv_layers_of(model)
    successors = leaf_successors(graph)
    projected: Dict[str, List[str]] = {}
    for source in convs:
        # Search with a LIFO frontier that stops whenever another conv is
        # reached; ``visited`` admits every node once, so no edge repeats.
        reached = projected[source] = []
        frontier = list(successors.get(source, ()))
        visited = set(frontier)
        while frontier:
            node = frontier.pop()
            if node in convs:
                reached.append(node)
                continue
            for successor in successors.get(node, ()):
                if successor not in visited:
                    visited.add(successor)
                    frontier.append(successor)
    return projected


def group_layers_dfs(model: Module, graph: GraphPlan) -> GroupingResult:
    """Run Algorithm 1 on ``model``'s traced op list."""
    edges = conv_graph(model, graph)
    conv_layers = conv_layers_of(model)

    parent_of: Dict[str, str] = {}
    groups: Dict[str, LayerGroup] = {}

    # Deterministic traversal order: depth-first from the graph roots, in the order
    # the layers appear in the model definition (``edges`` is keyed in model
    # order, and so are the predecessor lists built from it).
    predecessors: Dict[str, List[str]] = {name: [] for name in edges}
    for source, targets in edges.items():
        for target in targets:
            predecessors[target].append(source)
    roots = [n for n in edges if not predecessors[n]]
    visited: List[str] = []
    seen = set()

    def dfs(node: str) -> None:
        if node in seen:
            return
        seen.add(node)
        visited.append(node)
        for successor in edges[node]:
            dfs(successor)

    for root in roots:
        dfs(root)
    # Any layer unreachable from a root (e.g. isolated or cyclic regions) still gets
    # processed so the grouping covers every convolution.
    for node in edges:
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
    graph = trace_graph(model, example_input.data)
    convs = conv_layers_of(model)
    cut = [name for name in leaf_successors(graph).get(UNRECORDED, ()) if name in convs]
    if cut:
        get_logger("core.dfs_grouping").warning(
            "Algorithm 1 sees no producer: %s read a tensor no recorded op made", ", ".join(cut))
    return group_layers_dfs(model, graph)


def trivial_grouping(model: Module) -> GroupingResult:
    """Every convolution is its own parent (used by the DFS-ablation benchmark)."""
    conv_layers = conv_layers_of(model)
    groups = [LayerGroup(name) for name in conv_layers]
    parent_of = {name: name for name in conv_layers}
    return GroupingResult(groups, parent_of, conv_layers)
