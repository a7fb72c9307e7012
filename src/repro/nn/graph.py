"""Computational-graph tracing at the module level.

Algorithm 1 of the paper derives parent→child layer couplings from the model's
computational graph (the paper obtains it "using the gradients obtained from
backpropagation"; any faithful connectivity record works).  Here the graph is
captured with forward hooks: every *leaf* module (a module without children, i.e.
Conv2d, BatchNorm2d, activations, Concat, Add, ...) is a node, and an edge A→B is
added whenever a tensor produced by A is consumed by B.

Both views are plain dicts in model order (``named_modules()`` order), so every
traversal over them is deterministic:

* :attr:`ModelGraph.successors` — the full leaf-module graph, each node's
  successors in the order their edges were first seen.
* :meth:`ModelGraph.conv_graph` — the projection onto Conv2d nodes only, where an
  edge means "the output of this convolution reaches that convolution without
  passing through another convolution".  This is the graph Algorithm 1 walks.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.nn.layers.conv import Conv2d
from repro.nn.module import Module
from repro.nn.tensor import Tensor


def _iter_tensors(value) -> Iterable[Tensor]:
    """Yield every Tensor contained in a (possibly nested) argument structure."""
    if isinstance(value, Tensor):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _iter_tensors(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _iter_tensors(item)


class ModelGraph:
    """Traced computational graph of a model.

    Parameters
    ----------
    model:
        The model whose graph was traced.
    successors:
        Leaf-module name → the leaf modules that consume its output, keyed in
        model order.
    """

    def __init__(self, model: Module, successors: Dict[str, List[str]]) -> None:
        self.model = model
        self.successors = successors

    def conv_layers(self) -> Dict[str, Conv2d]:
        """Mapping of qualified name → Conv2d for every traced convolution, in model order."""
        modules = dict(self.model.named_modules())
        return {name: modules[name] for name in self.successors
                if isinstance(modules[name], Conv2d)}

    def conv_graph(self) -> Dict[str, List[str]]:
        """Project the leaf-module graph onto convolution nodes, in model order.

        An edge conv_a → conv_b is added when there is a path from conv_a to conv_b
        in the leaf-module graph that does not pass through any other convolution.
        """
        convs = self.conv_layers()
        projected: Dict[str, List[str]] = {}
        for source in convs:
            # Search with a LIFO frontier that stops whenever another conv is
            # reached; ``visited`` admits every node once, so no edge repeats.
            reached = projected[source] = []
            frontier = list(self.successors[source])
            visited = set(frontier)
            while frontier:
                node = frontier.pop()
                if node in convs:
                    reached.append(node)
                    continue
                for successor in self.successors[node]:
                    if successor not in visited:
                        visited.add(successor)
                        frontier.append(successor)
        return projected


def _leaf_modules(model: Module) -> List[Tuple[str, Module]]:
    """Return (qualified name, module) for every module without children."""
    leaves = []
    for name, module in model.named_modules():
        if not name:
            continue
        if next(module.children(), None) is None:
            leaves.append((name, module))
    return leaves


def trace(model: Module, example_input: Tensor) -> ModelGraph:
    """Run ``model(example_input)`` once and record the leaf-module graph.

    The model is temporarily put in ``eval`` mode so that tracing has no side
    effects on BatchNorm running statistics.
    """
    producer_of: Dict[int, str] = {}
    removals = []
    was_training = model.training

    leaves = _leaf_modules(model)
    successors: Dict[str, List[str]] = {name: [] for name, _ in leaves}

    def find_producers(tensor: Tensor, visited: set) -> List[str]:
        """Producers of a tensor, walking through non-module ops (adds, concats,
        reshapes done with plain tensor operators) via the autograd parents."""
        if id(tensor) in visited:
            return []
        visited.add(id(tensor))
        direct = producer_of.get(id(tensor))
        if direct is not None:
            return [direct]
        producers: List[str] = []
        for parent in tensor._parents:
            producers.extend(find_producers(parent, visited))
        return producers

    def make_hook(name: str):
        def hook(module: Module, inputs, output) -> None:
            for tensor in _iter_tensors(inputs):
                for source in find_producers(tensor, set()):
                    if source != name and name not in successors[source]:
                        successors[source].append(name)
            for tensor in _iter_tensors(output):
                producer_of[id(tensor)] = name

        return hook

    try:
        model.eval()
        for name, module in leaves:
            removals.append(module.register_forward_hook(make_hook(name)))
        model(example_input)
    finally:
        for remove in removals:
            remove()
        model.train(was_training)

    return ModelGraph(model, successors)
