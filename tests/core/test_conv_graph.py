"""Algorithm 1's computational graph: leaf-module edges read off the engine's
traced op list, their projection onto convolutions, and the grouping pinned
per registry model."""

import json
import logging
from pathlib import Path

import numpy as np
import pytest

from repro.core.dfs_grouping import (UNRECORDED, conv_graph, conv_layers_of,
                                     group_layers_dfs, group_model, leaf_successors)
from repro.engine import compile_model
from repro.engine.trace import trace_graph
from repro.models import available_models, build_model
from repro.nn import functional as F
from repro.nn.layers.activation import ReLU
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.merge import Concat
from repro.nn.layers.norm import BatchNorm2d
from repro.nn.module import Module, Sequential
from repro.nn.tensor import Tensor

PINS = json.loads((Path(__file__).parent / "data" / "registry_grouping_64px.json").read_text())


class Branchy(Module):
    """conv1 feeds two branches that are concatenated and consumed by conv_out."""

    def __init__(self):
        super().__init__()
        self.conv1 = Conv2d(3, 4, 3)
        self.branch_a = Conv2d(4, 4, 3)
        self.branch_b = Conv2d(4, 4, 1, padding=0)
        self.concat = Concat()
        self.conv_out = Conv2d(8, 2, 1, padding=0)

    def forward(self, x):
        x = self.conv1(x)
        return self.conv_out(self.concat([self.branch_a(x), self.branch_b(x)]))


class Reshaped(Module):
    """conv1 reaches conv2 only through ``.reshape``, an op the tracer does not record."""

    def __init__(self):
        super().__init__()
        self.conv1 = Conv2d(3, 4, 3)
        self.conv2 = Conv2d(4, 2, 3)

    def forward(self, x):
        y = self.conv1(x)
        return self.conv2(y.reshape(*y.shape))


def _input(size=16):
    return np.zeros((1, 3, size, size), dtype=np.float32)


def _chain():
    return Sequential(Conv2d(3, 4, 3), BatchNorm2d(4), ReLU(), Conv2d(4, 2, 3))


def _groups(result):
    return [(group.parent, group.children) for group in result.groups]


class TestTrace:
    def test_sequential_chain_edges(self):
        successors = leaf_successors(trace_graph(_chain(), _input()))
        assert "1" in successors["0"]
        assert "2" in successors["1"]
        assert "3" in successors["2"]

    def test_conv_graph_skips_intermediate_modules(self):
        model = _chain()
        edges = conv_graph(model, trace_graph(model, _input()))
        assert "3" in edges["0"]
        assert len(edges) == 2

    def test_branching_model_edges(self):
        model = Branchy()
        edges = conv_graph(model, trace_graph(model, _input()))
        assert "branch_a" in edges["conv1"]
        assert "branch_b" in edges["conv1"]
        assert "conv_out" in edges["branch_a"]
        assert "conv_out" in edges["branch_b"]

    def test_conv_layers_mapping(self):
        convs = conv_layers_of(Branchy())
        assert list(convs) == ["conv1", "branch_a", "branch_b", "conv_out"]
        assert all(isinstance(m, Conv2d) for m in convs.values())

    def test_roots_are_input_layers(self):
        model = Branchy()
        edges = conv_graph(model, trace_graph(model, _input()))
        assert all("conv1" not in targets for targets in edges.values())

    def test_trace_restores_training_mode(self):
        model = Branchy()
        model.train()
        trace_graph(model, _input())
        assert model.training

    def test_trace_restores_every_leaf_forward(self):
        model = Branchy()
        trace_graph(model, _input())
        assert all("forward" not in m.__dict__ for m in model.modules())

    def test_len_and_contains(self):
        graph = trace_graph(Branchy(), _input())
        assert len(graph) >= 5
        assert "conv1" in leaf_successors(graph)

    def test_tiny_detector_graph(self, tiny_model, tiny_input):
        edges = conv_graph(tiny_model, trace_graph(tiny_model, tiny_input.data))
        # Every TinyDetector convolution is reached by the trace.
        assert len(edges) == len(conv_layers_of(tiny_model))
        assert sum(map(len, edges.values())) >= len(edges) - 1


class TestGroupingPins:
    """Algorithm 1's groups (parents, children order) and ``parent_of``: the
    pattern search of every child follows its parent, so a changed grouping
    changes the masks."""

    def test_branchy(self):
        result = group_model(Branchy(), Tensor(_input()))
        assert _groups(result) == [("conv1", ["branch_b", "conv_out", "branch_a"])]
        assert list(result.parent_of.items()) == [
            ("conv1", "conv1"), ("branch_b", "conv1"), ("conv_out", "conv1"),
            ("branch_a", "conv1")]

    @pytest.mark.parametrize("name", available_models())
    def test_registry_model_at_64px(self, name):
        model = build_model(name)
        graph = trace_graph(model, _input(64))
        result = group_layers_dfs(model, graph)
        # No registry conv reads a tensor the walk cannot follow back
        # (``detr*``'s opaque tokens feed LayerNorms, not convs).
        assert not set(leaf_successors(graph).get(UNRECORDED, ())) & set(conv_layers_of(model))
        pin = PINS[name]
        assert [[parent, children] for parent, children in _groups(result)] == pin["groups"]
        assert [list(item) for item in result.parent_of.items()] == pin["parent_of"]


@pytest.mark.parametrize("inline", [
    lambda y: y.transpose(0, 1, 2, 3), lambda y: F.relu(y), lambda y: F.max_pool2d(y, 2)],
    ids=["transpose", "relu", "max_pool2d"])
def test_any_op_outside_the_traced_glue_cuts_the_walk(inline):
    """Not only ``.reshape``: every op the tracer does not patch yields an
    opaque tensor, and the conv behind it is named."""

    class Inline(Module):
        def __init__(self):
            super().__init__()
            self.conv1 = Conv2d(3, 4, 3)
            self.conv2 = Conv2d(4, 2, 3)

        def forward(self, x):
            return self.conv2(inline(self.conv1(x)) * 1.0)

    model = Inline()
    graph = trace_graph(model, _input())
    assert leaf_successors(graph)[UNRECORDED] == ["conv2"]
    assert _groups(group_layers_dfs(model, graph)) == [("conv1", []), ("conv2", [])]


def test_a_conv_reached_only_through_an_unrecorded_op_opens_its_own_group():
    """The op list records no ``.reshape``: conv2's input is an input-less
    ``opaque`` node, so the walk back from conv2 finds no producer, and the
    fusion pass names conv2 as the op it cannot lower."""
    model = Reshaped()
    records = []
    handler = logging.Handler(level=logging.WARNING)
    handler.emit = records.append
    logger = logging.getLogger("repro.core.dfs_grouping")
    logger.addHandler(handler)
    try:
        result = group_model(model, Tensor(_input()))
    finally:
        logger.removeHandler(handler)
    assert _groups(result) == [("conv1", []), ("conv2", [])]
    # The cut edge is not silent: group_model names the conv it affects.
    assert len(records) == 1 and "conv2 read a tensor" in records[0].getMessage()

    compiled = compile_model(model)
    compiled.forward_raw(_input())
    assert compiled.engine_mode == "eager"
    assert compiled.fuse_failure == "conv2: consumes a tensor no recorded op produced"
