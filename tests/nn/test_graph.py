"""Graph tracing: edges between leaf modules and the conv-graph projection."""

import numpy as np

from repro.nn import functional as F
from repro.nn.graph import trace
from repro.nn.layers.activation import ReLU
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.merge import Concat
from repro.nn.layers.norm import BatchNorm2d
from repro.nn.module import Module, Sequential
from repro.nn.tensor import Tensor


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


def _input(size=16):
    return Tensor(np.zeros((1, 3, size, size), dtype=np.float32))


class TestTrace:
    def test_sequential_chain_edges(self):
        model = Sequential(Conv2d(3, 4, 3), BatchNorm2d(4), ReLU(), Conv2d(4, 2, 3))
        graph = trace(model, _input())
        assert "1" in graph.successors["0"]
        assert "2" in graph.successors["1"]
        assert "3" in graph.successors["2"]

    def test_conv_graph_skips_intermediate_modules(self):
        model = Sequential(Conv2d(3, 4, 3), BatchNorm2d(4), ReLU(), Conv2d(4, 2, 3))
        conv_graph = trace(model, _input()).conv_graph()
        assert "3" in conv_graph["0"]
        assert len(conv_graph) == 2

    def test_branching_model_edges(self):
        graph = trace(Branchy(), _input())
        conv_graph = graph.conv_graph()
        assert "branch_a" in conv_graph["conv1"]
        assert "branch_b" in conv_graph["conv1"]
        assert "conv_out" in conv_graph["branch_a"]
        assert "conv_out" in conv_graph["branch_b"]

    def test_conv_layers_mapping(self):
        graph = trace(Branchy(), _input())
        convs = graph.conv_layers()
        assert set(convs) == {"conv1", "branch_a", "branch_b", "conv_out"}
        assert all(isinstance(m, Conv2d) for m in convs.values())

    def test_roots_are_input_layers(self):
        conv_graph = trace(Branchy(), _input()).conv_graph()
        assert all("conv1" not in targets for targets in conv_graph.values())

    def test_trace_restores_training_mode(self):
        model = Branchy()
        model.train()
        trace(model, _input())
        assert model.training

    def test_trace_removes_hooks(self):
        model = Branchy()
        trace(model, _input())
        assert all(not m._forward_hooks for m in model.modules())

    def test_len_and_contains(self):
        graph = trace(Branchy(), _input())
        assert len(graph.successors) >= 5
        assert "conv1" in graph.successors

    def test_tiny_detector_graph(self, tiny_model, tiny_input):
        graph = trace(tiny_model, tiny_input)
        conv_graph = graph.conv_graph()
        # Every TinyDetector convolution is reached by the trace.
        assert len(conv_graph) == len(graph.conv_layers())
        assert sum(map(len, conv_graph.values())) >= len(conv_graph) - 1
