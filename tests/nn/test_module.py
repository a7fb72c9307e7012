"""Module system: registration, traversal, state dicts, hooks, containers."""

import numpy as np
import pytest

from repro.nn.layers.activation import ReLU
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.linear import Linear
from repro.nn.layers.norm import BatchNorm2d
from repro.nn.module import Identity, Module, ModuleList, Parameter, Sequential
from repro.nn.tensor import Tensor


class SmallNet(Module):
    def __init__(self):
        super().__init__()
        self.conv = Conv2d(3, 4, 3)
        self.bn = BatchNorm2d(4)
        self.act = ReLU()
        self.head = Linear(4, 2)

    def forward(self, x):
        x = self.act(self.bn(self.conv(x)))
        return self.head(x.mean(axis=(2, 3)))


class TestRegistration:
    def test_parameters_discovered_recursively(self):
        net = SmallNet()
        names = dict(net.named_parameters())
        assert "conv.weight" in names and "bn.weight" in names and "head.bias" in names

    def test_num_parameters(self):
        net = SmallNet()
        expected = 4 * 3 * 9 + 4 + 4 + 4 + 4 * 2 + 2   # conv w+b, bn w+b, linear w+b
        assert net.num_parameters() == expected

    def test_buffers_registered(self):
        net = SmallNet()
        buffers = dict(net.named_buffers())
        assert "bn.running_mean" in buffers and "bn.running_var" in buffers

    def test_named_modules_paths(self):
        net = SmallNet()
        names = [name for name, _ in net.named_modules()]
        assert "" in names and "conv" in names and "bn" in names

    def test_train_eval_propagates(self):
        net = SmallNet()
        net.eval()
        assert not net.bn.training
        net.train()
        assert net.bn.training

    def test_zero_grad(self):
        net = SmallNet()
        for p in net.parameters():
            p.grad = np.ones_like(p.data)
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())

    def test_apply_visits_all_modules(self):
        net = SmallNet()
        visited = []
        net.apply(lambda m: visited.append(type(m).__name__))
        assert "Conv2d" in visited and "SmallNet" in visited


class TestStateDict:
    def test_roundtrip(self):
        net = SmallNet()
        state = net.state_dict()
        other = SmallNet()
        other.load_state_dict(state)
        np.testing.assert_allclose(other.conv.weight.data, net.conv.weight.data)
        np.testing.assert_allclose(other.bn.running_mean, net.bn.running_mean)

    def test_shape_mismatch_raises(self):
        net = SmallNet()
        state = net.state_dict()
        state["conv.weight"] = np.zeros((1, 1, 1, 1), dtype=np.float32)
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_unknown_key_strict(self):
        net = SmallNet()
        state = net.state_dict()
        state["not.a.parameter"] = np.zeros(3)
        with pytest.raises(KeyError):
            net.load_state_dict(state)
        net.load_state_dict(state, strict=False)   # tolerated when not strict

    def test_state_dict_is_a_copy(self):
        net = SmallNet()
        state = net.state_dict()
        state["conv.weight"][...] = 0
        assert np.abs(net.conv.weight.data).sum() > 0


class TestHooks:
    def test_forward_hook_called_and_removable(self, tiny_input):
        net = SmallNet()
        calls = []
        remove = net.conv.register_forward_hook(lambda m, i, o: calls.append(o.shape))
        net(Tensor(np.zeros((1, 3, 8, 8), dtype=np.float32)))
        assert len(calls) == 1
        remove()
        net(Tensor(np.zeros((1, 3, 8, 8), dtype=np.float32)))
        assert len(calls) == 1


class TestContainers:
    def test_sequential_order_and_indexing(self):
        seq = Sequential(Conv2d(3, 4, 3), ReLU(), Conv2d(4, 2, 1, padding=0))
        assert len(seq) == 3
        assert isinstance(seq[1], ReLU)
        out = seq(Tensor(np.zeros((1, 3, 8, 8), dtype=np.float32)))
        assert out.shape == (1, 2, 8, 8)

    def test_sequential_append(self):
        seq = Sequential(ReLU())
        seq.append(ReLU())
        assert len(seq) == 2

    def test_module_list_registers_parameters(self):
        ml = ModuleList([Conv2d(1, 1, 3), Conv2d(1, 1, 3)])
        assert len(list(ml.parameters())) == 4
        assert len(ml) == 2
        with pytest.raises(RuntimeError):
            ml(Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32)))

    def test_identity(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32))
        assert Identity()(x) is x

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(Tensor(np.zeros(1, dtype=np.float32)))


class TestParameter:
    def test_parameter_requires_grad_by_default(self):
        p = Parameter(np.zeros(3))
        assert p.requires_grad
