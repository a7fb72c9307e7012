"""Optimisers."""

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor


def _quadratic_step(param):
    """Loss = sum(param^2); gradient = 2 * param."""
    loss = (param * param).sum()
    param.grad = None
    loss.backward()
    return float(loss.data)


class TestAdam:
    def test_minimises_quadratic(self):
        p = Parameter(np.array([4.0, -4.0], dtype=np.float32))
        opt = Adam([p], lr=0.2)
        for _ in range(120):
            _quadratic_step(p)
            opt.step()
        assert (p.data**2).sum() < 2e-2

    def test_step_size_bounded_by_lr(self):
        p = Parameter(np.array([100.0], dtype=np.float32))
        opt = Adam([p], lr=0.1)
        _quadratic_step(p)
        before = p.data.copy()
        opt.step()
        assert abs(p.data[0] - before[0]) < 0.11


    def test_skips_parameters_without_gradients(self):
        p = Parameter(np.array([1.0], dtype=np.float32))
        Adam([p], lr=0.1).step()
        assert p.data[0] == 1.0

    def test_empty_parameter_list_raises(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)
