"""Tensor autograd: arithmetic, broadcasting, reductions, gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.tensor import Tensor, as_tensor, ones, randn, zeros


def numeric_gradient(fn, x, index, eps=1e-3):
    """Central-difference gradient of scalar fn wrt x[index]."""
    original = x.data[index]
    x.data[index] = original + eps
    upper = fn()
    x.data[index] = original - eps
    lower = fn()
    x.data[index] = original
    return (upper - lower) / (2 * eps)


class TestBasics:
    def test_construction_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.dtype == np.float32

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_zeros_ones_randn(self):
        assert zeros((2, 3)).data.sum() == 0
        assert ones((2, 3)).data.sum() == 6
        assert randn((4, 4)).shape == (4, 4)

    def test_detach_cuts_graph(self):
        x = Tensor([2.0], requires_grad=True)
        y = (x * 3).detach()
        assert not y.requires_grad

    def test_item_and_len(self):
        assert Tensor([5.0]).item() == 5.0
        assert len(Tensor([1.0, 2.0])) == 2


class TestArithmetic:
    def test_add_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, [1, 1])
        np.testing.assert_allclose(b.grad, [1, 1])

    def test_mul_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [3, 4])
        np.testing.assert_allclose(b.grad, [1, 2])

    def test_sub_and_neg(self):
        a = Tensor([5.0], requires_grad=True)
        (-(a - 2.0)).sum().backward()
        np.testing.assert_allclose(a.grad, [-1.0])

    def test_div_backward(self):
        a = Tensor([4.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a / b).sum().backward()
        np.testing.assert_allclose(a.grad, [0.5])
        np.testing.assert_allclose(b.grad, [-1.0])

    def test_pow_backward(self):
        a = Tensor([3.0], requires_grad=True)
        (a**2).sum().backward()
        np.testing.assert_allclose(a.grad, [6.0])

    def test_rsub_rdiv(self):
        a = Tensor([2.0], requires_grad=True)
        np.testing.assert_allclose((1.0 - a).data, [-1.0])
        np.testing.assert_allclose((4.0 / a).data, [2.0])

    def test_broadcast_add_unbroadcasts_gradient(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((3,)), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (3,)
        np.testing.assert_allclose(b.grad, [2, 2, 2])

    def test_matmul_backward_matches_numeric(self):
        a = Tensor(np.random.default_rng(0).standard_normal((3, 4)).astype(np.float32),
                   requires_grad=True)
        b = Tensor(np.random.default_rng(1).standard_normal((4, 2)).astype(np.float32),
                   requires_grad=True)
        (a @ b).sum().backward()
        numeric = numeric_gradient(lambda: float((a.data @ b.data).sum()), a, (1, 2))
        assert abs(numeric - a.grad[1, 2]) < 1e-2

    def test_gradient_accumulates_across_uses(self):
        a = Tensor([2.0], requires_grad=True)
        (a * a).sum().backward()
        np.testing.assert_allclose(a.grad, [4.0])


class TestShapeOps:
    def test_reshape_backward(self):
        a = Tensor(np.arange(6, dtype=np.float32), requires_grad=True)
        a.reshape(2, 3).sum().backward()
        assert a.grad.shape == (6,)

    def test_transpose_roundtrip(self):
        a = Tensor(np.random.default_rng(0).standard_normal((2, 3, 4)).astype(np.float32))
        assert a.transpose(2, 0, 1).transpose(1, 2, 0).shape == a.shape

    def test_transpose_backward(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        a.transpose().sum().backward()
        assert a.grad.shape == (2, 3)

    def test_getitem_backward_scatters(self):
        a = Tensor(np.arange(10, dtype=np.float32), requires_grad=True)
        a[2:5].sum().backward()
        expected = np.zeros(10)
        expected[2:5] = 1
        np.testing.assert_allclose(a.grad, expected)


class TestReductions:
    def test_sum_axis_keepdims(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))

    def test_mean_backward(self):
        a = Tensor(np.ones((4,)), requires_grad=True)
        a.mean().backward()
        np.testing.assert_allclose(a.grad, np.full(4, 0.25))

    def test_max_backward_routes_to_argmax(self):
        a = Tensor([1.0, 5.0, 3.0], requires_grad=True)
        a.max().backward()
        np.testing.assert_allclose(a.grad, [0, 1, 0])

    def test_max_ties_split_gradient(self):
        a = Tensor([2.0, 2.0], requires_grad=True)
        a.max().backward()
        assert abs(a.grad.sum() - 1.0) < 1e-6


class TestElementwiseMath:
    @pytest.mark.parametrize("op,derivative", [
        ("exp", lambda x: np.exp(x)),
        ("log", lambda x: 1.0 / x),
        ("sqrt", lambda x: 0.5 / np.sqrt(x)),
        ("abs", lambda x: np.sign(x)),
    ])
    def test_unary_gradients(self, op, derivative):
        x = np.array([0.5, 1.5, 2.5], dtype=np.float32)
        t = Tensor(x, requires_grad=True)
        getattr(t, op)().sum().backward()
        np.testing.assert_allclose(t.grad, derivative(x), rtol=1e-4)

    def test_clip_gradient_zero_outside(self):
        t = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        t.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(t.grad, [0, 1, 0])


class TestHypothesisProperties:
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_sum_matches_numpy(self, values):
        t = Tensor(values)
        assert np.isclose(t.sum().item(), np.float32(np.asarray(values, dtype=np.float32).sum()),
                          rtol=1e-4, atol=1e-4)

    @given(st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_add_commutative(self, rows, cols):
        rng = np.random.default_rng(rows * 10 + cols)
        a = Tensor(rng.standard_normal((rows, cols)).astype(np.float32))
        b = Tensor(rng.standard_normal((rows, cols)).astype(np.float32))
        np.testing.assert_allclose((a + b).data, (b + a).data)

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_matmul_shape(self, n, k, m):
        a = Tensor(np.zeros((n, k), dtype=np.float32))
        b = Tensor(np.zeros((k, m), dtype=np.float32))
        assert (a @ b).shape == (n, m)


class TestBackwardWalk:
    """``backward`` walks the tape without recursion and leaves no cycle behind."""

    def test_a_chain_of_3000_additions_backpropagates(self):
        x = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.sum().backward()
        np.testing.assert_array_equal(x.grad, [1.0, 1.0])

    def test_the_tape_is_freed_without_the_cycle_collector(self):
        import gc
        import weakref

        enabled = gc.isenabled()
        gc.disable()
        try:
            x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
            hidden = x * 2.0 + x
            alive = weakref.ref(hidden.data)      # Tensor has __slots__; its array does not
            loss = hidden.sum()
            del hidden
            loss.backward()
            del loss
            assert alive() is None, "the tape outlived its last reference"
        finally:
            if enabled:
                gc.enable()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("+*-"), st.integers(0, 40), st.integers(0, 40)),
                    min_size=1, max_size=30))
    def test_gradients_flow_in_the_recursive_post_order(self, ops):
        """Nodes run their backward in reverse depth-first post-order over
        ``_parents`` -- the order gradient sums were always added in."""
        nodes = [Tensor(np.full(2, float(i + 1), np.float32), requires_grad=True)
                 for i in range(3)]
        for op, a, b in ops:
            left, right = nodes[a % len(nodes)], nodes[b % len(nodes)]
            nodes.append({"+": left.__add__, "*": left.__mul__, "-": left.__sub__}[op](right))
        root = nodes[-1]

        expected, seen = [], set()

        def visit(node):
            if id(node) in seen or not node.requires_grad:
                return
            seen.add(id(node))
            for parent in node._parents:
                visit(parent)
            expected.append(node)

        visit(root)
        ran = []
        for node in nodes:
            if node._backward is not None:
                node._backward = (lambda step, node: lambda grad: (ran.append(node), step(grad)))(
                    node._backward, node)
        root.backward()
        assert [id(n) for n in ran] == [id(n) for n in reversed(expected)
                                        if n._backward is not None]
