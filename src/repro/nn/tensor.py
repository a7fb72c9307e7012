"""A minimal tape-based autograd tensor.

The R-TOSS framework needs three things from its deep-learning substrate:

1. forward inference of convolutional detectors (to evaluate pruned models),
2. gradients (to fine-tune pruned models and to drive gradient-based baselines
   such as SNIP-style and SynFlow pruning),
3. a computational graph (Algorithm 1 builds parent→child layer groups from it).

``Tensor`` provides (1) and (2): it wraps a ``numpy.ndarray`` and records, for every
produced tensor, a backward closure plus the parent tensors it was computed from.
Calling :meth:`Tensor.backward` walks that tape in reverse topological order and
accumulates gradients.  (3) is provided at the *module* level by
:mod:`repro.nn.graph`, which is what Algorithm 1 actually consumes.

The implementation favours clarity over speed; all heavy lifting is vectorised
numpy, and the op set is exactly what the detectors in :mod:`repro.models` need.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]

# Autograd switch, flipped by :class:`no_grad`.  When disabled, produced
# tensors are never wired into the tape, which removes the closure/bookkeeping
# overhead from pure-inference forward passes (the compiled execution engine in
# :mod:`repro.engine` runs entirely in this mode).
#
# The switch is *thread-local*: the serving layer (:mod:`repro.serving`) runs
# inference worker threads under ``no_grad`` concurrently with whatever the
# main thread is doing, and a process-global flag would let one thread's
# ``__exit__`` re-enable the tape in the middle of another thread's forward
# pass.  Every thread starts with gradients enabled.
_GRAD_STATE = threading.local()


def is_grad_enabled() -> bool:
    """True when new tensor operations are recorded on the autograd tape
    (per-thread; a fresh thread starts with gradients enabled)."""
    return getattr(_GRAD_STATE, "enabled", True)


class no_grad:
    """Context manager that disables autograd tape construction.

    Inside the context every operation returns a plain (parent-less) tensor, so
    no backward closures are created and no intermediate arrays are kept alive
    for the backward pass.  Nesting is supported; the previous state is restored
    on exit.

    Example
    -------
    >>> from repro.nn.tensor import Tensor, no_grad
    >>> w = Tensor([1.0], requires_grad=True)
    >>> with no_grad():
    ...     y = w * 2.0
    >>> y.requires_grad
    False
    """

    def __enter__(self) -> "no_grad":
        self._previous = is_grad_enabled()
        _GRAD_STATE.enabled = False
        return self

    def __exit__(self, *exc) -> None:
        _GRAD_STATE.enabled = self._previous


def _as_array(value: ArrayLike, dtype=np.float32) -> np.ndarray:
    if isinstance(value, np.ndarray):
        if value.dtype != dtype:
            return value.astype(dtype)
        return value
    return np.asarray(value, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """N-dimensional array with reverse-mode automatic differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")
    __array_priority__ = 100  # make numpy defer to Tensor in mixed expressions

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: str = "",
    ) -> None:
        self.data: np.ndarray = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------ basics
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut off from the autograd tape."""
        return Tensor(self.data, requires_grad=False, name=self.name)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad, name=self.name)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag}, name={self.name!r})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------ tape
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Optional[Callable[[np.ndarray], None]],
    ) -> "Tensor":
        """Build a result tensor, wiring it into the tape when grads are needed."""
        if not is_grad_enabled():
            return Tensor(data)
        parents = tuple(parents)
        requires = any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Back-propagate from this tensor.

        ``grad`` defaults to ones (so calling ``loss.backward()`` on a scalar loss
        behaves as expected).
        """
        if grad is None:
            grad = np.ones_like(self.data)
        grad = _as_array(grad, dtype=self.data.dtype)

        # Post-order over the tape (parents first, in ``_parents`` order), with
        # an explicit stack: no recursion limit on long chains, and no closure
        # that refers to itself and would keep the tape alive as cyclic garbage.
        topo: List[Tensor] = []
        if self.requires_grad:
            visited = {id(self)}
            stack = [(self, iter(self._parents))]
            while stack:
                node, parents = stack[-1]
                for parent in parents:
                    if id(parent) not in visited and parent.requires_grad:
                        visited.add(id(parent))
                        stack.append((parent, iter(parent._parents)))
                        break
                else:
                    stack.pop()
                    topo.append(node)
        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------ arithmetic
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(grad)

        return Tensor._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(-grad)

        return Tensor._make(self.data - other.data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * other.data)
            other._accumulate(grad * self.data)

        return Tensor._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / other.data)
            other._accumulate(-grad * self.data / (other.data**2))

        return Tensor._make(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        exponent = float(exponent)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * np.power(self.data, exponent - 1))

        return Tensor._make(np.power(self.data, exponent), (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad @ np.swapaxes(other.data, -1, -2))
            if other.requires_grad:
                other._accumulate(np.swapaxes(self.data, -1, -2) @ grad)

        return Tensor._make(self.data @ other.data, (self, other), backward)

    # ------------------------------------------------------------------ shape ops
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return Tensor._make(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return Tensor._make(self.data.transpose(axes), (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._make(self.data[index], (self,), backward)

    # ------------------------------------------------------------------ reductions
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]

        def backward(grad: np.ndarray) -> None:
            g = grad / count
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor._make(self.data.mean(axis=axis, keepdims=keepdims), (self,), backward)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            expanded = out_data if keepdims or axis is None else np.expand_dims(out_data, axis)
            g = grad if keepdims or axis is None else np.expand_dims(grad, axis)
            mask = (self.data == expanded).astype(self.data.dtype)
            # Split the gradient between ties to keep it well defined.
            denom = mask.sum(axis=axis, keepdims=True)
            denom[denom == 0] = 1.0
            self._accumulate(mask * g / denom)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ misc math
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / (2.0 * out_data))

        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.sign(self.data))

        return Tensor._make(np.abs(self.data), (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            inside = ((self.data >= low) & (self.data <= high)).astype(self.data.dtype)
            self._accumulate(grad * inside)

        return Tensor._make(np.clip(self.data, low, high), (self,), backward)


def as_tensor(value: Union[Tensor, ArrayLike], requires_grad: bool = False) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when it already is one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


def as_example_input(value: Union[Tensor, ArrayLike, Sequence[int], None]) -> Optional[Tensor]:
    """Coerce an example input to a :class:`Tensor`, accepting plain shapes.

    Graph tracing (Algorithm 1) only needs an input of the right *shape*, so every
    API that takes an ``example_input`` also accepts a shape tuple such as
    ``(1, 3, 64, 64)`` — the zero tensor is built here.  This keeps declarative
    configurations (``repro.pipeline.RunSpec``) JSON-serializable: a spec stores
    the shape, never a tensor.

    ``None`` passes through (callers fall back to trivial per-layer grouping);
    tensors and numpy arrays are used as-is.
    """
    if value is None or isinstance(value, Tensor):
        return value
    if isinstance(value, np.ndarray):
        return Tensor(np.asarray(value, dtype=np.float32))
    if isinstance(value, (tuple, list)):
        if not value or not all(isinstance(dim, (int, np.integer)) for dim in value):
            raise TypeError(
                f"example-input shape must be a non-empty sequence of ints, got {value!r}")
        return zeros(tuple(int(dim) for dim in value))
    raise TypeError(
        f"example input must be a Tensor, ndarray, shape sequence or None, "
        f"got {type(value).__name__}")


def zeros(shape: Sequence[int], requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=requires_grad)


def ones(shape: Sequence[int], requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=np.float32), requires_grad=requires_grad)


def randn(shape: Sequence[int], rng: Optional[np.random.Generator] = None,
          requires_grad: bool = False) -> Tensor:
    from repro.utils.rng import default_rng

    rng = rng if rng is not None else default_rng()
    return Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=requires_grad)
