"""Module system: parameter containers with named introspection.

The API intentionally mirrors the small subset of ``torch.nn.Module`` that the
pruning framework relies on: named parameters/buffers, module trees, state dicts,
train/eval switching and forward hooks (the per-layer cost profile of
:mod:`repro.hardware.cost_model` records through them).  Algorithm 1's
computational graph is the engine's traced op list (:mod:`repro.engine.trace`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn.tensor import Tensor


class Parameter(Tensor):
    """A tensor that is registered as a learnable parameter of a module."""

    def __init__(self, data, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural network modules."""

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self._forward_hooks: List[Callable] = []
        self.training: bool = True

    # ------------------------------------------------------------------ registration
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
            value.name = value.name or name
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-learnable persistent array (e.g. BatchNorm running stats)."""
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    def register_forward_hook(self, hook: Callable) -> Callable:
        """Register ``hook(module, inputs, output)``; returns a removal callable."""
        self._forward_hooks.append(hook)

        def remove() -> None:
            if hook in self._forward_hooks:
                self._forward_hooks.remove(hook)

        return remove

    def add_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------ call / forward
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError(f"{type(self).__name__} must implement forward()")

    def __call__(self, *args, **kwargs):
        output = self.forward(*args, **kwargs)
        for hook in list(self._forward_hooks):
            hook(self, args, output)
        return output

    # ------------------------------------------------------------------ traversal
    def children(self) -> Iterator["Module"]:
        return iter(self._modules.values())

    def named_children(self) -> Iterator[Tuple[str, "Module"]]:
        return iter(self._modules.items())

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix, self
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(child_prefix)

    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}.{name}" if prefix else name), param
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_parameters(child_prefix)

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            yield (f"{prefix}.{name}" if prefix else name), buf
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_buffers(child_prefix)

    # ------------------------------------------------------------------ state
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat mapping of parameter and buffer names to arrays (copies)."""
        state: Dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[name] = np.asarray(buf).copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Load arrays produced by :meth:`state_dict` back into the module tree."""
        own_params = dict(self.named_parameters())
        own_buffers = {name: (owner, key) for owner, name, key in self._walk_buffers()}
        missing = []
        for name, value in state.items():
            if name in own_params:
                param = own_params[name]
                if param.data.shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: model {param.data.shape} vs state {value.shape}"
                    )
                param.data[...] = value
            elif name in own_buffers:
                owner, key = own_buffers[name]
                owner._buffers[key][...] = value
            else:
                missing.append(name)
        if strict and missing:
            raise KeyError(f"state dict contains unknown entries: {missing[:5]}...")

    def _walk_buffers(self, prefix: str = ""):
        for key in self._buffers:
            yield self, (f"{prefix}.{key}" if prefix else key), key
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child._walk_buffers(child_prefix)

    # ------------------------------------------------------------------ modes
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    def apply(self, fn: Callable[["Module"], None]) -> "Module":
        for module in self.modules():
            fn(module)
        return self

    # ------------------------------------------------------------------ statistics
    def num_parameters(self, trainable_only: bool = False) -> int:
        """Total number of scalar parameters in the module tree."""
        total = 0
        for param in self.parameters():
            if trainable_only and not param.requires_grad:
                continue
            total += param.size
        return total

    def extra_repr(self) -> str:
        return ""

    def __repr__(self) -> str:
        lines = [f"{type(self).__name__}({self.extra_repr()}"]
        for name, child in self._modules.items():
            child_repr = repr(child).replace("\n", "\n  ")
            lines.append(f"  ({name}): {child_repr}")
        lines.append(")")
        return "\n".join(lines) if len(lines) > 2 else f"{type(self).__name__}({self.extra_repr()})"


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        for index, module in enumerate(modules):
            self.add_module(str(index), module)

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]

    def append(self, module: Module) -> "Sequential":
        self.add_module(str(len(self._modules)), module)
        return self

    def forward(self, x):
        for module in self._modules.values():
            x = module(x)
        return x


class ModuleList(Module):
    """List container whose elements are registered sub-modules."""

    def __init__(self, modules: Optional[List[Module]] = None) -> None:
        super().__init__()
        for index, module in enumerate(modules or []):
            self.add_module(str(index), module)

    def __len__(self) -> int:
        return len(self._modules)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]

    def append(self, module: Module) -> "ModuleList":
        self.add_module(str(len(self._modules)), module)
        return self

    def forward(self, *args, **kwargs):  # pragma: no cover - containers are not called
        raise RuntimeError("ModuleList is a container and cannot be called directly")


class Identity(Module):
    """No-op module (useful as a placeholder when pruning removes a block)."""

    def forward(self, x):
        return x
