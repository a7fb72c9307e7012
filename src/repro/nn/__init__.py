"""Numpy neural-network substrate (tensors, autograd, modules, layers, training).

This package replaces PyTorch for the purposes of the reproduction: it provides
exactly the primitives the R-TOSS pruning framework and the object detectors in
:mod:`repro.models` require.
"""

from repro.nn import functional
from repro.nn import init
from repro.nn import losses
from repro.nn.layers import (
    GELU,
    Add,
    BatchNorm2d,
    Concat,
    Conv2d,
    Flatten,
    Hardswish,
    LayerNorm,
    LeakyReLU,
    Linear,
    MaxPool2d,
    MultiHeadAttention,
    ReLU,
    SiLU,
    Sigmoid,
    Softmax,
    Tanh,
    TransformerDecoderLayer,
    TransformerEncoderLayer,
    Upsample,
    build_activation,
)
from repro.nn.module import Identity, Module, ModuleList, Parameter, Sequential
from repro.nn.optim import Adam
from repro.nn.tensor import (Tensor, as_example_input, as_tensor, is_grad_enabled,
                             no_grad, ones, zeros)

__all__ = [
    "functional", "init", "losses",
    "Tensor", "as_example_input", "as_tensor", "is_grad_enabled", "no_grad", "ones",
    "zeros",
    "Identity", "Module", "ModuleList", "Parameter", "Sequential",
    "Adam",
    "GELU", "Add", "BatchNorm2d", "Concat", "Conv2d", "Flatten", "Hardswish", "LayerNorm",
    "LeakyReLU", "Linear", "MaxPool2d", "MultiHeadAttention", "ReLU",
    "SiLU", "Sigmoid", "Softmax", "Tanh", "TransformerDecoderLayer", "TransformerEncoderLayer",
    "Upsample", "build_activation",
]
