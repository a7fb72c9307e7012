"""Layer catalogue for the numpy neural-network substrate."""

from repro.nn.layers.activation import (
    GELU,
    Hardswish,
    LeakyReLU,
    ReLU,
    Sigmoid,
    SiLU,
    Softmax,
    Tanh,
    build_activation,
)
from repro.nn.layers.attention import (
    FeedForward,
    MultiHeadAttention,
    TransformerDecoderLayer,
    TransformerEncoderLayer,
)
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.linear import Linear
from repro.nn.layers.merge import Add, Concat, Flatten
from repro.nn.layers.norm import BatchNorm2d, LayerNorm
from repro.nn.layers.pooling import MaxPool2d
from repro.nn.layers.upsample import Upsample

__all__ = [
    "GELU", "Hardswish", "LeakyReLU", "ReLU", "Sigmoid", "SiLU", "Softmax", "Tanh",
    "build_activation",
    "FeedForward", "MultiHeadAttention", "TransformerDecoderLayer", "TransformerEncoderLayer",
    "Conv2d",
    "Linear",
    "Add", "Concat", "Flatten",
    "BatchNorm2d", "LayerNorm",
    "MaxPool2d",
    "Upsample",
]
