"""Minimal tensor library with taped reverse-mode differentiation.

Each recorded node keeps the VJP of the primitive that made it, a numpy
function that records nothing.  `grad` is the one gradient API: a
first-order reverse sweep over numpy arrays.
"""

from .adam import AdamState, adam_step
from .nn import (
    conv1d,
    conv1d_transposed,
    highway_block,
    kaiming_uniform,
    layer_norm,
    ones_param,
    zeros_param,
)
from .ops import (
    add,
    concat,
    conv_valid,
    div,
    embedding,
    exp,
    matmul,
    mean,
    mul,
    narrow,
    neg,
    pad_time,
    pair_sum,
    relu,
    reshape,
    sigmoid,
    softmax,
    sqrt,
    sub,
    swapaxes,
    tsum,
)
from .tensor import (
    Tensor,
    as_tensor,
    grad,
    no_grad,
    set_grad_enabled,
    using_dtype,
)


__all__ = [
    "AdamState",
    "adam_step",
    "Tensor",
    "as_tensor",
    "grad",
    "no_grad",
    "set_grad_enabled",
    "using_dtype",
    "conv1d",
    "conv1d_transposed",
    "highway_block",
    "layer_norm",
    "kaiming_uniform",
    "zeros_param",
    "ones_param",
    "add",
    "concat",
    "conv_valid",
    "div",
    "embedding",
    "exp",
    "matmul",
    "mean",
    "mul",
    "narrow",
    "neg",
    "pad_time",
    "pair_sum",
    "relu",
    "reshape",
    "sigmoid",
    "softmax",
    "sqrt",
    "sub",
    "swapaxes",
    "tsum",
]
