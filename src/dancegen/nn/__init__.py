from .tensor import (
    Tensor,
    no_grad,
    concat,
    stack,
    gather_rows,
    gather_last,
    softmax,
    log_softmax,
    linear,
    conv1d,
)
from .layers import (
    load_array,
    channel_stats,
    Module,
    Linear,
    Conv1d,
    Embedding,
    LayerNorm,
    SelfAttention,
    TransformerBlock,
    ResConv1d,
)
from .optim import AdamW, warmup_lr
from .rng import splitmix64, fnv1a64, derive_seed, generator

__all__ = [
    "Tensor", "no_grad", "concat", "stack", "gather_rows", "gather_last", "softmax", "log_softmax",
    "linear", "conv1d", "load_array", "channel_stats", "Module", "Linear", "Conv1d", "Embedding",
    "LayerNorm", "SelfAttention", "TransformerBlock", "ResConv1d", "AdamW", "warmup_lr",
    "splitmix64", "fnv1a64", "derive_seed", "generator",
]
