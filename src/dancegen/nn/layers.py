"""Network building blocks on top of the autodiff tensor."""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError, ShapeError
from . import tensor as T
from .tensor import Tensor


def load_array(arrays: dict[str, np.ndarray], name: str, like: np.ndarray) -> np.ndarray:
    """arrays[name] as the dtype of `like`.  Raises ParameterError when the
    array is missing and ShapeError when its shape differs from `like`."""
    if name not in arrays:
        raise ParameterError(f"missing array {name}")
    src = arrays[name]
    if src.shape != like.shape:
        raise ShapeError(f"shape mismatch for {name}: {src.shape} vs {like.shape}")
    return src.astype(like.dtype)


def channel_stats(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and std of (N, C) rows.  A std below 1e-4 becomes 1.0,
    so a near-constant channel is centred but not blown up."""
    std = rows.std(axis=0)
    return rows.mean(axis=0), np.where(std < 1e-4, 1.0, std)


class Module:
    """Minimal module: tracks parameters and child modules by attribute name.

    A checkpoint holds `state()`: every parameter plus the non-parameter
    arrays ("buffers") each module declares in `buffers()`, children included
    under their attribute path."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_children", {})

    def __setattr__(self, name, value):
        if isinstance(value, Module):
            self._children[name] = value
        elif isinstance(value, (list, tuple)) and value and all(isinstance(v, Module) for v in value):
            for i, v in enumerate(value):
                self._children[f"{name}.{i}"] = v
        object.__setattr__(self, name, value)

    def register(self, name: str, data: np.ndarray) -> Tensor:
        p = Tensor(data, requires_grad=True)
        self._params[name] = p
        return p

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        out = [(prefix + name, p) for name, p in self._params.items()]
        for cname, child in self._children.items():
            out.extend(child.named_parameters(prefix + cname + "."))
        return out

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def buffers(self) -> dict[str, tuple[object, str]]:
        """Checkpoint name -> (holder, attribute) of each saved non-parameter array."""
        return {}

    def _slots(self, prefix: str = "") -> list[tuple[str, object, str]]:
        """(checkpoint name, holder, attribute) of every saved array, walked like
        `named_parameters`."""
        out = [(prefix + name, p, "data") for name, p in self._params.items()]
        out += [(prefix + name, *ref) for name, ref in self.buffers().items()]
        for cname, child in self._children.items():
            out.extend(child._slots(prefix + cname + "."))
        return out

    def state(self) -> dict[str, np.ndarray]:
        return {name: getattr(holder, attr) for name, holder, attr in self._slots()}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Load `state()` arrays; a missing one raises ParameterError and a
        mis-shaped one ShapeError (see load_array)."""
        for name, holder, attr in self._slots():
            setattr(holder, attr, load_array(arrays, name, getattr(holder, attr)))

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None


class Linear(Module):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        super().__init__()
        bound = np.sqrt(6.0 / in_dim)  # Kaiming-uniform, keeps variance through gelu chains
        self.weight = self.register("weight", rng.uniform(-bound, bound, size=(in_dim, out_dim)))
        self.bias = self.register("bias", np.zeros(out_dim))

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weight, self.bias)


class Conv1d(Module):
    """x: (B, C, T) -> (B, O, T_out)."""

    def __init__(self, in_ch: int, out_ch: int, kernel: int, rng: np.random.Generator,
                 stride: int = 1, padding: int = 0):
        super().__init__()
        self.stride = stride
        self.padding = padding
        bound = np.sqrt(6.0 / (in_ch * kernel))
        self.weight = self.register("weight", rng.uniform(-bound, bound, size=(out_ch, in_ch, kernel)))
        self.bias = self.register("bias", np.zeros(out_ch))

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv1d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class Embedding(Module):
    def __init__(self, count: int, dim: int, rng: np.random.Generator, scale: float = 0.02):
        super().__init__()
        self.weight = self.register("weight", rng.normal(0.0, scale, size=(count, dim)))

    def __call__(self, indices: np.ndarray) -> Tensor:
        return T.gather_rows(self.weight, indices)


class LayerNorm(Module):
    EPS = 1e-5

    def __init__(self, dim: int):
        super().__init__()
        self.gain = self.register("gain", np.ones(dim))
        self.shift = self.register("shift", np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        return centered / (var + self.EPS).sqrt() * self.gain + self.shift


class SelfAttention(Module):
    def __init__(self, width: int, heads: int, rng: np.random.Generator):
        super().__init__()
        if width % heads:
            raise ParameterError(f"width {width} must divide evenly into {heads} heads")
        self.heads = heads
        self.head_dim = width // heads
        self.qkv = Linear(width, 3 * width, rng)
        self.proj = Linear(width, width, rng)

    def __call__(self, x: Tensor) -> Tensor:
        B, L, W = x.shape
        h, hd = self.heads, self.head_dim
        qkv = self.qkv(x)  # (B, L, 3W)
        qkv = qkv.reshape(B, L, 3, h, hd).transpose(2, 0, 3, 1, 4)  # (3, B, h, L, hd)
        q, k, v = qkv[0], qkv[1], qkv[2]
        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(hd))
        attn = T.softmax(scores, axis=-1)
        out = attn @ v  # (B, h, L, hd)
        out = out.transpose(0, 2, 1, 3).reshape(B, L, W)
        return self.proj(out)


def _tape_free_gelu(x: np.ndarray) -> np.ndarray:
    """`Tensor.gelu`'s expression with x*x*x for its bit-exact `cube`, at a
    small fraction of the cube's cost.  On 1e6 normal inputs 0.3% of the
    entries differed from `Tensor.gelu`, each by at most one ulp of x."""
    c = np.sqrt(2.0 / np.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * (x * x * x))))


class TransformerBlock(Module):
    """Pre-norm block: attention then a GELU MLP four times the width.

    Without the tape (under `no_grad`, which the generator's `generate` and
    `masked_accuracy` run in) the MLP activation is `_tape_free_gelu` on raw
    arrays, since those passes feed only argmax, sampling and confidence
    ranking, and the cube is most of their cost.  With the tape it stays
    `Tensor.gelu`, so training keeps numpy's pow bits."""

    def __init__(self, width: int, heads: int, rng: np.random.Generator):
        super().__init__()
        self.norm1 = LayerNorm(width)
        self.attn = SelfAttention(width, heads, rng)
        self.norm2 = LayerNorm(width)
        self.fc1 = Linear(width, 4 * width, rng)
        self.fc2 = Linear(4 * width, width, rng)

    def __call__(self, x: Tensor) -> Tensor:
        x = x + self.attn(self.norm1(x))
        h = self.fc1(self.norm2(x))
        h = h.gelu() if T._grad_enabled else Tensor(_tape_free_gelu(h.data))
        return x + self.fc2(h)


class ResConv1d(Module):
    """Residual temporal block: conv3 -> gelu -> conv1, added to the input."""

    def __init__(self, ch: int, rng: np.random.Generator):
        super().__init__()
        self.conv1 = Conv1d(ch, ch, 3, rng, padding=1)
        self.conv2 = Conv1d(ch, ch, 1, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return x + self.conv2(self.conv1(x).gelu())
