"""Reverse-mode autodiff over numpy arrays.

Small tape-based engine: every op records its parents and a backward
closure; `Tensor.backward()` runs the tape in reverse topological order.
float64 throughout so finite-difference checks are meaningful.  The op set
is exactly what the models in this package need (dense layers, temporal
convolutions, attention, embeddings, the usual reductions).

The tape is released as backward walks it: once an interior node has passed
its gradient on, its `grad`, parents and closure are dropped, so the
forward activations die during the backward pass and not at the next
forward.  A graph can therefore be backpropagated once; a second backward
that reaches a released node raises `GraphReleasedError`.  Leaf tensors
keep accumulating `grad` across passes.  `conv1d` keeps its padded input
for the backward pass, not the im2col matrix, which is K times larger; the
weight gradient rebuilds that matrix, with the same bits.

Inference runs tape-free under `no_grad()`: ops compute the same values but
record no parents or backward closures, so nothing is kept alive for a
backward pass that never comes.  The public inference functions run under
it: `generator.generate` and `masked_accuracy`; `tokenizer.encode`,
`decode`, `refit_decoder_bypass`, codebook initialisation, and the
finalisation passes and untrained-loss record of `train_tokenizer`;
`retrieval.encode_motion_many`, `encode_music_many` and
`DualEncoder.set_pool_centers`; and `metrics.motion_features`.
`tokenizer.decoder_apply`, the loss functions and
`DualEncoder.encode_motion_batch`/`encode_music_batch` keep the tape: the
generator's alignment losses and retrieval training backpropagate through
them.
"""

from __future__ import annotations

import contextlib

import numpy as np

from ..errors import GraphReleasedError, ShapeError

Array = np.ndarray

_grad_enabled = True  # False inside no_grad(); checked by Tensor._make


@contextlib.contextmanager
def no_grad():
    """Run ops without recording the tape; usable as `with no_grad():` or as
    a `@no_grad()` decorator.  Restores the previous mode on exit, also on an
    exception, so blocks nest.  The mode is process-wide, not per thread."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for float64
_EXPONENT_BITS = np.int64(0x7FF0000000000000)
_MIDPOINT_WINDOW = 2.0**-57  # times 2**exponent: 1/32 ulp
_CUBE_CHUNK = 8192  # elements per pass: the work buffers stay in cache


def cube(x: Array) -> Array:
    """x**3, bit for bit as numpy's pow computes it, in half to two thirds of the time.

    numpy's float64 pow is quick for non-negative bases but takes a slow
    path for negative ones, and half of every gelu input is negative.  Here
    |x|**3 is formed in double-double arithmetic (Veltkamp's split, Dekker's
    exact products) and rounded once, which gives the correctly rounded
    cube; negative entries take it with their sign.  Any pow that is within
    0.5 + 1/32 ulp of the exact cube agrees with that value unless the exact
    cube lies within 1/32 ulp of a rounding midpoint.  numpy's pow for
    negative bases stayed within 0.5 + 0.013 ulp on 2e8 samples.  Entries
    near a midpoint (about 6%), -0.0, non-finite values and magnitudes where
    the products could overflow or underflow are left to numpy's pow, and
    so are all non-negative ones.  Matching numpy's bits keeps trained
    models bitwise reproducible; tests/test_nn.py checks the match."""
    # out gets the memory layout x**3 would get, because the layout decides
    # the summation order of later reductions; both are walked in memory order
    out = np.empty_like(x)
    flat, flat_out = x.ravel(order="K"), out.ravel(order="K")
    size = min(flat.size, _CUBE_CHUNK)
    a, hi, lo, p, q, err, tail, t, u = np.empty((9, size))
    flag, ok = np.empty((2, size), dtype=bool)
    for start in range(0, flat.size, _CUBE_CHUNK):
        xs, o = flat[start:start + _CUBE_CHUNK], flat_out[start:start + _CUBE_CHUNK]
        if xs.size < size:
            a, hi, lo, p, q, err, tail, t, u = (b[:xs.size] for b in (a, hi, lo, p, q, err, tail, t, u))
            flag, ok = flag[:xs.size], ok[:xs.size]
        np.abs(xs, out=a)
        np.power(a, 3, out=o)
        # a = hi + lo with 26-bit halves
        np.multiply(a, _SPLIT, out=t)
        np.subtract(t, a, out=hi)
        np.subtract(t, hi, out=hi)
        np.subtract(a, hi, out=lo)
        # p + err = a*a exactly, then err*a is the part of a**3 that p*a misses
        np.multiply(a, a, out=p)
        np.multiply(hi, hi, out=err)
        err -= p
        np.multiply(hi, lo, out=t)
        t *= 2.0
        err += t
        np.multiply(lo, lo, out=t)
        err += t
        err *= a
        # q + tail = p*a exactly (u, p hold p's halves), then tail += err
        np.multiply(p, a, out=q)
        np.multiply(p, _SPLIT, out=t)
        np.subtract(t, p, out=u)
        np.subtract(t, u, out=u)
        np.subtract(p, u, out=p)
        np.multiply(u, hi, out=tail)
        tail -= q
        np.multiply(u, lo, out=t)
        tail += t
        np.multiply(p, hi, out=t)
        tail += t
        np.multiply(p, lo, out=t)
        tail += t
        tail += err
        # a**3 = q + tail to ~2**-100; flag entries whose rounding a shift of
        # the midpoint window would change, or out of the safe range
        np.bitwise_and(q.view(np.int64), _EXPONENT_BITS, out=t.view(np.int64))
        t *= _MIDPOINT_WINDOW
        np.subtract(tail, t, out=u)
        u += q
        t += tail
        t += q
        np.not_equal(u, t, out=flag)
        np.greater(a, 1e-90, out=ok)
        ok &= a < 1e100
        flag |= ~ok
        # negative entries take -(q + tail); select without a data-dependent branch
        np.add(q, tail, out=q)
        np.signbit(xs, out=ok)
        np.copyto(t, ok)
        np.subtract(1.0, t, out=u)
        u *= o
        q *= t
        q += u
        np.copysign(q, xs, out=o)
        if flag.any():
            o[flag] = xs[flag] ** 3
    return out


def _as_array(x) -> Array:
    if isinstance(x, np.ndarray):
        return x.astype(np.float64) if x.dtype != np.float64 else x
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _released(grad: Array) -> None:
    """The backward closure of a node whose graph has been backpropagated."""
    raise GraphReleasedError("this graph was released by an earlier backward")


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- construction -----------------------------------------------------

    @staticmethod
    def _make(data: Array, parents: tuple[Tensor, ...], backward) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
        if out.requires_grad:
            out._parents = parents
            out._backward = backward
        else:
            out._parents = ()
            out._backward = None
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def _accumulate(self, grad: Array) -> None:
        # grads are never mutated in place, so storing a view is safe
        if self.grad is None:
            self.grad = grad
        else:
            self.grad = self.grad + grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Array | None = None) -> None:
        """Accumulate d(self)/d(leaf) into the `grad` of every leaf that
        requires it, releasing the graph on the way (see the module notes)."""
        if grad is None:
            if self.data.size != 1:
                raise ShapeError(f"backward() without grad needs a scalar output, not shape {self.shape}")
            grad = np.ones_like(self.data)
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            if node._backward is _released:
                raise GraphReleasedError("backward() reached a graph that an earlier backward "
                                         "released; run the forward again")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self._accumulate(np.asarray(grad, dtype=np.float64))
        # once a node's consumers are released, order holds the tape's last
        # reference to it, so popping it frees the node and what its closure kept
        while order:
            node = order.pop()
            backward = node._backward
            if backward is None:
                continue  # a leaf keeps its grad
            g, node.grad = node.grad, None
            node._backward, node._parents = _released, ()
            if g is not None:
                backward(g)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.data.shape))

        return Tensor._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(g):
            self._accumulate(-g)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data - other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-g, other.data.shape))

        return Tensor._make(data, (self, other), backward)

    def __rsub__(self, other):
        return Tensor(other) - self

    def __mul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape))

        return Tensor._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data / other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-g * self.data / (other.data * other.data), other.data.shape)
                )

        return Tensor._make(data, (self, other), backward)

    def __rtruediv__(self, other):
        return Tensor(other) / self

    def __pow__(self, exponent: float):
        data = self.data**exponent

        def backward(g):
            self._accumulate(g * exponent * self.data ** (exponent - 1))

        return Tensor._make(data, (self,), backward)

    def __matmul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data @ other.data

        def backward(g):
            if self.requires_grad:
                ga = g @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(ga, self.data.shape))
            if other.requires_grad:
                gb = np.swapaxes(self.data, -1, -2) @ g
                other._accumulate(_unbroadcast(gb, other.data.shape))

        return Tensor._make(data, (self, other), backward)

    # -- elementwise -------------------------------------------------------

    def exp(self):
        data = np.exp(self.data)

        def backward(g):
            self._accumulate(g * data)

        return Tensor._make(data, (self,), backward)

    def log(self):
        def backward(g):
            self._accumulate(g / self.data)

        return Tensor._make(np.log(self.data), (self,), backward)

    def sqrt(self):
        data = np.sqrt(self.data)

        def backward(g):
            self._accumulate(g * 0.5 / data)

        return Tensor._make(data, (self,), backward)

    def tanh(self):
        data = np.tanh(self.data)

        def backward(g):
            self._accumulate(g * (1.0 - data * data))

        return Tensor._make(data, (self,), backward)

    def abs(self):
        sign = np.sign(self.data)

        def backward(g):
            self._accumulate(g * sign)

        return Tensor._make(np.abs(self.data), (self,), backward)

    def relu(self):
        mask = self.data > 0

        def backward(g):
            self._accumulate(g * mask)

        return Tensor._make(self.data * mask, (self,), backward)

    def gelu(self):
        # tanh approximation; closed-form derivative below.
        c = np.sqrt(2.0 / np.pi)
        x = self.data
        inner = c * (x + 0.044715 * cube(x))
        t = np.tanh(inner)
        data = 0.5 * x * (1.0 + t)

        def backward(g):
            dinner = c * (1.0 + 3 * 0.044715 * x * x)
            dy = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
            self._accumulate(g * dy)

        return Tensor._make(data, (self,), backward)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.data.shape).copy())
                return
            if not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape).copy())

        return Tensor._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        count = self.data.size if axis is None else np.prod(
            [self.data.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    # -- shape ops ---------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.data.shape

        def backward(g):
            self._accumulate(g.reshape(old))

        return Tensor._make(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = tuple(np.argsort(axes))

        def backward(g):
            self._accumulate(g.transpose(inverse))

        return Tensor._make(self.data.transpose(axes), (self,), backward)

    def __getitem__(self, key):
        data = self.data[key]

        def backward(g):
            buf = np.zeros_like(self.data)
            buf[key] = g
            self._accumulate(buf)

        return Tensor._make(data, (self,), backward)

    def pad1d(self, before: int, after: int):
        """Zero-pad the last axis."""
        width = [(0, 0)] * (self.data.ndim - 1) + [(before, after)]
        data = np.pad(self.data, width)
        T = self.data.shape[-1]

        def backward(g):
            self._accumulate(g[..., before:before + T])

        return Tensor._make(data, (self,), backward)

    def upsample_repeat(self, factor: int):
        """Repeat each element of the last axis `factor` times."""
        data = np.repeat(self.data, factor, axis=-1)
        shape = self.data.shape

        def backward(g):
            self._accumulate(g.reshape(shape + (factor,)).sum(axis=-1))

        return Tensor._make(data, (self,), backward)


# -- free functions ---------------------------------------------------------


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, a, b in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(a, b)
                t._accumulate(g[tuple(idx)])

    return Tensor._make(data, tuple(tensors), backward)


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t._accumulate(np.take(g, i, axis=axis))

    return Tensor._make(data, tuple(tensors), backward)


def gather_rows(table: Tensor, indices: Array) -> Tensor:
    """table[indices] for an integer index array; rows may repeat."""
    indices = np.asarray(indices)
    data = table.data[indices]

    def backward(g):
        buf = np.zeros_like(table.data)
        np.add.at(buf, indices.reshape(-1), g.reshape(-1, table.data.shape[-1]))
        table._accumulate(buf)

    return Tensor._make(data, (table,), backward)


def gather_last(t: Tensor, indices: Array) -> Tensor:
    """Pick one entry along the last axis per leading position."""
    idx = np.asarray(indices)[..., None]
    data = np.take_along_axis(t.data, idx, axis=-1)[..., 0]

    def backward(g):
        buf = np.zeros_like(t.data)
        np.put_along_axis(buf, idx, g[..., None], axis=-1)
        t._accumulate(buf)

    return Tensor._make(data, (t,), backward)


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    shift = Tensor(np.max(t.data, axis=axis, keepdims=True))  # constant, gradient-neutral
    e = (t - shift).exp()
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(t: Tensor, axis: int = -1) -> Tensor:
    shift = Tensor(np.max(t.data, axis=axis, keepdims=True))
    centered = t - shift
    return centered - centered.exp().sum(axis=axis, keepdims=True).log()


def conv1d(x: Tensor, weight: Tensor, bias: Tensor | None, stride: int = 1, padding: int = 0) -> Tensor:
    """Temporal convolution via im2col + GEMM. x: (B, C, T), weight: (O, C, K).

    The input is padded and read as (B, T, C), the memory order the
    package's activations already have, so the im2col gather reads whole
    frames.  The backward pass keeps that padded input and rebuilds the
    im2col matrix for the weight gradient instead of holding it, K times
    larger, from the forward pass."""
    xt = x.data.transpose(0, 2, 1)
    xtp = np.pad(xt, ((0, 0), (padding, padding), (0, 0))) if padding else xt
    B, Tp, C = xtp.shape
    O, _, K = weight.data.shape
    T_out = (Tp - K) // stride + 1
    s0, s1, s2 = xtp.strides
    windows = np.lib.stride_tricks.as_strided(
        xtp, shape=(B, T_out, C, K), strides=(s0, s1 * stride, s2, s1), writeable=False
    )

    def im2col() -> Array:
        return np.ascontiguousarray(windows).reshape(B * T_out, C * K)

    wf = weight.data.reshape(O, C * K)
    y = (im2col() @ wf.T).reshape(B, T_out, O).transpose(0, 2, 1)
    if bias is not None:
        y = y + bias.data[None, :, None]

    def backward(g):
        g2 = np.ascontiguousarray(g.transpose(0, 2, 1)).reshape(B * T_out, O)
        if weight.requires_grad:
            weight._accumulate((g2.T @ im2col()).reshape(O, C, K))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g2.sum(axis=0))
        if x.requires_grad:
            gcol = (g2 @ wf).reshape(B, T_out, C, K)
            gxp = np.zeros((B, C, Tp))
            for k in range(K):
                gxp[:, :, k:k + stride * T_out:stride] += gcol[:, :, :, k].transpose(0, 2, 1)
            if padding:
                gxp = gxp[:, :, padding:Tp - padding]
            x._accumulate(gxp)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(y, parents, backward)
