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
weight gradient rebuilds that matrix, with the same bits.  `linear`, which
`nn.Linear` calls, is one node for `x @ W + b`.  Its weight gradient is
summed item by item over the leading axes of x into one (in, out) buffer,
not formed as a stack of per-item products and then summed; the bits are
those of the two-op graph.  `gelu`'s x**3 comes from `cube`, which gives
numpy's pow bits without its slow path for negative bases: it rounds each
negative entry's long-double cube once, and leaves to numpy's pow the few
whose rounding that cube cannot settle.

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


# cube's long-double products must round to 64 or more bits, as x87 80-bit and
# IEEE quad do; elsewhere (MSVC, Apple arm64, an x87 set to 53 bits) it uses x**3
_LONG_DOUBLE_CUBE = bool(np.longdouble(1) + np.longdouble(2.0**-63) != 1)
_CUBE_CHUNK = 4096  # elements per pass: no temporary exceeds 64 KiB at any input size


def cube(x: Array) -> Array:
    """x**3, bit for bit as numpy's pow computes it, in less time.

    numpy's float64 pow is quick for non-negative bases but takes a slow
    path for negative ones, and half of every gelu input is negative.  Each
    negative entry's cube r is formed in long double, two products each
    rounded to 64 or more bits, so r is within 2**-63 relative of the exact
    cube, which is at most 2**-10 ulp of the float64 cube.  With
    w = r * 2**-57 (1/32 to 1/16 ulp), an entry whose r - w and r + w round
    to the same float64 takes that value.  The exact cube is then at least
    1/32 - 1/1024 ulp, a margin of about 0.03 ulp, from any rounding
    midpoint, and numpy's pow for negative bases, which stayed within
    0.5 + 0.013 ulp of the exact cube on 2e8 samples, rounds to that value.
    The other negative entries (about 9% near a midpoint; -0.0, non-finite
    values, and magnitudes outside (1e-90, 1e100), where the cube could
    leave the normal float64 range) are left to numpy's pow, and the
    non-negative ones take np.power of |x|.  Matching numpy's bits keeps
    trained models bitwise reproducible; tests/test_nn.py checks the match."""
    if not _LONG_DOUBLE_CUBE:
        return x**3
    # out gets the memory layout x**3 would get, because the layout decides
    # the summation order of later reductions; both are walked in memory order
    out = np.empty_like(x)
    flat, flat_out = x.ravel(order="K"), out.ravel(order="K")
    for start in range(0, flat.size, _CUBE_CHUNK):
        xs, o = flat[start:start + _CUBE_CHUNK], flat_out[start:start + _CUBE_CHUNK]
        np.abs(xs, out=o)
        np.power(o, 3, out=o)
        neg = np.flatnonzero(np.signbit(xs))
        xn = xs[neg]
        r = np.multiply(xn, xn, dtype=np.longdouble)
        r *= xn
        w = r * 2.0**-57
        cubes = (r - w).astype(np.float64)
        near = (cubes != (r + w).astype(np.float64)) | (xn >= -1e-90) | (xn <= -1e100)
        cubes[near] = xn[near] ** 3
        o[neg] = cubes
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


def _weight_grad(x: Array, g: Array) -> Array:
    """x^T g summed over the leading axes of (..., L, in) x and (..., L, out) g
    into one (in, out) buffer, item by item in C order.  That is the order in
    which `(np.swapaxes(x, -1, -2) @ g).sum(leading axes)` adds the items of its
    stack, so the bits are the same, but only two (in, out) buffers are live."""
    if x.ndim == 2:
        return x.T @ g
    items = np.ndindex(x.shape[:-2])
    first = next(items)
    total = x[first].T @ g[first]
    product = np.empty_like(total)
    for i in items:
        np.matmul(x[i].T, g[i], out=product)
        total += product
    return total


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x @ weight + bias as one tape node.  x: (..., in), weight: (in, out).

    The bias is added into the product in place, and the backward pass forms
    the weight gradient with `_weight_grad`, not as a stack of per-item
    products; every output and gradient has the bits of `(x @ weight) + bias`
    built from the two ops."""
    y = x.data @ weight.data
    y += bias.data

    def backward(g):
        if x.requires_grad:
            x._accumulate(g @ weight.data.T)
        if weight.requires_grad:
            weight._accumulate(_weight_grad(x.data, g))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.data.shape))

    return Tensor._make(y, (x, weight, bias), backward)


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
