"""Gradient checks for the autodiff core, op by op."""

import platform
import sys
import tracemalloc

import numpy as np
import pytest

from dancegen import nn
from dancegen.errors import GraphReleasedError, ParameterError, ShapeError
from dancegen.nn import Tensor


def finite_diff(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar f at x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f(x)
        flat[i] = orig - h
        down = f(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return g


def check_op(build, shape, seed=0, h=1e-6, tol=1e-6):
    """build(Tensor) -> scalar Tensor; compares backward against central differences."""
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=shape)

    def value(x):
        return build(Tensor(x)).item()

    t = Tensor(x0.copy(), requires_grad=True)
    out = build(t)
    out.backward()
    fd = finite_diff(value, x0.copy(), h=h)
    np.testing.assert_allclose(t.grad, fd, rtol=tol, atol=tol)


class TestElementwise:
    def test_add_mul_broadcast(self):
        rng = np.random.default_rng(1)
        b = Tensor(rng.normal(size=(1, 4)))
        check_op(lambda x: ((x * 2.0 + b) * x).sum(), (3, 4))

    def test_sub_div(self):
        check_op(lambda x: (1.0 / (x * x + 2.0) - x).sum(), (5,))

    def test_exp_log_sqrt(self):
        check_op(lambda x: ((x.exp() + 1.0).log() * (x * x + 1.0).sqrt()).sum(), (4, 3))

    def test_tanh_gelu(self):
        check_op(lambda x: (x.tanh() + x.gelu()).sum(), (6,), tol=1e-5)

    def test_abs_away_from_zero(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(8,))
        x[np.abs(x) < 0.1] += 0.5
        t = Tensor(x.copy(), requires_grad=True)
        t.abs().sum().backward()
        np.testing.assert_allclose(t.grad, np.sign(x))

    def test_pow(self):
        check_op(lambda x: ((x * x + 1.0) ** 1.5).sum(), (5,))

    def test_relu(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(10,))
        x[np.abs(x) < 0.05] = 0.3
        t = Tensor(x.copy(), requires_grad=True)
        t.relu().sum().backward()
        np.testing.assert_allclose(t.grad, (x > 0).astype(float))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestCube:
    @pytest.mark.parametrize("scale", [1e-95, 1e-30, 1e-3, 0.5, 1.0, 3.0, 1e3, 1e30, 1e99])
    def test_bits_match_numpy_pow(self, scale):
        x = np.random.default_rng(17).normal(size=200_000) * scale
        assert _same_bits(nn.tensor.cube(x), x**3)

    def test_bits_match_across_each_binade(self):
        rng = np.random.default_rng(18)
        for lo in range(-4, 4):
            x = rng.uniform(2.0**lo, 2.0**(lo + 1), size=50_000) * rng.choice([-1.0, 1.0], 50_000)
            assert _same_bits(nn.tensor.cube(x), x**3)

    def test_layout_matches_numpy_pow(self):
        # reductions over the result depend on its memory layout
        base = np.random.default_rng(20).normal(size=(6, 10, 8))
        for x in (base.transpose(0, 2, 1), base[:, 1:], base[::-1], np.asfortranarray(base),
                  base[:, :, ::2]):
            out = nn.tensor.cube(x)
            assert out.strides == (x**3).strides
            assert _same_bits(out, x**3)

    def test_special_values_and_shapes(self):
        special = np.array([0.0, -0.0, 1.0, -1.0, -2.0, 0.5, -0.125, np.inf, -np.inf, np.nan,
                            -np.nan, 5e-324, -5e-324, -1e-100, -1e-300, -1e100, -1e103, 1e200,
                            -np.nextafter(1.0, 2.0), -np.nextafter(2.0, 0.0)])
        with np.errstate(all="ignore"):
            assert _same_bits(nn.tensor.cube(special), special**3)
            for x in (special.reshape(4, 5), special[::3], np.zeros((0, 3)), np.array(-1.5)):
                out = nn.tensor.cube(x)
                assert isinstance(out, np.ndarray)
                assert _same_bits(out, np.asarray(x**3))

    def test_bits_match_near_rounding_midpoints(self):
        # cubes of short-significand inputs crowd rounding midpoints, and cubes
        # of cube roots sit next to representable values
        k = np.arange(1.0, 200_001.0)
        root = np.cbrt(k)
        x = -np.concatenate([k, k + 0.5, k / 1024, root, np.nextafter(root, 0.0),
                             np.nextafter(root, np.inf)])
        assert _same_bits(nn.tensor.cube(x), x**3)

    def test_fallback_without_extended_long_double(self, monkeypatch):
        monkeypatch.setattr(nn.tensor, "_LONG_DOUBLE_CUBE", False)
        base = np.random.default_rng(21).normal(size=(6, 10, 8)) * 3.0
        for x in (base, base.transpose(0, 2, 1), base[:, :, ::2], np.asfortranarray(base)):
            out = nn.tensor.cube(x)
            assert out.strides == (x**3).strides
            assert _same_bits(out, x**3)

    @pytest.mark.skipif(not (sys.platform == "linux" and platform.machine() == "x86_64"),
                        reason="long double is known to be x87 80-bit only on x86-64 Linux")
    def test_long_double_path_taken_on_x86_64_linux(self):
        # the bit tests above check the long-double path only when it runs
        assert nn.tensor._LONG_DOUBLE_CUBE

    def test_gelu_bits_unchanged(self):
        x = np.random.default_rng(19).normal(size=(2, 33, 64)) * 2.0
        c = np.sqrt(2.0 / np.pi)
        reference = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))
        assert _same_bits(Tensor(x).gelu().data, reference)


class TestShapeOps:
    def test_matmul(self):
        rng = np.random.default_rng(4)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        check_op(lambda x: ((x @ w) ** 2.0).sum(), (3, 4))
        x = Tensor(rng.normal(size=(3, 4)))
        ((x @ w) ** 2.0).sum().backward()
        assert w.grad.shape == (4, 2)

    def test_batched_matmul(self):
        check_op(lambda x: (x @ x.transpose(0, 2, 1)).sum(), (2, 3, 4))

    def test_reshape_transpose_slice(self):
        check_op(lambda x: (x.reshape(6, 2).transpose(1, 0)[:, 1:4] ** 2.0).sum(), (3, 4))

    def test_concat_stack(self):
        rng = np.random.default_rng(5)
        y = Tensor(rng.normal(size=(3, 2)))
        check_op(lambda x: (nn.concat([x, y], axis=1) ** 2.0).sum(), (3, 2))
        check_op(lambda x: (nn.stack([x, x * 2.0], axis=0) ** 2.0).sum(), (3, 2))

    def test_pad_upsample(self):
        check_op(lambda x: (x.pad1d(2, 1) * x.pad1d(2, 1)).sum(), (2, 5))
        check_op(lambda x: (x.upsample_repeat(3) ** 2.0).sum(), (2, 4))

    def test_sum_axis_keepdims(self):
        check_op(lambda x: (x - x.sum(axis=1, keepdims=True)).mean(), (4, 5))
        check_op(lambda x: x.mean(axis=(0, 2)).sum(), (2, 3, 4))


class TestGatherSoftmax:
    def test_gather_rows_repeats(self):
        rng = np.random.default_rng(6)
        idx = np.array([0, 2, 2, 1])
        check_op(lambda x: (nn.gather_rows(x, idx) ** 2.0).sum(), (3, 4))

    def test_gather_last(self):
        idx = np.array([[0, 3], [2, 1]])
        check_op(lambda x: nn.gather_last(x, idx).sum(), (2, 2, 4))

    def test_softmax_logsoftmax(self):
        check_op(lambda x: (nn.softmax(x, axis=-1) * nn.softmax(x, axis=-1)).sum(), (3, 5))
        check_op(lambda x: nn.log_softmax(x, axis=-1).sum(), (3, 5))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        s = nn.softmax(Tensor(rng.normal(size=(4, 6)) * 10))
        np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)


class TestConv:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 2)])
    def test_conv1d_grads(self, stride, padding):
        rng = np.random.default_rng(8)
        w0 = rng.normal(size=(3, 2, 3))
        b0 = rng.normal(size=(3,))

        def run(x, w, b):
            return nn.conv1d(x, w, b, stride=stride, padding=padding)

        x = Tensor(rng.normal(size=(2, 2, 8)), requires_grad=True)
        w = Tensor(w0.copy(), requires_grad=True)
        b = Tensor(b0.copy(), requires_grad=True)
        (run(x, w, b) ** 2.0).sum().backward()

        fd_x = finite_diff(lambda a: (run(Tensor(a), Tensor(w0), Tensor(b0)).data ** 2).sum(), x.data.copy())
        fd_w = finite_diff(lambda a: (run(Tensor(x.data), Tensor(a), Tensor(b0)).data ** 2).sum(), w0.copy())
        fd_b = finite_diff(lambda a: (run(Tensor(x.data), Tensor(w0), Tensor(a)).data ** 2).sum(), b0.copy())
        np.testing.assert_allclose(x.grad, fd_x, atol=1e-6)
        np.testing.assert_allclose(w.grad, fd_w, atol=1e-6)
        np.testing.assert_allclose(b.grad, fd_b, atol=1e-6)

    def test_conv_matches_direct_sum(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(1, 2, 6))
        w = rng.normal(size=(1, 2, 3))
        out = nn.conv1d(Tensor(x), Tensor(w), None).data
        manual = np.array(
            [[(x[0, :, t:t + 3] * w[0]).sum() for t in range(4)]]
        )[None]
        np.testing.assert_allclose(out, manual, atol=1e-12)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 2)])
    @pytest.mark.parametrize("time_major", [False, True])
    def test_conv1d_grads_match_im2col_reference_bitwise(self, stride, padding, time_major):
        rng = np.random.default_rng(17)
        # time_major: x is a (B, C, T) view of (B, T, C) memory, as activations are
        x0 = rng.normal(size=(3, 17, 4)).transpose(0, 2, 1) if time_major else rng.normal(size=(3, 4, 17))
        w0 = rng.normal(size=(5, 4, 3))
        b0 = rng.normal(size=(5,))
        x = Tensor(x0, requires_grad=True)
        w = Tensor(w0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        y = nn.conv1d(x, w, b, stride=stride, padding=padding)
        g = rng.normal(size=y.shape)
        y.backward(g)

        # the gradients from an im2col matrix built entry by entry
        xp = np.pad(x0, ((0, 0), (0, 0), (padding, padding)))
        B, C, Tp = xp.shape
        O, _, K = w0.shape
        T_out = (Tp - K) // stride + 1
        col = np.empty((B * T_out, C * K))
        for i in range(B):
            for t in range(T_out):
                for c in range(C):
                    for k in range(K):
                        col[i * T_out + t, c * K + k] = xp[i, c, t * stride + k]
        g2 = np.ascontiguousarray(g.transpose(0, 2, 1)).reshape(B * T_out, O)
        gcol = (g2 @ w0.reshape(O, C * K)).reshape(B, T_out, C, K)
        gxp = np.zeros_like(xp)
        for k in range(K):  # each input position sums its terms in tap order
            for t in range(T_out):
                gxp[:, :, t * stride + k] += gcol[:, t, :, k]
        np.testing.assert_array_equal(w.grad, (g2.T @ col).reshape(O, C, K))
        np.testing.assert_array_equal(b.grad, g2.sum(axis=0))
        np.testing.assert_array_equal(x.grad, gxp[:, :, padding:Tp - padding])

    def test_conv1d_tape_keeps_the_padded_input_not_im2col(self):
        rng = np.random.default_rng(18)
        x = Tensor(rng.normal(size=(2, 8, 256)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 8, 5)), requires_grad=True)
        nn.conv1d(x, w, None, padding=2)  # warm-up
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y = nn.conv1d(x, w, None, padding=2)
            live = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        padded = x.data.nbytes * 260 // 256
        assert live <= y.data.nbytes + padded + 8 * 1024  # im2col would add 5x padded


class TestLinear:
    """nn.Linear is one tape node with the bits of `(x @ W) + b` built from two."""

    @staticmethod
    def _run(shape, fused: bool, twice: bool = False):
        rng = np.random.default_rng(19)
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        layer = nn.Linear(shape[-1], shape[-1] + 3, rng)
        layer.bias.data = rng.normal(size=layer.bias.data.shape)

        def apply(t):
            return layer(t) if fused else (t @ layer.weight) + layer.bias

        y = apply(x)
        if twice:  # the layer's parameters take two gradients in one graph
            y = apply(y[..., :shape[-1]].tanh()) + y.gelu() * 0.5
        out = y.data
        y.backward(rng.normal(size=y.shape))
        return out, x.grad, layer.weight.grad, layer.bias.grad

    def test_forward_is_one_node_over_input_weight_and_bias(self):
        rng = np.random.default_rng(20)
        layer = nn.Linear(4, 3, rng)
        x = Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
        y = layer(x)
        assert len(y._parents) == 3
        assert all(a is b for a, b in zip(y._parents, (x, layer.weight, layer.bias)))

    @pytest.mark.parametrize("shape", [(7, 6), (3, 7, 6), (2, 3, 7, 6), (4, 1, 6)])
    @pytest.mark.parametrize("twice", [False, True])
    def test_bits_match_the_two_node_reference(self, shape, twice):
        fused = self._run(shape, fused=True, twice=twice)
        reference = self._run(shape, fused=False, twice=twice)
        for name, a, b in zip(("output", "x.grad", "weight.grad", "bias.grad"), fused, reference):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    def test_weight_gradient_holds_no_per_item_stack(self):
        rng = np.random.default_rng(21)
        layer = nn.Linear(48, 2892, rng)
        x = Tensor(rng.normal(size=(48, 16, 48)), requires_grad=True)
        y = layer(x)
        g = rng.normal(size=y.shape)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y.backward(g)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        stack = 48 * layer.weight.data.nbytes  # one (48, 2892) product per item: 53 MB
        # the input gradient plus a few (in, out) buffers
        assert peak <= x.data.nbytes + 4 * layer.weight.data.nbytes < stack / 8


class TestModules:
    def test_layer_modules_grad_flow(self):
        rng = np.random.default_rng(10)
        block = nn.TransformerBlock(8, 2, rng)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 5, 8)), requires_grad=True)
        (block(x) ** 2.0).sum().backward()
        for name, p in block.named_parameters():
            assert p.grad is not None, name
        assert x.grad is not None

    def test_tape_free_block_is_within_an_ulp_of_the_taped_block(self):
        block = nn.TransformerBlock(16, 4, np.random.default_rng(14))
        x = Tensor(np.random.default_rng(3).normal(size=(2, 9, 16)) * 2.0)
        taped = block(x).data
        h = x + block.attn(block.norm1(x))
        exact = h + block.fc2(block.fc1(block.norm2(h)).gelu())  # Tensor.gelu, so cube
        np.testing.assert_array_equal(taped, exact.data)
        with nn.no_grad():
            free = block(x).data
        np.testing.assert_allclose(free, taped, rtol=1e-12, atol=0)
        assert not np.array_equal(free, taped)  # the multiply cube did run

    def test_attention_width_must_divide_into_heads(self):
        with pytest.raises(ParameterError):
            nn.SelfAttention(10, 4, np.random.default_rng(0))

    def test_named_parameters_unique(self):
        rng = np.random.default_rng(11)
        block = nn.TransformerBlock(8, 2, rng)
        names = [n for n, _ in block.named_parameters()]
        assert len(names) == len(set(names))

    def test_state_holds_parameters_and_buffers_of_every_child(self):
        class Stats(nn.Module):
            def __init__(self, rng):
                super().__init__()
                self.proj = nn.Linear(3, 2, rng)
                self.mean = rng.normal(size=3)
                self.count = rng.integers(0, 9, size=4)

            def buffers(self):
                return {"norm.mean": (self, "mean"), "norm.count": (self, "count")}

        class Outer(nn.Module):
            def __init__(self, rng):
                super().__init__()
                self.scale = self.register("scale", rng.normal(size=2))
                self.inner = Stats(rng)

        a, b = Outer(np.random.default_rng(0)), Outer(np.random.default_rng(1))
        arrays = a.state()
        assert sorted(arrays) == ["inner.norm.count", "inner.norm.mean", "inner.proj.bias",
                                  "inner.proj.weight", "scale"]
        b.load_state(arrays)
        for name, arr in b.state().items():
            assert arr.dtype == arrays[name].dtype, name
            np.testing.assert_array_equal(arr, arrays[name], err_msg=name)
        with pytest.raises(ParameterError, match="inner.norm.mean"):
            b.load_state({k: v for k, v in arrays.items() if k != "inner.norm.mean"})
        with pytest.raises(ShapeError, match="inner.norm.count"):
            b.load_state({**arrays, "inner.norm.count": np.arange(5)})

    def test_layernorm_normalizes(self):
        rng = np.random.default_rng(12)
        ln = nn.LayerNorm(16)
        y = ln(Tensor(rng.normal(size=(3, 16)) * 5 + 2)).data
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-8)
        np.testing.assert_allclose(y.std(axis=-1), 1.0, atol=1e-3)

    def test_transformer_block_fd_gradient(self):
        rng = np.random.default_rng(13)
        block = nn.TransformerBlock(4, 2, rng)
        x = np.random.default_rng(1).normal(size=(1, 3, 4))

        def loss_value():
            return (block(Tensor(x)) ** 2.0).sum().item()

        block.zero_grad()
        (block(Tensor(x)) ** 2.0).sum().backward()
        params = block.named_parameters()
        rng2 = np.random.default_rng(2)
        for _ in range(10):
            name, p = params[rng2.integers(len(params))]
            idx = tuple(rng2.integers(s) for s in p.data.shape)
            h = 1e-5
            orig = p.data[idx]
            p.data[idx] = orig + h
            up = loss_value()
            p.data[idx] = orig - h
            down = loss_value()
            p.data[idx] = orig
            fd = (up - down) / (2 * h)
            an = p.grad[idx]
            assert abs(an - fd) <= 2e-3 * max(abs(an), abs(fd), 1e-4), name


class TestNoGrad:
    OPS = {
        "add": lambda a, b: a + b,
        "matmul": lambda a, b: a @ b,
        "linear": lambda a, b: nn.linear(a, b, b[0]),
        "gelu": lambda a, b: a.gelu(),
        "concat": lambda a, b: nn.concat([a, b], axis=0),
        "softmax": lambda a, b: nn.softmax(a),
        "conv1d": lambda a, b: nn.conv1d(a.reshape(1, 4, 4), b.reshape(4, 4, 1), None),
    }

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_results_hold_no_tape(self, op):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        taped = self.OPS[op](a, b)
        with nn.no_grad():
            out = self.OPS[op](a, b)
        assert taped.requires_grad and taped._parents
        assert not out.requires_grad
        assert out._parents == () and out._backward is None
        np.testing.assert_array_equal(out.data, taped.data)

    def test_nesting_and_exceptions_restore_the_mode(self):
        from dancegen.nn import tensor

        w = Tensor(np.ones(3), requires_grad=True)
        with nn.no_grad():
            with nn.no_grad():
                pass
            assert not (w * 2.0).requires_grad
        assert tensor._grad_enabled
        with pytest.raises(RuntimeError):
            with nn.no_grad():
                raise RuntimeError("boom")
        assert tensor._grad_enabled
        assert (w * 2.0).requires_grad

    def test_decorator(self):
        from dancegen.nn import tensor

        @nn.no_grad()
        def double(x):
            assert not tensor._grad_enabled
            return x * 2.0

        @nn.no_grad()
        def fail():
            raise ValueError("boom")

        w = Tensor(np.ones(3), requires_grad=True)
        assert not double(w).requires_grad
        assert not double(w).requires_grad  # the decorator is reusable
        with pytest.raises(ValueError):
            fail()
        assert tensor._grad_enabled and (w * 2.0).requires_grad


class TestTapeRelease:
    @staticmethod
    def _forward(w: Tensor):
        x = Tensor(np.random.default_rng(14).normal(size=(5, 4)))
        h = (x @ w).gelu()
        return h, (h * h).mean()

    def test_backward_releases_root_and_interior_nodes(self):
        w = Tensor(np.random.default_rng(15).normal(size=(4, 3)), requires_grad=True)
        h, loss = self._forward(w)
        inner = h._parents[0]  # x @ w
        loss.backward()
        for node in (loss, h, inner):
            assert node.grad is None and node._parents == ()
            assert getattr(node._backward, "__closure__", None) is None
        assert w.grad is not None and w._parents == ()

    def test_second_backward_over_a_released_graph_raises(self):
        w = Tensor(np.random.default_rng(15).normal(size=(4, 3)), requires_grad=True)
        h, loss = self._forward(w)
        loss.backward()
        first = w.grad.copy()
        with pytest.raises(GraphReleasedError):
            loss.backward()
        with pytest.raises(GraphReleasedError):
            (h * 2.0).sum().backward()  # a new graph on a released node
        np.testing.assert_array_equal(w.grad, first)

    def test_leaf_grads_accumulate_across_passes(self):
        w = Tensor(np.random.default_rng(15).normal(size=(4, 3)), requires_grad=True)
        self._forward(w)[1].backward()
        first = w.grad.copy()
        self._forward(w)[1].backward()
        np.testing.assert_array_equal(w.grad, first + first)

    def test_backward_without_grad_needs_a_scalar(self):
        out = Tensor(np.ones(3), requires_grad=True) * 2.0
        with pytest.raises(ShapeError):
            out.backward()

    def test_training_step_frees_its_tape_when_backward_returns(self):
        rng = np.random.default_rng(16)
        conv = nn.Conv1d(8, 16, 3, rng, padding=1)
        block = nn.TransformerBlock(16, 2, rng)
        params = conv.parameters() + block.parameters()
        opt = nn.AdamW(params, lr=1e-3)
        x = rng.normal(size=(4, 8, 64))

        def step():
            loss = (block(conv(Tensor(x)).transpose(0, 2, 1)) ** 2.0).mean()
            loss.backward()
            return loss

        step()  # warm-up: first-call allocations and the optimizer's moments
        opt.step()
        opt.zero_grad()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss = step()
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        outputs = sum(p.grad.nbytes for p in params) + loss.data.nbytes
        assert peak - before > 20 * outputs  # the forward tape was there
        assert after - before <= outputs + 16 * 1024


class TestOptim:
    def test_adamw_reduces_quadratic(self):
        p = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = nn.AdamW([p], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            (p * p).sum().backward()
            opt.step()
        assert np.all(np.abs(p.data) < 0.05)

    def test_warmup(self):
        assert nn.warmup_lr(0, 1.0, 10) == pytest.approx(0.1)
        assert nn.warmup_lr(9, 1.0, 10) == pytest.approx(1.0)
        assert nn.warmup_lr(500, 1.0, 10) == 1.0


class TestRng:
    def test_splitmix_known_value(self):
        # first output of the reference splitmix64 stream seeded with 0
        assert nn.splitmix64(0) == 0xE220A8397B1DCDAF

    def test_derive_seed_stable_and_distinct(self):
        a = nn.derive_seed(42, "hrvq", "init")
        assert a == nn.derive_seed(42, "hrvq", "init")
        assert a != nn.derive_seed(42, "hrvq", "batch")
        assert a != nn.derive_seed(43, "hrvq", "init")

    def test_generator_reproducible(self):
        g1 = nn.generator(7, "x").normal(size=5)
        g2 = nn.generator(7, "x").normal(size=5)
        np.testing.assert_array_equal(g1, g2)
