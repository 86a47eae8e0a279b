import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from edgesleep import kernels
from edgesleep.kernels import (
    LAYER_NORM_EPS,
    NonFiniteError,
    conv1d,
    conv1d_backward,
    dense,
    dense_backward,
    layer_norm,
    layer_norm_backward,
    multi_head_attention_backward,
    multi_head_attention_with_cache,
    relu,
    relu_backward,
    softmax,
    softmax_backward,
)
from edgesleep.model import ArchConfig

from oracles import (
    conv1d_input_gradient_reference,
    conv1d_reference,
    layer_norm_backward_reference,
    numeric_gradient,
    relative_error,
)

GRAD_TOL = 1e-4


class TestConv1d:
    def test_output_length_default_first_layer(self):
        x = np.zeros((3000, 1))
        w = np.zeros((50, 1, 32))
        out = conv1d(x, w, np.zeros(32), stride=6)
        assert out.shape == (492, 32)

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 1))
        w = np.ones((1, 1, 1))
        out = conv1d(x, w, np.zeros(1), stride=1)
        np.testing.assert_array_equal(out, x)

    def test_default_length_chain(self):
        lengths = []
        length = 3000
        for k, s, c in ((50, 6, 32), (8, 4, 64), (8, 3, 128), (3, 2, 128)):
            length = (length - k) // s + 1
            lengths.append(length)
        assert lengths == [492, 122, 39, 19]

    @given(
        seed=st.integers(0, 2**31),
        L=st.integers(4, 24),
        K=st.integers(1, 4),
        stride=st.integers(1, 3),
        cin=st.integers(1, 3),
        cout=st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_triple_loop_reference(self, seed, L, K, stride, cin, cout):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(max(L, K), cin))
        w = rng.normal(size=(K, cin, cout))
        b = rng.normal(size=cout)
        got = conv1d(x, w, b, stride)
        np.testing.assert_allclose(got, conv1d_reference(x, w, b, stride), atol=1e-10)

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(11, 2))
        w = rng.normal(size=(3, 2, 4))
        b = rng.normal(size=4)
        g = rng.normal(size=(5, 4))  # Lout = (11-3)//2+1 = 5
        dx, dw, db = conv1d_backward(x, w, 2, g)
        loss = lambda out: float((out * g).sum())
        assert relative_error(dx, numeric_gradient(lambda v: loss(conv1d(v, w, b, 2)), x)) < GRAD_TOL
        assert relative_error(dw, numeric_gradient(lambda v: loss(conv1d(x, v, b, 2)), w)) < GRAD_TOL
        assert relative_error(db, numeric_gradient(lambda v: loss(conv1d(x, w, v, 2)), b)) < GRAD_TOL


def im2col_oracle(x, K, stride):
    """The windows as sliding_window_view builds them, copied k-major."""
    windows = sliding_window_view(x, K, axis=-2)[..., ::stride, :, :]
    cols = np.ascontiguousarray(windows.swapaxes(-1, -2))
    return cols.reshape(*cols.shape[:-2], K * x.shape[-1])


def conv_input_shapes(width):
    """(L, Cin, K, stride) of each conv layer of the network at width."""
    config = ArchConfig(width_multiplier=width)
    lengths = [3000] + config.conv_lengths()[:-1]
    channels = [1] + [c for _, _, c in config.scaled_conv_table[:-1]]
    return [
        (L, cin, k, s) for L, cin, (k, s, _) in zip(lengths, channels, config.scaled_conv_table)
    ]


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous
    np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))


class TestIm2col:
    """_im2col is a strided view plus one copy; it must give the bits of
    the sliding_window_view formula for every input layout."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [1.0, 0.25])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 2)])
    def test_matches_sliding_window_view(self, dtype, width, lead):
        rng = np.random.default_rng(21)
        for L, cin, K, stride in conv_input_shapes(width):
            x = rng.normal(size=(*lead, L, cin)).astype(dtype)
            assert_same_bits(kernels._im2col(x, K, stride), im2col_oracle(x, K, stride))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stride_zero_channel_axis(self, dtype):
        # forward's x[..., None]: numpy may give the length-1 axis stride 0
        v = np.random.default_rng(22).normal(size=(2, 3000)).astype(dtype)
        x = v[..., None]
        for row in (x, x[0]):
            assert_same_bits(kernels._im2col(row, 50, 6), im2col_oracle(row, 50, 6))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_contiguous_input(self, dtype):
        big = np.random.default_rng(23).normal(size=(3, 2 * 122, 64)).astype(dtype)
        for x in (big[:, ::2], big[..., ::2], big[1, 5:200, :3]):
            assert not x.flags.c_contiguous
            assert_same_bits(kernels._im2col(x, 8, 3), im2col_oracle(x, 8, 3))


def conv_layer_shapes(width):
    """(L, Cin, K, stride, Cout) of each conv layer of the network at width."""
    table = ArchConfig(width_multiplier=width).scaled_conv_table
    return [(*shape, cout) for shape, (_, _, cout) in zip(conv_input_shapes(width), table)]


# (L, Cin, K, stride, Cout): stride above K, stride 1, and two with (L - K) % stride != 0
SMALL_CONV_SHAPES = [(11, 3, 2, 5, 4), (17, 2, 3, 1, 5), (20, 2, 3, 2, 5), (24, 3, 5, 3, 4)]


def conv_gradient_case(rng, lead, shape, dtype, exact=False):
    """(x, w, stride, grad_out) for one conv shape; exact draws small
    integers, whose products and sums every summation order gets right."""
    L, cin, K, stride, cout = shape
    draw = (lambda size: rng.integers(-4, 5, size=size)) if exact else rng.normal
    lout = (L - K) // stride + 1
    return (
        draw(size=(*lead, L, cin)).astype(dtype),
        draw(size=(K, cin, cout)).astype(dtype),
        stride,
        draw(size=(*lead, lout, cout)).astype(dtype),
    )


class TestConvInputGradient:
    """conv1d_backward's input gradient, one GEMM per block of `stride`
    taps added as contiguous slices, against the per-tap strided scatter."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 2)])
    def test_every_product_lands_where_the_scatter_puts_it(self, dtype, lead):
        # integer data makes every product exact, so the bits check the
        # layout of every shape (conv1's Cin = 1 too) on any BLAS
        rng = np.random.default_rng(25)
        shapes = SMALL_CONV_SHAPES + conv_layer_shapes(1.0) + conv_layer_shapes(0.25)
        for shape in shapes:
            x, w, stride, g = conv_gradient_case(rng, lead, shape, dtype, exact=True)
            dx, _, _ = conv1d_backward(x, w, stride, g)
            want = conv1d_input_gradient_reference(x, w, stride, g)
            assert dx.dtype == want.dtype and dx.shape == want.shape, shape
            np.testing.assert_array_equal(dx.view(np.uint8), want.view(np.uint8), err_msg=str(shape))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "width, lead",
        [(1.0, ()), (1.0, (3,)), (1.0, (2, 2)), (1.0, (8,)), (0.25, (3,)), (0.25, (2, 2)), (0.25, (8,))],
    )
    def test_bitwise_on_the_shapes_training_runs(self, dtype, width, lead):
        """Same bits as the per-tap scatter on the layers whose input
        gradient backprop asks for (conv2-conv4), in chunks of several
        rows.  A block's GEMM is wider than a tap's, and BLAS may order a
        dot product differently for another shape: OpenBLAS 0.3.31 on an
        AVX-512 x86 does for one-row calls at width 0.25 (conv3, conv4) and
        for Cin = 1 (conv1, whose input gradient is never asked for), which
        test_close_on_every_shape covers."""
        rng = np.random.default_rng(26)
        for shape in SMALL_CONV_SHAPES + conv_layer_shapes(width)[1:]:
            x, w, stride, g = conv_gradient_case(rng, lead, shape, dtype)
            dx, _, _ = conv1d_backward(x, w, stride, g)
            want = conv1d_input_gradient_reference(x, w, stride, g)
            np.testing.assert_array_equal(dx.view(np.uint8), want.view(np.uint8), err_msg=str(shape))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(), (1,), (3,), (2, 2), (8,)])
    def test_close_on_every_shape(self, dtype, lead):
        rng = np.random.default_rng(27)
        shapes = SMALL_CONV_SHAPES + conv_layer_shapes(1.0) + conv_layer_shapes(0.25)
        for shape in shapes:
            x, w, stride, g = conv_gradient_case(rng, lead, shape, dtype)
            dx, _, _ = conv1d_backward(x, w, stride, g)
            want = conv1d_input_gradient_reference(x, w, stride, g)
            scale = 64 * np.finfo(dtype).eps * np.abs(want).max()
            np.testing.assert_allclose(dx, want, rtol=0, atol=scale, err_msg=str(shape))


class TestDense:
    def test_identity(self):
        x = np.array([3.0, -1.0])
        np.testing.assert_array_equal(dense(x, np.eye(2), np.zeros(2)), x)

    def test_small_example(self):
        out = dense(np.array([1.0, 2.0]), np.eye(2), np.array([3.0, 4.0]))
        np.testing.assert_array_equal(out, [4.0, 6.0])

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=8)
        w = rng.normal(size=(8, 8))
        b = rng.normal(size=8)
        g = rng.normal(size=8)
        dx, dw, db = dense_backward(x, w, g)
        loss = lambda out: float((out * g).sum())
        assert relative_error(dw, numeric_gradient(lambda v: loss(dense(x, v, b)), w)) < GRAD_TOL
        assert relative_error(dx, numeric_gradient(lambda v: loss(dense(v, w, b)), x)) < GRAD_TOL
        assert relative_error(db, numeric_gradient(lambda v: loss(dense(x, w, v)), b)) < GRAD_TOL

    def test_positionwise_gradients(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 4))
        w = rng.normal(size=(4, 6))
        b = rng.normal(size=6)
        g = rng.normal(size=(5, 6))
        dx, dw, db = dense_backward(x, w, g)
        loss = lambda out: float((out * g).sum())
        assert relative_error(dw, numeric_gradient(lambda v: loss(dense(x, v, b)), w)) < GRAD_TOL
        assert relative_error(dx, numeric_gradient(lambda v: loss(dense(v, w, b)), x)) < GRAD_TOL


class TestRelu:
    def test_values(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_positive_passthrough(self):
        x = np.array([0.5, 3.0])
        np.testing.assert_array_equal(relu(x), x)

    def test_gradient_away_from_zero(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=20)
        x = np.where(np.abs(x) < 0.1, 0.5, x)  # keep clear of the kink
        g = rng.normal(size=20)
        dx = relu_backward(x, g)
        assert relative_error(dx, numeric_gradient(lambda v: float((relu(v) * g).sum()), x)) < GRAD_TOL

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mask_from_output_equals_mask_from_input(self, dtype):
        """The train cache keeps only ReLU outputs: relu(z) > 0 exactly where
        z > 0, so the gradient is the same bits, at the kink too."""
        rng = np.random.default_rng(5)
        z = rng.normal(size=(4, 64)).astype(dtype)
        z[0, :6] = [0.0, -0.0, 1e-38, -1e-38, 0.0, -0.0]
        g = rng.normal(size=z.shape).astype(dtype)
        got = relu_backward(relu(z), g)
        want = relu_backward(z, g)
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(softmax(np.zeros(5)), np.full(5, 0.2))

    def test_extreme_values_stable(self):
        out = softmax(np.array([1000.0, 0.0]))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_closed_form(self):
        out = softmax(np.array([np.log(2.0), 0.0]))
        np.testing.assert_allclose(out, [2 / 3, 1 / 3], atol=1e-12)

    @given(seed=st.integers(0, 2**31), shift=st.floats(-50, 50))
    @settings(max_examples=40, deadline=None)
    def test_rows_sum_to_one_and_shift_invariant(self, seed, shift):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(4, 7))
        p = softmax(x)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-6)
        np.testing.assert_allclose(softmax(x + shift), p, atol=1e-9)

    def test_gradient(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=6)
        g = rng.normal(size=6)
        dx = softmax_backward(softmax(x), g)
        assert relative_error(dx, numeric_gradient(lambda v: float((softmax(v) * g).sum()), x)) < GRAD_TOL


class TestLayerNorm:
    def test_normalizes_rows(self):
        x = np.array([[1.0, 2.0, 3.0], [10.0, 20.0, 60.0]])
        out = layer_norm(x, np.ones(3), np.zeros(3))
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.std(axis=1), 1.0, atol=1e-4)  # eps-floored

    def test_constant_row_becomes_zero(self):
        out = layer_norm(np.full((2, 4), 7.0), np.ones(4), np.zeros(4))
        np.testing.assert_array_equal(out, np.zeros((2, 4)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(19, 128), (4, 19, 96)])  # 96: width 0.75
    def test_matches_numpy_mean_and_var(self, dtype, shape):
        # bitwise numpy's own formula, so a numpy release that changes how
        # mean or var sum shows here
        rng = np.random.default_rng(24)
        x = rng.normal(size=shape)
        x[..., 0, :] += 1e4  # a common offset much larger than the spread
        x[..., 1, :] = 3.0 + 1e-6 * rng.normal(size=shape[-1])  # a tiny spread
        x = x.astype(dtype)
        gain = rng.normal(size=shape[-1]).astype(dtype)
        shift = rng.normal(size=shape[-1]).astype(dtype)
        want = (x - x.mean(-1, keepdims=True)) / np.sqrt(
            x.var(-1, keepdims=True) + LAYER_NORM_EPS
        ) * gain + shift
        got = layer_norm(x, gain, shift)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(19, 128), (4, 19, 96), (8, 19, 32)])
    def test_backward_matches_numpy_mean_and_var(self, dtype, shape):
        rng = np.random.default_rng(28)
        x = rng.normal(size=shape)
        x[..., 0, :] += 1e4
        x[..., 1, :] = 3.0 + 1e-6 * rng.normal(size=shape[-1])
        x = x.astype(dtype)
        gain = rng.normal(size=shape[-1]).astype(dtype)
        g = rng.normal(size=shape).astype(dtype)
        got = layer_norm_backward(x, gain, g)
        want = layer_norm_backward_reference(x, gain, g, LAYER_NORM_EPS)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8))

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 8))
        gain = rng.normal(size=8)
        shift = rng.normal(size=8)
        g = rng.normal(size=(4, 8))
        dx, dgain, dshift = layer_norm_backward(x, gain, g)
        loss = lambda out: float((out * g).sum())
        assert relative_error(dx, numeric_gradient(lambda v: loss(layer_norm(v, gain, shift)), x)) < GRAD_TOL
        assert relative_error(dgain, numeric_gradient(lambda v: loss(layer_norm(x, v, shift)), gain)) < GRAD_TOL
        assert relative_error(dshift, numeric_gradient(lambda v: loss(layer_norm(x, gain, v)), shift)) < GRAD_TOL


def attention_weights(rng, d):
    w = {}
    for name in ("wq", "wk", "wv", "wo"):
        w[name] = rng.normal(size=(d, d)) / np.sqrt(d)
    for name in ("bq", "bk", "bv", "bo"):
        w[name] = rng.normal(size=d) * 0.1
    return w


def run_attention(x, w, heads):
    return multi_head_attention_with_cache(
        x, w["wq"], w["bq"], w["wk"], w["bk"], w["wv"], w["bv"], w["wo"], w["bo"], heads
    )[0]


class TestAttention:
    def test_single_position_weight_is_one(self):
        rng = np.random.default_rng(7)
        w = attention_weights(rng, 4)
        x = rng.normal(size=(1, 4))
        _, cache = multi_head_attention_with_cache(
            x, w["wq"], w["bq"], w["wk"], w["bk"], w["wv"], w["bv"], w["wo"], w["bo"], 2
        )
        np.testing.assert_allclose(cache.attn, np.ones((2, 1, 1)))

    def test_identical_rows_give_uniform_attention(self):
        rng = np.random.default_rng(8)
        w = attention_weights(rng, 6)
        row = rng.normal(size=6)
        x = np.tile(row, (5, 1))
        _, cache = multi_head_attention_with_cache(
            x, w["wq"], w["bq"], w["wk"], w["bk"], w["wv"], w["bv"], w["wo"], w["bo"], 3
        )
        np.testing.assert_allclose(cache.attn, np.full((3, 5, 5), 0.2), atol=1e-12)

    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(9)
        w = attention_weights(rng, 8)
        x = rng.normal(size=(6, 8))
        _, cache = multi_head_attention_with_cache(
            x, w["wq"], w["bq"], w["wk"], w["bk"], w["wv"], w["bv"], w["wo"], w["bo"], 4
        )
        np.testing.assert_allclose(cache.attn.sum(axis=-1), 1.0, atol=1e-6)

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(11)
        d, heads = 4, 2
        w = attention_weights(rng, d)
        x = rng.normal(size=(3, d))
        g = rng.normal(size=(3, d))
        out, cache = multi_head_attention_with_cache(
            x, w["wq"], w["bq"], w["wk"], w["bk"], w["wv"], w["bv"], w["wo"], w["bo"], heads
        )
        dx, grads = multi_head_attention_backward(
            cache, w["wq"], w["wk"], w["wv"], w["wo"], g
        )
        loss = lambda out: float((out * g).sum())
        fd_x = numeric_gradient(
            lambda v: loss(run_attention(v, w, heads)), x
        )
        assert relative_error(dx, fd_x) < GRAD_TOL
        for name in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo"):
            def f(v, name=name):
                probe = dict(w)
                probe[name] = v
                return loss(run_attention(x, probe, heads))

            assert relative_error(grads[name], numeric_gradient(f, w[name])) < GRAD_TOL, name


class TestDeterminismAndFiniteness:
    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(40, 3))
        w = rng.normal(size=(5, 3, 8))
        b = rng.normal(size=8)
        a = conv1d(x, w, b, 2)
        bb = conv1d(x.copy(), w.copy(), b.copy(), 2)
        assert np.array_equal(a, bb)

    def test_non_finite_is_hard_error(self):
        x = np.full((10, 1), 1e300)
        w = np.full((2, 1, 1), 1e300)
        # the overflow is the point of the test; the kernel must still raise
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            conv1d(x, w, np.zeros(1), 1)


class TestBatchedKernels:
    """A call on [N, ...] equals N stacked single calls; parameter
    gradients of a batched call equal the sum of the single-call ones."""

    N = 3

    def setup_method(self):
        self.rng = np.random.default_rng(13)

    def stacked(self, fn, xs):
        return np.stack([fn(x) for x in xs])

    def test_conv1d(self):
        x = self.rng.normal(size=(self.N, 17, 2))
        w = self.rng.normal(size=(3, 2, 5))
        b = self.rng.normal(size=5)
        want = self.stacked(lambda v: conv1d(v, w, b, 2), x)
        np.testing.assert_allclose(conv1d(x, w, b, 2), want, rtol=1e-12, atol=1e-12)

    def test_conv1d_backward(self):
        x = self.rng.normal(size=(self.N, 17, 2))
        w = self.rng.normal(size=(3, 2, 5))
        g = self.rng.normal(size=(self.N, 8, 5))
        dx, dw, db = conv1d_backward(x, w, 2, g)
        singles = [conv1d_backward(x[n], w, 2, g[n]) for n in range(self.N)]
        np.testing.assert_allclose(dx, np.stack([s[0] for s in singles]), atol=1e-12)
        np.testing.assert_allclose(dw, sum(s[1] for s in singles), atol=1e-12)
        np.testing.assert_allclose(db, sum(s[2] for s in singles), atol=1e-12)

    def test_conv1d_backward_without_dx(self):
        x = self.rng.normal(size=(self.N, 40, 1))
        w = self.rng.normal(size=(5, 1, 4))
        g = self.rng.normal(size=(self.N, 12, 4))
        _, dw, db = conv1d_backward(x, w, 3, g)
        skipped, dw0, db0 = conv1d_backward(x, w, 3, g, need_dx=False)
        assert skipped is None
        np.testing.assert_array_equal(dw0, dw)
        np.testing.assert_array_equal(db0, db)

    def test_dense(self):
        x = self.rng.normal(size=(self.N, 4, 6))
        w = self.rng.normal(size=(6, 3))
        b = self.rng.normal(size=3)
        g = self.rng.normal(size=(self.N, 4, 3))
        np.testing.assert_allclose(dense(x, w, b), self.stacked(lambda v: dense(v, w, b), x), atol=1e-12)
        dx, dw, db = dense_backward(x, w, g)
        singles = [dense_backward(x[n], w, g[n]) for n in range(self.N)]
        np.testing.assert_allclose(dx, np.stack([s[0] for s in singles]), atol=1e-12)
        np.testing.assert_allclose(dw, sum(s[1] for s in singles), atol=1e-12)
        np.testing.assert_allclose(db, sum(s[2] for s in singles), atol=1e-12)

    def test_relu_and_softmax(self):
        x = self.rng.normal(size=(self.N, 4, 5))
        g = self.rng.normal(size=(self.N, 4, 5))
        np.testing.assert_array_equal(relu(x), self.stacked(relu, x))
        np.testing.assert_array_equal(relu_backward(x, g), np.stack([relu_backward(a, b) for a, b in zip(x, g)]))
        p = softmax(x)
        np.testing.assert_allclose(p, self.stacked(softmax, x), atol=1e-15)
        np.testing.assert_allclose(
            softmax_backward(p, g), np.stack([softmax_backward(a, b) for a, b in zip(p, g)]), atol=1e-15
        )

    def test_layer_norm(self):
        x = self.rng.normal(size=(self.N, 4, 6))
        gain = self.rng.normal(size=6)
        shift = self.rng.normal(size=6)
        g = self.rng.normal(size=(self.N, 4, 6))
        want = self.stacked(lambda v: layer_norm(v, gain, shift), x)
        np.testing.assert_allclose(layer_norm(x, gain, shift), want, atol=1e-12)
        dx, dgain, dshift = layer_norm_backward(x, gain, g)
        singles = [layer_norm_backward(x[n], gain, g[n]) for n in range(self.N)]
        np.testing.assert_allclose(dx, np.stack([s[0] for s in singles]), atol=1e-12)
        np.testing.assert_allclose(dgain, sum(s[1] for s in singles), atol=1e-12)
        np.testing.assert_allclose(dshift, sum(s[2] for s in singles), atol=1e-12)

    def test_attention(self):
        w = attention_weights(self.rng, 8)
        x = self.rng.normal(size=(self.N, 5, 8))
        g = self.rng.normal(size=(self.N, 5, 8))
        out, cache = multi_head_attention_with_cache(
            x, w["wq"], w["bq"], w["wk"], w["bk"], w["wv"], w["bv"], w["wo"], w["bo"], 4
        )
        assert cache.attn.shape == (self.N, 4, 5, 5)
        np.testing.assert_allclose(out, self.stacked(lambda v: run_attention(v, w, 4), x), atol=1e-12)
        dx, grads = multi_head_attention_backward(cache, w["wq"], w["wk"], w["wv"], w["wo"], g)
        singles = []
        for n in range(self.N):
            _, c = multi_head_attention_with_cache(
                x[n], w["wq"], w["bq"], w["wk"], w["bk"], w["wv"], w["bv"], w["wo"], w["bo"], 4
            )
            singles.append(multi_head_attention_backward(c, w["wq"], w["wk"], w["wv"], w["wo"], g[n]))
        np.testing.assert_allclose(dx, np.stack([s[0] for s in singles]), atol=1e-12)
        for name in grads:
            np.testing.assert_allclose(grads[name], sum(s[1][name] for s in singles), atol=1e-12)


class TestBatchedGradients:
    """Finite-difference checks of the backward kernels on batched input."""

    def test_conv1d_backward(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(2, 11, 2))
        w = rng.normal(size=(3, 2, 4))
        b = rng.normal(size=4)
        g = rng.normal(size=(2, 5, 4))
        dx, dw, db = conv1d_backward(x, w, 2, g)
        loss = lambda out: float((out * g).sum())
        assert relative_error(dx, numeric_gradient(lambda v: loss(conv1d(v, w, b, 2)), x)) < GRAD_TOL
        assert relative_error(dw, numeric_gradient(lambda v: loss(conv1d(x, v, b, 2)), w)) < GRAD_TOL
        assert relative_error(db, numeric_gradient(lambda v: loss(conv1d(x, w, v, 2)), b)) < GRAD_TOL

    def test_layer_norm_backward(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(2, 3, 6))
        gain = rng.normal(size=6)
        shift = rng.normal(size=6)
        g = rng.normal(size=(2, 3, 6))
        dx, dgain, dshift = layer_norm_backward(x, gain, g)
        loss = lambda out: float((out * g).sum())
        assert relative_error(dx, numeric_gradient(lambda v: loss(layer_norm(v, gain, shift)), x)) < GRAD_TOL
        assert relative_error(dgain, numeric_gradient(lambda v: loss(layer_norm(x, v, shift)), gain)) < GRAD_TOL
        assert relative_error(dshift, numeric_gradient(lambda v: loss(layer_norm(x, gain, v)), shift)) < GRAD_TOL

    def test_attention_backward(self):
        rng = np.random.default_rng(16)
        d, heads = 4, 2
        w = attention_weights(rng, d)
        x = rng.normal(size=(2, 3, d))
        g = rng.normal(size=(2, 3, d))
        _, cache = multi_head_attention_with_cache(
            x, w["wq"], w["bq"], w["wk"], w["bk"], w["wv"], w["bv"], w["wo"], w["bo"], heads
        )
        dx, grads = multi_head_attention_backward(cache, w["wq"], w["wk"], w["wv"], w["wo"], g)
        loss = lambda out: float((out * g).sum())
        assert relative_error(dx, numeric_gradient(lambda v: loss(run_attention(v, w, heads)), x)) < GRAD_TOL
        for name in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo"):
            def f(v, name=name):
                probe = dict(w)
                probe[name] = v
                return loss(run_attention(x, probe, heads))

            assert relative_error(grads[name], numeric_gradient(f, w[name])) < GRAD_TOL, name
