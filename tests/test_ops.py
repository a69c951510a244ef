"""Layer kernel tests: shape laws, a direct-loop convolution oracle,
finite-difference gradients, and normalization semantics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, assume, strategies as st
from hypothesis.extra import numpy as hnp

from volcnn import gradcheck, ops
from volcnn.tensor import Rng, Tensor, ShapeError

# an overflow or invalid value in these tests is a failure, not a warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def naive_conv3d(x, w, b, spec):
    """Direct-loop cross-correlation, one multiply-add at a time. Oracle for
    the im2col kernel."""
    n, c, dd, hh, ww = x.shape
    o = w.shape[0]
    k, p, s, d = spec.k, spec.p, spec.s, spec.d
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p), (p, p)))
    outs = tuple(ops.conv_out_extent(e, k, p, s, d) for e in (dd, hh, ww))
    out = np.zeros((n, o) + outs, dtype=x.dtype)
    for ni in range(n):
        for oi in range(o):
            for zi in range(outs[0]):
                for yi in range(outs[1]):
                    for xi in range(outs[2]):
                        acc = b[oi]
                        for ci in range(c):
                            for i in range(k):
                                for j in range(k):
                                    for l in range(k):
                                        acc += (
                                            xp[ni, ci,
                                               zi * s + i * d,
                                               yi * s + j * d,
                                               xi * s + l * d]
                                            * w[oi, ci, i, j, l]
                                        )
                        out[ni, oi, zi, yi, xi] = acc
    return out


def pool_with_argmax(x, k, s):
    """Pooled values and the argmax indices a taped forward records, which
    are int32."""
    out = ops.maxpool3d_forward(x, k, s)
    idx = ops.maxpool3d_argmax(x, out, k, s)
    assert idx.dtype == np.int32
    return out, idx


def masked_copy_argmax(x, pooled, k, s):
    """maxpool3d_argmax as a reverse-order loop of k^3 equality tests and
    masked index copies, so the last write is the first tap equal to the
    max, and a NaN window keeps its first voxel: the reference for the
    key-maximum kernel."""
    hh, ww = x.shape[3:]
    outs = pooled.shape[2:]
    base = (
        (np.arange(outs[0], dtype=np.int32) * s)[:, None, None] * (hh * ww)
        + (np.arange(outs[1], dtype=np.int32) * s)[None, :, None] * ww
        + (np.arange(outs[2], dtype=np.int32) * s)[None, None, :]
    )
    idx = np.broadcast_to(base, pooled.shape).copy()
    eq = np.empty(pooled.shape, dtype=bool)
    for i in reversed(range(k)):
        for j in reversed(range(k)):
            for l in reversed(range(k)):
                sl = ops._tap_slices(k, s, 1, outs, (i, j, l))
                np.equal(x[:, :, sl[0], sl[1], sl[2]], pooled, out=eq)
                np.copyto(idx, base + ((i * hh + j) * ww + l), where=eq)
    return idx


def norm_backward_expression(g, cache):
    """norm_backward as one expression, without buffers: the bit-for-bit
    oracle for the buffered kernel."""
    dgamma = (g * cache.xhat).sum(axis=cache.param_axes)
    dbeta = g.sum(axis=cache.param_axes)
    dxhat = g * cache.gamma_b
    if cache.fixed_stats:
        dx = dxhat * cache.invstd
    else:
        m1 = dxhat.mean(axis=cache.axes, keepdims=True, dtype=g.dtype)
        m2 = (dxhat * cache.xhat).mean(axis=cache.axes, keepdims=True,
                                       dtype=g.dtype)
        dx = cache.invstd * (dxhat - m1 - cache.xhat * m2)
    return dx, dgamma, dbeta


def normalize_reference(x, gamma, beta, axes, channel_axis):
    """_normalize computed the way it was before it subtracted the mean
    once: numpy's own mean and var calls, one sample at a time unless the
    batch axis is reduced. Returns (y, xhat, invstd, mean, var)."""
    b = tuple(x.shape[channel_axis] if a == channel_axis else 1
              for a in range(x.ndim))
    if 0 in axes:
        mean = x.mean(axis=axes, keepdims=True, dtype=x.dtype)
        var = x.var(axis=axes, keepdims=True, dtype=x.dtype)
    else:
        sub = tuple(a - 1 for a in axes)
        mean = np.stack([xi.mean(axis=sub, keepdims=True, dtype=x.dtype)
                         for xi in x])
        var = np.stack([xi.var(axis=sub, keepdims=True, dtype=x.dtype)
                        for xi in x])
    invstd = 1.0 / np.sqrt(var + ops.EPS)
    xhat = (x - mean) * invstd
    return gamma.reshape(b) * xhat + beta.reshape(b), xhat, invstd, mean, var


class TestShapeLaws:
    def test_dilated_k3_extent(self):
        assert ops.conv_out_extent(47, 3, 0, 1, 2) == 43

    def test_dilated_k5_p2_extent(self):
        assert ops.conv_out_extent(21, 5, 2, 1, 2) == 17

    def test_pool_k3_s2_extents(self):
        assert ops.pool_out_extent(96, 3, 2) == 47
        assert ops.pool_out_extent(43, 3, 2) == 21

    def test_forward_matches_extent_law_at_full_size(self):
        x = Tensor(np.zeros((1, 1, 47, 47, 47), dtype=np.float32))
        w = Tensor(np.zeros((1, 1, 3, 3, 3), dtype=np.float32))
        b = Tensor(np.zeros(1, dtype=np.float32))
        out = ops.conv3d_forward(x, w, b, ops.ConvSpec(k=3, c_out=1, d=2))
        assert out.shape == (1, 1, 43, 43, 43)

    def test_pool_forward_full_size(self):
        x = Tensor(np.arange(96 ** 3, dtype=np.float32).reshape(1, 1, 96, 96, 96))
        out = ops.maxpool3d_forward(x, 3, 2)
        assert out.shape == (1, 1, 47, 47, 47)

    @given(
        e=st.integers(1, 12), k=st.integers(1, 5), p=st.integers(0, 3),
        s=st.integers(1, 3), d=st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_conv_extent_law_matches_kernel(self, e, k, p, s, d):
        eff = d * (k - 1) + 1
        assume(eff <= e + 2 * p)
        spec = ops.ConvSpec(k=k, c_out=1, p=p, s=s, d=d)
        x = Tensor(np.ones((1, 1, e, e, e), dtype=np.float32))
        w = Tensor(np.ones((1, 1, k, k, k), dtype=np.float32))
        out = ops.conv3d_forward(x, w, Tensor(np.zeros(1, dtype=np.float32)), spec)
        expect = ops.conv_out_extent(e, k, p, s, d)
        assert out.shape == (1, 1, expect, expect, expect)

    @given(e=st.integers(1, 12), k=st.integers(1, 5), s=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_pool_extent_law_matches_kernel(self, e, k, s):
        assume(k <= e)
        x = Tensor(np.ones((1, 1, e, e, e), dtype=np.float32))
        out = ops.maxpool3d_forward(x, k, s)
        expect = ops.pool_out_extent(e, k, s)
        assert out.shape == (1, 1, expect, expect, expect)


class TestConv:
    @pytest.mark.parametrize("n,c,e,spec", [
        (2, 2, 6, ops.ConvSpec(k=3, c_out=3, p=1, s=2)),
        (1, 2, 7, ops.ConvSpec(k=3, c_out=2, p=2, s=2, d=2)),
        (2, 1, 5, ops.ConvSpec(k=1, c_out=2)),
        (2, 3, 7, ops.ConvSpec(k=3, c_out=2, p=1, s=2)),
        (1, 4, 7, ops.ConvSpec(k=3, c_out=3, d=2)),          # block2 form
        (2, 3, 9, ops.ConvSpec(k=5, c_out=4, p=2, d=2)),     # block3 form
    ])
    def test_matches_direct_loop(self, n, c, e, spec):
        rng = Rng(42).stream("conv-oracle", spec.k, spec.p, spec.s, spec.d)
        x = rng.stream("x").normal((n, c, e, e, e))
        w = rng.stream("w").normal((spec.c_out, c, spec.k, spec.k, spec.k))
        b = rng.stream("b").normal((spec.c_out,))
        got = ops.conv3d_forward(Tensor(x), Tensor(w), Tensor(b), spec)
        want = naive_conv3d(x, w, b, spec)
        np.testing.assert_allclose(got.data, want, rtol=1e-12, atol=1e-12)

    def test_single_channel_k1s1_equals_direct_loop(self):
        # The stem's broadcast multiply: with integer values every product
        # and sum is exact, so it must equal the direct loop exactly.
        spec = ops.ConvSpec(k=1, c_out=4)
        rng = Rng(43).stream("conv-k1s1")
        x = rng.stream("x").integers(9, (3, 1, 5, 6, 7)).astype(np.float32) - 4
        w = rng.stream("w").integers(7, (4, 1, 1, 1, 1)).astype(np.float32) - 3
        b = rng.stream("b").integers(5, (4,)).astype(np.float32) - 2
        got = ops.conv3d_forward(Tensor(x), Tensor(w), Tensor(b), spec)
        want = naive_conv3d(x, w, b, spec)
        assert got.data.dtype == np.float32
        assert np.array_equal(got.data, want)
        # Zero signs follow the GEMM path, which adds the product to a
        # zero-filled accumulator before the bias: (0 + x*w) + b. Here x
        # holds zeros and negatives, and w and b hold -0 and negatives, so
        # -0 products meet -0 biases.
        w0 = np.array([-2.0, -0.0, 0.0, 3.0], dtype=np.float32)
        b0 = np.array([-0.0, -0.0, 0.0, -0.0], dtype=np.float32)
        got = ops.conv3d_forward(Tensor(x), Tensor(w0.reshape(4, 1, 1, 1, 1)),
                                 Tensor(b0), spec)
        zero_acc = (np.float32(0) + x * w0.reshape(1, 4, 1, 1, 1)
                    ) + b0.reshape(1, 4, 1, 1, 1)
        assert np.signbit(x * w0.reshape(1, 4, 1, 1, 1)).any()
        assert got.data.tobytes() == zero_acc.tobytes()

    def test_channel_mismatch_rejected(self):
        x = Tensor(np.zeros((1, 2, 5, 5, 5), dtype=np.float32))
        w = Tensor(np.zeros((4, 3, 3, 3, 3), dtype=np.float32))
        with pytest.raises(ShapeError):
            ops.conv3d_forward(x, w, Tensor(np.zeros(4, dtype=np.float32)),
                               ops.ConvSpec(k=3, c_out=4))

    def test_kernel_exceeding_padded_input_rejected(self):
        x = Tensor(np.zeros((1, 1, 3, 3, 3), dtype=np.float32))
        w = Tensor(np.zeros((1, 1, 3, 3, 3), dtype=np.float32))
        with pytest.raises(ShapeError, match="effective kernel"):
            ops.conv3d_forward(x, w, Tensor(np.zeros(1, dtype=np.float32)),
                               ops.ConvSpec(k=3, c_out=1, d=2))

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            ops.ConvSpec(k=0, c_out=1)
        with pytest.raises(ValueError):
            ops.ConvSpec(k=3, c_out=1, s=0)
        with pytest.raises(ValueError):
            ops.ConvSpec(k=3, c_out=1, p=-1)

    def test_gradients(self):
        for res in gradcheck.check_conv():
            assert res.passed, f"{res.name}: rel err {res.rel_err:.3e}"

    def test_column_buffer_stays_below_full_im2col(self):
        # A full [C*k^3, P] column matrix for one sample would take 13.8 MB;
        # at widening factor 8 the same lowering of block3 needs 629 MB.
        n, c, e, spec = 2, 16, 12, ops.ConvSpec(k=5, c_out=8, p=2)
        k, o = spec.k, spec.c_out
        rng = Rng(5).stream("conv-memory")
        x = Tensor(rng.stream("x").normal((n, c, e, e, e)).astype(np.float32))
        w = Tensor(rng.stream("w").normal((o, c, k, k, k)).astype(np.float32))
        b = Tensor(np.zeros(o, dtype=np.float32))
        g = Tensor(np.ones((n, o, e, e, e), dtype=np.float32))
        full = c * k ** 3 * e ** 3 * 4
        for run in (lambda: ops.conv3d_forward(x, w, b, spec),
                    lambda: ops.conv3d_backward(g, x, w, spec)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < full, f"traced peak {peak} B >= {full} B"


    def test_backward_transient_peak(self):
        # The backward holds one column slab, one weight slab, dW, the
        # padded input and padded dX, and one GEMM product; numpy's ufunc
        # loops add up to three 8192-element buffers. A second slab for dX's
        # columns and every weight slab at once read 6.96 MB here, against
        # 3.96 MB measured and a 4.00 MB budget.
        n, c, e, spec = 2, 16, 12, ops.ConvSpec(k=5, c_out=8, p=2)
        k, o, item = spec.k, spec.c_out, 4
        rng = Rng(5).stream("conv-memory")
        x = Tensor(rng.stream("x").normal((n, c, e, e, e)).astype(np.float32))
        w = Tensor(rng.stream("w").normal((o, c, k, k, k)).astype(np.float32))
        g = Tensor(np.ones((n, o, e, e, e), dtype=np.float32))
        slab = k * k * c * e ** 3 * item
        w_slab = o * k * k * c * item   # also the size of dW's GEMM product
        padded = n * c * (e + 2 * spec.p) ** 3 * item
        budget = slab + 2 * w_slab + w.data.nbytes + 2 * padded + 3 * 8192 * item
        tracemalloc.start()
        try:
            ops.conv3d_backward(g, x, w, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget, (peak, budget)


class TestMaxPool:
    def test_values_and_indices(self):
        x = np.zeros((1, 1, 4, 4, 4), dtype=np.float32)
        x[0, 0, 1, 2, 2] = 5.0   # inside the first 3x3x3 window
        x[0, 0, 3, 3, 3] = 7.0   # outside it
        out, idx = pool_with_argmax(Tensor(x), 3, 1)
        assert out.shape == (1, 1, 2, 2, 2)
        assert out.data[0, 0, 0, 0, 0] == 5.0
        assert idx[0, 0, 0, 0, 0] == (1 * 4 + 2) * 4 + 2
        assert out.data[0, 0, 1, 1, 1] == 7.0
        assert idx[0, 0, 1, 1, 1] == (3 * 4 + 3) * 4 + 3

    def test_tie_goes_to_first_in_window_order(self):
        x = Tensor(np.ones((1, 1, 3, 3, 3), dtype=np.float32))
        out, idx = pool_with_argmax(x, 3, 1)
        assert out.data[0, 0, 0, 0, 0] == 1.0
        assert idx[0, 0, 0, 0, 0] == 0

    def test_window_larger_than_input_rejected(self):
        x = Tensor(np.ones((1, 1, 2, 2, 2), dtype=np.float32))
        with pytest.raises(ShapeError, match="window"):
            ops.maxpool3d_forward(x, 3, 2)

    def test_backward_conserves_gradient_mass(self):
        rng = Rng(3).stream("pool-mass")
        x = Tensor(rng.permutation(2 * 216).astype(np.float64).reshape(2, 1, 6, 6, 6))
        out, idx = pool_with_argmax(x, 2, 2)  # disjoint windows
        g = Tensor(rng.stream("g").normal(out.shape))
        gx = ops.maxpool3d_backward(g, idx, x.shape)
        assert gx.shape == x.shape
        np.testing.assert_allclose(gx.data.sum(), g.data.sum(), rtol=1e-12)

    def test_backward_accumulates_on_overlap(self):
        x = Tensor(np.zeros((1, 1, 3, 3, 3), dtype=np.float64))
        x.data[0, 0, 1, 1, 1] = 1.0  # shared max of all four stride-1 windows
        out, idx = pool_with_argmax(x, 2, 1)
        g = Tensor(np.ones(out.shape, dtype=np.float64))
        gx = ops.maxpool3d_backward(g, idx, x.shape)
        assert gx.data[0, 0, 1, 1, 1] == 8.0
        assert gx.data.sum() == 8.0

    @given(
        k=st.integers(1, 4), s=st.integers(1, 3), n=st.integers(1, 2),
        c=st.integers(1, 2), grow=st.tuples(*[st.integers(0, 4)] * 3),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_first_argmax_loop(self, k, s, n, c, grow, data):
        shape = (n, c) + tuple(k + g for g in grow)
        # Few distinct integer values, so most windows hold ties.
        x = data.draw(hnp.arrays(np.float32, shape,
                                 elements=st.integers(0, 3).map(float)))
        out, idx = pool_with_argmax(Tensor(x), k, s)
        hh, ww = shape[3], shape[4]
        for pos in np.ndindex(*out.shape):
            ni, ci, z, y, xx = pos
            win = x[ni, ci, z * s:z * s + k, y * s:y * s + k, xx * s:xx * s + k]
            t = int(np.argmax(win))  # first maximum in row-major order
            i, j, l = np.unravel_index(t, win.shape)
            assert out.data[pos] == win.flat[t]
            assert idx[pos] == ((z * s + i) * hh + y * s + j) * ww + xx * s + l

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7])
    def test_matches_masked_copy_loop(self, k, dtype):
        rng = Rng(17).stream("argmax", k, np.dtype(dtype).name)
        for case in range(8):
            r = rng.stream(case)
            s = 1 + int(r.integers(3))
            shape = (1 + int(r.integers(2)), 1 + int(r.integers(3))) + tuple(
                k + int(r.integers(5)) for _ in range(3))
            # Few distinct values, so windows tie; signed zeros and NaNs.
            x = (r.stream("x").integers(5, shape) - 2).astype(dtype)
            x[x == 0] = np.where(r.stream("sign").normal(shape) < 0,
                                 -0.0, 0.0)[x == 0]
            x[r.stream("nan").uniform(shape) < 0.02] = np.nan
            pooled = ops.maxpool3d_forward(Tensor(x), k, s)
            idx = ops.maxpool3d_argmax(Tensor(x), pooled, k, s)
            assert idx.dtype == np.int32
            assert np.array_equal(idx, masked_copy_argmax(x, pooled.data, k, s))

    def test_nan_propagates_and_index_stays_in_window(self):
        x = np.zeros((1, 1, 4, 4, 4), dtype=np.float32)
        x[0, 0, 1, 1, 1] = np.nan  # not the first tap of window (0, 0, 0)
        x[0, 0, 0, 0, 2] = 5.0
        out, idx = pool_with_argmax(Tensor(x), 2, 2)
        assert np.isnan(out.data[0, 0, 0, 0, 0])
        assert out.data[0, 0, 0, 0, 1] == 5.0
        assert np.isnan(out.data).sum() == 1
        window0 = {(a * 4 + bb) * 4 + cc for a in (0, 1) for bb in (0, 1)
                   for cc in (0, 1)}
        assert idx[0, 0, 0, 0, 0] in window0
        gx = ops.maxpool3d_backward(Tensor(np.ones(out.shape, dtype=np.float32)),
                                    idx, x.shape)
        assert gx.data.sum() == out.data.size

    def test_gradients(self):
        for res in gradcheck.check_pool():
            assert res.passed, f"{res.name}: rel err {res.rel_err:.3e}"


class TestBlockTail:
    """A block's tail pools the norm output and then applies ReLU to the
    pooled values. The oracle is the paper's order, ReLU and then pool,
    built from the same ops."""

    @staticmethod
    def relu_then_pool(y, grad, k, s):
        r = ops.relu(Tensor(y.data.copy()))  # relu writes over its input
        pooled = ops.maxpool3d_forward(r, k, s)
        idx = ops.maxpool3d_argmax(r, pooled, k, s)
        g = ops.maxpool3d_backward(grad, idx, y.shape)
        return pooled, ops.relu_backward(g, y.data > 0)

    @staticmethod
    def pool_then_relu(y, grad, k, s):
        pooled = ops.maxpool3d_forward(y, k, s)
        idx = ops.maxpool3d_argmax(y, pooled, k, s)
        pooled = ops.relu(pooled)
        g = ops.relu_backward(Tensor(grad.data.copy()), pooled.data > 0)
        return pooled, ops.maxpool3d_backward(g, idx, y.shape)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k, s", [(3, 2), (5, 2), (2, 2), (3, 1)])
    def test_matches_relu_then_pool(self, k, s, dtype):
        rng = Rng(51).stream("tail", k, s)
        # Half-integer values, so windows hold exact ties and zeros.
        y = np.round(rng.stream("y").normal((2, 4, 9, 10, 11)) * 2) / 2
        y[0, 1] = -np.abs(y[0, 1]) - 0.5  # no window has a positive value
        y[1, 2] = np.where(y[1, 2] > 0, -0.0, y[1, 2])  # window maxima of -0
        y[0, 3][y[0, 3] == 0] = -0.0  # -0 beside +0 and positive values
        y[1, 3, 1, 2, 3] = y[1, 3, 5, 5, 6] = y[0, 0, 4, 4, 4] = np.nan
        y = Tensor(y.astype(dtype))
        grad = Tensor(rng.stream("g").normal(
            ops.maxpool3d_forward(y, k, s).shape).astype(dtype))
        want, want_g = self.relu_then_pool(y, grad, k, s)
        got, got_g = self.pool_then_relu(y, grad, k, s)
        assert got.data.tobytes() == want.data.tobytes()
        nan = np.isnan(want.data)
        assert nan.any() and (want.data[~nan] == 0).any()
        # Where a window holds a NaN, ReLU-then-pool sent its gradient to
        # the window's first voxel when that voxel is positive; here
        # pooled > 0 is False for NaN, so that window passes no gradient.
        # Everything else matches, up to the sign of a zero.
        _, want_g = self.relu_then_pool(
            y, Tensor(np.where(nan, 0, grad.data)), k, s)
        assert np.array_equal(got_g.data, want_g.data)


class TestNorms:
    def test_instance_norm_statistics(self):
        rng = Rng(9).stream("in-stats")
        x = Tensor(rng.normal((2, 3, 5, 5, 5)) * 4.0 + 2.0)
        ones = Tensor(np.ones(3))
        zeros = Tensor(np.zeros(3))
        y, _ = ops.instance_norm_forward(x, ones, zeros)
        m = y.data.mean(axis=(2, 3, 4))
        v = y.data.var(axis=(2, 3, 4))
        np.testing.assert_allclose(m, 0.0, atol=1e-12)
        np.testing.assert_allclose(v, 1.0, atol=1e-4)

    @given(a=st.floats(0.5, 4.0), b=st.floats(-3.0, 3.0), seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_instance_norm_shift_scale_invariance(self, a, b, seed):
        x = Rng(seed).stream("in-inv").normal((1, 2, 4, 4, 4))
        ones = Tensor(np.ones(2))
        zeros = Tensor(np.zeros(2))
        y0, _ = ops.instance_norm_forward(Tensor(x.copy()), ones, zeros)
        y1, _ = ops.instance_norm_forward(Tensor(a * x + b), ones, zeros)
        np.testing.assert_allclose(y1.data, y0.data, atol=1e-4)

    def test_instance_norm_independent_of_batch_composition(self):
        rng = Rng(4).stream("in-batch")
        x = rng.normal((3, 2, 4, 4, 4))
        ones, zeros = Tensor(np.ones(2)), Tensor(np.zeros(2))
        y_all, _ = ops.instance_norm_forward(Tensor(x.copy()), ones, zeros)
        y_one, _ = ops.instance_norm_forward(Tensor(x[:1].copy()), ones, zeros)
        np.testing.assert_allclose(y_all.data[:1], y_one.data, atol=1e-12)

    def test_batch_norm_depends_on_batch_composition(self):
        rng = Rng(4).stream("bn-batch")
        x = rng.normal((3, 2, 4, 4, 4))
        ones, zeros = Tensor(np.ones(2)), Tensor(np.zeros(2))
        rm, rv = Tensor(np.zeros(2)), Tensor(np.ones(2))
        y_all, _, _, _ = ops.batch_norm_forward(Tensor(x.copy()), ones, zeros,
                                                rm, rv, "train")
        y_sub, _, _, _ = ops.batch_norm_forward(Tensor(x[:2].copy()), ones,
                                                zeros, rm, rv, "train")
        assert not np.allclose(y_all.data[:2], y_sub.data, atol=1e-6)

    def test_batch_norm_running_stat_update(self):
        rng = Rng(5).stream("bn-run")
        x = rng.normal((4, 2, 3, 3, 3)) + 1.5
        ones, zeros = Tensor(np.ones(2)), Tensor(np.zeros(2))
        rm, rv = Tensor(np.zeros(2)), Tensor(np.ones(2))
        _, _, nm, nv = ops.batch_norm_forward(Tensor(x.copy()), ones, zeros,
                                              rm, rv, "train")
        m = x.size // 2
        mean = x.mean(axis=(0, 2, 3, 4))
        var = x.var(axis=(0, 2, 3, 4)) * m / (m - 1)
        np.testing.assert_allclose(nm.data, 0.1 * mean, rtol=1e-12)
        np.testing.assert_allclose(nv.data, 0.9 + 0.1 * var, rtol=1e-12)
        # eval mode leaves the stats alone
        _, _, em, ev = ops.batch_norm_forward(Tensor(x.copy()), ones, zeros,
                                              nm, nv, "eval")
        assert em is nm and ev is nv

    def test_batch_norm_train_vs_eval_differ(self):
        rng = Rng(6).stream("bn-mode")
        x = rng.normal((3, 2, 4, 4, 4)) + 2.0
        ones, zeros = Tensor(np.ones(2)), Tensor(np.zeros(2))
        rm, rv = Tensor(np.zeros(2)), Tensor(np.ones(2))
        y_tr, _, _, _ = ops.batch_norm_forward(Tensor(x.copy()), ones, zeros,
                                               rm, rv, "train")
        y_ev, _, _, _ = ops.batch_norm_forward(Tensor(x.copy()), ones, zeros,
                                               rm, rv, "eval")
        assert not np.allclose(y_tr.data, y_ev.data, atol=1e-3)

    def test_batch_norm_needs_two_samples(self):
        x = Tensor(np.ones((1, 2, 3, 3, 3), dtype=np.float32))
        ones, zeros = Tensor(np.ones(2)), Tensor(np.zeros(2))
        with pytest.raises(ValueError, match="batch of >= 2"):
            ops.batch_norm_forward(x, ones, zeros, Tensor(np.zeros(2)),
                                   Tensor(np.ones(2)), "train")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(3, 2, 4, 3, 5), (2, 1, 3, 4, 4)])
    def test_batch_norm_train_matches_numpy_statistics(self, dtype, shape):
        # the batch statistics are numpy's mean and biased var over
        # (0, 2, 3, 4), in the input's dtype, bit for bit
        rng = Rng(8).stream("bn-oracle", *shape)
        c = shape[1]
        x = (rng.stream("x").normal(shape) * 3.0 + 1.0).astype(dtype)
        gamma = rng.stream("g").uniform((c,), 0.5, 1.5).astype(dtype)
        beta = rng.stream("b").normal((c,)).astype(dtype)
        rm = rng.stream("rm").normal((c,)).astype(dtype)
        rv = rng.stream("rv").uniform((c,), 0.5, 2.0).astype(dtype)
        y, cache, nm, nv = ops.batch_norm_forward(
            Tensor(x.copy()), Tensor(gamma), Tensor(beta), Tensor(rm),
            Tensor(rv), "train")
        b = (1, c, 1, 1, 1)
        mean = x.mean(axis=(0, 2, 3, 4))
        var = x.var(axis=(0, 2, 3, 4))
        assert mean.dtype == var.dtype == dtype
        invstd = (1.0 / np.sqrt(var + ops.EPS)).astype(dtype).reshape(b)
        xhat = (x - mean.reshape(b)) * invstd
        m = x.size // c
        for got, want in ((cache.xhat, xhat),
                          (y.data, gamma.reshape(b) * xhat + beta.reshape(b)),
                          (nm.data, 0.9 * rm + 0.1 * mean),
                          (nv.data, 0.9 * rv + 0.1 * var * m / (m - 1))):
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("tape", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batch_norm_eval_matches_running_statistics(self, dtype, tape):
        # eval mode normalizes with the running stats as constants, in the
        # input's dtype, bit for bit, with or without a tape
        shape = (3, 2, 4, 3, 5)
        rng = Rng(8).stream("bn-eval-oracle")
        c = shape[1]
        x = (rng.stream("x").normal(shape) * 3.0 + 1.0).astype(dtype)
        gamma = rng.stream("g").uniform((c,), 0.5, 1.5).astype(dtype)
        beta = rng.stream("b").normal((c,)).astype(dtype)
        rm = Tensor(rng.stream("rm").normal((c,)).astype(dtype))
        rv = Tensor(rng.stream("rv").uniform((c,), 0.5, 2.0).astype(dtype))
        y, cache, nm, nv = ops.batch_norm_forward(
            Tensor(x.copy()), Tensor(gamma), Tensor(beta), rm, rv, "eval",
            tape=tape)
        b = (1, c, 1, 1, 1)
        invstd = (1.0 / np.sqrt(rv.data + ops.EPS)).reshape(b)
        xhat = (x - rm.data.reshape(b)) * invstd
        assert nm is rm and nv is rv
        assert y.data.dtype == dtype
        np.testing.assert_array_equal(
            y.data, gamma.reshape(b) * xhat + beta.reshape(b))
        if not tape:
            assert cache is None
            return
        assert cache.fixed_stats
        for got, want in ((cache.xhat, xhat), (cache.invstd, invstd)):
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, want)

    def test_affine_params_must_match_channels(self):
        x = Tensor(np.ones((2, 3, 2, 2, 2)))
        two = Tensor(np.ones(2))
        with pytest.raises(ShapeError, match="affine"):
            ops.instance_norm_forward(x, two, two)
        for mode in ("train", "eval"):
            with pytest.raises(ShapeError, match="affine"):
                ops.batch_norm_forward(x, two, two, two, two, mode)
        with pytest.raises(ShapeError, match="affine"):
            ops.layer_norm_forward(Tensor(np.ones((2, 3))), two, two)

    def test_layer_norm_rows(self):
        rng = Rng(7).stream("ln")
        x = Tensor(rng.normal((4, 8)) * 3.0 - 1.0)
        y, _ = ops.layer_norm_forward(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
        np.testing.assert_allclose(y.data.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.data.var(axis=1), 1.0, atol=1e-4)

    def test_backward_rejects_mismatched_grad(self):
        x = Tensor(np.ones((2, 2, 3, 3, 3), dtype=np.float32))
        ones, zeros = Tensor(np.ones(2)), Tensor(np.zeros(2))
        _, cache = ops.instance_norm_forward(x, ones, zeros)
        bad = Tensor(np.ones((2, 2, 3, 3, 2), dtype=np.float32))
        with pytest.raises(ShapeError, match="saved forward state"):
            ops.norm_backward(bad, cache)

    def test_gradients(self):
        for res in gradcheck.check_norm():
            assert res.passed, f"{res.name}: rel err {res.rel_err:.3e}"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["instance", "batch train", "batch eval",
                                      "layer"])
    def test_backward_bit_identical_to_expression(self, kind, dtype):
        rng = Rng(41).stream("norm-bwd", kind)
        shape = (6, 37) if kind == "layer" else (3, 5, 7, 9, 11)
        c = shape[-1] if kind == "layer" else shape[1]
        x = Tensor((rng.stream("x").normal(shape) * 2.0 + 0.5).astype(dtype))
        gamma = Tensor(rng.stream("g").uniform((c,), 0.5, 1.5).astype(dtype))
        beta = Tensor(rng.stream("b").normal((c,)).astype(dtype))
        if kind == "instance":
            _, cache = ops.instance_norm_forward(x, gamma, beta)
        elif kind == "layer":
            _, cache = ops.layer_norm_forward(x, gamma, beta)
        else:
            rm = Tensor(rng.stream("rm").normal((c,)).astype(dtype))
            rv = Tensor(rng.stream("rv").uniform((c,), 0.5, 2.0).astype(dtype))
            _, cache, _, _ = ops.batch_norm_forward(
                x, gamma, beta, rm, rv, kind.split()[1])
        g = rng.stream("grad").normal(shape).astype(dtype)
        want = norm_backward_expression(g, cache)  # before the cache is used
        got = ops.norm_backward(Tensor(g.copy()), cache)  # overwrites its g
        for a, b in zip(got, want):
            assert a.data.dtype == b.dtype == dtype
            assert a.data.tobytes() == b.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(2, 5, 7, 9, 11), (3, 32, 43, 43, 43),
                                       (1, 3, 5, 5, 5), (4, 2, 13, 17, 19),
                                       (5, 37), (3, 512)])
    def test_per_sample_stats_equal_whole_batch(self, shape, dtype):
        # Instance and layer norm take mean and var one sample at a time;
        # the figures must be those of one call over the batch.
        x = Tensor((Rng(43).normal(shape) * 3.0 - 1.0).astype(dtype))
        # instance norm's axes, or layer norm's with its features as channels
        axes = (2, 3, 4) if len(shape) == 5 else (1,)
        c = shape[1]
        ones, zeros = Tensor(np.ones(c, dtype)), Tensor(np.zeros(c, dtype))
        _, _, mean, var = ops._normalize(Tensor(x.data.copy()), ones, zeros,
                                         axes, 1, tape=False)
        want_mean = x.data.mean(axis=axes, keepdims=True, dtype=dtype)
        want_var = x.data.var(axis=axes, keepdims=True, dtype=dtype)
        assert mean.dtype == var.dtype == dtype
        assert mean.tobytes() == want_mean.tobytes()
        assert var.tobytes() == want_var.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape, axes", [
        ((2, 5, 7, 9, 11), (2, 3, 4)), ((2, 5, 7, 9, 11), (0, 2, 3, 4)),
        ((3, 32, 43, 43, 43), (2, 3, 4)), ((3, 32, 43, 43, 43), (0, 2, 3, 4)),
        ((4, 2, 13, 17, 19), (0, 2, 3, 4)), ((1, 3, 5, 5, 5), (0, 2, 3, 4)),
        ((3, 1, 6, 7, 8), (2, 3, 4)), ((3, 1, 6, 7, 8), (0, 2, 3, 4)),
        ((5, 37), (1,)), ((5, 37), (0,)), ((6, 1), (0,)), ((3, 512), (0,)),
    ])
    def test_sum_products_equals_whole_batch_reduction(self, shape, axes,
                                                       dtype):
        # The norms' one-sample sums give the bytes of numpy's one reduction
        # of the whole product, with the batch axis reduced or kept; a
        # single channel reduced with the batch is the one flat run.
        rng = Rng(51).stream("sum-products", *shape)
        a = (rng.stream("a").normal(shape) * 3.0 - 1.0).astype(dtype)
        b = rng.stream("b").normal(shape).astype(dtype)
        got = ops._sum_products(a, b, axes, np.empty(shape[1:], dtype))
        want = np.add.reduce(a * b, axes, dtype, keepdims=True)
        assert got.dtype == dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", ["spread", "constant", "near 1e3"])
    @pytest.mark.parametrize("tape", [True, False])
    @pytest.mark.parametrize("kind", ["instance", "layer", "batch train"])
    def test_normalize_matches_mean_and_var_reference(self, kind, tape, case,
                                                      dtype):
        # one subtraction of the mean, the variance from that difference:
        # every figure is the bytes of numpy's mean and var
        # shapes on which a float64 sum of the squares rounds otherwise
        rng = Rng(47).stream("norm-ref", kind, case)
        shape = (4, 300) if kind == "layer" else (3, 8, 7, 8, 9)
        axes = {"instance": (2, 3, 4), "layer": (1,),
                "batch train": (0, 2, 3, 4)}[kind]
        x = rng.stream("x").normal(shape) * 2.0 - 0.5
        if case == "near 1e3":
            x = 1e3 + x * 1e-2
        elif case == "constant":
            # a constant volume, row or channel: var is exactly 0
            x[(slice(None), 1) if kind == "batch train" else 1] = 2.5
        x = x.astype(dtype)
        c = shape[1]
        gamma = rng.stream("g").uniform((c,), 0.5, 1.5).astype(dtype)
        beta = rng.stream("b").normal((c,)).astype(dtype)
        y, cache, mean, var = ops._normalize(Tensor(x.copy()), Tensor(gamma),
                                             Tensor(beta), axes, 1, tape)
        want_y, want_xhat, want_invstd, want_mean, want_var = (
            normalize_reference(x, gamma, beta, axes, 1))
        if case == "constant":
            assert (want_var == 0).any()
        got = [y.data, mean, var]
        want = [want_y, want_mean, want_var]
        if tape:
            got += [cache.xhat, cache.invstd]
            want += [want_xhat, want_invstd]
        else:
            assert cache is None
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == dtype
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind", ["instance", "batch train", "layer"])
    def test_backward_out_gives_the_pure_result(self, kind):
        rng = Rng(49).stream("norm-bwd-out", kind)
        shape = (4, 9) if kind == "layer" else (2, 3, 4, 5, 6)
        c = shape[1]
        x = Tensor(rng.stream("x").normal(shape).astype(np.float32))
        gamma = Tensor(rng.stream("g").uniform((c,), 0.5, 1.5).astype(np.float32))
        beta = Tensor(np.zeros(c, np.float32))
        if kind == "instance":
            _, cache = ops.instance_norm_forward(x, gamma, beta)
        elif kind == "layer":
            _, cache = ops.layer_norm_forward(x, gamma, beta)
        else:
            _, cache, _, _ = ops.batch_norm_forward(
                x, gamma, beta, Tensor(np.zeros(c, np.float32)),
                Tensor(np.ones(c, np.float32)), "train")
        g0 = rng.stream("grad").normal(shape).astype(np.float32)
        g = Tensor(g0.copy())
        want = norm_backward_expression(g0, cache)  # before the cache is used
        got = ops.norm_backward(g, cache)
        # dx is written over grad_out's own array, with the bytes of the
        # pure expression of the same gradient
        assert got[0].data is g.data
        for a, b in zip(got, want):
            assert a.data.tobytes() == b.tobytes()

    @pytest.mark.parametrize("tape", [True, False])
    @pytest.mark.parametrize("kind", ["instance", "batch train", "batch eval"])
    def test_out_gives_the_pure_result(self, kind, tape):
        rng = Rng(45).stream("norm-out", kind)
        x = Tensor(rng.stream("x").normal((2, 3, 4, 5, 6)).astype(np.float32))
        gamma = Tensor(rng.stream("g").uniform((3,), 0.5, 1.5).astype(np.float32))
        beta = Tensor(rng.stream("b").normal((3,)).astype(np.float32))
        rm, rv = Tensor(np.full(3, 0.1, np.float32)), Tensor(np.ones(3, np.float32))

        def run(x, tape):
            if kind == "instance":
                return ops.instance_norm_forward(x, gamma, beta, tape)
            return ops.batch_norm_forward(x, gamma, beta, rm, rv,
                                          kind.split()[1], tape=tape)[:2]

        taped, _ = run(Tensor(x.data.copy()), True)
        y, cache = run(x, tape)
        if tape:  # x's own array holds the cache's xhat, beside a fresh y
            assert cache.xhat is x.data
            assert y.data is not x.data
        else:  # a tape-free one writes y over x's own array
            assert cache is None
            assert y.data is x.data
        assert y.data.tobytes() == taped.data.tobytes()


class TestReluLinear:
    def test_relu_zero_subgradient(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]))
        g = ops.relu_backward(Tensor(np.ones(3)), x.data > 0)
        np.testing.assert_array_equal(g.data, [0.0, 0.0, 1.0])

    def test_relu_backward_rejects_bad_mask(self):
        g = Tensor(np.ones((2, 3)))
        with pytest.raises(ShapeError, match="bool"):
            ops.relu_backward(g, np.ones((2, 3)))  # the float input itself
        with pytest.raises(ShapeError, match="bool"):
            ops.relu_backward(g, np.ones((3, 2), dtype=bool))
        with pytest.raises(ShapeError, match="bool"):
            ops.relu_backward(g, np.ones(6, dtype=bool))

    def test_relu_out_in_place(self):
        # the result is written over x's own array, with the bytes of the
        # pure maximum (-0.0 included)
        x0 = np.array([[-1.5, 0.0, 2.0], [3.0, -0.0, -4.0]], dtype=np.float32)
        x = Tensor(x0.copy())
        y = ops.relu(x)
        assert y.data is x.data
        assert y.data.tobytes() == np.maximum(x0, np.float32(0)).tobytes()

    def test_relu_backward_out(self):
        # the result is written over grad_out's own array, with the bytes of
        # the pure product; a bad mask is refused before anything is written
        g0 = np.array([[-1.5, 0.25, 2.0], [3.0, -0.5, -4.0]], dtype=np.float32)
        mask = np.array([[True, False, True], [False, True, False]])
        g = Tensor(g0.copy())
        with pytest.raises(ShapeError, match="bool"):
            ops.relu_backward(g, mask.T)
        assert g.data.tobytes() == g0.tobytes()
        got = ops.relu_backward(g, mask)
        assert got.data is g.data
        assert got.data.tobytes() == np.multiply(g0, mask).tobytes()

    def test_linear_known_values(self):
        x = Tensor(np.array([[1.0, 2.0]]))
        w = Tensor(np.array([[3.0, 4.0], [5.0, 6.0]]))
        b = Tensor(np.array([0.5, -0.5]))
        y = ops.linear_forward(x, w, b)
        np.testing.assert_allclose(y.data, [[11.5, 16.5]])

    def test_linear_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ops.linear_forward(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))),
                               Tensor(np.ones(4)))

    def test_gradients(self):
        for res in gradcheck.check_relu() + gradcheck.check_linear():
            assert res.passed, f"{res.name}: rel err {res.rel_err:.3e}"


class TestSoftmaxXent:
    def test_uniform_scores(self):
        loss, _, probs = ops.softmax_xent(Tensor(np.ones((1, 3))), [0])
        np.testing.assert_allclose(probs.data, [[1 / 3, 1 / 3, 1 / 3]])
        assert loss == pytest.approx(np.log(3.0))

    def test_rows_sum_to_one_and_grad_rows_to_zero(self):
        rng = Rng(12).stream("sm")
        scores = Tensor(rng.normal((6, 3)) * 3.0)
        labels = rng.stream("y").integers(3, (6,))
        _, grad, probs = ops.softmax_xent(scores, labels)
        np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, rtol=1e-12)
        np.testing.assert_allclose(grad.data.sum(axis=1), 0.0, atol=1e-12)

    def test_stable_under_large_scores(self):
        scores = Tensor(np.array([[1e4, -1e4, 0.0]]))
        loss, grad, probs = ops.softmax_xent(scores, [2])
        assert np.isfinite(loss)
        assert np.isfinite(grad.data).all()
        assert probs.data[0, 0] == pytest.approx(1.0)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label out of range"):
            ops.softmax_xent(Tensor(np.ones((2, 3))), [0, 3])

    def test_gradients(self):
        for res in gradcheck.check_softmax():
            assert res.passed, f"{res.name}: rel err {res.rel_err:.3e}"


class TestGradcheckHarness:
    def test_constant_op_fails(self):
        # an op whose output ignores its input has all-zero gradients,
        # analytic and numeric: such a check verifies nothing, so it fails
        x = Tensor(np.linspace(-1.0, 1.0, 6).reshape(2, 3))
        const = Tensor(np.ones((2, 3)))
        results = gradcheck.check_op(
            "constant", Rng(0), lambda: (const, None),
            lambda g, _: (Tensor(np.zeros((2, 3))),), {"x": x})
        assert [r.rel_err for r in results] == [float("inf")]
        assert not results[0].passed

    def test_backward_that_overwrites_its_gradient_passes(self):
        # bwd scales the R it is handed in place, as relu_backward and
        # norm_backward do; the probe must still see the R it drew
        x = Tensor(np.linspace(-1.0, 1.0, 6).reshape(2, 3))
        results = gradcheck.check_op(
            "double", Rng(0), lambda: (Tensor(2.0 * x.data), None),
            lambda g, _: (Tensor(np.multiply(g.data, 2.0, out=g.data)),),
            {"x": x})
        assert results[0].passed, results[0].rel_err


class TestAgeEncode:
    def test_first_pair_is_sin_cos_of_age(self):
        v = ops.age_encode(76.5)
        assert v.data[0] == pytest.approx(np.sin(76.5), rel=1e-6)
        assert v.data[1] == pytest.approx(np.cos(76.5), rel=1e-6)

    def test_pairs_have_unit_norm(self):
        v = ops.age_encode(63.0)
        sq = v.data[0::2] ** 2 + v.data[1::2] ** 2
        np.testing.assert_allclose(sq, 1.0, rtol=1e-5)

    def test_frequency_ladder(self):
        d = ops.D_MODEL
        v = ops.age_encode(80.0)
        assert v.shape == (d,)
        for i in range(d // 2):
            angle = 80.0 / 10000.0 ** (2.0 * i / d)
            assert v.data[2 * i] == pytest.approx(np.sin(angle), abs=1e-6)
            assert v.data[2 * i + 1] == pytest.approx(np.cos(angle), abs=1e-6)

    @pytest.mark.parametrize("raw,rounded", [
        (76.2, 76.0), (76.24, 76.0), (76.26, 76.5), (76.3, 76.5),
        (76.25, 76.5), (76.75, 77.0), (0.0, 0.0), (120.0, 120.0),
    ])
    def test_rounding_to_half_years(self, raw, rounded):
        assert ops.round_age(raw) == rounded
        v = ops.age_encode(raw)
        w = ops.age_encode(rounded)
        np.testing.assert_array_equal(v.data, w.data)

    def test_array_rows_equal_single_ages(self):
        ages = [0.0, 63.0, 76.3, 120.0]
        rows = ops.age_encode(np.array(ages), np.float32).data
        assert rows.shape == (4, ops.D_MODEL)
        for age, row in zip(ages, rows):
            assert row.tobytes() == ops.age_encode(age).data.tobytes()

    def test_age_out_of_range(self):
        with pytest.raises(ValueError):
            ops.age_encode(-0.5)
        with pytest.raises(ValueError):
            ops.age_encode(120.5)
        with pytest.raises(ValueError, match="outside"):
            ops.age_encode(np.array([70.0, np.nan]))
