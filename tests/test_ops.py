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


def whole_batch_conv3d_backward(g, x, w, spec):
    """conv3d_backward as it was before it padded one sample at a time: the
    whole batch padded, and dX scattered into a padded gradient whose
    interior is cut out at the end. The byte oracle for the kernel."""
    n, c, *spatial = x.shape
    k, o, p = spec.k, spec.c_out, spec.p
    outs = g.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0)) + ((p, p),) * 3)
    win = ops._windows(xp, spec, outs)
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    cols = np.empty((k, k, c) + outs, dtype=x.dtype)
    cols2 = cols.reshape(k * k * c, -1)
    for i in range(k):
        w_slab_t = w[:, :, i].transpose(0, 2, 3, 1).reshape(o, -1).T
        for ni in range(n):
            g_n = g[ni].reshape(o, -1)
            np.copyto(cols, win[ni, i])
            gw[:, :, i] += (g_n @ cols2.T).reshape(o, k, k, c).transpose(0, 3, 1, 2)
            np.matmul(w_slab_t, g_n, out=cols2)
            for j in range(k):
                for l in range(k):
                    sl = ops._tap_slices(k, spec.s, spec.d, outs, (i, j, l))
                    gxp[ni][(slice(None),) + sl] += cols[j, l]
    gx = gxp[:, :, p:p + spatial[0], p:p + spatial[1], p:p + spatial[2]]
    return np.ascontiguousarray(gx), gw, g.sum(axis=(0, 2, 3, 4))


def slab_conv3d_forward(x, w, b, spec):
    """conv3d_forward as it was before it gathered each sample once: the
    whole batch padded, and the [k*k*C, P] column slab of each first-axis
    tap copied again for every sample, taps outermost. The byte oracle for
    the run-buffer kernel."""
    n, c, *spatial = x.shape
    k, o, p = spec.k, spec.c_out, spec.p
    outs = tuple(ops.conv_out_extent(e, k, p, spec.s, spec.d) for e in spatial)
    xp = np.pad(x, ((0, 0), (0, 0)) + ((p, p),) * 3)
    win = ops._windows(xp, spec, outs)
    cols = np.empty((k, k, c) + outs, dtype=x.dtype)
    cols2 = cols.reshape(k * k * c, -1)
    out = np.zeros((n, o) + outs, dtype=x.dtype)
    prod = np.empty((o, cols2.shape[1]), dtype=x.dtype)
    for i in range(k):
        w_slab = w[:, :, i].transpose(0, 2, 3, 1).reshape(o, -1)
        for ni in range(n):
            np.copyto(cols, win[ni, i])
            acc = out[ni].reshape(o, -1)
            acc += np.matmul(w_slab, cols2, out=prod)
    out += b[None, :, None, None, None]
    return out


def copy_first_maxpool(x, k, s):
    """maxpool3d_forward as it was before each axis pass started from the
    first two taps' maximum: tap 0 copied, then each later tap's maximum
    taken into the copy. The byte oracle for signed zeros and NaN."""
    cur = x
    for axis in (2, 3, 4):
        o = ops.pool_out_extent(cur.shape[axis], k, s)
        taps = [(slice(None),) * axis + (slice(t, t + s * (o - 1) + 1, s),)
                for t in range(k)]
        red = cur[taps[0]].copy()
        for t in taps[1:]:
            np.maximum(red, cur[t], out=red)
        cur = red
    return cur


def pool_with_argmax(x, k, s):
    """Pooled values and the tap keys a taped forward records, which are
    uint8 for windows up to 6^3."""
    out = ops.maxpool3d_forward(x, k, s)
    key = ops.maxpool3d_argmax(x, out, k, s)
    assert key.dtype == np.min_scalar_type(k ** 3)
    return out, key


def key_of(k, tap):
    """The tap key of window tap (i, j, l): k^3 less its row-major index."""
    return k ** 3 - np.ravel_multi_index(tap, (k, k, k))


def masked_copy_argmax(x, pooled, k, s):
    """maxpool3d_argmax as a reverse-order loop of k^3 equality tests and
    masked key copies, so the last write is the first tap equal to the
    max, and a NaN window keeps key 0: the reference for the key-maximum
    kernel."""
    outs = pooled.shape[2:]
    key = np.zeros(pooled.shape, dtype=np.min_scalar_type(k ** 3))
    eq = np.empty(pooled.shape, dtype=bool)
    for i in reversed(range(k)):
        for j in reversed(range(k)):
            for l in reversed(range(k)):
                sl = ops._tap_slices(k, s, 1, outs, (i, j, l))
                np.equal(x[:, :, sl[0], sl[1], sl[2]], pooled, out=eq)
                key[eq] = key_of(k, (i, j, l))
    return key


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n, c, e, spec", [
        (3, 2, 9, ops.ConvSpec(k=3, c_out=5, p=1)),
        (2, 3, 11, ops.ConvSpec(k=5, c_out=4, p=2, d=2)),   # block3 form
        (2, 4, 8, ops.ConvSpec(k=3, c_out=3, p=1, d=2)),    # block4 form
        (2, 2, 9, ops.ConvSpec(k=3, c_out=3, d=2)),         # block2 form
        (3, 1, 17, ops.ConvSpec(k=3, c_out=4, p=1, s=2)),   # K3S2 stem
        (3, 1, 19, ops.ConvSpec(k=7, c_out=4, p=3, s=4)),   # K7S4 stem
        (2, 1, 6, ops.ConvSpec(k=1, c_out=4)),              # K1S1 stem
        (2, 2, 9, ops.ConvSpec(k=3, c_out=2, p=2, s=2, d=2)),
        (1, 2, 2, ops.ConvSpec(k=3, c_out=2, p=5, s=4)),    # taps in padding only
        # channels outnumber the output row: dX is added channel-last
        (3, 32, 5, ops.ConvSpec(k=5, c_out=64, p=2)),       # c32 block3
        (3, 64, 2, ops.ConvSpec(k=3, c_out=64, p=1)),       # c32 block4
        (1, 64, 8, ops.ConvSpec(k=3, c_out=64, p=1, d=2)),  # c96 block4 form
        (2, 8, 9, ops.ConvSpec(k=3, c_out=4, p=1, s=2)),
    ])
    def test_backward_equals_whole_batch_padding(self, n, c, e, spec, dtype):
        # One padded sample at a time, dX added through clipped taps into a
        # channel-first or channel-last scratch, and dW added in its GEMM
        # products' layout give the bytes of the padded whole batch: every
        # kept element takes its terms in the same order.
        rng = Rng(44).stream("conv-bwd", n, c, e, spec.k, spec.p, spec.s)
        x = rng.stream("x").normal((n, c, e, e + 1, e + 2)).astype(dtype)
        w = rng.stream("w").normal((spec.c_out, c) + (spec.k,) * 3).astype(dtype)
        outs = tuple(ops.conv_out_extent(a, spec.k, spec.p, spec.s, spec.d)
                     for a in x.shape[2:])
        g = rng.stream("g").normal((n, spec.c_out) + outs).astype(dtype)
        got = ops.conv3d_backward(Tensor(g), Tensor(x), Tensor(w), spec)
        want = whole_batch_conv3d_backward(g, x, w, spec)
        for a, b in zip(got, want):
            assert a.data.dtype == b.dtype == dtype
            assert a.data.tobytes() == b.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n, c, shape, spec", [
        (2, 3, (7, 8, 9), ops.ConvSpec(k=3, c_out=4, p=1)),   # channel-first
        (2, 16, (5, 6, 7), ops.ConvSpec(k=5, c_out=6, p=2)),  # channel-last
    ])
    def test_backward_nonfinite_equals_whole_batch_padding(self, n, c, shape,
                                                           spec, dtype):
        # NaN, infinities and -0 in x and grad_out: every value but a NaN
        # keeps its bytes, and NaNs sit where the oracle's do. A NaN's sign
        # bit is not compared: where two NaNs meet in an add, which one
        # survives may follow the layout numpy's loop takes. The non-finite
        # values stay in input channel 0 and output channel 0, so finite
        # gradients remain beside them, and a lone inf in input channel 1
        # gives dW infinities that no NaN reaches.
        rng = Rng(46).stream("conv-bwd-nonfinite", n, c, *shape, spec.k)
        x = rng.stream("x").normal((n, c) + shape).astype(dtype)
        w = rng.stream("w").normal((spec.c_out, c) + (spec.k,) * 3)
        w = w.astype(dtype)
        outs = tuple(ops.conv_out_extent(a, spec.k, spec.p, spec.s, spec.d)
                     for a in shape)
        g = rng.stream("g").normal((n, spec.c_out) + outs).astype(dtype)
        for a in (x, g):
            a.reshape(-1)[1::5] = -0.0
            flat = a[:, 0].flat  # writes through to a
            flat[::37], flat[11::41], flat[23::43] = np.nan, np.inf, -np.inf
        x[0, 1, 2, 3, 4] = np.inf
        with np.errstate(invalid="ignore"):  # inf - inf makes NaN
            got = ops.conv3d_backward(Tensor(g), Tensor(x), Tensor(w), spec)
            want = whole_batch_conv3d_backward(g, x, w, spec)
        for a, b in zip(got, want):
            a = a.data
            assert a.dtype == b.dtype == dtype and a.shape == b.shape
            nan = np.isnan(b)
            assert np.array_equal(np.isnan(a), nan)
            assert a[~nan].tobytes() == b[~nan].tobytes()
        for a in got[:2]:  # both gradients hold NaN, infinity and finite values
            assert np.isnan(a.data).any() and np.isinf(a.data).any()
            assert np.isfinite(a.data).any()

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


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("inputs", ["normal", "nonfinite"])
    @pytest.mark.parametrize("n, c, shape, spec", [
        (3, 2, (7, 8, 9), ops.ConvSpec(k=3, c_out=3, p=1)),
        (3, 5, (8, 8, 8), ops.ConvSpec(k=3, c_out=3, p=1)),  # 2 per buffer
        (1, 3, (9, 10, 11), ops.ConvSpec(k=3, c_out=2, s=2)),
        (3, 2, (9, 10, 11), ops.ConvSpec(k=3, c_out=2, p=2, s=2, d=2)),
        (3, 1, (17, 18, 19), ops.ConvSpec(k=3, c_out=4, p=1, s=2)),  # K3S2
        (3, 1, (19, 20, 21), ops.ConvSpec(k=7, c_out=4, p=3, s=4)),  # K7S4
        (1, 2, (2, 3, 4), ops.ConvSpec(k=3, c_out=2, p=5, s=4)),  # padding only
        (3, 3, (8, 9, 10), ops.ConvSpec(k=1, c_out=4, s=2)),
        (3, 3, (6, 7, 8), ops.ConvSpec(k=1, c_out=4)),
        (3, 4, (15,) * 3, ops.ConvSpec(k=3, c_out=32, d=2)),        # c32 block2
        (3, 32, (5,) * 3, ops.ConvSpec(k=5, c_out=64, p=2)),        # c32 block3
        (3, 64, (2,) * 3, ops.ConvSpec(k=3, c_out=64, p=1)),        # c32 block4
        (1, 4, (47,) * 3, ops.ConvSpec(k=3, c_out=32, d=2)),        # c96 block2
        (1, 32, (21,) * 3, ops.ConvSpec(k=5, c_out=64, p=2, d=2)),  # c96 block3
        (1, 64, (8,) * 3, ops.ConvSpec(k=3, c_out=64, p=1, d=2)),   # c96 block4
        (6, 32, (5,) * 3, ops.ConvSpec(k=5, c_out=64, p=2)),        # slabs once
        (4, 4, (15,) * 3, ops.ConvSpec(k=3, c_out=32, d=2)),        # slabs once
    ])
    def test_forward_equals_slab_forward(self, n, c, shape, spec, inputs,
                                         dtype):
        # Gathering each sample once and reading every tap's column matrix
        # as a strided view gives the bytes of a column slab copied per tap
        # and sample: BLAS gets the same operands, and each output adds its
        # taps in the same order, NaN, infinities and a -0 bias included.
        rng = Rng(45).stream("conv-fwd", n, c, *shape, spec.k, spec.p, spec.s,
                             spec.d)
        x = rng.stream("x").normal((n, c) + shape).astype(dtype)
        if inputs == "nonfinite":
            flat = x.reshape(-1)
            flat[::7], flat[3::11], flat[5::13] = np.nan, np.inf, -np.inf
        w = rng.stream("w").normal((spec.c_out, c) + (spec.k,) * 3)
        w = w.astype(dtype)
        b = rng.stream("b").normal((spec.c_out,)).astype(dtype)
        b[0] = -0.0
        with np.errstate(invalid="ignore"):  # inf - inf makes NaN
            got = ops.conv3d_forward(Tensor(x), Tensor(w), Tensor(b), spec)
            want = slab_conv3d_forward(x, w, b, spec)
        assert got.data.dtype == want.dtype == dtype
        assert got.data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, c, e, spec, slabs", [
        (6, 32, 5, ops.ConvSpec(k=5, c_out=64, p=2), 5),    # c32 block3
        (4, 4, 15, ops.ConvSpec(k=3, c_out=32, d=2), 3),    # c32 block2
        (5, 32, 5, ops.ConvSpec(k=5, c_out=64, p=2), 25),   # 5 fills, 5 taps
        (3, 4, 15, ops.ConvSpec(k=3, c_out=32, d=2), 9),
    ])
    def test_weight_slabs_formed_once_past_k_fills(self, n, c, e, spec,
                                                   slabs, monkeypatch):
        # One sample fills each of these run buffers. A call that fills it
        # more times than there are taps forms its k slabs once; any other
        # forms one slab per tap and fill, and holds one at a time
        calls = []
        slab = ops._weight_slab

        def counted(w, i):
            calls.append(i)
            return slab(w, i)

        monkeypatch.setattr(ops, "_weight_slab", counted)
        x = Tensor(np.ones((n, c, e, e, e), np.float32))
        w = Tensor(np.ones((spec.c_out, c) + (spec.k,) * 3, np.float32))
        ops.conv3d_forward(x, w, Tensor(np.zeros(spec.c_out, np.float32)),
                           spec)
        assert len(calls) == slabs

    def test_forward_transient_peak(self):
        # The forward holds one sample's run buffer, the output, one GEMM
        # product and one weight slab; numpy's ufunc loops add up to three
        # 8192-element buffers. It peaks at 3.89 MB against a 3.96 MB
        # budget. The batch padded whole, as the per-tap slab kernel did,
        # would add 0.52 MB, and a second run buffer 3.69 MB.
        n, c, e, spec = 2, 16, 12, ops.ConvSpec(k=5, c_out=8, p=2)
        k, o, item = spec.k, spec.c_out, 4
        rng = Rng(5).stream("conv-memory")
        x = Tensor(rng.stream("x").normal((n, c, e, e, e)).astype(np.float32))
        w = Tensor(rng.stream("w").normal((o, c, k, k, k)).astype(np.float32))
        b = Tensor(np.zeros(o, dtype=np.float32))
        planes = (k - 1) * spec.d + e   # the padded planes the taps read
        runs = k * k * c * planes * e * e * item
        out = n * o * e ** 3 * item
        budget = (runs + out + out // n + o * k * k * c * item
                  + 3 * 8192 * item)
        tracemalloc.start()
        try:
            ops.conv3d_forward(x, w, b, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget, (peak, budget)

    @staticmethod
    def backward_peak(n, c, e, spec):
        """conv3d_backward's tracemalloc peak on an [n, c, e, e, e] input,
        and its budget: one column slab, one weight slab, dW, dX, one padded
        sample (none unpadded), and one GEMM product, and up to three
        8192-element buffers of numpy's ufunc loops."""
        k, o, item = spec.k, spec.c_out, 4
        rng = Rng(5).stream("conv-memory")
        x = Tensor(rng.stream("x").normal((n, c, e, e, e)).astype(np.float32))
        w = Tensor(rng.stream("w").normal((o, c, k, k, k)).astype(np.float32))
        outs = (ops.conv_out_extent(e, k, spec.p, spec.s, spec.d),) * 3
        g = Tensor(np.ones((n, o) + outs, dtype=np.float32))
        slab = k * k * c * outs[0] ** 3 * item
        w_slab = o * k * k * c * item   # also the size of dW's GEMM product
        padded = c * (e + 2 * spec.p) ** 3 * item if spec.p else 0
        budget = (slab + 2 * w_slab + w.data.nbytes + x.data.nbytes + padded
                  + 3 * 8192 * item)
        tracemalloc.start()
        try:
            ops.conv3d_backward(g, x, w, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, budget

    def test_backward_transient_peak(self):
        # 16 channels outnumber the 12-voxel output row, so dX is added
        # channel-last; dX and dW are permuted into their returned layouts
        # only once the slabs and the padded sample are gone. With numpy 2.4,
        # as a fresh process's first call, it peaks at 3,432,102 B against a
        # 3,436,032 B budget (3,431,670 B when dX was added channel-first;
        # 3,437,334 B when each tap's box indices were listed up front); the
        # whole batch padded, with a padded dX, read 3.96 MB, and a second
        # slab for dX's columns and every weight slab at once 6.96 MB.
        peak, budget = self.backward_peak(2, 16, 12,
                                          ops.ConvSpec(k=5, c_out=8, p=2))
        assert peak <= budget, (peak, budget)

    def test_backward_transient_peak_channel_first(self):
        # c32 block2's form: 4 channels, an 11-voxel output row, no padding,
        # so dX is added channel-first, straight into the returned array. As
        # a fresh process's first call it peaks at 367,846 B against a
        # 421,008 B budget (389,278 B when forced channel-last); a second
        # column slab would add 191,664 B.
        peak, budget = self.backward_peak(2, 4, 15,
                                          ops.ConvSpec(k=3, c_out=32, d=2))
        assert peak <= budget, (peak, budget)


class TestMaxPool:
    def test_values_and_indices(self):
        x = np.zeros((1, 1, 4, 4, 4), dtype=np.float32)
        x[0, 0, 1, 2, 2] = 5.0   # inside the first 3x3x3 window
        x[0, 0, 3, 3, 3] = 7.0   # outside it
        out, key = pool_with_argmax(Tensor(x), 3, 1)
        assert out.shape == (1, 1, 2, 2, 2)
        assert out.data[0, 0, 0, 0, 0] == 5.0
        assert key[0, 0, 0, 0, 0] == key_of(3, (1, 2, 2))
        assert out.data[0, 0, 1, 1, 1] == 7.0
        assert key[0, 0, 1, 1, 1] == key_of(3, (2, 2, 2))
        # the keys route the gradient to those voxels: the 5 is the max of
        # every window but the one that holds the 7
        gx = ops.maxpool3d_backward(Tensor(np.ones(out.shape, np.float32)),
                                    key, 3, 1, x.shape)
        assert gx.data[0, 0, 1, 2, 2] == 7.0
        assert gx.data[0, 0, 3, 3, 3] == 1.0
        assert gx.data.sum() == 8.0

    def test_tie_goes_to_first_in_window_order(self):
        x = Tensor(np.ones((1, 1, 3, 3, 3), dtype=np.float32))
        out, key = pool_with_argmax(x, 3, 1)
        assert out.data[0, 0, 0, 0, 0] == 1.0
        assert key[0, 0, 0, 0, 0] == key_of(3, (0, 0, 0))

    def test_window_larger_than_input_rejected(self):
        x = Tensor(np.ones((1, 1, 2, 2, 2), dtype=np.float32))
        with pytest.raises(ShapeError, match="window"):
            ops.maxpool3d_forward(x, 3, 2)

    def test_backward_conserves_gradient_mass(self):
        rng = Rng(3).stream("pool-mass")
        x = Tensor(rng.permutation(2 * 216).astype(np.float64).reshape(2, 1, 6, 6, 6))
        out, key = pool_with_argmax(x, 2, 2)  # disjoint windows
        g = Tensor(rng.stream("g").normal(out.shape))
        gx = ops.maxpool3d_backward(g, key, 2, 2, x.shape)
        assert gx.shape == x.shape
        np.testing.assert_allclose(gx.data.sum(), g.data.sum(), rtol=1e-12)

    def test_backward_accumulates_on_overlap(self):
        x = Tensor(np.zeros((1, 1, 3, 3, 3), dtype=np.float64))
        x.data[0, 0, 1, 1, 1] = 1.0  # shared max of all four stride-1 windows
        out, key = pool_with_argmax(x, 2, 1)
        g = Tensor(np.ones(out.shape, dtype=np.float64))
        gx = ops.maxpool3d_backward(g, key, 2, 1, x.shape)
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
        out, key = pool_with_argmax(Tensor(x), k, s)
        for pos in np.ndindex(*out.shape):
            ni, ci, z, y, xx = pos
            win = x[ni, ci, z * s:z * s + k, y * s:y * s + k, xx * s:xx * s + k]
            t = int(np.argmax(win))  # first maximum in row-major order
            assert out.data[pos] == win.flat[t]
            assert key[pos] == k ** 3 - t

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k, s", [(1, 1), (1, 2), (2, 2), (3, 1), (3, 2),
                                      (5, 3)])
    def test_forward_equals_copy_first(self, k, s, dtype):
        # Each pass's first maximum takes tap 0 and tap 1 in the order the
        # copy of tap 0 did, so which of -0.0 and +0.0 wins, and which NaN,
        # keeps its bytes; a window of one tap still returns a fresh array
        r = Rng(18).stream("pool-fwd", k, s, np.dtype(dtype).name)
        shape = (2, 3, 9, 10, 11)
        x = (r.stream("x").integers(3, shape) - 1).astype(dtype)
        x[x == 0] = np.where(r.stream("sign").normal(shape) < 0,
                             -0.0, 0.0)[x == 0]
        x[r.stream("nan").uniform(shape) < 0.02] = np.nan
        got = ops.maxpool3d_forward(Tensor(x), k, s).data
        assert not np.shares_memory(got, x)
        assert got.tobytes() == copy_first_maxpool(x, k, s).tobytes()

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
            key = ops.maxpool3d_argmax(Tensor(x), pooled, k, s)
            want = masked_copy_argmax(x, pooled.data, k, s)
            assert key.dtype == want.dtype
            assert np.array_equal(key, want)

    def test_nan_propagates_and_index_stays_in_window(self):
        x = np.zeros((1, 1, 4, 4, 4), dtype=np.float32)
        x[0, 0, 1, 1, 1] = np.nan  # not the first tap of window (0, 0, 0)
        x[0, 0, 0, 0, 2] = 5.0
        out, key = pool_with_argmax(Tensor(x), 2, 2)
        assert np.isnan(out.data[0, 0, 0, 0, 0])
        assert out.data[0, 0, 0, 0, 1] == 5.0
        assert np.isnan(out.data).sum() == 1
        assert key[0, 0, 0, 0, 0] == 0  # no tap equals a NaN
        gx = ops.maxpool3d_backward(Tensor(np.ones(out.shape, dtype=np.float32)),
                                    key, 2, 2, x.shape)
        assert gx.data.sum() == out.data.size
        assert gx.data[0, 0, 0, 0, 0] == 1.0  # the NaN window's first voxel

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
        key = ops.maxpool3d_argmax(r, pooled, k, s)
        g = ops.maxpool3d_backward(grad, key, k, s, y.shape)
        return pooled, ops.relu_backward(g, y.data > 0)

    @staticmethod
    def pool_then_relu(y, grad, k, s):
        pooled = ops.maxpool3d_forward(y, k, s)
        key = ops.maxpool3d_argmax(y, pooled, k, s)
        pooled = ops.relu(pooled)
        g = ops.relu_backward(Tensor(grad.data.copy()), pooled.data > 0)
        return pooled, ops.maxpool3d_backward(g, key, k, s, y.shape)

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
        # of the whole product, with the batch axis reduced or kept, whether
        # a sample's channels pass at once or in groups; a single channel
        # reduced with the batch is the one flat run.
        rng = Rng(51).stream("sum-products", *shape)
        a = (rng.stream("a").normal(shape) * 3.0 - 1.0).astype(dtype)
        b = rng.stream("b").normal(shape).astype(dtype)
        want = np.add.reduce(a * b, axes, dtype, keepdims=True)
        # a sample's products at once, and one or two channels at a time
        widths = [shape[1]] + ([1, 2] if len(shape) == 5 else [])
        for width in widths:
            buf = np.empty((width,) + shape[2:], dtype)
            got = ops._sum_products(a, b, axes, buf)
            assert got.dtype == dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), width

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
        xhat = cache.xhat
        want = norm_backward_expression(g0, cache)  # before the cache is used
        got = ops.norm_backward(g, cache)
        # dx is written over the cache's xhat, with the bytes of the pure
        # expression of the same gradient, and grad_out is left as it was
        assert got[0].data is xhat
        assert g.data.tobytes() == g0.tobytes()
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


def stem_case(kind: str, n: int, inputs: str, stem, dtype):
    """A pooling block at one stem: an input and the conv, norm params and
    running stats that feed conv_norm_pool_forward. stem = (input
    channels, ConvSpec, pool): one input channel is block1, whose xhat is
    rebuilt, more a block that keeps its xhat. "ties" makes every value a
    multiple of 1/2, so the conv is exact and pool windows tie; "nan" puts
    a NaN in sample 0. A kept block's last channel has gamma 0 and beta
    -0.0, so its y is +0.0 and -0.0 and ties in every window."""
    c_in, spec, _ = stem
    k, c = spec.k, spec.c_out
    rng = Rng(63).stream(kind, n, inputs, k, c)
    x = rng.stream("x").normal((n, c_in, 17, 18, 19))
    w = rng.stream("w").normal((c, c_in, k, k, k))
    b = rng.stream("b").normal((c,))
    if inputs == "ties":
        x, w, b = (np.round(a * 2.0) / 2.0 for a in (x, w, b))
    elif inputs == "nan":
        x[0, 0, 5, 6, 7] = np.nan
    gamma = rng.stream("g").uniform((c,), 0.5, 1.5)
    beta = rng.stream("be").normal((c,))
    if c_in > 1:
        gamma[-1], beta[-1] = 0.0, -0.0

    def t(a):
        return Tensor(np.asarray(a).astype(dtype))

    running = None
    if kind != "instance":
        running = (t(rng.stream("rm").normal((c,))),
                   t(rng.stream("rv").uniform((c,), 0.5, 2.0)))
    return t(x), (t(w), t(b), spec), t(gamma), t(beta), running


def whole_stem(x, conv, gamma, beta, running, mode, pool):
    """The whole-batch composition conv_norm_pool_forward replaces: the
    batch's conv output, its taped norm with a whole y, and the pool.
    Returns (pooled, taps, cache, running, y's shape)."""
    u = ops.conv3d_forward(x, *conv)
    if running is None:
        y, cache = ops.instance_norm_forward(u, gamma, beta)
    else:
        y, cache, *running = ops.batch_norm_forward(u, gamma, beta, *running,
                                                    mode)
    pooled, taps = pool_with_argmax(y, *pool)
    return pooled, taps, cache, running, y.shape


STEM_CASES = [("instance", 1, "normal"), ("instance", 3, "ties"),
              ("instance", 4, "nan"), ("batch train", 2, "normal"),
              ("batch train", 3, "ties"), ("batch train", 4, "nan"),
              ("batch eval", 1, "normal"), ("batch eval", 4, "ties"),
              ("batch eval", 3, "nan")]
STEMS = [(1, ops.ConvSpec(k=1, c_out=4), (3, 2)),            # block1 K1S1
         (1, ops.ConvSpec(k=3, c_out=8, p=1, s=2), (3, 2)),  # block1 K3S2
         (1, ops.ConvSpec(k=7, c_out=4, p=3, s=4), (3, 2)),  # block1 K7S4
         (3, ops.ConvSpec(k=3, c_out=5, p=1), (5, 2)),       # kept xhat
         (3, ops.ConvSpec(k=5, c_out=4, p=2, d=2), (2, 1))]  # kept, dilated


def tied_stem(kind: str, n: int, dtype):
    """A kept-xhat block over [n, 3, 9, 8, 7] whose conv is the identity, so
    its output is x: half-integer values that tie in many pool windows.
    Channel 2 has gamma 0, so all of its y ties, and beta -0.0. In eval
    mode, whose statistics are fixed, x holds a NaN in one window of
    sample 0; elsewhere it would spread over whole channels."""
    rng = Rng(61).stream("tied", kind, n)
    x = np.round(rng.stream("x").normal((n, 3, 9, 8, 7)) * 2.0) / 2.0
    if kind == "batch eval":
        x[0, 1, 2, 3, 4] = np.nan
    w = np.eye(3).reshape(3, 3, 1, 1, 1)
    running = None
    if kind != "instance":
        running = tuple(Tensor(np.full(3, v, dtype)) for v in (0.1, 1.3))
    return (Tensor(x.astype(dtype)),
            (Tensor(w.astype(dtype)), Tensor(np.zeros(3, dtype)),
             ops.ConvSpec(k=1, c_out=3)),
            Tensor(np.array([1.5, -0.5, 0.0], dtype)),
            Tensor(np.array([0.25, 0.0, -0.0], dtype)), running)


class TestPooledNorm:
    """conv_norm_pool_forward, a pooled norm_backward and
    conv_norm_pool_backward, with block1's rebuilt xhat or a kept one,
    against the whole-batch composition: a whole conv output and y pooled
    at once, and the whole routed gradient through norm_backward_expression
    and the conv's backward."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k, s", [(3, 2), (2, 1), (5, 2)])
    @pytest.mark.parametrize("n", [1, 3])
    def test_forward_equals_whole_y(self, n, k, s, dtype):
        # a kept xhat pooled a sample at a time, and the whole batch at once
        # without a tape, against the whole y pooled at once
        for kind in ("instance", "batch eval"):
            x, conv, gamma, beta, running = tied_stem(kind, n, dtype)
            mode = kind.split()[-1]
            want, want_idx, _, _, _ = whole_stem(x, conv, gamma, beta,
                                                 running, mode, (k, s))
            for tape in (True, False):
                got, idx, _, _ = ops.conv_norm_pool_forward(
                    x, conv, gamma, beta, (k, s), tape, running, mode)
                if kind == "batch eval":
                    assert np.isnan(got.data[0, 1]).any()
                    assert not np.isnan(got.data[0, 1]).all()
                assert got.data.tobytes() == want.data.tobytes()
                if tape:
                    assert idx.dtype == np.uint8
                    assert idx.tobytes() == want_idx.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind, n", [
        ("instance", 1), ("instance", 3), ("batch train", 2),
        ("batch train", 3), ("batch eval", 1), ("batch eval", 3)])
    def test_backward_equals_whole_routing(self, kind, n, dtype):
        x, conv, gamma, beta, running = tied_stem(kind, n, dtype)
        mode = kind.split()[-1]
        pooled, want_idx, want_cache, _, shape = whole_stem(
            x, conv, gamma, beta, running, mode, (3, 2))
        g = Rng(62).normal(pooled.shape).astype(dtype)
        routed = ops.maxpool3d_backward(Tensor(g), want_idx, 3, 2, shape).data
        want = norm_backward_expression(routed, want_cache)
        _, idx, cache, _ = ops.conv_norm_pool_forward(
            x, conv, gamma, beta, (3, 2), True, running, mode)
        xhat = cache.xhat
        got = ops.norm_backward(Tensor(g), cache, (idx, 3, 2))
        assert got[0].data is xhat  # dx is written over xhat
        for a, b in zip(got, want, strict=True):
            assert a.data.dtype == b.dtype == dtype
            assert a.data.tobytes() == b.tobytes()

    @pytest.mark.parametrize("stem", STEMS)
    @pytest.mark.parametrize("kind, n", [
        ("instance", 1), ("instance", 3), ("batch train", 3),
        ("batch eval", 1), ("batch eval", 2), ("instance", 4),
        ("batch train", 2), ("batch train", 4), ("batch eval", 4)])
    def test_rebuilt_xhat_equals_kept(self, kind, n, stem):
        # Block1's norm keeps no xhat: conv_norm_pool_backward rebuilds each
        # sample's from the conv input, and its dx goes straight into that
        # sample's conv backward, whose dw and db add up in sample order.
        # Any other block keeps its xhat, whose whole dx goes back through
        # one conv backward. The oracle keeps the whole xhat and takes the
        # whole dx back through the conv.
        mode = kind.split()[-1]
        for inputs, dtype in [("normal", np.float32), ("normal", np.float64),
                              ("ties", np.float32), ("nan", np.float64)]:
            x, conv, gamma, beta, running = stem_case(kind, n, inputs, stem,
                                                      dtype)
            pooled, idx, cache, _, shape = whole_stem(x, conv, gamma, beta,
                                                      running, mode, stem[2])
            g = Rng(64).normal(pooled.shape).astype(dtype)
            routed = ops.maxpool3d_backward(Tensor(g), idx, *stem[2],
                                            shape).data
            dx, dgamma, dbeta = norm_backward_expression(routed, cache)
            w, b, spec = conv
            gx, gw, gb = whole_batch_conv3d_backward(dx, x.data, w.data, spec)
            _, got_idx, got_cache, _ = ops.conv_norm_pool_forward(
                x, conv, gamma, beta, stem[2], True, running, mode)
            assert (got_cache.xhat is None) == (stem[0] == 1)
            g_in = g.copy()
            got = ops.conv_norm_pool_backward(Tensor(g), x, conv, got_cache,
                                              stem[2], got_idx)
            assert g.tobytes() == g_in.tobytes()  # grad_out is only read
            for a, b_ in zip(got, (gx, dgamma, dbeta, gw, gb), strict=True):
                assert a.data.dtype == b_.dtype == dtype
                assert a.data.tobytes() == b_.tobytes(), (inputs, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stem", STEMS)
    @pytest.mark.parametrize("kind, n, inputs", STEM_CASES)
    def test_conv_forward_equals_whole(self, kind, n, inputs, stem, dtype,
                                       monkeypatch):
        x, conv, gamma, beta, running = stem_case(kind, n, inputs, stem, dtype)
        mode = kind.split()[-1]
        pooled, idx, cache, new_running, _ = whole_stem(x, conv, gamma, beta,
                                                        running, mode, stem[2])
        if inputs == "nan":
            assert np.isnan(pooled.data[0]).any()
        real, outs = ops.conv3d_forward, []

        def conv3d_forward(*args):
            outs.append(real(*args).data)
            return Tensor(outs[-1])

        monkeypatch.setattr(ops, "conv3d_forward", conv3d_forward)
        for tape in (True, False):
            outs.clear()
            got, got_idx, got_cache, got_running = ops.conv_norm_pool_forward(
                x, conv, gamma, beta, stem[2], tape, running, mode)
            assert got.data.tobytes() == pooled.data.tobytes()
            assert (got_running is None) == (running is None)
            for a, b in zip(got_running or (), new_running or ()):
                assert a.data.dtype == b.data.dtype == dtype
                assert a.data.tobytes() == b.data.tobytes()
            # block1 recomputes each sample's conv, twice more for train-mode
            # batch statistics; a kept block runs its conv once
            passes = 3 if kind == "batch train" else 1
            assert len(outs) == (n * passes if stem[0] == 1 else 1)
            if not tape:
                assert got_idx is None and got_cache is None
                continue
            assert got_idx.dtype == idx.dtype
            assert got_idx.tobytes() == idx.tobytes()
            if stem[0] == 1:
                assert got_cache.xhat is None  # backward rebuilds it from x
            else:  # xhat lives in the conv output's own array
                assert got_cache.xhat is outs[0]
                assert got_cache.xhat.tobytes() == cache.xhat.tobytes()
            for name in ("axes", "param_axes", "fixed_stats"):
                assert getattr(got_cache, name) == getattr(cache, name)
            for name in ("mean", "invstd", "gamma_b"):
                assert (getattr(got_cache, name).tobytes()
                        == getattr(cache, name).tobytes())

    @pytest.mark.parametrize("shape, dtype", [
        ((2, 4, 9, 10, 11), np.float32), ((2, 4, 9, 10, 11), np.float64),
        ((3, 8, 17, 17, 17), np.float32), ((3, 8, 17, 17, 17), np.float64),
        ((4, 2, 5, 6, 7), np.float64), ((4, 4, 96, 96, 96), np.float32)])
    def test_batch_stats_equal_numpy(self, shape, dtype):
        # a pass of one-sample sums each: numpy's mean and var of the batch,
        # at crop 96 among other shapes
        u = np.random.default_rng(65).standard_normal(shape, dtype)
        u = u * dtype(3.0) + dtype(1.5)
        axes = (0, 2, 3, 4)
        mean, var = ops._batch_stats(lambda i: u[i:i + 1].copy(), shape, axes)
        want_mean = u.mean(axis=axes, keepdims=True, dtype=dtype)
        want_var = u.var(axis=axes, keepdims=True, dtype=dtype)
        assert mean.dtype == var.dtype == dtype
        assert mean.tobytes() == want_mean.tobytes()
        assert var.tobytes() == want_var.tobytes()


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
