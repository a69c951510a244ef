"""Differentiable layer kernels: each forward has an exact backward.

Two rules of ownership. Every layer forward except conv, pool and linear
writes over its input's array: relu returns it holding the result, and a
normalization leaves xhat there, which a tape's cache keeps beside a fresh
y, or without a tape y itself. The backward ops write the input gradient
over grad_out's array and return it, and norm_backward consumes its cache:
it overwrites xhat. The state backward reads is kept no wider than backward
needs: relu_backward takes the bool mask x > 0, maxpool3d_argmax gives
int32 indices, and neither the normalizations nor norm_backward hold a
full-size scratch buffer, only one sample's. The normalizations subtract
the mean once and take the variance from that difference. Convolution uses
cross-correlation semantics (no kernel flip). The 3D convolution is lowered
to im2col GEMMs (Chellapilla et al., 2006), one column slab per first-axis
kernel tap and sample, so each BLAS call contracts over k*k*C and the
column buffer stays at 1/k of a full im2col; the backward writes dX's
columns into that same slab. A 1x1x1 stride-1 convolution of one input
channel is a broadcast multiply instead. Max pooling is split in two ops:
maxpool3d_forward takes the values from three 1-D maximum passes, and
maxpool3d_argmax, which only a forward that records a tape for backward
calls, recovers the first maximal tap by equality. A naive direct-loop
oracle for the convolution lives in the test suite.

Output extent per spatial axis:
    conv: floor((in + 2p - d*(k-1) - 1) / s) + 1
    pool: floor((in - k) / s) + 1            (no padding)
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .config import MAX_AGE
from .tensor import Tensor, ShapeError

EPS = 1e-5  # added to the variance of every normalization
BN_MOMENTUM = 0.1  # weight of a batch's statistics in batch norm's running ones
D_MODEL = 128  # width of the sinusoidal age embedding


def conv_out_extent(extent: int, k: int, p: int, s: int, d: int) -> int:
    return (extent + 2 * p - d * (k - 1) - 1) // s + 1


def pool_out_extent(extent: int, k: int, s: int) -> int:
    return (extent - k) // s + 1


@dataclass(frozen=True)
class ConvSpec:
    """Cubic 3D convolution hyperparameters: kernel, channels, padding,
    stride, dilation."""

    k: int
    c_out: int
    p: int = 0
    s: int = 1
    d: int = 1

    def __post_init__(self):
        if self.k < 1 or self.s < 1 or self.d < 1 or self.p < 0 or self.c_out < 1:
            raise ValueError(f"invalid conv spec {self}")


def _tap_slices(k: int, s: int, d: int, out_extents: tuple[int, ...], tap):
    """Slices selecting the input positions a kernel tap touches, one per
    spatial axis."""
    return tuple(
        slice(t * d, t * d + s * (o - 1) + 1, s) for t, o in zip(tap, out_extents)
    )


def _padded(x: Tensor, p: int) -> np.ndarray:
    """The input zero-padded by p on every spatial side."""
    return np.pad(x.data, ((0, 0), (0, 0)) + ((p, p),) * 3) if p else x.data


def _windows(xp: np.ndarray, spec: ConvSpec,
             outs: tuple[int, ...]) -> np.ndarray:
    """Read-only [N, k, k, k, C, oD, oH, oW] view of the padded input xp:
    element [n, i, j, l, c, z, y, x] is the input that tap (i, j, l) of
    output (z, y, x) multiplies in channel c. Slab [n, i] reshapes to the
    [k*k*C, P] column matrix of first-axis tap i.

    The extent law keeps every strided position inside xp, so as_strided
    never reads past the buffer."""
    sn, sc, sd, sh, sw = xp.strides
    k, s, d = spec.k, spec.s, spec.d
    return np.lib.stride_tricks.as_strided(
        xp, shape=(xp.shape[0], k, k, k, xp.shape[1]) + outs,
        strides=(sn, d * sd, d * sh, d * sw, sc, s * sd, s * sh, s * sw),
        writeable=False)


def _weight_slab(w: Tensor, i: int) -> np.ndarray:
    """w[:, :, i] as a [c_out, k*k*C] matrix, its columns in the (j, l, c)
    order of the column slab of first-axis tap i."""
    return w.data[:, :, i].transpose(0, 2, 3, 1).reshape(w.shape[0], -1)


def conv3d_forward(x: Tensor, w: Tensor, b: Tensor, spec: ConvSpec) -> Tensor:
    """3D cross-correlation with bias. x: [N,C,D,H,W], w: [O,C,k,k,k], b: [O]."""
    n, c, *spatial = x.shape
    if w.shape != (spec.c_out, c, spec.k, spec.k, spec.k):
        raise ShapeError(
            f"weight shape {w.shape} does not match spec {spec} with {c} input channels"
        )
    if b.shape != (spec.c_out,):
        raise ShapeError(f"bias shape {b.shape}, expected ({spec.c_out},)")
    outs = tuple(conv_out_extent(e, spec.k, spec.p, spec.s, spec.d) for e in spatial)
    if any(o < 1 for o in outs):
        raise ShapeError(
            f"effective kernel {spec.d * (spec.k - 1) + 1} exceeds padded "
            f"input {tuple(e + 2 * spec.p for e in spatial)}"
        )
    k, o = spec.k, spec.c_out
    if k == 1 and spec.s == 1 and spec.p == 0 and c == 1:
        # Each output is one product plus the bias: no column copy and no
        # K=1 GEMM. The bias enters as b + 0, which turns a -0 bias into +0
        # just as the GEMM path's zero-filled accumulator turns a -0 product
        # into +0, so the two paths agree bit for bit.
        out = np.empty((n, o) + outs, dtype=x.dtype)
        np.multiply(x.data, w.data.reshape(1, o, 1, 1, 1), out=out)
        out += (b.data + 0)[None, :, None, None, None]
        return Tensor(out)
    xp = _padded(x, spec.p)
    win = _windows(xp, spec, outs)
    # One [k*k*C, P] column slab per first-axis tap, reused for every
    # sample: 1/k of the full im2col buffer, and each GEMM contracts over
    # k*k*C. Channels run innermost, so each output sums channels within a
    # tap and taps in row-major order, as the direct loop does. A
    # channel-major order rounds differently enough in float32 to move one
    # 6-epoch crop-32 training run by 1 % in loss. Taps run outermost, so
    # one weight slab exists at a time; each sample still adds its slabs in
    # tap order.
    cols = np.empty((k, k, c) + outs, dtype=x.dtype)
    cols2 = cols.reshape(k * k * c, -1)
    out = np.zeros((n, o) + outs, dtype=x.dtype)
    prod = np.empty((o, cols2.shape[1]), dtype=x.dtype)
    for i in range(k):
        w_slab = _weight_slab(w, i)
        for ni in range(n):
            np.copyto(cols, win[ni, i])
            acc = out[ni].reshape(o, -1)
            acc += np.matmul(w_slab, cols2, out=prod)
    out += b.data[None, :, None, None, None]
    return Tensor(out)


def conv3d_backward(grad_out: Tensor, x: Tensor, w: Tensor,
                    spec: ConvSpec) -> tuple[Tensor, Tensor, Tensor]:
    """Exact gradients of conv3d_forward w.r.t. input, weight, and bias."""
    n, c, *spatial = x.shape
    outs = tuple(conv_out_extent(e, spec.k, spec.p, spec.s, spec.d) for e in spatial)
    if grad_out.shape != (n, spec.c_out) + outs:
        raise ShapeError(
            f"grad_out shape {grad_out.shape}, expected {(n, spec.c_out) + outs}"
        )
    xp = _padded(x, spec.p)
    win = _windows(xp, spec, outs)
    k, o = spec.k, spec.c_out
    g = grad_out.data
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w.data)
    gb = g.sum(axis=(0, 2, 3, 4))
    cols = np.empty((k, k, c) + outs, dtype=x.dtype)
    cols2 = cols.reshape(k * k * c, -1)
    # Taps outermost, as in the forward: one weight slab at a time, and each
    # sample's dW and dX still take their terms in tap order. dX's columns go
    # into the column slab once dW's GEMM has read it.
    for i in range(k):
        w_slab_t = _weight_slab(w, i).T
        # (j, l, input slices) of each tap in slab i, for the scatter-add
        taps = [(j, l, _tap_slices(k, spec.s, spec.d, outs, (i, j, l)))
                for j in range(k) for l in range(k)]
        for ni in range(n):
            g_n = g[ni].reshape(o, -1)
            gxs = gxp[ni]
            np.copyto(cols, win[ni, i])
            gw[:, :, i] += (g_n @ cols2.T).reshape(o, k, k, c).transpose(0, 3, 1, 2)
            np.matmul(w_slab_t, g_n, out=cols2)
            for j, l, sl in taps:
                gxs[:, sl[0], sl[1], sl[2]] += cols[j, l]
    del cols, cols2  # the slab is freed before dX is cut out of its padding
    p = spec.p
    gx = gxp[:, :, p:p + spatial[0], p:p + spatial[1], p:p + spatial[2]]
    return Tensor(np.ascontiguousarray(gx)), Tensor(gw), Tensor(gb)


def maxpool3d_forward(x: Tensor, k: int, s: int) -> Tensor:
    """Max pooling without padding: the pooled values. A NaN in a window
    makes its output NaN."""
    n, c, dd, hh, ww = x.shape
    if k > min(dd, hh, ww):
        raise ShapeError(f"pool window {k} larger than input extents {(dd, hh, ww)}")
    outs = (pool_out_extent(dd, k, s), pool_out_extent(hh, k, s),
            pool_out_extent(ww, k, s))
    # A cubic window's max is three 1-D maxima, along D, H, then W.
    cur = x.data
    for axis, o in zip((2, 3, 4), outs):
        taps = [(slice(None),) * axis + (slice(t, t + s * (o - 1) + 1, s),)
                for t in range(k)]
        red = cur[taps[0]].copy()
        for t in taps[1:]:
            np.maximum(red, cur[t], out=red)
        cur = red
    return Tensor(cur)


def maxpool3d_argmax(x: Tensor, pooled: Tensor, k: int, s: int) -> np.ndarray:
    """Per output position of maxpool3d_forward(x, k, s), which gave
    `pooled`, the int32 row-major flat index of the chosen input voxel
    within its (sample, channel) volume: the state maxpool3d_backward needs.
    A volume of 2^31 voxels or more raises ShapeError. Ties go to
    the first element in row-major window order. Where a window holds a NaN,
    the index points at the window's first voxel."""
    dd, hh, ww = x.shape[2:]
    if dd * hh * ww >= 2 ** 31:
        raise ShapeError(f"pool input volume {(dd, hh, ww)} has 2^31 or more "
                         f"voxels, beyond int32 argmax indices")
    outs = pooled.shape[2:]
    cur = pooled.data
    # Tap t (row-major window order) that equals the max gets the key
    # taps - t, and a running maximum keeps the first such tap's key. Key 0
    # (no tap equal: a NaN window) maps to offset 0, the window's first voxel.
    taps = k ** 3
    key_type = np.min_scalar_type(taps).type  # uint8 up to k = 6
    key = np.zeros(cur.shape, dtype=key_type)
    eq = np.empty(cur.shape, dtype=bool)
    hit = np.empty(cur.shape, dtype=key_type)
    offset = np.zeros(taps + 1, dtype=np.int32)
    for t, (i, j, l) in enumerate(itertools.product(range(k), repeat=3)):
        sl = _tap_slices(k, s, 1, outs, (i, j, l))
        np.equal(x.data[:, :, sl[0], sl[1], sl[2]], cur, out=eq)
        np.multiply(eq, key_type(taps - t), out=hit)
        np.maximum(key, hit, out=key)
        offset[taps - t] = (i * hh + j) * ww + l
    base = (
        (np.arange(outs[0], dtype=np.int32) * s)[:, None, None] * (hh * ww)
        + (np.arange(outs[1], dtype=np.int32) * s)[None, :, None] * ww
        + (np.arange(outs[2], dtype=np.int32) * s)[None, None, :]
    )
    return base + offset[key]


def maxpool3d_backward(grad_out: Tensor, idx: np.ndarray,
                       input_shape: tuple[int, ...]) -> Tensor:
    """Route each output gradient to its argmax voxel, accumulating where
    pooling windows overlap."""
    n, c, dd, hh, ww = input_shape
    if grad_out.shape != idx.shape:
        raise ShapeError(f"grad_out shape {grad_out.shape} vs indices {idx.shape}")
    vol = dd * hh * ww
    if idx.min() < 0 or idx.max() >= vol:
        raise ShapeError(f"argmax index out of range for volume of {vol} voxels")
    g = np.zeros(n * c * vol, dtype=grad_out.dtype)
    # one flat index over all (sample, channel) volumes takes np.add.at's
    # fast path for a 1-D index; the adds keep their row-major order
    flat = idx.reshape(n * c, -1) + (np.arange(n * c, dtype=np.intp) * vol)[:, None]
    np.add.at(g, flat.reshape(-1), grad_out.data.reshape(-1))
    return Tensor(g.reshape(input_shape))


@dataclass
class NormCache:
    """Saved forward state for norm_backward."""

    axes: tuple[int, ...]       # reduction axes of the normalization
    param_axes: tuple[int, ...]  # axes summed over for gamma/beta grads
    xhat: np.ndarray
    invstd: np.ndarray
    gamma_b: np.ndarray          # gamma broadcast to x's rank
    fixed_stats: bool = False    # eval-mode batch norm: mean/var are constants


def _sum_products(a: np.ndarray, b: np.ndarray, axes: tuple[int, ...],
                  buf: np.ndarray) -> np.ndarray:
    """a * b summed over `axes`, keeping them as unit axes, in a's dtype:
    bit for bit numpy's one reduction of the whole product, yet the products
    pass one sample at a time through buf, one sample's extent. When axis 0
    is reduced the per-sample sums add onto 0 in sample order, which is
    numpy's order too, except where every kept axis has extent 1: numpy sums
    such an array as one flat run, so that product is formed whole."""
    kept = [e for ax, e in enumerate(a.shape) if ax not in axes]
    if 0 in axes and all(e == 1 for e in kept):
        return np.add.reduce(np.multiply(a, b), axes, a.dtype, keepdims=True)
    sub = tuple(ax - 1 for ax in axes if ax)
    sums = (np.add.reduce(np.multiply(ai, bi, out=buf), sub, a.dtype,
                          keepdims=True) for ai, bi in zip(a, b))
    if 0 in axes:
        return functools.reduce(np.add, sums, a.dtype.type(0))[None]
    return np.stack(list(sums))


def _normalize(x: Tensor, gamma: Tensor, beta: Tensor, axes: tuple[int, ...],
               channel_axis: int, tape: bool, stats=None):
    """gamma * (x - mean) / sqrt(var + EPS) + beta over `axes`, with one
    gamma and beta entry per index of `channel_axis`. mean and the biased
    var are x's, in x's dtype, or the per-channel constants stats = (mean,
    var). x's array is written over: it holds xhat, which a tape's cache
    keeps beside a fresh y, and without a tape it holds y and the cache is
    None. Returns (y, cache, mean, var)."""
    c = x.shape[channel_axis]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"affine params {gamma.shape}/{beta.shape}, expected ({c},)")
    rank = x.data.ndim
    bshape = tuple(c if a == channel_axis else 1 for a in range(rank))
    gb = gamma.data.reshape(bshape)
    bb = beta.data.reshape(bshape)
    if stats is not None:
        mean, var = (s.reshape(bshape) for s in stats)
    else:
        mean = x.data.mean(axis=axes, keepdims=True, dtype=x.dtype)
    # x - mean once, over x: it is xhat before scaling, and var is the mean
    # of its square, reduced and divided as numpy's var does, so bit for bit
    # var's, with a transient of one sample.
    d = np.subtract(x.data, mean, out=x.data)
    if stats is None:
        count = np.intp(np.prod([x.shape[a] for a in axes]))
        var = _sum_products(d, d, axes, np.empty(x.shape[1:], x.dtype))
        np.true_divide(var, count, out=var, casting="unsafe")
    invstd = 1.0 / np.sqrt(var + EPS)
    # In place, yet the same products in the same order as
    # gamma * ((x - mean) * invstd) + beta; without a tape y overwrites xhat.
    d *= invstd
    y = np.multiply(gb, d, out=None if tape else d)
    y += bb
    if not tape:
        return Tensor(y), None, mean, var
    param_axes = tuple(a for a in range(rank) if a != channel_axis)
    cache = NormCache(axes, param_axes, d, invstd, gb, stats is not None)
    return Tensor(y), cache, mean, var


def instance_norm_forward(x: Tensor, gamma: Tensor, beta: Tensor,
                          tape: bool = True) -> tuple[Tensor, NormCache | None]:
    """Normalize each (sample, channel) over its spatial positions. No batch
    statistics are involved, so train and eval behave identically. With
    tape=False no backward state is kept, the cache is None and y is
    written over x's array."""
    return _normalize(x, gamma, beta, (2, 3, 4), 1, tape)[:2]


def batch_norm_forward(x: Tensor, gamma: Tensor, beta: Tensor,
                       running_mean: Tensor, running_var: Tensor, mode: str,
                       tape: bool = True
                       ) -> tuple[Tensor, NormCache | None, Tensor, Tensor]:
    """Per-channel normalization over batch and spatial positions.

    Train mode normalizes with batch statistics (biased variance) and blends
    them into the returned running stats: running <- (1-m)*running + m*batch
    with m = BN_MOMENTUM, the unbiased variance entering the running
    estimate. Eval mode normalizes with the running stats unchanged. Returns
    (y, cache, new_running_mean, new_running_var). With tape=False the
    cache is None and y is written over x's array.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be train or eval, got {mode!r}")
    axes = (0, 2, 3, 4)
    if mode == "eval":
        y, cache, _, _ = _normalize(x, gamma, beta, axes, 1, tape,
                                    (running_mean.data, running_var.data))
        return y, cache, running_mean, running_var
    if x.shape[0] < 2:
        raise ValueError("batch norm in train mode needs a batch of >= 2")
    y, cache, mean, var = _normalize(x, gamma, beta, axes, 1, tape)
    c = x.shape[1]
    m, mom = x.data.size // c, BN_MOMENTUM
    new_mean = (1 - mom) * running_mean.data + mom * mean.reshape(c)
    new_var = (1 - mom) * running_var.data + mom * var.reshape(c) * m / (m - 1)
    return (y, cache, Tensor(new_mean.astype(x.dtype)),
            Tensor(new_var.astype(x.dtype)))


def layer_norm_forward(x: Tensor, gamma: Tensor, beta: Tensor,
                       tape: bool = True) -> tuple[Tensor, NormCache | None]:
    """Normalize over the trailing feature axis of each row. With
    tape=False the cache is None and y is written over x's array."""
    last = x.data.ndim - 1
    return _normalize(x, gamma, beta, (last,), last, tape)[:2]


def norm_backward(grad_out: Tensor,
                  cache: NormCache) -> tuple[Tensor, Tensor, Tensor]:
    """Gradients through any normalization forward, including the dependence
    of mean and variance on the input (except eval-mode batch norm, whose
    statistics are constants). dx overwrites grad_out's array, which is
    returned as dx, and the cache is consumed: its xhat is overwritten."""
    if grad_out.shape != cache.xhat.shape:
        raise ShapeError(
            f"grad_out shape {grad_out.shape} does not match saved forward "
            f"state for input {cache.xhat.shape}"
        )
    g, xhat = grad_out.data, cache.xhat
    # Each product in the order of dx = invstd * (dxhat - m1 - xhat * m2),
    # so the result is bit for bit that expression's. Besides g, the only
    # buffer covers one sample: the products summed for dgamma and m2 pass
    # through it, and xhat * m2 overwrites xhat, its last use.
    buf = np.empty(g.shape[1:], g.dtype)
    dgamma = _sum_products(g, xhat, cache.param_axes, buf).reshape(-1)
    dbeta = g.sum(axis=cache.param_axes)
    # g is read for the last time here, so dx overwrites it
    dx = np.multiply(g, cache.gamma_b, out=g)  # dxhat until the last step
    if not cache.fixed_stats:
        count = np.intp(np.prod([g.shape[a] for a in cache.axes]))
        m1 = dx.mean(axis=cache.axes, keepdims=True, dtype=g.dtype)
        m2 = _sum_products(dx, xhat, cache.axes, buf)
        np.true_divide(m2, count, out=m2, casting="unsafe")  # numpy's mean
        dx -= m1
        dx -= np.multiply(xhat, m2, out=xhat)
    dx *= cache.invstd
    return Tensor(dx), Tensor(dgamma), Tensor(dbeta)


def relu(x: Tensor) -> Tensor:
    """max(x, 0), written over x's array, which is returned."""
    return Tensor(np.maximum(x.data, x.dtype.type(0), out=x.data))


def relu_backward(grad_out: Tensor, mask: np.ndarray) -> Tensor:
    """grad_out where the bool mask x > 0 of relu's input holds, else 0:
    subgradient 0 at x == 0. Written over grad_out's array, which is
    returned."""
    if mask.dtype != np.bool_ or mask.shape != grad_out.shape:
        raise ShapeError(f"mask {mask.shape} {mask.dtype}, expected a bool "
                         f"mask of grad_out's shape {grad_out.shape}")
    return Tensor(np.multiply(grad_out.data, mask, out=grad_out.data))


def linear_forward(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """y = x @ w.T + b with x: [N,F_in], w: [F_out,F_in], b: [F_out]."""
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"feature extents disagree: x {x.shape}, w {w.shape}")
    if b.shape != (w.shape[0],):
        raise ShapeError(f"bias shape {b.shape}, expected ({w.shape[0]},)")
    return Tensor(x.data @ w.data.T + b.data)


def linear_backward(grad_out: Tensor, x: Tensor,
                    w: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    if grad_out.shape != (x.shape[0], w.shape[0]):
        raise ShapeError(
            f"grad_out shape {grad_out.shape}, expected {(x.shape[0], w.shape[0])}"
        )
    gx = grad_out.data @ w.data
    gw = grad_out.data.T @ x.data
    gb = grad_out.data.sum(axis=0)
    return Tensor(gx), Tensor(gw), Tensor(gb)


def softmax_xent(scores: Tensor, labels,
                 sample_weights=None) -> tuple[float, Tensor, Tensor]:
    """Numerically stabilized softmax + mean cross-entropy.

    Returns (loss, grad wrt scores, probabilities). With per-sample weights
    the loss is the weighted mean and the gradient scales accordingly.
    """
    y = np.asarray(labels, dtype=np.int64)
    n, c = scores.shape
    if y.shape != (n,):
        raise ShapeError(f"labels shape {y.shape}, expected ({n},)")
    if y.min() < 0 or y.max() >= c:
        raise ValueError(f"label out of range [0, {c}): {y[(y < 0) | (y >= c)]}")
    z = scores.data - scores.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    sez = ez.sum(axis=1, keepdims=True)
    probs = ez / sez
    # log-sum-exp keeps the loss finite even when the true-class probability
    # underflows to zero
    nll = np.log(sez[:, 0]) - z[np.arange(n), y]
    if sample_weights is None:
        wts = np.ones(n, dtype=scores.dtype)
    else:
        wts = np.asarray(sample_weights, dtype=scores.dtype)
    wsum = wts.sum()
    loss = float((wts * nll).sum() / wsum)
    grad = probs.copy()
    grad[np.arange(n), y] -= 1.0
    grad *= (wts / wsum)[:, None]
    return loss, Tensor(grad.astype(scores.dtype)), Tensor(probs.astype(scores.dtype))


def round_age(age):
    """Round to the nearest 0.5 years, halves rounding up, elementwise."""
    return np.floor(np.asarray(age) * 2.0 + 0.5) / 2.0


def age_encode(age, dtype=np.float32) -> Tensor:
    """Fixed sinusoidal embedding of ages in years, [D_MODEL] for one age
    and [N, D_MODEL] for N. Each age is rounded to 0.5-year resolution, then
    for each frequency index i the pair (sin, cos) of age / 10000^(2i/D_MODEL)
    fills components 2i and 2i+1."""
    ages = np.asarray(age, dtype=np.float64)
    if not ((ages >= 0.0) & (ages <= MAX_AGE)).all():  # NaN fails too
        raise ValueError(f"ages outside [0, {MAX_AGE:g}]: {ages}")
    i = np.arange(D_MODEL // 2, dtype=np.float64)
    angles = np.divide.outer(round_age(ages), 10000.0 ** (2.0 * i / D_MODEL))
    out = np.empty(ages.shape + (D_MODEL,), dtype=np.float64)
    out[..., 0::2] = np.sin(angles)
    out[..., 1::2] = np.cos(angles)
    return Tensor(out.astype(dtype))
