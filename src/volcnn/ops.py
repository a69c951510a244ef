"""Differentiable layer kernels: each forward has an exact backward.

Two rules of ownership. Every layer forward except conv, pool and linear
writes over its input's array: relu returns it holding the result, and a
normalization leaves xhat there, which a tape's cache keeps beside a fresh
y, or without a tape y itself. A taped y that is only max pooled is never
whole: conv_norm_pool_forward, every pooling block's forward, forms and
pools it one sample at a time. Block1's conv output is never whole
either: there its conv runs one sample at a time too, and norm_backward
rebuilds each sample's xhat from the conv input and takes its dx straight
through the conv's backward.
relu_backward writes the input gradient over grad_out's array and returns
it; norm_backward only reads grad_out and consumes its cache: it writes dx
over xhat. The state backward reads is kept no wider than backward needs:
relu_backward takes the bool mask x > 0, maxpool3d_argmax gives uint8 tap
keys, norm_backward routes a pooled gradient itself, and neither the
normalizations nor norm_backward hold a full-size scratch buffer, only one
sample's or part of one. The normalizations subtract the mean once and take
the variance from that difference. Convolution uses cross-correlation
semantics (no kernel flip). The 3D convolution is lowered to im2col GEMMs
(Chellapilla et al., 2006), one per first-axis kernel tap and sample, so
each BLAS call contracts over k*k*C. The forward copies each sample once,
from the unpadded input, into a run buffer whose strided views are the
taps' column matrices, which BLAS reads in place, as in the low-memory
GEMM convolutions of Anderson et al. (arXiv 1709.03395): the same
operands as a slab copied per tap, so the same bits. A forward that fills
its run buffer more times than the kernel has taps forms its k weight
slabs once; any other holds one at a time. The backward copies
one column slab per tap, 1/k of a full im2col, from one padded sample at a
time, writes dX's columns into that same slab and adds their boxes into a
gradient whose innermost axis is the longer of the channels and the output
row, so each add runs over long rows. dW is added in its GEMM products'
[o, k, k*k*C] layout. Each is permuted into its returned layout once, at
the end. A 1x1x1 stride-1 convolution of one input channel is a broadcast
multiply instead. Max pooling is split in two ops:
maxpool3d_forward takes the values from three 1-D maximum passes, and
maxpool3d_argmax, which only a forward that records a tape for backward
calls, recovers the key of the first maximal tap by equality. A naive
direct-loop oracle for the convolution lives in the test suite.

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
PRODUCT_BLOCK = 1 << 16  # norm_backward's product buffer, unless 1 channel is more
RUN_BLOCK = 1 << 16  # conv run buffer, unless 1 sample or weight slab is more
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


def _clip(off: int, s: int, o: int, e: int):
    """(output slice, input slice) along one axis: the outputs 0..o-1 whose
    input position off + s*out lies in [0, e), and those inputs. None where
    no output does."""
    lo = max(0, -(off // s))
    hi = min(o, (e - 1 - off) // s + 1)
    if hi <= lo:
        return None
    start = off + s * lo
    return slice(lo, hi), slice(start, start + s * (hi - lo - 1) + 1, s)


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


def _tap_groups(spec: ConvSpec, o: int, e: int):
    """The kernel taps along one axis of extent e, o outputs, grouped into
    runs of consecutive taps whose _clip output slice is the same: (first
    tap, tap count, output slice, input start) each."""
    groups = []
    for t in range(spec.k):
        if sl := _clip(t * spec.d - spec.p, spec.s, o, e):
            last = groups[-1] if groups else None
            if last and last[0] + last[1] == t and last[2] == sl[0]:
                last[1] += 1
            else:
                groups.append([t, 1, sl[0], sl[1].start])
    return groups


def _run_buffer(x: np.ndarray, spec: ConvSpec, outs: tuple[int, ...],
                budget: int):
    """A buffer that holds samples of x, each gathered once for every kernel
    tap of a padded convolution: runs[m, j, l, c, Z, y, x] is the padded
    sample at [c, Z, j*d + y*s, l*d + x*s], over the Zn = (k-1)*d + (oD-1)*s
    + 1 padded planes the taps read, ordered by phase Z mod s and then by
    Z. First-axis tap i reads planes i*d + z*s for z < oD, consecutive ones
    of phase i*d mod s, so its [k*k*C, P] column matrix for sample m is the
    strided view cols[i][m] of runs, which numpy hands to BLAS without a
    copy. Its values, rows in _weight_slab's (j, l, c) order, are those of
    the column slab an im2col lowering copies for that tap. runs holds as
    many samples as fit in `budget` elements, one at least.

    runs comes zero-filled and each (dst, src) of fills copies into its
    interior: np.copyto(dst[:m], src[i:i + m]) gathers samples i to i + m - 1,
    one box per phase and run of second- and third-axis taps with the same
    clipped outputs (_tap_groups), so the border stays zero from sample to
    sample and no padded copy of x is made. src views the buffer of x,
    which is C-contiguous, as a Tensor's data is. Returns (runs, fills,
    cols).

    conv3d_backward keeps one slab per tap instead: run on this buffer, one
    f=8, crop-96, batch-1 training step peaked at 745 MiB, not 559 MiB."""
    n, c, *spatial = x.shape
    k, s, d, p = spec.k, spec.s, spec.d, spec.p
    zn = (k - 1) * d + (outs[0] - 1) * s + 1
    plane = outs[1] * outs[2]
    g = min(n, max(1, budget // (k * k * c * zn * plane)))
    counts = [len(range(r, zn, s)) for r in range(s)]
    first = list(itertools.accumulate(counts, initial=0))  # per phase
    runs = np.zeros((g, k, k, c, zn) + tuple(outs[1:]), x.dtype)
    sn, sc, sd, sh, sw = x.strides
    fills = []
    hw = itertools.product(*(_tap_groups(spec, o, e)
                             for o, e in zip(outs[1:], spatial[1:])))
    for (j0, nj, ry, y0), (l0, nl, rx, x0) in hw:
        for r in range(s):
            if not (zs := _clip(r - p, s, counts[r], spatial[0])):
                continue
            rz = slice(first[r] + zs[0].start, first[r] + zs[0].stop)
            dst = runs[:, j0:j0 + nj, l0:l0 + nl, :, rz, ry, rx]
            src = np.ndarray((n,) + dst.shape[1:], x.dtype, x,
                             zs[1].start * sd + y0 * sh + x0 * sw,
                             (sn, d * sh, d * sw, sc, s * sd, s * sh, s * sw))
            fills.append((dst, src))
    flat = runs.reshape(g, k * k * c, -1)
    cols = []
    for i in range(k):
        z0 = first[i * d % s] + i * d // s
        cols.append(flat[:, :, z0 * plane:(z0 + outs[0]) * plane])
    return runs, fills, cols


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
    # Each sample is gathered once into the run buffer, whose views are the
    # [k*k*C, P] column matrices of the k first-axis taps, so each GEMM
    # contracts over k*k*C. Channels run innermost, so each output sums
    # channels within a tap and taps in row-major order, as the direct loop
    # does. A channel-major order rounds differently enough in float32 to
    # move one 6-epoch crop-32 training run by 1 % in loss. Each sample adds
    # its taps in order onto a zeroed output. The buffer holds as many
    # samples as fit in RUN_BLOCK elements or one weight slab's size: small
    # convs, where forming the slabs and views costs more than the GEMMs,
    # form them once for several samples. Each weight slab serves every
    # sample in the buffer. A call that fills the buffer more times than
    # there are taps forms all k slabs once, up front; any other holds one
    # slab at a time, formed again for each fill.
    runs, fills, cols = _run_buffer(x.data, spec, outs,
                                    max(RUN_BLOCK, o * k * k * c))
    slabs = ([_weight_slab(w, i) for i in range(k)]
             if -(-n // len(runs)) > k else None)
    out = np.zeros((n, o) + outs, dtype=x.dtype)
    accs = out.reshape(n, o, -1)
    prod = np.empty(accs.shape[1:], dtype=x.dtype)
    for n0 in range(0, n, len(runs)):
        group = range(n0, min(n, n0 + len(runs)))
        for dst, src in fills:
            np.copyto(dst[:len(group)], src[n0:group.stop])
        for i in range(k):
            w_slab = slabs[i] if slabs else _weight_slab(w, i)
            for m, ni in enumerate(group):
                accs[ni] += np.matmul(w_slab, cols[i][m], out=prod)
            del w_slab  # freed before the next tap's is formed
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
    k, o, p = spec.k, spec.c_out, spec.p
    # Padding goes one sample at a time: each sample is copied into the
    # interior of one zero-bordered buffer, and dX adds only the taps'
    # positions inside the input, in the order a padded gradient would take
    # them. Unpadded, the windows are x's own.
    xp = interior = x.data
    if p:
        xp = np.zeros((1, c) + tuple(e + 2 * p for e in spatial), x.dtype)
        interior = xp[0, :, p:-p, p:-p, p:-p]
    win = _windows(xp, spec, outs)
    g = grad_out.data
    # dX's tap boxes are added into a scratch gradient whose innermost axis
    # is the longer of the channels and the output row, so each add loops
    # over long rows; a channel-last scratch is permuted to [N, C, D, H, W]
    # once, at the end. dW is added in the [o, k, k*k*C] layout of its GEMM
    # products and permuted once too. Every element still takes the same
    # terms in the same order.
    channel_last = c > outs[-1]
    gx = np.zeros((n,) + tuple(spatial) + (c,) if channel_last else x.shape,
                  x.dtype)
    gw = np.zeros((o, k, k * k * c), w.dtype)
    gb = g.sum(axis=(0, 2, 3, 4))
    cols = np.empty((k, k, c) + outs, dtype=x.dtype)
    cols2 = cols.reshape(k * k * c, -1)
    boxes = cols.transpose(0, 1, 3, 4, 5, 2) if channel_last else cols
    lead = () if channel_last else (slice(None),)
    # Taps outermost: one weight slab at a time, and each sample's dW and dX
    # still take their terms in tap order. dX's columns go into the column
    # slab once dW's GEMM has read it. Per axis and tap, clips holds the
    # (output, input) slices of the tap's positions inside the input.
    clips = [[_clip(t * spec.d - p, spec.s, oe, e) for t in range(k)]
             for oe, e in zip(outs, spatial)]
    for i, cz in enumerate(clips[0]):
        w_slab_t = _weight_slab(w, i).T
        for ni in range(n):
            g_n = g[ni].reshape(o, -1)
            if p:
                np.copyto(interior, x.data[ni])
            np.copyto(cols, win[0 if p else ni, i])
            gw[:, i] += g_n @ cols2.T
            np.matmul(w_slab_t, g_n, out=cols2)
            for (j, cy), (l, cx) in itertools.product(enumerate(clips[1]),
                                                      enumerate(clips[2])):
                if cz and cy and cx:
                    gx[ni][lead + (cz[1], cy[1], cx[1])] += \
                        boxes[(j, l) + lead + (cz[0], cy[0], cx[0])]
    # the slabs and the padded sample go before the permutes copy dX and dW
    del cols, cols2, boxes, win, xp, interior, w_slab_t
    if channel_last:
        gx = np.ascontiguousarray(gx.transpose(0, 4, 1, 2, 3))
    gw = np.ascontiguousarray(
        gw.reshape(o, k, k, k, c).transpose(0, 4, 1, 2, 3))
    return Tensor(gx), Tensor(gw), Tensor(gb)


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
        # the pass's fresh array is its first two taps' maximum; tap 0 stays
        # the first operand, so signed-zero ties and NaNs keep their bytes
        red = (np.maximum(cur[taps[0]], cur[taps[1]]) if k > 1
               else cur[taps[0]].copy())
        for t in taps[2:]:
            np.maximum(red, cur[t], out=red)
        cur = red
    return Tensor(cur)


def maxpool3d_argmax(x: Tensor, pooled: Tensor, k: int, s: int) -> np.ndarray:
    """Per output position of maxpool3d_forward(x, k, s), which gave
    `pooled`, the tap key of the chosen input voxel: the state
    maxpool3d_backward needs, in the smallest unsigned type that holds k^3
    (uint8 up to k = 6). Tap t of a window, in row-major window order, has
    key k^3 - t; ties go to the first tap. A window holding a NaN equals no
    tap and gets key 0, which stands for its first voxel."""
    cur = pooled.data
    taps = k ** 3
    key_type = np.min_scalar_type(taps).type
    key = np.zeros(cur.shape, dtype=key_type)
    eq = np.empty(cur.shape, dtype=bool)
    hit = np.empty(cur.shape, dtype=key_type)
    # per axis, the input slice of each tap index, formed once per call
    sl = [_tap_slices(k, s, 1, cur.shape[2:], (t, t, t)) for t in range(k)]
    # a running maximum of the keys of the equal taps keeps the first one
    for t, (i, j, l) in enumerate(itertools.product(range(k), repeat=3)):
        np.equal(x.data[:, :, sl[i][0], sl[j][1], sl[l][2]], cur, out=eq)
        np.multiply(eq, key_type(taps - t), out=hit)
        np.maximum(key, hit, out=key)
    return key


def maxpool3d_backward(grad_out: Tensor, key: np.ndarray, k: int, s: int,
                       input_shape: tuple[int, ...]) -> Tensor:
    """Route each output gradient of maxpool3d_forward(x, k, s), x of
    `input_shape`, to the voxel its maxpool3d_argmax key names,
    accumulating where pooling windows overlap. A volume of 2^31 voxels or
    more raises ShapeError."""
    n, c, dd, hh, ww = input_shape
    outs = tuple(pool_out_extent(e, k, s) for e in (dd, hh, ww))
    if grad_out.shape != key.shape or key.shape != (n, c) + outs:
        raise ShapeError(f"grad_out shape {grad_out.shape} and keys "
                         f"{key.shape}, expected {(n, c) + outs}")
    vol = dd * hh * ww
    if vol >= 2 ** 31:
        raise ShapeError(f"pool input volume {(dd, hh, ww)} has 2^31 or more "
                         f"voxels, beyond int32 flat indices")
    taps = k ** 3
    if key.max() > taps:
        raise ShapeError(f"tap key {key.max()} out of range for {taps} taps")
    # offset[key] is the key's tap as a flat offset within its window, key
    # 0 (a NaN window's) the first voxel; base the windows' first voxels
    t = np.arange(k, dtype=np.int32)
    offset = np.zeros(taps + 1, dtype=np.int32)
    offset[:0:-1] = ((t[:, None, None] * hh + t[:, None]) * ww + t).reshape(-1)
    z, y, x = (np.arange(o, dtype=np.int32) * s for o in outs)
    base = (z[:, None, None] * hh + y[:, None]) * ww + x
    g = np.zeros(n * c * vol, dtype=grad_out.dtype)
    # one flat index over all (sample, channel) volumes takes np.add.at's
    # fast path for a 1-D index; the adds keep their row-major order
    flat = (base + offset[key]).reshape(n * c, -1) + (
        np.arange(n * c, dtype=np.intp) * vol)[:, None]
    np.add.at(g, flat.reshape(-1), grad_out.data.reshape(-1))
    return Tensor(g.reshape(input_shape))


@dataclass
class NormCache:
    """Saved forward state for norm_backward."""

    axes: tuple[int, ...]       # reduction axes of the normalization
    param_axes: tuple[int, ...]  # axes summed over for gamma/beta grads
    shape: tuple[int, ...]       # of the normalized array
    xhat: np.ndarray | None      # None: norm_backward rebuilds it from the conv
    mean: np.ndarray
    invstd: np.ndarray
    gamma_b: np.ndarray          # gamma broadcast to x's rank
    fixed_stats: bool = False    # eval-mode batch norm: mean/var are constants

    def stats(self, sl: slice) -> tuple[np.ndarray, np.ndarray]:
        """mean and invstd of the samples sl: the batch's own where the
        batch axis is reduced."""
        if 0 in self.axes:
            return self.mean, self.invstd
        return self.mean[sl], self.invstd[sl]


def _sum_products(a: np.ndarray, b: np.ndarray, axes: tuple[int, ...],
                  buf: np.ndarray) -> np.ndarray:
    """a * b summed over `axes`, keeping them as unit axes, in a's dtype:
    bit for bit numpy's one reduction of the whole product, yet the products
    pass one sample at a time through buf, in groups of len(buf) of its
    leading axis: numpy reduces each channel's run on its own either way.
    When axis 0 is reduced the per-sample sums add onto 0 in sample order,
    which is numpy's order too, except where every kept axis has extent 1:
    numpy sums such an array as one flat run, so that product is formed
    whole."""
    kept = [e for ax, e in enumerate(a.shape) if ax not in axes]
    if 0 in axes and all(e == 1 for e in kept):
        return np.add.reduce(np.multiply(a, b), axes, a.dtype, keepdims=True)
    sub = tuple(ax - 1 for ax in axes if ax)
    w = len(buf)

    def sample_sums(ai, bi):
        parts = [np.add.reduce(
            np.multiply(ai[c:c + w], bi[c:c + w], out=buf[:len(ai) - c]),
            sub, a.dtype, keepdims=True) for c in range(0, len(ai), w)]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    sums = (sample_sums(ai, bi) for ai, bi in zip(a, b))
    if 0 in axes:
        return functools.reduce(np.add, sums, a.dtype.type(0))[None]
    return np.stack(list(sums))


def _product_buffer(shape: tuple[int, ...], axes: tuple[int, ...],
                    dtype) -> np.ndarray:
    """_sum_products' buffer for arrays of `shape` reduced over `axes`: a
    group of a sample's channels of at most PRODUCT_BLOCK elements, or one
    channel where that is more, unless the channel axis is reduced (layer
    norm), which takes the whole sample."""
    width = shape[1]
    if 1 not in axes and len(shape) > 2:
        width = max(1, min(width, PRODUCT_BLOCK // int(np.prod(shape[2:]))))
    return np.empty((width,) + tuple(shape[2:]), dtype)


def _standardize(u: np.ndarray, mean: np.ndarray, invstd=None,
                 axes: tuple[int, ...] = ()):
    """xhat = (u - mean) * invstd, written over u's array: a forward's
    normalization and norm_backward's rebuild of xhat take these same two
    steps. Without invstd it comes from the biased variance of u - mean
    over `axes`, reduced and divided as numpy's var does, so bit for bit
    var's, through _product_buffer. Returns (xhat, var, invstd), var
    None where invstd was given."""
    d = np.subtract(u, mean, out=u)
    var = None
    if invstd is None:
        count = np.intp(np.prod([u.shape[a] for a in axes]))
        var = _sum_products(d, d, axes, _product_buffer(u.shape, axes, u.dtype))
        np.true_divide(var, count, out=var, casting="unsafe")
        invstd = 1.0 / np.sqrt(var + EPS)
    d *= invstd
    return d, var, invstd


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
        d, _, invstd = _standardize(x.data, mean, 1.0 / np.sqrt(var + EPS))
    else:
        mean = x.data.mean(axis=axes, keepdims=True, dtype=x.dtype)
        d, var, invstd = _standardize(x.data, mean, axes=axes)
    # The same products in the same order as gamma * ((x - mean) * invstd)
    # + beta; without a tape y overwrites xhat.
    y = np.multiply(gb, d, out=None if tape else d)
    y += bb
    if not tape:
        return Tensor(y), None, mean, var
    param_axes = tuple(a for a in range(rank) if a != channel_axis)
    cache = NormCache(axes, param_axes, d.shape, d, mean, invstd, gb,
                      stats is not None)
    return Tensor(y), cache, mean, var


def _batch_stats(sample, shape: tuple[int, ...],
                 axes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The mean and biased variance over `axes`, the batch axis among them,
    of the batch of `shape`, two or more channels, whose sample i is the
    fresh array sample(i): the mean, then the variance of the difference
    from it, each a pass of per-sample sums added onto 0 in sample order.
    That is numpy's order for one reduction of the whole batch (see
    _sum_products), so the figures are bit for bit _normalize's."""
    n = shape[0]
    count = np.intp(np.prod([shape[a] for a in axes]))
    mean = sum(np.add.reduce(sample(i), axes, keepdims=True) for i in range(n))
    np.true_divide(mean, count, out=mean, casting="unsafe")

    def diff(i):  # sample i less the mean, in its own array
        u = sample(i)
        return np.subtract(u, mean, out=u)

    buf = _product_buffer(shape, axes, mean.dtype)
    var = sum(_sum_products(d, d, axes, buf) for d in map(diff, range(n)))
    np.true_divide(var, count, out=var, casting="unsafe")
    return mean, var


def conv_norm_pool_forward(x: Tensor, conv, gamma: Tensor, beta: Tensor,
                           pool: tuple[int, int] | None, tape: bool,
                           running=None, mode: str = "train"
                           ) -> tuple[Tensor, np.ndarray | None,
                                      NormCache | None,
                                      tuple[Tensor, Tensor] | None]:
    """Every block's forward: maxpool3d_forward (pool = (k, s); None for an
    extra block, which does not pool) of a normalization of
    conv3d_forward(x, *conv), conv = (w, b, spec) with two or more output
    channels, and with a tape its maxpool3d_argmax tap keys, bit for bit the
    whole-batch composition's. The norm is instance norm where running is
    None, else batch norm in `mode` with running = (running_mean,
    running_var), whose statistics are fixed first: the running ones in
    eval mode, the batch's from _batch_stats in train mode.

    The samples pass in chunks, each normalized, pooled and, with a tape,
    its argmax taken. A one-channel x (block1, the network's largest conv
    output) recomputes its conv a sample at a time, so that output never
    exists whole, and the cache keeps no xhat: norm_backward rebuilds it
    from x. Any other x runs its conv once, and that array holds xhat: a
    chunk is one sample with a tape, each with a fresh y, and the whole
    batch without one. Returns (pooled, taps, cache, running): the keys
    None without a tape or a pool, the cache None without a tape, running
    as batch_norm_forward returns it (None for instance norm)."""
    w, b, spec = conv
    n = x.shape[0]
    shape = (n, spec.c_out) + tuple(
        conv_out_extent(e, spec.k, spec.p, spec.s, spec.d) for e in x.shape[2:])
    axes = (2, 3, 4) if running is None else (0, 2, 3, 4)
    if x.shape[1] == 1:
        u, step = None, 1

        def sample(i):  # sample i's conv output, in a fresh array
            return conv3d_forward(Tensor(x.data[i:i + 1]), w, b, spec).data
    else:
        u, step = conv3d_forward(x, w, b, spec).data, 1 if tape else n

        def sample(i):  # a copy: _batch_stats writes over it
            return u[i:i + 1].copy()
    fixed = stats = None
    if running is not None:
        fixed = stats = _fixed_stats(*running, mode, n)
        if fixed is None:
            stats = _batch_stats(sample, shape, axes)
    means, invstds = [], []
    for i in range(0, n, step):
        sl = slice(i, i + step)
        chunk = Tensor(sample(i) if u is None else u[sl])
        # instance norm through its public op, whose span a traced
        # perfbench run times
        y, cache = (instance_norm_forward(chunk, gamma, beta, tape)
                    if running is None else
                    _normalize(chunk, gamma, beta, axes, 1, tape, stats)[:2])
        p = y if pool is None else maxpool3d_forward(y, *pool)
        key = maxpool3d_argmax(y, p, *pool) if tape and pool else None
        if i == 0:
            pooled = np.empty((n,) + p.shape[1:], p.dtype)
            taps = None if key is None else np.empty(pooled.shape, key.dtype)
        pooled[sl] = p.data
        if key is not None:
            taps[sl] = key
        if tape:
            means.append(cache.mean)
            invstds.append(cache.invstd)
        del y, cache, chunk, key  # freed before the next chunk's are made
    if running is not None:
        running = _blend_running(*running, fixed, *stats,
                                 int(np.prod(shape)) // shape[1])
    cache = None
    if tape:  # batch norm's statistics are the same for every chunk
        mean, invstd = ((a[0] if 0 in axes else np.concatenate(a))
                        for a in (means, invstds))
        cache = NormCache(axes, (0, 2, 3, 4), shape, u, mean, invstd,
                          gamma.data.reshape(1, -1, 1, 1, 1),
                          fixed is not None)
    return Tensor(pooled), taps, cache, running


def instance_norm_forward(x: Tensor, gamma: Tensor, beta: Tensor,
                          tape: bool = True
                          ) -> tuple[Tensor, NormCache | None]:
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
    stats = _fixed_stats(running_mean, running_var, mode, x.shape[0])
    y, cache, mean, var = _normalize(x, gamma, beta, (0, 2, 3, 4), 1, tape,
                                     stats)
    return (y, cache) + _blend_running(running_mean, running_var, stats,
                                       mean, var, x.data.size // x.shape[1])


def _fixed_stats(running_mean: Tensor, running_var: Tensor, mode: str,
                 n: int):
    """Batch norm's constant statistics in `mode`: the running ones in eval
    mode, None in train mode, which needs a batch of two or more."""
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be train or eval, got {mode!r}")
    if mode == "eval":
        return running_mean.data, running_var.data
    if n < 2:
        raise ValueError("batch norm in train mode needs a batch of >= 2")
    return None


def _blend_running(running_mean: Tensor, running_var: Tensor, stats,
                   mean: np.ndarray, var: np.ndarray,
                   m: int) -> tuple[Tensor, Tensor]:
    """The running stats after a batch norm of m values per channel: the
    same ones where its statistics were the fixed `stats`."""
    if stats is not None:
        return running_mean, running_var
    c, mom = running_mean.shape[0], BN_MOMENTUM
    new_mean = (1 - mom) * running_mean.data + mom * mean.reshape(c)
    new_var = (1 - mom) * running_var.data + mom * var.reshape(c) * m / (m - 1)
    return (Tensor(new_mean.astype(mean.dtype)),
            Tensor(new_var.astype(mean.dtype)))


def layer_norm_forward(x: Tensor, gamma: Tensor, beta: Tensor,
                       tape: bool = True) -> tuple[Tensor, NormCache | None]:
    """Normalize over the trailing feature axis of each row. With
    tape=False the cache is None and y is written over x's array."""
    last = x.data.ndim - 1
    return _normalize(x, gamma, beta, (last,), last, tape)[:2]


def norm_backward(grad_out: Tensor, cache: NormCache, pool=None,
                  conv=None) -> tuple[Tensor, ...]:
    """Gradients through any normalization forward, including the dependence
    of mean and variance on the input (except eval-mode batch norm, whose
    statistics are constants). Returns (dx, dgamma, dbeta).

    The samples pass one at a time. With pool = (taps, k, s), grad_out is
    the gradient at the k, s max pool of the norm's output, whose
    maxpool3d_argmax keys are taps, and maxpool3d_backward routes each
    sample's. With conv = (x, w, b, spec) the norm's input is that conv's
    output and the cache holds no xhat: each sample's is rebuilt from x
    through conv3d_forward and _standardize, and its dx, written over it,
    goes straight into conv3d_backward, so no dx of the whole batch exists.
    Then the returns are (dx at x, dgamma, dbeta, dw, db), dw and db the
    per-sample ones added onto 0 in sample order, bit for bit the whole
    batch's. grad_out is only read. The cache is consumed: dx is written
    over its xhat."""
    shape = cache.shape
    if pool is None and grad_out.shape != shape:
        raise ShapeError(f"grad_out shape {grad_out.shape} does not match "
                         f"saved forward state for input {shape}")
    n, dtype = shape[0], grad_out.dtype
    # Sums over the batch add the per-sample sums onto 0 in sample order,
    # which is numpy's order for one reduction of the whole batch, except
    # where every axis the sum keeps has extent 1: numpy sums that as one
    # flat run, so there the batch passes whole (see _sum_products).
    kept = [e for ax, e in enumerate(shape) if ax not in cache.param_axes]
    step = n if all(e == 1 for e in kept) else 1
    chunks = [slice(i, i + step) for i in range(0, n, step)]
    count = np.intp(np.prod([shape[a] for a in cache.axes]))

    def grad(sl):  # the samples' output gradient, in a fresh array
        if pool is None:
            return grad_out.data[sl].copy()
        taps, k, s = pool
        return maxpool3d_backward(Tensor(grad_out.data[sl]), taps[sl], k, s,
                                  (step,) + shape[1:]).data

    zero = dtype.type(0)
    if conv is not None:
        x, w, b, spec = conv
        gx, gw, gb = [], zero, zero

    def xhat(sl):
        if conv is None:
            return cache.xhat[sl]
        u = conv3d_forward(Tensor(x.data[sl]), w, b, spec).data
        return _standardize(u, *cache.stats(sl))[0]

    buf = _product_buffer(shape, cache.axes, dtype)
    pa = cache.param_axes

    # Each product in the order of dx = invstd * (dxhat - m1 - xhat * m2),
    # so the result is bit for bit that expression's. Besides a kept xhat,
    # one sample's gradient (and a rebuilt xhat) is all that exists.
    dgamma = dbeta = zero
    batch_stats = 0 in cache.axes and not cache.fixed_stats
    if batch_stats:  # m1 and m2 span the batch: a first pass sums them
        m1 = m2 = zero
        for sl in chunks:
            g, xh = grad(sl), xhat(sl)
            dgamma = dgamma + _sum_products(g, xh, pa, buf)
            dbeta = dbeta + g.sum(pa, keepdims=True)
            dxhat = np.multiply(g, cache.gamma_b, out=g)
            m1 = m1 + dxhat.sum(cache.axes, keepdims=True)
            m2 = m2 + _sum_products(dxhat, xh, cache.axes, buf)
            del g, dxhat, xh  # freed before the next sample's are made
        for m in (m1, m2):  # numpy's mean
            np.true_divide(m, count, out=m, casting="unsafe")
    for sl in chunks:
        g, xh = grad(sl), xhat(sl)
        if not batch_stats:
            dgamma = dgamma + _sum_products(g, xh, pa, buf)
            dbeta = dbeta + g.sum(pa, keepdims=True)
        dxhat = np.multiply(g, cache.gamma_b, out=g)
        if not (cache.fixed_stats or batch_stats):
            m1 = dxhat.mean(axis=cache.axes, keepdims=True, dtype=dtype)
            m2 = _sum_products(dxhat, xh, cache.axes, buf)
            np.true_divide(m2, count, out=m2, casting="unsafe")
        if not cache.fixed_stats:
            dxhat -= m1
            dxhat = np.subtract(dxhat, np.multiply(xh, m2, out=xh), out=xh)
        dx = np.multiply(dxhat, cache.stats(sl)[1], out=xh)
        del g, dxhat, xh  # freed before a conv backward runs beside dx
        if conv is not None:
            gxs, gws, gbs = conv3d_backward(Tensor(dx), Tensor(x.data[sl]),
                                            w, spec)
            gx.append(gxs.data)
            gw, gb = gw + gws.data, gb + gbs.data
        del dx
    grads = (Tensor(dgamma.reshape(-1)), Tensor(dbeta.reshape(-1)))
    if conv is None:
        return (Tensor(cache.xhat),) + grads
    gx = gx[0] if len(gx) == 1 else np.concatenate(gx)
    return (Tensor(gx),) + grads + (Tensor(gw), Tensor(gb))


def conv_norm_pool_backward(grad_out: Tensor, x: Tensor, conv,
                            cache: NormCache, pool: tuple[int, int] | None,
                            taps: np.ndarray | None) -> tuple[Tensor, ...]:
    """The backward of conv_norm_pool_forward, given its cache and tap keys.
    grad_out is only read; the cache is consumed. Returns (dx, dgamma,
    dbeta, dw, db). Block1's rebuilt xhat takes each sample's dx through
    the conv in norm_backward; a kept xhat becomes the whole dx, which one
    conv3d_backward takes back."""
    w, b, spec = conv
    routing = None if pool is None else (taps, *pool)
    if cache.xhat is None:
        return norm_backward(grad_out, cache, routing, (x, w, b, spec))
    dx, dgamma, dbeta = norm_backward(grad_out, cache, routing)
    gx, gw, gb = conv3d_backward(dx, x, w, spec)
    return gx, dgamma, dbeta, gw, gb


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
