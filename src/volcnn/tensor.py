"""Dense float tensors and the deterministic PRNG everything else builds on.

Tensors are thin, immutable-by-convention wrappers around contiguous
row-major numpy arrays. Only float32 and float64 are supported: float32 is
the training dtype, float64 exists for finite-difference gradient checks.
Volumes follow the channel-first convention [N, C, D, H, W].
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

F32 = np.dtype(np.float32)
F64 = np.dtype(np.float64)
_SUPPORTED = (F32, F64)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


def _finalize(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer, in place on a uint64 array (wrapping mod
    2^64, which an array does without numpy's scalar overflow warning)."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _mix64(z: int) -> int:
    """`_finalize` of one integer, taken mod 2^64."""
    return int(_finalize(np.array([z & _MASK64], dtype=np.uint64))[0])


def _hash_token(token: int | str) -> int:
    if isinstance(token, str):
        # FNV-1a over UTF-8, then finalized.
        h = 0xCBF29CE484222325
        for b in token.encode("utf-8"):
            h = ((h ^ b) * 0x100000001B3) & _MASK64
        return _mix64(h)
    return _mix64(int(token))


class Rng:
    """Counter-based SplitMix64 generator with named substreams.

    The raw 64-bit stream is a pure function of (seed, stream path, draw
    index) computed with integer arithmetic only, so identical seeds give
    identical sequences on every platform and across runs. Substreams
    created with :meth:`stream` are independent of each other and of the
    parent; drawing from one never perturbs another. Derived floating-point
    draws (uniform, normal) depend additionally on IEEE-754 arithmetic.
    """

    __slots__ = ("_key", "_counter")

    def __init__(self, seed: int):
        self._key = _mix64(int(seed))
        self._counter = 0

    def stream(self, *tokens: int | str) -> "Rng":
        """Derive an independent child generator keyed by the token path."""
        key = self._key
        for t in tokens:
            key = _mix64((key ^ _hash_token(t)) + _GOLDEN)
        child = Rng.__new__(Rng)
        child._key = key
        child._counter = 0
        return child

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit words as a uint64 array."""
        idx = np.arange(self._counter, self._counter + n, dtype=np.uint64)
        self._counter += n
        return _finalize(
            np.uint64(self._key) + (idx + np.uint64(1)) * np.uint64(_GOLDEN))

    def uniform(self, shape: Sequence[int] = (), lo: float = 0.0,
                hi: float = 1.0) -> np.ndarray:
        """Uniform float64 draws in [lo, hi)."""
        n = int(np.prod(shape)) if shape else 1
        u = (self.raw(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        out = lo + (hi - lo) * u
        return out.reshape(shape) if shape else out[0]

    def normal(self, shape: Sequence[int] = ()) -> np.ndarray:
        """Standard normal float64 draws (Box-Muller)."""
        n = int(np.prod(shape)) if shape else 1
        m = (n + 1) // 2
        w = self.raw(2 * m)
        # u1 in (0, 1] so the log is finite; u2 in [0, 1).
        u1 = ((w[:m] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53
        u2 = (w[m:] >> np.uint64(11)).astype(np.float64) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return out.reshape(shape) if shape else out[0]

    def integers(self, bound: int, shape: Sequence[int] = ()) -> np.ndarray | int:
        """Uniform integers in [0, bound). Modulo bias is < bound / 2**64."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        n = int(np.prod(shape)) if shape else 1
        v = (self.raw(n) % np.uint64(bound)).astype(np.int64)
        return v.reshape(shape) if shape else int(v[0])

    def stream_integers(self, token: int | str, start: int, rows: int,
                        bound: int, n: int) -> np.ndarray:
        """A [rows, n] int64 block whose row r equals
        ``self.stream(token, start + r).integers(bound, (n,))``: the first
        draws of `rows` consecutive integer-keyed substreams, made in one
        pass. Leaves this generator's own counter alone."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        key = _mix64((self._key ^ _hash_token(token)) + _GOLDEN)
        sub = _finalize(np.arange(start, start + rows, dtype=np.uint64))
        sub = _finalize((np.uint64(key) ^ sub) + np.uint64(_GOLDEN))
        z = sub[:, None] + (np.arange(1, n + 1, dtype=np.uint64)
                            * np.uint64(_GOLDEN))
        return (_finalize(z) % np.uint64(bound)).astype(np.int64)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n)."""
        return np.argsort(self.raw(n), kind="stable")


class Tensor:
    """Contiguous row-major float array with shape metadata.

    Treat instances as immutable, except where :mod:`volcnn.ops` says an op
    writes over an input (relu, a tape-free norm, their backwards). The raw
    array is exposed as ``.data`` for the kernels; code that mutates it in
    place owns the tensor exclusively (parameter updates, the forward).
    """

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data)
        if arr.dtype not in _SUPPORTED:
            if not np.issubdtype(arr.dtype, np.number):
                raise TypeError(f"unsupported dtype {arr.dtype}; use f32 or f64")
            arr = arr.astype(F32)  # numeric input, e.g. ints, becomes f32
        if any(e < 1 for e in arr.shape):
            raise ShapeError(f"all extents must be >= 1, got shape {arr.shape}")
        self.data = np.ascontiguousarray(arr)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name})"


def kaiming_uniform(shape: Sequence[int], rng: Rng, dtype=F32) -> Tensor:
    """Uniform init in [-bound, bound) with bound sqrt(6 / fan_in). For
    weight layouts [out, in, ...] fan_in is the product of all trailing
    extents (input channels times kernel volume)."""
    bound = float(np.sqrt(6.0 / int(np.prod(shape[1:]))))
    return Tensor(rng.uniform(shape, -bound, bound).astype(dtype))
