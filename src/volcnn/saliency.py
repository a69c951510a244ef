"""Gradient saliency maps.

Per-sample maps are the elementwise magnitude of the gradient of the
pre-softmax target-class score with respect to the input volume. Maps can
be aggregated over a sample set (voxelwise mean after max-normalizing each
map to [0, 1]) and exported as 8-bit grayscale slices plus the full 3D map
in the native volume format. Maps are float32 arrays.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import model as network
from .data import NUM_CLASSES, atomic_write, write_native
from .tensor import ShapeError, Tensor

AXES = {"sagittal": 0, "coronal": 1, "axial": 2}


def saliency(net, volume, target: int, age=None) -> np.ndarray:
    """|d logit[target] / d input| for one volume, as a float32 array of
    its extents.

    The score is the pre-softmax logit: the post-softmax gradient carries a
    probability factor that vanishes at saturation and would flatten the
    map exactly where the model is most confident.
    """
    if not 0 <= int(target) < NUM_CLASSES:
        raise ValueError(f"target class {target} outside [0, {NUM_CLASSES})")
    vol = np.asarray(volume)
    e = net.config.crop_extent
    if vol.shape != (e, e, e):
        raise ShapeError(f"volume shape {vol.shape}, expected ({e}, {e}, {e})")
    x = Tensor(vol[None, None].astype(net.dtype))
    ages = None if age is None else [float(age)]
    logits, tape = network.forward(net, x, ages=ages, mode="eval")
    grad = np.zeros(logits.shape, dtype=net.dtype)
    grad[0, int(target)] = 1.0
    _, gx = network.backward(net, tape, Tensor(grad))
    return np.abs(gx.data[0, 0]).astype(np.float32)


def aggregate(maps) -> np.ndarray:
    """Voxelwise float32 mean of the maps, each max-normalized to [0, 1]
    first. An all-zero map contributes zeros (nothing to normalize)."""
    maps = list(maps)
    if not maps:
        raise ValueError("no maps to aggregate")
    shape = maps[0].shape
    acc = np.zeros(shape, dtype=np.float64)
    for m in maps:
        if m.shape != shape:
            raise ShapeError(f"map extents {m.shape} do not match {shape}")
        v = m.astype(np.float64)
        peak = v.max()
        if peak > 0.0:
            v = v / peak
        acc += v
    return (acc / len(maps)).astype(np.float32)


def slice_to_pgm(sl: np.ndarray) -> bytes:
    """Binary PGM (P5), min-max scaled per slice. A constant slice scales
    to 0 (black) rather than dividing by zero."""
    lo = float(sl.min())
    hi = float(sl.max())
    if hi > lo:
        scaled = (sl.astype(np.float64) - lo) / (hi - lo)
    else:
        scaled = np.zeros(sl.shape, dtype=np.float64)
    pix = np.floor(scaled * 255.0 + 0.5).astype(np.uint8)
    h, w = pix.shape
    return b"P5\n%d %d\n255\n" % (w, h) + pix.tobytes()


def check_views(views, shape) -> None:
    """ValueError unless every (axis, index) view names a known axis and an
    index inside `shape` along it."""
    for axis, index in views:
        if axis not in AXES:
            raise ValueError(
                f"unknown axis {axis!r}; expected one of {sorted(AXES)}")
        extent = shape[AXES[axis]]
        if not 0 <= int(index) < extent:
            raise ValueError(
                f"{axis} index {index} out of range [0, {extent})")


def export_slices(vol: np.ndarray, views, prefix,
                  with_volume: bool = True) -> list[Path]:
    """Write one `{prefix}_{axis}{index}.pgm` per view and, unless
    disabled, the full map as `{prefix}_map.vol`. Returns the paths."""
    check_views(views, vol.shape)
    first = Path(f"{prefix}_map.vol")
    first.parent.mkdir(parents=True, exist_ok=True)
    paths = []
    for axis, index in views:
        index = int(index)
        path = Path(f"{prefix}_{axis}{index}.pgm")
        with atomic_write(path, "wb") as fh:
            fh.write(slice_to_pgm(np.take(vol, index, axis=AXES[axis])))
        paths.append(path)
    if with_volume:
        write_native(first, vol)
        paths.append(first)
    return paths
