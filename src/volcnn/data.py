"""Volume ingestion, manifests, augmentation, synthetic data, and the
atomic file write used for checkpoints and evaluation artifacts.

Volumes travel as rank-3 float32 numpy arrays in file voxel order
(sagittal, coronal, axial for registered scans), except that a native
volume loaded from a manifest stays on disk as a NativeVolume, which reads
only the planes an index spans. model_input turns a list of samples into
the network's float32 batch, for training, evaluation and saliency alike.
"""

from __future__ import annotations

import csv
import math
import os
import re
import struct
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .config import MAX_AGE, SPLITS, SYNTH_NOISE
from .ops import round_age
from .tensor import Rng

LABEL_NAMES = ("CN", "MCI", "AD")
NUM_CLASSES = len(LABEL_NAMES)
LABELS = {name: i for i, name in enumerate(LABEL_NAMES)}

MANIFEST_HEADER = ["subject_id", "path", "label", "age", "split"]
# A subject id names files (saliency/<id>_<view>.pgm) and fills one
# logits.csv field, so it is one plain path component: [A-Za-z0-9_.-]+,
# not starting with a dot.
SUBJECT_ID = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9_.-]*")


@contextmanager
def atomic_write(path, mode: str = "w", newline: str | None = None):
    """Open a temporary file next to `path` and, when the block ends
    without an exception, move it over `path` with os.replace. A crash or
    an exception mid-write leaves the previous file (or none) in place and
    removes the temporary file; readers never see a partial artifact."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class VolumeFormatError(ValueError):
    """A volume file violates its format contract; the message names the
    fault."""


class ManifestError(ValueError):
    pass


class LeakageError(ManifestError):
    def __init__(self, subjects):
        self.subjects = list(subjects)
        super().__init__(
            f"subjects appear in more than one split: {self.subjects}")


# single-file (.nii) or header+image (.hdr/.img) NIfTI-1, uncompressed,
# rank 3, int16 or float32 voxels; orientation fields ignored (inputs are
# assumed pre-registered)
_NIFTI_DTYPES = {4: ("i2", 2), 16: ("f4", 4)}


def read_nifti1(path) -> np.ndarray:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 348:
        raise VolumeFormatError(f"{path}: header shorter than 348 bytes")
    magic = raw[344:348]
    if magic not in (b"n+1\x00", b"ni1\x00"):
        raise VolumeFormatError(f"{path}: bad magic {magic!r}")
    # byte order: dim[0] is the rank and must land in [1, 7]
    (rank_le,) = struct.unpack_from("<h", raw, 40)
    if 1 <= rank_le <= 7:
        endian = "<"
        rank = rank_le
    else:
        (rank_be,) = struct.unpack_from(">h", raw, 40)
        if not 1 <= rank_be <= 7:
            raise VolumeFormatError(
                f"{path}: cannot determine byte order, dim[0] = {rank_le}")
        endian = ">"
        rank = rank_be
    if rank != 3:
        raise VolumeFormatError(
            f"{path}: rank {rank}, only rank-3 volumes supported")
    d1, d2, d3 = struct.unpack_from(f"{endian}3h", raw, 42)
    if min(d1, d2, d3) < 1:
        raise VolumeFormatError(f"{path}: dims {(d1, d2, d3)} must be >= 1")
    (datatype,) = struct.unpack_from(f"{endian}h", raw, 70)
    if datatype not in _NIFTI_DTYPES:
        raise VolumeFormatError(f"{path}: unsupported datatype {datatype}")
    code, itemsize = _NIFTI_DTYPES[datatype]
    (vox_offset,) = struct.unpack_from(f"{endian}f", raw, 108)
    slope, inter = struct.unpack_from(f"{endian}2f", raw, 112)

    # the image starts at byte vox_offset: of a .nii, past its 352 header
    # bytes, or of a .hdr's sibling .img
    least = 352 if magic == b"n+1\x00" else 0
    if not (math.isfinite(vox_offset) and vox_offset >= least):
        raise VolumeFormatError(
            f"{path}: vox_offset {vox_offset} must be finite and >= {least}")
    offset = int(vox_offset)
    payload = raw
    if not least:
        img = path.with_suffix(".img")
        if not img.exists():
            raise VolumeFormatError(f"{path}: image sibling {img} missing")
        payload = img.read_bytes()
    count = d1 * d2 * d3
    need = offset + count * itemsize
    if len(payload) < need:
        raise VolumeFormatError(
            f"{path}: payload holds {len(payload) - offset} bytes, "
            f"needs {count * itemsize}")
    vox = np.frombuffer(payload, dtype=endian + code, count=count,
                        offset=offset)
    vol = vox.reshape((d3, d2, d1)).transpose(2, 1, 0)  # file voxel order
    vol = np.ascontiguousarray(vol, dtype=np.float32)
    if slope != 0.0:
        vol = vol * np.float32(slope) + np.float32(inter)
    return vol


NATIVE_MAGIC = b"VCNNVOL\x00"
NATIVE_VERSION = 1


def write_native(path, volume: np.ndarray) -> None:
    vol = np.ascontiguousarray(volume, dtype="<f4")
    if vol.ndim != 3:
        raise VolumeFormatError(f"native volumes are rank 3, not {vol.ndim}")
    with atomic_write(path, "wb") as fh:
        fh.write(NATIVE_MAGIC)
        fh.write(struct.pack("<I", NATIVE_VERSION))
        fh.write(struct.pack("<3Q", *vol.shape))
        fh.write(vol.tobytes())


def _native_extents(fh, path, size: int) -> tuple[int, int, int]:
    """The extents in the header of the open native file `fh`, checked
    against its magic, version and exact byte size `size`."""
    head = fh.read(36)
    if len(head) < 36:
        raise VolumeFormatError(f"{path}: shorter than the fixed header")
    if head[:8] != NATIVE_MAGIC:
        raise VolumeFormatError(f"{path}: bad magic {head[:8]!r}")
    (version,) = struct.unpack_from("<I", head, 8)
    if version != NATIVE_VERSION:
        raise VolumeFormatError(f"{path}: unsupported version {version}")
    shape = struct.unpack_from("<3Q", head, 12)
    count = math.prod(shape)
    if size != 36 + 4 * count:
        raise VolumeFormatError(
            f"{path}: payload is {size - 36} bytes, extents "
            f"{tuple(shape)} require {4 * count}")
    return shape


def _read_planes(fh, path, shape, z0: int, z1: int) -> np.ndarray:
    """Planes z0..z1 of the first axis, the file's contiguous blocks, read
    with one seek straight into the array returned."""
    vol = np.empty((z1 - z0,) + tuple(shape[1:]), dtype="<f4")
    fh.seek(36 + 4 * z0 * shape[1] * shape[2])
    if fh.readinto(vol.reshape(-1).view(np.uint8)) != vol.nbytes:
        raise VolumeFormatError(f"{path}: payload shrank while reading")
    return vol


def _identity(st: os.stat_result) -> tuple[int, int, int]:
    return st.st_ino, st.st_size, st.st_mtime_ns


class NativeVolume:
    """A native volume file that stays on disk, read on demand.

    `shape` comes from the header. `vol[z0:z1, ...]` reads planes z0..z1
    of the first axis with one seek and one read and applies the rest of
    the index to them; `np.asarray(vol)` reads the whole volume. No file is
    mapped, so a file that shrinks raises an error rather than a signal.
    Every read first checks that the file is still the one opened here:
    the same inode, size and modification time, and the same header. A
    file truncated, rewritten or renamed over since then raises
    VolumeFormatError naming its path."""

    def __init__(self, path):
        self.path = Path(path)
        with open(self.path, "rb") as fh:
            st = os.fstat(fh.fileno())
            self.shape = _native_extents(fh, self.path, st.st_size)
        self._identity = _identity(st)

    def _read(self, z0: int, z1: int) -> np.ndarray:
        with open(self.path, "rb") as fh:
            st = os.fstat(fh.fileno())
            if (_identity(st) != self._identity or _native_extents(
                    fh, self.path, st.st_size) != self.shape):
                raise VolumeFormatError(
                    f"{self.path}: changed since it was loaded")
            return _read_planes(fh, self.path, self.shape, z0, z1)

    def __getitem__(self, key):
        key = key if isinstance(key, tuple) else (key,)
        rows = range(self.shape[0])[key[0]]  # an int or a slice
        if isinstance(rows, int):
            return self._read(rows, rows + 1)[(0,) + key[1:]]
        if not rows:
            return self._read(0, 0)[key]
        lo, hi = min(rows), max(rows) + 1
        return self._read(lo, hi)[(slice(None, None, rows.step),) + key[1:]]

    def __array__(self, dtype=None, copy=None):
        vol = self._read(0, self.shape[0])
        return vol if dtype is None else vol.astype(dtype, copy=False)

    @property
    def data(self) -> memoryview:
        """The voxels' bytes, as ndarray.data gives them: reads the file."""
        return np.asarray(self).data


def load_volume(path):
    """Dispatch on extension: .nii/.hdr are NIfTI-1, read into an array;
    anything else is native and stays on disk as a NativeVolume."""
    suffix = Path(path).suffix.lower()
    if suffix in (".nii", ".hdr"):
        return read_nifti1(path)
    return NativeVolume(path)


@dataclass(frozen=True)
class ManifestRow:
    subject_id: str
    path: str
    label: int
    age: float
    split: str


@dataclass
class Manifest:
    rows: list[ManifestRow]
    base_dir: Path

    def resolve(self, row: ManifestRow) -> Path:
        p = Path(row.path)
        return p if p.is_absolute() else self.base_dir / p

    def subjects(self, split: str):
        seen = {}
        for r in self.rows:
            if r.split == split:
                seen.setdefault(r.subject_id, r.label)
        return seen


def check_leakage(manifest: Manifest) -> list[str]:
    """Subjects that appear in more than one split, sorted."""
    splits_of: dict[str, set] = {}
    for r in manifest.rows:
        splits_of.setdefault(r.subject_id, set()).add(r.split)
    return sorted(s for s, sp in splits_of.items() if len(sp) > 1)


def load_manifest(path, allow_leakage: bool = False) -> Manifest:
    path = Path(path)
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != MANIFEST_HEADER:
            raise ManifestError(
                f"{path}: header {header}, expected {MANIFEST_HEADER}")
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != 5:
                raise ManifestError(f"{path}:{lineno}: expected 5 fields")
            subject, vol_path, label_text, age_text, split = rec
            if not subject or not vol_path:
                raise ManifestError(f"{path}:{lineno}: empty subject or path")
            if not SUBJECT_ID.fullmatch(subject):
                raise ManifestError(
                    f"{path}:{lineno}: subject id {subject!r} is not "
                    f"[A-Za-z0-9_.-]+ without a leading dot")
            if label_text not in LABELS:
                raise ManifestError(
                    f"{path}:{lineno}: label {label_text!r} not in "
                    f"{LABEL_NAMES}")
            try:
                age = float(age_text)
            except ValueError:
                raise ManifestError(
                    f"{path}:{lineno}: age {age_text!r} is not a number")
            if not 0.0 <= age <= MAX_AGE:
                raise ManifestError(
                    f"{path}:{lineno}: age {age} outside [0, {MAX_AGE:g}]")
            if split not in SPLITS:
                raise ManifestError(
                    f"{path}:{lineno}: split {split!r} not in {SPLITS}")
            rows.append(ManifestRow(subject, vol_path, LABELS[label_text],
                                    age, split))
    manifest = Manifest(rows, path.parent)
    leaks = check_leakage(manifest)
    if leaks:
        for s in leaks:
            print(f"leakage: subject {s} appears in multiple splits",
                  file=sys.stderr)
        if not allow_leakage:
            raise LeakageError(leaks)
    return manifest


def check_blur(sigma: float, shape) -> int:
    """The radius ceil(3*sigma) of gaussian_blur's kernel on a volume of
    extents `shape`. ValueError unless sigma is finite and >= 0 and the
    radius is at most the largest extent: the padded copies grow with it."""
    if not 0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    radius = math.ceil(3 * sigma)
    if radius > max(shape):
        raise ValueError(
            f"blur radius {radius} (sigma {sigma}) exceeds the largest "
            f"volume extent {max(shape)}")
    return radius


def _real_dtype(dtype) -> np.dtype:
    """Float voxels keep their dtype; integer voxels become float32."""
    return dtype if np.issubdtype(dtype, np.floating) else np.dtype(np.float32)


def gaussian_blur(volume: np.ndarray, sigma: float) -> np.ndarray:
    """Separable 3D Gaussian. Kernel truncated at radius ceil(3*sigma) and
    renormalized to sum 1; edges mirror the volume so constants stay
    constant. sigma = 0 returns a bit-identical copy. The sigma and radius
    bounds are check_blur's. Integer voxels give float32."""
    radius = check_blur(sigma, volume.shape)
    two_var = 2.0 * sigma * sigma
    # the kernel is numerically a delta; a zero or subnormal two_var would
    # overflow the division below
    if radius == 0 or two_var < sys.float_info.min:
        return volume.astype(_real_dtype(volume.dtype))
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(t * t) / two_var)
    kernel /= kernel.sum()
    out = volume.astype(np.float64)
    for axis in range(3):
        pad = [(0, 0)] * 3
        pad[axis] = (radius, radius)
        padded = np.pad(out, pad, mode="symmetric")
        acc = np.zeros_like(out)
        for i, w in enumerate(kernel):
            sl = [slice(None)] * 3
            sl[axis] = slice(i, i + volume.shape[axis])
            acc += w * padded[tuple(sl)]
        out = acc
    return out.astype(_real_dtype(volume.dtype))


def _crop_corner(shape, extent: int, rng: Rng | None = None) -> tuple:
    """The corner of an extent^3 crop of a volume of extents `shape`:
    uniform over valid positions, one draw from `rng` per axis in order,
    or centered when `rng` is None."""
    if any(extent > e for e in shape):
        raise ValueError(f"crop extent {extent} exceeds volume extents {shape}")
    if rng is None:
        return tuple((e - extent) // 2 for e in shape)
    return tuple(rng.integers(e - extent + 1) for e in shape)


def _cut(volume: np.ndarray, corner, extent: int) -> np.ndarray:
    return volume[tuple(slice(c, c + extent) for c in corner)]


def random_crop(volume: np.ndarray, extent: int, rng: Rng) -> np.ndarray:
    """Uniform corner over valid positions, one draw per axis in order."""
    return np.ascontiguousarray(
        _cut(volume, _crop_corner(volume.shape, extent, rng), extent))


def center_crop(volume: np.ndarray, extent: int) -> np.ndarray:
    return np.ascontiguousarray(
        _cut(volume, _crop_corner(volume.shape, extent), extent))


def zscore_stats(volume: np.ndarray) -> tuple[np.float64, np.float64]:
    """The volume's float64 (mean, std); ValueError if it is constant."""
    volume = np.asarray(volume)
    std = volume.std(dtype=np.float64)
    if std == 0.0:
        raise ValueError("constant volume cannot be normalized")
    return volume.mean(dtype=np.float64), std


def intensity_normalize(volume: np.ndarray, stats=None) -> np.ndarray:
    """Per-volume z-score. `stats` is the (mean, std) to apply, from
    zscore_stats of the whole volume when `volume` is a window of it;
    without it, the volume's own. Integer voxels give float32."""
    mean, std = zscore_stats(volume) if stats is None else stats
    return ((volume - mean) / std).astype(_real_dtype(volume.dtype))


def subsample(manifest: Manifest, rate: float, rng: Rng) -> Manifest:
    """Keep a stratified fraction of TRAIN subjects; scans follow their
    subject, val/test stay untouched. Counts round half up per class."""
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    by_class: dict[int, list[str]] = {}
    for subject, label in sorted(manifest.subjects("train").items()):
        by_class.setdefault(label, []).append(subject)
    kept: set[str] = set()
    for label, subjects in sorted(by_class.items()):
        k = int(math.floor(rate * len(subjects) + 0.5))
        if k == 0:
            raise ValueError(
                f"rate {rate} keeps no {LABEL_NAMES[label]} train subjects")
        order = rng.stream("subsample", label).permutation(len(subjects))
        kept.update(subjects[i] for i in order[:k])
    rows = [r for r in manifest.rows
            if r.split != "train" or r.subject_id in kept]
    return Manifest(rows, manifest.base_dir)


@dataclass
class Sample:
    volume: np.ndarray | NativeVolume  # rank-3 float32 [D, H, W]
    subject_id: str
    label: int
    age: float
    split: str

    @cached_property
    def zscore(self) -> tuple[np.float64, np.float64]:
        """The whole volume's zscore_stats, computed on first use and then
        kept, so the volume must not change afterwards. A constant volume
        raises VolumeFormatError naming the subject."""
        return self._zscore_of(self.volume)

    def _zscore_of(self, voxels) -> tuple[np.float64, np.float64]:
        """zscore_stats of `voxels`, which hold the whole volume."""
        try:
            return zscore_stats(voxels)
        except ValueError as exc:
            raise VolumeFormatError(
                f"subject {self.subject_id}: {exc}") from None


# perfbench/workloads.py builds its scan-shaped inputs under this name
SyntheticSample = Sample


def load_sample(manifest: Manifest, row: ManifestRow) -> Sample:
    """The row's sample. Its voxels are read once here to be checked; a
    native volume then stays on disk (see NativeVolume)."""
    vol = load_volume(manifest.resolve(row))
    if not np.isfinite(vol).all():
        raise VolumeFormatError(f"{row.path}: non-finite voxels")
    return Sample(vol, row.subject_id, row.label, row.age, row.split)


def model_input(samples, extent: int, normalize: bool, augs=None,
                blur_hi: float = 0.0) -> np.ndarray:
    """The float32 network input [N, 1, e, e, e]. Given one augmentation
    stream per sample (training), sigma ~ U[0, blur_hi) and then the crop
    corner are drawn from that stream in that order; otherwise
    (evaluation) the corner is centered and nothing is blurred. Each
    sample then takes the window of the crop plus the blur radius
    r = ceil(3 sigma) on every side, clipped to the volume, z-scores it
    with the whole volume's cached mean and std (if `normalize`), blurs it
    and cuts the crop out of it. A window that spans the whole volume
    gives those statistics on first use, so the volume is not read twice.

    This equals blurring the whole z-scored volume and cropping it, bit
    for bit: the z-score is elementwise, each 1-D blur pass reads at most
    r voxels past the crop along its own axis, a window edge clipped at
    the volume's edge mirrors as the volume's does, and the false mirror
    at an interior window edge reaches only voxels outside the crop."""
    vols = []
    for s, aug in zip(samples, augs or [None] * len(samples)):
        shape = s.volume.shape
        if aug is None:
            radius = 0
            corner = _crop_corner(shape, extent)
        else:
            sigma = float(aug.uniform(lo=0.0, hi=blur_hi))
            radius = check_blur(sigma, shape)
            corner = _crop_corner(shape, extent, aug)
        lo = [max(c - radius, 0) for c in corner]
        hi = [min(c + extent + radius, n) for c, n in zip(corner, shape)]
        win = s.volume[tuple(map(slice, lo, hi))]
        if normalize:
            if "zscore" not in vars(s) and win.shape == tuple(shape):
                s.zscore = s._zscore_of(win)
            win = intensity_normalize(win, s.zscore)
        if aug is not None:
            win = gaussian_blur(win, sigma)
        vols.append(_cut(win, [c - l for c, l in zip(corner, lo)], extent))
    return np.stack(vols, dtype=np.float32)[:, None]


# per-class age statistics (mean, standard deviation) for synthesis
_AGE_STATS = {0: (77.0, 5.4), 1: (75.9, 7.3), 2: (76.7, 7.4)}


def generate_synthetic(n_per_class: int, extent: int, rng: Rng,
                       noise: float = SYNTH_NOISE) -> list[Sample]:
    """Structured class-conditional volumes: a tissue ball with a centered
    ellipsoidal cavity whose radius grows with disease stage, plus optional
    Gaussian noise. Cavity volume alone separates the classes, so a simple
    thresholding oracle can verify learnability. Splits are assigned
    per class: 70% train, 15% val, 15% test (half-up rounding)."""
    if extent < 16:
        raise ValueError(f"extent must be >= 16, got {extent}")
    if n_per_class < 1:
        raise ValueError("n_per_class must be positive")
    if not noise >= 0:
        raise ValueError(f"noise must be >= 0, got {noise}")
    coords = np.arange(extent, dtype=np.float64) - (extent - 1) / 2.0
    zz, yy, xx = np.meshgrid(coords, coords, coords, indexing="ij")
    tissue = (zz * zz + yy * yy + xx * xx) <= (0.42 * extent) ** 2

    n_train = int(math.floor(0.7 * n_per_class + 0.5))
    n_val = int(math.floor(0.15 * n_per_class + 0.5))
    samples = []
    for label in sorted(_AGE_STATS):
        for i in range(n_per_class):
            s = rng.stream("synth", label, i)
            r = (0.10 + 0.05 * label) * extent \
                + float(s.stream("radius").uniform((), -0.01, 0.01)) * extent
            cj = s.stream("center").uniform((3,), -0.02, 0.02) * extent
            # mild fixed anisotropy makes the cavity ellipsoidal
            cav = (((zz - cj[0]) / 1.0) ** 2 + ((yy - cj[1]) / 0.9) ** 2
                   + ((xx - cj[2]) / 1.1) ** 2) <= r * r
            vol = tissue.astype(np.float32)
            vol[cav] = 0.0
            if noise > 0:
                vol = vol + noise * s.stream("noise").normal(
                    (extent,) * 3).astype(np.float32)
            mean, std = _AGE_STATS[label]
            age = mean + std * float(s.stream("age").normal(()))
            age = float(round_age(min(max(age, 40.0), 100.0)))
            split = ("train" if i < n_train
                     else "val" if i < n_train + n_val else "test")
            sid = f"syn-{LABEL_NAMES[label].lower()}-{i:03d}"
            samples.append(Sample(vol.astype(np.float32), sid, label, age,
                                  split))
    return samples


def write_synthetic_dataset(samples: list[Sample], out_dir) -> Path:
    """Write volumes in the native format plus a manifest CSV; returns the
    manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.csv"
    with atomic_write(manifest_path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        for s in samples:
            name = f"{s.subject_id}.vol"
            write_native(out_dir / name, s.volume)
            writer.writerow([s.subject_id, name, LABEL_NAMES[s.label],
                             s.age, s.split])
    return manifest_path
