"""Data layer tests: volume formats, manifests, augmentation, synthesis."""

import csv
import math
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import volcnn
from volcnn import data, optim
from volcnn.cli import _write_text
from volcnn.model import ModelConfig, build
from volcnn.tensor import Rng

# an overflow or invalid value in these tests is a failure, not a warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def nifti_bytes(vol, dtype_code, endian="<", magic=b"n+1\x00",
                slope=0.0, inter=0.0, vox_offset=352.0, rank=None):
    """Minimal single-file NIfTI-1 serializer for tests. `vol` is indexed
    in file voxel order (d1, d2, d3); the payload is first-axis-fastest."""
    hdr = bytearray(348)
    struct.pack_into(f"{endian}i", hdr, 0, 348)
    dims = [rank if rank is not None else 3, *vol.shape, 1, 1, 1, 1][:8]
    struct.pack_into(f"{endian}{len(dims)}h", hdr, 40, *dims)
    struct.pack_into(f"{endian}h", hdr, 70, dtype_code)
    struct.pack_into(f"{endian}h", hdr, 72, {4: 16, 16: 32}[dtype_code])
    struct.pack_into(f"{endian}f", hdr, 108, float(vox_offset))
    struct.pack_into(f"{endian}2f", hdr, 112, slope, inter)
    hdr[344:348] = magic
    np_dt = {4: "i2", 16: "f4"}[dtype_code]
    payload = vol.transpose(2, 1, 0).astype(endian + np_dt).tobytes()
    if magic == b"n+1\x00":
        return bytes(hdr) + b"\x00" * (int(vox_offset) - 348) + payload
    return bytes(hdr), payload


class TestNifti:
    def test_float32_round_trip(self, tmp_path):
        vol = np.arange(64, dtype=np.float32).reshape(4, 4, 4) / 7.0
        p = tmp_path / "a.nii"
        p.write_bytes(nifti_bytes(vol, 16))
        np.testing.assert_array_equal(data.read_nifti1(p), vol)

    def test_file_voxel_order(self, tmp_path):
        vol = np.zeros((2, 3, 4), dtype=np.float32)
        vol[1, 2, 3] = 9.0
        p = tmp_path / "o.nii"
        p.write_bytes(nifti_bytes(vol, 16))
        got = data.read_nifti1(p)
        assert got.shape == (2, 3, 4)
        assert got[1, 2, 3] == 9.0

    def test_int16_scaling(self, tmp_path):
        vol = np.full((3, 3, 3), 3, dtype=np.int16)
        p = tmp_path / "s.nii"
        p.write_bytes(nifti_bytes(vol, 4, slope=2.0, inter=1.0))
        got = data.read_nifti1(p)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, np.full((3, 3, 3), 7.0, np.float32))

    def test_zero_slope_means_raw_values(self, tmp_path):
        vol = np.full((3, 3, 3), 5, dtype=np.int16)
        p = tmp_path / "r.nii"
        p.write_bytes(nifti_bytes(vol, 4, slope=0.0, inter=99.0))
        np.testing.assert_array_equal(data.read_nifti1(p), 5.0)

    def test_big_endian(self, tmp_path):
        vol = np.arange(27, dtype=np.float32).reshape(3, 3, 3)
        p = tmp_path / "b.nii"
        p.write_bytes(nifti_bytes(vol, 16, endian=">"))
        np.testing.assert_array_equal(data.read_nifti1(p), vol)

    def test_header_image_pair(self, tmp_path):
        vol = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
        hdr, payload = nifti_bytes(vol, 16, magic=b"ni1\x00", vox_offset=0.0)
        (tmp_path / "p.hdr").write_bytes(hdr)
        (tmp_path / "p.img").write_bytes(payload)
        np.testing.assert_array_equal(data.read_nifti1(tmp_path / "p.hdr"), vol)

    @pytest.mark.parametrize("offset", [0, 16])
    def test_pair_image_starts_at_vox_offset(self, tmp_path, offset):
        vol = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
        hdr, payload = nifti_bytes(vol, 16, magic=b"ni1\x00",
                                   vox_offset=offset)
        (tmp_path / "p.hdr").write_bytes(hdr)
        (tmp_path / "p.img").write_bytes(b"\xff" * offset + payload)
        np.testing.assert_array_equal(data.read_nifti1(tmp_path / "p.hdr"), vol)

    @pytest.mark.parametrize("offset", [math.nan, -16.0])
    def test_pair_rejects_bad_vox_offset(self, tmp_path, offset):
        vol = np.zeros((2, 2, 2), dtype=np.float32)
        hdr, payload = nifti_bytes(vol, 16, magic=b"ni1\x00",
                                   vox_offset=offset)
        (tmp_path / "p.hdr").write_bytes(hdr)
        (tmp_path / "p.img").write_bytes(payload)
        with pytest.raises(data.VolumeFormatError, match="vox_offset"):
            data.read_nifti1(tmp_path / "p.hdr")

    def test_missing_image_sibling(self, tmp_path):
        vol = np.zeros((2, 2, 2), dtype=np.float32)
        hdr, _ = nifti_bytes(vol, 16, magic=b"ni1\x00", vox_offset=0.0)
        (tmp_path / "q.hdr").write_bytes(hdr)
        with pytest.raises(data.VolumeFormatError, match="sibling"):
            data.read_nifti1(tmp_path / "q.hdr")

    def test_bad_magic(self, tmp_path):
        raw = bytearray(nifti_bytes(np.zeros((2, 2, 2), np.float32), 16))
        raw[344:348] = b"XXXX"
        p = tmp_path / "m.nii"
        p.write_bytes(bytes(raw))
        with pytest.raises(data.VolumeFormatError, match="bad magic"):
            data.read_nifti1(p)

    def test_unsupported_datatype(self, tmp_path):
        raw = bytearray(nifti_bytes(np.zeros((2, 2, 2), np.float32), 16))
        struct.pack_into("<h", raw, 70, 64)  # float64 code
        p = tmp_path / "d.nii"
        p.write_bytes(bytes(raw))
        with pytest.raises(data.VolumeFormatError,
                           match="unsupported datatype 64"):
            data.read_nifti1(p)

    def test_wrong_rank(self, tmp_path):
        p = tmp_path / "r4.nii"
        p.write_bytes(nifti_bytes(np.zeros((2, 2, 2), np.float32), 16, rank=4))
        with pytest.raises(data.VolumeFormatError, match="rank 4"):
            data.read_nifti1(p)

    def test_truncated_payload(self, tmp_path):
        raw = nifti_bytes(np.zeros((4, 4, 4), np.float32), 16)
        p = tmp_path / "t.nii"
        p.write_bytes(raw[:-10])
        with pytest.raises(data.VolumeFormatError, match="payload holds"):
            data.read_nifti1(p)

    @pytest.mark.parametrize("field, values", [
        ("dims", (4, 4, -4)),
        ("dims", (-1, 4, 4)),
        ("dims", (-4, -4, 4)),
        ("dims", (0, 4, 4)),
        ("vox_offset", (math.nan,)),
        ("vox_offset", (math.inf,)),
        ("vox_offset", (0.0,)),
        ("vox_offset", (348.0,)),
    ])
    def test_hostile_header_rejected(self, tmp_path, field, values):
        offset, fmt = {"dims": (42, "<3h"), "vox_offset": (108, "<f")}[field]
        raw = bytearray(nifti_bytes(np.zeros((4, 4, 4), np.float32), 16))
        struct.pack_into(fmt, raw, offset, *values)
        p = tmp_path / "h.nii"
        p.write_bytes(bytes(raw))
        with pytest.raises(data.VolumeFormatError, match=field):
            data.read_nifti1(p)


class TestNative:
    def test_round_trip_bit_exact(self, tmp_path):
        vol = Rng(1).stream("nat").normal((5, 6, 7)).astype(np.float32)
        p = tmp_path / "v.vol"
        data.write_native(p, vol)
        got = np.asarray(data.NativeVolume(p))
        assert got.shape == (5, 6, 7)
        assert got.tobytes() == vol.tobytes()
        assert got.flags.writeable and got.flags.c_contiguous

    def test_empty_extent_round_trip(self, tmp_path):
        p = tmp_path / "e.vol"
        data.write_native(p, np.zeros((0, 2, 3), np.float32))
        got = np.asarray(data.NativeVolume(p))
        assert got.shape == (0, 2, 3) and got.dtype == np.float32

    def test_shorter_than_header(self, tmp_path):
        p = tmp_path / "s.vol"
        p.write_bytes(data.NATIVE_MAGIC + b"\x01\x00")
        with pytest.raises(data.VolumeFormatError, match="fixed header"):
            np.asarray(data.NativeVolume(p))

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "w.vol"
        data.write_native(p, np.zeros((2, 2, 2), np.float32))
        raw = bytearray(p.read_bytes())
        raw[0] ^= 0x55
        p.write_bytes(bytes(raw))
        with pytest.raises(data.VolumeFormatError, match="bad magic"):
            np.asarray(data.NativeVolume(p))

    def test_payload_length_mismatch(self, tmp_path):
        p = tmp_path / "x.vol"
        data.write_native(p, np.zeros((3, 3, 3), np.float32))
        with open(p, "ab") as fh:
            fh.write(b"\x00\x00")
        with pytest.raises(data.VolumeFormatError, match="payload is 110"):
            np.asarray(data.NativeVolume(p))

    def test_extents_whose_product_wraps_int64(self, tmp_path):
        p = tmp_path / "z.vol"
        header = struct.pack("<I3Q", data.NATIVE_VERSION, 2**32, 2**32, 1)
        p.write_bytes(data.NATIVE_MAGIC + header)
        with pytest.raises(data.VolumeFormatError, match="payload is 0"):
            np.asarray(data.NativeVolume(p))

    def test_bad_version(self, tmp_path):
        p = tmp_path / "y.vol"
        data.write_native(p, np.zeros((2, 2, 2), np.float32))
        raw = bytearray(p.read_bytes())
        struct.pack_into("<I", raw, 8, 9)
        p.write_bytes(bytes(raw))
        with pytest.raises(data.VolumeFormatError, match="version"):
            np.asarray(data.NativeVolume(p))


class TestOnDiskVolume:
    """A native volume loaded from a manifest stays on disk: its samples
    give the same training and evaluation as in-memory arrays, and a file
    changed after load is an error, never stale or mixed voxels."""

    @staticmethod
    def load_one(tmp_path, vol):
        path = tmp_path / "v.vol"
        data.write_native(path, vol)
        row = data.ManifestRow("s0", "v.vol", 0, 70.0, "train")
        return path, data.load_sample(data.Manifest([row], tmp_path), row)

    def test_windows_read_from_the_file(self, tmp_path):
        vol = Rng(2).stream("w").normal((9, 7, 8)).astype(np.float32)
        _, s = self.load_one(tmp_path, vol)
        assert isinstance(s.volume, data.NativeVolume)
        assert s.volume.shape == (9, 7, 8)
        for key in (np.s_[2:6, 1:4, 3:8], np.s_[4], np.s_[-2:, ::2],
                    np.s_[7:1:-3, 5], np.s_[5:5]):
            assert np.array_equal(s.volume[key], vol[key])
            assert s.volume[key].shape == vol[key].shape
        assert np.asarray(s.volume).tobytes() == vol.tobytes()
        assert s.volume.data.nbytes == vol.nbytes
        assert s.zscore == data.zscore_stats(vol)

    def test_nifti_stays_in_memory(self, tmp_path):
        vol = Rng(2).stream("n").normal((5, 6, 7)).astype(np.float32)
        (tmp_path / "v.nii").write_bytes(nifti_bytes(vol, 16))
        row = data.ManifestRow("s0", "v.nii", 0, 70.0, "train")
        s = data.load_sample(data.Manifest([row], tmp_path), row)
        assert isinstance(s.volume, np.ndarray)
        assert s.volume.tobytes() == vol.tobytes()

    @pytest.mark.parametrize("change", ["truncate", "rewrite", "rename"])
    def test_file_changed_after_load_is_an_error(self, tmp_path, change):
        vol = Rng(3).stream("v").normal((12, 10, 9)).astype(np.float32)
        path, s = self.load_one(tmp_path, vol)
        data.model_input([s], 8, True)
        st = path.stat()
        if change == "truncate":
            os.truncate(path, st.st_size - 4)
        elif change == "rewrite":
            # in place, with other extents of the same byte size and the
            # modification time put back, so only the header tells
            other = tmp_path / "other.vol"
            data.write_native(other, vol.reshape(10, 12, 9))
            with open(path, "r+b") as fh:
                fh.write(other.read_bytes())
            os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
            assert path.stat().st_size == st.st_size
        else:
            data.write_native(tmp_path / "new.vol", vol)
            os.replace(tmp_path / "new.vol", path)
        with pytest.raises(data.VolumeFormatError, match=re.escape(str(path))):
            data.model_input([s], 8, True)

    def test_train_and_eval_equal_in_memory_volumes(self, tmp_path):
        samples = data.generate_synthetic(4, 36, Rng(8), noise=0.2)
        man = data.load_manifest(
            data.write_synthetic_dataset(samples, tmp_path / "ds"))
        on_disk = [data.load_sample(man, r) for r in man.rows]
        in_memory = [
            data.Sample(np.asarray(data.NativeVolume(man.resolve(r))),
                        r.subject_id, r.label, r.age, r.split)
            for r in man.rows]
        assert all(isinstance(s.volume, data.NativeVolume) for s in on_disk)
        runs = []
        for name, loaded in (("disk", on_disk), ("memory", in_memory)):
            train = [s for s in loaded if s.split == "train"]
            val = [s for s in loaded if s.split == "val"]
            net = build(ModelConfig(crop_extent=32), Rng(0))
            ckpt = tmp_path / f"{name}.ckpt"
            log = optim.train(net, train, val,
                              optim.TrainConfig(max_epochs=2), ckpt)
            _, probs = optim.evaluate_samples(net, loaded, 4)
            runs.append((log, ckpt.read_bytes(), probs.tobytes()))
        assert runs[0] == runs[1]

    def test_eval_reads_each_whole_volume_once(self, tmp_path, monkeypatch):
        samples = data.generate_synthetic(3, 32, Rng(8), noise=0.2)
        man = data.load_manifest(
            data.write_synthetic_dataset(samples, tmp_path / "ds"))
        loaded = [data.load_sample(man, r) for r in man.rows]
        reads = []
        real = data._read_planes

        def counted(fh, path, shape, z0, z1):
            reads.append(path)
            return real(fh, path, shape, z0, z1)

        monkeypatch.setattr(data, "_read_planes", counted)
        net = build(ModelConfig(crop_extent=32), Rng(0))
        _, probs = optim.evaluate_samples(net, loaded, 4)
        assert sorted(reads) == sorted(man.resolve(r) for r in man.rows)
        in_memory = [
            data.Sample(np.asarray(data.NativeVolume(man.resolve(r))),
                        r.subject_id, r.label, r.age, r.split)
            for r in man.rows]
        assert [s.zscore for s in loaded] == [s.zscore for s in in_memory]
        assert np.array_equal(
            probs, optim.evaluate_samples(net, in_memory, 4)[1])

    def test_whole_window_keeps_the_constant_volume_message(self, tmp_path):
        _, s = self.load_one(tmp_path, np.full((8, 8, 8), 3.0, np.float32))
        with pytest.raises(data.VolumeFormatError,
                           match="subject s0: constant volume"):
            data.model_input([s], 8, True)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads VmHWM from /proc/self/status")
    def test_peak_memory_does_not_grow_with_the_scan_count(self, tmp_path):
        # VmHWM is the peak resident set of the process's own address
        # space; ru_maxrss would start at the test runner's high-water
        # mark, which a child inherits across fork and exec.
        shape, n = (61, 73, 61), 6  # half a 121x145x121 scan, 1.04 MiB
        vol_bytes = 4 * math.prod(shape)
        script = (
            "import sys\n"
            "from volcnn.cli import main\n"
            "code = main(['train', '--manifest', sys.argv[1], '--run_dir',\n"
            "             sys.argv[2], '--crop_extent', '16',\n"
            "             '--max_epochs', '1', '--threads', '1'])\n"
            "hwm = [l.split()[1] for l in open('/proc/self/status')\n"
            "       if l.startswith('VmHWM:')]\n"
            "print(code, hwm[0])\n")
        env = dict(os.environ)
        src = str(Path(volcnn.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        rng = Rng(6).stream("scans")
        peak_kib = {}
        for count in (n, 4 * n):
            rows = []
            for i in range(count + 3):
                name = f"s{i:03d}.vol"
                data.write_native(tmp_path / name, rng.stream(count, i).normal(
                    shape).astype(np.float32))
                rows.append([f"s{i:03d}", name, data.LABEL_NAMES[i % 3],
                             70.0, "train" if i < count else "val"])
            manifest = tmp_path / f"m{count}.csv"
            write_manifest(manifest, rows)
            proc = subprocess.run(
                [sys.executable, "-c", script, str(manifest),
                 str(tmp_path / f"run{count}")], env=env,
                capture_output=True, text=True, timeout=300)
            code, kib = proc.stdout.split()[-2:]
            assert (proc.returncode, code) == (0, "0"), proc.stderr
            peak_kib[count] = int(kib)
        # Holding the volumes in memory would add 3n volumes, 18.7 MiB.
        assert (peak_kib[4 * n] - peak_kib[n]) * 1024 < n * vol_bytes, peak_kib


def write_manifest(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(data.MANIFEST_HEADER)
        w.writerows(rows)


class TestManifest:
    def test_load_and_counts(self, tmp_path):
        p = tmp_path / "m.csv"
        write_manifest(p, [
            ("s1", "a.vol", "CN", 71.0, "train"),
            ("s1", "b.vol", "CN", 72.5, "train"),
            ("s2", "c.vol", "MCI", 68.0, "train"),
            ("s3", "d.vol", "AD", 80.0, "val"),
        ])
        man = data.load_manifest(p)
        assert len(man.rows) == 4
        assert man.subjects("train") == {"s1": 0, "s2": 1}
        assert man.subjects("val") == {"s3": 2}

    def test_leakage_is_fatal_by_default(self, tmp_path):
        p = tmp_path / "leak.csv"
        write_manifest(p, [
            ("s1", "a.vol", "CN", 71.0, "train"),
            ("s1", "b.vol", "CN", 71.0, "test"),
            ("s2", "c.vol", "AD", 80.0, "train"),
        ])
        with pytest.raises(data.LeakageError) as exc:
            data.load_manifest(p)
        assert exc.value.subjects == ["s1"]

    def test_leakage_override_still_reports(self, tmp_path, capsys):
        p = tmp_path / "leak.csv"
        write_manifest(p, [
            ("s1", "a.vol", "CN", 71.0, "train"),
            ("s1", "b.vol", "CN", 71.0, "test"),
        ])
        man = data.load_manifest(p, allow_leakage=True)
        assert len(man.rows) == 2
        assert "s1" in capsys.readouterr().err

    def test_disjoint_manifest_is_clean(self, tmp_path):
        p = tmp_path / "ok.csv"
        write_manifest(p, [
            ("s1", "a.vol", "CN", 71.0, "train"),
            ("s2", "b.vol", "CN", 71.0, "test"),
        ])
        assert data.check_leakage(data.load_manifest(p)) == []

    @pytest.mark.parametrize("row,err", [
        (("s1", "a.vol", "CNX", 71.0, "train"), "label"),
        (("s1", "a.vol", "CN", "old", "train"), "age"),
        (("s1", "a.vol", "CN", 131.0, "train"), "age"),
        (("s1", "a.vol", "CN", 71.0, "holdout"), "split"),
        (("", "a.vol", "CN", 71.0, "train"), "empty"),
        *[((sid, "a.vol", "CN", 71.0, "train"), f"2: subject id {sid!r}")
          for sid in ("../x", "/tmp/x", "a,b", ".hidden", ".", "..", "a/b",
                      "a b", "s\u00e9")],
    ])
    def test_invalid_rows_rejected(self, tmp_path, row, err):
        p = tmp_path / "bad.csv"
        write_manifest(p, [row])
        with pytest.raises(data.ManifestError, match=err):
            data.load_manifest(p)

    def test_plain_subject_ids_accepted(self, tmp_path):
        ids = ["002_S_0295", "syn-cn-000", "scan-000", "a.b", "-x", "_"]
        p = tmp_path / "ids.csv"
        write_manifest(p, [(sid, "a.vol", "CN", 71.0, "train") for sid in ids])
        assert list(data.load_manifest(p).subjects("train")) == ids

    def test_wrong_header_rejected(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("id,file,label,age,split\n")
        with pytest.raises(data.ManifestError, match="header"):
            data.load_manifest(p)


def direct_blur(vol, sigma):
    """Full 3D product-kernel convolution, mirrored edges. Oracle for the
    separable implementation."""
    radius = math.ceil(3 * sigma)
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    k1 = np.exp(-(t * t) / (2 * sigma * sigma))
    k1 /= k1.sum()
    k3 = k1[:, None, None] * k1[None, :, None] * k1[None, None, :]
    pad = np.pad(vol.astype(np.float64), radius, mode="symmetric")
    out = np.zeros(vol.shape, dtype=np.float64)
    d, h, w = vol.shape
    for i in range(2 * radius + 1):
        for j in range(2 * radius + 1):
            for l in range(2 * radius + 1):
                out += k3[i, j, l] * pad[i:i + d, j:j + h, l:l + w]
    return out.astype(vol.dtype)


class TestBlur:
    def test_sigma_zero_identity(self):
        vol = Rng(2).stream("bz").normal((6, 6, 6)).astype(np.float32)
        out = data.gaussian_blur(vol, 0.0)
        assert out.tobytes() == vol.tobytes()

    def test_constant_volume_unchanged(self):
        vol = np.full((9, 9, 9), 3.25, dtype=np.float32)
        out = data.gaussian_blur(vol, 1.2)
        np.testing.assert_allclose(out, 3.25, atol=1e-6)

    def test_matches_direct_3d_convolution(self):
        vol = Rng(3).stream("bd").normal((9, 9, 9)).astype(np.float32)
        got = data.gaussian_blur(vol, 1.0)
        want = direct_blur(vol, 1.0)
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_mass_nearly_preserved(self):
        vol = Rng(4).stream("bm").uniform((12, 12, 12), 0.0, 1.0).astype(np.float32)
        out = data.gaussian_blur(vol, 1.5)
        assert out.shape == vol.shape
        assert abs(float(out.mean()) - float(vol.mean())) < 0.05

    def test_subnormal_variance_is_a_delta(self):
        # 2 sigma^2 is subnormal: a delta kernel, no overflow warning
        vol = Rng(2).stream("bs").normal((20, 20, 20)).astype(np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = data.gaussian_blur(vol, 1.5099494428931641e-155)
        assert out.tobytes() == vol.tobytes()

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            data.gaussian_blur(np.zeros((4, 4, 4), np.float32), -0.1)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan, 10.0])
    def test_unbounded_sigma_rejected(self, sigma):
        # radius ceil(3 sigma) is infinite, undefined, or 30 > extent 4
        with pytest.raises(ValueError):
            data.gaussian_blur(np.zeros((4, 4, 4), np.float32), sigma)

    @given(sigma=st.floats(0.0, 1.5), extent=st.integers(4, 10),
           seed=st.integers(0, 99))
    @settings(max_examples=25, deadline=None)
    def test_blur_then_crop_of_constant_is_constant(self, sigma, extent, seed):
        size = 12
        vol = np.full((size, size, size), 0.75, dtype=np.float32)
        out = data.gaussian_blur(vol, sigma)
        crop = data.random_crop(out, extent, Rng(seed).stream("prop"))
        np.testing.assert_allclose(crop, 0.75, atol=1e-6)
        assert crop.shape == (extent,) * 3


class TestCrops:
    def test_full_extent_is_identity(self):
        vol = Rng(5).stream("cf").normal((7, 7, 7)).astype(np.float32)
        np.testing.assert_array_equal(data.center_crop(vol, 7), vol)
        np.testing.assert_array_equal(
            data.random_crop(vol, 7, Rng(0).stream("x")), vol)

    def test_center_offsets_on_registered_extents(self):
        vol = np.arange(121 * 145 * 121, dtype=np.float32).reshape(121, 145, 121)
        crop = data.center_crop(vol, 96)
        assert crop.shape == (96, 96, 96)
        assert crop[0, 0, 0] == vol[12, 24, 12]
        assert crop[-1, -1, -1] == vol[12 + 95, 24 + 95, 12 + 95]

    def test_random_crop_contained_verbatim(self):
        vol = np.arange(20 ** 3, dtype=np.float32).reshape(20, 20, 20)
        crop = data.random_crop(vol, 9, Rng(11).stream("aug", 0))
        first = int(crop[0, 0, 0])
        d, rem = divmod(first, 20 * 20)
        h, w = divmod(rem, 20)
        np.testing.assert_array_equal(vol[d:d + 9, h:h + 9, w:w + 9], crop)

    def test_random_crop_is_deterministic(self):
        vol = np.arange(18 ** 3, dtype=np.float32).reshape(18, 18, 18)
        a = data.random_crop(vol, 8, Rng(7).stream("aug", 3))
        b = data.random_crop(vol, 8, Rng(7).stream("aug", 3))
        np.testing.assert_array_equal(a, b)

    def test_oversized_crop_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            data.center_crop(np.zeros((5, 5, 5), np.float32), 6)


class TestNormalize:
    def test_zero_mean_unit_std(self):
        vol = (Rng(6).stream("nz").normal((8, 8, 8)) * 4 + 3).astype(np.float32)
        out = data.intensity_normalize(vol, data.zscore_stats(vol))
        assert abs(float(out.mean())) < 1e-5
        assert abs(float(out.std()) - 1.0) < 1e-4

    def test_affine_invariance(self):
        vol = Rng(7).stream("na").normal((6, 6, 6)).astype(np.float32)
        a = data.intensity_normalize(vol, data.zscore_stats(vol))
        vol2 = (2.5 * vol + 11.0).astype(np.float32)
        b = data.intensity_normalize(vol2, data.zscore_stats(vol2))
        np.testing.assert_allclose(a, b, atol=1e-5)

    def test_constant_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            vol = np.full((4, 4, 4), 2.0, np.float32)
            data.intensity_normalize(vol, data.zscore_stats(vol))


class TestModelInput:
    def samples(self, dtype=np.float32):
        rng = Rng(21).stream("mi")
        return [data.Sample((rng.normal((12, 14, 11)) * 3 + i).astype(dtype),
                            f"s{i}", i % 3, 70.0, "train") for i in range(3)]

    def test_train_path_is_blur_of_zscore_then_random_crop(self):
        samples = self.samples()
        augs = [Rng(4).stream("augment", i) for i in range(3)]
        out = data.model_input(samples, 8, True, augs, blur_hi=1.5)
        assert out.shape == (3, 1, 8, 8, 8) and out.dtype == np.float32
        for i, s in enumerate(samples):
            aug = Rng(4).stream("augment", i)  # a copy of the same stream
            sigma = float(aug.uniform(lo=0.0, hi=1.5))
            want = data.random_crop(data.gaussian_blur(
                data.intensity_normalize(s.volume, data.zscore_stats(s.volume)),
                sigma), 8, aug)
            assert out[i, 0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("normalize", [True, False])
    def test_eval_path_is_zscore_then_center_crop(self, normalize):
        samples = self.samples()
        out = data.model_input(samples, 8, normalize)
        for i, s in enumerate(samples):
            vol = (data.intensity_normalize(s.volume,
                                            data.zscore_stats(s.volume))
                   if normalize else s.volume)
            assert out[i, 0].tobytes() == data.center_crop(vol, 8).tobytes()

    def test_non_float32_volume_yields_float32(self):
        samples = self.samples(np.float64)
        augs = [Rng(4).stream("augment", i) for i in range(3)]
        for out in (data.model_input(samples, 8, True),
                    data.model_input(samples, 8, True, augs, blur_hi=1.0)):
            assert out.shape == (3, 1, 8, 8, 8)
            assert out.dtype == np.float32 and out.flags.c_contiguous

    def test_constant_volume_names_its_subject(self):
        samples = self.samples()
        samples[1].volume[...] = 2.0
        with pytest.raises(data.VolumeFormatError, match="subject s1"):
            data.model_input(samples, 8, True)
        assert data.model_input(samples, 8, False).shape == (3, 1, 8, 8, 8)

    @pytest.mark.parametrize("normalize", [True, False])
    def test_integer_volume_gives_float_values(self, normalize):
        vol = (np.arange(27).reshape(3, 3, 3) % 5).astype(np.int16)
        ints = [data.Sample(vol, "i", 0, 70.0, "train")]
        floats = [data.Sample(vol.astype(np.float32), "f", 0, 70.0, "train")]
        for augs in (None, [Rng(5).stream("augment", 0)]):
            got = data.model_input(ints, 3, normalize, augs, blur_hi=0.5)
            want = data.model_input(floats, 3, normalize,
                                    augs and [Rng(5).stream("augment", 0)],
                                    blur_hi=0.5)
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)
        if normalize:  # z-scored, not truncated to [-1, 0, 0, 1, ...]
            got = data.model_input(ints, 3, True)
            np.testing.assert_allclose(
                got[0, 0], (vol - vol.mean()) / vol.std(), rtol=1e-6)
            np.testing.assert_allclose(
                got.ravel()[:4], [-1.3275, -0.6247, 0.0781, 0.7809],
                atol=1e-4)

    def test_zscore_is_computed_once_on_first_use(self, tmp_path,
                                                  monkeypatch):
        calls = []
        stats = data.zscore_stats
        monkeypatch.setattr(data, "zscore_stats",
                            lambda v: calls.append(v.shape) or stats(v))
        path = tmp_path / "v.vol"
        data.write_native(path, self.samples()[0].volume)
        row = data.ManifestRow("s0", "v.vol", 0, 70.0, "train")
        loaded = data.load_sample(data.Manifest([row], tmp_path), row)
        assert calls == []  # nothing at load
        augs = [Rng(4).stream("augment", 0)]
        for _ in range(2):
            data.model_input([loaded], 8, True)
            data.model_input([loaded], 8, True, augs, blur_hi=1.5)
        assert calls == [(12, 14, 11)]
        assert loaded.zscore == stats(loaded.volume)

    def test_blur_sees_only_the_crop_and_its_margin(self, monkeypatch):
        rng = Rng(22).stream("win")
        samples = [data.Sample(rng.normal((40, 44, 38)).astype(np.float32),
                               f"w{i}", 0, 70.0, "train") for i in range(6)]
        seen = []
        blur = data.gaussian_blur

        def spy(volume, sigma):
            seen.append((volume.shape, math.ceil(3 * sigma)))
            return blur(volume, sigma)

        monkeypatch.setattr(data, "gaussian_blur", spy)
        augs = [Rng(6).stream("augment", i) for i in range(6)]
        data.model_input(samples, 16, True, augs, blur_hi=1.5)
        assert len(seen) == 6
        for shape, radius in seen:
            assert all(n <= 16 + 2 * radius for n in shape), (shape, radius)


class PinnedDraws:
    """Stands in for an augmentation stream: `uniform` gives sigma and
    `integers` gives the pinned crop corner, one axis per call."""

    def __init__(self, sigma, corner):
        self.sigma, self.corner = sigma, list(corner)

    def uniform(self, shape=(), lo=0.0, hi=1.0):
        return self.sigma

    def integers(self, bound):
        c = self.corner.pop(0)
        assert 0 <= c < bound
        return c


@st.composite
def crop_cases(draw):
    """A volume large next to the crop and its blur margin, and a corner
    pinned per axis to an edge, to just inside the margin, or anywhere."""
    shape = tuple(draw(st.integers(20, 34)) for _ in range(3))
    extent = draw(st.integers(4, 10))
    sigma = draw(st.floats(0.0, 1.5))
    radius = math.ceil(3 * sigma)
    corner = []
    for n in shape:
        top = n - extent
        corner.append(draw(st.one_of(
            st.sampled_from([0, min(radius, top), max(top - radius, 0), top]),
            st.integers(0, top))))
    return shape, extent, sigma, tuple(corner), draw(st.integers(0, 99))


class TestCropFirst:
    @given(case=crop_cases(), normalize=st.booleans())
    @example(case=((20, 20, 20), 4, 1.5099494428931641e-155, (0, 0, 0), 0),
             normalize=True)
    @settings(max_examples=60, deadline=None)
    def test_model_input_equals_full_volume_oracle(self, case, normalize):
        shape, extent, sigma, corner, seed = case
        vol = (Rng(seed).stream("cf").normal(shape) * 3 + 1).astype(np.float32)
        s = data.Sample(vol, "v", 0, 70.0, "train")
        full = (data.intensity_normalize(vol, data.zscore_stats(vol))
                if normalize else vol)
        want = data.random_crop(data.gaussian_blur(full, sigma), extent,
                                PinnedDraws(sigma, corner))
        got = data.model_input([s], extent, normalize,
                               [PinnedDraws(sigma, corner)], blur_hi=1.5)
        assert got[0, 0].tobytes() == want.tobytes()
        got = data.model_input([s], extent, normalize)
        assert got[0, 0].tobytes() == data.center_crop(full, extent).tobytes()


def build_manifest(train_per_class=(40, 30, 30)):
    rows = []
    idx = 0
    for label, n in enumerate(train_per_class):
        for _ in range(n):
            sid = f"s{idx:03d}"
            rows.append(data.ManifestRow(sid, f"{sid}.vol", label, 70.0, "train"))
            rows.append(data.ManifestRow(sid, f"{sid}b.vol", label, 70.5, "train"))
            idx += 1
    for label in range(3):
        for split in ("val", "test"):
            sid = f"s{idx:03d}"
            rows.append(data.ManifestRow(sid, f"{sid}.vol", label, 70.0, split))
            idx += 1
    return data.Manifest(rows, base_dir=None)


class TestSubsample:
    def test_stratified_counts(self):
        man = build_manifest()
        out = data.subsample(man, 0.5, Rng(1))
        kept = {}
        for sid, label in out.subjects("train").items():
            kept[label] = kept.get(label, 0) + 1
        assert kept == {0: 20, 1: 15, 2: 15}

    def test_scans_follow_their_subject(self):
        man = build_manifest()
        out = data.subsample(man, 0.5, Rng(1))
        per_subject = {}
        for r in out.rows:
            if r.split == "train":
                per_subject[r.subject_id] = per_subject.get(r.subject_id, 0) + 1
        assert set(per_subject.values()) == {2}

    def test_rate_one_is_identity(self):
        man = build_manifest()
        out = data.subsample(man, 1.0, Rng(1))
        assert out.rows == man.rows

    def test_val_and_test_untouched(self):
        man = build_manifest()
        out = data.subsample(man, 0.25, Rng(2))
        for split in ("val", "test"):
            assert ([r for r in out.rows if r.split == split]
                    == [r for r in man.rows if r.split == split])

    def test_deterministic_under_seed(self):
        man = build_manifest()
        a = data.subsample(man, 0.3, Rng(9))
        b = data.subsample(man, 0.3, Rng(9))
        assert a.rows == b.rows

    def test_disjointness_preserved(self):
        man = build_manifest()
        out = data.subsample(man, 0.5, Rng(3))
        assert data.check_leakage(out) == []

    def test_emptying_a_class_rejected(self):
        man = build_manifest(train_per_class=(1, 30, 30))
        with pytest.raises(ValueError, match="keeps no"):
            data.subsample(man, 0.2, Rng(1))

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            data.subsample(build_manifest(), 0.0, Rng(1))


class TestSynthetic:
    def test_import_leaves_ops_unloaded(self, tmp_path):
        # the data layer rounds ages with config.round_age, not the kernels
        script = ("import sys\n"
                  "import volcnn.data\n"
                  "assert 'volcnn.ops' not in sys.modules, 'ops imported'\n")
        env = dict(os.environ)
        src = str(Path(volcnn.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_balanced_and_split(self):
        samples = data.generate_synthetic(8, 32, Rng(10))
        assert len(samples) == 24
        for label in range(3):
            mine = [s for s in samples if s.label == label]
            assert len(mine) == 8
            splits = [s.split for s in mine]
            assert splits.count("train") == 6
            assert splits.count("val") == 1
            assert splits.count("test") == 1

    def test_noise_free_classes_thresholdable(self):
        samples = data.generate_synthetic(8, 32, Rng(10), noise=0.0)
        sums = {label: [float(s.volume.sum()) for s in samples
                        if s.label == label] for label in range(3)}
        # larger cavities remove more tissue: CN > MCI > AD with a clean gap
        assert min(sums[0]) > max(sums[1])
        assert min(sums[1]) > max(sums[2])

    def test_deterministic(self):
        a = data.generate_synthetic(4, 16, Rng(21))
        b = data.generate_synthetic(4, 16, Rng(21))
        for s, t in zip(a, b):
            assert s.subject_id == t.subject_id
            assert s.age == t.age
            np.testing.assert_array_equal(s.volume, t.volume)

    def test_ages_plausible_and_half_resolved(self):
        for s in data.generate_synthetic(8, 16, Rng(22)):
            assert 40.0 <= s.age <= 100.0
            assert (s.age * 2) == int(s.age * 2)

    def test_unique_subjects(self):
        samples = data.generate_synthetic(8, 16, Rng(23))
        ids = [s.subject_id for s in samples]
        assert len(set(ids)) == len(ids)

    def test_small_extent_rejected(self):
        with pytest.raises(ValueError, match=">= 16"):
            data.generate_synthetic(4, 8, Rng(1))

    @pytest.mark.parametrize("noise", [-1.0, math.nan])
    def test_negative_or_nan_noise_rejected(self, noise):
        with pytest.raises(ValueError, match="noise"):
            data.generate_synthetic(1, 16, Rng(1), noise=noise)

    def test_written_dataset_loads_cleanly(self, tmp_path):
        samples = data.generate_synthetic(4, 16, Rng(30))
        manifest_path = data.write_synthetic_dataset(samples, tmp_path / "ds")
        man = data.load_manifest(manifest_path)
        assert len(man.rows) == 12
        sample = data.load_sample(man, man.rows[0])
        assert sample.volume.shape == (16, 16, 16)
        assert np.isfinite(sample.volume).all()


class TestAtomicWrite:
    def test_replaces_whole_file(self, tmp_path):
        path = tmp_path / "report.txt"
        path.write_text("old\n")
        with data.atomic_write(path) as fh:
            fh.write("new\n")
        assert path.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]

    def test_error_mid_write_keeps_previous(self, tmp_path):
        path = tmp_path / "best.ckpt"
        path.write_bytes(b"old")
        with pytest.raises(RuntimeError, match="killed"):
            with data.atomic_write(path, "wb") as fh:
                fh.write(b"partial")
                raise RuntimeError("killed")
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]

    def test_interrupted_log_and_volume_writes_keep_previous(
            self, tmp_path, monkeypatch):
        log_path, vol_path = tmp_path / "train_log.csv", tmp_path / "s.vol"
        row = optim.EpochRecord(1, 1.0, 0.9, 0.5, 0.0, True).csv_line()
        _write_text(log_path, f"{optim.LOG_HEADER}\n{row}\n")
        data.write_native(vol_path, np.zeros((2, 2, 2), np.float32))
        before = {p: p.read_bytes() for p in (log_path, vol_path)}

        def crash(src, dst):
            raise OSError("killed before the rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="killed"):
            _write_text(log_path, f"{optim.LOG_HEADER}\n{row}\n{row}\n")
        with pytest.raises(OSError, match="killed"):
            data.write_native(vol_path, np.ones((3, 3, 3), np.float32))
        assert {p: p.read_bytes() for p in before} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "s.vol", "train_log.csv"]
