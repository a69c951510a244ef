import numpy as np
import pytest

from volcnn import model as network
from volcnn import saliency
from volcnn.config import DEFAULT_VIEWS, SMOOTH_SIGMA
from volcnn.data import NativeVolume, gaussian_blur
from volcnn.model import ModelConfig, build
from volcnn.tensor import F64, Rng, ShapeError, Tensor

# an overflow or invalid value in these tests is a failure, not a warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def small_net(seed=0, dtype=None, **overrides):
    cfg = ModelConfig(crop_extent=32, **overrides)
    if dtype is None:
        return build(cfg, Rng(seed))
    return build(cfg, Rng(seed), dtype=dtype)


def rand_volume(seed=12, extent=32):
    return Rng(seed).normal((extent, extent, extent))


class TestSaliency:
    def test_map_extents_match_input(self):
        net = small_net()
        smap = saliency.saliency(net, rand_volume().astype(np.float32), 0)
        assert smap.shape == (32, 32, 32) and smap.dtype == np.float32
        assert (smap >= 0).all()

    def test_zero_parameter_network_gives_zero_map(self):
        net = small_net()
        for t in net.params.values():
            t.data[...] = 0.0
        smap = saliency.saliency(net, rand_volume().astype(np.float32), 2)
        assert np.all(smap == 0.0)

    def test_invalid_target_rejected(self):
        net = small_net()
        vol = rand_volume().astype(np.float32)
        with pytest.raises(ValueError, match="target class"):
            saliency.saliency(net, vol, 3)
        with pytest.raises(ValueError, match="target class"):
            saliency.saliency(net, vol, -1)

    def test_wrong_extents_rejected(self):
        net = small_net()
        with pytest.raises(ShapeError):
            saliency.saliency(net, np.zeros((16, 16, 16), np.float32), 0)

    def test_target_bias_shift_leaves_map_unchanged(self):
        # the bias enters the score additively, so d score / d input
        # cannot see it
        net = small_net(seed=4)
        vol = rand_volume(3).astype(np.float32)
        before = saliency.saliency(net, vol, 1)
        net.params["fc2.bias"].data[1] += 5.0
        after = saliency.saliency(net, vol, 1)
        assert np.array_equal(before, after)

    def test_finite_difference_agreement(self):
        net = small_net(seed=3, dtype=F64)
        x = rand_volume(12)
        target = 1
        smap = saliency.saliency(net, x, target)

        def logit_and_pattern(arr):
            logits, tape = network.forward(net, Tensor(arr[None, None]),
                                           mode="eval")
            return (float(logits.data[0, target]),
                    network.activation_pattern(tape))

        h = 1e-3
        g = Rng(77)
        checked = 0
        attempts = 0
        while checked < 10 and attempts < 100:
            attempts += 1
            i, j, k = (int(v) for v in
                       g.stream("voxel", attempts).integers(32, (3,)))
            xp = x.copy()
            xp[i, j, k] += h
            xm = x.copy()
            xm[i, j, k] -= h
            fp, pat_p = logit_and_pattern(xp)
            fm, pat_m = logit_and_pattern(xm)
            if pat_p != pat_m:
                continue  # activation kink between the probes
            fd = abs((fp - fm) / (2 * h))
            ana = float(smap[i, j, k])
            rel = abs(ana - fd) / max(fd, 1e-8)
            assert rel <= 1e-3, f"voxel ({i},{j},{k}): {ana} vs {fd}"
            checked += 1
        assert checked == 10


class TestAggregate:
    def maps(self, n, seed=0, extent=8):
        g = Rng(seed)
        return [np.abs(g.stream(i).normal((extent,) * 3)).astype(np.float32)
                for i in range(n)]

    def test_single_map_is_max_normalized(self):
        (m,) = self.maps(1)
        agg = saliency.aggregate([m])
        expect = m / m.max()
        assert np.allclose(agg, expect, atol=1e-7)
        assert agg.dtype == np.float32

    def test_mean_is_idempotent_on_identical_maps(self):
        (m,) = self.maps(1)
        once = saliency.aggregate([m])
        twice = saliency.aggregate([m, m])
        assert np.array_equal(once, twice)

    def test_permutation_invariance(self):
        ms = self.maps(4, seed=5)
        a = saliency.aggregate(ms)
        b = saliency.aggregate(ms[::-1])
        assert np.allclose(a, b, atol=1e-7)

    def test_values_stay_in_unit_interval(self):
        agg = saliency.aggregate(self.maps(5, seed=9))
        assert agg.min() >= 0.0
        assert agg.max() <= 1.0

    def test_zero_map_contributes_zeros(self):
        ms = self.maps(2, seed=3)
        zero = np.zeros((8, 8, 8), np.float32)
        agg = saliency.aggregate([ms[0], zero])
        expect = ms[0] / ms[0].max() / 2.0
        assert np.allclose(agg, expect, atol=1e-7)

    def test_empty_and_mismatched_rejected(self):
        with pytest.raises(ValueError, match="no maps"):
            saliency.aggregate([])
        a = self.maps(1, extent=8)[0]
        b = self.maps(1, extent=9)[0]
        with pytest.raises(ShapeError):
            saliency.aggregate([a, b])


class TestSmooth:
    """The aggregate map's smoothing: data.gaussian_blur on a float32 map."""

    def bump_map(self, extent=32):
        arr = np.zeros((extent,) * 3, dtype=np.float32)
        g = Rng(8)
        arr[8:24, 8:24, 8:24] = np.abs(g.normal((16, 16, 16))).astype(
            np.float32)
        return arr

    def test_sigma_zero_is_identity(self):
        m = self.bump_map()
        out = gaussian_blur(m, 0.0)
        assert np.array_equal(out, m)

    def test_nonnegative_and_same_extents(self):
        m = self.bump_map()
        out = gaussian_blur(m, SMOOTH_SIGMA)
        assert out.shape == m.shape and out.dtype == np.float32
        assert (out >= 0).all()

    def test_interior_mass_preserved(self):
        # support is >= kernel radius away from every face, so the
        # renormalized kernel conserves the total
        m = self.bump_map()
        out = gaussian_blur(m, 0.8)
        a = float(m.sum(dtype=np.float64))
        b = float(out.sum(dtype=np.float64))
        assert abs(a - b) / a < 1e-4

    def test_smooth_aggregate_pipeline(self):
        maps = TestAggregate().maps(3, seed=2)
        out = gaussian_blur(saliency.aggregate(maps), SMOOTH_SIGMA)
        assert out.shape == maps[0].shape
        assert (out >= 0).all()


def parse_pgm(blob: bytes):
    magic, dims, maxval, rest = blob.split(b"\n", 3)
    w, h = (int(v) for v in dims.split())
    assert magic == b"P5"
    assert maxval == b"255"
    return w, h, rest


class TestExport:
    def any_map(self, extent=16, seed=1):
        return np.abs(Rng(seed).normal((extent,) * 3)).astype(np.float32)

    def test_writes_named_slices_and_volume(self, tmp_path):
        m = self.any_map()
        views = [("axial", 5), ("coronal", 7)]
        paths = saliency.export_slices(m, views, tmp_path / "case")
        assert [p.name for p in paths] == ["case_axial5.pgm",
                                           "case_coronal7.pgm",
                                           "case_map.vol"]
        w, h, body = parse_pgm(paths[0].read_bytes())
        assert (w, h) == (16, 16)
        assert len(body) == 16 * 16
        assert np.array_equal(np.asarray(NativeVolume(paths[2])), m)

    def test_axis_mapping(self, tmp_path):
        m = np.zeros((4, 5, 6), dtype=np.float32)
        paths = saliency.export_slices(
            m, [("sagittal", 0), ("coronal", 0), ("axial", 0)],
            tmp_path / "ax", with_volume=False)
        dims = [parse_pgm(p.read_bytes())[:2] for p in paths]
        # slicing axis 0 leaves (5, 6) -> PGM w=6 h=5, and so on
        assert dims == [(6, 5), (6, 4), (5, 4)]

    def test_constant_slice_is_black(self, tmp_path):
        m = np.full((8, 8, 8), 3.25, dtype=np.float32)
        (p,) = saliency.export_slices(m, [("axial", 2)], tmp_path / "c",
                                      with_volume=False)
        _, _, body = parse_pgm(p.read_bytes())
        assert set(body) == {0}

    def test_min_max_scaling_hits_full_range(self, tmp_path):
        m = self.any_map()
        (p,) = saliency.export_slices(m, [("axial", 3)], tmp_path / "s",
                                      with_volume=False)
        _, _, body = parse_pgm(p.read_bytes())
        assert min(body) == 0
        assert max(body) == 255

    def test_default_views_on_full_extent_map(self, tmp_path):
        m = self.any_map(extent=96, seed=2)
        paths = saliency.export_slices(m, DEFAULT_VIEWS,
                                       tmp_path / "agg")
        assert [p.name for p in paths] == [
            "agg_axial50.pgm", "agg_axial26.pgm", "agg_coronal56.pgm",
            "agg_sagittal26.pgm", "agg_map.vol"]
        for p in paths[:4]:
            w, h, body = parse_pgm(p.read_bytes())
            assert (w, h) == (96, 96)
            assert len(body) == 96 * 96

    def test_bad_views_rejected(self, tmp_path):
        m = self.any_map()
        with pytest.raises(ValueError, match="out of range"):
            saliency.export_slices(m, [("axial", 16)], tmp_path / "x")
        with pytest.raises(ValueError, match="unknown axis"):
            saliency.export_slices(m, [("oblique", 2)], tmp_path / "x")

    def test_views_checked_before_any_file(self, tmp_path):
        m = self.any_map()
        with pytest.raises(ValueError, match="out of range"):
            saliency.export_slices(m, [("axial", 0), ("axial", 16)],
                                   tmp_path / "out" / "x")
        assert not (tmp_path / "out").exists()
