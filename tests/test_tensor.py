import numpy as np
import pytest

from volcnn import tensor as T

# an overflow or invalid value in these tests is a failure, not a warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestInit:
    def test_kaiming_deterministic(self):
        a = T.kaiming_uniform([4, 2, 3, 3, 3], T.Rng(7))
        b = T.kaiming_uniform([4, 2, 3, 3, 3], T.Rng(7))
        assert np.array_equal(a.data, b.data)

    def test_kaiming_bound(self):
        w = T.kaiming_uniform([4, 2, 3, 3, 3], T.Rng(7))
        bound = np.sqrt(6.0 / (2 * 27))
        assert np.max(np.abs(w.data)) <= bound
        # Values actually approach the bound.
        assert np.max(np.abs(w.data)) > 0.5 * bound

    def test_uniform_range(self):
        # the draw kaiming_uniform makes, over [-bound, bound)
        u = T.Rng(1).uniform((1000,), -2.0, 3.0)
        assert u.min() >= -2.0 and u.max() < 3.0


class TestTensorInvariants:
    def test_row_major_offset(self):
        x = T.Tensor(np.arange(24.0).reshape(2, 3, 4))
        assert x.data[1, 2, 3] == x.data.reshape(-1)[1 * 12 + 2 * 4 + 3]

    def test_zero_extent_rejected(self):
        with pytest.raises(T.ShapeError):
            T.Tensor(np.zeros((2, 0, 3)))

    def test_non_float_rejected(self):
        # numbers become f32 (below); anything else is refused
        for data in (np.zeros(3, dtype=bool), np.array(["a", "b"])):
            with pytest.raises(TypeError):
                T.Tensor(data)

    def test_int_input_defaults_to_f32(self):
        assert T.Tensor([1, 2, 3]).dtype == T.F32


class TestRng:
    def test_same_seed_same_stream(self):
        assert np.array_equal(T.Rng(42).raw(100), T.Rng(42).raw(100))

    def test_different_seeds_differ(self):
        assert not np.array_equal(T.Rng(1).raw(10), T.Rng(2).raw(10))

    def test_streams_are_independent(self):
        r = T.Rng(3)
        a = r.stream("init")
        b = r.stream("augment")
        a_seq = a.raw(8)
        # Drawing from a must not perturb b or a re-derived stream.
        assert np.array_equal(T.Rng(3).stream("augment").raw(8), b.raw(8))
        assert np.array_equal(T.Rng(3).stream("init").raw(8), a_seq)

    def test_stream_tokens_matter(self):
        r = T.Rng(9)
        assert not np.array_equal(r.stream("a", 0).raw(4), r.stream("a", 1).raw(4))
        assert not np.array_equal(r.stream("a").raw(4), r.stream("b").raw(4))

    def test_known_values_pinned(self):
        # Frozen from the documented SplitMix64 construction; guards against
        # accidental algorithm drift between versions.
        got = T.Rng(0).raw(3)
        z = []
        key = T._mix64(0)
        for i in range(1, 4):
            z.append(T._mix64((key + i * T._GOLDEN) & T._MASK64))
        assert [int(v) for v in got] == z

    def test_uniform_bounds(self):
        u = T.Rng(5).uniform((10000,))
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_normal_moments(self):
        z = T.Rng(5).normal((20000,))
        assert abs(z.mean()) < 0.03
        assert abs(z.std() - 1.0) < 0.03

    def test_permutation_is_permutation(self):
        p = T.Rng(5).permutation(100)
        assert sorted(p.tolist()) == list(range(100))

    def test_integers_in_range(self):
        v = T.Rng(5).integers(7, (1000,))
        assert v.min() >= 0 and v.max() < 7
        assert set(v.tolist()) == set(range(7))

    @pytest.mark.parametrize("bound", [1, 7, 300])
    @pytest.mark.parametrize("n", [1, 13])
    def test_stream_integers_equal_one_stream_per_row(self, bound, n):
        r = T.Rng(8).stream("accuracy")
        for token, start in (("bootstrap", 0), ("bootstrap", 37), (5, 3)):
            got = r.stream_integers(token, start, 9, bound, n)
            want = [r.stream(token, start + i).integers(bound, (n,))
                    for i in range(9)]
            assert got.dtype == np.int64 and got.shape == (9, n)
            assert np.array_equal(got, np.stack(want))
        assert np.array_equal(r.raw(4), T.Rng(8).stream("accuracy").raw(4))
