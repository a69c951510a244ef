"""Architecture tests: shape progression, config handling, checkpoint
round trips, and end-to-end gradient flow."""

import hashlib
import itertools
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from volcnn import gradcheck, model as m, ops, tensor
from volcnn.tensor import Rng, ShapeError, Tensor

from test_ops import norm_backward_expression

# an overflow or invalid value in these tests is a failure, not a warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

EXPECTED_96 = [
    ("input", (1, 96, 96, 96)),
    ("block1.conv", (4, 96, 96, 96)),
    ("block1.pool", (4, 47, 47, 47)),
    ("block2.conv", (32, 43, 43, 43)),
    ("block2.pool", (32, 21, 21, 21)),
    ("block3.conv", (64, 17, 17, 17)),
    ("block3.pool", (64, 8, 8, 8)),
    ("block4.conv", (64, 6, 6, 6)),
    ("block4.pool", (64, 1, 1, 1)),
    ("flatten", (64,)),
    ("fc1", (1024,)),
    ("fc2", (3,)),
]


class TestShapeProgression:
    def test_full_crop_layer_shapes(self):
        got = m.infer_shapes(m.ModelConfig())
        assert got == EXPECTED_96

    @pytest.mark.parametrize("f", [1, 2, 4, 8])
    def test_widening_scales_channels_only(self, f):
        rows = dict(m.infer_shapes(m.ModelConfig(widening_factor=f)))
        for name, shape in EXPECTED_96:
            if name in ("input", "fc1", "fc2"):
                assert rows[name] == shape
            else:
                assert rows[name] == (shape[0] * f,) + shape[1:]

    def test_extra_blocks_preserve_extent_and_channels(self):
        cfg = m.ModelConfig(extra_blocks=2, crop_extent=32)
        rows = dict(m.infer_shapes(cfg))
        assert rows["extra1.conv"] == rows["block4.pool"]
        assert rows["extra2.conv"] == rows["extra1.conv"]

    def test_first_layer_variants_reach_the_classifier(self):
        for variant in ("K1S1", "K3S2", "K7S4"):
            rows = dict(m.infer_shapes(m.ModelConfig(first_layer=variant)))
            assert rows["fc2"] == (3,)

    def test_small_crop_adaptation(self):
        plan = m.layer_plan(m.ModelConfig(crop_extent=32))
        blocks = {b.name: b for b in plan.blocks}
        # dilation shrinks where the dilated kernel would leave < 2 positions
        assert blocks["block3"].conv.d == 1
        assert blocks["block3"].conv_extent == 5
        assert blocks["block4"].conv.d == 1
        assert blocks["block4"].conv_extent == 2
        assert blocks["block4"].pool == (2, 2)                 # window clamped
        assert plan.flat_features == 64
        # every normalized feature map keeps at least 2 positions
        assert all(b.conv_extent >= 2 for b in plan.blocks)

    def test_full_crop_never_adapts(self):
        plan = m.layer_plan(m.ModelConfig(widening_factor=8))
        dilations = [b.conv.d for b in plan.blocks]
        pools = [b.pool for b in plan.blocks]
        assert dilations == [1, 2, 2, 2]
        assert pools == [(3, 2), (3, 2), (3, 2), (5, 2)]

    def test_undersized_crop_rejected_with_layer_name(self):
        with pytest.raises(ShapeError, match="block2.conv"):
            m.layer_plan(m.ModelConfig(crop_extent=4))

    def test_concat_mode_widens_classifier_input(self):
        base = m.layer_plan(m.ModelConfig(crop_extent=32))
        cat = m.layer_plan(m.ModelConfig(crop_extent=32, age_mode="concat"))
        assert cat.fc1_in == base.fc1_in + 1

    def test_age_rows_only_in_encoded_mode(self):
        plain = dict(m.infer_shapes(m.ModelConfig(crop_extent=32)))
        enc = dict(m.infer_shapes(m.ModelConfig(crop_extent=32, age_mode="encoded")))
        assert "age.fc1" not in plain
        assert enc["age.fc1"] == (512,)
        assert enc["age.fc2"] == (1024,)

    @given(
        crop=st.integers(12, 40),
        f=st.sampled_from([1, 2]),
        first=st.sampled_from(["K1S1", "K3S2", "K7S4"]),
        extra=st.integers(0, 2),
        norm=st.sampled_from(["instance", "batch"]),
        age=st.sampled_from(["none", "encoded", "concat"]),
    )
    @settings(max_examples=12, deadline=None)
    def test_forward_agrees_with_inferred_shapes(self, crop, f, first, extra,
                                                 norm, age):
        cfg = m.ModelConfig(widening_factor=f, norm=norm, first_layer=first,
                            extra_blocks=extra, age_mode=age, crop_extent=crop)
        try:
            rows = dict(m.infer_shapes(cfg))
        except ShapeError:
            return
        net = m.build(cfg, Rng(1))
        x = Tensor(Rng(2).normal((2, 1, crop, crop, crop)).astype(np.float32))
        ages = [70.0, 80.5] if age != "none" else None
        logits, _ = m.forward(net, x, ages, "train")
        assert logits.shape == (2,) + rows["fc2"]
        assert net.params["fc1.weight"].shape == (1024, rows["flatten"][0])


class TestConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            m.ModelConfig(widening_factor=0)
        with pytest.raises(ValueError):
            m.ModelConfig(norm="group")
        with pytest.raises(ValueError):
            m.ModelConfig(first_layer="K9S1")
        with pytest.raises(ValueError):
            m.ModelConfig(age_mode="embed")

    def test_age_modes_share_backbone_init(self):
        nets = {
            mode: m.build(m.ModelConfig(crop_extent=32, age_mode=mode), Rng(77))
            for mode in ("none", "encoded", "concat")
        }
        for name in ("block1.conv.weight", "block3.conv.weight", "fc2.weight"):
            base = nets["none"].params[name].data
            np.testing.assert_array_equal(nets["encoded"].params[name].data, base)
            np.testing.assert_array_equal(nets["concat"].params[name].data, base)

    def test_build_is_deterministic(self):
        cfg = m.ModelConfig(crop_extent=32)
        a = m.build(cfg, Rng(5))
        b = m.build(cfg, Rng(5))
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].data, b.params[name].data)

    @pytest.mark.parametrize("axis, digest", [
        ({}, "a88a41653bf7e4b8779f8a07b14252c523d7b4cb0845c1f4e9ee96dd9bd12550"),
        ({"norm": "batch", "age_mode": "encoded", "extra_blocks": 2,
          "widening_factor": 2},
         "9329a0a7b4fe09271ccc914e041f2ae50929ace9734558350d6fb38b9a198f8d"),
        ({"first_layer": "K7S4", "age_mode": "concat"},
         "822ab2d1ef62b733f5ded8731bc5683eb959765bc7879255570b94c3ec9b17bc"),
    ])
    def test_init_digest_pinned(self, axis, digest):
        # SHA-256 over every tensor's name and float32 bytes, by name: the
        # initialization of each architecture axis, pinned
        net = m.build(m.ModelConfig(crop_extent=32, **axis), Rng(7))
        named = {**net.params, **net.buffers}
        h = hashlib.sha256()
        for name in sorted(named):
            h.update(name.encode())
            h.update(named[name].data.tobytes())
        assert h.hexdigest() == digest

    def test_build_peak_near_parameter_bytes(self):
        # Each weight is drawn in chunks of INIT_CHUNK straight into its
        # own dtype: at f=2, crop 32 the build peaks 1.5 MiB above the
        # 6.2 MiB of tensors it returns (numpy 2.4). Drawing a weight whole
        # in float64 first read 17.3 MiB above them.
        cfg = m.ModelConfig(crop_extent=32, widening_factor=2)
        tracemalloc.start()
        try:
            net = m.build(cfg, Rng(7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(t.data.nbytes for t in [*net.params.values(),
                                           *net.buffers.values()])
        assert peak <= kept + 32 * tensor.INIT_CHUNK, (peak, kept)


class TestForwardBackward:
    def test_zeroed_parameters_give_constant_logits(self):
        cfg = m.ModelConfig(crop_extent=16)
        net = m.build(cfg, Rng(1))
        for t in net.params.values():
            t.data[...] = 0.0
        x = Tensor(Rng(2).normal((2, 1, 16, 16, 16)).astype(np.float32))
        logits, _ = m.forward(net, x, None, "eval")
        np.testing.assert_array_equal(logits.data, 0.0)

    def test_encoded_age_changes_logits(self):
        cfg = m.ModelConfig(crop_extent=16, age_mode="encoded")
        net = m.build(cfg, Rng(3))
        x = Tensor(Rng(4).normal((1, 1, 16, 16, 16)).astype(np.float32))
        l1, _ = m.forward(net, x, [60.0], "eval")
        l2, _ = m.forward(net, x, [90.0], "eval")
        assert not np.allclose(l1.data, l2.data)

    def test_age_ignored_without_age_mode(self):
        cfg = m.ModelConfig(crop_extent=16)
        net = m.build(cfg, Rng(3))
        x = Tensor(Rng(4).normal((1, 1, 16, 16, 16)).astype(np.float32))
        l1, _ = m.forward(net, x, None, "eval")
        l2, _ = m.forward(net, x, [55.0], "eval")
        np.testing.assert_array_equal(l1.data, l2.data)

    def test_missing_ages_rejected(self):
        cfg = m.ModelConfig(crop_extent=16, age_mode="encoded")
        net = m.build(cfg, Rng(3))
        x = Tensor(np.zeros((1, 1, 16, 16, 16), dtype=np.float32))
        with pytest.raises(ValueError, match="requires ages"):
            m.forward(net, x, None, "eval")

    @pytest.mark.parametrize("mode", ["concat", "encoded"])
    @pytest.mark.parametrize("age", [500.0, -5.0, float("nan")])
    def test_age_out_of_range_rejected(self, mode, age):
        net = m.build(m.ModelConfig(crop_extent=16, age_mode=mode), Rng(3))
        x = Tensor(Rng(4).normal((2, 1, 16, 16, 16)).astype(np.float32))
        for tape in (True, False):
            with pytest.raises(ValueError, match="outside"):
                m.forward(net, x, [70.0, age], "eval", tape=tape)

    def test_in_range_ages_reach_the_network_unchanged(self):
        # the bounds are inclusive; concat feeds age / 120 and encoded the
        # sinusoidal code, as before the bound was checked in forward
        ages = [0.0, 63.5, 120.0]
        x = Tensor(Rng(4).normal((3, 1, 16, 16, 16)).astype(np.float32))
        concat = m.build(m.ModelConfig(crop_extent=16, age_mode="concat"),
                         Rng(3))
        _, tape = m.forward(concat, x, ages, "eval")
        fc1_in = next(e[1] for e in tape.entries if e[0] == "fc1")
        want = (np.array(ages) / 120.0).astype(np.float32)
        assert fc1_in.data[:, -1].tobytes() == want.tobytes()
        encoded = m.build(m.ModelConfig(crop_extent=16, age_mode="encoded"),
                          Rng(3))
        _, tape = m.forward(encoded, x, ages, "eval")
        ae = next(e[1] for e in tape.entries if e[0] == "age_head")
        want = np.stack([m.ops.age_encode(a).data for a in ages])
        assert ae.data.tobytes() == want.tobytes()

    def test_wrong_input_shape_rejected(self):
        net = m.build(m.ModelConfig(crop_extent=16), Rng(1))
        with pytest.raises(ShapeError, match="expected"):
            m.forward(net, Tensor(np.zeros((1, 1, 16, 16, 8), dtype=np.float32)))

    def test_batch_norm_stats_update_only_in_train(self):
        cfg = m.ModelConfig(crop_extent=16, norm="batch")
        net = m.build(cfg, Rng(6))
        x = Tensor(Rng(7).normal((2, 1, 16, 16, 16)).astype(np.float32))
        before = net.buffers["block1.norm.running_mean"].data.copy()
        m.forward(net, x, None, "eval")
        np.testing.assert_array_equal(
            net.buffers["block1.norm.running_mean"].data, before)
        m.forward(net, x, None, "train")
        assert not np.array_equal(
            net.buffers["block1.norm.running_mean"].data, before)

    def test_stale_tape_rejected(self):
        net = m.build(m.ModelConfig(crop_extent=16), Rng(8))
        x = Tensor(Rng(9).normal((1, 1, 16, 16, 16)).astype(np.float32))
        logits, tape = m.forward(net, x, None, "eval")
        net.note_update()
        with pytest.raises(ValueError, match="stale tape"):
            m.backward(net, tape, Tensor(np.ones_like(logits.data)))

    def test_backward_consumes_the_tape(self, monkeypatch):
        net = m.build(m.ModelConfig(crop_extent=16), Rng(8))
        x = Tensor(Rng(9).normal((2, 1, 16, 16, 16)).astype(np.float32))
        logits, tape = m.forward(net, x, None, "train")
        grad = Tensor(np.ones_like(logits.data))
        m.backward(net, tape, grad)
        assert tape.entries == []

        def no_work(*args):
            raise AssertionError("backward ran a layer")

        monkeypatch.setattr(m, "_backward_entry", no_work)
        with pytest.raises(ValueError, match="tape already consumed"):
            m.backward(net, tape, grad)

    def test_backward_covers_every_parameter(self):
        for age in ("none", "encoded", "concat"):
            cfg = m.ModelConfig(crop_extent=16, age_mode=age, extra_blocks=1)
            net = m.build(cfg, Rng(10))
            x = Tensor(Rng(11).normal((2, 1, 16, 16, 16)).astype(np.float32))
            ages = [70.0, 80.0] if age != "none" else None
            logits, tape = m.forward(net, x, ages, "train")
            grads, gx = m.backward(net, tape, Tensor(np.ones_like(logits.data)))
            assert set(grads) == set(net.params)
            assert gx.shape == x.shape

    def test_end_to_end_gradients(self):
        for res in gradcheck.check_model():
            assert res.passed, f"{res.name}: rel err {res.rel_err:.3e}"

    def test_no_surviving_coordinate_fails_the_check(self, monkeypatch):
        real = m.activation_pattern
        calls = itertools.count()

        def activation_pattern(tape):
            # a pattern that differs on every call, so each coordinate
            # looks like it straddles a kink
            return real(tape) + str(next(calls)).encode()

        monkeypatch.setattr(m, "activation_pattern", activation_pattern)
        (res,) = gradcheck.check_model(n_coords=1)
        assert res.rel_err == float("inf")
        assert not res.passed
        assert "FAIL" in gradcheck.format_report([res])


ABLATION_VALUES = {
    "default": {}, "f=2": {"widening_factor": 2}, "batch": {"norm": "batch"},
    "K3S2": {"first_layer": "K3S2"}, "K7S4": {"first_layer": "K7S4"},
    "extra1": {"extra_blocks": 1}, "extra2": {"extra_blocks": 2},
    "encoded": {"age_mode": "encoded"}, "concat": {"age_mode": "concat"},
}
# a map shrunk to one voxel before an instance norm: see ROADMAP item 14
DEAD = {(32, "K3S2"), (32, "K7S4"), (32, "extra1"), (32, "extra2"),
        (96, "K7S4"), (96, "extra1"), (96, "extra2")}


class TestLiveness:
    """Every ablation value is a live network at init: two inputs give
    different logits, and the loss reaches every parameter."""

    @pytest.mark.parametrize("crop, value", [
        pytest.param(crop, value, id=f"crop{crop}-{value}", marks=(
            [pytest.mark.xfail(raises=AssertionError, strict=True,
                               reason="ROADMAP item 14")]
            if (crop, value) in DEAD else []))
        for crop in (32, 96) for value in ABLATION_VALUES])
    def test_logits_and_gradients_depend_on_the_input(self, crop, value):
        cfg = m.ModelConfig(crop_extent=crop, **ABLATION_VALUES[value])
        net = m.build(cfg, Rng(20))
        x = Tensor(Rng(21).normal((2, 1, crop, crop, crop)).astype(np.float32))
        logits, tape = m.forward(net, x, [70.0, 70.0], "train")
        _, grad, _ = ops.softmax_xent(logits, [0, 2])
        grads, _ = m.backward(net, tape, grad)
        assert not np.array_equal(logits.data[0], logits.data[1])
        assert [n for n in net.params if not grads[n].data.any()] == []


class TestTapeFree:
    @pytest.mark.parametrize("axis", [
        {}, {"widening_factor": 2}, {"extra_blocks": 1}, {"norm": "batch"},
        {"first_layer": "K3S2"}, {"first_layer": "K7S4"},
        {"age_mode": "concat"}, {"age_mode": "encoded"},
    ])
    def test_logits_equal_taped_eval(self, axis):
        net = m.build(m.ModelConfig(crop_extent=32, **axis), Rng(21))
        # biases, affine params and running stats off their initial values,
        # so the norm's affine step and batch norm's eval stats do work
        g = Rng(22)
        for name, t in list(net.params.items()) + list(net.buffers.items()):
            if name.endswith((".gamma", ".running_var")):
                t.data[...] = 1.0 + 0.2 * g.stream(name).normal(t.shape)
            elif not name.endswith(".weight"):
                t.data[...] = 0.1 * g.stream(name).normal(t.shape)
        x = Tensor(Rng(23).normal((2, 1, 32, 32, 32)).astype(np.float32))
        ages = [63.5, 81.0] if net.config.age_mode != "none" else None
        taped, tape = m.forward(net, x, ages, "eval")
        free, no_tape = m.forward(net, x, ages, "eval", tape=False)
        assert tape is not None and no_tape is None
        assert free.data.dtype == taped.data.dtype
        assert free.data.tobytes() == taped.data.tobytes()

    def test_forward_without_tape_never_computes_pool_indices(self, monkeypatch):
        real = m.ops.maxpool3d_argmax
        calls = []

        def counted(*args):
            calls.append(args[2:])
            return real(*args)

        real_pool, pooled = m.ops.maxpool3d_forward, []

        def pool_counted(x, k, s):
            pooled.append(x.shape[0])
            return real_pool(x, k, s)

        monkeypatch.setattr(m.ops, "maxpool3d_argmax", counted)
        monkeypatch.setattr(m.ops, "maxpool3d_forward", pool_counted)
        net = m.build(m.ModelConfig(crop_extent=16), Rng(8))
        x = Tensor(Rng(9).normal((2, 1, 16, 16, 16)).astype(np.float32))
        m.forward(net, x, None, "eval", tape=False)
        assert calls == []
        # without a tape block1 pools a sample at a time, blocks 2-4 the
        # whole batch at once
        assert pooled == [1, 1, 2, 2, 2]
        logits, tape = m.forward(net, x, None, "train")
        # a taped pool takes each sample's indices on its own
        assert calls == [bp.pool for bp in net.plan.blocks for _ in range(2)]
        m.backward(net, tape, Tensor(np.ones_like(logits.data)))

    def test_forward_without_tape_builds_no_norm_cache(self, monkeypatch):
        # batch norm in eval mode and the age head's layer norm honour tape
        def no_cache(*args, **kwargs):
            raise AssertionError("norm cache built")

        net = m.build(m.ModelConfig(crop_extent=16, norm="batch",
                                    age_mode="encoded"), Rng(8))
        x = Tensor(Rng(9).normal((2, 1, 16, 16, 16)).astype(np.float32))
        monkeypatch.setattr(m.ops, "NormCache", no_cache)
        m.forward(net, x, [63.5, 81.0], "eval", tape=False)
        with pytest.raises(AssertionError, match="norm cache"):
            m.forward(net, x, [63.5, 81.0], "eval")

    @pytest.mark.parametrize("axis", [{}, {"norm": "batch"},
                                      {"first_layer": "K7S4"}])
    def test_input_left_unchanged(self, axis):
        # norm and ReLU write in place only into buffers forward made
        net = m.build(m.ModelConfig(crop_extent=32, **axis), Rng(8))
        x = Tensor(Rng(9).normal((2, 1, 32, 32, 32)).astype(np.float32))
        before = x.data.tobytes()
        m.forward(net, x, None, "eval", tape=False)
        assert x.data.tobytes() == before

    def test_peak_memory_below_taped_forward(self):
        # In block1 activations (crop 32, batch 4: 2.1 MB), measured with
        # numpy 2.4: block1 runs a sample at a time, so without a tape the
        # forward peaks at 0.76, and the taped forward, which holds what
        # backward needs, at 1.27. A whole-batch block1 conv output read
        # 1.71 and 1.67; a whole-batch y 2.71, and a taped norm that also
        # kept its input beside xhat and y 3.25.
        net = m.build(m.ModelConfig(crop_extent=32), Rng(24))
        x = Tensor(Rng(25).normal((4, 1, 32, 32, 32)).astype(np.float32))
        activation = 4 * 4 * 32 ** 3 * 4   # block1: 4 channels, float32
        peaks = {}
        for tape in (True, False):
            tracemalloc.start()
            try:
                out = m.forward(net, x, None, "eval", tape=tape)
                peaks[tape] = tracemalloc.get_traced_memory()[1] / activation
            finally:
                tracemalloc.stop()
            del out
        assert peaks[False] <= 0.8, peaks
        assert peaks[True] <= 1.33, peaks

    def test_peak_below_two_block1_activations(self):
        # Each block's activation is freed before the next block's conv
        # output is complete. Block1's conv output exists a sample at a
        # time, so the peak is 1.29 activations; with it whole it was 1.72,
        # and a name holding the previous block's activation through the
        # next conv made that 2.14.
        n, e = 2, 48
        net = m.build(m.ModelConfig(crop_extent=e), Rng(24))
        x = Tensor(Rng(25).normal((n, 1, e, e, e)).astype(np.float32))
        tracemalloc.start()
        try:
            out = m.forward(net, x, None, "eval", tape=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del out
        activation = n * 4 * e ** 3 * 4   # block1: 4 channels, float32
        assert peak <= 2.0 * activation, peak / activation


def step_peak(n: int, crop: int) -> float:
    """tracemalloc's peak over a taped forward and its backward, in block1
    activations (4 channels, float32)."""
    net = m.build(m.ModelConfig(crop_extent=crop), Rng(24))
    x = Tensor(Rng(25).normal((n, 1, crop, crop, crop)).astype(np.float32))
    tracemalloc.start()
    try:
        logits, tape = m.forward(net, x, None, "train")
        grads, _ = m.backward(net, tape, Tensor(np.ones_like(logits.data)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert set(grads) == set(net.params)
    return peak / (n * 4 * crop ** 3 * 4)


class TestStepMemory:
    def test_train_step_peak(self):
        # Crop 32, batch 4, peak at 2.05 block1 activations (numpy 2.4):
        # block1's conv, norm and pool run a sample at a time in forward,
        # and in backward each sample's rebuilt xhat becomes its dx and goes
        # straight into its conv backward; the other pooling blocks form y,
        # route their gradient and sum their products a sample at a time,
        # dx overwrites xhat, and the conv backward holds one column slab
        # and pads one sample. Block1 whole in forward and its dx whole in
        # backward read 2.69; a whole-batch y and routed gradient with
        # block1's xhat on the tape 3.32; a norm that also kept its input
        # beside xhat and y, a norm backward with a full-size scratch
        # buffer, and a conv backward with a second slab 3.91.
        assert step_peak(4, 32) <= 2.1

    def test_train_step_peak_crop48(self):
        # Block1 grows with the crop faster than the rest of the network,
        # so at crop 48 the step peaks at 1.35 activations; with block1
        # whole in forward and its dx whole in backward it read 2.04.
        assert step_peak(4, 48) <= 1.4

    def test_batch_one_step_peak(self):
        # At batch 1 a sample is the batch: block1's rebuilt xhat becomes
        # dx in its own array, and its conv backward's input gradient is
        # returned as it is, with no second full-size array to copy either
        # into. Crop 48 peaks at 3.48 block1 activations (numpy 2.4); a
        # copy of dx reads 4.5, and the whole-batch composition read 4.01.
        assert step_peak(1, 48) <= 3.6


def whole_batch_step(net, x, ages, mode, labels):
    """A taped forward and its backward composed batch-wide, from the ops:
    every norm forms its whole y and keeps its xhat, every pool routes the
    whole gradient, and norm_backward_expression takes each norm back. The
    test-only oracle of model.forward and model.backward, which go a
    sample at a time through each pooling block. Returns (logits, grads,
    input gradient) and updates batch norm's running stats as they do."""
    cfg, n = net.config, x.shape[0]
    par = net.params
    saved = []
    h = x
    for bp in net.plan.blocks:
        w, b = par[f"{bp.name}.conv.weight"], par[f"{bp.name}.conv.bias"]
        gamma, beta = par[f"{bp.name}.norm.gamma"], par[f"{bp.name}.norm.beta"]
        u = ops.conv3d_forward(h, w, b, bp.conv)
        if bp.norm == "batch":
            keys = [f"{bp.name}.norm.running_{k}" for k in ("mean", "var")]
            y, cache, *stats = ops.batch_norm_forward(
                u, gamma, beta, *(net.buffers[k] for k in keys), mode)
            net.buffers.update(zip(keys, stats))
        else:
            y, cache = ops.instance_norm_forward(u, gamma, beta)
        pool = None
        if bp.pool is not None:
            pooled = ops.maxpool3d_forward(y, *bp.pool)
            pool = (ops.maxpool3d_argmax(y, pooled, *bp.pool), *bp.pool,
                    y.shape)
            y = pooled
        saved.append((bp, h, cache, pool, y.data))  # relu writes h over y
        h = ops.relu(y)
    feats = h.data.reshape(n, -1)
    if cfg.age_mode == "concat":
        col = (np.asarray(ages) / m.MAX_AGE).astype(x.dtype).reshape(n, 1)
        feats = np.concatenate([feats, col], axis=1)
    z = ops.linear_forward(Tensor(feats), par["fc1.weight"], par["fc1.bias"])
    if cfg.age_mode == "encoded":
        ae = ops.age_encode(ages, x.dtype)
        a1 = ops.linear_forward(ae, par["age.fc1.weight"], par["age.fc1.bias"])
        a1n, ln_cache = ops.layer_norm_forward(a1, par["age.norm.gamma"],
                                               par["age.norm.beta"])
        z.data += ops.linear_forward(a1n, par["age.fc2.weight"],
                                     par["age.fc2.bias"]).data
    h2 = ops.relu(z)
    logits = ops.linear_forward(h2, par["fc2.weight"], par["fc2.bias"])

    grads = {}
    _, g, _ = ops.softmax_xent(logits, labels)
    g, grads["fc2.weight"], grads["fc2.bias"] = ops.linear_backward(
        g, h2, par["fc2.weight"])
    g = ops.relu_backward(g, h2.data)
    if cfg.age_mode == "encoded":
        ga, grads["age.fc2.weight"], grads["age.fc2.bias"] = (
            ops.linear_backward(g, a1n, par["age.fc2.weight"]))
        ga, grads["age.norm.gamma"], grads["age.norm.beta"] = (
            norm_backward_expression(ga.data, ln_cache))
        _, grads["age.fc1.weight"], grads["age.fc1.bias"] = (
            ops.linear_backward(Tensor(ga), ae, par["age.fc1.weight"]))
    g, grads["fc1.weight"], grads["fc1.bias"] = ops.linear_backward(
        g, Tensor(feats), par["fc1.weight"])
    g = g.data[:, :net.plan.flat_features].reshape(h.shape)
    for bp, x_in, cache, pool, out in reversed(saved):
        g = ops.relu_backward(Tensor(g), out)
        if pool is not None:
            g = ops.maxpool3d_backward(g, *pool)
        g, dgamma, dbeta = norm_backward_expression(g.data, cache)
        grads[f"{bp.name}.norm.gamma"] = dgamma
        grads[f"{bp.name}.norm.beta"] = dbeta
        g, grads[f"{bp.name}.conv.weight"], grads[f"{bp.name}.conv.bias"] = (
            ops.conv3d_backward(Tensor(g), x_in, par[f"{bp.name}.conv.weight"],
                                bp.conv))
        g = g.data
    return logits, {k: np.asarray(getattr(v, "data", v))
                    for k, v in grads.items()}, g


class TestWholeBatchOracle:
    """A training step, a sample at a time through each pooling block with
    block1's conv, norm and pool never whole and its xhat rebuilt, gives the
    bytes of the whole-batch composition, and so does a tape-free forward."""

    @pytest.mark.parametrize("crop, n, dtype, mode, axis, inputs", [
        (32, 4, np.float32, "train", {}, "ties"),
        (32, 4, np.float32, "train", {}, "nan"),
        (32, 4, np.float32, "train", {}, "normal"),
        (32, 3, np.float64, "train", {"norm": "batch"}, "normal"),
        (48, 4, np.float32, "eval", {"norm": "batch"}, "normal"),
        (32, 1, np.float32, "eval", {"norm": "batch"}, "normal"),
        (48, 1, np.float64, "train", {"first_layer": "K3S2"}, "normal"),
        (32, 3, np.float32, "train", {"first_layer": "K7S4", "norm": "batch"}, "normal"),
        (48, 3, np.float32, "train", {"first_layer": "K7S4",
                                      "age_mode": "encoded"}, "normal"),
        (32, 4, np.float64, "train", {"widening_factor": 2,
                                      "age_mode": "concat"}, "normal"),
        (48, 4, np.float32, "train", {"widening_factor": 2, "extra_blocks": 1,
                                      "norm": "batch"}, "normal"),
        (32, 1, np.float32, "train", {"extra_blocks": 1,
                                      "age_mode": "encoded"}, "normal"),
        (48, 3, np.float64, "eval", {"first_layer": "K3S2", "norm": "batch",
                                     "age_mode": "concat"}, "normal"),
        (32, 4, np.float32, "train", {"widening_factor": 2,
                                      "first_layer": "K3S2", "norm": "batch",
                                      "age_mode": "encoded"}, "normal"),
        (32, 4, np.float32, "train", {"norm": "batch"}, "ties"),
        (32, 3, np.float64, "train", {"norm": "batch", "first_layer": "K7S4",
                                      "widening_factor": 2}, "nan"),
        (32, 4, np.float32, "eval", {"norm": "batch", "first_layer": "K3S2"},
         "nan"),
        (32, 1, np.float64, "train", {"first_layer": "K7S4",
                                      "widening_factor": 2}, "ties"),
        (48, 3, np.float32, "train", {"first_layer": "K3S2"}, "nan"),
        (32, 4, np.float64, "eval", {"widening_factor": 2}, "ties"),
        (32, 4, np.float32, "train", {}, "zeros"),
    ])
    def test_step_bytes_equal_whole_batch(self, crop, n, dtype, mode, axis,
                                          inputs):
        cfg = m.ModelConfig(crop_extent=crop, **axis)
        nets = [m.build(cfg, Rng(31), dtype) for _ in range(3)]
        for net in nets:  # affine params and running stats do work
            g = Rng(32)
            for name, t in list(net.params.items()) + list(net.buffers.items()):
                if name.endswith((".gamma", ".running_var")):
                    t.data[...] = 1.0 + 0.2 * g.stream(name).normal(t.shape)
                elif not name.endswith(".weight"):
                    t.data[...] = 0.1 * g.stream(name).normal(t.shape)
            if inputs == "zeros":  # each block's last channel's y is +-0
                for bp in net.plan.blocks:
                    net.params[f"{bp.name}.norm.gamma"].data[-1] = 0.0
                    net.params[f"{bp.name}.norm.beta"].data[-1] = -0.0
        x = Rng(33).normal((n, 1, crop, crop, crop))
        if inputs == "ties":  # integer voxels tie in many pool windows
            x = np.round(x * 2.0)
        elif inputs == "zeros":  # so the ReLU sees +-0 at the pooled extent
            x = np.where(np.abs(x) < 0.5, -0.0, x)
        elif inputs == "nan":  # one sample's NaN windows through every block
            x[0, 0, 5, 6, 7] = np.nan
        ages = [63.5 + 7 * i for i in range(n)]
        labels = [i % 3 for i in range(n)]
        ages_in = ages if cfg.age_mode != "none" else None

        logits, tape = m.forward(nets[0], Tensor(x.astype(dtype)), ages_in,
                                 mode)
        _, grad, _ = ops.softmax_xent(logits, labels)
        grads, gx = m.backward(nets[0], tape, grad)
        want_logits, want_grads, want_gx = whole_batch_step(
            nets[1], Tensor(x.astype(dtype)), ages, mode, labels)
        free, _ = m.forward(nets[2], Tensor(x.astype(dtype)), ages_in, mode,
                            tape=False)

        if inputs == "nan":  # sample 0 is NaN through, the others are not
            assert np.isnan(logits.data[0]).all()  # unless batch stats mix
            mixed = cfg.norm == "batch" and mode == "train"
            assert np.isnan(logits.data[1:]).all() == mixed
            assert np.isnan(logits.data[1:]).any() == mixed
        assert logits.data.tobytes() == want_logits.data.tobytes()
        assert free.data.tobytes() == want_logits.data.tobytes()
        assert grads.keys() == want_grads.keys()
        for name, t in grads.items():
            assert t.data.dtype == want_grads[name].dtype, name
            assert t.data.tobytes() == want_grads[name].tobytes(), name
        assert gx.data.tobytes() == want_gx.tobytes()
        for name, t in nets[1].buffers.items():
            for net in (nets[0], nets[2]):
                assert net.buffers[name].data.tobytes() == t.data.tobytes()


def tape_footprint(tape) -> dict[str, int]:
    """Summed nbytes of the saved state per kind: block conv inputs, norm
    xhat (the age head's layer norm included; block1 keeps none), pool tap
    keys and linear-layer inputs."""
    kinds = dict.fromkeys(("conv", "norm", "pool", "linear"), 0)
    for e in tape.entries:
        if e[0] == "block":
            _, _, x_in, cache, taps = e
            kinds["conv"] += x_in.data.nbytes
            kinds["norm"] += 0 if cache.xhat is None else cache.xhat.nbytes
            kinds["pool"] += 0 if taps is None else taps.nbytes
        elif e[0] == "age_head":
            kinds["norm"] += e[2].xhat.nbytes
        elif e[0] in ("fc1", "fc2"):
            kinds["linear"] += e[1].data.nbytes
    return kinds


class TestTapeFootprint:
    @pytest.mark.parametrize("axis", [
        {}, {"widening_factor": 2}, {"norm": "batch"}, {"extra_blocks": 1},
        {"age_mode": "concat"}, {"age_mode": "encoded"},
    ])
    def test_matches_inferred_shapes(self, axis):
        # Pool tap keys take 1 byte per pool-output voxel, norm xhat and
        # conv inputs the dtype's itemsize. Block1's xhat is rebuilt in
        # backward, so it is not on the tape, and no ReLU mask is: backward
        # takes each from the ReLU output the tape holds as an input.
        cfg = m.ModelConfig(crop_extent=32, **axis)
        net = m.build(cfg, Rng(26))
        n, item = 2, np.dtype(np.float32).itemsize
        x = Tensor(Rng(27).normal((n, 1, 32, 32, 32)).astype(np.float32))
        ages = [63.5, 81.0] if cfg.age_mode != "none" else None
        _, tape = m.forward(net, x, ages, "train")

        rows = m.infer_shapes(cfg)
        size = {name: n * int(np.prod(shape)) for name, shape in rows}
        convs = [i for i, (name, _) in enumerate(rows) if name.endswith(".conv")]
        conv_out = sum(size[rows[i][0]] for i in convs)
        pooled = sum(v for k, v in size.items() if k.endswith(".pool"))
        want = {
            "conv": item * sum(size[rows[i - 1][0]] for i in convs),
            "norm": item * (conv_out - size["block1.conv"]
                            + size.get("age.fc1", 0)),
            "pool": pooled,
            "linear": item * (size["flatten"] + size["fc1"]),
        }
        assert tape_footprint(tape) == want
        blocks = len(net.plan.blocks)
        assert len(tape.entries) == blocks + 3 + (cfg.age_mode != "none")
        assert [e[0] for e in tape.entries[:blocks]] == ["block"] * blocks
        taps = [e[4] for e in tape.entries[:blocks] if e[4] is not None]
        assert {t.dtype for t in taps} == {np.dtype(np.uint8)}


class TestCheckpoint:
    def make_net(self, tmp_path, **kw):
        cfg = m.ModelConfig(crop_extent=32, **kw)
        net = m.build(cfg, Rng(13))
        return cfg, net, tmp_path / "ck.bin"

    def test_round_trip_bit_exact(self, tmp_path):
        cfg, net, path = self.make_net(tmp_path, norm="batch", age_mode="encoded",
                                       extra_blocks=1)
        m.save_checkpoint(path, net, {"val_loss": "0.75", "epoch": "3"})
        loaded, extra = m.load_checkpoint(path)
        assert loaded.config == cfg
        assert extra == {"val_loss": "0.75", "epoch": "3"}
        for name, t in net.params.items():
            np.testing.assert_array_equal(loaded.params[name].data, t.data)
        for name, t in net.buffers.items():
            np.testing.assert_array_equal(loaded.buffers[name].data, t.data)

    def test_load_draws_nothing(self, tmp_path, monkeypatch):
        # build places the file's tensors, so no weight is drawn and thrown
        # away
        _, net, path = self.make_net(tmp_path, norm="batch",
                                     age_mode="encoded", extra_blocks=1)
        m.save_checkpoint(path, net)

        def no_draw(*args, **kwargs):
            raise AssertionError("kaiming_uniform drew a weight")

        monkeypatch.setattr(tensor, "kaiming_uniform", no_draw)
        loaded, _ = m.load_checkpoint(path)
        _, _, stored = m._read_checkpoint(path)
        got = {**loaded.params, **loaded.buffers}
        assert got.keys() == stored.keys()
        assert list(loaded.params) == list(net.params)
        assert list(loaded.buffers) == list(net.buffers)
        for name, t in stored.items():
            assert got[name].data.dtype == t.data.dtype == np.float32
            assert got[name].data.tobytes() == t.data.tobytes()

    def test_rewrite_is_byte_identical(self, tmp_path):
        _, net, path = self.make_net(tmp_path)
        m.save_checkpoint(path, net, {"val_loss": "1.0"})
        first = path.read_bytes()
        loaded, extra = m.load_checkpoint(path)
        m.save_checkpoint(path, loaded, extra)
        assert path.read_bytes() == first

    def test_interrupted_save_keeps_previous(self, tmp_path):
        _, net, path = self.make_net(tmp_path)
        m.save_checkpoint(path, net, {"val_loss": "1.0"})
        before = path.read_bytes()

        class Unreadable:
            @property
            def data(self):
                raise RuntimeError("killed mid-write")

        # sorts after every other tensor, so the save fails mid-file
        net.params["zz.unreadable"] = Unreadable()
        with pytest.raises(RuntimeError, match="mid-write"):
            m.save_checkpoint(path, net, {"val_loss": "0.5"})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def rewrite_header(self, path, edit):
        raw = path.read_bytes()
        (cfg_len,) = struct.unpack_from("<I", raw, 12)
        lines = raw[16:16 + cfg_len].decode().splitlines(keepends=True)
        header = "".join(edit(lines))
        path.write_bytes(raw[:12] + struct.pack("<I", len(header))
                         + header.encode() + raw[16 + cfg_len:])

    def test_header_with_retired_keys_loads(self, tmp_path):
        # checkpoints written while the config still carried eps and
        # num_classes load; those keys come back as extra entries
        _, net, path = self.make_net(tmp_path)
        m.save_checkpoint(path, net, {"val_loss": "1.0"})
        self.rewrite_header(path, lambda lines: sorted(
            lines + ["eps=1e-05\n", "num_classes=3\n"]))
        loaded, extra = m.load_checkpoint(path)
        assert loaded.config == net.config
        assert extra == {"eps": "1e-05", "num_classes": "3", "val_loss": "1.0"}
        for name, t in net.params.items():
            np.testing.assert_array_equal(loaded.params[name].data, t.data)

    def test_normalize_false_round_trips(self, tmp_path):
        cfg, net, path = self.make_net(tmp_path, norm="batch", normalize=False)
        m.save_checkpoint(path, net)
        assert b"normalize=False\n" in path.read_bytes()
        loaded, _ = m.load_checkpoint(path)
        assert loaded.config == cfg and loaded.config.normalize is False

    def test_header_without_normalize_loads_as_true(self, tmp_path):
        # checkpoints written while normalize was a training setting
        _, net, path = self.make_net(tmp_path)
        m.save_checkpoint(path, net, {"val_loss": "1.0"})
        self.rewrite_header(path, lambda lines: [
            ln for ln in lines if not ln.startswith("normalize=")])
        loaded, extra = m.load_checkpoint(path)
        assert loaded.config == net.config and loaded.config.normalize is True
        assert extra == {"val_loss": "1.0"}
        for name, t in net.params.items():
            np.testing.assert_array_equal(loaded.params[name].data, t.data)

    @pytest.mark.parametrize("value", ["true", "1", ""])
    def test_normalize_must_be_true_or_false(self, tmp_path, value):
        _, net, path = self.make_net(tmp_path)
        m.save_checkpoint(path, net)
        self.rewrite_header(path, lambda lines: [
            f"normalize={value}\n" if ln.startswith("normalize=") else ln
            for ln in lines])
        with pytest.raises(ValueError, match="not True or False") as info:
            m.load_checkpoint(path)
        assert str(info.value).count(str(path)) == 1

    def test_bad_magic_rejected(self, tmp_path):
        _, net, path = self.make_net(tmp_path)
        m.save_checkpoint(path, net)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="not a checkpoint"):
            m.load_checkpoint(path)

    def test_truncation_names_failure(self, tmp_path):
        _, net, path = self.make_net(tmp_path)
        m.save_checkpoint(path, net)
        raw = path.read_bytes()
        path.write_bytes(raw[: int(len(raw) * 0.6)])
        with pytest.raises(ValueError, match="truncated"):
            m.load_checkpoint(path)

    @pytest.mark.parametrize("extent", [2**40, 2**63, 2**64 - 1])
    def test_oversized_extent_rejected(self, tmp_path, extent):
        _, net, path = self.make_net(tmp_path)
        m.save_checkpoint(path, net)
        raw = bytearray(path.read_bytes())
        (cfg_len,) = struct.unpack_from("<I", raw, 12)
        name_at = 8 + 8 + cfg_len + 4
        (nlen,) = struct.unpack_from("<H", raw, name_at)
        # the first extent of the first tensor, after its name and rank
        struct.pack_into("<Q", raw, name_at + 2 + nlen + 1, extent)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="truncated"):
            m.load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        _, net, path = self.make_net(tmp_path)
        m.save_checkpoint(path, net)
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            m.load_checkpoint(path)

    def write_records(self, path, header: bytes, records):
        """A checkpoint in the documented format, records in the given
        order: magic, version, header, count, then per record its name,
        rank, extents and float32 payload."""
        out = [m.CKPT_MAGIC, struct.pack("<II", m.CKPT_VERSION, len(header)),
               header, struct.pack("<I", len(records))]
        for name, arr in records:
            arr = np.asarray(arr, dtype="<f4")
            out += [struct.pack("<H", len(name)), name.encode(),
                    struct.pack(f"<B{arr.ndim}Q", arr.ndim, *arr.shape),
                    arr.tobytes()]
        path.write_bytes(b"".join(out))

    def saved_records(self, tmp_path, **kw):
        """The header and sorted records of a saved checkpoint, checked
        against write_records."""
        _, net, path = self.make_net(tmp_path, **kw)
        m.save_checkpoint(path, net, {"val_loss": "0.5"})
        raw = path.read_bytes()
        (cfg_len,) = struct.unpack_from("<I", raw, 12)
        header = raw[16:16 + cfg_len]
        records = sorted({**net.params, **net.buffers}.items())
        records = [(k, t.data) for k, t in records]
        self.write_records(tmp_path / "check.ckpt", header, records)
        assert (tmp_path / "check.ckpt").read_bytes() == raw
        return header, records

    def test_old_file_velocity_is_skipped(self, tmp_path):
        # files written before checkpoints dropped SGD's momentum carry a
        # velocity/<param> record per parameter; they load as without
        header, records = self.saved_records(tmp_path, norm="batch",
                                             age_mode="encoded")
        velocity = [(f"velocity/{k}", np.full(a.shape, np.nan, np.float32))
                    for k, a in records if ".running_" not in k]
        plain, old = tmp_path / "plain.ckpt", tmp_path / "old.ckpt"
        self.write_records(plain, header, records)
        self.write_records(old, header, sorted(records + velocity,
                                               key=lambda r: r[0]))
        want, want_extra = m.load_checkpoint(plain)
        got, got_extra = m.load_checkpoint(old)
        assert got.config == want.config and got_extra == want_extra
        for slot in ("params", "buffers"):
            a, b = getattr(want, slot), getattr(got, slot)
            assert a.keys() == b.keys()
            for name in a:
                assert a[name].data.tobytes() == b[name].data.tobytes()

    def test_old_file_velocity_extents_checked(self, tmp_path):
        header, records = self.saved_records(tmp_path)
        path = tmp_path / "old.ckpt"
        self.write_records(path, header, records + [
            ("velocity/fc2.bias", np.zeros(3, np.float32))])
        raw = bytearray(path.read_bytes())
        # the velocity record's one extent is the file's last 8 + 12 bytes
        struct.pack_into("<Q", raw, len(raw) - 20, 2**40)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="truncated: tensor "
                           "'velocity/fc2.bias'") as info:
            m.load_checkpoint(path)
        assert str(info.value).count(str(path)) == 1

    def test_duplicate_record_rejected(self, tmp_path):
        header, records = self.saved_records(tmp_path)
        path = tmp_path / "dup.ckpt"
        self.write_records(path, header, records + [
            ("fc2.bias", np.array([7, 8, 9], np.float32))])
        with pytest.raises(ValueError, match="'fc2.bias' appears twice") \
                as info:
            m.load_checkpoint(path)
        assert str(info.value).count(str(path)) == 1

    def test_duplicate_header_key_rejected(self, tmp_path):
        _, net, path = self.make_net(tmp_path)
        m.save_checkpoint(path, net)
        self.rewrite_header(path, lambda lines: sorted(
            lines + ["widening_factor=2\n"]))
        with pytest.raises(ValueError, match="'widening_factor' appears "
                           "twice") as info:
            m.load_checkpoint(path)
        assert str(info.value).count(str(path)) == 1
