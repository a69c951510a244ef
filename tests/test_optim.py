import dataclasses
import math
import struct
import tracemalloc

import numpy as np
import pytest

from volcnn import data, model, ops, optim
from volcnn.data import LeakageError
from volcnn.model import (ModelConfig, build, forward, layer_plan,
                          load_checkpoint, tensor_shapes)
from volcnn.tensor import Rng, Tensor

# an overflow or invalid value in these tests is a failure, not a warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def synth_sets(n_per_class=4, extent=40, seed=5, noise=0.1):
    samples = data.generate_synthetic(n_per_class, extent, Rng(seed),
                                      noise=noise)
    train = [s for s in samples if s.split == "train"]
    val = [s for s in samples if s.split == "val"]
    return train, val


def small_net(seed=0, **overrides):
    cfg = ModelConfig(crop_extent=32, **overrides)
    return build(cfg, Rng(seed))


def record_names(path) -> list[str]:
    """The tensor names of a checkpoint file, in file order: after the
    magic, version and header, a count, then per record its name, rank,
    extents and float32 payload."""
    raw = path.read_bytes()
    (cfg_len,) = struct.unpack_from("<I", raw, 12)
    at = 16 + cfg_len
    (count,) = struct.unpack_from("<I", raw, at)
    at += 4
    names = []
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", raw, at)
        names.append(raw[at + 2:at + 2 + nlen].decode())
        at += 2 + nlen
        rank = raw[at]
        shape = struct.unpack_from(f"<{rank}Q", raw, at + 1)
        at += 1 + 8 * rank + 4 * math.prod(shape)
    assert at == len(raw)
    return names


class TestSgdStep:
    def params_of(self, value, shape=(2, 3)):
        return {"w": Tensor(np.full(shape, value, np.float32))}

    def test_plain_gradient_step(self):
        params = self.params_of(1.0)
        grads = self.params_of(0.5)
        vel = self.params_of(0.0)
        optim.sgd_step(params, grads, vel, lr=1.0, momentum=0.0)
        assert np.all(params["w"].data == 0.5)

    def test_zero_gradients_leave_params_untouched(self):
        params = self.params_of(1.25)
        before = params["w"].data.copy()
        optim.sgd_step(params, self.params_of(0.0), self.params_of(0.0),
                       lr=0.1, momentum=0.9)
        assert np.array_equal(params["w"].data, before)

    def test_two_step_recurrence(self):
        # v1 = g, v2 = 0.9 g + g = 1.9 g
        p0, g = 2.0, 0.3
        params = self.params_of(p0)
        vel = self.params_of(0.0)
        for _ in range(2):
            optim.sgd_step(params, self.params_of(g), vel, lr=0.01,
                           momentum=0.9)
        expect = p0 - 0.01 * g - 0.01 * 1.9 * g
        assert np.allclose(params["w"].data, expect, atol=1e-7)

    def test_lr_zero_is_bit_identical(self):
        params = self.params_of(0.75)
        before = params["w"].data.copy()
        optim.sgd_step(params, self.params_of(0.4), self.params_of(0.2),
                       lr=0.0, momentum=0.5)
        assert np.array_equal(params["w"].data, before)

    def test_key_mismatch_rejected(self):
        params = self.params_of(1.0)
        with pytest.raises(ValueError, match="mismatch"):
            optim.sgd_step(params, {"other": Tensor(np.zeros((2, 3)))},
                           self.params_of(0.0), lr=0.1, momentum=0.0)


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [
        {"max_epochs": 0},
        {"learning_rate": 0.0},
        {"learning_rate": -1.0},
        {"momentum": 1.0},
        {"momentum": -0.1},
        {"batch_size": 0},
        {"class_weights": (1.0, 2.0)},
        {"class_weights": (1.0, 0.0, 2.0)},
        {"blur_hi": -0.5},
    ])
    def test_invalid_values(self, kwargs):
        with pytest.raises(ValueError):
            optim.TrainConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"learning_rate": math.nan}, {"learning_rate": math.inf},
        {"blur_hi": math.nan}, {"blur_hi": math.inf},
        {"class_weights": (1.0, math.nan, 2.0)},
        {"class_weights": (1.0, math.inf, 2.0)},
    ])
    def test_non_finite_values_rejected(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            optim.TrainConfig(**kwargs)

    def test_batch_size_defaults(self):
        cfg = optim.TrainConfig()
        assert optim.resolve_batch_size(cfg, ModelConfig()) == 4
        assert optim.resolve_batch_size(cfg, ModelConfig(norm="batch")) == 16
        explicit = optim.TrainConfig(batch_size=7)
        assert optim.resolve_batch_size(explicit, ModelConfig()) == 7

    def test_batch_norm_needs_two(self):
        cfg = optim.TrainConfig(batch_size=1)
        with pytest.raises(ValueError, match=">= 2"):
            optim.resolve_batch_size(cfg, ModelConfig(norm="batch"))


class TestLossDescent:
    def test_fixed_batch_loss_decreases(self):
        # plain gradient steps at a small lr on one fixed batch
        from volcnn import ops
        from volcnn.model import backward

        train, _ = synth_sets(n_per_class=2)
        net = small_net()
        x = Tensor(data.model_input(train, 32, normalize=True))
        labels = [s.label for s in train]
        velocity = {k: Tensor(np.zeros_like(t.data))
                    for k, t in net.params.items()}
        losses = []
        for _ in range(20):
            logits, tape = forward(net, x, mode="train")
            loss, grad, _ = ops.softmax_xent(logits, labels)
            losses.append(loss)
            grads, _ = backward(net, tape, grad)
            optim.sgd_step(net.params, grads, velocity, lr=1e-3,
                           momentum=0.0)
            net.note_update()
        assert all(b < a for a, b in zip(losses, losses[1:]))


class TestTrainLoop:
    def test_runs_and_logs(self, tmp_path, capsys):
        train, val = synth_sets()
        net = small_net()
        cfg = optim.TrainConfig(max_epochs=2, seed=1)
        log = optim.train(net, train, val, cfg, tmp_path / "best.ckpt")
        assert [r.epoch for r in log] == [1, 2]
        assert all(r.seconds == 0.0 for r in log)
        assert log[0].checkpointed  # first epoch always improves
        out = capsys.readouterr().out.splitlines()
        # echoed to stdout
        assert out == [optim.LOG_HEADER] + [r.csv_line() for r in log]

    def test_deterministic_under_seed(self, tmp_path):
        results = []
        for run in ("a", "b"):
            train, val = synth_sets()
            net = small_net(seed=3)
            cfg = optim.TrainConfig(max_epochs=2, seed=7)
            ckpt = tmp_path / f"{run}.ckpt"
            log = optim.train(net, train, val, cfg, ckpt)
            results.append((log, ckpt.read_bytes()))
        assert results[0] == results[1]

    def test_checkpoint_tracks_best_val_loss(self, tmp_path):
        train, val = synth_sets()
        net = small_net()
        ckpt = tmp_path / "best.ckpt"
        cfg = optim.TrainConfig(max_epochs=4, seed=2)
        log = optim.train(net, train, val, cfg, ckpt)
        _, extra = load_checkpoint(ckpt)
        val_losses = [r.val_loss for r in log]
        assert float(extra["val_loss"]) == min(val_losses)
        shapes = tensor_shapes(net.config, layer_plan(net.config))
        assert record_names(ckpt) == sorted(shapes)

    def test_checkpoint_flags_follow_strict_improvement(self, tmp_path):
        train, val = synth_sets()
        net = small_net()
        cfg = optim.TrainConfig(max_epochs=4, seed=0)
        log = optim.train(net, train, val, cfg, tmp_path / "best.ckpt")
        running = float("inf")
        for rec in log:
            assert rec.checkpointed == (rec.val_loss < running)
            running = min(running, rec.val_loss)

    def test_best_network_beats_or_matches_final(self, tmp_path):
        train, val = synth_sets()
        net = small_net()
        cfg = optim.TrainConfig(max_epochs=3, seed=4)
        log = optim.train(net, train, val, cfg, tmp_path / "best.ckpt")
        best, _ = load_checkpoint(tmp_path / "best.ckpt")
        bs = optim.resolve_batch_size(cfg, net.config)
        best_loss, _ = optim.evaluate_samples(best, val, bs)
        assert abs(best_loss - min(r.val_loss for r in log)) < 1e-6

    def test_test_split_samples_are_rejected(self, tmp_path):
        train, val = synth_sets()
        poisoned = dataclasses.replace(train[0], split="test")
        with pytest.raises(ValueError, match="test-split"):
            optim.train(small_net(), [poisoned] + train[1:], val,
                        optim.TrainConfig(max_epochs=1),
                        tmp_path / "best.ckpt")

    def test_subject_overlap_rejected(self, tmp_path):
        train, val = synth_sets()
        leaky = dataclasses.replace(val[0], split="train")
        with pytest.raises(LeakageError):
            optim.train(small_net(), train + [leaky], val,
                        optim.TrainConfig(max_epochs=1),
                        tmp_path / "best.ckpt")

    def test_empty_sets_rejected(self, tmp_path):
        train, val = synth_sets()
        ckpt = tmp_path / "best.ckpt"
        with pytest.raises(ValueError, match="non-empty"):
            optim.train(small_net(), [], val, optim.TrainConfig(), ckpt)
        with pytest.raises(ValueError, match="non-empty"):
            optim.train(small_net(), train, [], optim.TrainConfig(), ckpt)

    def test_nan_loss_aborts_with_context(self, tmp_path):
        train, val = synth_sets()
        net = small_net()
        net.params["fc2.weight"].data[...] = np.nan
        with pytest.raises(optim.NumericError, match="epoch 1, batch 1"):
            optim.train(net, train, val, optim.TrainConfig(max_epochs=1),
                        tmp_path / "best.ckpt")

    def test_uniform_class_weights_match_unweighted(self, tmp_path):
        logs = []
        for weights in (None, (2.0, 2.0, 2.0)):
            train, val = synth_sets()
            net = small_net(seed=3)
            cfg = optim.TrainConfig(max_epochs=2, seed=7,
                                    class_weights=weights)
            log = optim.train(net, train, val, cfg, tmp_path / "best.ckpt")
            logs.append(log)
        assert logs[0] == logs[1]

    def test_timing_flag_fills_seconds(self, tmp_path):
        train, val = synth_sets()
        cfg = optim.TrainConfig(max_epochs=1, timing=True)
        log = optim.train(small_net(), train, val, cfg,
                          tmp_path / "best.ckpt")
        assert log[0].seconds > 0.0


class TestBatchNormHandling:
    def test_remainder_batch_is_skipped(self, tmp_path):
        # 9 train samples at batch size 4 leave a size-1 remainder, which
        # batch norm cannot normalize; it must be skipped, not crash
        train, val = synth_sets()
        assert len(train) == 9
        net = small_net(norm="batch")
        cfg = optim.TrainConfig(max_epochs=1, batch_size=4)
        log = optim.train(net, train, val, cfg, tmp_path / "best.ckpt")
        assert len(log) == 1

    def test_all_batches_skipped_is_an_error(self, tmp_path):
        train, val = synth_sets()
        net = small_net(norm="batch")
        cfg = optim.TrainConfig(max_epochs=1, batch_size=4)
        with pytest.raises(ValueError, match="every batch was skipped"):
            optim.train(net, train[:1], val, cfg, tmp_path / "best.ckpt")


class TestEvaluate:
    def test_batch_chunking_changes_nothing_beyond_rounding(self):
        # BLAS blocks differently per matrix shape, so agreement is at
        # f32 rounding level, not bitwise
        train, val = synth_sets()
        net = small_net(seed=1)
        loss3, probs3 = optim.evaluate_samples(net, train, batch_size=3)
        loss5, probs5 = optim.evaluate_samples(net, train, batch_size=5)
        assert abs(loss3 - loss5) < 1e-6
        assert np.array_equal(probs3.argmax(1), probs5.argmax(1))
        assert np.allclose(probs3, probs5, atol=1e-6)

    def test_records_carry_identity(self):
        # row i is sample i's: the same as evaluating that sample alone
        train, _ = synth_sets()
        net = small_net()
        _, probs = optim.evaluate_samples(net, train, batch_size=4)
        assert probs.shape == (len(train), 3) and probs.dtype == np.float32
        alone = [optim.evaluate_samples(net, [s], 1)[1][0] for s in train]
        assert np.allclose(probs, alone, atol=1e-6)

    @staticmethod
    def forward_sizes(monkeypatch) -> list[int]:
        """The batch size of each model.forward call made from here on."""
        sizes = []
        forward_ = model.forward

        def counted(net, x, *args, **kwargs):
            sizes.append(len(x.data))
            return forward_(net, x, *args, **kwargs)

        monkeypatch.setattr(model, "forward", counted)
        return sizes

    def test_chunks_fill_the_eval_block(self, monkeypatch):
        # At crop 32 block1's conv output, 2^17 elements a sample, is the
        # largest, so 16 samples fill EVAL_BLOCK: 40 take 16, 16 and 8, and
        # at batch size 3 whole batches of 15, 15 and 10
        samples = data.generate_synthetic(14, 32, Rng(5))[:40]
        net = small_net()
        alone = [optim.evaluate_samples(net, [s], 1)[1][0] for s in samples]
        sizes = self.forward_sizes(monkeypatch)
        _, probs = optim.evaluate_samples(net, samples, batch_size=4)
        assert sizes == [16, 16, 8]
        assert probs.shape == (40, 3)
        assert np.allclose(probs, alone, atol=1e-6)
        sizes.clear()
        optim.evaluate_samples(net, samples, batch_size=3)
        assert sizes == [15, 15, 10]

    def test_chunk_is_one_batch_past_the_block(self, monkeypatch):
        # At crop 64 one sample's block1 conv output is 2^20 elements, so
        # 4 samples already exceed EVAL_BLOCK and a chunk is one batch
        samples = data.generate_synthetic(14, 64, Rng(5))[:40]
        net = build(ModelConfig(crop_extent=64), Rng(0))
        sizes = self.forward_sizes(monkeypatch)
        optim.evaluate_samples(net, samples, batch_size=4)
        assert sizes == [4] * 10

    def test_peak_within_eval_block(self):
        # 40 crop-32 samples peak at 7.23 MiB with chunks of 16 against
        # EVAL_BLOCK float32 elements, 8 MiB; chunks of one batch of 4 read
        # 1.85 MiB, and one chunk of all 40 would hold 2.5 times the
        # activations of a 16-sample chunk
        samples = data.generate_synthetic(14, 32, Rng(5))[:40]
        for s in samples:
            s.zscore  # cached before tracing, as train's check caches it
        net = small_net()
        optim.evaluate_samples(net, samples[:1], batch_size=1)
        tracemalloc.start()
        try:
            optim.evaluate_samples(net, samples, batch_size=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= optim.EVAL_BLOCK * 4, peak

    def test_runs_tape_free(self, tmp_path, monkeypatch):
        def no_index_pass(*args):
            raise RuntimeError("pool argmax computed")

        monkeypatch.setattr(ops, "maxpool3d_argmax", no_index_pass)
        train, val = synth_sets()
        net = small_net()
        _, probs = optim.evaluate_samples(net, val, batch_size=4)
        assert len(probs) == len(val)
        cfg = optim.TrainConfig(max_epochs=1, batch_size=4)
        with pytest.raises(RuntimeError, match="pool argmax"):
            optim.train(net, train, val, cfg, tmp_path / "best.ckpt")
