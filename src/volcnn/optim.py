"""SGD-with-momentum training loop.

Each epoch: seeded shuffle, per-sample augmentation (Gaussian blur with
sigma ~ U[0, blur_hi], then a random crop at the model's input extent),
forward/backward/update, then a validation pass with deterministic
preprocessing (center crop, no blur). The checkpoint is overwritten iff
the validation loss strictly improves, so it is the one copy of the best
network.

Augmentation draws come from a substream indexed by a global sample
counter, so a run is reproducible sample-for-sample under its seed.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import metrics
from . import model as network
from . import ops
from .config import TrainConfig
from .data import LeakageError, check_blur, model_input
from .tensor import Rng, Tensor


class NumericError(RuntimeError):
    """The loss stopped being finite."""


LOG_HEADER = "epoch,train_loss,val_loss,val_bal_acc,seconds,checkpointed"
EVAL_BLOCK = 1 << 21  # elements of its largest layer output an eval chunk may hold


def resolve_batch_size(cfg: TrainConfig, model_config) -> int:
    """The training batch size: explicit, else 4 (16 for batch norm, which
    needs larger batches for usable statistics)."""
    bs = cfg.batch_size
    if bs is None:
        bs = 16 if model_config.norm == "batch" else 4
    if model_config.norm == "batch" and bs < 2:
        raise ValueError(f"batch norm needs batch_size >= 2, got {bs}")
    return bs


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    val_bal_acc: float
    seconds: float
    checkpointed: bool

    def csv_line(self) -> str:
        return (f"{self.epoch},{self.train_loss:.6f},{self.val_loss:.6f},"
                f"{self.val_bal_acc:.6f},{self.seconds:.3f},"
                f"{int(self.checkpointed)}")


def sgd_step(params: dict, grads: dict, velocity: dict, lr: float,
             momentum: float) -> None:
    """Classical momentum: v <- momentum*v + g; p <- p - lr*v.

    Updates params and velocity in place."""
    if not (params.keys() == grads.keys() == velocity.keys()):
        extra = sorted(set(params) ^ set(grads) | set(params) ^ set(velocity))
        raise ValueError(f"parameter/gradient/velocity key mismatch: {extra}")
    for name, p in params.items():
        v = velocity[name].data
        v *= momentum
        v += grads[name].data
        p.data -= lr * v


def _check_splits(train_samples, val_samples):
    if not train_samples or not val_samples:
        raise ValueError("train and validation sets must both be non-empty")
    for s in list(train_samples) + list(val_samples):
        if s.split == "test":
            raise ValueError(
                f"test-split sample {s.subject_id!r} reached the training "
                f"loop; the test set is evaluation-only")
    overlap = ({s.subject_id for s in train_samples}
               & {s.subject_id for s in val_samples})
    if overlap:
        raise LeakageError(sorted(overlap))


def evaluate_samples(net, samples,
                     batch_size: int) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and the [len(samples), 3] class probabilities, in
    sample order and the network's dtype, in eval mode, from a forward that
    records no tape, on inputs preprocessed as the network's config says.

    Each forward takes a chunk of whole batches of batch_size samples: as
    many as keep the chunk's largest layer output, by the per-sample shapes
    model.infer_shapes lists, within EVAL_BLOCK elements, and one batch at
    least. Each sample's result is mathematically independent of the
    chunking. Bitwise it can vary at float32 rounding level, because a BLAS
    GEMM may round a row by the panel of rows it falls in: with 4-row
    panels, whole batches of 4 or 16 keep every row in the panel a forward
    per batch gives it, while chunks of 5 to 7 moved rows by 1.2e-7. The
    loss is summed from batch_size-sample means, as a forward per batch
    sums it."""
    if not samples:
        raise ValueError("nothing to evaluate")
    crop = net.config.crop_extent
    largest = max(math.prod(shape)
                  for _, shape in network.infer_shapes(net.config))
    size = batch_size * max(1, EVAL_BLOCK // (largest * batch_size))
    loss_sum = 0.0
    probs = []
    for start in range(0, len(samples), size):
        chunk = samples[start:start + size]
        x = Tensor(model_input(chunk, crop, net.config.normalize))
        logits, _ = network.forward(net, x, ages=[s.age for s in chunk],
                                    mode="eval", tape=False)
        for b in range(0, len(chunk), batch_size):
            batch = chunk[b:b + batch_size]
            loss, _, p = ops.softmax_xent(
                Tensor(logits.data[b:b + batch_size]),
                [s.label for s in batch])
            if not np.isfinite(loss):
                raise NumericError("non-finite loss during evaluation")
            loss_sum += loss * len(batch)
            probs.append(p.data)
    return loss_sum / len(samples), np.concatenate(probs)


def train(net, train_samples, val_samples, cfg: TrainConfig,
          checkpoint_path) -> list[EpochRecord]:
    """Trains net in place and returns its EpochRecords. The network of the
    epoch with the lowest validation loss is written to checkpoint_path;
    that file is its only copy. The momentum buffers are not saved."""
    _check_splits(train_samples, val_samples)
    for s in train_samples:  # every sigma drawn is below blur_hi
        check_blur(cfg.blur_hi, s.volume.shape)
    normalize = net.config.normalize
    if normalize:  # a constant scan fails before epoch 1, not after it
        for s in list(train_samples) + list(val_samples):
            s.zscore  # cached: the epochs reuse it
    bs = resolve_batch_size(cfg, net.config)
    crop = net.config.crop_extent
    skip_small = net.config.norm == "batch"

    rng = Rng(cfg.seed)
    velocity = {k: Tensor(np.zeros_like(t.data)) for k, t in net.params.items()}
    best_val = float("inf")
    records = []
    counter = 0  # global sample counter indexing augmentation substreams
    n = len(train_samples)
    print(LOG_HEADER)

    for epoch in range(1, cfg.max_epochs + 1):
        t0 = time.perf_counter()
        order = rng.stream("shuffle", epoch).permutation(n)
        loss_sum = 0.0
        seen = 0
        for start in range(0, n, bs):
            batch = [train_samples[int(i)] for i in order[start:start + bs]]
            if skip_small and len(batch) < 2:
                continue  # batch statistics undefined on a single sample
            augs = [rng.stream("augment", counter + j)
                    for j in range(len(batch))]
            counter += len(batch)
            x = Tensor(model_input(batch, crop, normalize, augs,
                                   cfg.blur_hi))
            labels = [s.label for s in batch]
            ages = [s.age for s in batch]
            logits, tape = network.forward(net, x, ages=ages, mode="train")
            wts = ([cfg.class_weights[l] for l in labels]
                   if cfg.class_weights else None)
            loss, grad, _ = ops.softmax_xent(logits, labels, wts)
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, "
                    f"batch {start // bs + 1}")
            # the input gradient is dropped at once: training never reads it
            grads = network.backward(net, tape, grad)[0]
            sgd_step(net.params, grads, velocity, cfg.learning_rate,
                     cfg.momentum)
            del grads  # not alive while the next batch is taped
            net.note_update()
            loss_sum += loss * len(batch)
            seen += len(batch)
        if seen == 0:
            raise ValueError(
                f"every batch was skipped: {n} train samples at batch size "
                f"{bs} leave no batch of >= 2 for batch norm")
        train_loss = loss_sum / seen

        val_loss, val_probs = evaluate_samples(net, val_samples, bs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # tiny val sets may miss a class
            bal = metrics.balanced_accuracy(val_probs.argmax(axis=1),
                                            [s.label for s in val_samples])
        improved = val_loss < best_val
        if improved:
            best_val = val_loss
            network.save_checkpoint(checkpoint_path, net,
                                    extra={"val_loss": repr(val_loss)})
        seconds = time.perf_counter() - t0 if cfg.timing else 0.0
        rec = EpochRecord(epoch, train_loss, val_loss, float(bal), seconds,
                          improved)
        records.append(rec)
        print(rec.csv_line())
    return records
