"""Volumetric classifier: four conv blocks, two fully connected layers,
optional age conditioning.

Every block is conv -> norm -> max pool -> ReLU, which is the paper's
conv -> norm -> ReLU -> max pool: ReLU is monotone, so it commutes with max,
and the pooled values agree bit for bit (np.maximum(-0.0, 0.0) is +0.0 and a
NaN passes through both), while ReLU covers the pooled extent only.
Widths scale with a single widening factor f: the blocks carry 4f, 32f,
64f, 64f channels. Optional extra blocks (conv k3 s1 p1, instance norm,
ReLU) sit between block4 and the classifier head and preserve both extent
and channel count.

Age conditioning modes:
  none     ignore age
  encoded  sinusoidal age embedding -> Linear -> LayerNorm -> Linear, added
           to the first fully connected layer's output before its ReLU
  concat   age / MAX_AGE (120) appended to the flattened features as one
           extra input

Small-input adaptation: when a crop is too small for a block's printed
hyperparameters, dilation shrinks to the largest value that keeps at least
two output positions (falling back to one), and pooling windows shrink to
the input extent. That does not keep instance norm from degenerating: the
pools and the fallback still leave seven ablation configs with a 1-voxel
norm, which outputs its channel bias (ROADMAP item 14, TestLiveness).
Kernel sizes are never reduced, so undersized inputs fail with a
layer-named ShapeError. The crop of 96 never triggers any adaptation.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, fields

import numpy as np

from . import ops, tensor
from .config import FIRST_LAYER_VARIANTS, MAX_AGE, ModelConfig
from .data import NUM_CLASSES, atomic_write
from .tensor import Rng, ShapeError, Tensor

FC1_WIDTH = 1024
AGE_HIDDEN = 512


@dataclass(frozen=True)
class BlockPlan:
    name: str
    conv: ops.ConvSpec
    norm: str
    pool: tuple[int, int] | None   # (window, stride) after clamping
    in_channels: int
    conv_extent: int
    out_extent: int


@dataclass(frozen=True)
class ModelPlan:
    blocks: tuple[BlockPlan, ...]
    flat_features: int
    fc1_in: int


def _fit_dilation(name: str, extent: int, k: int, p: int, s: int, d: int) -> int:
    """Largest dilation <= d that keeps the conv output at two or more
    positions; falls back to a single position before rejecting."""
    padded = extent + 2 * p
    if k > padded:
        raise ShapeError(
            f"{name}: kernel {k} exceeds padded input extent {padded}")
    if k == 1:
        return 1
    roomy = (padded - s - 1) // (k - 1)   # effective kernel <= padded - s
    if roomy >= 1:
        return min(d, roomy)
    return min(d, (padded - 1) // (k - 1))


def layer_plan(config: ModelConfig) -> ModelPlan:
    f = config.widening_factor
    fk, fs, fp, fd = FIRST_LAYER_VARIANTS[config.first_layer]
    stages = [
        ("block1", fk, 4 * f, fp, fs, fd, (3, 2)),
        ("block2", 3, 32 * f, 0, 1, 2, (3, 2)),
        ("block3", 5, 64 * f, 2, 1, 2, (3, 2)),
        ("block4", 3, 64 * f, 1, 1, 2, (5, 2)),
    ]
    for i in range(config.extra_blocks):
        stages.append((f"extra{i + 1}", 3, 64 * f, 1, 1, 1, None))

    blocks = []
    e, c = config.crop_extent, 1
    for name, k, c_out, p, s, d, pool in stages:
        d_eff = _fit_dilation(f"{name}.conv", e, k, p, s, d)
        spec = ops.ConvSpec(k=k, c_out=c_out, p=p, s=s, d=d_eff)
        ce = ops.conv_out_extent(e, k, p, s, d_eff)
        if ce < 1:
            raise ShapeError(f"{name}.conv: no output positions for extent {e}")
        oe = ce
        pool_eff = None
        if pool is not None:
            pk, ps = pool
            pool_eff = (min(pk, ce), ps)
            oe = ops.pool_out_extent(ce, *pool_eff)
        norm = "instance" if name.startswith("extra") else config.norm
        blocks.append(BlockPlan(name, spec, norm, pool_eff, c, ce, oe))
        e, c = oe, c_out

    flat = c * e ** 3
    fc1_in = flat + (1 if config.age_mode == "concat" else 0)
    return ModelPlan(tuple(blocks), flat, fc1_in)


def infer_shapes(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Per-sample output shape of every layer, in forward order."""
    plan = layer_plan(config)
    rows = [("input", (1, config.crop_extent, config.crop_extent,
                       config.crop_extent))]
    for bp in plan.blocks:
        c = bp.conv.c_out
        rows.append((f"{bp.name}.conv", (c, bp.conv_extent, bp.conv_extent,
                                         bp.conv_extent)))
        if bp.pool is not None:
            rows.append((f"{bp.name}.pool", (c, bp.out_extent, bp.out_extent,
                                             bp.out_extent)))
    rows.append(("flatten", (plan.fc1_in,)))
    if config.age_mode == "encoded":
        rows.append(("age.fc1", (AGE_HIDDEN,)))
        rows.append(("age.fc2", (FC1_WIDTH,)))
    rows.append(("fc1", (FC1_WIDTH,)))
    rows.append(("fc2", (NUM_CLASSES,)))
    return rows


@dataclass
class Model:
    config: ModelConfig
    plan: ModelPlan
    params: dict[str, Tensor]
    buffers: dict[str, Tensor]
    dtype: np.dtype
    version: int = 0

    def note_update(self):
        """Called after any in-place parameter mutation; invalidates tapes."""
        self.version += 1


def tensor_shapes(config: ModelConfig,
                  plan: ModelPlan) -> dict[str, tuple[int, ...]]:
    """Extents of every parameter and batch-norm buffer by name, in build
    order. Buffer names end in running_mean and running_var."""
    shapes: dict[str, tuple[int, ...]] = {}
    for bp in plan.blocks:
        k, c = bp.conv.k, bp.conv.c_out
        shapes[f"{bp.name}.conv.weight"] = (c, bp.in_channels, k, k, k)
        stats = (("norm.running_mean", "norm.running_var")
                 if bp.norm == "batch" else ())
        for leaf in ("conv.bias", "norm.gamma", "norm.beta") + stats:
            shapes[f"{bp.name}.{leaf}"] = (c,)
    linears = [("fc1", FC1_WIDTH, plan.fc1_in)]
    if config.age_mode == "encoded":
        linears += [("age.fc1", AGE_HIDDEN, ops.D_MODEL),
                    ("age.fc2", FC1_WIDTH, AGE_HIDDEN)]
        shapes["age.norm.gamma"] = shapes["age.norm.beta"] = (AGE_HIDDEN,)
    for name, out, fan_in in linears + [("fc2", NUM_CLASSES, FC1_WIDTH)]:
        shapes[f"{name}.weight"] = (out, fan_in)
        shapes[f"{name}.bias"] = (out,)
    return shapes


def build(config: ModelConfig, rng: Rng, dtype=tensor.F32) -> Model:
    """The model of tensor_shapes, each tensor initialized by its name: a
    weight is kaiming-uniform from the substream its name spells, so adding
    an age head or extra blocks never shifts the backbone initialization;
    gains and running variances are ones, the rest zeros."""
    plan = layer_plan(config)
    params: dict[str, Tensor] = {}
    buffers: dict[str, Tensor] = {}
    for name, shape in tensor_shapes(config, plan).items():
        if name.endswith(".weight"):
            t = tensor.kaiming_uniform(shape, rng.stream(*name.split(".")), dtype)
        elif name.endswith((".gamma", ".running_var")):
            t = Tensor(np.ones(shape, dtype))
        else:
            t = Tensor(np.zeros(shape, dtype))
        (buffers if ".running_" in name else params)[name] = t
    return Model(config, plan, params, buffers, np.dtype(dtype))


@dataclass
class Tape:
    """Saved forward state, consumed exactly once by backward, which pops
    each entry once it has used it and leaves `entries` empty. An entry is
    a tuple whose first item names its kind, and holds only what backward
    reads. A block records ("block", its BlockPlan, its conv input, its
    NormCache, the pool's tap keys or None). The cache's xhat lives in the
    conv output's array, which backward overwrites with dx; block1's cache
    holds none, and backward rebuilds it from the input. No ReLU mask is
    kept: each is h > 0 of a ReLU output h the tape holds as an input."""
    model_version: int
    entries: list


def activation_pattern(tape: Tape) -> bytes:
    """The tape's kink state: every pool's tap keys and the mask h > 0 of
    every ReLU output h. Two forwards whose patterns are equal take the
    same linear piece of the network."""
    blocks = [e for e in tape.entries if e[0] == "block"]
    head = {e[0]: e for e in tape.entries}
    flat = math.prod(head["flatten"][1][1:])  # fc1's input up to an age column
    parts = [e[4] for e in blocks if e[4] is not None]
    parts += [e[2].data > 0 for e in blocks[1:]]  # block1's input is the scan
    parts += [head["fc1"][1].data[:, :flat] > 0, head["fc2"][1].data > 0]
    return b"".join(p.tobytes() for p in parts)


def _validate_ages(config: ModelConfig, ages, n: int) -> np.ndarray | None:
    if config.age_mode == "none":
        return None
    if ages is None:
        raise ValueError(f"age_mode {config.age_mode!r} requires ages")
    arr = np.asarray(ages, dtype=np.float64)
    if arr.shape != (n,):
        raise ShapeError(f"ages shape {arr.shape}, expected ({n},)")
    bad = ~((arr >= 0.0) & (arr <= MAX_AGE))  # NaN fails both comparisons
    if bad.any():
        raise ValueError(f"age {arr[bad][0]} outside [0, {MAX_AGE:g}]")
    return arr


def forward(model: Model, x: Tensor, ages=None, mode: str = "train",
            tape: bool = True) -> tuple[Tensor, Tape | None]:
    """Run the network. Returns pre-softmax logits [N, NUM_CLASSES] and the
    tape needed for backward. Train mode updates batch-norm running stats.

    With tape=False nothing is recorded for backward and the tape is None:
    no pool tap keys, no norm caches, and each intermediate activation is
    freed once the next layer has read it. The logits are bitwise the same.
    Each block is one ops.conv_norm_pool_forward call, in which block1's
    conv output, the network's largest array, never exists whole. ReLU
    works in place on the block's output, and the age sum and the head's
    ReLU on fc1's output. A taped block records one entry (see Tape)."""
    cfg = model.config
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be train or eval, got {mode!r}")
    e = cfg.crop_extent
    if x.data.ndim != 5 or x.shape[1] != 1 or x.shape[2:] != (e, e, e):
        raise ShapeError(f"input shape {x.shape}, expected (N, 1, {e}, {e}, {e})")
    n = x.shape[0]
    ages_arr = _validate_ages(cfg, ages, n)

    entries = []
    record = entries.append if tape else (lambda entry: None)
    h = x
    for bp in model.plan.blocks:
        w = model.params[f"{bp.name}.conv.weight"]
        b = model.params[f"{bp.name}.conv.bias"]
        gamma = model.params[f"{bp.name}.norm.gamma"]
        beta = model.params[f"{bp.name}.norm.beta"]
        keys = ([f"{bp.name}.norm.running_{s}" for s in ("mean", "var")]
                if bp.norm == "batch" else [])
        running = tuple(model.buffers[k] for k in keys) or None
        out, taps, cache, running = ops.conv_norm_pool_forward(
            h, (w, b, bp.conv), gamma, beta, bp.pool, tape, running, mode)
        record(("block", bp, h, cache, taps))
        if running:
            model.buffers.update(zip(keys, running))
        h = ops.relu(out)  # a fresh array nothing else holds

    record(("flatten", h.shape))
    h = Tensor(h.data.reshape(n, model.plan.flat_features))
    if cfg.age_mode == "concat":
        col = (ages_arr / MAX_AGE).astype(model.dtype).reshape(n, 1)
        h = Tensor(np.concatenate([h.data, col], axis=1))
        record(("drop_age_column",))
    record(("fc1", h))
    z = ops.linear_forward(h, model.params["fc1.weight"], model.params["fc1.bias"])
    if cfg.age_mode == "encoded":
        ae = ops.age_encode(ages_arr, model.dtype)
        a1 = ops.linear_forward(ae, model.params["age.fc1.weight"],
                                model.params["age.fc1.bias"])
        a1n, ln_cache = ops.layer_norm_forward(
            a1, model.params["age.norm.gamma"], model.params["age.norm.beta"],
            tape=tape)
        a2 = ops.linear_forward(a1n, model.params["age.fc2.weight"],
                                model.params["age.fc2.bias"])
        z.data += a2.data
        record(("age_head", ae, ln_cache, a1n))
    h2 = ops.relu(z)
    record(("fc2", h2))
    logits = ops.linear_forward(h2, model.params["fc2.weight"],
                                model.params["fc2.bias"])
    return logits, Tape(model.version, entries) if tape else None


def backward(model: Model, tape: Tape,
             grad_logits: Tensor) -> tuple[dict[str, Tensor], Tensor]:
    """Gradients of a scalar loss w.r.t. every parameter and the input
    volumes, given the loss gradient at the logits. Consumes the tape: each
    entry is popped and freed once used, so the earliest layers run beside
    only their own saved state. Rejects a consumed tape and tapes recorded
    before the parameters were last updated."""
    if not tape.entries:
        raise ValueError("tape already consumed")
    if tape.model_version != model.version:
        raise ValueError(
            f"stale tape: recorded at parameter version {tape.model_version}, "
            f"model is at {model.version}")
    # The tape reads as consumed from here on, even if a step below fails.
    entries, tape.entries = tape.entries, []
    grads: dict[str, Tensor] = {}
    g = grad_logits
    while entries:
        g = _backward_entry(model, entries, g, grads)
    missing = set(model.params) - set(grads)
    if missing:
        raise RuntimeError(f"backward left parameters without gradients: "
                           f"{sorted(missing)}")
    return grads, g


def _backward_entry(model: Model, entries: list, g: Tensor,
                    grads: dict[str, Tensor]) -> Tensor:
    """Backward through the last tape entry, which it pops: adds its
    parameter gradients to `grads` and returns the gradient at its input,
    or, where that input is a ReLU output h, at the ReLU's input, through
    the mask h > 0, which relu_backward applies to the fresh input
    gradient in place. A function of its own, so the entry's state is
    freed when it returns."""
    entry = entries.pop()
    kind = entry[0]
    if kind in ("fc1", "fc2"):
        x = entry[1]
        g, gw, gb = ops.linear_backward(g, x, model.params[f"{kind}.weight"])
        grads[f"{kind}.weight"], grads[f"{kind}.bias"] = gw, gb
        # fc2's input is the head's ReLU output, fc1's the last block's and
        # a concat mode's age column, whose gradient drop_age_column drops
        g = ops.relu_backward(g, x.data > 0)
    elif kind == "age_head":
        _, ae, ln_cache, a1n = entry
        ga, gw, gb = ops.linear_backward(g, a1n, model.params["age.fc2.weight"])
        grads["age.fc2.weight"], grads["age.fc2.bias"] = gw, gb
        ga, dgm, dbt = ops.norm_backward(ga, ln_cache)
        grads["age.norm.gamma"], grads["age.norm.beta"] = dgm, dbt
        _, gw, gb = ops.linear_backward(ga, ae, model.params["age.fc1.weight"])
        grads["age.fc1.weight"], grads["age.fc1.bias"] = gw, gb
        # g itself continues down the fc1 branch of the sum unchanged
    elif kind == "drop_age_column":
        g = Tensor(g.data[:, :-1])
    elif kind == "flatten":
        g = Tensor(g.data.reshape(entry[1]))
    elif kind == "block":
        _, bp, x_in, cache, taps = entry
        names = [f"{bp.name}.{leaf}" for leaf in ("norm.gamma", "norm.beta",
                                                  "conv.weight", "conv.bias")]
        conv = (model.params[names[2]], model.params[names[3]], bp.conv)
        g, *block_grads = ops.conv_norm_pool_backward(g, x_in, conv, cache,
                                                      bp.pool, taps)
        grads.update(zip(names, block_grads))
        if bp != model.plan.blocks[0]:  # x_in is the block before's h
            g = ops.relu_backward(g, x_in.data > 0)
    else:
        raise RuntimeError(f"unknown tape entry {kind!r}")
    return g


# checkpoint format:
#   8 bytes magic, u32 version, u32 config length + "key=value\n" lines,
#   u32 tensor count, then per tensor (sorted by name):
#   u16 name length + name, u8 rank, rank x u64 extents, float32 LE payload
#   (older files also hold a velocity/<param> record, SGD's momentum, per
#   parameter; loading skips them unread)
CKPT_MAGIC = b"VCNNCKPT"
CKPT_VERSION = 1


def _config_text(config: ModelConfig, extra: dict[str, str]) -> str:
    items = {f.name: getattr(config, f.name) for f in fields(ModelConfig)}
    for k, v in extra.items():
        if k in items:
            raise ValueError(f"extra checkpoint key {k!r} collides with config")
        items[k] = v
    return "".join(f"{k}={items[k]}\n" for k in sorted(items))


def _parse_config_text(text: str) -> tuple[ModelConfig, dict[str, str]]:
    """The config and the extra entries of a checkpoint header. A config
    key the header lacks takes its ModelConfig default, so a header written
    before `normalize` was a model key loads with normalize=True; a key
    that is no longer one (eps, num_classes, d_model) is an extra entry."""
    known = {f.name: f.type for f in fields(ModelConfig)}
    kwargs, extra = {}, {}
    for line in text.splitlines():
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"malformed checkpoint config line {line!r}")
        if key in kwargs or key in extra:
            raise ValueError(f"checkpoint config key {key!r} appears twice")
        if known.get(key) == "bool":
            if value not in ("True", "False"):
                raise ValueError(
                    f"checkpoint config {key}={value!r} is not True or False")
            kwargs[key] = value == "True"
        elif key in known:
            typ = {"int": int, "float": float, "str": str}[known[key]]
            kwargs[key] = typ(value)
        else:
            extra[key] = value
    return ModelConfig(**kwargs), extra


def save_checkpoint(path, model: Model,
                    extra: dict[str, str] | None = None) -> None:
    """Serialize the model: config, parameters and buffers, nothing else.
    Byte-identical for identical inputs: tensors are sorted by name and the
    payload is always little-endian float32. Written atomically, so an
    interrupted save leaves the previous checkpoint intact."""
    named = {**model.params, **model.buffers}
    cfg_bytes = _config_text(model.config, extra or {}).encode()
    with atomic_write(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<II", CKPT_VERSION, len(cfg_bytes)))
        fh.write(cfg_bytes)
        fh.write(struct.pack("<I", len(named)))
        for name in sorted(named):
            arr = named[name].data.astype("<f4", copy=False)
            nb = name.encode()
            fh.write(struct.pack(f"<H{len(nb)}sB{arr.ndim}Q", len(nb), nb,
                                 arr.ndim, *arr.shape))
            fh.write(arr.tobytes())  # C order, whatever arr's strides


def _read_exact(fh, n: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise ValueError(f"checkpoint truncated while reading {what}")
    return buf


def _read_checkpoint(path) -> tuple[ModelConfig, dict[str, str],
                                    dict[str, Tensor]]:
    """The config, extra entries and tensors of a checkpoint file, checked
    against the config's tensor_shapes."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if _read_exact(fh, 8, "magic") != CKPT_MAGIC:
            raise ValueError("not a checkpoint file")
        version, cfg_len = struct.unpack("<II", _read_exact(fh, 8, "header"))
        if version != CKPT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        config, extra = _parse_config_text(
            _read_exact(fh, cfg_len, "config").decode())
        (count,) = struct.unpack("<I", _read_exact(fh, 4, "tensor count"))
        tensors: dict[str, Tensor] = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<H", _read_exact(fh, 2, "tensor name"))
            name = _read_exact(fh, nlen, "tensor name").decode()
            (rank,) = struct.unpack("<B", _read_exact(fh, 1, name))
            shape = struct.unpack(f"<{rank}Q", _read_exact(fh, 8 * rank, name))
            n_bytes = 4 * math.prod(shape)
            left = size - fh.tell()
            if n_bytes > left:
                raise ValueError(
                    f"checkpoint truncated: tensor {name!r} extents {shape} "
                    f"need {n_bytes} bytes, {left} left in the file")
            if name.startswith("velocity/"):  # older files' momentum
                fh.seek(n_bytes, os.SEEK_CUR)
                continue
            if name in tensors:
                raise ValueError(f"tensor {name!r} appears twice")
            raw = _read_exact(fh, n_bytes, f"tensor {name!r} payload")
            arr = np.frombuffer(raw, dtype="<f4").reshape(shape)
            if not np.isfinite(arr).all():
                raise ValueError(f"tensor {name!r} holds a non-finite value")
            tensors[name] = Tensor(arr.copy())
        if fh.read(1):
            raise ValueError("trailing bytes after last tensor")

    # Planning takes a step per extra block, so the file must hold at least
    # that many tensors, the last block's among them, before it runs.
    n = config.extra_blocks
    if n > len(tensors) or (n and f"extra{n}.conv.weight" not in tensors):
        raise ValueError(f"header names {n} extra blocks, the file holds "
                         f"no extra{n}.conv.weight")
    expected = tensor_shapes(config, layer_plan(config))
    for name, t in tensors.items():
        if name not in expected:
            raise ValueError(f"unexpected tensor {name!r}")
        if t.shape != expected[name]:
            raise ValueError(f"tensor {name!r} has shape {t.shape}, "
                             f"architecture expects {expected[name]}")
    missing = sorted(expected.keys() - tensors.keys())
    if missing:
        raise ValueError(f"checkpoint is partial, missing {missing}")
    return config, extra, tensors


def load_checkpoint(path) -> tuple[Model, dict[str, str]]:
    """Rebuild a model from a checkpoint. Returns (model, extra config
    entries). The file's tensors, an older file's velocity/* records aside,
    must match the config's tensor_shapes exactly, which is checked before
    any network is built. Every ValueError names the path, once."""
    try:
        config, extra, tensors = _read_checkpoint(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    # Through build, though its tensors are thrown away: the benchmark's
    # traced eval names its conv blocks from the model build returns.
    model = build(config, Rng(0))
    for slot in (model.params, model.buffers):
        slot.update({name: tensors[name] for name in slot})
    return model, extra
