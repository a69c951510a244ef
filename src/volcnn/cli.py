"""Command-line entry point.

One executable with subcommands: train, eval, ablate, saliency, gradcheck,
synth. Configuration is a flat key = value text file plus --key value
overrides; every run echoes its full effective configuration and writes it
next to the outputs, so re-running with that file reproduces the run.

Exit codes: 0 success, 2 configuration error (a network too large to
allocate among them), 3 data error, 4 numeric failure.

Heavy imports happen inside the command handlers so that --threads can pin
the BLAS worker env vars before numpy first loads.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

from .config import (ALPHA, DEFAULT_VIEWS, N_RESAMPLES, SMOOTH_SIGMA, SPLITS,
                     SYNTH_NOISE, ModelConfig, TrainConfig, check_bootstrap)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# config dataclass field type -> CLI kind
_KINDS = {"int": "int", "float": "float", "str": "str", "bool": "bool",
          "int | None": "batch", "tuple | None": "weights"}


def _keys(cls) -> dict:
    """key -> (kind, default) for the fields of a config dataclass."""
    return {f.name: (_KINDS[f.type], f.default) for f in fields(cls)}


MODEL_KEYS = _keys(ModelConfig)
TRAIN_KEYS = _keys(TrainConfig)

# key -> (kind, default). Kinds: int, float, bool, str, batch (int or
# "auto"), weights ("none" or three comma-separated floats).
SCHEMA = {
    **MODEL_KEYS,
    **TRAIN_KEYS,
    "subsample_rate": ("float", 1.0),
    # paths and data
    "manifest": ("str", ""),
    "run_dir": ("str", ""),
    "checkpoint": ("str", ""),
    "split": ("str", "val"),
    "allow_leakage": ("bool", False),
    # evaluation
    "n_resamples": ("int", N_RESAMPLES),
    "alpha": ("float", ALPHA),
    # synthetic data
    "n_per_class": ("int", 8),
    "extent": ("int", 32),
    "noise": ("float", SYNTH_NOISE),
    # saliency
    "views": ("str", ",".join(f"{a}:{i}" for a, i in DEFAULT_VIEWS)),
    "smooth_sigma": ("float", SMOOTH_SIGMA),
    # ablation
    "axis": ("str", ""),
    "values": ("str", ""),
    # gradient checks
    "scope": ("str", "all"),
    # environment: BLAS worker threads, pinned before numpy loads (0 leaves
    # the pool alone; 1 gives byte-identical reruns)
    "threads": ("int", 0),
}


class ConfigError(ValueError):
    pass


class DataError(Exception):
    pass


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{value} is not finite")
    return value


def _parse_value(key: str, raw: str):
    kind, _ = SCHEMA[key]
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return _finite(float(raw))
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind == "batch":
            if raw.lower() in ("auto", ""):
                return None
            return int(raw)
        if kind == "weights":
            if raw.lower() in ("none", ""):
                return None
            return tuple(_finite(float(v)) for v in raw.split(","))
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from None


def _format_value(key: str, value) -> str:
    kind, _ = SCHEMA[key]
    if kind == "bool":
        return "true" if value else "false"
    if kind == "batch":
        return "auto" if value is None else str(value)
    if kind == "weights":
        return "none" if value is None else ",".join(str(v) for v in value)
    return str(value)


def load_config_file(path) -> dict:
    """The file's settings. A comment is a whole line whose first non-blank
    character is #, so a value may hold a #; a key set twice is an error."""
    out, line_of = {}, {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, val = (s.strip() for s in body.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in line_of:
            raise ConfigError(f"{path}:{lineno}: key {key!r} is already set "
                              f"on line {line_of[key]}")
        line_of[key] = lineno
        out[key] = _parse_value(key, val)
    return out


def parse_overrides(tokens) -> dict:
    out = {}
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if not tok.startswith("--"):
            raise ConfigError(f"unexpected argument {tok!r}")
        key = tok[2:]
        if "=" in key:
            key, val = key.split("=", 1)
            i += 1
        else:
            if i + 1 >= len(tokens):
                raise ConfigError(f"missing value for --{key}")
            val = tokens[i + 1]
            i += 2
        key = key.replace("-", "_")
        if key not in SCHEMA:
            raise ConfigError(f"unknown option --{key}")
        out[key] = _parse_value(key, val)
    return out


def format_config(cfg: dict) -> str:
    lines = ["# effective configuration"]
    lines += [f"{k} = {_format_value(k, cfg[k])}" for k in sorted(SCHEMA)]
    return "\n".join(lines) + "\n"


def set_thread_env(n: int) -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = str(n)


def _ensure_run_dir(cfg: dict) -> Path:
    """cfg["run_dir"], made if missing. An empty one becomes a new directory
    runs/<second>-seed<seed>, suffixed -2, -3, ... while the name is taken."""
    if not cfg["run_dir"]:
        base = f"runs/{time.strftime('%Y%m%d-%H%M%S')}-seed{cfg['seed']}"
        cfg["run_dir"], k = base, 1
        while True:
            try:
                Path(cfg["run_dir"]).mkdir(parents=True)  # fails if taken
                break
            except FileExistsError:
                k += 1
                cfg["run_dir"] = f"{base}-{k}"
    run_dir = Path(cfg["run_dir"])
    run_dir.mkdir(parents=True, exist_ok=True)
    return run_dir


def _write_text(path: Path, text: str) -> None:
    from .data import atomic_write
    with atomic_write(path) as fh:
        fh.write(text)


def _echo_config(cfg: dict, run_dir: Path) -> None:
    text = format_config(cfg)
    sys.stdout.write(text)
    _write_text(run_dir / "config.txt", text)


def _load_manifest(cfg):
    from .data import load_manifest
    if not cfg["manifest"]:
        raise ConfigError("manifest path is required")
    return load_manifest(cfg["manifest"], allow_leakage=cfg["allow_leakage"])


def _split_samples(manifest, split: str, loaded: dict | None = None):
    """The samples of one split, in manifest order. `loaded` maps manifest
    rows to samples already read, so that the runs of one ablate sweep read
    each volume once; the rows read here are added to it."""
    from .data import load_sample
    rows = [r for r in manifest.rows if r.split == split]
    if not rows:
        raise DataError(f"split {split!r} has no rows in the manifest")
    if loaded is None:
        loaded = {}
    for r in rows:
        if r not in loaded:
            loaded[r] = load_sample(manifest, r)
    return [loaded[r] for r in rows]


def _load_checkpoint(cfg):
    """The model stored at cfg["checkpoint"]."""
    from .model import load_checkpoint
    if not cfg["checkpoint"]:
        raise ConfigError("checkpoint path is required")
    try:
        net, _ = load_checkpoint(cfg["checkpoint"])
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot load checkpoint: {exc}") from None
    return net


def cmd_train(cfg: dict, run_dir: Path, loaded: dict | None = None) -> int:
    from . import data as data_mod
    from .data import LABEL_NAMES
    from .model import build
    from .optim import LOG_HEADER, resolve_batch_size, train
    from .tensor import Rng

    model_cfg = ModelConfig(**{k: cfg[k] for k in MODEL_KEYS})
    train_cfg = TrainConfig(**{k: cfg[k] for k in TRAIN_KEYS})
    batch_size = resolve_batch_size(train_cfg, model_cfg)
    ckpt = str(run_dir / "best.ckpt")  # the checkpoint key names an input only
    net = build(model_cfg, Rng(cfg["seed"]))  # MemoryError before any read
    manifest = _load_manifest(cfg)
    manifest = data_mod.subsample(manifest, cfg["subsample_rate"],
                                  Rng(cfg["seed"]))
    subjects = manifest.subjects("train")
    counts = " ".join(
        f"{name}:{sum(1 for lab in subjects.values() if lab == idx)}"
        for idx, name in enumerate(LABEL_NAMES))
    print(f"train_subjects = {counts}")

    train_samples = _split_samples(manifest, "train", loaded)
    val_samples = _split_samples(manifest, "val", loaded)
    print(f"resolved batch_size = {batch_size}")

    epochs = train(net, train_samples, val_samples, train_cfg, ckpt)
    _write_text(run_dir / "train_log.csv", "\n".join(
        [LOG_HEADER] + [r.csv_line() for r in epochs]) + "\n")
    print(f"checkpoint = {ckpt}")
    return EXIT_OK


HEADLINE_METRICS = ("accuracy", "balanced_accuracy", "micro_auc",
                    "macro_auc")


def _evaluate(cfg: dict, run_dir: Path, net, loaded: dict | None = None):
    """Shared by eval and ablate: evaluates the checkpoint's model `net` and
    returns the report after writing the artifacts (report.txt, logits.csv,
    per-class ROC CSVs). Every model key, crop_extent and normalize among
    them, comes from net.config, not from cfg."""
    from .metrics import (build_report, export_roc, write_logits_csv,
                          write_report)
    from .optim import evaluate_samples, resolve_batch_size
    from .tensor import Rng

    manifest = _load_manifest(cfg)
    samples = _split_samples(manifest, cfg["split"], loaded)
    tc = TrainConfig(batch_size=cfg["batch_size"])
    # any size: eval-mode batch norm reads its running statistics
    bs = tc.batch_size or resolve_batch_size(tc, net.config)
    loss, probs = evaluate_samples(net, samples, bs)
    labels = [s.label for s in samples]
    try:
        report = build_report(labels, probs, Rng(cfg["seed"]),
                              cfg["n_resamples"], cfg["alpha"])
    except ValueError as exc:  # the bootstrap keys are checked: the split's
        raise DataError(str(exc)) from None
    write_report(report, run_dir / "report.txt")
    write_logits_csv([s.subject_id for s in samples], labels, probs,
                     run_dir / "logits.csv")
    export_roc(report, run_dir)
    return report, loss


def _headline(report) -> list[tuple[float, float, float]]:
    """(value, ci_lo, ci_hi) per headline metric; nan where no interval."""
    nan = (float("nan"), float("nan"))
    return [(getattr(report, key), *report.intervals.get(key, nan))
            for key in HEADLINE_METRICS]


def cmd_eval(cfg: dict, run_dir: Path, net) -> int:
    report, loss = _evaluate(cfg, run_dir, net)
    print(f"split = {cfg['split']}, n = {report.n_samples}, "
          f"loss = {loss:.6f}")
    print("metric,value,ci_lo,ci_hi")
    for key, row in zip(HEADLINE_METRICS, _headline(report)):
        print(key + "".join(f",{v:.6f}" for v in row))
    return EXIT_OK


# ablate axis -> the SCHEMA key it sweeps
ABLATE_AXES = {"width": "widening_factor", "depth": "extra_blocks",
               "norm": "norm", "first_layer": "first_layer",
               "subsample": "subsample_rate"}


def cmd_ablate(cfg: dict, run_dir: Path) -> int:
    axis = cfg["axis"]
    if axis not in ABLATE_AXES:
        raise ConfigError(
            f"axis must be one of {sorted(ABLATE_AXES)}, got {axis!r}")
    if not cfg["values"]:
        raise ConfigError("values is required for ablate")
    key = ABLATE_AXES[axis]
    values = [_parse_value(key, v) for v in cfg["values"].split(",")]
    if len(set(values)) < len(values):  # they would share one run directory
        raise ConfigError(f"values {cfg['values']!r} repeat a {key}")
    for value in values:  # each names a sub-run directory: check them first
        try:
            ModelConfig(**{k: value if k == key else cfg[k]
                           for k in MODEL_KEYS})
            if key == "subsample_rate" and not 0.0 < value <= 1.0:
                raise ValueError("rate must be in (0, 1]")
        except ValueError as exc:
            raise ConfigError(f"{axis} value {value!r}: {exc}") from None

    header = ("value,status,accuracy,balanced_accuracy,micro_auc,macro_auc,"
              "acc_lo,acc_hi,bal_lo,bal_hi,micro_lo,micro_hi,"
              "macro_lo,macro_hi")
    rows = [header]
    first_failure = EXIT_OK
    loaded = {}  # manifest row -> sample, shared by every run of the sweep
    for value in values:
        sub = {**cfg, key: value, "checkpoint": ""}
        sub["run_dir"] = str(run_dir / f"{axis}_{value}")
        sub_dir = _ensure_run_dir(sub)
        _echo_config(sub, sub_dir)
        try:
            code = cmd_train(sub, sub_dir, loaded)
            sub["checkpoint"] = str(sub_dir / "best.ckpt")
            report, _ = _evaluate(sub, sub_dir, _load_checkpoint(sub), loaded)
        except Exception as exc:  # sub-run failures recorded, sweep goes on
            code = _code_for(exc)
            if code is None:
                raise
            print(f"ablate {axis}={value} failed: {exc}", file=sys.stderr)
            rows.append(f"{value},failed" + ",-" * 12)
            if first_failure == EXIT_OK:
                first_failure = code
            continue
        heads = _headline(report)
        cells = ([str(value), "ok"] + [f"{v:.6f}" for v, _, _ in heads]
                 + [f"{b:.6f}" for _, lo, hi in heads for b in (lo, hi)])
        rows.append(",".join(cells))
    summary = "\n".join(rows) + "\n"
    _write_text(run_dir / "summary.csv", summary)
    sys.stdout.write(summary)
    return first_failure


def parse_views(spec: str):
    views = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ConfigError(f"view {part!r} must look like axial:50")
        axis, _, index = part.partition(":")
        try:
            views.append((axis.strip(), int(index)))
        except ValueError:
            raise ConfigError(f"bad view index in {part!r}") from None
    if not views:
        raise ConfigError("no views requested")
    return views


def cmd_saliency(cfg: dict, run_dir: Path, net) -> int:
    from .data import check_blur, gaussian_blur, model_input
    from .saliency import aggregate, check_views, export_slices, saliency

    views = parse_views(cfg["views"])
    crop = net.config.crop_extent
    check_views(views, (crop,) * 3)
    check_blur(cfg["smooth_sigma"], (crop,) * 3)
    manifest = _load_manifest(cfg)
    samples = _split_samples(manifest, cfg["split"])
    out_dir = run_dir / "saliency"

    maps, scans = [], {}
    for s in samples:
        vol = model_input([s], crop, net.config.normalize)[0, 0]
        smap = saliency(net, vol, s.label, age=s.age)
        # a subject's later scans get "~2", "~3", ...: ~ is no id character
        k = scans[s.subject_id] = scans.get(s.subject_id, 0) + 1
        name = s.subject_id if k == 1 else f"{s.subject_id}~{k}"
        export_slices(smap, views, out_dir / name, with_volume=False)
        maps.append(smap)
    combined = gaussian_blur(aggregate(maps), cfg["smooth_sigma"])
    export_slices(combined, views, out_dir / "aggregate", with_volume=True)
    total = len(samples) * len(views) + len(views) + 1
    print(f"saliency_files = {total}")
    print(f"saliency_dir = {out_dir}")
    return EXIT_OK


def cmd_gradcheck(cfg: dict, run_dir: Path) -> int:
    from .gradcheck import check_model, format_report, run_all

    scope = cfg["scope"]
    if scope not in ("ops", "model", "all"):
        raise ConfigError(f"scope must be ops, model, or all, got {scope!r}")
    results = (check_model(cfg["seed"]) if scope == "model"
               else run_all(cfg["seed"], include_model=scope == "all"))
    table = format_report(results)
    sys.stdout.write(table)
    _write_text(run_dir / "gradcheck.txt", table)
    failing = [r.name for r in results if not r.passed]
    if failing:
        print(f"FAILED: {', '.join(failing)}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_synth(cfg: dict, run_dir: Path) -> int:
    from .data import generate_synthetic, write_synthetic_dataset
    from .tensor import Rng

    samples = generate_synthetic(cfg["n_per_class"], cfg["extent"],
                                 Rng(cfg["seed"]), noise=cfg["noise"])
    manifest = write_synthetic_dataset(samples, run_dir / "dataset")
    print(f"manifest = {manifest}")
    return EXIT_OK


# commands whose handler also takes the model loaded from `checkpoint`
CHECKPOINT_COMMANDS = ("eval", "saliency")
# commands that report bootstrap intervals
BOOTSTRAP_COMMANDS = ("eval", "ablate")

HANDLERS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "saliency": cmd_saliency,
    "gradcheck": cmd_gradcheck,
    "synth": cmd_synth,
}


def _code_for(exc) -> int | None:
    """Exit code for an exception, None when it is not one of ours."""
    from .data import ManifestError, VolumeFormatError
    from .optim import NumericError
    from .tensor import ShapeError

    if isinstance(exc, (ConfigError, MemoryError)):
        return EXIT_CONFIG
    if isinstance(exc, NumericError):
        return EXIT_NUMERIC
    if isinstance(exc, (ManifestError, VolumeFormatError, DataError,
                        OSError)):
        return EXIT_DATA
    if isinstance(exc, (ShapeError, ValueError)):
        return EXIT_CONFIG
    return None


def build_parser() -> argparse.ArgumentParser:
    keys = ", ".join(sorted(SCHEMA))
    parser = argparse.ArgumentParser(
        prog="volcnn", allow_abbrev=False,  # --con is not --config
        description="Volumetric CNN training and evaluation toolkit.",
        epilog=f"Any configuration key can be overridden with --key value. "
               f"Keys: {keys}")
    parser.add_argument("command", choices=HANDLERS)
    parser.add_argument("--config", help="key = value configuration file")
    return parser


def effective_config(args, override_tokens) -> dict:
    cfg = {k: default for k, (_, default) in SCHEMA.items()}
    if args.config:
        cfg.update(load_config_file(args.config))
    cfg.update(parse_overrides(override_tokens))
    if cfg["threads"] < 0:
        raise ConfigError(f"threads must be >= 0, got {cfg['threads']}")
    if cfg["split"] not in SPLITS:  # before a checkpoint or volume is read
        raise ConfigError(f"split must be one of {SPLITS}, got {cfg['split']!r}")
    if args.command in BOOTSTRAP_COMMANDS:  # before any volume is read
        try:
            check_bootstrap(cfg["n_resamples"], cfg["alpha"])
            TrainConfig(batch_size=cfg["batch_size"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    try:
        cfg = effective_config(args, extra)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if cfg["threads"] > 0:
        set_thread_env(cfg["threads"])
    try:
        run_dir = _ensure_run_dir(cfg)
        handler_args = (cfg, run_dir)
        if args.command in CHECKPOINT_COMMANDS:
            # The checkpoint's model keys replace the command's, so the
            # echo states the model that runs.
            net = _load_checkpoint(cfg)
            cfg.update((k, getattr(net.config, k)) for k in MODEL_KEYS)
            handler_args += (net,)
        _echo_config(cfg, run_dir)
        return HANDLERS[args.command](*handler_args)
    except Exception as exc:
        code = _code_for(exc)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
