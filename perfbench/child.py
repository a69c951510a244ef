"""One benchmark repetition: a fresh process that runs one volcnn CLI
command with the public functions of volcnn's modules wrapped.

Usage: python3 child.py SPEC_JSON

SPEC_JSON names the source tree (`src`), the CLI arguments (`argv`), the
result file (`out`) and the mode:

  setup  stop at entry into optim.train / optim.evaluate_samples, so only
         the set-up (imports, config, manifest, volumes, model) is timed;
  run    run the command; record only when the timed phase starts and ends;
  trace  run the command and record a span for every wrapped call.

The parent pins the BLAS threads in the environment before this process
starts. Stamps come from time.monotonic (CLOCK_MONOTONIC on Linux), which
the parent shares. Spans stay in memory; the result file is written once,
after the command returns.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

clock = time.monotonic


class SetupDone(BaseException):
    """Raised at entry into the timed phase when only set-up is measured.
    A BaseException, so the CLI's error handler lets it through."""


class Recorder:
    """Wraps volcnn functions; in trace mode records spans
    (name, start, end, parent index, attributes) and counters."""

    def __init__(self, mode: str):
        self.mode = mode
        self.spans: list = []
        self.stack: list[int] = []
        self.counts = {"bootstrap_draws": 0, "bootstrap_useful": 0}
        self.blocks: dict[str, str] = {}   # conv weight shape -> block name
        self.phase: dict[str, float] = {}  # first entry / exit stamps

    def span(self, name: str, fn, attrs=None):
        spans, stack = self.spans, self.stack

        def wrapped(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            spans[i] = (name, t0, t1, parent,
                        attrs(args, kwargs, out) if attrs else None)
            return out
        return wrapped

    def phase_entry(self, name: str, fn):
        """Stamps the first entry into the timed phase and, for
        optim.train, its return."""
        def wrapped(*args, **kwargs):
            if "start" not in self.phase:
                self.phase["start"] = clock()
                if self.mode == "setup":
                    raise SetupDone
            out = fn(*args, **kwargs)
            if name == "optim.train":
                self.phase["train_end"] = clock()
            return out
        return wrapped

    # span attributes, computed after the call from array shapes

    def _block_map(self, args, kwargs, net):
        for key, t in net.params.items():
            if key.endswith(".conv.weight"):
                self.blocks[str(t.shape)] = key.split(".")[0]
        return None

    @staticmethod
    def _conv_fwd(args, kwargs, out):
        x, w, b = args[0], args[1], args[2]
        k3 = w.data[0, 0].size
        return {"w": str(w.shape),
                "macs": out.data.size * x.shape[1] * k3,
                "bytes": x.data.nbytes + w.data.nbytes + b.data.nbytes
                + out.data.nbytes}

    @staticmethod
    def _conv_bwd(args, kwargs, out):
        g, x, w = args[0], args[1], args[2]
        k3 = w.data[0, 0].size
        return {"w": str(w.shape),
                "macs": 2 * g.data.size * x.shape[1] * k3,  # dW and dX
                "bytes": g.data.nbytes + x.data.nbytes + w.data.nbytes
                + sum(t.data.nbytes for t in out)}

    @staticmethod
    def _voxels(args, kwargs, out):
        return {"voxels": int(args[0].size)}

    @staticmethod
    def _sample_bytes(args, kwargs, out):
        return {"bytes": int(out.volume.data.nbytes)}

    @staticmethod
    def _file_bytes(args, kwargs, out):
        return {"bytes": os.path.getsize(args[0])}

    def bootstrap(self, fn):
        """Counts every resample drawn and every one that gave a value, by
        wrapping the metric_fn that bootstrap_ci receives."""
        counts = self.counts

        def wrapped(records, metric_fn, *args, **kwargs):
            def counted(recs):
                counts["bootstrap_draws"] += 1
                value = metric_fn(recs)  # ValueError: redrawn
                counts["bootstrap_useful"] += 1
                return value
            return fn(records, counted, *args, **kwargs)
        return wrapped


def _patch(orig, new) -> None:
    """Replace `orig` with `new` wherever a volcnn module holds it, so calls
    through names imported with `from .x import f` are wrapped too."""
    for name, mod in list(sys.modules.items()):
        if name == "volcnn" or name.startswith("volcnn."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)


def install(rec: Recorder) -> None:
    from volcnn import data, metrics, model, ops, optim

    for name in ("optim.train", "optim.evaluate_samples"):
        fn = getattr(optim, name.split(".")[1])
        _patch(fn, rec.phase_entry(name, fn))
    if rec.mode != "trace":
        return
    table = [
        (ops, "conv3d_forward", rec._conv_fwd),
        (ops, "conv3d_backward", rec._conv_bwd),
        (ops, "maxpool3d_forward", None), (ops, "maxpool3d_backward", None),
        (ops, "instance_norm_forward", None), (ops, "norm_backward", None),
        (ops, "relu", None), (ops, "relu_backward", None),
        (ops, "linear_forward", None), (ops, "linear_backward", None),
        (ops, "softmax_xent", None),
        (data, "gaussian_blur", rec._voxels),
        (data, "intensity_normalize", None),
        (data, "random_crop", None), (data, "center_crop", None),
        (data, "load_sample", rec._sample_bytes),
        (model, "build", rec._block_map),
        (model, "forward", None), (model, "backward", None),
        (model, "save_checkpoint", rec._file_bytes),
        (model, "load_checkpoint", None),
        (optim, "train", None), (optim, "evaluate_samples", None),
        (optim, "sgd_step", None),
        (metrics, "build_report", None), (metrics, "bootstrap_ci", None),
        (metrics, "write_report", None), (metrics, "write_logits_csv", None),
        (metrics, "export_roc", None),
    ]
    for mod, attr, attrs in table:
        fn = getattr(mod, attr)  # may already carry the phase stamp
        inner = rec.bootstrap(fn) if attr == "bootstrap_ci" else fn
        _patch(fn, rec.span(f"{mod.__name__[7:]}.{attr}", inner, attrs))


def sgemm_peak_gmac_per_s(n: int = 1024, reps: int = 15) -> float:
    """Best single-call rate of an n x n x n float32 matmul, in GMAC/s."""
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    return n ** 3 / best / 1e9


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from volcnn import cli

    rec = Recorder(spec["mode"])
    install(rec)
    result = {"mode": spec["mode"]}
    if rec.mode == "trace":
        result["sgemm_peak_gmac_per_s"] = sgemm_peak_gmac_per_s()
    try:
        code = cli.main(spec["argv"])
    except SetupDone:
        code = 0
    result.update(code=code, phase=rec.phase, blocks=rec.blocks,
                  counts=rec.counts, spans=rec.spans,
                  maxrss_kib=resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss)
    with open(spec["out"], "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
