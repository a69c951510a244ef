#!/usr/bin/env python3
"""volcnn benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload from BENCHMARK.json, or `all` to run every workload in
turn. Run from the root of a checkout that holds `src/volcnn`.

Each repetition is a fresh `volcnn` process (see child.py) with BLAS pinned
to one thread, run one after another: a closed loop of one researcher
running one command at a time. A run first makes the workload's inputs
from the seed and checks them against the pinned SHA-256. It then times
five set-up-only repetitions, then full repetitions until S seconds have
passed (and at least two). With --trace 1 it alternates untraced and
traced repetitions instead (at least one of each), and reports the
per-layer metrics of BENCHMARK.json from the traced ones.

Every repetition's outputs are checked: exit code 0 and no traceback;
per-epoch losses finite and within LOSS_RTOL of pins.json; eval report
values within REPORT_ATOL of pins.json; byte-identical train_log.csv and
best.ckpt (report.txt and logits.csv for eval) across the repetitions of
one run. A repetition that fails any check counts in `failed`.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics. Inputs and run directories go to .perfbench_work/ and are
deleted after the run; a summary of each run, with the machine it ran on
and the traced spans, is kept in .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPS = 5
MIN_REPS = 2              # untraced repetitions, whatever --seconds says
RUN_BUDGET_S = 160.0      # no repetition starts that could end later

# Tolerances of the output checks. Summing the conv taps in reverse order
# (a float32 reassociation) moved pinned entry 0's six crop-32 epoch
# losses by about 1e-5 relative, and every entry passes at 1e-3; a conv
# weight gradient off by 10 % fails from epoch 1.
# Report values are rank statistics over 300 subjects: 0.01 allows three
# flipped near-tie predictions.
LOSS_RTOL = 1e-3
LOSS_ATOL = 1e-4
REPORT_ATOL = 0.01
BLOCKS = ("block1", "block2", "block3", "block4")


class InputPinError(RuntimeError):
    """The generated inputs do not hash to the pinned digest."""


def pin_threads() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = os.environ[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


# ------------------------------------------------------------ repetitions

class Rep:
    """One child process: its stamps, result file and run directory."""

    def __init__(self, mode: str, rep_dir: Path):
        self.mode = mode
        self.dir = rep_dir
        self.run_dir = rep_dir / "run"
        self.result: dict = {}
        self.errors: list[str] = []
        self.spawned = self.exited = 0.0

    @property
    def setup_s(self) -> float:
        return self.result["phase"]["start"] - self.spawned

    def phase_s(self, command: str) -> float:
        """optim.train's wall time, or eval_s: entry into
        evaluate_samples to process exit."""
        phase = self.result["phase"]
        if command == "train":
            return phase["train_end"] - phase["start"]
        return self.exited - phase["start"]


def spawn(argv: list[str], command: str, mode: str, rep_dir: Path,
          env: dict, timeout: float) -> Rep:
    rep = Rep(mode, rep_dir)
    rep_dir.mkdir(parents=True)
    spec = {"src": str(SRC), "mode": mode, "out": str(rep_dir / "out.json"),
            "argv": argv + ["--run_dir", str(rep.run_dir)]}
    (rep_dir / "spec.json").write_text(json.dumps(spec))
    cmd = [sys.executable, str(HERE / "child.py"), str(rep_dir / "spec.json")]
    with open(rep_dir / "stdout", "w") as out, \
            open(rep_dir / "stderr", "w") as err:
        rep.spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, stdout=out, stderr=err, env=env,
                                  cwd=ROOT, timeout=timeout)
            code = proc.returncode
        except subprocess.TimeoutExpired:  # run() kills and reaps it
            code = None
        rep.exited = time.monotonic()
    if code != 0:
        rep.errors.append(f"exit code {code}")
    if "Traceback" in (rep_dir / "stderr").read_text():
        rep.errors.append("traceback on stderr")
    try:
        rep.result = json.loads((rep_dir / "out.json").read_text())
    except (OSError, ValueError):
        rep.errors.append("no result file")
    else:
        phase = rep.result["phase"]
        if "start" not in phase or (mode != "setup" and command == "train"
                                    and "train_end" not in phase):
            rep.errors.append("timed phase not reached")
    return rep


# ------------------------------------------------------------ output checks

def _close(value: float, ref: float) -> bool:
    return (math.isfinite(value)
            and abs(value - ref) <= LOSS_ATOL + LOSS_RTOL * abs(ref))


def read_train_log(run_dir: Path) -> list[list[float]]:
    lines = (run_dir / "train_log.csv").read_text().splitlines()[1:]
    return [[float(v) for v in line.split(",")[1:3]] for line in lines]


def read_report(run_dir: Path) -> dict[str, list[float]]:
    """report.txt as key -> [value, ci_lo, ci_hi]."""
    out = {}
    for line in (run_dir / "report.txt").read_text().splitlines():
        key, _, rest = line.partition(" = ")
        nums = rest.replace("ci95 = [", "").replace("]", "").replace(",", "")
        out[key] = [float(v) for v in nums.split()]
    return out


def read_eval_loss(rep_dir: Path) -> float:
    for line in (rep_dir / "stdout").read_text().splitlines():
        if line.startswith("split = ") and ", loss = " in line:
            return float(line.rsplit(", loss = ", 1)[1])
    raise ValueError("no loss line in the eval output")


def check_outputs(rep: Rep, command: str, ref: dict) -> None:
    """Compare one full repetition's artifacts with the pinned reference."""
    try:
        if command == "train":
            log = read_train_log(rep.run_dir)
            if len(log) != len(ref["epochs"]):
                rep.errors.append(f"{len(log)} epochs logged, "
                                  f"expected {len(ref['epochs'])}")
            for epoch, (got, want) in enumerate(zip(log, ref["epochs"]), 1):
                if not all(map(_close, got, want)):
                    rep.errors.append(f"epoch {epoch} losses {got} differ "
                                      f"from reference {want}")
            if not (rep.run_dir / "best.ckpt").is_file():
                rep.errors.append("no best.ckpt")
        else:
            if not _close(read_eval_loss(rep.dir), ref["loss"]):
                rep.errors.append("eval loss differs from reference")
            report = read_report(rep.run_dir)
            for key, want in ref["report"].items():
                got = report.get(key, [])
                if len(got) != len(want) or any(
                        abs(g - w) > REPORT_ATOL for g, w in zip(got, want)):
                    rep.errors.append(f"report {key} = {got}, "
                                      f"reference {want}")
            rows = (rep.run_dir / "logits.csv").read_text().splitlines()
            if len(rows) != 1 + ref["report"]["n_samples"][0]:
                rep.errors.append("logits.csv has the wrong row count")
            if len(list(rep.run_dir.glob("roc_*.csv"))) != 3:
                rep.errors.append("missing ROC CSVs")
    except (OSError, ValueError, IndexError, KeyError) as exc:
        rep.errors.append(f"unreadable output: {exc!r}")


def artifact_digest(rep: Rep, command: str) -> str:
    names = (("train_log.csv", "best.ckpt") if command == "train"
             else ("report.txt", "logits.csv"))
    h = hashlib.sha256()
    for name in names:
        path = rep.run_dir / name
        h.update(path.read_bytes() if path.is_file() else b"missing")
    return h.hexdigest()


def check_determinism(full: list[Rep], command: str) -> None:
    """Reruns within one invocation must give byte-identical artifacts."""
    digests = [artifact_digest(r, command) for r in full]
    for rep, digest in zip(full, digests):
        if digest != digests[0]:
            rep.errors.append("artifacts differ from the first repetition")


# ------------------------------------------------------------ per-layer

def layer_metrics(rep: Rep, command: str) -> dict[str, float]:
    """Per-layer metrics from one traced repetition's spans."""
    res = rep.result
    spans = res["spans"]
    child_s = [0.0] * len(spans)
    for s in spans:
        if s and s[3] >= 0:
            child_s[s[3]] += s[2] - s[1]
    dur = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    attr_sum = defaultdict(float)
    conv = defaultdict(float)
    pool = defaultdict(float)
    last_conv = {}   # parent span -> block of its latest conv child
    for i, s in enumerate(spans):
        if not s:
            continue
        name, t0, t1, _, attrs = s
        dur[name] += t1 - t0
        own[name] += t1 - t0 - child_s[i]
        calls[name] += 1
        for key, val in (attrs or {}).items():
            if key != "w":
                attr_sum[name, key] += val
        if name in ("ops.conv3d_forward", "ops.conv3d_backward"):
            block = res["blocks"][attrs["w"]]
            way = name.rsplit("_", 1)[1]
            conv[way, block, "s"] += t1 - t0
            conv[way, block, "macs"] += attrs["macs"]
            conv[way, block, "bytes"] += attrs["bytes"]
            last_conv[s[3]] = block
        elif name == "ops.maxpool3d_forward":
            pool[last_conv[s[3]]] += t1 - t0

    peak = res["sgemm_peak_gmac_per_s"]
    phase_s = rep.phase_s(command)
    m: dict[str, float] = {}

    def rate(macs, secs):
        return macs / secs / 1e9 if secs else 0.0

    for b in BLOCKS:
        for way in ("forward", "backward"):
            m[f"ops.conv3d_{way}.{b}.s"] = conv[way, b, "s"]
            m[f"ops.conv3d_{way}.{b}.gmac_per_s"] = rate(
                conv[way, b, "macs"], conv[way, b, "s"])
        macs = conv["forward", b, "macs"] + conv["backward", b, "macs"]
        secs = conv["forward", b, "s"] + conv["backward", b, "s"]
        m[f"ops.conv3d.{b}.peak_frac"] = rate(macs, secs) / peak
        m[f"ops.conv3d.{b}.gmac_computed"] = macs / 1e9
        m[f"ops.conv3d.{b}.gb_computed"] = (
            conv["forward", b, "bytes"] + conv["backward", b, "bytes"]) / 1e9
    all_macs = sum(v for k, v in conv.items() if k[2] == "macs")
    all_s = sum(v for k, v in conv.items() if k[2] == "s")
    m["ops.conv3d.peak_frac"] = rate(all_macs, all_s) / peak
    m["ops.calls"] = sum(n for k, n in calls.items() if k.startswith("ops."))
    m["ops.maxpool3d_forward.s"] = dur["ops.maxpool3d_forward"]
    for b in BLOCKS:
        m[f"ops.maxpool3d_forward.{b}.s"] = pool[b]
    m["ops.maxpool3d_backward.s"] = dur["ops.maxpool3d_backward"]
    m["ops.norm_forward.s"] = dur["ops.instance_norm_forward"]
    m["ops.norm_backward.s"] = dur["ops.norm_backward"]
    m["ops.relu.s"] = dur["ops.relu"] + dur["ops.relu_backward"]
    m["ops.head.s"] = (dur["ops.linear_forward"] + dur["ops.linear_backward"]
                       + dur["ops.softmax_xent"])
    m["data.gaussian_blur.s"] = dur["data.gaussian_blur"]
    m["data.gaussian_blur.voxels"] = attr_sum["data.gaussian_blur", "voxels"]
    m["data.intensity_normalize.s"] = dur["data.intensity_normalize"]
    m["data.intensity_normalize.calls"] = calls["data.intensity_normalize"]
    m["data.crop.s"] = dur["data.random_crop"] + dur["data.center_crop"]
    m["data.load_sample.s"] = dur["data.load_sample"]
    m["data.load_sample.bytes"] = attr_sum["data.load_sample", "bytes"]
    m["model.load_checkpoint.s"] = dur["model.load_checkpoint"]
    m["model.forward.self_s"] = own["model.forward"]
    m["model.backward.self_s"] = own["model.backward"]
    m["optim.train.self_s"] = own["optim.train"]
    m["optim.sgd_step.s"] = dur["optim.sgd_step"]
    m["optim.evaluate_samples.s"] = dur["optim.evaluate_samples"]
    m["model.save_checkpoint.s"] = dur["model.save_checkpoint"]
    m["model.save_checkpoint.calls"] = calls["model.save_checkpoint"]
    m["model.save_checkpoint.bytes"] = attr_sum["model.save_checkpoint",
                                                "bytes"]
    m["metrics.build_report.s"] = dur["metrics.build_report"]
    m["metrics.bootstrap_ci.s"] = dur["metrics.bootstrap_ci"]
    draws = res["counts"]["bootstrap_draws"]
    m["metrics.bootstrap_ci.draws"] = draws
    m["metrics.bootstrap_ci.useful_ratio"] = (
        res["counts"]["bootstrap_useful"] / draws if draws else 0.0)
    m["metrics.write_artifacts.s"] = (dur["metrics.write_report"]
                                      + dur["metrics.write_logits_csv"]
                                      + dur["metrics.export_roc"])
    m["sgemm_peak_gmac_per_s"] = peak
    # Self time of every span inside the timed phase, except optim.train's
    # own loop code, is accounted for; the rest of the phase is not.
    start = res["phase"]["start"]
    accounted = sum(s[2] - s[1] - child_s[i] for i, s in enumerate(spans)
                    if s and s[1] >= start and s[0] != "optim.train")
    m["trace.phase_s"] = phase_s
    m["trace.unaccounted_frac"] = 1.0 - accounted / phase_s
    return m


# ------------------------------------------------------------ one run

def load_pins() -> dict:
    return json.loads((HERE / "pins.json").read_text())


def prepare(workload, seed: int, work: Path, env: dict) -> tuple[list, str]:
    """Generate the inputs (and, for eval, the checkpoint). Returns the
    CLI arguments and the inputs' digest."""
    from workloads import PINNED_SEEDS, checkpoint_args, digest_inputs, \
        make_inputs
    in_dir = work / "inputs"
    argv = make_inputs(workload, seed % PINNED_SEEDS, in_dir)
    digest = digest_inputs(in_dir)
    if workload.command == "eval":
        ckpt_dir = work / "checkpoint"
        proc = subprocess.run(
            [sys.executable, "-m", "volcnn.cli"]
            + checkpoint_args(in_dir, ckpt_dir),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env,
            cwd=ROOT, timeout=120, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"checkpoint training failed:\n{proc.stderr}")
        argv += ["--checkpoint", str(ckpt_dir / "best.ckpt")]
    return argv, digest


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 env: dict) -> dict:
    from workloads import PINNED_SEEDS, WORKLOADS
    workload = WORKLOADS[name]
    t_run = time.monotonic()
    work = WORK / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        argv, digest = prepare(workload, seed, work, env)
        ref = load_pins()[name][seed % PINNED_SEEDS]
        if digest != ref["inputs"]:
            raise InputPinError(
                f"{name} seed {seed}: inputs hash to {digest}, pinned "
                f"{ref['inputs']}; per-file hashes in "
                f"{work / 'inputs.sha256'}")
        reps: list[Rep] = []

        def one(mode: str) -> Rep | None:
            longest = max((r.exited - r.spawned for r in reps), default=0.0)
            left = RUN_BUDGET_S - (time.monotonic() - t_run)
            if reps and longest > left:
                return None
            rep = spawn(argv, workload.command, mode,
                        work / f"rep{len(reps):02d}-{mode}", env,
                        timeout=max(left, 1.0) + 15.0)
            reps.append(rep)
            return rep

        modes = ("run", "trace") if trace else ("run",)
        if not trace:
            for _ in range(SETUP_REPS):
                one("setup")
        t0 = time.monotonic()
        i = 0
        while True:
            full = [r for r in reps if r.mode != "setup"]
            done = [sum(r.mode == m for r in full) for m in modes]
            if (min(done) >= (1 if trace else MIN_REPS)
                    and time.monotonic() - t0 >= seconds):
                break
            if one(modes[i % len(modes)]) is None:
                break
            i += 1

        full = [r for r in reps if r.mode != "setup"]
        for rep in full:
            if not rep.errors:
                check_outputs(rep, workload.command, ref)
        check_determinism(full, workload.command)
        return summarize(workload, seed, trace, reps, digest)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _median(values):
    return statistics.median(values) if values else float("nan")


def summarize(workload, seed: int, trace: bool, reps: list[Rep],
              digest: str) -> dict:
    ok = [r for r in reps if not r.errors]
    runs = [r for r in ok if r.mode == "run"]
    traced = [r for r in ok if r.mode == "trace"]
    phase = _median([r.phase_s(workload.command) for r in runs])
    e2e = {
        "setup_s": _median([r.setup_s for r in ok if r.mode != "trace"]),
        "samples_per_s": workload.samples / phase,
        "peak_rss_mib": _median([r.result["maxrss_kib"] / 1024
                                 for r in runs]),
    }
    # Printed for people only: the result line carries the metrics that
    # exist on every workload (samples_per_s is n / eval_s on eval).
    if workload.command == "train":
        extra = {"train_samples_per_s": e2e["samples_per_s"]}
    else:
        extra = {"eval_s": phase}
    extra["error_rate"] = sum(bool(r.errors) for r in reps) / len(reps)
    layers = {}
    if trace and traced:
        per_rep = [layer_metrics(r, workload.command) for r in traced]
        layers = {k: _median([m[k] for m in per_rep]) for k in per_rep[0]}
        layers["trace.overhead_frac"] = (
            _median([r.phase_s(workload.command) for r in traced])
            / phase - 1.0)
    return {"workload": workload.name, "seed": seed, "trace": trace,
            "inputs_sha256": digest,
            "attempted": len(reps), "failed": len(reps) - len(ok),
            "errors": {r.dir.name: r.errors for r in reps if r.errors},
            "end_to_end": e2e, "extra": extra, "per_layer": layers,
            "reps": [{"mode": r.mode, "dir": r.dir.name,
                      "spawned": r.spawned, "exited": r.exited,
                      "phase": r.result.get("phase"),
                      "maxrss_kib": r.result.get("maxrss_kib")}
                     for r in reps],
            "spans": {r.dir.name: r.result["spans"] for r in traced}}


# ------------------------------------------------------------ reporting

def machine() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "ram_gib": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        / 2 ** 30,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_name,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def print_table(summary: dict, specs: dict) -> None:
    print(f"== {summary['workload']} seed {summary['seed']} "
          f"trace {int(summary['trace'])}: {summary['attempted']} runs, "
          f"{summary['failed']} failed")
    units = {"train_samples_per_s": "1/s", "eval_s": "s", "error_rate": ""}
    rows = [(k, v, specs[k]["unit"]) for k, v in
            summary["end_to_end"].items()]
    rows += [(k, v, units[k]) for k, v in summary["extra"].items()]
    rows += [(k, v, specs[k]["unit"]) for k, v in
             summary["per_layer"].items()]
    for key, val, unit in rows:
        print(f"  {key:<40} {val:>14.6g} {unit}")
    for rep, errs in summary["errors"].items():
        print(f"  FAILED {rep}: {'; '.join(errs)}")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "volcnn" / "cli.py").is_file():
        print(f"error: no volcnn source tree at {SRC}", file=sys.stderr)
        return 2

    env = pin_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    info = machine()
    print(f"machine: {json.dumps(info)}")

    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    todo = names if args.workload == "all" else [args.workload]
    for name in todo:
        try:
            summary = run_workload(name, args.seed, args.seconds,
                                   bool(args.trace), env)
        except InputPinError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        summary["machine"] = info
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{name}-seed{args.seed}-trace{args.trace}.json"
         ).write_text(json.dumps(summary, indent=1))
        print_table(summary, specs)
        values = {**summary["end_to_end"], **summary["per_layer"]}
        prefix = f"{name}." if args.workload == "all" else ""
        for spec in wanted:
            value = values.get(spec["name"], float("nan"))
            if not math.isfinite(value):
                out["correct"] = False
                value = 0.0
            out["metrics"][prefix + spec["name"]] = {
                "value": value, "unit": spec["unit"]}
        out["attempted"] += summary["attempted"]
        out["failed"] += summary["failed"]
    out["correct"] = out["correct"] and out["failed"] == 0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
