#!/usr/bin/env python3
"""Regenerate pins.json: for every workload and pinned seed, the digest of
the generated inputs and the reference outputs of one run of the current
code.

    python3 perfbench/make_pins.py [WORKLOAD ...]

Run it only when a change is meant to alter a workload's inputs or its
results beyond the tolerances in run.py, and say so with the change.
Entries of workloads not named are kept.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from workloads import PINNED_SEEDS, WORKLOADS


def reference(name: str, seed: int, env: dict) -> dict:
    workload = WORKLOADS[name]
    work = run.WORK / f"pins-{name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        argv, digest = run.prepare(workload, seed, work, env)
        rep = run.spawn(argv, workload.command, "run", work / "rep", env,
                        timeout=run.RUN_BUDGET_S)
        if rep.errors:
            raise RuntimeError(f"{name} seed {seed}: {rep.errors}")
        if workload.command == "train":
            return {"inputs": digest,
                    "epochs": run.read_train_log(rep.run_dir)}
        return {"inputs": digest, "loss": run.read_eval_loss(rep.dir),
                "report": run.read_report(rep.run_dir)}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(names) -> int:
    env = run.pin_threads()
    sys.path.insert(0, str(run.SRC))
    path = run.HERE / "pins.json"
    pins = json.loads(path.read_text()) if path.is_file() else {}
    for name in names or list(WORKLOADS):
        pins[name] = [reference(name, seed, env)
                      for seed in range(PINNED_SEEDS)]
        path.write_text("{\n" + ",\n".join(
            f" {json.dumps(k)}: [\n"
            + ",\n".join(f"  {json.dumps(e)}" for e in v) + "\n ]"
            for k, v in pins.items()) + "\n}\n")
        print(f"pinned {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
