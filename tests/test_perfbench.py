"""The benchmark harness's contract with the package: perfbench/child.py
wraps volcnn functions by name and reads their arguments and outputs, and
perfbench/workloads.py builds its inputs with the data layer, so renaming
an op, changing its arguments or changing what the data layer writes must
fail here, not only when the benchmark runs."""

import collections
import json
import os
import subprocess
import sys
from pathlib import Path

import volcnn
from volcnn.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CHILD = PERFBENCH / "child.py"


def _trace(tmp_path, name: str, argv: list[str]) -> dict:
    """Run one CLI command under child.py in trace mode; its result."""
    spec = {"src": str(Path(volcnn.__file__).resolve().parents[1]),
            "mode": "trace", "out": str(tmp_path / f"{name}.json"),
            "argv": argv}
    (tmp_path / f"{name}-spec.json").write_text(json.dumps(spec))
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(CHILD),
                           str(tmp_path / f"{name}-spec.json")],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads((tmp_path / f"{name}.json").read_text())


def test_trace_mode_records_the_wrapped_ops(tmp_path):
    assert main(["synth", "--run_dir", str(tmp_path / "synth"), "--seed", "3",
                 "--n_per_class", "4", "--extent", "32"]) == 0
    manifest = tmp_path / "synth" / "dataset" / "manifest.csv"
    run = tmp_path / "run"
    result = _trace(tmp_path, "train", [
        "train", "--manifest", str(manifest), "--crop_extent", "32",
        "--max_epochs", "1", "--threads", "1", "--run_dir", str(run)])
    assert result["code"] == 0
    names = collections.Counter(s[0] for s in result["spans"])
    # the block backward goes through the public ops too, so the per-layer
    # pool-backward and ReLU figures see it
    for op in ("ops.conv3d_forward", "ops.instance_norm_forward",
               "ops.norm_backward", "ops.conv3d_backward",
               "ops.maxpool3d_backward", "ops.relu_backward"):
        assert op in names
    # every pooled chunk, block1's samples among them, is normalized through
    # the wrapped op, so ops.norm_forward.s covers every instance norm
    assert names["ops.instance_norm_forward"] == names["ops.maxpool3d_forward"]
    conv = [s[4] for s in result["spans"] if s[0] == "ops.conv3d_forward"]
    assert all(a["macs"] > 0 for a in conv)

    # eval names its conv blocks from the model load_checkpoint builds
    result = _trace(tmp_path, "eval", [
        "eval", "--manifest", str(manifest), "--checkpoint",
        str(run / "best.ckpt"), "--threads", "1",
        "--run_dir", str(tmp_path / "eval")])
    assert result["code"] == 0
    names = {s[0] for s in result["spans"]}
    assert "model.load_checkpoint" in names
    conv = [s[4] for s in result["spans"] if s[0] == "ops.conv3d_forward"]
    assert conv and all(a["w"] in result["blocks"] for a in conv)


def test_workload_inputs_match_their_pins(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import WORKLOADS, digest_inputs, make_inputs

    pins = json.loads((PERFBENCH / "pins.json").read_text())
    for name, workload in WORKLOADS.items():
        in_dir = tmp_path / name
        make_inputs(workload, 0, in_dir)
        assert digest_inputs(in_dir) == pins[name][0]["inputs"], name
