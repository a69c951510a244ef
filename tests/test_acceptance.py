"""Acceptance gate: ten end-to-end criteria, one test per criterion.

Each test prints a single [PASS]/[FAIL] line so the suite output doubles
as a checklist. Tolerances are pinned in the assertions; oracles are
re-implemented inline rather than imported from the unit tests.
"""

import os
import struct
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import volcnn
from volcnn import data, gradcheck, metrics, ops
from volcnn.cli import main
from volcnn.config import DEFAULT_VIEWS
from volcnn.model import (ModelConfig, activation_pattern, build, forward,
                          infer_shapes)
from volcnn.saliency import export_slices, saliency
from volcnn.tensor import Rng, Tensor

from test_metrics import per_draw_ci


@contextmanager
def criterion(n: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {n}: {title}")
        raise
    print(f"[PASS] criterion {n}: {title}")


# ---------------------------------------------------------------- shared

SYNTH_ARGS = ["--seed", "11", "--n_per_class", "8", "--extent", "32"]
OVERFIT_ARGS = ["--crop_extent", "32", "--max_epochs", "200",
                "--learning_rate", "0.01", "--momentum", "0.9",
                "--seed", "0"]


@pytest.fixture(scope="module")
def overfit(tmp_path_factory):
    """24 synthetic volumes, then 200 epochs of f=1 training (criterion 4);
    the dataset is reused by the ablation and determinism checks."""
    root = tmp_path_factory.mktemp("acceptance")
    assert main(["synth", "--run_dir", str(root / "synth")]
                + SYNTH_ARGS) == 0
    manifest = root / "synth" / "dataset" / "manifest.csv"
    run = root / "train"
    t0 = time.time()
    code = main(["train", "--run_dir", str(run),
                 "--manifest", str(manifest)] + OVERFIT_ARGS)
    elapsed = time.time() - t0
    assert code == 0
    return manifest, run, elapsed


# ---------------------------------------------------------------- 1

# spatial extent after each conv / pool, crop 96, any widening factor
SPATIAL_96 = {"input": 96,
              "block1.conv": 96, "block1.pool": 47,
              "block2.conv": 43, "block2.pool": 21,
              "block3.conv": 17, "block3.pool": 8,
              "block4.conv": 6, "block4.pool": 1}


def test_criterion_01_shape_suite():
    with criterion(1, "backbone shape progression at f in {1,2,4,8}, crop 96"):
        t_f1 = None
        for f in (1, 2, 4, 8):
            cfg = ModelConfig(widening_factor=f, crop_extent=96)
            channels = {"block1": 4 * f, "block2": 32 * f,
                        "block3": 64 * f, "block4": 64 * f}
            rows = dict(infer_shapes(cfg))
            assert rows["input"] == (1, 96, 96, 96)
            for name, extent in SPATIAL_96.items():
                if name == "input":
                    continue
                c = channels[name.split(".")[0]]
                assert rows[name] == (c, extent, extent, extent), name

            t0 = time.time()
            net = build(cfg, Rng(0))
            x = Tensor(Rng(1).stream("x").normal((1, 1, 96, 96, 96))
                       .astype(np.float32))
            logits, tape = forward(net, x, mode="eval")
            if f == 1:
                t_f1 = time.time() - t0
            blocks = [e for e in tape.entries if e[0] == "block"]
            conv_in = [e[2].shape[-1] for e in blocks]
            pool_in = [e[1].conv_extent for e in blocks]
            pool_out = [e[4].shape[-1] for e in blocks]
            flat = next(e[1] for e in tape.entries if e[0] == "flatten")
            assert conv_in == [96, 47, 21, 8]   # input + pool outputs
            assert pool_in == [96, 43, 17, 6]   # conv outputs
            assert pool_out == [47, 21, 8, 1]   # the tap keys' extents
            assert flat == (1, 64 * f, 1, 1, 1)  # final pool output
            assert logits.shape == (1, 3)
        assert t_f1 < 60.0, f"f=1 forward took {t_f1:.1f}s"


# ---------------------------------------------------------------- 2

GRAD_FAMILIES = ("conv", "pool", "instance norm", "batch norm train",
                 "batch norm eval", "layer norm", "linear", "relu",
                 "softmax xent")


def test_criterion_02_gradient_suite(tmp_path):
    with criterion(2, "all backwards match central differences"):
        assert gradcheck.STEP == 1e-3
        assert gradcheck.OP_TOL == 1e-4
        assert gradcheck.MODEL_TOL == 1e-3
        results = gradcheck.run_all(seed=0, include_model=True)
        bad = [r.name for r in results if not r.passed]
        assert not bad, f"failing checks: {bad}"
        for fam in GRAD_FAMILIES:
            instances = {r.name.rsplit(" d", 1)[0]
                         for r in results if r.name.startswith(fam)}
            assert len(instances) >= 5, f"{fam}: {len(instances)} < 5"
        model_res = [r for r in results if r.name.startswith("model")]
        assert len(model_res) == 1 and model_res[0].tol == 1e-3
        assert main(["gradcheck", "--run_dir", str(tmp_path / "g"),
                     "--scope", "all"]) == 0


# ---------------------------------------------------------------- 3

def test_criterion_03_normalization_statistics():
    with criterion(3, "IN statistics, IN train==eval, BN train!=eval"):
        rng = Rng(42).stream("c3")
        x = Tensor(rng.stream("x").normal((4, 6, 5, 5, 5)) * 3.0 + 1.5)
        g0 = Tensor(np.ones(6))
        b0 = Tensor(np.zeros(6))
        out, _ = ops.instance_norm_forward(x, g0, b0)  # pre-affine values
        per = out.data.reshape(4, 6, -1)
        assert np.abs(per.mean(axis=2)).max() < 1e-5
        assert np.abs(per.var(axis=2) - 1.0).max() < 1e-4

        xb = Tensor(rng.stream("xb").normal((2, 1, 32, 32, 32))
                    .astype(np.float32))
        net_in = build(ModelConfig(crop_extent=32), Rng(0))
        tr, _ = forward(net_in, xb, mode="train")
        ev, _ = forward(net_in, xb, mode="eval")
        assert tr.data.tobytes() == ev.data.tobytes()

        net_bn = build(ModelConfig(crop_extent=32, norm="batch"), Rng(0))
        ev_bn, _ = forward(net_bn, xb, mode="eval")
        tr_bn, _ = forward(net_bn, xb, mode="train")
        assert not np.array_equal(tr_bn.data, ev_bn.data)


# ---------------------------------------------------------------- 4

def test_criterion_04_overfit_oracle(overfit, capsys):
    with criterion(4, "100% train accuracy within 200 epochs / 15 min"):
        manifest, run, elapsed = overfit
        assert elapsed < 900.0, f"training took {elapsed:.0f}s"
        log = (run / "train_log.csv").read_text().splitlines()
        assert len(log) - 1 <= 200
        code = main(["eval", "--run_dir", str(run / "eval-train"),
                     "--manifest", str(manifest),
                     "--checkpoint", str(run / "best.ckpt"),
                     "--split", "train", "--n_resamples", "50"])
        out = capsys.readouterr().out
        assert code == 0
        acc_line = next(l for l in out.splitlines()
                        if l.startswith("accuracy,"))
        assert float(acc_line.split(",")[1]) == 1.0


# ---------------------------------------------------------------- 5

def pairwise_auc(scores, labels) -> float:
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    hits = sum(1.0 if p > n else 0.5 if p == n else 0.0
               for p in pos for n in neg)
    return hits / (len(pos) * len(neg))


def test_criterion_05_metrics_oracle():
    with criterion(5, "AUC/balanced-accuracy oracles and bootstrap"):
        rng = np.random.default_rng(505)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            if rng.random() < 0.5:  # coarse grid forces ties
                scores = rng.integers(0, 10, n) / 10.0
            else:
                scores = rng.normal(size=n)
            auc, _ = metrics.roc_auc(scores, labels)
            assert abs(auc - pairwise_auc(scores, labels)) <= 1e-12

        for _ in range(50):
            n = int(rng.integers(3, 60))
            labels = np.concatenate([[0, 1, 2], rng.integers(0, 3, n)])
            preds = rng.integers(0, 3, n + 3)
            recalls = [np.mean(preds[labels == c] == c) for c in range(3)]
            expect = (recalls[0] + recalls[1] + recalls[2]) / 3.0
            assert metrics.balanced_accuracy(preds, labels) == expect

        labels = np.concatenate([[0, 1, 2], rng.integers(0, 3, 47)])
        probs = rng.random((50, 3))
        probs /= probs.sum(axis=1, keepdims=True)
        res = metrics.multiclass_auc(probs, labels)
        assert res.macro == float(np.mean(res.per_class))

        preds = probs.argmax(1)
        hit = (preds == labels).astype(np.float64)

        def acc_rows(idx):  # a block's accuracies, one per resample
            return hit[idx].mean(1)

        def acc_fn(idx):  # one draw's accuracy, through the public function
            return metrics.accuracy(preds[idx], labels[idx])

        ci_a = metrics.bootstrap_ci(50, acc_rows, Rng(7), 500, 0.05)
        assert ci_a == metrics.bootstrap_ci(50, acc_rows, Rng(7), 500, 0.05)
        assert ci_a == per_draw_ci(50, acc_fn, Rng(7), 500, 0.05)
        report = metrics.build_report(labels, probs, Rng(7), 500, 0.05)
        assert report.intervals["accuracy"] == per_draw_ci(
            50, acc_fn, Rng(7).stream("accuracy"), 500, 0.05)
        point = metrics.accuracy(preds, labels)
        assert ci_a[0] <= point <= ci_a[1]


# ---------------------------------------------------------------- 6

def test_criterion_06_ablation_harness(overfit, tmp_path, capsys):
    with criterion(6, "norm ablation runs IN and BN with 4 -> 16 batch"):
        manifest, _, _ = overfit
        run = tmp_path / "ablate"
        code = main(["ablate", "--run_dir", str(run),
                     "--manifest", str(manifest), "--crop_extent", "32",
                     "--max_epochs", "2", "--axis", "norm",
                     "--values", "instance,batch", "--n_resamples", "50"])
        out = capsys.readouterr().out
        assert code == 0
        assert "resolved batch_size = 4" in out
        assert "resolved batch_size = 16" in out
        summary = (run / "summary.csv").read_text().splitlines()
        assert len(summary) == 3
        header = summary[0].split(",")
        assert len(header) == 14
        for line in summary[1:]:
            cells = line.split(",")
            assert cells[1] == "ok"
            for cell in cells[2:]:  # every metric and CI bound is numeric
                assert np.isfinite(float(cell))


# ---------------------------------------------------------------- 7

def nifti_bytes(vol: np.ndarray) -> bytes:
    hdr = bytearray(348)
    struct.pack_into("<i", hdr, 0, 348)
    struct.pack_into("<8h", hdr, 40, 3, *vol.shape, 1, 1, 1, 1)
    struct.pack_into("<h", hdr, 70, 16)    # float32
    struct.pack_into("<h", hdr, 72, 32)
    struct.pack_into("<f", hdr, 108, 352.0)
    hdr[344:348] = b"n+1\x00"
    return bytes(hdr) + b"\x00" * 4 + vol.transpose(2, 1, 0).tobytes()


def blur_direct_3d(vol: np.ndarray, sigma: float) -> np.ndarray:
    radius = int(np.ceil(3 * sigma))
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    k1 = np.exp(-(t * t) / (2.0 * sigma * sigma))
    k1 /= k1.sum()
    k3 = k1[:, None, None] * k1[None, :, None] * k1[None, None, :]
    padded = np.pad(vol.astype(np.float64), radius, mode="symmetric")
    out = np.zeros(vol.shape)
    for dz in range(2 * radius + 1):
        for dy in range(2 * radius + 1):
            for dx in range(2 * radius + 1):
                out += k3[dz, dy, dx] * padded[
                    dz:dz + vol.shape[0], dy:dy + vol.shape[1],
                    dx:dx + vol.shape[2]]
    return out


def test_criterion_07_data_integrity(tmp_path):
    with criterion(7, "leakage, format round trips, blur, subsampling"):
        mani = tmp_path / "leaky.csv"
        mani.write_text("subject_id,path,label,age,split\n"
                        "s1,a.vol,CN,70,train\n"
                        "s1,b.vol,CN,71,val\n"
                        "s2,c.vol,AD,80,train\n")
        with pytest.raises(data.LeakageError):
            data.load_manifest(mani)
        assert len(data.load_manifest(mani, allow_leakage=True).rows) == 3

        rng = Rng(77).stream("c7")
        vol = rng.stream("vol").normal((5, 6, 7)).astype(np.float32)
        nii = tmp_path / "v.nii"
        nii.write_bytes(nifti_bytes(vol))
        assert data.read_nifti1(nii).tobytes() == vol.tobytes()
        nat = tmp_path / "v.vol"
        data.write_native(nat, vol)
        assert (np.asarray(data.NativeVolume(nat)).tobytes()
                == vol.tobytes())

        blurred0 = data.gaussian_blur(vol, 0.0)
        assert blurred0.tobytes() == vol.tobytes()
        assert blurred0 is not vol

        vol64 = rng.stream("v64").normal((9, 9, 9))
        sep = data.gaussian_blur(vol64, 1.0)
        direct = blur_direct_3d(vol64, 1.0)
        assert np.abs(sep - direct).max() < 1e-5

        rows = []
        for i in range(10):
            split = "train" if i < 6 else "val" if i < 8 else "test"
            rows.append(data.ManifestRow(f"s{i}", f"s{i}.vol", i % 3,
                                         70.0, split))
        manifest = data.Manifest(rows, tmp_path)
        sub = data.subsample(manifest, 0.5, Rng(3))
        by_split = {}
        for r in sub.rows:
            by_split.setdefault(r.split, set()).add(r.subject_id)
        assert by_split["val"] == {"s6", "s7"}      # untouched
        assert by_split["test"] == {"s8", "s9"}
        assert len(by_split["train"]) < 6
        for a in by_split:
            for b in by_split:
                if a != b:
                    assert not by_split[a] & by_split[b]


# ---------------------------------------------------------------- 8

def test_criterion_08_age_encoding(monkeypatch):
    with criterion(8, "sinusoidal identity, rounding, head isolation"):
        for age in (0.0, 40.25, 63.5, 77.7, 100.0):
            e = ops.age_encode(age, np.float64).data
            pair = e[0::2] ** 2 + e[1::2] ** 2
            assert np.abs(pair - 1.0).max() <= 1e-12
        for raw, rounded in ((70.0, 70.0), (70.24, 70.0), (70.25, 70.5),
                             (70.5, 70.5), (70.74, 70.5), (70.75, 71.0),
                             (70.99, 71.0)):
            assert ops.round_age(raw) == rounded

        x = Tensor(Rng(8).stream("x").normal((1, 1, 32, 32, 32))
                   .astype(np.float32))
        nets = {mode: build(ModelConfig(crop_extent=32, age_mode=mode),
                            Rng(0))
                for mode in ("none", "concat", "encoded")}

        enc70, _ = forward(nets["encoded"], x, ages=[70.0], mode="eval")
        enc80, _ = forward(nets["encoded"], x, ages=[80.0], mode="eval")
        assert not np.array_equal(enc70.data, enc80.data)

        none_no, _ = forward(nets["none"], x, mode="eval")
        none70, _ = forward(nets["none"], x, ages=[70.0], mode="eval")
        assert none_no.data.tobytes() == none70.data.tobytes()

        con70, _ = forward(nets["concat"], x, ages=[70.0], mode="eval")

        real = ops.age_encode

        def tampered(age, dtype=np.float32):
            out = real(age, dtype)
            out.data[:] += 3.0
            return out

        monkeypatch.setattr(ops, "age_encode", tampered)
        con70_t, _ = forward(nets["concat"], x, ages=[70.0], mode="eval")
        none_t, _ = forward(nets["none"], x, mode="eval")
        enc70_t, _ = forward(nets["encoded"], x, ages=[70.0], mode="eval")
        # only the encoded head routes through the sinusoidal embedding
        assert con70_t.data.tobytes() == con70.data.tobytes()
        assert none_t.data.tobytes() == none_no.data.tobytes()
        assert not np.array_equal(enc70_t.data, enc70.data)


# ---------------------------------------------------------------- 9

def test_criterion_09_saliency(tmp_path):
    with criterion(9, "saliency extents, zero net, FD, smoothing, PGMs"):
        cfg = ModelConfig(crop_extent=32)
        rng = Rng(9).stream("c9")
        vol32 = rng.stream("vol").normal((32, 32, 32)).astype(np.float32)

        net = build(cfg, Rng(3))
        smap = saliency(net, vol32, target=1)
        assert smap.shape == (32, 32, 32)
        assert smap.min() >= 0.0

        zero_net = build(cfg, Rng(3))
        for p in zero_net.params.values():
            p.data[:] = 0.0
        zero_net.note_update()
        zmap = saliency(zero_net, vol32, target=0)
        assert not zmap.any()

        net64 = build(cfg, Rng(3), dtype=np.float64)
        v64 = vol32.astype(np.float64)
        smap64 = saliency(net64, v64, target=2)
        h = 1e-3
        pick = rng.stream("pick")
        checked = 0
        attempts = 0
        while checked < 10 and attempts < 100:
            attempts += 1
            idx = tuple(int(pick.integers(32)) for _ in range(3))
            probes = []
            ok = True
            for delta in (h, -h):
                v = v64.copy()
                v[idx] += delta
                logits, tape = forward(
                    net64, Tensor(v[None, None]), mode="eval")
                probes.append((float(logits.data[0, 2]),
                               activation_pattern(tape)))
            if probes[0][1] != probes[1][1]:
                continue  # straddles a ReLU/pool kink, FD invalid there
            fd = abs((probes[0][0] - probes[1][0]) / (2.0 * h))
            got = float(smap64[idx])
            assert abs(got - fd) / max(fd, 1e-8) <= 1e-3, idx
            checked += 1
        assert checked == 10

        sm = data.gaussian_blur(smap64, 0.8)
        assert sm.shape == (32, 32, 32)
        assert sm.min() >= 0.0

        big = np.abs(
            rng.stream("big").normal((96, 96, 96)).astype(np.float32))
        written = export_slices(big, DEFAULT_VIEWS, tmp_path / "fig",
                                with_volume=False)
        assert len(written) == 4
        for p in written:
            raw = Path(p).read_bytes()
            head, dims, maxval, payload = raw.split(b"\n", 3)
            assert head == b"P5"
            w, hh = map(int, dims.split())
            assert (w, hh) == (96, 96)
            assert maxval == b"255"
            assert len(payload) == 96 * 96


# ---------------------------------------------------------------- 10

def run_cli(args, cwd) -> subprocess.CompletedProcess:
    # the child imports the same volcnn as this process, whatever its cwd
    # and however the package reached sys.path (relative PYTHONPATH,
    # editable install, or an installed copy that would otherwise shadow it)
    src = str(Path(volcnn.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [e for e in env.get("PYTHONPATH", "").split(os.pathsep) if e])
    return subprocess.run([sys.executable, "-m", "volcnn.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)


def artifact_bytes(root: Path) -> dict[str, bytes]:
    # config.txt embeds the run directory path, so it differs by design
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "config.txt"}


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "reruns with --threads 1 are byte-identical"):
        base = ["--threads", "1", "--seed", "0"]
        synth = ["synth", "--seed", "11", "--n_per_class", "4",
                 "--extent", "32", "--threads", "1"]
        manifest = tmp_path / "syn_a" / "dataset" / "manifest.csv"
        train = ["train", "--manifest", str(manifest),
                 "--crop_extent", "32", "--max_epochs", "2"] + base
        ckpt = tmp_path / "tr_a" / "best.ckpt"
        evalc = ["eval", "--manifest", str(manifest),
                 "--checkpoint", str(ckpt), "--split", "val",
                 "--n_resamples", "100"] + base
        sal = ["saliency", "--manifest", str(manifest),
               "--checkpoint", str(ckpt), "--split", "val",
               "--views", "axial:5,coronal:7"] + base
        grad = ["gradcheck", "--scope", "ops"] + base
        ablate = ["ablate", "--manifest", str(manifest),
                  "--crop_extent", "32", "--max_epochs", "1",
                  "--axis", "width", "--values", "1",
                  "--n_resamples", "20"] + base

        for name, args in (("syn", synth), ("tr", train), ("ev", evalc),
                           ("sal", sal), ("gc", grad), ("ab", ablate)):
            copies = []
            for tag in ("a", "b"):
                run_dir = tmp_path / f"{name}_{tag}"
                proc = run_cli(args + ["--run_dir", str(run_dir)], tmp_path)
                assert proc.returncode == 0, (name, proc.stderr)
                copies.append(artifact_bytes(run_dir))
            assert copies[0].keys() == copies[1].keys(), name
            for rel in copies[0]:
                assert copies[0][rel] == copies[1][rel], (name, rel)
