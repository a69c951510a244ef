"""End-to-end command-line tests, run in process via cli.main."""

import csv
import dataclasses
import inspect
import os
import struct
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import volcnn.data
import volcnn.gradcheck
import volcnn.ops
import volcnn.saliency
from volcnn import metrics, model, optim
from volcnn.cli import SCHEMA, format_config, main
from volcnn.config import DEFAULT_VIEWS
from volcnn.optim import LOG_HEADER
from volcnn.tensor import Rng, Tensor


@pytest.fixture(scope="module")
def dataset(tmp_path_factory) -> Path:
    """12 synthetic volumes (4 per class, extent 32): 9 train, 3 val."""
    root = tmp_path_factory.mktemp("cli-data")
    code = main(["synth", "--run_dir", str(root / "synth"), "--seed", "11",
                 "--n_per_class", "4", "--extent", "32"])
    assert code == 0
    return root / "synth" / "dataset" / "manifest.csv"


TRAIN_ARGS = ["--crop_extent", "32", "--max_epochs", "2"]


@pytest.fixture(scope="module")
def trained(tmp_path_factory, dataset) -> Path:
    run = tmp_path_factory.mktemp("cli-train") / "run"
    code = main(["train", "--run_dir", str(run),
                 "--manifest", str(dataset)] + TRAIN_ARGS)
    assert code == 0
    return run


def one_cn_val_manifest(dataset, path) -> Path:
    """The dataset's manifest with absolute paths, its val split cut to a
    single CN subject."""
    with open(dataset, newline="") as fh:
        header, *rows = csv.reader(fh)
    keep = [r for r in rows if r[4] == "train"]
    keep.append(next(r for r in rows if r[4] == "val" and r[2] == "CN"))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(
            [header] + [[r[0], str(dataset.parent / r[1])] + r[2:]
                        for r in keep])
    return path


class TestSynth:
    def test_dataset_layout(self, dataset):
        with open(dataset, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["subject_id", "path", "label", "age", "split"]
        body = rows[1:]
        assert len(body) == 12
        splits = [r[4] for r in body]
        assert splits.count("train") == 9
        assert splits.count("val") == 3
        for r in body:
            assert (dataset.parent / r[1]).exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["synth", "--seed", "7", "--n_per_class", "2",
                "--extent", "16"]
        for d in ("a", "b"):
            assert main(args + ["--run_dir", str(tmp_path / d)]) == 0
        files_a = sorted((tmp_path / "a" / "dataset").iterdir())
        files_b = sorted((tmp_path / "b" / "dataset").iterdir())
        assert [f.name for f in files_a] == [f.name for f in files_b]
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()


# format_config of the SCHEMA defaults: every key, with its default
DEFAULT_CONFIG_LINES = [
    "# effective configuration",
    "age_mode = none",
    "allow_leakage = false",
    "alpha = 0.05",
    "axis = ",
    "batch_size = auto",
    "blur_hi = 1.5",
    "checkpoint = ",
    "class_weights = none",
    "crop_extent = 96",
    "extent = 32",
    "extra_blocks = 0",
    "first_layer = K1S1",
    "learning_rate = 0.01",
    "manifest = ",
    "max_epochs = 100",
    "momentum = 0.9",
    "n_per_class = 8",
    "n_resamples = 1000",
    "noise = 0.1",
    "norm = instance",
    "normalize = true",
    "run_dir = ",
    "scope = all",
    "seed = 0",
    "smooth_sigma = 0.8",
    "split = val",
    "subsample_rate = 1.0",
    "threads = 0",
    "timing = false",
    "values = ",
    "views = axial:50,axial:26,coronal:56,sagittal:26",
    "widening_factor = 1",
]

KEY_KINDS = {
    "batch": ["batch_size"],
    "bool": ["allow_leakage", "normalize", "timing"],
    "float": ["alpha", "blur_hi", "learning_rate", "momentum", "noise",
              "smooth_sigma", "subsample_rate"],
    "int": ["crop_extent", "extent", "extra_blocks", "max_epochs",
            "n_per_class", "n_resamples", "seed", "threads",
            "widening_factor"],
    "str": ["age_mode", "axis", "checkpoint", "first_layer", "manifest",
            "norm", "run_dir", "scope", "split", "values", "views"],
    "weights": ["class_weights"],
}


class TestConfigHandling:
    def test_key_table_pinned(self):
        defaults = {k: default for k, (_, default) in SCHEMA.items()}
        assert format_config(defaults) == "\n".join(DEFAULT_CONFIG_LINES) + "\n"
        kinds = {}
        for key, (kind, _) in sorted(SCHEMA.items()):
            kinds.setdefault(kind, []).append(key)
        assert kinds == KEY_KINDS

    def test_shared_defaults_match_library(self):
        def default(fn, name):
            return inspect.signature(fn).parameters[name].default

        for fn in (metrics.bootstrap_ci, metrics.build_report):
            assert default(fn, "n_resamples") == SCHEMA["n_resamples"][1]
            assert default(fn, "alpha") == SCHEMA["alpha"][1]
        assert (default(volcnn.data.generate_synthetic, "noise")
                == SCHEMA["noise"][1])
        views = [(a, int(i)) for a, i in
                 (v.split(":") for v in SCHEMA["views"][1].split(","))]
        assert views == list(DEFAULT_VIEWS)

    @pytest.mark.parametrize("command", ["eval", "ablate"])
    @pytest.mark.parametrize("option", [("n_resamples", "0"),
                                        ("alpha", "0"), ("alpha", "1.5")])
    def test_bad_bootstrap_option_exits_before_any_read(
            self, dataset, trained, tmp_path, capsys, monkeypatch, command,
            option):
        reads = []
        real = volcnn.data._read_planes
        monkeypatch.setattr(volcnn.data, "_read_planes",
                            lambda *a: reads.append(a[1]) or real(*a))
        run = tmp_path / "r"
        args = {"eval": ["--checkpoint", str(trained / "best.ckpt")],
                "ablate": ["--axis", "norm", "--values", "instance,batch",
                           "--crop_extent", "32", "--max_epochs", "1"]}
        code = main([command, "--run_dir", str(run), "--manifest",
                     str(dataset), f"--{option[0]}", option[1]]
                    + args[command])
        assert code == 2
        assert option[0] in capsys.readouterr().err
        assert reads == []
        assert not list(tmp_path.rglob("best.ckpt"))

    @pytest.mark.parametrize("command", ["eval", "ablate"])
    def test_unknown_split_exits_before_any_read(
            self, dataset, trained, tmp_path, capsys, monkeypatch, command):
        reads = []
        real = volcnn.data._read_planes
        monkeypatch.setattr(volcnn.data, "_read_planes",
                            lambda *a: reads.append(a[1]) or real(*a))
        loads = []
        real_load = model.load_checkpoint
        monkeypatch.setattr(model, "load_checkpoint",
                            lambda *a: loads.append(a) or real_load(*a))
        args = {"eval": ["--checkpoint", str(trained / "best.ckpt")],
                "ablate": ["--axis", "norm", "--values", "instance,batch",
                           "--crop_extent", "32", "--max_epochs", "1"]}
        code = main([command, "--run_dir", str(tmp_path / "r"),
                     "--manifest", str(dataset), "--split", "vall"]
                    + args[command])
        assert code == 2
        assert "split" in capsys.readouterr().err
        assert reads == [] and loads == []
        assert not list(tmp_path.rglob("best.ckpt"))

    @pytest.mark.parametrize("command", ["eval", "ablate"])
    def test_bad_batch_size_exits_before_any_read(
            self, dataset, trained, tmp_path, capsys, command):
        # The val volume was deleted, so a read would exit 3.
        with open(dataset, newline="") as fh:
            header, *rows = csv.reader(fh)
        gone = tmp_path / "val.vol"
        rows = [[r[0], str(gone) if r[4] == "val" else
                 str(dataset.parent / r[1])] + r[2:] for r in rows]
        manifest = tmp_path / "manifest.csv"
        with open(manifest, "w", newline="") as fh:
            csv.writer(fh).writerows([header] + rows)
        args = {"eval": ["--checkpoint", str(trained / "best.ckpt")],
                "ablate": ["--axis", "norm", "--values", "instance,batch",
                           "--crop_extent", "32", "--max_epochs", "1"]}
        code = main([command, "--run_dir", str(tmp_path / "r"),
                     "--manifest", str(manifest), "--batch_size", "0"]
                    + args[command])
        assert code == 2
        assert "batch_size" in capsys.readouterr().err
        assert not list(tmp_path.rglob("report.txt"))

    @pytest.mark.parametrize("key,value", [
        ("learning_rate", "nan"), ("learning_rate", "inf"),
        ("class_weights", "1,nan,1"), ("blur_hi", "inf")])
    def test_non_finite_value_rejected(self, tmp_path, capsys, key, value):
        run_dir = tmp_path / "r"
        assert main(["train", "--run_dir", str(run_dir),
                     f"--{key}", value]) == 2
        err = capsys.readouterr().err
        assert key in err and "not finite" in err
        assert not run_dir.exists()

    def test_config_leaves_numpy_unloaded(self, tmp_path):
        # --threads pins the BLAS pool, so numpy must not load before it
        script = (
            "import sys\n"
            "from volcnn.cli import build_parser, effective_config\n"
            "args, extra = build_parser().parse_known_args(\n"
            "    ['train', '--threads', '1', '--learning_rate', '0.5'])\n"
            "effective_config(args, extra)\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
        env = dict(os.environ)
        src = str(Path(volcnn.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_abbreviated_option_rejected(self, tmp_path, capsys):
        # argparse's prefix matching would read --con as --config
        cfg = tmp_path / "c.txt"
        cfg.write_text("n_per_class = 1\nextent = 16\n")
        assert main(["synth", "--run_dir", str(tmp_path / "r"),
                     "--con", str(cfg)]) == 2
        assert "unknown option --con" in capsys.readouterr().err

    def test_unknown_override_rejected(self, capsys):
        assert main(["train", "--bogus_key", "1"]) == 2
        assert "unknown option" in capsys.readouterr().err

    def test_bad_value_rejected(self, capsys):
        assert main(["train", "--max_epochs", "banana"]) == 2
        assert "max_epochs" in capsys.readouterr().err

    def test_missing_value_rejected(self):
        assert main(["synth", "--seed"]) == 2

    def test_stray_positional_rejected(self):
        assert main(["synth", "oops"]) == 2

    def test_unknown_key_in_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("bogus = 1\n")
        assert main(["synth", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "cfg.txt:1" in err and "bogus" in err

    def test_override_beats_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# comment\nn_per_class = 5\nextent = 16\n")
        code = main(["synth", "--config", str(cfg),
                     "--run_dir", str(tmp_path / "run"),
                     "--n_per_class", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "n_per_class = 2" in out
        assert "extent = 16" in out

    def test_config_txt_matches_echo(self, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["synth", "--run_dir", str(run), "--extent", "16",
                     "--n_per_class", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith((run / "config.txt").read_text())

    def test_config_txt_with_hash_in_paths_reproduces_run(
            self, dataset, trained, tmp_path):
        data_dir = tmp_path / "d#1"
        data_dir.mkdir()
        for f in dataset.parent.iterdir():
            (data_dir / f.name).write_bytes(f.read_bytes())
        run = tmp_path / "r#2"
        assert main(["eval", "--run_dir", str(run), "--manifest",
                     str(data_dir / "manifest.csv"),
                     "--checkpoint", str(trained / "best.ckpt")]) == 0
        names = ("config.txt", "report.txt", "logits.csv")
        first = {n: (run / n).read_bytes() for n in names}
        assert f"run_dir = {run}\n".encode() in first["config.txt"]
        for n in names[1:]:
            (run / n).unlink()
        assert main(["eval", "--config", str(run / "config.txt")]) == 0
        assert {n: (run / n).read_bytes() for n in names} == first

    def test_key_set_twice_exits_before_any_read(self, dataset, trained,
                                                 tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        run = tmp_path / "r"
        cfg.write_text(f"  # indented comment\nmanifest = {dataset}\n"
                       f"run_dir = {run}\nmanifest = {dataset}\n")
        assert main(["eval", "--config", str(cfg),
                     "--checkpoint", str(trained / "best.ckpt")]) == 2
        err = capsys.readouterr().err
        assert "cfg.txt:4" in err and "'manifest'" in err and "line 2" in err
        assert not run.exists()

    def test_config_txt_reproduces_run(self, tmp_path):
        first = tmp_path / "first"
        assert main(["synth", "--run_dir", str(first), "--seed", "3",
                     "--extent", "16", "--n_per_class", "2"]) == 0
        second = tmp_path / "second"
        assert main(["synth", "--config", str(first / "config.txt"),
                     "--run_dir", str(second)]) == 0
        a = (first / "dataset" / "manifest.csv").read_bytes()
        b = (second / "dataset" / "manifest.csv").read_bytes()
        assert a == b

    def test_threads_flag_sets_env(self, tmp_path):
        keys = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS")
        saved = {k: os.environ.get(k) for k in keys}
        try:
            assert main(["synth", "--run_dir", str(tmp_path / "r"),
                         "--extent", "16", "--n_per_class", "1",
                         "--threads", "2"]) == 0
            for k in keys:
                assert os.environ[k] == "2"
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v

    def test_threads_flag_beats_config_file(self, tmp_path, monkeypatch):
        # main sets all five; delenv makes monkeypatch restore them
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS"):
            monkeypatch.delenv(k, raising=False)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("threads = 3\n")
        assert main(["synth", "--config", str(cfg),
                     "--run_dir", str(tmp_path / "r"), "--extent", "16",
                     "--n_per_class", "1", "--threads", "2"]) == 0
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"

    def test_bad_threads_value_rejected(self, capsys):
        assert main(["synth", "--threads", "banana"]) == 2
        assert "threads" in capsys.readouterr().err

    def test_generated_run_dir_is_always_new(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(time, "strftime", lambda fmt: "20260101-120000")
        (tmp_path / "runs" / "20260101-120000-seed4-2").mkdir(parents=True)
        for _ in range(3):
            assert main(["synth", "--seed", "4", "--n_per_class", "1",
                         "--extent", "16"]) == 0
        made = sorted(p.name for p in (tmp_path / "runs").iterdir())
        assert made == ["20260101-120000-seed4", "20260101-120000-seed4-2",
                        "20260101-120000-seed4-3", "20260101-120000-seed4-4"]
        assert not (tmp_path / "runs" / made[1] / "config.txt").exists()
        for name in made[:1] + made[2:]:
            config = (tmp_path / "runs" / name / "config.txt").read_text()
            assert f"run_dir = runs/{name}\n" in config

    def test_explicit_run_dir_may_exist(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for _ in range(2):
            assert main(["synth", "--run_dir", "r", "--n_per_class", "1",
                         "--extent", "16"]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["r"]

    def test_negative_threads_rejected(self, tmp_path, capsys):
        run_dir = tmp_path / "r"
        assert main(["synth", "--threads", "-1", "--run_dir", str(run_dir)]) == 2
        assert "threads" in capsys.readouterr().err
        assert not run_dir.exists()


class TestTrain:
    def test_artifacts(self, trained):
        assert (trained / "best.ckpt").exists()
        assert (trained / "config.txt").exists()
        log = (trained / "train_log.csv").read_text().splitlines()
        assert log[0] == LOG_HEADER
        assert len(log) == 3  # header + 2 epochs

    def test_echo_lines(self, dataset, tmp_path, capsys):
        code = main(["train", "--run_dir", str(tmp_path / "r"),
                     "--manifest", str(dataset), "--crop_extent", "32",
                     "--max_epochs", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "train_subjects = CN:3 MCI:3 AD:3" in out
        assert "resolved batch_size = 4" in out
        assert LOG_HEADER in out

    def test_config_of_an_eval_run_leaves_its_checkpoint(
            self, dataset, trained, tmp_path, capsys):
        ckpt = tmp_path / "model" / "best.ckpt"
        ckpt.parent.mkdir()
        ckpt.write_bytes((trained / "best.ckpt").read_bytes())
        assert main(["eval", "--run_dir", str(tmp_path / "e"), "--manifest",
                     str(dataset), "--checkpoint", str(ckpt)]) == 0
        run = tmp_path / "t"
        capsys.readouterr()
        assert main(["train", "--config", str(tmp_path / "e" / "config.txt"),
                     "--run_dir", str(run), "--max_epochs", "1",
                     "--seed", "1"]) == 0
        assert ckpt.read_bytes() == (trained / "best.ckpt").read_bytes()
        assert f"checkpoint = {run / 'best.ckpt'}\n" in capsys.readouterr().out
        assert (run / "best.ckpt").exists()

    def test_batch_norm_batch_of_one_fails_first(self, dataset, tmp_path,
                                                 capsys):
        run = tmp_path / "r"
        code = main(["train", "--run_dir", str(run), "--manifest",
                     str(dataset), "--crop_extent", "32", "--max_epochs", "1",
                     "--norm", "batch", "--batch_size", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "batch_size >= 2, got 1" in captured.err
        assert "train_subjects" not in captured.out  # no manifest read
        assert not (run / "train_log.csv").exists()

    def test_rerun_matches_byte_for_byte(self, dataset, trained, tmp_path):
        again = tmp_path / "again"
        assert main(["train", "--run_dir", str(again),
                     "--manifest", str(dataset)] + TRAIN_ARGS) == 0
        assert ((again / "best.ckpt").read_bytes()
                == (trained / "best.ckpt").read_bytes())
        assert ((again / "train_log.csv").read_bytes()
                == (trained / "train_log.csv").read_bytes())

    def test_subsample_halves_train_subjects(self, dataset, tmp_path,
                                             capsys):
        code = main(["train", "--run_dir", str(tmp_path / "r"),
                     "--manifest", str(dataset), "--crop_extent", "32",
                     "--max_epochs", "1", "--subsample_rate", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "train_subjects = CN:2 MCI:2 AD:2" in out

    def test_empty_val_split_is_a_data_error(self, tmp_path, capsys):
        # n_per_class=2 rounds to 1 train / 0 val per class
        assert main(["synth", "--run_dir", str(tmp_path / "s"),
                     "--n_per_class", "2", "--extent", "16"]) == 0
        manifest = tmp_path / "s" / "dataset" / "manifest.csv"
        code = main(["train", "--run_dir", str(tmp_path / "r"),
                     "--manifest", str(manifest), "--crop_extent", "16"])
        assert code == 3
        assert "val" in capsys.readouterr().err

    def test_leaky_manifest_rejected(self, dataset, tmp_path, capsys):
        rows = dataset.read_text().splitlines()
        train_row = next(r for r in rows[1:] if r.endswith("train"))
        leaky = dataset.parent / "leaky.csv"
        leaky.write_text("\n".join(rows)
                         + "\n" + train_row.replace("train", "val") + "\n")
        code = main(["train", "--run_dir", str(tmp_path / "r"),
                     "--manifest", str(leaky), "--crop_extent", "32"])
        assert code == 3
        err = capsys.readouterr().err
        assert train_row.split(",")[0] in err

    def test_missing_manifest_is_a_data_error(self, tmp_path):
        assert main(["train", "--run_dir", str(tmp_path / "r"),
                     "--manifest", str(tmp_path / "nope.csv")]) == 3

    def test_settings_checked_before_volumes_are_read(self, dataset,
                                                      tmp_path, capsys):
        rows = dataset.read_text().splitlines()
        first = rows[1].split(",")
        first[1] = "missing.vol"
        broken = dataset.parent / "missing_volume.csv"
        broken.write_text("\n".join([rows[0], ",".join(first)] + rows[2:])
                          + "\n")
        code = main(["train", "--run_dir", str(tmp_path / "r"),
                     "--manifest", str(broken), "--crop_extent", "32",
                     "--norm", "bogus"])
        assert code == 2
        assert "norm" in capsys.readouterr().err

    @pytest.mark.parametrize("blur_hi", ["11", "12"])
    def test_blur_bound_checked_before_epoch_one(self, dataset, tmp_path,
                                                 capsys, blur_hi):
        # ceil(3 * blur_hi) exceeds the 32-voxel volumes, so some sigma
        # drawn below blur_hi would fail
        run = tmp_path / "r"
        code = main(["train", "--run_dir", str(run),
                     "--manifest", str(dataset), "--crop_extent", "32",
                     "--max_epochs", "3", "--blur_hi", blur_hi])
        assert code == 2
        assert "blur radius" in capsys.readouterr().err
        assert not (run / "train_log.csv").exists()
        assert not (run / "best.ckpt").exists()

    def test_blank_val_scan_is_a_data_error(self, dataset, tmp_path,
                                            capsys):
        rows = dataset.read_text().splitlines()
        out = [rows[0]]
        blank = None
        for line in rows[1:]:
            subject, path, *rest = line.split(",")
            path = dataset.parent / path
            if blank is None and rest[-1] == "val":
                blank = subject
                vol = np.asarray(volcnn.data.NativeVolume(path))
                path = tmp_path / "blank.vol"
                volcnn.data.write_native(path, vol * 0 + 0.5)
            out.append(",".join([subject, str(path)] + rest))
        manifest = tmp_path / "blank.csv"
        manifest.write_text("\n".join(out) + "\n")
        run = tmp_path / "r"
        code = main(["train", "--run_dir", str(run),
                     "--manifest", str(manifest), "--crop_extent", "32",
                     "--max_epochs", "1"])
        out, err = capsys.readouterr()
        assert code == 3
        assert blank in err and "constant volume" in err
        assert "Traceback" not in err
        # rejected before epoch 1 starts (its header line), so no epoch
        # line, log or checkpoint
        assert LOG_HEADER not in out
        assert not any(line.startswith("1,") for line in out.splitlines())
        assert not (run / "train_log.csv").exists()
        assert not (run / "best.ckpt").exists()

    def test_unallocatable_model_exits_before_reading(self, dataset,
                                                      tmp_path, capsys):
        # every volume path is missing: the network is built, and fails,
        # before the manifest is read
        rows = dataset.read_text().splitlines()
        missing = [rows[0]] + [line.replace(".vol", ".missing.vol")
                               for line in rows[1:]]
        manifest = tmp_path / "missing.csv"
        manifest.write_text("\n".join(missing) + "\n")
        run = tmp_path / "r"
        t0 = time.monotonic()
        code = main(["train", "--run_dir", str(run),
                     "--manifest", str(manifest), "--crop_extent", "32",
                     "--widening_factor", "1000000"])
        assert time.monotonic() - t0 < 2.0
        assert code == 2
        err = capsys.readouterr().err
        assert "allocate" in err and "Traceback" not in err
        assert not (run / "best.ckpt").exists()

    def test_divergent_lr_exits_numeric(self, dataset, tmp_path, capsys):
        code = main(["train", "--run_dir", str(tmp_path / "r"),
                     "--manifest", str(dataset), "--crop_extent", "32",
                     "--max_epochs", "5", "--learning_rate", "1e12"])
        assert code == 4
        assert "non-finite" in capsys.readouterr().err


class TestEval:
    def test_eval_writes_reports(self, dataset, trained, tmp_path, capsys):
        run = tmp_path / "e"
        code = main(["eval", "--run_dir", str(run),
                     "--manifest", str(dataset),
                     "--checkpoint", str(trained / "best.ckpt"),
                     "--split", "val", "--n_resamples", "50"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("report.txt", "logits.csv", "roc_cn.csv",
                     "roc_mci.csv", "roc_ad.csv"):
            assert (run / name).exists(), name
        assert "metric,value,ci_lo,ci_hi" in out
        assert "split = val, n = 3," in out
        logits = (run / "logits.csv").read_text().splitlines()
        assert logits[0] == "subject_id,label,p_cn,p_mci,p_ad,pred"
        assert len(logits) == 4

    def test_eval_is_deterministic(self, dataset, trained, tmp_path):
        outs = []
        for d in ("e1", "e2"):
            run = tmp_path / d
            assert main(["eval", "--run_dir", str(run),
                         "--manifest", str(dataset),
                         "--checkpoint", str(trained / "best.ckpt"),
                         "--n_resamples", "50"]) == 0
            outs.append((run / "report.txt").read_bytes())
        assert outs[0] == outs[1]

    def test_missing_split(self, dataset, trained, tmp_path, capsys):
        # the 4-per-class dataset has no test rows
        code = main(["eval", "--run_dir", str(tmp_path / "e"),
                     "--manifest", str(dataset),
                     "--checkpoint", str(trained / "best.ckpt"),
                     "--split", "test"])
        assert code == 3
        assert "test" in capsys.readouterr().err

    def test_checkpoint_required(self, dataset, tmp_path):
        assert main(["eval", "--run_dir", str(tmp_path / "e"),
                     "--manifest", str(dataset)]) == 2

    def test_unreadable_checkpoint(self, dataset, tmp_path):
        assert main(["eval", "--run_dir", str(tmp_path / "e"),
                     "--manifest", str(dataset),
                     "--checkpoint", str(tmp_path / "nope.ckpt")]) == 3

    def test_oversized_extent_is_a_data_error(self, dataset, trained,
                                              tmp_path, capsys):
        raw = bytearray((trained / "best.ckpt").read_bytes())
        (cfg_len,) = struct.unpack_from("<I", raw, 12)
        name_at = 8 + 8 + cfg_len + 4
        (nlen,) = struct.unpack_from("<H", raw, name_at)
        struct.pack_into("<Q", raw, name_at + 2 + nlen + 1, 2**63)
        ckpt = tmp_path / "huge.ckpt"
        ckpt.write_bytes(bytes(raw))
        assert main(["eval", "--run_dir", str(tmp_path / "e"),
                     "--manifest", str(dataset),
                     "--checkpoint", str(ckpt)]) == 3
        err = capsys.readouterr().err
        assert "truncated" in err and err.count(str(ckpt)) == 1

    def test_truncated_config_names_the_path_once(self, dataset, trained,
                                                  tmp_path, capsys):
        raw = (trained / "best.ckpt").read_bytes()
        ckpt = tmp_path / "short.ckpt"
        ckpt.write_bytes(raw[:20])  # magic, header, 4 bytes of config
        with pytest.raises(ValueError, match="reading config") as info:
            model.load_checkpoint(ckpt)
        assert str(ckpt) in str(info.value)
        assert main(["eval", "--run_dir", str(tmp_path / "e"),
                     "--manifest", str(dataset),
                     "--checkpoint", str(ckpt)]) == 3
        err = capsys.readouterr().err
        assert "truncated while reading config" in err
        assert err.count(str(ckpt)) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("twice", ["record", "header key"])
    def test_duplicate_is_a_data_error(self, dataset, trained, tmp_path,
                                       capsys, twice):
        raw = (trained / "best.ckpt").read_bytes()
        (cfg_len,) = struct.unpack_from("<I", raw, 12)
        header, body = raw[16:16 + cfg_len], raw[16 + cfg_len:]
        if twice == "record":  # a second fc2.bias after the first
            (count,) = struct.unpack_from("<I", body)
            body = (struct.pack("<I", count + 1) + body[4:]
                    + struct.pack("<H", 8) + b"fc2.bias"
                    + struct.pack("<BQ", 1, 3)
                    + np.array([7, 8, 9], "<f4").tobytes())
        else:
            header += b"widening_factor=2\n"
        ckpt = tmp_path / "dup.ckpt"
        ckpt.write_bytes(raw[:12] + struct.pack("<I", len(header)) + header
                         + body)
        assert main(["eval", "--run_dir", str(tmp_path / "e"),
                     "--manifest", str(dataset),
                     "--checkpoint", str(ckpt)]) == 3
        err = capsys.readouterr().err
        assert "appears twice" in err
        assert err.count(str(ckpt)) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("key, value", [
        ("widening_factor", "1000000"), ("crop_extent", "100000"),
        ("extra_blocks", "1000000000"), ("normalize", "maybe"),
    ])
    def test_hostile_header_is_a_data_error(self, dataset, trained, tmp_path,
                                            capsys, key, value):
        # checked against the file's tensors before any network is planned
        # or allocated
        raw = (trained / "best.ckpt").read_bytes()
        (cfg_len,) = struct.unpack_from("<I", raw, 12)
        lines = raw[16:16 + cfg_len].decode().splitlines(keepends=True)
        header = "".join(f"{key}={value}\n" if line.startswith(f"{key}=")
                         else line for line in lines)
        assert f"{key}={value}\n" in header
        ckpt = tmp_path / "hostile.ckpt"
        ckpt.write_bytes(raw[:12] + struct.pack("<I", len(header))
                         + header.encode() + raw[16 + cfg_len:])

        t0 = time.monotonic()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                model.load_checkpoint(ckpt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(raw)
        code = main(["eval", "--run_dir", str(tmp_path / "e"),
                     "--manifest", str(dataset), "--checkpoint", str(ckpt)])
        assert time.monotonic() - t0 < 5.0
        assert code == 3
        err = capsys.readouterr().err
        assert "cannot load checkpoint" in err and "Traceback" not in err
        assert err.count(str(ckpt)) == 1

    @staticmethod
    def legacy_checkpoint(path, width):
        """An encoded-age checkpoint as written while d_model was a model
        key: a d_model=<width> header line over <width>-wide age.fc1."""
        net = model.build(
            model.ModelConfig(crop_extent=32, age_mode="encoded"), Rng(3))
        if width != volcnn.ops.D_MODEL:
            net.params["age.fc1.weight"] = Tensor(
                np.zeros((model.AGE_HIDDEN, width), np.float32))
        model.save_checkpoint(path, net, {"d_model": str(width)})
        return net

    def test_legacy_d_model_header_loads(self, dataset, tmp_path):
        ckpt = tmp_path / "legacy.ckpt"
        net = self.legacy_checkpoint(ckpt, 128)
        assert b"\nd_model=128\n" in ckpt.read_bytes()
        loaded, extra = model.load_checkpoint(ckpt)
        assert extra == {"d_model": "128"}
        assert loaded.config == net.config
        for name, t in net.params.items():
            assert loaded.params[name].data.tobytes() == t.data.tobytes()
        assert main(["eval", "--run_dir", str(tmp_path / "e"),
                     "--manifest", str(dataset), "--checkpoint", str(ckpt),
                     "--n_resamples", "10"]) == 0

    def test_legacy_d_model_of_another_width_is_a_data_error(
            self, dataset, tmp_path, capsys):
        ckpt = tmp_path / "legacy64.ckpt"
        self.legacy_checkpoint(ckpt, 64)
        assert main(["eval", "--run_dir", str(tmp_path / "e"),
                     "--manifest", str(dataset),
                     "--checkpoint", str(ckpt)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert "age.fc1.weight" in err and err.count(str(ckpt)) == 1


    def test_batch_norm_checkpoint_evaluates_one_at_a_time(
            self, dataset, tmp_path, capsys):
        # eval-mode batch norm reads its running statistics, so a batch of
        # one is fine, unlike in training
        ckpt = tmp_path / "bn.ckpt"
        net = model.build(
            model.ModelConfig(crop_extent=32, norm="batch"), Rng(3))
        model.save_checkpoint(ckpt, net)
        run = tmp_path / "e"
        assert main(["eval", "--run_dir", str(run), "--manifest",
                     str(dataset), "--checkpoint", str(ckpt),
                     "--batch_size", "1", "--n_resamples", "10"]) == 0
        assert "batch_size = 1" in capsys.readouterr().out
        manifest = volcnn.data.load_manifest(dataset)
        samples = [volcnn.data.load_sample(manifest, r)
                   for r in manifest.rows if r.split == "val"]
        _, probs = optim.evaluate_samples(net, samples, 1)
        want = metrics.write_logits_csv(
            [s.subject_id for s in samples], [s.label for s in samples],
            probs, tmp_path / "want.csv")
        assert (run / "logits.csv").read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("command", ["eval", "saliency"])
    @pytest.mark.parametrize("name, value", [("fc2.bias", np.nan),
                                             ("block2.conv.weight", np.inf)])
    def test_non_finite_checkpoint_is_a_data_error(
            self, dataset, trained, tmp_path, capsys, command, name, value):
        net, extra = model.load_checkpoint(trained / "best.ckpt")
        net.params[name].data.reshape(-1)[0] = value
        ckpt = tmp_path / "bad.ckpt"
        model.save_checkpoint(ckpt, net, extra)
        run = tmp_path / "r"
        assert main([command, "--run_dir", str(run), "--manifest",
                     str(dataset), "--checkpoint", str(ckpt),
                     "--views", "axial:5"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert f"tensor {name!r} holds a non-finite value" in err[0]
        assert err[0].count(str(ckpt)) == 1
        assert not (run / "report.txt").exists()
        assert not (run / "saliency").exists()

    def test_single_class_split_is_a_data_error(self, dataset, trained,
                                                tmp_path, capsys):
        # every AUC is undefined on a split of one class: the data's fault
        manifest = one_cn_val_manifest(dataset, tmp_path / "one.csv")
        run = tmp_path / "e"
        assert main(["eval", "--run_dir", str(run), "--manifest",
                     str(manifest), "--checkpoint", str(trained / "best.ckpt"),
                     "--n_resamples", "10"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: AUC undefined for every class"]
        assert not (run / "report.txt").exists()

class TestAblate:
    def test_norm_axis_switches_batch_size(self, dataset, tmp_path, capsys):
        run = tmp_path / "ab"
        code = main(["ablate", "--run_dir", str(run),
                     "--manifest", str(dataset), "--crop_extent", "32",
                     "--max_epochs", "1", "--axis", "norm",
                     "--values", "instance,batch", "--n_resamples", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "resolved batch_size = 4" in out
        assert "resolved batch_size = 16" in out
        summary = (run / "summary.csv").read_text().splitlines()
        assert len(summary) == 3
        assert summary[0].startswith("value,status,accuracy")
        assert summary[1].startswith("instance,ok,")
        assert summary[2].startswith("batch,ok,")
        for sub in ("norm_instance", "norm_batch"):
            assert (run / sub / "best.ckpt").exists()
            assert (run / sub / "report.txt").exists()

    def test_single_class_split_records_a_data_error(self, dataset,
                                                      tmp_path, capsys):
        manifest = one_cn_val_manifest(dataset, tmp_path / "one.csv")
        run = tmp_path / "ab"
        code = main(["ablate", "--run_dir", str(run), "--manifest",
                     str(manifest), "--crop_extent", "32", "--max_epochs",
                     "1", "--axis", "width", "--values", "1",
                     "--n_resamples", "10"])
        assert code == 3
        assert "AUC undefined for every class" in capsys.readouterr().err
        summary = (run / "summary.csv").read_text().splitlines()
        assert summary[1] == "1,failed" + ",-" * 12

    def test_subsample_axis(self, dataset, tmp_path, capsys, monkeypatch):
        loads = []
        real = volcnn.data.load_sample

        def counted(manifest, row):
            loads.append(row)
            return real(manifest, row)

        monkeypatch.setattr(volcnn.data, "load_sample", counted)
        run = tmp_path / "ab"
        code = main(["ablate", "--run_dir", str(run),
                     "--manifest", str(dataset), "--crop_extent", "32",
                     "--max_epochs", "1", "--axis", "subsample",
                     "--values", "0.5,1.0", "--n_resamples", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "train_subjects = CN:2 MCI:2 AD:2" in out
        assert "train_subjects = CN:3 MCI:3 AD:3" in out
        assert len((run / "summary.csv").read_text().splitlines()) == 3
        # each of the 9 train and 3 val volumes is read once per sweep
        assert len(loads) == len(set(loads)) == 12

    def test_failed_value_recorded_and_sweep_continues(self, dataset,
                                                       tmp_path, capsys):
        run = tmp_path / "ab"
        code = main(["ablate", "--run_dir", str(run),
                     "--manifest", str(dataset), "--crop_extent", "32",
                     "--max_epochs", "2", "--axis", "width",
                     "--values", "1", "--learning_rate", "1e12",
                     "--n_resamples", "10"])
        assert code == 4
        summary = (run / "summary.csv").read_text().splitlines()
        assert summary[1].startswith("1,failed")
        assert "failed" in capsys.readouterr().err

    @pytest.mark.parametrize("axis,values", [("norm", "instance,instance"),
                                             ("width", "1,01"),
                                             ("subsample", "0.5,1,.5")])
    def test_values_that_parse_equal_rejected(self, dataset, tmp_path,
                                              capsys, axis, values):
        run = tmp_path / "ab"
        code = main(["ablate", "--run_dir", str(run),
                     "--manifest", str(dataset), "--crop_extent", "32",
                     "--max_epochs", "1", "--axis", axis, "--values", values])
        assert code == 2
        assert "repeat" in capsys.readouterr().err
        assert [p.name for p in run.iterdir()] == ["config.txt"]

    def test_bad_axis(self, tmp_path):
        assert main(["ablate", "--run_dir", str(tmp_path / "r"),
                     "--axis", "flavor", "--values", "a"]) == 2

    def test_values_required(self, tmp_path):
        assert main(["ablate", "--run_dir", str(tmp_path / "r"),
                     "--axis", "norm"]) == 2

    def test_bad_value_names_key(self, tmp_path, capsys):
        assert main(["ablate", "--run_dir", str(tmp_path / "r"),
                     "--axis", "width", "--values", "1,x"]) == 2
        assert "widening_factor" in capsys.readouterr().err

    @pytest.mark.parametrize("axis,values,bad", [
        ("first_layer", "K1S1,../../../x", "'../../../x'"),
        ("norm", "instance,layer", "'layer'"),
        ("width", "1,0", "0"),
        ("depth", "0,-1", "-1"),
        ("subsample", "0.5,1.5", "1.5"),
        ("subsample", "1,0", "0.0")])
    def test_rejected_value_exits_before_any_sub_run(
            self, dataset, tmp_path, capsys, axis, values, bad):
        run = tmp_path / "ab"
        code = main(["ablate", "--run_dir", str(run),
                     "--manifest", str(dataset), "--crop_extent", "32",
                     "--max_epochs", "1", "--axis", axis, "--values", values])
        assert code == 2
        assert f"{axis} value {bad}: " in capsys.readouterr().err
        assert [p.name for p in run.iterdir()] == ["config.txt"]
        assert [p.name for p in tmp_path.iterdir()] == ["ab"]


class TestSaliency:
    def test_exports_per_sample_and_aggregate(self, dataset, trained,
                                              tmp_path, capsys):
        run = tmp_path / "sal"
        code = main(["saliency", "--run_dir", str(run),
                     "--manifest", str(dataset),
                     "--checkpoint", str(trained / "best.ckpt"),
                     "--split", "val", "--views", "axial:5,coronal:7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "saliency_files = 9" in out  # 3 samples x 2 views + 2 + 1
        files = sorted(p.name for p in (run / "saliency").iterdir())
        assert len(files) == 9
        assert "~aggregate_map.vol" in files
        assert "~aggregate_axial5.pgm" in files
        assert sum(f.endswith(".pgm") for f in files) == 8

    def test_repeated_subject_keeps_every_scan(self, dataset, trained,
                                               tmp_path, capsys):
        with open(dataset, newline="") as fh:
            header, *rows = csv.reader(fh)
        rows = [[r[0], str(dataset.parent / r[1])] + r[2:] for r in rows]
        first = next(r for r in rows if r[4] == "val")
        other = next(r for r in rows if r[4] == "train" and r[2] == first[2])
        rows.append([first[0], other[1]] + first[2:])  # a second val scan
        manifest = tmp_path / "manifest.csv"
        with open(manifest, "w", newline="") as fh:
            csv.writer(fh).writerows([header] + rows)
        run = tmp_path / "sal"
        assert main(["saliency", "--run_dir", str(run),
                     "--manifest", str(manifest),
                     "--checkpoint", str(trained / "best.ckpt"),
                     "--split", "val", "--views", "axial:5,coronal:7"]) == 0
        out = capsys.readouterr().out
        assert "saliency_files = 11" in out  # 4 scans x 2 views + 2 + 1
        files = {p.name for p in (run / "saliency").iterdir()}
        assert len(files) == 11
        for name in (first[0], f"{first[0]}~2"):
            assert {f"{name}_axial5.pgm", f"{name}_coronal7.pgm"} <= files

    def test_subject_named_aggregate_keeps_its_slices(self, dataset, trained,
                                                      tmp_path, capsys):
        # "aggregate" is a valid subject id: its slices and the aggregate
        # map's must not share a file name, and the count printed is the
        # count written
        with open(dataset, newline="") as fh:
            header, *rows = csv.reader(fh)
        rows = [[r[0], str(dataset.parent / r[1])] + r[2:] for r in rows]
        first = next(r for r in rows if r[4] == "val")
        first[0] = "aggregate"
        manifest = tmp_path / "manifest.csv"
        with open(manifest, "w", newline="") as fh:
            csv.writer(fh).writerows([header] + rows)
        run = tmp_path / "sal"
        assert main(["saliency", "--run_dir", str(run),
                     "--manifest", str(manifest),
                     "--checkpoint", str(trained / "best.ckpt"),
                     "--split", "val", "--views", "axial:5,coronal:7"]) == 0
        out = capsys.readouterr().out
        files = {p.name for p in (run / "saliency").iterdir()}
        assert f"saliency_files = {len(files)}" in out
        assert len(files) == 9  # 3 samples x 2 views + 2 + 1
        assert {"aggregate_axial5.pgm", "aggregate_coronal7.pgm"} <= files

    def test_bad_view_spec(self, dataset, trained, tmp_path):
        assert main(["saliency", "--run_dir", str(tmp_path / "r"),
                     "--manifest", str(dataset),
                     "--checkpoint", str(trained / "best.ckpt"),
                     "--views", "axial"]) == 2

    def test_views_checked_before_any_map(self, dataset, trained, tmp_path,
                                          monkeypatch):
        def no_map(*args, **kwargs):
            raise AssertionError("saliency computed before the view check")

        monkeypatch.setattr(volcnn.saliency, "saliency", no_map)
        run = tmp_path / "r"
        assert main(["saliency", "--run_dir", str(run),
                     "--manifest", str(dataset),
                     "--checkpoint", str(trained / "best.ckpt"),
                     "--views", "axial:40"]) == 2
        assert not (run / "saliency").exists()

    def test_smoothing_bound_checked_before_any_map(self, dataset, trained,
                                                    tmp_path, monkeypatch):
        def no_map(*args, **kwargs):
            raise AssertionError("saliency computed before the blur check")

        monkeypatch.setattr(volcnn.saliency, "saliency", no_map)
        run = tmp_path / "r"
        assert main(["saliency", "--run_dir", str(run),
                     "--manifest", str(dataset),
                     "--checkpoint", str(trained / "best.ckpt"),
                     "--smooth_sigma", "20", "--views", "axial:20"]) == 2
        assert not (run / "saliency").exists()


NORMALIZE_ARGS = ([], ["--normalize", "true"], ["--normalize", "false"])


class TestCheckpointPreprocessing:
    """eval and saliency preprocess as the checkpoint says, whatever the
    command's own normalize key."""

    @pytest.fixture(scope="class")
    def raw_model(self, tmp_path_factory, dataset) -> Path:
        # Batch norm after the K1S1 stem does not cancel a per-volume
        # affine map, so the z-score setting shows in the logits.
        run = tmp_path_factory.mktemp("cli-raw") / "run"
        assert main(["train", "--run_dir", str(run), "--manifest",
                     str(dataset), "--crop_extent", "32", "--max_epochs",
                     "1", "--norm", "batch", "--normalize", "false"]) == 0
        return run / "best.ckpt"

    def test_eval_uses_the_checkpoint_setting(self, dataset, raw_model,
                                              tmp_path):
        net, _ = model.load_checkpoint(raw_model)
        assert net.config.normalize is False
        manifest = volcnn.data.load_manifest(dataset)
        samples = [volcnn.data.load_sample(manifest, r)
                   for r in manifest.rows if r.split == "val"]
        bs = optim.resolve_batch_size(optim.TrainConfig(), net.config)
        _, probs = optim.evaluate_samples(net, samples, bs)
        want = metrics.write_logits_csv(
            [s.subject_id for s in samples], [s.label for s in samples],
            probs, tmp_path / "want.csv")
        for i, extra in enumerate(NORMALIZE_ARGS):
            run = tmp_path / f"e{i}"
            assert main(["eval", "--run_dir", str(run), "--manifest",
                         str(dataset), "--checkpoint", str(raw_model),
                         "--n_resamples", "20"] + extra) == 0
            assert (run / "logits.csv").read_bytes() == want.read_bytes()
        # the setting matters on this model: z-scored inputs score otherwise
        net.config = dataclasses.replace(net.config, normalize=True)
        _, zscored = optim.evaluate_samples(net, samples, bs)
        assert not np.array_equal(zscored, probs)

    def test_saliency_ignores_the_command_setting(self, dataset, raw_model,
                                                  tmp_path):
        outputs = []
        for i, extra in enumerate(NORMALIZE_ARGS):
            run = tmp_path / f"s{i}"
            assert main(["saliency", "--run_dir", str(run), "--manifest",
                         str(dataset), "--checkpoint", str(raw_model),
                         "--views", "axial:5,coronal:7"] + extra) == 0
            outputs.append({p.name: p.read_bytes()
                            for p in (run / "saliency").iterdir()})
        assert len(outputs[0]) == 9
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("command, args", [
        ("eval", ["--n_resamples", "20"]), ("saliency", ["--views", "axial:5"]),
    ])
    def test_echo_states_the_checkpoint_model(self, dataset, raw_model,
                                              tmp_path, capsys, monkeypatch,
                                              command, args):
        # the command's own model keys are the defaults: crop 96, instance
        # norm, z-scored inputs; the checkpoint is read once
        loads = []
        real_load = model.load_checkpoint
        monkeypatch.setattr(model, "load_checkpoint",
                            lambda path: loads.append(path) or real_load(path))
        run = tmp_path / command
        assert main([command, "--run_dir", str(run), "--manifest",
                     str(dataset), "--checkpoint", str(raw_model)] + args) == 0
        assert loads == [str(raw_model)]
        text = (run / "config.txt").read_text()
        for line in ("crop_extent = 32", "norm = batch", "normalize = false"):
            assert line in text.splitlines()
        assert capsys.readouterr().out.startswith(text)


class TestSubjectIds:
    @pytest.mark.parametrize("bad", ["../x", "/abs/x", "a,b", ".hidden"])
    @pytest.mark.parametrize("command", ["train", "saliency"])
    def test_unsafe_id_is_a_data_error(self, dataset, trained, tmp_path,
                                       capsys, bad, command):
        if bad.startswith("/"):  # absolute, and inside tmp_path all the same
            bad = str(tmp_path / bad[1:])
        with open(dataset, newline="") as fh:
            rows = list(csv.reader(fh))
        for r in rows[1:]:
            r[1] = str(dataset.parent / r[1])
        val = next(i for i, r in enumerate(rows) if r[4] == "val")
        rows[val][0] = bad
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        manifest = data_dir / "manifest.csv"
        with open(manifest, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        run = tmp_path / "deep" / "run"
        args = {"train": ["--crop_extent", "32", "--max_epochs", "1"],
                "saliency": ["--checkpoint", str(trained / "best.ckpt"),
                             "--views", "axial:5,coronal:7"]}[command]
        code = main([command, "--run_dir", str(run), "--manifest",
                     str(manifest)] + args)
        assert code == 3
        err = capsys.readouterr().err
        assert f"{manifest}:{val + 1}: subject id {bad!r}" in err
        written = sorted(p.relative_to(tmp_path).as_posix()
                         for p in tmp_path.rglob("*") if p.is_file())
        assert written == ["data/manifest.csv", "deep/run/config.txt"]


class TestGradcheck:
    def test_ops_scope_passes(self, tmp_path, capsys):
        run = tmp_path / "g"
        code = main(["gradcheck", "--run_dir", str(run), "--scope", "ops"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 failed" in out
        assert (run / "gradcheck.txt").read_text() in out

    def test_corrupted_gradient_fails(self, tmp_path, capsys, monkeypatch):
        real = volcnn.ops.conv3d_backward

        def corrupt(grad_out, x, w, spec):
            gx, gw, gb = real(grad_out, x, w, spec)
            gx.data *= 2.0
            return gx, gw, gb

        monkeypatch.setattr(volcnn.ops, "conv3d_backward", corrupt)
        code = main(["gradcheck", "--run_dir", str(tmp_path / "g"),
                     "--scope", "ops"])
        assert code == 4
        err = capsys.readouterr().err
        assert "conv" in err

    def test_model_scope_runs_only_the_model_check(self, tmp_path, capsys,
                                                   monkeypatch):
        def no_conv(*args, **kwargs):
            raise AssertionError("op checks run for scope model")

        monkeypatch.setattr(volcnn.gradcheck, "check_conv", no_conv)
        code = main(["gradcheck", "--run_dir", str(tmp_path / "g"),
                     "--scope", "model"])
        assert code == 0
        assert "1 checks, 0 failed" in capsys.readouterr().out

    def test_bad_scope(self, tmp_path):
        assert main(["gradcheck", "--run_dir", str(tmp_path / "g"),
                     "--scope", "everything"]) == 2
