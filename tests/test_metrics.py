import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from volcnn import metrics
from volcnn.tensor import Rng

# an overflow or invalid value in these tests is a failure, not a warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def pairwise_auc(scores, labels):
    """O(P*N) oracle: concordant pairs count 1, ties 0.5."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos = s[y == 1]
    neg = s[y == 0]
    total = 0.0
    for a in pos:
        for b in neg:
            if a > b:
                total += 1.0
            elif a == b:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAccuracy:
    def test_perfect(self):
        y = [0, 1, 2, 0, 1, 2]
        assert metrics.accuracy(y, y) == 1.0
        assert metrics.balanced_accuracy(y, y) == 1.0

    def test_balanced_from_confusion_diagonal(self):
        labels = [0] * 10 + [1] * 10 + [2] * 10
        preds = ([0] * 8 + [1] * 2) + ([1] * 5 + [2] * 5) + ([2] * 9 + [0])
        got = metrics.balanced_accuracy(preds, labels)
        assert abs(got - (0.8 + 0.5 + 0.9) / 3) < 1e-12

    def test_all_one_class_predictor(self):
        labels = [0] * 4 + [1] * 4 + [2] * 4
        assert abs(metrics.balanced_accuracy([1] * 12, labels) - 1 / 3) < 1e-12

    @given(st.lists(st.integers(0, 2), min_size=9, max_size=9))
    def test_balanced_equals_accuracy_on_uniform_labels(self, preds):
        labels = [0, 1, 2] * 3
        a = metrics.accuracy(preds, labels)
        b = metrics.balanced_accuracy(preds, labels)
        assert abs(a - b) < 1e-12

    def test_absent_class_warns_and_is_excluded(self):
        labels = [0, 0, 1, 1]
        preds = [0, 1, 1, 1]
        with pytest.warns(UserWarning, match="absent"):
            got = metrics.balanced_accuracy(preds, labels)
        assert abs(got - (0.5 + 1.0) / 2) < 1e-12

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            metrics.accuracy([], [])
        with pytest.raises(ValueError):
            metrics.accuracy([0, 1], [0])
        with pytest.raises(ValueError):
            metrics.balanced_accuracy([0, 3], [0, 1])


class TestRocAuc:
    def test_perfect_separation(self):
        auc, pts = metrics.roc_auc([0.9, 0.9, 0.1, 0.1], [1, 1, 0, 0])
        assert auc == 1.0
        geometric = []
        for fpr, tpr, _ in pts:
            if (fpr, tpr) not in geometric:
                geometric.append((fpr, tpr))
        assert geometric == [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]

    def test_all_tied_is_half(self):
        auc, _ = metrics.roc_auc([0.5] * 6, [1, 0, 1, 0, 1, 0])
        assert auc == 0.5

    @given(st.data())
    @settings(max_examples=60)
    def test_matches_pairwise_oracle(self, data):
        n = data.draw(st.integers(4, 50))
        # integer grid forces plenty of ties
        scores = data.draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
        labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        if len(set(labels)) < 2:
            labels[0], labels[1] = 0, 1
        scores = [float(v) for v in scores]
        auc, _ = metrics.roc_auc(scores, labels)
        assert abs(auc - pairwise_auc(scores, labels)) < 1e-12

    @given(st.data())
    @settings(max_examples=40)
    def test_monotone_transform_invariance(self, data):
        n = data.draw(st.integers(4, 30))
        scores = np.array(
            data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)),
            dtype=np.float64)
        labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        if len(set(labels)) < 2:
            labels[0], labels[1] = 0, 1
        transformed = 2.0 * scores ** 3 + 3.0 * scores + np.arctan(scores)
        a, _ = metrics.roc_auc(scores, labels)
        b, _ = metrics.roc_auc(transformed, labels)
        assert a == b

    @given(st.data())
    @settings(max_examples=40)
    def test_label_reversal(self, data):
        n = data.draw(st.integers(4, 30))
        scores = data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
        labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        if len(set(labels)) < 2:
            labels[0], labels[1] = 0, 1
        scores = [float(v) for v in scores]
        a, _ = metrics.roc_auc(scores, labels)
        b, _ = metrics.roc_auc(scores, [1 - v for v in labels])
        assert abs((a + b) - 1.0) < 1e-12

    def test_point_structure(self):
        scores = [0.9, 0.9, 0.7, 0.4, 0.4, 0.1]
        labels = [1, 0, 1, 0, 1, 0]
        _, pts = metrics.roc_auc(scores, labels)
        assert len(pts) == 4 + 2  # unique thresholds + endpoints
        fprs = [p[0] for p in pts]
        assert fprs == sorted(fprs)
        thr = [p[2] for p in pts]
        assert all(a > b for a, b in zip(thr, thr[1:]))
        assert pts[0] == (0.0, 0.0, metrics.ROC_START)
        assert pts[-1] == (1.0, 1.0, metrics.ROC_END)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="single class"):
            metrics.roc_auc([0.1, 0.2], [1, 1])

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            metrics.roc_auc([0.1, 0.2], [0, 2])


class TestMulticlassAuc:
    def test_one_hot_probs(self):
        labels = [0, 1, 2, 0, 1, 2]
        probs = np.eye(3)[labels]
        out = metrics.multiclass_auc(probs, labels)
        assert out.per_class == (1.0, 1.0, 1.0)
        assert out.micro == 1.0
        assert out.macro == 1.0

    def test_uniform_probs(self):
        labels = [0, 1, 2, 0, 1, 2]
        probs = np.full((6, 3), 1 / 3)
        out = metrics.multiclass_auc(probs, labels)
        assert out.per_class == (0.5, 0.5, 0.5)
        assert out.micro == 0.5
        assert out.macro == 0.5

    def test_micro_matches_pooled_oracle(self):
        g = np.random.default_rng(7)
        labels = g.integers(0, 3, size=30)
        logits = g.normal(size=(30, 3))
        logits[np.arange(30), labels] += 1.0
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        out = metrics.multiclass_auc(probs, labels)
        pooled_scores = np.concatenate([probs[:, c] for c in range(3)])
        pooled_labels = np.concatenate(
            [(labels == c).astype(int) for c in range(3)])
        assert abs(out.micro - pairwise_auc(pooled_scores, pooled_labels)) < 1e-12

    def test_macro_is_exact_mean(self):
        g = np.random.default_rng(1)
        labels = np.array([0] * 12 + [1] * 9 + [2] * 9)
        probs = g.dirichlet(np.ones(3), size=30)
        out = metrics.multiclass_auc(probs, labels)
        assert out.macro == np.mean(out.per_class)

    def test_micro_differs_from_macro_when_imbalanced(self):
        # big easy class, two small hard ones: pooling favors the easy one
        g = np.random.default_rng(3)
        labels = np.array([0] * 20 + [1] * 5 + [2] * 5)
        logits = g.normal(size=(30, 3))
        logits[labels == 0, 0] += 4.0
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        out = metrics.multiclass_auc(probs, labels)
        assert abs(out.micro - out.macro) > 1e-3

    def test_absent_class_is_undefined_but_micro_survives(self):
        labels = [0, 0, 1, 1]
        probs = np.array([[0.8, 0.1, 0.1], [0.6, 0.3, 0.1],
                          [0.2, 0.7, 0.1], [0.3, 0.5, 0.2]])
        with pytest.warns(UserWarning, match="undefined"):
            out = metrics.multiclass_auc(probs, labels)
        assert out.per_class[2] is None
        assert out.roc_points[2] == ()
        assert out.macro == np.mean([out.per_class[0], out.per_class[1]])
        assert 0.0 <= out.micro <= 1.0

    def test_single_class_everywhere_rejected(self):
        probs = np.full((3, 3), 1 / 3)
        with pytest.raises(ValueError, match="every class"):
            metrics.multiclass_auc(probs, [0, 0, 0])

    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            metrics.multiclass_auc(np.full((2, 3), 0.5), [0, 1])

    def test_nan_probabilities_rejected(self):
        # a NaN row passes the row-sum check, whose comparison is False on NaN
        probs = [[np.nan, .5, .5], [.2, .3, .5], [.1, .1, .8], [.6, .2, .2]]
        with pytest.raises(ValueError, match="finite"):
            metrics.multiclass_auc(probs, [0, 1, 2, 0])


def fake_eval(n_per_class=8, seed=0, classes=(0, 1, 2), lift=1.5):
    """Labels and [n, 3] class probabilities that favour the true class."""
    g = np.random.default_rng(seed)
    labels, probs = [], []
    for c in classes:
        for i in range(n_per_class):
            logits = g.normal(size=3)
            logits[c] += lift
            p = np.exp(logits - logits.max())
            labels.append(c)
            probs.append(p / p.sum())
    return np.array(labels), np.array(probs)


def per_draw_ci(n, value, rng, n_resamples, alpha=0.05):
    """Oracle for bootstrap_ci, one draw at a time: draw k resamples the
    indices rng.stream("bootstrap", k).integers(n, (n,)), and value scores
    them alone, NaN where undefined. NaN is redrawn with the next k, up to
    10 * n_resamples draws."""
    vals, k = [], 0
    while len(vals) < n_resamples:
        if k == 10 * n_resamples:
            raise ValueError("bootstrap redraw cap exceeded")
        v = value(rng.stream("bootstrap", k).integers(n, (n,)))
        k += 1
        if not np.isnan(v):
            vals.append(v)
    lo, hi = np.percentile(vals, [50.0 * alpha, 100.0 - 50.0 * alpha])
    return float(lo), float(hi)


def hits(labels, probs):
    """Per sample, 1 where the prediction is right: a block's row means
    are the accuracies of its resamples."""
    return (probs.argmax(1) == labels).astype(np.float64)


class TestBootstrap:
    def test_constant_metric(self):
        lo, hi = metrics.bootstrap_ci(
            12, lambda idx: np.full(len(idx), 0.25), Rng(0), n_resamples=50)
        assert lo == hi == 0.25

    def test_deterministic_under_seed(self):
        h = hits(*fake_eval(4))

        def acc(idx):
            return h[idx].mean(1)

        a = metrics.bootstrap_ci(len(h), acc, Rng(9), n_resamples=100)
        b = metrics.bootstrap_ci(len(h), acc, Rng(9), n_resamples=100)
        assert a == b

    def test_interval_contains_point_estimate(self):
        labels, probs = (a[:100] for a in fake_eval(34, seed=2))
        h = hits(labels, probs)
        point = metrics.accuracy(probs.argmax(1), labels)
        lo, hi = metrics.bootstrap_ci(len(h), lambda idx: h[idx].mean(1),
                                      Rng(0), n_resamples=1000)
        assert lo <= point <= hi

    def test_redraw_cap(self):
        with pytest.raises(ValueError, match="cap exceeded"):
            metrics.bootstrap_ci(6, lambda idx: np.full(len(idx), np.nan),
                                 Rng(0), n_resamples=10)

    def test_equal_to_the_per_draw_oracle(self):
        # undefined whenever index 0 is drawn twice: redrawn in both
        def block(idx):
            return np.where((idx == 0).sum(1) > 1, np.nan, idx.mean(1))

        def one(idx):
            return np.nan if (idx == 0).sum() > 1 else idx.mean()

        got = metrics.bootstrap_ci(5, block, Rng(3), 200)
        assert got == per_draw_ci(5, one, Rng(3), 200)
        assert all(np.isfinite(got)) and got[0] < got[1]

    def test_index_draws_reach_metric_fn_as_the_drawn_array(self,
                                                            monkeypatch):
        monkeypatch.setattr(metrics, "_block_rows", lambda n: 7)
        blocks, draws = [], []

        def fn(block):
            blocks.append(block)
            return np.zeros(len(block))

        metrics.bootstrap_ci(12, fn, Rng(4), n_resamples=20)
        per_draw_ci(12, lambda idx: draws.append(idx) or 0.0, Rng(4), 20)
        assert all(isinstance(d, np.ndarray) and d.dtype == np.int64
                   and d.ndim == 2 and d.shape[1] == 12 for d in blocks)
        assert [len(d) for d in blocks] == [7, 7, 6]
        assert np.array_equal(np.concatenate(blocks), np.stack(draws))

    def test_blocks_stop_at_the_last_value_and_at_the_cap(self):
        sizes = []

        def fn(block):  # one defined value, on the very first draw
            values = np.full(len(block), np.nan)
            if not sizes:
                values[0] = 0.5
            sizes.append(len(block))
            return values

        metrics.bootstrap_ci(12, fn, Rng(1), n_resamples=1)
        assert sizes == [1]
        sizes.clear()
        with pytest.raises(ValueError, match="30 draws yielded 1 defined"):
            metrics.bootstrap_ci(12, fn, Rng(1), n_resamples=3)
        assert sizes[:2] == [3, 2] and sizes[-1] == 1 and sum(sizes) == 30

    def test_bad_args(self):
        def fn(idx):
            return np.zeros(len(idx))

        with pytest.raises(ValueError):
            metrics.bootstrap_ci(2, fn, Rng(0), n_resamples=0)
        with pytest.raises(ValueError):
            metrics.bootstrap_ci(2, fn, Rng(0), alpha=1.5)
        with pytest.raises(ValueError):
            metrics.bootstrap_ci(0, fn, Rng(0))


class TestReport:
    def test_build_report_fields_and_invariant(self):
        rep = metrics.build_report(*fake_eval(8), Rng(0), n_resamples=200)
        assert rep.macro_auc == np.mean(rep.auc_per_class)
        assert 0.0 <= rep.accuracy <= 1.0
        for key in ("accuracy", "balanced_accuracy", "micro_auc",
                    "macro_auc", "auc_cn", "auc_mci", "auc_ad"):
            lo, hi = rep.intervals[key]
            assert lo <= hi

    def test_report_deterministic(self):
        labels, probs = fake_eval(6)
        a = metrics.build_report(labels, probs, Rng(4), n_resamples=100)
        b = metrics.build_report(labels, probs, Rng(4), n_resamples=100)
        assert metrics.format_report(a) == metrics.format_report(b)

    def test_format_report_keys(self):
        rep = metrics.build_report(*fake_eval(6), Rng(0), n_resamples=50)
        text = metrics.format_report(rep)
        for key in ("n_samples = 18", "accuracy = ", "balanced_accuracy = ",
                    "auc_cn = ", "micro_auc = ", "macro_auc = ", "ci95 = ["):
            assert key in text

    def test_missing_class_report(self):
        with pytest.warns(UserWarning):
            rep = metrics.build_report(*fake_eval(6, classes=(0, 1)), Rng(0),
                                       n_resamples=50)
        assert rep.auc_per_class[2] is None
        assert "auc_ad" not in rep.intervals
        assert "macro_auc" not in rep.intervals
        assert "micro_auc" in rep.intervals
        assert "auc_ad = undefined" in metrics.format_report(rep)

    def test_roc_export(self, tmp_path):
        labels, probs = fake_eval(6)
        rep = metrics.build_report(labels, probs, Rng(0), n_resamples=50)
        files = metrics.export_roc(rep, tmp_path)
        assert [f.name for f in files] == ["roc_cn.csv", "roc_mci.csv",
                                           "roc_ad.csv"]
        body = files[0].read_text().splitlines()
        assert body[0] == "fpr,tpr,threshold"
        assert body[1].endswith(",inf")
        assert body[-1].endswith(",-inf")
        fprs = [float(line.split(",")[0]) for line in body[1:]]
        assert fprs == sorted(fprs)
        uniq = len(np.unique(probs[:, 0]))
        assert len(body) == 1 + uniq + 2

    def test_roc_export_skips_undefined_class(self, tmp_path):
        with pytest.warns(UserWarning):
            rep = metrics.build_report(*fake_eval(6, classes=(0, 1)), Rng(0),
                                       n_resamples=50)
        files = metrics.export_roc(rep, tmp_path)
        assert [f.name for f in files] == ["roc_cn.csv", "roc_mci.csv"]

    def test_logits_csv(self, tmp_path):
        labels, probs = fake_eval(2)
        ids = [f"s{i}" for i in range(len(labels))]
        path = metrics.write_logits_csv(ids, labels, probs,
                                        tmp_path / "logits.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "subject_id,label,p_cn,p_mci,p_ad,pred"
        assert len(lines) == 1 + len(labels)
        first = lines[1].split(",")
        assert first[0] == "s0"
        assert first[1] == "CN"
        assert first[5] in ("CN", "MCI", "AD")
        probs = [float(v) for v in first[2:5]]
        assert abs(sum(probs) - 1.0) < 1e-5

    def test_logits_csv_first_maximal_class_in_sample_order(self, tmp_path):
        probs = np.array([[0.25, 0.375, 0.375], [0.5, 0.5, 0.0],
                          [0.2, 0.3, 0.5]], dtype=np.float32)
        path = metrics.write_logits_csv(["z", "a", "m"], [2, 1, 0], probs,
                                        tmp_path / "logits.csv")
        assert path.read_text().splitlines()[1:] == [
            "z,AD,0.250000,0.375000,0.375000,MCI",
            "a,MCI,0.500000,0.500000,0.000000,CN",
            "m,CN,0.200000,0.300000,0.500000,AD"]

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            metrics.build_report([], np.zeros((0, 3)), Rng(0))

    def test_interrupted_write_keeps_previous_report(self, tmp_path,
                                                     monkeypatch):
        path = metrics.write_report(
            metrics.build_report(*fake_eval(6), Rng(0), n_resamples=50),
            tmp_path / "report.txt")
        before = path.read_bytes()
        other = metrics.build_report(*fake_eval(6, seed=1), Rng(0),
                                     n_resamples=50)

        def crash(src, dst):
            raise OSError("killed before the rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="killed"):
            metrics.write_report(other, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]


REAL_BOOTSTRAP = metrics.bootstrap_ci


def counting_bootstrap(calls: list):
    """bootstrap_ci that appends the rows of each block it scores."""
    def bootstrap_ci(n, metric_fn, *args, **kwargs):
        def counted(block):
            calls.append(len(block))
            return metric_fn(block)
        return REAL_BOOTSTRAP(n, counted, *args, **kwargs)
    return bootstrap_ci


def per_draw_intervals(labels, probs, rng, n_resamples, alpha, calls):
    """Reference for build_report's intervals: every draw of per_draw_ci
    copies out the drawn labels, predictions and probabilities and reruns
    the public metric functions on them, NaN where they raise ValueError.
    Appends 1 to calls per draw."""
    labels, probs = np.asarray(labels), np.asarray(probs)
    preds = probs.argmax(1)

    def acc_fn(y, p, _):
        return metrics.accuracy(p, y)

    def bal_fn(y, p, _):
        return metrics.balanced_accuracy(p, y)

    def micro_fn(y, _, pr):
        return metrics.multiclass_auc(pr, y).micro

    def macro_fn(y, _, pr):
        out = metrics.multiclass_auc(pr, y)
        if any(a is None for a in out.per_class):
            raise ValueError("resample misses a class")
        return out.macro

    def class_fn(c):
        def fn(y, _, pr):
            return metrics.roc_auc(pr[:, c], (y == c).astype(int))[0]
        return fn

    def on_draw(fn):
        def value(idx):
            calls.append(1)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    return fn(labels[idx], preds[idx], probs[idx])
                except ValueError:
                    return np.nan
        return value

    plan = [("accuracy", acc_fn), ("balanced_accuracy", bal_fn),
            ("micro_auc", micro_fn)]
    if set(labels.tolist()) == set(range(metrics.NUM_CLASSES)):
        plan.append(("macro_auc", macro_fn))
        plan += [(f"auc_{name.lower()}", class_fn(c))
                 for c, name in enumerate(metrics.LABEL_NAMES)]
    return {key: per_draw_ci(len(labels), on_draw(fn), rng.stream(key),
                             n_resamples, alpha)
            for key, fn in plan}


def grid_eval(n, seed):
    """Probabilities on a coarse grid, so scores tie within and across
    classes."""
    g = np.random.default_rng(seed)
    probs = []
    for _ in range(n):
        k = g.integers(1, 4, size=3).astype(np.float64)
        probs.append(k / k.sum())
    return np.arange(n) % 3, np.array(probs)


class TestReportIntervals:
    @pytest.mark.parametrize("name, records, n_resamples", [
        ("random n=300", fake_eval(100, seed=5), 100),
        ("tied scores", grid_eval(24, seed=6), 300),
        ("n=5, redraws", [a[:5] for a in fake_eval(2, seed=7)], 300),
        ("class missing", fake_eval(6, seed=8, classes=(0, 2)), 200),
    ])
    def test_equal_to_record_list_resampling(self, name, records,
                                             n_resamples, monkeypatch):
        ref_calls, calls = [], []
        expected = per_draw_intervals(*records, Rng(3), n_resamples, 0.05,
                                      ref_calls)
        monkeypatch.setattr(metrics, "bootstrap_ci", counting_bootstrap(calls))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = metrics.build_report(*records, Rng(3), n_resamples)
        assert rep.intervals == expected
        assert sum(calls) == sum(ref_calls)
        if name.startswith("n=5"):
            assert sum(calls) > len(expected) * n_resamples  # redraws ran

    @pytest.mark.parametrize("records", [
        [a[:5] for a in fake_eval(2, seed=7)],
        fake_eval(6, seed=8, classes=(0, 2)),
    ], ids=["n=5, redraws", "class missing"])
    def test_block_size_does_not_change_intervals(self, records,
                                                  monkeypatch):
        reports = []
        for rows in (None, 1, 7):
            if rows is not None:
                monkeypatch.setattr(metrics, "_block_rows",
                                    lambda n, rows=rows: rows)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                warnings.simplefilter("error", RuntimeWarning)
                reports.append(metrics.build_report(*records, Rng(3), 300))
        assert reports[0].intervals == reports[1].intervals
        assert reports[0].intervals == reports[2].intervals

    def test_roc_auc_only_for_point_estimates(self, monkeypatch):
        calls = []
        real = metrics.roc_auc

        def counted(scores, labels):
            calls.append(len(scores))
            return real(scores, labels)

        monkeypatch.setattr(metrics, "roc_auc", counted)
        metrics.build_report(*fake_eval(10), Rng(0), n_resamples=200)
        assert len(calls) <= metrics.NUM_CLASSES + 1
