"""Evaluation metrics for the three-class task.

Accuracy, balanced accuracy (mean per-class recall), one-vs-rest ROC/AUC
with micro and macro averaging, percentile-bootstrap confidence intervals,
and serialization of the evaluation report (text summary, per-class ROC
CSVs, per-sample probability CSV).

AUC is computed with the rank statistic using midranks for ties, which
equals the pairwise count (#concordant + 0.5 * #tied) / (P * N) exactly.
One helper, `_rank_auc_rows`, computes it for the point estimates (one row
counting every sample once) and for the bootstrap (one row per resample,
counting every sample as often as that resample drew it), so the report's
intervals never copy the drawn samples: `bootstrap_ci` draws blocks of
index resamples, and `build_report` turns each block into one count matrix
and weighs fixed sorted arrays by it. The intervals do not depend on the
block size.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ALPHA, N_RESAMPLES, check_bootstrap
from .data import LABEL_NAMES, NUM_CLASSES, atomic_write
from .tensor import Rng


# sentinel thresholds for the synthetic ROC endpoints
ROC_START = float("inf")
ROC_END = float("-inf")


def _check_pair(preds, labels) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(preds, dtype=np.int64)
    y = np.asarray(labels, dtype=np.int64)
    if p.ndim != 1 or p.shape != y.shape:
        raise ValueError(f"preds shape {p.shape} vs labels shape {y.shape}")
    if p.size == 0:
        raise ValueError("empty input")
    for name, a in (("preds", p), ("labels", y)):
        if a.min() < 0 or a.max() >= NUM_CLASSES:
            raise ValueError(f"{name} outside [0, {NUM_CLASSES})")
    return p, y


def accuracy(preds, labels) -> float:
    p, y = _check_pair(preds, labels)
    return float((p == y).mean())


def balanced_accuracy(preds, labels) -> float:
    """Unweighted mean of per-class recall. Classes absent from the labels
    are excluded from the average (with a warning)."""
    p, y = _check_pair(preds, labels)
    recalls = []
    absent = []
    for c in range(NUM_CLASSES):
        mask = y == c
        if not mask.any():
            absent.append(LABEL_NAMES[c])
            continue
        recalls.append(float((p[mask] == c).mean()))
    if absent:
        warnings.warn(f"classes absent from labels excluded from recall "
                      f"average: {absent}", stacklevel=2)
    return float(np.mean(recalls))


def _tie_groups(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable ascending sort order of the scores, and the sorted positions
    where each tie group (a run of equal scores) starts."""
    order = np.argsort(scores, kind="stable")
    ss = scores[order]
    return order, np.flatnonzero(np.r_[True, ss[1:] != ss[:-1]])


def _rank_auc_rows(starts: np.ndarray, weight: np.ndarray,
                   positive: np.ndarray) -> np.ndarray:
    """Mann-Whitney AUC of sorted samples, one float64 per row of the
    [rows, m] int64 `weight`, whose row r counts sorted sample j
    weight[r, j] times; NaN where a row holds a single class.

    starts are the sorted positions where tie groups start (from
    `_tie_groups`), positive the 0/1 label of each sorted position. A group
    of total weight g after E earlier copies holds ranks E+1 .. E+g, so
    each copy gets the midrank E + (g + 1) / 2, twice which is the integer
    2E + g + 1. Every sum is of int64 integers and exact, and the one
    division rounds the exact quotient.
    """
    g_all = np.add.reduceat(weight, starts, axis=1)
    g_pos = np.add.reduceat(weight * positive, starts, axis=1)
    pos = g_pos.sum(axis=1)
    neg = g_all.sum(axis=1) - pos
    twice_mid = 2 * (np.cumsum(g_all, axis=1) - g_all) + g_all + 1
    twice_u = (g_pos * twice_mid).sum(axis=1) - pos * (pos + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((pos > 0) & (neg > 0), twice_u / (2 * pos * neg),
                        np.nan)


def _row_mean(values: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Mean of each row of `values` over its `present` columns, summed
    left to right as np.mean sums a short list; a NaN in a present column
    makes the row NaN."""
    total = np.zeros(len(values))
    for col, keep in zip(values.T, present.T):
        total += np.where(keep, col, 0.0)
    return total / present.sum(axis=1)


def roc_auc(scores, labels) -> tuple[float, list[tuple[float, float, float]]]:
    """Binary AUC plus the ROC polyline.

    Returns (auc, points) where points is [(fpr, tpr, threshold), ...]
    starting at (0, 0, inf), one row per unique score threshold in
    descending order, and ending at (1, 1, -inf). A sample is predicted
    positive when its score >= threshold.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if s.ndim != 1 or y.shape != s.shape:
        raise ValueError(f"scores shape {s.shape} vs labels shape {y.shape}")
    if s.size == 0:
        raise ValueError("empty input")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be binary 0/1")
    pos = int((y == 1).sum())
    neg = int(y.size - pos)
    if pos == 0 or neg == 0:
        raise ValueError("AUC undefined: labels contain a single class")

    order, starts = _tie_groups(s)
    auc = float(_rank_auc_rows(starts, np.ones((1, s.size), np.int64),
                               y[order])[0])

    # descending thresholds: the last position of each tie run, read from
    # the high end, is where the ROC takes its next point
    desc = order[::-1]
    yy = y[desc]
    sd = s[desc]
    last = np.flatnonzero(np.r_[sd[1:] != sd[:-1], True])
    fpr = np.cumsum(yy == 0)[last] / neg
    tpr = np.cumsum(yy == 1)[last] / pos
    points = [(0.0, 0.0, ROC_START)]
    points += zip(fpr.tolist(), tpr.tolist(), sd[last].tolist())
    points.append((1.0, 1.0, ROC_END))
    return auc, points


@dataclass(frozen=True)
class MulticlassAuc:
    per_class: tuple           # one float per class, None where undefined
    micro: float
    macro: float
    roc_points: tuple          # per class, () where undefined


def multiclass_auc(probs, labels) -> MulticlassAuc:
    """One-vs-rest AUCs. Micro pools the per-class (probability, indicator)
    pairs into one binary problem of 3N samples; macro is the unweighted
    mean over classes that appear in the labels."""
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if p.ndim != 2 or p.shape[1] != NUM_CLASSES:
        raise ValueError(f"probs shape {p.shape}, expected (N, {NUM_CLASSES})")
    if y.shape != (p.shape[0],) or p.shape[0] == 0:
        raise ValueError("labels must match probs rows and be non-empty")
    if y.min() < 0 or y.max() >= NUM_CLASSES:
        raise ValueError(f"labels outside [0, {NUM_CLASSES})")
    if not np.isfinite(p).all():
        raise ValueError("probabilities must be finite")
    if np.abs(p.sum(axis=1) - 1.0).max() > 1e-4:
        raise ValueError("probability rows must sum to 1 within 1e-4")

    per = []
    rocs = []
    undefined = []
    for c in range(NUM_CLASSES):
        yc = (y == c).astype(np.int64)
        if yc.min() == yc.max():
            per.append(None)
            rocs.append(())
            undefined.append(LABEL_NAMES[c])
            continue
        a, pts = roc_auc(p[:, c], yc)
        per.append(a)
        rocs.append(tuple(pts))
    defined = [a for a in per if a is not None]
    if not defined:
        raise ValueError("AUC undefined for every class")
    if undefined:
        warnings.warn(f"AUC undefined for {undefined}; macro averages the "
                      f"remaining classes", stacklevel=2)
    macro = float(np.mean(defined))

    pooled_scores = p.T.ravel()
    pooled_labels = np.concatenate(
        [(y == c).astype(np.int64) for c in range(NUM_CLASSES)])
    micro, _ = roc_auc(pooled_scores, pooled_labels)
    return MulticlassAuc(tuple(per), micro, macro, tuple(rocs))


# Bytes of the largest temporary of a block of index resamples of n records:
# build_report's [rows, 3n] int64 micro-AUC weights.
_BLOCK_BYTES = 1 << 20


def _block_rows(n: int) -> int:
    """Resamples of n records drawn and scored at once (about 145 at
    n = 300); at least one."""
    return max(1, _BLOCK_BYTES // (3 * n * 8))


def bootstrap_ci(n: int, metric_fn, rng: Rng, n_resamples: int = N_RESAMPLES,
                 alpha: float = ALPHA) -> tuple[float, float]:
    """Percentile bootstrap interval for metric_fn over n records.

    Resamples the indices range(n) with replacement. Draw k takes its n
    indices from its own RNG substream ("bootstrap", k), so the interval
    does not depend on evaluation order. Draws come in blocks: metric_fn
    receives a [rows, n] int64 array whose row r holds the indices of draw
    k + r, and returns one value per row, NaN where undefined (e.g. a
    single-class draw). NaN is redrawn with the next counter, up to
    10 * n_resamples draws. A block holds no more rows than values still
    missing or draws left before the cap, so it never draws a counter that
    one draw at a time would not: the values, the interval and the cap's
    error do not depend on the block size.
    """
    check_bootstrap(n_resamples, alpha)
    if n < 1:
        raise ValueError("no records to resample")
    block = _block_rows(n)
    cap = 10 * n_resamples
    vals = []
    counter = 0
    while len(vals) < n_resamples:
        if counter >= cap:
            raise ValueError(
                f"bootstrap redraw cap exceeded: {counter} draws yielded "
                f"{len(vals)} defined values of {n_resamples} requested")
        rows = min(block, n_resamples - len(vals), cap - counter)
        idx = rng.stream_integers("bootstrap", counter, rows, n, n)
        counter += rows
        v = np.asarray(metric_fn(idx), dtype=np.float64)
        vals += v[~np.isnan(v)].tolist()
    lo, hi = np.percentile(vals, [50.0 * alpha, 100.0 - 50.0 * alpha])
    return float(lo), float(hi)


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    balanced_accuracy: float
    auc_per_class: tuple
    micro_auc: float
    macro_auc: float
    intervals: dict          # metric key -> (lo, hi)
    n_samples: int
    roc_points: tuple        # per class


def build_report(labels, probs, rng: Rng, n_resamples: int = N_RESAMPLES,
                 alpha: float = ALPHA) -> EvalReport:
    """Point metrics plus bootstrap intervals, from each sample's label and
    [n, 3] class probabilities; the prediction is the first maximal class.

    Interval keys: accuracy, balanced_accuracy, micro_auc, and, when every
    class appears in the labels, auc_<class> per class and macro_auc.
    Per-class/macro intervals are omitted otherwise because resamples could
    never cover the missing class.

    The intervals resample the indices range(n) in blocks. Each metric
    turns a block into a [rows, n] matrix w of per-sample draw counts, one
    bincount, and weighs arrays built once here by it, so each row gives
    exactly the value the same function would give on the drawn samples
    alone, and is undefined (NaN, redrawn) on the same draws.
    """
    y = np.asarray(labels, dtype=np.int64)
    probs = np.asarray(probs, dtype=np.float64)
    pred = probs.argmax(axis=1)
    acc = accuracy(pred, y)
    bal = balanced_accuracy(pred, y)
    mc = multiclass_auc(probs, y)
    all_defined = all(a is not None for a in mc.per_class)

    n = len(y)
    correct = (pred == y).astype(np.int64)
    onehot = (y[:, None] == np.arange(NUM_CLASSES)).astype(np.int64)
    hits = onehot * correct[:, None]
    ranked = [_tie_groups(probs[:, c]) for c in range(NUM_CLASSES)]
    # micro: the 3n pooled (probability, indicator) pairs, class-major
    micro_order, micro_starts = _tie_groups(probs.T.ravel())
    micro_sample = micro_order % n
    micro_pos = onehot.T.ravel()[micro_order]

    def counts(idx):
        rows = len(idx)
        flat = (idx + n * np.arange(rows)[:, None]).ravel()
        return np.bincount(flat, minlength=rows * n).reshape(rows, n)

    def class_auc(w, c):
        order, starts = ranked[c]
        return _rank_auc_rows(starts, w[:, order], onehot[order, c])

    def acc_fn(idx):
        return (counts(idx) @ correct) / n

    def bal_fn(idx):
        w = counts(idx)
        drawn = w @ onehot
        with np.errstate(invalid="ignore"):  # 0 / 0 for an undrawn class
            recall = (w @ hits) / drawn
        return _row_mean(recall, drawn > 0)

    def micro_fn(idx):
        w = counts(idx)
        auc = _rank_auc_rows(micro_starts, w[:, micro_sample], micro_pos)
        auc[np.count_nonzero(w @ onehot, axis=1) < 2] = np.nan  # one class
        return auc

    def macro_fn(idx):
        w = counts(idx)
        aucs = np.stack([class_auc(w, c) for c in range(NUM_CLASSES)], 1)
        return _row_mean(aucs, np.ones(aucs.shape, bool))

    def class_fn(c):
        return lambda idx: class_auc(counts(idx), c)

    plan = [("accuracy", acc_fn), ("balanced_accuracy", bal_fn),
            ("micro_auc", micro_fn)]
    if all_defined:
        plan.append(("macro_auc", macro_fn))
        for c in range(NUM_CLASSES):
            plan.append((f"auc_{LABEL_NAMES[c].lower()}", class_fn(c)))
    intervals = {}
    for key, fn in plan:
        intervals[key] = bootstrap_ci(n, fn, rng.stream(key), n_resamples,
                                      alpha)
    return EvalReport(acc, bal, mc.per_class, mc.micro, mc.macro,
                      intervals, n, mc.roc_points)


def format_report(report: EvalReport) -> str:
    """Key = value lines, interval appended when known."""
    def line(key, value):
        if value is None:
            body = f"{key} = undefined"
        else:
            body = f"{key} = {value:.6f}"
        ci = report.intervals.get(key)
        if ci is not None:
            body += f" ci95 = [{ci[0]:.6f}, {ci[1]:.6f}]"
        return body

    out = [f"n_samples = {report.n_samples}",
           line("accuracy", report.accuracy),
           line("balanced_accuracy", report.balanced_accuracy)]
    for c in range(NUM_CLASSES):
        out.append(line(f"auc_{LABEL_NAMES[c].lower()}",
                        report.auc_per_class[c]))
    out.append(line("micro_auc", report.micro_auc))
    out.append(line("macro_auc", report.macro_auc))
    return "\n".join(out) + "\n"


def write_report(report: EvalReport, path) -> Path:
    path = Path(path)
    with atomic_write(path) as fh:
        fh.write(format_report(report))
    return path


def export_roc(report: EvalReport, out_dir) -> list[Path]:
    """One roc_<class>.csv per defined class: fpr,tpr,threshold with fpr
    non-decreasing; repr thresholds, so the endpoints read inf / -inf."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for c in range(NUM_CLASSES):
        pts = report.roc_points[c]
        if not pts:
            continue
        lines = ["fpr,tpr,threshold"]
        lines += [f"{fpr:.6f},{tpr:.6f},{thr!r}" for fpr, tpr, thr in pts]
        path = out_dir / f"roc_{LABEL_NAMES[c].lower()}.csv"
        with atomic_write(path) as fh:
            fh.write("\n".join(lines) + "\n")
        written.append(path)
    return written


def write_logits_csv(subject_ids, labels, probs, path) -> Path:
    """One row per sample, in order: subject_id,label,p_cn,p_mci,p_ad,pred,
    the label and the prediction (the first maximal class) as class names."""
    lines = ["subject_id,label,p_cn,p_mci,p_ad,pred"]
    for sid, label, p, pred in zip(subject_ids, labels, probs.tolist(),
                                   probs.argmax(axis=1).tolist()):
        cells = ",".join(f"{v:.6f}" for v in p)
        lines.append(f"{sid},{LABEL_NAMES[label]},{cells},"
                     f"{LABEL_NAMES[pred]}")
    path = Path(path)
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")
    return path
