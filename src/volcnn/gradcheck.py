"""Central finite-difference verification of every analytic gradient.

Each layer kernel runs on small float64 instances. The probe loss is
sum(output * R) for a fixed random projection R, so the loss gradient
w.r.t. the output is exactly R and the kernel's backward can be compared
against central differences coordinate by coordinate. Every layer kernel
goes through check_op, one call per case.

Relative error metric: max|analytic - numeric| / max(max|numeric|, 1e-8),
and infinite, a failure, where both gradients are all zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import ops
from .tensor import Rng, Tensor

OP_TOL = 1e-4
MODEL_TOL = 1e-3
STEP = 1e-3


@dataclass(frozen=True)
class CheckResult:
    name: str
    rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.rel_err <= self.tol


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    if not (analytic.any() or numeric.any()):
        return float("inf")  # all zero: a dead or constant op checks nothing
    denom = max(float(np.abs(numeric).max()), 1e-8)
    return float(np.abs(analytic - numeric).max() / denom)


def central_diff(f: Callable[[], float], arr: np.ndarray) -> np.ndarray:
    """Numeric gradient of f w.r.t. arr, perturbing one element at a time
    by STEP."""
    grad = np.zeros_like(arr)
    flat, gflat = arr.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + STEP
        fp = f()
        flat[i] = orig - STEP
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * STEP)
    return grad


def _probe(out: Tensor, r: np.ndarray) -> float:
    return float((out.data * r).sum())


def check_op(name: str, r_rng: Rng, fwd, bwd, inputs: dict) -> list[CheckResult]:
    """Check one op instance: run fwd() -> (output, saved state), draw R of
    the output's shape from r_rng, take bwd(R, state) -> one gradient per
    entry of `inputs` (label -> Tensor, in order), and compare each with
    central differences of sum(fwd()[0] * R). bwd gets a copy of R, so a
    backward that overwrites its gradient leaves the probe's R intact."""
    out, state = fwd()
    r = r_rng.normal(out.shape)
    grads = bwd(Tensor(r.copy()), state)
    results = []
    for (label, t), g in zip(inputs.items(), grads):
        num = central_diff(lambda: _probe(fwd()[0], r), t.data)
        results.append(
            CheckResult(f"{name} d{label}", rel_error(g.data, num), OP_TOL))
    return results


def check_conv(seed: int = 0) -> list[CheckResult]:
    cases = [
        ("conv k3 plain", 1, 1, 5, ops.ConvSpec(k=3, c_out=2)),
        ("conv k3 s2 p1", 2, 2, 6, ops.ConvSpec(k=3, c_out=3, p=1, s=2)),
        ("conv k3 d2", 1, 2, 7, ops.ConvSpec(k=3, c_out=2, d=2)),
        ("conv k5 p2", 2, 1, 7, ops.ConvSpec(k=5, c_out=2, p=2)),
        ("conv k5 p2 d2", 1, 2, 6, ops.ConvSpec(k=5, c_out=2, p=2, d=2)),
        ("conv k1 s2", 1, 3, 6, ops.ConvSpec(k=1, c_out=4, s=2)),
        ("conv k3 s2 p2 d2", 2, 2, 9, ops.ConvSpec(k=3, c_out=2, p=2, s=2, d=2)),
    ]
    results = []
    for name, n, c, e, spec in cases:
        rng = Rng(seed).stream("gradcheck", name)
        x = Tensor(rng.stream("x").normal((n, c, e, e, e)))
        w = Tensor(rng.stream("w").normal((spec.c_out, c, spec.k, spec.k, spec.k)) * 0.3)
        b = Tensor(rng.stream("b").normal((spec.c_out,)))
        results += check_op(
            name, rng.stream("r"),
            lambda: (ops.conv3d_forward(x, w, b, spec), None),
            lambda g, _: ops.conv3d_backward(g, x, w, spec),
            {"x": x, "w": w, "b": b})
    return results


def check_pool(seed: int = 0) -> list[CheckResult]:
    cases = [
        ("pool k2 s2", 1, 2, 6, 2, 2),
        ("pool k3 s2", 2, 1, 7, 3, 2),
        ("pool k3 s3", 1, 1, 9, 3, 3),
        ("pool k2 s1", 1, 2, 5, 2, 1),
        ("pool k5 s2", 1, 1, 9, 5, 2),
    ]
    results = []
    for name, n, c, e, k, s in cases:
        rng = Rng(seed).stream("gradcheck", name)
        # Permutation values keep every window gap far above the step size,
        # so the argmax cannot flip under the finite-difference perturbation.
        vals = rng.permutation(n * c * e ** 3).astype(np.float64) * 0.05
        x = Tensor(vals.reshape(n, c, e, e, e))
        # the pooled values are also the state the index pass reads
        results += check_op(
            name, rng.stream("r"), lambda: (ops.maxpool3d_forward(x, k, s),) * 2,
            lambda g, out: (ops.maxpool3d_backward(
                g, ops.maxpool3d_argmax(x, out, k, s), k, s, x.shape),),
            {"x": x})
    return results


NORM_SHAPES = [(2, 3, 4, 4, 4), (1, 2, 5, 5, 5), (3, 1, 3, 4, 5),
               (2, 2, 4, 3, 4), (1, 4, 3, 3, 3)]
LN_SHAPES = [(4, 6), (2, 9), (5, 3), (3, 8), (6, 4)]


def check_norm(seed: int = 0) -> list[CheckResult]:
    results = []

    def fresh(x):  # a norm writes over its input, so each forward gets a copy
        return Tensor(x.data.copy())

    def run(name, rng, fwd, tensors):
        results.extend(check_op(name, rng.stream(name, "r"), fwd,
                                ops.norm_backward,
                                dict(zip(("x", "gamma", "beta"), tensors))))

    for i, shape in enumerate(NORM_SHAPES):
        rng = Rng(seed).stream("gradcheck", "norm", i)
        c = shape[1]
        x = Tensor(rng.stream("in", "x").normal(shape))
        gamma = Tensor(rng.stream("in", "g").uniform((c,), 0.5, 1.5))
        beta = Tensor(rng.stream("in", "b").normal((c,)) * 0.2)
        run(f"instance norm #{i}", rng,
            lambda: ops.instance_norm_forward(fresh(x), gamma, beta),
            (x, gamma, beta))

        bshape = (max(2, shape[0]),) + shape[1:]  # BN train needs N >= 2
        xb = Tensor(rng.stream("bn", "x").normal(bshape))
        gb = Tensor(rng.stream("bn", "g").uniform((c,), 0.5, 1.5))
        bb = Tensor(rng.stream("bn", "b").normal((c,)) * 0.2)
        rm = Tensor(np.zeros(c))
        rv = Tensor(np.ones(c))
        run(f"batch norm train #{i}", rng,
            lambda: ops.batch_norm_forward(fresh(xb), gb, bb, rm, rv,
                                           "train")[:2],
            (xb, gb, bb))
        rm2 = Tensor(rng.stream("bn", "rm").normal((c,)) * 0.3)
        rv2 = Tensor(rng.stream("bn", "rv").uniform((c,), 0.5, 2.0))
        run(f"batch norm eval #{i}", rng,
            lambda: ops.batch_norm_forward(fresh(xb), gb, bb, rm2, rv2,
                                           "eval")[:2],
            (xb, gb, bb))

        n_feat = LN_SHAPES[i][1]
        xl = Tensor(rng.stream("ln", "x").normal(LN_SHAPES[i]))
        gl = Tensor(rng.stream("ln", "g").uniform((n_feat,), 0.5, 1.5))
        bl = Tensor(rng.stream("ln", "b").normal((n_feat,)) * 0.2)
        run(f"layer norm #{i}", rng,
            lambda: ops.layer_norm_forward(fresh(xl), gl, bl), (xl, gl, bl))
    return results


LINEAR_SHAPES = [(4, 5, 3), (1, 7, 2), (6, 3, 4), (2, 8, 5), (5, 4, 4)]


def check_linear(seed: int = 0) -> list[CheckResult]:
    results = []
    for i, (n, d_in, d_out) in enumerate(LINEAR_SHAPES):
        rng = Rng(seed).stream("gradcheck", "linear", i)
        x = Tensor(rng.stream("x").normal((n, d_in)))
        w = Tensor(rng.stream("w").normal((d_out, d_in)) * 0.5)
        b = Tensor(rng.stream("b").normal((d_out,)))
        results += check_op(
            f"linear #{i}", rng.stream("r"),
            lambda: (ops.linear_forward(x, w, b), None),
            lambda g, _: ops.linear_backward(g, x, w),
            {"x": x, "w": w, "b": b})
    return results


def check_relu(seed: int = 0) -> list[CheckResult]:
    results = []
    for i, shape in enumerate([(3, 4, 4), (2, 6), (5, 3, 2), (4, 4),
                               (1, 2, 3, 4)]):
        rng = Rng(seed).stream("gradcheck", "relu", i)
        size = int(np.prod(shape))
        # Magnitudes stay above the step size so no element crosses the kink.
        mag = rng.stream("mag").uniform(shape, 0.1, 1.0)
        sign = np.where(rng.stream("sign").raw(size).reshape(shape)
                        & np.uint64(1), 1.0, -1.0)
        x = Tensor(mag * sign)
        # relu writes over its input, so each forward gets a fresh copy
        results += check_op(
            f"relu #{i}", rng.stream("r"),
            lambda: (ops.relu(Tensor(x.data.copy())), None),
            lambda g, _: (ops.relu_backward(g, x.data > 0),), {"x": x})
    return results


def check_softmax(seed: int = 0) -> list[CheckResult]:
    results = []
    for i, n in enumerate([5, 2, 7, 4, 6]):
        rng = Rng(seed).stream("gradcheck", "softmax", i)
        scores = Tensor(rng.stream("s").normal((n, 3)) * 2.0)
        labels = rng.stream("y").integers(3, (n,))
        for name, wts in ((f"softmax xent #{i}", None),
                          (f"softmax xent weighted #{i}",
                           rng.stream("w").uniform((n,), 0.5, 2.0))):
            _, grad, _ = ops.softmax_xent(scores, labels, wts)
            num = central_diff(
                lambda: ops.softmax_xent(scores, labels, wts)[0], scores.data)
            results.append(
                CheckResult(f"{name} dscores", rel_error(grad.data, num),
                            OP_TOL))
    return results


def check_model(seed: int = 0, n_coords: int = 20) -> list[CheckResult]:
    """End-to-end spot check: finite differences on randomly chosen
    parameter coordinates of a small full network.

    ReLU and max pooling make the loss piecewise smooth in the parameters.
    A coordinate whose activation pattern differs between the two probe
    points straddles a kink, where a centered secant is not a derivative
    estimate, so such coordinates are redrawn. The analytic gradient is
    still exercised everywhere through the surviving coordinates. If no
    coordinate survives, the check fails with an infinite error.
    """
    from .model import (NUM_CLASSES, ModelConfig, activation_pattern,
                        backward, build, forward)

    cfg = ModelConfig(crop_extent=32)
    rng = Rng(seed).stream("gradcheck", "model")
    model = build(cfg, rng.stream("params"), dtype=np.float64)
    x = Tensor(rng.stream("x").normal((2, 1, 32, 32, 32)) * 0.5)
    r = rng.stream("r").normal((2, NUM_CLASSES))

    def probe():
        logits, tape = forward(model, x, None, "eval")
        return _probe(logits, r), activation_pattern(tape)

    logits, tape = forward(model, x, None, "eval")
    grads, _ = backward(model, tape, Tensor(r))
    names = sorted(model.params)
    pick = rng.stream("pick")
    ana, num = [], []
    attempts = 0
    while len(ana) < n_coords and attempts < 10 * n_coords:
        attempts += 1
        name = names[pick.integers(len(names))]
        arr = model.params[name].data
        i = pick.integers(arr.size)
        flat = arr.reshape(-1)
        orig = flat[i]
        flat[i] = orig + STEP
        fp, pat_p = probe()
        flat[i] = orig - STEP
        fm, pat_m = probe()
        flat[i] = orig
        if pat_p != pat_m:
            continue
        num.append((fp - fm) / (2.0 * STEP))
        ana.append(float(grads[name].data.reshape(-1)[i]))
    if not ana:
        return [CheckResult("model end-to-end", float("inf"), MODEL_TOL)]
    err = rel_error(np.asarray(ana), np.asarray(num))
    return [CheckResult("model end-to-end", err, MODEL_TOL)]


def run_all(seed: int = 0, include_model: bool = True) -> list[CheckResult]:
    results = []
    results += check_conv(seed)
    results += check_pool(seed)
    results += check_norm(seed)
    results += check_linear(seed)
    results += check_relu(seed)
    results += check_softmax(seed)
    if include_model:
        results += check_model(seed)
    return results


def format_report(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = [f"{'check':<{width}}  {'rel err':>12}  {'tol':>8}  status"]
    for r in results:
        status = "ok" if r.passed else "FAIL"
        lines.append(f"{r.name:<{width}}  {r.rel_err:>12.3e}  {r.tol:>8.0e}  {status}")
    n_bad = sum(not r.passed for r in results)
    lines.append(f"{len(results)} checks, {n_bad} failed")
    return "\n".join(lines)
