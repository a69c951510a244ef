"""Model and training configuration, and the defaults that CLI keys share
with library signatures: the one place these defaults live, and the one
check of the bootstrap keys.

The CLI builds its model and training keys from these fields, and reads
them before --threads pins the BLAS pool, so this module never imports
numpy. Field types stay strings (postponed annotations): the CLI maps them
to its value kinds and checkpoints parse their config lines with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

N_RESAMPLES = 1000   # bootstrap resamples per interval
ALPHA = 0.05         # two-sided: 95 % intervals
SYNTH_NOISE = 0.1    # std of the Gaussian noise on synthetic volumes
SMOOTH_SIGMA = 0.8   # blur of the aggregate saliency map
MAX_AGE = 120.0      # ages lie in [0, MAX_AGE]; concat feeds age / MAX_AGE
DEFAULT_VIEWS = (("axial", 50), ("axial", 26), ("coronal", 56),
                 ("sagittal", 26))
SPLITS = ("train", "val", "test")  # the manifest's split column

FIRST_LAYER_VARIANTS = {
    # name: (kernel, stride, padding, dilation)
    "K1S1": (1, 1, 0, 1),
    "K3S2": (3, 2, 0, 1),
    "K7S4": (7, 4, 3, 1),
}


def check_bootstrap(n_resamples: int, alpha: float) -> None:
    """ValueError unless n_resamples >= 1 and alpha is in (0, 1)."""
    if n_resamples < 1:
        raise ValueError(f"n_resamples must be >= 1, got {n_resamples}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


@dataclass(frozen=True)
class ModelConfig:
    widening_factor: int = 1
    norm: str = "instance"       # instance | batch
    first_layer: str = "K1S1"
    extra_blocks: int = 0
    age_mode: str = "none"       # none | encoded | concat
    crop_extent: int = 96
    normalize: bool = True       # per-volume z-score of every input

    def __post_init__(self):
        if self.widening_factor < 1:
            raise ValueError(f"widening_factor must be >= 1, got {self.widening_factor}")
        if self.norm not in ("instance", "batch"):
            raise ValueError(f"norm must be instance or batch, got {self.norm!r}")
        if self.first_layer not in FIRST_LAYER_VARIANTS:
            raise ValueError(
                f"first_layer must be one of {sorted(FIRST_LAYER_VARIANTS)}, "
                f"got {self.first_layer!r}")
        if self.extra_blocks < 0:
            raise ValueError(f"extra_blocks must be >= 0, got {self.extra_blocks}")
        if self.age_mode not in ("none", "encoded", "concat"):
            raise ValueError(f"unknown age_mode {self.age_mode!r}")
        if self.crop_extent < 1:
            raise ValueError(f"crop_extent must be >= 1, got {self.crop_extent}")


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 100
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int | None = None   # None: 4, or 16 for batch norm
    seed: int = 0
    class_weights: tuple | None = None
    blur_hi: float = 1.5
    # wall time in the log breaks byte-level run reproducibility, so the
    # seconds column stays 0.000 unless explicitly requested
    timing: bool = False

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(
                f"momentum must be in [0, 1), got {self.momentum}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1, got {self.batch_size}")
        if self.class_weights is not None:
            if len(self.class_weights) != 3 or not all(
                    math.isfinite(w) and w > 0 for w in self.class_weights):
                raise ValueError("class_weights must be 3 finite positive values")
        if not (math.isfinite(self.blur_hi) and self.blur_hi >= 0.0):
            raise ValueError(f"blur_hi must be finite and >= 0, got {self.blur_hi}")
