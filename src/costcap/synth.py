"""Deterministic synthetic streams of (probability vector, label set) pairs.

Stands in for a trained multi-label classifier: labels are drawn from the
very distribution the emitted probabilities encode, so the stream is i.i.d.
(hence exchangeable) and the probabilities are calibrated by construction.
An optional miscalibration factor distorts the emitted probabilities away
from the sampling ones: the control guarantees need exchangeability only,
not calibration, and this knob exposes that.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .set_functions import MAX_CLASSES, Stream

PROB_FLOOR = 0.001
PROB_CEIL = 0.999


@dataclass(frozen=True)
class GeneratorConfig:
    """Stream recipe; the same seed yields a bit-identical stream.

    ``base_rate`` is the per-class marginal probability, ``heterogeneity``
    the logit-space spread of per-instance probability vectors, and
    ``miscalibration`` an optional multiplicative distortion applied to the
    emitted (not the sampling) probabilities.
    """

    n: int
    n_classes: int = 10
    base_rate: float = 0.4
    heterogeneity: float = 0.0
    miscalibration: float | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "n_classes", "seed"):
            value = getattr(self, name)
            if not isinstance(value, Integral) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        for name in ("base_rate", "heterogeneity", "miscalibration"):
            value = getattr(self, name)
            if name == "miscalibration" and value is None:
                continue
            if not isinstance(value, Real) or isinstance(value, bool):
                raise TypeError(f"{name} must be a number, got {value!r}")
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if not 1 <= self.n_classes <= MAX_CLASSES:
            raise ValueError(f"n_classes must be in [1, {MAX_CLASSES}]")
        if not 0.0 < self.base_rate < 1.0:
            raise ValueError("base_rate must be in (0, 1)")
        if self.heterogeneity < 0.0:
            raise ValueError("heterogeneity must be >= 0")
        if self.miscalibration is not None and self.miscalibration <= 0.0:
            raise ValueError("miscalibration must be positive")


def generate(config: GeneratorConfig) -> Stream:
    """Draw the i.i.d. stream described by the config."""
    rng = np.random.default_rng(config.seed)
    n, k = config.n, config.n_classes
    if config.heterogeneity == 0.0:
        probs = np.full((n, k), config.base_rate)
    else:
        logit = np.log(config.base_rate / (1.0 - config.base_rate))
        z = rng.standard_normal((n, k))
        probs = 1.0 / (1.0 + np.exp(-(logit + config.heterogeneity * z)))
    probs = np.clip(probs, PROB_FLOOR, PROB_CEIL)
    labels = rng.random((n, k)) < probs
    if config.miscalibration is None:
        emitted = probs
    else:
        emitted = np.clip(probs * config.miscalibration, PROB_FLOOR, PROB_CEIL)
    masks = (labels * (np.uint64(1) << np.arange(k, dtype=np.uint64))).sum(axis=1, dtype=np.uint64)
    return Stream(emitted, masks.tolist())


def mnist_weights(n_classes: int = 10) -> np.ndarray:
    """Class-severity weights w_k = k, with class 0 bumped to n_classes so it
    carries nonzero weight: [10, 1, 2, ..., 9] for ten classes."""
    w = np.arange(n_classes, dtype=np.float64)
    w[0] = n_classes
    return w
