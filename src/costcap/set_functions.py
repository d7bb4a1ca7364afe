"""Monotone set-valued value and cost functions and their proxies.

Label sets are bitmasks over at most 64 classes. The raw functions below
return un-normalized scores; :class:`SetFunctionSpec` wraps one of them with
the normalization rule that maps the best attainable score to exactly 100,
and provides the probability-based proxy (computable without the true
labels) plus per-class marginal decompositions for the additive kinds.

``SetFunctionSpec.proxy_many`` is the one proxy implementation: it scores a
``uint64`` mask array in one call, and every score is reduced in a fixed
order (classes ascending, then Monte-Carlo draws in order) with
``np.add.accumulate``/``np.multiply.accumulate``, so it equals the per-set
loop bit for bit. ``proxy`` is ``proxy_many`` on one set; ``proxy_mc`` is
the per-set Monte-Carlo reference the tests hold it to.

All operations are pure; safe for unrestricted parallel use.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAX_CLASSES = 64
NORMALIZED_BOUND = 100.0

VALUE_KINDS = ("tp", "tpc", "gen")
COST_KINDS = ("fp", "fpc")


def full_set(n_classes: int) -> int:
    return (1 << n_classes) - 1


def set_from_indices(indices) -> int:
    mask = 0
    for k in indices:
        mask |= 1 << k
    return mask


def set_indices(mask: int) -> list[int]:
    out = []
    k = 0
    while mask:
        if mask & 1:
            out.append(k)
        mask >>= 1
        k += 1
    return out


def set_size(mask: int) -> int:
    return mask.bit_count()


_BIT_INDEX = np.arange(MAX_CLASSES, dtype=np.uint64)
_BIT_MASKS = np.uint64(1) << _BIT_INDEX

# elements of one (class, set, draw) block of the Monte-Carlo proxy; bounds
# its temporaries at a few MB whatever K, the set count and mc_samples are
_MC_BLOCK = 1 << 18


def label_bits(mask: int, n_classes: int) -> np.ndarray:
    """0/1 float vector of the mask's low ``n_classes`` bits."""
    bits = (np.uint64(mask) >> _BIT_INDEX[:n_classes]) & np.uint64(1)
    return bits.astype(np.float64)


@dataclass(frozen=True)
class Sample:
    """A calibrated probability vector paired with the true label set."""

    probs: np.ndarray
    labels: int

    @property
    def n_classes(self) -> int:
        return len(self.probs)

    def label_vector(self) -> np.ndarray:
        return label_bits(self.labels, len(self.probs))


# ----------------------------------------------------------------------
# raw (un-normalized) set functions

def value_tp(s: int, y: int) -> float:
    """Number of true positives |S ∩ y|."""
    return float((s & y).bit_count())


def cost_fp(s: int, y: int) -> float:
    """Number of false positives |S \\ y|."""
    return float((s & ~y).bit_count())


def value_tpc(s: int, y: int, w: np.ndarray) -> float:
    """Severity-weighted true positives: sum of w_k over k in S with y_k = 1."""
    total = 0.0
    for k in set_indices(s & y):
        total += w[k]
    return total


def cost_fpc(s: int, y: int, w: np.ndarray) -> float:
    """Severity-weighted false positives: sum of w_k over k in S with y_k = 0."""
    total = 0.0
    for k in set_indices(s & ~y):
        total += w[k]
    return total


def value_gen(s: int, y: int) -> float:
    """Non-additive value: prod_{k in S∩y} (k+5)/10 + sum_{k in S∩y} (k-5)^2.

    The empty intersection contributes the empty product, 1.
    """
    prod = 1.0
    sq = 0.0
    for k in set_indices(s & y):
        prod *= (k + 5) / 10.0
        sq += (k - 5) ** 2
    return prod + sq


# ----------------------------------------------------------------------
# Monte-Carlo proxy for non-additive functions

def proxy_mc(s: int, probs: np.ndarray, true_fn, n_samples: int = 100, seed: int = 0) -> float:
    """Monte-Carlo proxy: mean of true_fn(S, y) over y with independent
    Bernoulli(p_k) classes. Deterministic given the seed.

    Class correlations are not recoverable from the marginals, so classes are
    sampled independently. Per-set reference only: the library scores sets
    with :meth:`SetFunctionSpec.proxy_many`, which must equal this (times the
    normalization) bit for bit.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    k = len(probs)
    draws = rng.random((n_samples, k)) < probs
    total = 0.0
    for row in draws:
        y = 0
        for i in range(k):
            if row[i]:
                y |= 1 << i
        total += true_fn(s, y)
    return total / n_samples


@dataclass(frozen=True)
class SetFunctionSpec:
    """A value or cost function with its bounds, proxy and normalization.

    ``max_raw`` is the best attainable raw score (S = [K] against the most
    favorable labels); scaled scores are raw / max_raw * 100, so the bound is
    hit exactly.

    A ``gen`` spec's proxy is the mean of the value over ``mc_samples``
    label draws: one (mc_samples, K) matrix of uniforms from
    ``default_rng(mc_seed)``, drawn at construction and shared by every set
    and every call.
    """

    kind: str
    n_classes: int
    weights: np.ndarray | None = None
    mc_samples: int = 100
    mc_seed: int = 0

    def __post_init__(self):
        if self.kind not in VALUE_KINDS + COST_KINDS:
            raise ValueError(f"unknown set-function kind {self.kind!r}")
        if not 1 <= self.n_classes <= MAX_CLASSES:
            raise ValueError(f"n_classes must be in [1, {MAX_CLASSES}]")
        if self.mc_samples < 1:
            raise ValueError(f"mc_samples must be >= 1, got {self.mc_samples}")
        if self.kind in ("tpc", "fpc"):
            if self.weights is None or len(self.weights) != self.n_classes:
                raise ValueError("weighted kinds need a weight vector of length n_classes")
            if np.any(np.asarray(self.weights) < 0):
                raise ValueError("class weights must be nonnegative")
            if not np.any(np.asarray(self.weights) > 0):
                raise ValueError("class weights must not all be zero")  # nothing to normalize by
        k = self.n_classes
        everything = full_set(k)
        if self.kind == "tp":
            max_raw = value_tp(everything, everything)
        elif self.kind == "fp":
            max_raw = cost_fp(everything, 0)
        elif self.kind == "tpc":
            max_raw = value_tpc(everything, everything, self.weights)
        elif self.kind == "fpc":
            max_raw = cost_fpc(everything, 0, self.weights)
        else:
            max_raw = value_gen(everything, everything)
        object.__setattr__(self, "_max_raw", max_raw)
        if self.additive:
            units = (
                np.asarray(self.weights, dtype=np.float64)
                if self.weights is not None
                else np.ones(k)
            )
            object.__setattr__(self, "_unit_margins", units / max_raw * NORMALIZED_BOUND)
        else:
            # the matrix every proxy_mc(s, probs, value_gen, mc_samples,
            # mc_seed) call draws, and value_gen's per-class terms
            uniforms = np.random.default_rng(self.mc_seed).random((self.mc_samples, k))
            object.__setattr__(self, "_uniforms", uniforms)
            cls = np.arange(k)
            object.__setattr__(self, "_factors", ((cls + 5) / 10.0)[:, None, None])
            squares = ((cls - 5) ** 2).astype(np.float64)
            object.__setattr__(self, "_squares", squares[:, None, None])
        object.__setattr__(
            self,
            "_singleton_raw",
            np.array([self.raw(1 << i, everything) for i in range(k)]),
        )

    @property
    def additive(self) -> bool:
        return self.kind != "gen"

    @property
    def is_cost(self) -> bool:
        return self.kind in COST_KINDS

    @property
    def bound(self) -> float:
        return NORMALIZED_BOUND

    @property
    def max_raw(self) -> float:
        return self._max_raw

    def raw(self, s: int, y: int) -> float:
        if self.kind == "tp":
            return value_tp(s, y)
        if self.kind == "fp":
            return cost_fp(s, y)
        if self.kind == "tpc":
            return value_tpc(s, y, self.weights)
        if self.kind == "fpc":
            return cost_fpc(s, y, self.weights)
        return value_gen(s, y)

    def evaluate(self, s: int, y: int) -> float:
        """Normalized score of prediction set ``s`` against labels ``y``."""
        return self.raw(s, y) / self.max_raw * NORMALIZED_BOUND

    # ------------------------------------------------------------------
    # proxies (computable from predicted probabilities alone)

    def proxy(self, s: int, probs: np.ndarray) -> float:
        """Estimate of the normalized score without the true labels."""
        return float(self.proxy_many(np.array([s], dtype=np.uint64), probs)[0])

    def proxy_many(self, sets: np.ndarray, probs: np.ndarray) -> np.ndarray:
        """Normalized proxy score of every ``uint64`` mask in ``sets``.

        Each score is the per-set loop's float, bit for bit: class terms are
        added (or multiplied) in ascending class order and ``gen``'s draws
        summed in draw order, all with ``accumulate``, never a pairwise
        ``reduce``.
        """
        sets = np.asarray(sets, dtype=np.uint64)
        probs = np.asarray(probs, dtype=np.float64)
        member = (sets & _BIT_MASKS[: self.n_classes, None]) != 0  # (K, sets)
        if self.kind == "gen":
            raw = self._mc_means(member, probs)
        else:
            units = probs if self.kind in ("tp", "tpc") else 1.0 - probs
            if self.weights is not None:
                units = units * self.weights
            terms = np.where(member, units[:, None], 0.0)
            np.add.accumulate(terms, axis=0, out=terms)
            # the loop's running sum starts at 0.0, which turns -0.0 into 0.0
            raw = terms[-1] + 0.0
        return raw / self.max_raw * NORMALIZED_BOUND

    def _mc_means(self, member: np.ndarray, probs: np.ndarray) -> np.ndarray:
        """Raw ``gen`` Monte-Carlo mean for each column of ``member``: the
        product and squares terms over S ∩ y in ascending class order, then
        the sum over draws in order. The (class, set, draw) intersection is
        built a block of draws at a time, carrying the running sum."""
        hits = (self._uniforms < probs).T  # (K, draws): class k drawn present
        k, n_sets = member.shape
        n_draws = hits.shape[1]
        block = max(1, _MC_BLOCK // (k * n_sets))
        total = np.zeros(n_sets)
        for start in range(0, n_draws, block):
            inter = member[:, :, None] & hits[:, None, start : start + block]
            prod = np.where(inter, self._factors, 1.0)
            np.multiply.accumulate(prod, axis=0, out=prod)
            squares = np.where(inter, self._squares, 0.0)
            np.add.accumulate(squares, axis=0, out=squares)
            values = prod[-1] + squares[-1]  # value_gen(S, y) per (set, draw)
            values[:, 0] += total  # continue the previous blocks' running sum
            np.add.accumulate(values, axis=1, out=values)
            total = values[:, -1]
        return total / n_draws

    def class_proxy_margins(self, probs: np.ndarray) -> np.ndarray:
        """Per-class normalized proxy marginals (additive kinds only)."""
        if not self.additive:
            raise ValueError("marginal vector requires an additive kind")
        base = probs if self.kind in ("tp", "tpc") else 1.0 - probs
        return base * self._unit_margins

    def class_true_margins(self, y: int) -> np.ndarray:
        """Per-class normalized true-score marginals given labels (additive)."""
        if not self.additive:
            raise ValueError("marginal vector requires an additive kind")
        bits = label_bits(y, self.n_classes)
        base = bits if self.kind in ("tp", "tpc") else 1.0 - bits
        return base * self._unit_margins


def marginal_proxy(spec: SetFunctionSpec, k: int, s: int, probs: np.ndarray) -> float:
    """Marginal proxy of adding class k to S: proxy(S ∪ {k}) − proxy(S).

    Independent of S for additive kinds. Raises if k is already in S.
    """
    if (s >> k) & 1:
        raise ValueError(f"class {k} already in the set")
    if spec.additive:
        return float(spec.class_proxy_margins(probs)[k])
    return spec.proxy(s | (1 << k), probs) - spec.proxy(s, probs)


def load_weights_csv(path: str | Path, n_classes: int) -> np.ndarray:
    """Read a (class_index, weight) CSV column into a weight vector.
    Malformed rows, weights that are not finite and nonnegative, and weights
    that are all zero raise ValueError."""
    w = np.full(n_classes, np.nan)
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().lower() in ("class_index", "class", "k"):
                continue
            if len(row) != 2:
                raise ValueError(f"expected class_index,weight, got {row!r}")
            k = int(row[0])
            if not 0 <= k < n_classes:
                raise ValueError(f"class index {k} out of range [0, {n_classes})")
            w[k] = float(row[1])
            if not 0.0 <= w[k] < np.inf:
                raise ValueError(f"weight of class {k} must be finite and >= 0")
    if np.any(np.isnan(w)):
        missing = [int(i) for i in np.flatnonzero(np.isnan(w))]
        raise ValueError(f"weights missing for classes {missing}")
    if not np.any(w > 0.0):
        raise ValueError("weights must not all be zero")
    return w
