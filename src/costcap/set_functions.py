"""Monotone set-valued value and cost functions and their proxies.

Label sets are bitmasks over at most 64 classes. :class:`SetFunctionSpec` is
the one definition of each kind: a polarity (a value kind counts the classes
of S present in the labels, a cost kind those absent) and per-class raw
terms, the weights or ones for the additive kinds and ``gen``'s
``(k+5)/10`` factors and ``(k-5)^2`` squares. Its raw score runs over the
counted classes in ascending order on Python floats, and its normalization
maps the best attainable score to exactly 100. It also provides the
probability-based proxy (computable without the true labels) and, for the
additive kinds, per-class margins.

``SetFunctionSpec.proxy_many`` is the one proxy implementation: it scores a
``uint64`` mask array in one call, and every score is reduced in a fixed
order (classes ascending, then Monte-Carlo draws in order) with
``np.add.accumulate``/``np.multiply.accumulate``, so it equals the per-set
loop bit for bit. ``proxy`` is ``proxy_many`` on one set.

All operations are pure; safe for unrestricted parallel use.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAX_CLASSES = 64
NORMALIZED_BOUND = 100.0

VALUE_KINDS = ("tp", "tpc", "gen")
COST_KINDS = ("fp", "fpc")


def full_set(n_classes: int) -> int:
    return (1 << n_classes) - 1


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


@dataclass(frozen=True)
class SetFunctionSpec:
    """A value or cost function with its bounds, proxy and normalization.

    Raw scores of the kinds, over the classes k of S that count (present in
    the labels for ``tp``/``tpc``/``gen``, absent for ``fp``/``fpc``):
    ``tp``/``fp`` their number, ``tpc``/``fpc`` the sum of their weights w_k,
    ``gen`` prod (k+5)/10 + sum (k-5)^2, the empty product being 1.

    ``max_raw`` is the best attainable raw score (S = [K] against the most
    favorable labels); scaled scores are raw / max_raw * 100, so the bound is
    hit exactly. Weights that make it zero or not finite are rejected.
    ``class_values`` holds each class's raw score alone against those labels:
    its weight (or 1) for an additive kind, its factor plus square for ``gen``.

    A ``gen`` spec's proxy is the mean of the value over ``mc_samples``
    label draws with independent Bernoulli(p_k) classes: one (mc_samples, K)
    matrix of uniforms from ``default_rng(mc_seed)``, drawn at construction
    and shared by every set and every call.
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
        k = self.n_classes
        weighted = self.kind in ("tpc", "fpc")
        if weighted:
            if self.weights is None or len(self.weights) != k:
                raise ValueError("weighted kinds need a weight vector of length n_classes")
            units = np.asarray(self.weights, dtype=np.float64)
            if np.any(units < 0):
                raise ValueError("class weights must be nonnegative")
        elif self.weights is not None:
            raise ValueError(f"kind {self.kind!r} takes no class weights")
        else:
            units = np.ones(k)

        def keep(**attrs):
            for name, value in attrs.items():
                object.__setattr__(self, name, value)

        keep(_counts_absent=self.is_cost, _units=units.tolist() if weighted else None)
        if self.kind == "gen":
            cls = np.arange(k)
            factors = (cls + 5) / 10.0
            squares = ((cls - 5) ** 2).astype(np.float64)
            keep(
                _factors=factors.tolist(),
                _squares=squares.tolist(),
                # the proxy's copies, shaped to broadcast over (class, set, draw)
                _mc_factors=factors[:, None, None],
                _mc_squares=squares[:, None, None],
                # the matrix every Monte-Carlo proxy call compares probs to
                _uniforms=np.random.default_rng(self.mc_seed).random((self.mc_samples, k)),
            )
        everything = full_set(k)
        best_labels = 0 if self.is_cost else everything
        max_raw = self.raw(everything, best_labels)
        if not 0.0 < max_raw < math.inf:
            # zero when every weight is; not finite when one is or their sum overflows
            raise ValueError(
                f"class weights must not all be zero and must have a finite sum, got {max_raw}"
            )
        keep(
            _max_raw=max_raw,
            _unit_margins=units / max_raw * NORMALIZED_BOUND,
            class_values=np.array([self.raw(1 << i, best_labels) for i in range(k)]),
        )

    @property
    def additive(self) -> bool:
        return self.kind != "gen"

    @property
    def is_cost(self) -> bool:
        return self.kind in COST_KINDS

    @property
    def max_raw(self) -> float:
        return self._max_raw

    def raw(self, s: int, y: int) -> float:
        """Un-normalized score of ``s`` against labels ``y``, a Python float
        reduced over the counted classes in ascending order."""
        hits = s & ~y if self._counts_absent else s & y
        units = self._units
        if units is not None:
            total = 0.0
            while hits:
                total += units[(hits & -hits).bit_length() - 1]
                hits &= hits - 1
            return total
        if self.kind != "gen":
            return float(hits.bit_count())
        prod = 1.0
        squares = 0.0
        factor_of, square_of = self._factors, self._squares
        while hits:
            k = (hits & -hits).bit_length() - 1
            prod *= factor_of[k]
            squares += square_of[k]
            hits &= hits - 1
        return prod + squares

    def evaluate(self, s: int, y: int) -> float:
        """Normalized score of prediction set ``s`` against labels ``y``."""
        return self.raw(s, y) / self._max_raw * NORMALIZED_BOUND

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
            units = self._counted(probs)
            if self._units is not None:
                units = units * self.weights
            terms = np.where(member, units[:, None], 0.0)
            np.add.accumulate(terms, axis=0, out=terms)
            # the loop's running sum starts at 0.0, which turns -0.0 into 0.0
            raw = terms[-1] + 0.0
        return raw / self._max_raw * NORMALIZED_BOUND

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
            prod = np.where(inter, self._mc_factors, 1.0)
            np.multiply.accumulate(prod, axis=0, out=prod)
            squares = np.where(inter, self._mc_squares, 0.0)
            np.add.accumulate(squares, axis=0, out=squares)
            values = prod[-1] + squares[-1]  # the raw gen score per (set, draw)
            values[:, 0] += total  # continue the previous blocks' running sum
            np.add.accumulate(values, axis=1, out=values)
            total = values[:, -1]
        return total / n_draws

    def _counted(self, present: np.ndarray) -> np.ndarray:
        """How much each class counts, given its presence (a probability or
        a 0/1 label): the presence for value kinds, 1 - presence for cost
        kinds."""
        return 1.0 - present if self._counts_absent else present

    def class_margins(self, present: np.ndarray) -> np.ndarray:
        """Per-class normalized margins of an additive kind, given each
        class's presence: the probabilities for the proxy, or
        ``label_bits(y, K)`` for the true score."""
        if not self.additive:
            raise ValueError("marginal vector requires an additive kind")
        return self._counted(present) * self._unit_margins


def load_weights_csv(path: str | Path, n_classes: int) -> np.ndarray:
    """Read a (class_index, weight) CSV column into a weight vector.
    Malformed rows, weights that are not finite and nonnegative, and weights
    that are all zero or whose sum overflows raise ValueError."""
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
    SetFunctionSpec("fpc", n_classes, w)  # the spec's own checks on the total
    return w
