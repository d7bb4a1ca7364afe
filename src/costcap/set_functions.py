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

An additive kind's class margins are the one definition of its proxy: a
set's proxy is its classes' margins summed in ascending order from 0.0, so
``proxy_many`` equals ``universe.subset_sums`` of the margins, the power
set's proxies, bit for bit; a chain's are their running sums along its order.

Every proxy is one fold over per-sample class terms (an additive kind's
margins, ``gen``'s Monte-Carlo hit tables), read through rows of slots: class
indices ascending, slot K the identity term (0 for a sum, 1 for a product).
``SetFunctionSpec.row_proxy`` builds a sample's terms once and returns the
one scorer of such rows. ``proxy_many`` hands it masks as K-slot rows, a
non-member at slot K, ``_MC_BLOCK // K`` sets at a time; ``proxy`` is
``proxy_many`` on one set. The fold blocks only the draws. Each score is
reduced in a fixed order, slots then draws, one row or ``accumulate`` step
at a time and never by a pairwise ``reduce``, so it equals the per-set loop
bit for bit. Only ``gen``'s squares, integers whose sum is exact in any
order, are reduced freely.

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


_BIT_MASKS = np.uint64(1) << np.arange(MAX_CLASSES, dtype=np.uint64)
_CLASS_INDEX = np.arange(MAX_CLASSES)[:, None]

# most elements of a fold's slot array and of each of its (slot, set, draw)
# blocks; bounds the temporaries at a few MB whatever K, the set count and
# mc_samples are
_MC_BLOCK = 1 << 17


@dataclass(frozen=True)
class Sample:
    """A calibrated probability vector paired with the true label set."""

    probs: np.ndarray
    labels: int

    @property
    def n_classes(self) -> int:
        return len(self.probs)


@dataclass(frozen=True, eq=False)
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
    An additive kind's ``unit_margins`` hold u_k = w_k / max_raw * 100, the
    normalized score of class k counted once. Both are Python lists, which
    the greedy chains read.

    A ``gen`` spec's proxy is the mean of the value over ``mc_samples``
    label draws with independent Bernoulli(p_k) classes: one (mc_samples, K)
    matrix of uniforms from ``default_rng(mc_seed)``, drawn at construction
    and shared by every set and every call.

    ``weights`` holds the spec's own read-only float64 copy of the weights
    it was given, so changing the caller's array changes no score.
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

        def keep(**attrs):
            for name, value in attrs.items():
                object.__setattr__(self, name, value)

        k = self.n_classes
        weighted = self.kind in ("tpc", "fpc")
        if weighted:
            units = None if self.weights is None else np.array(self.weights, dtype=np.float64)
            if units is None or units.shape != (k,):
                raise ValueError("weighted kinds need a 1-D weight vector of length n_classes")
            units.flags.writeable = False
            keep(weights=units)  # the spec's own copy
            if np.any(units < 0):
                raise ValueError("class weights must be nonnegative")
        elif self.weights is not None:
            raise ValueError(f"kind {self.kind!r} takes no class weights")
        else:
            units = np.ones(k)
        keep(_counts_absent=self.is_cost, _units=units.tolist() if weighted else None)
        if self.kind == "gen":
            cls = np.arange(k)
            factors = (cls + 5) / 10.0
            squares = ((cls - 5) ** 2).astype(np.float64)
            uniforms = np.random.default_rng(self.mc_seed).random((self.mc_samples, k))
            keep(
                _factors=factors.tolist(),
                _squares=squares.tolist(),
                # the proxy's copies, shaped to broadcast over (class, draw)
                _mc_factors=factors[:, None],
                _mc_squares=squares[:, None],
                # the draws every Monte-Carlo proxy compares probs to, class-major
                _uniforms=np.ascontiguousarray(uniforms.T),
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
            unit_margins=(units / max_raw * NORMALIZED_BOUND).tolist(),
            class_values=[self.raw(1 << i, best_labels) for i in range(k)],
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
        """Normalized proxy score of every ``uint64`` mask in ``sets``: the
        row scorer of K-slot rows, a member at its own class index and a
        non-member at the identity slot K, a block of sets at a time."""
        sets = np.asarray(sets, dtype=np.uint64)
        score = self.row_proxy(probs)
        k = self.n_classes
        scores = np.empty(len(sets))
        step = max(1, _MC_BLOCK // k)
        for start in range(0, len(sets), step):
            member = (sets[start : start + step] & _BIT_MASKS[:k, None]) != 0
            # a (K, sets) C-contiguous array, which the fold reads fastest
            slots = np.where(member, _CLASS_INDEX[:k], k)
            scores[start : start + step] = score(slots.T)
        return scores

    def row_proxy(self, probs: np.ndarray):
        """Scorer of sets given as rows of class indices, for one sample.

        The returned callable maps an (n_sets, m) integer array, each row
        the m classes of one set in ascending order (m may be 0, for ∅), to
        the sets' normalized proxy scores. A row may also hold the identity
        slot K, which gives the same bits as leaving it out. A call takes at
        most ``_MC_BLOCK`` slots. The sample's terms, ``gen``'s hit tables
        included, are built here once and shared by every call.
        """
        terms = self._terms(np.asarray(probs, dtype=np.float64))
        identity = self.n_classes

        def score(rows: np.ndarray) -> np.ndarray:
            slots = rows.T
            if not len(slots):
                slots = np.full((1, rows.shape[0]), identity)
            return self._fold(slots, terms)

        return score

    def _terms(self, probs: np.ndarray) -> tuple[np.ndarray, ...]:
        """The sample's per-class terms, with row K the identity term.

        An additive kind's terms are its :meth:`class_margins` and 0.0, so
        its proxies are the margins' sums. ``gen`` has two (K+1, draws) hit
        tables: a class's factor where the draw has it present and 1
        elsewhere, and its square where present and 0 elsewhere."""
        if self.additive:
            return (np.array([*self.class_margins(probs.tolist()), 0.0]),)
        k = self.n_classes
        hits = self._uniforms < probs[:, None]  # (K, draws): class k drawn present
        factors = np.ones((k + 1, self.mc_samples))
        np.copyto(factors[:k], self._mc_factors, where=hits)
        squares = np.zeros((k + 1, self.mc_samples))
        np.copyto(squares[:k], self._mc_squares, where=hits)
        return factors, squares

    def _fold(self, slots: np.ndarray, terms: tuple[np.ndarray, ...]) -> np.ndarray:
        """Normalized proxy score of each column of ``slots``, an (m,
        n_sets) array of indices into ``terms``, folded down the column.

        An additive kind adds its margins from 0.0; ``gen`` takes, per draw,
        the product of the factors plus the sum of the squares, then the
        mean over the draws summed in order, and normalizes it. The squares
        are integers, so their sum is exact in any order. The (slot, set,
        draw) arrays are built a block of draws at a time, carrying each
        set's running sum over the draws. ``slots`` holds at most
        ``_MC_BLOCK`` elements, so each block does too.
        """
        if self.additive:
            (margins,) = terms
            sums = margins[slots]
            np.add.accumulate(sums, axis=0, out=sums)
            # the loop's running sum starts at 0.0, which turns -0.0 into 0.0
            return sums[-1] + 0.0
        factors, squares = terms
        n_draws = factors.shape[1]
        block = max(1, _MC_BLOCK // (slots.size or 1))  # no sets: an empty fold
        for first in range(0, n_draws, block):
            draws = slice(first, first + block)
            hit = factors[slots, draws]  # (slot, set, draw)
            prod = hit[0]
            for factor in hit[1:]:
                prod *= factor
            values = prod + np.add.reduce(squares[slots, draws], axis=0)
            if first:
                values[:, 0] += total  # continue the previous blocks' running sum
            np.add.accumulate(values, axis=1, out=values)
            total = values[:, -1]
        return total / n_draws / self._max_raw * NORMALIZED_BOUND

    def class_margins(self, probs) -> list[float]:
        """Per-class normalized proxy margins of an additive kind, as a list:
        how much each class counts given its probability, times its unit
        margin. A list of Python floats gives Python floats."""
        if not self.additive:
            raise ValueError("marginal vector requires an additive kind")
        if self._counts_absent:
            return [(1.0 - p) * u for p, u in zip(probs, self.unit_margins)]
        return [p * u for p, u in zip(probs, self.unit_margins)]


def load_weights_csv(path: str | Path, n_classes: int) -> np.ndarray:
    """Read a (class_index, weight) CSV column into a weight vector.
    Malformed rows, a class index given twice, weights that are not finite
    and nonnegative, and weights that are all zero or whose sum overflows
    raise ValueError."""
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
            if not np.isnan(w[k]):  # a NaN weight is rejected below
                raise ValueError(f"class index {k} given twice")
            w[k] = float(row[1])
            if not 0.0 <= w[k] < np.inf:
                raise ValueError(f"weight of class {k} must be finite and >= 0")
    if np.any(np.isnan(w)):
        missing = [int(i) for i in np.flatnonzero(np.isnan(w))]
        raise ValueError(f"weights missing for classes {missing}")
    SetFunctionSpec("fpc", n_classes, w)  # the spec's own checks on the total
    return w
