"""Independent reference implementations the library is checked against.

Everything here is deliberately naive: sorted lists, running sums, bit loops
and linear scans, one call per set. None of it shares a computation with the
package; the record references only build its ``SampleRecord`` and return
its ``ABOVE_ALL`` marker.

- ``SortedListCdf``: the weighted CDF the ``QuantileTree`` must equal.
- ``popcount_intersection``, ``popcount_difference``, ``weighted_hits`` and
  ``gen_value``: raw scores of the ``tp``/``fp``, ``tpc``/``fpc`` and
  ``gen`` kinds.
- ``additive_proxy`` and ``proxy_mc``: per-set proxies of the additive
  kinds and of any set function by Monte Carlo.
- ``greedy_ratio_order``: the ratio chain scored one set at a time.
- ``max_cost_curve``, ``first_exceed_threshold`` and ``cplus_at``: a
  calibration record built one set at a time, its exceed point for one
  target, and its worst cost strictly below a threshold.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from costcap.controller import SampleRecord
from costcap.quantile_tree import ABOVE_ALL

PROXY_SORT_TOL = 1e-7


class SortedListCdf:
    """Weighted empirical CDF kept in a plain sorted list."""

    def __init__(self) -> None:
        self.values: list[float] = []
        self.weights: list[float] = []

    def insert(self, value: float, weight: float) -> None:
        if weight == 0.0:
            return
        i = bisect.bisect_left(self.values, value)
        if i < len(self.values) and self.values[i] == value:
            self.weights[i] += weight
        else:
            self.values.insert(i, value)
            self.weights.insert(i, weight)

    def delete(self, value: float, weight: float) -> None:
        """Remove ``weight`` at ``value``; the value goes once at most 1e-12
        of its weight is left. As in the tree, such a drop may take other
        weights of at most 1e-12 with it, whose removal is then a no-op."""
        i = bisect.bisect_left(self.values, value)
        if not (i < len(self.values) and self.values[i] == value):
            assert weight <= 1e-12, f"value {value!r} not stored"
            return
        remaining = self.weights[i] - weight
        if remaining <= 1e-12:
            del self.values[i]
            del self.weights[i]
        else:
            self.weights[i] = remaining

    def total(self) -> float:
        return sum(self.weights)

    def quantile(self, q: float) -> float:
        """Smallest value whose cumulative weight reaches q * total."""
        assert self.values
        if q <= 0.0:
            return -math.inf
        target = q * self.total()
        cum = 0.0
        for value, weight in zip(self.values, self.weights):
            cum += weight
            if cum >= target:
                return value
        return self.values[-1]

    def cdf_at(self, t: float) -> float:
        if not self.values:
            return 0.0
        cum = 0.0
        for value, weight in zip(self.values, self.weights):
            if value <= t:
                cum += weight
        return cum / self.total()


def popcount_intersection(s: int, y: int, k: int) -> int:
    """Bit-loop |S ∩ y| over k classes."""
    n = 0
    for i in range(k):
        if (s >> i) & 1 and (y >> i) & 1:
            n += 1
    return n


def popcount_difference(s: int, y: int, k: int) -> int:
    """Bit-loop |S \\ y| over k classes."""
    n = 0
    for i in range(k):
        if (s >> i) & 1 and not (y >> i) & 1:
            n += 1
    return n


def weighted_hits(s: int, y: int, w, present: bool) -> float:
    """Bit-loop sum of w[k] over k in S with y_k equal to ``present``."""
    total = 0.0
    for i in range(len(w)):
        if (s >> i) & 1 and ((y >> i) & 1) == int(present):
            total += w[i]
    return total


def gen_value(s: int, y: int) -> float:
    """Bit-loop ``gen`` score: prod (k+5)/10 + sum (k-5)^2 over k in S ∩ y,
    in ascending class order, from the empty product 1 and the sum 0."""
    prod = 1.0
    squares = 0.0
    for k in range(s.bit_length()):
        if (s >> k) & 1 and (y >> k) & 1:
            prod *= (k + 5) / 10.0
            squares += (k - 5) ** 2
    return prod + squares


def additive_proxy(kind: str, s: int, probs, weights, max_raw: float) -> float:
    """Per-set proxy of an additive kind: p_k (value kinds) or 1 - p_k (cost
    kinds), times w_k when weighted, summed over the classes of S in
    ascending order from 0.0, then normalized to the 0..100 scale."""
    total = 0.0
    for k in range(len(probs)):
        if (s >> k) & 1:
            unit = probs[k] if kind in ("tp", "tpc") else 1.0 - probs[k]
            if weights is not None:
                unit *= weights[k]
            total += unit
    return total / max_raw * 100.0


def batched(per_set):
    """Adapter from a per-set score function to a mask-array one."""
    return lambda sets: np.array([per_set(s) for s in sets.tolist()])


def greedy_ratio_order(n_classes: int, value_proxy, cost_proxy) -> list[int]:
    """Ratio chain order by scoring every candidate one set at a time with
    per-set proxies: the smallest key (0, -dv, cand) when dc <= 0, else
    (1, -dv / dc, cand), and running scores moved by the winner's dv, dc."""
    order = []
    mask = 0
    v_cur = value_proxy(0)
    c_cur = cost_proxy(0)
    remaining = list(range(n_classes))
    for _ in range(n_classes):
        best_key = best = best_vc = None
        for cand in remaining:
            with_c = mask | (1 << cand)
            dv = value_proxy(with_c) - v_cur
            dc = cost_proxy(with_c) - c_cur
            key = (0, -dv, cand) if dc <= 0.0 else (1, -dv / dc, cand)
            if best_key is None or key < best_key:
                best_key, best, best_vc = key, cand, (v_cur + dv, c_cur + dc)
        mask |= 1 << best
        remaining.remove(best)
        order.append(best)
        v_cur, c_cur = best_vc
    return order


def proxy_mc(s: int, probs, true_fn, n_samples: int = 100, seed: int = 0) -> float:
    """Monte-Carlo proxy: mean of ``true_fn(S, y)`` over ``n_samples`` label
    sets y with independent Bernoulli(p_k) classes, drawn from one
    (n_samples, K) matrix of ``default_rng(seed)`` uniforms and summed in
    draw order."""
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


def max_cost_curve(universe, sample, cost_fn, proxy_fn) -> SampleRecord:
    """A candidate family's calibration record, one call per set.

    ``cost_fn(mask, labels)`` and ``proxy_fn(mask, probs)`` return normalized
    scores. The universe must start at ∅ with zero cost and zero proxy and be
    sorted by proxy cost; anything else is a precondition error.
    """
    sets = universe.sets.tolist()
    proxies = np.array([proxy_fn(s, sample.probs) for s in sets])
    if sets[0] != 0:
        raise ValueError("universe must start with the empty set")
    if proxies[0] != 0.0:
        raise ValueError("proxy cost of the empty set must be 0")
    if len(proxies) > 1 and np.min(np.diff(proxies)) < -PROXY_SORT_TOL:
        raise ValueError("universe is not sorted by proxy cost")
    costs = np.array([cost_fn(s, sample.labels) for s in sets])
    if costs[0] != 0.0:
        raise ValueError("true cost of the empty set must be 0")
    return SampleRecord(proxies, np.maximum.accumulate(costs))


def first_exceed_threshold(record: SampleRecord, target_cost: float) -> float:
    """Smallest recorded proxy cost whose running-max true cost exceeds the
    target; the above-all marker if the chain never exceeds it."""
    over = np.flatnonzero(record.max_costs > target_cost)
    if len(over) == 0:
        return ABOVE_ALL
    return float(record.proxy_costs[over[0]])


def cplus_at(record: SampleRecord, t: float) -> float:
    """Worst true cost among candidates with proxy cost strictly below t."""
    idx = int(np.searchsorted(record.proxy_costs, t, side="left")) - 1
    if idx < 0:
        return 0.0
    return float(record.max_costs[idx])
