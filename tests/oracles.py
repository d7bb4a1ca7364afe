"""Independent reference implementations the library is checked against.

Everything here is deliberately naive: sorted lists, running sums and linear
scans. None of it shares code with the package.
"""

from __future__ import annotations

import bisect
import math

import numpy as np


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
        i = bisect.bisect_left(self.values, value)
        assert i < len(self.values) and self.values[i] == value
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
