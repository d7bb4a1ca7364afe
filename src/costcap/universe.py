"""Candidate-set families the controller selects from.

Either the full power set (small K, sorted by proxy cost) or a nested greedy
chain ∅ = S_0 ⊂ S_1 ⊂ ... ⊂ S_K that adds one class per step, ordered by
predicted probability, by marginal value, or by marginal value per marginal
cost. Ties are always broken by ascending class index.

A family is held as numpy arrays from construction to selection: its sets
as one ``uint64`` bitmask per set, a chain's class order as ``int64``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .set_functions import SetFunctionSpec

FULL_UNIVERSE_MAX_CLASSES = 20


@dataclass(frozen=True, eq=False)
class UniverseSeq:
    """Ordered candidate family; ∅ is always the first element.

    ``sets`` is a 1-D ``uint64`` array of bitmasks (chains reach K = 64).
    For greedy chains ``order`` is the ``int64`` array of classes in the
    order they are added, and ``sets`` holds the K+1 nested prefixes. For
    the full universe ``order`` is None and ``sets`` holds all 2^K subsets
    sorted by proxy cost.
    """

    sets: np.ndarray
    kind: str
    order: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.sets)


def _chain(order: np.ndarray, kind: str) -> UniverseSeq:
    sets = np.zeros(len(order) + 1, dtype=np.uint64)
    np.bitwise_or.accumulate(np.uint64(1) << order.astype(np.uint64), out=sets[1:])
    return UniverseSeq(sets, kind, order)


def subset_sums(margins: np.ndarray) -> np.ndarray:
    """Score of every subset under an additive function with per-class
    ``margins``, indexed by bitmask: entry m is the sum of margins[k] over the
    bits k of m, added in ascending class order. One doubling per class, so
    2^K additions and no (2^K, K) bit matrix."""
    out = np.empty(1 << len(margins))
    out[0] = 0.0
    for k, margin in enumerate(margins.tolist()):
        np.add(out[: 1 << k], margin, out=out[1 << k : 2 << k])
    return out


def full_universe(probs: np.ndarray, cost_spec: SetFunctionSpec) -> UniverseSeq:
    """All 2^K subsets sorted ascending by proxy cost (K <= 20)."""
    k = len(probs)
    if k > FULL_UNIVERSE_MAX_CLASSES:
        raise ValueError(
            f"full universe needs K <= {FULL_UNIVERSE_MAX_CLASSES}, got {k}"
        )
    proxies = subset_sums(cost_spec.class_proxy_margins(probs))
    order = np.lexsort((np.arange(1 << k), proxies))
    return UniverseSeq(order.astype(np.uint64), "full")


def greedy_prob(probs: np.ndarray) -> UniverseSeq:
    """Chain adding classes by descending predicted probability."""
    order = np.argsort(-np.asarray(probs, dtype=np.float64), kind="stable")
    return _chain(order, "prob")


def greedy_value(probs: np.ndarray, values: np.ndarray) -> UniverseSeq:
    """Chain adding classes by descending expected marginal value p_k * v_k."""
    probs = np.asarray(probs, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if len(values) != len(probs):
        raise ValueError("value vector length must match probability vector")
    if np.any(values < 0):
        raise ValueError("class values must be nonnegative")
    order = np.argsort(-(probs * values), kind="stable")
    return _chain(order, "value")


def greedy_ratio_additive(
    probs: np.ndarray, values: np.ndarray, marginal_costs: np.ndarray
) -> UniverseSeq:
    """Chain by descending marginal value per marginal cost p_k v_k / c_k.

    Classes with zero (or non-positive) marginal cost are free value: they go
    first, ordered by descending marginal value.
    """
    probs = np.asarray(probs, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    marginal_costs = np.asarray(marginal_costs, dtype=np.float64)
    gains = probs * values
    free = marginal_costs <= 0.0
    if free.any():
        ratios = np.divide(gains, marginal_costs, out=np.zeros_like(gains), where=~free)
        key = np.where(free, -gains, -ratios)
        # lexsort is stable, so equal keys keep ascending class index
        order = np.lexsort((key, (~free).astype(np.int8)))
    else:
        order = np.argsort(-gains / marginal_costs, kind="stable")
    return _chain(order, "ratio")


def greedy_ratio_general(
    probs: np.ndarray,
    value_proxy: Callable[[int], float],
    cost_proxy: Callable[[int], float],
) -> UniverseSeq:
    """Chain by per-step argmax of marginal proxy value over marginal proxy cost.

    Works for any (possibly non-additive) proxies evaluable along the chain;
    reduces to :func:`greedy_ratio_additive` when both are additive.
    """
    k = len(probs)
    order: list[int] = []
    mask = 0
    v_cur = value_proxy(0)
    c_cur = cost_proxy(0)
    remaining = list(range(k))
    for _ in range(k):
        best_key = None
        best = None
        best_vc = None
        for cand in remaining:
            with_c = mask | (1 << cand)
            dv = value_proxy(with_c) - v_cur
            dc = cost_proxy(with_c) - c_cur
            if dc <= 0.0:
                cand_key = (0, -dv, cand)
            else:
                cand_key = (1, -dv / dc, cand)
            if best_key is None or cand_key < best_key:
                best_key = cand_key
                best = cand
                best_vc = (v_cur + dv, c_cur + dc)
        mask |= 1 << best
        remaining.remove(best)
        order.append(best)
        v_cur, c_cur = best_vc
    return _chain(np.array(order, dtype=np.int64), "ratio_general")


def build_universe(
    kind: str,
    probs: np.ndarray,
    value_spec: SetFunctionSpec,
    cost_spec: SetFunctionSpec,
) -> UniverseSeq:
    """Dispatch on universe kind, deriving orderings from the two functions."""
    if kind == "full":
        return full_universe(probs, cost_spec)
    if kind == "prob":
        return greedy_prob(probs)
    if kind == "value":
        return greedy_value(probs, _value_units(value_spec))
    if kind == "ratio":
        if value_spec.additive:
            return greedy_ratio_additive(
                probs, _value_units(value_spec), cost_spec.class_proxy_margins(probs)
            )
        return greedy_ratio_general(
            probs,
            lambda s: value_spec.proxy(s, probs),
            lambda s: cost_spec.proxy(s, probs),
        )
    raise ValueError(f"unknown universe kind {kind!r}")


def _value_units(value_spec: SetFunctionSpec) -> np.ndarray:
    """Per-class value weights v_k: the raw singleton score of each class."""
    return value_spec._singleton_raw
