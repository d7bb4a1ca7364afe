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
    the full universe ``order`` is None, ``sets`` holds all 2^K subsets
    sorted by proxy cost, and ``proxy_costs`` holds those sorted costs,
    which the controller reuses as the record's.
    """

    sets: np.ndarray
    kind: str
    order: np.ndarray | None = None
    proxy_costs: np.ndarray | None = None

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
    proxies = subset_sums(cost_spec.class_margins(probs))
    order = np.lexsort((np.arange(1 << k), proxies))
    return UniverseSeq(order.astype(np.uint64), "full", proxy_costs=proxies[order])


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
    value_proxy: Callable[[np.ndarray], np.ndarray],
    cost_proxy: Callable[[np.ndarray], np.ndarray],
) -> UniverseSeq:
    """Chain by per-step argmax of marginal proxy value over marginal proxy cost.

    Works for any (possibly non-additive) proxies; reduces to
    :func:`greedy_ratio_additive` when both are additive. Both proxies are
    batched: they map a ``uint64`` mask array to an array of scores, and
    each round scores all remaining candidates with one call of each. A
    candidate's key is ``(0, -dv, cand)`` when its marginal cost dc <= 0
    and ``(1, -dv / dc, cand)`` otherwise; the smallest key joins the chain,
    and the running scores move by its dv and dc. The last class needs no
    scoring.
    """
    k = len(probs)
    bits = np.uint64(1) << np.arange(k, dtype=np.uint64)
    order = np.arange(k)  # order[i:] holds the classes not yet added, ascending
    mask = np.uint64(0)
    sets = np.concatenate(([mask], bits))  # round one also scores ∅
    values, costs = value_proxy(sets), cost_proxy(sets)
    v_cur, c_cur = values[0], costs[0]
    values, costs = values[1:], costs[1:]
    for i in range(k - 1):  # the last class needs no scoring
        if i:
            sets = mask | bits[order[i:]]
            values, costs = value_proxy(sets), cost_proxy(sets)
        dv = values - v_cur
        dc = costs - c_cur
        free = dc <= 0.0
        if free.any():
            best = np.flatnonzero(free)[np.argmin(-dv[free])]
        else:
            best = np.argmin(-dv / dc)
        v_cur = v_cur + dv[best]
        c_cur = c_cur + dc[best]
        # the winner moves to position i; the classes it passes stay ascending
        winner = order[i + best]
        order[i + 1 : i + best + 1] = order[i : i + best]
        order[i] = winner
        mask |= bits[winner]
    return _chain(order, "ratio_general")


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
        return greedy_value(probs, value_spec.class_values)
    if kind == "ratio":
        if value_spec.additive:
            return greedy_ratio_additive(
                probs, value_spec.class_values, cost_spec.class_margins(probs)
            )
        return greedy_ratio_general(
            probs,
            lambda sets: value_spec.proxy_many(sets, probs),
            lambda sets: cost_spec.proxy_many(sets, probs),
        )
    raise ValueError(f"unknown universe kind {kind!r}")

