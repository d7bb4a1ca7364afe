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

UNIVERSE_KINDS = ("ratio", "prob", "value", "full")
FULL_UNIVERSE_MAX_CLASSES = 20


@dataclass(frozen=True, eq=False)
class UniverseSeq:
    """Ordered candidate family; ∅ is always the first element.

    ``sets`` is a 1-D ``uint64`` array of bitmasks (chains reach K = 64).
    For greedy chains ``order`` is the ``int64`` array of classes in the
    order they are added, and ``sets`` holds the K+1 nested prefixes; for
    the full universe ``order`` is None and ``sets`` holds all 2^K subsets
    sorted by proxy cost. A family from :func:`build_universe` carries its
    sets' ascending ``proxy_costs``, which the controller reuses as the
    record's, and their ``proxy_values`` under an additive value function
    or on the general ratio chain, which keeps its rounds' scores.
    """

    sets: np.ndarray
    order: np.ndarray | None = None
    proxy_costs: np.ndarray | None = None
    proxy_values: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.sets)


def _chain(order: np.ndarray, proxy_values: np.ndarray | None = None) -> UniverseSeq:
    sets = np.zeros(len(order) + 1, dtype=np.uint64)
    np.bitwise_or.accumulate(np.uint64(1) << order.astype(np.uint64), out=sets[1:])
    return UniverseSeq(sets, order, proxy_values=proxy_values)


def prefix_sums(margins: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Score of every prefix of a chain under an additive function with
    per-class ``margins``: [0, m[o_1], m[o_1] + m[o_2], ...], added along
    the chain's ``order``. A new ``float64`` array of len(order) + 1."""
    out = np.empty(len(order) + 1)
    out[0] = 0.0
    np.cumsum(margins[order], out=out[1:])
    return out


def subset_sums(margins: np.ndarray) -> np.ndarray:
    """Score of every subset under an additive function with per-class
    ``margins``, indexed by bitmask: entry m is the sum of margins[k] over the
    bits k of m, added in ascending class order. One doubling per class, so
    2^K additions and no (2^K, K) bit matrix. The sums have the margins'
    dtype: complex margins sum their real and imaginary parts separately,
    each part bit for bit its own real doubling."""
    out = np.empty(1 << len(margins), dtype=margins.dtype)
    out[0] = 0.0
    for k, margin in enumerate(margins.tolist()):
        np.add(out[: 1 << k], margin, out=out[1 << k : 2 << k])
    return out


def full_universe(
    probs: np.ndarray, cost_spec: SetFunctionSpec, value_spec: SetFunctionSpec | None = None
) -> UniverseSeq:
    """All 2^K subsets sorted ascending by proxy cost (K <= 20), sets of
    equal proxy cost in ascending mask order.

    With an additive ``value_spec`` the value proxies come from the same
    doubling: the cost margins fill the real parts of one complex margin
    vector and the value margins its imaginary parts, and complex addition
    adds each part as one real addition.
    """
    k = len(probs)
    if k > FULL_UNIVERSE_MAX_CLASSES:
        raise ValueError(
            f"full universe needs K <= {FULL_UNIVERSE_MAX_CLASSES}, got {k}"
        )
    cost_margins = cost_spec.class_margins(probs)
    if value_spec is not None and value_spec.additive:
        margins = np.empty(k, dtype=np.complex128)
        margins.real = cost_margins
        margins.imag = value_spec.class_margins(probs)
        sums = subset_sums(margins)
        proxies = sums.real
    else:
        sums = None
        proxies = subset_sums(cost_margins)
    # equal costs are certain with a zero or repeated margin, and usual when
    # every class has the same probability, as the margins then keep the
    # weights' ratios; otherwise try the faster sort, whose order is the
    # stable one when no two costs are equal
    listed = cost_margins.tolist()
    tied = 0.0 in listed or len(set(listed)) < k or len(set(probs.tolist())) == 1
    order = np.argsort(proxies, kind="stable" if tied else None)
    proxy_costs = proxies[order]
    if not tied and not (proxy_costs[1:] > proxy_costs[:-1]).all():  # NaN fails too
        order = np.argsort(proxies, kind="stable")
        proxy_costs = proxies[order]
    return UniverseSeq(
        order.view(np.uint64),  # argsort's int64 indices are the masks
        proxy_costs=proxy_costs,
        proxy_values=None if sums is None else sums.imag[order],
    )


def greedy_prob(probs: np.ndarray) -> UniverseSeq:
    """Chain adding classes by descending predicted probability."""
    order = np.argsort(-np.asarray(probs, dtype=np.float64), kind="stable")
    return _chain(order)


def greedy_value(probs: np.ndarray, values: np.ndarray) -> UniverseSeq:
    """Chain adding classes by descending expected marginal value p_k * v_k."""
    probs = np.asarray(probs, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if len(values) != len(probs):
        raise ValueError("value vector length must match probability vector")
    if np.any(values < 0):
        raise ValueError("class values must be nonnegative")
    order = np.argsort(-(probs * values), kind="stable")
    return _chain(order)


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
    return _chain(order)


def greedy_ratio_general(
    n_classes: int,
    score: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
) -> UniverseSeq:
    """Chain by per-step argmax of marginal proxy value over marginal proxy cost.

    Works for any (possibly non-additive) proxies; reduces to
    :func:`greedy_ratio_additive` when both are additive. ``score`` takes
    sets as an (n_sets, m) integer array, each row the m classes of one set
    in ascending order, and returns their value and cost proxies as two
    arrays. It is called once for ∅ (a (1, 0) array), then once per
    round for every S ∪ {c}, c not yet in the chain S. A candidate's key
    is ``(0, -dv, c)`` when its marginal cost dc <= 0 and
    ``(1, -dv / dc, c)`` otherwise; the smallest key joins the chain, and
    the running scores move by its dv and dc. The chain keeps ∅'s and the
    winners' value proxies as its ``proxy_values``.
    """
    k = n_classes
    order = np.arange(k)  # order[i:] holds the classes not yet added, ascending
    members = order[:0]  # the chain's classes, ascending
    values, costs = score(members[None])
    v_cur, c_cur = values[0], costs[0]
    proxy_values = np.empty(k + 1)
    proxy_values[0] = v_cur
    for i in range(k):
        rows = np.empty((k - i, i + 1), dtype=members.dtype)
        rows[:, :i] = members
        rows[:, i] = order[i:]
        rows.sort(axis=1)
        values, costs = score(rows)
        dv = values - v_cur
        dc = costs - c_cur
        free = dc <= 0.0
        # argmax picks the first of equal keys: the smallest class
        if free.any():
            best = np.flatnonzero(free)[np.argmax(dv[free])]
        else:
            best = np.argmax(dv / dc)
        proxy_values[i + 1] = values[best]
        v_cur = v_cur + dv[best]
        c_cur = c_cur + dc[best]
        members = rows[best]
        # the winner moves to position i; the classes it passes stay ascending
        winner = order[i + best]
        order[i + 1 : i + best + 1] = order[i : i + best]
        order[i] = winner
    return _chain(order, proxy_values)


def build_universe(
    kind: str,
    probs: np.ndarray,
    value_spec: SetFunctionSpec,
    cost_spec: SetFunctionSpec,
) -> UniverseSeq:
    """The family of ``kind``, ordered by the two functions, with the proxies
    :class:`UniverseSeq` lists; a chain's additive ones are prefix sums."""
    if kind == "full":
        return full_universe(probs, cost_spec, value_spec)
    cost_margins = cost_spec.class_margins(probs)
    if kind == "prob":
        chain = greedy_prob(probs)
    elif kind == "value":
        chain = greedy_value(probs, value_spec.class_values)
    elif kind == "ratio" and value_spec.additive:
        chain = greedy_ratio_additive(probs, value_spec.class_values, cost_margins)
    elif kind == "ratio":
        value_proxy = value_spec.row_proxy(probs)
        cost_proxy = cost_spec.row_proxy(probs)
        chain = greedy_ratio_general(len(probs), lambda rows: (value_proxy(rows), cost_proxy(rows)))
    else:
        raise ValueError(f"unknown universe kind {kind!r}")
    values = chain.proxy_values
    if value_spec.additive:
        values = prefix_sums(value_spec.class_margins(probs), chain.order)
    return UniverseSeq(chain.sets, chain.order, prefix_sums(cost_margins, chain.order), values)
