"""Candidate-set families the controller selects from.

Either the full power set (small K, sorted by proxy cost) or a nested greedy
chain ∅ = S_0 ⊂ S_1 ⊂ ... ⊂ S_K that adds one class per step, ordered by
predicted probability, by marginal value, or by marginal value per marginal
cost. Ties are always broken by ascending class index.

Every cost kind is additive, and its class margins are the one definition
of its proxy: a set's proxy cost is its classes' margins summed in
ascending order (:func:`subset_sums` for the power set, running sums along
a chain's order), and a class's marginal cost in any chain is its margin.

A power set is held as numpy arrays: its sets as one ``uint64`` bitmask per
set. A chain has at most 65 sets, on which a numpy call costs more than the
arithmetic it does, so a chain is held as Python lists from its class order
to the selection: its sets as ``int`` bitmasks and its proxies as floats,
equal bit for bit to a numpy ``cumsum`` of the same margins.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import or_
from typing import Callable

import numpy as np

from .set_functions import SetFunctionSpec

UNIVERSE_KINDS = ("ratio", "prob", "value", "full")
FULL_UNIVERSE_MAX_CLASSES = 20


@dataclass(frozen=True, eq=False)
class UniverseSeq:
    """Ordered candidate family; ∅ is always the first element.

    A greedy chain holds Python lists: ``order`` the classes in the order
    they are added, ``sets`` the K+1 nested prefixes as ``int`` bitmasks
    (chains reach K = 64), ``proxy_costs`` and ``proxy_values`` floats. The
    full universe holds numpy arrays: ``sets`` all 2^K subsets as ``uint64``
    bitmasks sorted by proxy cost, and ``order`` is None. Every family from
    :func:`build_universe` carries its sets' ascending ``proxy_costs``, and
    their ``proxy_values`` under an additive value function or on the
    general ratio chain, which keeps its rounds' scores.
    """

    sets: list[int] | np.ndarray
    order: list[int] | None = None
    proxy_costs: list[float] | np.ndarray | None = None
    proxy_values: list[float] | np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.sets)


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
    p = probs.tolist()
    cost_margins = cost_spec.class_margins(p)
    if value_spec is not None and value_spec.additive:
        margins = np.empty(k, dtype=np.complex128)
        margins.real = cost_margins
        margins.imag = value_spec.class_margins(p)
        sums = subset_sums(margins)
        proxies = sums.real
    else:
        sums = None
        proxies = subset_sums(np.array(cost_margins))
    # equal costs are certain with a zero or repeated margin, and usual when
    # every class has the same probability, as the margins then keep the
    # weights' ratios; otherwise try the faster sort, whose order is the
    # stable one when no two costs are equal
    tied = 0.0 in cost_margins or len(set(cost_margins)) < k or len(set(p)) == 1
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


def greedy_prob(probs) -> list[int]:
    """Class order by descending predicted probability."""
    # sorted is stable, reverse=True too: equal keys keep ascending class
    return sorted(range(len(probs)), key=probs.__getitem__, reverse=True)


def greedy_value(probs, values) -> list[int]:
    """Class order by descending expected marginal value p_k * v_k."""
    if len(values) != len(probs):
        raise ValueError("value vector length must match probability vector")
    if any(v < 0.0 for v in values):
        raise ValueError("class values must be nonnegative")
    gains = [p * v for p, v in zip(probs, values)]
    return sorted(range(len(gains)), key=gains.__getitem__, reverse=True)


def greedy_ratio_additive(probs, values, marginal_costs) -> list[int]:
    """Class order by descending marginal value per marginal cost
    p_k v_k / c_k.

    Classes with zero (or non-positive) marginal cost are free value: they go
    first, ordered by descending marginal value. A ratio too large for a
    float is inf, and such classes tie. The ratios are Python floats, which
    overflow without a warning; inputs other than lists, such as arrays,
    are converted first.
    """
    if not (isinstance(probs, list) and isinstance(values, list)
            and isinstance(marginal_costs, list)):
        probs, values, marginal_costs = (
            np.asarray(x, dtype=float).tolist() for x in (probs, values, marginal_costs)
        )
    gains = [p * v for p, v in zip(probs, values)]
    if min(marginal_costs) > 0.0:
        ratios = [g / c for g, c in zip(gains, marginal_costs)]
        return sorted(range(len(ratios)), key=ratios.__getitem__, reverse=True)
    free = [k for k, c in enumerate(marginal_costs) if c <= 0.0]
    paid = [k for k, c in enumerate(marginal_costs) if not c <= 0.0]
    return sorted(free, key=gains.__getitem__, reverse=True) + sorted(
        paid, key=lambda k: gains[k] / marginal_costs[k], reverse=True
    )


def greedy_ratio_general(
    n_classes: int,
    score: Callable[[np.ndarray], np.ndarray],
    cost_margins: list[float],
) -> tuple[list[int], list[float]]:
    """Chain by per-step argmax of marginal proxy value over marginal proxy
    cost: its class order and its value proxies, as two lists.

    The value proxy may be non-additive; the cost is additive, so the
    marginal cost of class c is its class margin ``cost_margins[c]``
    whatever the chain holds. Reduces to :func:`greedy_ratio_additive`
    when the value is additive too. ``score`` takes sets as an (n_sets, m)
    integer array, each row the m classes of one set in ascending order,
    and returns their value proxies as an array. It is called once for ∅
    (a (1, 0) array), then once per round for every S ∪ {c}, c not yet in
    the chain S. A candidate's key is ``(0, -dv, c)`` when its margin
    dc <= 0 and ``(1, -dv / dc, c)`` otherwise; the smallest key joins the
    chain, and the running value moves by its dv. A ratio too large for a
    float is inf, and such candidates tie. The value proxies are ∅'s and
    the winners' scores from those rounds.
    """
    k = n_classes
    order = np.arange(k)  # order[i:] holds the classes not yet added, ascending
    members = order[:0]  # the chain's classes, ascending
    margins = np.array(cost_margins, dtype=np.float64)
    (v_cur,) = score(members[None])
    proxy_values = np.empty(k + 1)
    proxy_values[0] = v_cur
    # entered once per chain: a tiny dc overflows dv / dc to inf
    with np.errstate(over="ignore"):
        for i in range(k):
            rows = np.empty((k - i, i + 1), dtype=members.dtype)
            rows[:, :i] = members
            rows[:, i] = order[i:]
            rows.sort(axis=1)
            values = score(rows)
            dv = values - v_cur
            dc = margins[order[i:]]
            free = dc <= 0.0
            # argmax picks the first of equal keys: the smallest class
            if free.any():
                best = np.flatnonzero(free)[np.argmax(dv[free])]
            else:
                best = np.argmax(dv / dc)
            proxy_values[i + 1] = values[best]
            v_cur = v_cur + dv[best]
            members = rows[best]
            # the winner moves to position i; the classes it passes stay ascending
            winner = order[i + best]
            order[i + 1 : i + best + 1] = order[i : i + best]
            order[i] = winner
    return order.tolist(), proxy_values.tolist()


def build_universe(
    kind: str,
    probs: np.ndarray,
    value_spec: SetFunctionSpec,
    cost_spec: SetFunctionSpec,
) -> UniverseSeq:
    """The family of ``kind``, ordered by the two functions, with the proxies
    :class:`UniverseSeq` lists. A chain's additive proxies are the running
    sums of its classes' margins along its order."""
    if kind == "full":
        return full_universe(probs, cost_spec, value_spec)
    p = probs.tolist()
    cost_margins = cost_spec.class_margins(p)
    values = None
    if kind == "prob":
        order = greedy_prob(p)
    elif kind == "value":
        order = greedy_value(p, value_spec.class_values)
    elif kind == "ratio" and value_spec.additive:
        order = greedy_ratio_additive(p, value_spec.class_values, cost_margins)
    elif kind == "ratio":
        order, values = greedy_ratio_general(len(p), value_spec.row_proxy(probs), cost_margins)
    else:
        raise ValueError(f"unknown universe kind {kind!r}")
    # accumulate starts from the first margin itself, as cumsum does: 0.0 +
    # a first margin of -0.0 would be 0.0
    if value_spec.additive:
        value_margins = value_spec.class_margins(p)
        values = [0.0, *accumulate([value_margins[c] for c in order])]
    return UniverseSeq(
        [0, *accumulate([1 << c for c in order], or_)],
        order,
        [0.0, *accumulate([cost_margins[c] for c in order])],
        values,
    )
