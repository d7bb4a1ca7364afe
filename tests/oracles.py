"""Independent reference implementations the library is checked against.

Everything here is deliberately naive: sorted lists, running sums, bit loops
and linear scans, one call per set. None of it shares a computation with the
package; the record references only build its ``SampleRecord`` and return
its ``ABOVE_ALL`` marker.

- ``SortedListCdf``: the exact weighted CDF the ``QuantileTree`` must equal.
- ``popcount_intersection``, ``popcount_difference``, ``weighted_hits`` and
  ``gen_value``: raw scores of the ``tp``/``fp``, ``tpc``/``fpc`` and
  ``gen`` kinds.
- ``additive_proxy`` and ``proxy_mc``: per-set proxies of the additive
  kinds, as sums of class margins, and of any set function by Monte Carlo;
  ``additive_margins``: an additive kind's class margins.
- ``greedy_ratio_order``: the ratio chain scored one set at a time, each
  candidate priced at its cost margin; ``greedy_ratio_sets``: the same chain
  scored a round at a time through a mask-array value proxy;
  ``mask_scorer``: a per-mask value proxy as the row scorer
  ``greedy_ratio_general`` calls.
- ``max_cost_curve``, ``first_exceed_threshold`` and ``cplus_at``: a
  calibration record built one set at a time, its exceed point for one
  target, and its worst cost strictly below a threshold.
- ``label_margin_record``: a power set's record with its true costs summed
  from the labels' margins, one doubling per class.
- ``two_doubling_full_universe``: a power set's sets and cost and value
  proxies from two real doublings and a stable sort.
- ``chain_margin_record``: a chain's record and additive value proxies as
  one cumsum of per-class margins each, along the chain's order.
- ``numpy_chain``: a chain built by numpy sorts and cumsums, the route the
  package's Python-float chains must equal bit for bit; ``label_bits``: the
  0/1 float vector of a label mask.
- ``list_threshold_expected`` and ``list_threshold_violation``: the direct
  searches over a list of ``SampleRecord`` objects, one record at a time,
  which the package's searches over a ``RecordStore`` must equal bit for
  bit; ``store_of``: a ``RecordStore`` holding given records.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

import numpy as np

from costcap.controller import RecordStore, SampleRecord
from costcap.quantile_tree import ABOVE_ALL, BELOW_ALL

PROXY_SORT_TOL = 1e-7

# candidates per pass of list_threshold_violation: bounds its temporaries
SCAN_BLOCK = 1 << 16


class SortedListCdf:
    """Weighted empirical CDF kept in a plain sorted list, with exact
    ``Fraction`` weights."""

    def __init__(self) -> None:
        self.values: list[float] = []
        self.weights: list[Fraction] = []

    def insert(self, value: float, weight: float) -> None:
        weight = Fraction(weight)
        if weight == 0:
            return
        i = bisect.bisect_left(self.values, value)
        if i < len(self.values) and self.values[i] == value:
            self.weights[i] += weight
        else:
            self.values.insert(i, value)
            self.weights.insert(i, weight)

    def delete(self, value: float, weight: float) -> None:
        """Remove ``weight`` at ``value``; the value goes when its weight
        reaches exactly 0."""
        weight = Fraction(weight)
        if weight == 0:
            return
        i = bisect.bisect_left(self.values, value)
        assert i < len(self.values) and self.values[i] == value, f"value {value!r} not stored"
        remaining = self.weights[i] - weight
        assert remaining >= 0, f"removing {weight} from {self.weights[i]}"
        if remaining == 0:
            del self.values[i]
            del self.weights[i]
        else:
            self.weights[i] = remaining

    def total(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    def items(self) -> list[tuple[float, float]]:
        """(value, weight) pairs, each weight rounded once to a float."""
        return [(value, float(weight)) for value, weight in zip(self.values, self.weights)]

    def quantile(self, q: float) -> float:
        """Smallest value whose exact cumulative weight reaches q * total,
        the product of q and the rounded total rounded once as a float; the
        last value when none does."""
        assert self.values
        if q <= 0.0:
            return -math.inf
        target = Fraction(q * float(self.total()))
        cum = Fraction(0)
        for value, weight in zip(self.values, self.weights):
            cum += weight
            if cum >= target:
                return value
        return self.values[-1]


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
    """Per-set proxy of an additive kind: the class margins of S summed in
    ascending class order from 0.0. Class k's margin is p_k (value kinds)
    or 1 - p_k (cost kinds) times its unit margin u_k = w_k / max_raw * 100
    (w_k = 1 unweighted)."""
    total = 0.0
    for k in range(len(probs)):
        if (s >> k) & 1:
            unit = (1.0 if weights is None else weights[k]) / max_raw * 100.0
            total += (probs[k] if kind in ("tp", "tpc") else 1.0 - probs[k]) * unit
    return total


def additive_margins(spec, probs) -> np.ndarray:
    """Class margins of an additive kind: p_k u_k (value kinds) or
    (1 - p_k) u_k (cost kinds), as a float64 array."""
    probs = np.asarray(probs, dtype=np.float64)
    counted = 1.0 - probs if spec.is_cost else probs
    return counted * _unit_margins(spec)


def mask_scorer(value_proxy):
    """Adapter from a per-mask value proxy to a scorer of sets given as rows
    of class indices."""

    def score(rows):
        masks = [sum(1 << c for c in row) for row in rows.tolist()]
        return np.array([value_proxy(s) for s in masks], dtype=np.float64)

    return score


def greedy_ratio_sets(n_classes: int, value_proxy, cost_margins) -> tuple[list[int], list[int]]:
    """Ratio chain order and nested sets, each round scoring all remaining
    candidates with one call of the mask-array value proxy (round one also
    scores ∅). Keys, cost margins and the running value as in
    ``greedy_ratio_order``; the last class needs no scoring."""
    k = n_classes
    bits = np.uint64(1) << np.arange(k, dtype=np.uint64)
    costs = np.asarray(cost_margins, dtype=np.float64)
    order = np.arange(k)  # order[i:] holds the classes not yet added, ascending
    mask = np.uint64(0)
    sets = np.concatenate(([mask], bits))
    values = value_proxy(sets)
    v_cur = values[0]
    values = values[1:]
    for i in range(k - 1):
        if i:
            sets = mask | bits[order[i:]]
            values = value_proxy(sets)
        dv = values - v_cur
        dc = costs[order[i:]]
        free = dc <= 0.0
        if free.any():
            best = np.flatnonzero(free)[np.argmin(-dv[free])]
        else:
            best = np.argmin(-dv / dc)
        v_cur = v_cur + dv[best]
        winner = order[i + best]
        order[i + 1 : i + best + 1] = order[i : i + best]
        order[i] = winner
        mask |= bits[winner]
    chain = [0]
    for cls in order.tolist():
        chain.append(chain[-1] | 1 << cls)
    return order.tolist(), chain


def greedy_ratio_order(n_classes: int, value_proxy, cost_margins) -> list[int]:
    """Ratio chain order by scoring every candidate one set at a time with a
    per-set value proxy, its marginal cost dc its cost margin: the smallest
    key (0, -dv, cand) when dc <= 0, else (1, -dv / dc, cand), and the
    running value moved by the winner's dv."""
    order = []
    mask = 0
    v_cur = value_proxy(0)
    remaining = list(range(n_classes))
    for _ in range(n_classes):
        best_key = best = best_v = None
        for cand in remaining:
            dv = value_proxy(mask | (1 << cand)) - v_cur
            dc = float(cost_margins[cand])
            key = (0, -dv, cand) if dc <= 0.0 else (1, -dv / dc, cand)
            if best_key is None or key < best_key:
                best_key, best, best_v = key, cand, v_cur + dv
        mask |= 1 << best
        remaining.remove(best)
        order.append(best)
        v_cur = best_v
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
    sets = [int(s) for s in universe.sets]
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


def _unit_margins(spec) -> np.ndarray:
    """u_k = w_k / max_raw * 100 of an additive kind (w_k = 1 unweighted)."""
    weights = spec.weights
    units = np.ones(spec.n_classes) if weights is None else np.asarray(weights, dtype=np.float64)
    return units / spec.max_raw * 100.0


def _doubling(margins: np.ndarray) -> np.ndarray:
    """Every mask's margins summed over its bits in ascending class order
    from 0.0, one real doubling per class, indexed by mask."""
    out = np.zeros(1 << len(margins))
    for i in range(len(margins)):
        out[1 << i : 2 << i] = out[: 1 << i] + margins[i]
    return out


def label_margin_record(universe, sample, cost_spec) -> SampleRecord:
    """A power set's calibration record from per-class margins: the proxy
    costs from (1 - p_k) u_k, the true costs from (1 - y_k) u_k with y_k the
    0/1 label. Each mask's margins are doubled up, then read in the
    universe's order; the true costs take their running max."""
    k = cost_spec.n_classes
    units = _unit_margins(cost_spec)
    labels = label_bits(sample.labels, k)

    def sums(present):
        return _doubling((1.0 - present) * units)[universe.sets]

    return SampleRecord(sums(sample.probs), np.maximum.accumulate(sums(labels)))


def two_doubling_full_universe(probs, cost_spec, value_spec):
    """A power set as one real doubling per proxy and one stable sort:
    ``(sets, proxy_costs, proxy_values)``, the sets as ``uint64`` masks in
    ascending proxy cost, equal costs in ascending mask order. The cost
    margins are (1 - p_k) u_k and an additive value kind's p_k u_k."""
    probs = np.asarray(probs, dtype=np.float64)
    costs = _doubling(additive_margins(cost_spec, probs))
    order = np.argsort(costs, kind="stable")
    values = _doubling(additive_margins(value_spec, probs))
    return order.astype(np.uint64), costs[order], values[order]


def _chain_sums(margins: np.ndarray, order) -> np.ndarray:
    """[0, m[o_1], m[o_1] + m[o_2], ...]: one ``np.cumsum`` of the margins
    along the chain's order, after a leading 0.0."""
    out = np.empty(len(order) + 1)
    out[0] = 0.0
    np.cumsum(margins[order], out=out[1:])
    return out


def chain_margin_record(order, sample, cost_spec, value_spec):
    """A chain's ``(record, proxy_values)`` from per-class margins summed
    along ``order``: the proxy costs from (1 - p_k) u_k, the true costs from
    (1 - y_k) u_k with y_k the 0/1 label, then their running max, and an
    additive value kind's proxies from p_k u_k (None for ``gen``)."""
    k = cost_spec.n_classes
    probs = np.asarray(sample.probs, dtype=np.float64)
    labels = label_bits(sample.labels, k)
    units = _unit_margins(cost_spec)
    record = SampleRecord(
        _chain_sums(additive_margins(cost_spec, probs), order),
        np.maximum.accumulate(_chain_sums((1.0 - labels) * units, order)),
    )
    if value_spec.kind == "gen":
        return record, None
    return record, _chain_sums(additive_margins(value_spec, probs), order)


def label_bits(mask: int, n_classes: int) -> np.ndarray:
    """0/1 float vector of the mask's low ``n_classes`` bits."""
    return np.array([(mask >> i) & 1 for i in range(n_classes)], dtype=np.float64)


def _class_values(spec) -> np.ndarray:
    """Each class's raw score alone against the most favorable labels: its
    weight (or 1) for an additive kind, its ``gen`` factor plus square."""
    k = spec.n_classes
    if spec.kind == "gen":
        return np.array([gen_value(1 << i, 1 << i) for i in range(k)])
    return np.ones(k) if spec.weights is None else np.asarray(spec.weights, dtype=np.float64)


def numpy_chain(kind, sample, value_spec, cost_spec):
    """A greedy chain of ``kind`` as numpy builds it: ``(order, sets,
    record, proxy_values)``, the order as ``int64`` and the sets as
    ``uint64`` arrays, the record and the additive values (None for
    ``gen``) as in ``chain_margin_record``.

    The prob and value orders are a stable ``argsort`` of the negated key.
    The additive ratio order is a stable ``argsort`` of ``(-gain) / cost``,
    or, with a free class (cost <= 0), a ``lexsort`` that puts the free
    classes first by descending gain; an overflowing ratio is inf. The
    general ratio chain (a ``gen`` value) takes ``greedy_ratio_sets``'
    order, with the same cost margins.
    """
    probs = np.asarray(sample.probs, dtype=np.float64)
    costs = additive_margins(cost_spec, probs)
    if kind == "prob":
        order = np.argsort(-probs, kind="stable")
    elif kind == "value":
        order = np.argsort(-(probs * _class_values(value_spec)), kind="stable")
    elif value_spec.kind != "gen":
        gains = probs * _class_values(value_spec)
        free = costs <= 0.0
        with np.errstate(over="ignore"):
            if free.any():
                ratios = np.divide(gains, costs, out=np.zeros_like(gains), where=~free)
                key = np.where(free, -gains, -ratios)
                order = np.lexsort((key, (~free).astype(np.int8)))
            else:
                order = np.argsort(-gains / costs, kind="stable")
    else:
        with np.errstate(over="ignore"):
            order, _ = greedy_ratio_sets(
                cost_spec.n_classes, lambda sets: value_spec.proxy_many(sets, probs), costs
            )
        order = np.array(order)
    order = order.astype(np.int64)
    sets = np.zeros(len(order) + 1, dtype=np.uint64)
    np.bitwise_or.accumulate(np.uint64(1) << order.astype(np.uint64), out=sets[1:])
    record, values = chain_margin_record(order, sample, cost_spec, value_spec)
    return order, sets, record, values


def store_of(records) -> RecordStore:
    """A store holding ``records``, all of one width, in order."""
    store = RecordStore(len(records[0].proxy_costs))
    for rec in records:
        store.append(rec.proxy_costs, rec.max_costs)
    return store


def list_threshold_expected(
    records, target_cost: float, cost_max: float
) -> float:
    """Direct search for the expected-cost threshold over the finite
    candidate grid: the largest t whose average worst-case cost, padded with
    one cost_max, stays within the target. Linear in the stored mass."""
    n = len(records)
    budget = (n + 1) * target_cost - cost_max
    values = []
    weights = []
    for rec in records:
        mc = rec.max_costs
        deltas = np.diff(mc)
        values.append(rec.proxy_costs[1:])
        weights.append(deltas)
    if budget < 0.0:
        return BELOW_ALL
    if not values:
        return ABOVE_ALL
    values = np.concatenate(values)
    weights = np.concatenate(weights)
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    idx = int(np.searchsorted(cum, budget, side="right"))
    if idx >= len(cum):
        return ABOVE_ALL
    return float(values[order][idx])


def list_threshold_violation(records, target_cost: float, delta: float) -> float:
    """Direct search for the violation threshold: scan every candidate proxy
    cost (plus the above-all plateau) and keep the largest one where enough
    samples stay within the target cost."""
    n = len(records)
    need = (1.0 - delta) * (n + 1)
    candidates = np.unique(np.concatenate([rec.proxy_costs for rec in records]))
    candidates = np.append(candidates, ABOVE_ALL)
    counts = np.zeros(len(candidates))
    for start in range(0, len(candidates), SCAN_BLOCK):
        block = slice(start, start + SCAN_BLOCK)
        for rec in records:
            idx = np.searchsorted(rec.proxy_costs, candidates[block], side="left") - 1
            cplus = np.where(idx >= 0, rec.max_costs[np.maximum(idx, 0)], 0.0)
            counts[block] += cplus <= target_cost
    admissible = np.flatnonzero(counts >= need)
    if len(admissible) == 0:
        return BELOW_ALL
    return float(candidates[admissible[-1]])
