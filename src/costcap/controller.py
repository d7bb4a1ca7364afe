"""Online conformal cost control over candidate prediction sets.

Per sample, the candidate family is evaluated into a record: sorted proxy
costs, the running max of true costs along them, and the telescoping weights
between consecutive maxima. Records feed a :class:`QuantileTree`, and the
data-driven proxy-cost threshold is a single weighted-quantile query:

* expected mode      q = ((N+1)c − C_max) / total_mass
* violation mode     q = ((N+1)δ − 1) / total_mass

The prediction is the value-proxy maximizer among candidate sets with proxy
cost strictly below the threshold. Direct-search reference implementations
of both thresholds (linear in the stored mass) are included; they are the
independent route the tree is verified and benchmarked against.

One controller per stream, single-threaded per stream; independent streams
may run in parallel.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .quantile_tree import (
    ABOVE_ALL,
    BELOW_ALL,
    EmptyDistributionError,
    QuantileTree,
)
from .set_functions import Sample, SetFunctionSpec
from .universe import UniverseSeq, build_universe, subset_sums

PROXY_SORT_TOL = 1e-7

MODES = ("expected", "violation")


def _universe_sums(margins: np.ndarray, universe: UniverseSeq) -> np.ndarray:
    """Score of every set in the universe under an additive function with
    per-class ``margins``, aligned with the universe's order: prefix sums
    [0, m_1, m_1 + m_2, ...] along a chain, :func:`subset_sums` over the
    power set."""
    if universe.order is not None:
        out = np.empty(len(margins) + 1)
        out[0] = 0.0
        np.cumsum(margins[universe.order], out=out[1:])
        return out
    return subset_sums(margins)[universe.sets]


@dataclass
class SampleRecord:
    """Per-sample calibration payload.

    ``proxy_costs`` is nondecreasing with a leading 0 (the empty set);
    ``max_costs`` is its running-max true-cost companion. The mass the sample
    contributes at proxy_costs[j] is max_costs[j] − max_costs[j−1], which
    telescopes to the final running max. ``exceed_threshold`` is filled in
    violation mode: the smallest proxy cost whose running max exceeds the
    target (above-all marker when none does).
    """

    proxy_costs: np.ndarray
    max_costs: np.ndarray
    exceed_threshold: float | None = None

    def mass_pairs(self) -> list[tuple[float, float]]:
        """(value, weight) insertions this record contributes; zero weights
        are dropped (they cannot move any quantile)."""
        pairs = []
        mc = self.max_costs
        pc = self.proxy_costs
        for j in range(1, len(pc)):
            w = mc[j] - mc[j - 1]
            if w > 0.0:
                pairs.append((float(pc[j]), float(w)))
        return pairs


def max_cost_curve(universe: UniverseSeq, sample: Sample, cost_fn, proxy_fn) -> SampleRecord:
    """Evaluate a candidate family into a :class:`SampleRecord`, one call per
    set: the reference :meth:`CostController.build_record` is tested against.

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


def select_max_value(sets, proxy_costs, proxy_values, threshold: float) -> int:
    """Value-proxy argmax among sets with proxy cost strictly below the
    threshold, as a Python int; ∅ when nothing is admissible.

    Precondition: ``proxy_costs`` is a nondecreasing array, as every
    universe guarantees, so the admissible sets are a prefix. Ties go to
    the first index, which is the smallest proxy cost.
    """
    n = proxy_costs.searchsorted(threshold)
    if n == 0:
        return 0
    return int(sets[proxy_values[:n].argmax()])


@dataclass
class StepResult:
    prediction: int | None
    threshold: float | None
    realized_value: float | None
    realized_cost: float | None
    elapsed_s: float


class CostController:
    """Streaming controller: observe samples, emit admissible value-maximizing
    prediction sets under the chosen cost-control mode.

    Before ``burn_in`` samples have been observed, ``predict``/``step`` return
    the no-prediction marker (None) while calibration keeps accumulating.
    With ``window`` set, the oldest record is evicted once more than
    ``window`` records are live (rolling instead of expanding calibration).
    """

    def __init__(
        self,
        mode: str,
        target_cost: float,
        value_spec: SetFunctionSpec,
        cost_spec: SetFunctionSpec,
        *,
        universe_kind: str = "ratio",
        delta: float = 0.1,
        burn_in: int = 1000,
        window: int | None = None,
        cost_max: float = 100.0,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if not 0.0 < target_cost <= cost_max:
            raise ValueError(f"target cost must be in (0, {cost_max}]")
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if window is not None and window < 1:
            raise ValueError("window must be >= 1")
        if value_spec.is_cost or not cost_spec.is_cost:
            raise ValueError(
                f"need a value kind and a cost kind, got {value_spec.kind!r} "
                f"and {cost_spec.kind!r}"
            )
        self.mode = mode
        self.target_cost = target_cost
        self.delta = delta
        self.cost_max = cost_max
        self.burn_in = burn_in
        self.window = window
        self.universe_kind = universe_kind
        self.value_spec = value_spec
        self.cost_spec = cost_spec
        self.tree = QuantileTree()
        self.records: deque[SampleRecord] = deque()

    @property
    def n_seen(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # per-sample pipeline

    def build_universe(self, probs: np.ndarray) -> UniverseSeq:
        k = self.cost_spec.n_classes
        if len(probs) != k:
            raise ValueError(f"probability vector has K = {len(probs)}, controller has K = {k}")
        return build_universe(self.universe_kind, probs, self.value_spec, self.cost_spec)

    def build_record(self, sample: Sample, universe: UniverseSeq) -> SampleRecord:
        """The sample's calibration record over ``universe``, which must be
        built from ``sample.probs`` with this controller's cost spec: a power
        set's sorted cost proxies are reused as the record's."""
        # every cost kind is additive; along a chain the cumsums of its
        # nonnegative margins are already their own running max
        spec = self.cost_spec
        if sample.labels >> spec.n_classes:
            labels = int(sample.labels)
            raise ValueError(
                f"labels {labels:#x} need K >= {labels.bit_length()}, "
                f"controller has K = {spec.n_classes}"
            )
        proxies = universe.proxy_costs
        if proxies is None:
            proxies = _universe_sums(spec.class_proxy_margins(sample.probs), universe)
        costs = _universe_sums(spec.class_true_margins(sample.labels), universe)
        return SampleRecord(proxies, np.maximum.accumulate(costs))

    def observe(self, sample: Sample, universe: UniverseSeq | None = None) -> None:
        """Fold one labeled sample into the calibration state."""
        if universe is None:
            universe = self.build_universe(sample.probs)
        self.observe_record(self.build_record(sample, universe))

    def observe_record(self, record: SampleRecord) -> None:
        """Fold an already-evaluated record (stream replay surface)."""
        if self.mode == "expected":
            for value, weight in record.mass_pairs():
                self.tree.insert(value, weight)
        else:
            record.exceed_threshold = first_exceed_threshold(record, self.target_cost)
            self.tree.insert(record.exceed_threshold, 1.0)
        self.records.append(record)
        if self.window is not None and len(self.records) > self.window:
            self._evict(self.records.popleft())

    def _evict(self, record: SampleRecord) -> None:
        if self.mode == "expected":
            for value, weight in record.mass_pairs():
                self.tree.delete(value, weight)
        else:
            self.tree.delete(record.exceed_threshold, 1.0)

    def threshold(self) -> float:
        """Current proxy-cost threshold (below-all/above-all markers at the
        extremes). Raises :class:`EmptyDistributionError` with no records."""
        n = self.n_seen
        if n < 1:
            raise EmptyDistributionError("no calibration records observed")
        if self.mode == "expected":
            numerator = (n + 1) * self.target_cost - self.cost_max
        else:
            numerator = (n + 1) * self.delta - 1.0
        mass = self.tree.total_weight()
        if mass <= 0.0:
            return ABOVE_ALL if numerator >= 0.0 else BELOW_ALL
        q = numerator / mass
        if q <= 0.0:
            return BELOW_ALL
        if q > 1.0:
            return ABOVE_ALL
        return self.tree.query_quantile(q)

    def proxy_values(self, universe: UniverseSeq, probs: np.ndarray) -> np.ndarray:
        """Value proxy for every set in the universe, aligned with its order."""
        spec = self.value_spec
        if spec.additive:
            return _universe_sums(spec.class_proxy_margins(probs), universe)
        return spec.proxy_many(universe.sets, probs)

    def predict(self, sample: Sample, universe: UniverseSeq | None = None) -> int | None:
        """Value-maximizing admissible set, or None during burn-in."""
        if self.n_seen <= self.burn_in:
            return None
        if universe is None:
            universe = self.build_universe(sample.probs)
        record = self.build_record(sample, universe)
        values = self.proxy_values(universe, sample.probs)
        return select_max_value(universe.sets, record.proxy_costs, values, self.threshold())

    def step(self, sample: Sample) -> StepResult:
        """Predict for the incoming sample, then calibrate on its label.

        Label feedback is assumed immediate: the sample joins the calibration
        state right after its prediction is made.
        """
        t0 = perf_counter()
        universe = self.build_universe(sample.probs)
        record = self.build_record(sample, universe)
        prediction = None
        threshold = None
        if self.n_seen > self.burn_in:
            threshold = self.threshold()
            values = self.proxy_values(universe, sample.probs)
            prediction = select_max_value(
                universe.sets, record.proxy_costs, values, threshold
            )
        self.observe_record(record)
        elapsed = perf_counter() - t0
        if prediction is None:
            return StepResult(None, threshold, None, None, elapsed)
        return StepResult(
            prediction,
            threshold,
            self.value_spec.evaluate(prediction, sample.labels),
            self.cost_spec.evaluate(prediction, sample.labels),
            elapsed,
        )

    def snapshot_csv(self, out) -> None:
        """Audit dump: scalar state plus the live (value, weight) tree pairs."""
        out.write(
            f"# mode={self.mode} target_cost={self.target_cost!r} delta={self.delta!r} "
            f"cost_max={self.cost_max!r} n_seen={self.n_seen} burn_in={self.burn_in} "
            f"window={self.window}\n"
        )
        out.write("value,weight\n")
        for value, weight in self.tree.items():
            out.write(f"{value!r},{weight!r}\n")


# ----------------------------------------------------------------------
# ClassWise baseline: even cost-budget split via per-class conformal levels

def classwise_thresholds(
    calibration: list[Sample], target_cost: float, cost_spec: SetFunctionSpec
) -> np.ndarray:
    """Per-class probability thresholds; predict k wherever p_k exceeds them.

    Class k gets an even share c/K of the cost budget, converted into a
    miscoverage level through the normalized cost of one false positive of
    that class. The conformal quantile is taken over the calibration scores
    of samples lacking the class, augmented with +∞ (above-all marker).
    """
    if not calibration:
        raise ValueError("calibration set must be non-empty")
    if target_cost <= 0.0:
        raise ValueError("target cost must be positive")
    k = cost_spec.n_classes
    thresholds = np.empty(k)
    for cls in range(k):
        unit_cost = cost_spec.evaluate(1 << cls, 0)
        if unit_cost <= 0.0:
            thresholds[cls] = BELOW_ALL  # cost-free class: always predict
            continue
        eps = target_cost / (k * unit_cost)
        if eps >= 1.0:
            thresholds[cls] = BELOW_ALL
            continue
        scores = sorted(
            float(s.probs[cls]) for s in calibration if not (s.labels >> cls) & 1
        )
        rank = math.ceil((1.0 - eps) * (len(scores) + 1))
        if rank <= 0:
            thresholds[cls] = BELOW_ALL
        elif rank > len(scores):
            thresholds[cls] = ABOVE_ALL
        else:
            thresholds[cls] = scores[rank - 1]
    return thresholds


def classwise_predict(probs: np.ndarray, thresholds: np.ndarray) -> int:
    mask = 0
    for cls in range(len(probs)):
        if probs[cls] > thresholds[cls]:
            mask |= 1 << cls
    return mask


def threshold_comparison(controller: CostController) -> tuple[float, float, str]:
    """Tree threshold vs direct-search threshold for the controller's state.

    Returns (tree_threshold, oracle_threshold, status) with status one of
    "match", "boundary" (the queried level lands exactly on a stored CDF
    value, where the two sides legitimately differ by one grid step), or
    "mismatch".
    """
    tree_t = controller.threshold()
    if controller.mode == "expected":
        oracle_t = oracle_threshold_expected(
            controller.records, controller.target_cost, controller.cost_max
        )
        numerator = (controller.n_seen + 1) * controller.target_cost - controller.cost_max
    else:
        oracle_t = oracle_threshold_violation(
            controller.records, controller.target_cost, controller.delta
        )
        numerator = (controller.n_seen + 1) * controller.delta - 1.0
    if tree_t == oracle_t:
        return tree_t, oracle_t, "match"
    mass = controller.tree.total_weight()
    if mass > 0.0 and 0.0 < numerator <= mass:
        # exact hit: the budget coincides with a stored cumulative mass, and
        # rounding may push the two routes to either side of it
        tol = 1e-9 * max(abs(numerator), 1.0)
        at = controller.tree.cdf_at(tree_t) * mass
        below = controller.tree.cdf_below(tree_t) * mass
        if abs(at - numerator) <= tol or abs(below - numerator) <= tol:
            return tree_t, oracle_t, "boundary"
    if numerator == 0.0:
        # budget exactly exhausts C_max: sup(empty) vs the zero-mass plateau
        return tree_t, oracle_t, "boundary"
    return tree_t, oracle_t, "mismatch"


# ----------------------------------------------------------------------
# direct-search references (the tree's verification and benchmark route)

def oracle_threshold_expected(
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


def oracle_threshold_violation(records, target_cost: float, delta: float) -> float:
    """Direct search for the violation threshold: scan every candidate proxy
    cost (plus the above-all plateau) and keep the largest one where enough
    samples stay within the target cost."""
    n = len(records)
    need = (1.0 - delta) * (n + 1)
    candidates = np.unique(np.concatenate([rec.proxy_costs for rec in records]))
    candidates = np.append(candidates, ABOVE_ALL)
    counts = np.zeros(len(candidates))
    for rec in records:
        idx = np.searchsorted(rec.proxy_costs, candidates, side="left") - 1
        cplus = np.where(idx >= 0, rec.max_costs[np.maximum(idx, 0)], 0.0)
        counts += cplus <= target_cost
    admissible = np.flatnonzero(counts >= need)
    if len(admissible) == 0:
        return BELOW_ALL
    return float(candidates[admissible[-1]])
