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

A controller serves one or more cost targets from one calibration pass: the
universe, the record and the value proxies of a sample do not depend on the
target. Expected mode keeps one tree for all targets and queries it once per
target; violation mode keeps one tree per target, fed by each record's
per-target exceed points. A single-target controller is the T = 1 case.

One controller per stream, single-threaded per stream; independent streams
may run in parallel.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from numbers import Real
from time import perf_counter

import numpy as np

from .quantile_tree import (
    ABOVE_ALL,
    BELOW_ALL,
    EmptyDistributionError,
    QuantileTree,
)
from .set_functions import Sample, SetFunctionSpec, label_bits
from .universe import UniverseSeq, build_universe, subset_sums

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
    telescopes to the final running max. ``exceed_thresholds`` is filled in
    violation mode, one entry per target of the observing controller: the
    smallest proxy cost whose running max exceeds that target (above-all
    marker when none does).
    """

    proxy_costs: np.ndarray
    max_costs: np.ndarray
    exceed_thresholds: list[float] | None = None

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

    ``target_cost`` is one target or a sequence of T targets served by one
    calibration pass. :meth:`step_all` returns one :class:`StepResult` per
    target, in the given order. :meth:`step`, :meth:`predict`,
    :meth:`threshold` (without an index), ``target_cost`` and ``tree``
    refer to the first target, which is the only one of a single-target
    controller; ``records`` are shared by all targets.

    Before ``burn_in`` samples have been observed, ``predict``/``step`` return
    the no-prediction marker (None) while calibration keeps accumulating.
    With ``window`` set, the oldest record is evicted once more than
    ``window`` records are live (rolling instead of expanding calibration).
    """

    def __init__(
        self,
        mode: str,
        target_cost: float | list[float],
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
        targets = (target_cost,) if isinstance(target_cost, Real) else tuple(target_cost)
        if not targets:
            raise ValueError("need at least one target cost")
        if not all(0.0 < c <= cost_max for c in targets):
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
        self.targets = targets
        self._target_array = np.array(targets, dtype=float)
        self.delta = delta
        self.cost_max = cost_max
        self.burn_in = burn_in
        self.window = window
        self.universe_kind = universe_kind
        self.value_spec = value_spec
        self.cost_spec = cost_spec
        # expected mode: one CDF of record mass for every target; violation
        # mode: one CDF of exceed points per target
        n_trees = 1 if mode == "expected" else len(targets)
        self.trees = [QuantileTree() for _ in range(n_trees)]
        self.records: deque[SampleRecord] = deque()
        # the last step's per-target outcome, overwritten in place
        self._thresholds: list[float | None] = [None] * len(targets)
        self._predictions: list[int | None] = [None] * len(targets)

    @property
    def target_cost(self) -> float:
        return self.targets[0]

    @property
    def tree(self) -> QuantileTree:
        return self.trees[0]

    @property
    def n_seen(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # per-sample pipeline

    def build_universe(self, probs: np.ndarray) -> UniverseSeq:
        """The sample's candidate family; a probability vector of another
        length, or with an entry that is not a number in [0, 1], raises
        ValueError before any state changes."""
        k = self.cost_spec.n_classes
        if len(probs) != k:
            raise ValueError(f"probability vector has K = {len(probs)}, controller has K = {k}")
        if not (probs.min() >= 0.0 and probs.max() <= 1.0):  # NaN fails both
            raise ValueError(f"probabilities must lie in [0, 1], got {probs!r}")
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
            proxies = _universe_sums(spec.class_margins(sample.probs), universe)
        labels = label_bits(sample.labels, spec.n_classes)
        costs = _universe_sums(spec.class_margins(labels), universe)
        return SampleRecord(proxies, np.maximum.accumulate(costs))

    def observe(self, sample: Sample, universe: UniverseSeq | None = None) -> None:
        """Fold one labeled sample into the calibration state."""
        if universe is None:
            universe = self.build_universe(sample.probs)
        self.observe_record(self.build_record(sample, universe))

    def observe_record(self, record: SampleRecord) -> None:
        """Fold an already-evaluated record (stream replay surface)."""
        if self.mode == "expected":
            tree = self.trees[0]
            for value, weight in record.mass_pairs():
                tree.insert(value, weight)
        else:
            # max_costs is nondecreasing: the first index whose running max
            # exceeds a target is that target's right insertion point
            proxies = record.proxy_costs
            m = len(proxies)
            exceed = record.max_costs.searchsorted(self._target_array, side="right")
            record.exceed_thresholds = [
                float(proxies[i]) if i < m else ABOVE_ALL for i in exceed.tolist()
            ]
            for tree, value in zip(self.trees, record.exceed_thresholds):
                tree.insert(value, 1.0)
        self.records.append(record)
        if self.window is not None and len(self.records) > self.window:
            self._evict(self.records.popleft())

    def _evict(self, record: SampleRecord) -> None:
        if self.mode == "expected":
            tree = self.trees[0]
            for value, weight in record.mass_pairs():
                tree.delete(value, weight)
        else:
            for tree, value in zip(self.trees, record.exceed_thresholds):
                tree.delete(value, 1.0)

    def threshold(self, index: int = 0) -> float:
        """Current proxy-cost threshold of target ``index`` (below-all/above-all
        markers at the extremes). Raises :class:`EmptyDistributionError` with
        no records."""
        n = self.n_seen
        if n < 1:
            raise EmptyDistributionError("no calibration records observed")
        if self.mode == "expected":
            tree = self.trees[0]
            numerator = (n + 1) * self.targets[index] - self.cost_max
        else:
            tree = self.trees[index]
            numerator = (n + 1) * self.delta - 1.0
        mass = tree.total_weight()
        if mass <= 0.0:
            return ABOVE_ALL if numerator >= 0.0 else BELOW_ALL
        q = numerator / mass
        if q <= 0.0:
            return BELOW_ALL
        if q > 1.0:
            return ABOVE_ALL
        return tree.query_quantile(q)

    def proxy_values(self, universe: UniverseSeq, probs: np.ndarray) -> np.ndarray:
        """Value proxy for every set in the universe, aligned with its order."""
        spec = self.value_spec
        if spec.additive:
            return _universe_sums(spec.class_margins(probs), universe)
        return spec.proxy_many(universe.sets, probs)

    def predict(self, sample: Sample, universe: UniverseSeq | None = None) -> int | None:
        """First target's value-maximizing admissible set, or None during
        burn-in."""
        if self.n_seen <= self.burn_in:
            return None
        if universe is None:
            universe = self.build_universe(sample.probs)
        record = self.build_record(sample, universe)
        values = self.proxy_values(universe, sample.probs)
        return select_max_value(universe.sets, record.proxy_costs, values, self.threshold())

    def _step(self, sample: Sample) -> float:
        """Predict for every target, then calibrate on the label; returns the
        elapsed seconds. The thresholds and predictions land in
        ``_thresholds``/``_predictions`` (None during burn-in)."""
        t0 = perf_counter()
        universe = self.build_universe(sample.probs)
        record = self.build_record(sample, universe)
        thresholds = self._thresholds
        predictions = self._predictions
        if self.n_seen > self.burn_in:
            values = self.proxy_values(universe, sample.probs)
            for i in range(len(thresholds)):
                threshold = thresholds[i] = self.threshold(i)
                predictions[i] = select_max_value(
                    universe.sets, record.proxy_costs, values, threshold
                )
        else:
            for i in range(len(thresholds)):
                thresholds[i] = predictions[i] = None
        self.observe_record(record)
        return perf_counter() - t0

    def _result(self, index: int, labels: int, elapsed: float) -> StepResult:
        """The last step's outcome for target ``index``, realized on ``labels``."""
        prediction = self._predictions[index]
        threshold = self._thresholds[index]
        if prediction is None:
            return StepResult(None, threshold, None, None, elapsed)
        return StepResult(
            prediction,
            threshold,
            self.value_spec.evaluate(prediction, labels),
            self.cost_spec.evaluate(prediction, labels),
            elapsed,
        )

    def step(self, sample: Sample) -> StepResult:
        """Predict for the incoming sample, then calibrate on its label; the
        first target's result.

        Label feedback is assumed immediate: the sample joins the calibration
        state right after its prediction is made.
        """
        elapsed = self._step(sample)
        return self._result(0, sample.labels, elapsed)

    def step_all(self, sample: Sample) -> list[StepResult]:
        """:meth:`step` for every target: one result per target, in target
        order. Each result's ``elapsed_s`` is the step's time divided by the
        number of targets, so the results add up to the step."""
        share = self._step(sample) / len(self.targets)
        labels = sample.labels
        return [self._result(i, labels, share) for i in range(len(self.targets))]

    def snapshot_csv(self, out) -> None:
        """Audit dump: scalar state plus the live (value, weight) pairs of the
        first target's tree."""
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
