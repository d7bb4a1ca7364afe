"""Online conformal cost control over candidate prediction sets.

Per sample, the candidate family is evaluated into a record: sorted proxy
costs, the running max of true costs along them, and the telescoping weights
between consecutive maxima. Records feed a :class:`QuantileTree`, and the
data-driven proxy-cost threshold is a single weighted-quantile query:

* expected mode      q = ((N+1)c − C_max) / total_mass
* violation mode     q = ((N+1)δ − 1) / total_mass

The prediction is the value-proxy maximizer among candidate sets with proxy
cost strictly below the threshold. A step is one pipeline, written once in
:meth:`CostController.step_all`: build the universe from the probabilities,
build the record from the label, select each target's threshold and
prediction from the records seen so far, fold the record in, and evaluate
the predictions on the label. A prediction alone runs only the universe and
the selection, so it reads no label. Direct-search reference implementations
of both thresholds (linear in the stored mass) are included; they are the
independent route the tree is verified and benchmarked against.

A controller serves one or more cost targets from one calibration pass: the
universe, the record and the value proxies of a sample do not depend on the
target. Expected mode keeps one tree for all targets and queries it once per
target, each from its own cursor; violation mode keeps one tree per
target, fed by each record's exceed point for that target. A single-target
controller is the T = 1 case.
Every candidate family of a controller has one size, 2^K sets of a power
set or the K + 1 prefixes of a chain, so its records are kept as rows of
that one width only; one function folds a record's tree points in when it
arrives and back out when a window drops it.

One controller per stream, single-threaded per stream; independent streams
may run in parallel.
"""

from __future__ import annotations

import math
from bisect import bisect_left
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
from .set_functions import NORMALIZED_BOUND, Sample, SetFunctionSpec, full_set
from .universe import (
    FULL_UNIVERSE_MAX_CLASSES,
    UNIVERSE_KINDS,
    UniverseSeq,
    build_universe,
    subset_sums,
)

MODES = ("expected", "violation")

# rows per block of a record store: 2^14 proxy costs and their running-max
# costs, 2^15 floats (256 KB), or one record when a record is longer
_RUN_BLOCK = 1 << 14


@dataclass(slots=True)
class SampleRecord:
    """Per-sample calibration payload.

    ``proxy_costs`` is nondecreasing with a leading 0 (the empty set);
    ``max_costs`` is its running-max true-cost companion. Both are
    ``float64`` arrays. The mass the sample contributes at proxy_costs[j] is
    max_costs[j] − max_costs[j−1], which telescopes to the final running
    max.

    :meth:`CostController.build_record` returns one; a :class:`RecordStore`
    keeps none, and ``store[i]`` yields one whose arrays are read-only views
    of one row of a store's block.
    """

    proxy_costs: np.ndarray
    max_costs: np.ndarray

    def mass_pairs(self) -> list[tuple[float, float]]:
        """(value, weight) insertions this record contributes, as Python
        floats; zero weights are dropped (they cannot move any quantile)."""
        pairs = []
        mc = self.max_costs.tolist()
        prev = mc[0]
        for value, cost in zip(self.proxy_costs.tolist()[1:], mc[1:]):
            w = cost - prev
            prev = cost
            if w > 0.0:
                pairs.append((value, w))
        return pairs


class RecordStore:
    """Calibration records of one width as rows of ``float64`` blocks.

    Record i is one row of a block's (records, width) proxy-cost array and
    the same row of its running-max array, and nothing else: what a
    controller's trees hold is recomputed from the rows. A block holds at
    most ``max(1, _RUN_BLOCK // width)`` records, so a record never crosses
    a block.

    Appending fills the last block and allocates a new one when it is full,
    so no block is copied to grow; dropping the oldest record frees the
    first block once it is empty. A new block is shorter by the records
    already dropped from the first block, so that dropped and unwritten
    rows together stay within one block under a window. No row is written
    twice or moved, so a view stays valid.

    ``len``, ``store[i]`` and iteration see the live records as read-only
    :class:`SampleRecord` views; the direct searches read the blocks.
    """

    __slots__ = ("_blocks", "_first", "_len", "_room", "width")

    def __init__(self, width: int) -> None:
        """An empty store of records of ``width`` >= 1 rows each."""
        self.width = width
        # the proxy-cost and running-max rows of each block
        self._blocks: deque[tuple[np.ndarray, np.ndarray]] = deque()
        self._first = 0  # records dropped from the first block
        self._room = 0  # records the last block has room for
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def slack(self) -> int:
        """Rows held that belong to no live record: the dropped ones left
        in the first block and the unwritten ones of the last."""
        return (self._first + self._room) * self.width

    def append(self, proxy_costs, max_costs) -> None:
        """Store one record: its proxy and running-max costs (arrays or
        lists of the store's width, with the leading row of the empty set).
        A record of another width raises ValueError and stores nothing."""
        self.check(proxy_costs, max_costs)
        if not self._room:
            size = max(1, _RUN_BLOCK // self.width) - self._first
            block = np.empty((2, size, self.width))
            self._blocks.append((block[0], block[1]))
            self._room = size
        proxies, maxes = self._blocks[-1]
        at = len(proxies) - self._room
        proxies[at] = proxy_costs
        maxes[at] = max_costs
        self._room -= 1
        self._len += 1

    def check(self, proxy_costs, max_costs) -> None:
        """Raise ValueError unless both arrays have the store's width."""
        if not len(proxy_costs) == len(max_costs) == self.width:
            raise ValueError(
                f"record has {len(proxy_costs)} proxy costs and {len(max_costs)} "
                f"running maxima, the store's records have {self.width}"
            )

    def popleft(self) -> SampleRecord:
        """Drop the oldest record; returns it as a view."""
        if not self._len:
            raise IndexError("pop from an empty record store")
        proxies, maxes = self._blocks[0]
        at = self._first
        self._len -= 1
        self._first = at + 1
        if self._first == len(proxies):
            self._blocks.popleft()
            self._first = 0
        return SampleRecord(proxies[at], maxes[at])

    def __getitem__(self, index: int) -> SampleRecord:
        n = self._len
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("record index out of range")
        for proxies, maxes in self.runs():
            if index < len(proxies):
                return SampleRecord(proxies[index], maxes[index])
            index -= len(proxies)

    def __iter__(self):
        for proxies, maxes in self.runs():
            yield from map(SampleRecord, proxies, maxes)

    def runs(self):
        """(proxy costs, running-max costs) of the live records of each
        block, in order, as read-only (records, width) views."""
        last = len(self._blocks) - 1
        for i, (proxies, maxes) in enumerate(self._blocks):
            lo = self._first if i == 0 else 0
            hi = len(proxies) - (self._room if i == last else 0)
            if lo < hi:
                proxies = proxies[lo:hi]
                maxes = maxes[lo:hi]
                proxies.flags.writeable = maxes.flags.writeable = False
                yield proxies, maxes

    def mass_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Every stored mass point's proxy cost and weight, records in order:
        proxy_costs[1:] and diff(max_costs) of each record, as one array each."""
        values = np.empty((len(self), self.width - 1))
        weights = np.empty_like(values)
        done = 0
        for proxies, maxes in self.runs():
            k = len(proxies)
            # a record's first row carries no mass
            values[done : done + k] = proxies[:, 1:]
            np.subtract(maxes[:, 1:], maxes[:, :-1], out=weights[done : done + k])
            done += k
        return values.ravel(), weights.ravel()

    def exceed_points(self, target_cost: float) -> np.ndarray:
        """Each live record's first proxy cost whose running max exceeds
        ``target_cost``, above-all marker when none does; records in order."""
        points = np.empty(len(self))
        done = 0
        for proxies, maxes in self.runs():
            rows = np.arange(len(proxies))
            over = ~(maxes <= target_cost)
            first = over.argmax(axis=1)
            points[done : done + len(rows)] = np.where(
                over[rows, first], proxies[rows, first], ABOVE_ALL
            )
            done += len(rows)
        return points


def select_max_value(sets, proxy_costs, proxy_values, threshold: float) -> int:
    """Value-proxy argmax among sets with proxy cost strictly below the
    threshold, as a Python int; ∅ when nothing is admissible.

    Precondition: ``proxy_costs`` is nondecreasing, as every universe
    guarantees, so the admissible sets are a prefix. Ties go to the first
    index, which is the smallest proxy cost. Costs and values may each be a
    list or an array: a chain's lists, a power set's arrays, or a record's
    array costs with its chain's list values.
    """
    n = bisect_left(proxy_costs, threshold)
    if n == 0:
        return 0
    if isinstance(proxy_values, list):
        # max keeps the first of equal values, and index finds the first
        # value equal to it
        best = proxy_values.index(max(proxy_values[:n]))
    else:
        best = proxy_values[:n].argmax()
    return int(sets[best])


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
    target, in the given order, and :meth:`step` is its first result.
    :meth:`predict` (which reads only a sample's probabilities and changes
    no state), :meth:`threshold` (without an index), ``target_cost`` and
    ``tree`` refer to the first target, which is the only one of a
    single-target controller; ``records`` are shared by all targets.

    Before ``burn_in`` samples have been observed, ``predict``/``step`` return
    the no-prediction marker (None) while calibration keeps accumulating.
    With ``window`` set, the oldest record is evicted once more than
    ``window`` records are live (rolling instead of expanding calibration);
    a window must exceed ``burn_in``, or the controller would never predict.
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
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        targets = (target_cost,) if isinstance(target_cost, Real) else tuple(target_cost)
        if not targets:
            raise ValueError("need at least one target cost")
        if not all(0.0 < c <= NORMALIZED_BOUND for c in targets):
            raise ValueError(f"target cost must be in (0, {NORMALIZED_BOUND}]")
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if window is not None and window < 1:
            raise ValueError("window must be >= 1")
        if window is not None and window <= burn_in:
            # n_seen counts live records, which the window caps at window
            raise ValueError(f"window ({window}) must exceed burn_in ({burn_in}) to ever predict")
        if value_spec.is_cost or not cost_spec.is_cost:
            raise ValueError(
                f"need a value kind and a cost kind, got {value_spec.kind!r} "
                f"and {cost_spec.kind!r}"
            )
        if universe_kind not in UNIVERSE_KINDS:
            raise ValueError(f"unknown universe kind {universe_kind!r}")
        k = cost_spec.n_classes
        if universe_kind == "full" and k > FULL_UNIVERSE_MAX_CLASSES:
            raise ValueError(f"full universe needs K <= {FULL_UNIVERSE_MAX_CLASSES}, got {k}")
        self.mode = mode
        self.targets = targets
        self._target_array = np.array(targets, dtype=float)
        self.delta = delta
        # every cost spec is normalized to this maximum
        self.cost_max = NORMALIZED_BOUND
        self.burn_in = burn_in
        self.window = window
        self.universe_kind = universe_kind
        self.value_spec = value_spec
        self.cost_spec = cost_spec
        # a power set's true costs by lookup: entry m is m's cost when no
        # class is present, and a set S costs the entry of S & ~labels
        self._absent_costs = (
            subset_sums(np.array(cost_spec.unit_margins)) if universe_kind == "full" else None
        )
        # expected mode: one CDF of record mass for every target, with a
        # cursor per target; violation mode: one CDF of exceed points per target
        if mode == "expected":
            self.trees = [QuantileTree(len(targets))]
        else:
            self.trees = [QuantileTree() for _ in targets]
        # every record has one row per candidate set: 2^K of a power set,
        # K + 1 of a chain
        self.records = RecordStore(1 << k if universe_kind == "full" else k + 1)

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
        if not all(0.0 <= p <= 1.0 for p in probs.tolist()):  # NaN fails both
            raise ValueError(f"probabilities must lie in [0, 1], got {probs!r}")
        return build_universe(self.universe_kind, probs, self.value_spec, self.cost_spec)

    def build_record(self, sample: Sample, universe: UniverseSeq) -> SampleRecord:
        """The sample's calibration record over ``universe``, which must be
        built by this controller from ``sample.probs``: the universe's sorted
        cost proxies are reused as the record's. A power set's true costs are
        read from the controller's table of costs with no class present, a
        chain's are the running sums of the labels' margins."""
        spec = self.cost_spec
        k = spec.n_classes
        labels = int(sample.labels)
        if labels >> k:
            raise ValueError(
                f"labels {labels:#x} need K >= {labels.bit_length()}, controller has K = {k}"
            )
        if universe.order is None:
            if self._absent_costs is None:
                raise ValueError(
                    f"a power set needs a 'full' controller, this one is {self.universe_kind!r}"
                )
            # a present class adds +0.0 to the ascending sum, so the cost of S
            # is bit for bit the sum over S & ~labels
            # masks below 2^20: their int64 view gathers without a cast
            costs = self._absent_costs[universe.sets.view(np.int64) & (full_set(k) & ~labels)]
            # the running max overwrites the costs, one array fewer per step
            # to fragment the heap the records live in
            return SampleRecord(universe.proxy_costs, np.maximum.accumulate(costs, out=costs))
        # a class absent from the labels costs its unit margin, a present one
        # 0.0 times it. The sum starts at -0.0, which adds to any margin
        # exactly, so it starts from the first margin as a cumsum does; the
        # running max keeps the later of two equal floats, as np.maximum does
        units = spec.unit_margins
        max_costs = [0.0]
        total = -0.0
        run = 0.0
        for c in universe.order:
            total += units[c] * 0.0 if labels >> c & 1 else units[c]
            if total >= run:
                run = total
            max_costs.append(run)
        return SampleRecord(np.array(universe.proxy_costs), np.array(max_costs))

    def observe(self, sample: Sample) -> None:
        """Fold one labeled sample into the calibration state."""
        self._observe(self.build_record(sample, self.build_universe(sample.probs)))

    def observe_record(self, record: SampleRecord) -> None:
        """Fold an already-evaluated record (stream replay surface) as
        :meth:`observe` folds a built one. A record whose arrays are not both
        as long as the controller's candidate family, or hold a cost that is
        not finite or a cost below the one before it, raises ValueError
        before any state changes; so does one whose leading row, the empty
        set's, is not (0.0, 0.0)."""
        proxies, maxes = record.proxy_costs, record.max_costs
        self.records.check(proxies, maxes)
        for name, costs in (("proxy costs", proxies), ("running maxima", maxes)):
            # a NaN fails every comparison, and nondecreasing costs from the
            # leading 0.0 checked below are finite when their last one is
            if not ((costs[1:] >= costs[:-1]).all() and costs[-1] < math.inf):
                raise ValueError(f"record's {name} must be finite and nondecreasing")
        if not proxies[0] == maxes[0] == 0.0:
            raise ValueError(
                f"record's leading row must be the empty set's (0.0, 0.0), "
                f"got ({proxies[0]}, {maxes[0]})"
            )
        self._observe(record)

    def _observe(self, record: SampleRecord) -> None:
        """Fold a record of the controller's width, finite and nondecreasing;
        with a window, fold the oldest record back out once it is one too
        many."""
        records = self.records
        self._fold(record, QuantileTree.insert)
        records.append(record.proxy_costs, record.max_costs)
        if self.window is not None and len(records) > self.window:
            self._fold(records.popleft(), QuantileTree.delete)

    def _fold(self, record: SampleRecord, change) -> None:
        """Apply ``change``, :meth:`QuantileTree.insert` or
        :meth:`QuantileTree.delete`, to each of the record's tree points: its
        mass pairs in expected mode; in violation mode one point per target
        at unit weight, the first proxy cost whose running max exceeds the
        target (above-all marker when none does)."""
        if self.mode == "expected":
            tree = self.trees[0]
            for value, weight in record.mass_pairs():
                change(tree, value, weight)
            return
        # max_costs is nondecreasing: the first index whose running max
        # exceeds a target is that target's right insertion point
        proxies = record.proxy_costs
        m = len(proxies)
        firsts = record.max_costs.searchsorted(self._target_array, side="right").tolist()
        for tree, i in zip(self.trees, firsts):
            change(tree, float(proxies[i]) if i < m else ABOVE_ALL, 1)

    def _budget(self, index: int, n: int) -> tuple[QuantileTree, float]:
        """Target ``index``'s tree and the numerator of its quantile level
        after ``n`` records: (N+1)c − C_max in expected mode, (N+1)δ − 1 in
        violation mode."""
        if self.mode == "expected":
            return self.trees[0], (n + 1) * self.targets[index] - self.cost_max
        return self.trees[index], (n + 1) * self.delta - 1.0

    def threshold(self, index: int = 0) -> float:
        """Current proxy-cost threshold of target ``index`` (below-all/above-all
        markers at the extremes). Raises :class:`EmptyDistributionError` with
        no records."""
        n = self.n_seen
        if n < 1:
            raise EmptyDistributionError("no calibration records observed")
        return self._threshold(index, n)

    def _threshold(self, index: int, n: int) -> float:
        """:meth:`threshold` after ``n`` >= 1 records."""
        tree, numerator = self._budget(index, n)
        mass = tree.total_weight()
        if mass <= 0.0:
            return ABOVE_ALL if numerator >= 0.0 else BELOW_ALL
        q = numerator / mass
        if q <= 0.0:
            return BELOW_ALL
        if q > 1.0:
            return ABOVE_ALL
        # expected mode's one tree keeps a cursor per target
        return tree.query_quantile(q, index if self.mode == "expected" else 0)

    def proxy_values(self, universe: UniverseSeq, probs: np.ndarray) -> list[float] | np.ndarray:
        """Value proxy for every set in the universe, aligned with its order:
        the universe's own, else scored with ``proxy_many`` into an array (a
        ``gen`` value on any family but the ratio chain)."""
        if universe.proxy_values is not None:
            return universe.proxy_values
        return self.value_spec.proxy_many(universe.sets, probs)

    def predict(self, sample: Sample) -> int | None:
        """First target's value-maximizing admissible set, or None during
        burn-in. Reads only ``sample.probs`` and changes no state."""
        _, prediction = self._select(self.build_universe(sample.probs), sample.probs)[0]
        return prediction

    def _select(
        self, universe: UniverseSeq, probs: np.ndarray
    ) -> list[tuple[float | None, int | None]]:
        """Each target's (threshold, prediction) over ``universe`` from the
        records seen so far; (None, None) for each target during burn-in."""
        n = self.n_seen
        if n <= self.burn_in:
            return [(None, None)] * len(self.targets)
        values = self.proxy_values(universe, probs)
        selected = []
        for i in range(len(self.targets)):
            threshold = self._threshold(i, n)
            prediction = select_max_value(universe.sets, universe.proxy_costs, values, threshold)
            selected.append((threshold, prediction))
        return selected

    def step(self, sample: Sample) -> StepResult:
        """The first target's result of :meth:`step_all`."""
        return self.step_all(sample)[0]

    def step_all(self, sample: Sample) -> list[StepResult]:
        """Predict for the incoming sample, then calibrate on its label; one
        result per target, in target order, each realized on the label. Each
        result's ``elapsed_s`` is the step's time divided by the number of
        targets, so the results add up to the step.

        Label feedback is assumed immediate: the sample joins the calibration
        state right after its prediction is made.
        """
        t0 = perf_counter()
        probs = sample.probs
        universe = self.build_universe(probs)
        record = self.build_record(sample, universe)
        selected = self._select(universe, probs)
        self._observe(record)
        labels = sample.labels
        results = []
        for threshold, prediction in selected:
            if prediction is None:
                results.append(StepResult(None, threshold, None, None, 0.0))
            else:
                value = self.value_spec.evaluate(prediction, labels)
                cost = self.cost_spec.evaluate(prediction, labels)
                results.append(StepResult(prediction, threshold, value, cost, 0.0))
        # the step's time is known only once every result is evaluated
        share = (perf_counter() - t0) / len(results)
        for result in results:
            result.elapsed_s = share
        return results


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


def threshold_comparison(controller: CostController, index: int = 0) -> tuple[float, float, str]:
    """Tree threshold vs direct-search threshold of target ``index`` for the
    controller's state.

    Returns (tree_threshold, oracle_threshold, status) with status one of
    "match", "boundary" (the queried level lands exactly on a stored CDF
    value, where the two sides legitimately differ by one grid step), or
    "mismatch".
    """
    tree_t = controller.threshold(index)
    target = controller.targets[index]
    if controller.mode == "expected":
        oracle_t = oracle_threshold_expected(controller.records, target, controller.cost_max)
    else:
        oracle_t = oracle_threshold_violation(controller.records, target, controller.delta)
    if tree_t == oracle_t:
        return tree_t, oracle_t, "match"
    tree, numerator = controller._budget(index, controller.n_seen)
    mass = tree.total_weight()
    tol = 1e-9 * max(abs(numerator), 1.0)
    if mass > 0.0 and 0.0 < numerator <= mass + tol:
        # exact hit: the budget coincides with a stored cumulative mass (the
        # whole mass too), and rounding may push the routes to either side
        at = tree.cdf_at(tree_t) * mass
        below = tree.cdf_below(tree_t) * mass
        if abs(at - numerator) <= tol or abs(below - numerator) <= tol:
            return tree_t, oracle_t, "boundary"
    if numerator == 0.0:
        # budget exactly exhausts C_max: sup(empty) vs the zero-mass plateau
        return tree_t, oracle_t, "boundary"
    return tree_t, oracle_t, "mismatch"


# ----------------------------------------------------------------------
# direct-search references (the tree's verification and benchmark route)

def oracle_threshold_expected(
    records: RecordStore, target_cost: float, cost_max: float
) -> float:
    """Direct search for the expected-cost threshold over the finite
    candidate grid: the largest t whose average worst-case cost, padded with
    one cost_max, stays within the target. Linear in the stored mass, read
    from the store's blocks; its temporaries are the mass points' values,
    their sort order and their sorted weights, summed in place."""
    n = len(records)
    budget = (n + 1) * target_cost - cost_max
    if budget < 0.0:
        return BELOW_ALL
    values, weights = records.mass_arrays()
    order = np.argsort(values, kind="stable")
    cum = weights[order]
    del weights
    np.cumsum(cum, out=cum)
    idx = int(np.searchsorted(cum, budget, side="right"))
    if idx >= len(cum):
        return ABOVE_ALL
    return float(values[order[idx]])


def oracle_threshold_violation(records: RecordStore, target_cost: float, delta: float) -> float:
    """Direct search for the violation threshold: over the candidate proxy
    costs (plus the above-all plateau), keep the largest one where enough
    samples stay within the target cost.

    A sample stays within a nonnegative target at t when every set of proxy
    cost below t costs at most the target: when t is at most the first
    proxy cost whose running max exceeds it (its exceed point; every record
    starts at cost 0). So the count at a candidate is the number of exceed
    points at or above it, which changes only at an exceed point: the
    largest admissible proxy cost is an exceed point or the above-all
    plateau, and only those are scanned. The search finds the exceed points
    in the store's blocks itself, apart from the trees. O(MN + N log N) for
    N records of M candidates."""
    n = len(records)
    need = (1.0 - delta) * (n + 1)
    exceed = np.sort(records.exceed_points(target_cost))
    # an empty store has no exceed point, and the above-all plateau counts no sample
    candidates = np.append(np.unique(exceed), ABOVE_ALL)
    counts = n - exceed.searchsorted(candidates, side="left")
    admissible = np.flatnonzero(counts >= need)
    if len(admissible) == 0:
        return BELOW_ALL
    return float(candidates[admissible[-1]])
