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
from array import array
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

# rows per block of a record store's runs: 2^14 proxy costs and their
# running-max costs, 2^15 floats (256 KB)
_RUN_BLOCK = 1 << 14


@dataclass(slots=True)
class SampleRecord:
    """Per-sample calibration payload.

    ``proxy_costs`` is nondecreasing with a leading 0 (the empty set);
    ``max_costs`` is its running-max true-cost companion. Both are
    ``float64`` arrays. The mass the sample contributes at proxy_costs[j] is
    max_costs[j] − max_costs[j−1], which telescopes to the final running
    max. ``exceed_thresholds`` is filled in violation mode, one entry per
    target of the observing controller: the smallest proxy cost whose
    running max exceeds that target (above-all marker when none does).

    :meth:`CostController.build_record` returns one; a :class:`RecordStore`
    keeps none, and ``store[i]`` yields one whose arrays are read-only views
    of the store's blocks.
    """

    proxy_costs: np.ndarray
    max_costs: np.ndarray
    exceed_thresholds: list[float] | None = None

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
    """Calibration records as runs in flat ``float64`` blocks.

    Record i is a run of rows, each a proxy cost and its running-max cost,
    from the end of record i − 1 to its own end offset; in violation mode it
    also keeps one exceed point per target. Rows are numbered in the order
    they are appended. They fill (2, n) blocks of at most ``_RUN_BLOCK``
    rows, and a run may continue into the next block. End offsets fill one
    ``array("q")``, exceed points one ``array("d")``.

    Appending fills the last block and allocates a new one when it is full,
    so no block is copied to grow; dropping the oldest record frees every
    block it empties, and the dropped offsets once they outnumber the live
    ones. A new block is shorter by the dropped rows left in the first
    block (but takes the rest of the run, up to a full block), so that
    dropped and unwritten rows together stay within one block; when a mix
    of record lengths still takes them past it, the first block's live rows
    are copied into a block of their own size. No row is written twice, so
    a view stays valid.

    ``len``, ``store[i]`` and iteration see the live records as read-only
    :class:`SampleRecord` views; the direct searches read the blocks.
    """

    __slots__ = (
        "_blocks", "_end", "_ends", "_exceed", "_first", "_head", "_n_targets", "_start", "_stop",
    )

    def __init__(self, n_targets: int = 0) -> None:
        """``n_targets`` exceed points are kept per record when positive."""
        self._n_targets = n_targets
        # the proxy-cost and running-max rows of each block
        self._blocks: deque[tuple[np.ndarray, np.ndarray]] = deque()
        self._start = 0  # row of the first block's first slot
        self._first = 0  # first live row
        self._end = 0  # row after the last written one
        self._stop = 0  # row after the last block's last slot
        # end offsets and exceed points of the records from _head on
        self._ends = array("q")
        self._exceed = array("d")
        self._head = 0  # the first live record's index in _ends

    def __len__(self) -> int:
        return len(self._ends) - self._head

    def slack(self) -> int:
        """Rows held that belong to no live record: the dropped ones left
        in the first block and the unwritten ones of the last."""
        return (self._first - self._start) + (self._stop - self._end)

    def append(self, proxy_costs, max_costs, exceed_thresholds=None) -> None:
        """Store one record: its proxy and running-max costs (arrays or
        lists of one length, with the leading row of the empty set), and
        its exceed points when the store keeps them."""
        n = len(proxy_costs)
        end = self._end
        room = self._stop - end
        if n <= room:
            proxies, maxes = self._blocks[-1]
            at = len(proxies) - room
            proxies[at : at + n] = proxy_costs
            maxes[at : at + n] = max_costs
        else:
            self._spill(proxy_costs, max_costs)
        self._end = end = end + n
        self._ends.append(end)
        if self._n_targets:
            self._exceed.extend(exceed_thresholds)

    def _spill(self, proxy_costs, max_costs) -> None:
        """Write a run that overflows the last block."""
        n = len(proxy_costs)
        done = 0
        while done < n:
            room = self._stop - (self._end + done)
            if room == 0:
                dead = self._first - self._start
                size = max(_RUN_BLOCK - dead, min(n - done, _RUN_BLOCK))
                block = np.empty((2, size))
                self._blocks.append((block[0], block[1]))
                self._stop += size
                room = size
            proxies, maxes = self._blocks[-1]
            at = len(proxies) - room
            k = min(room, n - done)
            proxies[at : at + k] = proxy_costs[done : done + k]
            maxes[at : at + k] = max_costs[done : done + k]
            done += k

    def popleft(self) -> SampleRecord:
        """Drop the oldest record; returns it as a view."""
        head = self._head
        ends = self._ends
        if head == len(ends):
            raise IndexError("pop from an empty record store")
        hi = ends[head]
        record = self._record(head, self._first, hi)
        head += 1
        if head > len(ends) - head:
            del ends[:head]
            del self._exceed[: head * self._n_targets]
            head = 0
        self._head = head
        self._first = hi
        blocks = self._blocks
        while blocks and self._start + len(blocks[0][0]) <= hi:
            self._start += len(blocks.popleft()[0])
        if (hi - self._start) + (self._stop - self._end) > _RUN_BLOCK:
            proxies, maxes = blocks[0]
            block = np.stack((proxies[hi - self._start :], maxes[hi - self._start :]))
            blocks[0] = (block[0], block[1])
            self._start = hi
        return record

    def _record(self, index: int, lo: int, hi: int) -> SampleRecord:
        """The record ending at ``_ends[index]``, whose rows are ``lo`` to ``hi``."""
        exceed = None
        if self._n_targets:
            t = self._n_targets
            exceed = self._exceed[index * t : (index + 1) * t].tolist()
        proxies, maxes = self._blocks[0]
        base = self._start
        if hi - base <= len(proxies):
            return SampleRecord(proxies[lo - base : hi - base], maxes[lo - base : hi - base], exceed)
        pieces = [
            (p[max(lo - at, 0) : hi - at], m[max(lo - at, 0) : hi - at])
            for at, p, m in self._rows()
            if at < hi and lo < at + len(p)
        ]
        if len(pieces) == 1:
            return SampleRecord(*pieces[0], exceed)
        return SampleRecord(
            np.concatenate([p for p, _ in pieces]), np.concatenate([m for _, m in pieces]), exceed
        )

    def _rows(self):
        """(first row, proxy costs, running-max costs) of each block."""
        at = self._start
        for proxies, maxes in self._blocks:
            yield at, proxies, maxes
            at += len(proxies)

    def __getitem__(self, index: int) -> SampleRecord:
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("record index out of range")
        at = self._head + index
        ends = self._ends
        record = self._record(at, ends[at - 1] if index else self._first, ends[at])
        record.proxy_costs.flags.writeable = False
        record.max_costs.flags.writeable = False
        return record

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def _record_starts(self) -> np.ndarray:
        """First rows of the live records, in order."""
        starts = np.empty(len(self), dtype=np.int64)
        if len(starts):
            starts[0] = self._first
            starts[1:] = np.frombuffer(self._ends, dtype=np.int64)[self._head : -1]
        return starts

    def runs(self):
        """(first row, proxy costs, running-max costs) of the live rows of
        each block, in order; a record may continue into the next block."""
        for at, proxies, maxes in self._rows():
            lo = max(self._first - at, 0)
            hi = min(self._end - at, len(proxies))
            if lo < hi:
                yield at + lo, proxies[lo:hi], maxes[lo:hi]

    def mass_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Every stored mass point's proxy cost and weight, records in order:
        proxy_costs[1:] and diff(max_costs) of each record, as one array each."""
        starts = self._record_starts()
        n_points = self._end - self._first - len(starts)
        values = np.empty(n_points)
        weights = np.empty(n_points)
        done = 0
        last = 0.0
        for position, proxies, maxes in self.runs():
            k = len(proxies)
            # a record's first row carries no mass
            keep = np.ones(k, dtype=bool)
            a, b = starts.searchsorted((position, position + k))
            keep[starts[a:b] - position] = False
            steps = np.empty(k)
            steps[0] = maxes[0] - last
            np.subtract(maxes[1:], maxes[:-1], out=steps[1:])
            kept = k - (b - a)
            np.compress(keep, proxies, out=values[done : done + kept])
            np.compress(keep, steps, out=weights[done : done + kept])
            done += kept
            last = maxes[-1]
        return values, weights

    def exceed_points(self, target_cost: float) -> np.ndarray:
        """Each live record's first proxy cost whose running max exceeds
        ``target_cost``, above-all marker when none does; in no order."""
        starts = self._record_starts()
        points = []
        within_before = True
        for position, proxies, maxes in self.runs():
            k = len(proxies)
            within = maxes <= target_cost
            # a row over the target is its record's first such row when the
            # row before it is within the target or starts the record
            first = np.empty(k, dtype=bool)
            first[0] = within_before
            first[1:] = within[:-1]
            a, b = starts.searchsorted((position, position + k))
            first[starts[a:b] - position] = True
            first &= ~within
            points.append(proxies[first])
            within_before = bool(within[-1])
        points.append(np.full(len(starts) - sum(map(len, points)), ABOVE_ALL))
        return np.concatenate(points)


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
    target, in the given order. :meth:`step`, :meth:`predict`,
    :meth:`threshold` (without an index), ``target_cost`` and ``tree``
    refer to the first target, which is the only one of a single-target
    controller; ``records`` are shared by all targets.

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
        # expected mode: one CDF of record mass for every target; violation
        # mode: one CDF of exceed points per target
        n_trees = 1 if mode == "expected" else len(targets)
        self.trees = [QuantileTree() for _ in range(n_trees)]
        self.records = RecordStore(0 if mode == "expected" else len(targets))
        # the last prediction's per-target outcome, overwritten in place
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
        self.observe_record(self.build_record(sample, self.build_universe(sample.probs)))

    def observe_record(self, record: SampleRecord) -> None:
        """Fold an already-evaluated record (stream replay surface)."""
        proxies = record.proxy_costs
        exceed = None
        if self.mode == "expected":
            tree = self.trees[0]
            for value, weight in record.mass_pairs():
                tree.insert(value, weight)
        else:
            # max_costs is nondecreasing: the first index whose running max
            # exceeds a target is that target's right insertion point
            m = len(proxies)
            exceed = [
                float(proxies[i]) if i < m else ABOVE_ALL
                for i in record.max_costs.searchsorted(self._target_array, side="right").tolist()
            ]
            for tree, value in zip(self.trees, exceed):
                tree.insert(value, 1)
        records = self.records
        records.append(proxies, record.max_costs, exceed)
        if self.window is not None and len(records) > self.window:
            self._evict(records.popleft())

    def _evict(self, record: SampleRecord) -> None:
        if self.mode == "expected":
            tree = self.trees[0]
            for value, weight in record.mass_pairs():
                tree.delete(value, weight)
        else:
            for tree, value in zip(self.trees, record.exceed_thresholds):
                tree.delete(value, 1)

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
        return tree.query_quantile(q)

    def proxy_values(self, universe: UniverseSeq, probs: np.ndarray) -> list[float] | np.ndarray:
        """Value proxy for every set in the universe, aligned with its order:
        the universe's own, else scored with ``proxy_many`` into an array (a
        ``gen`` value on any family but the ratio chain)."""
        if universe.proxy_values is not None:
            return universe.proxy_values
        return self.value_spec.proxy_many(universe.sets, probs)

    def predict(self, sample: Sample) -> int | None:
        """First target's value-maximizing admissible set, or None during
        burn-in."""
        self._predict_all(sample)
        return self._predictions[0]

    def _predict_all(self, sample: Sample) -> SampleRecord:
        """Predict for every target; returns the sample's record. The
        thresholds and predictions land in ``_thresholds``/``_predictions``
        (None during burn-in)."""
        universe = self.build_universe(sample.probs)
        record = self.build_record(sample, universe)
        thresholds = self._thresholds
        predictions = self._predictions
        n = self.n_seen
        if n > self.burn_in:
            values = self.proxy_values(universe, sample.probs)
            for i in range(len(thresholds)):
                threshold = thresholds[i] = self._threshold(i, n)
                predictions[i] = select_max_value(
                    universe.sets, universe.proxy_costs, values, threshold
                )
        else:
            for i in range(len(thresholds)):
                thresholds[i] = predictions[i] = None
        return record

    def _step(self, sample: Sample) -> float:
        """Predict for every target, then calibrate on the label; returns the
        elapsed seconds."""
        t0 = perf_counter()
        self.observe_record(self._predict_all(sample))
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
    """Direct search for the violation threshold: over every candidate proxy
    cost (plus the above-all plateau), keep the largest one where enough
    samples stay within the target cost.

    A sample stays within a nonnegative target at t when every set of proxy
    cost below t costs at most the target: when t is at most the first
    proxy cost whose running max exceeds it (its exceed point; every record
    starts at cost 0). So the count at a candidate is the number of exceed
    points at or above it. The search finds the exceed points in the
    store's blocks itself; it does not read the ones the store keeps for
    the trees. O(MN log(MN)) for N records of M candidates."""
    n = len(records)
    need = (1.0 - delta) * (n + 1)
    exceed = np.sort(records.exceed_points(target_cost))
    proxies = np.concatenate([p for _, p, _ in records.runs()])
    candidates = np.append(np.unique(proxies), ABOVE_ALL)
    del proxies
    counts = n - exceed.searchsorted(candidates, side="left")
    admissible = np.flatnonzero(counts >= need)
    if len(admissible) == 0:
        return BELOW_ALL
    return float(candidates[admissible[-1]])
