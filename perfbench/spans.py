"""Layer spans for the traced benchmark run.

A traced step calls the public pieces of ``CostController.step()`` in the
same order as ``step()`` does, and records one span around each call. Spans
carry a name, a start, an end and a parent; the spans of one step share its
step ID. They are held in typed arrays, not per-span objects, so the cyclic
garbage collector never traverses them, and are written out when the run
ends.
"""

from __future__ import annotations

import itertools
import threading
from array import array
from time import perf_counter

import numpy as np

from costcap.controller import StepResult, select_max_value
from costcap.quantile_tree import ABOVE_ALL, BELOW_ALL
from costcap.set_functions import SetFunctionSpec

LAYER_SPANS = (
    "universe.build",
    "controller.record",
    "quantile_tree.threshold",
    "set_functions.proxy_values",
    "controller.select",
    "quantile_tree.observe",
    "set_functions.evaluate",
)
SPAN_NAMES = ("step",) + LAYER_SPANS  # a span's name is its index here
_UNIVERSE, _RECORD, _THRESHOLD, _PROXY, _SELECT, _OBSERVE, _EVALUATE = range(1, len(SPAN_NAMES))


class Tracer:
    """In-memory span store plus per-step counters, shared by every thread
    that steps a controller; one lock serializes each step's commit."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._step_ids = itertools.count()
        # one row per span
        self.span_step = array("q")
        self.span_name = array("b")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        # one row per step
        self.n_seen = array("q")
        self.observe_s = array("d")
        self.threshold_s = array("d")  # NaN where no threshold was queried
        self.sets = array("q")
        self.inserts = array("q")
        self.deletes = array("q")
        self.admissible = array("q")
        self.scanned = array("q")
        self.sentinels = 0
        self.thresholds = 0

    def commit(self, root_start, root_end, spans, n_seen, counts, threshold) -> None:
        """Store one step: its root span, its layer spans (name ID, start,
        end) and its counters."""
        with self._lock:
            step = next(self._step_ids)
            root = len(self.span_step)
            self._add(step, 0, -1, root_start, root_end)
            for name, start, end in spans:
                self._add(step, name, root, start, end)
            observe = threshold_t = float("nan")
            for name, start, end in spans:
                if name == _OBSERVE:
                    observe = end - start
                elif name == _THRESHOLD:
                    threshold_t = end - start
            self.n_seen.append(n_seen)
            self.observe_s.append(observe)
            self.threshold_s.append(threshold_t)
            sets, inserts, deletes, admissible, scanned = counts
            self.sets.append(sets)
            self.inserts.append(inserts)
            self.deletes.append(deletes)
            self.admissible.append(admissible)
            self.scanned.append(scanned)
            if threshold is not None:
                self.thresholds += 1
                self.sentinels += threshold in (BELOW_ALL, ABOVE_ALL)

    def _add(self, step, name, parent, start, end) -> None:
        self.span_step.append(step)
        self.span_name.append(name)
        self.span_parent.append(parent)
        self.span_start.append(start)
        self.span_end.append(end)

    @property
    def steps(self) -> int:
        return len(self.n_seen)

    def _durations(self, step_scale: np.ndarray) -> np.ndarray:
        """Span durations, each times its step's machine-speed factor."""
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        return dur * step_scale[np.frombuffer(self.span_step, dtype=np.int64)]

    def self_times(self, step_scale: np.ndarray) -> dict[str, float]:
        """Total self time in seconds per span name: a span's duration minus
        the part of it its child spans cover (layer spans have no children)."""
        names = np.frombuffer(self.span_name, dtype=np.int8)
        parents = np.frombuffer(self.span_parent, dtype=np.int64)
        dur = self._durations(step_scale)
        own = dur.copy()
        children = parents >= 0
        np.subtract.at(own, parents[children], dur[children])
        return {name: float(own[names == i].sum()) for i, name in enumerate(SPAN_NAMES)}

    def step_seconds(self, step_scale: np.ndarray) -> float:
        """Summed duration of the root spans."""
        names = np.frombuffer(self.span_name, dtype=np.int8)
        return float(self._durations(step_scale)[names == 0].sum())

    def scaling(self, durations: array, step_scale: np.ndarray) -> tuple[list[float], float]:
        """Median of a per-step duration in each decile of N (the records
        held before the step), and the log-log slope of those medians
        against N. NaN durations (layer not called) are skipped; an empty
        decile reads 0."""
        n = np.frombuffer(self.n_seen, dtype=np.int64).astype(np.float64)
        d = np.frombuffer(durations) * step_scale
        medians = [0.0] * 10
        if not len(n):
            return medians, 0.0
        edges = np.linspace(0.0, n.max() + 1.0, 11)
        decile = np.clip(np.searchsorted(edges, n, side="right") - 1, 0, 9)
        xs, ys = [], []
        for k in range(10):
            sel = (decile == k) & ~np.isnan(d)
            if sel.any():
                medians[k] = float(np.median(d[sel]))
                xs.append(float(n[sel].mean()) + 1.0)
                ys.append(medians[k])
        if len(xs) < 2:
            return medians, 0.0
        return medians, float(np.polyfit(np.log(xs), np.log(ys), 1)[0])

    def write_csv(self, path, header_lines=()) -> None:
        """One row per span; times in microseconds from the first span."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with open(path, "w") as fh:
            for line in header_lines:
                fh.write(f"# {line}\n")
            fh.write("step,span,parent,name,start_us,end_us\n")
            for i in range(len(self.span_step)):
                fh.write(
                    f"{self.span_step[i]},{i},{self.span_parent[i]},"
                    f"{SPAN_NAMES[self.span_name[i]]},"
                    f"{(self.span_start[i] - t0) * 1e6:.3f},"
                    f"{(self.span_end[i] - t0) * 1e6:.3f}\n"
                )


def traced_step(ctrl, sample, tracer: Tracer) -> StepResult:
    """``ctrl.step(sample)`` through its public pieces, in ``step()``'s order,
    with a span around each layer call. Returns the same StepResult fields;
    ``elapsed_s`` is the root span's duration."""
    n_seen = ctrl.n_seen
    evicted = (
        ctrl.records[0] if ctrl.window is not None and n_seen >= ctrl.window else None
    )
    spans = []
    root_start = perf_counter()
    t0 = perf_counter()
    universe = ctrl.build_universe(sample.probs)
    t1 = perf_counter()
    spans.append((_UNIVERSE, t0, t1))
    t0 = perf_counter()
    record = ctrl.build_record(sample, universe)
    t1 = perf_counter()
    spans.append((_RECORD, t0, t1))
    prediction = threshold = None
    if n_seen > ctrl.burn_in:
        t0 = perf_counter()
        threshold = ctrl.threshold()
        t1 = perf_counter()
        spans.append((_THRESHOLD, t0, t1))
        t0 = perf_counter()
        values = ctrl.proxy_values(universe, sample.probs)
        t1 = perf_counter()
        spans.append((_PROXY, t0, t1))
        t0 = perf_counter()
        prediction = select_max_value(universe.sets, record.proxy_costs, values, threshold)
        t1 = perf_counter()
        spans.append((_SELECT, t0, t1))
    t0 = perf_counter()
    ctrl.observe_record(record)
    t1 = perf_counter()
    spans.append((_OBSERVE, t0, t1))
    value = cost = None
    if prediction is not None:
        t0 = perf_counter()
        value = ctrl.value_spec.evaluate(prediction, sample.labels)
        cost = ctrl.cost_spec.evaluate(prediction, sample.labels)
        t1 = perf_counter()
        spans.append((_EVALUATE, t0, t1))
    root_end = perf_counter()

    expected = ctrl.mode == "expected"
    inserts = len(record.mass_pairs()) if expected else 1
    deletes = 0
    if evicted is not None:
        deletes = len(evicted.mass_pairs()) if expected else 1
    admissible = 0
    if threshold is not None:
        admissible = int(np.count_nonzero(record.proxy_costs < threshold))
    scanned = len(universe) if threshold is not None else 0
    counts = (len(universe), inserts, deletes, admissible, scanned)
    tracer.commit(root_start, root_end, spans, n_seen, counts, threshold)
    return StepResult(prediction, threshold, value, cost, root_end - root_start)


class ProxyCallCounter:
    """Counts ``SetFunctionSpec.proxy`` calls while installed. Used in the
    traced process only: the wrapper adds a call per proxy evaluation."""

    def __init__(self) -> None:
        self.calls = 0
        self._counter = itertools.count()
        self._original = None

    def __enter__(self):
        self._original = original = SetFunctionSpec.proxy
        counter = self._counter

        def counted(spec, s, probs):
            next(counter)  # atomic under the interpreter lock
            return original(spec, s, probs)

        SetFunctionSpec.proxy = counted
        return self

    def __exit__(self, *exc) -> None:
        SetFunctionSpec.proxy = self._original
        self.calls = next(self._counter)
