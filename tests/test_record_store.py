"""RecordStore: flat record blocks against a list of SampleRecord objects."""

import tracemalloc
from collections import deque

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import costcap.controller as controller
from costcap.controller import (
    CostController,
    RecordStore,
    SampleRecord,
    oracle_threshold_expected,
    oracle_threshold_violation,
)
from costcap.set_functions import NORMALIZED_BOUND, SetFunctionSpec
from costcap.synth import GeneratorConfig, generate, mnist_weights

from .oracles import list_threshold_expected, list_threshold_violation

TARGETS = (0.0, 25.0, 60.0, 100.0)
WIDTHS = [1, 2, 3, 4, 5, 6, 1025]


@st.composite
def records(draw, m):
    """A record of ``m`` rows on a coarse grid, so that proxy costs and
    running maxima tie within and across records."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    proxies = np.cumsum(np.concatenate(([0.0], rng.integers(0, 4, m - 1) / 4.0)))
    costs = np.concatenate(([0.0], rng.integers(0, 4, m - 1) * 25.0))
    return SampleRecord(proxies, np.maximum.accumulate(costs))


def same_record(got: SampleRecord, want: SampleRecord) -> bool:
    return (
        got.proxy_costs.tobytes() == want.proxy_costs.tobytes()
        and got.max_costs.tobytes() == want.max_costs.tobytes()
    )


class RecordStoreMachine(RuleBasedStateMachine):
    """A store of records of one width (1-6 or 1025 rows) with or without a
    window beside a list of the same records: its views equal the list's
    records and both direct searches equal the list-based searches bit for
    bit. Blocks of a few rows hold one record or a few."""

    @initialize(
        width=st.sampled_from(WIDTHS),
        window=st.one_of(st.none(), st.integers(1, 40)),
        run_block=st.sampled_from([7, 64, controller._RUN_BLOCK]),
        target_costs=st.lists(st.sampled_from(TARGETS), min_size=2, max_size=2),
    )
    def build(self, width, window, run_block, target_costs):
        self.saved = controller._RUN_BLOCK
        controller._RUN_BLOCK = run_block
        self.store = RecordStore(width)
        self.listed = []
        self.window = window
        self.search_targets = sorted(set(target_costs))

    def teardown(self):
        if hasattr(self, "saved"):
            controller._RUN_BLOCK = self.saved

    @rule(data=st.data())
    def observe(self, data):
        record = data.draw(records(self.store.width))
        self.store.append(record.proxy_costs, record.max_costs)
        self.listed.append(record)
        if self.window is not None and len(self.store) > self.window:
            assert same_record(self.store.popleft(), self.listed.pop(0))

    @invariant()
    def views_equal_the_list(self):
        store = getattr(self, "store", None)
        if store is None:
            return
        assert len(store) == len(self.listed)
        assert all(same_record(got, want) for got, want in zip(store, self.listed))
        if self.listed:
            assert same_record(store[-1], self.listed[-1])
        assert store.slack() <= controller._RUN_BLOCK

    @invariant()
    def direct_searches_equal_the_list_searches(self):
        if not getattr(self, "listed", None):
            return
        for c in self.search_targets:
            got = oracle_threshold_expected(self.store, c, NORMALIZED_BOUND)
            want = list_threshold_expected(self.listed, c, NORMALIZED_BOUND)
            assert got.hex() == want.hex()
            for delta in (0.05, 0.5):
                got = oracle_threshold_violation(self.store, c, delta)
                want = list_threshold_violation(self.listed, c, delta)
                assert got.hex() == want.hex()


RecordStoreMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
test_record_store_state_machine = RecordStoreMachine.TestCase


def test_window_slack_stays_within_one_block():
    # dropped rows left in the first block plus unwritten rows in the last
    for m in WIDTHS:
        row = np.zeros(m)
        for window in (1, 7, 40):
            store = RecordStore(m)
            for _ in range(10_000 + window):
                store.append(row, row)
                if len(store) > window:
                    store.popleft()
                assert store.slack() <= controller._RUN_BLOCK
            assert len(store) == window


def test_a_window_of_power_set_records_never_moves_a_record():
    # a record is evicted from the rows it was written to
    for width, window in ((1024, 300), (64, 40)):
        store = RecordStore(width)
        stored = deque()
        for i in range(window + 2_000):
            row = np.full(width, float(i))
            store.append(row, row)
            stored.append(store[-1].proxy_costs)
            if len(store) > window:
                assert np.shares_memory(stored.popleft(), store.popleft().proxy_costs)


def test_stored_chain_records_cost_at_most_twice_their_payload():
    # 20k chain records (K = 10, 11 rows each) observed into a controller
    # with no window: what the records hold, the memory freed when the
    # controller lets go of them, is at most twice their payload, two
    # floats per row and 8 B per record for its bookkeeping
    k = 10
    n = 20_000
    weights = mnist_weights(k)
    ctrl = CostController(
        "expected", 20.0, SetFunctionSpec("tpc", k, weights), SetFunctionSpec("fp", k),
        burn_in=n,
    )
    stream = generate(GeneratorConfig(n=n, n_classes=k, heterogeneity=1.0, seed=4))
    tracemalloc.start()
    try:
        for sample in stream:
            ctrl.observe(sample)
        assert len(ctrl.records) == n
        with_records = tracemalloc.get_traced_memory()[0]
        ctrl.records = None
        held = with_records - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    payload = n * (2 * 8 * (k + 1) + 8)
    assert held <= 2 * payload, f"{held / n:.0f} B per record"
