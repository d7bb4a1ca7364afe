"""Controller: records, thresholds vs direct search, prediction, ClassWise."""

import dataclasses
import math
import random
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import costcap.controller as controller
from costcap.controller import (
    CostController,
    RecordStore,
    SampleRecord,
    classwise_predict,
    classwise_thresholds,
    oracle_threshold_expected,
    oracle_threshold_violation,
    select_max_value,
    threshold_comparison,
)
from costcap.quantile_tree import ABOVE_ALL, BELOW_ALL, EmptyDistributionError
from costcap.set_functions import Sample, SetFunctionSpec, full_set
from costcap.synth import GeneratorConfig, generate, mnist_weights
from costcap.universe import (
    FULL_UNIVERSE_MAX_CLASSES,
    UniverseSeq,
    build_universe,
    full_universe,
    greedy_ratio_additive,
    subset_sums,
)

from .oracles import (
    chain_margin_record,
    cplus_at,
    first_exceed_threshold,
    label_margin_record,
    list_threshold_expected,
    list_threshold_violation,
    max_cost_curve,
    numpy_chain,
    store_of,
)


def chain_universe(sets, order):
    """Hand-built chain in the universe's list format."""
    return UniverseSeq(list(sets), list(order))


def two_set_universe():
    return chain_universe([0, 1], [0])


def make_record(rng, m=4, cost_scale=100.0):
    """Random chain record: sorted positive proxies, running-max costs."""
    proxies = np.concatenate(([0.0], np.sort(rng.uniform(0.1, 99.0, size=m - 1))))
    costs = np.concatenate(([0.0], rng.uniform(0.0, cost_scale, size=m - 1)))
    return SampleRecord(proxies, np.maximum.accumulate(costs))


def controller_for_records(mode, target, records, k=None, **kwargs):
    """A chain controller of K = the records' width - 1 (``k`` when there
    are no records; 4 if that is None too) fed ``records``."""
    if k is None:
        k = len(records[0].proxy_costs) - 1 if records else 4
    ctrl = CostController(
        mode,
        target,
        SetFunctionSpec("tp", k),
        SetFunctionSpec("fp", k),
        burn_in=0,
        **kwargs,
    )
    for rec in records:
        ctrl.observe_record(rec)
    return ctrl


# ----------------------------------------------------------------------
# record construction


def test_max_cost_curve_two_sets():
    sample = Sample(np.array([0.7]), labels=0)
    universe = two_set_universe()
    rec = max_cost_curve(
        universe, sample, lambda s, y: float(s & 1), lambda s, p: 0.3 * (s & 1)
    )
    assert list(rec.proxy_costs) == [0.0, 0.3]
    assert list(rec.max_costs) == [0.0, 1.0]
    assert rec.mass_pairs() == [(0.3, 1.0)]


def test_max_cost_curve_zero_cost_chain_contributes_nothing():
    sample = Sample(np.array([0.5, 0.5]), labels=0b11)
    spec = SetFunctionSpec("fp", 2)
    universe = build_universe("prob", sample.probs, SetFunctionSpec("tp", 2), spec)
    rec = max_cost_curve(universe, sample, spec.evaluate, spec.proxy)
    assert rec.mass_pairs() == []


def test_max_cost_curve_rejects_unsorted():
    sample = Sample(np.array([0.5]), labels=0)
    universe = two_set_universe()
    with pytest.raises(ValueError):
        max_cost_curve(universe, sample, lambda s, y: 0.0, lambda s, p: -0.5 * (s & 1))
    bad_empty = chain_universe([1, 0], [0])
    with pytest.raises(ValueError):
        max_cost_curve(bad_empty, sample, lambda s, y: 0.0, lambda s, p: 0.0)


@pytest.mark.parametrize("kind", ["fp", "fpc"])
def test_powerset_record_matches_per_set_reference(kind):
    # coarse probabilities and integer weights make many sets tie in proxy
    rng = np.random.default_rng(11)
    for k in range(1, 9):
        weights = rng.integers(1, 4, size=k).astype(float) if kind == "fpc" else None
        spec = SetFunctionSpec(kind, k, weights)
        ctrl = CostController(
            "expected", 20.0, SetFunctionSpec("tp", k), spec, universe_kind="full"
        )
        for _ in range(20):
            sample = Sample(np.round(rng.uniform(0.0, 1.0, k), 1), int(rng.integers(0, 1 << k)))
            universe = ctrl.build_universe(sample.probs)
            rec = ctrl.build_record(sample, universe)
            assert np.all(np.diff(rec.proxy_costs) >= 0.0)
            ref = max_cost_curve(universe, sample, spec.evaluate, spec.proxy)
            np.testing.assert_allclose(rec.proxy_costs, ref.proxy_costs, rtol=0, atol=1e-9)
            np.testing.assert_allclose(rec.max_costs, ref.max_costs, rtol=0, atol=1e-9)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(["expected", "violation"]),
    st.sampled_from(["fp", "fpc"]),
    st.integers(1, 12).flatmap(
        lambda k: st.tuples(
            st.lists(
                st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                min_size=k,
                max_size=k,
            ),
            st.lists(st.integers(0, 3).map(float), min_size=k, max_size=k),
            st.one_of(st.just(0), st.just((1 << k) - 1), st.integers(0, (1 << k) - 1)),
        )
    ),
)
@example(
    "violation",
    "fpc",
    (
        [0.0, 1.0, 0.5, 0.25, 1.0, 0.0, 0.1, 0.9, 0.3, 0.7] * 2,
        [0.0, 2.0, 1.0, 0.0, 3.0, 1.0, 0.0, 2.0, 2.0, 1.0] * 2,
        0b1011_0010_1110_0101_1001,
    ),
)
def test_powerset_record_equals_label_margin_reference(mode, cost_kind, drawn):
    # the cost table read at S & ~labels equals summing the labels' margins
    probs, weights, labels = drawn
    k = len(probs)
    if cost_kind == "fpc":
        assume(any(weights))  # all-zero weights are rejected by SetFunctionSpec
        weights = np.array(weights)
    else:
        weights = None
    cost_spec = SetFunctionSpec(cost_kind, k, weights)
    ctrl = CostController(mode, 20.0, SetFunctionSpec("tp", k), cost_spec, universe_kind="full")
    sample = Sample(np.array(probs), labels)
    universe = ctrl.build_universe(sample.probs)
    rec = ctrl.build_record(sample, universe)
    ref = label_margin_record(universe, sample, cost_spec)
    assert rec.proxy_costs.tobytes() == ref.proxy_costs.tobytes()
    assert rec.max_costs.tobytes() == ref.max_costs.tobytes()


# certain probabilities, -0.0 among them, and zero, -0.0, repeated and
# subnormal weights; a subnormal cost weight overflows a ratio to inf
chain_probs = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0))
chain_weights = st.sampled_from([0.0, -0.0, 1.0, 2.5, 0.1, 3.7, 2.2e-311, 5e-324])


@st.composite
def chain_cases(draw):
    k = draw(st.integers(1, 64))
    if draw(st.booleans()):
        probs = [draw(chain_probs)] * k
    else:
        probs = draw(st.lists(chain_probs, min_size=k, max_size=k))
    universe_kind = draw(st.sampled_from(["prob", "value", "ratio"]))
    # gen on the ratio chain is the general ratio chain
    value_kind = draw(st.sampled_from(["tp", "tpc", "gen"]))
    cost_kind = draw(st.sampled_from(["fp", "fpc"]))
    weights = {kind: draw(st.lists(chain_weights, min_size=k, max_size=k)) for kind in ("tpc", "fpc")}
    labels = draw(st.one_of(st.just(0), st.just((1 << k) - 1), st.integers(0, (1 << k) - 1)))
    return universe_kind, value_kind, cost_kind, probs, weights, labels


def hexes(xs) -> list[str]:
    return [float(x).hex() for x in xs]


@settings(max_examples=300, deadline=None)
@given(chain_cases())
@example((
    "ratio", "tpc", "fpc", [0.0, 1.0, -0.0, 0.5],
    {"tpc": [1.0, 0.0, 2.5, -0.0], "fpc": [-0.0, 1.0, 0.0, 1.0]}, 0b0110,
))
@example(("ratio", "gen", "fpc", [1.0] * 64, {"tpc": [1.0] * 64, "fpc": [-0.0] * 63 + [2.5]}, 0))
# p = -0.0 gives -0.0 value margins: the sums start from the first one
@example(("prob", "tp", "fp", [-0.0, -0.0], {"tpc": [1.0, 1.0], "fpc": [1.0, 1.0]}, 0b10))
@example((  # the subnormal weight's ratio overflows to inf, in both ratio chains
    "ratio", "tpc", "fpc", [0.5, 0.3, 0.7],
    {"tpc": [1.0, 2.5, 3.7], "fpc": [1.0, 2.2e-311, 1.0]}, 0b001,
))
@example((
    "ratio", "gen", "fpc", [0.5, 0.3, 0.7],
    {"tpc": [1.0, 2.5, 3.7], "fpc": [1.0, 2.2e-311, 1.0]}, 0b001,
))
# class 5's positive subnormal cost margin adds nothing to a summed cost, so
# a marginal cost taken as a difference of summed costs made it free
@example((
    "ratio", "gen", "fpc", [0.0] * 64,
    {"tpc": [1.0] * 64, "fpc": [2.5] * 5 + [2.2e-311] + [2.5] * 58}, 0,
))
def test_chain_proxies_and_record_equal_the_margin_cumsums(case):
    # a chain on Python floats equals the numpy route bit for bit from its
    # class order to its selection: sorts, cumsums of the margins along the
    # order, the record's cumsums of the labels' margins, and the argmax
    universe_kind, value_kind, cost_kind, probs, weights, labels = case
    k = len(probs)
    for kind in ("tpc", "fpc"):
        assume(kind not in (value_kind, cost_kind) or any(weights[kind]))  # all zero is rejected
    value_spec = SetFunctionSpec(
        value_kind, k, np.array(weights["tpc"]) if value_kind == "tpc" else None, mc_samples=3
    )
    cost_spec = SetFunctionSpec(cost_kind, k, np.array(weights["fpc"]) if cost_kind == "fpc" else None)
    ctrl = CostController("expected", 20.0, value_spec, cost_spec, universe_kind=universe_kind)
    sample = Sample(np.array(probs), labels)
    universe = ctrl.build_universe(sample.probs)
    record = ctrl.build_record(sample, universe)
    order, sets, ref, ref_values = numpy_chain(universe_kind, sample, value_spec, cost_spec)
    assert universe.order == order.tolist()
    assert universe.sets == sets.tolist()
    assert all(type(m) is int for m in universe.sets)
    assert hexes(universe.proxy_costs) == hexes(ref.proxy_costs)
    assert record.proxy_costs.tobytes() == ref.proxy_costs.tobytes()
    assert record.max_costs.tobytes() == ref.max_costs.tobytes()
    for stored in (record.proxy_costs, record.max_costs):
        # a record owns plain float64 arrays, no views into larger ones
        assert stored.dtype == np.float64 and stored.flags.owndata
    values = ctrl.proxy_values(universe, sample.probs)
    if ref_values is None:
        # gen: the general ratio chain keeps its rounds' scores, the other
        # chains leave the scoring to the controller; both equal proxy_many
        assert (universe.proxy_values is None) == (universe_kind != "ratio")
        ref_values = value_spec.proxy_many(sets, sample.probs)
    else:
        assert values is universe.proxy_values
    assert hexes(values) == hexes(ref_values)
    # the selection equals searchsorted plus argmax on the numpy arrays, at
    # every stored cost, between them and at the sentinels
    costs = ref.proxy_costs
    for t in [*costs.tolist(), *(costs + 1e-9).tolist(), -0.0, BELOW_ALL, ABOVE_ALL]:
        n = int(costs.searchsorted(t))
        want = int(sets[ref_values[:n].argmax()]) if n else 0
        assert select_max_value(universe.sets, universe.proxy_costs, values, t) == want


def test_powerset_step_computes_cost_subset_sums_once(monkeypatch):
    calls = []

    def counted(margins):
        calls.append(margins)
        return subset_sums(margins)

    monkeypatch.setattr("costcap.universe.subset_sums", counted)
    monkeypatch.setattr("costcap.controller.subset_sums", counted)
    k = 6
    value_spec = SetFunctionSpec("tp", k)
    cost_spec = SetFunctionSpec("fpc", k, np.arange(1.0, k + 1.0))
    burn_in = 5
    ctrl = CostController(
        "violation", 30.0, value_spec, cost_spec, universe_kind="full", burn_in=burn_in,
    )
    # the true-cost table, built once: every mask's cost with no class present
    absent = np.array(cost_spec.class_margins(np.zeros(k)))
    assert [m.tobytes() for m in calls] == [absent.tobytes()]
    rng = np.random.default_rng(3)
    for _ in range(10):
        sample = Sample(rng.uniform(0.0, 1.0, k), int(rng.integers(0, 1 << k)))
        margins = np.array(cost_spec.class_margins(sample.probs))
        calls.clear()
        ctrl.step(sample)
        # one doubling per step, before and after burn-in: the cost margins in
        # the real parts, the value margins in the imaginary parts; the true
        # costs are looked up, never summed from the labels
        (both,) = calls
        assert both.dtype == np.complex128
        assert both.real.tobytes() == margins.tobytes()
        assert both.imag.tobytes() == np.array(value_spec.class_margins(sample.probs)).tobytes()
        sets = full_universe(sample.probs, cost_spec).sets
        assert ctrl.records[-1].proxy_costs.tobytes() == subset_sums(margins)[sets].tobytes()


def test_controller_rejects_specs_of_the_wrong_role():
    tp, fp = SetFunctionSpec("tp", 3), SetFunctionSpec("fp", 3)
    gen = SetFunctionSpec("gen", 3)
    for value_spec, cost_spec in ((tp, gen), (tp, tp), (fp, fp)):
        with pytest.raises(ValueError):
            CostController("expected", 20.0, value_spec, cost_spec)
    # a universe the controller could not build fails at construction
    too_many = FULL_UNIVERSE_MAX_CLASSES + 1
    for kind, k, match in (
        ("bogus", 3, "unknown universe kind 'bogus'"),
        ("full", too_many, f"K <= {FULL_UNIVERSE_MAX_CLASSES}, got {too_many}"),
        ("full", 30, f"K <= {FULL_UNIVERSE_MAX_CLASSES}, got 30"),
    ):
        with pytest.raises(ValueError, match=match):
            CostController(
                "expected", 20.0, SetFunctionSpec("tp", k), SetFunctionSpec("fp", k),
                universe_kind=kind,
            )
    # a window no larger than burn_in would keep n_seen <= burn_in: never a prediction
    for window, burn_in in ((5, 10), (10, 10)):
        with pytest.raises(ValueError, match="must exceed burn_in"):
            CostController("expected", 20.0, tp, fp, burn_in=burn_in, window=window)
    # and a chain controller has no true-cost table for a power set
    sample = Sample(np.full(3, 0.5), 0b101)
    with pytest.raises(ValueError, match="needs a 'full' controller"):
        CostController("expected", 20.0, tp, fp).build_record(sample, full_universe(sample.probs, fp))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["full", "prob", "value", "ratio", "ratio_general"]),
    st.sampled_from(["fp", "fpc"]),
    st.integers(1, 8).flatmap(
        lambda k: st.tuples(
            st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k),
            st.lists(st.integers(0, 3).map(float), min_size=k, max_size=k),
            st.integers(0, (1 << k) - 1),
        )
    ),
)
def test_record_proxy_costs_exactly_nondecreasing(kind, cost_kind, drawn):
    # the precondition select_max_value's prefix search relies on
    probs, weights, labels = drawn
    k = len(probs)
    if cost_kind == "fpc":
        assume(any(weights))  # all-zero weights are rejected by SetFunctionSpec
        weights = np.array(weights)
    else:
        weights = None
    if kind == "ratio_general":
        kind, value_spec = "ratio", SetFunctionSpec("gen", k, mc_samples=8)
    else:
        value_spec = SetFunctionSpec("tp", k)
    ctrl = CostController(
        "expected", 20.0, value_spec, SetFunctionSpec(cost_kind, k, weights), universe_kind=kind
    )
    sample = Sample(np.array(probs), labels)
    pc = ctrl.build_record(sample, ctrl.build_universe(sample.probs)).proxy_costs
    assert np.all(np.diff(pc) >= 0)


def test_controller_rejects_inputs_of_another_k():
    ctrl = CostController("expected", 20.0, SetFunctionSpec("tp", 10), SetFunctionSpec("fp", 10))
    with pytest.raises(ValueError, match="K = 7.*K = 10"):
        ctrl.step(Sample(np.full(7, 0.5), 0))
    with pytest.raises(ValueError, match="K >= 13.*K = 10"):
        ctrl.step(Sample(np.full(10, 0.5), 1 << 12))
    assert ctrl.n_seen == 0


def calibration_state(ctrl):
    """n_seen, the stored records and each tree's items and total weight."""
    trees = ctrl.trees
    stored = [(r.proxy_costs.tolist(), r.max_costs.tolist()) for r in ctrl.records]
    return ctrl.n_seen, stored, [list(t.items()) for t in trees], [t.total_weight() for t in trees]


@pytest.mark.parametrize("mode", ["expected", "violation"])
def test_bad_probabilities_rejected_before_any_state_changes(mode):
    k = 6
    cost_spec = SetFunctionSpec("fpc", k, np.arange(1.0, k + 1.0))
    ctrl = CostController(mode, [20.0, 40.0], SetFunctionSpec("tp", k), cost_spec, burn_in=3)
    for sample in generate(GeneratorConfig(n=20, n_classes=k, seed=5)):
        ctrl.step_all(sample)

    before = calibration_state(ctrl)
    for bad in (math.nan, 1.7, -0.1, math.inf):
        probs = np.full(k, 0.5)
        probs[k // 2] = bad
        # no labels: every predicted class costs, so a record would carry mass
        for call in (ctrl.step, ctrl.step_all, ctrl.observe, ctrl.predict):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                call(Sample(probs, 0))
        assert calibration_state(ctrl) == before


@pytest.mark.parametrize("mode", ["expected", "violation"])
def test_bad_record_rejected_before_any_state_changes(mode):
    # K = 4 chain records have 5 rows; a full window would evict on a fold
    rng = np.random.default_rng(8)
    ctrl = controller_for_records(
        mode, [20.0, 40.0], [make_record(rng, m=5) for _ in range(3)], window=3
    )
    good = make_record(rng, m=5)
    before = calibration_state(ctrl)
    for bad in (
        SampleRecord(np.array([0.0, 0.3, 0.5]), np.array([0.0, 1.0])),
        SampleRecord(np.array([0.0, 0.3, 0.5]), np.array([0.0, 1.0, 2.0])),
        SampleRecord(np.append(good.proxy_costs, 99.5), np.append(good.max_costs, 100.0)),
        SampleRecord(good.proxy_costs, good.max_costs[:4]),
        SampleRecord(good.proxy_costs[:4], good.max_costs),
    ):
        with pytest.raises(ValueError, match="running maxima.*have 5"):
            ctrl.observe_record(bad)
        assert calibration_state(ctrl) == before
    proxies, maxes = good.proxy_costs, good.max_costs
    for bad in (
        # an infinite proxy cost once reached the tree after the finite ones
        SampleRecord(np.append(proxies[:4], np.inf), maxes),
        SampleRecord(np.append(proxies[:4], np.nan), maxes),
        SampleRecord(proxies[::-1].copy(), maxes),
        SampleRecord(proxies, np.append(maxes[:4], np.nan)),  # once stored silently
        SampleRecord(proxies, np.append(maxes[:4], np.inf)),
        # a falling maximum once had its negative weight dropped
        SampleRecord(proxies, np.array([0.0, 10.0, 5.0, 5.0, 5.0])),
    ):
        with pytest.raises(ValueError, match="finite and nondecreasing"):
            ctrl.observe_record(bad)
        assert calibration_state(ctrl) == before
    for bad in (
        # the empty set costs nothing: a leading cost of 5.0 was once dropped
        # from the expected mass, and put a violation exceed point at 0.5
        SampleRecord(np.array([0.5, 1.0, 2.0, 3.0, 4.0]), np.array([5.0, 10.0, 20.0, 20.0, 30.0])),
        SampleRecord(np.append(0.5, proxies[1:]), maxes),
        SampleRecord(proxies, np.append(5.0, np.maximum(maxes[1:], 5.0))),
        SampleRecord(np.append(-np.inf, proxies[1:]), maxes),
        SampleRecord(proxies, np.append(-1.0, maxes[1:])),
    ):
        with pytest.raises(ValueError, match="leading row"):
            ctrl.observe_record(bad)
        assert calibration_state(ctrl) == before
    ctrl.observe_record(good)
    assert ctrl.n_seen == 3 and calibration_state(ctrl) != before
    # the K = 2 record of a leading (0.5, 5.0) row, on an empty controller
    empty = controller_for_records(mode, [1.0, 20.0], [], k=2)
    with pytest.raises(ValueError, match="leading row"):
        empty.observe_record(SampleRecord(np.array([0.5, 1.0, 2.0]), np.array([5.0, 10.0, 20.0])))
    assert calibration_state(empty) == (0, [], [[]] * len(empty.trees), [0.0] * len(empty.trees))


def test_record_telescoping_and_step_function():
    rng = np.random.default_rng(3)
    for _ in range(50):
        rec = make_record(rng, m=4)
        total = sum(w for _, w in rec.mass_pairs())
        assert total == pytest.approx(rec.max_costs[-1], rel=1e-12)
        for t in rng.uniform(-5.0, 105.0, size=50):
            # mass-pair reconstruction equals the inclusive running max
            rebuilt = sum(w for v, w in rec.mass_pairs() if t >= v)
            direct = max(
                (mc for pc, mc in zip(rec.proxy_costs, rec.max_costs) if pc <= t),
                default=0.0,
            )
            assert rebuilt == pytest.approx(direct, abs=1e-9)
            # and cplus_at realizes the strict-inequality variant
            strict = max(
                (mc for pc, mc in zip(rec.proxy_costs, rec.max_costs) if pc < t),
                default=0.0,
            )
            assert cplus_at(rec, t) == strict


def test_first_exceed_threshold():
    rec = SampleRecord(np.array([0.0, 0.2, 0.5]), np.array([0.0, 3.0, 8.0]))
    assert first_exceed_threshold(rec, 2.9) == 0.2
    assert first_exceed_threshold(rec, 3.0) == 0.5
    assert first_exceed_threshold(rec, 8.0) == ABOVE_ALL


# ----------------------------------------------------------------------
# observe


def test_observe_first_sample_expected():
    rec = SampleRecord(np.array([0.0, 0.3]), np.array([0.0, 1.0]))
    ctrl = controller_for_records("expected", 50.0, [rec])
    assert ctrl.n_seen == 1
    assert list(ctrl.tree.items()) == [(0.3, 1.0)]


def test_observe_violation_vacuous_chain():
    rec = SampleRecord(np.array([0.0, 0.3]), np.array([0.0, 1.0]))
    ctrl = controller_for_records("violation", 50.0, [rec])
    assert list(ctrl.tree.items()) == [(ABOVE_ALL, 1.0)]


@pytest.mark.parametrize("mode,target", [("expected", 20.0), ("violation", 30.0)])
def test_window_equals_rebuild(mode, target):
    rng = np.random.default_rng(11)
    records = [make_record(rng, m=5) for _ in range(200)]
    windowed = controller_for_records(mode, target, [], window=100)
    for i, rec in enumerate(records):
        windowed.observe_record(
            SampleRecord(rec.proxy_costs.copy(), rec.max_costs.copy())
        )
        if i >= 20:
            fresh = controller_for_records(
                mode,
                target,
                [
                    SampleRecord(r.proxy_costs.copy(), r.max_costs.copy())
                    for r in records[max(0, i - 99) : i + 1]
                ],
            )
            if i % 20 == 0:
                assert windowed.threshold() == fresh.threshold()
                assert windowed.n_seen == fresh.n_seen
    live = list(windowed.tree.items())
    rebuilt = list(
        controller_for_records(
            mode,
            target,
            [
                SampleRecord(r.proxy_costs.copy(), r.max_costs.copy())
                for r in records[-100:]
            ],
        ).tree.items()
    )
    assert live == rebuilt


# ----------------------------------------------------------------------
# thresholds


def test_threshold_expected_budget_below_worst_case():
    # (N+1)c <= C_max: nothing affordable yet, predict empty
    rec = SampleRecord(np.array([0.0, 0.3]), np.array([0.0, 1.0]))
    ctrl = controller_for_records("expected", 10.0, [rec])
    assert ctrl.threshold() == BELOW_ALL


def test_threshold_requires_observations():
    ctrl = controller_for_records("expected", 10.0, [])
    with pytest.raises(EmptyDistributionError):
        ctrl.threshold()


def test_threshold_expected_zero_mass_closed_form():
    # all chains cost-free: Eq.-14 sup is +inf once the budget covers C_max
    rec = SampleRecord(np.array([0.0, 0.3]), np.array([0.0, 0.0]))
    ctrl = controller_for_records("expected", 60.0, [rec])
    assert ctrl.threshold() == ABOVE_ALL
    low = controller_for_records("expected", 10.0, [rec])
    assert low.threshold() == BELOW_ALL


def test_threshold_expected_hand_stream_matches_direct_search():
    records = [
        SampleRecord(np.array([0.0, 10.0, 30.0]), np.array([0.0, 20.0, 50.0])),
        SampleRecord(np.array([0.0, 5.0, 25.0]), np.array([0.0, 0.0, 40.0])),
        # a last set that adds no cost carries no mass
        SampleRecord(np.array([0.0, 15.0, 15.0]), np.array([0.0, 70.0, 70.0])),
    ]
    for c in (20.0, 30.0, 40.0, 55.0, 80.0):
        ctrl = controller_for_records("expected", c, records)
        tree_t, oracle_t, status = threshold_comparison(ctrl)
        assert status in ("match", "boundary")
        if status == "match":
            assert tree_t == oracle_t


def test_threshold_expected_random_streams_match_oracle():
    rng = np.random.default_rng(42)
    boundary = 0
    for stream in range(60):
        records = []
        target = float(rng.uniform(5, 60))
        m = int(rng.integers(2, 6))
        ctrl = controller_for_records("expected", target, [], k=m - 1)
        for i in range(80):
            rec = make_record(rng, m=m)
            ctrl.observe_record(rec)
            records.append(rec)
            if i % 8 == 7:
                tree_t, oracle_t, status = threshold_comparison(ctrl)
                if status == "boundary":
                    boundary += 1
                else:
                    assert tree_t == oracle_t, f"stream {stream} step {i}"
    assert boundary <= 2  # continuous proxies: exact hits essentially never


def test_threshold_violation_small_n_sentinel():
    # delta (N+1) <= 1 admits nothing
    rec = SampleRecord(np.array([0.0, 0.3]), np.array([0.0, 99.0]))
    ctrl = controller_for_records("violation", 50.0, [rec], delta=0.1)
    assert ctrl.threshold() == BELOW_ALL


def test_threshold_violation_hand_stream_matches_direct_search():
    rng = np.random.default_rng(7)
    records = [make_record(rng, m=4) for _ in range(5)]
    for delta in (0.3, 0.5, 0.8):
        ctrl = controller_for_records("violation", 40.0, records, delta=delta)
        tree_t, oracle_t, status = threshold_comparison(ctrl)
        assert status in ("match", "boundary")


def test_threshold_violation_all_vacuous():
    recs = [
        SampleRecord(np.array([0.0, 1.0 + i]), np.array([0.0, 5.0])) for i in range(30)
    ]
    ctrl = controller_for_records("violation", 50.0, recs, delta=0.2)
    assert ctrl.threshold() == ABOVE_ALL


def test_threshold_monotone_in_target():
    rng = np.random.default_rng(13)
    records = [make_record(rng, m=5) for _ in range(50)]
    prev_exp = None
    prev_vio = None
    for c in np.linspace(5, 95, 12):
        t_exp = controller_for_records("expected", float(c), records).threshold()
        t_vio = controller_for_records(
            "violation", float(c), records, delta=0.2
        ).threshold()
        if prev_exp is not None:
            assert t_exp >= prev_exp
            assert t_vio >= prev_vio
        prev_exp, prev_vio = t_exp, t_vio
    # and nondecreasing in delta
    prev = None
    for d in (0.05, 0.1, 0.3, 0.6, 0.9):
        t = controller_for_records("violation", 30.0, records, delta=d).threshold()
        if prev is not None:
            assert t >= prev
        prev = t


# ----------------------------------------------------------------------
# prediction


def test_predict_sentinel_returns_empty():
    sets = np.array([0, 1, 3, 7], dtype=np.uint64)
    costs = np.array([0.0, 0.2, 0.5, 0.9])
    values = np.array([0.0, 1.0, 2.0, 3.0])
    assert select_max_value(sets, costs, values, BELOW_ALL) == 0


def test_predict_strict_inequality_on_chain():
    sets = np.array([0, 1, 3, 7], dtype=np.uint64)
    costs = np.array([0.0, 0.2, 0.5, 0.9])
    values = np.array([0.0, 1.0, 2.0, 3.0])
    assert select_max_value(sets, costs, values, 0.5) == 1  # 0.5 excluded
    assert select_max_value(sets, costs, values, 0.51) == 3


def test_predict_full_universe_matches_exhaustive_argmax():
    rng = np.random.default_rng(23)
    k = 3
    sets = tuple(range(8))
    inputs = []
    for _ in range(100):
        costs = np.concatenate(([0.0], np.sort(rng.uniform(0, 1, 7))))
        inputs.append((costs, rng.uniform(0, 10, 8), float(rng.uniform(0, 1.2))))
    # tied values and repeated costs, thresholds on the cost grid too
    for _ in range(200):
        costs = np.concatenate(([0.0], np.sort(rng.integers(0, 4, 7) / 4.0)))
        values = rng.integers(0, 3, 8).astype(float)
        inputs.append((costs, values, float(rng.choice([0.0, 0.25, 0.5, 0.6, 1.0, 1.1]))))
    for costs, values, t in inputs:
        got = select_max_value(sets, costs, values, t)
        admissible = [i for i in range(8) if costs[i] < t]
        want = max(admissible, key=lambda i: (values[i], -costs[i]), default=0)
        assert got == sets[want]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda n: st.tuples(
            # tied costs and values, -0.0 among them
            st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]), min_size=n, max_size=n),
            st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0]) | st.floats(-5.0, 5.0), min_size=n, max_size=n),
        )
    )
)
def test_select_max_value_same_set_for_lists_and_arrays(drawn):
    # a chain selects on lists, a power set on arrays, and a tracer passes a
    # record's array costs with its chain's list values: all pick the same set
    costs, values = drawn
    costs.sort()
    n = len(costs)
    sets = list(range(10, 10 + n))
    # a list, not a set: a set would keep only one of 0.0 and -0.0
    for t in [*costs, -0.0, 0.0, 0.1, 0.3, 0.75, 2.0, BELOW_ALL, ABOVE_ALL]:
        admissible = [i for i in range(n) if costs[i] < t]
        # max keeps the first of equal values
        want = sets[max(admissible, key=values.__getitem__)] if admissible else 0
        for s in (sets, np.array(sets, dtype=np.uint64)):
            for c in (costs, np.array(costs)):
                for v in (values, np.array(values)):
                    got = select_max_value(s, c, v, t)
                    assert type(got) is int and got == want, (t, type(s), type(c), type(v))


@pytest.mark.parametrize("value_kind", ["tp", "gen"])
def test_subnormal_cost_weight_overflows_the_ratio_without_a_warning(value_kind):
    # a valid weight of 2.2e-311 makes class 1's marginal cost subnormal, and
    # its ratio overflows to inf in the additive and in the general chain;
    # the additive order called on arrays overflows silently too
    cost_spec = SetFunctionSpec("fpc", 3, np.array([1.0, 2.2e-311, 1.0]))
    value_spec = SetFunctionSpec(value_kind, 3, mc_samples=20)
    ctrl = CostController("expected", 20.0, value_spec, cost_spec, burn_in=2)
    probs = np.array([0.5, 0.9, 0.7])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for labels in (0b000, 0b010, 0b111, 0b101):
            ctrl.step(Sample(probs, labels))
        assert ctrl.build_universe(probs).order[0] == 1
        ones = np.array([1.0, 1.0])
        assert greedy_ratio_additive(np.array([0.5, 0.9]), ones, np.array([0.5, 2e-309])) == [1, 0]


def test_predict_none_during_burn_in():
    ctrl = CostController(
        "expected",
        20.0,
        SetFunctionSpec("tp", 2),
        SetFunctionSpec("fp", 2),
        burn_in=5,
    )
    sample = Sample(np.array([0.6, 0.4]), labels=0b01)
    for _ in range(5):
        assert ctrl.predict(sample) is None
        ctrl.observe(sample)
    assert ctrl.predict(sample) is None  # n_seen == burn_in is still burn-in
    ctrl.observe(sample)
    assert ctrl.predict(sample) is not None


@pytest.mark.parametrize("mode", ["expected", "violation"])
@pytest.mark.parametrize("kind", ["ratio", "full"])
def test_predict_reads_only_probabilities_and_changes_no_state(mode, kind):
    # a twin that never predicts steps to the same results, so predicting
    # left nothing behind; labels with a bit at or above K once raised
    k = 2
    specs = (SetFunctionSpec("tp", k), SetFunctionSpec("fp", k))
    kwargs = dict(universe_kind=kind, burn_in=3, window=8, delta=0.25)
    ctrl = CostController(mode, [20.0, 60.0], *specs, **kwargs)
    twin = CostController(mode, [20.0, 60.0], *specs, **kwargs)
    predicted = 0
    for sample in generate(GeneratorConfig(n=30, n_classes=k, seed=12)):
        before = calibration_state(ctrl)
        want = ctrl.predict(Sample(sample.probs, 0))
        for labels in (sample.labels, 0b11, 0b100, 1 << 63, (1 << 70) | 0b01):
            assert ctrl.predict(Sample(sample.probs, labels)) == want
        assert calibration_state(ctrl) == before
        predicted += want is not None
        got = ctrl.step_all(sample)
        assert [dataclasses.replace(out, elapsed_s=0.0) for out in got] == [
            dataclasses.replace(out, elapsed_s=0.0) for out in twin.step_all(sample)
        ]
        assert want == got[0].prediction
    assert predicted == 30 - 4


def test_step_is_the_first_result_of_step_all():
    # two targets: step() evaluates every target as step_all() does and
    # reports the per-target share of the step's time
    k = 4
    stream = generate(GeneratorConfig(n=80, n_classes=k, heterogeneity=1.0, seed=6))
    specs = (SetFunctionSpec("tpc", k, mnist_weights(k)), SetFunctionSpec("fpc", k, mnist_weights(k)))
    for mode in ("expected", "violation"):
        kwargs = dict(burn_in=5, window=30, delta=0.2)
        one = CostController(mode, [40.0, 10.0], *specs, **kwargs)
        every = CostController(mode, [40.0, 10.0], *specs, **kwargs)
        for sample in stream:
            got, want = one.step(sample), every.step_all(sample)[0]
            assert dataclasses.replace(got, elapsed_s=0.0) == dataclasses.replace(
                want, elapsed_s=0.0
            )
        assert got.prediction is not None
        with mock.patch.object(controller, "perf_counter", side_effect=[1.0, 4.0]):
            assert one.step(stream[0]).elapsed_s == 1.5


def test_step_reports_realized_metrics():
    ctrl = CostController(
        "expected",
        90.0,
        SetFunctionSpec("tp", 2),
        SetFunctionSpec("fp", 2),
        burn_in=1,
    )
    s1 = Sample(np.array([0.9, 0.8]), labels=0b11)
    out1 = ctrl.step(s1)
    assert out1.prediction is None and ctrl.n_seen == 1
    assert ctrl.step(s1).prediction is None  # n_seen == burn_in
    s2 = Sample(np.array([0.9, 0.8]), labels=0b01)
    out2 = ctrl.step(s2)
    assert out2.prediction is not None
    assert out2.realized_cost == pytest.approx(
        SetFunctionSpec("fp", 2).evaluate(out2.prediction, s2.labels)
    )
    assert out2.elapsed_s >= 0.0


def test_step_full_universe_matches_exhaustive_selection():
    rng = np.random.default_rng(41)
    k = 3
    value_spec = SetFunctionSpec("tp", k)
    cost_spec = SetFunctionSpec("fp", k)
    ctrl = CostController(
        "expected", 40.0, value_spec, cost_spec, universe_kind="full", burn_in=3
    )
    for i in range(40):
        probs = rng.uniform(0.05, 0.95, size=k)
        y = int(rng.integers(0, 1 << k))
        sample = Sample(probs, y)
        pred = ctrl.predict(sample)
        if pred is not None:
            t = ctrl.threshold()
            admissible = [
                s for s in range(1 << k) if cost_spec.proxy(s, probs) < t
            ] or [0]
            want = max(
                admissible,
                key=lambda s: (value_spec.proxy(s, probs), -cost_spec.proxy(s, probs)),
            )
            assert pred == want
        ctrl.observe(sample)


def test_step_with_nonadditive_value_runs():
    rng = np.random.default_rng(43)
    k = 6
    ctrl = CostController(
        "violation",
        30.0,
        SetFunctionSpec("gen", k, mc_samples=40, mc_seed=1),
        SetFunctionSpec("fp", k),
        universe_kind="ratio",
        burn_in=5,
        delta=0.2,
    )
    predictions = 0
    for _ in range(30):
        probs = rng.uniform(0.05, 0.95, size=k)
        out = ctrl.step(Sample(probs, int(rng.integers(0, 1 << k))))
        predictions += out.prediction is not None
    assert predictions == 24
    assert ctrl.n_seen == 30


@pytest.mark.parametrize("kind", ["ratio", "full"])
def test_step_prediction_is_python_int(kind):
    rng = np.random.default_rng(5)
    k = 6
    ctrl = CostController(
        "expected", 60.0, SetFunctionSpec("tp", k), SetFunctionSpec("fp", k),
        universe_kind=kind, burn_in=2,
    )
    outs = [ctrl.step(Sample(rng.uniform(0.05, 0.95, k), int(rng.integers(0, 1 << k)))) for _ in range(20)]
    preds = [out.prediction for out in outs[3:]]
    assert all(type(p) is int for p in preds)
    assert any(preds)


# ----------------------------------------------------------------------
# one controller, several targets


MULTI_TARGETS = [30.0, 5.0, 20.0, 20.0, 45.0]


@pytest.mark.parametrize("mode", ["expected", "violation"])
@pytest.mark.parametrize("kind", ["ratio", "full"])
def test_multi_target_controller_equals_single_target_controllers(mode, kind):
    # one calibration pass for T targets must reproduce T separate
    # controllers at every step, evictions included, and the direct search
    k = 5
    stream = generate(GeneratorConfig(n=260, n_classes=k, heterogeneity=1.0, seed=17))
    value_spec = SetFunctionSpec("tpc", k, mnist_weights(k))
    cost_spec = SetFunctionSpec("fpc", k, mnist_weights(k))
    kwargs = dict(universe_kind=kind, burn_in=20, window=60, delta=0.2)
    multi = CostController(mode, MULTI_TARGETS, value_spec, cost_spec, **kwargs)
    singles = [CostController(mode, c, value_spec, cost_spec, **kwargs) for c in MULTI_TARGETS]
    assert len(multi.trees) == (1 if mode == "expected" else len(MULTI_TARGETS))
    checked = 0
    for i, sample in enumerate(stream):
        outs = multi.step_all(sample)
        assert len(outs) == len(MULTI_TARGETS)
        for out, single in zip(outs, singles):
            want = single.step(sample)
            assert (out.prediction, out.threshold) == (want.prediction, want.threshold)
            assert (out.realized_value, out.realized_cost) == (
                want.realized_value, want.realized_cost
            )
        assert [multi.threshold(j) for j in range(len(singles))] == [
            single.threshold() for single in singles
        ]
        if i % 26 == 25:
            for j, (c, single) in enumerate(zip(MULTI_TARGETS, singles)):
                tree_t, oracle_t, status = threshold_comparison(single)
                assert status in ("match", "boundary")
                assert threshold_comparison(multi, j) == (tree_t, oracle_t, status)
                assert multi.threshold(j) == tree_t
                if mode == "expected":
                    oracle = oracle_threshold_expected(multi.records, c, multi.cost_max)
                    listed = list_threshold_expected(list(multi.records), c, multi.cost_max)
                else:
                    oracle = oracle_threshold_violation(multi.records, c, multi.delta)
                    listed = list_threshold_violation(list(multi.records), c, multi.delta)
                assert oracle == oracle_t == listed
                checked += status == "match" and multi.threshold(j) == oracle
            if mode == "violation":
                # each tree holds one unit at each live record's exceed point
                for tree, c in zip(multi.trees, MULTI_TARGETS):
                    points = Counter(first_exceed_threshold(rec, c) for rec in multi.records)
                    assert dict(tree.items()) == {p: float(n) for p, n in points.items()}
    assert multi.n_seen == 60  # the window evicted
    assert checked >= 40


# probabilities that tie proxy costs, so that the stable sort runs
tie_prob = st.sampled_from([0.0, 0.25, 0.5, 1.0])


@st.composite
def powerset_samples(draw, k):
    if draw(st.booleans()):
        probs = [draw(st.one_of(tie_prob, st.floats(0.0, 1.0)))] * k
    else:
        probs = draw(st.lists(st.one_of(tie_prob, st.floats(0.0, 1.0)), min_size=k, max_size=k))
    return Sample(np.array(probs), draw(st.integers(0, (1 << k) - 1)))


class FullUniverseControllerMachine(RuleBasedStateMachine):
    """A two-target controller over a power set or any of the three chains,
    expected or violation mode, with or without a window, under any mix of
    observe and step_all (each of which evicts through the window): after
    every rule each target's tree threshold agrees with the direct search."""

    def __init__(self):
        super().__init__()
        self.ctrl = None

    @initialize(
        mode=st.sampled_from(["expected", "violation"]),
        k=st.integers(1, 6),
        weighted=st.booleans(),
        window=st.one_of(st.none(), st.integers(1, 12)),
        target_costs=st.lists(
            st.sampled_from([5.0, 20.0, 37.5, 60.0, 100.0]), min_size=2, max_size=2
        ),
        delta=st.sampled_from([0.1, 0.25, 0.5]),
        # the power set first, so that a failure shrinks towards it
        universe_kind=st.sampled_from(["full", "ratio", "prob", "value"]),
    )
    def build(self, mode, k, weighted, window, target_costs, delta, universe_kind):
        weights = mnist_weights(k) if weighted else None
        value_spec = SetFunctionSpec("tpc" if weighted else "tp", k, weights)
        cost_spec = SetFunctionSpec("fpc" if weighted else "fp", k, weights)
        self.ctrl = CostController(
            mode, target_costs, value_spec, cost_spec,
            universe_kind=universe_kind, burn_in=0, window=window, delta=delta,
        )

    @rule(data=st.data())
    def observe(self, data):
        self.ctrl.observe(data.draw(powerset_samples(self.ctrl.cost_spec.n_classes)))

    @rule(data=st.data())
    def step_all(self, data):
        ctrl = self.ctrl
        sample = data.draw(powerset_samples(ctrl.cost_spec.n_classes))
        seen = ctrl.n_seen
        universe = ctrl.build_universe(sample.probs)
        for out in ctrl.step_all(sample):
            if seen == 0:
                assert out.prediction is None
            else:
                # the prediction is admissible: its proxy cost is below the
                # threshold. A chain's sets are a list, a power set's an array
                pos = list(universe.sets).index(out.prediction)
                assert out.prediction == 0 or universe.proxy_costs[pos] < out.threshold

    @invariant()
    def trees_agree_with_direct_search(self):
        ctrl = self.ctrl
        if ctrl is None or not ctrl.n_seen:
            return
        if ctrl.window is not None:
            assert ctrl.n_seen <= ctrl.window
        for i in range(len(ctrl.targets)):
            assert threshold_comparison(ctrl, i)[2] in ("match", "boundary")


FullUniverseControllerMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None
)
test_full_universe_controller_state_machine = FullUniverseControllerMachine.TestCase


# a K = 5 stream whose window-7 mass equals the budget of the 60.0 target
EXACT_HIT_STREAM = [([0.0] * 5, 0)] * 10 + [
    ([0.0, 0.0, 0.0, 0.0, 0.5], 7), ([0.0, 0.0, 0.0, 0.0, 0.25], 9), ([0.0] * 5, 7),
    ([0.0] * 5, 14), ([0.0] * 5, 20), ([0.0] * 5, 20), ([0.0, 0.0, 0.0, 1.0, 0.0], 3),
]


def test_budget_equal_to_the_windowed_mass_matches_the_direct_search():
    # the live mass is exactly the budget (N+1)c - C_max = 380. Float sums
    # once read 379.9999999999998 after the window's evictions, so the tree's
    # level exceeded 1 (ABOVE_ALL) while the direct search's cumsum reached
    # 380 at 60.0; exact masses give 380.0 and both routes give 60.0
    k = 5
    weights = mnist_weights(k)
    ctrl = CostController(
        "expected", [5.0, 60.0], SetFunctionSpec("tpc", k, weights),
        SetFunctionSpec("fpc", k, weights), universe_kind="full", burn_in=0, window=7,
    )
    for probs, labels in EXACT_HIT_STREAM:
        ctrl.observe(Sample(np.array(probs), labels))
    assert ctrl.tree.total_weight() == 380.0
    assert threshold_comparison(ctrl, 1) == (60.0, 60.0, "match")


@settings(max_examples=60, deadline=None)
@given(
    mode=st.sampled_from(["expected", "violation"]),
    kind=st.sampled_from(["full", "ratio"]),
    window=st.integers(3, 12),
    drawn=st.integers(1, 6).flatmap(
        lambda k: st.tuples(
            st.one_of(st.none(), st.lists(st.floats(0.01, 10.0), min_size=k, max_size=k)),
            st.lists(
                st.tuples(
                    st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k),
                    st.integers(0, (1 << k) - 1),
                ),
                min_size=1,
                max_size=30,
            ),
        )
    ),
)
@example(mode="expected", kind="full", window=7, drawn=(None, EXACT_HIT_STREAM))
def test_windowed_tree_equals_rebuilt_on_weighted_costs(mode, kind, window, drawn):
    # tpc/fpc masses are not integer-valued floats, so a float tree's sums
    # drift as a window inserts and evicts; exact masses do not: after every
    # step each windowed tree holds bit for bit what a tree rebuilt from the
    # live records holds (mnist weights when none are drawn). Blocks of 5
    # rows hold one record each, or two of 2 rows
    weights, stream = drawn
    k = len(stream[0][0])
    if weights is None:
        weights = mnist_weights(k)
    specs = (SetFunctionSpec("tpc", k, weights), SetFunctionSpec("fpc", k, weights))

    def make():
        return CostController(
            mode, [5.0, 60.0], *specs, universe_kind=kind, burn_in=0, window=window
        )

    with mock.patch.object(controller, "_RUN_BLOCK", 5):
        windowed = make()
        for probs, labels in stream:
            windowed.observe(Sample(np.array(probs), labels))
            fresh = make()
            for record in windowed.records:
                fresh.observe_record(record)
            for got, want in zip(windowed.trees, fresh.trees, strict=True):
                assert list(got.items()) == list(want.items())
                assert got.total_weight() == want.total_weight()


def test_multi_target_step_matches_step_for_the_first_target():
    k = 4
    stream = generate(GeneratorConfig(n=60, n_classes=k, heterogeneity=1.0, seed=3))
    specs = (SetFunctionSpec("tp", k), SetFunctionSpec("fp", k))
    multi = CostController("expected", [40.0, 10.0], *specs, burn_in=5)
    single = CostController("expected", 40.0, *specs, burn_in=5)
    for sample in stream:
        got, want = multi.step(sample), single.step(sample)
        assert (got.prediction, got.threshold, got.realized_cost) == (
            want.prediction, want.threshold, want.realized_cost
        )
    assert multi.target_cost == 40.0 and multi.targets == (40.0, 10.0)
    assert list(multi.tree.items()) == list(single.tree.items())


def test_multi_target_controller_rejects_bad_targets():
    specs = (SetFunctionSpec("tp", 2), SetFunctionSpec("fp", 2))
    for targets in ([], [20.0, 0.0], [20.0, 101.0]):
        with pytest.raises(ValueError):
            CostController("expected", targets, *specs)


# ----------------------------------------------------------------------
# ClassWise baseline


def make_samples(rng, n, k, base=0.4):
    out = []
    for _ in range(n):
        p = rng.uniform(0.05, 0.95, size=k)
        y = 0
        for i in range(k):
            if rng.random() < p[i]:
                y |= 1 << i
        out.append(Sample(p, y))
    return out


def test_classwise_vacuous_level_predicts_everything():
    rng = np.random.default_rng(5)
    spec = SetFunctionSpec("fp", 4)
    cal = make_samples(rng, 50, 4)
    t = classwise_thresholds(cal, 100.0, spec)  # eps = 1 per class
    probs = np.array([0.01, 0.2, 0.5, 0.99])
    assert classwise_predict(probs, t) == full_set(4)


def test_classwise_tiny_budget_predicts_nothing():
    rng = np.random.default_rng(6)
    spec = SetFunctionSpec("fp", 4)
    cal = make_samples(rng, 30, 4)
    t = classwise_thresholds(cal, 1e-6, spec)
    assert classwise_predict(np.full(4, 0.999), t) == 0


def test_classwise_rejects_bad_inputs():
    spec = SetFunctionSpec("fp", 2)
    with pytest.raises(ValueError):
        classwise_thresholds([], 5.0, spec)
    cal = [Sample(np.array([0.5, 0.5]), 0)]
    with pytest.raises(ValueError):
        classwise_thresholds(cal, 0.0, spec)


def test_classwise_matches_sorted_scan_oracle():
    rng = np.random.default_rng(17)
    k = 5
    spec = SetFunctionSpec("fp", k)
    cal = make_samples(rng, 120, k)
    c = 12.0
    got = classwise_thresholds(cal, c, spec)
    eps = c / (k * (100.0 / k))  # = c / 100
    for cls in range(k):
        scores = sorted(
            s.probs[cls] for s in cal if not (s.labels >> cls) & 1
        )
        # conformal quantile over scores + {inf}: ceil((1-eps)(n+1))-th smallest
        rank = math.ceil((1 - eps) * (len(scores) + 1))
        want = ABOVE_ALL if rank > len(scores) else scores[rank - 1]
        assert got[cls] == want


# ----------------------------------------------------------------------
# direct-search references: self-checks


def test_oracle_expected_single_sample_closed_form():
    # one sample, one jump of weight 8 at proxy 0.4, C_max = 100
    rec = SampleRecord(np.array([0.0, 0.4]), np.array([0.0, 8.0]))
    # budget = 2c - 100; threshold passes 0.4 once budget >= 8
    store = store_of([rec])
    assert oracle_threshold_expected(store, 50.0, 100.0) == 0.4  # budget 0 < 8
    assert oracle_threshold_expected(store, 54.001, 100.0) == ABOVE_ALL
    assert oracle_threshold_expected(store, 49.0, 100.0) == BELOW_ALL


@pytest.mark.parametrize("width", [1, 5])
def test_direct_searches_on_an_empty_store(width):
    # no record: the budget (0 + 1)c - C_max is negative below C_max and 0
    # at it, where every set is admissible; the violation search needs
    # (1 - δ)(0 + 1) > 0 samples within the target and has none
    store = RecordStore(width)
    assert oracle_threshold_expected(store, 50.0, 100.0) == BELOW_ALL
    assert oracle_threshold_expected(store, 100.0, 100.0) == ABOVE_ALL
    for delta in (0.05, 0.5, 0.95):
        assert oracle_threshold_violation(store, 50.0, delta) == BELOW_ALL


def test_oracle_expected_monotone_in_target():
    rng = np.random.default_rng(29)
    records = store_of([make_record(rng, m=4) for _ in range(40)])
    prev = None
    for c in np.linspace(2, 98, 25):
        t = oracle_threshold_expected(records, float(c), 100.0)
        if prev is not None:
            assert t >= prev
        prev = t


def tie_heavy_cases():
    """60 (records of one width, target, delta) cases: coarse proxies and
    costs tie across and within records; high targets and large deltas
    reach the above-all plateau; a zero target leaves only the records that
    never cost anything."""
    rng = np.random.default_rng(31)
    cases = []
    for _ in range(60):
        records = []
        m = int(rng.integers(1, 6))
        for _ in range(int(rng.integers(1, 20))):
            proxies = np.concatenate(([0.0], np.sort(rng.integers(0, 5, m - 1) / 4.0)))
            costs = np.concatenate(([0.0], rng.integers(0, 5, m - 1) * 25.0))
            records.append(SampleRecord(proxies, np.maximum.accumulate(costs)))
        target = float(rng.choice([0.0, 25.0, 60.0, 100.0]))
        cases.append((records, target, float(rng.choice([0.05, 0.2, 0.5, 0.9]))))
    return cases


def test_violation_direct_search_equals_the_list_search_on_ties():
    cases = tie_heavy_cases()
    want = [list_threshold_violation(*case) for case in cases]
    assert BELOW_ALL in want and ABOVE_ALL in want and 0.5 in want
    got = [oracle_threshold_violation(store_of(records), *rest) for records, *rest in cases]
    assert got == want


@pytest.mark.parametrize("block", [1, 7])
def test_violation_direct_search_result_does_not_depend_on_its_block(monkeypatch, block):
    # the same tie-heavy cases, stored in blocks of `block` rows, so that
    # the records fill many blocks of one record or a few
    cases = tie_heavy_cases()
    want = [oracle_threshold_violation(store_of(records), *rest) for records, *rest in cases]
    assert BELOW_ALL in want and ABOVE_ALL in want and 0.5 in want
    monkeypatch.setattr("costcap.controller._RUN_BLOCK", block)
    got = [oracle_threshold_violation(store_of(records), *rest) for records, *rest in cases]
    assert got == want


def test_oracle_violation_quantile_of_exceed_points():
    # N = 9, delta = 0.3: budget floor((N+1)*0.3 - 1) = 2 -> 3rd smallest
    recs = []
    for i in range(9):
        t_i = float(i + 1)
        recs.append(
            SampleRecord(np.array([0.0, t_i]), np.array([0.0, 60.0]))
        )
    got = oracle_threshold_violation(store_of(recs), 50.0, 0.3)
    assert got == 3.0
