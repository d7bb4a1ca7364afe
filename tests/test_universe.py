"""Universe construction: orderings, nesting, cross-variant agreement."""

import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from costcap.set_functions import SetFunctionSpec
from costcap.universe import (
    build_universe,
    full_universe,
    greedy_prob,
    greedy_ratio_additive,
    greedy_ratio_general,
    greedy_value,
    subset_sums,
)

from .oracles import (
    additive_margins,
    greedy_ratio_order,
    greedy_ratio_sets,
    mask_scorer,
    two_doubling_full_universe,
)

probs_strategy = st.lists(
    st.floats(min_value=0.001, max_value=0.999, allow_nan=False),
    min_size=1,
    max_size=12,
).map(lambda xs: np.array(xs))


def test_full_universe_small():
    spec = SetFunctionSpec("fp", 2)
    seq = full_universe(np.array([0.6, 0.3]), spec)
    assert len(seq) == 4
    assert seq.sets[0] == 0


def test_full_universe_sorted_matches_enumeration_oracle():
    rng = random.Random(10)
    spec = SetFunctionSpec("fp", 3)
    probs = np.array([rng.random() for _ in range(3)])
    seq = full_universe(probs, spec)
    oracle = sorted(range(8), key=lambda m: (spec.proxy(m, probs), m))
    assert list(seq.sets) == oracle


def test_full_universe_size_guard():
    spec = SetFunctionSpec("fp", 21)
    with pytest.raises(ValueError):
        full_universe(np.full(21, 0.5), spec)


def test_greedy_prob_order():
    probs = np.array([0.2, 0.9, 0.5])
    assert greedy_prob(probs) == [1, 2, 0]
    seq = build_universe("prob", probs, SetFunctionSpec("tp", 3), SetFunctionSpec("fp", 3))
    assert seq.order == [1, 2, 0]
    assert seq.sets == [0, 0b010, 0b110, 0b111]


def test_greedy_prob_tie_by_index():
    assert greedy_prob(np.array([0.5, 0.5, 0.7])) == [2, 0, 1]


@settings(max_examples=100, deadline=None)
@given(probs_strategy)
def test_greedy_prob_matches_sort_oracle(probs):
    oracle = sorted(range(len(probs)), key=lambda k: (-probs[k], k))
    assert greedy_prob(probs) == greedy_prob(probs.tolist()) == oracle


def test_greedy_value_uniform_reduces_to_prob():
    probs = np.array([0.3, 0.8, 0.1, 0.55])
    assert greedy_value(probs, np.ones(4)) == greedy_prob(probs)


def test_greedy_value_weighted():
    assert greedy_value(np.array([0.9, 0.6]), np.array([1.0, 10.0])) == [1, 0]  # 6.0 beats 0.9


def test_greedy_value_length_mismatch():
    with pytest.raises(ValueError):
        greedy_value(np.array([0.5]), np.array([1.0, 2.0]))


@settings(max_examples=100, deadline=None)
@given(probs_strategy, st.data())
def test_greedy_value_matches_sort_oracle(probs, data):
    values = np.array(
        data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                min_size=len(probs),
                max_size=len(probs),
            )
        )
    )
    oracle = sorted(range(len(probs)), key=lambda k: (-(probs[k] * values[k]), k))
    assert greedy_value(probs, values) == greedy_value(probs.tolist(), values.tolist()) == oracle


def test_greedy_ratio_additive_arithmetic():
    probs = np.array([0.9, 0.6])
    values = np.array([1.0, 10.0])
    costs = 1.0 - probs
    assert greedy_ratio_additive(probs, values, costs) == [1, 0]  # ratios 9 vs 15


def test_greedy_ratio_equal_ratios_index_order():
    probs = np.array([0.4, 0.8, 0.2])
    costs = 1.0 - probs
    values = costs / probs  # all ratios exactly 1
    assert greedy_ratio_additive(probs, values, costs) == [0, 1, 2]


def test_greedy_ratio_zero_cost_goes_first_by_value():
    probs = np.array([0.5, 0.9, 0.8])
    values = np.array([2.0, 1.0, 5.0])
    costs = np.array([0.3, 0.0, 0.0])
    # classes 1, 2 are free: descending gain 4.0 > 0.9, then the paid one
    assert greedy_ratio_additive(probs, values, costs) == [2, 1, 0]


def test_nested_chain_shape():
    probs = np.array([0.7, 0.2, 0.9, 0.4])
    value_spec = SetFunctionSpec("tpc", 4, np.arange(1.0, 5.0))
    for kind in ("prob", "value", "ratio"):
        seq = build_universe(kind, probs, value_spec, SetFunctionSpec("fp", 4))
        assert seq.sets[0] == 0
        assert len(seq.sets) == 5
        for a, b in zip(seq.sets, seq.sets[1:]):
            assert a & b == a and b.bit_count() == a.bit_count() + 1


@pytest.mark.parametrize("k", [1, 10, 63, 64])
def test_chain_masks_match_python_int_fold(k):
    order = np.random.default_rng(k).permutation(k).tolist()
    # distinct probabilities, descending along the order
    probs = np.empty(k)
    probs[order] = np.linspace(1.0, 0.0, k) if k > 1 else 0.5
    seq = build_universe("prob", probs, SetFunctionSpec("tp", k), SetFunctionSpec("fp", k))
    fold = [0]
    for cls in order:
        fold.append(fold[-1] | (1 << cls))
    assert all(type(s) is int for s in seq.sets) and all(type(c) is int for c in seq.order)
    assert seq.sets == fold
    assert seq.order == order
    if k == 64:
        assert seq.sets[-1] == (1 << 64) - 1  # bit 63 included


@pytest.mark.parametrize("k", [1, 4, 10])
def test_subset_sums_equal_ascending_python_sums(k):
    margins = np.random.default_rng(k).random(k) * 7.3
    expected = [sum(margins[c] for c in range(k) if (m >> c) & 1) for m in range(1 << k)]
    # exact: entry m adds the margins of m's classes in ascending order
    assert subset_sums(margins).tolist() == [float(x) for x in expected]


def test_complex_subset_sums_are_two_real_doublings():
    rng = np.random.default_rng(5)
    margins = np.empty(9, dtype=np.complex128)
    margins.real = rng.random(9) * 3.1
    margins.imag = rng.random(9) * 0.7
    sums = subset_sums(margins)
    assert sums.dtype == np.complex128
    assert sums.real.tobytes() == subset_sums(margins.real.copy()).tobytes()
    assert sums.imag.tobytes() == subset_sums(margins.imag.copy()).tobytes()


# probabilities that tie the proxies: certain values, -0.0 and repeats
tie_probs = st.sampled_from([0.0, -0.0, 1.0, 0.5, 0.25])
some_probs = st.one_of(tie_probs, st.floats(0.0, 1.0))
# zero and repeated weights alongside arbitrary ones
some_weights = st.one_of(st.integers(0, 3).map(float), st.floats(0.0, 10.0))


@st.composite
def powerset_cases(draw):
    k = draw(st.integers(1, 12))
    if draw(st.booleans()):
        probs = [draw(some_probs)] * k
    else:
        probs = draw(st.lists(some_probs, min_size=k, max_size=k))
    kinds = draw(st.sampled_from([("tp", "fp"), ("tpc", "fp"), ("tp", "fpc"), ("tpc", "fpc")]))
    weights = [draw(st.lists(some_weights, min_size=k, max_size=k)) for _ in kinds]
    return kinds, probs, weights


def additive_spec(kind, weights):
    if kind in ("tp", "fp"):
        return SetFunctionSpec(kind, len(weights))
    return SetFunctionSpec(kind, len(weights), np.array(weights))


@settings(max_examples=300, deadline=None)
@given(powerset_cases())
@example(  # K = 20, distinct nonzero margins: the unstable sort is tried
    (
        ("tpc", "fpc"),
        [0.013 + 0.049 * i for i in range(20)],
        [[0.5 + 0.37 * i for i in range(20)], [9.0 - 0.41 * i for i in range(20)]],
    )
)
def test_full_universe_equals_two_doublings_and_a_stable_sort(case):
    # the one complex doubling and the sort that is stable only on ties
    # give the same arrays as two real doublings and a stable sort
    (value_kind, cost_kind), probs, (value_weights, cost_weights) = case
    for kind, weights in ((value_kind, value_weights), (cost_kind, cost_weights)):
        assume(kind in ("tp", "fp") or any(weights))  # all-zero weights are rejected
    value_spec = additive_spec(value_kind, value_weights)
    cost_spec = additive_spec(cost_kind, cost_weights)
    probs = np.array(probs)
    seq = full_universe(probs, cost_spec, value_spec)
    sets, costs, values = two_doubling_full_universe(probs, cost_spec, value_spec)
    assert seq.sets.dtype == np.uint64
    assert seq.sets.tobytes() == sets.tobytes()
    assert seq.proxy_costs.tobytes() == costs.tobytes()
    assert seq.proxy_values.tobytes() == values.tobytes()
    # without a value function only the costs are summed
    alone = full_universe(probs, cost_spec)
    assert alone.proxy_values is None
    assert alone.sets.tobytes() == sets.tobytes()
    assert alone.proxy_costs.tobytes() == costs.tobytes()


def test_full_universe_leaves_gen_values_to_the_controller():
    probs = np.array([0.2, 0.7, 0.4])
    seq = full_universe(probs, SetFunctionSpec("fp", 3), SetFunctionSpec("gen", 3))
    assert seq.proxy_values is None
    assert seq.proxy_costs.tobytes() == full_universe(probs, SetFunctionSpec("fp", 3)).proxy_costs.tobytes()


@settings(max_examples=100, deadline=None)
@given(probs_strategy)
def test_proxy_cost_nondecreasing_along_chain(probs):
    spec = SetFunctionSpec("fp", len(probs))
    for kind in ("prob", "ratio"):
        seq = build_universe(kind, probs, SetFunctionSpec("tp", len(probs)), spec)
        chain_costs = [spec.proxy(s, probs) for s in seq.sets]
        assert all(b >= a - 1e-12 for a, b in zip(chain_costs, chain_costs[1:]))


def test_ratio_general_single_class():
    order, values = greedy_ratio_general(1, mask_scorer(lambda s: float(s & 1)), [0.5])
    assert order == [0]
    assert values == [0.0, 1.0]


def test_ratio_general_matches_additive():
    rng = random.Random(77)
    k = 8
    w = np.arange(1.0, k + 1.0)
    value_spec = SetFunctionSpec("tpc", k, w)
    cost_spec = SetFunctionSpec("fpc", k, w)
    for _ in range(1000):
        probs = np.array([rng.uniform(0.01, 0.99) for _ in range(k)])
        additive = greedy_ratio_additive(probs, w, cost_spec.class_margins(probs))
        general, _ = greedy_ratio_general(
            k, mask_scorer(lambda s: value_spec.proxy(s, probs)), cost_spec.class_margins(probs)
        )
        assert additive == general


def test_ratio_general_per_step_argmax_oracle():
    # non-additive value: check each greedy step against brute enumeration
    rng = random.Random(5)
    k = 6
    value_spec = SetFunctionSpec("gen", k, mc_samples=60, mc_seed=3)
    cost_spec = SetFunctionSpec("fp", k)
    probs = np.array([rng.uniform(0.05, 0.95) for _ in range(k)])
    vp = lambda s: value_spec.proxy(s, probs)
    margins = additive_margins(cost_spec, probs)
    order, _ = greedy_ratio_general(k, mask_scorer(vp), cost_spec.class_margins(probs))
    mask = 0
    for step, nxt in enumerate(order):
        best = None
        best_key = None
        for cand in range(k):
            if (mask >> cand) & 1:
                continue
            dv = vp(mask | (1 << cand)) - vp(mask)
            dc = margins[cand]  # an additive cost's marginal cost
            key = (0, -dv, cand) if dc <= 0 else (1, -dv / dc, cand)
            if best_key is None or key < best_key:
                best_key, best = key, cand
        assert nxt == best, f"step {step}"
        mask |= 1 << nxt


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([("gen", "fp"), ("gen", "fpc"), ("tpc", "fp"), ("tpc", "fpc")]),
    st.integers(1, 12).flatmap(
        lambda k: st.tuples(
            # coarse values make ratios tie; p = 1 makes a free (dc = 0) class
            st.lists(
                st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0),
                min_size=k,
                max_size=k,
            ),
            # a subnormal weight's cost margin is positive, though adding it
            # to a larger summed cost changes nothing
            st.lists(st.sampled_from([0.0, 1.0, 2.0, 2.2e-311]), min_size=k, max_size=k),
        )
    ),
    st.sampled_from([1, 2, 30]),
)
# classes 1 and 3 cost nothing under fp (p = 1); 0 and 2 tie exactly
@example(("tpc", "fp"), ([0.5, 1.0, 0.5, 1.0], [2.0, 1.0, 2.0, 3.0]), 1)
# probabilities 0 give every set the same gen value, so the order follows the
# cost margins alone. Class 5's marginal cost taken as a difference of summed
# costs was 0 after the first round, which made it free and put it second
@example(("gen", "fpc"), ([0.0] * 64, [2.5] * 5 + [2.2e-311] + [2.5] * 58), 3)
def test_ratio_general_matches_per_candidate_reference(kinds, drawn, mc_samples):
    value_kind, cost_kind = kinds
    probs, weights = drawn
    assume(any(weights))  # all-zero weights are rejected
    probs = np.array(probs)
    weights = np.array(weights)
    k = len(probs)
    value_spec = SetFunctionSpec(
        value_kind, k, weights if value_kind == "tpc" else None, mc_samples=mc_samples, mc_seed=k
    )
    cost_spec = SetFunctionSpec(cost_kind, k, weights if cost_kind == "fpc" else None)
    order, _ = greedy_ratio_general(
        k, value_spec.row_proxy(probs), cost_spec.class_margins(probs.tolist())
    )
    want = greedy_ratio_order(
        k, lambda s: value_spec.proxy(s, probs), additive_margins(cost_spec, probs)
    )
    assert order == want


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 64).flatmap(
        lambda k: st.tuples(
            st.lists(st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0), min_size=k, max_size=k)
            | (st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)).map(lambda p: [p] * k),
            st.lists(st.sampled_from([0.0, 1.0, 2.5]), min_size=k, max_size=k),
        )
    ),
    st.sampled_from(["fp", "fpc"]),
    st.integers(1, 300),
    st.integers(0, 2**32 - 1),
)
@example(([0.3] * 64, [0.0] * 63 + [1.0]), "fpc", 300, 0)
@example(([0.0] * 9, [1.0] * 9), "fp", 1, 1)
@example(([1.0] * 9, [1.0] * 9), "fpc", 2, 1)
def test_gen_ratio_chain_equals_the_per_set_rounds_bit_for_bit(
    drawn, cost_kind, mc_samples, mc_seed
):
    probs, weights = drawn
    assume(any(weights))  # all-zero weights are rejected
    k = len(probs)
    probs = np.array(probs)
    value_spec = SetFunctionSpec("gen", k, mc_samples=mc_samples, mc_seed=mc_seed)
    cost_spec = SetFunctionSpec(cost_kind, k, np.array(weights) if cost_kind == "fpc" else None)
    seq = build_universe("ratio", probs, value_spec, cost_spec)
    order, sets = greedy_ratio_sets(
        k, lambda sets: value_spec.proxy_many(sets, probs), additive_margins(cost_spec, probs)
    )
    assert seq.order == [int(c) for c in order]
    assert seq.sets == [int(s) for s in sets]
    assert np.array(seq.proxy_values).tobytes() == value_spec.proxy_many(seq.sets, probs).tobytes()


def test_ratio_general_running_scores_move_by_the_winners_margins():
    # v(∅) + (v({0}) - v(∅)) is 1 + 2^-52, not v({0}) = 1.0; at 1.0 round
    # two's ratios (2 - v) / 1 and (3 - v) / 2, over the classes' cost
    # margins, would tie and class 1 would win
    v = {0: -1.234792922781735, 0b001: 1.0, 0b010: 0.0, 0b100: 0.0, 0b011: 2.0, 0b101: 3.0}
    v[0b111] = 4.0
    margins = [0.0, 1.0, 2.0]
    order, values = greedy_ratio_general(3, mask_scorer(v.__getitem__), margins)
    assert order == greedy_ratio_order(3, v.__getitem__, margins) == [0, 2, 1]
    # the chain keeps the scores its rounds computed, not the running ones
    assert values == [v[0], 1.0, 3.0, 4.0]


def test_build_universe_dispatch():
    # each kind is its ordering, priced: every family carries its proxies
    probs = np.array([0.2, 0.6, 0.9])
    vs = SetFunctionSpec("tpc", 3, np.array([1.0, 3.0, 0.5]))
    cs = SetFunctionSpec("fp", 3)
    full = build_universe("full", probs, vs, cs)
    assert full.order is None
    assert full.sets.tobytes() == full_universe(probs, cs, vs).sets.tobytes()
    cost_margins = cs.class_margins(probs)
    for kind, order in (
        ("prob", greedy_prob(probs)),
        ("value", greedy_value(probs, vs.class_values)),
        ("ratio", greedy_ratio_additive(probs, vs.class_values, cost_margins)),
    ):
        seq = build_universe(kind, probs, vs, cs)
        assert seq.order == order
        assert seq.sets == [0, *(sum(1 << c for c in order[:i]) for i in range(1, 4))]
    for seq in (full, *(build_universe(kind, probs, vs, cs) for kind in ("prob", "value", "ratio"))):
        sets = [int(m) for m in seq.sets]
        np.testing.assert_allclose(seq.proxy_costs, [cs.proxy(s, probs) for s in sets], rtol=1e-12)
        np.testing.assert_allclose(seq.proxy_values, [vs.proxy(s, probs) for s in sets], rtol=1e-12)
    with pytest.raises(ValueError):
        build_universe("bogus", probs, vs, cs)


def test_build_universe_ratio_with_gen_value():
    probs = np.array([0.3, 0.7, 0.5, 0.9])
    vs = SetFunctionSpec("gen", 4, mc_samples=50, mc_seed=1)
    cs = SetFunctionSpec("fp", 4)
    seq = build_universe("ratio", probs, vs, cs)
    assert seq.sets[0] == 0 and len(seq.sets) == 5
    # the general ratio chain carries the values its rounds scored; the
    # prob and value chains leave a gen value to the controller
    assert np.array(seq.proxy_values).tobytes() == vs.proxy_many(seq.sets, probs).tobytes()
    for kind in ("prob", "value"):
        assert build_universe(kind, probs, vs, cs).proxy_values is None
