"""Universe construction: orderings, nesting, cross-variant agreement."""

import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from costcap.set_functions import SetFunctionSpec
from costcap.universe import (
    _chain,
    build_universe,
    full_universe,
    greedy_prob,
    greedy_ratio_additive,
    greedy_ratio_general,
    greedy_value,
    subset_sums,
)

from .oracles import batched, greedy_ratio_order

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
    seq = greedy_prob(np.array([0.2, 0.9, 0.5]))
    assert seq.order.tolist() == [1, 2, 0]
    assert seq.sets.tolist() == [0, 0b010, 0b110, 0b111]


def test_greedy_prob_tie_by_index():
    seq = greedy_prob(np.array([0.5, 0.5, 0.7]))
    assert seq.order.tolist() == [2, 0, 1]


@settings(max_examples=100, deadline=None)
@given(probs_strategy)
def test_greedy_prob_matches_sort_oracle(probs):
    seq = greedy_prob(probs)
    oracle = sorted(range(len(probs)), key=lambda k: (-probs[k], k))
    assert list(seq.order) == oracle


def test_greedy_value_uniform_reduces_to_prob():
    probs = np.array([0.3, 0.8, 0.1, 0.55])
    assert greedy_value(probs, np.ones(4)).order.tolist() == greedy_prob(probs).order.tolist()


def test_greedy_value_weighted():
    seq = greedy_value(np.array([0.9, 0.6]), np.array([1.0, 10.0]))
    assert seq.order.tolist() == [1, 0]  # 6.0 beats 0.9


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
    seq = greedy_value(probs, values)
    oracle = sorted(range(len(probs)), key=lambda k: (-(probs[k] * values[k]), k))
    assert list(seq.order) == oracle


def test_greedy_ratio_additive_arithmetic():
    probs = np.array([0.9, 0.6])
    values = np.array([1.0, 10.0])
    costs = 1.0 - probs
    seq = greedy_ratio_additive(probs, values, costs)
    assert seq.order.tolist() == [1, 0]  # ratios 9 vs 15


def test_greedy_ratio_equal_ratios_index_order():
    probs = np.array([0.4, 0.8, 0.2])
    costs = 1.0 - probs
    values = costs / probs  # all ratios exactly 1
    seq = greedy_ratio_additive(probs, values, costs)
    assert seq.order.tolist() == [0, 1, 2]


def test_greedy_ratio_zero_cost_goes_first_by_value():
    probs = np.array([0.5, 0.9, 0.8])
    values = np.array([2.0, 1.0, 5.0])
    costs = np.array([0.3, 0.0, 0.0])
    seq = greedy_ratio_additive(probs, values, costs)
    # classes 1, 2 are free: descending gain 4.0 > 0.9, then the paid one
    assert seq.order.tolist() == [2, 1, 0]


def test_nested_chain_shape():
    probs = np.array([0.7, 0.2, 0.9, 0.4])
    for seq in (greedy_prob(probs), greedy_value(probs, np.arange(1.0, 5.0))):
        assert seq.sets[0] == 0
        assert len(seq.sets) == 5
        for a, b in zip(seq.sets, seq.sets[1:]):
            assert a & b == a and b.bit_count() == a.bit_count() + 1


@pytest.mark.parametrize("k", [1, 10, 63, 64])
def test_chain_masks_match_python_int_fold(k):
    order = np.random.default_rng(k).permutation(k)
    seq = _chain(order, "prob")
    fold = [0]
    for cls in order.tolist():
        fold.append(fold[-1] | (1 << cls))
    assert seq.sets.dtype == np.uint64 and seq.order.dtype == np.int64
    assert seq.sets.tolist() == fold
    assert seq.order.tolist() == order.tolist()
    if k == 64:
        assert seq.sets[-1] == (1 << 64) - 1  # bit 63 included


@pytest.mark.parametrize("k", [1, 4, 10])
def test_subset_sums_equal_ascending_python_sums(k):
    margins = np.random.default_rng(k).random(k) * 7.3
    expected = [sum(margins[c] for c in range(k) if (m >> c) & 1) for m in range(1 << k)]
    # exact: entry m adds the margins of m's classes in ascending order
    assert subset_sums(margins).tolist() == [float(x) for x in expected]


@settings(max_examples=100, deadline=None)
@given(probs_strategy)
def test_proxy_cost_nondecreasing_along_chain(probs):
    spec = SetFunctionSpec("fp", len(probs))
    for kind in ("prob", "ratio"):
        seq = build_universe(kind, probs, SetFunctionSpec("tp", len(probs)), spec)
        chain_costs = [spec.proxy(s, probs) for s in seq.sets]
        assert all(b >= a - 1e-12 for a, b in zip(chain_costs, chain_costs[1:]))


def test_ratio_general_single_class():
    seq = greedy_ratio_general(
        np.array([0.5]), batched(lambda s: float(s & 1)), batched(lambda s: 0.5 * (s & 1))
    )
    assert seq.sets.tolist() == [0, 1]


def test_ratio_general_matches_additive():
    rng = random.Random(77)
    k = 8
    w = np.arange(1.0, k + 1.0)
    value_spec = SetFunctionSpec("tpc", k, w)
    cost_spec = SetFunctionSpec("fpc", k, w)
    for _ in range(1000):
        probs = np.array([rng.uniform(0.01, 0.99) for _ in range(k)])
        additive = greedy_ratio_additive(probs, w, cost_spec.class_margins(probs))
        general = greedy_ratio_general(
            probs,
            batched(lambda s: value_spec.proxy(s, probs)),
            batched(lambda s: cost_spec.proxy(s, probs)),
        )
        assert additive.order.tolist() == general.order.tolist()


def test_ratio_general_per_step_argmax_oracle():
    # non-additive value: check each greedy step against brute enumeration
    rng = random.Random(5)
    k = 6
    value_spec = SetFunctionSpec("gen", k, mc_samples=60, mc_seed=3)
    cost_spec = SetFunctionSpec("fp", k)
    probs = np.array([rng.uniform(0.05, 0.95) for _ in range(k)])
    vp = lambda s: value_spec.proxy(s, probs)
    cp = lambda s: cost_spec.proxy(s, probs)
    seq = greedy_ratio_general(probs, batched(vp), batched(cp))
    mask = 0
    for step, nxt in enumerate(seq.order):
        best = None
        best_key = None
        for cand in range(k):
            if (mask >> cand) & 1:
                continue
            dv = vp(mask | (1 << cand)) - vp(mask)
            dc = cp(mask | (1 << cand)) - cp(mask)
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
            st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=k, max_size=k),
        )
    ),
    st.sampled_from([1, 2, 30]),
)
# classes 1 and 3 cost nothing under fp (p = 1); 0 and 2 tie exactly
@example(("tpc", "fp"), ([0.5, 1.0, 0.5, 1.0], [2.0, 1.0, 2.0, 3.0]), 1)
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
    seq = greedy_ratio_general(
        probs,
        lambda sets: value_spec.proxy_many(sets, probs),
        lambda sets: cost_spec.proxy_many(sets, probs),
    )
    want = greedy_ratio_order(
        k, lambda s: value_spec.proxy(s, probs), lambda s: cost_spec.proxy(s, probs)
    )
    assert seq.order.tolist() == want


def test_ratio_general_running_scores_move_by_the_winners_margins():
    # v(∅) + (v({0}) - v(∅)) is 1 + 2^-52, not v({0}) = 1.0; at 1.0 round
    # two's ratios (2 - v) / 1 and (3 - v) / 2 would tie and class 1 would win
    v = {0: -1.234792922781735, 0b001: 1.0, 0b010: 0.0, 0b100: 0.0, 0b011: 2.0, 0b101: 3.0}
    c = {0: 0.0, 0b001: 0.0, 0b010: 1.0, 0b100: 1.0, 0b011: 1.0, 0b101: 2.0}
    v[0b111], c[0b111] = 4.0, 3.0
    seq = greedy_ratio_general(np.zeros(3), batched(v.__getitem__), batched(c.__getitem__))
    assert seq.order.tolist() == greedy_ratio_order(3, v.__getitem__, c.__getitem__) == [0, 2, 1]


def test_build_universe_dispatch():
    probs = np.array([0.2, 0.6, 0.9])
    vs = SetFunctionSpec("tp", 3)
    cs = SetFunctionSpec("fp", 3)
    assert build_universe("full", probs, vs, cs).kind == "full"
    assert build_universe("prob", probs, vs, cs).kind == "prob"
    assert build_universe("value", probs, vs, cs).kind == "value"
    assert build_universe("ratio", probs, vs, cs).kind == "ratio"
    with pytest.raises(ValueError):
        build_universe("bogus", probs, vs, cs)


def test_build_universe_ratio_with_gen_value():
    probs = np.array([0.3, 0.7, 0.5, 0.9])
    vs = SetFunctionSpec("gen", 4, mc_samples=50, mc_seed=1)
    cs = SetFunctionSpec("fp", 4)
    seq = build_universe("ratio", probs, vs, cs)
    assert seq.kind == "ratio_general"
    assert seq.sets[0] == 0 and len(seq.sets) == 5
