"""Set functions: raw scores, proxies, marginals, normalization."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from costcap.set_functions import (
    NORMALIZED_BOUND,
    Sample,
    SetFunctionSpec,
    cost_fp,
    cost_fpc,
    full_set,
    load_weights_csv,
    marginal_proxy,
    proxy_mc,
    set_from_indices,
    set_indices,
    value_gen,
    value_tp,
    value_tpc,
)

from .oracles import additive_proxy, popcount_difference, popcount_intersection, weighted_hits


def test_value_tp_basics():
    s = set_from_indices([0, 2])
    y = set_from_indices([2])
    assert value_tp(s, y) == 1.0
    assert value_tp(0, y) == 0.0


def test_cost_fp_basics():
    s = set_from_indices([0, 2])
    y = set_from_indices([2])
    assert cost_fp(s, y) == 1.0
    assert cost_fp(y, y) == 0.0


def test_tp_fp_match_bit_loop_oracle():
    rng = random.Random(42)
    k = 10
    for _ in range(300):
        s = rng.randrange(1 << k)
        y = rng.randrange(1 << k)
        assert value_tp(s, y) == popcount_intersection(s, y, k)
        assert cost_fp(s, y) == popcount_difference(s, y, k)


def test_weighted_variants():
    w = np.array([1.0, 2.0, 3.0])
    s = set_from_indices([0, 1])
    y = set_from_indices([0])
    assert cost_fpc(s, y, w) == 2.0  # only class 1 is a false positive
    assert value_tpc(s, y, w) == 1.0


def test_weighted_match_loop_oracle():
    rng = random.Random(3)
    k = 8
    w = np.array([rng.uniform(0, 5) for _ in range(k)])
    for _ in range(300):
        s = rng.randrange(1 << k)
        y = rng.randrange(1 << k)
        assert value_tpc(s, y, w) == pytest.approx(weighted_hits(s, y, w, True))
        assert cost_fpc(s, y, w) == pytest.approx(weighted_hits(s, y, w, False))


def test_value_gen_frozen_cases():
    # direct formula evaluation: prod (k+5)/10 + sum (k-5)^2 over S∩Y
    assert value_gen(0, full_set(10)) == 1.0  # empty product
    assert value_gen(1 << 9, full_set(10)) == pytest.approx(17.4)
    assert value_gen((1 << 0) | (1 << 9), full_set(10)) == pytest.approx(41.7)


@pytest.mark.parametrize("kind", ["tp", "fp", "tpc", "fpc", "gen"])
def test_monotone_exhaustive(kind):
    k = 8 if kind != "gen" else 10
    w = np.arange(1.0, k + 1) if kind in ("tpc", "fpc") else None
    spec = SetFunctionSpec(kind, k, w)
    rng = random.Random(11)
    ys = [rng.randrange(1 << k) for _ in range(4)]
    for s in range(1 << k):
        for y in ys:
            base = spec.raw(s, y)
            for add in range(k):
                if not (s >> add) & 1:
                    assert spec.raw(s | (1 << add), y) >= base - 1e-12


@pytest.mark.parametrize("kind", ["tp", "fp", "tpc", "fpc", "gen"])
def test_bounds_and_exact_normalization(kind):
    k = 10
    w = np.arange(1.0, k + 1) if kind in ("tpc", "fpc") else None
    spec = SetFunctionSpec(kind, k, w)
    best_y = 0 if kind in ("fp", "fpc") else full_set(k)
    assert spec.evaluate(full_set(k), best_y) == NORMALIZED_BOUND
    rng = random.Random(8)
    for _ in range(200):
        s = rng.randrange(1 << k)
        y = rng.randrange(1 << k)
        assert 0.0 <= spec.evaluate(s, y) <= NORMALIZED_BOUND


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=1023), st.integers(min_value=0, max_value=1023))
def test_additive_specs_decompose(s, y):
    spec = SetFunctionSpec("fpc", 10, np.arange(1.0, 11.0))
    total = sum(spec.evaluate(1 << k, y) for k in set_indices(s))
    assert spec.evaluate(s, y) == pytest.approx(total, abs=1e-9)


def test_proxy_fp_cases():
    spec = SetFunctionSpec("fp", 3)
    probs = np.array([1.0, 1.0, 1.0])
    assert spec.proxy(0, probs) == 0.0
    assert spec.proxy(full_set(3), probs) == 0.0
    probs = np.array([0.25, 0.5, 0.75])
    s = set_from_indices([0, 2])
    # loop oracle: (0.75 + 0.25) / 3 * 100
    assert spec.proxy(s, probs) == pytest.approx((0.75 + 0.25) / 3 * 100)


def test_proxy_random_vs_loop_oracle():
    rng = random.Random(21)
    k = 10
    w = np.array([rng.uniform(0.5, 4) for _ in range(k)])
    spec = SetFunctionSpec("fpc", k, w)
    for _ in range(100):
        probs = np.array([rng.random() for _ in range(k)])
        s = rng.randrange(1 << k)
        expect = sum((1 - probs[i]) * w[i] for i in range(k) if (s >> i) & 1)
        assert spec.proxy(s, probs) == pytest.approx(expect / w.sum() * 100)


def test_proxy_mc_degenerate():
    k = 4
    s = full_set(k)
    assert proxy_mc(s, np.zeros(k), cost_fp, 50, seed=1) == float(k)
    assert proxy_mc(s, np.ones(k), cost_fp, 50, seed=1) == 0.0


def test_proxy_mc_converges_to_expectation():
    # E[C_FP(S)] = sum (1 - p_k) = 1.5 for p = 0.5, K = 3, S = full
    probs = np.full(3, 0.5)
    n = 20000
    est = proxy_mc(full_set(3), probs, cost_fp, n, seed=7)
    sigma = math.sqrt(3 * 0.25)  # variance of a sum of 3 Bernoulli(0.5)
    assert abs(est - 1.5) <= 3 * sigma / math.sqrt(n)


def test_proxy_mc_deterministic():
    probs = np.array([0.3, 0.6, 0.9])
    a = proxy_mc(5, probs, cost_fp, 100, seed=17)
    b = proxy_mc(5, probs, cost_fp, 100, seed=17)
    assert a == b


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(["tp", "fp", "tpc", "fpc", "gen"]),
    st.sampled_from([1, 2, 100]),
    st.integers(1, 64).flatmap(
        lambda k: st.tuples(
            st.lists(
                st.sampled_from([0.0, 1.0, 0.5, 0.3]) | st.floats(0.0, 1.0),
                min_size=k,
                max_size=k,
            ),
            st.lists(st.sampled_from([0.0, 1.0, 2.5]), min_size=k, max_size=k),
            st.sampled_from([1, 2, k + 1]).flatmap(
                lambda n: st.lists(st.integers(0, (1 << k) - 1), min_size=n, max_size=n)
            ),
        )
    ),
    st.integers(0, 2**32 - 1),
)
@example("tp", 1, ([-0.0], [1.0], [1]), 0)  # the loop's sum from 0.0 is +0.0
def test_proxy_many_equals_per_set_reference(kind, mc_samples, drawn, mc_seed):
    probs, weights, sets = drawn
    k = len(probs)
    probs = np.array(probs)
    weights = np.array(weights) if kind in ("tpc", "fpc") else None
    if weights is not None:
        weights[-1] = 1.0  # all-zero weights are rejected
    sets[0] |= 1 << (k - 1)  # the top class, bit 63 at K = 64
    spec = SetFunctionSpec(kind, k, weights, mc_samples=mc_samples, mc_seed=mc_seed)
    got = spec.proxy_many(np.array(sets, dtype=np.uint64), probs)
    if kind == "gen":
        want = [
            proxy_mc(s, probs, value_gen, mc_samples, mc_seed) / spec.max_raw * NORMALIZED_BOUND
            for s in sets
        ]
    else:
        want = [additive_proxy(kind, s, probs, weights, spec.max_raw) for s in sets]
    # exact: the same additions and products in the same order, to the bit
    assert got.tobytes() == np.array(want).tobytes()
    assert [spec.proxy(s, probs) for s in sets] == want


def test_proxy_many_memory_bounded():
    # the whole (class, set, draw) array would be 64 * 65 * 10000 * 8 B = 333 MB
    k = 64
    spec = SetFunctionSpec("gen", k, mc_samples=10_000, mc_seed=4)
    probs = np.random.default_rng(4).random(k)
    sets = np.array([(1 << n) - 1 for n in range(k + 1)], dtype=np.uint64)
    tracemalloc.start()
    try:
        spec.proxy_many(sets, probs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_marginal_additive_is_unit():
    spec = SetFunctionSpec("fp", 5)
    probs = np.array([0.1, 0.4, 0.6, 0.8, 0.95])
    for s in (0, 1, 6):
        assert marginal_proxy(spec, 4, s, probs) == pytest.approx((1 - 0.95) / 5 * 100)


def test_marginal_rejects_member():
    spec = SetFunctionSpec("fp", 3)
    with pytest.raises(ValueError):
        marginal_proxy(spec, 1, set_from_indices([1]), np.full(3, 0.5))


def test_marginal_gen_matches_difference_oracle():
    spec = SetFunctionSpec("gen", 10, mc_samples=200, mc_seed=5)
    rng = random.Random(31)
    probs = np.array([rng.random() for _ in range(10)])
    for _ in range(20):
        s = rng.randrange(1 << 10)
        k = rng.choice([i for i in range(10) if not (s >> i) & 1])
        expect = spec.proxy(s | (1 << k), probs) - spec.proxy(s, probs)
        assert marginal_proxy(spec, k, s, probs) == pytest.approx(expect)


def test_marginal_nonnegative_for_monotone():
    rng = random.Random(13)
    k = 10
    specs = [
        SetFunctionSpec("tp", k),
        SetFunctionSpec("fpc", k, np.arange(1.0, 11.0)),
        SetFunctionSpec("gen", k, mc_samples=100, mc_seed=2),
    ]
    for spec in specs:
        for _ in range(30):
            probs = np.array([rng.random() for _ in range(k)])
            s = rng.randrange(1 << k)
            free = [i for i in range(k) if not (s >> i) & 1]
            if not free:
                continue
            assert marginal_proxy(spec, rng.choice(free), s, probs) >= -1e-9


def test_spec_validation():
    with pytest.raises(ValueError):
        SetFunctionSpec("nope", 5)
    with pytest.raises(ValueError):
        SetFunctionSpec("fpc", 5, np.ones(4))
    with pytest.raises(ValueError):
        SetFunctionSpec("tp", 65)
    with pytest.raises(ValueError):
        SetFunctionSpec("fpc", 3, np.zeros(3))
    with pytest.raises(ValueError):
        SetFunctionSpec("gen", 3, mc_samples=0)


def test_load_weights_csv(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("class_index,weight\n1,2.5\n0,1.0\n2,4.0\n")
    w = load_weights_csv(path, 3)
    assert list(w) == [1.0, 2.5, 4.0]
    for bad in ("0,1.0\n", "0,1.0\n1\n", "0,1.0\n1,-2.0\n", "0,1.0\n1,nan\n", "0,0\n1,0.0\n"):
        path.write_text(bad)
        with pytest.raises(ValueError):
            load_weights_csv(path, 2)


def test_sample_label_vector():
    sm = Sample(np.array([0.1, 0.9, 0.5]), set_from_indices([0, 2]))
    assert list(sm.label_vector()) == [1.0, 0.0, 1.0]
    assert sm.n_classes == 3
