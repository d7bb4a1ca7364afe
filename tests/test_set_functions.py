"""Set functions: raw scores, proxies, margins, normalization."""

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
    full_set,
    label_bits,
    load_weights_csv,
)

from .oracles import (
    additive_proxy,
    gen_value,
    popcount_difference,
    popcount_intersection,
    proxy_mc,
    weighted_hits,
)

KINDS = ("tp", "fp", "tpc", "fpc", "gen")


def test_value_tp_basics():
    spec = SetFunctionSpec("tp", 3)
    assert spec.raw(0b101, 0b100) == 1.0
    assert spec.raw(0, 0b100) == 0.0


def test_cost_fp_basics():
    spec = SetFunctionSpec("fp", 3)
    assert spec.raw(0b101, 0b100) == 1.0
    assert spec.raw(0b100, 0b100) == 0.0


def test_weighted_variants():
    w = np.array([1.0, 2.0, 3.0])
    s, y = 0b011, 0b001
    assert SetFunctionSpec("fpc", 3, w).raw(s, y) == 2.0  # only class 1 is a false positive
    assert SetFunctionSpec("tpc", 3, w).raw(s, y) == 1.0


def test_value_gen_frozen_cases():
    # direct formula evaluation: prod (k+5)/10 + sum (k-5)^2 over S∩Y
    spec = SetFunctionSpec("gen", 10)
    assert spec.raw(0, full_set(10)) == 1.0  # empty product
    assert spec.raw(1 << 9, full_set(10)) == pytest.approx(17.4)
    assert spec.raw((1 << 0) | (1 << 9), full_set(10)) == pytest.approx(41.7)


RAW_REFERENCES = {
    "tp": lambda s, y, w: float(popcount_intersection(s, y, len(w))),
    "fp": lambda s, y, w: float(popcount_difference(s, y, len(w))),
    "tpc": lambda s, y, w: weighted_hits(s, y, w, True),
    "fpc": lambda s, y, w: weighted_hits(s, y, w, False),
    "gen": lambda s, y, w: gen_value(s, y),
}


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(KINDS),
    st.integers(1, 64).flatmap(
        lambda k: st.tuples(
            st.lists(st.sampled_from([0.0, 1.0, 2.5]) | st.floats(0.0, 1e6), min_size=k, max_size=k),
            st.integers(0, (1 << k) - 1),
            st.integers(0, (1 << k) - 1),
        )
    ),
)
@example("gen", ([1.0] * 64, full_set(64), full_set(64)))
@example("fpc", ([0.1] * 64, full_set(64), 0))
def test_evaluate_equals_loop_reference_bit_for_bit(kind, drawn):
    weights, s, y = drawn
    k = len(weights)
    weights[-1] = 1.0  # all-zero weights are rejected
    spec = SetFunctionSpec(kind, k, np.array(weights) if kind in ("tpc", "fpc") else None)
    reference = RAW_REFERENCES[kind]
    best_labels = 0 if spec.is_cost else full_set(k)
    want = reference(s, y, weights) / reference(full_set(k), best_labels, weights) * 100.0
    got = spec.evaluate(s, y)
    assert type(got) is float and type(spec.raw(s, y)) is float
    assert got.hex() == want.hex()


@pytest.mark.parametrize("kind", KINDS)
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


@pytest.mark.parametrize("kind", KINDS)
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
    total = sum(spec.evaluate(1 << k, y) for k in range(10) if (s >> k) & 1)
    assert spec.evaluate(s, y) == pytest.approx(total, abs=1e-9)


def test_proxy_fp_cases():
    spec = SetFunctionSpec("fp", 3)
    probs = np.array([1.0, 1.0, 1.0])
    assert spec.proxy(0, probs) == 0.0
    assert spec.proxy(full_set(3), probs) == 0.0
    probs = np.array([0.25, 0.5, 0.75])
    s = 0b101
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
    # certain labels: every draw is the same y, so the mean is gen(S, y)
    k = 4
    spec = SetFunctionSpec("gen", k, mc_samples=50, mc_seed=1)
    s = full_set(k)
    assert spec.proxy(s, np.zeros(k)) == spec.evaluate(s, 0)
    assert spec.proxy(s, np.ones(k)) == pytest.approx(NORMALIZED_BOUND, rel=1e-12)


def test_proxy_mc_converges_to_expectation():
    # the exact mean and spread of gen(S, y) over all 2^3 label sets
    k, n = 3, 20000
    probs = np.array([0.2, 0.5, 0.9])
    spec = SetFunctionSpec("gen", k, mc_samples=n, mc_seed=7)
    s = full_set(k)
    chance = [
        math.prod(probs[i] if (y >> i) & 1 else 1.0 - probs[i] for i in range(k))
        for y in range(1 << k)
    ]
    scores = [spec.evaluate(s, y) for y in range(1 << k)]
    mean = sum(c * v for c, v in zip(chance, scores))
    sigma = math.sqrt(sum(c * (v - mean) ** 2 for c, v in zip(chance, scores)))
    assert abs(spec.proxy(s, probs) - mean) <= 4 * sigma / math.sqrt(n)


def test_proxy_mc_deterministic():
    probs = np.array([0.3, 0.6, 0.9])
    a = SetFunctionSpec("gen", 3, mc_samples=100, mc_seed=17)
    b = SetFunctionSpec("gen", 3, mc_samples=100, mc_seed=17)
    assert a.proxy(5, probs) == a.proxy(5, probs) == b.proxy(5, probs)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(KINDS),
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
            proxy_mc(s, probs, gen_value, mc_samples, mc_seed) / spec.max_raw * NORMALIZED_BOUND
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
    # an additive proxy grows by the class margin, whatever S it is added to
    spec = SetFunctionSpec("fp", 5)
    probs = np.array([0.1, 0.4, 0.6, 0.8, 0.95])
    margin = spec.class_margins(probs)[4]
    assert margin == pytest.approx((1 - 0.95) / 5 * 100)
    for s in (0, 1, 6):
        assert spec.proxy(s | (1 << 4), probs) - spec.proxy(s, probs) == pytest.approx(margin)


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
            add = rng.choice(free)
            gain = spec.proxy(s | (1 << add), probs) - spec.proxy(s, probs)
            assert gain >= -1e-9
            if spec.additive:
                assert gain == pytest.approx(spec.class_margins(probs)[add], abs=1e-9)


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
    for kind in ("tp", "fp", "gen"):  # weights an unweighted kind would ignore
        with pytest.raises(ValueError):
            SetFunctionSpec(kind, 3, np.ones(3))
    # a sum that overflows, or is not a number, leaves nothing to normalize by
    for bad in ([1e308, 1e308, 1.0], [1.0, math.inf, 1.0], [1.0, math.nan, 1.0]):
        with pytest.raises(ValueError):
            SetFunctionSpec("tpc", 3, np.array(bad))


def test_load_weights_csv(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("class_index,weight\n1,2.5\n0,1.0\n2,4.0\n")
    w = load_weights_csv(path, 3)
    assert list(w) == [1.0, 2.5, 4.0]
    for bad in ("0,1.0\n", "0,1.0\n1\n", "0,1.0\n1,-2.0\n", "0,1.0\n1,nan\n", "0,0\n1,0.0\n"):
        path.write_text(bad)
        with pytest.raises(ValueError):
            load_weights_csv(path, 2)
    path.write_text("0,1e308\n1,1e308\n2,1\n")  # each finite, the sum is not
    with pytest.raises(ValueError):
        load_weights_csv(path, 3)


def test_sample_label_vector():
    sm = Sample(np.array([0.1, 0.9, 0.5]), 0b101)
    assert list(label_bits(sm.labels, sm.n_classes)) == [1.0, 0.0, 1.0]
    assert sm.n_classes == 3
