"""QuantileTree vs a sorted-list oracle, plus structural invariants."""

import gc
import hashlib
import math
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costcap.quantile_tree import (
    ABOVE_ALL,
    BELOW_ALL,
    REMOVE_EPS,
    EmptyDistributionError,
    QuantileTree,
    TreeInputError,
    ValueNotFoundError,
    WeightUnderflowError,
)

from .oracles import SortedListCdf

# SHA-256 of the trees test_rebalancing_shape_is_pinned passes through: any
# change to the rebalancing that moves a shape, a colour or a float sum moves it
SHAPE_DIGEST = "d555d43054ea02988b211197bdaf29ba30ae4e5c15b7acb43ae06e52eb97a881"


def test_single_point_mass():
    tree = QuantileTree()
    tree.insert(5.0, 2.0)
    assert tree.total_weight() == 2.0
    assert len(tree) == 1
    assert tree.query_quantile(1.0) == 5.0


def test_clear_empties_the_tree_and_unlinks_its_nodes():
    tree = QuantileTree()
    rng = random.Random(3)
    for _ in range(300):
        tree.insert(rng.uniform(0.0, 10.0), rng.uniform(0.1, 2.0))
    for value, weight in list(tree.items())[::3]:
        tree.delete(value, weight)  # deletes point the sentinel's parent at a node
    gc.collect()
    gc.disable()
    try:
        tree.clear()
        # unlinked nodes are freed by reference counting, none left in cycles
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0
    assert len(tree) == 0 and tree.total_weight() == 0.0 and list(tree.items()) == []
    tree.validate()
    tree.insert(1.0, 2.0)
    tree.insert(3.0, 1.0)
    assert tree.query_quantile(1.0) == 3.0 and tree.total_weight() == 3.0
    tree.validate()


def test_duplicate_values_merge():
    tree = QuantileTree()
    tree.insert(5.0, 1.0)
    tree.insert(5.0, 3.0)
    assert len(tree) == 1
    assert tree.total_weight() == 4.0
    assert list(tree.items()) == [(5.0, 4.0)]


def test_insert_zero_weight_is_noop():
    tree = QuantileTree()
    tree.insert(1.0, 0.0)
    assert len(tree) == 0
    assert tree.total_weight() == 0.0


@pytest.mark.parametrize("value,weight", [(math.inf, 1.0), (math.nan, 1.0), (1.0, -0.5), (1.0, math.nan)])
def test_insert_rejects_bad_input(value, weight):
    tree = QuantileTree()
    with pytest.raises(TreeInputError):
        tree.insert(value, weight)


def test_delete_full_removal():
    tree = QuantileTree()
    tree.insert(3.0, 2.0)
    tree.delete(3.0, 2.0)
    assert len(tree) == 0
    assert tree.total_weight() == 0.0


def test_delete_partial_decrement():
    tree = QuantileTree()
    tree.insert(3.0, 2.0)
    tree.delete(3.0, 0.5)
    assert list(tree.items()) == [(3.0, 1.5)]
    assert tree.total_weight() == 1.5


def test_delete_missing_value():
    tree = QuantileTree()
    tree.insert(1.0, 1.0)
    with pytest.raises(ValueNotFoundError):
        tree.delete(2.0, 1.0)


def test_delete_underflow():
    tree = QuantileTree()
    tree.insert(1.0, 1.0)
    with pytest.raises(WeightUnderflowError):
        tree.delete(1.0, 1.5)


def test_delete_within_tolerance_removes_node():
    tree = QuantileTree()
    tree.insert(1.0, 1.0)
    tree.delete(1.0, 1.0 + 1e-12)  # inside the 1e-9 relative tolerance
    assert len(tree) == 0


def test_delete_weight_dropped_with_its_node():
    # a node whose weight decays below REMOVE_EPS is dropped together with
    # another insert's tiny weight; removing that weight later is a no-op
    tree = QuantileTree()
    tree.insert(14.285714285714286, 4.761904761904763 + 3.552713678800501e-15)
    tree.insert(2.0, 1.0)
    tree.delete(14.285714285714286, 4.761904761904763)
    assert list(tree.items()) == [(2.0, 1.0)]
    tree.delete(14.285714285714286, 3.552713678800501e-15)
    assert list(tree.items()) == [(2.0, 1.0)]
    # the value came back lighter than the dropped weight: the node goes
    tree.insert(14.285714285714286, 1e-15)
    tree.delete(14.285714285714286, 3.552713678800501e-15)
    assert list(tree.items()) == [(2.0, 1.0)]
    tree.validate()


def test_quantile_three_masses():
    # inf{t : F(t) >= 0.5} over {(1, .2), (2, .3), (3, .5)} is 2
    tree = QuantileTree()
    tree.insert(1.0, 0.2)
    tree.insert(2.0, 0.3)
    tree.insert(3.0, 0.5)
    assert tree.query_quantile(0.5) == 2.0
    assert tree.query_quantile(1.0) == 3.0
    assert tree.query_quantile(0.19) == 1.0


def test_quantile_level_edges():
    tree = QuantileTree()
    with pytest.raises(EmptyDistributionError):
        tree.query_quantile(0.5)
    tree.insert(1.0, 1.0)
    assert tree.query_quantile(0.0) == BELOW_ALL
    assert tree.query_quantile(-0.3) == BELOW_ALL
    with pytest.raises(TreeInputError):
        tree.query_quantile(1.0000001)


def test_cdf_at():
    tree = QuantileTree()
    assert tree.cdf_at(0.0) == 0.0
    tree.insert(1.0, 0.2)
    tree.insert(2.0, 0.3)
    tree.insert(3.0, 0.5)
    assert tree.cdf_at(2.0) == 0.5
    assert tree.cdf_at(BELOW_ALL) == 0.0
    assert tree.cdf_at(3.0) == 1.0
    assert tree.cdf_at(2.5) == 0.5
    assert tree.cdf_at(0.5) == 0.0


def test_cdf_below_strict():
    tree = QuantileTree()
    assert tree.cdf_below(1.0) == 0.0
    tree.insert(1.0, 0.2)
    tree.insert(2.0, 0.3)
    tree.insert(3.0, 0.5)
    assert tree.cdf_below(2.0) == pytest.approx(0.2)
    assert tree.cdf_below(2.5) == 0.5
    assert tree.cdf_below(1.0) == 0.0
    assert tree.cdf_below(100.0) == 1.0


def test_total_weight_running_sum():
    rng = random.Random(7)
    tree = QuantileTree()
    total = 0.0
    for _ in range(100):
        w = rng.uniform(0.0, 10.0)
        tree.insert(rng.uniform(-50, 50), w)
        total += w
    assert tree.total_weight() == pytest.approx(total, rel=1e-9)


def test_random_inserts_match_oracle():
    rng = random.Random(123)
    tree = QuantileTree()
    oracle = SortedListCdf()
    for _ in range(1000):
        v = rng.choice([rng.uniform(0, 100), float(rng.randint(0, 30))])
        w = rng.uniform(0.1, 5.0)
        tree.insert(v, w)
        oracle.insert(v, w)
    assert [v for v, _ in tree.items()] == oracle.values
    assert tree.total_weight() == pytest.approx(oracle.total(), rel=1e-9)
    for _ in range(200):
        q = rng.uniform(1e-6, 1.0)
        assert tree.query_quantile(q) == oracle.quantile(q)


def test_random_insert_delete_interleaving():
    rng = random.Random(99)
    tree = QuantileTree()
    oracle = SortedListCdf()
    live: list[tuple[float, float]] = []
    for step in range(500):
        if live and rng.random() < 0.4:
            v, w = live.pop(rng.randrange(len(live)))
            tree.delete(v, w)
            oracle.delete(v, w)
        else:
            v = rng.uniform(0, 1000)
            w = float(rng.randint(1, 20))
            tree.insert(v, w)
            oracle.insert(v, w)
            live.append((v, w))
        if oracle.values:
            q = rng.uniform(1e-9, 1.0)
            assert tree.query_quantile(q) == oracle.quantile(q)
        if step % 50 == 0:
            tree.validate()
    tree.validate()


def test_quantile_cdf_consistency():
    # F(Q(q)) >= q and the predecessor of Q(q) has F < q
    rng = random.Random(5)
    tree = QuantileTree()
    for _ in range(300):
        tree.insert(rng.uniform(0, 10), rng.uniform(0.01, 2.0))
    values = [v for v, _ in tree.items()]
    for _ in range(200):
        q = rng.uniform(1e-9, 1.0)
        t = tree.query_quantile(q)
        assert tree.cdf_at(t) >= q - 1e-12
        i = values.index(t)
        if i > 0:
            assert tree.cdf_at(values[i - 1]) < q + 1e-12


def test_rebalancing_preserves_cdf():
    # insertion-triggered rotations keep F identical at probes != new value
    rng = random.Random(17)
    tree = QuantileTree()
    for _ in range(64):
        tree.insert(rng.uniform(0, 1), rng.uniform(0.1, 1.0))
    probes = [rng.uniform(0, 1) for _ in range(50)]
    total = tree.total_weight()
    before_mass = {p: tree.cdf_at(p) * total for p in probes}
    new_value = 0.5000123  # distinct from every probe
    tree.insert(new_value, 3.0)
    for p in probes:
        extra = 3.0 if p >= new_value else 0.0
        after_mass = tree.cdf_at(p) * tree.total_weight()
        assert after_mass == pytest.approx(before_mass[p] + extra, rel=1e-9)


def test_height_bound():
    tree = QuantileTree()
    n = 4096
    for i in range(n):
        tree.insert(float(i), 1.0)
    assert tree.height() <= 2 * math.log2(n + 1)


def preorder(tree: QuantileTree) -> bytes:
    """One (value, colour, weight, sum) row per node in preorder, floats in hex."""
    nil = tree._nil
    rows = []
    stack = [tree._root]
    while stack:
        node = stack.pop()
        if node is not nil:
            rows.append(f"{node.value.hex()} {node.color} {node.weight.hex()} {node.sum.hex()}\n")
            stack.append(node.right)
            stack.append(node.left)
    return "".join(rows).encode()


def test_rebalancing_shape_is_pinned():
    # 3 000 seeded inserts and deletes over a small value pool: duplicates
    # merge, and a delete removes a live value's whole weight or half of it.
    # The run reaches every insert and delete fix-up case on both sides.
    # A rotation's sums last until a later update passes through its nodes,
    # so every intermediate tree goes into the digest, not just the last one
    rng = random.Random(2024)
    pool = [0.25 * i for i in range(160)]
    weights = [0.1, 0.7, 1.3, 2.9]
    tree = QuantileTree()
    live: dict[float, float] = {}
    digest = hashlib.sha256()
    for _ in range(3000):
        if live and rng.random() < 0.45:
            value = rng.choice(list(live))
            held = live.pop(value)
            if rng.random() < 0.5:
                tree.delete(value, held)
            else:
                tree.delete(value, held * 0.5)
                live[value] = held - held * 0.5
        else:
            value, weight = rng.choice(pool), rng.choice(weights)
            tree.insert(value, weight)
            live[value] = live.get(value, 0.0) + weight
        digest.update(preorder(tree) + b"\n")
    tree.validate()
    assert list(tree.items()) == sorted(live.items())
    assert digest.hexdigest() == SHAPE_DIGEST


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=1, max_value=50),
        ),
        min_size=1,
        max_size=60,
    ),
    st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
)
def test_property_quantile_matches_oracle(ops, q):
    # integer-scaled weights: agreement must be exact
    tree = QuantileTree()
    oracle = SortedListCdf()
    for value, weight in ops:
        tree.insert(float(value), float(weight))
        oracle.insert(float(value), float(weight))
    tree.validate()
    assert tree.query_quantile(q) == oracle.quantile(q)
    assert tree.total_weight() == oracle.total()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_property_delete_keeps_invariants(data):
    pairs = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=25),
                st.integers(min_value=1, max_value=9),
            ),
            min_size=2,
            max_size=40,
        )
    )
    tree = QuantileTree()
    oracle = SortedListCdf()
    for value, weight in pairs:
        tree.insert(float(value), float(weight))
        oracle.insert(float(value), float(weight))
    n_deletes = data.draw(st.integers(min_value=1, max_value=len(pairs)))
    for value, weight in pairs[:n_deletes]:
        tree.delete(float(value), float(weight))
        oracle.delete(float(value), float(weight))
    tree.validate()
    assert sorted(tree.items()) == list(zip(oracle.values, oracle.weights))
    if oracle.values:
        q = data.draw(st.floats(min_value=1e-6, max_value=1.0, allow_nan=False))
        assert tree.query_quantile(q) == oracle.quantile(q)


def test_windowed_duplicate_heavy_long_run():
    # 100k inserts and as many evictions over 10 values, with weights at and
    # below REMOVE_EPS whose nodes drop and come back: no drift from the oracle
    rng = random.Random(17)
    values = [0.5 * i for i in range(10)]
    weights = [1.0, 0.5, 3.0, 0.25, 1e-13, REMOVE_EPS, 2.5e-15]
    tree = QuantileTree()
    oracle = SortedListCdf()
    live: deque[tuple[float, float]] = deque()
    for step in range(100_000):
        value, weight = rng.choice(values), rng.choice(weights)
        tree.insert(value, weight)
        oracle.insert(value, weight)
        live.append((value, weight))
        if len(live) > 40:
            value, weight = live.popleft()
            tree.delete(value, weight)
            oracle.delete(value, weight)
        if step % 10_000 == 0:
            tree.validate()
    tree.validate()
    assert len(tree) <= 10
    assert list(tree.items()) == list(zip(oracle.values, oracle.weights))
    for _ in range(200):
        q = rng.uniform(1e-9, 1.0)
        assert tree.query_quantile(q) == oracle.quantile(q)


def test_sentinels_order():
    assert BELOW_ALL < -1e308 < 1e308 < ABOVE_ALL
