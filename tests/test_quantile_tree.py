"""QuantileTree vs a sorted-list oracle, plus structural invariants."""

import gc
import hashlib
import math
import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costcap.quantile_tree import (
    ABOVE_ALL,
    BELOW_ALL,
    EmptyDistributionError,
    QuantileTree,
    TreeInputError,
    ValueNotFoundError,
    WeightUnderflowError,
)

from .oracles import SortedListCdf

# SHA-256 of the trees test_rebalancing_shape_is_pinned passes through: any
# change to the rebalancing that moves a shape, a colour or a sum moves it
SHAPE_DIGEST = "c771f50167ef0c16dfcf85e0ef3eac3a2fc3c925926036036024f2c99bca376a"


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


@pytest.mark.parametrize(
    "value,weight",
    [
        (math.inf, 1.0), (math.nan, 1.0), (1.0, -0.5), (1.0, math.nan), (1.0, math.inf),
        (1.0, -1), (1.0, Fraction(1, 3)),  # no power of two holds 1/3 exactly
    ],
)
def test_insert_rejects_bad_input(value, weight):
    tree = QuantileTree()
    with pytest.raises(TreeInputError):
        tree.insert(value, weight)
    assert len(tree) == 0 and tree.total_weight() == 0.0


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


def test_delete_of_more_than_the_stored_weight_raises():
    # no tolerance: 1e-12 above the stored weight is an underflow, and the
    # tree is left as it was
    tree = QuantileTree()
    tree.insert(1.0, 1.0)
    with pytest.raises(WeightUnderflowError):
        tree.delete(1.0, 1.0 + 1e-12)
    assert list(tree.items()) == [(1.0, 1.0)]
    tree.delete(1.0, 1.0)
    assert len(tree) == 0 and tree.total_weight() == 0.0
    tree.validate()


def test_delete_removes_a_tiny_weight_exactly():
    # a weight far below the rounding of its neighbours is kept, and removed,
    # exactly: the node goes only when its last tiny weight does
    tree = QuantileTree()
    tree.insert(14.285714285714286, 4.761904761904763 + 3.552713678800501e-15)
    tree.insert(2.0, 1.0)
    tree.delete(14.285714285714286, 4.761904761904763)
    assert list(tree.items()) == [(2.0, 1.0), (14.285714285714286, 3.552713678800501e-15)]
    tree.validate()
    tree.delete(14.285714285714286, 3.552713678800501e-15)
    assert list(tree.items()) == [(2.0, 1.0)]
    # an absent value, and a value lighter than the weight removed, raise
    with pytest.raises(ValueNotFoundError):
        tree.delete(14.285714285714286, 3.552713678800501e-15)
    tree.insert(14.285714285714286, 1e-15)
    with pytest.raises(WeightUnderflowError):
        tree.delete(14.285714285714286, 3.552713678800501e-15)
    tree.delete(14.285714285714286, 1e-15)
    assert list(tree.items()) == [(2.0, 1.0)] and tree.total_weight() == 1.0
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
    assert list(tree.items()) == oracle.items()
    assert tree.total_weight() == float(oracle.total())
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
    """The scale, then one (value, colour, weight, sum) row per node in
    preorder: values in hex, weights and sums as the ints in scale units."""
    nil = tree._nil
    rows = [f"{tree._scale}\n"]
    stack = [tree._root]
    while stack:
        node = stack.pop()
        if node is not nil:
            rows.append(f"{node.value.hex()} {node.color} {node.weight} {node.sum}\n")
            stack.append(node.right)
            stack.append(node.left)
    return "".join(rows).encode()


def test_rebalancing_shape_is_pinned():
    # 3 000 seeded inserts and deletes over a small value pool: duplicates
    # merge, and a delete removes a live value's whole weight or half of it.
    # The run reaches every insert and delete fix-up case on both sides.
    # A rotation's sums last until a later update passes through its nodes,
    # so every intermediate tree goes into the digest, not just the last one.
    # The weights are dyadic with few bits, so the float bookkeeping in
    # ``live`` is exact and names each weight the tree holds
    rng = random.Random(2024)
    pool = [0.25 * i for i in range(160)]
    weights = [0.125, 0.75, 1.25, 2.875]
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
    assert list(tree.items()) == oracle.items()
    if oracle.values:
        q = data.draw(st.floats(min_value=1e-6, max_value=1.0, allow_nan=False))
        assert tree.query_quantile(q) == oracle.quantile(q)


# weights whose float sums round, down to subnormals: merged into one node
# they must still come out exactly
EXACT_WEIGHTS = st.one_of(
    st.sampled_from([1e-13, 2.5e-15, 5e-324, 2.2e-311, 0.1, 0.7, 1.0, 3.0]),
    st.floats(min_value=0.0, max_value=1e6, exclude_min=True),
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_property_exact_removal(data):
    # insert every pair, then delete them in any order: the tree agrees with
    # the exact oracle after every operation and ends empty
    pairs = data.draw(
        st.lists(st.tuples(st.integers(0, 6).map(float), EXACT_WEIGHTS), min_size=1, max_size=30)
    )
    order = data.draw(st.permutations(pairs))
    levels = st.floats(min_value=1e-300, max_value=1.0)
    tree = QuantileTree()
    oracle = SortedListCdf()
    for name, (value, weight) in [("insert", p) for p in pairs] + [("delete", p) for p in order]:
        getattr(tree, name)(value, weight)
        getattr(oracle, name)(value, weight)
        tree.validate()
        assert list(tree.items()) == oracle.items()
        assert tree.total_weight() == float(oracle.total())
        if oracle.values:
            q = data.draw(levels)
            assert tree.query_quantile(q) == oracle.quantile(q)
    assert len(tree) == 0 and tree.total_weight() == 0.0


def test_windowed_duplicate_heavy_long_run():
    # 100k inserts and as many evictions over 10 values, with weights down
    # to 2.5e-15 that merge into heavy nodes and are removed from them
    # exactly: no drift from the exact oracle, and a node holding only tiny
    # weights stays until the last of them goes
    rng = random.Random(17)
    values = [0.5 * i for i in range(10)]
    weights = [1.0, 0.5, 3.0, 0.25, 1e-13, 1e-12, 2.5e-15]
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
    assert len(tree) == len(oracle.values) <= 10
    assert list(tree.items()) == oracle.items()
    assert tree.total_weight() == float(oracle.total())
    for _ in range(200):
        q = rng.uniform(1e-9, 1.0)
        assert tree.query_quantile(q) == oracle.quantile(q)
    for value, weight in live:
        tree.delete(value, weight)
        oracle.delete(value, weight)
        if oracle.values:
            assert tree.query_quantile(0.5) == oracle.quantile(0.5)
    assert len(tree) == 0 and tree.total_weight() == 0.0


def test_sentinels_order():
    assert BELOW_ALL < -1e308 < 1e308 < ABOVE_ALL
