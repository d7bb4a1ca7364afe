"""Independent reference implementations the library is checked against.

Everything here is deliberately naive: sorted lists, running sums, bit loops
and linear scans, one call per set. None of it shares a computation with the
package; the record references only build its ``SampleRecord`` and return
its ``ABOVE_ALL`` marker, and the stream references only build its
``Sample`` and raise its ``DataError``.

- ``SortedListCdf``: the exact weighted CDF the ``QuantileTree`` must equal.
- ``RedBlackTree``: the same CDF in a sum-augmented red-black tree, queried
  by a descent from the root: the structure the ``QuantileTree`` replaced,
  which it must equal after every operation.
- ``popcount_intersection``, ``popcount_difference``, ``weighted_hits`` and
  ``gen_value``: raw scores of the ``tp``/``fp``, ``tpc``/``fpc`` and
  ``gen`` kinds.
- ``additive_proxy`` and ``proxy_mc``: per-set proxies of the additive
  kinds, as sums of class margins, and of any set function by Monte Carlo;
  ``additive_margins``: an additive kind's class margins.
- ``greedy_ratio_order``: the ratio chain scored one set at a time, each
  candidate priced at its cost margin; ``greedy_ratio_sets``: the same chain
  scored a round at a time through a mask-array value proxy;
  ``mask_scorer``: a per-mask value proxy as the row scorer
  ``greedy_ratio_general`` calls.
- ``max_cost_curve``, ``first_exceed_threshold`` and ``cplus_at``: a
  calibration record built one set at a time, its exceed point for one
  target, and its worst cost strictly below a threshold.
- ``label_margin_record``: a power set's record with its true costs summed
  from the labels' margins, one doubling per class.
- ``two_doubling_full_universe``: a power set's sets and cost and value
  proxies from two real doublings and a stable sort.
- ``chain_margin_record``: a chain's record and additive value proxies as
  one cumsum of per-class margins each, along the chain's order.
- ``numpy_chain``: a chain built by numpy sorts and cumsums, the route the
  package's Python-float chains must equal bit for bit; ``label_bits``: the
  0/1 float vector of a label mask.
- ``list_threshold_expected`` and ``list_threshold_violation``: the direct
  searches over a list of ``SampleRecord`` objects, one record at a time,
  which the package's searches over a ``RecordStore`` must equal bit for
  bit; ``store_of``: a ``RecordStore`` holding given records.
- ``reference_read_stream_csv`` and ``reference_write_stream_csv``: a
  stream CSV read and written one row and one ``Sample`` at a time, which
  the column-wise reader and writer must equal.
"""

from __future__ import annotations

import bisect
import csv
import math
from fractions import Fraction
from typing import Iterator

import numpy as np

from costcap.cli import DataError
from costcap.controller import RecordStore, SampleRecord
from costcap.quantile_tree import (
    ABOVE_ALL,
    BELOW_ALL,
    EmptyDistributionError,
    QuantileTreeError,
    TreeInputError,
    ValueNotFoundError,
    WeightUnderflowError,
)
from costcap.set_functions import Sample

PROXY_SORT_TOL = 1e-7

# candidates per pass of list_threshold_violation: bounds its temporaries
SCAN_BLOCK = 1 << 16


class SortedListCdf:
    """Weighted empirical CDF kept in a plain sorted list, with exact
    ``Fraction`` weights."""

    def __init__(self) -> None:
        self.values: list[float] = []
        self.weights: list[Fraction] = []

    def insert(self, value: float, weight: float) -> None:
        weight = Fraction(weight)
        if weight == 0:
            return
        i = bisect.bisect_left(self.values, value)
        if i < len(self.values) and self.values[i] == value:
            self.weights[i] += weight
        else:
            self.values.insert(i, value)
            self.weights.insert(i, weight)

    def delete(self, value: float, weight: float) -> None:
        """Remove ``weight`` at ``value``; the value goes when its weight
        reaches exactly 0."""
        weight = Fraction(weight)
        if weight == 0:
            return
        i = bisect.bisect_left(self.values, value)
        assert i < len(self.values) and self.values[i] == value, f"value {value!r} not stored"
        remaining = self.weights[i] - weight
        assert remaining >= 0, f"removing {weight} from {self.weights[i]}"
        if remaining == 0:
            del self.values[i]
            del self.weights[i]
        else:
            self.weights[i] = remaining

    def total(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    def items(self) -> list[tuple[float, float]]:
        """(value, weight) pairs, each weight rounded once to a float."""
        return [(value, float(weight)) for value, weight in zip(self.values, self.weights)]

    def quantile(self, q: float) -> float:
        """Smallest value whose exact cumulative weight reaches q * total,
        the product of q and the rounded total rounded once as a float; the
        last value when none does."""
        assert self.values
        if q <= 0.0:
            return -math.inf
        target = Fraction(q * float(self.total()))
        cum = Fraction(0)
        for value, weight in zip(self.values, self.weights):
            cum += weight
            if cum >= target:
                return value
        return self.values[-1]


# red-black node colours
RED = 0
BLACK = 1


class _Node:
    __slots__ = ("value", "weight", "sum", "color", "left", "right", "parent")

    def __init__(self, value: float, weight: int, color: int) -> None:
        self.value = value
        self.weight = weight
        self.sum = weight
        self.color = color
        self.left = self
        self.right = self
        self.parent = self


class RedBlackTree:
    """Exact weighted CDF in a sum-augmented red-black tree: the reference
    ``QuantileTree`` must equal.

    Each node carries a distinct ``value`` with a positive ``weight`` and
    ``sum``, the total weight of its subtree, all as exact ints in units of
    1/scale under the same ``_units`` rules as the package's tree; duplicate
    values merge into one node. Insert, delete, weighted quantile and CDF
    run in O(log n) by descents from the root.
    """

    def __init__(self) -> None:
        # an int sum: a float 0.0 would turn every sum through it into a float
        self._nil = _Node(math.nan, 0, BLACK)
        self._root = self._nil
        self._count = 0
        self._scale = 1
        self._fscale = 1.0  # the scale as a float, inf beyond the float range

    def __len__(self) -> int:
        return self._count

    def total_weight(self) -> float:
        """Sum of all stored weights (0 for an empty tree), rounded once."""
        return self._root.sum / self._scale

    # ------------------------------------------------------------------
    # mutation

    def _units(self, weight: float) -> int:
        """``weight`` as an int in units of 1/scale, growing the scale first
        when the weight's power-of-two denominator is finer than it.

        A weight must be nonnegative and finite; besides ints and floats, a
        number with ``as_integer_ratio`` is taken when its denominator is a
        power of two, which is the only kind a scale holds exactly.
        """
        if type(weight) is float:
            # exact while finite: the scale is a power of two
            units = weight * self._fscale
            if units.is_integer() and units >= 0.0:
                return int(units)
        elif type(weight) is int and weight >= 0:
            return weight * self._scale
        try:
            num, den = weight.as_integer_ratio()
        except (AttributeError, OverflowError, ValueError):  # inf, nan, no ratio
            raise TreeInputError(f"weight must be >= 0 and finite, got {weight!r}") from None
        if num < 0 or den & (den - 1):
            raise TreeInputError(f"weight must be >= 0 and dyadic, got {weight!r}")
        scale = self._scale
        if den > scale:
            self._rescale(den // scale)
            return num
        return num * (scale // den)

    def _rescale(self, factor: int) -> None:
        """Multiply the scale, and every stored weight and sum, by ``factor``."""
        nil = self._nil
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node is not nil:
                node.weight *= factor
                node.sum *= factor
                stack.append(node.left)
                stack.append(node.right)
        self._scale *= factor
        try:
            self._fscale = float(self._scale)
        except OverflowError:
            self._fscale = math.inf

    def insert(self, value: float, weight: float) -> None:
        """Add ``weight`` at ``value``, merging into an existing node if any.

        weight == 0 is a no-op; a negative or non-finite weight, or a
        non-finite value, is rejected with :class:`TreeInputError`.
        """
        if not math.isfinite(value):
            raise TreeInputError(f"value must be finite, got {value!r}")
        units = self._units(weight)
        if not units:
            return

        # every node on the search path holds the new mass in its subtree
        nil = self._nil
        parent = nil
        cur = self._root
        while cur is not nil:
            cur.sum += units
            parent = cur
            if value < cur.value:
                cur = cur.left
            elif value > cur.value:
                cur = cur.right
            else:
                cur.weight += units
                return

        node = _Node(value, units, RED)
        node.left = nil
        node.right = nil
        node.parent = parent
        if parent is nil:
            self._root = node
        elif value < parent.value:
            parent.left = node
        else:
            parent.right = node
        self._count += 1
        self._fix_insert(node)

    def delete(self, value: float, weight: float) -> None:
        """Remove ``weight`` from the node at ``value``.

        weight == 0 is a no-op. The node is dropped (and the tree
        rebalanced) when its weight reaches exactly 0. Raises
        :class:`ValueNotFoundError` if the value is absent and
        :class:`WeightUnderflowError` if more than the stored weight is
        removed; bad input is rejected as by :meth:`insert`.
        """
        if not math.isfinite(value):
            raise TreeInputError(f"value must be finite, got {value!r}")
        units = self._units(weight)
        if not units:
            return

        nil = self._nil
        node = self._root
        while node is not nil:
            if value < node.value:
                node = node.left
            elif value > node.value:
                node = node.right
            else:
                break
        if node is nil:
            raise ValueNotFoundError(f"value {value!r} not in tree")
        remaining = node.weight - units
        if remaining < 0:
            raise WeightUnderflowError(
                f"cannot remove weight {weight!r} from node holding "
                f"{node.weight / self._scale!r}"
            )
        if remaining:
            node.weight = remaining
            while node is not nil:
                node.sum -= units
                node = node.parent
        else:
            self._remove_node(node)
            self._count -= 1

    # ------------------------------------------------------------------
    # queries

    def query_quantile(self, q: float) -> float:
        """Smallest stored value v with F(v) >= q * total_weight().

        The product is rounded as a float once, then compared with the exact
        cumulative masses. q <= 0 returns :data:`BELOW_ALL` (no positive
        mass is admissible); q > 1 is rejected; an empty tree raises
        :class:`EmptyDistributionError`.
        """
        root = self._root
        if root is self._nil:
            raise EmptyDistributionError("quantile query on empty distribution")
        if math.isnan(q) or q > 1.0:
            raise TreeInputError(f"quantile level must be in (0, 1], got {q!r}")
        if q <= 0.0:
            return BELOW_ALL

        scale = self._scale
        level = q * (root.sum / scale)
        try:
            # exact while finite: the scale is a power of two
            target = math.ceil(level * self._fscale)
        except (OverflowError, ValueError):  # inf, or 0 * inf
            num, den = level.as_integer_ratio()
            target = -(-num * scale // den)
        # an underflowed level admits the first value, and a total rounded
        # up admits the last
        if target < 1:
            target = 1
        elif target > root.sum:
            target = root.sum
        node = root
        while True:
            left = node.left
            if left.sum >= target:
                node = left
                continue
            through = left.sum + node.weight
            if through >= target:
                return node.value
            target -= through
            node = node.right

    def cdf_at(self, t: float) -> float:
        """Normalized cumulative weight of values <= t; 0 on an empty tree."""
        root = self._root
        if root is self._nil:
            return 0.0
        nil = self._nil
        cum = 0
        node = root
        while node is not nil:
            if t < node.value:
                node = node.left
            else:
                cum += node.left.sum + node.weight
                node = node.right
        return cum / root.sum

    def cdf_below(self, t: float) -> float:
        """Normalized cumulative weight of values strictly below t."""
        root = self._root
        if root is self._nil:
            return 0.0
        nil = self._nil
        cum = 0
        node = root
        while node is not nil:
            if t <= node.value:
                node = node.left
            else:
                cum += node.left.sum + node.weight
                node = node.right
        return cum / root.sum

    def items(self) -> Iterator[tuple[float, float]]:
        """(value, weight) pairs in increasing value order; a weight is its
        exact mass rounded once, so an unmerged one is the float inserted."""
        nil = self._nil
        scale = self._scale
        stack: list[_Node] = []
        node = self._root
        while stack or node is not nil:
            while node is not nil:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node.value, node.weight / scale
            node = node.right

    def height(self) -> int:
        nil = self._nil

        def depth(node: _Node) -> int:
            if node is nil:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        return depth(self._root)

    def validate(self) -> None:
        """Check BST order, red-black shape and the exact sum recursion.

        Raises :class:`QuantileTreeError` on the first violation.
        """
        nil = self._nil
        if nil.color != BLACK or type(nil.sum) is not int or nil.sum != 0:
            raise QuantileTreeError("nil sentinel corrupted")
        scale = self._scale
        if type(scale) is not int or scale < 1 or scale & (scale - 1):
            raise QuantileTreeError(f"scale {scale!r} is not a power of two")
        if self._fscale != (float(scale) if scale.bit_length() <= 1024 else math.inf):
            raise QuantileTreeError(f"float scale {self._fscale!r} is not {scale!r}")
        root = self._root
        if root is not nil and root.color != BLACK:
            raise QuantileTreeError("root is red")

        count = 0

        def recurse(node: _Node, lo: float, hi: float) -> int:
            nonlocal count
            if node is nil:
                return 0
            count += 1
            if not (lo < node.value < hi):
                raise QuantileTreeError(f"BST order violated at {node.value!r}")
            if type(node.weight) is not int or node.weight <= 0:
                raise QuantileTreeError(
                    f"weight {node.weight!r} at {node.value!r} is not a positive int"
                )
            if node.color == RED and (node.left.color == RED or node.right.color == RED):
                raise QuantileTreeError(f"red node {node.value!r} has a red child")
            expected = node.left.sum + node.weight + node.right.sum
            if type(node.sum) is not int or node.sum != expected:
                raise QuantileTreeError(
                    f"sum recursion violated at {node.value!r}: "
                    f"{node.sum!r} != {expected!r}"
                )
            hl = recurse(node.left, lo, node.value)
            hr = recurse(node.right, node.value, hi)
            if hl != hr:
                raise QuantileTreeError(f"black heights differ below {node.value!r}")
            return hl + (1 if node.color == BLACK else 0)

        recurse(root, -math.inf, math.inf)
        if count != self._count:
            raise QuantileTreeError(f"node count {self._count} != actual {count}")

    # ------------------------------------------------------------------
    # internals

    def _refresh_up(self, node: _Node) -> None:
        nil = self._nil
        while node is not nil:
            node.sum = node.left.sum + node.weight + node.right.sum
            node = node.parent

    def _rotate(self, x: _Node, y: _Node) -> None:
        """Lift ``y``, a child of ``x``, into ``x``'s place; ``x`` becomes
        ``y``'s child on the other side and takes ``y``'s inner subtree."""
        if y is x.right:
            inner, x_other, y_other = y.left, x.left, y.right
            x.right = inner
            y.left = x
        else:
            inner, x_other, y_other = y.right, x.right, y.left
            x.left = inner
            y.right = x
        if inner is not self._nil:
            inner.parent = x
        self._transplant(x, y)
        x.parent = y
        x.sum = x_other.sum + inner.sum + x.weight
        y.sum = x.sum + y.weight + y_other.sum

    def _fix_insert(self, z: _Node) -> None:
        while z.parent.color == RED:
            parent = z.parent
            grand = parent.parent
            uncle = grand.right if parent is grand.left else grand.left
            if uncle.color == RED:
                parent.color = BLACK
                uncle.color = BLACK
                grand.color = RED
                z = grand
            else:
                if (z is parent.left) != (parent is grand.left):
                    # inner grandchild: lift it to its parent's place first
                    self._rotate(parent, z)
                    parent = z
                parent.color = BLACK
                grand.color = RED
                self._rotate(grand, parent)
                break
        self._root.color = BLACK

    def _transplant(self, u: _Node, v: _Node) -> None:
        if u.parent is self._nil:
            self._root = v
        elif u is u.parent.left:
            u.parent.left = v
        else:
            u.parent.right = v
        v.parent = u.parent

    def _minimum(self, node: _Node) -> _Node:
        while node.left is not self._nil:
            node = node.left
        return node

    def _remove_node(self, z: _Node) -> None:
        nil = self._nil
        y = z
        y_color = y.color
        if z.left is nil:
            x = z.right
            self._transplant(z, z.right)
        elif z.right is nil:
            x = z.left
            self._transplant(z, z.left)
        else:
            y = self._minimum(z.right)
            y_color = y.color
            x = y.right
            if y.parent is z:
                x.parent = y
            else:
                self._transplant(y, y.right)
                y.right = z.right
                y.right.parent = y
            self._transplant(z, y)
            y.left = z.left
            y.left.parent = y
            y.color = z.color
        # sums along the splice path are stale; rebuild bottom-up to the root
        self._refresh_up(x.parent)
        if y_color == BLACK:
            self._fix_delete(x)
        nil.parent = nil

    def _fix_delete(self, x: _Node) -> None:
        while x is not self._root and x.color == BLACK:
            parent = x.parent
            on_left = x is parent.left
            s = parent.right if on_left else parent.left
            if s.color == RED:
                s.color = BLACK
                parent.color = RED
                self._rotate(parent, s)
                s = parent.right if on_left else parent.left
            # near: the sibling's child on x's side; far: the other one
            near, far = (s.left, s.right) if on_left else (s.right, s.left)
            if near.color == BLACK and far.color == BLACK:
                s.color = RED
                x = parent
            else:
                if far.color == BLACK:
                    near.color = BLACK
                    s.color = RED
                    self._rotate(s, near)
                    s, far = near, s  # the old sibling is now the far child
                s.color = parent.color
                parent.color = BLACK
                far.color = BLACK
                self._rotate(parent, s)
                x = self._root
        x.color = BLACK


def popcount_intersection(s: int, y: int, k: int) -> int:
    """Bit-loop |S ∩ y| over k classes."""
    n = 0
    for i in range(k):
        if (s >> i) & 1 and (y >> i) & 1:
            n += 1
    return n


def popcount_difference(s: int, y: int, k: int) -> int:
    """Bit-loop |S \\ y| over k classes."""
    n = 0
    for i in range(k):
        if (s >> i) & 1 and not (y >> i) & 1:
            n += 1
    return n


def weighted_hits(s: int, y: int, w, present: bool) -> float:
    """Bit-loop sum of w[k] over k in S with y_k equal to ``present``."""
    total = 0.0
    for i in range(len(w)):
        if (s >> i) & 1 and ((y >> i) & 1) == int(present):
            total += w[i]
    return total


def gen_value(s: int, y: int) -> float:
    """Bit-loop ``gen`` score: prod (k+5)/10 + sum (k-5)^2 over k in S ∩ y,
    in ascending class order, from the empty product 1 and the sum 0."""
    prod = 1.0
    squares = 0.0
    for k in range(s.bit_length()):
        if (s >> k) & 1 and (y >> k) & 1:
            prod *= (k + 5) / 10.0
            squares += (k - 5) ** 2
    return prod + squares


def additive_proxy(kind: str, s: int, probs, weights, max_raw: float) -> float:
    """Per-set proxy of an additive kind: the class margins of S summed in
    ascending class order from 0.0. Class k's margin is p_k (value kinds)
    or 1 - p_k (cost kinds) times its unit margin u_k = w_k / max_raw * 100
    (w_k = 1 unweighted)."""
    total = 0.0
    for k in range(len(probs)):
        if (s >> k) & 1:
            unit = (1.0 if weights is None else weights[k]) / max_raw * 100.0
            total += (probs[k] if kind in ("tp", "tpc") else 1.0 - probs[k]) * unit
    return total


def additive_margins(spec, probs) -> np.ndarray:
    """Class margins of an additive kind: p_k u_k (value kinds) or
    (1 - p_k) u_k (cost kinds), as a float64 array."""
    probs = np.asarray(probs, dtype=np.float64)
    counted = 1.0 - probs if spec.is_cost else probs
    return counted * _unit_margins(spec)


def mask_scorer(value_proxy):
    """Adapter from a per-mask value proxy to a scorer of sets given as rows
    of class indices."""

    def score(rows):
        masks = [sum(1 << c for c in row) for row in rows.tolist()]
        return np.array([value_proxy(s) for s in masks], dtype=np.float64)

    return score


def greedy_ratio_sets(n_classes: int, value_proxy, cost_margins) -> tuple[list[int], list[int]]:
    """Ratio chain order and nested sets, each round scoring all remaining
    candidates with one call of the mask-array value proxy (round one also
    scores ∅). Keys, cost margins and the running value as in
    ``greedy_ratio_order``; the last class needs no scoring."""
    k = n_classes
    bits = np.uint64(1) << np.arange(k, dtype=np.uint64)
    costs = np.asarray(cost_margins, dtype=np.float64)
    order = np.arange(k)  # order[i:] holds the classes not yet added, ascending
    mask = np.uint64(0)
    sets = np.concatenate(([mask], bits))
    values = value_proxy(sets)
    v_cur = values[0]
    values = values[1:]
    for i in range(k - 1):
        if i:
            sets = mask | bits[order[i:]]
            values = value_proxy(sets)
        dv = values - v_cur
        dc = costs[order[i:]]
        free = dc <= 0.0
        if free.any():
            best = np.flatnonzero(free)[np.argmin(-dv[free])]
        else:
            best = np.argmin(-dv / dc)
        v_cur = v_cur + dv[best]
        winner = order[i + best]
        order[i + 1 : i + best + 1] = order[i : i + best]
        order[i] = winner
        mask |= bits[winner]
    chain = [0]
    for cls in order.tolist():
        chain.append(chain[-1] | 1 << cls)
    return order.tolist(), chain


def greedy_ratio_order(n_classes: int, value_proxy, cost_margins) -> list[int]:
    """Ratio chain order by scoring every candidate one set at a time with a
    per-set value proxy, its marginal cost dc its cost margin: the smallest
    key (0, -dv, cand) when dc <= 0, else (1, -dv / dc, cand), and the
    running value moved by the winner's dv."""
    order = []
    mask = 0
    v_cur = value_proxy(0)
    remaining = list(range(n_classes))
    for _ in range(n_classes):
        best_key = best = best_v = None
        for cand in remaining:
            dv = value_proxy(mask | (1 << cand)) - v_cur
            dc = float(cost_margins[cand])
            key = (0, -dv, cand) if dc <= 0.0 else (1, -dv / dc, cand)
            if best_key is None or key < best_key:
                best_key, best, best_v = key, cand, v_cur + dv
        mask |= 1 << best
        remaining.remove(best)
        order.append(best)
        v_cur = best_v
    return order


def proxy_mc(s: int, probs, true_fn, n_samples: int = 100, seed: int = 0) -> float:
    """Monte-Carlo proxy: mean of ``true_fn(S, y)`` over ``n_samples`` label
    sets y with independent Bernoulli(p_k) classes, drawn from one
    (n_samples, K) matrix of ``default_rng(seed)`` uniforms and summed in
    draw order."""
    rng = np.random.default_rng(seed)
    k = len(probs)
    draws = rng.random((n_samples, k)) < probs
    total = 0.0
    for row in draws:
        y = 0
        for i in range(k):
            if row[i]:
                y |= 1 << i
        total += true_fn(s, y)
    return total / n_samples


def max_cost_curve(universe, sample, cost_fn, proxy_fn) -> SampleRecord:
    """A candidate family's calibration record, one call per set.

    ``cost_fn(mask, labels)`` and ``proxy_fn(mask, probs)`` return normalized
    scores. The universe must start at ∅ with zero cost and zero proxy and be
    sorted by proxy cost; anything else is a precondition error.
    """
    sets = [int(s) for s in universe.sets]
    proxies = np.array([proxy_fn(s, sample.probs) for s in sets])
    if sets[0] != 0:
        raise ValueError("universe must start with the empty set")
    if proxies[0] != 0.0:
        raise ValueError("proxy cost of the empty set must be 0")
    if len(proxies) > 1 and np.min(np.diff(proxies)) < -PROXY_SORT_TOL:
        raise ValueError("universe is not sorted by proxy cost")
    costs = np.array([cost_fn(s, sample.labels) for s in sets])
    if costs[0] != 0.0:
        raise ValueError("true cost of the empty set must be 0")
    return SampleRecord(proxies, np.maximum.accumulate(costs))


def first_exceed_threshold(record: SampleRecord, target_cost: float) -> float:
    """Smallest recorded proxy cost whose running-max true cost exceeds the
    target; the above-all marker if the chain never exceeds it."""
    over = np.flatnonzero(record.max_costs > target_cost)
    if len(over) == 0:
        return ABOVE_ALL
    return float(record.proxy_costs[over[0]])


def cplus_at(record: SampleRecord, t: float) -> float:
    """Worst true cost among candidates with proxy cost strictly below t."""
    idx = int(np.searchsorted(record.proxy_costs, t, side="left")) - 1
    if idx < 0:
        return 0.0
    return float(record.max_costs[idx])


def _unit_margins(spec) -> np.ndarray:
    """u_k = w_k / max_raw * 100 of an additive kind (w_k = 1 unweighted)."""
    weights = spec.weights
    units = np.ones(spec.n_classes) if weights is None else np.asarray(weights, dtype=np.float64)
    return units / spec.max_raw * 100.0


def _doubling(margins: np.ndarray) -> np.ndarray:
    """Every mask's margins summed over its bits in ascending class order
    from 0.0, one real doubling per class, indexed by mask."""
    out = np.zeros(1 << len(margins))
    for i in range(len(margins)):
        out[1 << i : 2 << i] = out[: 1 << i] + margins[i]
    return out


def label_margin_record(universe, sample, cost_spec) -> SampleRecord:
    """A power set's calibration record from per-class margins: the proxy
    costs from (1 - p_k) u_k, the true costs from (1 - y_k) u_k with y_k the
    0/1 label. Each mask's margins are doubled up, then read in the
    universe's order; the true costs take their running max."""
    k = cost_spec.n_classes
    units = _unit_margins(cost_spec)
    labels = label_bits(sample.labels, k)

    def sums(present):
        return _doubling((1.0 - present) * units)[universe.sets]

    return SampleRecord(sums(sample.probs), np.maximum.accumulate(sums(labels)))


def two_doubling_full_universe(probs, cost_spec, value_spec):
    """A power set as one real doubling per proxy and one stable sort:
    ``(sets, proxy_costs, proxy_values)``, the sets as ``uint64`` masks in
    ascending proxy cost, equal costs in ascending mask order. The cost
    margins are (1 - p_k) u_k and an additive value kind's p_k u_k."""
    probs = np.asarray(probs, dtype=np.float64)
    costs = _doubling(additive_margins(cost_spec, probs))
    order = np.argsort(costs, kind="stable")
    values = _doubling(additive_margins(value_spec, probs))
    return order.astype(np.uint64), costs[order], values[order]


def _chain_sums(margins: np.ndarray, order) -> np.ndarray:
    """[0, m[o_1], m[o_1] + m[o_2], ...]: one ``np.cumsum`` of the margins
    along the chain's order, after a leading 0.0."""
    out = np.empty(len(order) + 1)
    out[0] = 0.0
    np.cumsum(margins[order], out=out[1:])
    return out


def chain_margin_record(order, sample, cost_spec, value_spec):
    """A chain's ``(record, proxy_values)`` from per-class margins summed
    along ``order``: the proxy costs from (1 - p_k) u_k, the true costs from
    (1 - y_k) u_k with y_k the 0/1 label, then their running max, and an
    additive value kind's proxies from p_k u_k (None for ``gen``)."""
    k = cost_spec.n_classes
    probs = np.asarray(sample.probs, dtype=np.float64)
    labels = label_bits(sample.labels, k)
    units = _unit_margins(cost_spec)
    record = SampleRecord(
        _chain_sums(additive_margins(cost_spec, probs), order),
        np.maximum.accumulate(_chain_sums((1.0 - labels) * units, order)),
    )
    if value_spec.kind == "gen":
        return record, None
    return record, _chain_sums(additive_margins(value_spec, probs), order)


def label_bits(mask: int, n_classes: int) -> np.ndarray:
    """0/1 float vector of the mask's low ``n_classes`` bits."""
    return np.array([(mask >> i) & 1 for i in range(n_classes)], dtype=np.float64)


def _class_values(spec) -> np.ndarray:
    """Each class's raw score alone against the most favorable labels: its
    weight (or 1) for an additive kind, its ``gen`` factor plus square."""
    k = spec.n_classes
    if spec.kind == "gen":
        return np.array([gen_value(1 << i, 1 << i) for i in range(k)])
    return np.ones(k) if spec.weights is None else np.asarray(spec.weights, dtype=np.float64)


def numpy_chain(kind, sample, value_spec, cost_spec):
    """A greedy chain of ``kind`` as numpy builds it: ``(order, sets,
    record, proxy_values)``, the order as ``int64`` and the sets as
    ``uint64`` arrays, the record and the additive values (None for
    ``gen``) as in ``chain_margin_record``.

    The prob and value orders are a stable ``argsort`` of the negated key.
    The additive ratio order is a stable ``argsort`` of ``(-gain) / cost``,
    or, with a free class (cost <= 0), a ``lexsort`` that puts the free
    classes first by descending gain; an overflowing ratio is inf. The
    general ratio chain (a ``gen`` value) takes ``greedy_ratio_sets``'
    order, with the same cost margins.
    """
    probs = np.asarray(sample.probs, dtype=np.float64)
    costs = additive_margins(cost_spec, probs)
    if kind == "prob":
        order = np.argsort(-probs, kind="stable")
    elif kind == "value":
        order = np.argsort(-(probs * _class_values(value_spec)), kind="stable")
    elif value_spec.kind != "gen":
        gains = probs * _class_values(value_spec)
        free = costs <= 0.0
        with np.errstate(over="ignore"):
            if free.any():
                ratios = np.divide(gains, costs, out=np.zeros_like(gains), where=~free)
                key = np.where(free, -gains, -ratios)
                order = np.lexsort((key, (~free).astype(np.int8)))
            else:
                order = np.argsort(-gains / costs, kind="stable")
    else:
        with np.errstate(over="ignore"):
            order, _ = greedy_ratio_sets(
                cost_spec.n_classes, lambda sets: value_spec.proxy_many(sets, probs), costs
            )
        order = np.array(order)
    order = order.astype(np.int64)
    sets = np.zeros(len(order) + 1, dtype=np.uint64)
    np.bitwise_or.accumulate(np.uint64(1) << order.astype(np.uint64), out=sets[1:])
    record, values = chain_margin_record(order, sample, cost_spec, value_spec)
    return order, sets, record, values


def store_of(records) -> RecordStore:
    """A store holding ``records``, all of one width, in order."""
    store = RecordStore(len(records[0].proxy_costs))
    for rec in records:
        store.append(rec.proxy_costs, rec.max_costs)
    return store


def list_threshold_expected(
    records, target_cost: float, cost_max: float
) -> float:
    """Direct search for the expected-cost threshold over the finite
    candidate grid: the largest t whose average worst-case cost, padded with
    one cost_max, stays within the target. Linear in the stored mass."""
    n = len(records)
    budget = (n + 1) * target_cost - cost_max
    values = []
    weights = []
    for rec in records:
        mc = rec.max_costs
        deltas = np.diff(mc)
        values.append(rec.proxy_costs[1:])
        weights.append(deltas)
    if budget < 0.0:
        return BELOW_ALL
    if not values:
        return ABOVE_ALL
    values = np.concatenate(values)
    weights = np.concatenate(weights)
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    idx = int(np.searchsorted(cum, budget, side="right"))
    if idx >= len(cum):
        return ABOVE_ALL
    return float(values[order][idx])


def list_threshold_violation(records, target_cost: float, delta: float) -> float:
    """Direct search for the violation threshold: scan every candidate proxy
    cost (plus the above-all plateau) and keep the largest one where enough
    samples stay within the target cost."""
    n = len(records)
    need = (1.0 - delta) * (n + 1)
    candidates = np.unique(np.concatenate([rec.proxy_costs for rec in records]))
    candidates = np.append(candidates, ABOVE_ALL)
    counts = np.zeros(len(candidates))
    for start in range(0, len(candidates), SCAN_BLOCK):
        block = slice(start, start + SCAN_BLOCK)
        for rec in records:
            idx = np.searchsorted(rec.proxy_costs, candidates[block], side="left") - 1
            cplus = np.where(idx >= 0, rec.max_costs[np.maximum(idx, 0)], 0.0)
            counts[block] += cplus <= target_cost
    admissible = np.flatnonzero(counts >= need)
    if len(admissible) == 0:
        return BELOW_ALL
    return float(candidates[admissible[-1]])


def reference_write_stream_csv(path, samples) -> None:
    """A list of samples as a stream CSV, one row built per sample; the
    class count comes from the first sample, so an empty list writes an
    empty header."""
    k = samples[0].n_classes if samples else 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"p_{i}" for i in range(k)] + [f"y_{i}" for i in range(k)])
        writer.writerows(
            [f"{p:.9f}" for p in s.probs] + [(s.labels >> i) & 1 for i in range(k)]
            for s in samples
        )


def reference_read_stream_csv(path) -> list[Sample]:
    """A stream CSV read and checked one row at a time: each row's field
    count, then its probabilities parsed by ``float`` and checked to lie in
    [0, 1], then its labels; the first failed check raises ``DataError``
    with the row's line number."""
    samples = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty stream file") from None
        k = len(header) // 2
        if k == 0 or header != [f"p_{i}" for i in range(k)] + [f"y_{i}" for i in range(k)]:
            raise DataError(f"{path}: header must be p_0..p_{{K-1}},y_0..y_{{K-1}}")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 2 * k:
                raise DataError(f"{path}:{line_no}: expected {2 * k} fields, got {len(row)}")
            try:
                probs = np.array([float(x) for x in row[:k]])
            except ValueError:
                raise DataError(f"{path}:{line_no}: bad probability") from None
            if not np.all((probs >= 0.0) & (probs <= 1.0)):
                raise DataError(f"{path}:{line_no}: probability not in [0, 1]")
            mask = 0
            for i, x in enumerate(row[k:]):
                if x == "1":
                    mask |= 1 << i
                elif x != "0":
                    raise DataError(f"{path}:{line_no}: label must be 0 or 1")
            samples.append(Sample(probs, mask))
    return samples
