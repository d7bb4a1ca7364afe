"""Exact weighted empirical CDF in a sum-augmented red-black tree.

Each node carries a point mass: a distinct ``value`` with a positive
``weight``, plus ``sum``, the total weight of its subtree. The tree as a
whole represents F(t) = sum_i w_i * 1{t >= v_i} (un-normalized; divide by
the root sum at query time), and supports insert, delete, weighted-quantile
and CDF evaluation in O(log n).

Masses are exact: every weight and sum is a Python int in units of
1/scale, where the scale is a power of two the tree holds. A float weight
is a dyadic rational (``as_integer_ratio()`` has a power-of-two
denominator); one with a finer denominator than the scale multiplies every
stored int by the ratio first, so the scale only grows. Integer addition
does not depend on its order, so an insert adds its weight to each sum on
the way down, and a node goes when its weight reaches exactly 0.

Single-writer: mutations must be externally serialized. Read-only queries
between mutations are safe.
"""

from __future__ import annotations

import math
import sys
from typing import Iterator

RED = 0
BLACK = 1

#: Sentinel ordered below every finite key ("no mass admissible").
BELOW_ALL = -sys.float_info.max
#: Sentinel ordered above every finite key (stands in for +infinity).
ABOVE_ALL = sys.float_info.max


class QuantileTreeError(Exception):
    """Base class for tree errors."""


class TreeInputError(QuantileTreeError, ValueError):
    """Non-finite value, negative or non-finite weight, or quantile level
    out of range."""


class ValueNotFoundError(QuantileTreeError, LookupError):
    """Delete of a value that is not stored."""


class WeightUnderflowError(QuantileTreeError, ValueError):
    """Delete of more weight than a node holds."""


class EmptyDistributionError(QuantileTreeError, RuntimeError):
    """Quantile query against a tree with no mass."""


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


class QuantileTree:
    """Weighted empirical CDF with logarithmic insert/delete/quantile/CDF.

    Duplicate values merge into one node (weights add); weights are stored
    un-normalized, as exact ints in units of 1/scale, and only divided by
    the root sum when answering queries.
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

    def clear(self) -> None:
        """Remove every stored value, leaving an empty tree.

        Each node links to its parent, so a dropped tree is cyclic garbage
        that lives until the cyclic collector runs. Unlinking the nodes here
        lets reference counting free them at once.
        """
        nil = self._nil
        stack = [self._root]
        self._root = nil
        self._count = 0
        self._scale = 1
        self._fscale = 1.0
        while stack:
            node = stack.pop()
            if node is not nil:
                stack.append(node.left)
                stack.append(node.right)
                node.left = node.right = node.parent = None
        nil.parent = nil  # a delete may leave it pointing at a node

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
