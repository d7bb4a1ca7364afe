"""Exact weighted empirical CDF in a sum-augmented red-black tree.

Each node carries a point mass: a distinct ``value`` with a positive
``weight``, plus ``sum``, the total weight of its subtree. The tree as a
whole represents F(t) = sum_i w_i * 1{t >= v_i} (un-normalized; divide by
the root sum at query time), and supports insert, delete, weighted-quantile
and CDF evaluation in O(log n).

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

# A node whose weight decays to this level (floating-point decrements rarely
# reach exact zero) is removed outright.
REMOVE_EPS = 1e-12
# Relative tolerance for weight comparisons.
WEIGHT_RTOL = 1e-9


class QuantileTreeError(Exception):
    """Base class for tree errors."""


class TreeInputError(QuantileTreeError, ValueError):
    """Non-finite value, negative weight, or quantile level out of range."""


class ValueNotFoundError(QuantileTreeError, LookupError):
    """Delete of a value that is not stored."""


class WeightUnderflowError(QuantileTreeError, ValueError):
    """Delete of more weight than a node holds (beyond tolerance)."""


class EmptyDistributionError(QuantileTreeError, RuntimeError):
    """Quantile query against a tree with no mass."""


class _Node:
    __slots__ = ("value", "weight", "sum", "color", "left", "right", "parent")

    def __init__(self, value: float, weight: float, color: int) -> None:
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
    un-normalized and only divided by the root sum when answering queries.
    """

    def __init__(self) -> None:
        nil = _Node(math.nan, 0.0, BLACK)
        nil.sum = 0.0
        self._nil = nil
        self._root = nil
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def total_weight(self) -> float:
        """Sum of all stored weights (0 for an empty tree)."""
        return self._root.sum

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
        while stack:
            node = stack.pop()
            if node is not nil:
                stack.append(node.left)
                stack.append(node.right)
                node.left = node.right = node.parent = None
        nil.parent = nil  # a delete may leave it pointing at a node

    def insert(self, value: float, weight: float) -> None:
        """Add ``weight`` at ``value``, merging into an existing node if any.

        weight == 0 is a no-op; negative weight or a non-finite value is
        rejected with :class:`TreeInputError`.
        """
        if not math.isfinite(value):
            raise TreeInputError(f"value must be finite, got {value!r}")
        if not (weight >= 0.0) or math.isinf(weight):
            raise TreeInputError(f"weight must be >= 0 and finite, got {weight!r}")
        if weight == 0.0:
            return

        nil = self._nil
        parent = nil
        cur = self._root
        while cur is not nil:
            parent = cur
            if value < cur.value:
                cur = cur.left
            elif value > cur.value:
                cur = cur.right
            else:
                cur.weight += weight
                self._refresh_up(cur)
                return

        node = _Node(value, weight, RED)
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
        self._refresh_up(parent)
        self._fix_insert(node)

    def delete(self, value: float, weight: float) -> None:
        """Remove ``weight`` from the node at ``value``.

        The node is dropped (and the tree rebalanced) once its remaining
        weight is at most ``REMOVE_EPS``. That drop may take other inserts'
        weights of at most ``REMOVE_EPS`` with it, so removing such a weight
        from an absent value is a no-op, and removing it from a lighter node
        drops the node. Otherwise raises :class:`ValueNotFoundError` if the
        value is absent and :class:`WeightUnderflowError` if more than the
        stored weight is removed beyond the 1e-9 relative tolerance.
        """
        if not math.isfinite(value):
            raise TreeInputError(f"value must be finite, got {value!r}")
        if not (weight >= 0.0) or math.isinf(weight):
            raise TreeInputError(f"weight must be >= 0 and finite, got {weight!r}")

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
            if weight <= REMOVE_EPS:
                return
            raise ValueNotFoundError(f"value {value!r} not in tree")
        excess = weight - node.weight
        if weight > REMOVE_EPS and excess > WEIGHT_RTOL * max(abs(weight), abs(node.weight)):
            raise WeightUnderflowError(
                f"cannot remove weight {weight!r} from node holding {node.weight!r}"
            )

        remaining = node.weight - weight
        if remaining > REMOVE_EPS:
            node.weight = remaining
            self._refresh_up(node)
        else:
            self._remove_node(node)
            self._count -= 1

    # ------------------------------------------------------------------
    # queries

    def query_quantile(self, q: float) -> float:
        """Smallest stored value v with F(v) >= q * total_weight().

        q <= 0 returns :data:`BELOW_ALL` (no positive mass is admissible);
        q > 1 is rejected; an empty tree raises
        :class:`EmptyDistributionError`.
        """
        if self._root is self._nil:
            raise EmptyDistributionError("quantile query on empty distribution")
        if math.isnan(q) or q > 1.0:
            raise TreeInputError(f"quantile level must be in (0, 1], got {q!r}")
        if q <= 0.0:
            return BELOW_ALL

        nil = self._nil
        node = self._root
        target = q * node.sum
        while True:
            left = node.left
            if left is not nil and left.sum >= target:
                node = left
                continue
            through = left.sum + node.weight
            if through >= target or node.right is nil:
                return node.value
            target -= through
            node = node.right

    def cdf_at(self, t: float) -> float:
        """Normalized cumulative weight of values <= t; 0 on an empty tree."""
        root = self._root
        if root is self._nil:
            return 0.0
        nil = self._nil
        cum = 0.0
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
        cum = 0.0
        node = root
        while node is not nil:
            if t <= node.value:
                node = node.left
            else:
                cum += node.left.sum + node.weight
                node = node.right
        return cum / root.sum

    def items(self) -> Iterator[tuple[float, float]]:
        """(value, weight) pairs in increasing value order."""
        nil = self._nil
        stack: list[_Node] = []
        node = self._root
        while stack or node is not nil:
            while node is not nil:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node.value, node.weight
            node = node.right

    def height(self) -> int:
        nil = self._nil

        def depth(node: _Node) -> int:
            if node is nil:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        return depth(self._root)

    def validate(self) -> None:
        """Check BST order, red-black shape and the sum recursion.

        Raises :class:`QuantileTreeError` on the first violation. Sum checks
        use the 1e-9 relative weight tolerance.
        """
        nil = self._nil
        if nil.color != BLACK or nil.sum != 0.0:
            raise QuantileTreeError("nil sentinel corrupted")
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
            if node.weight <= 0.0:
                raise QuantileTreeError(f"non-positive weight at {node.value!r}")
            if node.color == RED and (node.left.color == RED or node.right.color == RED):
                raise QuantileTreeError(f"red node {node.value!r} has a red child")
            expected = node.left.sum + node.weight + node.right.sum
            tol = WEIGHT_RTOL * max(abs(expected), abs(node.sum), 1e-300)
            if abs(node.sum - expected) > tol:
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
        nil.sum = 0.0

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
