"""Exact weighted empirical CDF in sorted blocks, queried from cursors.

The tree stores distinct finite values, each with a positive weight, and
represents F(t) = sum_i w_i * 1{t >= v_i} (un-normalized; divide by the
total at query time). The points live in sorted blocks: a block is a plain
list of values with a parallel list of weights, and beside it the tree keeps
the block's mass (the sum of its weights) and its largest value. An insert
or delete finds its block and its place in it by ``bisect`` and touches that
block only. Each run of ``BLOCK_SIZE`` consecutive blocks also keeps its
summed mass. A block holds at most 2 * ``BLOCK_SIZE`` points: a longer one is
split in two, and one left with half of ``BLOCK_SIZE`` or fewer by a delete
is folded into a neighbour.

Masses are exact: every weight and mass is a Python int in units of
1/scale, where the scale is a power of two the tree holds. A float weight
is a dyadic rational (``as_integer_ratio()`` has a power-of-two
denominator); one with a finer denominator than the scale multiplies every
stored int by the ratio first, so the scale only grows. Integer addition
does not depend on its order, so every mass is updated in place, and a
point goes when its weight reaches exactly 0.

A quantile query returns the smallest stored v with F(v) >= a target mass.
It starts from a cursor: a value and its exact F(value), which every insert,
delete and rescale keeps current. A tree has a fixed number of cursors, one
per slot, set when it is built. Consecutive queries of one
slot mostly move a few points, so the query walks them from the cursor; a
longer move locates the target from the run masses, then the block masses,
then the block's weights, each by a running sum from its nearer end. The
answer depends only on the stored points, never on the slot or on its cursor.

Single-writer: mutations must be externally serialized. Read-only queries
between mutations are safe, except that a quantile query moves its cursor.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from typing import Iterator

#: Sentinel ordered below every finite key ("no mass admissible").
BELOW_ALL = -sys.float_info.max
#: Sentinel ordered above every finite key (stands in for +infinity).
ABOVE_ALL = sys.float_info.max

#: Points per block at a split, and blocks per summed run. A tree keeps the
#: value it was built with.
BLOCK_SIZE = 64
#: Points a quantile query walks from its cursor before it locates the
#: target from the masses instead.
WALK_LIMIT = 16


class QuantileTreeError(Exception):
    """Base class for tree errors."""


class TreeInputError(QuantileTreeError, ValueError):
    """Non-finite value, negative or non-finite weight, quantile level out
    of range, or a cursor slot or count the tree cannot hold."""


class ValueNotFoundError(QuantileTreeError, LookupError):
    """Delete of a value that is not stored."""


class WeightUnderflowError(QuantileTreeError, ValueError):
    """Delete of more weight than a point holds."""


class EmptyDistributionError(QuantileTreeError, RuntimeError):
    """Quantile query against a tree with no mass."""


class QuantileTree:
    """Weighted empirical CDF with sub-linear insert/delete/quantile/CDF.

    Duplicate values merge into one point (weights add); weights are stored
    un-normalized, as exact ints in units of 1/scale, and only divided by
    the total when answering queries.
    """

    def __init__(self, cursors: int = 1) -> None:
        if type(cursors) is not int or cursors < 1:
            raise TreeInputError(f"cursors must be an int >= 1, got {cursors!r}")
        self._load = BLOCK_SIZE
        self._cursors = cursors
        self.clear()

    def __len__(self) -> int:
        return self._count

    def total_weight(self) -> float:
        """Sum of all stored weights (0 for an empty tree), rounded once."""
        return self._total / self._scale

    # ------------------------------------------------------------------
    # mutation

    def clear(self) -> None:
        """Remove every stored value, leaving an empty tree with the block
        size and the cursors it was built with, each back below every value."""
        self._values: list[list[float]] = []
        self._weights: list[list[int]] = []
        self._masses: list[int] = []  # per block
        self._maxes: list[float] = []  # per block: its last value
        self._runs: list[int] = []  # per run of self._load blocks
        self._total = 0
        self._count = 0
        self._scale = 1
        self._fscale = 1.0  # the scale as a float, inf beyond the float range
        # per slot: a value and the exact mass at or below it
        self._cursor_values = [-math.inf] * self._cursors
        self._cursor_masses = [0] * self._cursors

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
        """Multiply the scale, and every stored weight and mass, by ``factor``."""
        for weights in self._weights:
            weights[:] = [w * factor for w in weights]
        for masses in (self._masses, self._runs, self._cursor_masses):
            masses[:] = [m * factor for m in masses]
        self._total *= factor
        self._scale *= factor
        try:
            self._fscale = float(self._scale)
        except OverflowError:
            self._fscale = math.inf

    def insert(self, value: float, weight: float) -> None:
        """Add ``weight`` at ``value``, merging into an existing point if any.

        weight == 0 is a no-op; a negative or non-finite weight, or a
        non-finite value, is rejected with :class:`TreeInputError`.
        """
        if not math.isfinite(value):
            raise TreeInputError(f"value must be finite, got {value!r}")
        units = self._units(weight)
        if not units:
            return

        maxes = self._maxes
        b = bisect_left(maxes, value)
        if b == len(maxes):
            # above every stored value: the last block takes it
            if b:
                b -= 1
            else:
                self._values.append([])
                self._weights.append([])
                self._masses.append(0)
                self._runs.append(0)
                maxes.append(value)
            values = self._values[b]
            values.append(value)
            self._weights[b].append(units)
            maxes[b] = value
            self._count += 1
        else:
            values = self._values[b]
            i = bisect_left(values, value)
            if values[i] == value:
                self._weights[b][i] += units
            else:
                values.insert(i, value)
                self._weights[b].insert(i, units)
                self._count += 1
        self._masses[b] += units
        self._runs[b // self._load] += units
        self._total += units
        cursor_masses = self._cursor_masses
        for j, at in enumerate(self._cursor_values):
            if value <= at:
                cursor_masses[j] += units
        if len(values) > 2 * self._load:
            self._split(b)

    def delete(self, value: float, weight: float) -> None:
        """Remove ``weight`` from the point at ``value``.

        weight == 0 is a no-op. The point is dropped when its weight reaches
        exactly 0. Raises :class:`ValueNotFoundError` if the value is absent
        and :class:`WeightUnderflowError` if more than the stored weight is
        removed; bad input is rejected as by :meth:`insert`.
        """
        if not math.isfinite(value):
            raise TreeInputError(f"value must be finite, got {value!r}")
        units = self._units(weight)
        if not units:
            return

        b = bisect_left(self._maxes, value)
        if b < len(self._maxes):
            values = self._values[b]
            i = bisect_left(values, value)
        if b == len(self._maxes) or values[i] != value:
            raise ValueNotFoundError(f"value {value!r} not in tree")
        weights = self._weights[b]
        remaining = weights[i] - units
        if remaining < 0:
            raise WeightUnderflowError(
                f"cannot remove weight {weight!r} from point holding "
                f"{weights[i] / self._scale!r}"
            )
        self._masses[b] -= units
        self._runs[b // self._load] -= units
        self._total -= units
        cursor_masses = self._cursor_masses
        for j, at in enumerate(self._cursor_values):
            if value <= at:
                cursor_masses[j] -= units
        if remaining:
            weights[i] = remaining
            return
        del values[i]
        del weights[i]
        self._count -= 1
        if len(values) > self._load >> 1:
            self._maxes[b] = values[-1]
        else:
            self._merge(b)

    # ------------------------------------------------------------------
    # queries

    def query_quantile(self, q: float, slot: int = 0) -> float:
        """Smallest stored value v with F(v) >= q * total_weight().

        The product is rounded as a float once, then compared with the exact
        cumulative masses. q <= 0 returns :data:`BELOW_ALL` (no positive
        mass is admissible); q > 1 is rejected; an empty tree raises
        :class:`EmptyDistributionError`. The search starts from the cursor
        of ``slot``, which indexes the tree's cursors as a list index does,
        and leaves it at the answer; the answer does not depend on the slot.
        """
        total = self._total
        if not total:
            raise EmptyDistributionError("quantile query on empty distribution")
        if math.isnan(q) or q > 1.0:
            raise TreeInputError(f"quantile level must be in (0, 1], got {q!r}")
        if q <= 0.0:
            return BELOW_ALL

        scale = self._scale
        level = q * (total / scale)
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
        elif target > total:
            target = total
        return self._seek(target, slot)

    def _seek(self, target: int, slot: int) -> float:
        """Smallest stored v with F(v) >= ``target`` (1 <= target <= total),
        walked from the cursor of ``slot``, which is left at v."""
        cursor_values = self._cursor_values
        cursor_masses = self._cursor_masses
        try:
            at, mass = cursor_values[slot], cursor_masses[slot]
        except (IndexError, TypeError):
            raise TreeInputError(
                f"cursor slot must index the tree's {len(cursor_values)} cursors, got {slot!r}"
            ) from None
        value, mass = self._walk(target, at, mass) or self._locate(target)
        cursor_values[slot] = value
        cursor_masses[slot] = mass
        return value

    def _walk(self, target: int, at: float, mass: int) -> tuple[float, int] | None:
        """The smallest stored v with F(v) >= ``target`` and F(v), walked
        point by point from a cursor at ``at`` holding F(at) = ``mass``;
        None when v is more than a block's mass or :data:`WALK_LIMIT`
        points away."""
        blocks = self._values
        block_weights = self._weights
        b = bisect_left(self._maxes, at)
        if b == len(blocks):
            b -= 1
            values = blocks[b]
            i = len(values)
        else:
            values = blocks[b]
            i = bisect_right(values, at)
        if abs(target - mass) > self._masses[b]:
            return None
        weights = block_weights[b]
        # values[:i] are the block's points at or below the cursor, and mass
        # is F at the last stored point at or below it
        if mass < target:
            # the next point up has F = mass + its weight
            for _ in range(WALK_LIMIT):
                if i == len(values):
                    b += 1
                    values = blocks[b]
                    weights = block_weights[b]
                    i = 0
                mass += weights[i]
                if mass >= target:
                    return values[i], mass
                i += 1
        else:
            # values[i - 1] has F = mass >= target: step down while the point
            # below it reaches the target too
            for _ in range(WALK_LIMIT):
                if not i:
                    b -= 1
                    values = blocks[b]
                    weights = block_weights[b]
                    i = len(values)
                below = mass - weights[i - 1]
                if below < target:
                    return values[i - 1], mass
                mass = below
                i -= 1
        return None

    def _locate(self, target: int) -> tuple[float, int]:
        """The smallest stored v with F(v) >= ``target`` and F(v), found
        among the runs by their masses, then among one run's blocks by
        theirs, then among one block's points."""
        runs, masses, load = self._runs, self._masses, self._load
        k, through = _reach(runs, 0, len(runs), 0, self._total, target)
        lo = k * load
        b, through = _reach(
            masses, lo, min(lo + load, len(masses)), through - runs[k], runs[k], target
        )
        weights = self._weights[b]
        i, through = _reach(weights, 0, len(weights), through - masses[b], masses[b], target)
        return self._values[b][i], through

    def _mass_before(self, b: int, i: int) -> int:
        """Exact mass of the points before point ``i`` of block ``b``."""
        load = self._load
        k = b // load
        mass = sum(self._runs[:k]) + sum(self._masses[k * load : b])
        if i:
            mass += sum(self._weights[b][:i])
        return mass

    def cdf_at(self, t: float) -> float:
        """Normalized cumulative weight of values <= t; 0 on an empty tree."""
        if not self._total:
            return 0.0
        b = bisect_right(self._maxes, t)
        i = bisect_right(self._values[b], t) if b < len(self._values) else 0
        return self._mass_before(b, i) / self._total

    def cdf_below(self, t: float) -> float:
        """Normalized cumulative weight of values strictly below t."""
        if not self._total:
            return 0.0
        b = bisect_left(self._maxes, t)
        i = bisect_left(self._values[b], t) if b < len(self._values) else 0
        return self._mass_before(b, i) / self._total

    def items(self) -> Iterator[tuple[float, float]]:
        """(value, weight) pairs in increasing value order; a weight is its
        exact mass rounded once, so an unmerged one is the float inserted."""
        scale = self._scale
        for values, weights in zip(self._values, self._weights):
            for value, weight in zip(values, weights):
                yield value, weight / scale

    def height(self) -> int:
        """Levels a located point sits below: runs, blocks and points; 0 for
        an empty tree."""
        return 3 if self._count else 0

    def validate(self) -> None:
        """Check the block order and sizes, every mass against a recount, and
        every cursor's mass against a recount of the points at or below it.

        Raises :class:`QuantileTreeError` on the first violation.
        """
        scale = self._scale
        if type(scale) is not int or scale < 1 or scale & (scale - 1):
            raise QuantileTreeError(f"scale {scale!r} is not a power of two")
        if self._fscale != (float(scale) if scale.bit_length() <= 1024 else math.inf):
            raise QuantileTreeError(f"float scale {self._fscale!r} is not {scale!r}")
        blocks, load = self._values, self._load
        n_blocks = len(blocks)
        if not len(self._weights) == len(self._masses) == len(self._maxes) == n_blocks:
            raise QuantileTreeError("block lists differ in length")
        points = []
        for b, (values, weights) in enumerate(zip(blocks, self._weights)):
            if not 0 < len(values) <= 2 * load or len(weights) != len(values):
                raise QuantileTreeError(
                    f"block {b} holds {len(values)} values, {len(weights)} weights"
                )
            if self._maxes[b] != values[-1]:
                raise QuantileTreeError(f"block {b}'s max {self._maxes[b]!r} is not {values[-1]!r}")
            if self._masses[b] != sum(weights):
                raise QuantileTreeError(f"block {b}'s mass {self._masses[b]!r} is not its sum")
            points.extend(zip(values, weights))
        last = -math.inf
        for value, weight in points:
            if not (last < value < math.inf):
                raise QuantileTreeError(f"value order violated at {value!r}")
            if type(weight) is not int or weight <= 0:
                raise QuantileTreeError(f"weight {weight!r} at {value!r} is not a positive int")
            last = value
        runs = [sum(self._masses[lo : lo + load]) for lo in range(0, n_blocks, load)]
        if self._runs != runs:
            raise QuantileTreeError(f"run masses {self._runs!r} are not {runs!r}")
        if self._total != sum(self._masses) or type(self._total) is not int:
            raise QuantileTreeError(f"total {self._total!r} is not the sum of the blocks")
        if self._count != len(points):
            raise QuantileTreeError(f"count {self._count} != actual {len(points)}")
        if not len(self._cursor_masses) == len(self._cursor_values) == self._cursors:
            raise QuantileTreeError(f"cursor lists are not {self._cursors} long")
        for slot, (at, mass) in enumerate(zip(self._cursor_values, self._cursor_masses)):
            recount = sum(weight for value, weight in points if value <= at)
            if type(mass) is not int or mass != recount:
                raise QuantileTreeError(f"cursor {slot} at {at!r} holds {mass!r}, not {recount!r}")

    # ------------------------------------------------------------------
    # internals

    def _resum(self, b: int) -> None:
        """Recompute the run masses from block ``b``'s run on, after blocks
        moved."""
        load = self._load
        masses = self._masses
        k = b // load
        self._runs[k:] = [sum(masses[lo : lo + load]) for lo in range(k * load, len(masses), load)]

    def _split(self, b: int) -> None:
        """Move the points of block ``b`` past the first ``load`` into a new
        block after it."""
        load = self._load
        values, weights = self._values[b], self._weights[b]
        high = weights[load:]
        self._values.insert(b + 1, values[load:])
        self._weights.insert(b + 1, high)
        del values[load:]
        del weights[load:]
        mass = sum(high)
        self._masses[b] -= mass
        self._masses.insert(b + 1, mass)
        self._maxes.insert(b, values[-1])
        self._resum(b)

    def _merge(self, b: int) -> None:
        """Fold block ``b``, left short by a delete, into its left neighbour
        (block 0 takes block 1 in), splitting the result when it is too long;
        an only block stays while it holds a point."""
        blocks = self._values
        if len(blocks) == 1:
            if blocks[0]:
                self._maxes[0] = blocks[0][-1]
            else:
                del blocks[0], self._weights[0], self._masses[0], self._maxes[0], self._runs[0]
            return
        b = b or 1
        self._values[b - 1].extend(self._values[b])
        self._weights[b - 1].extend(self._weights[b])
        self._masses[b - 1] += self._masses[b]
        del blocks[b], self._weights[b], self._masses[b], self._maxes[b]
        self._maxes[b - 1] = blocks[b - 1][-1]
        if len(blocks[b - 1]) > 2 * self._load:
            self._split(b - 1)
        else:
            self._resum(b - 1)


def _reach(xs: list[int], lo: int, hi: int, base: int, mass: int, target: int) -> tuple[int, int]:
    """The first j in [lo, hi) with base + sum(xs[lo : j + 1]) >= target, and
    that sum, where base < target <= base + mass and mass = sum(xs[lo:hi]).
    Walked from whichever end the target's mass is nearer."""
    if target - base <= base + mass - target:
        for j in range(lo, hi):
            base += xs[j]
            if base >= target:
                return j, base
    through = base + mass
    for j in range(hi - 1, lo - 1, -1):
        below = through - xs[j]
        if below < target:
            return j, through
        through = below
    raise QuantileTreeError(f"no point reaches mass {target!r}")
