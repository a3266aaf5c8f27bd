"""Cells, shapes, grids, the strict dominance order, and the size law.

A grid is a binary d-dimensional matrix over a box of dimensions
w = (w_1, ..., w_d), identified with the set of its one-cells.  The forbidden
configuration is a pair of one-cells p, q with p strictly below q in every
coordinate (for d = 1, any two distinct one-cells).  Grids avoiding it
are exactly the antichains of the box under strict dominance; grids where no
further cell can be turned on are the maximal ones, and all of them share the
same weight ``max_size``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, product
from operator import ne
from typing import Iterator, Sequence

from .errors import DimensionMismatchError

Cell = tuple[int, ...]

# shapes whose total cell count does not fit an unsigned 64-bit integer are
# rejected outright; everything downstream may then use exact arithmetic
_MAX_CELLS = 2**64 - 1

# per-run bounds of verification.verify_shape (and so of `maxac verify`): the
# sampled non-maximal grids are all held at once, and every trial plays three
# games.  They live here so the CLI parser reads them without importing
# verification.
VERIFY_SAMPLE_LIMIT = 10_000
VERIFY_TRIAL_LIMIT = 10_000


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class Shape:
    """Box dimensions w = (w_1, ..., w_d); coordinate i ranges over [1, w_i]."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise ValueError("a shape needs at least one dimension")
        for w in dims:
            if not _is_int(w) or w < 1:
                raise ValueError(f"dimensions must be positive integers, got {w!r}")
        if math.prod(dims) > _MAX_CELLS:
            raise OverflowError("total cell count exceeds the 64-bit range")

    @property
    def d(self) -> int:
        return len(self.dims)

    @cached_property
    def cell_count(self) -> int:
        return math.prod(self.dims)

    def iter_cells(self) -> Iterator[Cell]:
        """All cells in ascending lexicographic order."""
        return product(*(range(1, w + 1) for w in self.dims))

    def iter_rows(self) -> Iterator[tuple[int, ...]]:
        """All last-axis row indices (the first d-1 coordinates), ascending."""
        return product(*(range(1, w + 1) for w in self.dims[:-1]))

    def contains_cell(self, cell) -> bool:
        return (
            isinstance(cell, tuple)
            and len(cell) == self.d
            and all(_is_int(x) and 1 <= x <= w for x, w in zip(cell, self.dims))
        )


@dataclass(frozen=True)
class Grid:
    """Binary grid over a box, stored as the sorted tuple of its one-cells.

    Construction rejects a cell of the wrong length (DimensionMismatchError),
    a coordinate that is not an ``int`` or is a ``bool``, a cell outside the
    box, and a duplicate cell (ValueError).  It names the first cell, in
    sorted order, of the wrong length, with a bad coordinate or outside the
    box; only when there is none does it name the first duplicate.  The
    check is one column-wise pass over the sorted cells; only an input it
    rejects, or one with ``int`` subclasses such as ``IntEnum``, is walked
    cell by cell.
    """

    shape: Shape
    ones: tuple[Cell, ...] = field(default=())

    def __post_init__(self):
        cells = tuple(sorted(map(tuple, self.ones)))
        object.__setattr__(self, "ones", cells)
        dims = self.shape.dims
        # the per-cell loop below runs only when this pass fails
        if not cells or (
            set(map(len, cells)) == {len(dims)}
            and all(
                set(map(type, col)) == {int} and min(col) >= 1 and max(col) <= w
                for col, w in zip(zip(*cells), dims)
            )
            and len(set(cells)) == len(cells)
        ):
            return
        for c in cells:
            if len(c) != self.shape.d:
                raise DimensionMismatchError(
                    f"cell {c} has {len(c)} coordinates, shape has {self.shape.d}"
                )
            if not self.shape.contains_cell(c):
                raise ValueError(f"cell {c} lies outside the box {self.shape.dims}")
        for a, b in zip(cells, cells[1:]):
            if a == b:
                raise ValueError(f"duplicate cell {a}")

    @cached_property
    def one_set(self) -> frozenset[Cell]:
        return frozenset(self.ones)

    def to_json_obj(self) -> dict:
        return {"w": list(self.shape.dims), "ones": [list(c) for c in self.ones]}

    @classmethod
    def from_json_obj(cls, obj) -> "Grid":
        if not isinstance(obj, dict) or "w" not in obj or "ones" not in obj:
            raise ValueError('grid JSON must be an object with "w" and "ones"')
        dims, ones = obj["w"], obj["ones"]
        if not isinstance(dims, list) or not isinstance(ones, list):
            raise ValueError('"w" and "ones" must be arrays')
        # exactly list and int, as json.loads builds them (so never bool)
        if not (
            set(map(type, ones)) <= {list}
            and set(map(type, chain.from_iterable(ones))) <= {int}
        ):
            raise ValueError('"ones" must be an array of integer coordinate arrays')
        return cls(Shape(tuple(dims)), ones)


def strictly_below(a: Cell, b: Cell) -> bool:
    """True iff every coordinate of ``a`` is strictly less than ``b``'s."""
    if len(a) != len(b):
        raise DimensionMismatchError(f"{len(a)}-dim vector vs {len(b)}-dim vector")
    return all(x < y for x, y in zip(a, b))


def comparable(a: Cell, b: Cell) -> bool:
    """True iff one of ``a``, ``b`` lies strictly below the other, i.e. the
    two cells cannot both be on.  Any two distinct cells of a 1-d box are."""
    return strictly_below(a, b) or strictly_below(b, a)


def contains_forbidden(g: Grid) -> bool:
    """Whether some one-cell strictly dominates another."""
    ones = g.ones
    # ones are sorted, so dominance can only point forward
    for i, p in enumerate(ones):
        for q in ones[i + 1 :]:
            if strictly_below(p, q):
                return True
    return False


def weight(g: Grid) -> int:
    """Number of one-cells."""
    return len(g.ones)


def flip_creates_containment(g: Grid, cell: Cell) -> bool:
    """Would turning on a zero cell introduce the forbidden configuration?

    Assumes ``g`` itself avoids it and ``cell`` is currently off.
    """
    return any(comparable(p, cell) for p in g.ones)


# keyed by dims, so the thousands of is_maximal calls of one verify run share
# one box; the cells and strides are tuples, and no caller mutates them
@lru_cache(maxsize=32)
def _box(dims: tuple[int, ...]) -> tuple[tuple[Cell, ...], tuple[int, ...]]:
    cells = tuple(product(*(range(1, w + 1) for w in dims)))
    strides = tuple(math.prod(dims[k + 1:]) for k in range(len(dims)))
    return cells, strides


def _layout(shape: Shape) -> tuple[tuple[Cell, ...], tuple[int, ...], bytearray]:
    """The box in flat row-major (that is, lexicographic) order: its cells,
    the stride of each axis, and a fresh alive flag per cell, all set."""
    cells, strides = _box(shape.dims)
    return cells, strides, bytearray(b"\x01") * len(cells)


def _turn_on(cells: Sequence[Cell], strides: Sequence[int], alive: bytearray,
             j: int) -> list[int]:
    """Turn on the alive cell ``j`` = x and return the flat indices it kills:
    x, and a flood over unit steps ``+e_i`` from ``x + (1,...,1)`` and
    ``-e_i`` from ``x - (1,...,1)`` (bounded by the last and first cells)
    that stops at dead cells.  A cell is alive while its flip keeps the grid
    clean; a dead ``y > x`` is dead through a one-cell ``q < y`` (one above
    ``y`` would lie above the alive x), so all above ``y`` is dead too.  The
    alive cells above x thus form a down-set that the flood kills in full;
    likewise below.  Each cell dies once, at O(d) flood steps."""
    alive[j] = 0
    killed = [j]
    for stop, steps in ((cells[-1], strides), (cells[0], [-s for s in strides])):
        stack = [j + sum(steps)] if all(map(ne, cells[j], stop)) else []
        while stack:
            i = stack.pop()
            if alive[i]:
                alive[i] = 0
                killed.append(i)
                stack += [i + s for c, e, s in zip(cells[i], stop, steps) if c != e]
    return killed


def is_maximal(g: Grid) -> bool:
    """Avoids the forbidden configuration, and every zero flip would create
    it: ``_turn_on`` finds no one-cell dead and leaves no cell alive, O(n d)."""
    cells, strides, alive = _layout(g.shape)
    for p in g.ones:
        j = sum((c - 1) * s for c, s in zip(p, strides))
        if not alive[j]:
            return False
        _turn_on(cells, strides, alive, j)
    return not any(alive)


def max_size(s: Shape) -> int:
    """Weight shared by every maximal grid: prod(w_i) - prod(w_i - 1).

    Equivalently, the number of cells with at least one coordinate equal to 1
    (and also the number with at least one coordinate equal to its w_i).
    """
    return math.prod(s.dims) - math.prod(w - 1 for w in s.dims)
