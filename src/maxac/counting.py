"""Closed-form counts and the append-a-layer bijection.

For two dimensions the number of maximal grids is the binomial
C(w1 + w2 - 2, w1 - 1).  Appending a dimension of size 2 neither creates nor
destroys maximal grids: ``extend_by_two`` and ``project_last`` realize the
bijection explicitly, which pins the count at min(w_i) whenever every
dimension is 1 or 2.

Both directions read the row-interval form.  In a maximal grid, a zero cell
(x, y) of row x with y < l(x) lies strictly below some one-cell: a one-cell
strictly below it would also lie strictly below the one-cell (x, l(x)).
Symmetrically a zero cell with y > h(x) lies strictly above some one-cell.
So every cell of the box is a one-cell, dominated, or dominating, and never
two of these; the extended grid puts them on both layers, layer 2 and layer 1
respectively.  For d = 1 the single row () has the interval [i, i] of its one
cell i, and the same reading applies.

The same row form decides whether the input is maximal at all: for d >= 2 a
grid is maximal exactly when its rows are nonempty contiguous segments that
satisfy the h- and l-rules (``rowform``), one O(rows * d) sweep that needs
no pass over the zero cells.
"""

from __future__ import annotations

import math

from .core import Grid, Shape, is_maximal
from .errors import (EmptyRowError, NonContiguousRowError, NotMaximalError,
                     PreconditionViolatedError)
from .rowform import IntervalMap, check_characterization, to_intervals


def count_2d(w1: int, w2: int) -> int:
    """Number of maximal grids over a two-dimensional w1 x w2 box."""
    if w1 < 1 or w2 < 1:
        raise ValueError("dimensions must be positive")
    return math.comb(w1 + w2 - 2, w1 - 1)


def _maximal_row_form(g: Grid) -> IntervalMap:
    """The row form of ``g``, or NotMaximalError if ``g`` is not maximal.

    For d >= 2 an empty or gapped row, or a row breaking the h- or l-rule,
    certifies non-maximality in one O(rows * d) sweep; d = 1, where the
    rules do not apply, asks ``is_maximal``.
    """
    if g.shape.d == 1:
        if not is_maximal(g):
            raise NotMaximalError()
        return to_intervals(g)
    try:
        m = to_intervals(g)
    except (EmptyRowError, NonContiguousRowError):
        raise NotMaximalError() from None
    if not check_characterization(m):
        raise NotMaximalError()
    return m


def extend_by_two(n: Grid) -> Grid:
    """Append a size-2 axis, sending a maximal grid to the unique maximal
    grid one dimension up.

    In row x with interval [l, h], cells in [l, h] fill both layers, cells
    below l (dominated) go on layer 2 and cells above h (dominating) on
    layer 1.
    """
    top = n.shape.dims[-1]
    ones = []
    for row, (l, h) in _maximal_row_form(n).intervals.items():
        ones += [row + (y, 2) for y in range(1, h + 1)]
        ones += [row + (y, 1) for y in range(l, top + 1)]
    return Grid(Shape(n.shape.dims + (2,)), ones)


def project_last(m: Grid) -> Grid:
    """Drop a size-2 last axis from a maximal grid: keep the rows filled on
    both layers, i.e. whose interval is [1, 2].  Inverse of ``extend_by_two``."""
    if m.shape.d < 2 or m.shape.dims[-1] != 2:
        raise ValueError("the shape must end with a dimension of size 2")
    both = [row for row, lh in _maximal_row_form(m).intervals.items() if lh == (1, 2)]
    return Grid(Shape(m.shape.dims[:-1]), both)


def count_all_le2(s: Shape) -> int:
    """Count of maximal grids when every dimension is 1 or 2: min(w_i)."""
    if max(s.dims) > 2:
        raise PreconditionViolatedError(
            f"every dimension must be at most 2, got {s.dims}"
        )
    return min(s.dims)
