"""The append-a-layer bijection.

Appending a size-2 axis neither creates nor destroys maximal grids:
``extend_by_two`` and ``project_last`` realize the bijection, which is why
size-2 axes drop out of the closed form in ``enumeration.count_maximal``.

Both directions of the bijection read the row-interval form.  In a maximal
grid, a zero cell (x, y) of row x with y < l(x) lies strictly below some
one-cell: a one-cell strictly below it would also lie strictly below the
one-cell (x, l(x)).  Symmetrically a zero cell with y > h(x) lies strictly
above some one-cell.  So every cell of the box is a one-cell, dominated, or
dominating, and never two of these; the extended grid puts them on both
layers, layer 2 and layer 1 respectively.  For d = 1 the single row () has
the interval [i, i] of its one cell i, and the same reading applies.

The same row form decides whether the input is maximal at all
(``rowform.maximal_row_form``, as for ``is_maximal``), with no pass over
the zero cells.

The extended grid has ``max_size(w + (2,))`` cells, which can be near the
box's cell count while the input holds only ``max_size(w)``: the N x N grid
of 2N - 1 cells extends to N^2 + 2N - 1.  ``EXTEND_CELL_LIMIT`` bounds that
count before any work.
"""

from __future__ import annotations

import math

from .core import Grid, Shape, _brief, _require_type
from .errors import NotMaximalError, ShapeTooLargeError
from .rowform import maximal_row_form

# largest grid extend_by_two builds: one tuple per cell, checked by the
# public Grid constructor.  Through the CLI, 100,000 cells take about 0.5 s
# and 40 MB, 250,000 about 1 s and 80 MB, 10^6 about 4 s and 290 MB (the
# 1000 x 1000 L-grid).  The limit admits a 1-d box up to 249,999 and the
# N x N grid up to N = 499
EXTEND_CELL_LIMIT = 250_000


def extend_by_two(n: Grid) -> Grid:
    """Append a size-2 axis, sending a maximal grid to the unique maximal
    grid one dimension up.

    In row x with interval [l, h], cells in [l, h] fill both layers, cells
    below l (dominated) go on layer 2 and cells above h (dominating) on
    layer 1.  An output of more than ``EXTEND_CELL_LIMIT`` cells raises
    ``ShapeTooLargeError`` before any work.
    """
    _require_type("extend_by_two", n, "ones", "a Grid")
    dims = n.shape.dims
    # max_size(w + (2,)), without building a Shape that may pass 64 bits
    cells = 2 * n.shape.cell_count - math.prod(w - 1 for w in dims)
    if cells > EXTEND_CELL_LIMIT:
        raise ShapeTooLargeError(cells, EXTEND_CELL_LIMIT, (
            f"extending shape {_brief.repr(dims)} gives {cells} cells, "
            f"limit is {EXTEND_CELL_LIMIT} (EXTEND_CELL_LIMIT)"))
    if (m := maximal_row_form(n)) is None:
        raise NotMaximalError()
    top = dims[-1]
    ones = []
    for row, (l, h) in m.intervals.items():
        ones += [row + (y, 2) for y in range(1, h + 1)]
        ones += [row + (y, 1) for y in range(l, top + 1)]
    return Grid(Shape(dims + (2,)), ones)


def project_last(m: Grid) -> Grid:
    """Drop a size-2 last axis from a maximal grid: keep the rows filled on
    both layers, i.e. whose interval is [1, 2].  Inverse of ``extend_by_two``.
    A 1-d grid, or a last side other than 2, raises ValueError."""
    _require_type("project_last", m, "ones", "a Grid")
    if m.shape.d < 2:
        raise ValueError("project_last applies to d >= 2 only")
    if m.shape.dims[-1] != 2:
        raise ValueError("the shape must end with a dimension of size 2")
    if (form := maximal_row_form(m)) is None:
        raise NotMaximalError()
    both = [row for row, lh in form.intervals.items() if lh == (1, 2)]
    return Grid(Shape(m.shape.dims[:-1]), both)
