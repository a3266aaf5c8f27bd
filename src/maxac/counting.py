"""Closed-form counts and the append-a-layer bijection.

``count_closed_form`` is one reduction: a size-1 axis (d >= 2) leaves one
maximal grid; appending a size-2 axis neither creates nor destroys maximal
grids (``extend_by_two`` and ``project_last`` realize the bijection), so
those axes drop out; what is left is ``w`` for one axis, the binomial
C(w1 + w2 - 2, w1 - 1) for two and MacMahon's box formula for three.  The
first two are MacMahon's product with the missing sides set to 1 (a size-2
axis), so one product serves all three.

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
"""

from __future__ import annotations

import math

from .core import Grid, Shape, _brief, _print_limit, _printable
from .errors import NotMaximalError, PreconditionViolatedError
from .rowform import maximal_row_form


def count_closed_form(shape: Shape) -> int:
    """Number of maximal grids over ``shape`` by the closed forms.

    Raises PreconditionViolatedError when more than three axes exceed 2 and
    no axis is 1, and ValueError when the count has more digits than the
    interpreter prints (``sys.get_int_max_str_digits``; 0, or no such
    function, means no limit), before any work if it surely has.
    """
    if 1 in shape.dims:
        return 1
    sides = sorted(w - 1 for w in shape.dims if w > 2)
    if len(sides) > 3:
        raise PreconditionViolatedError(
            f"no closed form applies to shape {_brief.repr(shape.dims)}: "
            f"{len(sides)} axes exceed 2, the closed forms cover at most 3")
    a, b, c = [1] * (3 - len(sides)) + sides
    limit = _print_limit()
    value = None
    # MacMahon: the product over i <= a, j <= b of (t + c) / t with
    # t = i + j - 1, grouped by t; t = a + b - 1 gives the least of the a * b
    # factors, and the margin of one digit dwarfs the float error
    if not limit or a * b * math.log10((a + b + c - 1) / (a + b - 1)) <= limit + 1:
        powers = [(t, min(t, a, b, a + b - t)) for t in range(1, a + b)]
        value = (math.prod((t + c) ** k for t, k in powers)
                 // math.prod(t**k for t, k in powers))
    return _printable(shape.dims, value)


def extend_by_two(n: Grid) -> Grid:
    """Append a size-2 axis, sending a maximal grid to the unique maximal
    grid one dimension up.

    In row x with interval [l, h], cells in [l, h] fill both layers, cells
    below l (dominated) go on layer 2 and cells above h (dominating) on
    layer 1.
    """
    if (m := maximal_row_form(n)) is None:
        raise NotMaximalError()
    top = n.shape.dims[-1]
    ones = []
    for row, (l, h) in m.intervals.items():
        ones += [row + (y, 2) for y in range(1, h + 1)]
        ones += [row + (y, 1) for y in range(l, top + 1)]
    return Grid(Shape(n.shape.dims + (2,)), ones)


def project_last(m: Grid) -> Grid:
    """Drop a size-2 last axis from a maximal grid: keep the rows filled on
    both layers, i.e. whose interval is [1, 2].  Inverse of ``extend_by_two``."""
    if m.shape.d < 2 or m.shape.dims[-1] != 2:
        raise ValueError("the shape must end with a dimension of size 2")
    if (form := maximal_row_form(m)) is None:
        raise NotMaximalError()
    both = [row for row, lh in form.intervals.items() if lh == (1, 2)]
    return Grid(Shape(m.shape.dims[:-1]), both)
