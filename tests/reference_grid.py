"""Grid validation as it is defined, cell by cell: a test-only oracle.

``validate`` sorts the cells and then tests each one in turn: its length,
then every coordinate for being an ``int`` (``bool`` excluded, subclasses
such as ``IntEnum`` admitted) inside ``[1, w_i]``; then adjacent cells for
duplicates.  It raises for the first offending cell in that order.  It
shares none of the column-wise pass in ``maxac.core.Grid``, and the tests
require both to accept the same inputs and to raise the same exception
types with the same messages.
"""

from __future__ import annotations

from maxac import DimensionMismatchError, Shape
from maxac.core import Cell, _brief


def _in_box(cell: Cell, dims: tuple[int, ...]) -> bool:
    return all(
        isinstance(x, int) and not isinstance(x, bool) and 1 <= x <= w
        for x, w in zip(cell, dims)
    )


def validate(shape: Shape, ones) -> tuple[Cell, ...]:
    """The sorted cells of a valid grid over ``shape``; raises otherwise."""
    cells = tuple(sorted(tuple(c) for c in ones))
    for c in cells:
        if len(c) != shape.d:
            raise DimensionMismatchError(
                f"cell {_brief.repr(c)} has {len(c)} coordinates, shape has {shape.d}"
            )
        if not _in_box(c, shape.dims):
            raise ValueError(f"cell {_brief.repr(c)} lies outside the box "
                             f"{_brief.repr(shape.dims)}")
    for a, b in zip(cells, cells[1:]):
        if a == b:
            raise ValueError(f"duplicate cell {_brief.repr(a)}")
    return cells
