"""The flood of ``maxac.core._turn_on`` worked out from coordinates: a
test-only oracle.

Each flooded cell finds its neighbours from its own coordinates, comparing
them with the box's last (upward) or first (downward) cell.  It shares none
of the step table ``maxac.core._steps`` that the library floods with, and
the tests require both to kill the same cells from every start.
"""

from __future__ import annotations

from operator import ne
from typing import Sequence

from maxac import Cell, Shape
from maxac.core import _box


def layout(shape: Shape) -> tuple[tuple[Cell, ...], tuple[int, ...], bytearray]:
    """The box in flat row-major (that is, lexicographic) order: its cells,
    the stride of each axis, and a fresh alive flag per cell, all set."""
    cells, strides = _box(shape.dims)
    return cells, strides, bytearray(b"\x01") * len(cells)


def turn_on(cells: Sequence[Cell], strides: Sequence[int], alive: bytearray,
            j: int) -> list[int]:
    """Turn on the alive cell ``j`` = x and return the flat indices it kills:
    x, and a flood over unit steps ``+e_i`` from ``x + (1,...,1)`` and
    ``-e_i`` from ``x - (1,...,1)`` (bounded by the last and first cells)
    that stops at dead cells."""
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
