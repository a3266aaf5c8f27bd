"""Maximality and greedy completion as they are defined: a test-only oracle.

``is_maximal`` checks the grid for a strictly dominating pair of one-cells,
then every zero cell against every one-cell; ``complete_to_maximal`` tests
each candidate against every one-cell turned on so far.  Both use only the
pairwise ``comparable``, ``contains_forbidden`` and
``flip_creates_containment``.  They share neither the flood fill in
``maxac.core`` nor the row form in ``maxac.rowform``, and the tests require
both to give identical answers and identical grids.
"""

from __future__ import annotations

from typing import Sequence

from maxac import (
    AlreadyContainsError,
    Grid,
    contains_forbidden,
    flip_creates_containment,
)
from maxac.core import Cell, comparable


def is_maximal(g: Grid) -> bool:
    """Avoids the forbidden configuration, and every zero flip would create it."""
    if contains_forbidden(g):
        return False
    one_set = g.one_set
    for cell in g.shape.iter_cells():
        if cell in one_set:
            continue
        if not flip_creates_containment(g, cell):
            return False
    return True


def complete_to_maximal(g: Grid, order: Sequence[Cell] | None = None) -> Grid:
    """Greedy saturation: walk ``order`` (default lexicographic) and turn on
    every cell whose flip keeps the grid clean.

    ``order`` must visit every cell of the box, or the result could miss
    addable cells.  Already-maximal grids come back unchanged.
    """
    if contains_forbidden(g):
        raise AlreadyContainsError()
    if order is None:
        cells = list(g.shape.iter_cells())
    else:
        cells = [tuple(c) for c in order]
        if sorted(cells) != sorted(g.shape.iter_cells()):
            raise ValueError("order must be a permutation of the box's cells")
    ones = list(g.ones)
    one_set = set(ones)
    for cell in cells:
        if cell in one_set:
            continue
        if not any(comparable(p, cell) for p in ones):
            ones.append(cell)
            one_set.add(cell)
    return Grid(g.shape, ones)
