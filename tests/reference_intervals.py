"""The row form read cell by cell: a test-only oracle.

``to_intervals`` groups the one-cells by row in a dict, one cell at a time,
then walks the rows in ascending order and raises for the first that is empty
or has a gap.  It builds its map through the public, fully checking
constructor, and shares none of the bisecting row walk in ``maxac.rowform``.
"""

from __future__ import annotations

from itertools import product

from maxac import EmptyRowError, Grid, IntervalMap, NonContiguousRowError


def to_intervals(g: Grid) -> IntervalMap:
    by_row: dict[tuple[int, ...], list[int]] = {}
    for cell in g.ones:
        by_row.setdefault(cell[:-1], []).append(cell[-1])
    intervals = {}
    for row in product(*(range(1, w + 1) for w in g.shape.dims[:-1])):
        ys = by_row.get(row)
        if not ys:
            raise EmptyRowError(row)
        lo, hi = min(ys), max(ys)
        if hi - lo + 1 != len(ys):
            raise NonContiguousRowError(row)
        # the constructor takes plain ints only; Grid admits int subclasses
        intervals[row] = (int(lo), int(hi))
    return IntervalMap(g.shape, intervals)
