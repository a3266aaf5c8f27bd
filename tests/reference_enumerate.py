"""The plain odometer enumerator over the row-interval form: a test-only oracle.

It walks every order-reversing left-end vector of the interior rows and
builds every kept leaf from scratch, row by row, from per-row cell tuples.
It has no size-1 shortcut and reuses nothing between leaves, so it checks
both of ``maxac.enumeration.enumerate_maximal``'s: the whole-box answer for
a size-1 axis, and the rows it carries over unchanged from the last leaf.
"""

from __future__ import annotations

from itertools import islice, product
from typing import Iterator, Sequence

from maxac import Cell, Shape


def _interior_rows(
    shape: Shape,
) -> tuple[dict[tuple[int, ...], int], list[tuple[int, ...]]]:
    """Index of each interior row in lexicographic order, and per interior
    row the slots whose minimum bounds its left end from above (slot -2 is
    the constant 1, slot -1 the constant ``w_d``)."""
    index = {x: j for j, x in enumerate(product(*(range(1, w) for w in shape.dims[:-1])))}
    bounds = [
        tuple(index[x[:i] + (x[i] - 1,) + x[i + 1:]] for i in range(len(x)) if x[i] > 1)
        or (-1,)
        for x in index
    ]
    return index, bounds


def _iter_left_ends(bounds: Sequence[tuple[int, ...]], top: int) -> Iterator[list[int]]:
    """Every order-reversing left-end vector in ascending lexicographic
    order, as one list updated in place."""
    n = len(bounds)
    l = [1] * n + [1, top]
    while True:
        yield l
        j = n - 1
        while j >= 0 and l[j] == min([l[p] for p in bounds[j]]):
            l[j] = 1
            j -= 1
        if j < 0:
            return
        l[j] += 1


def enumerate_maximal(
    shape: Shape, cap: int | None = None
) -> tuple[list[tuple[Cell, ...]], int, bool]:
    """The first ``cap`` maximal grids' cell tuples in canonical order, the
    full count, and whether the list was cut."""
    index, bounds = _interior_rows(shape)
    top = shape.dims[-1]
    # per row: its cells, the slot of its l, and the slot of its h
    rows = [
        (
            tuple(x + (y,) for y in range(1, top + 1)),
            index.get(x, -2),
            index.get(tuple(c - 1 for c in x), -1),
        )
        for x in shape.iter_rows()
    ]
    leaves = _iter_left_ends(bounds, top)
    kept = [
        tuple(c for cells, lo, hi in rows for c in cells[l[lo] - 1 : l[hi]])
        for l in islice(leaves, cap)
    ]
    count = len(kept) + sum(1 for _ in leaves)
    return kept, count, count > len(kept)
