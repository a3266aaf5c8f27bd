"""Bitmask include/exclude search over the cells: a test-only oracle.

It decides cell by cell, in lexicographic order, whether each cell is on, so
it shares no machinery with the row-form search in ``maxac.enumeration``.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from maxac import Cell, Shape, strictly_below


def conflict_masks(shape: Shape) -> tuple[list[Cell], list[int]]:
    """Cells in lexicographic order and, per cell, the bitmask of cells it
    cannot share a clean grid with (comparable cells; everyone when d = 1)."""
    cells = list(shape.iter_cells())
    n = len(cells)
    masks = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            # lexicographic order means dominance can only point forward
            if shape.d == 1 or strictly_below(cells[i], cells[j]):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return cells, masks


def iter_maximal_masks(n: int, masks: Sequence[int]) -> Iterator[int]:
    """Yield the chosen-cell bitmasks of all maximal grids (order arbitrary).

    Classic include/exclude search with two prunes: a cell conflicting with
    the chosen set can only be excluded, and a branch dies as soon as some
    excluded cell can no longer be blocked by any undecided cell (tracked via
    ``pending`` and the precomputed ``expired`` masks).  A leaf is reached
    with ``pending`` empty exactly when every zero cell conflicts with a
    chosen cell, i.e. the grid is maximal.
    """
    full = (1 << n) - 1
    expired = []
    for i in range(n + 1):
        future = full ^ ((1 << i) - 1)
        expired.append(sum(1 << c for c in range(n) if not masks[c] & future))
    stack = [(0, 0, 0)]
    while stack:
        i, chosen, pending = stack.pop()
        if pending & expired[i]:
            continue
        if i == n:
            yield chosen
            continue
        bit = 1 << i
        if masks[i] & chosen:
            stack.append((i + 1, chosen, pending))
        else:
            stack.append((i + 1, chosen, pending | bit))
            stack.append((i + 1, chosen | bit, pending & ~masks[i]))


def search_maximal(shape: Shape) -> list[tuple[Cell, ...]]:
    """One-cell tuples of every maximal grid over ``shape``, sorted."""
    cells, masks = conflict_masks(shape)
    return sorted(
        tuple(c for k, c in enumerate(cells) if (mask >> k) & 1)
        for mask in iter_maximal_masks(len(cells), masks)
    )
