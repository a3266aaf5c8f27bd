"""Exhaustive enumeration and counting of maximal grids.

``enumerate_maximal`` searches the row-interval form (``rowform``) directly,
and ``count_maximal`` counts it.  For d >= 2 a maximal grid is fixed by the left ends
``l`` of its rows:

* ``l = 1`` on boundary rows, those with some ``x_i = w_i``;
* on the interior rows ``[w_1 - 1] x ... x [w_{d-1} - 1]``, ``l`` is any
  order-reversing map into ``[1, w_d]``;
* the h-rule then gives ``h(x)``: the smallest ``l`` over the rows strictly
  below ``x``, which for an order-reversing ``l`` is ``l(x - (1, ..., 1))``,
  or ``w_d`` when ``x`` has a coordinate equal to 1.

The search assigns ``l`` to the interior rows in ascending lexicographic
order; each row's choices are ``[1, min of l over its predecessors
x - e_i]``.  Every partial assignment extends, so no branch dies.  A row's
``h`` reads only earlier rows, so two grids first differ at the first row
where their ``l`` differs, and the smaller ``l`` puts the smaller cell first:
the leaves come out in canonical order (sorted by cell list) with no sort.
For d = 1 the box is one row whose grids are the single cells ``(i,)``.

A box with a size-1 axis and d >= 2 needs no search.  The size law gives
every maximal grid ``prod(w_i) - prod(w_i - 1) = prod(w_i)`` cells, the
whole box, and the whole box is clean: any two of its cells agree on that
axis, so neither lies strictly below the other.  Both functions answer it
at once, one grid (the box's cells in lexicographic order) and the count 1,
after the same argument checks and cell budget as any other box.

Consecutive leaves share most of their rows.  A row's cells are the run
from ``l`` to ``h`` of its own cells, so they read two slots of the left-end
vector, and an odometer step changes only the slot it bumps and the slots
it resets from above 1.  So the enumerator keeps each row's run as a slice
of the box's cell tuple (``core._box``, which ``is_maximal`` shares),
refreshes only the rows that read a changed slot, and joins the runs into
each kept leaf.  Past ``cap`` it walks on without refreshing, to count.

``count_maximal`` runs the same constraints as a transfer DP instead of
visiting the grids.  It assigns the interior rows in the same order, but
keeps only a dict from the *window*, the last ``span`` left ends assigned,
to the number of partial assignments that end in it.  In lexicographic
order the predecessor ``x - e_i`` lies ``stride_i`` rows back and the
largest stride is ``span``, the product of the ``w_i - 1`` strictly between
the first and the last axis, so the window holds every predecessor a row
reads.  Each row maps a window to one successor per choice of its ``l``,
and the count is the sum over the last layer.

The count is symmetric in ``w`` (below), but the DP's cost is not: the
window grows with the middle axes and the state count with the value range
``w_d``.  So ``count_maximal`` sorts the axes and runs the DP on
``(largest, the rest ascending, second largest)``: the smallest ``d - 2``
axes in the middle give the smallest window, and of the two largest, rows
along the largest and values on the second largest do less work (counted
transitions on 4x5x7: 2,405 against 4,865 the other way round; 3x3x3x3x4:
13,652 against 54,829).

The count is the number of antichains of the product of chains
``[w_1 - 1] x ... x [w_d - 1]``: order-reversing maps ``P -> [1, k]``
correspond to order ideals of ``P x [k - 1]`` (Stanley, *Enumerative
Combinatorics* vol. 1, ch. 3), and order ideals to antichains.  That gives
``counting.count_closed_form`` (``w``, the binomial or MacMahon's box formula
once size-1 and size-2 axes are reduced away) up to three axes above 2, and
for ``3^d`` the Dedekind number M(d) (OEIS A000372: 3, 6, 20, 168, 7581,
7828354); the tests use both as oracles.

Two oracles share no machinery with the search: ``brute_force_maximal``
filters every subset of the box as a bitmask against per-cell masks of the
comparable cells (the tests check it against ``is_maximal`` on every subset
of small boxes), and the test suite keeps a bitmask include/exclude search
over the cells.

Plus greedy completion of a clean grid to a maximal one, and seeded random
(not uniform) maximal grids via a shuffled completion order.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, islice, product
from typing import Iterator, Sequence

from .core import Cell, Grid, Shape, _box, _is_int, _layout, _trusted, _turn_on, comparable
from .errors import AlreadyContainsError, ShapeTooLargeError

DEFAULT_CELL_LIMIT = 25
BRUTE_FORCE_CELL_LIMIT = 16


def _require_positive(name: str, value) -> None:
    if not _is_int(value) or value < 1:
        raise ValueError(f"{name} must be a positive integer")


def _interior_rows(
    shape: Shape,
) -> tuple[dict[tuple[int, ...], int], list[tuple[int, ...]]]:
    """Index of each interior row in lexicographic order, and per interior
    row the slots whose minimum bounds its left end from above.

    Slots index the vector ``_iter_left_ends`` yields: interior rows first,
    then the constants 1 (slot -2) and ``w_d`` (slot -1).  A row with no
    predecessor is bounded by ``w_d`` alone.
    """
    index = {x: j for j, x in enumerate(product(*(range(1, w) for w in shape.dims[:-1])))}
    bounds = [
        tuple(index[x[:i] + (x[i] - 1,) + x[i + 1:]] for i in range(len(x)) if x[i] > 1)
        or (-1,)
        for x in index
    ]
    return index, bounds


def _iter_left_ends(
    bounds: Sequence[tuple[int, ...]], top: int
) -> Iterator[tuple[list[int], Sequence[int]]]:
    """Yield every order-reversing left-end vector in ascending lexicographic
    order, as one list updated in place (read it before advancing), with the
    slots whose value changed since the last vector: every slot, constants
    included, for the first.

    An odometer: bump the last entry still below its bound and reset the
    ones after it to 1.  A row's bound reads only earlier rows, which the
    bump leaves alone, and 1 is always allowed, so every step lands on a leaf.
    """
    n = len(bounds)
    l = [1] * n + [1, top]
    changed = range(n + 2)
    while True:
        yield l, changed
        changed = []
        j = n - 1
        while j >= 0 and l[j] == min([l[p] for p in bounds[j]]):
            if l[j] > 1:
                l[j] = 1
                changed.append(j)
            j -= 1
        if j < 0:
            return
        l[j] += 1
        changed.append(j)


@dataclass(frozen=True)
class EnumerationReport:
    """Canonically ordered enumeration result.

    ``count`` is always the full total; ``truncated`` says whether ``grids``
    was cut to the requested cap.
    """

    shape: Shape
    grids: tuple[Grid, ...]
    count: int
    truncated: bool

    def to_json_obj(self) -> dict:
        return {
            "w": list(self.shape.dims),
            "count": self.count,
            "truncated": self.truncated,
            "grids": [g.to_json_obj() for g in self.grids],
        }


def enumerate_maximal(
    shape: Shape,
    cap: int | None = None,
    *,
    max_cells: int = DEFAULT_CELL_LIMIT,
) -> EnumerationReport:
    """All maximal grids over ``shape``, each exactly once, sorted by their
    serialized cell lists.  ``cap`` bounds how many grids the report keeps."""
    if cap is not None:
        _require_positive("cap", cap)
    _require_positive("max_cells", max_cells)
    if shape.cell_count > max_cells:
        raise ShapeTooLargeError(shape.cell_count, max_cells)
    dims = shape.dims
    cells = _box(dims)[0]
    if shape.d >= 2 and 1 in dims:
        # the size law gives the whole box, the one maximal grid
        return EnumerationReport(shape=shape, grids=(_trusted(Grid, shape=shape, ones=cells),),
                                 count=1, truncated=False)
    index, bounds = _interior_rows(shape)
    top = dims[-1]
    # Per slot of the left-end vector (the constants 1 and w_d at -2 and -1
    # are its last two), the rows that read it.  A row is its index, its
    # flat offset into the box, the slot of its l, and the slot of its h,
    # which is l at x - (1, ..., 1) when that row exists and w_d otherwise.
    # For d = 1 the one row () is its own x - (1, ..., 1), so h = l.
    readers = [[] for _ in range(len(bounds) + 2)]
    for r, x in enumerate(shape.iter_rows()):
        lo, hi = index.get(x, -2), index.get(tuple(c - 1 for c in x), -1)
        for slot in {lo, hi}:
            readers[slot].append((r, r * top, lo, hi))
    # per row, its run of cells in the current leaf
    parts = [()] * (len(cells) // top)
    leaves = _iter_left_ends(bounds, top)
    kept = []
    for l, changed in islice(leaves, cap):
        for slot in changed:
            for r, offset, lo, hi in readers[slot]:
                parts[r] = cells[offset + l[lo] - 1 : offset + l[hi]]
        kept.append(tuple(chain.from_iterable(parts)))
    # the odometer counts the rest itself: verification.check_counting
    # compares this count with count_maximal's
    count = len(kept) + sum(1 for _ in leaves)
    # each leaf is a sorted tuple of distinct in-box int cells already: the
    # rows come in order and a row's cells ascend
    return EnumerationReport(
        shape=shape,
        grids=tuple(_trusted(Grid, shape=shape, ones=ones) for ones in kept),
        count=count,
        truncated=count > len(kept),
    )


def count_maximal(shape: Shape, *, max_cells: int = DEFAULT_CELL_LIMIT) -> int:
    """Number of maximal grids over ``shape``, by the sliding-window transfer
    DP over the interior rows' left ends (module docstring), or 1 at once
    for a size-1 axis when d >= 2.  ``max_cells`` is a budget in cells, like
    ``enumerate_maximal``'s."""
    _require_positive("max_cells", max_cells)
    if shape.cell_count > max_cells:
        raise ShapeTooLargeError(shape.cell_count, max_cells)
    if shape.d == 1:
        return shape.dims[0]
    if 1 in shape.dims:
        return 1
    *middle, second, largest = sorted(shape.dims)
    return _transfer_count((largest, *middle, second))


def _transfer_count(dims: Sequence[int]) -> int:
    """The transfer DP on a box of d >= 2 axes taken in the given order: the
    interior rows in lexicographic order over ``dims[:-1]``, their left ends
    in ``[1, dims[-1]]``."""
    *pre, top = dims
    strides = [1]
    for w in reversed(pre[1:]):
        strides.insert(0, strides[0] * (w - 1))
    span = strides[0]
    # the padding in the first window is never read: a row reads the slot
    # span - stride_i only when its predecessor along axis i exists
    layer = {(top,) * span: 1}
    for x in product(*[range(1, w) for w in pre]):
        slots = [span - s for s, c in zip(strides, x) if c > 1]
        successors = defaultdict(int)
        for window, ways in layer.items():
            bound = min([window[k] for k in slots]) if slots else top
            tail = window[1:]
            for v in range(1, bound + 1):
                successors[tail + (v,)] += ways
        layer = successors
    return sum(layer.values())


def brute_force_maximal(shape: Shape) -> tuple[Grid, ...]:
    """Independent oracle: filter all 2^n subsets of the box, as bitmasks over
    the cells in lexicographic order.  A subset is maximal iff each cell is
    in it exactly when no cell of it is comparable to that cell.
    Exponential, so bounded by ``BRUTE_FORCE_CELL_LIMIT``; for cross-checking
    the search only."""
    n = shape.cell_count
    if n > BRUTE_FORCE_CELL_LIMIT:
        raise ShapeTooLargeError(n, BRUTE_FORCE_CELL_LIMIT)
    cells = list(shape.iter_cells())
    conflicts = [
        sum(1 << j for j, b in enumerate(cells) if comparable(a, b)) for a in cells
    ]
    out = []
    for mask in range(1 << n):
        for k in range(n):
            if (mask >> k) & 1 == bool(conflicts[k] & mask):
                break
        else:
            out.append(Grid(shape, tuple(c for k, c in enumerate(cells) if (mask >> k) & 1)))
    out.sort(key=lambda g: g.ones)
    return tuple(out)


def complete_to_maximal(g: Grid, order: Sequence[Cell] | None = None) -> Grid:
    """Greedy saturation: walk ``order`` (default lexicographic) and turn on
    every cell whose flip keeps the grid clean; maximal grids come back
    unchanged.  An ``order`` that is not a permutation of the box's cells
    raises ValueError, a grid with the forbidden pair AlreadyContainsError."""
    shape = g.shape
    if order is not None:
        order = list(order)
        if not (all(map(shape.contains_cell, order))
                and len(order) == len(set(order)) == shape.cell_count):
            raise ValueError("order must be a permutation of the box's cells")
    cells, strides, steps, alive = _layout(shape)
    ones = []
    # a one-cell of g that is dead when reached is comparable to an earlier one
    for k, cell in enumerate(chain(g.ones, cells if order is None else order)):
        j = sum((c - 1) * s for c, s in zip(cell, strides))
        if alive[j]:
            _turn_on(steps, alive, j)
            ones.append(cell)
        elif k < len(g.ones):
            raise AlreadyContainsError()
    return Grid(shape, ones)


def random_maximal(shape: Shape, seed: int) -> Grid:
    """Maximal grid obtained by greedy completion over a seed-shuffled cell
    order.  Deterministic for a fixed seed, but not uniform over the maximal
    grids: over seeds 0-5999 on 4x4 one of the 20 grids came out 105 times
    and another 873 times."""
    rng = random.Random(seed)
    cells = list(shape.iter_cells())
    rng.shuffle(cells)
    return complete_to_maximal(Grid(shape, ()), cells)
