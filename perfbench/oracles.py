"""Seeded inputs and independent expected values for the benchmark.

Nothing here imports maxac: the maximal-map generator and the closed forms
are the benchmark's own, so every check compares the package against a
separate computation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

# Counts the closed forms below do not reach, pinned from an exhaustive count.
PINNED_COUNTS = {(3, 3, 3, 3): 168}


def max_size(dims) -> int:
    """Weight of every maximal grid: prod(w) - prod(w - 1)."""
    return math.prod(dims) - math.prod(w - 1 for w in dims)


def macmahon(a: int, b: int, c: int) -> int:
    """Plane partitions in an a x b x c box (MacMahon's product formula)."""
    total = Fraction(1)
    for i, j, k in product(range(1, a + 1), range(1, b + 1), range(1, c + 1)):
        total *= Fraction(i + j + k - 1, i + j + k - 2)
    return int(total)


def expected_count(dims) -> int:
    """Number of maximal grids over ``dims``, from closed forms alone.

    A size-1 axis (d >= 2) leaves no comparable pair, so the full box is the
    only maximal grid.  Appending a size-2 axis keeps the count, so size-2
    axes are dropped; what is left is a single axis (w choices of one cell),
    the binomial for d = 2, MacMahon's box formula for d = 3, or the pinned
    table.  Raises KeyError for shapes none of these cover.
    """
    dims = tuple(dims)
    if len(dims) >= 2 and min(dims) == 1:
        return 1
    core = tuple(w for w in dims if w != 2) or (2,)
    if len(core) == 1:
        return core[0]
    if len(core) == 2:
        return math.comb(core[0] + core[1] - 2, core[0] - 1)
    if len(core) == 3:
        return macmahon(*(w - 1 for w in core))
    return PINNED_COUNTS[tuple(sorted(core))]


def left_ends(dims, rng) -> dict:
    """Seeded order-reversing left ends for the interior rows of ``dims``.

    Interior rows are those with every x_i < w_i (i < d).  Each gets a
    uniform value in [1, w_d]; a suffix maximum along each axis then makes
    l(x) the largest draw over the rows at or above x, so l is
    order-reversing.  Boundary rows are absent and read as 1.
    """
    *pre, top = dims
    extent = [w - 1 for w in pre]
    rows = list(product(*(range(1, n + 1) for n in extent)))
    l = {x: rng.randint(1, top) for x in rows}
    for axis, n in enumerate(extent):
        for x in sorted(rows, key=lambda r: -r[axis]):
            if x[axis] < n:
                above = l[x[:axis] + (x[axis] + 1,) + x[axis + 1:]]
                if above > l[x]:
                    l[x] = above
    return l


def intervals_from_left_ends(dims, l) -> dict:
    """Row intervals of the maximal grid fixed by left ends ``l``.

    h follows from the h-rule: h(x) = min(w_d, smallest l over the rows
    strictly below x in every coordinate), computed as a prefix minimum.
    """
    *pre, top = dims
    rows = list(product(*(range(1, w + 1) for w in pre)))
    low = {x: l.get(x, 1) for x in rows}
    for axis in range(len(pre)):
        for x in sorted(rows, key=lambda r: r[axis]):
            if x[axis] > 1:
                below = low[x[:axis] + (x[axis] - 1,) + x[axis + 1:]]
                if below < low[x]:
                    low[x] = below
    out = {}
    for x in rows:
        if min(x) > 1:
            h = min(top, low[tuple(c - 1 for c in x)])
        else:
            h = top
        out[x] = (l.get(x, 1), h)
    return out


def maximal_grid_obj(dims, rng) -> dict:
    """JSON object of a seeded maximal grid over ``dims`` (d >= 2)."""
    rows = intervals_from_left_ends(dims, left_ends(dims, rng))
    ones = [list(x) + [y] for x, (lo, hi) in rows.items() for y in range(lo, hi + 1)]
    return {"w": list(dims), "ones": ones}


def obstruction_count(dims, intervals) -> int:
    """Rows that reach the top although every coordinate exceeds 1."""
    top = dims[-1]
    return sum(1 for x, (_, h) in intervals.items() if h == top and min(x) > 1)


def strictly_below(a, b) -> bool:
    return all(x < y for x, y in zip(a, b))


def is_antichain(cells) -> bool:
    """No cell strictly dominates another (any two cells clash when d = 1)."""
    cells = sorted(cells)
    if cells and len(cells[0]) == 1:
        return len(cells) <= 1
    return not any(
        strictly_below(p, q) for i, p in enumerate(cells) for q in cells[i + 1:]
    )
