"""Normalize and the characterization as they are defined: a test-only oracle.

``check_characterization`` walks every row's ancestors and descendants
pairwise, and ``normalize`` recomputes the obstruction set, searches each
pair through full descendant lists and rebuilds a validated ``IntervalMap``
on every convert step.  It shares none of the prefix/suffix sweep in
``maxac.rowform`` or the incremental pass in ``maxac.normalize``, and the
tests require both to give identical reports.  ``seeded_maximal_map`` builds
their inputs beyond the enumeration budget.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Iterator

from maxac import (
    BottomedOutError,
    CharacterizationReport,
    EmptyXSetError,
    IntervalMap,
    NormalizeReport,
    Shape,
    x_set,
)
from maxac.rowform import RowId


def ancestor_rows(row: RowId) -> Iterator[RowId]:
    """Rows strictly below ``row`` in every coordinate (none for d = 1)."""
    if not row:
        return
    yield from product(*(range(1, x) for x in row))


def descendant_rows(row: RowId, shape: Shape) -> Iterator[RowId]:
    """Rows strictly above ``row`` in every coordinate (none for d = 1)."""
    if not row:
        return
    yield from product(*(range(x + 1, w + 1) for x, w in zip(row, shape.dims)))


def check_characterization(m: IntervalMap) -> CharacterizationReport:
    """The h-rule over all rows in ascending order, then the l-rule, each
    row against all of its ancestors (descendants) one by one."""
    if m.shape.d < 2:
        raise ValueError("the characterization applies to d >= 2 only")
    intervals = m.intervals
    rows = sorted(intervals)
    for row in rows:
        want_h = m.top
        for anc in ancestor_rows(row):
            l = intervals[anc][0]
            if l < want_h:
                want_h = l
        h = intervals[row][1]
        if h != want_h:
            return CharacterizationReport(False, row, "h", want_h, h)
    for row in rows:
        want_l = 1
        for desc in descendant_rows(row, m.shape):
            h = intervals[desc][1]
            if h > want_l:
                want_l = h
        l = intervals[row][0]
        if l != want_l:
            return CharacterizationReport(False, row, "l", want_l, l)
    return CharacterizationReport(True)


def find_pair(m: IntervalMap) -> tuple[RowId, RowId]:
    """Stage 1 descends from the smallest obstruction row through the
    smallest top-touching descendant while the row has no slack below the
    top; stage 2 re-anchors to the smallest rival descendant of x'."""
    if m.shape.d < 2:
        raise ValueError("find_pair applies to d >= 2 only")
    obstructed = x_set(m)
    if not obstructed:
        raise EmptyXSetError()
    top = m.top
    if top < 2:
        raise BottomedOutError("last dimension is 1; intervals cannot be lowered")
    x = min(obstructed)
    while m.intervals[x][0] == top:
        x = min(z for z in descendant_rows(x, m.shape) if m.intervals[z][1] == top)
    while True:
        x_prime = tuple(c - 1 for c in x)
        rivals = [
            z
            for z in descendant_rows(x_prime, m.shape)
            if z != x and m.intervals[z][1] == top
        ]
        if not rivals:
            return x, x_prime
        x = min(rivals)


def _apply_pair(m: IntervalMap, x: RowId, x_prime: RowId) -> IntervalMap:
    top = m.top
    fixed = dict(m.intervals)
    fixed[x] = (fixed[x][0], top - 1)
    fixed[x_prime] = (top - 1, fixed[x_prime][1])
    return IntervalMap(m.shape, fixed)


def normalize(m: IntervalMap) -> NormalizeReport:
    """Convert steps until the recomputed obstruction set is empty."""
    if m.shape.d < 2:
        raise ValueError("normalize applies to d >= 2 only")
    pairs: list[tuple[RowId, RowId]] = []
    current = m
    while x_set(current):
        x, x_prime = find_pair(current)
        current = _apply_pair(current, x, x_prime)
        pairs.append((x, x_prime))
    return NormalizeReport(result=current, steps=len(pairs), pairs=tuple(pairs))


def seeded_maximal_map(dims, rng: random.Random) -> IntervalMap:
    """The maximal map fixed by seeded order-reversing left ends.

    Interior rows (every x_i < w_i) take the largest of uniform draws over
    the interior rows at or above them, boundary rows take l = 1, and h
    follows from the h-rule as l(x - (1,...,1)), or w_d without ancestors.
    """
    *pre, top = dims
    rows = list(product(*(range(1, w + 1) for w in pre)))
    draws = {
        x: rng.randint(1, top) for x in rows if all(c < w for c, w in zip(x, pre))
    }
    left = {
        x: max(
            (v for y, v in draws.items() if all(a <= b for a, b in zip(x, y))),
            default=1,
        )
        for x in rows
    }
    return IntervalMap(Shape(tuple(dims)), {
        x: (left[x], left[tuple(c - 1 for c in x)] if min(x) > 1 else top)
        for x in rows
    })
