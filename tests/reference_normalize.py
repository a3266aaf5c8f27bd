"""Normalize and the characterization as they are defined: a test-only oracle.

``check_characterization`` walks every row's ancestors and descendants
pairwise, and ``normalize`` recomputes the obstruction set, searches each
pair through full descendant lists and rebuilds a validated ``IntervalMap``
on every convert step.  It shares none of the prefix/suffix sweep in
``maxac.rowform`` or the resumed pair walk in ``maxac.normalize``, and the
tests require both to give identical reports.

``normalize_resumed`` is the resumed walk on row tuples, as
``maxac.normalize`` ran it before it moved to flat row indices; it is fast
enough to check maps far beyond the reach of the definitional
``normalize``.  ``peel`` is the top cross-section removed by the definition,
through the public constructors.  ``seeded_maximal_map`` builds inputs
beyond the enumeration budget.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Iterable, Iterator

from maxac import (
    BottomedOutError,
    CharacterizationReport,
    EmptyXSetError,
    IntervalMap,
    NormalizeReport,
    NotMaximalError,
    Shape,
    XSetNonEmptyError,
)
from maxac.rowform import RowId
from maxac.rowform import check_characterization as sweep_characterization


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


def x_set(m: IntervalMap) -> set[RowId]:
    """Rows that reach the top and have an ancestor (no coordinate 1)."""
    return {row for row, (_, h) in m.intervals.items() if h == m.top and 1 not in row}


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


def _walk(intervals: dict, dims: tuple[int, ...], top: int,
          pending: Iterable[RowId]) -> Iterator[tuple[RowId, RowId]]:
    """The convert pairs of a maximal map from its obstruction rows
    (ascending), each applied to ``intervals`` when the walk resumes after
    it.  The climb is a stack of row tuples that pops a converted row and
    scans its parent's axes again instead of searching afresh."""
    axes = range(len(dims) - 2, -1, -1)  # the row's axes, largest first
    for start in pending:
        if intervals[start][1] != top:
            continue  # drained by an earlier step
        s = start
        while intervals[s][0] == top:
            s = tuple(c + 1 for c in s)
        path = [s]
        while path:
            x = path[-1]
            for k in axes:
                if x[k] < dims[k]:
                    z = x[:k] + (x[k] + 1,) + x[k + 1:]
                    if intervals[z][1] == top:
                        path.append(z)
                        break
            else:
                x_prime = tuple(c - 1 for c in x)
                yield x, x_prime
                intervals[x] = (intervals[x][0], top - 1)
                intervals[x_prime] = (top - 1, intervals[x_prime][1])
                path.pop()
                if not path and x != start:
                    path.append(x_prime)


def normalize_resumed(m: IntervalMap) -> NormalizeReport:
    """One pass over the obstruction set in ascending order, the pair walk
    resumed after every convert step, on a dict keyed by row tuples."""
    if m.shape.d < 2:
        raise ValueError("normalize applies to d >= 2 only")
    report = sweep_characterization(m)
    if not report:
        raise NotMaximalError(str(report))
    pending = sorted(x_set(m))
    if not pending:
        return NormalizeReport(result=m, steps=0, pairs=())
    top = m.top
    if top < 2:
        raise BottomedOutError("last dimension is 1; intervals cannot be lowered")
    intervals = dict(m.intervals)
    pairs = tuple(_walk(intervals, m.shape.dims, top, pending))
    return NormalizeReport(
        result=IntervalMap(m.shape, intervals), steps=len(pairs), pairs=pairs
    )


def peel(m: IntervalMap) -> IntervalMap:
    """Every ancestor-free row (some coordinate 1) loses its top cell, and
    the box its last layer; the obstruction set must be empty."""
    if m.shape.d < 2:
        raise ValueError("peel applies to d >= 2 only")
    if m.top < 2:
        raise BottomedOutError("last dimension is already 1")
    obstructed = x_set(m)
    if obstructed:
        raise XSetNonEmptyError(obstructed)
    return IntervalMap(Shape(m.shape.dims[:-1] + (m.top - 1,)), {
        row: (l, h - 1) if 1 in row else (l, h) for row, (l, h) in m.intervals.items()
    })


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
