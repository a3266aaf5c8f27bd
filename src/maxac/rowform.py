"""Row-interval form of a grid and the local maximality conditions.

Every maximal grid has nonempty rows (fibers along the last axis) whose
one-cells form contiguous segments, so it is fully described by the interval
[l, h] of each row.  Maximality then becomes a pair of local rules:

  h-rule:  h(x) = min(w_d, smallest l among the ancestor rows of x)
  l-rule:  l(x) = max(1,   largest h among the descendant rows of x)

where ancestors (descendants) of a row are the rows strictly below (above) it
in all first d-1 coordinates; with no ancestors (descendants) the rule reads
h(x) = w_d (l(x) = 1).  For d = 1 the rules are not used; that case is
covered directly by ``contains_forbidden``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from types import MappingProxyType
from typing import Iterator, Mapping

from .core import Grid, Shape, _is_int
from .errors import EmptyRowError, NonContiguousRowError

RowId = tuple[int, ...]


@dataclass(frozen=True)
class IntervalMap:
    """One interval [l, h] for every row of the box (a total map).

    Emptiness is not representable: 1 <= l <= h <= w_d must hold per row,
    with ``int`` bounds (bools, floats and strings are rejected, not converted).
    """

    shape: Shape
    intervals: Mapping[RowId, tuple[int, int]]

    def __post_init__(self):
        fixed = {tuple(row): (l, h) for row, (l, h) in self.intervals.items()}
        top = self.shape.dims[-1]
        seen = 0
        for row in self.shape.iter_rows():
            if row not in fixed:
                raise ValueError(f"missing interval for row {row}")
            l, h = fixed[row]
            if type(l) is not int or type(h) is not int:
                raise ValueError(f"row {row}: bounds ({l!r}, {h!r}) must be integers")
            if not 1 <= l <= h <= top:
                raise ValueError(f"row {row}: interval ({l}, {h}) violates 1 <= l <= h <= {top}")
            seen += 1
        if seen != len(fixed):
            raise ValueError("intervals given for rows outside the box")
        object.__setattr__(self, "intervals", MappingProxyType(fixed))

    @property
    def top(self) -> int:
        """The last dimension w_d."""
        return self.shape.dims[-1]

    def to_json_obj(self) -> dict:
        return {
            "w": list(self.shape.dims),
            "rows": [
                {"x": list(row), "l": l, "h": h}
                for row, (l, h) in sorted(self.intervals.items())
            ],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "IntervalMap":
        if not isinstance(obj, dict) or "w" not in obj or "rows" not in obj:
            raise ValueError('interval-map JSON must be an object with "w" and "rows"')
        if not isinstance(obj["w"], list) or not isinstance(obj["rows"], list):
            raise ValueError('"w" and "rows" must be arrays')
        intervals = {}
        for entry in obj["rows"]:
            if not isinstance(entry, dict) or not {"x", "l", "h"} <= set(entry):
                raise ValueError('each row entry needs "x", "l" and "h"')
            x = entry["x"]
            if not isinstance(x, list) or not all(_is_int(v) for v in x):
                raise ValueError(f'row id "x" must be an array of integers, got {x!r}')
            intervals[tuple(x)] = (entry["l"], entry["h"])
        if len(intervals) != len(obj["rows"]):
            raise ValueError("duplicate row in interval-map JSON")
        return cls(Shape(tuple(obj["w"])), intervals)


def to_intervals(g: Grid) -> IntervalMap:
    """Read off each row's [min, max] one-coordinates.

    Raises EmptyRowError or NonContiguousRowError for the lexicographically
    first offending row; either condition certifies that ``g`` is not maximal.
    """
    by_row: dict[RowId, list[int]] = {}
    for cell in g.ones:
        by_row.setdefault(cell[:-1], []).append(cell[-1])
    intervals = {}
    for row in g.shape.iter_rows():
        ys = by_row.get(row)
        if not ys:
            raise EmptyRowError(row)
        lo, hi = min(ys), max(ys)
        if hi - lo + 1 != len(ys):
            raise NonContiguousRowError(row)
        intervals[row] = (lo, hi)
    return IntervalMap(g.shape, intervals)


def from_intervals(m: IntervalMap) -> Grid:
    """Grid whose row x has ones exactly on [l(x), h(x)]."""
    ones = [
        row + (y,)
        for row, (l, h) in m.intervals.items()
        for y in range(l, h + 1)
    ]
    return Grid(m.shape, ones)


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


@dataclass(frozen=True)
class CharacterizationReport:
    """Outcome of the local maximality check; falsy when some row violates it."""

    ok: bool
    row: RowId | None = None
    rule: str | None = None  # "h" or "l"
    expected: int | None = None
    actual: int | None = None

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return "characterization holds at every row"
        return (
            f"row {self.row} violates the {self.rule}-rule: "
            f"expected {self.expected}, found {self.actual}"
        )


def check_characterization(m: IntervalMap) -> CharacterizationReport:
    """Check the h-rule and l-rule at every row (d >= 2 only).

    A grid with nonempty contiguous rows is maximal exactly when both rules
    hold everywhere.  The h-rule is scanned over all rows in ascending order
    first, then the l-rule, so a failure report names the lexicographically
    first row violating the earliest rule.
    """
    if m.shape.d < 2:
        raise ValueError("the characterization applies to d >= 2 only; "
                         "use contains_forbidden for d = 1")
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


def x_set(m: IntervalMap) -> set[RowId]:
    """Rows whose interval reaches the top although they have ancestors.

    This is the obstruction set that the convert step drains; rows without
    ancestors (some coordinate equal to 1) are expected to reach the top.
    """
    if m.shape.d < 2:
        raise ValueError("x_set applies to d >= 2 only")
    top = m.top
    return {
        row
        for row, (_, h) in m.intervals.items()
        if h == top and all(x > 1 for x in row)
    }
