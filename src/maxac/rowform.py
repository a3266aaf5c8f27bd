"""Row-interval form of a grid and the local maximality conditions.

Every maximal grid has nonempty rows (fibers along the last axis) whose
one-cells form contiguous segments, so it is fully described by the interval
[l, h] of each row.  Maximality then becomes a pair of local rules:

  h-rule:  h(x) = min(w_d, smallest l among the ancestor rows of x)
  l-rule:  l(x) = max(1,   largest h among the descendant rows of x)

where ancestors (descendants) of a row are the rows strictly below (above) it
in all first d-1 coordinates; with no ancestors (descendants) the rule reads
h(x) = w_d (l(x) = 1).  ``maximal_row_form`` decides maximality for the
library: the size law (weight ``max_size``) first, which alone settles
d = 1, then the row form and the rules.

``to_intervals`` reads the row form in one walk over the rows, ascending.
A grid's cells are sorted and distinct, so each row's run starts where the
previous one ended and ends at the first cell at or after the next row: a
bisection over at most w_d cells.  The walk raises at the first row that is
empty or gapped, naming it, so a rejected grid costs only the rows up to
its first bad one.  Every row before it holds a cell, so the walk stops
within |ones| + 1 rows and builds no more of the row box (``_rows``); the
``IntervalMap`` constructor walks its given rows the same way.

``check_characterization`` tests both rules in one O(rows * d) sweep: the
ancestors of x are exactly the rows at or below x - (1,...,1), so the h-rule
reads a closed prefix minimum of l there, and symmetrically the l-rule reads
a closed suffix maximum of h at x + (1,...,1).  Both are separable running
folds, one axis at a time, over the flat row indices of the row box: the
layout ``core._box`` of the first d - 1 axes, memoised by them, so
``normalize`` and ``peel`` read the same one at every level of a chain,
which shrinks only the last axis.  The bounds travel in that layout too: a
map carries them as two flat lists ``(ls, hs)`` by row index (``_bounds``,
not a dataclass field), set at construction by one of two builders.  The
public constructor (so also ``dataclasses.replace``) fills them in the loop
that checks the rows; ``_trusted_map``, through which ``to_intervals``,
``normalize``, ``convert_step`` and ``peel`` build every map, is handed
them and stores nothing else.  Such a map builds its ``intervals`` dict
from the lists and the row box only on first read, so a chain, which reads
only the lists, builds none.  ``normalize`` writes its result's lists
straight from the obstruction set: each row x of the set is converted once,
with x - (1,...,1), and every write is w_d - 1, so the order of the convert
pairs does not matter, and it walks them only when its report's ``pairs``
is first read.  The lists are ascending by row, so ``to_json_obj`` and
``from_intervals`` read them in order and sort nothing.  A passing check
leaves its verdict on the map (``_maximal``, also not a field), which
``normalize`` reads instead of sweeping the same map again; a map that
``normalize`` returns also carries ``_drained``, so ``peel`` does not scan
its obstruction set again.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain, product
from types import MappingProxyType
from typing import Iterator

from .core import Grid, Shape, _Box, _box, _brief, _is_int, _require_type, _trusted, max_size
from .errors import EmptyRowError, NonContiguousRowError

RowId = tuple[int, ...]


@dataclass(frozen=True)
class IntervalMap:
    """One interval [l, h] for every row of the box (a total map).

    Emptiness is not representable: 1 <= l <= h <= w_d must hold per row,
    with ``int`` row ids and bounds (bools, floats and strings are rejected,
    not converted).  The public constructor checks all of this and raises
    ValueError naming the offending row.  The maps the library builds itself
    (``to_intervals``, and ``normalize``, ``convert_step`` and ``peel`` from a
    maximal map) are valid by construction and skip the check.
    """

    shape: Shape
    intervals: Mapping[RowId, tuple[int, int]]
    # the maximality verdict, not a field: True only on a map that passed
    # check_characterization or was derived from one by normalize or peel
    _maximal = False
    # also not a field: True only on a map normalize returned, whose
    # obstruction set is empty, so peel need not scan it
    _drained = False

    def __post_init__(self):
        _require_type("IntervalMap", self.shape, "dims", "a Shape")
        if not isinstance(self.intervals, Mapping):
            raise ValueError("intervals must be a mapping from row ids to (l, h) pairs")
        fixed = {}
        for row, pair in self.intervals.items():
            if not isinstance(row, tuple):
                raise ValueError(f"row id {_brief.repr(row)} must be a tuple of integers")
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise ValueError(f"row {_brief.repr(row)}: interval {_brief.repr(pair)} "
                                 "must be an (l, h) pair")
            fixed[tuple(row)] = tuple(pair)
        if not set(map(type, chain.from_iterable(fixed))) <= {int}:
            bad = next(row for row in fixed if any(type(x) is not int for x in row))
            raise ValueError(f"row id {_brief.repr(bad)} must have integer coordinates")
        top = self.shape.dims[-1]
        ls, hs = [], []
        for row in _rows(self.shape, len(fixed)):
            if row not in fixed:
                raise ValueError(f"missing interval for row {row}")
            l, h = fixed[row]
            if type(l) is not int or type(h) is not int:
                raise ValueError(f"row {row}: bounds ({_brief.repr(l)}, {_brief.repr(h)}) "
                                 "must be integers")
            if not 1 <= l <= h <= top:
                raise ValueError(f"row {row}: interval ({l}, {h}) violates 1 <= l <= h <= {top}")
            ls.append(l)
            hs.append(h)
        if len(ls) != len(fixed):
            raise ValueError("intervals given for rows outside the box")
        object.__setattr__(self, "intervals", MappingProxyType(fixed))
        # not a field: the l and h of every row in ascending row order, the
        # row box's.  A map _trusted_map builds holds only these, maybe shared
        # with the map they came from, so no one mutates them; its intervals
        # are built from them on first read (__getattr__).  normalize writes
        # them from the obstruction set alone, as every convert write is
        # w_d - 1 and the order of the pairs does not matter
        object.__setattr__(self, "_bounds", (ls, hs))

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks: the intervals of
        # a map _trusted_map built, until first read
        if name != "intervals":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        ls, hs = self._bounds
        rows = _box(self.shape.dims[:-1]).cells
        intervals = self.__dict__["intervals"] = MappingProxyType(dict(zip(rows, zip(ls, hs))))
        return intervals

    def __hash__(self):
        # equal maps have equal shapes and the same bounds in row order; the
        # generated hash would hash the intervals proxy, which is unhashable
        ls, hs = self._bounds
        return hash((self.shape, tuple(ls), tuple(hs)))

    @property
    def top(self) -> int:
        """The last dimension w_d."""
        return self.shape.dims[-1]

    def to_json_obj(self) -> dict:
        rows = _box(self.shape.dims[:-1]).cells
        return {
            "w": list(self.shape.dims),
            "rows": [{"x": list(row), "l": l, "h": h} for row, l, h in zip(rows, *self._bounds)],
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
                raise ValueError(
                    f'row id "x" must be an array of integers, got {_brief.repr(x)}')
            intervals[tuple(x)] = (entry["l"], entry["h"])
        if len(intervals) != len(obj["rows"]):
            raise ValueError("duplicate row in interval-map JSON")
        return cls(Shape(tuple(obj["w"])), intervals)


def to_intervals(g: Grid) -> IntervalMap:
    """Read off each row's [min, max] one-coordinates.

    Raises EmptyRowError or NonContiguousRowError for the lexicographically
    first offending row; either condition certifies that ``g`` is not maximal.
    One walk over the rows, each read with the row after it, raises where
    it stops, within ``len(g.ones) + 1`` rows whatever the box.  The cells
    are sorted and distinct, so each row's cells form one run of at most
    w_d cells, and the runs come in row order: a row's run starts where the
    previous one ended and ends at the first cell at or after the next row,
    found by bisection within w_d cells.  The first and last cells of the
    run give l and h, and the run is contiguous when it spans h - l + 1
    cells.  The bounds come from a checked grid, so the map skips its
    constructor's check; ``int`` subclass bounds (which ``Grid`` admits and
    ``IntervalMap`` does not) are stored as ``int``.
    """
    _require_type("to_intervals", g, "ones", "a Grid")
    ones, shape = g.ones, g.shape
    width, n = shape.dims[-1], len(ones)
    ls, hs = [], []
    end = 0
    rows = _rows(shape, n)
    row = next(rows)
    # the row after each row; after the last, an id above every cell
    for following in chain(rows, [(shape.dims[0] + 1,)]):
        start, stop = end, end + width
        end = bisect_left(ones, following, start, stop if stop < n else n)
        if end == start:
            raise EmptyRowError(row)
        lo, hi = ones[start][-1], ones[end - 1][-1]
        if hi - lo != end - start - 1:
            raise NonContiguousRowError(row)
        ls.append(lo)
        hs.append(hi)
        row = following
    if not set(map(type, chain(ls, hs))) <= {int}:
        ls, hs = list(map(int, ls)), list(map(int, hs))
    return _trusted_map(shape, ls, hs)


def _rows(shape: Shape, n: int) -> Iterator[RowId]:
    """The rows of ``shape`` with no coordinate above ``n + 1``, ascending:
    row k of the box has none above k + 1, so they start with its first
    ``n + 1`` rows, and no whole side of a huge box is built."""
    return product(*(range(1, min(w, n + 1) + 1) for w in shape.dims[:-1]))


def _trusted_map(shape: Shape, ls: list[int], hs: list[int],
                 maximal: bool = False, drained: bool = False) -> IntervalMap:
    """The IntervalMap whose rows, those of the row box in its order, have
    the bounds ``ls`` and ``hs``, without the constructor's check: only for
    maps valid by construction.  The map keeps them as its ``_bounds``
    and builds its ``intervals`` from them on first read.  ``maximal`` gives
    it the verdict, for maps derived from a maximal map by steps that
    preserve the characterization; ``drained`` says that its obstruction set
    is empty, for the maps ``normalize`` returns."""
    return _trusted(IntervalMap, shape=shape, _bounds=(ls, hs), _maximal=maximal,
                    _drained=drained)


def from_intervals(m: IntervalMap) -> Grid:
    """Grid whose row x has ones exactly on [l(x), h(x)]."""
    _require_type("from_intervals", m, "_bounds", "an IntervalMap")
    rows = _box(m.shape.dims[:-1]).cells
    ones = [row + (y,) for row, l, h in zip(rows, *m._bounds) for y in range(l, h + 1)]
    return Grid(m.shape, ones)


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


def _prefix_min(a: list[int], chunks, w: int) -> None:
    """In place: each slot becomes the minimum over its closed lower orthant.

    The fold is separable: whole chunks at a time along every axis but the
    last, then a running minimum along each line of ``w`` slots.
    """
    for prev, cur in chunks:
        a[cur] = [p if p < q else q for p, q in zip(a[prev], a[cur])]
    for i in range(1, len(a)):
        if i % w and a[i - 1] < a[i]:
            a[i] = a[i - 1]


# reports are frozen, so every passing check returns this one
_HOLDS = CharacterizationReport(True)


def check_characterization(m: IntervalMap) -> CharacterizationReport:
    """Check the h-rule and l-rule at every row (d >= 2 only).

    A grid with nonempty contiguous rows is maximal exactly when both rules
    hold everywhere.  The h-rule is scanned over all rows in ascending order
    first, then the l-rule, so a failure report names the lexicographically
    first row violating the earliest rule.  A pass is recorded on ``m``
    (``_maximal``); the sweep runs on every call all the same.
    """
    _require_type("check_characterization", m, "_bounds", "an IntervalMap")
    if m.shape.d < 2:
        raise ValueError("the characterization applies to d >= 2 only; "
                         "use contains_forbidden for d = 1")
    top = m.top
    pre = m.shape.dims[:-1]
    box = _box(pre)
    rows, inner, diag = box.cells, box.inner, box.diag
    ls, hs = m._bounds
    n = len(rows)

    low = ls.copy()
    _prefix_min(low, box.chunks, pre[-1])
    want_h = [top] * n
    for i in inner:  # row i + diag has ancestors, all at or below row i
        want_h[i + diag] = low[i]
    if hs != want_h:
        k = next(k for k in range(n) if hs[k] != want_h[k])
        return CharacterizationReport(False, rows[k], "h", want_h[k], hs[k])

    # suffix maximum of h = -(prefix minimum of -h over the reversed layout)
    high = [-h for h in reversed(hs)]
    _prefix_min(high, box.chunks, pre[-1])
    want_l = [1] * n
    for i in inner:  # row i's descendants are at or above row i + diag
        want_l[i] = -high[n - 1 - i - diag]
    if ls != want_l:
        k = next(k for k in range(n) if ls[k] != want_l[k])
        return CharacterizationReport(False, rows[k], "l", want_l[k], ls[k])
    object.__setattr__(m, "_maximal", True)
    return _HOLDS


def maximal_row_form(g: Grid) -> IntervalMap | None:
    """The row form of ``g`` if ``g`` is maximal, else None: a wrong weight
    rejects at once, with no layout built, and otherwise an empty or gapped
    row, or a row breaking the h- or l-rule, in O(|ones| + rows * d)."""
    if len(g.ones) != max_size(g.shape):
        return None
    try:
        m = to_intervals(g)
    except (EmptyRowError, NonContiguousRowError):
        return None
    return m if g.shape.d == 1 or check_characterization(m) else None


def x_set(m: IntervalMap) -> set[RowId]:
    """Rows whose interval reaches the top although they have ancestors.

    This is the obstruction set that the convert step drains; rows without
    ancestors (some coordinate equal to 1) are expected to reach the top.
    """
    _require_type("x_set", m, "_bounds", "an IntervalMap")
    if m.shape.d < 2:
        raise ValueError("x_set applies to d >= 2 only")
    box, pending = _obstructed(m)
    return {box.cells[i] for i in pending}


def _obstructed(m: IntervalMap) -> tuple[_Box, list[int]]:
    """The row box of ``m`` and its obstruction rows' flat indices, ascending:
    the rows with ancestors are the box's lifted rows."""
    box = _box(m.shape.dims[:-1])
    hs, top = m._bounds[1], m.top
    return box, [i for i in box.lifted if hs[i] == top]
