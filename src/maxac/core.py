"""Cells, shapes, grids, the strict dominance order, and the size law.

A grid is a binary d-dimensional matrix over a box of dimensions
w = (w_1, ..., w_d), identified with the set of its one-cells.  The forbidden
configuration is a pair of one-cells p, q with p strictly below q in every
coordinate (for d = 1, any two distinct one-cells).  Grids avoiding it
are exactly the antichains of the box under strict dominance; grids where no
further cell can be turned on are the maximal ones, and all of them share the
same weight ``max_size``.
"""

from __future__ import annotations

import math
import reprlib
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, product
from operator import lt, mul
from typing import Iterable, Iterator

from .errors import DimensionMismatchError, ShapeTooLargeError

Cell = tuple[int, ...]

# shapes whose total cell count does not fit an unsigned 64-bit integer are
# rejected outright; everything downstream may then use exact arithmetic
_MAX_CELLS = 2**64 - 1

# per-run bounds of verification.verify_shape (and so of `maxac verify`) and
# of its sample_non_maximal and check_game: the sampled non-maximal grids are
# all held at once, and every trial plays three games.  They live here so the
# CLI parser reads them without importing verification.
VERIFY_SAMPLE_LIMIT = 10_000
VERIFY_TRIAL_LIMIT = 10_000

# this copy of the package, through which ``is_maximal`` reaches ``rowform``
_package = sys.modules[__package__]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require_int(name: str, value, least: int | None = None, most: int | None = None) -> int:
    """``value`` if it is an ``int``, not a ``bool``, in ``[least, most]``
    (None leaves that side open), else ValueError naming ``name``: the one
    check of every scalar argument at the library's and the CLI's
    boundaries, made before any work."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an int, got {_brief.repr(value)}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {_brief.repr(value)}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be at most {most}, got {_brief.repr(value)}")
    return value


def _require_type(name: str, value, attr: str, kind: str) -> None:
    """TypeError naming ``name`` and ``kind`` (with its article, as "a
    Shape") unless ``value`` has ``kind``'s attribute ``attr``.  By
    attribute, not by class: a harness that imports the package afresh hands
    one copy's values to the other copy's functions."""
    if not hasattr(value, attr):
        raise TypeError(f"{name} takes {kind}, got {type(value).__name__}")


def _digit_count(x: int) -> int:
    """Decimal digits of ``abs(x)``, without converting it to a string."""
    x = abs(x)
    # the bit length fixes the count up to one either way
    n = max(1, int(x.bit_length() * math.log10(2)))
    while n > 1 and 10 ** (n - 1) > x:
        n -= 1
    while 10 ** n <= x:
        n += 1
    return n


# the most digits the interpreter prints of an int; 0, or no such function,
# means no limit
_print_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _too_long(x: int, limit: int) -> bool:
    # fewer than 3 * limit bits means at most limit digits
    return bool(limit) and x.bit_length() > 3 * limit and _digit_count(x) > limit


def _printable(dims, count: int | None) -> int:
    """``count``, the count for shape ``dims``, or ValueError if it has more
    digits than the interpreter prints; None stands for a count known to be
    too long."""
    limit = _print_limit()
    if count is None or _too_long(count, limit):
        raise ValueError(f"the count for shape {_brief.repr(dims)} has more than {limit} "
                         "digits, the limit for printing an integer (sys.get_int_max_str_digits)")
    return count


class _BriefRepr(reprlib.Repr):
    def repr_int(self, x, level):
        # repr refuses ints past the interpreter's digit limit, so those are
        # quoted by size
        if _too_long(x, _print_limit()):
            return f"<{'negative ' if x < 0 else ''}int with {_digit_count(x)} digits>"
        return super().repr_int(x, level)


# error details quote an offending value through this, so a huge malformed
# input gives a short one-line message instead of a copy of itself
_brief = _BriefRepr()
_brief.maxlevel, _brief.maxtuple, _brief.maxlist, _brief.maxdict = 3, 8, 8, 4
_brief.maxstring = _brief.maxlong = _brief.maxother = 40


def _trusted(cls, **attrs):
    """An instance of the frozen dataclass ``cls`` with ``attrs`` set as
    given, without running ``__post_init__``.  Only for values the library
    built valid by construction; every caller is pinned by a test that
    compares its output with the public, fully checking constructor."""
    obj = object.__new__(cls)
    obj.__dict__.update(attrs)
    return obj


@dataclass(frozen=True)
class Shape:
    """Box dimensions w = (w_1, ..., w_d); coordinate i ranges over [1, w_i]."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise ValueError("a shape needs at least one dimension")
        for w in dims:
            if not _is_int(w) or w < 1:
                raise ValueError(
                    f"dimensions must be positive integers, got {_brief.repr(w)}")
        cells = math.prod(dims)
        if cells > _MAX_CELLS:
            raise OverflowError("total cell count exceeds the 64-bit range")
        # not a field: every Shape holds it, one built by _trusted (peel's)
        # as it is handed
        self.__dict__["cell_count"] = cells

    @property
    def d(self) -> int:
        return len(self.dims)

    def iter_cells(self) -> Iterator[Cell]:
        """All cells in ascending lexicographic order."""
        return product(*(range(1, w + 1) for w in self.dims))

    def contains_cell(self, cell) -> bool:
        return (
            isinstance(cell, tuple)
            and len(cell) == self.d
            and all(_is_int(x) and 1 <= x <= w for x, w in zip(cell, self.dims))
        )


@dataclass(frozen=True)
class Grid:
    """Binary grid over a box, stored as the sorted tuple of its one-cells.

    The public constructor rejects a cell of the wrong length
    (DimensionMismatchError), a coordinate that is not an ``int`` or is a
    ``bool``, a cell outside the box, and a duplicate cell (ValueError).  It
    names the first cell, in sorted order, of the wrong length, with a bad
    coordinate or outside the box (in the given order when coordinates of
    two types meet and the cells cannot be sorted); only when there is none
    does it name the first duplicate.  The check is one pass: cells not
    strictly ascending (as ``to_json_obj`` writes them, which proves them
    distinct) are sorted once, and one column-wise pass checks them against
    the box; only an input it rejects, or one with ``int`` subclasses such
    as ``IntEnum``, is walked cell by cell.  The grids the library builds itself are sorted,
    in-box, distinct ``int`` tuples by construction, and skip the check: the
    leaves of ``enumerate_maximal``, whose cells are the very tuples of the
    box's cached layout (``_box(dims).cells``), the grids of
    ``complete_to_maximal`` and ``random_maximal``, the game's boards, and
    the candidates of ``verify``'s sample.
    """

    shape: Shape
    ones: tuple[Cell, ...] = field(default=())

    def __post_init__(self):
        _require_type("Grid", self.shape, "dims", "a Shape")
        cells = list(map(tuple, self.ones))
        try:
            distinct = all(map(lt, cells, cells[1:]))
            if not distinct:
                cells = sorted(cells)
                distinct = all(map(lt, cells, cells[1:]))
        except TypeError:
            # only a bad coordinate fails to compare: the loop below names
            # the first bad cell in the given order
            distinct = False
        cells = tuple(cells)
        object.__setattr__(self, "ones", cells)
        # the per-cell loop below runs only when this pass fails
        if distinct and _in_box(cells, self.shape.dims):
            return
        for c in cells:
            if len(c) != self.shape.d:
                raise DimensionMismatchError(
                    f"cell {_brief.repr(c)} has {len(c)} coordinates, shape has {self.shape.d}"
                )
            if not self.shape.contains_cell(c):
                raise ValueError(f"cell {_brief.repr(c)} lies outside the box "
                                 f"{_brief.repr(self.shape.dims)}")
        for a, b in zip(cells, cells[1:]):
            if a == b:
                raise ValueError(f"duplicate cell {_brief.repr(a)}")

    @cached_property
    def one_set(self) -> frozenset[Cell]:
        return frozenset(self.ones)

    def to_json_obj(self) -> dict:
        return {"w": list(self.shape.dims), "ones": [list(c) for c in self.ones]}

    @classmethod
    def from_json_obj(cls, obj) -> "Grid":
        """The grid of a JSON object ``{"w": [...], "ones": [[...], ...]}``,
        built by the public constructor.  A coordinate that is not exactly
        an ``int`` is named before any fault it finds, a bad ``w`` included."""
        if not isinstance(obj, dict) or "w" not in obj or "ones" not in obj:
            raise ValueError('grid JSON must be an object with "w" and "ones"')
        dims, ones = obj["w"], obj["ones"]
        if not isinstance(dims, list) or not isinstance(ones, list):
            raise ValueError('"w" and "ones" must be arrays')
        if not set(map(type, ones)) <= {list}:
            raise ValueError('"ones" must be an array of integer coordinate arrays')
        try:
            return cls(Shape(tuple(dims)), ones)
        except (ValueError, OverflowError, TypeError, RecursionError, DimensionMismatchError):
            # exactly int, as json.loads builds them (so never bool); comparing
            # a str, null or array coordinate raises TypeError, or RecursionError
            if not set(map(type, chain.from_iterable(ones))) <= {int}:
                raise ValueError(
                    '"ones" must be an array of integer coordinate arrays') from None
            raise


def _in_box(cells, dims: tuple[int, ...]) -> bool:
    """Whether every cell is a tuple of ``len(dims)`` exact ``int``
    coordinates inside the box ``dims``: one pass per column."""
    return not cells or (
        set(map(len, cells)) == {len(dims)}
        and all(
            set(map(type, col)) == {int} and min(col) >= 1 and max(col) <= w
            for col, w in zip(zip(*cells), dims)
        )
    )


def strictly_below(a: Cell, b: Cell) -> bool:
    """True iff every coordinate of ``a`` is strictly less than ``b``'s."""
    if len(a) != len(b):
        raise DimensionMismatchError(f"{len(a)}-dim vector vs {len(b)}-dim vector")
    return all(x < y for x, y in zip(a, b))


def comparable(a: Cell, b: Cell) -> bool:
    """True iff one of ``a``, ``b`` lies strictly below the other, i.e. the
    two cells cannot both be on.  Any two distinct cells of a 1-d box are."""
    return strictly_below(a, b) or strictly_below(b, a)


def contains_forbidden(g: Grid) -> bool:
    """Whether some one-cell strictly dominates another."""
    _require_type("contains_forbidden", g, "ones", "a Grid")
    ones = g.ones
    # ones are sorted, so dominance can only point forward
    for i, p in enumerate(ones):
        for q in ones[i + 1 :]:
            if strictly_below(p, q):
                return True
    return False


def weight(g: Grid) -> int:
    """Number of one-cells."""
    _require_type("weight", g, "ones", "a Grid")
    return len(g.ones)


def flip_creates_containment(g: Grid, cell: Cell) -> bool:
    """Would turning on a zero cell introduce the forbidden configuration?

    Assumes ``g`` itself avoids it and ``cell`` is currently off.
    """
    _require_type("flip_creates_containment", g, "ones", "a Grid")
    return any(comparable(p, cell) for p in g.ones)


class _Box:
    """The box [w_1] x ... x [w_d] in flat row-major, that is lexicographic,
    order: cell i is ``cells[i]``, and a unit step along axis k adds
    ``strides[k]`` to its index.  It owns the conversion of coordinates to
    flat indices: ``index`` is the library's one formula for it, and
    ``cells`` the way back.  The flood fills the box of a grid one row
    segment at a time, flooding over the box of its rows (the first d - 1
    axes), which ``rowform``, ``normalize`` and ``enumeration`` walk too.
    Each part is built on first use, so the row sweep (``is_maximal`` too)
    and the search never build a flood table, and no whole box builds one.
    No caller mutates a part."""

    def __init__(self, dims: tuple[int, ...]):
        self.cells = tuple(product(*(range(1, w + 1) for w in dims)))
        self.strides = tuple(math.prod(dims[k + 1:]) for k in range(len(dims)))
        # the flat offset of (1, ..., 1): x - (1, ..., 1) is cell i - diag
        self.diag = sum(self.strides)
        self.dims = dims

    def index(self, cell: Cell) -> int:
        """The flat index of the in-box ``cell``: ``cells[index(cell)] == cell``."""
        return sum(map(mul, cell, self.strides)) - self.diag

    @cached_property
    def inner(self) -> tuple[int, ...]:
        """The cells below w_k on every axis k, ascending: the cells x for
        which x + (1, ..., 1) lies in the box."""
        inner = [0]
        for w, s in zip(self.dims, self.strides):
            inner = [i + c * s for i in inner for c in range(w - 1)]
        return tuple(inner)

    @cached_property
    def lifted(self) -> tuple[int, ...]:
        """The inner cells' diagonal successors x + (1, ..., 1), ascending:
        the cells above 1 on every axis."""
        return tuple(i + self.diag for i in self.inner)

    @cached_property
    def chunks(self) -> tuple[tuple[slice, slice], ...]:
        """The (previous, current) slice pairs that fold each coordinate value
        into the next, along every axis but the last."""
        n = len(self.cells)
        return tuple(
            (slice(lo - s, lo), slice(lo, lo + s))
            for w, s in zip(self.dims[:-1], self.strides)
            for base in range(0, n, w * s)
            for lo in range(base + s, base + w * s, s)
        )

    @cached_property
    def steps(self) -> tuple:
        """The flood table of ``_turn_on``, which reads it on the box of a
        grid's rows (one cell here is one row there), per direction (up,
        then down): the signed diagonal step; per cell, the signed strides
        of the axes along which that cell can still step; and the tuple of
        all d of them, or None if no cell has it.  A cell holds a reference
        to one of 2^k shared offset tuples, k the number of axes of size
        above 1: 8 bytes per cell and direction, until 2^k nears the cell
        count (every axis of size 2) and the tuples cost about what the
        cells do."""
        dims, strides = self.dims, self.strides
        table = []
        for sign in (1, -1):
            # bit k of a cell's code: it can step along axis k, that is, its
            # coordinate there is below w_k (up) or above 1 (down)
            codes = [0]
            for k, w in enumerate(dims):
                open_ = [1 << k] * (w - 1)
                row = open_ + [0] if sign == 1 else [0] + open_
                codes = [c | b for c in codes for b in row]
            # every set of axes of size above 1 is some cell's: build them all
            offsets = {0: ()}
            for k, w in enumerate(dims):
                if w > 1:
                    step = sign * strides[k]
                    offsets.update([(c | 1 << k, t + (step,)) for c, t in offsets.items()])
            table.append((sign * self.diag, tuple(map(offsets.__getitem__, codes)),
                          offsets.get((1 << len(dims)) - 1)))
        return tuple(table)


# keyed by dims, so the thousands of is_maximal calls of one verify run share
# one row box, as does every level of a normalize/peel chain, which shrinks
# only the last axis.  The benchmark's chains read 6 row boxes and the search
# 2 boxes per op, well inside 32.  The flood's whole boxes have at most
# GAME_CELL_LIMIT cells and hold only their cells, 0.6-1.3 MB; the flood
# table of their row boxes takes under 0.1 MB, but 1.4 MB on 2^13, whose
# 2^12 rows each step along a different set of axes (tracemalloc, Python
# 3.11): 16 such pairs of boxes take about 42 MB
_box = lru_cache(maxsize=32)(_Box)

# largest box the flood fills (``play``, ``complete_to_maximal``,
# ``random_maximal``): its cached layout holds a tuple per cell, and the
# flood table of its row box two references per row
GAME_CELL_LIMIT = 10_000


def _flood_box(shape: Shape) -> _Box:
    cells = shape.cell_count
    if cells > GAME_CELL_LIMIT:
        raise ShapeTooLargeError(cells, GAME_CELL_LIMIT)
    return _box(shape.dims)


def _turn_on(steps: tuple, width: int, alive: bytearray, j: int) -> list[tuple[int, int]]:
    """Turn on the alive cell ``j`` = x of a box whose rows (last axis) hold
    ``width`` cells, and return what it kills as runs ``(lo, hi)``: flat
    index ranges ``[lo, hi)``, each inside one row, disjoint, x's own first.
    A cell is alive while its flip keeps the grid clean, so x kills exactly
    the alive cells at or above x + (1,...,1) and at or below
    x - (1,...,1).  A dead ``y > x`` is dead through a one-cell ``q < y``
    (one above ``y`` would lie above the alive x), so all above ``y`` is
    dead too.  So in each row of the upper sub-box the alive cells form a
    prefix from column x_d + 1: one ``find`` bounds it and one slice
    assignment clears it (a prefix of one cell takes neither).  The rows
    whose prefix is not empty form a down-set of the row box, which a flood
    over unit steps from x's diagonal successor row visits in full.  The
    lower sub-box is the mirror image, by ``rfind``.
    ``steps`` is the row box's flood table (``_Box.steps`` of the first
    d - 1 axes): each row of a sub-box is visited at O(d) flood steps, and
    each run costs O(1) Python steps whatever its length."""
    alive[j] = 0
    runs = [(j, j + 1)]
    row, col = divmod(j, width)
    (up, up_table, up_full), (down, down_table, down_full) = steps
    # x + (1,...,1) lies in the box only if x can step along every axis
    if col + 1 < width and up_table[row] is up_full:
        stack = [row + up]
        while stack:
            r = stack.pop()
            lo = r * width + col + 1
            if alive[lo]:
                hi, end = lo + 1, lo - col - 1 + width
                # a run of one cell, common on small boards, needs no scan
                if hi < end and alive[hi]:
                    hi = alive.find(0, hi, end)
                    if hi < 0:
                        hi = end
                    alive[lo:hi] = bytes(hi - lo)
                else:
                    alive[lo] = 0
                runs.append((lo, hi))
                stack.extend(map(r.__add__, up_table[r]))
    if col and down_table[row] is down_full:
        stack = [row + down]
        while stack:
            r = stack.pop()
            hi = r * width + col
            lo, start = hi - 1, hi - col
            if alive[lo]:
                if lo > start and alive[lo - 1]:
                    # rfind's -1, no dead cell left of lo, gives start
                    lo = alive.rfind(0, start, lo) + 1 or start
                    alive[lo:hi] = bytes(hi - lo)
                else:
                    alive[lo] = 0
                runs.append((lo, hi))
                stack.extend(map(r.__add__, down_table[r]))
    return runs


def _flood(g: Grid, order: Iterable[int] = ()) -> tuple[list[Cell], bytearray] | None:
    """Turn on the one-cells of ``g``, then each cell of ``order`` (flat
    indices into the box's layout) still alive, by ``_turn_on`` over the
    flood table of the box's rows: the cells turned on, as the layout's
    tuples, and the alive flags after, or None if a one-cell of ``g`` is
    dead when reached (comparable to an earlier one).  With no ``order``,
    ``g`` is maximal iff it floods and leaves none alive."""
    box = _flood_box(g.shape)
    steps, width = _box(g.shape.dims[:-1]).steps, g.shape.dims[-1]
    alive = bytearray(b"\x01") * len(box.cells)
    ones = []
    for k, j in enumerate(chain(map(box.index, g.ones), order)):
        if alive[j]:
            _turn_on(steps, width, alive, j)
            ones.append(box.cells[j])
        elif k < len(g.ones):
            return None
    return ones, alive


def is_maximal(g: Grid) -> bool:
    """Avoids the forbidden configuration, and every zero flip would create
    it: ``rowform.maximal_row_form``, which rejects a wrong weight in O(1)
    and otherwise costs O(|ones| + rows d) over the row box."""
    _require_type("is_maximal", g, "ones", "a Grid")
    return _package.rowform.maximal_row_form(g) is not None


def max_size(s: Shape) -> int:
    """Weight shared by every maximal grid: prod(w_i) - prod(w_i - 1).

    Equivalently, the number of cells with at least one coordinate equal to 1
    (and also the number with at least one coordinate equal to its w_i).
    """
    _require_type("max_size", s, "dims", "a Shape")
    return math.prod(s.dims) - math.prod(w - 1 for w in s.dims)
