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
axis, so neither lies strictly below the other.  ``enumerate_maximal``
answers it at once, one grid (the box's cells in lexicographic order),
after the same argument checks and cell budget as any other box.

The search runs on the flat row indices of the row box, the cached layout
``core._box`` of the first d - 1 axes that ``rowform`` and ``normalize``
read too.  The left-end vector has one slot per row and a last one for
``w_d``; the odometer moves the slots of the row box's ``inner`` rows (the
interior rows), a predecessor ``x - e_i`` is ``stride_i`` slots back, and
``h`` reads the slot ``diag`` back (``x - (1, ..., 1)``), or the ``w_d``
slot when ``x`` has a coordinate equal to 1.

Both loops over the leaves, the enumerator and the slice zeta's listing
of ideals, run the odometer step (``_step_order``) in place on one
left-end vector.  A row's cells are the run from ``l`` to ``h``
of its own cells, so they read two slots of the left-end vector, and a
step moves only the slot it bumps and the slots it resets from above 1.
So the enumerator keeps each row's run as a slice of the box's cell tuple
(``core._box``, which the flood shares).  Each inner slot's entry in the
step order holds its predecessors and the rows that read it, and a move
recuts exactly those rows, in one place for a bump and a reset alike.
Each pass joins the runs into the current leaf's grid, then steps.  After
the ``cap``-th grid one more step decides: if it lands on a leaf, the count
comes from ``count_maximal``.

The count is the number of antichains, or order ideals, of the product of
chains ``P = [w_1 - 1] x ... x [w_d - 1]``: order-reversing maps
``P -> [1, k]`` correspond to order ideals of ``P x [k - 1]`` (Stanley,
*Enumerative Combinatorics* vol. 1, ch. 3).  ``count_maximal`` routes by
the box.  It answers 1 for a size-1 axis (d >= 2).  Size-2 axes drop out
(the bijection of ``counting``), and with at most three axes above 2 what
is left, the sides ``a <= b <= c`` of ``P`` padded with 1s, is MacMahon's
box formula row by row, the product over rows ``i < a`` of
``C(b + c + i, b) / C(b + i, b)``: ``w`` for one axis and the binomial for
two.  ``count_closed_form`` is the same count on these boxes alone, and
refuses the others.  Past three axes above 2 ``count_maximal`` counts by
slice zeta transforms.  With ``P = [a - 1] x Q`` for a largest side
``a``, the ideals of ``P`` are the multichains ``I_1 >= ... >= I_{a-1}`` in
``J(Q)``, the ideals of ``Q``, so the count is ``sum(zeta^(a-2) 1)``, where
``zeta g(I)`` sums ``g`` over the ideals inside ``I``.  One ``zeta`` is a
fast zeta transform on a distributive lattice (Bjorklund, Husfeldt, Kaski, Koivisto,
Nederlof and Parviainen, SODA 2012): for each element ``q`` of ``Q`` in
lexicographic order, ``g[I] += g[I - {q}]`` for every ideal ``I`` in which
``q`` is maximal, one addition per covering pair of ``J(Q)``.  The ideals
are the left-end vectors of the box without axis ``a`` (row ``x`` holds
``(x, y)`` for ``y < l(x)``), listed once by the same odometer; size-2
axes add nothing to ``Q``.  For ``3^d`` the count is the Dedekind number M(d) (OEIS
A000372: 3, 6, 20, 168, 7581, 7828354); the tests use it and the closed
forms as oracles.

``COUNT_DIGIT_LIMIT`` bounds a lower estimate of the closed form's digits,
``a`` times the log of its last and least row (exact for two sides), before
any work and after the interpreter's own digit limit.  Before any pass of
the slice zeta, ``COUNT_STATE_LIMIT`` bounds the ideals of ``Q``.  They
number ``count_maximal`` of the box without axis ``a``, taken once two lower
bounds are within the budget: ``|Q| + 1`` and, past three axes above 2,
``2 ** (the widest rank of Q)``.  A refusal of that count means more ideals
than the budget.  ``COUNT_WORK_LIMIT`` bounds the passes times the covering
pairs.

Two oracles share no machinery with the search: ``brute_force_maximal``
filters every subset of the box as a bitmask against per-cell masks of the
comparable cells (the tests check it against ``is_maximal`` on every subset
of small boxes), and the test suite keeps a bitmask include/exclude search
over the cells.

Plus greedy completion of a clean grid to a maximal one, and seeded random
(not uniform) maximal grids via a shuffled completion order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from .core import (Cell, Grid, Shape, _box, _Box, _brief, _flood, _flood_box,
                   _print_limit, _printable, _require_int, _require_type, _trusted,
                   comparable)
from .errors import AlreadyContainsError, PreconditionViolatedError, ShapeTooLargeError

DEFAULT_CELL_LIMIT = 25
BRUTE_FORCE_CELL_LIMIT = 16
# count_maximal's budgets (module docstring), checked before any pass.  It
# holds the ideals and their covering pairs at once: 5x5x5x5's 232,848 and
# 1.36 million took 1.47 s and 121 MB peak RSS on a 2-vCPU VM.  An addition
# costs 0.1-0.3 us: 3x3x3x312502, 10 million of them, took 1.1 s.
COUNT_STATE_LIMIT = 250_000
COUNT_WORK_LIMIT = 10_000_000
# the closed form's budget on its lower estimate of the digits, exact on
# two sides and at least 2/3 of the true number on cubes: 33000x33000 (19,864
# of 19,865 digits) and 297x297x297 (19,928 of 29,866) took about 0.1 s each
COUNT_DIGIT_LIMIT = 20_000


def _check_cells(shape: Shape, max_cells) -> None:
    if shape.cell_count > _require_int("max_cells", max_cells, 1):
        raise ShapeTooLargeError(shape.cell_count, max_cells)


def _step_order(rows: _Box) -> list[tuple[int, int, tuple[int, ...]]]:
    """The odometer's slots over the row box ``rows``, last first: per inner
    row, its slot, the slot of its first predecessor ``x - e_i`` and those of
    the others.  A row with no predecessor reads the ``top`` slot ``n``
    instead.  Its left end may rise to the least ``l`` over these slots.

    A step walks this list: it bumps the first slot still below its bound
    and resets the ones before it in the list to 1.  A slot's bound reads
    only earlier rows, which the bump leaves alone, and 1 is always allowed,
    so every step lands on a leaf, the next in ascending lexicographic
    order; the walk runs off the list's end after the last leaf."""
    n = len(rows.cells)
    order = []
    for j in reversed(rows.inner):
        p, *others = [j - s for c, s in zip(rows.cells[j], rows.strides) if c > 1] or [n]
        order.append((j, p, tuple(others)))
    return order


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
    serialized cell lists.  ``cap`` bounds how many grids the report keeps.
    A ``cap`` or ``max_cells`` that is not an ``int`` of at least 1 raises
    ValueError, and a box of more than ``max_cells`` cells
    ShapeTooLargeError, both before any work."""
    _require_type("enumerate_maximal", shape, "dims", "a Shape")
    if cap is not None:
        _require_int("cap", cap, 1)
    _check_cells(shape, max_cells)
    dims = shape.dims
    if shape.d >= 2 and 1 in dims:
        # the size law gives the whole box, the one maximal grid
        whole = tuple(shape.iter_cells())
        return _trusted(EnumerationReport, shape=shape,
                        grids=(_trusted(Grid, shape=shape, ones=whole),), count=1,
                        truncated=False)
    cells = _box(dims).cells
    rows = _box(dims[:-1])
    n, top = len(rows.cells), dims[-1]
    # Per slot, the rows that read it: row r, at flat offset r * w_d into
    # the box, reads l at slot r and h at slot r - diag or n.  For d = 1 the
    # one row () is its own x - (1, ..., 1), so h = l.  Per row, its run of
    # cells in the current leaf, from the first leaf's l: 1 but at slot n.
    l = [1] * n + [top]
    readers = [[] for _ in range(n + 1)]
    parts = []
    for r, x in enumerate(rows.cells):
        hi = n if 1 in x else r - rows.diag
        for slot in {r, hi}:
            readers[slot].append((r, r * top, hi))
        parts.append(cells[r * top : r * top + l[hi]])
    order = [(j, p, others, readers[j]) for j, p, others in _step_order(rows)]
    # each leaf is a sorted tuple of distinct in-box int cells already: the
    # rows come in order and a row's cells ascend
    grids = []
    while True:
        grids.append(_trusted(Grid, shape=shape, ones=tuple(chain.from_iterable(parts))))
        # the odometer's step, recutting the rows that read each slot it moves
        for j, p, others, reads in order:
            bound = l[p]
            for q in others:
                if l[q] < bound:
                    bound = l[q]
            v = l[j]
            l[j] = new = v + 1 if v < bound else 1
            if new != v:
                for r, offset, hi in reads:
                    parts[r] = cells[offset + l[r] - 1 : offset + l[hi]]
                if new > v:
                    break
        else:
            count = len(grids)
            break
        if len(grids) == cap:
            # the step found a leaf past the cap
            count = count_maximal(shape)
            break
    return _trusted(EnumerationReport, shape=shape, grids=tuple(grids), count=count,
                    truncated=count > len(grids))


def count_maximal(shape: Shape, *, max_cells: int | None = None) -> int:
    """Number of maximal grids over ``shape``: 1 with an axis of 1, MacMahon's
    box formula row by row where at most three axes exceed 2 (on the sides
    ``w - 1`` of those axes, padded with 1s), else by slice zeta transforms,
    under the count budgets (module docstring).  ``max_cells``, if given, is
    a budget in cells like ``enumerate_maximal``'s, checked as there.  Raises
    ValueError if the count has more digits than the interpreter prints
    (``sys.get_int_max_str_digits``; 0, or no such function, means no
    limit), on the closed form before any work if its estimate says so."""
    _require_type("count_maximal", shape, "dims", "a Shape")
    if max_cells is not None:
        _check_cells(shape, max_cells)
    if 1 in shape.dims:
        return 1
    sides = sorted(w - 1 for w in shape.dims if w > 2)
    if len(sides) > 3:
        # A multichain is a multiset of a - 1 of the S ideals, so the count is
        # at most C(a + S - 2, S - 1), about 1,900 digits with (a - 2)(S - 1)
        # within COUNT_WORK_LIMIT: under the default limit, 4,300, but not a
        # lowered one.
        return _printable(shape.dims, _zeta_count(shape.dims))
    a, b, c = [1] * (3 - len(sides)) + sides
    # MacMahon row by row: the product over rows i < a of C(b + c + i, b) /
    # C(b + i, b).  The rows fall as i grows, so a times the last row's log
    # is a lower estimate of the digits, exact for a = 1; the margin of one
    # digit dwarfs the float error
    digits = a * (math.lgamma(a + b + c) - math.lgamma(a + b) - math.lgamma(a + c)
                  + math.lgamma(a)) / math.log(10)
    limit = _print_limit()
    value = None
    if not limit or digits <= limit + 1:
        _check_budget(shape.dims, int(digits), "digits")
        value = (math.prod(math.comb(b + c + i, b) for i in range(a))
                 // math.prod(math.comb(b + i, b) for i in range(a)))
    return _printable(shape.dims, value)


def count_closed_form(shape: Shape) -> int:
    """``count_maximal`` where a closed form applies, with an axis of 1 or at
    most three axes above 2; PreconditionViolatedError elsewhere."""
    _require_type("count_closed_form", shape, "dims", "a Shape")
    above = sum(w > 2 for w in shape.dims)
    if above > 3 and 1 not in shape.dims:
        raise PreconditionViolatedError(
            f"no closed form applies to shape {_brief.repr(shape.dims)}: "
            f"{above} axes exceed 2, the closed forms cover at most 3")
    return count_maximal(shape)


def _zeta_count(dims: Sequence[int]) -> int:
    """The slice zeta count over a box of sides all above 1, at least two of
    them above 2."""
    *rest, a = sorted(dims)
    rest = [w for w in rest if w > 2]
    # a maximal chain of J(Q) alone has |Q| + 1 ideals
    states = min(math.prod(w - 1 for w in rest) + 1, COUNT_STATE_LIMIT + 1)
    if states <= COUNT_STATE_LIMIT and len(rest) > 3:
        # a subset of one rank of Q, with all of Q below that rank, is an
        # ideal: 2 ** (the widest rank) of them spare the count of rest when
        # it is surely past the budget
        ranks = [1]
        for n in (w - 1 for w in rest):
            ranks = [sum(ranks[max(0, k - n + 1):k + 1]) for k in range(len(ranks) + n - 1)]
        states = 2 ** max(ranks)
    if states <= COUNT_STATE_LIMIT:
        try:
            states = count_maximal(Shape(tuple(rest)))
        except (ShapeTooLargeError, ValueError):
            # refused on its ideals, its work or its digits, the box rest has
            # more maximal grids, the ideals of Q, than the budget
            states = COUNT_STATE_LIMIT + 1
    _check_budget(dims, states, "states")
    # every ideal but the empty one covers one, a check before the pairs
    _check_budget(dims, (a - 2) * (states - 1), "additions")
    upper, lower = _covering_pairs(rest)
    _check_budget(dims, (a - 2) * len(upper), "additions")
    g = [1] * states
    for _ in range(a - 2):
        for i, j in zip(upper, lower):
            g[i] += g[j]
    return sum(g)


def _check_budget(named: Sequence[int], amount: int, unit: str) -> None:
    limit, budget = {"states": (COUNT_STATE_LIMIT, "COUNT_STATE_LIMIT"),
                     "additions": (COUNT_WORK_LIMIT, "COUNT_WORK_LIMIT"),
                     "digits": (COUNT_DIGIT_LIMIT, "COUNT_DIGIT_LIMIT")}[unit]
    if amount > limit:
        raise ShapeTooLargeError(math.prod(named), limit, (
            f"counting shape {_brief.repr(tuple(named))} takes at least "
            f"{_brief.repr(amount)} {unit}, limit is {limit} ({budget})"))


def _covering_pairs(rest: Sequence[int]) -> tuple[list[int], list[int]]:
    """The covering pairs ``(I, I - {q})`` of ``J(Q)``, ``Q`` the product of
    the ``[w - 1]`` over ``rest``: the indices of the two ideals in the
    odometer's order, by ``q`` in lexicographic order."""
    rows, top = _box(tuple(rest[:-1])), rest[-1]
    # an ideal's key: its inner rows' left ends as digits base top + 1.  Row
    # x gives up (x, l(x) - 1), element k * (top - 1) + l(x) - 2 of Q, when
    # l(x) > 1 and no x + e_i (a row, as x is inner) has the same left end.
    digit = [0] * (len(rows.cells) + 1)
    for k, x in enumerate(rows.inner):
        digit[x] = (top + 1) ** k
    rules = [(x, [x + s for s in rows.strides], digit[x], k * (top - 1) - 2)
             for k, x in enumerate(rows.inner)]
    by_element = [[] for _ in range(len(rows.inner) * (top - 1))]
    index = {}
    order = _step_order(rows)
    l = [1] * len(rows.cells) + [top]
    key = sum(digit)  # the step moves the key with the slots it bumps and resets
    while True:
        i = index[key] = len(index)
        for x, successors, step, element in rules:
            if (v := l[x]) > 1:
                for y in successors:
                    if l[y] == v:
                        break
                else:  # I - {q} comes earlier in the odometer's order
                    by_element[element + v] += i, index[key - step]
        for j, p, others in order:
            bound = l[p]
            for q in others:
                if l[q] < bound:
                    bound = l[q]
            if l[j] < bound:
                l[j] += 1
                key += digit[j]
                break
            key -= (l[j] - 1) * digit[j]
            l[j] = 1
        else:
            break
    flat = list(chain.from_iterable(by_element))
    return flat[::2], flat[1::2]


def brute_force_maximal(shape: Shape) -> tuple[Grid, ...]:
    """Independent oracle: filter all 2^n subsets of the box, as bitmasks over
    the cells in lexicographic order.  A subset is maximal iff each cell is
    in it exactly when no cell of it is comparable to that cell.
    Exponential, so bounded by ``BRUTE_FORCE_CELL_LIMIT``; for cross-checking
    the search only."""
    _require_type("brute_force_maximal", shape, "dims", "a Shape")
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
    unchanged.  A box of more than ``GAME_CELL_LIMIT`` cells raises
    ShapeTooLargeError, an ``order`` that is not a permutation of the box's
    cells ValueError, a grid with the forbidden pair AlreadyContainsError.
    The flood walks the checked order as flat indices of the box's layout,
    so the result holds the layout's plain ``int`` cells, sorted, and skips
    the constructor's check: the flood turns each cell on once."""
    _require_type("complete_to_maximal", g, "ones", "a Grid")
    shape = g.shape
    box = _flood_box(shape)
    if order is not None:
        order = list(order)
        if not (all(map(shape.contains_cell, order))
                and len(order) == len(set(order)) == shape.cell_count):
            raise ValueError("order must be a permutation of the box's cells")
    order = range(len(box.cells)) if order is None else map(box.index, order)
    if (flood := _flood(g, order)) is None:
        raise AlreadyContainsError()
    return _trusted(Grid, shape=shape, ones=tuple(sorted(flood[0])))


def random_maximal(shape: Shape, seed: int) -> Grid:
    """Maximal grid obtained by greedy completion over a seed-shuffled order
    of the box's flat indices, within the same cell budget.  Deterministic
    for a fixed seed, but not uniform over the maximal grids: over seeds
    0-5999 on 4x4 one of the 20 grids came out 105 times and another 873
    times.  A ``seed`` that is not an ``int``, or is a ``bool``, raises
    ValueError before any work.  Built as ``complete_to_maximal`` builds."""
    _require_type("random_maximal", shape, "dims", "a Shape")
    rng = random.Random(_require_int("seed", seed))
    order = list(range(len(_flood_box(shape).cells)))
    rng.shuffle(order)
    ones = _flood(Grid(shape, ()), order)[0]  # the empty grid floods
    return _trusted(Grid, shape=shape, ones=tuple(sorted(ones)))
