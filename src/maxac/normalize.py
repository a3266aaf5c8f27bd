"""Weight-preserving rewriting of maximal row forms, and peeling.

``normalize`` drains the obstruction set one row per step: the convert step
finds a row x touching the top whose diagonal ancestor x' = x - (1,...,1) has
no other top-touching descendant, then slides one unit of weight from x to
x'.  Once no ancestored row touches the top, ``peel`` removes the top
cross-section, shrinking the box by one along the last axis and the weight by
exactly the number of ancestor-free rows.  Iterating the two moves down to
w_d = 1 telescopes any maximal grid's weight to the closed form.

``normalize``, ``find_pair``, ``convert_step`` and ``peel`` are defined on
maximal maps only, and raise NotMaximalError on any other.  Unguarded,
``peel`` would drop the wrong weight on a map that breaks the h-rule but has
an empty obstruction set.  A map carries the verdict when
``check_characterization`` passed on it, or when ``normalize``,
``convert_step`` or ``peel`` derived it from such a map: convert steps and
peel preserve the characterization, so their results are born maximal (and
valid, so they skip the constructor's check).  On any other map, including
one built by the public constructor or by ``dataclasses.replace``, each of
the four checks the characterization on entry (one O(rows * d) sweep); a
failing check leaves no verdict.  On a map with the verdict the entry check
is the type check alone: the verdict starts at ``check_characterization``,
which refuses d = 1, and the derived maps keep d, so such a map has d >= 2.
A whole normalize/peel chain from a checked map thus sweeps once, and on a
maximal map the work is small:

* A convert step lowers only h(x), so it removes exactly x from the
  obstruction set and adds nothing.  ``normalize`` therefore reads the set
  once, ascending, off the row box that ``check_characterization`` sweeps
  (``core._box`` of the first d - 1 axes, shared by every level of a
  chain).  Every row of the set is then converted exactly once, paired
  with x' = x - (1,...,1), and every write sets a bound to w_d - 1, so the
  result does not depend on the order of the pairs: ``normalize`` writes it
  straight from the set, h(x) = l(x') = w_d - 1 for each row x of it, on a
  copy of the map's flat lists of l and of h, with one step per row.  The
  pairs are walked only when the report's ``pairs`` is first read, on
  copies of the input map's lists.  The result, a new map even when the
  set is already empty (it then shares the input's lists), carries a
  second verdict, ``_drained``, so ``peel`` does not scan its obstruction
  set again.
* The bounds travel as those flat lists, in row-box order: every map holds
  its rows only as its lists (``IntervalMap._bounds``), which
  ``to_intervals``, ``normalize``, ``convert_step`` and ``peel`` hand to the
  maps they build, and builds its ``intervals`` dict only when it is first
  read, so a level reads the lists once and no step of a chain builds or
  reads a row of that dict.  ``peel`` keeps the l list as it is (no row
  that loses its top cell has l = w_d) and builds the new h list in one
  pass.
* h is order-reversing, so the top-touching rows form a down-set.  The
  lexicographically first top-touching row strictly above x is then
  x + (1,...,1) if any is, and the first one at or above x other than x is
  x + e_k for the largest such k.  The pair search from a pending row is
  two walks: stage 1 follows the diagonal while l = w_d, and stage 2 climbs
  through top-touching rows x + e_k, largest k first, until none is left.
  On a map breaking the characterization neither first holds, and the
  search could leave the box or produce an interval with l > h.
* The walk resumes instead of restarting.  A convert of (x, x') changes only
  h(x) and l(x').  Stage 2 reads only h, and the top-touching set lost only
  x, so a fresh walk would climb the same path up to x's parent and there
  skip x: ``_walk`` pops x and scans the parent's axes again.  Stage 1
  reads only l, so it changes only when x' lies on the diagonal before its
  end s; as x is at or above s, that happens exactly when x = s and s is not
  the pending row, and then the diagonal now ends at x' = s - (1,...,1),
  where stage 2 starts afresh.  Once the pending row itself is converted,
  the walk starts anew from the next pending row still in the set.  Every
  row the climb enters is converted before it is left, so the pairs of a
  whole normalization cost O(1) per diagonal step of each pending row plus
  O(d) per convert step (one addition per step on flat indices), instead
  of a walk from the pending row on every step.
* ``_walk`` writes each pair to the lists it is handed before yielding it,
  so it is handed copies only: peeled and normalized maps share lists.
  ``find_pair`` returns the first pair of such a walk, and ``convert_step``
  the map built from the copies it wrote.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import Shape, _Box, _require_type, _trusted
from .errors import BottomedOutError, EmptyXSetError, NotMaximalError, XSetNonEmptyError
from .rowform import IntervalMap, RowId, _obstructed, check_characterization, x_set


@dataclass(frozen=True)
class NormalizeReport:
    """Result of a full normalization plus the trace of applied pairs.

    ``normalize`` builds the report without its pairs; they are walked on
    copies of the input map's bounds on first read and kept.
    """

    result: IntervalMap
    steps: int
    pairs: tuple[tuple[RowId, RowId], ...]

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks: the pairs of a
        # report normalize built, until first read
        if name != "pairs":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        m, box, pending = self._walk_from
        ls, hs = map(list.copy, m._bounds)
        pairs = self.__dict__["pairs"] = tuple(_walk(ls, hs, box, m.top, pending))
        return pairs

    def to_json_obj(self) -> dict:
        return {
            "steps": self.steps,
            "pairs": [[list(x), list(xp)] for x, xp in self.pairs],
            "result": self.result.to_json_obj(),
        }


def _require_maximal(m: IntervalMap, verb: str) -> None:
    """Entry check of the convert machinery: d >= 2 and the characterization,
    both checked only on a map that does not carry the verdict (a map with
    it has d >= 2: see the module docstring)."""
    _require_type(verb, m, "_bounds", "an IntervalMap")
    if m._maximal:
        return
    if m.shape.d < 2:
        raise ValueError(f"{verb} applies to d >= 2 only")
    report = check_characterization(m)
    if not report:
        raise NotMaximalError(str(report))


def _walk(ls: list[int], hs: list[int], box: _Box, top: int,
          pending: Iterable[int]) -> Iterator[tuple[RowId, RowId]]:
    """Yield the convert pairs of a maximal map, draining ``pending`` (the
    flat indices of its obstruction rows, ascending) in order.

    ``ls`` and ``hs`` hold the bounds by flat index into ``box``, the map's
    row box, and every caller hands in copies: each pair is written to them
    before it is yielded.  The climb is a stack of flat indices; see the
    module docstring for why resuming it gives the pairs of a fresh search.
    """
    rows, diag = box.cells, box.diag
    # the climb steps, largest axis first: cell i + stride if cell i is below w there
    climb = [(k, box.dims[k], box.strides[k]) for k in reversed(range(len(box.dims)))]
    for start in pending:
        if hs[start] != top:
            continue  # drained by an earlier step
        s = start
        while ls[s] == top:
            s += diag
        path = [s]
        while path:
            x = path[-1]
            row = rows[x]
            for k, w, stride in climb:
                if row[k] < w and hs[x + stride] == top:
                    path.append(x + stride)
                    break
            else:
                x_prime = x - diag
                hs[x] = ls[x_prime] = top - 1
                yield row, rows[x_prime]
                path.pop()
                if not path and x != start:
                    path.append(x_prime)


def _first_pair(m: IntervalMap) -> tuple[tuple[RowId, RowId], list[int], list[int]]:
    """The first convert pair of the maximal map ``m``, walked on copies of
    its bound lists, and the copies with that pair written."""
    box, pending = _obstructed(m)
    if not pending:
        raise EmptyXSetError()
    top = m.top
    if top < 2:
        # every interval is (1, 1); no weight can move anywhere
        raise BottomedOutError("last dimension is 1; intervals cannot be lowered")
    ls, hs = map(list.copy, m._bounds)
    return next(_walk(ls, hs, box, top, pending[:1])), ls, hs


def find_pair(m: IntervalMap) -> tuple[RowId, RowId]:
    """Locate the rows (x, x') manipulated by the convert step.

    Postconditions: x = x' + (1, ..., 1); h(x) = w_d > l(x); and x' has no
    other descendant whose interval reaches the top.  Requires the
    characterization to hold (else NotMaximalError) and the obstruction set
    to be nonempty (else EmptyXSetError).

    The search is deterministic: stage 1 starts at the lexicographically
    smallest obstruction row and descends through the smallest top-touching
    descendant until a row leaves slack below the top; stage 2 re-anchors to
    the smallest rival descendant while the diagonal ancestor has one.  It
    walks copies of the map's bounds, so ``m`` is left as it was.
    """
    _require_maximal(m, "find_pair")
    return _first_pair(m)[0]


def convert_step(m: IntervalMap) -> IntervalMap:
    """One rewrite: lower h(x) to w_d - 1 and raise l(x') to w_d - 1, for
    the pair (x, x') that ``find_pair`` locates.

    Preserves weight and the characterization, and removes exactly x from
    the obstruction set.  Built from the copies of the bounds that the pair
    search wrote; ``m`` is left as it was.
    """
    _require_maximal(m, "convert_step")
    _, ls, hs = _first_pair(m)
    return _trusted(IntervalMap, shape=m.shape, _bounds=(ls, hs), _maximal=True, _drained=False)


def normalize(m: IntervalMap) -> NormalizeReport:
    """Apply convert steps until the obstruction set is empty.

    Each step removes one row from the set, so the step count equals the
    initial obstruction-set size; weight is untouched throughout.  Requires
    the characterization to hold (else NotMaximalError); a map whose set is
    already empty gives a new map equal to it, sharing its bound lists, in
    0 steps.  The report's pairs are walked on their first read (module
    docstring).
    """
    _require_maximal(m, "normalize")
    box, pending = _obstructed(m)
    top = m.top
    if pending and top < 2:
        raise BottomedOutError("last dimension is 1; intervals cannot be lowered")
    # each pending row x is converted once, with x' = x - (1,...,1), and
    # every write is top - 1: the result does not depend on the pairs' order.
    # With nothing to write, the result shares the input's lists, as peel's
    # does: no map mutates its lists
    ls, hs = m._bounds
    if pending:
        ls, hs = ls.copy(), hs.copy()
        diag = box.diag
        for i in pending:
            hs[i] = ls[i - diag] = top - 1
    result = _trusted(IntervalMap, shape=m.shape, _bounds=(ls, hs), _maximal=True, _drained=True)
    return _trusted(NormalizeReport, result=result, steps=len(pending),
                    _walk_from=(m, box, pending))


def peel(m: IntervalMap) -> IntervalMap:
    """Remove the top cross-section of a normalized map.

    Requires an empty obstruction set, so the rows touching the top are
    exactly the ancestor-free ones (some coordinate equal to 1); each of
    those loses its top cell and the box loses its last layer.  The weight
    therefore drops by prod(w_i, i < d) - prod(w_i - 1, i < d), and the
    characterization still holds on the smaller box.  Requires the
    characterization to hold (else NotMaximalError).  A map ``normalize``
    returned is known to be drained, and its set is not scanned again.
    """
    _require_maximal(m, "peel")
    top = m.top
    if top < 2:
        raise BottomedOutError("last dimension is already 1")
    if not m._drained and (rows := x_set(m)):
        raise XSetNonEmptyError(rows)
    # l < w_d on every row that loses its top cell, so ls carries over as is
    ls, hs = m._bounds
    dims = m.shape.dims[:-1] + (top - 1,)
    shape = _trusted(Shape, dims=dims, cell_count=math.prod(dims))
    hs = [h - 1 if h == top else h for h in hs]
    return _trusted(IntervalMap, shape=shape, _bounds=(ls, hs), _maximal=True, _drained=False)
