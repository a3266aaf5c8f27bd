"""Weight-preserving rewriting of maximal row forms, and peeling.

``normalize`` drains the obstruction set one row per step: the convert step
finds a row x touching the top whose diagonal ancestor x' = x - (1,...,1) has
no other top-touching descendant, then slides one unit of weight from x to
x'.  Once no ancestored row touches the top, ``peel`` removes the top
cross-section, shrinking the box by one along the last axis and the weight by
exactly the number of ancestor-free rows.  Iterating the two moves down to
w_d = 1 telescopes any maximal grid's weight to the closed form.

``normalize``, ``find_pair``, ``convert_step`` and ``peel`` are defined on
maximal maps only: each checks the characterization on entry (one O(rows * d)
sweep) and raises NotMaximalError.  Unguarded, ``peel`` would drop the wrong
weight on a map that breaks the h-rule but has an empty obstruction set.
Convert steps preserve the characterization, so one check covers a whole
normalization, and on a maximal map the work is small:

* A convert step lowers only h(x), so it removes exactly x from the
  obstruction set and adds nothing.  ``normalize`` therefore computes the set
  once, walks it in ascending order skipping rows already drained, mutates
  one dict of intervals and builds a single IntervalMap at the end.
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
  row the climb enters is converted before it is left, so a whole
  normalization costs O(d) per diagonal step of each pending row plus
  O(d^2) per convert step, instead of a walk from the pending row on every
  step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import Shape
from .errors import BottomedOutError, EmptyXSetError, NotMaximalError, XSetNonEmptyError
from .rowform import IntervalMap, RowId, check_characterization, x_set


@dataclass(frozen=True)
class NormalizeReport:
    """Result of a full normalization plus the trace of applied pairs."""

    result: IntervalMap
    steps: int
    pairs: tuple[tuple[RowId, RowId], ...]

    def to_json_obj(self) -> dict:
        return {
            "steps": self.steps,
            "pairs": [[list(x), list(xp)] for x, xp in self.pairs],
            "result": self.result.to_json_obj(),
        }


def _require_maximal(m: IntervalMap, verb: str) -> None:
    """Entry check of the convert machinery: d >= 2 and the characterization."""
    if m.shape.d < 2:
        raise ValueError(f"{verb} applies to d >= 2 only")
    report = check_characterization(m)
    if not report:
        raise NotMaximalError(str(report))


def _walk(intervals: dict, dims: tuple[int, ...], top: int,
          pending: Iterable[RowId]) -> Iterator[tuple[RowId, RowId]]:
    """Yield the convert pairs of a maximal map, draining ``pending`` (its
    obstruction rows, ascending) in order.

    Each pair is applied to ``intervals`` when the walk is resumed after it,
    so the first pair alone leaves ``intervals`` untouched.  The climb is a
    stack of rows; see the module docstring for why resuming it gives the
    pairs of a fresh search.
    """
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
                _convert(intervals, top, x, x_prime)
                path.pop()
                if not path and x != start:
                    path.append(x_prime)


def _convert(intervals: dict, top: int, x: RowId, x_prime: RowId) -> None:
    intervals[x] = (intervals[x][0], top - 1)
    intervals[x_prime] = (top - 1, intervals[x_prime][1])


def find_pair(m: IntervalMap) -> tuple[RowId, RowId]:
    """Locate the rows (x, x') manipulated by the convert step.

    Postconditions: x = x' + (1, ..., 1); h(x) = w_d > l(x); and x' has no
    other descendant whose interval reaches the top.  Requires the
    characterization to hold (else NotMaximalError) and the obstruction set
    to be nonempty (else EmptyXSetError).

    The search is deterministic: stage 1 starts at the lexicographically
    smallest obstruction row and descends through the smallest top-touching
    descendant until a row leaves slack below the top; stage 2 re-anchors to
    the smallest rival descendant while the diagonal ancestor has one.
    """
    _require_maximal(m, "find_pair")
    obstructed = x_set(m)
    if not obstructed:
        raise EmptyXSetError()
    top = m.top
    if top < 2:
        # every interval is (1, 1); no weight can move anywhere
        raise BottomedOutError("last dimension is 1; intervals cannot be lowered")
    return next(_walk(m.intervals, m.shape.dims, top, [min(obstructed)]))


def convert_step(m: IntervalMap) -> IntervalMap:
    """One rewrite: lower h(x) to w_d - 1 and raise l(x') to w_d - 1.

    Preserves weight and the characterization, and removes exactly x from
    the obstruction set.
    """
    x, x_prime = find_pair(m)
    fixed = dict(m.intervals)
    _convert(fixed, m.top, x, x_prime)
    return IntervalMap(m.shape, fixed)


def normalize(m: IntervalMap) -> NormalizeReport:
    """Apply convert steps until the obstruction set is empty.

    Each step removes one row from the set, so the step count equals the
    initial obstruction-set size; weight is untouched throughout.  Requires
    the characterization to hold (else NotMaximalError); a map whose set is
    already empty is returned unchanged.
    """
    _require_maximal(m, "normalize")
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
    """Remove the top cross-section of a normalized map.

    Requires an empty obstruction set, so the rows touching the top are
    exactly the ancestor-free ones (some coordinate equal to 1); each of
    those loses its top cell and the box loses its last layer.  The weight
    therefore drops by prod(w_i, i < d) - prod(w_i - 1, i < d), and the
    characterization still holds on the smaller box.  Requires the
    characterization to hold (else NotMaximalError).
    """
    _require_maximal(m, "peel")
    if m.top < 2:
        raise BottomedOutError("last dimension is already 1")
    obstructed = x_set(m)
    if obstructed:
        raise XSetNonEmptyError(obstructed)
    new_shape = Shape(m.shape.dims[:-1] + (m.top - 1,))
    fixed = {
        row: (l, h - 1) if 1 in row else (l, h)
        for row, (l, h) in m.intervals.items()
    }
    return IntervalMap(new_shape, fixed)
