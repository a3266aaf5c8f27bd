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
  x + e_k for the largest such k; each search step costs O(d), not a walk of
  the up-set.  On a map breaking the characterization neither holds, and the
  search could leave the box or produce an interval with l > h.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _pair_from(intervals, dims: tuple[int, ...], top: int, x: RowId) -> tuple[RowId, RowId]:
    """The convert pair reached from obstruction row ``x`` of a maximal map.

    Stage 1 steps to the first top-touching descendant while x leaves no
    slack below the top; stage 2 re-anchors to the first rival descendant of
    x' while there is one.  Both firsts are found in O(d) because the
    top-touching rows form a down-set (see the module docstring).
    """
    while intervals[x][0] == top:
        x = tuple(c + 1 for c in x)
    while True:
        for k in reversed(range(len(x))):
            if x[k] < dims[k]:
                z = x[:k] + (x[k] + 1,) + x[k + 1:]
                if intervals[z][1] == top:
                    x = z
                    break
        else:
            return x, tuple(c - 1 for c in x)


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
    return _pair_from(m.intervals, m.shape.dims, top, min(obstructed))


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
    dims = m.shape.dims
    pairs: list[tuple[RowId, RowId]] = []
    # each step starts at the smallest row still in the set; drained rows
    # are skipped rather than deleted
    for start in pending:
        while intervals[start][1] == top:
            x, x_prime = _pair_from(intervals, dims, top, start)
            _convert(intervals, top, x, x_prime)
            pairs.append((x, x_prime))
    return NormalizeReport(
        result=IntervalMap(m.shape, intervals), steps=len(pairs), pairs=tuple(pairs)
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
