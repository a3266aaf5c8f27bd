"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Each criterion runs the matching ``maxac.verification`` check over
its sweep, so the claims have one implementation: all shapes with d <= 4 and
at most 20 cells for the structural laws, with the named minimum list used
where a criterion needs heavy per-shape sampling or play.  Every check is
exact (no tolerances).

Each claim's Tier-1 check is its criterion here.  The per-module tests do
not re-check a claim on a subset of these sweeps: they keep examples with
literal values, error paths, and differential oracles (a fast path against
its definitional reference).
"""

import itertools
import math

from maxac import (
    Shape,
    count_closed_form,
    count_maximal,
    enumerate_maximal,
    iter_shapes,
    to_intervals,
    x_set,
)
from maxac.verification import (
    GAME_PLAYERS,
    check_bijection,
    check_brute_force,
    check_counting,
    check_equivalence,
    check_game,
    check_normalization,
    check_peel_recurrence,
    check_size_law,
)

# the minimum shape list every sweep must include
MINIMUM_SHAPES = [
    (2, 2), (2, 3), (3, 3), (4, 4), (2, 2, 2),
    (3, 2, 2), (2, 2, 2, 2), (5, 3), (1, 7), (6,),
]

SWEEP = [s for s in iter_shapes(20, 4)]


def _report(number: int, name: str, passed: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {'PASS' if passed else 'FAIL'}{tail}")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def _run(check, shape, *args, **kwargs):
    """Run one check and fail on a failed result, or one that did not run:
    skipped, or out of the check's scope."""
    result = check(shape, *args, **kwargs)
    why = (shape.dims, result.detail)
    assert result.passed, why
    assert not result.detail.startswith("skipped"), why
    assert not result.detail.endswith(("not applicable", "not defined")), why
    return result


def _maximal(shape):
    return enumerate_maximal(shape).grids


def test_criterion_1_size_law():
    """Every enumerated maximal grid has weight prod(w) - prod(w - 1)."""
    assert all(Shape(d) in SWEEP for d in MINIMUM_SHAPES)
    grids = 0
    for shape in SWEEP:
        maximal = _maximal(shape)
        _run(check_size_law, shape, maximal)
        grids += len(maximal)
    _report(1, "size-law", True, f"{len(SWEEP)} shapes, {grids} grids")


def test_criterion_2_characterization_equivalence():
    """is_maximal(g) iff to_intervals succeeds and the characterization holds.

    Checked for every maximal grid of every swept shape (d >= 2), plus 1000
    seeded non-maximal grids per shape on the minimum list.
    """
    checked = 0
    for shape in SWEEP:
        if shape.d < 2:
            continue
        maximal = _maximal(shape)
        _run(check_equivalence, shape, maximal, samples=0)
        checked += len(maximal)
    sampled = 0
    for dims in MINIMUM_SHAPES:
        shape = Shape(dims)
        if shape.d < 2:
            continue
        _run(check_equivalence, shape, _maximal(shape), samples=1000, seed=2)
        sampled += 1000
    _report(2, "characterization-equivalence", True,
            f"{checked} maximal + {sampled} sampled grids")


def test_criterion_3_counting_2d():
    """count_maximal((w1, w2)) equals the binomial C(w1 + w2 - 2, w1 - 1)."""
    for w1 in range(1, 6):
        for w2 in range(1, 6):
            _run(check_counting, Shape((w1, w2)), _maximal(Shape((w1, w2))))
            assert count_closed_form(Shape((w1, w2))) == math.comb(w1 + w2 - 2, w1 - 1)
    assert count_maximal(Shape((2, 2))) == 2
    assert count_maximal(Shape((5, 5))) == 70
    _report(3, "counting-2d", True, "all w1, w2 in [1, 5]")


def test_criterion_4_bijection():
    """Appending a size-2 axis is a bijection between maximal-grid sets."""
    shapes = [s for s in iter_shapes(12, 4)]
    for shape in shapes:
        _run(check_bijection, shape, _maximal(shape))
    _report(4, "append-layer-bijection", True, f"{len(shapes)} base shapes")


def test_criterion_5_all_le2_corollary():
    """count = min(w_i) over {1,2}^d boxes, and count((n)) = n for d = 1."""
    boxes = 0
    for d in range(1, 5):
        for dims in itertools.product((1, 2), repeat=d):
            shape = Shape(dims)
            _run(check_counting, shape, _maximal(shape))
            assert count_maximal(shape) == count_closed_form(shape) == min(dims)
            boxes += 1
    for n in range(1, 7):
        assert count_maximal(Shape((n,))) == count_closed_form(Shape((n,))) == n
    _report(5, "all-le2-corollary", True, f"{boxes} boxes plus d=1 lines")


def test_criterion_6_normalization():
    """normalize takes exactly |x_set| convert steps, each preserving weight
    and the characterization and removing exactly the chosen row.

    Shapes with w_d = 1 are excluded: there the obstruction set can be
    nonempty while no convert step is definable (intervals cannot drop below
    1), so the machinery deliberately refuses them.
    """
    grids = 0
    steps = 0
    for shape in SWEEP:
        if shape.d < 2 or shape.dims[-1] < 2:
            continue
        maximal = _maximal(shape)
        _run(check_normalization, shape, maximal)
        grids += len(maximal)
        steps += sum(len(x_set(to_intervals(g))) for g in maximal)
    _report(6, "normalization", True, f"{grids} grids, {steps} convert steps")


def test_criterion_7_peel_recurrence():
    """Alternating normalize and peel drops a fixed weight per peel and
    telescopes every maximal grid to the closed form."""
    grids = 0
    for shape in SWEEP:
        if shape.d < 2:
            continue
        maximal = _maximal(shape)
        _run(check_peel_recurrence, shape, maximal)
        grids += len(maximal)
    _report(7, "peel-recurrence", True, f"{grids} grids telescoped")


def test_criterion_8_game_loser_invariance():
    """100 seeded random-safe games per (shape, m) all lose for
    max_size mod m after exactly max_size safe moves."""
    configs = 0
    for dims in MINIMUM_SHAPES:
        shape = Shape(dims)
        if shape.cell_count > 16:
            continue
        _run(check_game, shape, trials=100, seed=0)
        configs += len(GAME_PLAYERS)
    _report(8, "game-loser-invariance", True, f"{configs} configs x 100 games")


def test_criterion_9_oracle_cross_check():
    """The search equals the full 2^n subset filter, set for set."""
    shapes = 0
    for dims in MINIMUM_SHAPES:
        shape = Shape(dims)
        if shape.cell_count > 16:
            continue
        _run(check_brute_force, shape, _maximal(shape))
        shapes += 1
    _report(9, "oracle-cross-check", True, f"{shapes} shapes")


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            fn()
