import math
import random
from itertools import combinations, permutations

import pytest
import reference_dominance
import reference_enumerate
from bitmask_search import search_maximal

from maxac import (
    AlreadyContainsError,
    Grid,
    Shape,
    ShapeTooLargeError,
    brute_force_maximal,
    complete_to_maximal,
    count_closed_form,
    count_maximal,
    enumerate_maximal,
    is_maximal,
    iter_shapes,
    max_size,
    random_maximal,
    weight,
)
from maxac import enumeration
from maxac.enumeration import _transfer_count

# frozen from the definitional subset-filter oracle
TWO_BY_TWO = [
    ((1, 1), (1, 2), (2, 1)),
    ((1, 2), (2, 1), (2, 2)),
]


def test_enumerate_2x2():
    report = enumerate_maximal(Shape((2, 2)), cap=10)
    assert report.count == 2 and not report.truncated
    assert [g.ones for g in report.grids] == TWO_BY_TWO


def test_enumerate_counts():
    assert enumerate_maximal(Shape((2, 3)), cap=10).count == 3
    assert enumerate_maximal(Shape((2, 2, 2)), cap=10).count == 2


def test_enumeration_is_sorted_and_duplicate_free():
    for dims in [(3, 3), (2, 2, 2), (4, 3)]:
        grids = enumerate_maximal(Shape(dims)).grids
        keys = [g.ones for g in grids]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        assert all(is_maximal(g) for g in grids)


def test_enumerate_truncation():
    report = enumerate_maximal(Shape((3, 3)), cap=2)
    assert report.count == 6 and report.truncated
    assert len(report.grids) == 2
    full = enumerate_maximal(Shape((3, 3))).grids
    assert report.grids == full[:2]


def test_enumerate_rejects_large_shapes():
    with pytest.raises(ShapeTooLargeError):
        enumerate_maximal(Shape((6, 5)))
    # the budget is configurable
    assert enumerate_maximal(Shape((6, 5)), max_cells=30).count == 126


def test_enumerate_rejects_bad_cap():
    with pytest.raises(ValueError):
        enumerate_maximal(Shape((2, 2)), cap=0)


def test_cap_and_budget_must_be_positive_integers():
    shape = Shape((2, 2))
    for bad in [True, False, 0, -3, 1.5, 2.0, "2"]:
        with pytest.raises(ValueError, match="^cap must be a positive integer$"):
            enumerate_maximal(shape, cap=bad)
    for bad in [True, False, 0, -1, 25.5, 25.0, None, "25"]:
        with pytest.raises(ValueError, match="^max_cells must be a positive integer$"):
            enumerate_maximal(shape, max_cells=bad)
        with pytest.raises(ValueError, match="^max_cells must be a positive integer$"):
            count_maximal(shape, max_cells=bad)
    assert enumerate_maximal(shape, cap=1, max_cells=4).count == 2
    assert count_maximal(shape, max_cells=4) == 2


def test_count_maximal_examples():
    assert count_maximal(Shape((3, 3))) == 6
    for n in range(1, 7):
        assert count_maximal(Shape((n,))) == n
    assert count_maximal(Shape((1, 4))) == 1


def test_count_matches_enumeration():
    for dims in [(2, 2), (3, 3), (4, 3), (2, 2, 2), (5,), (1, 6), (2, 3, 2)]:
        assert count_maximal(Shape(dims)) == enumerate_maximal(Shape(dims)).count


def test_search_agrees_with_subset_filter():
    for dims in [(2, 2), (2, 3), (3, 3), (2, 2, 2), (6,), (1, 5), (3, 2, 2)]:
        shape = Shape(dims)
        assert enumerate_maximal(shape).grids == brute_force_maximal(shape)


def test_subset_filter_equals_filtering_through_is_maximal():
    shapes = list(iter_shapes(10, 4))
    assert len(shapes) == 179
    for shape in shapes:
        cells = list(shape.iter_cells())
        subsets = (
            Grid(shape, [c for k, c in enumerate(cells) if (mask >> k) & 1])
            for mask in range(1 << len(cells))
        )
        expected = sorted((g for g in subsets if is_maximal(g)), key=lambda g: g.ones)
        assert brute_force_maximal(shape) == tuple(expected), shape.dims


def test_search_agrees_with_bitmask_search_on_every_shape_in_budget():
    shapes = list(iter_shapes(25, 4))
    assert len(shapes) == 739
    for shape in shapes:
        expected = search_maximal(shape)
        assert [g.ones for g in enumerate_maximal(shape).grids] == expected, shape.dims
        assert count_maximal(shape) == len(expected), shape.dims


def test_enumeration_matches_the_plain_odometer():
    # the reference rebuilds every leaf from scratch and has no size-1
    # shortcut; LADDER is every shape of the benchmark's ladder
    shapes = list(iter_shapes(25, 4)) + [Shape(dims) for dims in LADDER]
    for shape in shapes:
        for cap in [None, 1, 2, 5, 1000]:
            report = enumerate_maximal(shape, cap, max_cells=shape.cell_count)
            got = ([g.ones for g in report.grids], report.count, report.truncated)
            assert got == reference_enumerate.enumerate_maximal(shape, cap), (shape.dims, cap)


def test_a_size_one_axis_leaves_the_whole_box_as_the_one_maximal_grid():
    shapes = [s for s in iter_shapes(16, 4) if s.d >= 2 and 1 in s.dims]
    assert len(shapes) == 337
    for shape in shapes:
        report = enumerate_maximal(shape)
        assert report.grids == brute_force_maximal(shape), shape.dims
        assert report.grids == (Grid(shape, shape.iter_cells()),), shape.dims
        assert report.count == count_maximal(shape) == 1 and not report.truncated


def test_a_size_one_axis_skips_the_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("searched a box with a size-1 axis")

    monkeypatch.setattr(enumeration, "_interior_rows", no_search)
    monkeypatch.setattr(enumeration, "_transfer_count", no_search)
    for dims in [(21, 1), (1, 5, 5), (2, 1, 3, 4)]:
        assert enumerate_maximal(Shape(dims)).count == count_maximal(Shape(dims)) == 1


def test_a_size_one_axis_keeps_every_argument_check_and_the_budget():
    with pytest.raises(ShapeTooLargeError):
        enumerate_maximal(Shape((1, 30)))
    with pytest.raises(ShapeTooLargeError):
        count_maximal(Shape((30, 1)))
    for shape in [Shape((1, 3)), Shape((3, 1, 2))]:
        with pytest.raises(ValueError, match="^cap must be a positive integer$"):
            enumerate_maximal(shape, cap=0)
        with pytest.raises(ValueError, match="^max_cells must be a positive integer$"):
            enumerate_maximal(shape, max_cells=True)
        with pytest.raises(ValueError, match="^max_cells must be a positive integer$"):
            count_maximal(shape, max_cells=True)
    assert enumerate_maximal(Shape((1, 30)), max_cells=30).count == 1
    assert count_maximal(Shape((30, 1)), max_cells=30) == 1


def test_count_2d_above_the_budget():
    for w1 in range(1, 11):
        for w2 in range(1, 11):
            shape = Shape((w1, w2))
            assert count_maximal(shape, max_cells=shape.cell_count) == count_closed_form(shape)
    assert count_maximal(Shape((10, 10)), max_cells=100) == 48620


def plane_partitions(a: int, b: int, c: int) -> int:
    """Plane partitions in an a x b x c box, by MacMahon's box formula."""
    pairs = [(i, j) for i in range(1, a + 1) for j in range(1, b + 1)]
    return math.prod(i + j + c - 1 for i, j in pairs) // math.prod(i + j - 1 for i, j in pairs)


def _with_axes(dims, extra, at):
    """``dims`` with the sizes ``extra`` inserted at the positions ``at``."""
    rest, added = iter(dims), iter(extra)
    return tuple(next(added) if k in at else next(rest)
                 for k in range(len(dims) + len(extra)))


def test_count_3d_is_macmahons_box_formula():
    # interior rows form a (w1-1) x (w2-1) grid, and l - 1 is a plane
    # partition in it with parts below w3
    assert plane_partitions(2, 2, 2) == 20 and plane_partitions(3, 3, 2) == 175
    assert count_closed_form(Shape((2, 5, 2, 4, 6))) == plane_partitions(4, 3, 5)
    for dims in [(a, b, c) for a in range(1, 7) for b in range(1, 7) for c in range(1, 7)]:
        shape = Shape(dims)
        expected = plane_partitions(*(w - 1 for w in dims))
        assert count_maximal(shape, max_cells=shape.cell_count) == expected, dims
        assert count_closed_form(shape) == expected, dims
        # a size-2 axis anywhere leaves the count alone, a size-1 axis makes it 1
        for extra in [(1,), (2,), (1, 2), (2, 1), (2, 2)]:
            for at in combinations(range(3 + len(extra)), len(extra)):
                padded = Shape(_with_axes(dims, extra, at))
                assert count_closed_form(padded) == (1 if 1 in extra else expected), padded


def test_count_of_cubes_of_side_three_is_dedekind():
    # the count is the number of antichains of [2]^d, the Boolean lattice of
    # a d-set, i.e. the Dedekind number M(d) (OEIS A000372)
    for d, dedekind in enumerate([3, 6, 20, 168, 7581], start=1):
        shape = Shape((3,) * d)
        assert count_maximal(shape, max_cells=shape.cell_count) == dedekind, d


@pytest.mark.slow
def test_count_of_the_six_cube_of_side_three_is_dedekind():
    shape = Shape((3,) * 6)
    assert count_maximal(shape, max_cells=shape.cell_count) == 7_828_354


@pytest.mark.slow
def test_count_of_the_cube_of_side_eight_is_macmahons_box_formula():
    shape = Shape((8, 8, 8))
    assert count_maximal(shape, max_cells=shape.cell_count) == plane_partitions(7, 7, 7)


# the 28 shapes of the benchmark's search ladder, all above the default budget
LADDER = [
    (10, 5), (3, 4, 4), (4, 11), (12, 4), (6, 8), (4, 3, 4), (7, 7), (4, 4, 3),
    (5, 2, 5), (5, 9), (2, 4, 6), (5, 5, 2), (8, 6), (2, 6, 4), (9, 2, 3), (9, 3, 2),
    (3, 3, 3, 3), (4, 6, 2), (6, 4, 2), (2, 8, 3), (3, 3, 5), (3, 5, 3), (3, 8, 2),
    (6, 7), (3, 12), (6, 6), (4, 9), (3, 3, 4),
]


def test_count_matches_the_odometer_above_the_budget():
    for dims in LADDER:
        shape = Shape(dims)
        budget = shape.cell_count
        assert budget > 25
        assert count_maximal(shape, max_cells=budget) == enumerate_maximal(
            shape, cap=1, max_cells=budget
        ).count, dims


def test_every_axis_order_runs_to_the_same_count():
    # count_maximal picks one axis order; the DP itself runs in any order,
    # each with its own window and value range
    shapes = [s.dims for s in iter_shapes(25, 4) if s.d >= 2] + [(7, 4, 5), (3, 3, 4, 2)]
    for dims in shapes:
        expected = count_maximal(Shape(dims), max_cells=math.prod(dims))
        for order in set(permutations(dims)):
            assert _transfer_count(order) == expected, order


def test_cap_keeps_the_first_grids_above_the_budget():
    for dims, total in [((8, 8), 3432), ((4, 4, 3), 175), ((3, 3, 3, 3), 168)]:
        shape = Shape(dims)
        full = enumerate_maximal(shape, max_cells=shape.cell_count)
        keys = [g.ones for g in full.grids]
        assert full.count == len(keys) == total and not full.truncated
        assert keys == sorted(keys)
        capped = enumerate_maximal(shape, cap=5, max_cells=shape.cell_count)
        assert capped.count == total and capped.truncated
        assert capped.grids == full.grids[:5]
        exact = enumerate_maximal(shape, cap=total, max_cells=shape.cell_count)
        assert exact.grids == full.grids and not exact.truncated


def test_brute_force_budget():
    with pytest.raises(ShapeTooLargeError):
        brute_force_maximal(Shape((5, 4)))
    # the limit is exactly 16 cells
    assert len(brute_force_maximal(Shape((4, 4)))) == 20
    with pytest.raises(ShapeTooLargeError):
        brute_force_maximal(Shape((1, 17)))


def test_complete_to_maximal_examples():
    done = complete_to_maximal(Grid(Shape((2, 2))))
    assert done.ones == ((1, 1), (1, 2), (2, 1))  # (2,2) rejected after (1,1)

    seeded = complete_to_maximal(Grid(Shape((2, 2)), [(2, 2)]))
    assert seeded.ones == ((1, 2), (2, 1), (2, 2))

    fixpoint = complete_to_maximal(done)
    assert fixpoint == done


def test_complete_to_maximal_rejects_dirty_grids():
    with pytest.raises(AlreadyContainsError):
        complete_to_maximal(Grid(Shape((2, 2)), [(1, 1), (2, 2)]))


def test_complete_to_maximal_custom_order():
    shape = Shape((2, 2))
    order = [(2, 2), (2, 1), (1, 2), (1, 1)]
    g = complete_to_maximal(Grid(shape), order)
    assert g.ones == ((1, 2), (2, 1), (2, 2))
    with pytest.raises(ValueError):
        complete_to_maximal(Grid(shape), [(1, 1)])  # not a full permutation
    # equal to (1, 1) as tuples, but not in-box int cells
    for bad in [(1, "a"), (True, 1), (1.0, 1)]:
        with pytest.raises(ValueError):
            complete_to_maximal(Grid(shape), [bad, (1, 2), (2, 1), (2, 2)])


def test_complete_to_maximal_matches_the_pairwise_oracle():
    for dims in [(1, 40), (40, 1), (40,), (3, 1, 8), (2,) * 5, (20, 20), (8, 8, 8)]:
        shape = Shape(dims)
        cells = list(shape.iter_cells())
        rng = random.Random(sum(dims))
        for seed in range(3):
            order = cells[:]
            rng.shuffle(order)
            ones = random_maximal(shape, seed).ones
            # a clean seed grid: a nonempty part of a maximal grid
            seeded = Grid(shape, rng.sample(ones, max(1, len(ones) // 4)))
            for g, o in [(Grid(shape), order), (seeded, order), (seeded, None)]:
                assert complete_to_maximal(g, o) == reference_dominance.complete_to_maximal(g, o)
            zeros = [c for c in cells if c not in ones]
            if zeros:
                dirty = Grid(shape, ones + (rng.choice(zeros),))
                for impl in (complete_to_maximal, reference_dominance.complete_to_maximal):
                    with pytest.raises(AlreadyContainsError):
                        impl(dirty, order)


def test_completion_always_yields_maximal_grids():
    for dims in [(2, 2), (3, 3), (2, 2, 2), (4,)]:
        shape = Shape(dims)
        for seed in range(20):
            g = random_maximal(shape, seed)
            assert is_maximal(g)


def test_random_maximal_examples():
    two = {ones for ones in TWO_BY_TWO}
    for seed in range(10):
        assert random_maximal(Shape((2, 2)), seed).ones in two
    assert random_maximal(Shape((1, 5)), 3).ones == tuple(Shape((1, 5)).iter_cells())
    for seed in range(100):
        assert weight(random_maximal(Shape((3, 3)), seed)) == 5


def test_random_maximal_is_seed_deterministic():
    for seed in (0, 1, 17, 2**40):
        a = random_maximal(Shape((3, 4)), seed)
        b = random_maximal(Shape((3, 4)), seed)
        assert a == b


def test_enumeration_report_json():
    obj = enumerate_maximal(Shape((2, 2)), cap=10).to_json_obj()
    assert obj == {
        "w": [2, 2],
        "count": 2,
        "truncated": False,
        "grids": [
            {"w": [2, 2], "ones": [[1, 1], [1, 2], [2, 1]]},
            {"w": [2, 2], "ones": [[1, 2], [2, 1], [2, 2]]},
        ],
    }


def test_uniform_weight_across_enumeration():
    for dims in [(2, 2), (3, 3), (2, 3, 2), (1, 6), (5,)]:
        shape = Shape(dims)
        expected = max_size(shape)
        assert all(weight(g) == expected for g in enumerate_maximal(shape).grids)
