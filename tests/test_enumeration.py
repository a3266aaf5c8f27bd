import math
import random
import sys
import time
from itertools import combinations, permutations

import pytest
import reference_dominance
import reference_enumerate
from bitmask_search import search_maximal
from reference_count import _transfer_count

from maxac import (
    COUNT_DIGIT_LIMIT,
    COUNT_STATE_LIMIT,
    COUNT_WORK_LIMIT,
    GAME_CELL_LIMIT,
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
from maxac.core import _box

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
        if bad is not None:  # count_maximal's default: no cell budget
            with pytest.raises(ValueError, match="^max_cells must be a positive integer$"):
                count_maximal(shape, max_cells=bad)
    assert enumerate_maximal(shape, cap=1, max_cells=4).count == 2
    assert count_maximal(shape, max_cells=4) == count_maximal(shape, max_cells=None) == 2


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

    monkeypatch.setattr(enumeration, "_iter_left_ends", no_search)
    monkeypatch.setattr(enumeration, "_zeta_count", no_search)
    for dims in [(21, 1), (1, 5, 5), (2, 1, 3, 4)]:
        assert enumerate_maximal(Shape(dims)).count == count_maximal(Shape(dims)) == 1


def test_a_size_one_axis_keeps_every_argument_check_and_the_budget():
    with pytest.raises(ShapeTooLargeError):
        enumerate_maximal(Shape((1, 30)))
    with pytest.raises(ShapeTooLargeError):
        count_maximal(Shape((30, 1)), max_cells=29)
    for shape in [Shape((1, 3)), Shape((3, 1, 2))]:
        with pytest.raises(ValueError, match="^cap must be a positive integer$"):
            enumerate_maximal(shape, cap=0)
        with pytest.raises(ValueError, match="^max_cells must be a positive integer$"):
            enumerate_maximal(shape, max_cells=True)
        with pytest.raises(ValueError, match="^max_cells must be a positive integer$"):
            count_maximal(shape, max_cells=True)
    assert enumerate_maximal(Shape((1, 30)), max_cells=30).count == 1
    assert count_maximal(Shape((30, 1)), max_cells=30) == count_maximal(Shape((30, 1))) == 1


def test_count_2d_above_the_budget():
    for w1 in range(1, 11):
        for w2 in range(1, 11):
            shape = Shape((w1, w2))
            assert count_maximal(shape, max_cells=shape.cell_count) == math.comb(
                w1 + w2 - 2, w1 - 1)
    assert count_maximal(Shape((10, 10)), max_cells=100) == 48620


def test_count_takes_the_closed_form_on_long_boxes():
    # boxes of at most three sides above 2 take the closed form, whatever
    # their length
    for dims, expected in [((2, 10**9), 10**9), ((3163, 3163), math.comb(6324, 3162))]:
        start = time.perf_counter()
        assert count_maximal(Shape(dims)) == expected
        assert time.perf_counter() - start < 0.1, dims


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


def test_count_of_the_six_cube_of_side_three_is_dedekind():
    shape = Shape((3,) * 6)
    assert count_maximal(shape, max_cells=shape.cell_count) == 7_828_354


def test_count_of_the_cube_of_side_eight_is_macmahons_box_formula():
    # count_maximal takes the closed form here, so the zeta kernel is called
    # directly
    shape = Shape((8, 8, 8))
    assert count_maximal(shape, max_cells=shape.cell_count) == plane_partitions(7, 7, 7)
    assert enumeration._zeta_count(shape.dims) == plane_partitions(7, 7, 7)


def test_the_zeta_kernel_matches_the_transfer_dp_up_to_64_cells():
    # count_maximal reaches the kernel only past three sides above 2, so it
    # is called directly on every box with two or more
    shapes = [s.dims for s in iter_shapes(64, 5)
              if 1 not in s.dims and sum(w > 2 for w in s.dims) >= 2]
    assert len(shapes) == 236
    for dims in shapes:
        *middle, second, largest = sorted(dims)
        assert enumeration._zeta_count(dims) == _transfer_count((largest, *middle, second)), dims


# the 28 shapes of the benchmark's search ladder, all above the default budget
LADDER = [
    (10, 5), (3, 4, 4), (4, 11), (12, 4), (6, 8), (4, 3, 4), (7, 7), (4, 4, 3),
    (5, 2, 5), (5, 9), (2, 4, 6), (5, 5, 2), (8, 6), (2, 6, 4), (9, 2, 3), (9, 3, 2),
    (3, 3, 3, 3), (4, 6, 2), (6, 4, 2), (2, 8, 3), (3, 3, 5), (3, 5, 3), (3, 8, 2),
    (6, 7), (3, 12), (6, 6), (4, 9), (3, 3, 4),
]


def test_count_matches_the_odometer_above_the_budget():
    # uncapped, the enumeration counts the grids it lists
    for dims in LADDER:
        shape = Shape(dims)
        budget = shape.cell_count
        assert budget > 25
        assert count_maximal(shape, max_cells=budget) == len(enumerate_maximal(
            shape, max_cells=budget
        ).grids), dims


def test_every_axis_order_runs_to_the_same_count():
    # the reference transfer DP runs in any axis order, each with its own
    # window and value range
    shapes = [s.dims for s in iter_shapes(25, 4) if s.d >= 2] + [(7, 4, 5), (3, 3, 4, 2)]
    for dims in shapes:
        expected = count_maximal(Shape(dims))
        for order in set(permutations(dims)):
            assert _transfer_count(order) == expected, order


def test_count_matches_the_transfer_dp_on_every_shape_up_to_64_cells():
    shapes = list(iter_shapes(64, 5))
    assert len(shapes) == 6616
    for shape in shapes:
        if shape.d >= 2 and 1 not in shape.dims:
            # the axis order that kept the DP's window smallest
            *middle, second, largest = sorted(shape.dims)
            expected = _transfer_count((largest, *middle, second))
        else:
            expected = shape.dims[0] if shape.d == 1 else 1
        assert count_maximal(shape) == expected, shape.dims


def test_count_is_invariant_under_axis_permutations():
    for shape in iter_shapes(25, 4):
        expected = count_maximal(shape)
        for order in set(permutations(shape.dims)):
            assert count_maximal(Shape(order)) == expected, order


def test_the_count_budgets_refuse_before_any_pass(monkeypatch):
    def no_pass(*args):
        raise AssertionError("listed the covering pairs past a budget")

    monkeypatch.setattr(enumeration, "_covering_pairs", no_pass)
    # the ideals number the count of the box less its largest side: 10^3's
    # for 10^4; past three sides above 2, at least 2 ** (the widest rank of
    # Q), as any subset of a rank with all below it is an ideal: 44 of [4]^4,
    # 85 of [5]^4 and 20 of [2]^6; and [999]^3 has more than the budget's
    # elements alone
    for dims, states in [((10, 10, 10, 10), plane_partitions(9, 9, 9)),
                         ((5, 5, 5, 5, 5), 2**44), ((6, 6, 6, 6, 6), 2**85),
                         ((3,) * 7, 2**20), ((1000, 1000, 1000, 1000), None)]:
        with pytest.raises(ShapeTooLargeError) as info:
            count_maximal(Shape(dims))
        limit = COUNT_STATE_LIMIT
        assert info.value.limit == limit and info.value.cells == math.prod(dims)
        amount = states if states else limit + 1
        assert str(info.value) == (f"counting shape {dims} takes at least {amount} states, "
                                   f"limit is {limit} (COUNT_STATE_LIMIT)")
    # passes times the ideals less one, a lower bound on the covering pairs:
    # 20 ideals of [2]^3 and 232,848 of [4]^3
    for dims, work in [((3, 3, 3, 10**6), 999_998 * 19), ((5, 5, 5, 1000), 998 * 232_847)]:
        with pytest.raises(ShapeTooLargeError) as info:
            count_maximal(Shape(dims))
        assert info.value.limit == COUNT_WORK_LIMIT
        assert str(info.value) == (f"counting shape {dims} takes at least {work} additions, "
                                   f"limit is {COUNT_WORK_LIMIT} (COUNT_WORK_LIMIT)")
    # up to three sides above 2 the closed form refuses a count too long to
    # print before any work
    for dims in [(10**8, 10**8), (1000, 1000, 1000)]:
        with pytest.raises(ValueError, match=r"\(sys.get_int_max_str_digits\)$"):
            count_maximal(Shape(dims))


def test_the_digit_budget_refuses_before_any_work_with_no_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for dims, digits in [((10**6, 10**6), 301_029), ((10**5, 10**5), 30_102),
                             ((800, 800, 800), 112_474)]:
            for count in (count_maximal, count_closed_form):
                start = time.perf_counter()
                with pytest.raises(ShapeTooLargeError) as info:
                    count(Shape(dims))
                assert time.perf_counter() - start < 0.1, (count, dims)
                assert info.value.limit == COUNT_DIGIT_LIMIT
                assert str(info.value) == (
                    f"counting shape {dims} takes at least {digits} digits, "
                    f"limit is {COUNT_DIGIT_LIMIT} (COUNT_DIGIT_LIMIT)")
    finally:
        sys.set_int_max_str_digits(limit)


def test_the_work_budget_counts_the_covering_pairs_once_listed():
    # J([2]^3) has 20 ideals and 32 covering pairs: 400,000 passes pass the
    # first check (7.6 million) and fail the exact one (12.8 million)
    assert COUNT_WORK_LIMIT == 10_000_000
    with pytest.raises(ShapeTooLargeError, match=(
            r"^counting shape \(3, 3, 3, 400002\) takes at least 12800000 additions, "
            r"limit is 10000000 \(COUNT_WORK_LIMIT\)$")):
        count_maximal(Shape((3, 3, 3, 400_002)))


def test_a_capped_enumeration_stops_at_the_cap(monkeypatch):
    pulled = []
    iter_left_ends = enumeration._iter_left_ends

    def counted(*args):
        for leaf in iter_left_ends(*args):
            pulled.append(leaf)
            yield leaf

    monkeypatch.setattr(enumeration, "_iter_left_ends", counted)
    shape = Shape((5, 5, 4))
    for cap, kept in [(5, 5), (1000, 1000), (24_696, 24_696), (None, 24_696)]:
        pulled.clear()
        report = enumerate_maximal(shape, cap=cap, max_cells=100)
        assert report.count == 24_696 and len(report.grids) == kept
        assert report.truncated == (kept < 24_696)
        assert len(pulled) <= kept + 1


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


def test_the_flood_refuses_a_box_past_the_game_budget(monkeypatch):
    def unread(*args):
        raise AssertionError("listed the cells of a box past the budget")
        yield

    monkeypatch.setattr(Shape, "iter_cells", unread)
    before = _box.cache_info().currsize
    for dims in [(2,) * 18, (101, 100)]:
        shape = Shape(dims)
        for refused in [lambda: complete_to_maximal(Grid(shape)),
                        lambda: complete_to_maximal(Grid(shape), unread()),
                        lambda: random_maximal(shape, 0)]:
            with pytest.raises(ShapeTooLargeError) as info:
                refused()
            assert (info.value.cells, info.value.limit) == (shape.cell_count, GAME_CELL_LIMIT)
    assert _box.cache_info().currsize == before
    monkeypatch.undo()
    # the budget itself is fine
    assert weight(random_maximal(Shape((100, 100)), 0)) == 199
    assert weight(complete_to_maximal(Grid(Shape((100, 100))))) == 199


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
