import random
import sys
from collections import Counter

import pytest
import reference_dominance
import reference_flood

from maxac import (
    DimensionMismatchError,
    Grid,
    IntervalMap,
    Shape,
    complete_to_maximal,
    contains_forbidden,
    count_maximal,
    enumerate_maximal,
    flip_creates_containment,
    from_intervals,
    is_maximal,
    max_size,
    normalize,
    peel,
    play,
    random_maximal,
    strictly_below,
    to_intervals,
    weight,
)
from maxac.core import GAME_CELL_LIMIT, _Box, _box, _digit_count, _flood, _turn_on
from maxac.verification import iter_shapes


def test_strictly_below_examples():
    assert strictly_below((1, 1), (2, 2))
    assert not strictly_below((1, 2), (2, 2))  # tie breaks strictness
    assert strictly_below((1,), (3,))


def test_strictly_below_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        strictly_below((1, 2), (1, 2, 3))


def test_strict_order_is_irreflexive_and_asymmetric():
    cells = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]
    for a in cells:
        assert not strictly_below(a, a)
        for b in cells:
            assert not (strictly_below(a, b) and strictly_below(b, a))


def test_contains_forbidden_examples():
    assert contains_forbidden(Grid(Shape((2, 2)), [(1, 1), (2, 2)]))
    assert not contains_forbidden(Grid(Shape((2, 2)), [(1, 2), (2, 1)]))
    # d = 1: any two one-cells count
    assert contains_forbidden(Grid(Shape((5,)), [(1,), (4,)]))
    assert not contains_forbidden(Grid(Shape((5,)), [(4,)]))


def test_weight_examples():
    assert weight(Grid(Shape((3, 3)))) == 0
    assert weight(Grid(Shape((2, 2)), [(1, 1), (2, 1), (1, 2)])) == 3
    for g in enumerate_maximal(Shape((3, 3))).grids:
        assert weight(g) == 5


def test_is_maximal_examples():
    assert is_maximal(Grid(Shape((2, 2)), [(1, 1), (2, 1), (1, 2)]))
    # adding (1,1) would keep the grid clean
    assert not is_maximal(Grid(Shape((2, 2)), [(1, 2), (2, 1)]))
    # already contains the forbidden pair
    assert not is_maximal(Grid(Shape((2, 2)), [(1, 1), (2, 2)]))


# thin and size-1 axes put the flood's box edges next to its start cell
DOMINANCE_BOXES = [(1, 40), (40, 1), (40,), (3, 1, 8), (2,) * 5, (20, 20), (8, 8, 8)]


def test_is_maximal_matches_the_pairwise_oracle():
    for dims in DOMINANCE_BOXES:
        shape = Shape(dims)
        cells = list(shape.iter_cells())
        rng = random.Random(sum(dims))
        pool = [Grid(shape), Grid(shape, cells)]
        for seed in range(3):
            ones = random_maximal(shape, seed).ones
            zeros = [c for c in cells if c not in ones]
            pool.append(Grid(shape, ones))
            # punctured: clean but unsaturated
            pool.append(Grid(shape, [c for c in ones if c != rng.choice(ones)]))
            # padded: every cell is dead, but through a forbidden pair
            if zeros:
                pool.append(Grid(shape, ones + (rng.choice(zeros),)))
            for density in (0.05, 0.3):
                pool.append(Grid(shape, [c for c in cells if rng.random() < density]))
        for g in pool:
            assert is_maximal(g) == reference_dominance.is_maximal(g), (dims, g.ones)


def _seeded_box(rng):
    """A box with d <= 4 and at most GAME_CELL_LIMIT cells, small or large."""
    while True:
        d = rng.randint(1, 4)
        side = rng.choice([3, 6, 2 * round(GAME_CELL_LIMIT ** (1 / d))])
        shape = Shape(tuple(rng.randint(1, side) for _ in range(d)))
        if shape.cell_count <= GAME_CELL_LIMIT:
            return shape


def test_is_maximal_gives_the_flood_verdict_one_move_from_maximal():
    # a maximal grid, one row's interval shifted by one, and one cell moved
    # to a zero cell: both variants keep full weight, so the weight check
    # cannot decide them
    rng = random.Random(10)
    verdicts, small = Counter(), 0
    for seed in range(200):
        shape = _seeded_box(rng)
        g = random_maximal(shape, seed)
        m = to_intervals(g)
        rows = dict(m.intervals)
        variants = [g]
        movable = [x for x, (l, h) in rows.items() if l > 1 or h < m.top]
        if movable:
            x = rng.choice(movable)
            l, h = rows[x]
            shift = 1 if h < m.top and (l == 1 or rng.random() < 0.5) else -1
            rows[x] = (l + shift, h + shift)
            variants.append(from_intervals(IntervalMap(shape, rows)))
        zeros = [c for c in shape.iter_cells() if c not in g.one_set]
        if zeros:
            gone = rng.choice(g.ones)
            variants.append(Grid(shape, [c for c in g.ones if c != gone] + [rng.choice(zeros)]))
        for v in variants:
            flooded = _flood(v)
            got = is_maximal(v)
            assert got == (flooded is not None and not any(flooded[1])), (shape.dims, v.ones)
            if shape.cell_count <= 64:
                assert got == reference_dominance.is_maximal(v), (shape.dims, v.ones)
                small += 1
            verdicts[v is g, got] += 1
    assert verdicts[True, True] == 200 and verdicts[False, True] and verdicts[False, False]
    assert small > 0


def test_one_layout_per_box_with_shared_step_tuples():
    box = _box((3, 4))
    # one layout object per dims, whichever Shape asks
    assert _box(Shape((3, 4)).dims) is box
    assert box.cells == tuple(Shape((3, 4)).iter_cells()) and box.strides == (4, 1)
    assert box.diag == 5
    (up, up_table, up_full), (down, down_table, down_full) = box.steps
    assert box.steps is box.steps
    assert (up, up_full, down, down_full) == (5, (4, 1), -5, (-4, -1))
    at = {c: (u, v) for c, u, v in zip(box.cells, up_table, down_table)}
    assert at[(1, 1)] == ((4, 1), ()) and at[(2, 3)] == ((4, 1), (-4, -1))
    assert at[(3, 1)] == ((1,), (-4,)) and at[(1, 4)] == ((4,), (-1,))
    assert at[(3, 4)] == ((), (-4, -1))
    # per direction, the cells share one offset tuple per set of open axes
    assert len(set(map(id, up_table))) == len(set(map(id, down_table))) == 4
    assert all(t is up_full for t in up_table if len(t) == 2)
    # with a size-1 axis no cell steps along every axis: no diagonal start
    for dims in [(1,), (1, 6), (6, 1), (3, 1, 3)]:
        assert [full for _, _, full in _box(dims).steps] == [None, None]


def test_the_box_alone_turns_a_cell_into_its_flat_index():
    # every shape with at most 4 axes and 64 cells, d = 1 and size-1 axes included
    for shape in iter_shapes(64, 4):
        box = _box(shape.dims)
        assert [box.index(c) for c in box.cells] == list(range(len(box.cells)))


def _forbid(monkeypatch, *parts):
    """Make reading any of ``parts`` of a box layout raise, cached or not."""
    def built(self):
        raise AssertionError("built a part the caller does not read")

    for part in parts:
        monkeypatch.setattr(_Box, part, property(built))


def test_enumeration_never_builds_a_step_table(monkeypatch):
    _forbid(monkeypatch, "steps")
    for dims in [(3, 4), (2, 2, 2), (1, 5), (4, 4), (6,), (2, 3, 1, 2)]:
        enumerate_maximal(Shape(dims))
        count_maximal(Shape(dims))


def test_is_maximal_never_builds_a_step_table(monkeypatch):
    _forbid(monkeypatch, "steps")
    for dims in [(3, 4), (2, 2, 2), (1, 5), (6,)]:
        g = enumerate_maximal(Shape(dims)).grids[-1]
        assert is_maximal(g)
        assert not is_maximal(Grid(g.shape, g.ones[1:]))


def test_the_flood_builds_its_step_table_on_the_row_box_only():
    for dims in [(3, 4), (2, 2, 2), (1, 5), (6,), (2, 3, 1, 2)]:
        shape = Shape(dims)
        _box.cache_clear()
        play(shape, 2, ["random", "lex"])
        complete_to_maximal(Grid(shape, ()))
        random_maximal(shape, 0)
        assert "steps" not in vars(_box(dims)) and "steps" in vars(_box(dims[:-1]))


def _holds_only_the_row_box(dims):
    """Whether the layout cache, cleared before, holds just ``dims[:-1]``."""
    if _box.cache_info().currsize != 1:
        return False
    misses = _box.cache_info().misses
    _box(dims[:-1])
    return _box.cache_info().misses == misses


def test_a_grid_of_the_wrong_weight_adds_no_box():
    shape = Shape((3, 4))
    maximal = enumerate_maximal(shape).grids[0]
    _box.cache_clear()
    for ones in [(), ((1, 1),), maximal.ones[1:], tuple(shape.iter_cells())]:
        assert not is_maximal(Grid(shape, ones))
    assert _box.cache_info().currsize == 0


def test_a_maximal_grid_adds_only_its_row_box():
    for dims in [(3, 4), (2, 3, 4), (4, 1, 3)]:
        g = enumerate_maximal(Shape(dims)).grids[0]
        _box.cache_clear()
        assert is_maximal(g)
        assert _holds_only_the_row_box(dims)
    # d = 1: the size law decides, and the row form holds its one row's
    # bounds with no layout, as nothing reads its intervals
    _box.cache_clear()
    assert is_maximal(Grid(Shape((5,)), [(3,)]))
    assert not is_maximal(Grid(Shape((5,)), [(3,), (4,)]))
    assert _box.cache_info().currsize == 0


def test_is_maximal_on_a_million_cells_builds_no_layout_of_the_box(monkeypatch):
    _forbid(monkeypatch, "steps")
    shape = Shape((1000, 1000))
    # the maximal grid "some coordinate is 1"
    boundary = Grid(shape, [(1, y) for y in range(1, 1001)] + [(x, 1) for x in range(2, 1001)])
    _box.cache_clear()
    assert not is_maximal(Grid(shape, [(500, 500)]))
    assert _box.cache_info().currsize == 0
    assert is_maximal(boundary)
    assert _holds_only_the_row_box(shape.dims)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_step_table_flood_kills_what_the_coordinate_flood_kills(seed):
    # every shape with at most 4 axes and 64 cells, d = 1 and size-1 axes
    # included; from the empty board (seed 0) or a seeded partial one, every
    # alive start cell must leave the same flags under both floods, and its
    # runs must tile exactly the cells the coordinate flood kills, each run
    # inside one row
    rng = random.Random(seed)
    for shape in iter_shapes(64, 4):
        cells, strides, board = reference_flood.layout(shape)
        box, width = _box(shape.dims), shape.dims[-1]
        steps = _box(shape.dims[:-1]).steps
        assert (box.cells, box.strides) == (cells, strides)
        if seed:
            order = list(range(len(cells)))
            rng.shuffle(order)
            for j in order[:rng.randrange(len(cells) // 2 + 1)]:
                if board[j]:
                    reference_flood.turn_on(cells, strides, board, j)
        for j in range(len(cells)):
            if board[j]:
                got, want = bytearray(board), bytearray(board)
                runs = _turn_on(steps, width, got, j)
                killed = [i for lo, hi in runs for i in range(lo, hi)]
                assert sorted(killed) == sorted(reference_flood.turn_on(cells, strides, want, j))
                assert got == want, (shape.dims, j)
                assert all(lo < hi and lo // width == (hi - 1) // width for lo, hi in runs)
                assert len(set(killed)) == len(killed), (shape.dims, j)


def test_max_size_examples():
    assert max_size(Shape((2, 2))) == 3
    for k in range(1, 8):
        assert max_size(Shape((1, k))) == k
    assert max_size(Shape((3, 3))) == 5  # frozen from the subset-filter oracle


def test_max_size_counts_cells_touching_the_boundary():
    # prod(w) - prod(w-1) counts the cells with some coordinate equal to 1
    for dims in [(2, 2), (3, 3), (2, 3, 2), (4, 1, 2), (5,)]:
        s = Shape(dims)
        boundary = sum(1 for c in s.iter_cells() if 1 in c)
        assert max_size(s) == boundary


def test_removing_a_cell_keeps_a_grid_clean():
    g = Grid(Shape((3, 3)), [(1, 3), (2, 2), (3, 1)])
    assert not contains_forbidden(g)
    for drop in g.ones:
        smaller = Grid(g.shape, [c for c in g.ones if c != drop])
        assert not contains_forbidden(smaller)


def test_all_ones_is_the_unique_maximal_grid_when_some_dim_is_1():
    report = enumerate_maximal(Shape((1, 4)))
    assert report.count == 1
    assert report.grids[0].ones == tuple(Shape((1, 4)).iter_cells())


def test_flip_creates_containment():
    g = Grid(Shape((2, 2)), [(1, 1)])
    assert flip_creates_containment(g, (2, 2))
    assert not flip_creates_containment(g, (1, 2))
    assert not flip_creates_containment(Grid(Shape((2, 2)), [(1, 2), (2, 1)]), (2, 2))
    # d = 1: any second cell creates it
    g1 = Grid(Shape((4,)), [(2,)])
    assert flip_creates_containment(g1, (4,))


def test_shape_validation():
    with pytest.raises(ValueError):
        Shape(())
    with pytest.raises(ValueError):
        Shape((0, 2))
    with pytest.raises(ValueError):
        Shape((2, -1))
    with pytest.raises(OverflowError):
        Shape((2**32, 2**32, 2))  # cell count exceeds 64 bits
    s = Shape([3, 2])  # any iterable of ints is accepted
    assert s.dims == (3, 2) and s.d == 2 and s.cell_count == 6


def test_every_shape_holds_its_cell_count():
    assert vars(Shape((3, 4, 5)))["cell_count"] == 60
    # peel builds its smaller shape unchecked, and hands it the product
    m = to_intervals(Grid(Shape((3, 3)), [(1, 3), (2, 3), (3, 1), (3, 2), (3, 3)]))
    while m.top > 1:
        m = peel(normalize(m).result)
        assert vars(m.shape) == vars(Shape(tuple(m.shape.dims)))
        assert vars(m.shape)["cell_count"] == 3 * m.top


def test_shape_errors_quote_a_short_repr_of_the_value():
    for bad, text in [(0, "0"), (-1, "-1"), (1.5, "1.5"), ("a", "'a'"), ([1], "[1]")]:
        with pytest.raises(ValueError) as err:
            Shape((2, bad))
        assert str(err.value) == f"dimensions must be positive integers, got {text}"
    with pytest.raises(ValueError) as err:
        Shape(([1] * 100_000,))
    assert len(str(err.value)) < 200


def test_grid_validation():
    wide = Shape((1,) * 1000)
    for shape, ones, error, text in [
        (Shape((2, 2)), [(3, 1)], ValueError, "cell (3, 1) lies outside the box (2, 2)"),
        (Shape((2, 2)), [(1, 1), (1, 1)], ValueError, "duplicate cell (1, 1)"),
        (Shape((2, 2)), [(1, 1, 1)], DimensionMismatchError,
         "cell (1, 1, 1) has 3 coordinates, shape has 2"),
        # a huge cell or box is quoted in a short form
        (Shape((2, 2)), [(1,) * 50_000], DimensionMismatchError, None),
        (Shape((2, 2)), [(10**1000, 1)], ValueError, None),
        (wide, [(2,) * 1000], ValueError, None),
        (wide, [(1,) * 1000] * 2, ValueError, None),
        # cells that cannot be sorted are walked in the given order, and the
        # first bad one is named
        (Shape((2, 2)), [(1, 1), (1, "a")], ValueError,
         "cell (1, 'a') lies outside the box (2, 2)"),
        (Shape((2, 2)), [(1, 1), (2, None), (2, 1)], ValueError,
         "cell (2, None) lies outside the box (2, 2)"),
    ]:
        with pytest.raises(error) as err:
            Grid(shape, ones)
        assert str(err.value) == text if text else len(str(err.value)) < 200


def test_ints_past_the_digit_limit_are_quoted_by_size():
    # repr refuses such ints, so the error would otherwise be the
    # interpreter's "Exceeds the limit" instead of the intended message
    limit = sys.get_int_max_str_digits()
    assert limit and limit < 5000
    with pytest.raises(ValueError) as err:
        Grid(Shape((2, 2)), [(10**5000, 1)])
    assert str(err.value) == "cell (<int with 5001 digits>, 1) lies outside the box (2, 2)"
    with pytest.raises(ValueError) as err:
        Shape((-10**5000,))
    assert str(err.value) == (
        "dimensions must be positive integers, got <negative int with 5001 digits>")
    # at the limit the short repr is unchanged
    with pytest.raises(ValueError) as err:
        Shape((-(10 ** (limit - 1)),))
    assert str(err.value).endswith("got -10000000000000000...0000000000000000000")
    # the digit count is exact on both sides of a power of ten
    for k in (limit, limit + 1, 6000):
        for x, digits in [(10**k - 1, k), (10**k, k + 1), (-(10**k), k + 1)]:
            assert _digit_count(x) == digits
    assert [_digit_count(x) for x in (0, 1, 9, 10, -99, 100)] == [1, 1, 1, 2, 2, 3]


def test_grid_is_canonically_sorted():
    g = Grid(Shape((2, 2)), [(2, 1), (1, 2), (1, 1)])
    assert g.ones == ((1, 1), (1, 2), (2, 1))
    assert g == Grid(Shape((2, 2)), [(1, 1), (1, 2), (2, 1)])


def test_grid_json_round_trip():
    g = Grid(Shape((3, 3)), [(1, 3), (2, 2), (2, 3), (3, 1), (3, 2)])
    obj = g.to_json_obj()
    assert obj == {"w": [3, 3], "ones": [[1, 3], [2, 2], [2, 3], [3, 1], [3, 2]]}
    assert Grid.from_json_obj(obj) == g


def test_grid_json_rejects_malformed_input():
    with pytest.raises(ValueError):
        Grid.from_json_obj({"w": [2, 2]})
    with pytest.raises(ValueError):
        Grid.from_json_obj({"w": [2, 2], "ones": [1, 2]})
    for ones in ([[1, "a"], [1, 2]], [[1, [1]], [1, 2]], [[1.0, 1]], [[True, 1]], [{"x": 1}]):
        with pytest.raises(ValueError, match="integer coordinate arrays"):
            Grid.from_json_obj({"w": [2, 2], "ones": ones})


def _nested(depth):
    # an array nested ``depth`` deep, past any JSON parser's limit: comparing
    # two of them runs out of recursion
    x = []
    for _ in range(depth):
        x = [x]
    return x


# each message and its precedence, as the full checks give them: a bad
# "ones" is named before a bad "w", a coordinate's type before a cell's
# length, and the first cell in sorted order of the wrong length or outside
# the box before any duplicate
GRID_JSON_ERRORS = [
    ({"w": [0, 2], "ones": [[1, "a"]]},
     ValueError, '"ones" must be an array of integer coordinate arrays'),
    ({"w": [2, "x"], "ones": [[1.5, 1]]},
     ValueError, '"ones" must be an array of integer coordinate arrays'),
    ({"w": [2, 2], "ones": [[True, 1]]},
     ValueError, '"ones" must be an array of integer coordinate arrays'),
    ({"w": [2, 2], "ones": [[1, 1], [1, False]]},
     ValueError, '"ones" must be an array of integer coordinate arrays'),
    ({"w": [2, 2], "ones": [[1.0, 1]]},
     ValueError, '"ones" must be an array of integer coordinate arrays'),
    ({"w": [2, 2], "ones": [[1, "a"]]},
     ValueError, '"ones" must be an array of integer coordinate arrays'),
    ({"w": [2, 2], "ones": [[1, [1]]]},
     ValueError, '"ones" must be an array of integer coordinate arrays'),
    ({"w": [2, 2], "ones": [[1, None]]},
     ValueError, '"ones" must be an array of integer coordinate arrays'),
    ({"w": [2, 2], "ones": [1, 2]},
     ValueError, '"ones" must be an array of integer coordinate arrays'),
    ({"w": [2, 2], "ones": [[1, 1], "ab"]},
     ValueError, '"ones" must be an array of integer coordinate arrays'),
    ({"w": [2, 2], "ones": [[1, 1, 1]]},
     DimensionMismatchError, "cell (1, 1, 1) has 3 coordinates, shape has 2"),
    ({"w": [2, 2], "ones": [[2, 1], [1]]},
     DimensionMismatchError, "cell (1,) has 1 coordinates, shape has 2"),
    ({"w": [2, 2], "ones": [[2, 2], [3, 1]]},
     ValueError, "cell (3, 1) lies outside the box (2, 2)"),
    ({"w": [2, 2], "ones": [[1, 0]]},
     ValueError, "cell (1, 0) lies outside the box (2, 2)"),
    ({"w": [3], "ones": [[1], [4]]},
     ValueError, "cell (4,) lies outside the box (3,)"),
    ({"w": [2, 2], "ones": [[2, 1], [1, 1], [2, 1]]},
     ValueError, "duplicate cell (2, 1)"),
    ({"w": [2, 2], "ones": [[3, 1], [1, 1], [1, 1]]},
     ValueError, "cell (3, 1) lies outside the box (2, 2)"),
    ({"w": [2, 2], "ones": [[1, 1], [1, 1, 1], [1, 1]]},
     DimensionMismatchError, "cell (1, 1, 1) has 3 coordinates, shape has 2"),
    ({"w": [], "ones": []},
     ValueError, "a shape needs at least one dimension"),
    ({"w": [2, 0], "ones": []},
     ValueError, "dimensions must be positive integers, got 0"),
    ({"w": [2, True], "ones": [[1, 1]]},
     ValueError, "dimensions must be positive integers, got True"),
    ({"w": [2**40, 2**40], "ones": [[1, 1]]},
     OverflowError, "total cell count exceeds the 64-bit range"),
    ({"w": 5, "ones": []},
     ValueError, '"w" and "ones" must be arrays'),
    ({"w": [2, 2]},
     ValueError, 'grid JSON must be an object with "w" and "ones"'),
    # in ascending cells, as a coordinate the constructor compares and fails on
    *(({"w": w, "ones": [[1, 1], [1, bad]]},
       ValueError, '"ones" must be an array of integer coordinate arrays')
      for w in ([2, 2], [0, 2], [2, "x"], [2**40, 2**40]) for bad in ("a", None, [2])),
    ({"w": [2, 2], "ones": [[1, _nested(100_000)], [1, _nested(100_000)]]},
     ValueError, '"ones" must be an array of integer coordinate arrays'),
]


@pytest.mark.parametrize("obj, error, text", GRID_JSON_ERRORS)
def test_grid_json_errors_are_pinned(obj, error, text):
    with pytest.raises(error) as err:
        Grid.from_json_obj(obj)
    assert type(err.value) is error and str(err.value) == text
