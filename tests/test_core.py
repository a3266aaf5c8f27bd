import random

import pytest
import reference_dominance

from maxac import (
    DimensionMismatchError,
    Grid,
    Shape,
    contains_forbidden,
    enumerate_maximal,
    flip_creates_containment,
    is_maximal,
    max_size,
    random_maximal,
    strictly_below,
    weight,
)
from maxac.core import _layout


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


def test_layout_is_shared_per_box_with_fresh_flags():
    cells, strides, alive = _layout(Shape((3, 4)))
    again, strides_again, fresh = _layout(Shape((3, 4)))
    assert again is cells and strides_again is strides == (4, 1)
    assert cells == tuple(Shape((3, 4)).iter_cells())
    alive[0] = 0
    assert fresh is not alive and fresh == bytearray(b"\x01") * 12


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


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(Shape((2, 2)), [(3, 1)])
    with pytest.raises(ValueError):
        Grid(Shape((2, 2)), [(1, 1), (1, 1)])
    with pytest.raises(DimensionMismatchError):
        Grid(Shape((2, 2)), [(1, 1, 1)])


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
