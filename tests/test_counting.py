import math
import random
import sys
import time
from itertools import permutations, product

import pytest
import reference_dominance
from reference_count import _transfer_count, plane_partitions

from maxac import (
    EXTEND_CELL_LIMIT,
    Grid,
    NotMaximalError,
    PreconditionViolatedError,
    Shape,
    ShapeTooLargeError,
    count_closed_form,
    counting,
    enumerate_maximal,
    extend_by_two,
    is_maximal,
    iter_shapes,
    max_size,
    project_last,
    weight,
)
from maxac.core import _box


def _reducible(dims) -> bool:
    return 1 in dims or sum(w > 2 for w in dims) <= 3


def test_count_closed_form_agrees_with_the_transfer_dp():
    shapes = list(iter_shapes(25, 4))
    assert all(_reducible(s.dims) for s in shapes)
    for shape in shapes:
        assert count_closed_form(shape) == _transfer_count(shape.dims), shape.dims


def test_count_closed_form_refuses_exactly_past_three_axes_above_two():
    refused = 0
    for shape in iter_shapes(200, 6):
        if _reducible(shape.dims):
            count_closed_form(shape)
        else:
            refused += 1
            with pytest.raises(PreconditionViolatedError, match="no closed form"):
                count_closed_form(shape)
    assert refused == 44


def test_count_closed_form_refuses_counts_too_long_to_print():
    limit = sys.get_int_max_str_digits()
    assert limit > 0
    for dims in [(2_000_000, 2_000_000), (121, 121, 121), (10**6, 10**6, 10**6),
                 (2, 10**6, 2, 10**6, 10**6)]:
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"more than {limit} digits"):
            count_closed_form(Shape(dims))
        assert time.perf_counter() - start < 5, dims
    # far from the limit, a thin box is cheap whatever its length
    assert count_closed_form(Shape((3, 10**9))) == (10**9 + 1) * 10**9 // 2
    assert count_closed_form(Shape((1, 10**9, 10**9))) == 1
    sys.set_int_max_str_digits(0)  # no limit: the count is computed
    try:
        assert len(str(count_closed_form(Shape((121, 121, 121))))) > limit
    finally:
        sys.set_int_max_str_digits(limit)


def test_the_row_product_is_macmahons_box_formula():
    # sides 0 and 1 (box sides 1 and 2) among them, so a = 1 and a = b = 1,
    # each in every axis order
    for sides in product([0, 1, 2, 5, 13], [1, 3, 8, 40], [1, 2, 30, 1000]):
        expected = plane_partitions(*sides) if 0 not in sides else 1
        for order in set(permutations(sides)):
            assert count_closed_form(Shape(tuple(w + 1 for w in order))) == expected, order


def test_count_closed_form_refuses_past_the_print_limit_before_any_product(monkeypatch):
    # the estimate is exact on two sides: C(14398, 7199) has 4,333 digits
    def no_product(*args):
        raise AssertionError("computed a product past the digit limit")

    limit = sys.get_int_max_str_digits()
    assert 0 < limit < 4331
    shape = Shape((7200, 7200))
    # and the first square whose estimate passes the margin of one digit
    w = 2
    while math.lgamma(2 * w - 1) - 2 * math.lgamma(w) <= (limit + 1) * math.log(10):
        w += 1
    square = Shape((w, w))
    monkeypatch.setattr(math, "comb", no_product)
    monkeypatch.setattr(math, "prod", no_product)
    with pytest.raises(ValueError, match=rf"^the count for shape \(7200, 7200\) has more than {limit} "):
        count_closed_form(shape)
    with pytest.raises(ValueError, match=rf"^the count for shape \({w}, {w}\) has more "):
        count_closed_form(square)


def test_extend_by_two_examples():
    assert extend_by_two(Grid(Shape((2,)), [(1,)])).ones == ((1, 1), (1, 2), (2, 1))
    assert extend_by_two(Grid(Shape((2,)), [(2,)])).ones == ((1, 2), (2, 1), (2, 2))

    base = Grid(Shape((2, 2)), [(1, 2), (2, 1), (2, 2)])
    image = extend_by_two(base)
    assert is_maximal(image)
    assert project_last(image) == base


def _certified_non_maximal(shape, rng):
    """Random subsets, punctured maximal grids (too light) and maximal grids
    with one cell moved (the right weight), kept when the pairwise oracle
    certifies them non-maximal."""
    cells = list(shape.iter_cells())
    maximal = enumerate_maximal(shape).grids
    out = []
    for _ in range(6):
        ones = list(rng.choice(maximal).ones)
        zeros = [c for c in cells if c not in ones]
        candidates = [[c for c in cells if rng.random() < 0.4], ones[1:]]
        if zeros:
            candidates.append(ones[1:] + [rng.choice(zeros)])
        grids = [Grid(shape, c) for c in candidates]
        out += [g for g in grids if not reference_dominance.is_maximal(g)]
    return out


def test_extend_rejects_non_maximal_input():
    with pytest.raises(NotMaximalError):
        extend_by_two(Grid(Shape((2, 2)), [(1, 2)]))
    # the row-form guard must reject what the pairwise oracle rejects: wrong
    # weights, empty rows, gapped rows and rows breaking the h- or l-rule
    # alike, in both directions of the bijection
    rng = random.Random(7)
    right_weight = 0
    for shape in iter_shapes(16, 4):
        projectable = shape.d >= 2 and shape.dims[-1] == 2
        for g in _certified_non_maximal(shape, rng):
            right_weight += weight(g) == max_size(shape)
            with pytest.raises(NotMaximalError):
                extend_by_two(g)
            if projectable:
                with pytest.raises(NotMaximalError):
                    project_last(g)
    assert right_weight > 100


# the empty grid, two adjacent cells, and a gapped row
ONE_D_NON_MAXIMAL = [(), ((2,), (3,)), ((1,), (4,))]


def test_a_one_dimensional_grid_is_decided_by_its_row_form():
    # by the size law a maximal 1-d grid has one one-cell, so extend needs
    # no layout of the box, however long: only its row box, one empty row
    _box(())
    before = _box.cache_info()
    for ones in ONE_D_NON_MAXIMAL:
        with pytest.raises(NotMaximalError):
            extend_by_two(Grid(Shape((5,)), ones))
    images = [extend_by_two(Grid(Shape((5,)), [(y,)])) for y in range(1, 6)]
    extend_by_two(Grid(Shape((10**5,)), [(7,)]))
    after = _box.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)
    assert images == list(enumerate_maximal(Shape((5, 2))).grids)


def test_extend_refuses_an_output_past_its_budget_before_any_work(monkeypatch):
    assert EXTEND_CELL_LIMIT == 250_000
    # the largest N x N and 1-d boxes within the budget, and one step past it
    within, past = [(499, 499), (249_999,)], [(500, 500), (250_000,)]
    for a, b in zip(within, past):
        assert max_size(Shape(a + (2,))) <= EXTEND_CELL_LIMIT < max_size(Shape(b + (2,)))
    for dims in within:
        with pytest.raises(NotMaximalError):
            extend_by_two(Grid(Shape(dims)))

    def no_work(grid):
        raise AssertionError("extend_by_two read the grid past its budget")

    monkeypatch.setattr(counting, "maximal_row_form", no_work)
    for dims in past:
        # refused whether the grid is maximal (the 1-d one) or not
        for ones in [(), ((1,) * len(dims),)]:
            with pytest.raises(ShapeTooLargeError) as info:
                extend_by_two(Grid(Shape(dims), ones))
            assert info.value.limit == EXTEND_CELL_LIMIT
            assert info.value.cells == max_size(Shape(dims + (2,)))


def test_project_last_examples():
    g1 = Grid(Shape((2, 2)), [(1, 1), (1, 2), (2, 1)])
    assert project_last(g1) == Grid(Shape((2,)), [(1,)])
    g2 = Grid(Shape((2, 2)), [(2, 1), (2, 2), (1, 2)])
    assert project_last(g2) == Grid(Shape((2,)), [(2,)])
    with pytest.raises(NotMaximalError):
        project_last(Grid(Shape((2, 2)), [(1, 1), (1, 2), (2, 1), (2, 2)]))
    with pytest.raises(ValueError) as info:
        project_last(Grid(Shape((3, 3)), [(1, 3), (2, 2), (2, 3), (3, 1), (3, 2)]))
    assert str(info.value) == "the shape must end with a dimension of size 2"
    # a 1-d box ending in 2 is refused on its dimension, not on its last side
    with pytest.raises(ValueError) as info:
        project_last(Grid(Shape((2,)), [(1,)]))
    assert str(info.value) == "project_last applies to d >= 2 only"
