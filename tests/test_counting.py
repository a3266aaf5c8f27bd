import sys
import time

import pytest

from maxac import (
    Grid,
    NotMaximalError,
    PreconditionViolatedError,
    Shape,
    count_closed_form,
    count_maximal,
    enumerate_maximal,
    extend_by_two,
    is_maximal,
    iter_shapes,
    project_last,
    sample_non_maximal,
    to_intervals,
    weight,
)


def test_count_2d_examples():
    assert count_closed_form(Shape((2, 2))) == 2
    assert count_closed_form(Shape((2, 3))) == 3
    assert count_closed_form(Shape((5, 5))) == 70


def test_count_2d_validates_arguments():
    with pytest.raises(ValueError):
        count_closed_form(Shape((0, 3)))


def test_count_2d_agrees_with_enumeration():
    for w1 in range(1, 5):
        for w2 in range(1, 5):
            shape = Shape((w1, w2))
            assert count_closed_form(shape) == count_maximal(shape)


def _reducible(dims) -> bool:
    return 1 in dims or sum(w > 2 for w in dims) <= 3


def test_count_closed_form_agrees_with_the_transfer_dp():
    shapes = list(iter_shapes(25, 4))
    assert all(_reducible(s.dims) for s in shapes)
    for shape in shapes:
        assert count_closed_form(shape) == count_maximal(shape), shape.dims


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


def test_extend_by_two_examples():
    assert extend_by_two(Grid(Shape((2,)), [(1,)])).ones == ((1, 1), (1, 2), (2, 1))
    assert extend_by_two(Grid(Shape((2,)), [(2,)])).ones == ((1, 2), (2, 1), (2, 2))

    base = Grid(Shape((2, 2)), [(1, 2), (2, 1), (2, 2)])
    image = extend_by_two(base)
    assert is_maximal(image)
    assert project_last(image) == base


def test_extend_rejects_non_maximal_input():
    with pytest.raises(NotMaximalError):
        extend_by_two(Grid(Shape((2, 2)), [(1, 2)]))
    # the row-form guard must reject what the pairwise is_maximal rejects:
    # empty rows, gapped rows and rows breaking the h- or l-rule alike, in
    # both directions of the bijection
    for shape in iter_shapes(16, 4):
        projectable = shape.d >= 2 and shape.dims[-1] == 2
        for g in sample_non_maximal(shape, 5):
            with pytest.raises(NotMaximalError):
                extend_by_two(g)
            if projectable:
                with pytest.raises(NotMaximalError):
                    project_last(g)


def test_project_last_examples():
    g1 = Grid(Shape((2, 2)), [(1, 1), (1, 2), (2, 1)])
    assert project_last(g1) == Grid(Shape((2,)), [(1,)])
    g2 = Grid(Shape((2, 2)), [(2, 1), (2, 2), (1, 2)])
    assert project_last(g2) == Grid(Shape((2,)), [(2,)])
    with pytest.raises(NotMaximalError):
        project_last(Grid(Shape((2, 2)), [(1, 1), (1, 2), (2, 1), (2, 2)]))
    with pytest.raises(ValueError):
        project_last(Grid(Shape((3, 3)), [(1, 3), (2, 2), (2, 3), (3, 1), (3, 2)]))


def test_extended_weight_bookkeeping():
    for dims in [(2,), (3,), (2, 2), (3, 2)]:
        shape = Shape(dims)
        for g in enumerate_maximal(shape).grids:
            image = extend_by_two(g)
            both = {row for row, lh in to_intervals(image).intervals.items() if lh == (1, 2)}
            assert weight(image) == shape.cell_count + len(both)
            assert both == set(g.ones)


def test_bijection_on_small_shapes():
    for shape in iter_shapes(12, 3):
        base = enumerate_maximal(shape).grids
        extended = enumerate_maximal(Shape(shape.dims + (2,))).grids
        images = sorted((extend_by_two(g) for g in base), key=lambda g: g.ones)
        assert images == list(extended)
        for g in base:
            assert project_last(extend_by_two(g)) == g
        for m in extended:
            assert extend_by_two(project_last(m)) == m


def test_count_all_le2_examples():
    assert count_closed_form(Shape((2, 2, 2))) == 2
    assert count_closed_form(Shape((1, 2))) == 1
    assert count_closed_form(Shape((2, 2, 2, 2))) == 2
    with pytest.raises(PreconditionViolatedError):
        count_closed_form(Shape((3, 3, 3, 3)))


def test_count_all_le2_agrees_with_enumeration():
    import itertools

    for d in range(1, 5):
        for dims in itertools.product((1, 2), repeat=d):
            shape = Shape(dims)
            assert count_closed_form(shape) == count_maximal(shape) == min(dims)
