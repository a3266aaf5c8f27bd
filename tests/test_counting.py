import pytest

from maxac import (
    Grid,
    NotMaximalError,
    PreconditionViolatedError,
    Shape,
    count_2d,
    count_all_le2,
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
    assert count_2d(2, 2) == 2
    assert count_2d(2, 3) == 3
    assert count_2d(5, 5) == 70


def test_count_2d_validates_arguments():
    with pytest.raises(ValueError):
        count_2d(0, 3)


def test_count_2d_agrees_with_enumeration():
    for w1 in range(1, 5):
        for w2 in range(1, 5):
            assert count_2d(w1, w2) == count_maximal(Shape((w1, w2)))


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
    assert count_all_le2(Shape((2, 2, 2))) == 2
    assert count_all_le2(Shape((1, 2))) == 1
    assert count_all_le2(Shape((2, 2, 2, 2))) == 2
    with pytest.raises(PreconditionViolatedError):
        count_all_le2(Shape((2, 3)))


def test_count_all_le2_agrees_with_enumeration():
    import itertools

    for d in range(1, 5):
        for dims in itertools.product((1, 2), repeat=d):
            shape = Shape(dims)
            assert count_all_le2(shape) == count_maximal(shape) == min(dims)
