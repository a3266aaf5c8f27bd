"""Property-based checks of the order axioms, count identities and grid
validation."""

from enum import IntEnum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_grid import validate

from maxac import (
    DimensionMismatchError,
    Grid,
    PreconditionViolatedError,
    Shape,
    contains_forbidden,
    count_closed_form,
    is_maximal,
    max_size,
    strictly_below,
)

vectors = st.integers(1, 6).flatmap(
    lambda d: st.tuples(*([st.integers(1, 9)] * d))
)
small_dims = st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple)


@given(vectors)
def test_irreflexive(v):
    assert not strictly_below(v, v)


@given(vectors, vectors)
def test_asymmetric(a, b):
    if len(a) != len(b):
        return
    assert not (strictly_below(a, b) and strictly_below(b, a))


@given(vectors, vectors, vectors)
def test_transitive(a, b, c):
    if not len(a) == len(b) == len(c):
        return
    if strictly_below(a, b) and strictly_below(b, c):
        assert strictly_below(a, c)


@given(small_dims)
def test_max_size_is_positive_and_at_most_the_box(dims):
    s = Shape(dims)
    assert 1 <= max_size(s) <= s.cell_count


@given(small_dims)
def test_max_size_counts_boundary_cells(dims):
    s = Shape(dims)
    assert max_size(s) == sum(1 for c in s.iter_cells() if 1 in c)
    assert max_size(s) == sum(
        1 for c in s.iter_cells() if any(x == w for x, w in zip(c, s.dims))
    )


def _count(*dims):
    return count_closed_form(Shape(dims))


@given(st.integers(1, 30), st.integers(1, 30))
def test_count_2d_symmetry(w1, w2):
    assert _count(w1, w2) == _count(w2, w1)


@given(st.lists(st.integers(1, 30), min_size=1, max_size=6).flatmap(
    lambda dims: st.tuples(st.just(dims), st.permutations(dims))))
def test_count_closed_form_is_invariant_under_axis_permutations(case):
    dims, permuted = case
    try:
        expected = _count(*dims)
    except PreconditionViolatedError:
        assert sum(w > 2 for w in dims) > 3 and 1 not in dims
        with pytest.raises(PreconditionViolatedError):
            _count(*permuted)
        return
    assert _count(*permuted) == expected


@given(st.integers(2, 30), st.integers(2, 30))
def test_count_2d_pascal_recurrence(w1, w2):
    assert _count(w1, w2) == _count(w1 - 1, w2) + _count(w1, w2 - 1)


@given(st.integers(1, 30))
def test_count_2d_degenerate_row(k):
    assert _count(1, k) == 1


@settings(max_examples=30)
@given(small_dims.filter(lambda d: len(d) >= 2), st.randoms(use_true_random=False))
def test_removing_cells_keeps_grids_clean(dims, rng):
    shape = Shape(dims)
    cells = [c for c in shape.iter_cells() if rng.random() < 0.4]
    g = Grid(shape, cells)
    if contains_forbidden(g):
        return
    survivors = [c for c in cells if rng.random() < 0.5]
    assert not contains_forbidden(Grid(shape, survivors))


@settings(max_examples=25)
@given(small_dims, st.integers(0, 2**63))
def test_random_completion_hits_the_size_law(dims, seed):
    from maxac import random_maximal, weight

    shape = Shape(dims)
    g = random_maximal(shape, seed)
    assert is_maximal(g)
    assert weight(g) == max_size(shape)


class Level(IntEnum):
    LOW = 1
    HIGH = 3


# in-range and out-of-range ints, plus the look-alikes: bool, float, IntEnum
coordinates = st.one_of(
    st.integers(-1, 5), st.booleans(), st.sampled_from([1.0, 2.5]), st.sampled_from(Level)
)


def _cell_lists(dims):
    """Mostly cells inside the box (small boxes make duplicates common),
    with odd coordinates and ragged lengths mixed in."""
    plain = st.tuples(*[st.integers(1, w) for w in dims])
    odd = st.tuples(*[coordinates] * len(dims))
    ragged = st.lists(coordinates, min_size=1, max_size=4).map(tuple)
    return st.lists(st.one_of(plain, plain, odd, ragged), max_size=8)


grid_inputs = small_dims.flatmap(lambda dims: st.tuples(st.just(dims), _cell_lists(dims)))


def _outcome(build):
    try:
        cells = build()
    except (DimensionMismatchError, ValueError) as exc:
        return type(exc), str(exc)
    return "ok", repr(cells)


@settings(max_examples=300)
@given(grid_inputs)
@example(((3, 3), [(Level.HIGH, Level.LOW), (2, 2)]))  # accepted via the per-cell loop
@example(((2, 2), [(1, 2), (True, 1)]))
def test_grid_validation_agrees_with_the_per_cell_oracle(case):
    dims, cells = case
    shape = Shape(dims)
    assert _outcome(lambda: Grid(shape, cells).ones) == _outcome(lambda: validate(shape, cells))
