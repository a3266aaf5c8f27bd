"""Small-scope sweeps of the order axioms, count identities and grid
validation: every case of a small domain, or a fixed-seed draw where it is
too large to list.  Each test asserts how many cases met its premise."""

import random
from collections import Counter
from enum import IntEnum
from itertools import product

import pytest
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
    random_maximal,
    strictly_below,
    weight,
)


def _tuples(sides, axes):
    """Every tuple of 1 to ``axes`` entries taken from ``sides``."""
    return [t for d in range(1, axes + 1) for t in product(sides, repeat=d)]


# every vector of 1-3 axes with coordinates 1-4; one coordinate has C(4, 2)
# strict pairs and C(4, 3) strict triples, so d axes have 4**d vectors,
# 6**d pairs a < b and 4**d chains a < b < c
VECTORS = _tuples(range(1, 5), 3)
# every box with sides 1-4 and up to 4 axes
SHAPES = _tuples(range(1, 5), 4)


def test_irreflexive():
    assert sum(not strictly_below(v, v) for v in VECTORS) == len(VECTORS) == 84


def test_asymmetric():
    below = 0
    for a, b in product(VECTORS, repeat=2):
        if len(a) == len(b) and strictly_below(a, b):
            below += 1
            assert not strictly_below(b, a)
    assert below == 6 + 6**2 + 6**3


def test_transitive():
    chains = 0
    for a, b in product(VECTORS, repeat=2):
        if len(a) == len(b) and strictly_below(a, b):
            for c in VECTORS:
                if len(c) == len(b) and strictly_below(b, c):
                    chains += 1
                    assert strictly_below(a, c), (a, b, c)
    assert chains == 4 + 4**2 + 4**3


def test_max_size_is_positive_and_at_most_the_box():
    assert all(1 <= max_size(Shape(d)) <= Shape(d).cell_count for d in SHAPES)
    assert len(SHAPES) == 340


def test_max_size_counts_boundary_cells():
    for dims in SHAPES:
        s = Shape(dims)
        assert max_size(s) == sum(1 for c in s.iter_cells() if 1 in c)
        assert max_size(s) == sum(
            1 for c in s.iter_cells() if any(x == w for x, w in zip(c, s.dims))
        )
    assert len(SHAPES) == 340


def _count(*dims):
    return count_closed_form(Shape(dims))


def test_count_2d_symmetry():
    pairs = list(product(range(1, 31), repeat=2))
    for w1, w2 in pairs:
        assert _count(w1, w2) == _count(w2, w1)
    assert len(pairs) == 900


def test_count_closed_form_is_invariant_under_axis_permutations():
    # a side of 1 answers 1, a side of 2 drops out, a side above 2 enters
    # MacMahon's product, and over three such sides with no 1 are refused:
    # every order of 1-6 sides from these, against the sorted order
    refused = permuted = 0
    for dims in _tuples((1, 2, 3, 30), 6):
        if sum(w > 2 for w in dims) > 3 and 1 not in dims:
            with pytest.raises(PreconditionViolatedError):
                _count(*dims)
            refused += 1
        elif list(dims) != sorted(dims):
            assert _count(*dims) == _count(*sorted(dims)), dims
            permuted += 1
    # refused: 16 + 112 + 496 orders of 4-6 sides from {2, 3, 30}, at least
    # four above 2; permuted: the other 5,460 - 624, less their 209 - 34
    # sorted ones
    assert (refused, permuted) == (624, 4661)


def test_count_2d_pascal_recurrence():
    pairs = list(product(range(2, 31), repeat=2))
    for w1, w2 in pairs:
        assert _count(w1, w2) == _count(w1 - 1, w2) + _count(w1, w2 - 1)
    assert len(pairs) == 841


def test_count_2d_degenerate_row():
    assert [_count(1, k) for k in range(1, 31)] == [1] * 30


def test_removing_cells_keeps_grids_clean():
    # every clean grid of every box of at most 9 cells, d >= 2 and no side
    # of 1, and each of its one-cell drops; drops compose, so every subset
    # of a clean grid follows
    clean = 0
    for dims in SHAPES:
        shape = Shape(dims)
        if len(dims) < 2 or 1 in dims or shape.cell_count > 9:
            continue
        cells = list(shape.iter_cells())
        for mask in range(1 << len(cells)):
            ones = [c for i, c in enumerate(cells) if mask >> i & 1]
            if contains_forbidden(Grid(shape, ones)):
                continue
            clean += 1
            for i in range(len(ones)):
                assert not contains_forbidden(Grid(shape, ones[:i] + ones[i + 1:])), ones
    assert clean == 532


def test_random_completion_hits_the_size_law():
    cases = list(product(SHAPES, (0, 1, 2**63)))
    for dims, seed in cases:
        shape = Shape(dims)
        g = random_maximal(shape, seed)
        assert is_maximal(g)
        assert weight(g) == max_size(shape)
    assert len(cases) == 1020


class Level(IntEnum):
    LOW = 1
    HIGH = 3


# in-range and out-of-range ints, plus the look-alikes: bool, float, IntEnum
COORDINATES = (range(-1, 6), (True, False), (1.0, 2.5), tuple(Level))


def _grid_case(rng):
    """A box with sides 1-4 and up to 4 axes, and up to 8 cells: half of
    them in the box (small boxes make duplicates common), a quarter with one
    odd coordinate and a quarter of ragged length."""
    dims = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
    cells = []
    for _ in range(rng.randint(0, 8)):
        cell, kind = [rng.randint(1, w) for w in dims], rng.randrange(4)
        if kind == 2:
            cell[rng.randrange(len(cell))] = rng.choice(rng.choice(COORDINATES))
        elif kind == 3:
            cell = [rng.choice(rng.choice(COORDINATES)) for _ in range(rng.randint(1, 4))]
        cells.append(tuple(cell))
    return dims, cells


def _outcome(build):
    try:
        cells = build()
    except (DimensionMismatchError, ValueError) as exc:
        return type(exc), str(exc)
    return "ok", repr(cells)


def test_grid_validation_agrees_with_the_per_cell_oracle():
    rng = random.Random(0)
    cases = [((3, 3), [(Level.HIGH, Level.LOW), (2, 2)]),  # accepted via the per-cell loop
             ((2, 2), [(1, 2), (True, 1)])]
    cases += [_grid_case(rng) for _ in range(3000)]
    seen = Counter()
    for dims, cells in cases:
        shape = Shape(dims)
        got = _outcome(lambda: Grid(shape, cells).ones)
        assert got == _outcome(lambda: validate(shape, cells)), (dims, cells)
        seen[got[0]] += 1
    assert min(seen[k] for k in ("ok", ValueError, DimensionMismatchError)) >= 300, seen
