import random
from itertools import product

import pytest
import reference_dominance
import reference_intervals
import reference_normalize as ref
from reference_normalize import ancestor_rows, descendant_rows

from maxac import (
    EmptyRowError,
    Grid,
    IntervalMap,
    NonContiguousRowError,
    Shape,
    check_characterization,
    enumerate_maximal,
    from_intervals,
    is_maximal,
    iter_shapes,
    sample_non_maximal,
    to_intervals,
    weight,
    x_set,
)
from maxac.core import _flood

SMALL_SHAPES = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (1, 4), (3, 2, 2)]


def test_to_intervals_examples():
    m = to_intervals(Grid(Shape((2, 2)), [(1, 1), (1, 2), (2, 1)]))
    assert dict(m.intervals) == {(1,): (1, 2), (2,): (1, 1)}

    with pytest.raises(EmptyRowError) as err:
        to_intervals(Grid(Shape((2, 2)), [(1, 1)]))
    assert err.value.row == (2,)

    with pytest.raises(NonContiguousRowError) as err:
        to_intervals(Grid(Shape((1, 3)), [(1, 1), (1, 3)]))
    assert err.value.row == (1,)


def test_to_intervals_reports_first_bad_row():
    # row (1,2) is empty, row (2,1) is empty too: lexicographically first wins
    g = Grid(Shape((2, 2, 2)), [(1, 1, 1), (2, 2, 1)])
    with pytest.raises(EmptyRowError) as err:
        to_intervals(g)
    assert err.value.row == (1, 2)


def _read(read, g):
    """The map ``read`` gives for ``g``, or its error class and row."""
    try:
        return read(g)
    except (EmptyRowError, NonContiguousRowError) as exc:
        return type(exc), exc.row


def test_to_intervals_agrees_with_the_cell_by_cell_reader():
    # every maximal grid of every small shape, and 200 non-maximal ones each:
    # the run-counting reader gives the same map, or raises the same error
    # for the same row, and the map's flat bounds are its rows' bounds
    maps = errors = 0
    for k, shape in enumerate(iter_shapes(25, 4)):
        for g in [*enumerate_maximal(shape).grids, *sample_non_maximal(shape, 200, k)]:
            got, want = _read(to_intervals, g), _read(reference_intervals.to_intervals, g)
            assert got == want, g.ones
            if isinstance(got, IntervalMap):
                maps += 1
                assert got._bounds == IntervalMap(shape, dict(got.intervals))._bounds
            else:
                errors += 1
    assert maps > 5_000 and errors > 50_000


def test_to_intervals_stops_at_the_first_bad_row_on_the_boundaries():
    # the last row empty or gapped: the loop's last bisection, to the end
    with pytest.raises(EmptyRowError) as err:
        to_intervals(Grid(Shape((2, 3)), [(1, 1), (1, 2)]))
    assert err.value.row == (2,)
    with pytest.raises(NonContiguousRowError) as err:
        to_intervals(Grid(Shape((2, 2, 3)), [(1, 1, 3), (1, 2, 2), (2, 1, 1), (2, 2, 1), (2, 2, 3)]))
    assert err.value.row == (2, 2)
    # rows holding all w_d cells: the bisection's bound, first, inside and last
    m = to_intervals(Grid(Shape((3, 4)), [(1, 1), (1, 2), (1, 3), (1, 4), (2, 4), (3, 1),
                                          (3, 2), (3, 3), (3, 4)]))
    assert dict(m.intervals) == {(1,): (1, 4), (2,): (4, 4), (3,): (1, 4)}
    assert m._bounds == ([1, 4, 1], [4, 4, 4])
    # w_d = 1: every row one cell
    m = to_intervals(Grid(Shape((3, 1)), [(1, 1), (2, 1), (3, 1)]))
    assert m._bounds == ([1, 1, 1], [1, 1, 1])
    with pytest.raises(EmptyRowError) as err:
        to_intervals(Grid(Shape((3, 1)), [(1, 1), (3, 1)]))
    assert err.value.row == (2,)
    # d = 1: the one row is ()
    assert to_intervals(Grid(Shape((4,)), [(2,), (3,)]))._bounds == ([2], [3])
    with pytest.raises(NonContiguousRowError) as err:
        to_intervals(Grid(Shape((4,)), [(1,), (3,)]))
    assert err.value.row == ()
    with pytest.raises(EmptyRowError) as err:
        to_intervals(Grid(Shape((4,))))
    assert err.value.row == ()


def test_to_intervals_agrees_with_the_cell_by_cell_reader_on_every_subset():
    # every grid of each small box, w_d = 1 and d = 1 included
    for dims in [(2, 3), (3, 3), (3, 1), (2, 2, 2), (2, 1, 3), (1, 4), (4,), (1,)]:
        shape = Shape(dims)
        cells = list(shape.iter_cells())
        for mask in range(2 ** len(cells)):
            g = Grid(shape, [c for k, c in enumerate(cells) if mask >> k & 1])
            got = _read(to_intervals, g)
            assert got == _read(reference_intervals.to_intervals, g), g.ones
            if isinstance(got, IntervalMap):
                assert got._bounds == IntervalMap(shape, dict(got.intervals))._bounds


def test_from_intervals_examples():
    m = IntervalMap(Shape((2, 2)), {(1,): (1, 2), (2,): (1, 1)})
    assert from_intervals(m).ones == ((1, 1), (1, 2), (2, 1))

    m1 = IntervalMap(Shape((5,)), {(): (2, 2)})
    assert from_intervals(m1).ones == ((2,),)

    m2 = IntervalMap(Shape((3, 3)), {(1,): (3, 3), (2,): (3, 3), (3,): (1, 3)})
    assert weight(from_intervals(m2)) == 5


def test_interval_round_trips():
    for dims in SMALL_SHAPES:
        for g in enumerate_maximal(Shape(dims)).grids:
            m = to_intervals(g)
            assert from_intervals(m) == g
            assert to_intervals(from_intervals(m)) == m


def test_weight_identity():
    for dims in SMALL_SHAPES:
        for g in enumerate_maximal(Shape(dims)).grids:
            m = to_intervals(g)
            assert weight(g) == sum(h - l + 1 for l, h in m.intervals.values())


def test_interval_map_validation():
    with pytest.raises(ValueError):  # not a total map
        IntervalMap(Shape((2, 2)), {(1,): (1, 1)})
    with pytest.raises(ValueError):  # l > h
        IntervalMap(Shape((2, 2)), {(1,): (2, 1), (2,): (1, 1)})
    with pytest.raises(ValueError):  # h beyond the box
        IntervalMap(Shape((2, 2)), {(1,): (1, 3), (2,): (1, 1)})
    with pytest.raises(ValueError):  # row outside the box
        IntervalMap(Shape((2, 2)), {(1,): (1, 1), (2,): (1, 1), (3,): (1, 1)})
    for bad in (1.9, 1.0, True, "1", None, [1]):  # bounds are not coerced
        with pytest.raises(ValueError):
            IntervalMap(Shape((2, 2)), {(1,): (bad, 2), (2,): (1, 1)})
        with pytest.raises(ValueError):
            IntervalMap(Shape((2, 2)), {(1,): (1, 2), (2,): (1, bad)})


def test_interval_map_rejects_non_integer_row_ids():
    # (1.0,) hashes like (1,), so the row lookup alone would accept it and
    # to_json_obj would then emit "x": [1.0], which from_json_obj rejects
    for bad in (1.0, True):
        with pytest.raises(ValueError, match="row id"):
            IntervalMap(Shape((2, 2)), {(bad,): (1, 2), (2,): (1, 1)})
    with pytest.raises(ValueError, match="row id"):
        IntervalMap(Shape((2, 2, 2)), {(1, 1): (1, 2), (1, 2.0): (1, 2),
                                       (2, 1): (1, 2), (2, 2): (1, 1)})


def test_interval_map_rejects_malformed_entries_with_value_error():
    shape = Shape((2, 2))
    for intervals, message in [
        ({(1,): 5, (2,): (1, 2)}, r"row \(1,\): interval 5 must be an \(l, h\) pair"),
        ({(1,): (1, 2, 3), (2,): (1, 2)}, r"row \(1,\): interval \(1, 2, 3\)"),
        ({1: (1, 2), (2,): (1, 2)}, "row id 1 must be a tuple of integers"),
        ({frozenset({1}): (1, 2), (2,): (1, 2)}, "row id frozenset"),
        ({(1,): {1, 2}, (2,): (1, 2)}, r"row \(1,\): interval \{1, 2\}"),
        ([((1,), (1, 2)), ((2,), (1, 1))], "must be a mapping"),
        (None, "must be a mapping"),
    ]:
        with pytest.raises(ValueError, match=message):
            IntervalMap(shape, intervals)


def test_interval_map_errors_quote_a_short_repr_of_the_value():
    with pytest.raises(ValueError) as err:
        IntervalMap(Shape((2, 2)), {(1.0,) * 100_000: (1, 2), (2,): (1, 1)})
    assert str(err.value).startswith("row id (1.0, 1.0,") and len(str(err.value)) < 200
    rows = [{"x": [1.5] * 100_000, "l": 1, "h": 2}, {"x": [2], "l": 1, "h": 1}]
    with pytest.raises(ValueError) as err:
        IntervalMap.from_json_obj({"w": [2, 2], "rows": rows})
    assert len(str(err.value)) < 200
    with pytest.raises(ValueError) as err:  # a short value reads in full
        IntervalMap.from_json_obj({"w": [2, 2], "rows": [dict(rows[0], x=[1.5])]})
    assert str(err.value) == 'row id "x" must be an array of integers, got [1.5]'


def test_ancestor_descendant_rows():
    s = Shape((3, 3, 4))
    assert sorted(ancestor_rows((2, 3))) == [(1, 1), (1, 2)]
    assert sorted(descendant_rows((2, 2), s)) == [(3, 3)]
    assert list(ancestor_rows((1, 2))) == []
    assert list(descendant_rows((3, 3), s)) == []
    # d = 1: the single empty row has neither
    assert list(ancestor_rows(())) == []
    assert list(descendant_rows((), Shape((5,)))) == []


def test_check_characterization_examples():
    good = IntervalMap(Shape((2, 2)), {(1,): (1, 2), (2,): (1, 1)})
    assert check_characterization(good)

    bad = check_characterization(
        IntervalMap(Shape((2, 2)), {(1,): (1, 2), (2,): (1, 2)})
    )
    assert not bad
    assert bad.row == (2,) and bad.rule == "h"
    assert bad.expected == 1 and bad.actual == 2


def test_check_characterization_rejects_d1():
    m = IntervalMap(Shape((5,)), {(): (2, 2)})
    with pytest.raises(ValueError):
        check_characterization(m)


def _random_map(shape, rng) -> IntervalMap:
    """Uniform valid intervals, or a maximal map with one row redrawn."""
    top = shape.dims[-1]
    if rng.random() < 0.5:
        fixed = {}
        for row in product(*(range(1, w + 1) for w in shape.dims[:-1])):
            a, b = rng.randint(1, top), rng.randint(1, top)
            fixed[row] = (min(a, b), max(a, b))
        return IntervalMap(shape, fixed)
    fixed = dict(ref.seeded_maximal_map(shape.dims, rng).intervals)
    row = rng.choice(sorted(fixed))
    a, b = rng.randint(1, top), rng.randint(1, top)
    fixed[row] = (min(a, b), max(a, b))
    return IntervalMap(shape, fixed)


def test_check_characterization_matches_pairwise_reference():
    rng = random.Random(6)
    seen = set()
    for dims in [(1, 3), (3, 1, 2), (2, 2), (3, 3), (4, 5), (5, 1), (2, 3, 4),
                 (3, 3, 3), (1, 1, 4), (2, 1, 3, 2), (3, 3, 2, 2), (3, 3, 3, 3)]:
        shape = Shape(dims)
        for _ in range(150):
            m = _random_map(shape, rng)
            report = check_characterization(m)
            assert report == ref.check_characterization(m), m
            seen.add(report.rule)
    # maps that pass, and maps failing each rule, all occur
    assert seen == {None, "h", "l"}


def test_x_set_examples():
    m1 = IntervalMap(Shape((2, 2)), {(1,): (2, 2), (2,): (1, 2)})
    assert x_set(m1) == {(2,)}
    m2 = IntervalMap(Shape((2, 2)), {(1,): (1, 2), (2,): (1, 1)})
    assert x_set(m2) == set()
    m3 = IntervalMap(Shape((3, 3)), {(1,): (3, 3), (2,): (3, 3), (3,): (1, 3)})
    assert x_set(m3) == {(2,), (3,)}
    with pytest.raises(ValueError):
        x_set(IntervalMap(Shape((5,)), {(): (1, 5)}))


def test_equivalence_with_is_maximal_on_small_shapes():
    # interval characterization vs the definitional flip test and the flood,
    # both directions; is_maximal reads the characterization, so it must
    # agree with both oracles too
    for dims in [(2, 2), (2, 3), (2, 2, 2)]:
        shape = Shape(dims)
        cells = list(shape.iter_cells())
        n = len(cells)
        for mask in range(1 << n):
            g = Grid(shape, [c for i, c in enumerate(cells) if (mask >> i) & 1])
            try:
                local = bool(check_characterization(to_intervals(g)))
            except (EmptyRowError, NonContiguousRowError):
                local = False
            flood = _flood(g)
            flooded = flood is not None and not any(flood[1])
            assert local == reference_dominance.is_maximal(g) == flooded == is_maximal(g), g.ones


def test_monotonicity_along_dominance():
    # on valid maps: rows strictly below have wider reach on both ends
    for dims in SMALL_SHAPES:
        shape = Shape(dims)
        if shape.d < 2:
            continue
        for g in enumerate_maximal(shape).grids:
            m = to_intervals(g)
            for z in m.intervals:
                for x in ancestor_rows(z):
                    lx, hx = m.intervals[x]
                    lz, hz = m.intervals[z]
                    assert hz <= hx and lz <= lx
                    assert lx >= hz  # local cleanliness across the pair


def test_boundary_rows():
    for dims in SMALL_SHAPES:
        shape = Shape(dims)
        if shape.d < 2:
            continue
        top = shape.dims[-1]
        for g in enumerate_maximal(shape).grids:
            m = to_intervals(g)
            for row, (l, h) in m.intervals.items():
                if 1 in row:  # no ancestors
                    assert h == top
                if any(x == w for x, w in zip(row, shape.dims)):  # no descendants
                    assert l == 1


def test_interval_map_json_round_trip():
    m = IntervalMap(Shape((3, 3)), {(1,): (3, 3), (2,): (3, 3), (3,): (1, 3)})
    obj = m.to_json_obj()
    assert obj == {
        "w": [3, 3],
        "rows": [
            {"x": [1], "l": 3, "h": 3},
            {"x": [2], "l": 3, "h": 3},
            {"x": [3], "l": 1, "h": 3},
        ],
    }
    assert IntervalMap.from_json_obj(obj) == m


def test_interval_map_json_rejects_malformed_input():
    with pytest.raises(ValueError):
        IntervalMap.from_json_obj({"w": [2, 2]})
    with pytest.raises(ValueError):
        IntervalMap.from_json_obj({"w": [2, 2], "rows": [{"x": [1], "l": 1}]})
    rows = [{"x": [1], "l": 1, "h": 2}, {"x": [2], "l": 1, "h": 1}]
    with pytest.raises(ValueError):
        IntervalMap.from_json_obj({"w": 5, "rows": rows})
    for bad_x in (1, [1.0], [[1]], "1", [True]):
        bad_rows = [dict(rows[0], x=bad_x), rows[1]]
        with pytest.raises(ValueError):
            IntervalMap.from_json_obj({"w": [2, 2], "rows": bad_rows})
    with pytest.raises(ValueError, match="^duplicate row in interval-map JSON$"):
        IntervalMap.from_json_obj({"w": [2, 2], "rows": [rows[0], rows[0], rows[1]]})
