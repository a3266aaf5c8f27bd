import importlib
import random
from collections import Counter

import pytest
import reference_normalize as ref

from maxac import (
    BottomedOutError,
    BoxError,
    EmptyXSetError,
    Grid,
    IntervalMap,
    NotMaximalError,
    Shape,
    XSetNonEmptyError,
    check_characterization,
    convert_step,
    enumerate_maximal,
    find_pair,
    iter_shapes,
    max_size,
    normalize,
    peel,
    random_maximal,
    to_intervals,
    x_set,
)
from maxac.core import _box
from maxac.rowform import _obstructed


def _iw(m):
    return sum(h - l + 1 for l, h in m.intervals.values())


M22 = IntervalMap(Shape((2, 2)), {(1,): (2, 2), (2,): (1, 2)})
M22_DONE = IntervalMap(Shape((2, 2)), {(1,): (1, 2), (2,): (1, 1)})
M33 = IntervalMap(Shape((3, 3)), {(1,): (3, 3), (2,): (3, 3), (3,): (1, 3)})


def test_find_pair_examples():
    assert find_pair(M22) == ((2,), (1,))
    # walk starts at (2,), sees l = 3 = top, drops to descendant (3,)
    assert find_pair(M33) == ((3,), (2,))
    with pytest.raises(EmptyXSetError):
        find_pair(M22_DONE)


def test_find_pair_returns_diagonal_neighbors():
    for dims in [(2, 2), (3, 3), (2, 3), (3, 2, 2), (2, 2, 2)]:
        for g in enumerate_maximal(Shape(dims)).grids:
            m = to_intervals(g)
            while x_set(m):
                x, x_prime = find_pair(m)
                assert x == tuple(c + 1 for c in x_prime)
                top = m.top
                assert m.intervals[x][1] == top > m.intervals[x][0]
                # no rival top-touching descendant of the anchor
                assert not any(
                    m.intervals[z][1] == top
                    for z in ref.descendant_rows(x_prime, m.shape)
                    if z != x
                )
                m = convert_step(m)


def test_convert_step_examples():
    out = convert_step(M22)
    assert dict(out.intervals) == {(1,): (1, 2), (2,): (1, 1)}

    out33 = convert_step(M33)
    assert dict(out33.intervals) == {(1,): (3, 3), (2,): (2, 3), (3,): (1, 2)}
    assert _iw(out33) == 5

    with pytest.raises(EmptyXSetError):
        convert_step(M22_DONE)


def test_normalize_examples():
    report = normalize(M33)
    assert report.steps == 2
    assert dict(report.result.intervals) == {(1,): (2, 3), (2,): (2, 2), (3,): (1, 2)}
    assert report.pairs == (((3,), (2,)), ((2,), (1,)))

    untouched = normalize(M22_DONE)
    assert untouched.steps == 0 and untouched.result == M22_DONE


def test_normalize_writes_nothing_on_its_argument():
    # a map whose obstruction set is already empty gives a new map in 0
    # steps, sharing the input's bound lists, and only the new map is marked
    drained = 0
    for dims in [(2, 2), (3, 3), (2, 3), (2, 2, 2)]:
        for g in enumerate_maximal(Shape(dims)).grids:
            for m in (to_intervals(g), IntervalMap(Shape(dims), dict(to_intervals(g).intervals))):
                assert check_characterization(m)
                before = dict(vars(m))
                report = normalize(m)
                assert vars(m) == before and report.result is not m
                assert report.result._drained and not m._drained
                if not x_set(m):
                    assert report.steps == 0 and report.pairs == ()
                    assert report.result == m and report.result._bounds == m._bounds
                    drained += 1
    assert drained == 2 * 7


def test_normalize_invariants_on_enumerated_grids():
    for dims in [(2, 3), (3, 3), (2, 2, 2), (3, 2, 2)]:
        for g in enumerate_maximal(Shape(dims)).grids:
            m = to_intervals(g)
            report = normalize(m)
            assert report.steps == len(report.pairs) == len(x_set(m))
            assert not x_set(report.result)
            assert _iw(report.result) == _iw(m)
            assert check_characterization(report.result)
            # afterwards only ancestor-free rows touch the top
            top = report.result.top
            for row, (_, h) in report.result.intervals.items():
                assert (h == top) == (1 in row)


def test_normalize_report_json():
    obj = normalize(M33).to_json_obj()
    assert obj["steps"] == 2
    assert obj["pairs"] == [[[3], [2]], [[2], [1]]]
    assert obj["result"]["w"] == [3, 3]


def test_equal_maps_hash_equal_however_they_were_built():
    r = normalize(to_intervals(Grid(Shape((3, 3)), [(1, 3), (2, 3), (3, 1), (3, 2), (3, 3)])))
    for derived, rows in [(r.result, {(1,): (2, 3), (2,): (2, 2), (3,): (1, 2)}),
                          (peel(r.result), {(1,): (2, 2), (2,): (2, 2), (3,): (1, 2)})]:
        shape = Shape(derived.shape.dims)
        public = IntervalMap(shape, rows)
        read = to_intervals(Grid(shape, [x + (y,) for x, (l, h) in rows.items()
                                         for y in range(l, h + 1)]))
        assert hash(derived) == hash(public) == hash(read)
        # a derived map hashes and compares its flat bounds, not a row dict
        # built for it
        assert derived == read and derived != rows
        assert "intervals" not in vars(derived) and "intervals" not in vars(read)
        assert derived == public == read and len({derived, public, read}) == 1
        (x, (l, h)), *others = rows.items()
        assert derived != IntervalMap(shape, {x: (l - 1, h), **dict(others)})
        assert derived != IntervalMap(Shape(shape.dims[:-1] + (shape.dims[-1] + 1,)), rows)
    assert hash(r) == hash(normalize(IntervalMap(Shape((3, 3)), dict(M33.intervals))))


def test_peel_examples():
    normalized = normalize(M33).result
    peeled = peel(normalized)
    assert peeled.shape.dims == (3, 2)
    assert dict(peeled.intervals) == {(1,): (2, 2), (2,): (2, 2), (3,): (1, 2)}
    # the drop equals the number of ancestor-free rows: 3 - 2 = 1, so 5 -> 4
    assert _iw(normalized) == 5 and _iw(peeled) == 4

    peeled22 = peel(M22_DONE)
    assert peeled22.shape.dims == (2, 1)
    assert dict(peeled22.intervals) == {(1,): (1, 1), (2,): (1, 1)}
    assert _iw(M22_DONE) == 3 and _iw(peeled22) == 2

    with pytest.raises(XSetNonEmptyError):
        peel(M33)


def test_peel_bottoms_out():
    flat = IntervalMap(Shape((2, 1)), {(1,): (1, 1), (2,): (1, 1)})
    with pytest.raises(BottomedOutError):
        peel(flat)


def test_normalize_is_undefined_when_top_is_1_but_obstructions_exist():
    # over (2,2,1) the all-ones grid is maximal yet its obstruction set is
    # nonempty; no interval can be lowered, so the machinery refuses
    all_ones = IntervalMap(
        Shape((2, 2, 1)),
        {(1, 1): (1, 1), (1, 2): (1, 1), (2, 1): (1, 1), (2, 2): (1, 1)},
    )
    assert check_characterization(all_ones)
    assert x_set(all_ones) == {(2, 2)}
    with pytest.raises(BottomedOutError):
        normalize(all_ones)


def test_peel_telescopes_to_the_closed_form():
    for dims in [(3, 3), (2, 3), (4, 4), (2, 2, 2)]:
        for g in enumerate_maximal(Shape(dims)).grids:
            m = to_intervals(g)
            while m.shape.dims[-1] > 1:
                m = normalize(m).result
                m = peel(m)
                assert check_characterization(m)
            assert _iw(m) == max_size(m.shape)


# all-full rows: the h-rule fails at (2,); unguarded, normalize "converted"
# two rows and dropped the weight from 9 to 5
FULL33 = IntervalMap(Shape((3, 3)), {(1,): (1, 3), (2,): (1, 3), (3,): (1, 3)})
# every row only at the top: the l-rule fails at (3,); unguarded, the pair
# search ran out of descendants inside min()
TOPS33 = IntervalMap(Shape((3, 3)), {(1,): (3, 3), (2,): (3, 3), (3,): (3, 3)})
# the h-rule fails at (2,) but the obstruction set is empty; unguarded, peel
# returned a 3x2 map of weight 6 where every maximal grid weighs 4
PEELBAD33 = IntervalMap(Shape((3, 3)), {(1,): (1, 3), (2,): (1, 2), (3,): (1, 2)})


@pytest.mark.parametrize("m", [FULL33, TOPS33, PEELBAD33], ids=["full", "tops", "peelbad"])
@pytest.mark.parametrize("op", [normalize, find_pair, convert_step, peel])
def test_convert_machinery_rejects_non_maximal_maps(op, m):
    assert not check_characterization(m)
    assert not m._maximal  # a failing check leaves no verdict
    with pytest.raises(NotMaximalError) as err:
        op(m)
    assert str(err.value) == str(check_characterization(m))


def test_the_convert_machinery_refuses_a_one_dimensional_map():
    m = IntervalMap(Shape((3,)), {(): (2, 2)})
    for op, verb in [(normalize, "normalize"), (find_pair, "find_pair"),
                     (convert_step, "convert_step"), (peel, "peel")]:
        with pytest.raises(ValueError, match=f"^{verb} applies to d >= 2 only$"):
            op(m)


def _chain(norm, m, peel_top=peel):
    """The report of ``norm`` and the peeled map at every level of the
    normalize/peel chain from ``m``."""
    levels = []
    while m.top > 1:
        report = norm(m)
        m = peel_top(report.result)
        levels.append((report, m))
    return levels


def test_normalize_matches_reference_on_every_small_maximal_grid():
    shapes = grids = steps = 0
    for shape in iter_shapes(25, 4):
        if shape.d < 2:
            continue
        shapes += 1
        for g in enumerate_maximal(shape).grids:
            grids += 1
            m = to_intervals(g)
            levels = _chain(normalize, m)
            assert levels == _chain(ref.normalize, m, ref.peel), g.ones
            steps += sum(r.steps for r, _ in levels)
    assert (shapes, grids, steps) == (714, 1447, 4055)


def test_the_row_box_lists_the_obstruction_set_in_ascending_order():
    # the flat pending rows replace sorted(x_set(m)), and x_set reads them;
    # both checked against the definition at every level of every small
    # chain, before and after normalize
    maps = obstructed = 0
    for shape in iter_shapes(25, 4):
        if shape.d < 2:
            continue
        for g in enumerate_maximal(shape).grids:
            levels = [to_intervals(g)]
            while levels[-1].top > 1:
                levels.append(normalize(levels[-1]).result)
                levels.append(peel(levels[-1]))
            for m in levels:
                maps += 1
                box, pending = _obstructed(m)
                assert [box.cells[i] for i in pending] == sorted(ref.x_set(m)), g.ones
                assert x_set(m) == ref.x_set(m)
                obstructed += bool(pending)
    assert (maps, obstructed) == (10437, 2826)


def test_a_whole_chain_builds_one_row_layout():
    # every level of the chain has the same row dimensions, so the row form,
    # the characterization, normalize and peel all read one cached row box
    g = random_maximal(Shape((5, 4, 6)), 3)
    _box.cache_clear()
    m = to_intervals(g)
    assert check_characterization(m)
    levels = _chain(normalize, m)
    assert len(levels) == 5 and sum(r.steps for r, _ in levels) > 0
    # one miss for the whole chain, at the check (the maps are built with
    # no layout, as nothing reads their intervals); then one hit per
    # normalize, for its obstruction set, which peel does not scan again
    info = _box.cache_info()
    assert (info.misses, info.hits) == (1, len(levels))


def test_find_pair_and_convert_step_resume_where_normalize_does():
    # find_pair is normalize's first pair, and normalizing the converted map
    # gives the rest: the walk resumed after a convert is the fresh walk
    maps = 0
    for shape in iter_shapes(25, 4):
        if shape.d < 2:
            continue
        for g in enumerate_maximal(shape).grids:
            m = to_intervals(g)
            while m.top > 1:
                report = normalize(m)
                if report.pairs:
                    maps += 1
                    assert find_pair(m) == report.pairs[0], g.ones
                    assert normalize(convert_step(m)).pairs == report.pairs[1:], g.ones
                m = peel(report.result)
    assert maps == 1944


def test_find_pair_and_convert_step_write_to_no_map_they_are_given():
    # the walk writes each pair to the lists it is handed, and a peeled map
    # shares its l list with the normalized map it came from: both maps'
    # bounds must survive, and the step must write the found pair alone
    def snapshot(*maps):
        return [tuple(map(tuple, k._bounds)) for k in maps]

    maps = 0
    for shape in iter_shapes(25, 4):
        if shape.d < 2:
            continue
        for g in enumerate_maximal(shape).grids:
            m = sharer = to_intervals(g)  # the first level shares no list
            while m.top > 1:
                if x_set(m):
                    maps += 1
                    before = snapshot(m, sharer)
                    x, x_prime = find_pair(m)
                    out = convert_step(m)
                    assert snapshot(m, sharer) == before, g.ones
                    want = dict(m.intervals)
                    want[x] = (want[x][0], m.top - 1)
                    want[x_prime] = (m.top - 1, want[x_prime][1])
                    assert (out.shape, dict(out.intervals)) == (m.shape, want), g.ones
                sharer = normalize(m).result
                m = peel(sharer)
    assert maps == 1944


def _large_map_id(v):
    return "x".join(map(str, v)) if isinstance(v, tuple) else f"seed{v}"


LARGE_MAPS = [((30, 30), 1), ((12, 12, 12), 2), ((6, 6, 6, 6), 3), ((3, 3, 3, 3, 3), 4),
              ((50, 40), 5), ((9, 7, 5), 6), ((4, 5, 6, 3), 7), ((2, 9, 2, 9), 8)]


@pytest.mark.parametrize("dims, seed", LARGE_MAPS, ids=_large_map_id)
def test_normalize_matches_reference_on_large_maps(dims, seed):
    m = ref.seeded_maximal_map(dims, random.Random(seed))
    assert ref.check_characterization(m)
    levels = _chain(normalize, m)
    assert levels == _chain(ref.normalize_resumed, m, ref.peel)
    assert levels == _chain(ref.normalize_restarting, m, ref.peel)
    assert levels == _chain(ref.normalize, m, ref.peel)
    assert len(levels) == dims[-1] - 1 and sum(r.steps for r, _ in levels) > 0


def test_the_written_result_and_the_later_pairs_match_the_resumed_walk():
    # normalize writes its result from the obstruction set, with no walk;
    # the pairs, read only once the whole chain is built, are still the walk's
    maps = [to_intervals(g) for shape in iter_shapes(25, 4) if shape.d >= 2
            for g in enumerate_maximal(shape).grids]
    maps += [ref.seeded_maximal_map(dims, random.Random(seed)) for dims, seed in LARGE_MAPS]
    levels = 0
    for m in maps:
        reports, wants = [], []
        while m.top > 1:
            report, want = normalize(m), ref.normalize_resumed(m)
            assert (report.steps, report.result._bounds) == (want.steps, want.result._bounds)
            assert dict(report.result.intervals) == dict(want.result.intervals)
            reports.append(report)
            wants.append(want)
            m = peel(report.result)
        assert [r.pairs for r in reports] == [w.pairs for w in wants]
        levels += len(reports)
    assert levels == 4495 + sum(dims[-1] - 1 for dims, _ in LARGE_MAPS)


def test_a_chain_walks_no_pairs_and_scans_each_level_once(monkeypatch):
    module = importlib.import_module("maxac.normalize")
    calls = Counter()

    def counted(name):
        real = getattr(module, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, call)

    counted("_walk")
    counted("_obstructed")
    m = ref.seeded_maximal_map((12, 12, 12), random.Random(2))
    assert check_characterization(m)
    levels = _chain(normalize, m)
    assert len(levels) == 11 and calls == Counter(_obstructed=11)
    report = levels[0][0]
    pairs = report.pairs
    assert calls["_walk"] == 1 and len(pairs) == report.steps > 0
    assert report.pairs is pairs and calls["_walk"] == 1
    assert pairs == ref.normalize_resumed(m).pairs


# size-2 axes, where a stride step along a short axis crosses a row of the
# next one; size-1 axes, whose plans have no inner rows; plans of one and two rows
LAYOUT_EDGES = [(2, 2, 2, 2, 2, 3), (2, 9, 2, 9), (3, 2, 5), (9, 2), (2, 2),
                (1, 5), (1, 4, 3), (3, 1, 4)]


@pytest.mark.parametrize("dims", LAYOUT_EDGES, ids=_large_map_id)
def test_the_flat_walk_matches_the_tuple_walk_on_layout_edges(dims):
    shape = Shape(dims)
    maps = [to_intervals(g) for g in enumerate_maximal(shape, max_cells=40).grids] \
        if shape.cell_count <= 40 else []
    maps += [ref.seeded_maximal_map(dims, random.Random(seed)) for seed in range(20)]
    steps = 0
    for m in maps:
        levels = _chain(normalize, m)
        assert levels == _chain(ref.normalize_resumed, m, ref.peel), dict(m.intervals)
        steps += sum(r.steps for r, _ in levels)
    assert steps > 0 or 1 in dims


def _outcome(op, m):
    """The result of ``op`` on ``m``, or the type, message and obstruction
    rows of the error it raises."""
    try:
        return op(m)
    except BoxError as err:
        return type(err), str(err), getattr(err, "rows", None)


# maximal maps whose obstruction set is empty, or whose top is 1 (where no
# interval can be lowered), and maps breaking the characterization
ALL_ONES_221 = IntervalMap(
    Shape((2, 2, 1)), {(1, 1): (1, 1), (1, 2): (1, 1), (2, 1): (1, 1), (2, 2): (1, 1)})
FLAT21 = IntervalMap(Shape((2, 1)), {(1,): (1, 1), (2,): (1, 1)})
ERROR_MAPS = [M22, M22_DONE, M33, ALL_ONES_221, FLAT21, FULL33, TOPS33, PEELBAD33]


@pytest.mark.parametrize("m", ERROR_MAPS,
                         ids=["m22", "m22done", "m33", "ones221", "flat21",
                              "full", "tops", "peelbad"])
@pytest.mark.parametrize("op, oracle", [(find_pair, ref.find_pair),
                                        (normalize, ref.normalize_resumed),
                                        (peel, ref.peel)],
                         ids=["find_pair", "normalize", "peel"])
def test_error_paths_keep_their_type_message_and_rows(op, oracle, m):
    got = _outcome(op, m)
    if check_characterization(m):
        assert got == _outcome(oracle, m)
    else:
        assert got == (NotMaximalError, str(check_characterization(m)), None)


def test_peel_names_the_whole_obstruction_set_on_every_small_maximal_grid():
    raised = 0
    for shape in iter_shapes(25, 4):
        if shape.d < 2 or shape.dims[-1] < 2:
            continue
        for g in enumerate_maximal(shape).grids:
            m = to_intervals(g)
            if x_set(m):
                raised += 1
                with pytest.raises(XSetNonEmptyError) as err:
                    peel(m)
                assert err.value.rows == ref.x_set(m)
                assert str(err.value) == str(XSetNonEmptyError(ref.x_set(m)))
    assert raised > 0


@pytest.mark.slow
@pytest.mark.parametrize("dims, seed", [((100, 100), 9), ((20, 20, 20), 10)], ids=_large_map_id)
def test_normalize_matches_the_restarting_walk_on_huge_maps(dims, seed):
    m = ref.seeded_maximal_map(dims, random.Random(seed))
    assert ref.check_characterization(m)
    levels = _chain(normalize, m)
    assert levels == _chain(ref.normalize_resumed, m, ref.peel)
    assert levels == _chain(ref.normalize_restarting, m, ref.peel)
    assert sum(r.steps for r, _ in levels) > 5000
