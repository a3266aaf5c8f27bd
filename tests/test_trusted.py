"""The library's own builds skip the public constructors' checks, and maps
derived from a checked map carry its maximality verdict.  Each such build is
compared here with the public, fully checking constructor, and the guard of
the convert machinery must still fire on every map the library did not
derive."""

import ast
import dataclasses
import random
from enum import IntEnum
from pathlib import Path

import pytest
import reference_normalize as ref
from test_enumeration import LADDER

import maxac
from maxac import (
    Grid,
    IntervalMap,
    NotMaximalError,
    Shape,
    check_characterization,
    convert_step,
    enumerate_maximal,
    extend_by_two,
    find_pair,
    is_maximal,
    iter_shapes,
    normalize,
    peel,
    play,
    project_last,
    to_intervals,
    x_set,
)

SRC = Path(maxac.__file__).parent

# every trusted construction in the package, as (module, enclosing function):
# a new one joins this list only together with an oracle in this module
TRUSTED_SITES = {
    ("enumeration", "enumerate_maximal"),
    ("rowform", "to_intervals"),
    ("rowform", "_trusted_map"),
    ("normalize", "convert_step"),
    ("normalize", "normalize"),
    ("normalize", "peel"),
    ("game", "_state"),
}


def _call_sites(names):
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                            and node.func.id in names):
                        sites.add((path.stem, func.name))
    return sites


def test_trusted_call_sites_are_pinned():
    # _trusted_map is rowform's trusted builder, so its callers count as well
    assert _call_sites({"_trusted", "_trusted_map"}) == TRUSTED_SITES


def _public(m: IntervalMap) -> IntervalMap:
    # a fresh Shape too: peel builds its smaller shape unchecked, and a map
    # rebuilt on that same object would compare equal whatever it held
    return IntervalMap(Shape(tuple(m.shape.dims)), dict(m.intervals))


def _assert_derived(m: IntervalMap) -> None:
    """A map normalize, convert_step or peel built: what the public
    constructor builds from its rows, with the flat bounds the public map
    reads off them, and maximal as its verdict says."""
    assert m == _public(m)
    assert m._bounds == _public(m)._bounds
    assert m._maximal
    assert check_characterization(_public(m))


def _check_chain(m: IntervalMap, every_step: bool) -> None:
    """Every level of the normalize/peel chain from ``m``; with
    ``every_step``, also every convert step between the levels, else only
    the first.  Maps share bound lists with the maps they were built from,
    so at the end every map of the chain must still hold its own bounds."""
    assert m == _public(m)
    assert m._bounds == _public(m)._bounds
    built = [m]
    while m.top > 1:
        report = normalize(m)
        _assert_derived(report.result)
        stepped = m
        while x_set(stepped):
            stepped = convert_step(stepped)
            _assert_derived(stepped)
            built.append(stepped)
            if not every_step:
                break
        if every_step:
            assert stepped == report.result
        m = peel(report.result)
        _assert_derived(m)
        built += [report.result, m]
    for m in built:
        assert m._bounds == _public(m)._bounds


def _maximal_grids(dims):
    shape = Shape(dims)
    return enumerate_maximal(shape, max_cells=shape.cell_count).grids


def test_trusted_builds_equal_the_public_constructors_on_small_shapes():
    grids = 0
    for shape in iter_shapes(25, 4):
        for g in _maximal_grids(shape.dims):
            grids += 1
            assert g == Grid(g.shape, g.ones)
            if shape.d >= 2 and 1 in shape.dims:
                # the one grid is the cache's whole cell tuple
                assert g == Grid(shape, shape.iter_cells())
            if shape.d >= 2:
                _check_chain(to_intervals(g), every_step=True)
    assert grids == 1772


def test_trusted_builds_equal_the_public_constructors_on_the_ladder():
    for dims in LADDER:
        grids = _maximal_grids(dims)
        for g in grids:
            assert g == Grid(g.shape, g.ones)
        # about 20 chains per shape here; every grid's under -m slow
        for g in grids[:: max(1, len(grids) // 20)]:
            _check_chain(to_intervals(g), every_step=True)


@pytest.mark.slow
def test_trusted_builds_equal_the_public_constructors_on_every_ladder_grid():
    for dims in LADDER:
        for g in _maximal_grids(dims):
            _check_chain(to_intervals(g), every_step=True)


@pytest.mark.slow
@pytest.mark.parametrize("dims, seed", [((100, 100), 9), ((20, 20, 20), 10)],
                         ids=["100x100", "20x20x20"])
def test_trusted_chain_equals_the_public_constructor_on_huge_maps(dims, seed):
    m = ref.seeded_maximal_map(dims, random.Random(seed))
    _check_chain(m, every_step=False)


class Level(IntEnum):
    ONE = 1
    TWO = 2


def test_to_intervals_stores_int_subclass_bounds_as_int():
    # Grid admits IntEnum coordinates and IntervalMap does not; to_intervals
    # stores those bounds as plain ints, as the public constructor needs
    g = Grid(Shape((2, 2)), [(1, Level.ONE), (1, Level.TWO), (2, 1)])
    m = to_intervals(g)
    assert m == _public(m) == to_intervals(Grid(Shape((2, 2)), [(1, 1), (1, 2), (2, 1)]))
    assert {type(x) for bounds in m.intervals.values() for x in bounds} == {int}
    assert {type(x) for bounds in m._bounds for x in bounds} == {int}
    # int subclasses in the row ids only: the rows come from iter_rows
    m = to_intervals(Grid(Shape((2, 2)), [(Level.ONE, 1), (1, 2), (Level.TWO, 1)]))
    assert m == _public(m)


def test_int_subclass_grids_answer_as_plain_ones():
    # is_maximal, extend_by_two and project_last read the row form of a grid
    # whose coordinates are IntEnum members
    def plain(g):
        return Grid(Shape(tuple(g.shape.dims)), [tuple(map(int, c)) for c in g.ones])

    boards = [Grid(Shape((2, 2)), [(Level.ONE, Level.ONE), (Level.ONE, Level.TWO),
                                   (Level.TWO, Level.ONE)]),
              Grid(Shape((2, 2)), [(Level.ONE, Level.TWO), (Level.TWO, Level.ONE)]),
              Grid(Shape((3, 2)), [(Level.ONE, Level.TWO), (3, Level.ONE)])]
    for g in boards:
        assert is_maximal(g) == is_maximal(plain(g))
    for g in (boards[0], Grid(Shape((2, 3)), [(Level.ONE, 3), (Level.TWO, Level.ONE),
                                              (Level.TWO, Level.TWO), (Level.TWO, 3)])):
        assert is_maximal(g)
        image = extend_by_two(g)
        assert image == extend_by_two(plain(g))
        assert project_last(image) == g == plain(g)
        lifted = Grid(image.shape, [c[:-1] + (Level(c[-1]),) for c in image.ones])
        assert project_last(lifted) == project_last(plain(lifted)) == plain(g)


def test_game_boards_equal_the_public_constructor():
    # every board a callable strategy is shown, and every final board; the
    # callable takes the last zero cell, with IntEnum coordinates where they
    # fit, which the public constructor keeps as given
    shown = []

    def last_zero(state):
        shown.append(state)
        cell = max(c for c in state.shape.iter_cells() if c not in state.board.one_set)
        return tuple(Level(x) if x <= 2 else x for x in cell)

    for shape in iter_shapes(12, 3):
        for k, strategies in enumerate([["lex", last_zero], ["random", last_zero, "lex"],
                                        ["random", "random"], ["lex", "lex", "lex"]]):
            t = play(shape, len(strategies), strategies, seed=k)
            for state in shown + [t.final_state]:
                want = Grid(Shape(tuple(shape.dims)), [c for _, c in state.moves])
                assert state.board == want
            shown.clear()


M33 = IntervalMap(Shape((3, 3)), {(1,): (3, 3), (2,): (3, 3), (3,): (1, 3)})
# the h-rule fails at (2,), the obstruction set is empty
NOT_MAXIMAL_33 = {(1,): (1, 3), (2,): (1, 2), (3,): (1, 2)}


def test_only_a_passing_check_or_a_derivation_gives_the_verdict():
    fresh = IntervalMap(M33.shape, dict(M33.intervals))
    assert not fresh._maximal
    assert check_characterization(fresh) and fresh._maximal
    assert not to_intervals(Grid(Shape((2, 2)), [(1, 1), (1, 2), (2, 1)]))._maximal
    assert peel(normalize(fresh).result)._maximal
    # no constructor argument sets it
    with pytest.raises(TypeError):
        IntervalMap(M33.shape, dict(M33.intervals), _maximal=True)


def test_replace_on_a_derived_map_is_checked_afresh():
    derived = normalize(M33).result
    assert derived._maximal
    bad = dataclasses.replace(derived, intervals=NOT_MAXIMAL_33)
    assert not bad._maximal
    # the flat bounds are read afresh off the new rows, not carried over
    assert bad._bounds == ([1, 1, 1], [3, 2, 2]) != derived._bounds
    for op in (normalize, find_pair, convert_step, peel):
        with pytest.raises(NotMaximalError):
            op(bad)
    same = dataclasses.replace(derived, intervals=dict(derived.intervals))
    assert not same._maximal and same == derived


def test_the_verdict_is_no_field_and_leaves_repr_and_equality_alone():
    derived = normalize(M33).result
    public = _public(derived)
    assert "_maximal" not in {f.name for f in dataclasses.fields(IntervalMap)}
    assert derived._maximal and not public._maximal
    assert derived == public and repr(derived) == repr(public)
    assert "_maximal" not in repr(derived)
