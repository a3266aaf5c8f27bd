"""One table of every scalar argument at the library's boundary.

Each row names a function, one of its scalar parameters, a call that is valid
with the default value, and the workers that call reaches first.  Every bad
value must raise ValueError before any worker runs: the workers are patched
to raise AssertionError, and the valid call must reach one of them, so no row
passes vacuously.  Bad values are ``True``, ``2.5`` and ``"x"``; ``-1``
where negatives are invalid; and an int too long to print where the
parameter has an upper bound.  A second table holds calls given a value of
the wrong type where a ``Shape``, ``Grid``, ``IntervalMap`` or ``GameState``
belongs, in a function or a constructor: each raises a TypeError that names
the function or class and the type it takes.
"""

import inspect
import sys

import pytest

import maxac
from maxac import (
    GAME_CELL_LIMIT,
    VERIFY_SAMPLE_LIMIT,
    VERIFY_TRIAL_LIMIT,
    Shape,
    enumeration,
    game,
    iter_shapes,
    play,
    random_maximal,
    sample_non_maximal,
    verification,
    verify_shape,
)

S22, S33 = Shape((2, 2)), Shape((3, 3))
HUGE = 10**5000  # past the interpreter's default digit limit for printing

# (function, parameter, valid call, negatives invalid, has an upper bound,
# workers patched to raise)
TABLE = [
    ("enumerate_maximal", "cap", lambda cap=1: enumeration.enumerate_maximal(S22, cap),
     True, False, ["enumeration._box", "enumeration._trusted"]),
    ("enumerate_maximal", "max_cells",
     lambda max_cells=25: enumeration.enumerate_maximal(S22, max_cells=max_cells),
     True, False, ["enumeration._box", "enumeration._trusted"]),
    ("count_maximal", "max_cells",
     lambda max_cells=25: enumeration.count_maximal(S22, max_cells=max_cells),
     True, False, ["enumeration._check_budget", "enumeration._zeta_count"]),
    ("random_maximal", "seed", lambda seed=0: enumeration.random_maximal(S22, seed),
     False, False, ["enumeration._flood_box", "enumeration.complete_to_maximal"]),
    ("play", "players", lambda players=2: game.play(S22, players, ["lex"] * 2),
     True, True, ["game._flood_box", "game._turn_on"]),
    ("play", "seed", lambda seed=0: game.play(S22, 2, ["random"] * 2, seed=seed),
     False, False, ["game._flood_box", "game._turn_on"]),
    ("predict_loser", "players", lambda players=2: game.predict_loser(S22, players),
     True, False, ["game.max_size"]),
    ("iter_shapes", "max_cells", lambda max_cells=4: next(verification.iter_shapes(max_cells, 2)),
     True, False, ["verification.Shape"]),
    ("iter_shapes", "max_d", lambda max_d=2: next(verification.iter_shapes(4, max_d)),
     True, False, ["verification.Shape"]),
    ("sample_non_maximal", "count", lambda count=3: verification.sample_non_maximal(S22, count),
     True, True, ["verification._draws", "verification.enumerate_maximal"]),
    ("sample_non_maximal", "seed",
     lambda seed=0: verification.sample_non_maximal(S22, 3, seed),
     False, True, ["verification._draws", "verification.enumerate_maximal"]),
    ("verify_shape", "samples", lambda samples=3: verification.verify_shape(S22, samples=samples),
     True, True, ["verification.enumerate_maximal"]),
    ("verify_shape", "trials", lambda trials=3: verification.verify_shape(S22, trials=trials),
     True, True, ["verification.enumerate_maximal"]),
    ("verify_shape", "seed", lambda seed=0: verification.verify_shape(S22, seed=seed),
     False, True, ["verification.enumerate_maximal"]),
    ("check_game", "trials", lambda trials=3: verification.check_game(S22, trials=trials),
     True, True, ["verification.play", "verification.predict_loser", "verification.max_size"]),
    ("check_game", "seed", lambda seed=0: verification.check_game(S22, seed=seed),
     False, False, ["verification.play", "verification.predict_loser", "verification.max_size"]),
    ("check_equivalence", "samples",
     lambda samples=3: verification.check_equivalence(S33, (), samples=samples),
     True, True, ["verification._draws", "verification._flood"]),
    ("check_equivalence", "seed",
     lambda seed=0: verification.check_equivalence(S33, (), seed=seed),
     False, True, ["verification._draws", "verification._flood"]),
]


def _no_work(monkeypatch, workers):
    def worker(*args, **kwargs):
        raise AssertionError("work started")

    for path in workers:
        monkeypatch.setattr(f"maxac.{path}", worker)


def test_the_table_covers_every_exported_function_with_a_scalar_parameter():
    scalar = set()
    for name in maxac.__all__:
        value = getattr(maxac, name)
        if inspect.isfunction(value):
            for param in inspect.signature(value).parameters.values():
                # the modules postpone annotations, so these are strings
                if param.annotation in ("int", "int | None"):
                    scalar.add((name, param.name))
    assert scalar == {(f, p) for f, p, *_ in TABLE if f in maxac.__all__}
    assert {f for f, *_ in TABLE} - set(maxac.__all__) == {"check_game", "check_equivalence"}


@pytest.mark.parametrize("function, param, call, negatives_invalid, bounded, workers", TABLE,
                         ids=[f"{f}-{p}" for f, p, *_ in TABLE])
def test_a_bad_scalar_is_refused_before_any_work(monkeypatch, function, param, call,
                                                 negatives_invalid, bounded, workers):
    _no_work(monkeypatch, workers)
    with pytest.raises(AssertionError, match="work started"):
        call()
    refusals = [(True, "an int, got True"), (2.5, "an int, got 2.5"), ("x", "an int, got 'x'")]
    if negatives_invalid:
        refusals.append((-1, "at least "))
    if bounded:
        refusals.append((HUGE, "at most "))
    for value, shown in refusals:
        with pytest.raises(ValueError) as err:
            call(value)
        message = str(err.value)
        assert message.startswith(f"{param} must ") and shown in message
        if value is HUGE:
            assert message.endswith("got <int with 5001 digits>")


# (call given the wrong type, the message it raises)
WRONG_TYPES = [
    (lambda: maxac.max_size((3, 3)), "max_size takes a Shape, got tuple"),
    (lambda: maxac.is_maximal([(1, 1)]), "is_maximal takes a Grid, got list"),
    (lambda: maxac.to_intervals([(1, 1)]), "to_intervals takes a Grid, got list"),
    (lambda: maxac.sample_non_maximal((3, 3), 2), "sample_non_maximal takes a Shape, got tuple"),
    (lambda: maxac.verify_shape((3, 3)), "verify_shape takes a Shape, got tuple"),
    (lambda: verification.check_equivalence((3, 3), (), samples=2),
     "check_equivalence takes a Shape, got tuple"),
    (lambda: maxac.normalize((3, 3)), "normalize takes an IntervalMap, got tuple"),
    (lambda: maxac.peel((3, 3)), "peel takes an IntervalMap, got tuple"),
    (lambda: maxac.find_pair((3, 3)), "find_pair takes an IntervalMap, got tuple"),
    (lambda: maxac.convert_step((3, 3)), "convert_step takes an IntervalMap, got tuple"),
    (lambda: maxac.check_characterization((3, 3)),
     "check_characterization takes an IntervalMap, got tuple"),
    (lambda: maxac.x_set((3, 3)), "x_set takes an IntervalMap, got tuple"),
    (lambda: maxac.count_maximal((3, 3)), "count_maximal takes a Shape, got tuple"),
    (lambda: maxac.enumerate_maximal((3, 3)), "enumerate_maximal takes a Shape, got tuple"),
    (lambda: maxac.count_closed_form((3, 3)), "count_closed_form takes a Shape, got tuple"),
    (lambda: maxac.random_maximal((3, 3), 0), "random_maximal takes a Shape, got tuple"),
    (lambda: maxac.play((3, 3), 2, ["lex"] * 2), "play takes a Shape, got tuple"),
    (lambda: maxac.brute_force_maximal((3, 3)), "brute_force_maximal takes a Shape, got tuple"),
    (lambda: maxac.contains_forbidden([(1, 1)]), "contains_forbidden takes a Grid, got list"),
    (lambda: maxac.weight([(1, 1)]), "weight takes a Grid, got list"),
    (lambda: maxac.extend_by_two([(1, 1)]), "extend_by_two takes a Grid, got list"),
    (lambda: maxac.project_last([(1, 1)]), "project_last takes a Grid, got list"),
    (lambda: maxac.complete_to_maximal([(1, 1)]), "complete_to_maximal takes a Grid, got list"),
    (lambda: maxac.from_intervals((3, 3)), "from_intervals takes an IntervalMap, got tuple"),
    (lambda: maxac.flip_creates_containment((3, 3), (1, 1)),
     "flip_creates_containment takes a Grid, got tuple"),
    (lambda: maxac.safe_moves((3, 3)), "safe_moves takes a GameState, got tuple"),
    (lambda: maxac.predict_loser((3, 3), 2), "predict_loser takes a Shape, got tuple"),
    (lambda: maxac.Grid((3, 3), []), "Grid takes a Shape, got tuple"),
    (lambda: maxac.IntervalMap((3, 3), {}), "IntervalMap takes a Shape, got tuple"),
    (lambda: maxac.GameState((3, 3), (), 2, ()), "GameState takes a Shape, got tuple"),
    (lambda: maxac.GameState(S33, (), 2, ()), "GameState takes a Grid, got tuple"),
]


@pytest.mark.parametrize("call, message", WRONG_TYPES,
                         ids=["max_size", "is_maximal", "to_intervals", "sample_non_maximal",
                              "verify_shape", "check_equivalence", "normalize", "peel",
                              "find_pair", "convert_step", "check_characterization", "x_set",
                              "count_maximal", "enumerate_maximal", "count_closed_form",
                              "random_maximal", "play", "brute_force_maximal",
                              "contains_forbidden", "weight", "extend_by_two", "project_last",
                              "complete_to_maximal", "from_intervals",
                              "flip_creates_containment", "safe_moves", "predict_loser",
                              "Grid", "IntervalMap", "GameState-shape", "GameState-board"])
def test_a_wrong_type_raises_type_error_naming_the_type_it_takes(call, message):
    with pytest.raises(TypeError) as err:
        call()
    assert str(err.value) == message


def test_the_bounds_are_the_documented_ones(monkeypatch):
    _no_work(monkeypatch, ["game._flood_box", "verification.enumerate_maximal"])
    for call, message in [
        (lambda: play(S22, 1, ["lex"]), "players must be at least 2, got 1"),
        (lambda: play(S22, GAME_CELL_LIMIT + 2, ["lex"]),
         f"players must be at most {GAME_CELL_LIMIT + 1}, got {GAME_CELL_LIMIT + 2}"),
        (lambda: sample_non_maximal(S22, VERIFY_SAMPLE_LIMIT + 1),
         f"count must be at most {VERIFY_SAMPLE_LIMIT}, got {VERIFY_SAMPLE_LIMIT + 1}"),
        (lambda: verify_shape(S22, trials=VERIFY_TRIAL_LIMIT + 1),
         f"trials must be at most {VERIFY_TRIAL_LIMIT}, got {VERIFY_TRIAL_LIMIT + 1}"),
        (lambda: verify_shape(S22, seed=-HUGE), f"seed must have at most "
         f"{sys.get_int_max_str_digits()} digits, got <negative int with 5001 digits>"),
        (lambda: iter_shapes(-1, 2), "max_cells must be at least 0, got -1"),
    ]:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


def test_iter_shapes_refuses_at_the_call_not_at_the_first_shape():
    with pytest.raises(ValueError, match="^max_d must be at least 0, got -1$"):
        iter_shapes(4, -1)
    with pytest.raises(ValueError, match="^max_cells must be an int, got 2.5$"):
        iter_shapes(2.5, 2)
    assert list(iter_shapes(0, 3)) == list(iter_shapes(4, 0)) == []
    assert [s.dims for s in iter_shapes(2, 2)] == [(1,), (1, 1), (1, 2), (2,), (2, 1)]


def test_a_count_of_zero_samples_or_trials_stays_valid():
    assert sample_non_maximal(S33, 0, seed=-4) == []
    assert verification.check_game(S22, trials=0).detail == "skipped: 0 trials requested"
    assert verification.check_equivalence(Shape((3,)), (), samples=0).passed


def test_any_printable_int_is_a_seed_and_keeps_its_stream():
    # pinned before seeds were checked: a negative seed is an ordinary int
    moves = play(S33, 2, ["random"] * 2, seed=-5).final_state.moves
    assert [c for _, c in moves] == [(2, 2), (3, 2), (2, 3), (1, 3), (3, 1), (1, 1)]
    assert random_maximal(Shape((4, 4)), -3).ones == (
        (1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (3, 1), (4, 1))
    assert [g.ones for g in sample_non_maximal(S33, 2, -1)] == [
        ((1, 1), (1, 2), (1, 3), (2, 1)), ((1, 2), (1, 3), (2, 2), (3, 1), (3, 2), (3, 3))]
    assert len(sample_non_maximal(S22, 1, -10**4299)) == 1  # 4,300 digits: printable
    assert verification.check_game(S22, trials=1, seed=-1).passed
    # a seed too long to print is fine where it is never printed
    assert play(S22, 2, ["random"] * 2, seed=HUGE).loser == 1
    assert random_maximal(S22, HUGE).ones in {((1, 1), (1, 2), (2, 1)), ((1, 2), (2, 1), (2, 2))}

