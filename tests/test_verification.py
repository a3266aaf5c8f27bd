import dataclasses
import re

import pytest

from maxac import (
    GAME_CELL_LIMIT,
    VERIFY_SAMPLE_LIMIT,
    VERIFY_TRIAL_LIMIT,
    CharacterizationReport,
    Grid,
    Shape,
    enumerate_maximal,
    is_maximal,
    normalize,
    play,
    predict_loser,
    sample_non_maximal,
    to_intervals,
    verify_shape,
    x_set,
)
from maxac import counting, enumeration, rowform, verification

# every check of the suite fails its doctored input with one detail; 3x3 has
# 6 maximal grids of weight 5, and 3 of them need a convert step


@pytest.fixture
def grids():
    return enumerate_maximal(Shape((3, 3))).grids


def test_sample_non_maximal_enumerates_only_when_sampling(monkeypatch):
    calls = []

    def counting(shape, *args, **kwargs):
        calls.append(shape)
        return enumerate_maximal(shape, *args, **kwargs)

    monkeypatch.setattr(verification, "enumerate_maximal", counting)
    shape = Shape((3, 3))
    assert sample_non_maximal(shape, 0, seed=4) == []
    grids = enumerate_maximal(shape).grids
    assert verification.check_equivalence(shape, grids, samples=0).passed
    assert calls == []
    sample = sample_non_maximal(shape, 3, seed=4)
    assert len(sample) == 3 and not any(is_maximal(g) for g in sample)
    assert calls == [shape]


def test_the_equivalence_check_decides_maximality_apart_from_the_row_form(monkeypatch):
    # a characterization that passes every map, wherever it is read: only a
    # direct side that shares no code with it can disagree
    def holds(m):
        return CharacterizationReport(True)

    monkeypatch.setattr(rowform, "check_characterization", holds)
    monkeypatch.setattr(verification, "check_characterization", holds)
    shape = Shape((3, 3))
    grids = enumerate_maximal(shape).grids
    assert not verification.check_equivalence(shape, grids).passed
    # the right weight and contiguous rows, but (1, 1) lies below (3, 2): the
    # size law cannot tell this one apart, only the rules can
    bad = Grid(shape, [(1, 1), (2, 1), (3, 1), (3, 2), (3, 3)])
    result = verification.check_equivalence(shape, [bad], samples=0)
    assert (result.passed, result.detail) == (False, f"disagreement on grid with ones {bad.ones}")


def test_check_counting_compares_the_dp_with_the_enumeration(monkeypatch):
    shape = Shape((3, 3))
    grids = enumerate_maximal(shape).grids
    assert verification.check_counting(shape, grids).detail == (
        "enumerated 6; binomial form agrees (6)")
    monkeypatch.setattr(verification, "count_maximal", lambda shape: 7)
    result = verification.check_counting(shape, grids)
    assert not result.passed
    assert result.detail == "count_maximal gives 7, enumeration 6"
    # it counts the grids it is given, not a capped enumeration, whose count
    # past the cap is count_maximal's own
    monkeypatch.undo()
    monkeypatch.setattr(verification, "enumerate_maximal", None)
    result = verification.check_counting(shape, grids[1:])
    assert (result.passed, result.detail) == (False, "count_maximal gives 6, enumeration 5")


def test_check_counting_compares_the_closed_form_wherever_it_applies(monkeypatch):
    for dims, detail in [((3, 3), "enumerated 6; binomial form agrees (6)"),
                         ((2, 2, 2), "enumerated 2; min-dimension form agrees (2)"),
                         ((1, 2), "enumerated 1; binomial form agrees (1); "
                                  "min-dimension form agrees (1)"),
                         ((3, 3, 2), "enumerated 6"), ((2, 3, 4), "enumerated 10")]:
        grids = enumerate_maximal(Shape(dims)).grids
        assert verification.check_counting(Shape(dims), grids).detail == detail
    # count_maximal takes the closed form on each of these
    monkeypatch.setattr(enumeration, "count_closed_form", lambda shape: 21)
    for dims in [(3, 3), (2, 2, 2), (2, 3, 4)]:
        result = verification.check_counting(Shape(dims), enumerate_maximal(Shape(dims)).grids)
        assert not result.passed
        assert result.detail.startswith("count_maximal gives 21, enumeration ")


def test_check_counting_computes_the_forms_it_reports(monkeypatch, grids):
    # count_maximal agrees with a short list, so the binomial and min(w)
    # comparisons are the ones to fail it
    monkeypatch.setattr(verification, "count_maximal", lambda shape: 5)
    result = verification.check_counting(Shape((3, 3)), grids[1:])
    assert (result.passed, result.detail) == (False, "binomial form gives 6, enumeration 5")
    monkeypatch.setattr(verification, "count_maximal", lambda shape: 1)
    shape = Shape((2, 2, 2))
    result = verification.check_counting(shape, enumerate_maximal(shape).grids[1:])
    assert (result.passed, result.detail) == (False, "min-dimension form gives 2, enumeration 1")


def test_the_size_law_check_fails_a_light_grid(grids):
    light = Grid(Shape((3, 3)), grids[0].ones[1:])
    result = verification.check_size_law(Shape((3, 3)), [*grids, light])
    assert (result.passed, result.detail) == (
        False, "1 of 7 maximal grids deviate from weight 5")


def test_the_brute_force_check_fails_a_short_list(grids):
    result = verification.check_brute_force(Shape((3, 3)), grids[1:])
    assert (result.passed, result.detail) == (False, "subset filter and search disagree")


def test_the_bijection_check_fails_a_short_image_set(grids):
    # each grid makes its round trip, but one image of the extended box is
    # missing
    result = verification.check_bijection(Shape((3, 3)), grids[1:])
    assert (result.passed, result.detail) == (False, "image set differs: 5 vs 6 grids")


def test_the_normalization_check_fails_a_miscounted_report(monkeypatch, grids):
    def miscounted(m):
        report = normalize(m)
        return dataclasses.replace(report, steps=report.steps + 1)

    monkeypatch.setattr(verification, "normalize", miscounted)
    result = verification.check_normalization(Shape((3, 3)), grids)
    assert (result.passed, result.detail) == (False, f"step count off for ones {grids[0].ones}")


def test_the_normalization_check_fails_a_step_that_moves_nothing(monkeypatch, grids):
    monkeypatch.setattr(verification, "convert_step", lambda m: m)
    first = next(g for g in grids if x_set(to_intervals(g)))
    result = verification.check_normalization(Shape((3, 3)), grids)
    assert (result.passed, result.detail) == (
        False, f"convert step broke an invariant for ones {first.ones}")


def test_the_normalization_check_fails_a_report_off_its_own_trace(monkeypatch, grids):
    # another grid's normal form: the right steps and pairs, and no
    # obstruction left, but not where the steps lead
    results = [normalize(to_intervals(g)).result for g in grids]
    other = next(r for r in results if r != results[0])

    def elsewhere(m):
        return dataclasses.replace(normalize(m), result=other)

    monkeypatch.setattr(verification, "normalize", elsewhere)
    result = verification.check_normalization(Shape((3, 3)), grids)
    assert (result.passed, result.detail) == (False, f"trace mismatch for ones {grids[0].ones}")


def test_the_peel_check_fails_each_broken_telescope(monkeypatch, grids):
    shape = Shape((3, 3))
    for name, value, detail in [("peel", lambda m: m, "peel drop off"),
                                ("check_characterization", lambda m: False,
                                 "peel broke the characterization"),
                                ("max_size", lambda shape: 0, "telescoped weight off")]:
        with monkeypatch.context() as patch:
            patch.setattr(verification, name, value)
            result = verification.check_peel_recurrence(shape, grids)
        assert (result.passed, result.detail) == (False, f"{detail} for ones {grids[0].ones}")


def test_the_game_check_fails_a_wrong_loser(monkeypatch):
    shape = Shape((3, 3))
    monkeypatch.setattr(verification, "predict_loser", lambda shape, m: -1)
    result = verification.check_game(shape, trials=1, players=(2,))
    assert (result.passed, result.detail) == (
        False, f"m=2, trial 0: loser {predict_loser(shape, 2)}, expected -1")


def test_the_game_check_refuses_bad_players_before_any_game(monkeypatch):
    games = []

    def counted(*args, **kwargs):
        games.append(args)
        return play(*args, **kwargs)

    monkeypatch.setattr(verification, "play", counted)
    shape = Shape((2, 2))
    for players, message in [((2, 1), "players must be at least 2, got 1"),
                             ((2, 2.5), "players must be an int, got 2.5"),
                             ((True,), "players must be an int, got True"),
                             ((3, GAME_CELL_LIMIT + 2), "players must be at most "),
                             ((), "players must name at least one player count")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            verification.check_game(shape, trials=3, players=players)
    assert games == []
    # a list is as good as a tuple, and the detail names the counts played
    result = verification.check_game(shape, trials=3, players=[2, 3])
    assert result.passed and result.detail.endswith("for m in (2, 3)")
    assert len(games) == 6


def test_the_bijection_check_reads_each_image_once(monkeypatch):
    # one row-form pass per grid on each side of its round trip: 6 on 3x3 and
    # 6 on 3x3x2
    calls = []

    def counted(g):
        calls.append(g.shape.dims)
        return row_form(g)

    row_form = rowform.maximal_row_form
    monkeypatch.setattr(rowform, "maximal_row_form", counted)
    monkeypatch.setattr(counting, "maximal_row_form", counted)
    shape = Shape((3, 3))
    assert verification.check_bijection(shape, enumerate_maximal(shape).grids).passed
    assert calls.count((3, 3, 2)) == calls.count((3, 3)) == 6 and len(calls) == 12


def test_the_bijection_check_fails_a_non_maximal_image(monkeypatch):
    def punctured(g):
        image = counting.extend_by_two(g)
        return Grid(image.shape, image.ones[1:])

    monkeypatch.setattr(verification, "extend_by_two", punctured)
    shape = Shape((3, 3))
    grids = enumerate_maximal(shape).grids
    result = verification.check_bijection(shape, grids)
    assert (result.passed, result.detail) == (
        False, f"round trip failed for ones {grids[0].ones}")


def test_verify_shape_refuses_work_above_its_limits(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started above the limit")

    monkeypatch.setattr(verification, "enumerate_maximal", no_work)
    with pytest.raises(ValueError, match=f"samples must be at most {VERIFY_SAMPLE_LIMIT}"):
        verify_shape(Shape((2, 2)), samples=VERIFY_SAMPLE_LIMIT + 1)
    with pytest.raises(ValueError, match=f"trials must be at most {VERIFY_TRIAL_LIMIT}"):
        verify_shape(Shape((2, 2)), trials=VERIFY_TRIAL_LIMIT + 1)


def test_verify_shape_refuses_counts_that_are_not_non_negative_ints(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started on a bad count")

    monkeypatch.setattr(verification, "enumerate_maximal", no_work)
    for name in ("samples", "trials"):
        for value, shown in [(-3, "at least 0, got -3"), (2.5, "an int, got 2.5"),
                             (True, "an int, got True"), ("5", "an int, got '5'")]:
            with pytest.raises(ValueError, match=rf"^{name} must be {shown}$"):
                verify_shape(Shape((2, 2)), **{name: value})
    monkeypatch.undo()
    assert all(r.passed for r in verify_shape(Shape((2, 2)), samples=0, trials=0))
