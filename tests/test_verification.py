import dataclasses
from itertools import islice

import pytest
import reference_verification as ref

from maxac import (
    VERIFY_SAMPLE_LIMIT,
    VERIFY_TRIAL_LIMIT,
    CharacterizationReport,
    Grid,
    Shape,
    enumerate_maximal,
    is_maximal,
    iter_shapes,
    max_size,
    normalize,
    play,
    predict_loser,
    sample_non_maximal,
    to_intervals,
    verify_shape,
    x_set,
)
from maxac import counting, core, rowform, verification

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
    # the equivalence check samples from the grids it is handed
    assert verification.check_equivalence(shape, grids, samples=0).passed
    assert verification.check_equivalence(shape, grids).passed
    assert calls == []
    sample = sample_non_maximal(shape, 3, seed=4)
    assert len(sample) == 3 and not any(is_maximal(g) for g in sample)
    assert calls == [shape]
    # verify lists the box once, and the box with a size-2 axis appended once
    for dims in [(3, 3), (2, 2, 3)]:
        calls.clear()
        assert all(r.passed for r in verify_shape(Shape(dims), trials=1))
        assert calls == [Shape(dims), Shape(dims + (2,))]


def _pass_full_weight(patch):
    """Patch a characterization that passes every map of full weight,
    wherever it is read: is_maximal then calls every full-weight grid with
    contiguous rows maximal.  Returns the true check."""
    def full_weight_holds(m):
        if verification._interval_weight(m) == max_size(m.shape):
            return CharacterizationReport(True)
        return check(m)

    check = rowform.check_characterization
    patch.setattr(rowform, "check_characterization", full_weight_holds)
    patch.setattr(verification, "check_characterization", full_weight_holds)
    return check


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


def test_the_equivalence_check_samples_by_the_flood_not_by_the_row_form(monkeypatch):
    # a sample filtered by the faulty is_maximal never holds the grids on
    # which the two sides disagree
    shape = Shape((3, 3))
    grids = enumerate_maximal(shape).grids
    with monkeypatch.context() as patch:
        check = _pass_full_weight(patch)
        result = verification.check_equivalence(shape, grids)
        assert not result.passed
        named = next(g for g in islice(verification._draws(shape, 0, grids), 10_000)
                     if result.detail == f"disagreement on grid with ones {g.ones}")
        assert is_maximal(named)  # so is_maximal would drop it from the sample
    # the grid named has the full weight and contiguous rows, but is not maximal
    assert len(named.ones) == max_size(shape) and not is_maximal(named)
    assert not check(to_intervals(named))


def test_a_row_form_fault_cannot_hide_from_the_sample(monkeypatch):
    # the flood filters sample_non_maximal, so the sample holds grids that
    # the faulty is_maximal calls maximal, and a pool built from it sees
    # the fault
    _pass_full_weight(monkeypatch)
    sample = sample_non_maximal(Shape((3, 3)), 1000, 0)
    assert any(is_maximal(g) for g in sample)


def test_the_equivalence_check_decides_each_distinct_grid_once(monkeypatch):
    floods, row_forms = [], []

    def flood(g):
        floods.append(g.ones)
        return core._flood(g)

    def row_form(g):
        row_forms.append(g.ones)
        return to_intervals(g)

    monkeypatch.setattr(verification, "_flood", flood)
    monkeypatch.setattr(verification, "to_intervals", row_form)
    for dims, distinct in [((2, 2, 2), 220), ((3, 3), 269), ((4, 4), 702)]:
        shape = Shape(dims)
        grids = enumerate_maximal(shape).grids
        # the draws the check walks: up to the 1000th that is not maximal
        walked, left = list(grids), 1000
        for g in verification._draws(shape, 0, grids):
            walked.append(g)
            left -= not is_maximal(g)
            if not left:
                break
        assert verification.check_equivalence(shape, grids).passed
        assert sorted(floods) == sorted(row_forms) == sorted({g.ones for g in walked})
        # of the 1002, 1006 and 1020 maximal and sampled grids, duplicates included
        assert len(floods) == distinct
        floods.clear()
        row_forms.clear()


def _compare_with_the_reference(shapes, seeds, samples):
    for shape in shapes:
        grids = enumerate_maximal(shape).grids
        for seed in seeds:
            assert (verification.check_equivalence(shape, grids, samples, seed)
                    == ref.check_equivalence(shape, grids, samples, seed)), (shape, seed)


def test_the_equivalence_check_gives_the_reference_result():
    _compare_with_the_reference(iter_shapes(12, 4), (0, 1), samples=100)
    shape = Shape((3, 3))
    grids = enumerate_maximal(shape).grids
    # a doctored grid fails both at the same grid
    bad = Grid(shape, [(1, 1), (2, 1), (3, 1), (3, 2), (3, 3)])
    assert verification.check_equivalence(shape, [*grids, bad]) == ref.check_equivalence(
        shape, [*grids, bad])


@pytest.mark.slow
def test_the_equivalence_check_gives_the_reference_result_on_every_small_shape():
    _compare_with_the_reference(iter_shapes(25, 4), (0, 1), samples=1000)


def test_sample_non_maximal_gives_the_reference_sample():
    for shape in iter_shapes(12, 4):
        for seed in range(3):
            assert sample_non_maximal(shape, 100, seed) == ref.sample_non_maximal(
                shape, 100, seed), (shape, seed)
    assert sample_non_maximal(Shape((3, 3)), 100) == ref.sample_non_maximal(Shape((3, 3)), 100, 0)


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


def test_check_counting_compares_the_closed_form_wherever_it_applies():
    for dims, detail in [((3, 3), "enumerated 6; binomial form agrees (6)"),
                         ((2, 2, 2), "enumerated 2; min-dimension form agrees (2)"),
                         ((1, 2), "enumerated 1; binomial form agrees (1); "
                                  "min-dimension form agrees (1)"),
                         ((3, 3, 2), "enumerated 6"), ((2, 3, 4), "enumerated 10")]:
        grids = enumerate_maximal(Shape(dims)).grids
        assert verification.check_counting(Shape(dims), grids).detail == detail


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
    result = verification.check_game(shape, trials=1)
    assert (result.passed, result.detail) == (
        False, f"m=2, trial 0: loser {predict_loser(shape, 2)}, expected -1")


def test_the_game_check_plays_100_games_per_player_count_by_default(monkeypatch):
    games = []

    def counted(*args, **kwargs):
        games.append((args[1], kwargs["seed"]))
        return play(*args, **kwargs)

    monkeypatch.setattr(verification, "play", counted)
    result = verification.check_game(Shape((2, 2)))
    assert result.detail == "loser = 3 mod m over 100 seeded games for m in (2, 3, 5)"
    played = [(m, m * 1_009 + t) for m in (2, 3, 5) for t in range(100)]
    assert games == played
    # verify_shape plays the same games by default, on seed 0
    games.clear()
    verify_shape(Shape((2, 2)))
    assert games == played


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


def test_verify_shape_says_which_checks_do_not_apply_or_are_skipped():
    # 17 cells pass the subset filter's 16 and, doubled, the enumeration's
    # 25; with w_d = 1 no interval can move; on 3,2 the default samples and
    # trials, and the steps, are counted in the details
    for dims, details in [
        ((17,), {"characterization-equivalence": "d = 1: characterization not applicable",
                 "brute-force-cross-check": "skipped: 17 cells exceed the oracle budget",
                 "append-layer-bijection": "skipped: extended box exceeds the enumeration budget",
                 "normalization": "d = 1: not applicable",
                 "peel-recurrence": "d = 1: not applicable"}),
        ((3, 1), {"normalization": "w_d = 1: convert steps not defined",
                  "peel-recurrence": "1 grids telescoped to the closed form"}),
        ((3, 2), {"characterization-equivalence": "3 maximal + 1000 sampled grids agree",
                  "normalization": "3 grids normalized in 3 total steps",
                  "game-loser": "loser = 4 mod m over 100 seeded games for m in (2, 3, 5)"}),
    ]:
        results = {r.name: r for r in verify_shape(Shape(dims))}
        assert all(r.passed for r in results.values()), dims
        assert {name: results[name].detail for name in details} == details


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
