import pytest

from maxac import (
    VERIFY_SAMPLE_LIMIT,
    VERIFY_TRIAL_LIMIT,
    CharacterizationReport,
    Grid,
    Shape,
    enumerate_maximal,
    is_maximal,
    sample_non_maximal,
    verify_shape,
)
from maxac import counting, enumeration, rowform, verification


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


def test_the_bijection_check_reads_each_image_once(monkeypatch):
    # one row-form pass per grid on each side of each round trip: 6 on 3x3 and
    # 6 on 3x3x2 forward, and as many back
    calls = []

    def counted(g):
        calls.append(g.shape.dims)
        return row_form(g)

    row_form = rowform.maximal_row_form
    monkeypatch.setattr(rowform, "maximal_row_form", counted)
    monkeypatch.setattr(counting, "maximal_row_form", counted)
    shape = Shape((3, 3))
    assert verification.check_bijection(shape, enumerate_maximal(shape).grids).passed
    assert calls.count((3, 3, 2)) == calls.count((3, 3)) == 12 and len(calls) == 24


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
