import pytest

from maxac import (
    VERIFY_SAMPLE_LIMIT,
    VERIFY_TRIAL_LIMIT,
    Shape,
    enumerate_maximal,
    is_maximal,
    sample_non_maximal,
    verify_shape,
)
from maxac import verification


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


def test_check_counting_compares_the_dp_with_the_enumeration(monkeypatch):
    shape = Shape((3, 3))
    assert verification.check_counting(shape).detail == "enumerated 6; binomial form agrees (6)"
    monkeypatch.setattr(verification, "count_maximal", lambda shape: 7)
    result = verification.check_counting(shape)
    assert not result.passed
    assert result.detail == "transfer DP gives 7, enumeration 6"


def test_check_counting_compares_the_closed_form_wherever_it_applies(monkeypatch):
    for dims, detail in [((3, 3), "enumerated 6; binomial form agrees (6)"),
                         ((2, 2, 2), "enumerated 2; min-dimension form agrees (2)"),
                         ((1, 2), "enumerated 1; binomial form agrees (1); "
                                  "min-dimension form agrees (1)"),
                         ((3, 3, 2), "enumerated 6"), ((2, 3, 4), "enumerated 10")]:
        assert verification.check_counting(Shape(dims)).detail == detail
    monkeypatch.setattr(verification, "count_closed_form", lambda shape: 21)
    for dims in [(3, 3), (2, 2, 2), (2, 3, 4)]:
        result = verification.check_counting(Shape(dims))
        assert not result.passed
        assert result.detail.startswith("closed form gives 21, enumeration ")


def test_verify_shape_refuses_work_above_its_limits(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started above the limit")

    monkeypatch.setattr(verification, "enumerate_maximal", no_work)
    with pytest.raises(ValueError, match=f"samples must be at most {VERIFY_SAMPLE_LIMIT}"):
        verify_shape(Shape((2, 2)), samples=VERIFY_SAMPLE_LIMIT + 1)
    with pytest.raises(ValueError, match=f"trials must be at most {VERIFY_TRIAL_LIMIT}"):
        verify_shape(Shape((2, 2)), trials=VERIFY_TRIAL_LIMIT + 1)
