from maxac import Shape, enumerate_maximal, is_maximal, sample_non_maximal
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
