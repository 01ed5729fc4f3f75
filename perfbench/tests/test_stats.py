import random

import pytest

import stats


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 101)]
    random.Random(0).shuffle(samples)
    value, pct = stats.tail_percentile(samples)
    assert value == 90.0 and pct == 90.0
    assert sum(1 for s in samples if s > value) == 10


def test_tail_with_eleven_samples_is_the_smallest():
    value, pct = stats.tail_percentile([5.0, 1.0, 9.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 10.0, 11.0])
    assert value == 1.0
    assert pct == pytest.approx(100 / 11)


def test_tail_without_enough_samples_is_the_maximum():
    assert stats.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0)
    with pytest.raises(ValueError):
        stats.tail_percentile([])


def test_tally_never_drops_failures():
    tally = stats.Tally()
    tally.record(True)
    tally.record(False, "raised")
    tally.record(False, "wrong answer")
    tally.record(True)
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.failed_share == 0.5
    assert tally.reasons == ["raised", "wrong answer"]
