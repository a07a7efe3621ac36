"""Clock seam, repetition protocol and sample statistics."""

import pytest

from repro.bench.timer import (DEFAULT_REPEAT, DEFAULT_WARMUP, FakeClock,
                               Sample, measure)


class TestFakeClock:
    def test_advances_per_reading(self):
        clock = FakeClock(start=10.0, step=0.5)
        assert [clock(), clock(), clock()] == [10.0, 10.5, 11.0]

    def test_rejects_negative_step(self):
        with pytest.raises(ValueError):
            FakeClock(step=-1.0)


class TestSample:
    def test_statistics(self):
        s = Sample(seconds=[3.0, 1.0, 2.0])
        assert s.median == 2.0
        assert s.mean == 2.0
        assert s.best == 1.0
        assert s.worst == 3.0
        assert s.spread == pytest.approx(1.0)  # (3 - 1) / 2

    def test_even_count_median_interpolates(self):
        assert Sample(seconds=[1.0, 2.0, 3.0, 10.0]).median == 2.5

    def test_single_run_spread_is_zero(self):
        assert Sample(seconds=[4.2]).spread == 0.0

    def test_zero_median_spread_guard(self):
        assert Sample(seconds=[0.0, 0.0]).spread == 0.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty sample"):
            Sample().median

    def test_dict_round_trip(self):
        s = Sample(seconds=[1.0, 3.0, 2.0], warmup=2)
        d = s.to_dict()
        assert d["median_s"] == 2.0
        assert d["repeat"] == 3
        back = Sample.from_dict(d)
        assert back.seconds == s.seconds
        assert back.warmup == 2

    def test_from_dict_requires_samples(self):
        with pytest.raises(ValueError, match="samples_s"):
            Sample.from_dict({"median_s": 1.0})


class TestMeasure:
    def test_fake_clock_samples_are_deterministic(self):
        calls = []
        sample = measure(lambda: calls.append(1), repeat=3, warmup=2,
                         clock=FakeClock(step=0.25))
        # Two readings bracket each timed run: every sample is one step.
        assert sample.seconds == [0.25, 0.25, 0.25]
        assert sample.warmup == 2
        assert len(calls) == 5  # warmup runs execute but are untimed

    def test_repeat_must_be_positive(self):
        with pytest.raises(ValueError, match="repeat"):
            measure(lambda: None, repeat=0)

    def test_warmup_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            measure(lambda: None, repeat=1, warmup=-1)

    def test_defaults(self):
        calls = []
        sample = measure(lambda: calls.append(1), clock=FakeClock())
        assert sample.repeat == DEFAULT_REPEAT
        assert sample.warmup == DEFAULT_WARMUP
        assert len(calls) == DEFAULT_REPEAT + DEFAULT_WARMUP
