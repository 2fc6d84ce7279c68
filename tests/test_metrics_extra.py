"""Jain's index tests."""

import pytest

from repro.metrics.fairness import jains_index


class TestJainsIndex:
    def test_perfectly_fair(self):
        assert jains_index([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_totally_unfair(self):
        assert jains_index([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_intermediate(self):
        value = jains_index([4, 2])
        assert 0.5 < value < 1.0

    def test_all_zero_is_fair(self):
        assert jains_index([0, 0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            jains_index([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            jains_index([-1, 2])
