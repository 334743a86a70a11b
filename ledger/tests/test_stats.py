import numpy as np
import pytest

from ledger import stats


def test_percentile_matches_numpy_linear_interpolation():
    rng = np.random.default_rng(7)
    values = rng.exponential(5.0, size=333).tolist()
    for q in (0, 10, 50, 95, 99, 100):
        assert stats.percentile(values, q) == pytest.approx(
            float(np.percentile(values, q)), rel=1e-12)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_ten_samples_beyond_rule():
    # p95 needs ten samples above it: 5 % of 200.
    assert not stats.supported(199, 95)
    assert stats.supported(200, 95)
    assert not stats.supported(999, 99)
    assert stats.supported(1000, 99)
    # Exactly ten of 200 samples lie beyond their p95.
    values = list(range(200))
    assert sum(v > stats.percentile(values, 95) for v in values) == 10


def test_iqr_spread_is_quartile_distance_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    import statistics
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.iqr_spread(values) == pytest.approx((q3 - q1) / 14.5)
    assert stats.iqr_spread([3.0]) == 0.0


def test_worse_by_honours_direction():
    assert stats.worse_by(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert stats.worse_by(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert stats.worse_by(100.0, 90.0, "higher") == pytest.approx(0.10)


def test_alternating_sets_interleave():
    assert stats.alternating_sets([1, 2, 3, 4, 5, 6]) == [[1, 3, 5],
                                                          [2, 4, 6]]
