import pytest

import benchstats


@pytest.mark.parametrize("n, expected", [(11, 9), (40, 75), (100, 90)])
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    p = benchstats.tail_percentile(n)
    assert p == expected
    values = list(range(n))
    assert benchstats.samples_beyond(values, p) >= 10
    # one percentile higher would leave fewer than ten
    assert benchstats.samples_beyond(values, p + 1) < 10


def test_tail_value_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert benchstats.percentile(values, benchstats.tail_percentile(100)) == 90.0
    assert benchstats.percentile(list(range(40, 0, -1)), 75) == 30
    assert benchstats.percentile([5.0] + [1.0] * 10, 9) == 1.0


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        benchstats.tail_percentile(10)

