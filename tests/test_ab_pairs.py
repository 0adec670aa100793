"""The statistics of the alternating-pairs script on fixed numbers."""

import pytest

from ab_pairs import pair_stats

PARENT = [1.0, 2.0, 3.0, 4.0, 5.0]
CHANGE = [0.5, 2.0, 3.6, 2.4, 4.0]


def test_pair_stats_medians_iqr_and_wins():
    stats = pair_stats(PARENT, CHANGE, "lower")
    assert stats["parent_median"] == 3.0
    assert stats["change_median"] == 2.4
    assert stats["relative"] == pytest.approx(-0.2)
    # quartiles 2 and 4 by linear interpolation
    assert stats["parent_iqr"] == 2.0
    # lower wins pairs 0, 3 and 4; pair 1 is a tie
    assert stats["wins"] == 3


def test_pair_stats_higher_is_better_and_ties_count_for_neither():
    stats = pair_stats(PARENT, CHANGE, "higher")
    assert stats["wins"] == 1
    assert stats["relative"] == pytest.approx(-0.2)


def test_pair_stats_even_count_interpolates():
    stats = pair_stats([4.0, 1.0, 3.0, 2.0], [1.0, 1.0, 1.0, 1.0], "lower")
    assert stats["parent_median"] == 2.5
    assert stats["parent_iqr"] == 1.5
    assert stats["wins"] == 3


@pytest.mark.parametrize("parent, change, better", [
    ([1.0], [1.0, 2.0], "lower"),
    ([], [], "lower"),
    ([1.0], [1.0], "faster"),
])
def test_pair_stats_rejects_bad_input(parent, change, better):
    with pytest.raises(ValueError):
        pair_stats(parent, change, better)
