"""The statistics of the alternating-pairs script on fixed numbers."""

import pytest

from ab_pairs import pair_stats, report_values, verdict

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


# a run's report as perfbench/run.py prints it, the JSON line last
REPORT = """perfbench workload=full-plan seed=7 trace=0 calls=12 steps/call=10
fingerprint {"cpu": "x", "numpy": "2.4.6"}
  setup_s           0.512345      s      normalised, median of 3 fresh interpreters [0.5, 0.51]; raw [0.4]
  norm_wall_s       0.0801        s      normalised, median of 12 calls [0.08, 0.081]
  norm_steps_per_s  124.8         1/s    10 optimizer steps per call over norm_wall_s
  norm_cpu_s        0.0799        s      normalised user+sys, median of 12 calls
  peak_rss_mb       47.8          MiB    peak resident set of the whole run
  wall_s            0.0912        s      raw, median of 12 calls [0.09, 0.092]
  steps_per_s       109.6         1/s    raw, 10 optimizer steps per call over wall_s
  cpu_s             0.0905        s      raw user+sys, median of 12 calls [0.09]
  reference_s       0.0734        s      reference kernel around each call, median [0.073]
  f1                0.4321        1      micro-F1 on unlabeled rows
  failed_share      0             1      0 of 12 runs/cells
{"correct": true, "attempted": 12, "failed": 0, "metrics": {}}""".splitlines()


def test_report_values_reads_raw_wall_and_reference_times():
    assert report_values(REPORT) == {"wall_s": 0.0912, "reference_s": 0.0734}
    # the normalised and per-step lines are other metrics
    assert report_values(REPORT, ("norm_wall_s", "steps_per_s")) == {
        "norm_wall_s": 0.0801, "steps_per_s": 109.6}


def test_report_values_names_a_missing_metric():
    lines = [line for line in REPORT if "reference_s" not in line]
    with pytest.raises(ValueError, match="reference_s"):
        report_values(lines)


# ten paired runs around 1.0 with quartiles 0.99 and 1.01
TIGHT = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.01, 0.99]
WIDE = [float(v) for v in range(1, 11)]  # IQR 4.5 around a median of 5.5


@pytest.mark.parametrize("parent, change, better, expected", [
    # the parent's spread exceeds the bound, and the runs overlap
    (WIDE, [v - 0.1 for v in WIDE], "lower", "unresolved"),
    # ... unless every change run beats every parent run
    (WIDE, [0.5] * 10, "lower", "gain"),
    (TIGHT, [v * 1.3 for v in TIGHT], "lower", "outside bound"),
    (TIGHT, [v * 0.7 for v in TIGHT], "higher", "outside bound"),
    (TIGHT, [v - 0.1 for v in TIGHT], "lower", "gain"),
    (TIGHT, [v + 0.1 for v in TIGHT], "higher", "gain"),
    # every pair won, but by less than the parent's IQR
    (TIGHT, [v - 0.01 for v in TIGHT], "lower", "within bound"),
    # a large move of the median from 8 of 10 pairs
    (TIGHT, [v - 0.1 for v in TIGHT[:8]] + [v + 0.01 for v in TIGHT[8:]],
     "lower", "within bound"),
    (TIGHT, [v * 1.05 for v in TIGHT], "lower", "within bound"),
])
def test_verdict_applies_the_rules_in_order(parent, change, better, expected):
    assert verdict(parent, change, better, 0.25) == expected
