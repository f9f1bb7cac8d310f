"""The summary arithmetic of ``tools/pairs.py`` on fixed paired runs."""

import importlib.util
import math
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def test_lower_is_better_medians_quartiles_and_wins():
    parent = [10.0, 12.0, 11.0, 13.0, 14.0]
    change = [5.0, 6.0, 11.0, 15.0, 4.0]  # pair 2 ties, pair 3 goes to the parent
    s = pairs.summarize(parent, change, "lower", 0.25)
    # linear percentiles of the sorted 10, 11, 12, 13, 14 and 4, 5, 6, 11, 15
    assert (s["parent"]["q1"], s["parent"]["median"], s["parent"]["q3"]) == (11.0, 12.0, 13.0)
    assert (s["change"]["q1"], s["change"]["median"], s["change"]["q3"]) == (5.0, 6.0, 11.0)
    assert s["parent"]["iqr_over_median"] == 2.0 / 12.0 and s["change"]["iqr_over_median"] == 1.0
    assert s["median_change"] == -0.5
    assert s["wins"] == {"change": 3, "parent": 1, "ties": 1}
    # 3 of 5 pairs is short of nine tenths, though the medians differ by 6 > the parent's IQR of 2
    assert not s["gain"] and not s["worse"]


def test_gain_needs_nine_tenths_of_the_pairs_and_a_shift_past_the_parent_iqr():
    parent = [100.0 + k for k in range(10)]  # quartiles 102.25 and 106.75: IQR 4.5
    assert pairs.summarize(parent, [p - 5 for p in parent], "lower")["gain"]
    assert not pairs.summarize(parent, [p - 4 for p in parent], "lower")["gain"]  # 4 < 4.5
    nine = [p - 5 for p in parent[:9]] + [parent[9] + 1]
    s = pairs.summarize(parent, nine, "lower")
    assert s["wins"] == {"change": 9, "parent": 1, "ties": 0} and s["gain"]
    eight = [p - 5 for p in parent[:8]] + parent[8:]
    s = pairs.summarize(parent, eight, "lower")
    assert s["wins"] == {"change": 8, "parent": 0, "ties": 2} and not s["gain"]


def test_higher_is_better_and_the_regression_bound():
    parent = [100.0] * 10
    s = pairs.summarize(parent, [70.0, 80.0] * 5, "higher", 0.25)
    assert s["median_change"] == -0.25 and s["wins"]["parent"] == 10 and not s["worse"]
    s = pairs.summarize(parent, [70.0, 74.0] * 5, "higher", 0.25)
    assert s["median_change"] == -0.28 and s["worse"] and not s["gain"]
    s = pairs.summarize(parent, [130.0, 140.0] * 5, "higher", 0.25)
    assert s["median_change"] == 0.35 and s["gain"] and not s["worse"]
    # fewer than ten pairs claim nothing, however they fall
    assert not pairs.summarize(parent[:9], [130.0] * 9, "higher", 0.25)["gain"]


def test_unresolved_where_the_parent_spreads_past_the_bound():
    parent = [80.0, 90.0, 100.0, 110.0, 120.0] * 2  # quartiles 90 and 110: IQR over median 0.2
    s = pairs.summarize(parent, [p + 1 for p in parent], "lower", 0.1)
    assert s["parent"]["iqr_over_median"] == 0.2 and s["unresolved"] and not s["worse"]
    # a spread within the bound, or no bound, resolves the metric
    assert not pairs.summarize(parent, [p + 1 for p in parent], "lower", 0.25)["unresolved"]
    assert not pairs.summarize(parent, [p + 1 for p in parent], "lower")["unresolved"]
    # every change run beats every parent run; one change run at the best parent run does not
    assert not pairs.summarize(parent, [79.0] * 10, "lower", 0.1)["unresolved"]
    assert pairs.summarize(parent, [79.0] * 9 + [80.0], "lower", 0.1)["unresolved"]
    # and higher is better
    assert not pairs.summarize(parent, [121.0] * 10, "higher", 0.1)["unresolved"]
    s = pairs.summarize(parent, [121.0] * 9 + [120.0], "higher", 0.1)
    assert s["unresolved"] and s["gain"]


def test_zero_parent_median_has_no_ratio():
    s = pairs.summarize([0.0, 0.0], [1.0, 0.0], "lower", 0.25)
    assert math.isnan(s["median_change"]) and s["wins"] == {"change": 0, "parent": 1, "ties": 1}


@pytest.mark.parametrize("parent, change, better", [([1.0], [1.0, 2.0], "lower"), ([], [], "lower"),
                                                    ([1.0], [2.0], "sideways")])
def test_rejects_unpaired_runs_and_unknown_directions(parent, change, better):
    with pytest.raises(ValueError):
        pairs.summarize(parent, change, better)
