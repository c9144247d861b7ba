"""The A/B verdict rule on synthetic paired samples."""

import pytest

from verdict import GAIN, REGRESSION, UNRESOLVED, WITHIN, quartiles, verdict, wins

BASE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


def test_quartiles_match_statistics_quantiles():
    assert quartiles([1.0, 2.0, 3.0, 4.0]) == (1.25, 2.5, 3.75)
    assert quartiles([5.0]) == (5.0, 5.0, 5.0)


def test_ties_count_for_neither_side():
    head = list(BASE)
    head[0] = 0.5
    assert wins(BASE, head, "lower") == (1, 0)
    assert wins(BASE, list(BASE), "lower") == (0, 0)


def test_exactly_nine_of_ten_wins_is_a_gain():
    head = [b * 0.8 for b in BASE]
    head[3] = BASE[3] * 1.5  # one lost pair
    result = verdict(BASE, head, "lower", bound=0.10)
    assert (result["head_wins"], result["base_wins"]) == (9, 1)
    assert result["verdict"] == GAIN


def test_eight_wins_and_two_ties_is_not_a_gain():
    head = [b * 0.8 for b in BASE]
    head[3], head[7] = BASE[3], BASE[7]  # ties count for neither side
    result = verdict(BASE, head, "lower", bound=0.10)
    assert result["head_wins"] == 8
    assert result["verdict"] == WITHIN


def test_gap_inside_the_parent_iqr_is_not_a_gain():
    base = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.2, 0.8, 1.1, 0.9]
    head = [b - 0.01 for b in base]  # wins every pair by less than the IQR
    result = verdict(base, head, "lower", bound=0.5)
    assert result["head_wins"] == 10
    assert result["verdict"] == WITHIN


def test_spread_wider_than_the_bound_is_unresolved():
    base = [1.0, 1.3, 0.7, 1.2, 0.8, 1.0, 1.3, 0.7, 1.2, 0.8]
    head = [1.1, 1.0, 0.9, 1.4, 0.8, 1.2, 0.7, 1.3, 1.0, 1.1]
    assert verdict(base, head, "lower", bound=0.10)["verdict"] == UNRESOLVED


def test_slower_beyond_the_bound_is_a_regression():
    head = [b * 1.2 for b in BASE]
    assert verdict(BASE, head, "lower", bound=0.10)["verdict"] == REGRESSION
    assert verdict(BASE, [b * 1.05 for b in BASE], "lower", 0.10)["verdict"] == WITHIN


def test_higher_is_better_metrics_flip_the_direction():
    head = [b * 1.2 for b in BASE]
    assert verdict(BASE, head, "higher", bound=0.10)["verdict"] == GAIN
    assert verdict(BASE, head, "lower", bound=0.10)["verdict"] == REGRESSION


def test_unpaired_samples_are_refused():
    with pytest.raises(ValueError):
        verdict([1.0, 2.0], [1.0], "lower", bound=0.1)
